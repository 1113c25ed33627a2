//! The paper's evaluation and the repo's gates as one registry `dstool`
//! runs: [`FIGURES`].
//!
//! Each row regenerates one table of exact numbers and checks its claim.
//! The simulator rows reproduce the paper's figures and tables from the
//! scaled-down datasets and server presets of [`presets`].  Scaling the
//! dataset down (by [`presets::SCALE`]) changes only absolute epoch times;
//! the stall fractions, hit ratios and relative speedups that the paper's
//! figures are about are invariant to it, because the cache is always sized
//! as a *fraction* of the dataset.  Beside them sit the rows that check the
//! reproduction itself: the *runtime* rows ([`runtime`] is their one
//! harness; [`parallel`], [`tiersweep`], [`multitenant`], [`fssweep`],
//! [`chaos`] and [`fetchsweep`] each hold one row's sizes, `run_once` and
//! shape check), the vectorized engine's [`mega`] sweep, and the
//! predicted-vs-empirical [`validation`] table.  `dstool figures` prints
//! them and gates them exactly against the committed `FIGURES.json`;
//! `EXPERIMENTS.md` records the paper-reported value next to the measured
//! one for every row.

pub mod chaos;
pub mod fetchsweep;
pub mod figures;
pub mod fssweep;
pub mod mega;
pub mod multitenant;
pub mod parallel;
pub mod presets;
pub mod report;
pub mod runtime;
pub mod tiersweep;
pub mod validation;

pub use figures::{find_figure, run_figures, Claim, Figure, FigureTable, FIGURES};
pub use mega::{run_mega_sweep, MegaSweepReport};
pub use presets::{
    scaled, server_hdd, server_ssd, vcpu_effective_cores, HP_WIDTHS, MIXED_CACHE_PERCENTS,
    SCALABILITY_SERVERS, SCALE, VCPUS_PER_GPU,
};
pub use report::Table;
pub use runtime::{compare_exact, StreamDigest, Workload};
pub use validation::GateKind;
