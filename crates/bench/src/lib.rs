//! Shared harness for the figure/table benches.
//!
//! Every bench binary in `benches/` regenerates one table or figure of the
//! paper.  They all follow the same recipe: build a scaled-down dataset and a
//! server configuration from [`presets`], run the relevant simulation through
//! [`scenarios`], and print the rows/series the paper reports through
//! [`report`].  Scaling the dataset down (by [`presets::SCALE`]) changes only
//! absolute epoch times; the stall fractions, hit ratios and relative
//! speedups that the paper's figures are about are invariant to it, because
//! the cache is always sized as a *fraction* of the dataset.
//!
//! The output of `cargo bench` is therefore a textual reproduction of the
//! paper's evaluation section; `EXPERIMENTS.md` records the paper-reported
//! value next to the measured one for every row.
//!
//! The *runtime* presets (`dstool sweep worker-sweep` and friends) live
//! beside the figure benches: [`runtime`] is their one harness — digest,
//! recorded result shape, JSON emitter, table printer, gate runner, baseline
//! walk and the registry `dstool` iterates — and [`parallel`], [`tiersweep`],
//! [`multitenant`], [`fssweep`], [`chaos`] and [`fetchsweep`] each hold one
//! preset's sizes, `run_once` and shape check.

pub mod chaos;
pub mod fetchsweep;
pub mod fssweep;
pub mod mega;
pub mod multitenant;
pub mod parallel;
pub mod presets;
pub mod report;
pub mod runtime;
pub mod scenarios;
pub mod tiersweep;
pub mod validation;

pub use mega::{run_mega_sweep, MegaSweepConfig, MegaSweepReport, MEGA_SWEEP_NAME};
pub use presets::{
    find_suite, scaled, server_hdd, server_ssd, vcpu_effective_cores, SweepSuite,
    CACHE_SWEEP_PERCENTS, HP_WIDTHS, MIXED_CACHE_PERCENTS, SCALABILITY_SERVERS, SCALE,
    SMOKE_EXTRA_SCALE, SUITES, VCPUS_PER_GPU,
};
pub use report::{fmt_bytes, fmt_gb, fmt_pct, fmt_speedup, Table};
pub use runtime::{
    compare_exact, find_preset, PointResult, PresetReport, RuntimePreset, StreamDigest, Workload,
    RUNTIME_PRESETS,
};
pub use scenarios::{
    distributed_pair, distributed_run, hp_jobs, hp_pair, hp_run, single_pair, single_run, steady,
    SinglePair,
};
pub use validation::{run_validation, GateKind, ValidationConfig, ValidationReport, ValidationRow};
