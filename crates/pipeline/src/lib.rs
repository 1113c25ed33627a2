//! Input-pipeline simulator.
//!
//! This crate ties the substrates together into the experiment engine used by
//! DS-Analyzer, the benches and the examples: given a server configuration, a
//! model, a dataset and a *loader* (native PyTorch, DALI-seq, DALI-shuffle,
//! TFRecord or CoorDL), it simulates training epoch by epoch at minibatch
//! granularity and reports epoch time, the fetch/prep stall breakdown, cache
//! hit rates, disk/remote/cache byte counts and an I/O timeline.
//!
//! The entry point is the [`Experiment`] builder with a [`Scenario`] matching
//! the paper's evaluation shapes:
//!
//! * [`Scenario::SingleServer`] — one data-parallel job on one server
//!   (Figure 9a, Figures 2–6, 11, 13, 14, 21),
//! * [`Scenario::HpSearch`] — several concurrent hyper-parameter-search jobs
//!   sharing one server's CPU, DRAM and storage (Figures 9d/e, 17, 22, 23,
//!   Tables 3 and 7),
//! * [`Scenario::Distributed`] — one job spread across several servers
//!   (Figures 9b, 10, 18),
//! * [`Scenario::MixedCluster`] — heterogeneous jobs (different models,
//!   datasets, loaders) contending for one server's cache, CPU and disk,
//! * [`Scenario::PartitionedChaos`] — the distributed scenario under a
//!   seeded schedule of server crashes, graceful leaves and rejoins
//!   ([`fault_schedule`], shared with the runtime's `coordl::FaultPlan`).
//!
//! Every run returns one [`SimReport`]; register an
//! [`observer`](Experiment::observer) for per-epoch live telemetry and use
//! [`SimReport::to_json`] to export trajectories.  Grids of configurations —
//! cache sizes, vCPU counts, loaders, server counts — are plain lists of
//! [`ExperimentSpec`]s, and [`sweep::run`] simulates one across every core
//! with results bit-identical to a serial loop.  Every storage node runs a [`CacheSpec`] cache hierarchy
//! (`dcache::TierChain`): the classic single DRAM tier by default, or a
//! DRAM tier spilling into a profiled local-SSD tier with
//! [`CacheSpec::Tiered`].

pub mod churn;
pub mod config;
pub(crate) mod engine;
pub mod experiment;
pub(crate) mod fast;
pub mod job;
pub mod json;
pub mod loader;
pub mod metrics;
pub mod sweep;

// The per-scenario behavioural tests of [`Experiment`]: private and
// test-only, one module per paper scenario.
#[cfg(test)]
mod distributed;
#[cfg(test)]
mod hp;
#[cfg(test)]
mod single;

pub use churn::{churn_schedule, TenantSchedule};
pub use config::ServerConfig;
pub use dcache::{fault_schedule, FaultEvent, FaultKind};
pub use engine::EngineScratch;
pub use experiment::{CacheSpec, EpochUpdate, Experiment, Scenario, SimReport};
pub use job::JobSpec;
pub use loader::{FetchOrder, LoaderConfig, LoaderKind};
pub use metrics::{EpochCounts, EpochMetrics, RunResult};
pub use sweep::ExperimentSpec;
