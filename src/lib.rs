//! # datastalls — reproducing *Analyzing and Mitigating Data Stalls in DNN Training* (VLDB 2021)
//!
//! This crate is the top-level facade of the reproduction.  The paper makes
//! three artifacts and this workspace rebuilds all of them in Rust:
//!
//! * **DS-Analyzer** ([`analyzer`]) — differential profiling that splits a
//!   training epoch into GPU compute, *prep stalls* (CPU pre-processing) and
//!   *fetch stalls* (storage I/O), plus the what-if model
//!   `speed = min(F(x), P, G)` used to predict the effect of more DRAM, more
//!   cores, or faster GPUs.
//! * **CoorDL** ([`coordl`]) — a coordinated data-loading library with three
//!   techniques: the never-evict **MinIO** cache, **partitioned caching**
//!   across the servers of a distributed job, and **coordinated prep** that
//!   shares one fetch-and-prep sweep among concurrent hyper-parameter-search
//!   jobs.  All three run behind one [`coordl::Session`] builder (mirroring
//!   [`pipeline::Experiment`]) with pluggable cache tiers and fetch
//!   backends.  This is a *functional*, multi-threaded implementation that
//!   really moves bytes — exactly-once delivery, per-epoch randomness and
//!   failure handling are enforced by the types and verified by tests — and
//!   every run yields a [`coordl::LoaderReport`] whose JSON is structurally
//!   comparable to the simulator's, which the `validate` figure row diffs
//!   for the paper's predicted-vs-empirical check (Table 5 / Figure 16).
//! * **The analysis** ([`pipeline`]) — a calibrated input-pipeline simulator
//!   that reproduces every figure and table of the paper's evaluation on a
//!   laptop, with the paper's server SKUs ([`pipeline::ServerConfig`]),
//!   datasets ([`dataset::DatasetSpec`]) and model zoo ([`gpu::ModelKind`]).
//!
//! ## Quick start
//!
//! Ask DS-Analyzer whether ResNet18 training on an SSD server with 35 % of
//! ImageNet-1k cached is I/O-, CPU- or GPU-bound, and what cache size would
//! fix it:
//!
//! ```
//! use datastalls::prelude::*;
//!
//! let dataset = DatasetSpec::imagenet_1k().scaled(200); // laptop-sized
//! let server = ServerConfig::config_ssd_v100()
//!     .with_cache_fraction(dataset.total_bytes(), 0.35);
//! let job = JobSpec::new(
//!     ModelKind::ResNet18,
//!     dataset,
//!     8,
//!     LoaderConfig::dali_best(ModelKind::ResNet18),
//! );
//!
//! let rates = ProfiledRates::measure(&server, &job);
//! let whatif = WhatIfAnalysis::new(rates);
//! println!("bottleneck at 35% cache: {:?}", whatif.bottleneck(0.35));
//! println!("cache needed to mask fetch stalls: {:.0}%",
//!          whatif.recommended_cache_fraction() * 100.0);
//!
//! // Then measure the actual effect of switching the loader to CoorDL.
//! // Every scenario runs through the same `Experiment` builder and returns
//! // one `SimReport`.
//! let dali = Experiment::on(&server)
//!     .job(job.clone())
//!     .scenario(Scenario::SingleServer)
//!     .epochs(3)
//!     .run();
//! let coordl = Experiment::on(&server)
//!     .job(job.with_loader(LoaderConfig::coordl_best(ModelKind::ResNet18)))
//!     .epochs(3)
//!     .run();
//! assert!(coordl.speedup_over(&dali) >= 1.0);
//!
//! // The same builder handles HP search, distributed training and mixed
//! // clusters — e.g. 8 concurrent HP-search jobs sharing the server:
//! let hp = Experiment::on(&server)
//!     .job(JobSpec::new(
//!         ModelKind::ResNet18,
//!         DatasetSpec::imagenet_1k().scaled(2000),
//!         1,
//!         LoaderConfig::coordl_best(ModelKind::ResNet18),
//!     ))
//!     .scenario(Scenario::HpSearch { jobs: 8 })
//!     .epochs(2)
//!     .run();
//! println!("{:.0} samples/s/job", hp.steady_per_job_samples_per_sec());
//! ```
//!
//! ## Workspace layout
//!
//! | Crate | Re-exported as | Contents |
//! |---|---|---|
//! | `coordl-simkit` | [`simkit`] | simulation primitives: virtual time, pipelined-latency recurrence, time series |
//! | `coordl-storage` | [`storage`] | device profiles (HDD/SSD/NVMe), the OS-page-cache stand-in, per-node I/O accounting |
//! | `coordl-cache` | [`cache`] | cache policies: LRU/FIFO/CLOCK and MinIO, plus the partitioned-cache directory |
//! | `coordl-dataset` | [`dataset`] | the paper's datasets as synthetic specs, epoch samplers, storage formats, functional stores |
//! | `coordl-prep` | [`prep`] | pre-processing cost model (PyTorch / DALI-CPU / DALI-GPU) and executable transforms |
//! | `coordl-gpu` | [`gpu`] | model zoo with calibrated per-GPU ingestion rates |
//! | `coordl-net` | [`net`] | commodity-Ethernet model used by partitioned caching |
//! | `coordl-pipeline` | [`pipeline`] | the [`pipeline::Experiment`] simulator (single-server, HP search, distributed, mixed cluster) |
//! | `coordl` | [`coordl`] | the functional CoorDL library: MinIO cache, coordinated prep, partitioned cache cluster |
//! | `ds-analyzer` | [`analyzer`] | differential stall profiling and what-if prediction |
//! | `coordl-dnn` | [`dnn`] | miniature MLP training substrate for the accuracy-equivalence experiment |
//!
//! `dstool figures` regenerates every table and figure of the paper from the
//! `benchkit::figures::FIGURES` registry (`crates/bench`) and gates them
//! against the committed `FIGURES.json`; `EXPERIMENTS.md` maps each one to
//! its paper counterpart.

pub use coordl;
pub use dataset;
pub use dcache as cache;
pub use dnn;
pub use dsanalyzer as analyzer;
pub use gpu;
pub use netsim as net;
pub use pipeline;
pub use prep;
pub use simkit;
pub use storage;

/// Everything needed to run the common experiments, in one import.
pub mod prelude {
    pub use crate::analyzer::{Bottleneck, DifferentialReport, ProfiledRates, WhatIfAnalysis};
    pub use crate::cache::{Cache, MinIoCache, PolicyKind};
    pub use crate::coordl::{
        BatchStream, CacheTier, DirectBackend, FetchBackend, LoaderReport, Mode,
        PartitionedCacheCluster, ProfiledBackend, Session, SessionConfig,
    };
    pub use crate::dataset::{DataSource, DatasetSpec, LabeledVectorStore, SyntheticItemStore};
    pub use crate::gpu::{GpuGeneration, ModelKind, ModelProfile};
    pub use crate::pipeline::{
        Axis, EpochMetrics, EpochUpdate, Experiment, ExperimentSpec, JobSpec, LoaderConfig,
        LoaderKind, RunResult, Scenario, ServerConfig, SimReport, SweepReport, SweepRunner,
        SweepSpec,
    };
    pub use crate::prep::{ExecutablePipeline, PrepBackend, PrepPipeline};
    pub use crate::storage::DeviceProfile;
}

/// Headline numbers the paper reports, kept in one place so tests and
/// documentation agree on what "reproducing the shape" means.
pub mod paper {
    /// Max HP-search speedup the paper reports for CoorDL over DALI (§1: the
    /// M5 audio model on Config-SSD-V100).
    pub const MAX_HP_SEARCH_SPEEDUP: f64 = 5.7;
    /// Max single-server training speedup (§1, §5.1).
    pub const MAX_SINGLE_SERVER_SPEEDUP: f64 = 2.0;
    /// Max distributed-training speedup (§1: AlexNet on two HDD servers).
    pub const MAX_DISTRIBUTED_SPEEDUP: f64 = 15.0;
    /// Fraction of epoch time the worst observed fetch stall consumes (§3.3.1
    /// reports DNNs spend 10–70 % of epoch time blocked on I/O).
    pub const MAX_FETCH_STALL_FRACTION: f64 = 0.70;
    /// Extra page-cache misses attributed to thrashing (§3.3.1: ~20 %).
    pub const PAGE_CACHE_THRASHING_EXTRA_MISSES: f64 = 0.20;
    /// Read amplification observed for 8 uncoordinated HP-search jobs with a
    /// 35 % cache (§3.3.1: 7×).
    pub const HP_SEARCH_READ_AMPLIFICATION: f64 = 7.0;
    /// DS-Analyzer's what-if predictions land within 4 % of empirical runs
    /// (§3.4, Table 5).
    pub const DSANALYZER_PREDICTION_ERROR: f64 = 0.04;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        // A compile-time smoke test: the common workflow is expressible using
        // only the prelude.
        let ds = DatasetSpec::imagenet_1k().scaled(2000);
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.35);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::dali_best(ModelKind::ResNet18),
        );
        let report = Experiment::on(&server)
            .job(job.clone())
            .scenario(Scenario::SingleServer)
            .epochs(2)
            .run();
        assert_eq!(report.single().epochs.len(), 2);
        let rates = ProfiledRates::measure(&server, &job);
        assert!(rates.gpu_rate > 0.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn paper_constants_are_internally_consistent() {
        use super::paper::*;
        assert!(MAX_HP_SEARCH_SPEEDUP > MAX_SINGLE_SERVER_SPEEDUP);
        assert!(MAX_DISTRIBUTED_SPEEDUP > MAX_HP_SEARCH_SPEEDUP);
        assert!(MAX_FETCH_STALL_FRACTION < 1.0);
        assert!(DSANALYZER_PREDICTION_ERROR < 0.1);
    }
}
