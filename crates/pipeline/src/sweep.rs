//! Parallel experiment sweeps: run a list of [`ExperimentSpec`]s across
//! every core.
//!
//! The paper's core workflow — DS-Analyzer what-if analysis and HP search
//! over dozens of configurations (§3.4, §5.3) — is a *sweep*: the same
//! simulation repeated across cache sizes, vCPU counts, batch sizes and
//! storage profiles.  A sweep here is a plain `Vec<ExperimentSpec>` built
//! with ordinary loops, and [`run`] simulates it on one scoped worker per
//! available core.  Each point's [`SimReport`] depends on its spec alone, so
//! the result is **deterministic**: bit-identical to a serial loop of
//! [`ExperimentSpec::run`], in index order, at any core count.
//!
//! ```
//! use pipeline::sweep::{self, ExperimentSpec};
//! use pipeline::{JobSpec, LoaderConfig, ServerConfig};
//! use dataset::DatasetSpec;
//! use gpu::ModelKind;
//!
//! let dataset = DatasetSpec::imagenet_1k().scaled(4000);
//! let bytes = dataset.total_bytes();
//! let job = JobSpec::new(
//!     ModelKind::ResNet18,
//!     dataset,
//!     8,
//!     LoaderConfig::coordl_best(ModelKind::ResNet18),
//! );
//! let server = ServerConfig::config_ssd_v100();
//!
//! let points: Vec<ExperimentSpec> = [0.25, 0.5, 1.0]
//!     .map(|f| ExperimentSpec::new(server.with_cache_fraction(bytes, f), job.clone()))
//!     .into();
//! let reports = sweep::run(&points, false, |_| true);
//! assert_eq!(reports.len(), 3);
//! for (i, sim) in &reports {
//!     println!("point {i}: {:.0} samples/s", sim.steady_samples_per_sec());
//! }
//! ```

use crate::config::ServerConfig;
use crate::engine::EngineScratch;
use crate::experiment::{CacheSpec, Experiment, Scenario, SimReport};
use crate::job::JobSpec;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A fully-described experiment ready to run: the plain-data counterpart of
/// the [`Experiment`] builder (everything except the observer), so a sweep
/// is a plain list of them shared across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// The server configuration.
    pub server: ServerConfig,
    /// The job list (a single template job for symmetric scenarios).
    pub jobs: Vec<JobSpec>,
    /// The scenario shape.
    pub scenario: Scenario,
    /// The cache hierarchy every storage node runs.
    pub cache: CacheSpec,
    /// Number of simulated epochs.
    pub epochs: u64,
}

impl ExperimentSpec {
    /// A single-job spec with the [`Experiment`] defaults:
    /// [`Scenario::SingleServer`], [`CacheSpec::DramOnly`], 3 epochs.
    pub fn new(server: ServerConfig, job: JobSpec) -> Self {
        ExperimentSpec {
            jobs: vec![job],
            ..ExperimentSpec::on(server)
        }
    }

    /// The defaults with no job yet ([`Experiment::on`]'s starting point).
    pub(crate) fn on(server: ServerConfig) -> Self {
        ExperimentSpec {
            server,
            jobs: Vec::new(),
            scenario: Scenario::SingleServer,
            cache: CacheSpec::DramOnly,
            epochs: 3,
        }
    }

    /// Run this spec through the [`Experiment`] builder.
    ///
    /// # Panics
    /// Panics exactly where [`Experiment::run`] does (invalid
    /// configurations); [`sweep::run`](crate::sweep::run) re-raises such a panic naming
    /// the point.
    pub fn run(&self) -> SimReport {
        self.run_with(&mut EngineScratch::default(), false)
    }

    /// Like [`ExperimentSpec::run`], but reusing `scratch` for all per-epoch
    /// working memory and, when `exact_engine` is set, forcing the exact
    /// cache-chain engine where the vectorized MinIO fast path would apply.
    /// Bit-identical to [`ExperimentSpec::run`] in both dimensions.
    pub fn run_with(&self, scratch: &mut EngineScratch, exact_engine: bool) -> SimReport {
        Experiment::with_spec(self.clone())
            .scratch(scratch)
            .exact_engine(exact_engine)
            .run()
    }
}

/// Simulate every point of `points` on one scoped worker per available
/// core and return the reports of the indices `keep` accepts, in index
/// order.  `exact_engine` forces the exact cache-chain engine where the
/// vectorized MinIO fast path would apply (bit-identical either way).
///
/// Workers claim points through one atomic cursor and reuse one
/// [`EngineScratch`] each; a dropped report is freed as soon as it is made,
/// so memory grows with the kept points, not with `points`.
///
/// # Panics
/// If a point panics, the run panics with a message naming the point's
/// index and its own panic message.
pub fn run(
    points: &[ExperimentSpec],
    exact_engine: bool,
    keep: impl Fn(usize) -> bool + Sync,
) -> Vec<(usize, SimReport)> {
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = EngineScratch::default();
        let mut kept = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(point) = points.get(i) else {
                return kept;
            };
            let report = panic::catch_unwind(AssertUnwindSafe(|| {
                point.run_with(&mut scratch, exact_engine)
            }))
            .unwrap_or_else(|payload| {
                cursor.store(points.len(), Ordering::Relaxed);
                let msg = payload.downcast_ref::<&str>().copied();
                let msg = msg.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
                panic!("sweep point {i} panicked: {}", msg.unwrap_or("no message"))
            });
            if keep(i) {
                kept.push((i, report));
            }
        }
    };
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let mut kept: Vec<(usize, SimReport)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..cores.min(points.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined
            .flat_map(|kept| kept.unwrap_or_else(|payload| panic::resume_unwind(payload)))
            .collect()
    });
    kept.sort_unstable_by_key(|&(i, _)| i);
    kept
}
