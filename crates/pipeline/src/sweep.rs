//! Parallel experiment sweeps: run one [`Experiment`] shape across a grid of
//! configurations, fanned out over OS threads.
//!
//! The paper's core workflow — DS-Analyzer what-if analysis and HP search
//! over dozens of configurations (§3.4, §5.3) — is inherently a *sweep*: the
//! same simulation repeated across a grid of cache sizes, vCPU counts, batch
//! sizes and storage profiles.  This module makes that a first-class object:
//!
//! * [`ExperimentSpec`] — the plain-data mirror of the [`Experiment`]
//!   builder (server, jobs, scenario, epochs), cloneable and sendable across
//!   threads;
//! * [`Axis`] — one named sweep dimension: a list of labelled mutations of an
//!   [`ExperimentSpec`] (set the cache fraction, swap the loader, change the
//!   server count, …);
//! * [`SweepSpec`] — a base spec plus axes, combined
//!   [cartesian](GridMode::Cartesian) (every combination) or
//!   [zipped](GridMode::Zipped) (axes advance in lockstep);
//! * [`SweepRunner`] — fans the grid out across worker threads and collects
//!   a [`SweepReport`].  Results are keyed by grid index, so the report is
//!   **deterministic**: a parallel run is bit-identical to a serial run of
//!   the same grid, in the same order.  A panicking grid point fails that
//!   point ([`SweepPoint::outcome`] is `Err`), not the sweep.
//!
//! ```
//! use pipeline::sweep::{Axis, ExperimentSpec, SweepRunner, SweepSpec};
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
//! let base = ExperimentSpec::new(ServerConfig::config_ssd_v100(), job);
//!
//! let mut cache = Axis::new("cache");
//! for pct in [25u32, 50, 100] {
//!     cache = cache.value(format!("{pct}%"), move |spec| {
//!         spec.server = spec.server.with_cache_fraction(bytes, pct as f64 / 100.0);
//!     });
//! }
//!
//! let report = SweepRunner::new().run(&SweepSpec::new("cache-sweep", base).axis(cache));
//! assert_eq!(report.points.len(), 3);
//! for (label, sim) in report.reports() {
//!     println!("{label}: {:.0} samples/s", sim.steady_samples_per_sec());
//! }
//! ```

use crate::config::ServerConfig;
use crate::engine::EngineScratch;
use crate::experiment::{CacheSpec, Experiment, Scenario, SimReport};
use crate::job::JobSpec;
use crate::json;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// A fully-described experiment ready to run: the plain-data counterpart of
/// the [`Experiment`] builder (everything except the observer), so sweeps can
/// clone it, mutate it per grid point and ship it across threads.
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
    /// configurations); [`SweepRunner`] isolates such panics per grid point.
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

/// The mutation one axis value applies to an [`ExperimentSpec`].
type AxisApply = Arc<dyn Fn(&mut ExperimentSpec) + Send + Sync>;

/// One named sweep dimension: an ordered list of labelled spec mutations.
///
/// Axis values are applied in the order the axes were added to the
/// [`SweepSpec`], so a later axis observes the mutations of earlier ones
/// (e.g. a `loader` axis rewriting the job list a `width` axis created).
#[derive(Clone)]
pub struct Axis {
    name: String,
    values: Vec<(String, AxisApply)>,
}

impl Axis {
    /// An empty axis named `name` (e.g. `"cache"`, `"vcpus"`).
    pub fn new(name: impl Into<String>) -> Self {
        Axis {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Add one labelled value (builder style).
    pub fn value(
        mut self,
        label: impl Into<String>,
        apply: impl Fn(&mut ExperimentSpec) + Send + Sync + 'static,
    ) -> Self {
        self.push_value(label, apply);
        self
    }

    /// Add one labelled value in place (loop style).
    pub fn push_value(
        &mut self,
        label: impl Into<String>,
        apply: impl Fn(&mut ExperimentSpec) + Send + Sync + 'static,
    ) {
        self.values.push((label.into(), Arc::new(apply)));
    }

    /// The axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no values yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value labels, in order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|(l, _)| l.as_str())
    }
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

/// How a [`SweepSpec`]'s axes combine into a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridMode {
    /// Every combination of axis values (the default).  The first axis is the
    /// slowest-varying, the last the fastest.
    Cartesian,
    /// All axes advance in lockstep (they must have equal lengths): point `i`
    /// takes value `i` of every axis.
    Zipped,
}

/// A named sweep: a base [`ExperimentSpec`] plus the axes to vary.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    name: String,
    base: ExperimentSpec,
    axes: Vec<Axis>,
    mode: GridMode,
}

impl SweepSpec {
    /// A cartesian sweep named `name` around `base`.  With no axes the grid
    /// is the single base point.
    pub fn new(name: impl Into<String>, base: ExperimentSpec) -> Self {
        SweepSpec {
            name: name.into(),
            base,
            axes: Vec::new(),
            mode: GridMode::Cartesian,
        }
    }

    /// Add a sweep axis.
    ///
    /// # Panics
    /// Panics on an empty axis or a duplicate axis name.
    pub fn axis(mut self, axis: Axis) -> Self {
        assert!(!axis.is_empty(), "axis {:?} has no values", axis.name);
        assert!(
            self.axes.iter().all(|a| a.name != axis.name),
            "duplicate axis name {:?}",
            axis.name
        );
        self.axes.push(axis);
        self
    }

    /// Combine the axes in lockstep instead of cartesian.
    ///
    /// # Panics
    /// Panics (here or in [`points`](SweepSpec::points)) if the axes do not
    /// all have the same length.
    pub fn zipped(mut self) -> Self {
        self.mode = GridMode::Zipped;
        self.assert_zippable();
        self
    }

    fn assert_zippable(&self) {
        if self.mode == GridMode::Zipped {
            if let Some(first) = self.axes.first() {
                for a in &self.axes {
                    assert_eq!(
                        a.len(),
                        first.len(),
                        "zipped axes must have equal lengths ({:?} has {}, {:?} has {})",
                        first.name,
                        first.len(),
                        a.name,
                        a.len()
                    );
                }
            }
        }
    }

    /// The sweep name (used in reports and JSON).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The grid combination mode.
    pub fn mode(&self) -> GridMode {
        self.mode
    }

    /// Number of grid points.
    pub fn num_points(&self) -> usize {
        match self.mode {
            GridMode::Cartesian => self.axes.iter().map(Axis::len).product(),
            GridMode::Zipped => self.axes.first().map_or(1, Axis::len),
        }
    }

    /// Materialise the grid: every point's label and fully-applied spec, in
    /// deterministic grid order.
    pub fn points(&self) -> Vec<(PointLabel, ExperimentSpec)> {
        self.assert_zippable();
        let n = self.num_points();
        (0..n)
            .map(|index| {
                // Per-axis value indices for this grid point (cartesian:
                // last axis fastest; zipped: every axis at `index`).
                let mut idxs = vec![0usize; self.axes.len()];
                match self.mode {
                    GridMode::Cartesian => {
                        let mut rest = index;
                        for (i, axis) in self.axes.iter().enumerate().rev() {
                            idxs[i] = rest % axis.len();
                            rest /= axis.len();
                        }
                    }
                    GridMode::Zipped => idxs.iter_mut().for_each(|i| *i = index),
                }
                let mut spec = self.base.clone();
                let mut coords = Vec::with_capacity(self.axes.len());
                for (axis, &vi) in self.axes.iter().zip(&idxs) {
                    let (label, apply) = &axis.values[vi];
                    coords.push((axis.name.clone(), label.clone()));
                    apply(&mut spec);
                }
                (PointLabel { index, coords }, spec)
            })
            .collect()
    }
}

/// Where one grid point sits: its index plus its `axis=value` coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointLabel {
    /// Position in deterministic grid order (cartesian: first axis slowest).
    pub index: usize,
    /// `(axis name, value label)` pairs, in axis order.
    pub coords: Vec<(String, String)>,
}

impl PointLabel {
    /// The canonical `axis=value,axis=value` label (`"base"` for an axis-less
    /// sweep).
    pub fn label(&self) -> String {
        if self.coords.is_empty() {
            return "base".to_string();
        }
        self.coords
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for PointLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One grid point's result: its label and either the simulation report or the
/// panic message that killed it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Where the point sits in the grid.
    pub label: PointLabel,
    /// The simulation result, or the panic message if the point panicked.
    pub outcome: Result<SimReport, String>,
}

impl SweepPoint {
    /// The report, if the point succeeded.
    pub fn report(&self) -> Option<&SimReport> {
        self.outcome.as_ref().ok()
    }
}

/// The collected results of one sweep, in deterministic grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The sweep's name (from [`SweepSpec::new`]).
    pub name: String,
    /// One entry per grid point, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// Iterate over the successful points as `(label, report)` pairs.
    pub fn reports(&self) -> impl Iterator<Item = (&PointLabel, &SimReport)> {
        self.points
            .iter()
            .filter_map(|p| p.report().map(|r| (&p.label, r)))
    }

    /// The report of the point whose [`PointLabel::label`] equals `label`.
    pub fn get(&self, label: &str) -> Option<&SimReport> {
        self.points
            .iter()
            .find(|p| p.label.label() == label)
            .and_then(SweepPoint::report)
    }

    /// Number of grid points that panicked.
    pub fn num_failed(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_err()).count()
    }

    /// Serialise the sweep — every point's label, coordinates and full
    /// [`SimReport`] (or its panic message) — as a JSON object.
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            let coords = p.label.coords.iter();
            let coords = coords.map(|(axis, value)| (axis.as_str(), json::text(value)));
            let outcome = match &p.outcome {
                Ok(report) => ("report", report.to_value()),
                Err(msg) => ("error", json::text(msg)),
            };
            json::object([
                ("label", json::text(&p.label.label())),
                ("coords", json::object(coords)),
                ("ok", json::Value::Bool(p.outcome.is_ok())),
                outcome,
            ])
        });
        json::compact(&json::object([
            ("sweep", json::text(&self.name)),
            ("points", json::Value::Array(points.collect())),
        ]))
    }
}

/// Runs a [`SweepSpec`]'s grid, serially or across OS worker threads.
///
/// Work is handed out through a shared atomic cursor and results come back
/// over a channel keyed by grid index, so the collected [`SweepReport`] is
/// identical — bit for bit, including ordering — no matter how many threads
/// run it or how the scheduler interleaves them.  Each grid point runs under
/// [`std::panic::catch_unwind`]: a panicking point records its panic message
/// and the remaining points still run.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    force_exact: bool,
}

impl SweepRunner {
    /// A parallel runner sized to the machine: one worker per available core,
    /// with a floor of two so sweeps overlap compute even on single-core
    /// containers.
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepRunner {
            threads: cores.max(2),
            force_exact: false,
        }
    }

    /// A serial runner: the grid runs inline on the calling thread (still
    /// panic-isolated per point).
    pub fn serial() -> Self {
        SweepRunner {
            threads: 1,
            force_exact: false,
        }
    }

    /// A runner with exactly `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        SweepRunner {
            threads,
            force_exact: false,
        }
    }

    /// Force every grid point through the exact cache-chain engine, even
    /// where the vectorized MinIO fast path applies (default `false`).  The
    /// two engines are bit-identical; the `mega-sweep` throughput gate runs
    /// the same grid both ways to prove it and to measure the speedup.
    pub fn force_exact(mut self, exact: bool) -> Self {
        self.force_exact = exact;
        self
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every grid point of `spec` and collect the results in grid order.
    pub fn run(&self, spec: &SweepSpec) -> SweepReport {
        let points = spec.points();
        let n = points.len();
        let mut outcomes: Vec<Option<Result<SimReport, String>>> = (0..n).map(|_| None).collect();

        let workers = self.threads.min(n).max(1);
        let exact = self.force_exact;
        if workers <= 1 {
            // One scratch for the whole grid: per-point state is fully
            // re-initialised, so reuse is bit-identical to fresh allocation.
            let mut scratch = EngineScratch::default();
            for ((_, point), slot) in points.iter().zip(outcomes.iter_mut()) {
                *slot = Some(run_point(point, &mut scratch, exact));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Result<SimReport, String>)>();
            let points = &points;
            let cursor = &cursor;
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        // One scratch per worker, reused across its points.
                        let mut scratch = EngineScratch::default();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::SeqCst);
                            if i >= n {
                                break;
                            }
                            let outcome = run_point(&points[i].1, &mut scratch, exact);
                            if tx.send((i, outcome)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, outcome) in rx {
                    outcomes[i] = Some(outcome);
                }
            });
        }

        SweepReport {
            name: spec.name().to_string(),
            points: points
                .into_iter()
                .zip(outcomes)
                .map(|((label, _), outcome)| SweepPoint {
                    label,
                    outcome: outcome.expect("every grid point reports exactly once"),
                })
                .collect(),
        }
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

/// Run one grid point, converting a panic into an `Err` message.  The
/// scratch is safe to reuse after a panic: every run re-initialises all the
/// scratch state it reads.
fn run_point(
    spec: &ExperimentSpec,
    scratch: &mut EngineScratch,
    exact_engine: bool,
) -> Result<SimReport, String> {
    panic::catch_unwind(AssertUnwindSafe(|| spec.run_with(scratch, exact_engine))).map_err(
        |payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "grid point panicked".to_string()
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::LoaderConfig;
    use dataset::DatasetSpec;
    use gpu::ModelKind;

    fn tiny_base() -> ExperimentSpec {
        let ds = DatasetSpec::imagenet_1k().scaled(8000);
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::coordl_best(ModelKind::ResNet18),
        );
        let mut spec = ExperimentSpec::new(server, job);
        spec.epochs = 2;
        spec
    }

    fn cache_axis(fractions: &[u32]) -> Axis {
        let mut axis = Axis::new("cache");
        for &pct in fractions {
            axis.push_value(format!("{pct}%"), move |spec: &mut ExperimentSpec| {
                let bytes = spec.jobs[0].dataset.total_bytes();
                spec.server = spec.server.with_cache_fraction(bytes, pct as f64 / 100.0);
            });
        }
        axis
    }

    #[test]
    fn cartesian_grid_orders_first_axis_slowest() {
        let spec = SweepSpec::new("grid", tiny_base())
            .axis(cache_axis(&[25, 75]))
            .axis(
                Axis::new("epochs")
                    .value("e1", |s| s.epochs = 1)
                    .value("e2", |s| s.epochs = 2),
            );
        assert_eq!(spec.num_points(), 4);
        let labels: Vec<String> = spec.points().iter().map(|(l, _)| l.label()).collect();
        assert_eq!(
            labels,
            [
                "cache=25%,epochs=e1",
                "cache=25%,epochs=e2",
                "cache=75%,epochs=e1",
                "cache=75%,epochs=e2"
            ]
        );
        let points = spec.points();
        assert_eq!(points[0].1.epochs, 1);
        assert_eq!(points[3].1.epochs, 2);
    }

    #[test]
    fn zipped_grid_advances_axes_in_lockstep() {
        let spec = SweepSpec::new("zip", tiny_base())
            .axis(cache_axis(&[25, 75]))
            .axis(
                Axis::new("epochs")
                    .value("e1", |s| s.epochs = 1)
                    .value("e2", |s| s.epochs = 2),
            )
            .zipped();
        assert_eq!(spec.num_points(), 2);
        let labels: Vec<String> = spec.points().iter().map(|(l, _)| l.label()).collect();
        assert_eq!(labels, ["cache=25%,epochs=e1", "cache=75%,epochs=e2"]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn zipped_rejects_mismatched_axes() {
        let _ = SweepSpec::new("bad", tiny_base())
            .axis(cache_axis(&[25, 75]))
            .axis(Axis::new("epochs").value("e1", |s| s.epochs = 1))
            .zipped();
    }

    #[test]
    fn axisless_sweep_runs_the_single_base_point() {
        let report = SweepRunner::serial().run(&SweepSpec::new("solo", tiny_base()));
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].label.label(), "base");
        assert!(report.points[0].report().is_some());
    }

    #[test]
    fn later_axes_observe_earlier_mutations() {
        // A width axis builds the job list; a loader axis rewrites it.
        let base = tiny_base();
        let spec = SweepSpec::new("order", base)
            .axis(Axis::new("width").value("2-jobs", |s| {
                let template = s.jobs[0].clone();
                let mut t = template.clone();
                t.num_gpus = 4;
                s.jobs = vec![t.clone(), t.with_seed(7)];
                s.scenario = Scenario::HpSearch { jobs: 2 };
            }))
            .axis(Axis::new("loader").value("pytorch", |s| {
                for j in &mut s.jobs {
                    j.loader = LoaderConfig::pytorch_dl();
                }
            }));
        let points = spec.points();
        assert_eq!(points.len(), 1);
        let spec = &points[0].1;
        assert_eq!(spec.jobs.len(), 2, "width axis ran first");
        assert!(
            spec.jobs
                .iter()
                .all(|j| j.loader == LoaderConfig::pytorch_dl()),
            "loader axis saw the width axis's job list"
        );
    }

    #[test]
    fn sweep_json_is_parseable_even_with_hostile_labels() {
        let base = tiny_base();
        let spec = SweepSpec::new("quo\"te\\sweep", base)
            .axis(Axis::new("a\"x").value("v\\1", |s| s.epochs = 1));
        let report = SweepRunner::serial().run(&spec);
        let doc = json::parse(&report.to_json()).expect("SweepReport JSON must be valid");
        assert_eq!(
            doc.get("sweep").and_then(json::Value::as_str),
            Some("quo\"te\\sweep")
        );
        let points = doc.get("points").and_then(json::Value::as_array).unwrap();
        assert_eq!(
            points[0].get("label").and_then(json::Value::as_str),
            Some("a\"x=v\\1")
        );
    }

    #[test]
    fn get_finds_points_by_label() {
        let report = SweepRunner::serial()
            .run(&SweepSpec::new("find", tiny_base()).axis(cache_axis(&[25, 75])));
        assert!(report.get("cache=75%").is_some());
        assert!(report.get("cache=5%").is_none());
        assert_eq!(report.num_failed(), 0);
    }
}
