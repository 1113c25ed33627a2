//! The `mega-sweep` preset: a ≥10⁵-point what-if grid that exercises the
//! vectorized MinIO epoch engine at DS-Analyzer scale.
//!
//! The paper's what-if analysis (§6) answers "how would epoch time change
//! with more cache / more vCPUs / a different batch shape" by re-simulating
//! the same job over a dense grid.  The five paper suites in
//! [`presets`](crate::presets) sweep at most a few dozen points; this preset
//! sweeps the full cross product — cache fraction × vCPUs × batch size ×
//! prefetch depth × fetch order — at 100 000 points, which is only tractable
//! because single-server MinIO points run on the flat-array fast path
//! (`pipeline::fast`) with one reused `EngineScratch` per worker thread.
//!
//! A run measures **both** engines on the same host: every point through the
//! fast path, and a strided subsample re-run on the exact
//! `TierChain`-backed engine.  The subsample serves two purposes:
//!
//! * **a correctness gate** — every re-run point's `SimReport` must equal
//!   the fast path's bit for bit (`mismatches == 0`), the same contract
//!   `tests/fast_engine_equivalence.rs` proves exhaustively at small scale;
//! * **a speedup measurement** — points/sec of each engine on this host and
//!   run.  Their ratio ([`MegaSweepReport::speedup_vs_exact`]) is what
//!   `dstool sweep mega-sweep` gates (≥10×, on every host); like every wall
//!   clock it is printed, never written to a document.

use crate::runtime::{compact, int, object, text};
use dataset::DatasetSpec;
use gpu::ModelKind;
use pipeline::json::Value;
use pipeline::sweep::{Axis, ExperimentSpec, SweepSpec};
use pipeline::{EngineScratch, FetchOrder, JobSpec, LoaderConfig, ServerConfig, SimReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// CLI name of the preset (`dstool sweep mega-sweep`).
pub const MEGA_SWEEP_NAME: &str = "mega-sweep";

/// Configuration of one mega sweep.
#[derive(Debug, Clone)]
pub struct MegaSweepConfig {
    /// Grid scale-down: 1 = the full 100 000-point grid, anything larger =
    /// the reduced 2 000-point smoke grid.  The dataset itself is never
    /// shrunk — per-point cost is what the speedup measurement is *about*,
    /// and a toy dataset would flatter the exact engine's fixed overheads.
    pub extra_scale: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Re-run every `exact_stride`-th point on the exact engine
    /// (0 = auto: aim for ~2 000 exact points).
    pub exact_stride: usize,
}

impl Default for MegaSweepConfig {
    fn default() -> Self {
        MegaSweepConfig {
            extra_scale: 1,
            threads: 0,
            exact_stride: 0,
        }
    }
}

impl MegaSweepConfig {
    /// The preset scaled like the other suites: pass 1 for full fidelity,
    /// [`SMOKE_EXTRA_SCALE`](crate::presets::SMOKE_EXTRA_SCALE) for CI.
    pub fn scaled(extra_scale: u64) -> Self {
        MegaSweepConfig {
            extra_scale: extra_scale.max(1),
            ..MegaSweepConfig::default()
        }
    }

    /// Build the grid: a single-server MinIO job under five crossed axes.
    pub fn spec(&self) -> SweepSpec {
        let model = ModelKind::ResNet18;
        let dataset = DatasetSpec::new("mega-sweep", 2048, 96 * 1024, 0.4, 6.0);
        let bytes = dataset.total_bytes();
        let job = JobSpec::new(model, dataset, 8, LoaderConfig::coordl_best(model))
            .with_seed(0x3E6A)
            .with_batch(8);
        let mut base = ExperimentSpec::new(ServerConfig::config_ssd_v100(), job);
        base.epochs = 3;

        // Full scale: 50 × 10 × 10 × 10 × 2 = 100 000 points.
        // Smoke scale: 10 × 5 × 4 × 5 × 2 = 2 000 points.
        let full = self.extra_scale <= 1;
        let cache_pcts: Vec<u32> = if full {
            (1..=50).map(|i| 2 * i).collect()
        } else {
            (1..=10).map(|i| 10 * i).collect()
        };
        // The smoke axes subsample the full ranges at matching means, so the
        // smoke grid's per-point cost profile (and thus the measured
        // speedup) stays representative of the full grid.
        let core_counts: Vec<usize> = if full {
            (1..=10).map(|i| 3 * i).collect()
        } else {
            vec![6, 12, 18, 24, 30]
        };
        let batch_sizes: Vec<usize> = if full {
            (1..=10).map(|i| 8 * i).collect()
        } else {
            vec![16, 32, 56, 80]
        };
        let prefetch_depths: Vec<usize> = if full {
            (1..=10).collect()
        } else {
            (1..=5).collect()
        };

        let mut cache = Axis::new("cache");
        for pct in cache_pcts {
            cache.push_value(format!("{pct}%"), move |spec: &mut ExperimentSpec| {
                spec.server = spec.server.with_cache_fraction(bytes, pct as f64 / 100.0);
            });
        }
        let mut vcpus = Axis::new("vcpus");
        for cores in core_counts {
            vcpus.push_value(format!("{cores}"), move |spec: &mut ExperimentSpec| {
                spec.server = spec.server.with_cpu_cores(cores);
            });
        }
        let mut batch = Axis::new("batch");
        for b in batch_sizes {
            batch.push_value(format!("{b}"), move |spec: &mut ExperimentSpec| {
                for job in &mut spec.jobs {
                    job.batch_per_gpu = b;
                }
            });
        }
        let mut prefetch = Axis::new("prefetch");
        for d in prefetch_depths {
            prefetch.push_value(format!("{d}"), move |spec: &mut ExperimentSpec| {
                for job in &mut spec.jobs {
                    job.loader.prefetch_depth = d;
                }
            });
        }
        let order = Axis::new("order")
            .value("shuffled", |spec: &mut ExperimentSpec| {
                for job in &mut spec.jobs {
                    job.loader.fetch_order = FetchOrder::Shuffled;
                }
            })
            .value("sequential", |spec: &mut ExperimentSpec| {
                for job in &mut spec.jobs {
                    job.loader.fetch_order = FetchOrder::Sequential;
                }
            });

        SweepSpec::new(MEGA_SWEEP_NAME, base)
            .axis(cache)
            .axis(vcpus)
            .axis(batch)
            .axis(prefetch)
            .axis(order)
    }
}

/// The result of one mega sweep: both engines' timings plus the
/// bit-identity verdict on the exact subsample.
#[derive(Debug, Clone)]
pub struct MegaSweepReport {
    /// Grid points run through the fast engine.
    pub points: usize,
    /// Worker threads used by both phases.
    pub threads: usize,
    /// Wall-clock seconds of the fast phase (all points).
    pub fast_seconds: f64,
    /// Points re-run on the exact engine.
    pub exact_points: usize,
    /// Wall-clock seconds of the exact phase.
    pub exact_seconds: f64,
    /// Exact-engine reports that differed from the fast engine's (must be 0).
    pub mismatches: usize,
}

impl MegaSweepReport {
    /// Fast-engine throughput in sweep points per wall-clock second.
    pub fn points_per_sec(&self) -> f64 {
        self.points as f64 / self.fast_seconds.max(1e-9)
    }

    /// Exact-engine throughput on the subsample.
    pub fn exact_points_per_sec(&self) -> f64 {
        self.exact_points as f64 / self.exact_seconds.max(1e-9)
    }

    /// Per-point speedup of the fast engine over the exact engine on this
    /// host and run — the number `dstool sweep mega-sweep` gates.
    pub fn speedup_vs_exact(&self) -> f64 {
        self.points_per_sec() / self.exact_points_per_sec().max(1e-9)
    }

    /// The correctness gate: every exact re-run must match bit for bit.
    pub fn bit_identical(&self) -> Result<(), String> {
        if self.exact_points == 0 {
            return Err("mega sweep re-ran no points on the exact engine".to_string());
        }
        if self.mismatches > 0 {
            return Err(format!(
                "{} of {} exact-engine reports differ from the fast path",
                self.mismatches, self.exact_points
            ));
        }
        Ok(())
    }

    /// The document block: the exact facts of the run (grid size, subsample
    /// size, mismatches).  Timings and the thread count stay out, so the
    /// block is identical on every host.
    pub fn to_value(&self) -> Value {
        object([
            ("preset", text(MEGA_SWEEP_NAME)),
            ("points", int(self.points as u64)),
            ("exact_points", int(self.exact_points as u64)),
            ("mismatches", int(self.mismatches as u64)),
        ])
    }

    /// [`MegaSweepReport::to_value`] as compact JSON text.
    pub fn to_json(&self) -> String {
        compact(&self.to_value())
    }
}

/// Run the mega sweep: the full grid on the fast engine, then the strided
/// subsample on the exact engine, comparing reports bit for bit.
pub fn run_mega_sweep(cfg: &MegaSweepConfig) -> MegaSweepReport {
    let spec = cfg.spec();
    // Materialise the grid once, outside both timed phases — the points are
    // identical inputs to both engines, so grid-construction cost would only
    // dilute the comparison.
    let points: Vec<ExperimentSpec> = spec.points().into_iter().map(|(_, s)| s).collect();
    let threads = if cfg.threads > 0 {
        cfg.threads
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    };
    let stride = if cfg.exact_stride > 0 {
        cfg.exact_stride
    } else {
        (points.len() / 2048).max(1)
    };

    // Phase 1 — every point through the fast path, each worker thread
    // reusing one scratch across all the points it claims.  Reports at the
    // strided indices are kept for the phase-2 comparison; the rest are
    // dropped as soon as they are produced so the sweep runs in O(threads)
    // memory, not O(points).
    let started = Instant::now();
    let fast_sample = fan_out(&points, threads, false, |i| i % stride == 0);
    let fast_seconds = started.elapsed().as_secs_f64();

    // Phase 2 — the subsample through the exact engine.
    let exact_indices: Vec<usize> = (0..points.len()).step_by(stride).collect();
    let exact_specs: Vec<ExperimentSpec> =
        exact_indices.iter().map(|&i| points[i].clone()).collect();
    let started = Instant::now();
    let exact_sample = fan_out(&exact_specs, threads, true, |_| true);
    let exact_seconds = started.elapsed().as_secs_f64();

    let mismatches = exact_indices
        .iter()
        .enumerate()
        .filter(|&(k, &i)| fast_sample.get(&i) != exact_sample.get(&k))
        .count();
    MegaSweepReport {
        points: points.len(),
        threads,
        fast_seconds,
        exact_points: exact_indices.len(),
        exact_seconds,
        mismatches,
    }
}

/// Run every spec in `points` across `threads` scoped workers (atomic-cursor
/// work stealing, one reused `EngineScratch` per worker), returning the
/// reports whose index passes `keep`.
fn fan_out(
    points: &[ExperimentSpec],
    threads: usize,
    exact_engine: bool,
    keep: impl Fn(usize) -> bool + Sync,
) -> std::collections::HashMap<usize, SimReport> {
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, SimReport)>();
    thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let tx = tx.clone();
            let cursor = &cursor;
            let keep = &keep;
            scope.spawn(move || {
                let mut scratch = EngineScratch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= points.len() {
                        break;
                    }
                    let report = points[i].run_with(&mut scratch, exact_engine);
                    if keep(i) {
                        tx.send((i, report)).expect("collector outlives workers");
                    }
                }
            });
        }
        drop(tx);
    });
    rx.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::{parse, Value};

    #[test]
    fn full_grid_reaches_a_hundred_thousand_points() {
        assert_eq!(MegaSweepConfig::default().spec().num_points(), 100_000);
        assert_eq!(MegaSweepConfig::scaled(8).spec().num_points(), 2_000);
    }

    #[test]
    fn smoke_scale_run_is_bit_identical_and_reports_a_speedup() {
        let report = run_mega_sweep(&MegaSweepConfig::scaled(8));
        assert_eq!(report.points, 2_000);
        report
            .bit_identical()
            .expect("fast path equals exact engine");
        assert!(report.speedup_vs_exact() > 0.0);

        let doc = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.get("points").and_then(Value::as_f64), Some(2000.0));
        assert_eq!(doc.get("mismatches").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            report.to_json(),
            r#"{"exact_points":2000,"mismatches":0,"points":2000,"preset":"mega-sweep"}"#,
            "no timing and no thread count: the block is the same on every host"
        );
    }
}
