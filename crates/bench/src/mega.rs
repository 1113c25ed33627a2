//! The `mega_sweep` row of [`FIGURES`](crate::FIGURES): a 10⁵-point
//! what-if grid that exercises the vectorized MinIO epoch engine at
//! DS-Analyzer scale.
//!
//! The paper's what-if analysis (§6) answers "how would epoch time change
//! with more cache / more vCPUs / a different batch shape" by re-simulating
//! the same job over a dense grid.  The figure rows sweep at most a few
//! dozen points; this row sweeps the full cross product — cache fraction ×
//! vCPUs × batch size × prefetch depth × fetch order — at 100 000 points,
//! which is only tractable because single-server MinIO points run on the
//! flat-array fast path (`pipeline::fast`), run through `pipeline::sweep::run`
//! with one reused `EngineScratch` per worker thread.
//!
//! A run measures **both** engines on the same host: every point through the
//! fast path, and a strided subsample re-run on the exact
//! `TierChain`-backed engine.  The subsample serves two purposes:
//!
//! * **a correctness claim** — every re-run point's `SimReport` must equal
//!   the fast path's bit for bit (`mismatches == 0`), the same contract
//!   `tests/fast_engine_equivalence.rs` proves exhaustively at small scale;
//! * **a speedup claim** — points/sec of each engine on this host and run.
//!   Their ratio ([`MegaSweepReport::speedup_vs_exact`]) must be ≥ 10× on
//!   every host; like every wall clock it is an observation, printed and
//!   never written to the document.

use crate::figures::FigureTable;
use dataset::DatasetSpec;
use gpu::ModelKind;
use pipeline::json::{int, text};
use pipeline::sweep::{self, ExperimentSpec};
use pipeline::{FetchOrder, JobSpec, LoaderConfig, ServerConfig};
use std::thread;
use std::time::Instant;

/// The speedup of the fast engine over the exact one the claim requires.
pub const MIN_SPEEDUP: f64 = 10.0;

/// The `mega_sweep` row: the full grid on both engines.
pub fn mega_sweep() -> FigureTable {
    run_mega_sweep(true).table()
}

/// Every exact re-run bit-identical to the fast path, and the fast path at
/// least [`MIN_SPEEDUP`]× the exact engine's points per second.
pub fn mega_sweep_claim(t: &FigureTable) -> Result<(), String> {
    let (mismatches, exact) = (
        t.summary_num("mismatches"),
        t.select("points", "engine", "exact"),
    );
    if exact.first().is_none_or(|&n| n == 0.0) {
        return Err("no point was re-run on the exact engine".to_string());
    }
    if mismatches > 0.0 {
        return Err(format!(
            "{mismatches} of {} exact-engine reports differ from the fast path",
            exact[0]
        ));
    }
    let speedup = t.observation("speedup_vs_exact").unwrap_or(0.0);
    if speedup < MIN_SPEEDUP {
        return Err(format!(
            "the fast engine is only {speedup:.1}x the exact engine (claim: \
             >={MIN_SPEEDUP:.0}x); profile pipeline::fast"
        ));
    }
    Ok(())
}

/// The grid: a single-server MinIO job under five crossed axes, in
/// cartesian order (cache slowest, fetch order fastest).  `full` selects the
/// 100 000-point grid; otherwise a 2 000-point subsample of the same ranges
/// at matching means, for tests.  The dataset itself is never shrunk —
/// per-point cost is what the speedup measurement is *about*, and a toy
/// dataset would flatter the exact engine's fixed overheads.
pub fn mega_grid(full: bool) -> Vec<ExperimentSpec> {
    let model = ModelKind::ResNet18;
    let dataset = DatasetSpec::new("mega-sweep", 2048, 96 * 1024, 0.4, 6.0);
    let bytes = dataset.total_bytes();
    let job = JobSpec::new(model, dataset, 8, LoaderConfig::coordl_best(model))
        .with_seed(0x3E6A)
        .with_batch(8);
    let mut base = ExperimentSpec::new(ServerConfig::config_ssd_v100(), job);
    base.epochs = 3;

    // Full scale: 50 × 10 × 10 × 10 × 2 = 100 000 points.
    // Test scale: 10 × 5 × 4 × 5 × 2 = 2 000 points.
    let cache_pcts: Vec<u32> = if full {
        (1..=50).map(|i| 2 * i).collect()
    } else {
        (1..=10).map(|i| 10 * i).collect()
    };
    // The test axes subsample the full ranges at matching means, so the
    // test grid's per-point cost profile (and thus the measured speedup)
    // stays representative of the full grid.
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

    let mut points = Vec::new();
    for &pct in &cache_pcts {
        for &cores in &core_counts {
            for &batch in &batch_sizes {
                for &depth in &prefetch_depths {
                    for order in [FetchOrder::Shuffled, FetchOrder::Sequential] {
                        let mut spec = base.clone();
                        spec.server = (spec.server)
                            .with_cache_fraction(bytes, pct as f64 / 100.0)
                            .with_cpu_cores(cores);
                        let job = &mut spec.jobs[0];
                        job.batch_per_gpu = batch;
                        job.loader.prefetch_depth = depth;
                        job.loader.fetch_order = order;
                        points.push(spec);
                    }
                }
            }
        }
    }
    points
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
    /// host and run — the number the `mega_sweep` claim checks.
    pub fn speedup_vs_exact(&self) -> f64 {
        self.points_per_sec() / self.exact_points_per_sec().max(1e-9)
    }

    /// The row's table: one row per engine with its exact point count, the
    /// mismatches as the summary, and the wall clock as observations (so
    /// the block is identical on every host).
    pub fn table(&self) -> FigureTable {
        let mut t = FigureTable::new("engine points");
        t.rows = vec![
            vec![text("fast"), int(self.points as u64)],
            vec![text("exact"), int(self.exact_points as u64)],
        ];
        t.summary
            .push(("mismatches".into(), int(self.mismatches as u64)));
        t.observed = vec![
            ("threads".into(), self.threads as f64),
            ("fast_s".into(), self.fast_seconds),
            ("exact_s".into(), self.exact_seconds),
            ("speedup_vs_exact".into(), self.speedup_vs_exact()),
        ];
        t
    }
}

/// Run the mega sweep on one thread per core: the grid on the fast engine,
/// then a strided subsample of ~2 000 points on the exact engine, comparing
/// reports bit for bit.
pub fn run_mega_sweep(full: bool) -> MegaSweepReport {
    // Build the grid once, outside both timed phases — the points are
    // identical inputs to both engines, so grid-construction cost would only
    // dilute the comparison.
    let points = mega_grid(full);
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    let stride = (points.len() / 2048).max(1);

    // Phase 1 — every point through the fast path.  Only the reports at the
    // strided indices are kept for the phase-2 comparison.
    let started = Instant::now();
    let fast_sample = sweep::run(&points, false, |i| i % stride == 0);
    let fast_seconds = started.elapsed().as_secs_f64();

    // Phase 2 — the subsample through the exact engine.
    let exact_specs: Vec<ExperimentSpec> = points.iter().step_by(stride).cloned().collect();
    let started = Instant::now();
    let exact_sample = sweep::run(&exact_specs, true, |_| true);
    let exact_seconds = started.elapsed().as_secs_f64();

    let mismatches = fast_sample
        .iter()
        .zip(&exact_sample)
        .filter(|((_, fast), (_, exact))| fast != exact)
        .count();
    MegaSweepReport {
        points: points.len(),
        threads,
        fast_seconds,
        exact_points: exact_specs.len(),
        exact_seconds,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::{compact, parse, Value};

    #[test]
    fn full_grid_reaches_a_hundred_thousand_points() {
        assert_eq!(mega_grid(true).len(), 100_000);
        let grid = mega_grid(false);
        assert_eq!(grid.len(), 2_000);
        // Cartesian order: fetch order fastest, cache fraction slowest.
        let order = |i: usize| grid[i].jobs[0].loader.fetch_order;
        assert_eq!(
            (order(0), order(1)),
            (FetchOrder::Shuffled, FetchOrder::Sequential)
        );
        let cache = |i: usize| grid[i].server.dram_cache_bytes;
        assert_eq!(cache(0), cache(199));
        assert!(cache(200) > cache(199));
    }

    #[test]
    fn smoke_scale_run_is_bit_identical_and_reports_a_speedup() {
        let report = run_mega_sweep(false);
        assert_eq!(report.points, 2_000);
        assert_eq!(report.mismatches, 0, "fast path equals exact engine");
        assert!(report.speedup_vs_exact() > 0.0);

        let block = compact(&report.table().to_value("§6"));
        let doc = parse(&block).expect("valid JSON");
        assert_eq!(
            doc.get("summary").and_then(|s| s.get("mismatches")),
            Some(&Value::Number(0.0))
        );
        assert!(
            block.contains(r#"{"engine":"exact","points":2000}"#)
                && !block.contains("speedup")
                && !block.contains("threads"),
            "no timing and no thread count: the block is the same on every host: {block}"
        );
    }
}
