//! The worker-count sweep over the *runtime* (`coordl::Session`): the
//! prep-heavy preset behind `dstool sweep worker-sweep` and the parallel
//! half of `dstool smoke`.
//!
//! The simulator suites in [`presets`](crate::presets) predict throughput in
//! virtual time; this preset runs the same prep-heavy workload through the
//! real session executor at several worker counts and gates the executor's
//! core contract: the delivered stream (hashed into `stream_digest`) and
//! every deterministic `LoaderStats` counter must be bit-identical across
//! all worker counts.  Both are machine-independent, so the digest is
//! checked against `ci/bench_baseline.json`.
//!
//! Wall-clock samples/sec per worker count — the paper's prefetch/overlap
//! argument (§5) on real threads — is printed beside each point for
//! orientation only.  These points run for tens of milliseconds; a speed
//! claim needs `dsbench` (`benchmark/`), whose `prep_cached` workload
//! measures the prep stage over seconds.

use crate::runtime::{
    drain_single, int, timed_point, PointResult, PresetReport, RuntimePreset, Workload,
};
use coordl::{Mode, Session, SessionConfig};
use dataset::{DataSource, SyntheticItemStore};
use std::sync::Arc;

/// Prefetch depth used by every point.
const PREFETCH_DEPTH: usize = 4;

/// The registry row of `dstool sweep worker-sweep`.  The item floor keeps
/// even the smoke scale at several minibatches per worker, so every worker
/// count really interleaves.
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "worker-sweep",
    paper: "§5 (prefetch/overlap)",
    description: "runtime Session executor: the prep-heavy workload at several \
                  prep-worker counts; bit-identical streams and counters gated, \
                  wall-clock scaling printed",
    points: 3,
    workload: Workload {
        items: 1536,
        min_items: 256,
        avg_item_bytes: 4096,
        decode_multiplier: 128,
        batch_size: 32,
        epochs: 2,
        seed: 0xBEEF,
        axis: &[1, 2, 4],
    },
    axis: "workers",
    flat: false,
    takes_os_root: false,
    run: |w, _| run(w),
    // The executor's contract: identical counters at every worker count.
    shape: PresetReport::identical_across_points,
};

/// Run the sweep: one session per worker count, identical in everything but
/// the executor shape.
pub fn run(w: &Workload) -> PresetReport {
    let header = vec![
        ("items", int(w.items)),
        ("decode_multiplier", int(w.decode_multiplier as u64)),
        ("epochs", int(w.epochs)),
    ];
    PresetReport {
        preset: &PRESET,
        header,
        runs: w.axis.iter().map(|&workers| run_once(w, workers)).collect(),
    }
}

fn run_once(w: &Workload, workers: usize) -> PointResult {
    let spec = w.dataset(PRESET.name);
    // Every epoch re-preps; the oversized cache only dedupes fetches.
    let cache_capacity_bytes = spec.total_bytes() * 2;
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 11));
    let config = SessionConfig {
        cache_capacity_bytes,
        ..w.session_config(workers)
    };
    let session = Session::builder(store, config)
        .mode(Mode::Single)
        .prefetch_depth(PREFETCH_DEPTH)
        .pipeline(w.pipeline())
        .build()
        .expect("valid worker-sweep session");

    let (digest, wall_seconds) = drain_single(&session, w.epochs);
    let report = session.report();
    let mut point = timed_point(PRESET.axis, workers, &session, digest, wall_seconds);
    point.timings.extend([
        ("prep_busy_seconds", report.prep_busy_seconds),
        ("consumer_wait_seconds", report.consumer_wait_seconds),
    ]);
    point
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload {
            axis: &[1, 3],
            items: 96,
            avg_item_bytes: 256,
            decode_multiplier: 4,
            ..PRESET.workload
        }
    }

    #[test]
    fn sweep_points_are_bit_identical_across_worker_counts() {
        let report = run(&tiny());
        assert_eq!(report.points().count(), 2);
        report
            .gate()
            .expect("counters identical at every worker count");
        // Every epoch preps the full dataset: counters are exact.
        assert_eq!(report.runs[0].counter("samples_delivered"), 2 * 96);
        // Only the axis value is emitted; wall clock stays in the table.
        assert_eq!(report.runs[1].fields, [("workers", int(3))]);
        assert!(!report.runs[1].timings.is_empty());
    }

    #[test]
    fn shape_check_rejects_diverged_counters() {
        let mut report = run(&tiny());
        report.runs[1].counters[0].1 += 1;
        let err = report.gate().unwrap_err();
        assert!(
            err.contains("worker-sweep/workers=3: counters differ"),
            "{err}"
        );
        report.runs[1].stream_digest ^= 1;
        let err = report.gate().unwrap_err();
        assert!(
            err.contains("workers=3 delivered a different stream"),
            "{err}"
        );
    }

    #[test]
    fn digest_is_sensitive_to_the_seed() {
        let one = |seed| {
            run(&Workload {
                axis: &[1],
                seed,
                ..tiny()
            })
            .digest()
        };
        assert_ne!(
            one(0xBEEF),
            one(0xD00D),
            "different shuffles, different streams"
        );
    }
}
