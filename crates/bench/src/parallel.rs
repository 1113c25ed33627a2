//! The worker-count sweep over the *runtime* (`coordl::Session`): the
//! prep-heavy preset behind `dstool sweep worker-sweep` and the parallel
//! half of `dstool smoke`.
//!
//! The simulator suites in [`presets`](crate::presets) predict throughput in
//! virtual time; this preset *measures* it, running the same prep-heavy
//! workload through the session executor at several worker counts.  Two
//! things come out of a run:
//!
//! * **a correctness gate** — the delivered stream (hashed into
//!   `stream_digest`) and every deterministic `LoaderStats` counter must be
//!   bit-identical across all worker counts and prefetch depths, which is
//!   the executor's core contract (and is machine-independent, so the
//!   digest is checked against `ci/bench_baseline.json`);
//! * **a scaling measurement** — wall-clock samples/sec per worker count,
//!   the paper's prefetch/overlap argument (§5) on real threads.  Speedup
//!   numbers are machine-dependent and are only gated relative to the same
//!   run (and only when the host has enough cores).

use crate::runtime::{
    drain_single, gate_speedup, host_cores, int, num, run_scaling, timed_point, PointResult,
    PresetReport, RuntimePreset, Workload,
};
use coordl::{Mode, Session, SessionConfig};
use dataset::{DataSource, SyntheticItemStore};
use std::sync::Arc;

/// Prefetch depth used by every point.
const PREFETCH_DEPTH: usize = 4;

/// The registry row of `dstool sweep worker-sweep`.  The item floor keeps
/// even the smoke scale heavy enough that each point runs for hundreds of
/// milliseconds of prep work: below that the measured "speedup" describes
/// the OS scheduler, not the executor.
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
        // 1 must be included: it is the speedup baseline.
        axis: &[1, 2, 4],
    },
    axis: "workers",
    timing: &[
        "wall_seconds",
        "samples_per_sec",
        "speedup_vs_serial",
        "prep_busy_seconds",
        "consumer_wait_seconds",
    ],
    flat: false,
    takes_os_root: false,
    run: |w, _| run(w),
    shape: |report| shape_on(report, host_cores()),
};

/// Run the sweep: one session per worker count, identical in everything but
/// the executor shape.
pub fn run(w: &Workload) -> PresetReport {
    let header = vec![
        ("items", int(w.items)),
        ("decode_multiplier", int(w.decode_multiplier as u64)),
        ("epochs", int(w.epochs)),
    ];
    run_scaling(&PRESET, header, w.axis, |workers| run_once(w, workers))
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
    point.set("prep_busy_seconds", num(report.prep_busy_seconds));
    point.set("consumer_wait_seconds", num(report.consumer_wait_seconds));
    point
}

/// The executor's contract: identical counters at every worker count, and —
/// on a host with a core per worker — parallel prep beating serial prep.
fn shape_on(report: &PresetReport, cores: usize) -> Result<(), String> {
    report.identical_across_points()?;
    let max_workers = report.runs.iter().map(|r| r.axis_value).max().unwrap_or(1);
    gate_speedup(report, cores, max_workers, |s| s > 1.0, ">1.0x")
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
            .bit_identical()
            .expect("executor determinism contract");
        shape_on(&report, 1).expect("counters identical; speedup skipped on one core");
        // Every epoch preps the full dataset: counters are exact.
        assert_eq!(report.runs[0].counter("samples_delivered"), 2 * 96);
        assert!(report.speedup(3).is_some());
    }

    #[test]
    fn shape_check_rejects_diverged_counters_and_a_lost_speedup() {
        let mut report = run(&tiny());
        for r in &mut report.runs {
            r.set("speedup_vs_serial", num(0.9));
        }
        // Skipped below a core per worker, enforced from there on.
        shape_on(&report, 2).expect("undersized host skips the wall-clock gate");
        let err = shape_on(&report, 3).unwrap_err();
        assert!(
            err.contains("worker-sweep: workers=3 measured 0.90x") && err.contains(">1.0x"),
            "{err}"
        );
        report.runs[1].counters[0].1 += 1;
        let err = shape_on(&report, 1).unwrap_err();
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
