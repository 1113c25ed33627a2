//! The fetch-thread sweep over the *runtime* (`coordl::Session`): the
//! fetch-bound preset behind `dstool sweep fetch-sweep` and the parallel
//! fetch half of `dstool smoke`.
//!
//! Where [`parallel`](crate::parallel) scales the *prep* pool and pins the
//! executor's worker-count determinism contract, this preset scales the
//! *fetch* stage — the serial cache-transaction sweep that becomes the
//! bottleneck once prep is cheap (small decode multipliers, fast
//! augmentations).  Every point runs the identical fetch-heavy workload
//! through `Session::builder(..).fetch_threads(f)` with the cache shard
//! count **pinned** (`FETCH_SHARDS`) so that the
//! per-shard access subsequences — and therefore every admission/eviction
//! decision — are the same for every `f`.  Two things come out of a run:
//!
//! * **a correctness gate** — the delivered stream digest and every
//!   deterministic `LoaderStats` counter must be bit-identical across all
//!   fetch-thread counts (checked against `ci/bench_baseline.json`, since
//!   the digest is machine-independent);
//! * **a scaling measurement** — wall-clock samples/sec per thread count.
//!   Speedups are machine-dependent and only gated on hosts with enough
//!   cores (`dstool` skips the gate below 4).

use crate::runtime::{
    drain_single, gate_speedup, host_cores, int, num, run_scaling, timed_point, PointResult,
    PresetReport, RuntimePreset, Workload,
};
use coordl::{Mode, Session, SessionConfig};
use dataset::{DataSource, SyntheticItemStore};
use std::sync::Arc;

/// Cache shard count pinned across **every** point, including the serial
/// one.  Digest and counter equality across `fetch_threads` only holds for
/// equal shard counts (shard count determines the per-shard capacity split
/// and thus eviction behaviour), so the sweep never relies on the session's
/// automatic shard resolution.
const FETCH_SHARDS: usize = 8;

/// Prep workers used by every point (kept small: the preset is about the
/// fetch stage, prep must not be the bottleneck).
const PREP_WORKERS: usize = 2;

/// Prefetch depth used by every point.
const PREFETCH_DEPTH: usize = 4;

/// Cache capacity as a fraction of the dataset, so steady-state epochs keep
/// a deterministic mix of cache transactions and storage reads.
const CACHE_FRACTION: f64 = 0.5;

/// Minimum pool-over-serial speedup at the largest fetch-thread count.
const MIN_FETCH_SPEEDUP: f64 = 1.5;

/// Core floor below which the wall-clock gate is skipped: an undersized host
/// measures the OS scheduler, not the fetch pool.
const MIN_FETCH_GATE_CORES: usize = 4;

/// The registry row of `dstool sweep fetch-sweep`.  Large raw items and a
/// decode multiplier of 1 keep the workload fetch-bound; the item floor keeps
/// each point moving megabytes through the fetch stage so thread startup
/// does not dominate the measurement.
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "fetch-sweep",
    paper: "§3 (fetch stalls) / §5 (overlap)",
    description: "runtime parallel fetch: the fetch-bound Session workload over a \
                  sharded fetch pool, cache shard count pinned; bit-identical \
                  streams and counters gated across every fetch-thread count, \
                  wall-clock fetch scaling printed",
    points: 3,
    workload: Workload {
        items: 1024,
        min_items: 128,
        avg_item_bytes: 32 * 1024,
        decode_multiplier: 1,
        batch_size: 16,
        epochs: 3,
        seed: 0xFE7C,
        // 1 must be included: it is the speedup baseline.
        axis: &[1, 2, 4],
    },
    axis: "fetch_threads",
    timing: &[
        "wall_seconds",
        "samples_per_sec",
        "speedup_vs_serial",
        "fetch_busy_seconds",
        "fetch_stall_seconds",
    ],
    flat: false,
    takes_os_root: false,
    run: |w, _| run(w),
    shape: |report| shape_on(report, host_cores()),
};

/// Run the sweep: one session per fetch-thread count, identical in
/// everything — dataset, seed, cache capacity, *shard count* — but the size
/// of the fetch pool.
pub fn run(w: &Workload) -> PresetReport {
    let header = vec![
        ("items", int(w.items)),
        ("fetch_shards", int(FETCH_SHARDS as u64)),
        ("epochs", int(w.epochs)),
    ];
    run_scaling(&PRESET, header, w.axis, |f| run_once(w, f))
}

fn run_once(w: &Workload, fetch_threads: usize) -> PointResult {
    let spec = w.dataset(PRESET.name);
    let cache_capacity_bytes = (spec.total_bytes() as f64 * CACHE_FRACTION) as u64;
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 13));
    let config = SessionConfig {
        cache_capacity_bytes,
        ..w.session_config(PREP_WORKERS)
    };
    let session = Session::builder(store, config)
        .mode(Mode::Single)
        .prefetch_depth(PREFETCH_DEPTH)
        .fetch_threads(fetch_threads)
        .fetch_shards(FETCH_SHARDS)
        .pipeline(w.pipeline())
        .build()
        .expect("valid fetch-sweep session");

    let (digest, wall_seconds) = drain_single(&session, w.epochs);
    let report = session.report();
    let mut point = timed_point(PRESET.axis, fetch_threads, &session, digest, wall_seconds);
    point.set("fetch_busy_seconds", num(report.fetch_busy_seconds));
    point.set("fetch_stall_seconds", num(report.fetch_stall_seconds));
    point
}

/// The fetch pool's contract: identical counters at every fetch-thread
/// count, and — on a host with enough cores — the sharded pool beating the
/// serial sweep, which is its whole reason to exist.
fn shape_on(report: &PresetReport, cores: usize) -> Result<(), String> {
    report.identical_across_points()?;
    gate_speedup(
        report,
        cores,
        MIN_FETCH_GATE_CORES,
        |s| s >= MIN_FETCH_SPEEDUP,
        ">=1.5x",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload {
            items: 96,
            avg_item_bytes: 1024,
            epochs: 2,
            ..PRESET.workload
        }
    }

    #[test]
    fn sweep_points_are_bit_identical_across_fetch_thread_counts() {
        let report = run(&tiny());
        assert_eq!(report.points().count(), 3);
        report
            .bit_identical()
            .expect("fetch pool determinism contract");
        shape_on(&report, 1).expect("counters identical; speedup skipped on one core");
        // Every epoch delivers the full dataset exactly once.
        assert_eq!(report.runs[0].counter("samples_delivered"), 2 * 96);
        // The half-capacity cache forces storage reads in *every* epoch.
        assert!(report.runs[0].counter("cache_misses") > 96);
        assert!(report.speedup(4).is_some());
    }

    #[test]
    fn shape_check_rejects_diverged_counters_and_a_lost_speedup() {
        let mut report = run(&tiny());
        for r in &mut report.runs {
            r.set("speedup_vs_serial", num(1.2));
        }
        // Skipped below four cores, enforced from there on at >=1.5x.
        shape_on(&report, 3).expect("undersized host skips the wall-clock gate");
        let err = shape_on(&report, 4).unwrap_err();
        assert!(
            err.contains("fetch-sweep: fetch_threads=4 measured 1.20x") && err.contains(">=1.5x"),
            "{err}"
        );
        report.runs[2].set("speedup_vs_serial", num(1.5));
        shape_on(&report, 4).expect("1.5x meets the gate");
        report.runs[2].counters[0].1 += 1;
        let err = shape_on(&report, 1).unwrap_err();
        assert!(
            err.contains("fetch-sweep/fetch_threads=4: counters differ"),
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
            one(0xFE7C),
            one(0xD00D),
            "different shuffles, different streams"
        );
    }

    #[test]
    fn serial_point_with_pinned_shards_matches_the_pool() {
        // The property the baseline digest relies on: with the shard count
        // pinned, even the f=1 point runs the sharded tier, so all three
        // points (not just the pooled ones) hash to one digest.
        let report = run(&Workload {
            axis: &[4, 1],
            ..tiny()
        });
        assert_eq!(report.runs[0].stream_digest, report.runs[1].stream_digest);
        assert_eq!(report.runs[0].counters, report.runs[1].counters);
    }
}
