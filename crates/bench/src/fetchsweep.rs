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
//! decision — are the same for every `f`.  The gate is correctness: the
//! delivered stream digest and every deterministic `LoaderStats` counter
//! must be bit-identical across all fetch-thread counts (checked against
//! `ci/bench_baseline.json`, since the digest is machine-independent).
//!
//! Wall-clock samples/sec per thread count is printed for orientation only.
//! Whether the pool beats the serial sweep is `dsbench`'s question — its
//! `fetch_pool_fs` / `fetch_serial_fs` pair over seconds-long windows, with
//! the recorded answer in `BENCH_<pr>.json` — not one these ~10 ms points
//! can settle.

use crate::runtime::{
    drain_single, int, timed_point, PointResult, PresetReport, RuntimePreset, Workload,
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

/// The registry row of `dstool sweep fetch-sweep`.  Large raw items and a
/// decode multiplier of 1 keep the workload fetch-bound; the item floor keeps
/// several minibatches in flight per fetch thread, so the pool's ordering
/// machinery is exercised at every point.
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "fetch-sweep",
    paper: "§3 (fetch stalls) / §5 (overlap)",
    description: "runtime parallel fetch: the fetch-bound Session workload over a \
                  sharded fetch pool, cache shard count pinned; bit-identical \
                  streams and counters gated across every fetch-thread count",
    points: 3,
    workload: Workload {
        items: 1024,
        min_items: 128,
        avg_item_bytes: 32 * 1024,
        decode_multiplier: 1,
        batch_size: 16,
        epochs: 3,
        seed: 0xFE7C,
        // 1 must be included: the serial sweep is the stream every pool
        // size has to reproduce.
        axis: &[1, 2, 4],
    },
    axis: "fetch_threads",
    flat: false,
    takes_os_root: false,
    run: |w, _| run(w),
    // The fetch pool's contract: identical counters at every thread count.
    shape: PresetReport::identical_across_points,
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
    PresetReport {
        preset: &PRESET,
        header,
        runs: w.axis.iter().map(|&f| run_once(w, f)).collect(),
    }
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
    point.timings.extend([
        ("fetch_busy_seconds", report.fetch_busy_seconds),
        ("fetch_stall_seconds", report.fetch_stall_seconds),
    ]);
    point
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
            .gate()
            .expect("counters identical at every thread count");
        // Every epoch delivers the full dataset exactly once.
        assert_eq!(report.runs[0].counter("samples_delivered"), 2 * 96);
        // The half-capacity cache forces storage reads in *every* epoch.
        assert!(report.runs[0].counter("cache_misses") > 96);
        // Only the axis value is emitted; wall clock stays in the table.
        assert_eq!(report.runs[2].fields, [("fetch_threads", int(4))]);
        assert!(!report.runs[2].timings.is_empty());
    }

    #[test]
    fn shape_check_rejects_diverged_counters() {
        let mut report = run(&tiny());
        report.runs[2].counters[0].1 += 1;
        let err = report.gate().unwrap_err();
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
