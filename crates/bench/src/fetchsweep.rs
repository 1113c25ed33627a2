//! The fetch-thread sweep over the *runtime* (`coordl::Session`): the
//! fetch-bound `fetch_sweep` row of [`FIGURES`](crate::FIGURES).
//!
//! Where [`parallel`](crate::parallel) scales the *prep* pool and pins the
//! executor's worker-count determinism contract, this row scales the *fetch*
//! stage — the serial cache-transaction sweep that becomes the bottleneck
//! once prep is cheap (small decode multipliers, fast augmentations).  Every
//! point runs the identical fetch-heavy workload through
//! `Session::builder(..).fetch_threads(f)` with the cache shard count
//! **pinned** (`FETCH_SHARDS`) so that the per-shard access subsequences —
//! and therefore every admission/eviction decision — are the same for every
//! `f`.  The claim is correctness: the delivered stream digest and every
//! deterministic `LoaderStats` counter must be bit-identical across all
//! fetch-thread counts (and equal `FIGURES.json`'s, since the digest is
//! machine-independent).
//!
//! Wall clock per thread count is printed for orientation only.  Whether
//! the pool beats the serial sweep is `dsbench`'s question — its
//! `fetch_pool_fs` / `fetch_serial_fs` pair over seconds-long windows, with
//! the recorded answer in `BENCH_<pr>.json` — not one these ~10 ms points
//! can settle.

use crate::figures::FigureTable;
use crate::runtime::{bit_identical, drain_single, same_counters, table, timed_run, Run, Workload};
use coordl::{Mode, Session, SessionConfig};
use dataset::{DataSource, SyntheticItemStore};
use pipeline::json::int;
use std::sync::Arc;

/// Cache shard count pinned across **every** point, including the serial
/// one.  Digest and counter equality across `fetch_threads` only holds for
/// equal shard counts (shard count determines the per-shard capacity split
/// and thus eviction behaviour), so the sweep never relies on the session's
/// automatic shard resolution.
const FETCH_SHARDS: usize = 8;

/// Prep workers used by every point (kept small: the row is about the fetch
/// stage, prep must not be the bottleneck).
const PREP_WORKERS: usize = 2;

/// Prefetch depth used by every point.
const PREFETCH_DEPTH: usize = 4;

/// Cache capacity as a fraction of the dataset, so steady-state epochs keep
/// a deterministic mix of cache transactions and storage reads.
const CACHE_FRACTION: f64 = 0.5;

/// The row's sizes.  Large raw items and a decode multiplier of 1 keep the
/// workload fetch-bound; several minibatches stay in flight per fetch
/// thread, so the pool's ordering machinery is exercised at every point.
pub const WORKLOAD: Workload = Workload {
    items: 128,
    avg_item_bytes: 32 * 1024,
    decode_multiplier: 1,
    batch_size: 16,
    epochs: 3,
    seed: 0xFE7C,
    // 1 must be included: the serial sweep is the stream every pool size
    // has to reproduce.
    axis: &[1, 2, 4],
};

/// The `fetch_sweep` row: [`run`] at [`WORKLOAD`].
pub fn fetch_sweep() -> FigureTable {
    run(&WORKLOAD)
}

/// The fetch pool's contract: one stream and one set of counters at every
/// thread count.
pub fn fetch_sweep_claim(t: &FigureTable) -> Result<(), String> {
    bit_identical(t, &["fetch_threads"])?;
    same_counters(t)
}

/// Run the sweep: one session per fetch-thread count, identical in
/// everything — dataset, seed, cache capacity, *shard count* — but the size
/// of the fetch pool.
pub fn run(w: &Workload) -> FigureTable {
    let summary = vec![
        ("items", int(w.items)),
        ("fetch_shards", int(FETCH_SHARDS as u64)),
        ("epochs", int(w.epochs)),
    ];
    table(summary, w.axis.iter().map(|&f| run_once(w, f)).collect())
}

fn run_once(w: &Workload, fetch_threads: usize) -> Run {
    let spec = w.dataset("fetch-sweep");
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
        .expect("valid fetch_sweep session");
    let drained = drain_single(&session, w.epochs);
    timed_run("fetch_threads", fetch_threads, &session, drained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{count, doctor_counter};

    fn tiny() -> Workload {
        Workload {
            items: 96,
            avg_item_bytes: 1024,
            epochs: 2,
            ..WORKLOAD
        }
    }

    #[test]
    fn sweep_points_are_bit_identical_across_fetch_thread_counts() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 3);
        fetch_sweep_claim(&t).expect("counters identical at every thread count");
        // Every epoch delivers the full dataset exactly once.
        assert_eq!(count(&t, 0, "samples_delivered"), (2 * 96) as f64);
        // The half-capacity cache forces storage reads in *every* epoch.
        assert!(count(&t, 0, "cache_misses") > 96.0);
        assert_eq!(t.num(2, "fetch_threads"), 4.0);
        assert!(t.observation("wall_s[2]").is_some());
    }

    #[test]
    fn shape_check_rejects_diverged_counters() {
        let mut t = run(&tiny());
        doctor_counter(&mut t, 2, "cache_misses", int(0));
        let err = fetch_sweep_claim(&t).unwrap_err();
        assert!(err.contains("fetch_threads=4: counters differ"), "{err}");
    }

    #[test]
    fn digest_is_sensitive_to_the_seed() {
        let one = |seed| {
            let t = run(&Workload {
                axis: &[1],
                seed,
                ..tiny()
            });
            t.cell(0, "stream_digest").clone()
        };
        assert_ne!(
            one(0xFE7C),
            one(0xD00D),
            "different shuffles, different streams"
        );
    }

    #[test]
    fn serial_point_with_pinned_shards_matches_the_pool() {
        // The property the pinned digest relies on: with the shard count
        // pinned, even the f=1 point runs the sharded tier, so all three
        // points (not just the pooled ones) hash to one digest.
        let t = run(&Workload {
            axis: &[4, 1],
            ..tiny()
        });
        assert_eq!(t.cell(0, "stream_digest"), t.cell(1, "stream_digest"));
        assert_eq!(t.cell(0, "counters"), t.cell(1, "counters"));
    }
}
