//! The worker-count sweep over the *runtime* (`coordl::Session`): the
//! prep-heavy `worker_sweep` row of [`FIGURES`](crate::FIGURES).
//!
//! The simulator rows predict throughput in virtual time; this row runs the
//! same prep-heavy workload through the real session executor at several
//! worker counts and checks the executor's core contract: the delivered
//! stream (hashed into `stream_digest`) and every deterministic
//! `LoaderStats` counter must be bit-identical across all worker counts.
//! Both are machine-independent, so `FIGURES.json` pins them.
//!
//! Each run's wall clock — the paper's prefetch/overlap argument (§5) on
//! real threads — is printed beside the table for orientation only.  These
//! points run for tens of milliseconds; a speed claim needs `dsbench`
//! (`benchmark/`), whose `prep_cached` workload measures the prep stage over
//! seconds.

use crate::figures::FigureTable;
use crate::runtime::{bit_identical, drain_single, same_counters, table, timed_run, Run, Workload};
use coordl::{Mode, Session, SessionConfig};
use dataset::{DataSource, SyntheticItemStore};
use pipeline::json::int;
use std::sync::Arc;

/// Prefetch depth used by every point.
const PREFETCH_DEPTH: usize = 4;

/// The row's sizes: several minibatches per worker, so every worker count
/// really interleaves.
pub const WORKLOAD: Workload = Workload {
    items: 256,
    avg_item_bytes: 4096,
    decode_multiplier: 128,
    batch_size: 32,
    epochs: 2,
    seed: 0xBEEF,
    axis: &[1, 2, 4],
};

/// The `worker_sweep` row: [`run`] at [`WORKLOAD`].
pub fn worker_sweep() -> FigureTable {
    run(&WORKLOAD)
}

/// The executor's contract: one stream and one set of counters at every
/// worker count.
pub fn worker_sweep_claim(t: &FigureTable) -> Result<(), String> {
    bit_identical(t, &["workers"])?;
    same_counters(t)
}

/// Run the sweep: one session per worker count, identical in everything but
/// the executor shape.
pub fn run(w: &Workload) -> FigureTable {
    let summary = vec![
        ("items", int(w.items)),
        ("decode_multiplier", int(w.decode_multiplier as u64)),
        ("epochs", int(w.epochs)),
    ];
    table(summary, w.axis.iter().map(|&n| run_once(w, n)).collect())
}

fn run_once(w: &Workload, workers: usize) -> Run {
    let spec = w.dataset("worker-sweep");
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
        .expect("valid worker_sweep session");
    let drained = drain_single(&session, w.epochs);
    timed_run("workers", workers, &session, drained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{count, doctor, doctor_counter, hex};

    fn tiny() -> Workload {
        Workload {
            axis: &[1, 3],
            items: 96,
            avg_item_bytes: 256,
            decode_multiplier: 4,
            ..WORKLOAD
        }
    }

    #[test]
    fn sweep_points_are_bit_identical_across_worker_counts() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 2);
        worker_sweep_claim(&t).expect("counters identical at every worker count");
        // Every epoch preps the full dataset: counters are exact.
        assert_eq!(count(&t, 0, "samples_delivered"), (2 * 96) as f64);
        assert_eq!(t.num(1, "workers"), 3.0);
        // Wall clock is observed, not written.
        assert!(t.observation("wall_s[1]").is_some());
    }

    #[test]
    fn shape_check_rejects_diverged_counters() {
        let mut t = run(&tiny());
        doctor_counter(&mut t, 1, "cache_hits", int(0));
        let err = worker_sweep_claim(&t).unwrap_err();
        assert!(err.contains("workers=3: counters differ"), "{err}");
        doctor(&mut t, 1, "stream_digest", hex(1));
        let err = worker_sweep_claim(&t).unwrap_err();
        assert!(
            err.contains("workers=3 delivered a different stream"),
            "{err}"
        );
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
            one(0xBEEF),
            one(0xD00D),
            "different shuffles, different streams"
        );
    }
}
