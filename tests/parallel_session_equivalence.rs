//! The parallel prefetching executor's determinism contract, pinned for
//! every session mode and cache tier: worker count and prefetch depth may
//! change *when* work happens, never *what* a job observes.
//!
//! For each mode (Single / Coordinated / Partitioned) and tier (MinIO and
//! LRU — the latter's eviction decisions are order-sensitive, so this also
//! pins the sequential-fetch guarantee), the delivered minibatch streams and
//! all five deterministic `LoaderStats` counters must be bit-identical
//! across `workers ∈ {1, 2, 8}` and `prefetch_depth ∈ {1, 4}`.  A property
//! section additionally drives arbitrary dataset/batch/worker/shard shapes
//! through the executor and checks the exactly-once sampler invariants.

use benchkit::{parallel, Workload};
use datastalls::cache::PolicyKind;
use datastalls::coordl::{Mode, Session, SessionConfig};
use datastalls::dataset::EpochSampler;
use datastalls::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 47;
const EPOCHS: u64 = 2;

/// Worker/depth grid every mode is swept over; (1, 1) is the reference.
const GRID: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 1), (2, 4), (8, 1), (8, 4)];

fn store(items: u64, avg: u64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("par-equiv", items, avg, 0.25, 4.0),
        23,
    ))
}

fn pipeline() -> ExecutablePipeline {
    ExecutablePipeline::new(PrepPipeline::image_classification(), 4, 3)
}

/// Everything a job can observe from a run: the prepared streams (one per
/// job, epochs concatenated), the five `LoaderStats` counters and the
/// cache hit/miss counts.
#[derive(Debug, PartialEq)]
struct Observed {
    streams: Vec<Vec<prep::PreparedSample>>,
    counters: (u64, u64, u64, u64, u64),
    cache_hits: u64,
    cache_misses: u64,
}

fn observe(session: &Session) -> ((u64, u64, u64, u64, u64), u64, u64) {
    let stats = session.stats();
    let counters = (
        stats.bytes_from_storage(),
        stats.bytes_from_cache(),
        stats.bytes_from_remote(),
        stats.samples_prepared(),
        stats.samples_delivered(),
    );
    let (hits, misses) = match session.cache_tier() {
        Some(tier) => (tier.hits(), tier.misses()),
        None => {
            let agg = session
                .partitioned_cluster()
                .expect("tierless sessions are partitioned")
                .aggregate_stats();
            (agg.local_hits + agg.remote_hits, agg.storage_reads)
        }
    };
    (counters, hits, misses)
}

fn run_session(mode: Mode, policy: PolicyKind, workers: usize, depth: usize) -> Observed {
    // A cache holding roughly half the dataset keeps the LRU points
    // interesting: evictions happen every epoch, so any fetch-order
    // divergence across worker counts would change the counters.
    let items = 180u64;
    let source = store(items, 512);
    let total_bytes: u64 = (0..items).map(|i| source.item_bytes(i)).sum();
    let session = Session::builder(
        Arc::clone(&source),
        SessionConfig {
            batch_size: 16,
            seed: SEED,
            cache_capacity_bytes: total_bytes / 2,
            staging_window: 8,
            take_timeout: Duration::from_secs(20),
            ..SessionConfig::default()
        },
    )
    .mode(mode)
    .workers(workers)
    .prefetch_depth(depth)
    .cache_policy(policy)
    .pipeline(pipeline())
    .build()
    .expect("valid session");

    let jobs = session.num_jobs();
    let mut streams: Vec<Vec<prep::PreparedSample>> = vec![Vec::new(); jobs];
    for epoch in 0..EPOCHS {
        let run = session.epoch(epoch);
        match mode {
            Mode::Coordinated { .. } => {
                // HP-search jobs consume concurrently, as in production.
                let handles: Vec<_> = (0..jobs)
                    .map(|j| {
                        let stream = run.stream(j);
                        std::thread::spawn(move || {
                            stream
                                .flat_map(|b| b.expect("epoch completes").samples.clone())
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for (j, h) in handles.into_iter().enumerate() {
                    streams[j].extend(h.join().expect("consumer"));
                }
            }
            _ => {
                // Single job, or partitioned nodes drained in node order
                // (the deterministic drive `dstool validate` also uses).
                for (j, sink) in streams.iter_mut().enumerate() {
                    for b in run.stream(j) {
                        sink.extend(b.expect("epoch completes").samples.clone());
                    }
                }
            }
        }
    }
    let (counters, cache_hits, cache_misses) = observe(&session);
    Observed {
        streams,
        counters,
        cache_hits,
        cache_misses,
    }
}

fn assert_grid_invariant(mode: Mode, policy: PolicyKind) {
    let reference = run_session(mode, policy, GRID[0].0, GRID[0].1);
    assert!(
        reference.counters.4 > 0,
        "{mode:?}/{policy:?}: reference run delivered nothing"
    );
    for &(workers, depth) in &GRID[1..] {
        let observed = run_session(mode, policy, workers, depth);
        assert_eq!(
            observed, reference,
            "{mode:?}/{policy:?}: workers={workers} depth={depth} diverged from \
             the workers=1 depth=1 reference"
        );
    }
}

#[test]
fn single_mode_is_bit_identical_across_workers_and_depth() {
    assert_grid_invariant(Mode::Single, PolicyKind::MinIo);
    assert_grid_invariant(Mode::Single, PolicyKind::Lru);
}

#[test]
fn coordinated_mode_is_bit_identical_across_workers_and_depth() {
    assert_grid_invariant(Mode::Coordinated { jobs: 3 }, PolicyKind::MinIo);
    assert_grid_invariant(Mode::Coordinated { jobs: 3 }, PolicyKind::Lru);
}

#[test]
fn partitioned_mode_is_bit_identical_across_workers_and_depth() {
    assert_grid_invariant(Mode::Partitioned { nodes: 2 }, PolicyKind::MinIo);
    assert_grid_invariant(Mode::Partitioned { nodes: 2 }, PolicyKind::Lru);
}

#[test]
fn prep_heavy_preset_is_bit_identical_across_worker_counts() {
    // The preset's own gate at a size between the unit tests' and the
    // smoke's.  Whether four workers are *faster* is `dsbench`'s question.
    let workload = Workload {
        axis: &[1, 4],
        items: 512,
        ..parallel::PRESET.workload
    };
    parallel::run(&workload)
        .gate()
        .expect("workers(4) must deliver the workers(1) stream bit-for-bit");
}

/// Drive one epoch of `session` and return each job's delivered item ids.
fn drain_epoch_items(session: &Session, epoch: u64) -> Vec<Vec<u64>> {
    let jobs = session.num_jobs();
    let run = session.epoch(epoch);
    match session.mode() {
        Mode::Coordinated { .. } => {
            let handles: Vec<_> = (0..jobs)
                .map(|j| {
                    let stream = run.stream(j);
                    std::thread::spawn(move || {
                        stream
                            .flat_map(|b| b.expect("epoch completes").item_ids())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        }
        _ => (0..jobs)
            .map(|j| {
                run.stream(j)
                    .flat_map(|b| b.expect("epoch completes").item_ids())
                    .collect()
            })
            .collect(),
    }
}

proptest! {
    // Real threads per case: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once delivery survives any executor shape: for arbitrary
    /// dataset sizes, batch sizes, worker counts, prefetch depths and
    /// coordinated job mixes, every job sees every item exactly once per
    /// epoch.
    #[test]
    fn every_job_sees_every_item_exactly_once_under_any_executor_shape(
        items in 1u64..220,
        batch in 1usize..40,
        workers in 1usize..6,
        depth in 1usize..6,
        jobs in 1usize..4,
        seed in 0u64..u64::MAX,
        mode_sel in 0usize..2,
    ) {
        let mode = match mode_sel {
            0 => Mode::Single,
            _ => Mode::Coordinated { jobs },
        };
        let source = store(items, 96);
        let session = Session::builder(
            source,
            SessionConfig {
                batch_size: batch,
                seed,
                cache_capacity_bytes: 16 << 20,
                staging_window: 8,
                take_timeout: Duration::from_secs(20),
                ..SessionConfig::default()
            },
        )
        .mode(mode)
        .workers(workers)
        .prefetch_depth(depth)
        .pipeline(pipeline())
        .build()
        .expect("valid session");
        for per_job in drain_epoch_items(&session, 0) {
            prop_assert_eq!(per_job.len() as u64, items, "coverage");
            let set: HashSet<_> = per_job.iter().collect();
            prop_assert_eq!(set.len() as u64, items, "exactly once");
        }
    }

    /// Partitioned shard invariant under the executor: for any node count
    /// and shard layout, the union of the node streams covers the dataset
    /// exactly once per epoch, and no node sees another node's items.
    #[test]
    fn partitioned_shards_cover_the_dataset_exactly_once(
        items in 1u64..220,
        batch in 1usize..40,
        workers in 1usize..6,
        depth in 1usize..6,
        nodes in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let source = store(items, 96);
        let session = Session::builder(
            source,
            SessionConfig {
                batch_size: batch,
                seed,
                cache_capacity_bytes: 16 << 20,
                ..SessionConfig::default()
            },
        )
        .mode(Mode::Partitioned { nodes })
        .workers(workers)
        .prefetch_depth(depth)
        .pipeline(pipeline())
        .build()
        .expect("valid session");
        let per_node = drain_epoch_items(&session, 1);
        let sampler = EpochSampler::new(items, seed);
        let mut union: Vec<u64> = Vec::new();
        for (node, delivered) in per_node.iter().enumerate() {
            // Each node delivers exactly its sampler shard, in order.
            prop_assert_eq!(
                delivered,
                &sampler.distributed_shard(1, node, nodes),
                "node {} stream", node
            );
            union.extend(delivered);
        }
        union.sort_unstable();
        prop_assert_eq!(union, (0..items).collect::<Vec<_>>());
    }
}
