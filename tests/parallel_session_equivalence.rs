//! The parallel prefetching executor's determinism contract, pinned for
//! every session mode and cache tier: worker count and prefetch depth may
//! change *when* work happens, never *what* a job observes.
//!
//! For each mode (Single / Coordinated / Partitioned) and tier (MinIO and
//! LRU — the latter's eviction decisions are order-sensitive, so this also
//! pins the sequential-fetch guarantee), the delivered minibatch streams and
//! all five deterministic `LoaderStats` counters must be bit-identical
//! across `workers ∈ {1, 2, 8}` and `prefetch_depth ∈ {1, 4}` — and across
//! what the consumer does with the batches it is lent: drop each one before
//! asking for the next (so the stream takes its buffers back for prep to
//! reuse) or hold a whole epoch (in a coordinated session job 0 holds while
//! the other jobs drop theirs), whose bytes must still be the delivered
//! ones once later epochs have recycled buffers — and whether the session
//! has the process's prep pool to itself or shares it with a second session
//! running at once.  A stalled consumer pins how many sample buffers
//! recycling keeps.  A property section
//! additionally drives arbitrary dataset/batch/worker/shard shapes through
//! the executor and checks the exactly-once sampler invariants.

use benchkit::{parallel, Workload};
use datastalls::cache::PolicyKind;
use datastalls::coordl::{Minibatch, Mode, Session, SessionConfig, TierSnapshot};
use datastalls::dataset::EpochSampler;
use datastalls::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 47;
const EPOCHS: u64 = 2;

/// What a consumer does with a batch it is lent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Consumer {
    /// Copy the samples out and drop the batch before the next `next()`.
    DropEach,
    /// Keep every batch of the first epoch until the session is done, then
    /// drop each one like `DropEach` (coordinated: job 0 only; the other
    /// jobs drop theirs).
    Collect,
}

use Consumer::{Collect, DropEach};

/// Worker/depth/consumer grid every mode is swept over; the first point is
/// the reference.
const GRID: [(usize, usize, Consumer); 6] = [
    (1, 1, DropEach),
    (1, 4, Collect),
    (2, 1, DropEach),
    (2, 4, Collect),
    (8, 1, Collect),
    (8, 4, DropEach),
];

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
/// job, epochs concatenated), the five `LoaderStats` counters, the cache
/// hit/miss counts and every tier level's snapshot.
#[derive(Debug, PartialEq)]
struct Observed {
    streams: Vec<Vec<prep::PreparedSample>>,
    counters: (u64, u64, u64, u64, u64),
    cache_hits: u64,
    cache_misses: u64,
    levels: Vec<TierSnapshot>,
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

/// Drain one stream the way `hold` says: a holding consumer keeps every
/// batch and returns them, a dropping one copies the samples out and lets
/// each batch go before asking for the next.
fn drain(stream: BatchStream, hold: bool) -> (Vec<prep::PreparedSample>, Vec<Arc<Minibatch>>) {
    let (mut copied, mut held) = (Vec::new(), Vec::new());
    for batch in stream {
        let batch = batch.expect("epoch completes");
        match hold {
            true => held.push(batch),
            false => copied.extend(batch.samples.iter().cloned()),
        }
    }
    (copied, held)
}

fn run_session(
    mode: Mode,
    policy: PolicyKind,
    workers: usize,
    depth: usize,
    consumer: Consumer,
) -> Observed {
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
    let coordinated = matches!(mode, Mode::Coordinated { .. });
    // A collecting consumer holds the whole first epoch and drops the
    // later ones, so its held batches sit beside buffers being recycled.
    let hold =
        |job: usize, epoch: u64| consumer == Collect && epoch == 0 && (job == 0 || !coordinated);
    let mut copied: Vec<Vec<prep::PreparedSample>> = vec![Vec::new(); jobs];
    let mut held: Vec<Vec<Arc<Minibatch>>> = vec![Vec::new(); jobs];
    for epoch in 0..EPOCHS {
        let run = session.epoch(epoch);
        let drained: Vec<_> = if coordinated {
            // HP-search jobs consume concurrently, as in production.
            let handles: Vec<_> = (0..jobs)
                .map(|j| {
                    let (stream, hold) = (run.stream(j), hold(j, epoch));
                    std::thread::spawn(move || drain(stream, hold))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("consumer"))
                .collect()
        } else {
            // Single job, or partitioned nodes drained in node order
            // (the deterministic drive the `validate` figure row also uses).
            (0..jobs)
                .map(|j| drain(run.stream(j), hold(j, epoch)))
                .collect()
        };
        for (j, (samples, batches)) in drained.into_iter().enumerate() {
            copied[j].extend(samples);
            held[j].extend(batches);
        }
    }
    // The held batches are read only now, after every later epoch recycled
    // buffers: a held buffer that was reused would show here.
    let streams = held
        .iter()
        .zip(copied)
        .map(|(kept, later)| {
            let kept = kept.iter().flat_map(|b| b.samples.iter().cloned());
            kept.chain(later).collect()
        })
        .collect();
    let (counters, cache_hits, cache_misses) = observe(&session);
    Observed {
        streams,
        counters,
        cache_hits,
        cache_misses,
        levels: session.tier_levels(),
    }
}

fn assert_grid_invariant(mode: Mode, policy: PolicyKind) {
    let (workers, depth, consumer) = GRID[0];
    let reference = run_session(mode, policy, workers, depth, consumer);
    assert!(
        reference.counters.4 > 0,
        "{mode:?}/{policy:?}: reference run delivered nothing"
    );
    for &(workers, depth, consumer) in &GRID[1..] {
        let observed = run_session(mode, policy, workers, depth, consumer);
        assert_eq!(
            observed, reference,
            "{mode:?}/{policy:?}: workers={workers} depth={depth} {consumer:?} diverged \
             from the workers=1 depth=1 DropEach reference"
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
    // Two jobs: each batch goes back through whichever job lets go of it
    // last, and never while job 0 still holds it.
    assert_grid_invariant(Mode::Coordinated { jobs: 2 }, PolicyKind::MinIo);
}

#[test]
fn partitioned_mode_is_bit_identical_across_workers_and_depth() {
    assert_grid_invariant(Mode::Partitioned { nodes: 2 }, PolicyKind::MinIo);
    assert_grid_invariant(Mode::Partitioned { nodes: 2 }, PolicyKind::Lru);
}

#[test]
fn two_sessions_on_one_prep_pool_observe_what_one_observes_alone() {
    // Every session in the process preps on one pool: two sessions of one
    // shape, each driven on its own thread at the same time, observe
    // exactly what one observes alone — streams, counters and tier
    // snapshots — at one worker (the smallest cap on the pool) and at two.
    let modes = [
        Mode::Single,
        Mode::Coordinated { jobs: 2 },
        Mode::Partitioned { nodes: 2 },
    ];
    for mode in modes {
        for policy in [PolicyKind::MinIo, PolicyKind::Lru] {
            for (workers, depth, consumer) in [(1, 1, DropEach), (2, 4, Collect)] {
                let run = || run_session(mode, policy, workers, depth, consumer);
                let alone = run();
                assert!(
                    alone.counters.4 > 0,
                    "{mode:?}/{policy:?}: nothing delivered"
                );
                let together: Vec<Observed> = std::thread::scope(|s| {
                    let sessions: Vec<_> = (0..2).map(|_| s.spawn(run)).collect();
                    sessions
                        .into_iter()
                        .map(|h| h.join().expect("session"))
                        .collect()
                });
                for (k, observed) in together.iter().enumerate() {
                    assert!(
                        *observed == alone,
                        "{mode:?}/{policy:?}: workers={workers} depth={depth} {consumer:?}: \
                         session {k} of two at once diverged from the session alone"
                    );
                }
            }
        }
    }
}

#[test]
fn prep_heavy_preset_is_bit_identical_across_worker_counts() {
    // The `worker_sweep` row's own claim at twice its size.  Whether four
    // workers are *faster* is `dsbench`'s question.
    let workload = Workload {
        axis: &[1, 4],
        items: 512,
        ..parallel::WORKLOAD
    };
    parallel::worker_sweep_claim(&parallel::run(&workload))
        .expect("workers(4) must deliver the workers(1) stream bit-for-bit");
}

#[test]
fn a_stalled_consumer_bounds_the_recycled_buffers_by_the_prepared_side_window() {
    // A single-mode stream with one worker: the batch lent to the consumer
    // and the `depth` staged for it.  The pool preps no position the
    // staging window has no room for, so nothing more is prepared, and the
    // lane makes exactly that window of buffers.  On equal-sized items
    // every buffer is reserved to the same pre-crop size at its first use
    // and never reallocated: each keeps one address for the whole session,
    // and the distinct addresses delivered count the buffers in use.
    let (depth, batch, items) = (2, 8, 160u64);
    let window = (depth + 1) * batch;
    let source: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("lending", items, 256, 0.0, 4.0),
        5,
    ));
    let session = Session::builder(
        source,
        SessionConfig {
            batch_size: batch,
            seed: SEED,
            cache_capacity_bytes: 16 << 20,
            ..SessionConfig::default()
        },
    )
    .workers(1)
    .prefetch_depth(depth)
    .pipeline(pipeline())
    .build()
    .expect("valid session");
    let mut buffers = HashSet::new();
    for epoch in 0..2u64 {
        let run = session.epoch(epoch);
        let mut stream = run.stream(0);
        let mut take = |mb: Arc<Minibatch>| {
            buffers.extend(mb.samples.iter().map(|s| s.data.as_ptr() as usize));
            mb.index
        };
        assert_eq!(take(stream.next().unwrap().unwrap()), 0);
        // Stalled after one batch: prep runs exactly one window ahead and
        // stops there.
        let parked = epoch * items + window as u64;
        let deadline = Instant::now() + Duration::from_secs(60);
        while session.stats().samples_prepared() < parked {
            assert!(Instant::now() < deadline, "prep never filled the window");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(session.stats().samples_prepared(), parked, "epoch {epoch}");
        let rest: Vec<usize> = stream.map(|mb| take(mb.unwrap())).collect();
        assert_eq!(rest, (1..20).collect::<Vec<_>>(), "epoch {epoch}");
        assert_eq!(
            buffers.len(),
            window,
            "epoch {epoch}: one buffer per sample of the window, reused ever since"
        );
    }
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
