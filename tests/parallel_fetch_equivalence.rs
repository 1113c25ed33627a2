//! The sharded fetch pool's determinism contract (`fetch_threads > 1`),
//! pinned for every session mode: the pool may change *which thread*
//! executes a cache transaction, never *what* a consumer observes.
//!
//! Every compared point pins the same `fetch_shards` count, because the
//! shard count is part of the cache geometry: per-shard capacities and
//! eviction decisions depend on it, so only equal-shard sessions promise
//! equal counters.  Under that pin, for any `(fetch_threads, workers,
//! prefetch_depth, policy, mode)` shape the delivered stream, the five
//! deterministic `LoaderStats` counters and the cache hit/miss counts are
//! bit-identical to the serial (`fetch_threads = 1`) sweep.  A second
//! property crosses the pool with seeded [`FaultPlan`] schedules and checks
//! that the `partitioned_chaos` invariants — exactly-once shard delivery, a
//! directory that never routes to a dead owner, and a fault-independent
//! delivered stream — survive any pool width.
//!
//! Case counts honour `PROPTEST_CASES`, like the chaos suite.

use benchkit::runtime::StreamDigest;
use datastalls::cache::{shard_of_key, PolicyKind};
use datastalls::coordl::{FaultPlan, Mode, Session, SessionConfig};
use datastalls::dataset::EpochSampler;
use datastalls::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 61;
const EPOCHS: u64 = 2;
const CHAOS_EPOCHS: u64 = 3;

/// Shard count pinned on every compared point (including the serial
/// reference, which would otherwise default to the 1-shard legacy tier).
const SHARDS: usize = 8;

/// Proptest case count: `PROPTEST_CASES` if set, the default otherwise.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn store(items: u64, avg: u64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("fetch-equiv", items, avg, 0.25, 4.0),
        29,
    ))
}

fn pipeline() -> ExecutablePipeline {
    ExecutablePipeline::new(PrepPipeline::image_classification(), 4, 3)
}

/// Everything a consumer can observe from a run: the per-job stream
/// digests (epochs concatenated), the five deterministic `LoaderStats`
/// counters and the cache hit/miss counts.
#[derive(Debug, PartialEq)]
struct Observed {
    stream_digests: Vec<u64>,
    counters: (u64, u64, u64, u64, u64),
    cache_hits: u64,
    cache_misses: u64,
}

#[allow(clippy::too_many_arguments)]
fn build_session(
    source: Arc<dyn DataSource>,
    mode: Mode,
    policy: PolicyKind,
    fetch_threads: usize,
    workers: usize,
    depth: usize,
    batch: usize,
    seed: u64,
    cache_capacity_bytes: u64,
) -> Session {
    Session::builder(
        source,
        SessionConfig {
            batch_size: batch,
            seed,
            cache_capacity_bytes,
            staging_window: 8,
            take_timeout: Duration::from_secs(20),
            ..SessionConfig::default()
        },
    )
    .mode(mode)
    .workers(workers)
    .prefetch_depth(depth)
    .fetch_threads(fetch_threads)
    .fetch_shards(SHARDS)
    .cache_policy(policy)
    .pipeline(pipeline())
    .build()
    .expect("valid fetch-pool session")
}

/// Drive every epoch and return what the consumers observed.  Coordinated
/// jobs consume concurrently (as in production); single and partitioned
/// streams are drained in job/node order, the deterministic drive
/// the `validate` figure row also uses.
fn run_observed(session: &Session, epochs: u64) -> Observed {
    let jobs = session.num_jobs();
    let mut digests: Vec<StreamDigest> = (0..jobs).map(|_| StreamDigest::default()).collect();
    for epoch in 0..epochs {
        let run = session.epoch(epoch);
        match session.mode() {
            Mode::Coordinated { .. } => {
                let handles: Vec<_> = (0..jobs)
                    .map(|j| {
                        let stream = run.stream(j);
                        std::thread::spawn(move || {
                            stream
                                .map(|b| b.expect("epoch completes"))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for (j, h) in handles.into_iter().enumerate() {
                    for mb in h.join().expect("consumer") {
                        digests[j].absorb(&mb);
                    }
                }
            }
            _ => {
                for (j, digest) in digests.iter_mut().enumerate() {
                    for b in run.stream(j) {
                        digest.absorb(&b.expect("epoch completes"));
                    }
                }
            }
        }
    }
    let stats = session.stats();
    let (cache_hits, cache_misses) = match session.cache_tier() {
        Some(tier) => (tier.hits(), tier.misses()),
        None => {
            let agg = session
                .partitioned_cluster()
                .expect("tierless sessions are partitioned")
                .aggregate_stats();
            (agg.local_hits + agg.remote_hits, agg.storage_reads)
        }
    };
    Observed {
        stream_digests: digests.iter().map(StreamDigest::finish).collect(),
        counters: (
            stats.bytes_from_storage(),
            stats.bytes_from_cache(),
            stats.bytes_from_remote(),
            stats.samples_prepared(),
            stats.samples_delivered(),
        ),
        cache_hits,
        cache_misses,
    }
}

fn run_point(mode: Mode, policy: PolicyKind, fetch_threads: usize) -> Observed {
    // Half-dataset capacity keeps evictions live every epoch, so any
    // per-shard transaction reordering would show up in the counters.
    let items = 180u64;
    let source = store(items, 512);
    let total_bytes: u64 = (0..items).map(|i| source.item_bytes(i)).sum();
    let session = build_session(
        source,
        mode,
        policy,
        fetch_threads,
        2,
        4,
        16,
        SEED,
        total_bytes / 2,
    );
    run_observed(&session, EPOCHS)
}

fn assert_pool_invariant(mode: Mode, policy: PolicyKind) {
    let reference = run_point(mode, policy, 1);
    assert!(
        reference.counters.4 > 0,
        "{mode:?}/{policy:?}: reference run delivered nothing"
    );
    for fetch_threads in [2usize, 4] {
        let observed = run_point(mode, policy, fetch_threads);
        if matches!(mode, Mode::Partitioned { .. }) {
            // Partitioned nodes admit through the cluster directory, whose
            // peer-vs-storage routing is sensitive to cross-node fetch
            // interleaving; the stream and delivery totals are still exact.
            assert_eq!(
                observed.stream_digests, reference.stream_digests,
                "{mode:?}/{policy:?}: fetch_threads={fetch_threads} changed the stream"
            );
            assert_eq!(observed.counters.4, reference.counters.4, "delivery total");
        } else {
            assert_eq!(
                observed, reference,
                "{mode:?}/{policy:?}: fetch_threads={fetch_threads} diverged from \
                 the serial reference"
            );
        }
    }
}

#[test]
fn single_mode_is_bit_identical_across_fetch_thread_counts() {
    assert_pool_invariant(Mode::Single, PolicyKind::MinIo);
    assert_pool_invariant(Mode::Single, PolicyKind::Lru);
}

#[test]
fn coordinated_mode_is_bit_identical_across_fetch_thread_counts() {
    assert_pool_invariant(Mode::Coordinated { jobs: 3 }, PolicyKind::MinIo);
    assert_pool_invariant(Mode::Coordinated { jobs: 3 }, PolicyKind::Lru);
}

#[test]
fn partitioned_mode_streams_are_invariant_to_the_pool_width() {
    assert_pool_invariant(Mode::Partitioned { nodes: 2 }, PolicyKind::MinIo);
    assert_pool_invariant(Mode::Partitioned { nodes: 2 }, PolicyKind::Lru);
}

#[test]
fn every_pool_thread_owns_work_and_reports_its_own_seconds() {
    let fetch_threads = 4usize;
    let items = 200u64;
    let source = store(items, 256);
    let session = build_session(
        Arc::clone(&source),
        Mode::Single,
        PolicyKind::MinIo,
        fetch_threads,
        1,
        4,
        16,
        SEED,
        64 << 20,
    );
    let observed = run_observed(&session, EPOCHS);
    assert_eq!(observed.counters.4, EPOCHS * items);

    // With 200 items over 8 shards every pool slot owns a non-empty key
    // set (the store is deterministic, so this is a fixed fact, not a
    // probabilistic one), and the per-slot report rows must show it.
    let report = session.report();
    assert_eq!(report.fetch_thread_busy_seconds.len(), fetch_threads);
    assert_eq!(report.fetch_thread_stall_seconds.len(), fetch_threads);
    let mut owned = vec![0u64; fetch_threads];
    for item in 0..items {
        owned[shard_of_key(item, SHARDS) % fetch_threads] += 1;
    }
    for (slot, count) in owned.iter().enumerate() {
        assert!(*count > 0, "pool slot {slot} owns no keys");
        assert!(
            report.fetch_thread_busy_seconds[slot] > 0.0,
            "pool slot {slot} owns {count} keys but recorded no busy time"
        );
    }
    assert_eq!(
        owned.iter().sum::<u64>(),
        items,
        "ownership partitions keys"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Key ownership is a partition for any `(items, fetch_threads,
    /// fetch_shards)` shape: every key of an epoch permutation is owned by
    /// exactly one pool slot, every slot index is valid, and the union of
    /// the slots' key sets is the epoch plan — the exactly-once half of
    /// the pool contract, checked against the same `shard_of_key` routing
    /// the executor uses.
    #[test]
    fn shard_ownership_partitions_every_epoch_plan(
        items in 1u64..2048,
        fetch_threads in 1usize..=8,
        extra_shards in 0usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let shards = fetch_threads + extra_shards;
        let plan = EpochSampler::new(items, seed).permutation(0);
        let mut per_slot: Vec<HashSet<u64>> =
            (0..fetch_threads).map(|_| HashSet::new()).collect();
        for &item in &plan {
            let slot = shard_of_key(item, shards) % fetch_threads;
            prop_assert!(slot < fetch_threads);
            prop_assert!(
                per_slot[slot].insert(item),
                "slot {} saw item {} twice", slot, item
            );
            for (other, set) in per_slot.iter().enumerate() {
                if other != slot {
                    prop_assert!(
                        !set.contains(&item),
                        "item {} owned by both slot {} and slot {}",
                        item, slot, other
                    );
                }
            }
        }
        let union: u64 = per_slot.iter().map(|s| s.len() as u64).sum();
        prop_assert_eq!(union, items, "the slots cover the plan exactly");
    }

    /// The full equivalence property: arbitrary executor shapes — batch
    /// size, prep workers, prefetch depth, pool width, job mix, policy —
    /// deliver the serial session's streams bit-for-bit with equal
    /// counters, under the pinned shard count.
    #[test]
    fn any_pool_shape_matches_the_serial_session_bit_for_bit(
        items in 1u64..200,
        batch in 1usize..32,
        workers in 1usize..5,
        depth in 1usize..5,
        fetch_threads in 2usize..=4,
        jobs in 1usize..4,
        seed in 0u64..u64::MAX,
        mode_sel in 0usize..2,
        policy in prop_oneof![Just(PolicyKind::MinIo), Just(PolicyKind::Lru)],
    ) {
        let mode = match mode_sel {
            0 => Mode::Single,
            _ => Mode::Coordinated { jobs },
        };
        let source = store(items, 96);
        let total_bytes: u64 = (0..items).map(|i| source.item_bytes(i)).sum();
        let observe = |f: usize| {
            let session = build_session(
                Arc::clone(&source),
                mode,
                policy,
                f,
                workers,
                depth,
                batch,
                seed,
                (total_bytes / 2).max(1),
            );
            run_observed(&session, EPOCHS)
        };
        let reference = observe(1);
        prop_assert_eq!(
            observe(fetch_threads), reference,
            "fetch_threads={} diverged under {:?}/{:?} workers={} depth={} batch={}",
            fetch_threads, mode, policy, workers, depth, batch
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Chaos cross: seeded fault schedules compose with the fetch pool.
    /// For any pool width, every node still delivers exactly its epoch
    /// shard, the directory never routes to a dead owner, the aggregate
    /// delivery count is exact, and the delivered stream is bit-identical
    /// to the serial session replaying the same schedule — faults fire on
    /// the fetch-count clock, which any pool width ticks the same number
    /// of times.
    #[test]
    fn fault_schedules_compose_with_the_fetch_pool(
        nodes in 2usize..=3,
        faults in 1usize..=3,
        fault_seed in 0u64..0x1_0000,
        stream_seed in 0u64..0x1_0000,
        fetch_threads in 2usize..=4,
        policy in prop_oneof![Just(PolicyKind::MinIo), Just(PolicyKind::Lru)],
    ) {
        let items = 64u64;
        let spec = DatasetSpec::new("fetch-chaos", items, 256, 0.2, 4.0);
        let build = |f: usize| {
            let store: Arc<dyn DataSource> =
                Arc::new(SyntheticItemStore::new(spec.clone(), 5));
            Session::builder(
                store,
                SessionConfig {
                    batch_size: 8,
                    seed: stream_seed,
                    cache_capacity_bytes: spec.total_bytes() * 65 / 100,
                    ..SessionConfig::default()
                },
            )
            .mode(Mode::Partitioned { nodes })
            .cache_policy(policy)
            .fetch_threads(f)
            .fetch_shards(SHARDS)
            .fault_plan(FaultPlan::seeded(
                nodes,
                CHAOS_EPOCHS,
                faults,
                fault_seed,
                items,
            ))
            .build()
            .expect("valid chaos pool session")
        };

        let session = build(fetch_threads);
        let sampler = EpochSampler::new(items, stream_seed);
        let cluster = session.partitioned_cluster().expect("partitioned mode");
        let mut node_digests: Vec<StreamDigest> =
            (0..nodes).map(|_| StreamDigest::default()).collect();
        for epoch in 0..CHAOS_EPOCHS {
            let run = session.epoch(epoch);
            for (node, digest) in node_digests.iter_mut().enumerate() {
                let mut delivered: Vec<u64> = Vec::new();
                for batch in run.stream(node) {
                    let mb = batch.expect("a fault never fails a consumer");
                    delivered.extend(mb.samples.iter().map(|s| s.item));
                    digest.absorb(&mb);
                }
                let mut shard = sampler.distributed_shard(epoch, node, nodes);
                delivered.sort_unstable();
                shard.sort_unstable();
                prop_assert_eq!(
                    delivered, shard,
                    "epoch {} node {}: stream must equal its shard exactly",
                    epoch, node
                );
            }
            for (item, owner) in cluster.directory_snapshot() {
                prop_assert!(
                    cluster.is_alive(owner),
                    "epoch {}: item {} registered to dead node {}",
                    epoch, item, owner
                );
            }
        }
        prop_assert_eq!(
            session.stats().samples_delivered(),
            CHAOS_EPOCHS * items,
            "aggregate delivery is exact across faults and pool threads"
        );

        // The serial replay of the identical schedule delivers the same
        // bytes: the pool changes cache routing races, never content.
        // `run_observed` digests node streams the same per-node way.
        let serial = build(1);
        let observed = run_observed(&serial, CHAOS_EPOCHS);
        prop_assert_eq!(
            node_digests
                .iter()
                .map(StreamDigest::finish)
                .collect::<Vec<_>>(),
            observed.stream_digests,
            "pool width {} changed the delivered bytes under fault seed {}",
            fetch_threads, fault_seed
        );
    }
}
