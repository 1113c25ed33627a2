//! Chaos property suite for the fault-injection layer (§5.2 under churn).
//!
//! The contract under test: a seeded [`FaultPlan`] may kill, gracefully
//! drain or rejoin cache nodes at arbitrary epoch boundaries, and through
//! all of it a partitioned [`Session`]'s consumers observe *exactly* their
//! epoch shards — no sample lost, none duplicated — while the cluster
//! directory never routes an item to a dead owner.  The properties hold for
//! any fault seed, any cache policy and any prep worker count; the worker
//! count additionally leaves the delivered byte stream bit-identical, so
//! the fault-step axis (one tick per cluster fetch) is deterministic.
//!
//! Case counts honour the `PROPTEST_CASES` environment variable so the CI
//! chaos leg can run an extended sweep without code changes.

use benchkit::runtime::StreamDigest;
use datastalls::coordl::{FaultPlan, Mode, Session, SessionConfig};
use datastalls::dataset::EpochSampler;
use datastalls::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const EPOCHS: u64 = 3;

/// Proptest case count: `PROPTEST_CASES` if set (the CI extended leg boosts
/// it), the given default otherwise.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn chaos_session(
    items: u64,
    nodes: usize,
    policy: PolicyKind,
    workers: usize,
    seed: u64,
    plan: FaultPlan,
) -> (Arc<dyn DataSource>, Session) {
    let spec = DatasetSpec::new("chaos-prop", items, 256, 0.2, 4.0);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 5));
    let session = Session::builder(
        Arc::clone(&store),
        SessionConfig {
            batch_size: 8,
            num_workers: workers,
            seed,
            // 65 % of the dataset per node, as in the bench chaos preset.
            cache_capacity_bytes: spec.total_bytes() * 65 / 100,
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Partitioned { nodes })
    .cache_policy(policy)
    .fault_plan(plan)
    .build()
    .expect("valid chaos session");
    (store, session)
}

/// Drive every epoch one node stream at a time (cluster fetches stay
/// sequential, so the fault clock ticks in a worker-count-independent
/// order) and return the digest of the delivered stream.
fn drive_and_digest(session: &Session, nodes: usize) -> u64 {
    let mut digest = StreamDigest::default();
    for epoch in 0..EPOCHS {
        let run = session.epoch(epoch);
        for node in 0..nodes {
            for batch in run.stream(node) {
                digest.absorb(&batch.expect("a fault never fails a consumer"));
            }
        }
    }
    digest.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Exactly-once delivery under arbitrary seeded fault schedules: every
    /// node's stream yields precisely its epoch shard (same items, same
    /// count) no matter which nodes die, drain or rejoin mid-epoch; the
    /// directory never points at a dead owner; and draining every surviving
    /// node at the end leaves an empty hierarchy.
    #[test]
    fn any_fault_schedule_preserves_exactly_once_delivery(
        nodes in 2usize..=4,
        faults in 1usize..=4,
        fault_seed in 0u64..0x1_0000,
        stream_seed in 0u64..0x1_0000,
        policy in prop_oneof![Just(PolicyKind::MinIo), Just(PolicyKind::Lru)],
        workers in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let items = 96u64;
        let plan = FaultPlan::seeded(nodes, EPOCHS, faults, fault_seed, items);
        let (store, session) =
            chaos_session(items, nodes, policy, workers, stream_seed, plan);
        let sampler = EpochSampler::new(store.len(), stream_seed);
        let cluster = session.partitioned_cluster().expect("partitioned mode");
        for epoch in 0..EPOCHS {
            let run = session.epoch(epoch);
            for node in 0..nodes {
                let mut delivered: Vec<u64> = Vec::new();
                for batch in run.stream(node) {
                    let mb = batch.expect("a fault never fails a consumer");
                    delivered.extend(mb.samples.iter().map(|s| s.item));
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
            // No lost shard: every registered owner is a live cache member.
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
            EPOCHS * items,
            "aggregate delivery is exact across all faults"
        );
        // Teardown: gracefully drain every survivor; the last leaver has no
        // peers to migrate to, so the hierarchy must end empty.
        for server in cluster.alive_servers() {
            cluster.leave_node(server);
        }
        prop_assert!(cluster.alive_servers().is_empty());
        prop_assert!(
            cluster.directory_snapshot().is_empty(),
            "a fully drained cluster must not advertise any owner"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The delivered stream is bit-identical for every prep worker count:
    /// faults fire on the cluster-fetch axis, which sequential node-stream
    /// driving keeps independent of prep parallelism.
    #[test]
    fn fault_timing_is_invariant_to_the_worker_count(
        nodes in 2usize..=3,
        faults in 1usize..=3,
        fault_seed in 0u64..0x1_0000,
        policy in prop_oneof![Just(PolicyKind::MinIo), Just(PolicyKind::Lru)],
        workers in prop_oneof![Just(2usize), Just(8usize)],
    ) {
        let items = 64u64;
        let digest_with = |w: usize| {
            let plan = FaultPlan::seeded(nodes, EPOCHS, faults, fault_seed, items);
            let (_, session) = chaos_session(items, nodes, policy, w, 0xC0DA, plan);
            drive_and_digest(&session, nodes)
        };
        prop_assert_eq!(
            digest_with(1),
            digest_with(workers),
            "{} prep workers changed the stream under fault seed {}",
            workers, fault_seed
        );
    }
}

#[test]
fn rejoining_with_a_warm_tier_restores_the_storage_free_steady_state() {
    // The restarted-process path: a node dies, its process restarts, and the
    // replacement cache chain is warmed from the node's persistent tier
    // rather than rebuilt from the durable store.  `rejoin_with_tier` with
    // the surviving tier handle models exactly that; after one lazy-heal
    // epoch the cluster is storage-free again.
    let items = 64u64;
    let nodes = 2usize;
    let spec = DatasetSpec::new("chaos-rejoin", items, 256, 0.0, 4.0);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 5));
    let session = Session::builder(
        Arc::clone(&store),
        SessionConfig {
            batch_size: 8,
            num_workers: 1,
            seed: 42,
            // Each node could hold the dataset, so recovery is capacity-free.
            cache_capacity_bytes: spec.total_bytes(),
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Partitioned { nodes })
    .build()
    .unwrap();
    let cluster = session.partitioned_cluster().unwrap();
    let drive = |epoch: u64| {
        let run = session.epoch(epoch);
        for node in 0..nodes {
            for batch in run.stream(node) {
                batch.expect("chaos epochs never fail a consumer");
            }
        }
    };

    drive(0); // Warm-up: both tiers populated, directory complete.
    let warm_tier = cluster.tier(1);
    cluster.kill_node(1);
    drive(1); // Degraded: node 1's former shard coverage pays storage.
    assert!(!cluster.is_alive(1));
    cluster.rejoin_with_tier(1, warm_tier);
    assert!(cluster.is_alive(1), "warm restart brings the node back");
    drive(2); // Heal: lazy re-registration re-advertises the warm bytes.
    drive(3); // Steady state again.

    let report = session.report();
    assert!(
        report.epochs[1].bytes_from_storage > 0,
        "the kill must cost storage reads"
    );
    assert_eq!(
        report.epochs[3].bytes_from_storage, 0,
        "after a warm rejoin plus one heal epoch, no fetch reaches storage"
    );
    assert!(
        report.epochs[3].bytes_from_remote > 0,
        "steady state serves the rejoined node's bytes over the fabric"
    );
    assert_eq!(
        session.stats().samples_delivered(),
        4 * items,
        "no sample lost or duplicated across kill and warm rejoin"
    );
}
