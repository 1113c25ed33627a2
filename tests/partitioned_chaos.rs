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
use datastalls::cache::{rendezvous_order, PartitionedIndex, ServerId};
use datastalls::coordl::{FaultEvent, FaultKind, FaultPlan, Mode, Session, SessionConfig};
use datastalls::dataset::EpochSampler;
use datastalls::pipeline::EpochCounts;
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
        report.epochs[1].counts.bytes_from_storage > 0,
        "the kill must cost storage reads"
    );
    assert_eq!(
        report.epochs[3].counts.bytes_from_storage, 0,
        "after a warm rejoin plus one heal epoch, no fetch reaches storage"
    );
    assert!(
        report.epochs[3].counts.bytes_from_remote > 0,
        "steady state serves the rejoined node's bytes over the fabric"
    );
    assert_eq!(
        session.stats().samples_delivered(),
        4 * items,
        "no sample lost or duplicated across kill and warm rejoin"
    );
}

// ---------------------------------------------------------------------------
// Prediction equals measurement
// ---------------------------------------------------------------------------

/// Epochs of a prediction-vs-measurement run.
const AGREE_EPOCHS: u64 = 6;

/// Run one fault schedule through the simulator and through a partitioned
/// session, set up like the `validate` row's partitioned-chaos scenario —
/// ImageNet-1k scaled down 4000× (320 items, its ±60 % size spread), MinIO
/// caches holding `cache_frac` of the dataset per node, batch 64, one prep
/// worker, the simulated server's device profile, node streams drained one
/// after another — but with 1 KiB average items, so a debug build runs it
/// in seconds.  Each side's counts are summed over every server epoch from 1
/// on (the `validate` row's `Fold::Sum`).
fn predicted_and_measured(
    servers: usize,
    faults: usize,
    seed: u64,
    cache_frac: f64,
) -> (EpochCounts, EpochCounts) {
    let spec = DatasetSpec::new("chaos-agree", 320, 1024, 0.6, 6.0);
    let server =
        ServerConfig::config_ssd_v100().with_cache_fraction(spec.total_bytes(), cache_frac);
    let job = JobSpec::new(
        ModelKind::ResNet18,
        spec.clone(),
        1,
        LoaderConfig::coordl(PrepBackend::DaliCpu),
    )
    .with_seed(0xC0DA);
    let report = Experiment::on(&server)
        .job(job)
        .scenario(Scenario::PartitionedChaos {
            servers,
            faults,
            seed,
        })
        .epochs(AGREE_EPOCHS)
        .run();
    let mut predicted = EpochCounts::default();
    for unit in report.per_server() {
        for e in unit.epochs.iter().filter(|e| e.epoch >= 1) {
            predicted += e.counts;
        }
    }

    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 7));
    let session = Session::builder(
        store,
        SessionConfig {
            batch_size: 64,
            num_workers: 1,
            seed: 0xC0DA,
            cache_capacity_bytes: server.dram_cache_bytes,
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Partitioned { nodes: servers })
    .cache_policy(PolicyKind::MinIo)
    .device_profile(server.device)
    .fault_plan(FaultPlan::seeded(
        servers,
        AGREE_EPOCHS,
        faults,
        seed,
        spec.num_items,
    ))
    .build()
    .expect("valid chaos session");
    for epoch in 0..AGREE_EPOCHS {
        let run = session.epoch(epoch);
        for node in 0..servers {
            for batch in run.stream(node) {
                batch.expect("a fault never fails a consumer");
            }
        }
    }
    let mut measured = EpochCounts::default();
    for e in session.report().epochs.iter().filter(|e| e.epoch >= 1) {
        measured += e.counts;
    }
    (predicted, measured)
}

/// Assert the simulator predicts the runtime exactly under one schedule.
fn assert_prediction_is_exact(servers: usize, faults: usize, seed: u64, cache_frac: f64) {
    let (predicted, measured) = predicted_and_measured(servers, faults, seed, cache_frac);
    let schedule = datastalls::cache::fault_schedule(servers, AGREE_EPOCHS, faults, seed);
    assert_eq!(
        predicted, measured,
        "{servers} servers, cache {cache_frac}, schedule {schedule:?}"
    );
}

#[test]
fn a_rejoined_node_serves_its_stale_copy_on_both_sides() {
    // [Kill 2@1, Join 2@3, Kill 2@5]: after the join, node 2 holds items a
    // survivor re-registered meanwhile; both sides serve them locally.
    assert_prediction_is_exact(4, 3, 1, 0.5);
}

#[test]
fn a_leave_after_a_join_rehomes_before_it_migrates_on_both_sides() {
    // A leave whose orphan a later rendezvous candidate already holds:
    // both sides re-home it there instead of migrating into the first.
    assert_prediction_is_exact(4, 6, 8, 0.5);
}

/// The 144-schedule sweep — {3, 4} servers × {3, 4, 6} faults × seeds
/// 0..12 × caches of 35 % and 50 % of the dataset — of which tier-1 runs the
/// first `cases(4)`; `PROPTEST_CASES=144` (or more) runs all of it.
#[test]
fn the_simulator_predicts_every_swept_schedule_exactly() {
    let mut grid = Vec::new();
    for servers in [3usize, 4] {
        for faults in [3usize, 4, 6] {
            for seed in 0u64..12 {
                for cache_frac in [0.35, 0.5] {
                    grid.push((servers, faults, seed, cache_frac));
                }
            }
        }
    }
    for (servers, faults, seed, cache_frac) in grid.into_iter().take(cases(4) as usize) {
        assert_prediction_is_exact(servers, faults, seed, cache_frac);
    }
}

// ---------------------------------------------------------------------------
// Reference model of the directory layer
// ---------------------------------------------------------------------------

/// The caches a membership change asks about: which `(node, item)` copies
/// exist, and how many more copies each node would keep if offered one.
#[derive(Debug, Clone, PartialEq)]
struct Caches {
    held: Vec<(usize, u64)>,
    room: Vec<u64>,
}

impl Caches {
    fn holds(&self, node: usize, item: u64) -> bool {
        self.held.contains(&(node, item))
    }

    /// The `holds` argument of `PartitionedIndex::apply`.
    fn answer(&mut self, item: u64, node: usize, offered: bool) -> bool {
        if offered && !self.holds(node, item) && self.room[node] > 0 {
            self.room[node] -= 1;
            self.held.push((node, item));
        }
        self.holds(node, item)
    }
}

/// An obviously-correct directory: `(item, owner)` entries, an alive flag per
/// node and the schedule with the count of fired events, scanned linearly.
struct DirectoryModel {
    entries: Vec<(u64, usize)>,
    alive: Vec<bool>,
    schedule: Vec<FaultEvent>,
    fired: usize,
}

impl DirectoryModel {
    fn owner(&self, item: u64) -> Option<usize> {
        self.entries.iter().find(|e| e.0 == item).map(|e| e.1)
    }

    fn register(&mut self, item: u64, node: usize) {
        if self.alive[node] {
            self.entries.retain(|e| e.0 != item);
            self.entries.push((item, node));
        }
    }

    fn remote_owner(&self, item: u64, local: usize) -> Option<usize> {
        self.owner(item).filter(|&o| o != local && self.alive[o])
    }

    fn next_due(&mut self, completed: u64) -> Option<FaultEvent> {
        let event = *self.schedule.get(self.fired)?;
        (event.at <= completed).then(|| {
            self.fired += 1;
            event
        })
    }

    fn apply(&mut self, kind: FaultKind, node: usize, caches: &mut Caches) {
        if kind == FaultKind::Join {
            self.alive[node] = true;
            return;
        }
        if !self.alive[node] {
            return;
        }
        self.alive[node] = false;
        let mut orphans: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| e.1 == node)
            .map(|e| e.0)
            .collect();
        orphans.sort_unstable();
        self.entries.retain(|e| e.1 != node);
        for item in orphans {
            let order = rendezvous_order(item, self.alive.len());
            let live: Vec<usize> = order.into_iter().filter(|&n| self.alive[n]).collect();
            let mut owner = live.iter().copied().find(|&n| caches.holds(n, item));
            if owner.is_none() && kind == FaultKind::Leave {
                owner = live.iter().copied().find(|&n| caches.answer(item, n, true));
            }
            if let Some(n) = owner {
                self.entries.push((item, n));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    /// `PartitionedIndex` makes the model's decisions on a seeded stream of
    /// register / advertise / cache-fill / kill / leave / join / next_due
    /// operations; after every one no entry names a dead node, every entry
    /// a membership change re-homed names a node holding the item, the
    /// entries (and so the orphan set) equal the model's, and every fired
    /// event is the schedule's next, each exactly once.
    #[test]
    fn the_directory_matches_the_vector_scan_model_op_by_op(
        ops_seed in 0u64..u64::MAX,
        servers in 1usize..=5,
        items in 1u64..16,
        events in 0usize..8,
        num_ops in 1usize..200,
    ) {
        const KINDS: [FaultKind; 3] = [FaultKind::Kill, FaultKind::Leave, FaultKind::Join];
        let mut rng = TestRng::new(ops_seed);
        let mut schedule: Vec<FaultEvent> = (0..events)
            .map(|_| FaultEvent {
                at: rng.next_u64() % 12,
                node: (rng.next_u64() % servers as u64) as usize,
                kind: KINDS[(rng.next_u64() % 3) as usize],
            })
            .collect();
        let mut index = PartitionedIndex::new(servers);
        index.set_schedule(schedule.clone());
        schedule.sort_by_key(|e| e.at);
        let mut model = DirectoryModel {
            entries: Vec::new(),
            alive: vec![true; servers],
            schedule,
            fired: 0,
        };
        let room = (0..servers).map(|_| rng.next_u64() % 8).collect();
        let mut caches = Caches { held: Vec::new(), room };
        let (mut completed, mut fired) = (0u64, Vec::new());
        for step in 0..num_ops {
            let (op, item) = (rng.next_u64() % 12, rng.next_u64() % items);
            let node = (rng.next_u64() % servers as u64) as usize;
            let before = index.entries();
            let mut changes: Vec<(FaultKind, usize)> = Vec::new();
            match op {
                0..=2 => {
                    index.register(item, ServerId(node));
                    model.register(item, node);
                    if model.alive[node] {
                        caches.held.push((node, item));
                    }
                }
                3 => {
                    index.advertise(item, ServerId(node));
                    if model.owner(item).is_none() {
                        model.register(item, node);
                    }
                }
                4 | 5 => caches.held.push((node, item)),
                6 => changes.push((FaultKind::Kill, node)),
                7 | 8 => changes.push((FaultKind::Leave, node)),
                9 => changes.push((FaultKind::Join, node)),
                _ => {
                    completed += rng.next_u64() % 3;
                    while let Some(e) = index.next_due(completed) {
                        prop_assert_eq!(Some(e), model.next_due(completed), "step {}: fired", step);
                        fired.push(e);
                        changes.push((e.kind, e.node));
                    }
                    prop_assert_eq!(model.next_due(completed), None, "step {}: not fired", step);
                }
            }
            let mut sut_caches = caches.clone();
            for &(kind, n) in &changes {
                let holds = |i, ServerId(c), offered| sut_caches.answer(i, c, offered);
                index.apply(kind, ServerId(n), holds);
                model.apply(kind, n, &mut caches);
            }
            prop_assert_eq!(&sut_caches, &caches, "step {}: migrations", step);
            let what = format!("step {step}: op {op} item {item} node {node}");
            let mut expected: Vec<(u64, ServerId)> =
                model.entries.iter().map(|&(i, o)| (i, ServerId(o))).collect();
            expected.sort_unstable();
            let after = index.entries();
            prop_assert_eq!(&after, &expected, "{}", what);
            for &(i, ServerId(owner)) in &after {
                prop_assert!(index.is_alive(ServerId(owner)), "{}: {} names dead {}", what, i, owner);
                if !changes.is_empty() && !before.contains(&(i, ServerId(owner))) {
                    prop_assert!(caches.holds(owner, i), "{}: {} re-homed to {} uncopied", what, i, owner);
                }
            }
            for n in 0..servers {
                prop_assert_eq!(index.is_alive(ServerId(n)), model.alive[n], "{}", what);
                let remote = index.remote_owner(item, ServerId(n)).map(|s| s.0);
                prop_assert_eq!(remote, model.remote_owner(item, n), "{}", what);
            }
        }
        prop_assert_eq!(&fired[..], &model.schedule[..model.fired], "events fire once, in order");
    }
}
