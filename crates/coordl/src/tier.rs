//! Pluggable byte-cache tiers.
//!
//! A [`CacheTier`] sits between a [`Session`](crate::Session)'s fetch threads
//! and its [`FetchBackend`].  One implementation holds
//! bytes: [`TieredByteCache`], a sharded `dcache::TierChain` of real byte
//! tiers (DRAM MinIO/LRU/FIFO/CLOCK spilling into a profiled local-SSD tier,
//! and so on) driven by the *same* policy code the simulator's
//! [`storage::StorageNode`] uses — CoorDL's never-evict MinIO cache (§4.1) is
//! `PolicyKind::MinIo` in it, the page-cache thrashing the paper measures is
//! `PolicyKind::Lru`.  One adapter sits over it: the multi-tenant server's
//! [`TenantView`](crate::TenantView) (a key window plus a DRAM quota).  The
//! partitioned cluster composes whole tiers instead: peers' caches are the
//! second step of
//! [`PartitionedCacheCluster::fetch`](crate::PartitionedCacheCluster::fetch),
//! between a node's own tier and the backend.

use crate::backend::{recycle_if_last, FetchBackend};
use crate::error::{panic_detail, CoordlError};
use crossbeam::channel::{self, Receiver, Sender};
use dataset::ItemId;
use dcache::{ChainAccess, ChainSource, KeyMap, PolicyKind, TierChain, TierSpec};
use parking_lot::Mutex;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use storage::{AccessPattern, DeviceProfile};
use vfs::{SpillStore, Vfs};

/// A thread-safe byte cache tier keyed by item id.
///
/// `lookup` and `admit` mirror the two halves of a fetch: every lookup miss
/// is expected to be followed by an `admit` of the bytes read from the next
/// tier down, which is when the policy decides whether to retain them (and
/// what to evict).  Hit/miss counters therefore count *fetches*, exactly as
/// the simulator's cache statistics do.
pub trait CacheTier: Send + Sync {
    /// Look `item` up, returning its bytes on a hit.
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>>;

    /// Offer `bytes` for `item` after a miss.  The tier admits (and possibly
    /// evicts) according to its policy; the caller always keeps a usable
    /// reference.
    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>>;

    /// The admit transaction of a miss on `item` whose payload is `size`
    /// bytes, run before the payload is read — when the tier will not keep
    /// it.  Returns `true` once the tier has recorded the bypassed miss,
    /// exactly what [`admit`](CacheTier::admit) of a `size`-byte payload
    /// that it refuses would have recorded; the caller then reads the item
    /// whenever it likes and never offers it.  Returns `false`, changing
    /// nothing, when the tier would keep the item or cannot tell: the
    /// caller reads the item and calls `admit` as usual.
    ///
    /// The decision may read only `size` and the tier's state, never the
    /// bytes, and `size` must be the length the read will return: the
    /// fetch path takes it from [`FetchBackend::item_bytes`] and fails a
    /// read of any other length as [`CoordlError::BackendIo`].  The default
    /// cannot tell.
    fn try_bypass(&self, _item: ItemId, _size: u64) -> bool {
        false
    }

    /// Whether `item` is currently resident.
    fn contains(&self, item: ItemId) -> bool;

    /// Bytes currently resident.
    fn used_bytes(&self) -> u64;

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Number of resident items.
    fn resident_items(&self) -> usize;

    /// Lookup hits since construction.
    fn hits(&self) -> u64;

    /// Lookup misses since construction.
    fn misses(&self) -> u64;

    /// Name of the replacement policy.
    fn policy_name(&self) -> &'static str;

    /// Like [`CacheTier::lookup`], additionally reporting which level of the
    /// tier's hierarchy served the hit (0 for flat tiers).
    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        self.lookup(item).map(|bytes| (bytes, 0))
    }

    /// Per-level statistics of the tier's hierarchy (a single level for flat
    /// tiers).
    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        vec![TierSnapshot {
            name: "dram",
            policy: self.policy_name(),
            capacity_bytes: self.capacity_bytes(),
            used_bytes: self.used_bytes(),
            resident_items: self.resident_items(),
            hits: self.hits(),
            misses: self.misses(),
            evictions: 0,
            demoted_in: 0,
            demoted_out: 0,
            device_seconds: 0.0,
        }]
    }

    /// Commit what the tier's persistent levels have queued for disk, so
    /// that everything admitted so far survives a restart, and report the
    /// first spill failure since construction (which stays reported: the
    /// level it hit no longer mirrors to disk).  A [`TieredByteCache`]
    /// ships every shard's open batch of spill ops to its write-behind
    /// writer and returns once the writer has applied and committed them —
    /// by then every payload the writer held is handed back too — or with
    /// [`CoordlError::WorkerPanicked`] (stage `"spill"`) if the writer
    /// died.  Sessions call this as each epoch ends; tiers that persist
    /// nothing have nothing to do.
    fn flush(&self) -> Result<(), CoordlError> {
        Ok(())
    }
}

/// A point-in-time view of one level of a cache-tier hierarchy, used by
/// reports and the `validate` figure row's per-tier hit-ratio rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSnapshot {
    /// Level name (`"dram"`, `"ssd"`, ...).
    pub name: &'static str,
    /// Replacement policy at this level.
    pub policy: &'static str,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes resident.
    pub used_bytes: u64,
    /// Items resident.
    pub resident_items: usize,
    /// Fetches served by this level.
    pub hits: u64,
    /// Fetches that consulted this level and fell through.
    pub misses: u64,
    /// Entries this level's policy evicted on the fetch path.  Every policy
    /// records its evictions (MinIO never evicts, so it reports 0); a custom
    /// tier that keeps the default [`CacheTier::tier_snapshots`] reports 0.
    pub evictions: u64,
    /// Victims accepted from the level above (demotion).
    pub demoted_in: u64,
    /// Victims this level evicted that were offered below.
    pub demoted_out: u64,
    /// Modelled busy time of this level's backing device across all hits,
    /// in seconds (0 for unprofiled DRAM levels).
    pub device_seconds: f64,
}

// ---------------------------------------------------------------------------
// Tiered byte cache: a TierChain holding real payloads
// ---------------------------------------------------------------------------

/// Where a [`TieredByteCache`] level keeps its payloads.
///
/// `Memory` (the default) holds everything in the shared in-memory payload
/// map — the behaviour every existing digest was produced with.  `Vfs`
/// additionally persists the level's resident set through a
/// [`SpillStore`] under a VFS directory: demoted victims landing at the
/// level are written into its segment files, and a later cache built over
/// the same VFS root warms the level back up from the manifest — the
/// persistent-SSD restart story.
///
/// **What survives.**  The store commits in groups, not per item:
/// everything admitted in a completed epoch (the session's
/// [`CacheTier::flush`] at epoch end) and everything before a clean drop
/// survives a restart exactly; a crash mid-epoch loses at most the open
/// group (under [`SpillStore::GROUP_BYTES`] per persistent shard) plus the
/// spill ops still queued for the cache's writer (see
/// [`TieredByteCache`]'s write-behind bound), and never serves a wrong,
/// short or resurrected-after-committed-removal payload.
/// The directory is a cache: one left by another store format is not
/// migrated, the level starts cold over it.
#[derive(Clone)]
pub enum TierBacking {
    /// Payloads live only in memory (the default; zero behaviour change).
    Memory,
    /// Payloads resident at this level are mirrored to files under `dir`
    /// of `vfs`, and replayed into the level on construction.
    Vfs {
        /// The filesystem the level persists through.
        vfs: Arc<dyn Vfs>,
        /// Directory (within the VFS namespace) owned by this level.
        dir: String,
    },
}

impl std::fmt::Debug for TierBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierBacking::Memory => write!(f, "Memory"),
            TierBacking::Vfs { vfs, dir } => write!(f, "Vfs({}:{dir})", vfs.name()),
        }
    }
}

impl PartialEq for TierBacking {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TierBacking::Memory, TierBacking::Memory) => true,
            (TierBacking::Vfs { vfs: a, dir: da }, TierBacking::Vfs { vfs: b, dir: db }) => {
                Arc::ptr_eq(a, b) && da == db
            }
            _ => false,
        }
    }
}

/// Description of one level of a [`TieredByteCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct ByteTierSpec {
    /// Level name used in reports (`"dram"`, `"ssd"`, ...).
    pub name: &'static str,
    /// Replacement policy governing residency at this level.
    pub policy: PolicyKind,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Device backing the level: `None` for DRAM (hits cost memory
    /// bandwidth), `Some(profile)` for a real device whose modelled busy
    /// time is accounted per hit (random small-item reads).
    pub profile: Option<DeviceProfile>,
    /// Where the level's payloads live (see [`TierBacking`]).
    pub backing: TierBacking,
}

impl ByteTierSpec {
    /// A DRAM level of `capacity_bytes` under `policy`.
    pub fn dram(policy: PolicyKind, capacity_bytes: u64) -> Self {
        ByteTierSpec {
            name: "dram",
            policy,
            capacity_bytes,
            profile: None,
            backing: TierBacking::Memory,
        }
    }

    /// A local SATA-SSD level of `capacity_bytes` under `policy` (§4.2 /
    /// Table 2: 530 MB/s random reads).
    pub fn sata_ssd(policy: PolicyKind, capacity_bytes: u64) -> Self {
        ByteTierSpec {
            name: "ssd",
            policy,
            capacity_bytes,
            profile: Some(DeviceProfile::sata_ssd()),
            backing: TierBacking::Memory,
        }
    }

    /// Persist this level through `dir` of `vfs`: spilled victims land in
    /// the directory's segment files and a rebuilt cache over the same VFS
    /// warms the level from its manifest (see [`TierBacking::Vfs`] for what
    /// a crash can lose).
    pub fn persistent(mut self, vfs: Arc<dyn Vfs>, dir: impl Into<String>) -> Self {
        self.backing = TierBacking::Vfs {
            vfs,
            dir: dir.into(),
        };
        self
    }

    /// This level with its persistent directory (if it has one) moved to
    /// `{dir}/{sub}` — how cache shards and partitioned nodes get disjoint
    /// spill stores out of one spec.
    pub(crate) fn in_subdir(mut self, sub: &str) -> Self {
        if let TierBacking::Vfs { dir, .. } = &mut self.backing {
            *dir = format!("{dir}/{sub}");
        }
        self
    }

    pub(crate) fn tier_spec(&self) -> TierSpec {
        TierSpec {
            name: self.name,
            policy: self.policy,
            capacity_bytes: self.capacity_bytes,
            cost: match &self.profile {
                None => storage::dram_tier_cost(),
                Some(p) => p.tier_cost(AccessPattern::Random),
            },
        }
    }
}

/// Intern a hierarchy label: leak it at most once per distinct string (the
/// label space is the tiny set of tier-layout names, so the table stays a
/// handful of entries for the process lifetime).
fn intern_label(label: String) -> &'static str {
    static LABELS: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
    // Interning is idempotent, so a panic between lock and push leaves the
    // table merely shorter, never wrong: recover from poisoning instead of
    // propagating one tenant's panic to every later label lookup.
    let mut labels = LABELS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(existing) = labels.iter().find(|l| **l == label) {
        return existing;
    }
    let leaked: &'static str = Box::leak(label.into_boxed_str());
    labels.push(leaked);
    leaked
}

struct TieredInner {
    chain: TierChain,
    /// One payload per resident item, shared by every level that holds it.
    bytes: KeyMap<ItemId, Arc<Vec<u8>>>,
    // Fetch counters live in the wrapper, not the chain: with concurrent
    // workers, a lookup miss raced by another worker's admit would otherwise
    // be lost.  One hit or one miss per fetch, counted at lookup time.
    hits: u64,
    misses: u64,
    /// Modelled per-level device busy seconds across all hits.
    level_seconds: Vec<f64>,
    /// This shard's feed of the spill writer (`Some` only when some level
    /// is [`TierBacking::Vfs`]).
    spill: Option<SpillLane>,
}

impl TieredInner {
    /// Apply a chain access on `key` to the payload map and queue its
    /// mirroring: every new landing (`key`'s own admission or promotion
    /// copy, then each demoted victim) is written into the persistent level
    /// it landed in, and what fell off the chain is removed from every
    /// persistent level.  Retire and let go of the payloads that fell off,
    /// handing each payload nobody else holds to `recycler`, if there is
    /// one.  Returns the level a new copy of `key` landed in.
    fn settle(
        &mut self,
        key: u64,
        access: ChainAccess,
        recycler: Option<&dyn FetchBackend>,
    ) -> Option<usize> {
        let landed = access.admitted.then(|| self.chain.locate(key)).flatten();
        let TieredInner { bytes, spill, .. } = self;
        // Purely in-memory hierarchies (the hot path) skip the mirroring.
        if let Some(lane) = spill {
            let own = landed.map(|level| (key, level));
            for (landing, level) in own.into_iter().chain(access.demoted.iter().copied()) {
                if lane.persistent[level] {
                    let payload = bytes
                        .get(&landing)
                        .expect("a landed key must have a resident payload");
                    lane.push(level, SpillOp::Write(landing, Arc::clone(payload)));
                }
                // Stale copies at other persistent levels are dropped lazily:
                // removing here would fight the promotion-keeps-lower-copy rule.
            }
            for &victim in &access.dropped {
                lane.push_each(|| SpillOp::Remove(victim));
            }
        }
        for victim in access.dropped {
            let payload = bytes.remove(&victim);
            if let (Some(backend), Some(payload)) = (recycler, payload) {
                recycle_if_last(backend, payload);
            }
        }
        landed
    }
}

// ---------------------------------------------------------------------------
// Write-behind spill writer
// ---------------------------------------------------------------------------

/// Spill ops a shard collects before shipping them to the writer in one
/// hand-off: the writer wakes once per batch, not once per op.
const BATCH_OPS: usize = 32;

/// Messages the writer's queue holds, shipped batches and flush syncs
/// alike; a shard shipping into a full queue waits for room.  With the
/// batch being written and each shard's open batch, the writer is behind
/// by at most `(QUEUE_BATCHES + 1 + shards) × BATCH_OPS` ops: the payloads
/// of that many writes are what a cache holds beyond its resident set
/// (18 MiB of 32 KiB items for one shard), and what a crash loses beyond
/// each store's open group.
const QUEUE_BATCHES: usize = 16;

/// One operation on one level's [`SpillStore`], applied by the writer in
/// the order the shard issued it.
enum SpillOp {
    /// Store the payload under the key: a landing or a demotion.
    Write(u64, Arc<Vec<u8>>),
    /// Drop the key: it fell off the chain.
    Remove(u64),
    /// Commit the store's open group ([`CacheTier::flush`]).
    Commit,
    /// Drop every stored key in the window, then commit (a departing
    /// tenant's keys).
    RemoveRange(Range<u64>),
}

/// `(level, op)` pairs of one shard, in issue order.
type Ops = Vec<(usize, SpillOp)>;

enum Message {
    Batch {
        shard: usize,
        ops: Ops,
    },
    /// Answer with the first store failure, in shard order, once every
    /// message before this one is applied.
    Sync(Sender<Result<(), CoordlError>>),
}

/// A shard's side of the spill writer: the ops its fetches issued since it
/// last shipped, in issue order.
struct SpillLane {
    shard: usize,
    /// Which levels mirror into a spill store.
    persistent: Vec<bool>,
    pending: Ops,
    queue: Sender<Message>,
    /// Emptied op vectors the writer hands back.
    spares: Receiver<Ops>,
}

impl SpillLane {
    fn push(&mut self, level: usize, op: SpillOp) {
        self.pending.push((level, op));
        if self.pending.len() >= BATCH_OPS {
            self.ship();
        }
    }

    /// Push `op()` for every persistent level.
    fn push_each(&mut self, op: impl Fn() -> SpillOp) {
        for level in 0..self.persistent.len() {
            if self.persistent[level] {
                self.push(level, op());
            }
        }
    }

    /// Queue the open batch, waiting while the queue is full, and take an
    /// emptied vector for the next one.  A dead writer's batch is freed.
    fn ship(&mut self) {
        if !self.pending.is_empty() {
            let ops = std::mem::take(&mut self.pending);
            let _ = self.queue.send(Message::Batch {
                shard: self.shard,
                ops,
            });
            self.pending = self.spares.try_recv().unwrap_or_default();
        }
    }
}

/// The thread that owns every shard's spill stores and applies the ops
/// the shards ship to it.
struct SpillWriter {
    /// The cache's own sender, for syncs.
    queue: Sender<Message>,
    /// Why the writer died, set before it drops its end of the queue.
    panicked: Arc<OnceLock<String>>,
    thread: JoinHandle<()>,
}

impl SpillWriter {
    /// Start the writer over `stores` (indexed by shard, then level) and
    /// return it with one lane per shard.  A thread that cannot be started
    /// is a [`CoordlError::InvalidConfig`].
    ///
    /// Every op vector is made here: each lane's, and one for each message
    /// the queue holds plus the batch being written, so a shipping shard
    /// always finds a spare however far the writer falls behind.  The
    /// writer can hand a batch back before the shard that shipped it takes
    /// its spare, so the hand-back channel has room for all of them.
    fn spawn(
        mut stores: Vec<Vec<Option<SpillStore>>>,
        persistent: &[bool],
        recycler: Option<Arc<dyn FetchBackend>>,
    ) -> Result<(Self, Vec<SpillLane>), CoordlError> {
        let shards = stores.len();
        let (queue, messages) = channel::bounded(QUEUE_BATCHES);
        let (hand_back, spares) = channel::bounded(QUEUE_BATCHES + 1 + shards);
        for _ in 0..=QUEUE_BATCHES {
            let _ = hand_back.try_send(Vec::with_capacity(BATCH_OPS));
        }
        let lanes = (0..shards)
            .map(|shard| SpillLane {
                shard,
                persistent: persistent.to_vec(),
                pending: Vec::with_capacity(BATCH_OPS),
                queue: queue.clone(),
                spares: spares.clone(),
            })
            .collect();
        let panicked = Arc::new(OnceLock::new());
        let died = Arc::clone(&panicked);
        let thread = std::thread::Builder::new()
            .name("coordl-spill".into())
            .spawn(move || {
                let wrote = panic::catch_unwind(AssertUnwindSafe(|| {
                    write_behind(&messages, &hand_back, &mut stores, recycler.as_deref());
                }));
                if let Err(payload) = wrote {
                    let _ = died.set(panic_detail(payload));
                }
                // The queue's only receiver: dropping it frees what a dead
                // writer will never write, closes every waiting sync's
                // reply channel and fails every shard's send.
                drop(messages);
                // Each store commits its open group as it drops.
                drop(stores);
            })
            .map_err(|e| {
                CoordlError::InvalidConfig(format!("cannot start the spill writer: {e}"))
            })?;
        let writer = SpillWriter {
            queue,
            panicked,
            thread,
        };
        Ok((writer, lanes))
    }

    /// Wait until the writer has applied everything queued so far, and
    /// return the first store failure.  A writer that died — before or
    /// while this waits — has dropped the reply channel, which ends the wait.
    fn sync(&self) -> Result<(), CoordlError> {
        let (reply, answer) = channel::bounded(1);
        let _ = self.queue.send(Message::Sync(reply));
        answer.recv().unwrap_or_else(|_| {
            Err(CoordlError::WorkerPanicked {
                stage: "spill",
                detail: self.panicked.get().cloned().unwrap_or_default(),
            })
        })
    }
}

/// The writer's loop: apply each shipped batch to its shard's stores in
/// order and hand its vector back, and answer each sync with the first
/// failure in shard order, until every sender is gone.
fn write_behind(
    messages: &Receiver<Message>,
    hand_back: &Sender<Ops>,
    stores: &mut [Vec<Option<SpillStore>>],
    recycler: Option<&dyn FetchBackend>,
) {
    let mut errors: Vec<Option<CoordlError>> = vec![None; stores.len()];
    while let Ok(message) = messages.recv() {
        match message {
            Message::Batch { shard, mut ops } => {
                for (level, op) in ops.drain(..) {
                    apply(&mut stores[shard][level], &mut errors[shard], op, recycler);
                }
                let _ = hand_back.try_send(ops);
            }
            Message::Sync(reply) => {
                let first = errors.iter().flatten().next().cloned();
                // `send` fails only when the asker is gone: nobody to tell.
                let _ = reply.send(first.map_or(Ok(()), Err));
            }
        }
    }
}

/// Apply `op` to a level's store, if it still mirrors, then let go of the
/// payload it carried (to `recycler` when this was the last reference).  On
/// the first error the level stops mirroring — dropping the store commits
/// what it still can; the in-memory tier serves on, and the level's later
/// ops only hand their payloads back — and the error is kept for
/// [`CacheTier::flush`].
fn apply(
    store: &mut Option<SpillStore>,
    error: &mut Option<CoordlError>,
    op: SpillOp,
    recycler: Option<&dyn FetchBackend>,
) {
    if let Some(spill) = store {
        let outcome = match &op {
            SpillOp::Write(key, payload) => spill.write(*key, payload),
            SpillOp::Remove(key) => spill.remove(*key),
            SpillOp::Commit => spill.flush(),
            SpillOp::RemoveRange(window) => {
                let doomed: Vec<u64> = spill
                    .entries()
                    .map(|(key, _)| key)
                    .filter(|key| window.contains(key))
                    .collect();
                doomed
                    .into_iter()
                    .try_for_each(|key| spill.remove(key))
                    .and_then(|()| spill.flush())
            }
        };
        if let Err(e) = outcome {
            error.get_or_insert(CoordlError::SpillIo {
                dir: spill.dir().to_string(),
                detail: e.to_string(),
            });
            *store = None;
        }
    }
    if let (SpillOp::Write(_, payload), Some(backend)) = (op, recycler) {
        recycle_if_last(backend, payload);
    }
}

/// A floor-aware lookup hit (see [`TieredByteCache::lookup_with_floor`]).
pub(crate) struct FloorHit {
    pub(crate) bytes: Arc<Vec<u8>>,
    /// The level that served the fetch.
    pub(crate) level: usize,
    /// The level a promotion copy landed in, if the hit made one.
    pub(crate) landed: Option<usize>,
    /// Modelled device seconds charged for the hit (0 at unprofiled levels).
    pub(crate) device_seconds: f64,
}

/// What a floor-aware admission did (see
/// [`TieredByteCache::admit_with_floor`]).
pub(crate) enum Admission {
    /// Already resident (a concurrent admit won); the chain was not consulted.
    Raced,
    /// Every level was consulted; none at or below the floor accepted.
    Bypassed,
    /// The item was admitted into this level.
    Landed(usize),
}

/// A byte-holding cache-tier *hierarchy*: a `dcache::TierChain` decides
/// residency, demotion and per-level statistics while this wrapper stores
/// the actual payloads (let go of the moment a key falls off the chain).
///
/// A single-level, single-shard `TieredByteCache` makes exactly the raw
/// `dcache` policy's decisions under the sequential per-shard fetch order
/// every [`Session`](crate::Session) executor guarantees (pinned against
/// `dcache::PolicyCache` for all four policies) — which is why it is the one
/// byte cache sessions, partitioned nodes and the multi-tenant server share.
///
/// **Sharding.**  A cache built with `num_shards > 1` splits every level
/// into `num_shards` independent chains (capacity divided by
/// [`dcache::shard_capacity`]) and routes each key to its shard by
/// [`dcache::shard_of_key`] — the same routing the executor's fetch pool
/// partitions plan items by.  Because owners are aligned, every shard sees
/// its keys in plan order no matter how many fetch threads run, so a
/// sharded cache's hits/misses/evictions are a pure function of the plan
/// and the shard count.  One shard is the exact legacy cache (same chain,
/// same spill directory layout); persistent levels of an `S > 1` cache
/// spill into `{dir}/shard-{k}` subdirectories, so the shard count must be
/// kept stable across restarts for warm-up to find its files.
///
/// **Write-behind.**  Persistent levels are mirrored off the fetch path.
/// A fetch only appends its spill ops — a write per landing or demotion
/// into a persistent level, a remove per key that fell off the chain — to
/// its shard's open batch, under the shard lock it already holds, and ships
/// the batch in one hand-off every 32 ops.  One writer thread per cache
/// owns every shard's [`SpillStore`]s and applies each store's ops in
/// exactly the order they were issued (a store belongs to one shard, whose
/// batches queue in order).  The queue is a bounded channel holding 16
/// messages, batches and flush syncs; a shard shipping into a full one
/// waits, and a second channel hands emptied batches back.  So the writer
/// is behind by at most `(16 + 1 + shards) × 32` ops, and the payloads of
/// that many writes are what the cache holds beyond its resident set.
/// [`CacheTier::flush`] ships every open batch and waits for the writer's
/// commit, and a drop ships, drops every sender so the writer drains the
/// queue, and joins it: the epoch-end commit point, restart warm-up and
/// every VFS operation are those of applying the ops in place.  A store's
/// first error ends its mirroring (its later ops are discarded) and is
/// reported by every `flush` after it.  A writer that panics records why
/// and drops its end of the queue, which frees what it will never write
/// and fails every send: a shard shipping goes on, and `flush` returns
/// [`CoordlError::WorkerPanicked`].  Purely in-memory hierarchies start no
/// writer.
///
/// **Payloads that come back.**  The tier a [`Session`](crate::Session)
/// builds for itself hands every payload it lets go of — a key that falls
/// off the bottom of the chain, the offered copy a raced admission discards
/// — to the session's backend ([`FetchBackend::recycle`]) when it held the
/// last reference, so the next miss reads into it.  A payload prep or the
/// spill writer still holds comes back from whichever lets go of it last,
/// exactly once, and by the time `flush` returns.  The hand-back of dropped
/// keys runs under the shard lock.  The lock order is tier shard → writer
/// queue → backend free list: a shard ships under its lock, the writer
/// takes no shard lock and hands back payloads holding no lock, and
/// `recycle` never calls into a tier.  A cache built through the public
/// constructors frees what it drops.
pub struct TieredByteCache {
    shards: Vec<Mutex<TieredInner>>,
    /// The *aggregate* level descriptions (full capacities, original spill
    /// directories) the cache was built from.
    specs: Vec<ByteTierSpec>,
    name: &'static str,
    /// Where payloads the cache lets go of go back to (see the type docs).
    recycler: Option<Arc<dyn FetchBackend>>,
    /// The write-behind writer of the persistent levels (`None` when every
    /// level is in memory).
    writer: Option<SpillWriter>,
}

impl TieredByteCache {
    /// Build a hierarchy from `specs`, ordered fastest (level 0) first.
    ///
    /// # Panics
    /// Panics when `specs` is empty or a persistent level's VFS fails.
    pub fn new(specs: Vec<ByteTierSpec>) -> Self {
        Self::try_new_sharded(specs, 1).expect("tier construction failed")
    }

    /// Like [`TieredByteCache::new`], surfacing persistent-level VFS
    /// failures as [`CoordlError::InvalidConfig`] instead of panicking.
    ///
    /// Levels with [`TierBacking::Vfs`] open their [`SpillStore`] here and
    /// replay the on-disk manifest: every recorded key is re-offered to the
    /// chain at that level (admission floor pins it below faster tiers) with
    /// its payload read back from disk — an entry that no longer fits (the
    /// level shrank across the restart), whether refused or evicted by a
    /// later entry's replay, is retired from disk instead — then all
    /// statistics are reset: a restarted cache starts warm but with clean
    /// counters.
    pub fn try_new(specs: Vec<ByteTierSpec>) -> Result<Self, CoordlError> {
        Self::try_new_sharded(specs, 1)
    }

    /// Like [`TieredByteCache::try_new`] with the hierarchy split into
    /// `num_shards` independent key-routed shards (see the type docs): an
    /// empty `specs` list, a zero `num_shards` or a failing persistent level
    /// is a [`CoordlError::InvalidConfig`].
    pub fn try_new_sharded(
        specs: Vec<ByteTierSpec>,
        num_shards: usize,
    ) -> Result<Self, CoordlError> {
        Self::build(specs, num_shards, None)
    }

    /// [`TieredByteCache::try_new_sharded`], handing every payload the
    /// cache lets go of, when it held the last reference, to `recycler`
    /// (see the type docs).
    pub(crate) fn build(
        specs: Vec<ByteTierSpec>,
        num_shards: usize,
        recycler: Option<Arc<dyn FetchBackend>>,
    ) -> Result<Self, CoordlError> {
        if specs.is_empty() {
            return Err(CoordlError::InvalidConfig(
                "a cache hierarchy needs at least one tier".into(),
            ));
        }
        if num_shards == 0 {
            return Err(CoordlError::InvalidConfig(
                "a cache hierarchy needs at least one shard".into(),
            ));
        }
        let mut shards = Vec::with_capacity(num_shards);
        let mut stores = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            // Per-shard level specs: split capacity, spill directories per
            // shard (but the legacy layout untouched for the 1-shard cache).
            let shard_specs: Vec<ByteTierSpec> = specs
                .iter()
                .map(|spec| {
                    let mut s = spec.clone();
                    s.capacity_bytes = dcache::shard_capacity(s.capacity_bytes, shard, num_shards);
                    if num_shards > 1 {
                        s = s.in_subdir(&format!("shard-{shard}"));
                    }
                    s
                })
                .collect();
            let (inner, spills) = Self::build_shard(&shard_specs)?;
            shards.push(inner);
            stores.push(spills);
        }
        let persistent: Vec<bool> = specs
            .iter()
            .map(|spec| matches!(spec.backing, TierBacking::Vfs { .. }))
            .collect();
        let mut writer = None;
        if persistent.contains(&true) {
            let (spawned, lanes) = SpillWriter::spawn(stores, &persistent, recycler.clone())?;
            for (inner, lane) in shards.iter_mut().zip(lanes) {
                inner.spill = Some(lane);
            }
            writer = Some(spawned);
        }
        // Single-level hierarchies report the plain policy name so existing
        // reports are unchanged; deeper chains get a composite label,
        // interned so sweeps constructing many identical hierarchies share
        // one allocation.
        let name = if specs.len() == 1 {
            specs[0].policy.name()
        } else {
            let label = specs
                .iter()
                .map(|s| format!("{}:{}", s.name, s.policy.name()))
                .collect::<Vec<_>>()
                .join("+");
            intern_label(label)
        };
        Ok(TieredByteCache {
            shards: shards.into_iter().map(Mutex::new).collect(),
            specs,
            name,
            recycler,
            writer,
        })
    }

    /// Build one shard's chain + payload map, and its per-level spill stores
    /// (`Some` at persistent levels), from its (already capacity-split)
    /// level specs, warm-replaying persistent levels.
    fn build_shard(
        specs: &[ByteTierSpec],
    ) -> Result<(TieredInner, Vec<Option<SpillStore>>), CoordlError> {
        let mut chain = TierChain::new(specs.iter().map(ByteTierSpec::tier_spec).collect());
        let mut bytes = KeyMap::default();
        let mut spills = Vec::with_capacity(specs.len());
        for (level, spec) in specs.iter().enumerate() {
            match &spec.backing {
                TierBacking::Memory => spills.push(None),
                TierBacking::Vfs { vfs, dir } => {
                    let mut spill = SpillStore::open(Arc::clone(vfs), dir).map_err(|e| {
                        CoordlError::InvalidConfig(format!(
                            "persistent tier {:?} failed to open {dir}: {e}",
                            spec.name
                        ))
                    })?;
                    // Warm-up: repopulate this level from the manifest, in
                    // key order (deterministic).  The floor keeps replayed
                    // keys out of the faster levels above.
                    let mut misfits = Vec::new();
                    for (key, len) in spill.entries().collect::<Vec<_>>() {
                        let access = chain.access_with_floor(key, len, level);
                        if access.admitted {
                            let payload = spill.read(key).map_err(|e| {
                                CoordlError::InvalidConfig(format!(
                                    "persistent tier {:?} failed replaying item {key}: {e}",
                                    spec.name
                                ))
                            })?;
                            bytes.insert(key, Arc::new(payload));
                        } else {
                            misfits.push(key);
                        }
                        // A shrunk evicting level evicts earlier replayed
                        // keys to make room.  They are misfits too: one
                        // demoted below has no file there, so it leaves the
                        // chain as well.
                        let victims = access.demoted.iter().map(|&(key, _)| key);
                        for victim in access.dropped.into_iter().chain(victims) {
                            chain.remove(victim);
                            bytes.remove(&victim);
                            misfits.push(victim);
                        }
                    }
                    // The level shrank across the restart: what no longer
                    // fits is retired from disk, committed before serving.
                    misfits
                        .into_iter()
                        .try_for_each(|key| spill.remove(key))
                        .and_then(|()| spill.flush())
                        .map_err(|e| CoordlError::SpillIo {
                            dir: dir.clone(),
                            detail: e.to_string(),
                        })?;
                    spills.push(Some(spill));
                }
            }
        }
        // Warm contents, cold statistics.
        chain.reset_stats();
        let levels = specs.len();
        let inner = TieredInner {
            chain,
            bytes,
            hits: 0,
            misses: 0,
            level_seconds: vec![0.0; levels],
            spill: None,
        };
        Ok((inner, spills))
    }

    /// A single DRAM level under `policy` — the default session tier.
    pub fn single(policy: PolicyKind, capacity_bytes: u64) -> Self {
        Self::try_new_sharded(vec![ByteTierSpec::dram(policy, capacity_bytes)], 1)
            .expect("a DRAM level always builds")
    }

    /// The aggregate level descriptions this hierarchy was built from.
    pub fn specs(&self) -> &[ByteTierSpec] {
        &self.specs
    }

    /// How many key-routed shards the cache is split into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The keys resident at `level`, in key order across shards (a key
    /// promoted from a lower level is resident at both).
    pub fn resident_keys(&self, level: usize) -> Vec<ItemId> {
        let mut keys: Vec<ItemId> = Vec::new();
        for shard in &self.shards {
            let inner = shard.lock();
            let at_level = inner.bytes.keys().copied();
            keys.extend(at_level.filter(|&key| inner.chain.tier_contains(level, key)));
        }
        keys.sort_unstable();
        keys
    }

    /// The shard owning `item` under [`dcache::shard_of_key`] routing.
    fn shard_for(&self, item: ItemId) -> &Mutex<TieredInner> {
        &self.shards[dcache::shard_of_key(item, self.shards.len())]
    }

    /// The lookup transaction: on a hit, touch recency, promote towards the
    /// fastest level at or below the admission floor — `floor_for` maps the
    /// found payload's size to it, 0 meaning anywhere — and demote what
    /// that displaces.  Counts one hit or one miss per call.
    pub(crate) fn lookup_with_floor(
        &self,
        key: u64,
        floor_for: impl FnOnce(u64) -> usize,
    ) -> Option<FloorHit> {
        let mut inner = self.shard_for(key).lock();
        let Some(bytes) = inner.bytes.get(&key).map(Arc::clone) else {
            inner.misses += 1;
            return None;
        };
        inner.hits += 1;
        let size = bytes.len() as u64;
        let access = inner.chain.access_with_floor(key, size, floor_for(size));
        let level = match access.source {
            ChainSource::Tier(k) => k,
            ChainSource::Store => unreachable!("payload implies residency"),
        };
        // Only profiled levels account modelled device time; DRAM hits (the
        // hot path) skip the cost math entirely.
        let mut device_seconds = 0.0;
        if self.specs[level].profile.is_some() {
            device_seconds = inner.chain.tier_cost(level).access_seconds(size);
            inner.level_seconds[level] += device_seconds;
        }
        let landed = inner.settle(key, access, self.recycler.as_deref());
        Some(FloorHit {
            bytes,
            level,
            landed,
            device_seconds,
        })
    }

    /// The admit transaction: offer `bytes` for `key` after a miss to the
    /// levels at or below `floor` (levels above still record their miss).
    /// The caller always gets a usable reference back.
    pub(crate) fn admit_with_floor(
        &self,
        key: u64,
        bytes: Arc<Vec<u8>>,
        floor: usize,
    ) -> (Arc<Vec<u8>>, Admission) {
        let mut inner = self.shard_for(key).lock();
        if let Some(existing) = inner.bytes.get(&key).map(Arc::clone) {
            // A concurrent worker admitted it first; keep the resident copy
            // and let go of the offered one.
            drop(inner);
            if let Some(backend) = &self.recycler {
                recycle_if_last(&**backend, bytes);
            }
            return (existing, Admission::Raced);
        }
        let access = inner
            .chain
            .access_with_floor(key, bytes.len() as u64, floor);
        if access.admitted {
            inner.bytes.insert(key, Arc::clone(&bytes));
        }
        let outcome = match inner.settle(key, access, self.recycler.as_deref()) {
            Some(level) => Admission::Landed(level),
            None => Admission::Bypassed,
        };
        (bytes, outcome)
    }

    /// Administratively drop every key in `window` from every level, its
    /// payload and its persisted copies (a departing tenant's key window).
    /// Like `TierChain::remove`, not an eviction: no statistics change.
    pub(crate) fn remove_range(&self, window: Range<u64>) {
        for shard in &self.shards {
            let mut inner = shard.lock();
            inner.chain.remove_range(window.clone());
            inner.bytes.retain(|key, _| !window.contains(key));
            if let Some(lane) = &mut inner.spill {
                lane.push_each(|| SpillOp::RemoveRange(window.clone()));
                lane.ship();
            }
        }
        // Committed before this returns: a departed tenant's keys must not
        // reappear after a crash.  A failure stays for the next `flush`.
        if let Some(writer) = &self.writer {
            let _ = writer.sync();
        }
    }
}

impl CacheTier for TieredByteCache {
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
        self.lookup_traced(item).map(|(bytes, _)| bytes)
    }

    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        self.lookup_with_floor(item, |_| 0)
            .map(|hit| (hit.bytes, hit.level))
    }

    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        self.admit_with_floor(item, bytes, 0).0
    }

    /// Under the shard lock, a miss no level would admit runs its chain
    /// access without a payload.  A refused access lands, demotes and drops
    /// nothing, so there is nothing to settle.
    fn try_bypass(&self, item: ItemId, size: u64) -> bool {
        let mut inner = self.shard_for(item).lock();
        if inner.bytes.contains_key(&item) || inner.chain.would_admit(size, 0) {
            return false;
        }
        let access = inner.chain.access(item, size);
        debug_assert!(!access.admitted, "a predicted bypass admitted {item}");
        true
    }

    fn contains(&self, item: ItemId) -> bool {
        self.shard_for(item).lock().chain.contains(item)
    }

    fn used_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().chain.used_bytes())
            .sum()
    }

    fn capacity_bytes(&self) -> u64 {
        // Per-shard capacities sum back to the aggregate spec capacities.
        self.specs.iter().map(|s| s.capacity_bytes).sum()
    }

    fn resident_items(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().chain.resident_items())
            .sum()
    }

    fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits).sum()
    }

    fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().misses).sum()
    }

    fn policy_name(&self) -> &'static str {
        self.name
    }

    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        // Capacities come from the aggregate specs (per-shard splits sum
        // back to them); everything else is summed across shards in fixed
        // shard order, so snapshots stay deterministic.
        let mut snaps: Vec<TierSnapshot> = self
            .specs
            .iter()
            .map(|spec| TierSnapshot {
                name: spec.name,
                policy: spec.policy.name(),
                capacity_bytes: spec.capacity_bytes,
                used_bytes: 0,
                resident_items: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                demoted_in: 0,
                demoted_out: 0,
                device_seconds: 0.0,
            })
            .collect();
        for shard in &self.shards {
            let inner = shard.lock();
            for (k, agg) in snaps.iter_mut().enumerate() {
                let stats = inner.chain.tier_stats(k);
                let demotions = inner.chain.tier_demotions(k);
                agg.used_bytes += inner.chain.tier_used_bytes(k);
                agg.resident_items += inner.chain.tier_len(k);
                agg.hits += stats.hits;
                agg.misses += stats.misses;
                agg.evictions += stats.evictions;
                agg.demoted_in += demotions.demoted_in;
                agg.demoted_out += demotions.demoted_out;
                // Unprofiled (DRAM) levels never accumulate seconds.
                agg.device_seconds += inner.level_seconds[k];
            }
        }
        snaps
    }

    fn flush(&self) -> Result<(), CoordlError> {
        let Some(writer) = &self.writer else {
            return Ok(());
        };
        for shard in &self.shards {
            if let Some(lane) = &mut shard.lock().spill {
                lane.push_each(|| SpillOp::Commit);
                lane.ship();
            }
        }
        writer.sync()
    }
}

impl Drop for TieredByteCache {
    /// Ship every shard's open batch and drop every sender, so the writer
    /// drains the queue, drops the stores (each commits its open group)
    /// and exits.
    fn drop(&mut self) {
        let Some(SpillWriter { queue, thread, .. }) = self.writer.take() else {
            return;
        };
        for shard in &mut self.shards {
            if let Some(mut lane) = shard.get_mut().spill.take() {
                lane.ship();
            }
        }
        drop(queue);
        // A writer that panicked has already said so to `flush`.
        let _ = thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Recycler;

    fn payload(item: ItemId, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![item as u8; len])
    }

    #[test]
    fn lru_tier_evicts_payloads_with_their_entries() {
        let tier = TieredByteCache::single(PolicyKind::Lru, 2);
        for item in 0..4u64 {
            assert!(tier.lookup(item).is_none());
            tier.admit(item, payload(item, 1));
        }
        // Capacity 2: items 0 and 1 were evicted, payloads dropped with them.
        assert!(!tier.contains(0) && !tier.contains(1));
        assert!(tier.contains(2) && tier.contains(3));
        assert_eq!(tier.resident_items(), 2);
        assert_eq!(tier.used_bytes(), 2);
        assert!(tier.lookup(0).is_none());
        assert_eq!(tier.lookup(3).unwrap().as_slice(), &[3]);
    }

    #[test]
    fn lru_tier_promotes_on_lookup() {
        let tier = TieredByteCache::single(PolicyKind::Lru, 2);
        tier.admit(1, payload(1, 1));
        tier.admit(2, payload(2, 1));
        let _ = tier.lookup(1); // touch 1: 2 becomes the victim
        tier.admit(3, payload(3, 1));
        assert!(tier.contains(1) && !tier.contains(2) && tier.contains(3));
    }

    #[test]
    fn minio_policy_tier_matches_minio_byte_cache_semantics() {
        // §4.1: admit in arrival order until full, then bypass; never evict.
        let tier = TieredByteCache::single(PolicyKind::MinIo, 2);
        for _epoch in 0..2 {
            for item in 0..5u64 {
                if tier.lookup(item).is_none() {
                    let kept = tier.admit(item, payload(item, 1));
                    assert_eq!(kept.as_slice(), &[item as u8], "caller keeps its bytes");
                }
            }
        }
        assert_eq!(tier.resident_items(), 2);
        assert_eq!(tier.used_bytes(), 2);
        for item in 0..5u64 {
            assert_eq!(tier.contains(item), item < 2, "first arrivals stay");
        }
        assert_eq!((tier.hits(), tier.misses()), (2, 3 + 5));
        assert_eq!(tier.tier_snapshots()[0].evictions, 0);
    }

    #[test]
    fn try_bypass_records_exactly_what_a_refused_admit_records() {
        // Two MinIO-over-MinIO hierarchies see the same misses: one offers
        // every payload, the other first asks to bypass without it.  Every
        // level's snapshot agrees after each miss, and the bypass is taken
        // exactly when the payload would have been refused.
        let specs = || {
            vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 6),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 4),
            ]
        };
        let (offered, asked) = (TieredByteCache::new(specs()), TieredByteCache::new(specs()));
        for item in 0..16u64 {
            let size = 1 + item % 3;
            assert!(offered.lookup(item).is_none() && asked.lookup(item).is_none());
            offered.admit(item, payload(item, size as usize));
            let bypassed = asked.try_bypass(item, size);
            if !bypassed {
                asked.admit(item, payload(item, size as usize));
            }
            assert_eq!(bypassed, !offered.contains(item), "item {item}");
            assert_eq!(
                asked.tier_snapshots(),
                offered.tier_snapshots(),
                "item {item}"
            );
        }
        assert!(!asked.try_bypass(0, 1), "a resident item is never bypassed");
        // LRU evicts to make room: it never bypasses an item that fits.
        let lru = TieredByteCache::single(PolicyKind::Lru, 4);
        assert!((0..8).all(|item| !lru.try_bypass(item, 2)));
        assert_eq!(
            lru.tier_snapshots()[0].misses,
            0,
            "a refusal changes nothing"
        );
    }

    #[test]
    fn racing_admits_still_count_one_miss_per_fetch() {
        // Two workers can both lookup-miss the same item before either
        // admits it; the loser's admit is a no-op, but both fetches must be
        // accounted (one miss each), matching the bytes they actually read
        // from the backend.
        let tier = TieredByteCache::single(PolicyKind::Lru, 1 << 20);
        assert!(tier.lookup(7).is_none());
        assert!(tier.lookup(7).is_none()); // second worker, same race window
        tier.admit(7, payload(7, 4));
        let loser = tier.admit(7, Arc::new(vec![9; 4])); // keeps resident copy
        assert_eq!(loser.as_slice(), &[7; 4], "first copy wins");
        assert_eq!(tier.misses(), 2, "both fetches were misses");
        assert_eq!(tier.hits(), 0);
        assert_eq!(tier.resident_items(), 1);
        assert_eq!(tier.used_bytes(), 4);
        assert_eq!(tier.lookup(7).unwrap().as_slice(), &[7; 4]);
        assert_eq!(tier.hits(), 1);
    }

    /// Drive a full fetch (lookup, then admit on a miss) like a session's.
    fn fetch_through(tier: &dyn CacheTier, item: ItemId, len: usize) -> usize {
        match tier.lookup_traced(item) {
            Some((_, level)) => level,
            None => {
                tier.admit(item, payload(item, len));
                usize::MAX
            }
        }
    }

    #[test]
    fn single_level_tiered_cache_matches_policy_byte_cache_exactly() {
        // The simulator-policy ≡ runtime-tier statement the `validate` figure
        // row relies on: a single-level tier makes the raw `dcache` policy's
        // decisions — same hit/miss per access, same totals, residency and
        // used bytes — for every policy.
        for kind in [
            PolicyKind::MinIo,
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
        ] {
            let tiered = TieredByteCache::single(kind, 6);
            let mut raw = dcache::PolicyCache::new(kind, 6);
            let trace: Vec<u64> = vec![1, 2, 3, 4, 1, 2, 5, 6, 7, 1, 3, 5, 7, 2];
            for &item in &trace {
                let hit = fetch_through(&tiered, item, 2) == 0;
                let raw_hit = raw.access(item, 2) == dcache::AccessOutcome::Hit;
                assert_eq!(hit, raw_hit, "{kind:?} {item}");
            }
            assert_eq!(tiered.hits(), raw.stats().hits, "{kind:?}");
            assert_eq!(tiered.misses(), raw.stats().misses, "{kind:?}");
            assert_eq!(tiered.used_bytes(), raw.used_bytes(), "{kind:?}");
            assert_eq!(tiered.resident_items(), raw.len(), "{kind:?}");
            assert_eq!(tiered.policy_name(), raw.name(), "{kind:?}");
            for item in 0..8u64 {
                assert_eq!(
                    tiered.contains(item),
                    raw.contains(&item),
                    "{kind:?} {item}"
                );
                assert_eq!(
                    tiered.lookup(item).is_some(),
                    raw.contains(&item),
                    "{kind:?} {item}: a payload for exactly the resident keys"
                );
            }
        }
    }

    #[test]
    fn floor_one_admission_lands_below_dram_and_records_the_dram_miss() {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, 8),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 8),
        ]);
        let (kept, outcome) = tier.admit_with_floor(1, payload(1, 2), 1);
        assert_eq!(kept.as_slice(), &[1, 1]);
        assert!(matches!(outcome, Admission::Landed(1)), "DRAM had room");
        let snaps = tier.tier_snapshots();
        assert_eq!((snaps[0].used_bytes, snaps[1].used_bytes), (0, 2));
        assert_eq!((snaps[0].misses, snaps[1].misses), (1, 1));
        // A floor-1 hit is served by the SSD and stays there; floor 0 (the
        // public lookup) promotes a copy into DRAM.
        let hit = tier.lookup_with_floor(1, |_| 1).unwrap();
        assert_eq!((hit.level, hit.landed), (1, None));
        assert!(hit.device_seconds > 0.0);
        let hit = tier
            .lookup_with_floor(1, |size| usize::from(size > 2))
            .unwrap();
        assert_eq!((hit.level, hit.landed), (1, Some(0)));
        assert_eq!(tier.lookup_traced(1).unwrap().1, 0);
        // Raced and bypassed admissions are told apart.
        let (kept, outcome) = tier.admit_with_floor(1, Arc::new(vec![9; 2]), 0);
        assert_eq!(kept.as_slice(), &[1, 1], "resident copy wins");
        assert!(matches!(outcome, Admission::Raced));
        let (_, outcome) = tier.admit_with_floor(2, payload(2, 2), 2); // below the chain
        assert!(matches!(outcome, Admission::Bypassed) && !tier.contains(2));
    }

    /// The keys a persistent level has on disk under `dir`.
    fn spilled(vfs: &Arc<dyn Vfs>, dir: &str) -> Vec<u64> {
        let spill = SpillStore::open(Arc::clone(vfs), dir).unwrap();
        spill.entries().map(|(key, _)| key).collect()
    }

    #[test]
    fn remove_range_frees_exactly_the_window() {
        let vfs: Arc<dyn Vfs> = Arc::new(vfs::MemVfs::new());
        let tier = TieredByteCache::try_new_sharded(
            vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 8),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 64).persistent(Arc::clone(&vfs), "rr"),
            ],
            2,
        )
        .unwrap();
        // Keys 100..110 are the window; 0..10 belong to someone else.
        for item in (0..10u64).chain(100..110) {
            fetch_through(&tier, item, 2);
        }
        assert_eq!(tier.used_bytes(), 40);
        let others: u64 = 2 * (0..10u64).filter(|&k| tier.contains(k)).count() as u64;
        let counters = (tier.hits(), tier.misses());
        tier.remove_range(100..110);
        assert_eq!(tier.used_bytes(), others, "only the window was freed");
        assert_eq!(tier.resident_items(), 10);
        assert_eq!((tier.hits(), tier.misses()), counters, "not a fetch");
        for item in 0..10u64 {
            assert_eq!(tier.lookup(item).unwrap().as_slice(), &[item as u8; 2]);
        }
        assert!((100..110).all(|k| !tier.contains(k) && tier.lookup(k).is_none()));
        let on_disk = [spilled(&vfs, "rr/shard-0"), spilled(&vfs, "rr/shard-1")].concat();
        assert!(!on_disk.is_empty() && on_disk.iter().all(|k| *k < 10));
        // The freed capacity is reusable.
        assert_eq!(fetch_through(&tier, 100, 2), usize::MAX);
        assert!(tier.contains(100));
    }

    #[test]
    fn shrunk_persistent_level_retires_misfit_spill_entries_on_rebuild() {
        let vfs: Arc<dyn Vfs> = Arc::new(vfs::MemVfs::new());
        let build = |ssd: u64| {
            TieredByteCache::try_new(vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 0),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, ssd)
                    .persistent(Arc::clone(&vfs), "shrink"),
            ])
            .unwrap()
        };
        let spilled = || spilled(&vfs, "shrink");
        let full = build(32);
        for item in 0..16u64 {
            fetch_through(&full, item, 2);
        }
        full.flush().unwrap();
        assert_eq!(spilled().len(), 16, "level filled");
        drop(full);
        // Half the capacity: the misfits are retired from disk, not kept.
        let half = build(16);
        assert!(half.used_bytes() <= 16);
        assert_eq!(half.resident_items(), 8);
        let on_disk = spilled();
        assert_eq!(on_disk.len(), 8, "dead files and manifest lines retired");
        assert!(on_disk.iter().all(|&k| half.contains(k)));
        drop(half);
        // A third rebuild replays no misfits.
        let again = build(16);
        assert_eq!(again.resident_items(), 8);
        assert_eq!(spilled(), on_disk);
    }

    #[test]
    fn minio_dram_spills_payloads_into_the_ssd_level() {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, 3),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 4),
        ]);
        for item in 0..10u64 {
            assert_eq!(fetch_through(&tier, item, 1), usize::MAX, "cold chain");
        }
        let snaps = tier.tier_snapshots();
        assert_eq!(snaps[0].resident_items, 3, "DRAM filled first");
        assert_eq!(snaps[1].resident_items, 4, "SSD extends the reach");
        assert_eq!(tier.resident_items(), 7);
        // Second epoch: levels serve what they hold, payload bytes intact.
        for item in 0..10u64 {
            let level = fetch_through(&tier, item, 1);
            match item {
                0..=2 => assert_eq!(level, 0, "item {item}"),
                3..=6 => assert_eq!(level, 1, "item {item}"),
                _ => assert_eq!(level, usize::MAX, "item {item}"),
            }
        }
        let snaps = tier.tier_snapshots();
        assert_eq!(snaps[0].hits, 3);
        assert_eq!(snaps[1].hits, 4);
        assert!(snaps[1].device_seconds > 0.0, "SSD hits cost device time");
        assert_eq!(snaps[0].device_seconds, 0.0, "DRAM is unprofiled");
        assert_eq!(tier.lookup(5).unwrap().as_slice(), &[5], "payload intact");
    }

    #[test]
    fn lru_dram_demotes_payloads_to_the_ssd_victim_tier() {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::Lru, 2),
            ByteTierSpec::sata_ssd(PolicyKind::Lru, 2),
        ]);
        for item in 0..4u64 {
            fetch_through(&tier, item, 1);
        }
        // DRAM holds {2,3}; victims 0,1 were demoted with their payloads.
        assert_eq!(tier.lookup_traced(0).unwrap().1, 1, "served from ssd");
        assert_eq!(tier.lookup_traced(0).unwrap().1, 0, "promoted to dram");
        let snaps = tier.tier_snapshots();
        assert_eq!(
            snaps[1].demoted_in,
            2 + 1,
            "0, 1, then 0's promotion victim"
        );
        // Promoting 0 displaced 2 into the SSD, whose LRU victim was the
        // stale key 1 — its payload fell off the chain and is gone.
        assert!(!tier.contains(1));
        assert_eq!(tier.resident_items(), 3);
        assert_eq!(tier.lookup(1), None);
        assert_eq!(tier.lookup(2).unwrap().as_slice(), &[2]);
    }

    #[test]
    fn sharded_cache_counters_are_shard_order_independent() {
        // The determinism contract behind the fetch pool: a shard only sees
        // its own keys, so interleaving *between* shards is irrelevant —
        // feeding the whole trace in plan order and feeding each shard's
        // subsequence separately produce identical counters and residency.
        let shards = 4;
        let trace: Vec<u64> = (0..40u64).chain(0..40).collect();
        let build = || {
            TieredByteCache::try_new_sharded(
                vec![ByteTierSpec::dram(PolicyKind::Lru, 20 * 2)],
                shards,
            )
            .unwrap()
        };
        let in_plan_order = build();
        for &item in &trace {
            fetch_through(&in_plan_order, item, 2);
        }
        let per_shard = build();
        for shard in 0..shards {
            for &item in &trace {
                if dcache::shard_of_key(item, shards) == shard {
                    fetch_through(&per_shard, item, 2);
                }
            }
        }
        assert_eq!(in_plan_order.hits(), per_shard.hits());
        assert_eq!(in_plan_order.misses(), per_shard.misses());
        assert_eq!(
            CacheTier::used_bytes(&in_plan_order),
            CacheTier::used_bytes(&per_shard)
        );
        assert_eq!(in_plan_order.resident_items(), per_shard.resident_items());
        for item in 0..40u64 {
            assert_eq!(in_plan_order.contains(item), per_shard.contains(item));
        }
    }

    #[test]
    fn shard_capacities_sum_to_the_aggregate_spec() {
        // 10 bytes across 4 shards: 3+3+2+2, never silently rounded away.
        let tier =
            TieredByteCache::try_new_sharded(vec![ByteTierSpec::dram(PolicyKind::MinIo, 10)], 4)
                .unwrap();
        assert_eq!(tier.num_shards(), 4);
        assert_eq!(CacheTier::capacity_bytes(&tier), 10);
        let snaps = tier.tier_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].capacity_bytes, 10, "aggregate, not per-shard");
    }

    #[test]
    fn fallible_constructor_rejects_zero_shards_and_empty_specs_without_panicking() {
        let dram = || vec![ByteTierSpec::dram(PolicyKind::MinIo, 1 << 10)];
        for (specs, shards) in [(dram(), 0), (Vec::new(), 1)] {
            let Err(err) = TieredByteCache::try_new_sharded(specs, shards) else {
                panic!("{shards} shard(s) must be rejected");
            };
            assert!(matches!(err, CoordlError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn sharded_persistent_level_spills_into_per_shard_dirs_and_rewarm() {
        use vfs::MemVfs;
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let specs = || {
            vec![
                ByteTierSpec::dram(PolicyKind::Lru, 4),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 64).persistent(Arc::clone(&vfs), "spill"),
            ]
        };
        let shards = 2;
        {
            let tier = TieredByteCache::try_new_sharded(specs(), shards).unwrap();
            for item in 0..12u64 {
                fetch_through(&tier, item, 2);
            }
            assert!(tier.resident_items() > 4, "victims demoted into the SSD");
        }
        // A rebuilt cache over the same VFS and the same shard count warms
        // each shard from its own spill-{k} directory.
        let reborn = TieredByteCache::try_new_sharded(specs(), shards).unwrap();
        assert!(reborn.resident_items() > 0, "warm restart");
        assert_eq!(reborn.hits(), 0, "warm contents, cold statistics");
        for item in 0..12u64 {
            if reborn.contains(item) {
                let (bytes, _) = reborn.lookup_traced(item).expect("resident payload");
                assert_eq!(bytes.as_slice(), &[item as u8; 2], "payload intact");
            }
        }
    }

    /// The first byte of every buffer `backend` got back (a test payload's
    /// item id), sorted.
    fn recycled(backend: &Recycler) -> Vec<u8> {
        let mut got: Vec<u8> = backend.0.lock().iter().map(|buf| buf[0]).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn a_session_tier_hands_back_each_payload_it_lets_go_of_exactly_once() {
        let vfs: Arc<dyn Vfs> = Arc::new(vfs::MemVfs::new());
        let mut outcomes = Vec::new();
        for persistent in [false, true] {
            let mut ssd = ByteTierSpec::sata_ssd(PolicyKind::Lru, 4);
            if persistent {
                ssd = ssd.persistent(Arc::clone(&vfs), "hand-back");
            }
            let backend = Arc::new(Recycler::default());
            let tier = TieredByteCache::build(
                vec![ByteTierSpec::dram(PolicyKind::Lru, 4), ssd],
                1,
                Some(Arc::clone(&backend) as Arc<dyn FetchBackend>),
            )
            .unwrap();
            // Prep still holds item 0's payload when it falls off the chain.
            let held = tier.admit(0, payload(0, 1));
            // 15 items cycled through 8 slots: every fetch misses and, once
            // the chain is full, drops the least recent payload.
            for _epoch in 0..3 {
                for item in 1..16u64 {
                    assert_eq!(fetch_through(&tier, item, 1), usize::MAX);
                }
            }
            assert!(!tier.contains(0));
            // A raced admission lets go of the offered copy.
            let kept = tier.admit(15, payload(200, 1));
            assert_eq!(kept.as_slice(), &[15]);
            let mut expected: Vec<u8> = (1..16u8)
                .flat_map(|item| vec![item; 3 - usize::from(tier.contains(item.into()))])
                .chain([200])
                .collect();
            expected.sort_unstable();
            // A persistent level's writer holds what it has yet to write:
            // each payload is back by the time `flush` returns.
            tier.flush().unwrap();
            assert_eq!(recycled(&backend), expected, "persistent={persistent}");
            // Prep lets go of item 0 last: it comes back from prep.
            recycle_if_last(&*backend, held);
            expected.insert(0, 0);
            tier.flush().unwrap();
            assert_eq!(recycled(&backend), expected, "persistent={persistent}");
            outcomes.push(expected);
        }
        assert_eq!(outcomes[0], outcomes[1], "a persistent level behaves alike");

        // MinIO never drops a resident payload; what it bypasses stays the
        // caller's.
        let backend = Arc::new(Recycler::default());
        let minio = TieredByteCache::build(
            vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 4),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 4),
            ],
            1,
            Some(Arc::clone(&backend) as Arc<dyn FetchBackend>),
        )
        .unwrap();
        for _epoch in 0..3 {
            for item in 0..16u64 {
                fetch_through(&minio, item, 1);
            }
        }
        assert_eq!(minio.resident_items(), 8);
        assert!(backend.0.lock().is_empty());
    }

    #[test]
    fn racing_hand_backs_with_the_spill_writer_recycle_each_payload_exactly_once() {
        // Prep finishing with a payload, the tier dropping its key and the
        // spill writer finishing its write, all at the same moment:
        // whichever lets go last hands it back, never twice, never not.
        const ROUNDS: usize = 10_000;
        let backend = Recycler::default();
        let vfs: Arc<dyn Vfs> = Arc::new(vfs::MemVfs::new());
        let mut store = Some(SpillStore::open(vfs, "race").unwrap());
        let mut error = None;
        let payloads: Vec<Arc<Vec<u8>>> = (0..ROUNDS)
            .map(|round| Arc::new(round.to_le_bytes().to_vec()))
            .collect();
        let prep_side: Vec<_> = payloads.iter().map(Arc::clone).collect();
        let tier_side: Vec<_> = payloads.iter().map(Arc::clone).collect();
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for side in [prep_side, tier_side] {
                let (backend, barrier) = (&backend, &barrier);
                s.spawn(move || {
                    for payload in side {
                        barrier.wait();
                        recycle_if_last(backend, payload);
                    }
                });
            }
            let (backend, barrier) = (&backend, &barrier);
            let (store, error) = (&mut store, &mut error);
            s.spawn(move || {
                for (round, payload) in payloads.into_iter().enumerate() {
                    barrier.wait();
                    let op = SpillOp::Write(round as u64 % 64, payload);
                    apply(store, error, op, Some(backend));
                }
            });
        });
        assert_eq!(error, None);
        assert_eq!(store.map(|store| store.len()), Some(64));
        let mut rounds: Vec<usize> = backend
            .0
            .lock()
            .iter()
            .map(|buf| usize::from_le_bytes(buf[..].try_into().unwrap()))
            .collect();
        rounds.sort_unstable();
        assert_eq!(rounds, (0..ROUNDS).collect::<Vec<_>>());
    }

    /// A `MemVfs` that calls `on_write` before every write.
    struct HookedVfs<F> {
        inner: vfs::MemVfs,
        on_write: F,
    }

    impl<F: Fn() + Send + Sync> Vfs for HookedVfs<F> {
        fn open(&self, path: &str, create: bool) -> Result<vfs::FileHandle, vfs::VfsError> {
            self.inner.open(path, create)
        }
        fn read_at(
            &self,
            file: vfs::FileHandle,
            offset: u64,
            len: usize,
        ) -> Result<Vec<u8>, vfs::VfsError> {
            self.inner.read_at(file, offset, len)
        }
        fn write_at(
            &self,
            file: vfs::FileHandle,
            offset: u64,
            data: &[u8],
        ) -> Result<(), vfs::VfsError> {
            (self.on_write)();
            self.inner.write_at(file, offset, data)
        }
        fn sync(&self, file: vfs::FileHandle) -> Result<(), vfs::VfsError> {
            self.inner.sync(file)
        }
        fn len(&self, file: vfs::FileHandle) -> Result<u64, vfs::VfsError> {
            self.inner.len(file)
        }
        fn close(&self, file: vfs::FileHandle) -> Result<(), vfs::VfsError> {
            self.inner.close(file)
        }
        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }
        fn remove(&self, path: &str) -> Result<(), vfs::VfsError> {
            self.inner.remove(path)
        }
        fn name(&self) -> &'static str {
            "hooked"
        }
        fn stats(&self) -> vfs::VfsStats {
            self.inner.stats()
        }
    }

    fn lru_over_persistent_lru(vfs: &Arc<dyn Vfs>, dir: &str) -> TieredByteCache {
        TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::Lru, 4),
            ByteTierSpec::sata_ssd(PolicyKind::Lru, 64).persistent(Arc::clone(vfs), dir),
        ])
    }

    #[test]
    fn a_panicking_spill_writer_fails_flush_instead_of_hanging() {
        let armed = std::sync::atomic::AtomicBool::new(true);
        let vfs: Arc<dyn Vfs> = Arc::new(HookedVfs {
            inner: vfs::MemVfs::new(),
            on_write: move || {
                if armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    panic!("the disk caught fire");
                }
            },
        });
        let tier = lru_over_persistent_lru(&vfs, "fire");
        // Thousands of ops, far past the queue's bound: shipping to a dead
        // writer never blocks.
        for item in 0..2_000u64 {
            fetch_through(&tier, item, 1);
        }
        for _ in 0..2 {
            match tier.flush() {
                Err(CoordlError::WorkerPanicked { stage, detail }) => {
                    assert_eq!(stage, "spill");
                    assert!(detail.contains("the disk caught fire"), "{detail}");
                }
                other => panic!("expected the writer's panic, got {other:?}"),
            }
        }
        // The in-memory tier serves on.
        assert_eq!(tier.lookup(1_999).unwrap().as_slice(), &[1_999u64 as u8]);
        drop(tier);
    }

    /// A gate the spill writer's writes wait at until the test opens it.
    #[derive(Default)]
    struct Gate {
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    #[test]
    fn dropping_a_cache_with_queued_spill_ops_commits_them_all() {
        let gate = Arc::new(Gate::default());
        let writes_wait_for = Arc::clone(&gate);
        let vfs: Arc<dyn Vfs> = Arc::new(HookedVfs {
            inner: vfs::MemVfs::new(),
            on_write: move || writes_wait_for.wait(),
        });
        let tier = lru_over_persistent_lru(&vfs, "queued");
        // 86 demotions and 22 drops: three batches shipped, 12 ops open,
        // and the writer stuck in its first write.
        for item in 0..90u64 {
            fetch_through(&tier, item, 1);
        }
        let expected = tier.resident_keys(1);
        assert_eq!(expected.len(), 64);
        // The open batch reaches the store only if the drop ships it,
        // whether the writer is still stuck when it does or not.
        let dropper = std::thread::spawn(move || drop(tier));
        gate.open();
        dropper.join().unwrap();
        assert_eq!(spilled(&vfs, "queued"), expected);
    }

    #[test]
    fn a_spill_writer_dying_behind_a_full_queue_releases_every_waiter() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
        const DEADLINE: std::time::Duration = std::time::Duration::from_secs(20);
        let gate = Arc::new(Gate::default());
        let (entered, writer_entered) = std::sync::mpsc::channel();
        let armed = AtomicBool::new(true);
        let first_write = Arc::clone(&gate);
        let vfs: Arc<dyn Vfs> = Arc::new(HookedVfs {
            inner: vfs::MemVfs::new(),
            on_write: move || {
                if armed.swap(false, SeqCst) {
                    entered.send(()).unwrap();
                    first_write.wait();
                    panic!("the disk caught fire");
                }
            },
        });
        let tier = Arc::new(lru_over_persistent_lru(&vfs, "death"));
        // Item 4 on demotes one key per fetch, and item 68 on also drops
        // one: 36 items ship the first batch, which the writer takes and is
        // held in, and 276 items ship 15 batches, 14 of them queued.
        for item in 0..276u64 {
            fetch_through(&*tier, item, 1);
            if item == 35 {
                writer_entered
                    .recv_timeout(DEADLINE)
                    .expect("writer starts");
            }
        }
        let queue = &tier.writer.as_ref().unwrap().queue;
        assert!(!queue.is_full());
        let (done, finished) = std::sync::mpsc::channel();
        // A flush queues a commit batch and its sync, which fill the queue,
        // and waits for the answer.
        let flusher = {
            let (tier, done) = (Arc::clone(&tier), done.clone());
            std::thread::spawn(move || done.send(("flush", tier.flush())).unwrap())
        };
        let started = std::time::Instant::now();
        while !queue.is_full() {
            assert!(started.elapsed() < DEADLINE, "the flush never queued");
            std::thread::yield_now();
        }
        // A fetch thread's 16th fetch ships a batch into the full queue.
        let fetched = Arc::new(AtomicUsize::new(0));
        let fetcher = {
            let (tier, fetched) = (Arc::clone(&tier), Arc::clone(&fetched));
            std::thread::spawn(move || {
                for item in 276..292u64 {
                    fetch_through(&*tier, item, 1);
                    fetched.fetch_add(1, SeqCst);
                }
                done.send(("fetch", Ok(()))).unwrap();
            })
        };
        // It cannot finish that fetch while the writer lives.  Waiting for
        // room when the writer dies or only getting there after, its send
        // must fail and let it go on.
        while fetched.load(SeqCst) < 15 {
            assert!(started.elapsed() < DEADLINE, "the fetches stalled");
            std::thread::yield_now();
        }
        gate.open();
        let mut outcomes: Vec<_> = (0..2)
            .map(|_| finished.recv_timeout(DEADLINE).expect("a waiter hangs"))
            .collect();
        outcomes.sort_by_key(|(waiter, _)| *waiter);
        flusher.join().unwrap();
        fetcher.join().unwrap();
        assert!(matches!(outcomes[0], ("fetch", Ok(()))));
        match &outcomes[1] {
            ("flush", Err(CoordlError::WorkerPanicked { stage, detail })) => {
                assert_eq!(*stage, "spill");
                assert!(detail.contains("the disk caught fire"), "{detail}");
            }
            other => panic!("expected the writer's panic, got {other:?}"),
        }
    }

    #[test]
    fn hit_and_miss_counters_count_fetches() {
        let tier = TieredByteCache::single(PolicyKind::Fifo, 1 << 20);
        for epoch in 0..3 {
            for item in 0..10u64 {
                match tier.lookup(item) {
                    Some(_) => assert!(epoch > 0),
                    None => {
                        tier.admit(item, payload(item, 8));
                    }
                }
            }
        }
        assert_eq!(tier.misses(), 10);
        assert_eq!(tier.hits(), 20);
    }
}
