//! Pluggable byte-cache tiers.
//!
//! A [`CacheTier`] sits between a [`Session`](crate::Session)'s prep workers
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
use crate::error::CoordlError;
use dataset::ItemId;
use dcache::{ChainAccess, ChainSource, PolicyKind, TierChain, TierSpec};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
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
    /// level it hit no longer mirrors to disk).  Sessions call this as each
    /// epoch ends; tiers that persist nothing have nothing to do.
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
    /// Entries this level's policy evicted on the fetch path (0 for flat
    /// tiers, which do not track evictions at the wrapper level).
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
/// group (under [`SpillStore::GROUP_BYTES`] per persistent shard) and never
/// serves a wrong, short or resurrected-after-committed-removal payload.
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
    bytes: HashMap<ItemId, Arc<Vec<u8>>>,
    // Fetch counters live in the wrapper, not the chain: with concurrent
    // workers, a lookup miss raced by another worker's admit would otherwise
    // be lost.  One hit or one miss per fetch, counted at lookup time.
    hits: u64,
    misses: u64,
    /// Modelled per-level device busy seconds across all hits.
    level_seconds: Vec<f64>,
    /// Per-level durable mirror (`Some` only for `TierBacking::Vfs` levels
    /// whose store has not failed).
    spills: Vec<Option<SpillStore>>,
    /// The first failure of any level's store (see [`mirror`]).
    spill_error: Option<CoordlError>,
}

/// Run `op` on a level's spill store, if it still mirrors.  On the first
/// error the level stops mirroring — dropping the store commits what it
/// still can; the in-memory tier serves on — and the error is kept for
/// [`CacheTier::flush`].
fn mirror(
    spill: &mut Option<SpillStore>,
    error: &mut Option<CoordlError>,
    op: impl FnOnce(&mut SpillStore) -> Result<(), vfs::VfsError>,
) {
    let Some(store) = spill else { return };
    if let Err(e) = op(store) {
        error.get_or_insert(CoordlError::SpillIo {
            dir: store.dir().to_string(),
            detail: e.to_string(),
        });
        *spill = None;
    }
}

impl TieredInner {
    /// Apply a chain access on `key` to the payload map and the durable
    /// per-level stores: mirror every new landing (`key`'s own admission or
    /// promotion copy, then each demoted victim) into the persistent level
    /// it landed in, retire and let go of what fell off the chain — handing
    /// each payload nobody else holds to `recycler`, if there is one.
    /// Returns the level a new copy of `key` landed in.
    fn settle(
        &mut self,
        key: u64,
        access: ChainAccess,
        recycler: Option<&dyn FetchBackend>,
    ) -> Option<usize> {
        let landed = access.admitted.then(|| self.chain.locate(key)).flatten();
        let TieredInner {
            bytes,
            spills,
            spill_error,
            ..
        } = self;
        // Purely in-memory hierarchies (the hot path) skip the mirroring.
        if spills.iter().any(Option::is_some) {
            let own = landed.map(|level| (key, level));
            for (landing, level) in own.into_iter().chain(access.demoted.iter().copied()) {
                mirror(&mut spills[level], spill_error, |spill| {
                    let payload = bytes
                        .get(&landing)
                        .expect("a landed key must have a resident payload");
                    spill.write(landing, payload)
                });
                // Stale copies at other persistent levels are dropped lazily:
                // removing here would fight the promotion-keeps-lower-copy rule.
            }
            for &victim in &access.dropped {
                for spill in spills.iter_mut() {
                    mirror(spill, spill_error, |spill| spill.remove(victim));
                }
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

    /// Commit every level's store.
    fn flush_spills(&mut self) {
        for spill in &mut self.spills {
            mirror(spill, &mut self.spill_error, SpillStore::flush);
        }
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
/// `dcache::build_cache` for all four policies) — which is why it is the one
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
/// **Payloads that come back.**  The tier a [`Session`](crate::Session)
/// builds for itself hands every payload it lets go of — a key that falls
/// off the bottom of the chain, the offered copy a raced admission discards
/// — to the session's backend ([`FetchBackend::recycle`]) when it held the
/// last reference, so the next miss reads into it.  A payload prep still
/// holds comes back from prep instead.  The hand-back of dropped keys runs
/// under the shard lock: the lock order is tier shard → backend free list,
/// and `recycle` never calls into a tier.  A cache built through the public
/// constructors frees what it drops.
pub struct TieredByteCache {
    shards: Vec<Mutex<TieredInner>>,
    /// The *aggregate* level descriptions (full capacities, original spill
    /// directories) the cache was built from.
    specs: Vec<ByteTierSpec>,
    name: &'static str,
    /// Where payloads the cache lets go of go back to (see the type docs).
    recycler: Option<Arc<dyn FetchBackend>>,
}

impl TieredByteCache {
    /// Build a hierarchy from `specs`, ordered fastest (level 0) first.
    ///
    /// # Panics
    /// Panics when `specs` is empty or a persistent level's VFS fails.
    pub fn new(specs: Vec<ByteTierSpec>) -> Self {
        Self::new_sharded(specs, 1)
    }

    /// Like [`TieredByteCache::new`] with the hierarchy split into
    /// `num_shards` independent key-routed shards (see the type docs).
    ///
    /// # Panics
    /// Panics when `specs` is empty, `num_shards` is zero, or a persistent
    /// level's VFS fails.
    pub fn new_sharded(specs: Vec<ByteTierSpec>, num_shards: usize) -> Self {
        Self::try_new_sharded(specs, num_shards).expect("tier construction failed")
    }

    /// Like [`TieredByteCache::new`], surfacing persistent-level VFS
    /// failures as [`CoordlError::InvalidConfig`] instead of panicking.
    ///
    /// Levels with [`TierBacking::Vfs`] open their [`SpillStore`] here and
    /// replay the on-disk manifest: every recorded key is re-offered to the
    /// chain at that level (admission floor pins it below faster tiers) with
    /// its payload read back from disk — an entry that no longer fits (the
    /// level shrank across the restart) is retired from disk instead — then
    /// all statistics are reset: a restarted cache starts warm but with
    /// clean counters.
    pub fn try_new(specs: Vec<ByteTierSpec>) -> Result<Self, CoordlError> {
        Self::try_new_sharded(specs, 1)
    }

    /// The fallible form of [`TieredByteCache::new_sharded`]: an empty
    /// `specs` list, a zero `num_shards` or a failing persistent level is a
    /// [`CoordlError::InvalidConfig`].
    pub fn try_new_sharded(
        specs: Vec<ByteTierSpec>,
        num_shards: usize,
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
            shards.push(Mutex::new(Self::build_shard(&shard_specs)?));
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
            shards,
            specs,
            name,
            recycler: None,
        })
    }

    /// This cache handing every payload it lets go of, when it held the last
    /// reference, to `backend` (see the type docs).
    pub(crate) fn recycling_into(mut self, backend: Arc<dyn FetchBackend>) -> Self {
        self.recycler = Some(backend);
        self
    }

    /// Build one shard's chain + payload map + spill stores from its
    /// (already capacity-split) level specs, warm-replaying persistent
    /// levels.
    fn build_shard(specs: &[ByteTierSpec]) -> Result<TieredInner, CoordlError> {
        let mut chain = TierChain::new(specs.iter().map(ByteTierSpec::tier_spec).collect());
        let mut bytes = HashMap::new();
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
        Ok(TieredInner {
            chain,
            bytes,
            hits: 0,
            misses: 0,
            level_seconds: vec![0.0; levels],
            spills,
            spill_error: None,
        })
    }

    /// A single DRAM level under `policy` — the default session tier.
    pub fn single(policy: PolicyKind, capacity_bytes: u64) -> Self {
        Self::single_sharded(policy, capacity_bytes, 1)
    }

    /// A single DRAM level under `policy`, split into `num_shards` shards
    /// (what sessions with a fetch pool build).
    pub fn single_sharded(policy: PolicyKind, capacity_bytes: u64, num_shards: usize) -> Self {
        Self::new_sharded(vec![ByteTierSpec::dram(policy, capacity_bytes)], num_shards)
    }

    /// The aggregate level descriptions this hierarchy was built from.
    pub fn specs(&self) -> &[ByteTierSpec] {
        &self.specs
    }

    /// How many key-routed shards the cache is split into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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
            let TieredInner {
                spills,
                spill_error,
                ..
            } = &mut *inner;
            for spill in spills {
                // Committed at once: a departed tenant's keys must not
                // reappear after a crash.
                mirror(spill, spill_error, |spill| {
                    let doomed: Vec<u64> = spill
                        .entries()
                        .map(|(key, _)| key)
                        .filter(|key| window.contains(key))
                        .collect();
                    doomed.into_iter().try_for_each(|key| spill.remove(key))?;
                    spill.flush()
                });
            }
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
        let mut first = None;
        for shard in &self.shards {
            let mut inner = shard.lock();
            inner.flush_spills();
            if first.is_none() {
                first.clone_from(&inner.spill_error);
            }
        }
        first.map_or(Ok(()), Err)
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
            let mut raw = dcache::build_cache(kind, 6);
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
        let tier = TieredByteCache::new_sharded(
            vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 8),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 64).persistent(Arc::clone(&vfs), "rr"),
            ],
            2,
        );
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
        let build = || TieredByteCache::single_sharded(PolicyKind::Lru, 20 * 2, shards);
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
        let tier = TieredByteCache::single_sharded(PolicyKind::MinIo, 10, 4);
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
            let tier = TieredByteCache::new_sharded(specs(), shards);
            for item in 0..12u64 {
                fetch_through(&tier, item, 2);
            }
            assert!(tier.resident_items() > 4, "victims demoted into the SSD");
        }
        // A rebuilt cache over the same VFS and the same shard count warms
        // each shard from its own spill-{k} directory.
        let reborn = TieredByteCache::new_sharded(specs(), shards);
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
            let tier = TieredByteCache::new(vec![ByteTierSpec::dram(PolicyKind::Lru, 4), ssd])
                .recycling_into(Arc::clone(&backend) as Arc<dyn FetchBackend>);
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
            assert_eq!(recycled(&backend), expected, "persistent={persistent}");
            // Prep lets go of item 0 last: it comes back from prep.
            recycle_if_last(&*backend, held);
            expected.insert(0, 0);
            assert_eq!(recycled(&backend), expected, "persistent={persistent}");
            outcomes.push(expected);
        }
        assert_eq!(outcomes[0], outcomes[1], "a persistent level behaves alike");

        // MinIO never drops a resident payload; what it bypasses stays the
        // caller's.
        let backend = Arc::new(Recycler::default());
        let minio = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, 4),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 4),
        ])
        .recycling_into(Arc::clone(&backend) as Arc<dyn FetchBackend>);
        for _epoch in 0..3 {
            for item in 0..16u64 {
                fetch_through(&minio, item, 1);
            }
        }
        assert_eq!(minio.resident_items(), 8);
        assert!(backend.0.lock().is_empty());
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
