//! Partitioned caching across the servers of a distributed job (§4.2).
//!
//! Each server contributes a cache tier to a job-wide partitioned cache.  A
//! directory records which server holds each raw item; on a local miss the
//! item is fetched from the remote server's cache (in the real system over
//! TCP — here by reading the peer's in-memory tier, with the byte volume
//! accounted so the simulator and the benches can attach network timing).
//! Only items cached nowhere fall through to the fetch backend, so once the
//! aggregate cache capacity covers the dataset, storage is never touched
//! again.
//!
//! A [`Session`](crate::Session) in [`Mode::Partitioned`](crate::Mode) builds
//! one of these with its configured tier per node and fetch backend
//! ([`PartitionedCacheCluster::with_stack`]); the peer caches act as one
//! intermediate tier between a node's local chain and the durable store —
//! the second step of [`PartitionedCacheCluster::fetch`].
//!
//! # Fault tolerance
//!
//! The cluster is failure-aware: a [`FaultPlan`] installed via
//! [`set_fault_plan`](PartitionedCacheCluster::set_fault_plan) (or direct
//! calls to [`kill_node`](PartitionedCacheCluster::kill_node) /
//! [`leave_node`](PartitionedCacheCluster::leave_node) /
//! [`join_node`](PartitionedCacheCluster::join_node)) changes cache
//! *membership*, never consumers: fetches issued on a dead node's behalf
//! still succeed through peers and the backend, so a consumer stream never
//! loses or duplicates a sample.  Membership and its rules live in the
//! directory, [`dcache::PartitionedIndex`], which the simulator's
//! partitioned engine shares, so prediction and measurement agree exactly:
//!
//! * a fetch is served by the local tier if the node is alive, then by a
//!   live remote owner, then by the backend — and only a live node admits
//!   and registers what the backend served (a dead node never registers);
//! * a kill re-homes each of the dead node's entries to the first live node
//!   in the item's rendezvous order that already holds it (in any level of
//!   its chain, so a survivor "warms" from its local SSD tier) and drops the
//!   rest, whose next fetch reads the durable store;
//! * a leave is a kill's re-home followed by migrating each remaining orphan
//!   into the first live rendezvous candidate that keeps the leaver's copy;
//! * a joined node serves its stale-but-valid tier again and re-advertises
//!   each item lazily, on a local hit, if nobody owns it.
//!
//! A peer tier that fails mid-lookup surfaces as a typed
//! [`CoordlError::PeerFailed`]; the fetch path kills the peer and retries
//! with backoff through the surviving cluster.

use crate::error::{panic_detail, CoordlError};
use crate::fault::FaultPlan;
use crate::stats::LoaderStats;
use crate::{CacheTier, FetchBackend};
use dataset::ItemId;
use dcache::{FaultKind, PartitionedIndex, ServerId};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A successful peer lookup: the served bytes and the owning peer's index,
/// or `None` when no live peer holds the item.
pub type RemoteHit = Option<(Arc<Vec<u8>>, usize)>;

/// Where a partitioned-cache fetch was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOrigin {
    /// The local server's cache tier.
    LocalCache,
    /// A remote server's cache tier (over the network in the real system).
    RemoteCache(usize),
    /// The fetch backend (the item was cached nowhere).
    Storage,
}

/// Per-server counters for the partitioned cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Fetches served from the local cache.
    pub local_hits: u64,
    /// Fetches served from a peer's cache.
    pub remote_hits: u64,
    /// Fetches that fell through to storage.
    pub storage_reads: u64,
    /// Bytes moved over the network into this server.
    pub remote_bytes_in: u64,
    /// Bytes this server served to its peers.
    pub remote_bytes_out: u64,
    /// Bytes read from storage by this server.
    pub storage_bytes: u64,
}

impl PartitionStats {
    /// Merge `other` into `self` (used for cluster-wide aggregates).
    pub fn merge(&mut self, other: &PartitionStats) {
        self.local_hits += other.local_hits;
        self.remote_hits += other.remote_hits;
        self.storage_reads += other.storage_reads;
        self.remote_bytes_in += other.remote_bytes_in;
        self.remote_bytes_out += other.remote_bytes_out;
        self.storage_bytes += other.storage_bytes;
    }
}

struct ServerState {
    tier: Arc<dyn CacheTier>,
    /// Behind its own lock, so a fetch counts under the *read* side of the
    /// server lock and two nodes' fetches never serialise on a counter.
    stats: Mutex<PartitionStats>,
}

/// How often a fetch retries after a peer failure before surfacing the
/// typed error.  Each retry first kills the failed peer, so the second
/// attempt already routes around it; the cap only matters if *every*
/// attempt hits a distinct failing peer.
const MAX_FETCH_ATTEMPTS: u32 = 3;

/// A job-wide partitioned cache over a set of per-server cache tiers.
///
/// Lock rule: `servers` and `directory` are never held together — tier
/// handles are taken out of `servers` before the directory is locked.
pub struct PartitionedCacheCluster {
    backend: Arc<dyn FetchBackend>,
    servers: RwLock<Vec<ServerState>>,
    /// The shard directory, membership and fault schedule.
    directory: RwLock<PartitionedIndex>,
    loader_stats: Arc<LoaderStats>,
    /// Cluster fetches started so far: the fault plan's step axis.
    steps: AtomicU64,
    /// Set once fault machinery is in play (a plan installed or a membership
    /// call made); the healthy fast path checks one relaxed atomic, takes no
    /// directory lock on a local hit and otherwise behaves bit-identically
    /// to a fault-free cluster.
    chaos: AtomicBool,
}

impl PartitionedCacheCluster {
    /// Create a cluster from explicit per-server tiers over one fetch
    /// backend, recording into shared loader statistics.
    pub fn with_stack(
        backend: Arc<dyn FetchBackend>,
        tiers: Vec<Arc<dyn CacheTier>>,
        loader_stats: Arc<LoaderStats>,
    ) -> Self {
        assert!(!tiers.is_empty(), "need at least one server");
        let directory = PartitionedIndex::new(tiers.len());
        let servers = tiers
            .into_iter()
            .map(|tier| ServerState {
                tier,
                stats: Mutex::default(),
            })
            .collect();
        PartitionedCacheCluster {
            backend,
            servers: RwLock::new(servers),
            directory: RwLock::new(directory),
            loader_stats,
            steps: AtomicU64::new(0),
            chaos: AtomicBool::new(false),
        }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.read().len()
    }

    /// Per-server statistics snapshot.
    pub fn stats(&self, server: usize) -> PartitionStats {
        *self.servers.read()[server].stats.lock()
    }

    /// Cluster-wide aggregate of the per-server statistics.
    pub fn aggregate_stats(&self) -> PartitionStats {
        let servers = self.servers.read();
        let mut out = PartitionStats::default();
        for s in servers.iter() {
            out.merge(&s.stats.lock());
        }
        out
    }

    /// The cache tier of `server`.
    pub fn tier(&self, server: usize) -> Arc<dyn CacheTier> {
        Arc::clone(&self.servers.read()[server].tier)
    }

    /// Number of distinct items currently registered in the directory.
    pub fn directory_len(&self) -> usize {
        self.directory.read().resident_items()
    }

    /// Sorted `(item, owner)` snapshot of the directory, for invariant
    /// checks (every owner must be alive and actually hold the item).
    pub fn directory_snapshot(&self) -> Vec<(ItemId, usize)> {
        self.directory
            .read()
            .entries()
            .into_iter()
            .map(|(item, ServerId(server))| (item, server))
            .collect()
    }

    /// Install (or replace) the cluster's fault plan.  An event at `at`
    /// fires once `at` cluster fetches have completed.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.directory.write().set_schedule(plan.steps().to_vec());
        self.chaos.store(true, Ordering::Relaxed);
    }

    /// Whether `server`'s cache membership is currently alive.
    pub fn is_alive(&self, server: usize) -> bool {
        self.directory.read().is_alive(ServerId(server))
    }

    /// Indices of the currently alive servers, ascending.
    pub fn alive_servers(&self) -> Vec<usize> {
        let directory = self.directory.read();
        (0..directory.num_servers())
            .filter(|&s| directory.is_alive(ServerId(s)))
            .collect()
    }

    /// Abruptly kill `server`'s cache membership (no-op when already dead).
    ///
    /// Its tier stops serving, admitting and registering; directory entries
    /// it owned are re-homed by rendezvous preference to surviving nodes
    /// that already hold the bytes (in DRAM or a lower persistent tier) and
    /// dropped otherwise — the next fetch of a dropped item falls back to
    /// the durable store and re-registers wherever it lands.  Consumers
    /// fetching *as* the dead node keep succeeding through peers and the
    /// backend.
    pub fn kill_node(&self, server: usize) {
        self.change_membership(FaultKind::Kill, server);
    }

    /// Gracefully decommission `server` (no-op when already dead): a kill's
    /// re-homing, after which each entry no survivor holds is migrated into
    /// the first surviving rendezvous preference that will retain the
    /// leaver's bytes, so ample-capacity clusters lose no shard coverage.
    pub fn leave_node(&self, server: usize) {
        self.change_membership(FaultKind::Leave, server);
    }

    /// Mark a previously dead `server` alive again (no-op when alive or out
    /// of range).  Its tier rejoins with whatever it still holds — a warm
    /// restart; see [`rejoin_with_tier`](Self::rejoin_with_tier) for a
    /// restart that rebuilds the tier (e.g. replaying a persistent spill
    /// store).  Rejoined contents are re-advertised in the directory lazily,
    /// as local hits touch them.
    pub fn join_node(&self, server: usize) {
        self.change_membership(FaultKind::Join, server);
    }

    /// Rejoin `server` with a replacement tier — the restarted-process case,
    /// where a fresh cache chain was warmed from the node's persistent
    /// [`SpillStore`](vfs::SpillStore) tier rather than inherited in
    /// memory.
    pub fn rejoin_with_tier(&self, server: usize, tier: Arc<dyn CacheTier>) {
        if let Some(state) = self.servers.write().get_mut(server) {
            state.tier = tier;
        }
        self.join_node(server);
    }

    /// Apply one membership change through the directory's rules, asking
    /// the tiers whether they hold (or, offered the leaver's bytes, retain)
    /// an orphaned item.
    fn change_membership(&self, kind: FaultKind, server: usize) {
        self.chaos.store(true, Ordering::Relaxed);
        let tiers: Vec<Arc<dyn CacheTier>> = self
            .servers
            .read()
            .iter()
            .map(|s| Arc::clone(&s.tier))
            .collect();
        let holds = |item, ServerId(n), offered| {
            if offered {
                if let Some(bytes) = tiers[server].lookup(item) {
                    drop(tiers[n].admit(item, bytes));
                }
            }
            tiers[n].contains(item)
        };
        self.directory.write().apply(kind, ServerId(server), holds);
    }

    /// Count this fetch on the fault plan's step axis and apply every event
    /// that has come due.  The healthy path (no plan, no membership calls)
    /// is one relaxed load.
    fn apply_due_faults(&self) {
        if !self.chaos.load(Ordering::Relaxed) {
            return;
        }
        let completed = self.steps.fetch_add(1, Ordering::Relaxed);
        let due: Vec<_> = {
            let mut directory = self.directory.write();
            std::iter::from_fn(|| directory.next_due(completed)).collect()
        };
        for event in due {
            self.change_membership(event.kind, event.node);
        }
    }

    /// Fetch `item` on behalf of `server`, following the CoorDL lookup order:
    /// local cache tier → remote peer tier (via the directory) → backend.
    /// A failed backend read is a typed [`CoordlError::BackendIo`]; an
    /// out-of-range `server` a typed [`CoordlError::InvalidConfig`].  A peer
    /// tier failing mid-lookup ([`CoordlError::PeerFailed`]) kills that peer
    /// and retries with backoff, so the sample is still served (from the
    /// surviving cluster or storage) unless every retry hits a freshly
    /// failing peer.
    pub fn fetch(
        &self,
        server: usize,
        item: ItemId,
    ) -> Result<(Arc<Vec<u8>>, FetchOrigin), CoordlError> {
        self.apply_due_faults();
        let mut last_err = None;
        for attempt in 0..MAX_FETCH_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_micros(100 << attempt));
            }
            match self.fetch_once(server, item) {
                Ok(served) => return Ok(served),
                Err(CoordlError::PeerFailed { peer, detail }) => {
                    self.kill_node(peer);
                    last_err = Some(CoordlError::PeerFailed { peer, detail });
                }
                Err(other) => return Err(other),
            }
        }
        Err(last_err.expect("retry loop exits early unless a peer failed"))
    }

    /// One fetch attempt (no fault application, no retry).
    fn fetch_once(
        &self,
        server: usize,
        item: ItemId,
    ) -> Result<(Arc<Vec<u8>>, FetchOrigin), CoordlError> {
        let me = ServerId(server);
        // A dead node's consumer keeps fetching; the bytes just can't come
        // from (or go into) its lost cache.
        let chaos = self.chaos.load(Ordering::Relaxed);
        let alive = !chaos || self.directory.read().is_alive(me);
        // 1. Local cache chain.
        let local = {
            let servers = self.servers.read();
            let num_servers = servers.len();
            let Some(state) = servers.get(server) else {
                return Err(CoordlError::InvalidConfig(format!(
                    "server {server} out of range ({num_servers} servers)"
                )));
            };
            let hit = if alive {
                state.tier.lookup_traced(item)
            } else {
                None
            };
            if hit.is_some() {
                state.stats.lock().local_hits += 1;
            }
            hit
        };
        if let Some((bytes, level)) = local {
            self.loader_stats.record_cache_read(bytes.len() as u64);
            if level > 0 {
                self.loader_stats.record_lower_tier_read(bytes.len() as u64);
            }
            // Only a membership change can leave a held item unowned.
            if chaos {
                self.directory.write().advertise(item, me);
            }
            return Ok((bytes, FetchOrigin::LocalCache));
        }
        // 2. The remote peer tier: the directory resolves the owner, the
        // peer's cache chain serves the bytes (over the network in the real
        // system — §4.2: 10-40 Gbps beats the local SATA SSD).
        if let Some((bytes, peer)) = self.remote_fetch(server, item)? {
            {
                // One node's counters at a time: no lock order to keep.
                let servers = self.servers.read();
                let mut stats = servers[server].stats.lock();
                stats.remote_hits += 1;
                stats.remote_bytes_in += bytes.len() as u64;
                drop(stats);
                servers[peer].stats.lock().remote_bytes_out += bytes.len() as u64;
            }
            self.loader_stats.record_remote_read(bytes.len() as u64);
            return Ok((bytes, FetchOrigin::RemoteCache(peer)));
        }
        // 3. Backend: read locally, admit into the local tier and register.
        let bytes = Arc::new(self.backend.read(item)?);
        let size = bytes.len() as u64;
        let mut admitted = false;
        {
            let servers = self.servers.read();
            let state = &servers[server];
            if alive {
                let retained = state.tier.admit(item, Arc::clone(&bytes));
                admitted = state.tier.contains(item);
                drop(retained);
            }
            let mut stats = state.stats.lock();
            stats.storage_reads += 1;
            stats.storage_bytes += size;
        }
        if admitted {
            self.directory.write().register(item, me);
        }
        self.loader_stats.record_storage_read(size);
        Ok((bytes, FetchOrigin::Storage))
    }

    /// The remote-lookup half of [`fetch`](Self::fetch), without its
    /// kill-and-retry: resolve `item` to a live remote owner through the
    /// directory and read it from that peer's cache chain (`Ok(None)` when
    /// uncached, unowned, owned by `server` itself — a racing local
    /// eviction — or evicted by the owner).  A peer tier that panics
    /// mid-lookup is a typed [`CoordlError::PeerFailed`] — the error the
    /// retry machinery consumes — never a propagated panic.
    pub fn remote_fetch(&self, server: usize, item: ItemId) -> Result<RemoteHit, CoordlError> {
        let Some(ServerId(peer)) = self.directory.read().remote_owner(item, ServerId(server))
        else {
            return Ok(None);
        };
        let tier = Arc::clone(&self.servers.read()[peer].tier);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tier.lookup(item))) {
            Ok(Some(bytes)) => Ok(Some((bytes, peer))),
            Ok(None) => Ok(None),
            Err(payload) => Err(CoordlError::PeerFailed {
                peer,
                detail: panic_detail(payload),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectBackend, FaultEvent, TieredByteCache};
    use dataset::{DataSource, DatasetSpec, EpochSampler, SyntheticItemStore};
    use dcache::PolicyKind;

    fn dataset(n: u64, size: u64) -> Arc<SyntheticItemStore> {
        Arc::new(SyntheticItemStore::new(
            DatasetSpec::new("t", n, size, 0.0, 6.0),
            9,
        ))
    }

    /// A MinIO-per-server stack, built through the explicit constructor the
    /// sessions use.
    fn minio_cluster(
        dataset: Arc<dyn DataSource>,
        num_servers: usize,
        per_server_cache_bytes: u64,
    ) -> PartitionedCacheCluster {
        let tiers = (0..num_servers)
            .map(|_| {
                Arc::new(TieredByteCache::single(
                    PolicyKind::MinIo,
                    per_server_cache_bytes,
                )) as Arc<dyn CacheTier>
            })
            .collect();
        PartitionedCacheCluster::with_stack(
            Arc::new(DirectBackend::new(dataset)),
            tiers,
            Arc::new(LoaderStats::default()),
        )
    }

    /// Run one "epoch": each server fetches its (epoch-varying) shard.
    fn run_epoch(cluster: &PartitionedCacheCluster, n: u64, epoch: u64, servers: usize) {
        let sampler = EpochSampler::new(n, 42);
        for s in 0..servers {
            for item in sampler.distributed_shard(epoch, s, servers) {
                let (bytes, _) = cluster.fetch(s, item).unwrap();
                assert!(!bytes.is_empty());
            }
        }
    }

    #[test]
    fn first_epoch_reads_dataset_from_storage_exactly_once() {
        let n = 100;
        let ds = dataset(n, 100);
        let cluster = minio_cluster(ds, 2, 100 * 100);
        run_epoch(&cluster, n, 0, 2);
        assert_eq!(cluster.aggregate_stats().storage_bytes, n * 100);
        assert_eq!(cluster.directory_len(), n as usize);
    }

    #[test]
    fn later_epochs_never_touch_storage_when_aggregate_memory_suffices() {
        let n = 100;
        let ds = dataset(n, 100);
        // Each server caches 65 % of the dataset; together they cover it.
        let cluster = minio_cluster(ds, 2, 65 * 100);
        run_epoch(&cluster, n, 0, 2);
        let after_warmup = cluster.aggregate_stats().storage_bytes;
        for epoch in 1..4 {
            run_epoch(&cluster, n, epoch, 2);
        }
        assert_eq!(
            cluster.aggregate_stats().storage_bytes,
            after_warmup,
            "no storage I/O beyond the first epoch"
        );
        // The epoch-varying shards force remote fetches.
        let remote: u64 = (0..2).map(|s| cluster.stats(s).remote_hits).sum();
        assert!(remote > 0);
        let agg = cluster.aggregate_stats();
        assert_eq!(agg.remote_hits, remote);
        assert_eq!(agg.remote_bytes_in, agg.remote_bytes_out);
    }

    #[test]
    fn remote_fetches_return_identical_bytes_to_storage_reads() {
        let n = 50;
        let ds = dataset(n, 64);
        let cluster = minio_cluster(Arc::clone(&ds) as Arc<dyn DataSource>, 2, 64 * 50);
        run_epoch(&cluster, n, 0, 2);
        for item in 0..n {
            let (a, _) = cluster.fetch(0, item).unwrap();
            let (b, _) = cluster.fetch(1, item).unwrap();
            assert_eq!(a.as_slice(), ds.read(item).as_slice());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn cache_too_small_for_shard_falls_back_to_storage() {
        let n = 100;
        let ds = dataset(n, 100);
        // Each server can cache only 20 items; aggregate 40 < 100.
        let cluster = minio_cluster(ds, 2, 20 * 100);
        for epoch in 0..3 {
            run_epoch(&cluster, n, epoch, 2);
        }
        // Storage is still needed every epoch for the uncached remainder.
        assert!(cluster.aggregate_stats().storage_bytes > n * 100);
        // But at least the cached fraction is served from DRAM.
        let hits: u64 = (0..2)
            .map(|s| cluster.stats(s).local_hits + cluster.stats(s).remote_hits)
            .sum();
        assert!(hits > 0);
    }

    #[test]
    fn bytes_in_and_out_are_symmetric_across_the_cluster() {
        let n = 80;
        let ds = dataset(n, 128);
        let cluster = minio_cluster(ds, 4, 128 * 80);
        for epoch in 0..3 {
            run_epoch(&cluster, n, epoch, 4);
        }
        let total_in: u64 = (0..4).map(|s| cluster.stats(s).remote_bytes_in).sum();
        let total_out: u64 = (0..4).map(|s| cluster.stats(s).remote_bytes_out).sum();
        assert_eq!(total_in, total_out);
        assert_eq!(cluster.loader_stats.bytes_from_remote(), total_in);
    }

    #[test]
    fn concurrent_fetches_from_all_servers_are_safe() {
        let n = 200;
        let ds = dataset(n, 64);
        let cluster = Arc::new(minio_cluster(ds, 4, 64 * 200));
        // Warm up.
        run_epoch(&cluster, n, 0, 4);
        let mut handles = Vec::new();
        for s in 0..4 {
            let cluster = Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                let sampler = EpochSampler::new(n, 42);
                for item in sampler.distributed_shard(1, s, 4) {
                    let (bytes, origin) = cluster.fetch(s, item).unwrap();
                    assert!(!bytes.is_empty());
                    assert_ne!(origin, FetchOrigin::Storage, "fully cached after warm-up");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn lru_tiers_slot_into_the_same_cluster_stack() {
        // The pluggable-tier point: a page-cache-like cluster (LRU per node)
        // uses the identical lookup order and directory machinery.
        let n = 60;
        let ds = dataset(n, 100);
        let tiers = (0..2)
            .map(|_| {
                Arc::new(TieredByteCache::single(PolicyKind::Lru, 100 * 100)) as Arc<dyn CacheTier>
            })
            .collect();
        let cluster = PartitionedCacheCluster::with_stack(
            Arc::new(DirectBackend::new(ds)),
            tiers,
            Arc::new(LoaderStats::default()),
        );
        for epoch in 0..2 {
            run_epoch(&cluster, n, epoch, 2);
        }
        assert_eq!(
            cluster.aggregate_stats().storage_bytes,
            n * 100,
            "fits: read once"
        );
        assert!(cluster.stats(0).local_hits + cluster.stats(0).remote_hits > 0);
        assert_eq!(cluster.tier(0).policy_name(), "LRU");
    }

    #[test]
    fn out_of_range_server_is_a_typed_error() {
        let ds = dataset(10, 10);
        let cluster = minio_cluster(ds, 2, 1000);
        match cluster.fetch(5, 0) {
            Err(CoordlError::InvalidConfig(msg)) => {
                assert!(msg.contains("out of range"), "unexpected message: {msg}")
            }
            other => panic!("expected a typed out-of-range error, got {other:?}"),
        }
    }

    // -- fault tolerance ---------------------------------------------------

    /// A tier that works normally until poisoned, then panics on lookup —
    /// the stand-in for a peer whose cache process died mid-request.  With a
    /// gate installed, its next lookup parks between the gate's two waits.
    struct PoisonableTier {
        inner: TieredByteCache,
        poisoned: AtomicBool,
        gate: Mutex<Option<Arc<std::sync::Barrier>>>,
    }

    impl PoisonableTier {
        fn new(capacity: u64) -> Self {
            PoisonableTier {
                inner: TieredByteCache::single(PolicyKind::MinIo, capacity),
                poisoned: AtomicBool::new(false),
                gate: Mutex::default(),
            }
        }

        fn poison(&self) {
            self.poisoned.store(true, Ordering::Relaxed);
        }
    }

    impl CacheTier for PoisonableTier {
        fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
            assert!(!self.poisoned.load(Ordering::Relaxed), "peer tier poisoned");
            let gate = self.gate.lock().take();
            if let Some(gate) = gate {
                gate.wait(); // inside the lookup
                gate.wait(); // released
            }
            self.inner.lookup(item)
        }
        fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
            self.inner.admit(item, bytes)
        }
        fn contains(&self, item: ItemId) -> bool {
            self.inner.contains(item)
        }
        fn used_bytes(&self) -> u64 {
            self.inner.used_bytes()
        }
        fn capacity_bytes(&self) -> u64 {
            self.inner.capacity_bytes()
        }
        fn resident_items(&self) -> usize {
            self.inner.resident_items()
        }
        fn hits(&self) -> u64 {
            self.inner.hits()
        }
        fn misses(&self) -> u64 {
            self.inner.misses()
        }
        fn policy_name(&self) -> &'static str {
            "poisonable"
        }
    }

    #[test]
    fn poisoned_peer_yields_typed_error_not_panic() {
        let n = 20;
        let ds = dataset(n, 64);
        let poisonable = Arc::new(PoisonableTier::new(64 * n));
        let tiers: Vec<Arc<dyn CacheTier>> = vec![
            Arc::new(TieredByteCache::single(PolicyKind::MinIo, 64 * n)),
            Arc::clone(&poisonable) as Arc<dyn CacheTier>,
        ];
        let cluster = PartitionedCacheCluster::with_stack(
            Arc::new(DirectBackend::new(ds)),
            tiers,
            Arc::new(LoaderStats::default()),
        );
        run_epoch(&cluster, n, 0, 2);
        // Pick an item the directory maps to the poisonable peer.
        let victim = cluster
            .directory_snapshot()
            .into_iter()
            .find(|&(_, owner)| owner == 1)
            .expect("peer 1 owns part of the dataset")
            .0;
        poisonable.poison();
        // The raw lookup half surfaces the typed degraded-mode error.
        match cluster.remote_fetch(0, victim) {
            Err(CoordlError::PeerFailed { peer: 1, detail }) => {
                assert!(detail.contains("poisoned"), "detail: {detail}")
            }
            other => panic!("expected PeerFailed, got {other:?}"),
        }
        // The full fetch path retries: the peer is marked dead and the
        // sample is still served (from storage), never lost.
        let (bytes, origin) = cluster.fetch(0, victim).unwrap();
        assert!(!bytes.is_empty());
        assert_eq!(origin, FetchOrigin::Storage);
        assert!(!cluster.is_alive(1), "failing peer was quarantined");
        assert!(cluster.is_alive(0));
    }

    #[test]
    fn a_fetch_does_not_wait_out_another_nodes_tier_lookup() {
        // Counting a fetch must not need the membership lock's write side:
        // node 1's fetch completes while node 0's lookup is still parked
        // inside its tier, holding the read side.
        let ds = dataset(8, 64);
        let gated = Arc::new(PoisonableTier::new(64 * 8));
        let tiers: Vec<Arc<dyn CacheTier>> = vec![
            Arc::clone(&gated) as Arc<dyn CacheTier>,
            Arc::new(TieredByteCache::single(PolicyKind::MinIo, 64 * 8)),
        ];
        let cluster = PartitionedCacheCluster::with_stack(
            Arc::new(DirectBackend::new(ds)),
            tiers,
            Arc::new(LoaderStats::default()),
        );
        let gate = Arc::new(std::sync::Barrier::new(2));
        *gated.gate.lock() = Some(Arc::clone(&gate));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| cluster.fetch(0, 0).map(|(_, origin)| origin));
            gate.wait(); // node 0 is inside its lookup
            s.spawn(|| done_tx.send(cluster.fetch(1, 1).map(|(_, origin)| origin)));
            let other = done_rx.recv_timeout(std::time::Duration::from_secs(10));
            gate.wait(); // release node 0 whatever happened
            assert_eq!(other, Ok(Ok(FetchOrigin::Storage)), "node 1 was held up");
        });
        assert_eq!(cluster.stats(0).storage_reads, 1);
        assert_eq!(cluster.stats(1).storage_reads, 1);
        assert_eq!(cluster.aggregate_stats().storage_bytes, 2 * 64);
    }

    #[test]
    fn kill_rehomes_entries_to_survivors_that_hold_the_bytes() {
        let n = 30;
        let ds = dataset(n, 64);
        let cluster = minio_cluster(Arc::clone(&ds) as Arc<dyn DataSource>, 2, 64 * n);
        run_epoch(&cluster, n, 0, 2);
        assert_eq!(cluster.directory_len(), n as usize);
        // Pre-warm the survivor with everything the victim owns — the
        // moral equivalent of node 0 having replayed those items into its
        // chain from a persistent spill tier.
        let victim_items: Vec<ItemId> = cluster
            .directory_snapshot()
            .into_iter()
            .filter(|&(_, owner)| owner == 1)
            .map(|(item, _)| item)
            .collect();
        assert!(!victim_items.is_empty());
        for &item in &victim_items {
            let (bytes, _) = cluster.fetch(1, item).unwrap();
            drop(cluster.tier(0).admit(item, bytes));
        }
        let storage_before = cluster.aggregate_stats().storage_bytes;
        cluster.kill_node(1);
        assert!(!cluster.is_alive(1));
        assert_eq!(cluster.alive_servers(), vec![0]);
        // Nothing was lost: every entry survived, re-homed to node 0.
        assert_eq!(cluster.directory_len(), n as usize);
        assert!(cluster
            .directory_snapshot()
            .iter()
            .all(|&(_, owner)| owner == 0));
        // Refetching the victim's former shard needs no storage I/O.
        for &item in &victim_items {
            let (_, origin) = cluster.fetch(0, item).unwrap();
            assert_eq!(origin, FetchOrigin::LocalCache, "item {item}");
        }
        assert_eq!(cluster.aggregate_stats().storage_bytes, storage_before);
        // Double-kill is a no-op.
        cluster.kill_node(1);
        assert_eq!(cluster.directory_len(), n as usize);
    }

    #[test]
    fn kill_without_replicas_drops_entries_and_recovers_via_storage() {
        let n = 40;
        let ds = dataset(n, 64);
        let cluster = minio_cluster(ds, 2, 64 * n);
        run_epoch(&cluster, n, 0, 2);
        let owned_by_1 = cluster
            .directory_snapshot()
            .iter()
            .filter(|&&(_, owner)| owner == 1)
            .count();
        assert!(owned_by_1 > 0);
        cluster.kill_node(1);
        // No survivor holds the victim's items, so their entries are gone…
        assert_eq!(cluster.directory_len(), n as usize - owned_by_1);
        // …and a full sweep by the survivor re-reads exactly those from
        // storage (a dead node's own fetches are also served, but neither
        // admit nor register), after which the directory is whole again.
        for item in 0..n {
            cluster.fetch(0, item).unwrap();
        }
        assert_eq!(
            cluster.aggregate_stats().storage_reads,
            n + owned_by_1 as u64,
            "exactly the orphaned items were re-read"
        );
        assert_eq!(cluster.directory_len(), n as usize);
        // Steady state after the rebalance: no storage traffic at all.
        for item in 0..n {
            let (_, origin) = cluster.fetch(0, item).unwrap();
            assert_eq!(origin, FetchOrigin::LocalCache, "item {item}");
        }
        assert_eq!(
            cluster.aggregate_stats().storage_reads,
            n + owned_by_1 as u64,
            "hit ratio fully recovered post-rebalance"
        );
    }

    #[test]
    fn graceful_leave_migrates_bytes_so_no_shard_is_lost() {
        let n = 50;
        let ds = dataset(n, 64);
        // Ample capacity everywhere: the survivor can absorb the whole
        // leaver shard.
        let cluster = minio_cluster(ds, 2, 2 * 64 * n);
        run_epoch(&cluster, n, 0, 2);
        let storage_before = cluster.aggregate_stats().storage_bytes;
        cluster.leave_node(1);
        assert!(!cluster.is_alive(1));
        // No lost shard: every item is still directory-resident on node 0.
        assert_eq!(cluster.directory_len(), n as usize);
        assert!(cluster
            .directory_snapshot()
            .iter()
            .all(|&(_, owner)| owner == 0));
        run_epoch(&cluster, n, 1, 2);
        assert_eq!(
            cluster.aggregate_stats().storage_bytes,
            storage_before,
            "migration made the leave storage-free"
        );
    }

    #[test]
    fn rejoin_serves_stale_warm_contents_and_readvertises_lazily() {
        let n = 30;
        let ds = dataset(n, 64);
        let cluster = minio_cluster(ds, 2, 64 * n);
        run_epoch(&cluster, n, 0, 2);
        cluster.kill_node(1);
        let dropped = n as usize - cluster.directory_len();
        assert!(dropped > 0);
        cluster.join_node(1);
        assert!(cluster.is_alive(1));
        // The rejoined node still holds its (immutable, thus valid) bytes:
        // fetching as node 1 is pure local hits, and each hit re-advertises
        // the item so the directory heals without storage traffic.
        let storage_before = cluster.aggregate_stats().storage_bytes;
        let sampler = EpochSampler::new(n, 42);
        for item in sampler.distributed_shard(0, 1, 2) {
            let (_, origin) = cluster.fetch(1, item).unwrap();
            assert_eq!(origin, FetchOrigin::LocalCache);
        }
        assert_eq!(cluster.aggregate_stats().storage_bytes, storage_before);
        assert_eq!(cluster.directory_len(), n as usize, "directory healed");
    }

    #[test]
    fn fault_plan_fires_on_the_fetch_step_axis() {
        let n = 20u64;
        let ds = dataset(n, 64);
        let cluster = minio_cluster(ds, 2, 64 * n);
        // Kill node 1 after one full epoch's worth of fetches.
        cluster.set_fault_plan(FaultPlan::new(vec![FaultEvent {
            at: n,
            node: 1,
            kind: FaultKind::Kill,
        }]));
        run_epoch(&cluster, n, 0, 2);
        assert!(
            cluster.is_alive(1),
            "epoch 0 is the guaranteed-healthy prefix"
        );
        assert_eq!(cluster.steps.load(Ordering::Relaxed), n);
        run_epoch(&cluster, n, 1, 2);
        assert!(!cluster.is_alive(1), "the plan killed node 1 in epoch 1");
        // Exactly-once accounting holds across the fault: every fetch was
        // served by exactly one origin.
        let agg = cluster.aggregate_stats();
        assert_eq!(
            agg.local_hits + agg.remote_hits + agg.storage_reads,
            2 * n,
            "each of the {n} items was fetched once per epoch"
        );
    }
}
