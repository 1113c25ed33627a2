//! The multi-tenant CoorDL server: many concurrent [`Session`]s over one
//! shared cache hierarchy.
//!
//! The paper's coordination story (§4.3, §5) assumes a fixed set of jobs;
//! production serving means jobs arriving and departing continuously against
//! one DRAM→SSD hierarchy.  A [`Server`] owns a single sharded
//! [`TieredByteCache`] — the same hierarchy every [`Session`] builds for
//! itself — and admits workloads dynamically:
//!
//! * [`Server::submit`] builds a [`Session`] whose cache tier is a
//!   [`TenantView`] — a per-tenant window onto the shared hierarchy with a
//!   disjoint key namespace and private hit/miss accounting;
//! * each tenant holds a **DRAM byte quota**: once its resident DRAM bytes
//!   would exceed the quota, further admissions spill to the lower tiers
//!   (the admission *floor* rises) instead of taking shared DRAM;
//! * when active quotas oversubscribe the DRAM tier, every tenant's
//!   *effective* quota is scaled to its **fair share**
//!   (`quota_i · capacity / Σ quota`), recomputed on every arrival and
//!   departure;
//! * dropping (or [`TenantHandle::depart`]-ing) a handle removes the
//!   tenant's keys from every tier, so its bytes are immediately reusable.
//!
//! The server is restricted to **MinIO tiers**: never-evict and never-demote
//! means no tenant's admission can displace another's bytes, per-tenant
//! accounting is exact (no eviction callbacks needed), and — because a
//! tenant whose DRAM quota is exhausted produces *exactly* the same chain
//! transactions as a MinIO tier that is full — a one-tenant server is
//! bit-identical to a standalone session (pinned by
//! `tests/server_equivalence.rs`).
//!
//! Ownership and concurrency: the cache owns payloads, residency, spill
//! files and the shared statistics — one shard lock covers all of them —
//! while a [`TenantView`] owns only its key offset, its quota arithmetic
//! and its private counters.  Every per-key operation locks the tenant's
//! counters, then the key's cache shard (a strict order, so tenants never
//! deadlock).  All of these are `parking_lot` mutexes, which do not poison:
//! one tenant's panicking worker cannot take the server down.

use crate::error::CoordlError;
use crate::report::{LoaderReport, TenantReport};
use crate::session::{Mode, Session, SessionConfig};
use crate::tier::{Admission, ByteTierSpec, CacheTier, TierSnapshot, TieredByteCache};
use dataset::{DataSource, ItemId};
use dcache::PolicyKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::DeviceProfile;

/// Each tenant's keys live in a private `KEY_STRIDE`-sized window of the
/// shared `u64` key space, so tenants can never collide on a chain key and a
/// departed tenant's window is never reused (ids are monotonic).
const KEY_STRIDE: u64 = 1 << 40;

/// Configuration of a [`Server`]'s shared hierarchy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Tier layout shared by every tenant, fastest (DRAM) first.  Every
    /// level must use [`PolicyKind::MinIo`] (see the [module docs](self)).
    pub tiers: Vec<ByteTierSpec>,
    /// Number of independently locked shards the hierarchy is split into
    /// (1 = a single lock, bit-identical to the single-owner chain).  A
    /// persistent level of a server with `shards > 1` spills into
    /// `{dir}/shard-{k}`, exactly as a sharded [`Session`] does (1 shard
    /// keeps the flat layout); the directory is a cache, so a server
    /// restarted over another layout or shard count simply starts cold.
    pub shards: usize,
}

impl ServerConfig {
    /// A single shared MinIO DRAM tier of `capacity_bytes` split into
    /// `shards` locks.
    pub fn minio(capacity_bytes: u64, shards: usize) -> Self {
        ServerConfig {
            tiers: vec![ByteTierSpec::dram(PolicyKind::MinIo, capacity_bytes)],
            shards,
        }
    }
}

/// A workload submitted to [`Server::submit`].
pub struct TenantSpec {
    /// Tenant name, used in reports.
    pub name: String,
    /// The tenant's dataset.
    pub dataset: Arc<dyn DataSource>,
    /// DRAM-tier byte quota: admissions beyond it spill to lower tiers.
    pub quota_bytes: u64,
    /// Per-session knobs (batch size, workers, seed, ...).  The session's
    /// `cache_capacity_bytes` is ignored — capacity belongs to the server.
    pub session: SessionConfig,
    /// Optional device profile timing the tenant's backend reads.
    pub profile: Option<DeviceProfile>,
}

/// Per-tenant cache accounting, updated under the tenant's own mutex.
///
/// Per-tenant operations are serial ([`Server::submit`] enforces that each
/// session fetches on one thread), so this lock is uncontended in steady
/// state; it exists so [`Server`]-side readers (fair-share reports,
/// invariant checks) see consistent numbers.
#[derive(Debug, Default)]
struct TenantCounters {
    hits: u64,
    misses: u64,
    /// Bytes this tenant holds in the DRAM (topmost) tier.
    dram_bytes: u64,
    /// Bytes this tenant holds across all tiers (a promoted key's copies
    /// count once per level, matching `TierChain::used_bytes`).
    total_bytes: u64,
    resident_items: usize,
    level_hits: Vec<u64>,
    level_misses: Vec<u64>,
    level_seconds: Vec<f64>,
}

impl TenantCounters {
    fn new(levels: usize) -> Self {
        TenantCounters {
            level_hits: vec![0; levels],
            level_misses: vec![0; levels],
            level_seconds: vec![0.0; levels],
            ..TenantCounters::default()
        }
    }
}

/// State shared between a tenant's [`TenantView`] and its [`TenantHandle`].
struct TenantShared {
    id: u64,
    name: String,
    key_base: u64,
    quota_bytes: u64,
    /// Quota after fair-share scaling; written under the registry lock,
    /// read on the fetch path.
    effective_quota: AtomicU64,
    counters: Mutex<TenantCounters>,
}

struct ServerInner {
    cache: Arc<TieredByteCache>,
    registry: Mutex<Vec<Arc<TenantShared>>>,
    next_id: AtomicU64,
}

/// Recompute every active tenant's effective quota.  Called under the
/// registry lock on each arrival and departure.
fn recompute_shares(cache: &TieredByteCache, tenants: &[Arc<TenantShared>]) {
    let dram_capacity = cache.specs()[0].capacity_bytes;
    let total: u128 = tenants.iter().map(|t| t.quota_bytes as u128).sum();
    for t in tenants {
        let effective = if total <= dram_capacity as u128 {
            t.quota_bytes
        } else {
            // Oversubscribed: proportional fair share of the DRAM tier.
            ((t.quota_bytes as u128 * dram_capacity as u128) / total) as u64
        };
        t.effective_quota.store(effective, Ordering::Release);
    }
}

/// One tenant's window onto the shared hierarchy: a [`CacheTier`] whose keys
/// are offset into the tenant's private namespace and whose hit/miss/byte
/// counters are private, while residency decisions and capacity are shared.
pub struct TenantView {
    cache: Arc<TieredByteCache>,
    tenant: Arc<TenantShared>,
}

impl TenantView {
    fn key(&self, item: ItemId) -> u64 {
        self.tenant.key_base + item
    }

    /// The admission floor for a `size`-byte item given the tenant's
    /// resident `dram_bytes`: 0 (DRAM allowed) while the tenant is within
    /// its effective quota, 1 (spill below) otherwise.
    ///
    /// For a lone tenant whose quota is the DRAM capacity this is the same
    /// arithmetic as MinIO's internal `used + size <= capacity` check, and a
    /// floor-1 bypass records the same level-0 statistics as a MinIO
    /// admission refusal — the root of the one-tenant bitwise equivalence.
    fn admission_floor(&self, dram_bytes: u64, size: u64) -> usize {
        let quota = self.tenant.effective_quota.load(Ordering::Acquire);
        usize::from(dram_bytes + size > quota)
    }
}

/// Account a new resident copy (first admission or a promotion copy).
fn record_copy(counters: &mut TenantCounters, level: usize, size: u64) {
    if level == 0 {
        counters.dram_bytes += size;
    }
    counters.total_bytes += size;
}

impl CacheTier for TenantView {
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
        self.lookup_traced(item).map(|(bytes, _)| bytes)
    }

    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        let mut counters = self.tenant.counters.lock();
        let dram_bytes = counters.dram_bytes;
        let Some(hit) = self.cache.lookup_with_floor(self.key(item), |size| {
            self.admission_floor(dram_bytes, size)
        }) else {
            counters.misses += 1;
            return None;
        };
        counters.hits += 1;
        if let Some(level) = hit.landed {
            // A hit below DRAM was promoted: one more resident copy.
            record_copy(&mut counters, level, hit.bytes.len() as u64);
        }
        counters.level_hits[hit.level] += 1;
        for miss in &mut counters.level_misses[..hit.level] {
            *miss += 1;
        }
        counters.level_seconds[hit.level] += hit.device_seconds;
        Some((hit.bytes, hit.level))
    }

    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let mut counters = self.tenant.counters.lock();
        let size = bytes.len() as u64;
        let floor = self.admission_floor(counters.dram_bytes, size);
        let (bytes, outcome) = self.cache.admit_with_floor(self.key(item), bytes, floor);
        if let Admission::Raced = outcome {
            return bytes;
        }
        // The chain consulted (and missed) every level.
        for miss in &mut counters.level_misses {
            *miss += 1;
        }
        if let Admission::Landed(level) = outcome {
            record_copy(&mut counters, level, size);
            counters.resident_items += 1;
        }
        bytes
    }

    fn flush(&self) -> Result<(), CoordlError> {
        self.cache.flush()
    }

    fn contains(&self, item: ItemId) -> bool {
        self.cache.contains(self.key(item))
    }

    fn used_bytes(&self) -> u64 {
        self.tenant.counters.lock().total_bytes
    }

    fn capacity_bytes(&self) -> u64 {
        // Capacity is shared: every tenant sees the full hierarchy.
        self.cache.capacity_bytes()
    }

    fn resident_items(&self) -> usize {
        self.tenant.counters.lock().resident_items
    }

    fn hits(&self) -> u64 {
        self.tenant.counters.lock().hits
    }

    fn misses(&self) -> u64 {
        self.tenant.counters.lock().misses
    }

    fn policy_name(&self) -> &'static str {
        self.cache.policy_name()
    }

    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        let counters = self.tenant.counters.lock();
        // Capacity and occupancy describe the *shared* level; hits, misses
        // and device time are this tenant's own.
        let mut snaps = self.cache.tier_snapshots();
        for (k, snap) in snaps.iter_mut().enumerate() {
            snap.hits = counters.level_hits[k];
            snap.misses = counters.level_misses[k];
            snap.device_seconds = counters.level_seconds[k];
        }
        snaps
    }
}

/// A long-lived multi-tenant runtime: one shared [`TieredByteCache`]
/// hierarchy, dynamically admitted [`Session`]s.  See the [module docs](self).
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Build a server over `config`'s shared hierarchy.
    ///
    /// Fails with [`CoordlError::InvalidConfig`] when the tier list is
    /// empty, a level uses a policy other than MinIO, or `shards` is zero.
    pub fn new(config: ServerConfig) -> Result<Self, CoordlError> {
        if let Some(bad) = config.tiers.iter().find(|t| t.policy != PolicyKind::MinIo) {
            return Err(CoordlError::InvalidConfig(format!(
                "multi-tenant tiers must use MinIO (never-evict) so tenants \
                 cannot displace each other; tier '{}' uses {}",
                bad.name,
                bad.policy.name()
            )));
        }
        // Persistent levels warm the shared hierarchy from their manifests.
        // Keys carry their original tenant-window offsets, and tenant ids
        // restart from zero, so a resubmitted workload lines up with its
        // warmed window.  Warmed bytes are not charged to any tenant's quota
        // until that tenant touches them (a DRAM promotion is accounted as
        // usual).
        let cache = TieredByteCache::try_new_sharded(config.tiers, config.shards)?;
        Ok(Server {
            inner: Arc::new(ServerInner {
                cache: Arc::new(cache),
                registry: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(0),
            }),
        })
    }

    /// Admit a tenant: build its [`Session`] over a [`TenantView`] of the
    /// shared hierarchy, register it, and rebalance fair shares.
    pub fn submit(&self, spec: TenantSpec) -> Result<TenantHandle, CoordlError> {
        if spec.name.is_empty() {
            return Err(CoordlError::InvalidConfig(
                "tenant name must not be empty".into(),
            ));
        }
        if spec.dataset.len() > KEY_STRIDE {
            return Err(CoordlError::InvalidConfig(format!(
                "tenant dataset has {} items; the per-tenant key window holds {KEY_STRIDE}",
                spec.dataset.len()
            )));
        }
        if spec.session.fetch_threads > 1 {
            // The quota counter is tenant-wide and the session's fetch-pool
            // ownership map hashes `item`, not `key_base + item`: concurrent
            // admissions would make residency depend on thread timing.
            return Err(CoordlError::InvalidConfig(format!(
                "tenant session.fetch_threads must be 1 (got {}): a tenant's \
                 quota accounting is serial",
                spec.session.fetch_threads
            )));
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let key_base = id
            .checked_mul(KEY_STRIDE)
            .ok_or_else(|| CoordlError::InvalidConfig("tenant id space exhausted".into()))?;
        let tenant = Arc::new(TenantShared {
            id,
            name: spec.name,
            key_base,
            quota_bytes: spec.quota_bytes,
            effective_quota: AtomicU64::new(spec.quota_bytes),
            counters: Mutex::new(TenantCounters::new(self.inner.cache.specs().len())),
        });
        let view = TenantView {
            cache: Arc::clone(&self.inner.cache),
            tenant: Arc::clone(&tenant),
        };
        // Build the session *before* registering, so a config error leaves
        // the server untouched.
        let mut builder = Session::builder(spec.dataset, spec.session)
            .mode(Mode::Single)
            .cache_tier(Arc::new(view));
        if let Some(profile) = spec.profile {
            builder = builder.device_profile(profile);
        }
        let session = builder.build()?;
        {
            let mut registry = self.inner.registry.lock();
            registry.push(Arc::clone(&tenant));
            recompute_shares(&self.inner.cache, &registry);
        }
        Ok(TenantHandle {
            session,
            tenant,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Number of currently active tenants.
    pub fn active_tenants(&self) -> usize {
        self.inner.registry.lock().len()
    }

    /// Aggregate hit ratio of the shared hierarchy over every fetch any
    /// tenant ever issued (departures do not reset it) — the number the
    /// `validate` figure row's churn scenario compares against the
    /// simulator.
    pub fn aggregate_hit_ratio(&self) -> f64 {
        let hits = self.inner.cache.hits();
        let total = hits + self.inner.cache.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Bytes resident across all tiers and tenants.
    pub fn used_bytes(&self) -> u64 {
        self.inner.cache.used_bytes()
    }

    /// Bytes resident in the DRAM tier across all tenants.
    pub fn dram_used_bytes(&self) -> u64 {
        self.inner.cache.tier_snapshots()[0].used_bytes
    }

    /// Total capacity of the shared hierarchy.
    pub fn capacity_bytes(&self) -> u64 {
        self.inner.cache.capacity_bytes()
    }

    /// Capacity of the DRAM tier.
    pub fn dram_capacity_bytes(&self) -> u64 {
        self.inner.cache.specs()[0].capacity_bytes
    }

    /// Distinct items resident across all tiers and tenants.
    pub fn resident_items(&self) -> usize {
        self.inner.cache.resident_items()
    }

    /// Number of lock shards of the shared hierarchy.
    pub fn num_shards(&self) -> usize {
        self.inner.cache.num_shards()
    }
}

/// An admitted tenant: owns the tenant's [`Session`] and, on drop (or
/// [`TenantHandle::depart`]), deregisters the tenant and reclaims every
/// byte it held in the shared hierarchy.
pub struct TenantHandle {
    session: Session,
    tenant: Arc<TenantShared>,
    inner: Arc<ServerInner>,
}

impl TenantHandle {
    /// The tenant's session.  `session().epoch(e)` borrows the handle, so a
    /// tenant cannot depart while one of its epochs is still running.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.tenant.name
    }

    /// The DRAM quota requested at submission.
    pub fn quota_bytes(&self) -> u64 {
        self.tenant.quota_bytes
    }

    /// The quota currently granted after fair-share scaling.
    pub fn effective_quota_bytes(&self) -> u64 {
        self.tenant.effective_quota.load(Ordering::Acquire)
    }

    /// Bytes this tenant holds in the DRAM tier.
    pub fn dram_resident_bytes(&self) -> u64 {
        self.tenant.counters.lock().dram_bytes
    }

    /// Bytes this tenant holds across all tiers.
    pub fn resident_bytes(&self) -> u64 {
        self.tenant.counters.lock().total_bytes
    }

    /// The session's [`LoaderReport`] with the tenant block filled in.
    pub fn report(&self) -> LoaderReport {
        let mut report = self.session.report();
        report.tenant = Some(TenantReport {
            name: self.tenant.name.clone(),
            quota_bytes: self.tenant.quota_bytes,
            effective_quota_bytes: self.effective_quota_bytes(),
            dram_resident_bytes: self.dram_resident_bytes(),
            resident_bytes: self.resident_bytes(),
        });
        report
    }

    /// Leave the server: deregister, rebalance the remaining tenants'
    /// shares, and release every cached byte.  Equivalent to dropping the
    /// handle, spelled out for call sites that depart mid-function.
    pub fn depart(self) {}
}

impl Drop for TenantHandle {
    fn drop(&mut self) {
        // Deregister first so rebalancing stops counting this tenant.
        {
            let mut registry = self.inner.registry.lock();
            registry.retain(|t| t.id != self.tenant.id);
            recompute_shares(&self.inner.cache, &registry);
        }
        // Reclaim the tenant's key window.  A clean departure retires the
        // tenant's persisted copies too; only a crash (no drop) leaves the
        // manifest behind for the next server to warm from.
        self.inner
            .cache
            .remove_range(self.tenant.key_base..self.tenant.key_base.saturating_add(KEY_STRIDE));
        let mut counters = self.tenant.counters.lock();
        counters.dram_bytes = 0;
        counters.total_bytes = 0;
        counters.resident_items = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{DatasetSpec, SyntheticItemStore};

    fn store(name: &'static str, items: u64, avg: u64) -> Arc<dyn DataSource> {
        Arc::new(SyntheticItemStore::new(
            DatasetSpec::new(name, items, avg, 0.0, 4.0),
            11,
        ))
    }

    fn spec(name: &str, items: u64, quota: u64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            dataset: store("srv", items, 64),
            quota_bytes: quota,
            session: SessionConfig {
                batch_size: 8,
                cache_capacity_bytes: 0, // ignored: capacity is the server's
                ..SessionConfig::default()
            },
            profile: None,
        }
    }

    fn run_epochs(handle: &TenantHandle, epochs: u64) {
        for e in 0..epochs {
            let run = handle.session().epoch(e);
            assert!(run.stream(0).all(|mb| mb.is_ok()));
        }
    }

    #[test]
    fn non_minio_tiers_are_rejected() {
        let Err(err) = Server::new(ServerConfig {
            tiers: vec![ByteTierSpec::dram(PolicyKind::Lru, 1 << 20)],
            shards: 2,
        }) else {
            panic!("LRU tier must be rejected");
        };
        assert!(matches!(err, CoordlError::InvalidConfig(_)));
        assert!(err.to_string().contains("MinIO"));
        // Zero shards and an empty tier list are the cache constructor's own
        // typed errors, passed through.
        let no_tiers = ServerConfig {
            tiers: vec![],
            shards: 1,
        };
        for bad in [ServerConfig::minio(1 << 20, 0), no_tiers] {
            let err = Server::new(bad).err().expect("rejected");
            assert!(matches!(err, CoordlError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn quotas_cap_each_tenants_dram_bytes() {
        let server = Server::new(ServerConfig::minio(1 << 20, 2)).unwrap();
        let tenant = server.submit(spec("small", 64, 1000)).unwrap();
        run_epochs(&tenant, 2);
        assert!(tenant.dram_resident_bytes() <= 1000);
        // Items are 64 bytes: the quota actually binds well below the tier.
        assert!(tenant.dram_resident_bytes() > 0);
        assert!(server.dram_used_bytes() <= server.dram_capacity_bytes());
    }

    #[test]
    fn oversubscribed_quotas_scale_to_fair_shares_and_recover_on_departure() {
        let server = Server::new(ServerConfig::minio(1000, 1)).unwrap();
        let a = server.submit(spec("a", 16, 900)).unwrap();
        assert_eq!(a.effective_quota_bytes(), 900, "alone: full quota");
        let b = server.submit(spec("b", 16, 600)).unwrap();
        // 1500 requested over 1000: proportional shares.
        assert_eq!(a.effective_quota_bytes(), 900 * 1000 / 1500);
        assert_eq!(b.effective_quota_bytes(), 600 * 1000 / 1500);
        assert_eq!(server.active_tenants(), 2);
        b.depart();
        assert_eq!(server.active_tenants(), 1);
        assert_eq!(
            a.effective_quota_bytes(),
            900,
            "shares rebalance on departure"
        );
    }

    #[test]
    fn departure_reclaims_bytes_and_leaves_other_tenants_intact() {
        let server = Server::new(ServerConfig::minio(1 << 20, 4)).unwrap();
        let a = server.submit(spec("a", 32, 1 << 20)).unwrap();
        let b = server.submit(spec("b", 32, 1 << 20)).unwrap();
        run_epochs(&a, 1);
        run_epochs(&b, 1);
        let a_bytes = a.resident_bytes();
        let b_bytes = b.resident_bytes();
        assert!(a_bytes > 0 && b_bytes > 0);
        assert_eq!(server.used_bytes(), a_bytes + b_bytes);
        a.depart();
        assert_eq!(server.used_bytes(), b_bytes, "a's bytes reclaimed");
        assert_eq!(server.resident_items(), 32, "b's items intact");
        // b still hits everything it cached.
        let before = b.session().stats().bytes_from_storage();
        run_epochs(&b, 1);
        assert_eq!(
            b.session().stats().bytes_from_storage(),
            before,
            "b's second epoch is all hits"
        );
    }

    #[test]
    fn tenants_never_observe_each_others_items() {
        let server = Server::new(ServerConfig::minio(1 << 20, 2)).unwrap();
        let a = server.submit(spec("a", 16, 1 << 20)).unwrap();
        let b = server.submit(spec("b", 16, 1 << 20)).unwrap();
        run_epochs(&a, 1);
        // a cached its whole dataset; b has touched nothing, so b's view
        // must report every one of its own items absent.
        let b_tier = b.session().cache_tier().unwrap();
        for item in 0..16 {
            assert!(!b_tier.contains(item), "item {item} leaked to b");
        }
        assert_eq!(b.resident_bytes(), 0);
        assert!(a.resident_bytes() > 0);
    }

    #[test]
    fn zero_quota_spills_everything_out_of_dram() {
        // Single-tier server + zero quota: nothing is ever admitted, every
        // epoch re-reads storage (floor 1 on a 1-level chain bypasses all).
        let server = Server::new(ServerConfig::minio(1 << 20, 1)).unwrap();
        let t = server.submit(spec("cold", 16, 0)).unwrap();
        run_epochs(&t, 2);
        assert_eq!(t.resident_bytes(), 0);
        assert_eq!(server.used_bytes(), 0);
        let stats = t.session().stats();
        assert_eq!(stats.bytes_from_cache(), 0);
        assert!(stats.bytes_from_storage() > 0);
    }

    #[test]
    fn persistent_ssd_tier_survives_a_crashed_server() {
        use vfs::{MemVfs, Vfs};
        let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let tiers = |fs: &Arc<dyn Vfs>| {
            vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 1 << 20),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 1 << 20)
                    .persistent(Arc::clone(fs), "srv-ssd"),
            ]
        };
        let server = Server::new(ServerConfig {
            tiers: tiers(&fs),
            shards: 2,
        })
        .unwrap();
        // Zero DRAM quota: every admission lands in the persistent SSD level.
        let tenant = server.submit(spec("cold", 16, 0)).unwrap();
        run_epochs(&tenant, 1);
        assert!(tenant.resident_bytes() > 0);
        assert_eq!(server.dram_used_bytes(), 0);
        // Crash: the handle is leaked (no departure cleanup runs) and the
        // server is dropped with the SSD manifest still on the VFS.
        std::mem::forget(tenant);
        drop(server);
        let server = Server::new(ServerConfig {
            tiers: tiers(&fs),
            shards: 2,
        })
        .unwrap();
        assert_eq!(server.resident_items(), 16, "SSD tier warmed from disk");
        assert_eq!(server.dram_used_bytes(), 0);
        // Tenant ids restart from zero, so the resubmitted workload lands in
        // its old key window and every fetch hits the warmed tier.
        let tenant = server.submit(spec("cold", 16, 0)).unwrap();
        run_epochs(&tenant, 1);
        assert_eq!(tenant.session().stats().bytes_from_storage(), 0);
        assert!(tenant.session().stats().bytes_from_cache() > 0);
        // A clean departure retires the persisted copies.
        tenant.depart();
        let server2 = Server::new(ServerConfig {
            tiers: tiers(&fs),
            shards: 2,
        })
        .unwrap();
        assert_eq!(server2.resident_items(), 0, "departure cleared the spill");
    }

    #[test]
    fn fetch_pools_are_rejected_before_the_tenant_registers() {
        let server = Server::new(ServerConfig::minio(1 << 20, 4)).unwrap();
        let _resident = server.submit(spec("serial", 16, 1 << 20)).unwrap();
        let mut pooled = spec("pooled", 16, 1 << 20);
        pooled.session.fetch_threads = 2;
        let Err(err) = server.submit(pooled) else {
            panic!("a tenant fetch pool must be rejected");
        };
        assert!(matches!(err, CoordlError::InvalidConfig(_)));
        assert!(err.to_string().contains("fetch_threads"), "{err}");
        assert_eq!(server.active_tenants(), 1, "nothing was registered");
    }

    #[test]
    fn report_carries_the_tenant_block() {
        let server = Server::new(ServerConfig::minio(1 << 20, 1)).unwrap();
        let t = server.submit(spec("observed", 16, 4096)).unwrap();
        run_epochs(&t, 1);
        let report = t.report();
        assert!(report.to_json().contains("\"tenant\""));
        let tenant = report.tenant.expect("server sessions report tenancy");
        assert_eq!(tenant.name, "observed");
        assert_eq!(tenant.quota_bytes, 4096);
        assert_eq!(tenant.effective_quota_bytes, 4096);
        assert_eq!(tenant.resident_bytes, t.resident_bytes());
        // A standalone session still reports no tenancy.
        assert!(t.session().report().tenant.is_none());
    }
}
