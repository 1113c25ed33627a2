//! One server's storage stack: a cache-tier chain in front of a device.

use crate::{AccessPattern, DeviceProfile, StorageDevice};
use dcache::{ChainSource, TierChain, TierSpec};
use simkit::SimTime;

/// Where a fetched unit ultimately came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// Served from the node's topmost software cache tier (page cache or
    /// MinIO) at DRAM bandwidth.
    Cache,
    /// Served from a lower cache tier `k >= 1` of the node's tier chain
    /// (e.g. a local-SSD spill tier) at that tier's modelled cost.
    LowerTier(usize),
    /// Read from the local storage device.
    Disk,
}

/// Cumulative per-node fetch accounting (resettable at epoch boundaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Bytes served from any cache tier of the chain.
    pub bytes_from_cache: u64,
    /// Bytes read from the device.
    pub bytes_from_disk: u64,
    /// Number of unit fetches served by some cache tier.
    pub cache_hits: u64,
    /// Number of unit fetches that went to the device.
    pub cache_misses: u64,
    /// Of `bytes_from_cache`, the bytes served by tiers below the topmost
    /// one (zero on a single-tier node).
    pub bytes_from_lower_tiers: u64,
    /// Of `cache_hits`, the hits served by tiers below the topmost one.
    pub lower_tier_hits: u64,
}

impl FetchStats {
    /// Fraction of fetches that missed the cache (0 when there were none).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_misses as f64 / total as f64
        }
    }

    /// Total bytes fetched.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_from_cache + self.bytes_from_disk
    }
}

/// A server's storage stack: a software cache-tier chain (page cache /
/// MinIO / DRAM-plus-SSD hierarchies, see [`dcache::TierChain`]) in front of
/// a storage device.
///
/// The node works in terms of *fetch units* (item files or record chunks, see
/// `coordl-dataset::StorageFormat`): `fetch` looks the unit up through the
/// chain, reads it from the device when every tier misses, and returns how
/// long the access takes in isolation together with its source.  A node
/// built with [`StorageNode::new`] has a single DRAM tier and behaves
/// bit-identically to the pre-hierarchy node.
pub struct StorageNode {
    device: StorageDevice,
    chain: TierChain,
    stats: FetchStats,
}

impl StorageNode {
    /// Create a node with a single DRAM cache tier of the given policy and
    /// capacity in front of the device (the classic one-cache stack).
    pub fn new(profile: DeviceProfile, policy: dcache::PolicyKind, cache_bytes: u64) -> Self {
        Self::with_tiers(
            profile,
            vec![TierSpec {
                name: "dram",
                policy,
                capacity_bytes: cache_bytes,
                cost: crate::profiles::dram_tier_cost(),
            }],
        )
    }

    /// Create a node with an explicit cache-tier chain (fastest first) in
    /// front of the device.
    pub fn with_tiers(profile: DeviceProfile, tiers: Vec<TierSpec>) -> Self {
        StorageNode {
            device: StorageDevice::new(profile),
            chain: TierChain::new(tiers),
            stats: FetchStats::default(),
        }
    }

    /// Fetch one unit of `bytes` bytes identified by `key`.
    ///
    /// Returns `(isolated_time, source)`.  The caller models bandwidth
    /// contention (dividing device throughput among concurrent jobs) by
    /// scaling the returned time.
    pub fn fetch(
        &mut self,
        at: SimTime,
        key: u64,
        bytes: u64,
        pattern: AccessPattern,
    ) -> (SimTime, FetchSource) {
        match self.chain.access(key, bytes).source {
            ChainSource::Tier(k) => {
                self.stats.bytes_from_cache += bytes;
                self.stats.cache_hits += 1;
                if k > 0 {
                    self.stats.bytes_from_lower_tiers += bytes;
                    self.stats.lower_tier_hits += 1;
                }
                let secs = self.chain.tier_cost(k).access_seconds(bytes);
                let source = if k == 0 {
                    FetchSource::Cache
                } else {
                    FetchSource::LowerTier(k)
                };
                (SimTime::from_secs(secs), source)
            }
            ChainSource::Store => {
                self.stats.bytes_from_disk += bytes;
                self.stats.cache_misses += 1;
                let t = self.device.read(at, bytes, pattern);
                (t, FetchSource::Disk)
            }
        }
    }

    /// Pre-populate the chain with `key` without touching the device, used to
    /// model datasets that are already resident (DS-Analyzer's warm-cache
    /// phase) or MinIO shards populated by a prior epoch.
    pub fn preload(&mut self, key: u64, bytes: u64) {
        let _ = self.chain.access(key, bytes);
    }

    /// Whether `key` is currently cached in any tier.
    pub fn is_cached(&self, key: &u64) -> bool {
        self.chain.contains(*key)
    }

    /// Administratively drop every cached key in `[start, end)` — a departed
    /// job's key window — from all tiers, returning the bytes freed.  No
    /// statistics are recorded (this is reclamation, not eviction).
    pub fn evict_keyspace(&mut self, start: u64, end: u64) -> u64 {
        self.chain.remove_range(start..end)
    }

    /// The underlying device (read-only access to counters/timeline).
    pub fn device(&self) -> &StorageDevice {
        &self.device
    }

    /// The node's cache-tier chain.
    pub fn chain(&self) -> &TierChain {
        &self.chain
    }

    /// Bytes currently resident across the chain's tiers.
    pub fn cache_used_bytes(&self) -> u64 {
        self.chain.used_bytes()
    }

    /// Cache capacity in bytes, summed across tiers.
    pub fn cache_capacity_bytes(&self) -> u64 {
        self.chain.capacity_bytes()
    }

    /// Per-node fetch statistics since the last [`reset_epoch_stats`].
    ///
    /// [`reset_epoch_stats`]: StorageNode::reset_epoch_stats
    pub fn fetch_stats(&self) -> FetchStats {
        self.stats
    }

    /// Reset per-epoch statistics (cache contents are preserved).
    pub fn reset_epoch_stats(&mut self) {
        self.stats = FetchStats::default();
        self.chain.reset_stats();
        self.device.reset_counters();
    }
}

impl std::fmt::Debug for StorageNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tiers: Vec<String> = (0..self.chain.num_tiers())
            .map(|k| {
                let spec = self.chain.tier_spec(k);
                format!("{}:{}", spec.name, spec.policy.name())
            })
            .collect();
        f.debug_struct("StorageNode")
            .field("device", self.device.profile())
            .field("tiers", &tiers)
            .field("cache_capacity", &self.chain.capacity_bytes())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcache::PolicyKind;

    #[test]
    fn first_access_misses_second_hits() {
        let mut node = StorageNode::new(DeviceProfile::sata_ssd(), PolicyKind::MinIo, 1 << 20);
        let (t1, s1) = node.fetch(SimTime::ZERO, 1, 1000, AccessPattern::Random);
        assert_eq!(s1, FetchSource::Disk);
        let (t2, s2) = node.fetch(SimTime::ZERO, 1, 1000, AccessPattern::Random);
        assert_eq!(s2, FetchSource::Cache);
        assert!(t2 < t1, "cache hits must be faster than device reads");
        assert_eq!(node.fetch_stats().cache_hits, 1);
        assert_eq!(node.fetch_stats().cache_misses, 1);
        assert_eq!(node.fetch_stats().bytes_from_disk, 1000);
        assert_eq!(node.fetch_stats().bytes_from_cache, 1000);
        assert_eq!(node.fetch_stats().lower_tier_hits, 0);
    }

    #[test]
    fn preload_avoids_disk_reads() {
        let mut node = StorageNode::new(DeviceProfile::hdd(), PolicyKind::MinIo, 1 << 20);
        node.preload(7, 500);
        let (_, src) = node.fetch(SimTime::ZERO, 7, 500, AccessPattern::Random);
        assert_eq!(src, FetchSource::Cache);
        assert_eq!(node.device().bytes_read(), 0);
    }

    #[test]
    fn lru_node_thrashes_but_minio_node_does_not() {
        // 100 items of 1 KB, cache of 50 KB, three random-order epochs.
        let items: Vec<u64> = (0..100).collect();
        let mut lru = StorageNode::new(DeviceProfile::sata_ssd(), PolicyKind::Lru, 50_000);
        let mut minio = StorageNode::new(DeviceProfile::sata_ssd(), PolicyKind::MinIo, 50_000);
        let order = |epoch: u64| -> Vec<u64> {
            items.iter().map(|&i| (i * 13 + epoch * 37) % 100).collect()
        };
        for &k in &order(0) {
            lru.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
            minio.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
        }
        lru.reset_epoch_stats();
        minio.reset_epoch_stats();
        for epoch in 1..4 {
            for &k in &order(epoch) {
                lru.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
                minio.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
            }
        }
        assert_eq!(minio.fetch_stats().cache_misses, 3 * 50);
        assert!(lru.fetch_stats().cache_misses >= minio.fetch_stats().cache_misses);
        assert!(lru.fetch_stats().bytes_from_disk >= minio.fetch_stats().bytes_from_disk);
    }

    #[test]
    fn reset_preserves_cache_contents() {
        let mut node = StorageNode::new(DeviceProfile::sata_ssd(), PolicyKind::MinIo, 10_000);
        node.fetch(SimTime::ZERO, 1, 1000, AccessPattern::Random);
        node.reset_epoch_stats();
        assert!(node.is_cached(&1));
        assert_eq!(node.fetch_stats().total_bytes(), 0);
        assert_eq!(node.cache_used_bytes(), 1000);
    }

    #[test]
    fn evict_keyspace_frees_one_jobs_window_and_forces_re_misses() {
        let mut node = StorageNode::new(DeviceProfile::sata_ssd(), PolicyKind::MinIo, 1 << 20);
        for k in (0..5u64).chain(1000..1005) {
            node.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
        }
        assert_eq!(node.cache_used_bytes(), 10_000);
        assert_eq!(node.evict_keyspace(1000, 2000), 5_000);
        node.reset_epoch_stats();
        for k in (0..5u64).chain(1000..1005) {
            node.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
        }
        // The surviving window still hits; the evicted one re-misses.
        assert_eq!(node.fetch_stats().cache_hits, 5);
        assert_eq!(node.fetch_stats().cache_misses, 5);
    }

    #[test]
    fn debug_format_mentions_policy() {
        let node = StorageNode::new(DeviceProfile::hdd(), PolicyKind::Lru, 10);
        let s = format!("{node:?}");
        assert!(s.contains("LRU"));
        assert!(s.contains("hdd"));
    }

    #[test]
    fn tiered_node_serves_spill_hits_from_the_ssd_tier() {
        // MinIO DRAM (3 items) over MinIO SSD (4 items), HDD durable store:
        // the chain extends reach to 7 of 10 items, and the per-source times
        // are ordered dram < ssd < hdd.
        let ssd = DeviceProfile::sata_ssd();
        let mut node = StorageNode::with_tiers(
            DeviceProfile::hdd(),
            vec![
                TierSpec {
                    name: "dram",
                    policy: PolicyKind::MinIo,
                    capacity_bytes: 3_000,
                    cost: crate::profiles::dram_tier_cost(),
                },
                TierSpec {
                    name: "ssd",
                    policy: PolicyKind::MinIo,
                    capacity_bytes: 4_000,
                    cost: ssd.tier_cost(AccessPattern::Random),
                },
            ],
        );
        for k in 0..10u64 {
            let (_, src) = node.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
            assert_eq!(src, FetchSource::Disk, "cold chain");
        }
        node.reset_epoch_stats();
        let mut dram_t = SimTime::ZERO;
        let mut ssd_t = SimTime::ZERO;
        let mut disk_t = SimTime::ZERO;
        for k in 0..10u64 {
            let (t, src) = node.fetch(SimTime::ZERO, k, 1000, AccessPattern::Random);
            match src {
                FetchSource::Cache => dram_t = t,
                FetchSource::LowerTier(1) => ssd_t = t,
                FetchSource::Disk => disk_t = t,
                other => panic!("unexpected source {other:?}"),
            }
        }
        let s = node.fetch_stats();
        assert_eq!(s.cache_hits, 7);
        assert_eq!(s.lower_tier_hits, 4);
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.bytes_from_cache, 7_000);
        assert_eq!(s.bytes_from_lower_tiers, 4_000);
        assert!(
            dram_t < ssd_t && ssd_t < disk_t,
            "{dram_t:?} {ssd_t:?} {disk_t:?}"
        );
        // Only real device reads touch the durable store's counters.
        assert_eq!(node.device().bytes_read(), 3_000);
    }
}
