//! Cache replacement policies.
//!
//! * [`LruCache`] — least-recently-used, the stand-in for the Linux page
//!   cache used by PyTorch/TensorFlow/DALI (§3.3.1 of the paper).
//! * [`FifoCache`] — first-in-first-out, a simpler page-cache variant.
//! * [`ClockCache`] — the CLOCK approximation of LRU (one reference bit).
//! * [`MinIoCache`] — CoorDL's DNN-aware policy (§4.1): admit until full,
//!   never evict.  Every epoch after the first gets exactly as many hits as
//!   there are resident items, which is the minimum possible per-epoch disk
//!   I/O for a uniform-random access pattern.

use crate::stats::{AccessOutcome, CacheStats};
use crate::Cache;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Which cache replacement policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used (OS page cache stand-in).
    Lru,
    /// First in, first out.
    Fifo,
    /// CLOCK (second-chance) approximation of LRU.
    Clock,
    /// CoorDL's MinIO: fill once, never evict.
    MinIo,
}

impl PolicyKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Clock => "CLOCK",
            PolicyKind::MinIo => "MinIO",
        }
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// A byte-capacity LRU cache.
///
/// Recency is tracked with a monotonically increasing tick; eviction removes
/// the entry with the smallest tick. This is `O(log n)` per access and keeps
/// the implementation dependency-free.
#[derive(Debug, Clone)]
pub struct LruCache<K: Hash + Eq + Clone> {
    capacity: u64,
    used: u64,
    entries: HashMap<K, LruEntry>,
    order: BTreeMap<u64, K>,
    tick: u64,
    stats: CacheStats,
    evicted_keys: Vec<K>,
    track_evictions: bool,
}

#[derive(Debug, Clone)]
struct LruEntry {
    size: u64,
    tick: u64,
}

impl<K: Hash + Eq + Clone> LruCache<K> {
    /// Create an LRU cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity: capacity_bytes,
            used: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            evicted_keys: Vec::new(),
            track_evictions: false,
        }
    }

    fn touch(&mut self, key: &K) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(key) {
            self.order.remove(&e.tick);
            e.tick = self.tick;
            self.order.insert(self.tick, key.clone());
        }
    }

    fn evict_until_fits(&mut self, incoming: u64) -> u64 {
        let mut evicted = 0;
        while self.used + incoming > self.capacity {
            let Some((&oldest_tick, _)) = self.order.iter().next() else {
                break;
            };
            let key = self.order.remove(&oldest_tick).expect("tick present");
            if let Some(e) = self.entries.remove(&key) {
                self.used -= e.size;
                evicted += 1;
                if self.track_evictions {
                    self.evicted_keys.push(key);
                }
            }
        }
        evicted
    }
}

impl<K: Hash + Eq + Clone> Cache<K> for LruCache<K> {
    fn access(&mut self, key: K, size: u64) -> AccessOutcome {
        if self.entries.contains_key(&key) {
            self.touch(&key);
            self.stats.record_hit(size);
            return AccessOutcome::Hit;
        }
        if size > self.capacity {
            self.stats.record_miss(size, false);
            return AccessOutcome::Bypassed;
        }
        let evicted = self.evict_until_fits(size);
        self.stats.record_evictions(evicted);
        self.tick += 1;
        self.entries.insert(
            key.clone(),
            LruEntry {
                size,
                tick: self.tick,
            },
        );
        self.order.insert(self.tick, key);
        self.used += size;
        self.stats.record_miss(size, true);
        AccessOutcome::Inserted
    }

    fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn name(&self) -> &'static str {
        PolicyKind::Lru.name()
    }

    fn remove(&mut self, key: &K) -> Option<u64> {
        let entry = self.entries.remove(key)?;
        self.order.remove(&entry.tick);
        self.used -= entry.size;
        Some(entry.size)
    }

    fn set_eviction_tracking(&mut self, enabled: bool) {
        self.track_evictions = enabled;
        if !enabled {
            self.evicted_keys.clear();
        }
    }

    fn take_evicted(&mut self) -> Vec<K> {
        std::mem::take(&mut self.evicted_keys)
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// A byte-capacity FIFO cache: evicts in insertion order, hits do not promote.
#[derive(Debug, Clone)]
pub struct FifoCache<K: Hash + Eq + Clone> {
    capacity: u64,
    used: u64,
    sizes: HashMap<K, u64>,
    queue: VecDeque<K>,
    stats: CacheStats,
    evicted_keys: Vec<K>,
    track_evictions: bool,
}

impl<K: Hash + Eq + Clone> FifoCache<K> {
    /// Create a FIFO cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        FifoCache {
            capacity: capacity_bytes,
            used: 0,
            sizes: HashMap::new(),
            queue: VecDeque::new(),
            stats: CacheStats::default(),
            evicted_keys: Vec::new(),
            track_evictions: false,
        }
    }
}

impl<K: Hash + Eq + Clone> Cache<K> for FifoCache<K> {
    fn access(&mut self, key: K, size: u64) -> AccessOutcome {
        if self.sizes.contains_key(&key) {
            self.stats.record_hit(size);
            return AccessOutcome::Hit;
        }
        if size > self.capacity {
            self.stats.record_miss(size, false);
            return AccessOutcome::Bypassed;
        }
        let mut evicted = 0;
        while self.used + size > self.capacity {
            let Some(victim) = self.queue.pop_front() else {
                break;
            };
            if let Some(s) = self.sizes.remove(&victim) {
                self.used -= s;
                evicted += 1;
                if self.track_evictions {
                    self.evicted_keys.push(victim);
                }
            }
        }
        self.stats.record_evictions(evicted);
        self.sizes.insert(key.clone(), size);
        self.queue.push_back(key);
        self.used += size;
        self.stats.record_miss(size, true);
        AccessOutcome::Inserted
    }

    fn contains(&self, key: &K) -> bool {
        self.sizes.contains_key(key)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn len(&self) -> usize {
        self.sizes.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn name(&self) -> &'static str {
        PolicyKind::Fifo.name()
    }

    fn remove(&mut self, key: &K) -> Option<u64> {
        let size = self.sizes.remove(key)?;
        // Removals are rare lifecycle events, so the O(n) queue purge beats
        // leaving a stale key that would mis-order a later re-insertion.
        self.queue.retain(|queued| queued != key);
        self.used -= size;
        Some(size)
    }

    fn set_eviction_tracking(&mut self, enabled: bool) {
        self.track_evictions = enabled;
        if !enabled {
            self.evicted_keys.clear();
        }
    }

    fn take_evicted(&mut self) -> Vec<K> {
        std::mem::take(&mut self.evicted_keys)
    }
}

// ---------------------------------------------------------------------------
// CLOCK
// ---------------------------------------------------------------------------

/// A byte-capacity CLOCK (second-chance) cache.
///
/// Entries sit on a circular list with one reference bit; a hit sets the bit,
/// eviction sweeps the hand, clearing bits until it finds an unreferenced
/// victim.  This is the textbook approximation used by real page caches.
#[derive(Debug, Clone)]
pub struct ClockCache<K: Hash + Eq + Clone> {
    capacity: u64,
    used: u64,
    ring: Vec<ClockSlot<K>>,
    index: HashMap<K, usize>,
    hand: usize,
    stats: CacheStats,
    evicted_keys: Vec<K>,
    track_evictions: bool,
}

#[derive(Debug, Clone)]
struct ClockSlot<K> {
    key: K,
    size: u64,
    referenced: bool,
}

impl<K: Hash + Eq + Clone> ClockCache<K> {
    /// Create a CLOCK cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        ClockCache {
            capacity: capacity_bytes,
            used: 0,
            ring: Vec::new(),
            index: HashMap::new(),
            hand: 0,
            stats: CacheStats::default(),
            evicted_keys: Vec::new(),
            track_evictions: false,
        }
    }

    fn evict_one(&mut self) -> bool {
        if self.ring.is_empty() {
            return false;
        }
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            if self.ring[self.hand].referenced {
                self.ring[self.hand].referenced = false;
                self.hand += 1;
            } else {
                let slot = self.ring.swap_remove(self.hand);
                self.index.remove(&slot.key);
                // The element swapped into `hand` needs its index fixed.
                if self.hand < self.ring.len() {
                    let moved_key = self.ring[self.hand].key.clone();
                    self.index.insert(moved_key, self.hand);
                }
                self.used -= slot.size;
                if self.track_evictions {
                    self.evicted_keys.push(slot.key);
                }
                return true;
            }
        }
    }
}

impl<K: Hash + Eq + Clone> Cache<K> for ClockCache<K> {
    fn access(&mut self, key: K, size: u64) -> AccessOutcome {
        if let Some(&pos) = self.index.get(&key) {
            self.ring[pos].referenced = true;
            self.stats.record_hit(size);
            return AccessOutcome::Hit;
        }
        if size > self.capacity {
            self.stats.record_miss(size, false);
            return AccessOutcome::Bypassed;
        }
        let mut evicted = 0;
        while self.used + size > self.capacity {
            if self.evict_one() {
                evicted += 1;
            } else {
                break;
            }
        }
        self.stats.record_evictions(evicted);
        self.ring.push(ClockSlot {
            key: key.clone(),
            size,
            referenced: false,
        });
        self.index.insert(key, self.ring.len() - 1);
        self.used += size;
        self.stats.record_miss(size, true);
        AccessOutcome::Inserted
    }

    fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn name(&self) -> &'static str {
        PolicyKind::Clock.name()
    }

    fn remove(&mut self, key: &K) -> Option<u64> {
        let pos = self.index.remove(key)?;
        let slot = self.ring.swap_remove(pos);
        // The element swapped into `pos` needs its index fixed.
        if pos < self.ring.len() {
            let moved_key = self.ring[pos].key.clone();
            self.index.insert(moved_key, pos);
        }
        self.used -= slot.size;
        Some(slot.size)
    }

    fn set_eviction_tracking(&mut self, enabled: bool) {
        self.track_evictions = enabled;
        if !enabled {
            self.evicted_keys.clear();
        }
    }

    fn take_evicted(&mut self) -> Vec<K> {
        std::mem::take(&mut self.evicted_keys)
    }
}

// ---------------------------------------------------------------------------
// MinIO
// ---------------------------------------------------------------------------

/// CoorDL's MinIO cache (§4.1 of the paper).
///
/// Items are admitted in arrival order until the byte capacity is reached;
/// afterwards, misses are *not* admitted and resident items are *never*
/// evicted.  Because every item in a DNN epoch has the same access
/// probability, which items are resident does not matter — what matters is
/// that resident items are never replaced before they are used, so every
/// epoch after the warm-up epoch experiences exactly `len()` hits and
/// `dataset - len()` capacity misses.  No recency or frequency bookkeeping is
/// required.
#[derive(Debug, Clone)]
pub struct MinIoCache<K: Hash + Eq + Clone> {
    capacity: u64,
    used: u64,
    resident: HashSet<K>,
    sizes: HashMap<K, u64>,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone> MinIoCache<K> {
    /// Create a MinIO cache with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        MinIoCache {
            capacity: capacity_bytes,
            used: 0,
            resident: HashSet::new(),
            sizes: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// True once the cache has stopped admitting new items.
    pub fn is_full(&self) -> bool {
        // Heuristic: the cache is considered full once less than an average
        // item of slack remains; callers that need an exact answer should
        // compare `used_bytes` with `capacity_bytes` themselves.
        self.used >= self.capacity
    }
}

impl<K: Hash + Eq + Clone> Cache<K> for MinIoCache<K> {
    fn access(&mut self, key: K, size: u64) -> AccessOutcome {
        if self.resident.contains(&key) {
            self.stats.record_hit(size);
            return AccessOutcome::Hit;
        }
        if self.used + size <= self.capacity {
            self.resident.insert(key.clone());
            self.sizes.insert(key, size);
            self.used += size;
            self.stats.record_miss(size, true);
            AccessOutcome::Inserted
        } else {
            self.stats.record_miss(size, false);
            AccessOutcome::Bypassed
        }
    }

    fn contains(&self, key: &K) -> bool {
        self.resident.contains(key)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn len(&self) -> usize {
        self.resident.len()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn name(&self) -> &'static str {
        PolicyKind::MinIo.name()
    }

    fn remove(&mut self, key: &K) -> Option<u64> {
        if !self.resident.remove(key) {
            return None;
        }
        let size = self.sizes.remove(key).unwrap_or(0);
        self.used -= size;
        Some(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive<C: Cache<u64>>(cache: &mut C, accesses: &[u64], size: u64) -> (u64, u64) {
        for &k in accesses {
            cache.access(k, size);
        }
        (cache.stats().hits, cache.stats().misses)
    }

    // -- LRU --------------------------------------------------------------

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.access(1u64, 1);
        c.access(2, 1);
        c.access(1, 1); // touch 1, making 2 the LRU victim
        c.access(3, 1); // evicts 2
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_sequential_scan_larger_than_cache_never_hits() {
        // The pathological case called out in §3.3.3: a sequential scan over a
        // dataset larger than the cache gets zero hits under LRU.
        let mut c = LruCache::new(50);
        for _epoch in 0..3 {
            for k in 0..100u64 {
                c.access(k, 1);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 300);
    }

    #[test]
    fn lru_respects_byte_sizes() {
        let mut c = LruCache::new(100);
        c.access(1u64, 60);
        c.access(2, 60); // must evict 1
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn lru_item_larger_than_capacity_is_bypassed() {
        let mut c = LruCache::new(10);
        assert_eq!(c.access(1u64, 20), AccessOutcome::Bypassed);
        assert!(c.is_empty());
    }

    // -- FIFO ---------------------------------------------------------------

    #[test]
    fn fifo_evicts_in_insertion_order_even_if_recently_hit() {
        let mut c = FifoCache::new(2);
        c.access(1u64, 1);
        c.access(2, 1);
        c.access(1, 1); // hit, but does not promote
        c.access(3, 1); // evicts 1 (oldest insertion)
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert!(c.contains(&3));
    }

    // -- CLOCK --------------------------------------------------------------

    #[test]
    fn clock_gives_second_chance_to_referenced_entries() {
        let mut c = ClockCache::new(2);
        c.access(1u64, 1);
        c.access(2, 1);
        c.access(1, 1); // sets reference bit on 1
        c.access(3, 1); // hand clears 1's bit, evicts 2
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3));
    }

    #[test]
    fn clock_used_bytes_tracks_evictions() {
        let mut c = ClockCache::new(10);
        for k in 0..20u64 {
            c.access(k, 3);
        }
        assert!(c.used_bytes() <= 10);
        assert_eq!(c.used_bytes(), c.len() as u64 * 3);
    }

    // -- MinIO --------------------------------------------------------------

    #[test]
    fn minio_never_evicts() {
        let mut c = MinIoCache::new(3);
        drive(&mut c, &[1, 2, 3, 4, 5, 6], 1);
        assert_eq!(c.len(), 3);
        assert!(c.contains(&1) && c.contains(&2) && c.contains(&3));
        assert!(!c.contains(&4));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn minio_steady_state_hits_equal_residency_per_epoch() {
        // Key property (§4.1): after warm-up, each epoch gets exactly
        // `len()` hits regardless of the access order.
        let n_items = 100u64;
        let cache_items = 35u64;
        let mut c = MinIoCache::new(cache_items);
        // Warm-up epoch in one order.
        for k in 0..n_items {
            c.access(k, 1);
        }
        assert_eq!(c.len() as u64, cache_items);
        c.reset_stats();
        // Second epoch in a different (reversed) order.
        for k in (0..n_items).rev() {
            c.access(k, 1);
        }
        assert_eq!(c.stats().hits, cache_items);
        assert_eq!(c.stats().misses, n_items - cache_items);
    }

    #[test]
    fn figure8_example_minio_vs_page_cache() {
        // The paper's Figure 8: dataset {A,B,C,D} (4 items), cache of 2.
        // After warm-up the MinIO cache holds two fixed items and gets exactly
        // 2 hits per epoch; the LRU page cache can thrash down to fewer hits.
        let epoch1 = [3u64, 2, 0, 1]; // D C A B -> warm-up
        let epoch2 = [1u64, 2, 0, 3];
        let epoch3 = [2u64, 1, 3, 0];

        let mut minio = MinIoCache::new(2);
        let mut lru = LruCache::new(2);
        for &k in &epoch1 {
            minio.access(k, 1);
            lru.access(k, 1);
        }
        minio.reset_stats();
        lru.reset_stats();
        for &k in epoch2.iter().chain(&epoch3) {
            minio.access(k, 1);
            lru.access(k, 1);
        }
        // MinIO: exactly 2 hits per epoch over 2 epochs.
        assert_eq!(minio.stats().hits, 4);
        // LRU gets at most as many hits as MinIO on this trace.
        assert!(lru.stats().hits <= minio.stats().hits);
    }

    #[test]
    fn minio_byte_capacity_respected_with_variable_sizes() {
        let mut c = MinIoCache::new(100);
        c.access(1u64, 60);
        c.access(2, 50); // does not fit -> bypassed
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 60);
        c.access(3, 40); // fits exactly
        assert_eq!(c.used_bytes(), 100);
        assert!(c.is_full());
    }

    #[test]
    fn stats_reset_does_not_change_contents() {
        let mut c = MinIoCache::new(10);
        c.access(1u64, 5);
        c.access(2, 5);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&1));
    }

    // -- Eviction reporting --------------------------------------------------

    #[test]
    fn evicting_policies_report_their_victims_and_minio_reports_none() {
        let mut lru = LruCache::new(2);
        let mut fifo = FifoCache::new(2);
        let mut clock = ClockCache::new(2);
        let mut minio = MinIoCache::new(2);
        lru.set_eviction_tracking(true);
        fifo.set_eviction_tracking(true);
        clock.set_eviction_tracking(true);
        minio.set_eviction_tracking(true);
        for k in 0..4u64 {
            lru.access(k, 1);
            fifo.access(k, 1);
            clock.access(k, 1);
            minio.access(k, 1);
        }
        assert_eq!(lru.take_evicted(), vec![0, 1]);
        assert_eq!(fifo.take_evicted(), vec![0, 1]);
        assert_eq!(clock.take_evicted().len(), 2);
        assert!(minio.take_evicted().is_empty());
        // The log drains: a second call reports nothing new.
        assert!(lru.take_evicted().is_empty());
        lru.access(9, 1);
        assert_eq!(lru.take_evicted().len(), 1);
    }

    #[test]
    fn eviction_logging_is_off_by_default_so_victims_are_not_retained() {
        // The simulator's StorageNode drives these policies for millions of
        // evictions without ever draining the log; untracked caches must not
        // accumulate victim keys.
        let mut lru = LruCache::new(2);
        for k in 0..1000u64 {
            lru.access(k, 1);
        }
        assert_eq!(lru.evicted_keys.len(), 0, "no retained victims");
        assert!(lru.take_evicted().is_empty());
        // Disabling tracking also drops any pending log.
        lru.set_eviction_tracking(true);
        lru.access(2000, 1);
        lru.set_eviction_tracking(false);
        assert!(lru.take_evicted().is_empty());
    }

    // -- Administrative removal ----------------------------------------------

    #[test]
    fn remove_frees_bytes_without_recording_statistics() {
        let caches: Vec<Box<dyn Cache<u64> + Send>> = vec![
            Box::new(LruCache::new(100)),
            Box::new(FifoCache::new(100)),
            Box::new(ClockCache::new(100)),
            Box::new(MinIoCache::new(100)),
        ];
        for mut c in caches {
            c.set_eviction_tracking(true);
            for k in 0..5u64 {
                c.access(k, 10);
            }
            let stats_before = *c.stats();
            assert_eq!(c.remove(&2), Some(10), "{}", c.name());
            assert_eq!(c.remove(&2), None, "{}: double remove", c.name());
            assert_eq!(c.remove(&99), None, "{}: absent key", c.name());
            assert!(!c.contains(&2), "{}", c.name());
            assert_eq!(c.len(), 4, "{}", c.name());
            assert_eq!(c.used_bytes(), 40, "{}", c.name());
            assert_eq!(*c.stats(), stats_before, "{}: no stats recorded", c.name());
            assert!(c.take_evicted().is_empty(), "{}: not an eviction", c.name());
            // The freed capacity is reusable and the cache stays coherent.
            assert_eq!(c.access(200, 10), AccessOutcome::Inserted, "{}", c.name());
            assert_eq!(c.used_bytes(), 50, "{}", c.name());
        }
    }

    #[test]
    fn fifo_remove_purges_the_queue_so_reinsertion_keeps_its_order() {
        let mut c = FifoCache::new(3);
        for k in 0..3u64 {
            c.access(k, 1);
        }
        c.remove(&0);
        c.access(0, 1); // re-inserted: now the *youngest* entry
        c.access(9, 1); // evicts 1 (the oldest), not the re-inserted 0
        assert!(c.contains(&0) && !c.contains(&1));
    }

    #[test]
    fn clock_remove_keeps_the_ring_index_coherent() {
        let mut c = ClockCache::new(10);
        for k in 0..10u64 {
            c.access(k, 1);
        }
        // Remove from the middle: swap_remove moves the last slot into place.
        c.remove(&3);
        for k in 0..10u64 {
            assert_eq!(c.contains(&k), k != 3, "key {k}");
        }
        // Evictions after removal still converge.
        for k in 10..30u64 {
            c.access(k, 1);
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.used_bytes(), 10);
    }

    // -- Cross-policy comparison (the paper's core claim) --------------------

    #[test]
    fn minio_beats_lru_on_random_epoch_access() {
        // Deterministic pseudo-random permutations per epoch: under repeated
        // randomized full scans, MinIO's per-epoch misses equal the capacity
        // miss minimum while LRU thrashes and misses more.
        let n = 1000u64;
        let cap = 350u64;
        let mut minio = MinIoCache::new(cap);
        let mut lru = LruCache::new(cap);

        let permute = |epoch: u64| -> Vec<u64> {
            // A simple multiplicative permutation with an epoch-dependent
            // offset; full-period because the multiplier is coprime with n.
            (0..n).map(|i| (i * 7 + epoch * 131) % n).collect()
        };

        // Warm-up epoch.
        for &k in &permute(0) {
            minio.access(k, 1);
            lru.access(k, 1);
        }
        minio.reset_stats();
        lru.reset_stats();
        for epoch in 1..4u64 {
            for &k in &permute(epoch) {
                minio.access(k, 1);
                lru.access(k, 1);
            }
        }
        let minio_misses = minio.stats().misses;
        let lru_misses = lru.stats().misses;
        // MinIO achieves the capacity-miss minimum.
        assert_eq!(minio_misses, 3 * (n - cap));
        // LRU thrashes: strictly more misses than the minimum.
        assert!(
            lru_misses > minio_misses,
            "LRU misses {lru_misses} should exceed MinIO misses {minio_misses}"
        );
    }
}
