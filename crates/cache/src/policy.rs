//! Cache replacement policies: one byte-capacity [`PolicyCache`] whose
//! policies differ only in the order they pick victims in.
//!
//! * [`PolicyKind::Lru`] — least-recently-used, the stand-in for the Linux
//!   page cache used by PyTorch/TensorFlow/DALI (§3.3.1 of the paper).
//! * [`PolicyKind::Fifo`] — first-in-first-out, a simpler page-cache variant.
//! * [`PolicyKind::Clock`] — second-chance CLOCK, the one-reference-bit
//!   approximation of LRU.
//! * [`PolicyKind::MinIo`] — CoorDL's DNN-aware policy (§4.1): admit until
//!   full, never evict.  Because every item in a DNN epoch has the same
//!   access probability, which items are resident does not matter — what
//!   matters is that resident items are never replaced before they are
//!   used, so every epoch after the warm-up epoch gets exactly `len()` hits
//!   and `dataset - len()` capacity misses, the minimum possible per-epoch
//!   disk I/O for a uniform-random access pattern.  No recency or frequency
//!   bookkeeping is required.

use crate::stats::{AccessOutcome, CacheStats};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// A map keyed by item id whose hasher has fixed keys.  Under the default
/// per-process random keys, the access at which a churning map (an LRU
/// level admitting and evicting on every miss) outgrows its table depended
/// on the process's seed, and so did the bytes a run asked the allocator
/// for: a 716-item LRU map grew to 2 048 buckets anywhere from its 1 844th
/// to its 2 719th access.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

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

/// A byte-capacity cache of items keyed by `u64` ids, under one
/// [`PolicyKind`].
///
/// [`PolicyCache::access`] is a combined lookup-and-admit: on a miss, the
/// policy decides whether to insert the item (possibly evicting others).
/// This mirrors how both the OS page cache and the MinIO cache behave during
/// training: every item read from storage is offered to the cache.  An item
/// larger than the capacity is never admitted; MinIO also refuses any item
/// that does not fit in the free bytes, and never evicts.
///
/// The byte accounting, the key map, the statistics and the victim log are
/// the same for every policy; only the victim order differs.
#[derive(Debug, Clone)]
pub struct PolicyCache {
    kind: PolicyKind,
    capacity: u64,
    used: u64,
    entries: KeyMap<u64, Entry>,
    order: Order,
    stats: CacheStats,
    evicted_keys: Vec<u64>,
    track_evictions: bool,
}

/// One resident item.
#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    /// Its place in the [`Order`]: the recency tick under LRU, the
    /// reference bit (0 or 1) under CLOCK, unused otherwise.
    slot: u64,
}

/// The only per-policy state: what orders the victims.
#[derive(Debug, Clone)]
enum Order {
    /// Keys by recency tick, oldest first: `O(log n)` per access.
    Lru {
        by_tick: BTreeMap<u64, u64>,
        tick: u64,
    },
    /// Keys in insertion order; hits do not promote.
    Fifo(VecDeque<u64>),
    /// The clock's frames in hand order, the hand at the front: a hit sets
    /// the key's reference bit, and eviction sends each referenced key
    /// behind the hand with its bit cleared until an unreferenced one comes
    /// up as the victim.  A new key goes in just behind the hand, so the
    /// hand passes every other key before it comes back to it.
    Clock(VecDeque<u64>),
    /// Nothing: MinIO never evicts.
    MinIo,
}

impl Order {
    fn new(kind: PolicyKind) -> Self {
        match kind {
            PolicyKind::Lru => Order::Lru {
                by_tick: BTreeMap::new(),
                tick: 0,
            },
            PolicyKind::Fifo => Order::Fifo(VecDeque::new()),
            PolicyKind::Clock => Order::Clock(VecDeque::new()),
            PolicyKind::MinIo => Order::MinIo,
        }
    }

    /// Record a hit on resident `key`.
    fn touch(&mut self, key: u64, entry: &mut Entry) {
        match self {
            Order::Lru { by_tick, tick } => {
                *tick += 1;
                by_tick.remove(&entry.slot);
                entry.slot = *tick;
                by_tick.insert(*tick, key);
            }
            Order::Clock(_) => entry.slot = 1,
            Order::Fifo(_) | Order::MinIo => {}
        }
    }

    /// Append newly admitted `key`, returning its slot.
    fn push(&mut self, key: u64) -> u64 {
        match self {
            Order::Lru { by_tick, tick } => {
                *tick += 1;
                by_tick.insert(*tick, key);
                *tick
            }
            Order::Fifo(queue) | Order::Clock(queue) => {
                queue.push_back(key);
                0
            }
            Order::MinIo => 0,
        }
    }

    /// Take the next victim out of the order; its entry is the caller's to
    /// remove.
    fn pop_victim(&mut self, entries: &mut KeyMap<u64, Entry>) -> Option<u64> {
        match self {
            Order::Lru { by_tick, .. } => by_tick.pop_first().map(|(_, key)| key),
            Order::Fifo(queue) => queue.pop_front(),
            Order::Clock(queue) => loop {
                let key = queue.pop_front()?;
                let entry = entries.get_mut(&key).expect("clock keys are resident");
                if std::mem::take(&mut entry.slot) == 0 {
                    return Some(key);
                }
                queue.push_back(key);
            },
            Order::MinIo => None,
        }
    }

    /// Take removed `key`, which sat at `entry`, out of the order.
    fn unlink(&mut self, key: u64, entry: Entry) {
        match self {
            Order::Lru { by_tick, .. } => {
                by_tick.remove(&entry.slot);
            }
            // Removals are rare lifecycle events, so the O(n) queue purge
            // beats leaving a stale key that would mis-order a later
            // re-insertion.
            Order::Fifo(queue) | Order::Clock(queue) => queue.retain(|&queued| queued != key),
            Order::MinIo => {}
        }
    }
}

impl PolicyCache {
    /// An empty cache of `capacity_bytes` under `kind`, victim logging off.
    pub fn new(kind: PolicyKind, capacity_bytes: u64) -> Self {
        PolicyCache {
            kind,
            capacity: capacity_bytes,
            used: 0,
            entries: KeyMap::default(),
            order: Order::new(kind),
            stats: CacheStats::default(),
            evicted_keys: Vec::new(),
            track_evictions: false,
        }
    }

    /// Look up `key` (an item of `size` bytes). Records statistics and admits
    /// the item on a miss according to the policy.
    pub fn access(&mut self, key: u64, size: u64) -> AccessOutcome {
        if let Some(entry) = self.entries.get_mut(&key) {
            self.order.touch(key, entry);
            self.stats.record_hit(size);
            return AccessOutcome::Hit;
        }
        if !self.accepts(size) {
            self.stats.record_miss(size, false);
            return AccessOutcome::Bypassed;
        }
        let mut evicted = 0;
        while self.used + size > self.capacity {
            let Some(victim) = self.order.pop_victim(&mut self.entries) else {
                break;
            };
            self.used -= self
                .entries
                .remove(&victim)
                .expect("victims are resident")
                .size;
            evicted += 1;
            if self.track_evictions {
                self.evicted_keys.push(victim);
            }
        }
        self.stats.record_evictions(evicted);
        let slot = self.order.push(key);
        self.entries.insert(key, Entry { size, slot });
        self.used += size;
        self.stats.record_miss(size, true);
        AccessOutcome::Inserted
    }

    /// Whether a miss of `size` bytes would be admitted: the test
    /// [`PolicyCache::access`] runs on a miss, which reads only the size and
    /// the cache's state.  MinIO admits what fits in the free bytes, every
    /// other policy what fits in the capacity (evicting to make room).
    pub fn accepts(&self, size: u64) -> bool {
        match self.kind {
            PolicyKind::MinIo => self.used + size <= self.capacity,
            _ => size <= self.capacity,
        }
    }

    /// Whether `key` is currently resident.
    pub fn contains(&self, key: &u64) -> bool {
        self.entries.contains_key(key)
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Whether the resident bytes have reached the capacity
    /// (`used_bytes() >= capacity_bytes()`).  A MinIO cache can stop
    /// admitting earlier: it refuses any item larger than the free bytes.
    pub fn is_full(&self) -> bool {
        self.used >= self.capacity
    }

    /// Number of resident items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no items are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative statistics since the last [`PolicyCache::reset_stats`].
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (e.g. at an epoch boundary) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The replacement policy.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Human-readable policy name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Administratively remove `key`, returning its resident size.
    ///
    /// Removal is not an eviction: it records no statistics and does not
    /// appear in the [`PolicyCache::take_evicted`] victim log.  It exists for
    /// external lifecycle events — a multi-tenant server reclaiming a
    /// departed tenant's bytes — rather than for the policy's own decisions.
    pub fn remove(&mut self, key: &u64) -> Option<u64> {
        let entry = self.entries.remove(key)?;
        self.order.unlink(*key, entry);
        self.used -= entry.size;
        Some(entry.size)
    }

    /// Enable or disable victim logging for [`PolicyCache::take_evicted`].
    ///
    /// Off by default so plain simulations pay no memory for evictions they
    /// never inspect; [`TierChain`](crate::TierChain) turns it on for every
    /// level.  Disabling drops any pending log.
    pub fn set_eviction_tracking(&mut self, enabled: bool) {
        self.track_evictions = enabled;
        if !enabled {
            self.evicted_keys.clear();
        }
    }

    /// Keys evicted since the last call, in eviction order.
    ///
    /// [`TierChain`](crate::TierChain) uses this to demote victims to the
    /// next tier and to tell byte-holding wrappers (the CoorDL runtime's
    /// `TieredByteCache`) which payloads to drop.  Returns nothing unless
    /// [`PolicyCache::set_eviction_tracking`] was enabled first, and never
    /// anything under MinIO.
    pub fn take_evicted(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.evicted_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(cache: &mut PolicyCache, accesses: &[u64], size: u64) -> (u64, u64) {
        for &k in accesses {
            cache.access(k, size);
        }
        (cache.stats().hits, cache.stats().misses)
    }

    // -- LRU --------------------------------------------------------------

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PolicyCache::new(PolicyKind::Lru, 2);
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
        let mut c = PolicyCache::new(PolicyKind::Lru, 50);
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
        let mut c = PolicyCache::new(PolicyKind::Lru, 100);
        c.access(1u64, 60);
        c.access(2, 60); // must evict 1
        assert!(!c.contains(&1));
        assert!(c.contains(&2));
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn lru_item_larger_than_capacity_is_bypassed() {
        let mut c = PolicyCache::new(PolicyKind::Lru, 10);
        assert_eq!(c.access(1u64, 20), AccessOutcome::Bypassed);
        assert!(c.is_empty());
    }

    // -- FIFO ---------------------------------------------------------------

    #[test]
    fn fifo_evicts_in_insertion_order_even_if_recently_hit() {
        let mut c = PolicyCache::new(PolicyKind::Fifo, 2);
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
        let mut c = PolicyCache::new(PolicyKind::Clock, 2);
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
        let mut c = PolicyCache::new(PolicyKind::Clock, 10);
        for k in 0..20u64 {
            c.access(k, 3);
        }
        assert!(c.used_bytes() <= 10);
        assert_eq!(c.used_bytes(), c.len() as u64 * 3);
    }

    // -- MinIO --------------------------------------------------------------

    #[test]
    fn minio_never_evicts() {
        let mut c = PolicyCache::new(PolicyKind::MinIo, 3);
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
        let mut c = PolicyCache::new(PolicyKind::MinIo, cache_items);
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

        let mut minio = PolicyCache::new(PolicyKind::MinIo, 2);
        let mut lru = PolicyCache::new(PolicyKind::Lru, 2);
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
        let mut c = PolicyCache::new(PolicyKind::MinIo, 100);
        c.access(1u64, 60);
        c.access(2, 50); // does not fit -> bypassed
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 60);
        c.access(3, 40); // fits exactly
        assert_eq!(c.used_bytes(), 100);
        assert!(c.is_full());
    }

    #[test]
    fn accepts_is_the_admission_test_access_runs() {
        // Over a mixed-size stream, every miss is admitted exactly when
        // `accepts` said it would be, for every policy.
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::MinIo,
        ] {
            let mut c = PolicyCache::new(kind, 100);
            for step in 0..400u64 {
                let (key, size) = (step * 7 % 23, 10 + step * 13 % 97);
                let resident = c.contains(&key);
                let accepts = c.accepts(size);
                let outcome = c.access(key, size);
                if !resident {
                    let admitted = outcome == AccessOutcome::Inserted;
                    assert_eq!(admitted, accepts, "{kind:?} step {step}");
                }
            }
        }
    }

    #[test]
    fn stats_reset_does_not_change_contents() {
        let mut c = PolicyCache::new(PolicyKind::MinIo, 10);
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
        let mut lru = PolicyCache::new(PolicyKind::Lru, 2);
        let mut fifo = PolicyCache::new(PolicyKind::Fifo, 2);
        let mut clock = PolicyCache::new(PolicyKind::Clock, 2);
        let mut minio = PolicyCache::new(PolicyKind::MinIo, 2);
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
        let mut lru = PolicyCache::new(PolicyKind::Lru, 2);
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
        let caches: Vec<PolicyCache> = vec![
            PolicyCache::new(PolicyKind::Lru, 100),
            PolicyCache::new(PolicyKind::Fifo, 100),
            PolicyCache::new(PolicyKind::Clock, 100),
            PolicyCache::new(PolicyKind::MinIo, 100),
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
        let mut c = PolicyCache::new(PolicyKind::Fifo, 3);
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
        let mut c = PolicyCache::new(PolicyKind::Clock, 10);
        for k in 0..10u64 {
            c.access(k, 1);
        }
        // Remove from the middle of the clock.
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
        let mut minio = PolicyCache::new(PolicyKind::MinIo, cap);
        let mut lru = PolicyCache::new(PolicyKind::Lru, cap);

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
