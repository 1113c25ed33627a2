//! The multi-tier cache hierarchy shared by the simulator and the runtime.
//!
//! The paper's mitigation story is hierarchical: MinIO keeps working-set
//! bytes in DRAM (§4.1), partitioned/coordinated jobs fetch misses from
//! remote peers because a 10–40 Gbps network beats a local SATA SSD (§4.2,
//! Table 2), and everything else falls through to the storage device.
//! [`TierChain`] expresses that as one ordered list of capacity-bounded
//! policy caches, each tagged with an access cost, with
//! **demotion-on-eviction**: victims of tier *k* are offered to tier *k+1*
//! (via the [`PolicyCache::set_eviction_tracking`] /
//! [`PolicyCache::take_evicted`] victim logs) before falling off the chain.
//!
//! Placement is *exclusive on admission*: one fetch admits its item into at
//! most one tier — the topmost tier that accepts it — so a never-evicting
//! MinIO DRAM tier that is full *spills* new items into the next tier
//! instead of duplicating resident ones ("SSD extends MinIO reach").  A hit
//! at a lower tier still offers the item to the tiers above it (promotion),
//! which matters for recency policies: an LRU DRAM tier backed by an SSD
//! victim tier pages items back in on reuse, exactly like a page cache over
//! a flash cache.
//!
//! A chain with a single tier behaves **bit-identically** to the raw policy
//! cache it wraps: the same [`AccessOutcome`] sequence, the same policy
//! statistics, the same victims in the same order.  That is the contract
//! that lets `storage::StorageNode` and the CoorDL runtime's byte tiers run
//! *everything* through the chain without changing any existing number.

use crate::stats::{AccessOutcome, CacheStats};
use crate::{KeyMap, PolicyCache, PolicyKind};

/// The modelled cost of serving bytes from one tier: a fixed per-access
/// latency plus a bandwidth term.
///
/// Costs are *descriptions*, not behaviour — the chain never sleeps; its
/// consumers (the simulator's epoch drivers, the runtime's modelled device
/// accounting) charge [`TierCost::access_seconds`] wherever a fetch was
/// served.  `storage::DeviceProfile::tier_cost` derives one from a calibrated
/// device profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierCost {
    /// Sustained read throughput of the tier in bytes/second.
    pub bandwidth_bps: f64,
    /// Fixed per-access latency in seconds.
    pub latency_s: f64,
}

impl TierCost {
    /// Seconds to serve `bytes` from this tier.
    pub fn access_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Static description of one tier of a [`TierChain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Short name used in reports (`"dram"`, `"ssd"`, ...).
    pub name: &'static str,
    /// Replacement policy governing residency at this tier.
    pub policy: PolicyKind,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Modelled access cost of a hit at this tier.
    pub cost: TierCost,
}

/// Where a chain access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainSource {
    /// Resident in tier `k` (0 is the topmost/fastest tier).
    Tier(usize),
    /// Resident nowhere: the caller reads from the durable store below the
    /// chain.
    Store,
}

/// The outcome of one [`TierChain::access`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainAccess {
    /// Which level served the bytes.
    pub source: ChainSource,
    /// Whether the item was newly admitted into some tier by this access
    /// (always `false` on a hit at tier 0, which is already resident).
    pub admitted: bool,
    /// Keys that stopped being resident in *any* tier as a result of this
    /// access (evicted from the last tier, or bypassed by every tier during
    /// demotion).  Byte-holding wrappers drop the payloads of these keys.
    pub dropped: Vec<u64>,
    /// `(key, level)` landings of the demotion cascade: each victim a tier
    /// accepted during demotion, with the level it now resides at.  A victim
    /// re-evicted further down the same cascade appears once, at its final
    /// landing (or in [`ChainAccess::dropped`] instead if it fell off).
    /// Wrappers that place payloads by level — e.g. a file-backed SSD tier —
    /// relocate these keys; memory-only wrappers can ignore the field.
    pub demoted: Vec<(u64, usize)>,
}

/// Per-tier counters the chain maintains beyond the fetch-path
/// [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemotionStats {
    /// Victims this tier accepted from the tier above.
    pub demoted_in: u64,
    /// Victims this tier evicted that were offered below.
    pub demoted_out: u64,
}

struct Level {
    spec: TierSpec,
    cache: PolicyCache,
    /// Fetch-path accounting for this tier: a hit is recorded when the fetch
    /// was served here, a miss when the fetch consulted this tier and fell
    /// through.  Demotion traffic is *not* counted here (it is not a fetch);
    /// it lands in `demotions`.
    stats: CacheStats,
    demotions: DemotionStats,
}

/// An ordered chain of cache tiers with spill-down admission and
/// demotion-on-eviction, keyed by `u64` item ids (the representation used
/// throughout the workspace).
///
/// See the [module docs](self) for the placement rules.
pub struct TierChain {
    levels: Vec<Level>,
    /// Size of every key resident in at least one tier, needed to demote
    /// victims (the policies' victim logs carry keys, not sizes).
    sizes: KeyMap<u64, u64>,
}

impl TierChain {
    /// Build a chain from tier specs, ordered fastest (index 0) to slowest.
    ///
    /// # Panics
    /// Panics when `tiers` is empty.
    pub fn new(tiers: Vec<TierSpec>) -> Self {
        assert!(!tiers.is_empty(), "a tier chain needs at least one tier");
        let levels = tiers
            .into_iter()
            .map(|spec| {
                let mut cache = PolicyCache::new(spec.policy, spec.capacity_bytes);
                // The chain needs every tier's victims: to demote them to the
                // next tier, and (from the last tier) to tell byte-holding
                // wrappers which payloads to drop.
                cache.set_eviction_tracking(true);
                Level {
                    spec,
                    cache,
                    stats: CacheStats::default(),
                    demotions: DemotionStats::default(),
                }
            })
            .collect();
        TierChain {
            levels,
            sizes: KeyMap::default(),
        }
    }

    /// Number of tiers.
    pub fn num_tiers(&self) -> usize {
        self.levels.len()
    }

    /// The static spec of tier `k`.
    pub fn tier_spec(&self, k: usize) -> &TierSpec {
        &self.levels[k].spec
    }

    /// Fetch-path statistics of tier `k` (hits served there, misses that
    /// fell through it).
    pub fn tier_stats(&self, k: usize) -> &CacheStats {
        &self.levels[k].stats
    }

    /// Demotion counters of tier `k`.
    pub fn tier_demotions(&self, k: usize) -> DemotionStats {
        self.levels[k].demotions
    }

    /// Bytes resident in tier `k`.
    pub fn tier_used_bytes(&self, k: usize) -> u64 {
        self.levels[k].cache.used_bytes()
    }

    /// Items resident in tier `k`.
    pub fn tier_len(&self, k: usize) -> usize {
        self.levels[k].cache.len()
    }

    /// Whether `key` is resident in tier `k`.
    pub fn tier_contains(&self, k: usize, key: u64) -> bool {
        self.levels[k].cache.contains(&key)
    }

    /// Modelled cost of a hit at tier `k`.
    pub fn tier_cost(&self, k: usize) -> TierCost {
        self.levels[k].spec.cost
    }

    /// Whether `key` is resident in any tier.
    pub fn contains(&self, key: u64) -> bool {
        self.sizes.contains_key(&key)
    }

    /// Distinct keys resident across the chain.
    pub fn resident_items(&self) -> usize {
        self.sizes.len()
    }

    /// Sum of per-tier resident bytes.  An item can be resident in two tiers
    /// after a promotion (it stays in the lower tier until evicted there),
    /// in which case its bytes count once per tier, exactly as they occupy
    /// real capacity in each.
    pub fn used_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.cache.used_bytes()).sum()
    }

    /// Sum of per-tier capacities.
    pub fn capacity_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.spec.capacity_bytes).sum()
    }

    /// Total fetch-path hits across tiers.
    pub fn hits(&self) -> u64 {
        self.levels.iter().map(|l| l.stats.hits).sum()
    }

    /// Fetch-path accesses that missed every tier (reads from the store).
    pub fn store_misses(&self) -> u64 {
        // Every fetch is recorded at tier 0 (a hit or a miss) and is a hit
        // at no more than one tier, so the fetches no tier served are the
        // tier-0 accesses less the hits across all tiers.
        self.levels[0].stats.accesses() - self.hits()
    }

    /// Reset fetch-path and policy statistics on every tier without touching
    /// contents (epoch boundaries).
    pub fn reset_stats(&mut self) {
        for level in &mut self.levels {
            level.stats = CacheStats::default();
            level.cache.reset_stats();
        }
    }

    /// Look `key` (an item of `size` bytes) up through the chain, admitting
    /// on a miss and demoting victims down the chain.
    ///
    /// Placement rules, applied top-down until the serving tier:
    /// * the topmost tier holding `key` serves it (its provenance),
    /// * tiers consulted above the serving tier record a miss, and the
    ///   *first* of them whose policy accepts the item admits it
    ///   (promotion on a lower-tier hit, plain admission on a store miss);
    ///   at most one tier admits per access,
    /// * every eviction that admission causes is offered to the next tier
    ///   down (demotion), cascading until a tier accepts the victim or it
    ///   falls off the chain (reported in [`ChainAccess::dropped`]).
    pub fn access(&mut self, key: u64, size: u64) -> ChainAccess {
        self.access_with_floor(key, size, 0)
    }

    /// Like [`TierChain::access`], but admission (and promotion) is only
    /// allowed at levels `>= floor`; tiers above the floor still record their
    /// misses, they just never insert.  `floor == 0` is exactly `access`.
    ///
    /// This is the hook a multi-tenant server uses to spill an over-quota
    /// tenant's items *below* the rationed DRAM tier without perturbing the
    /// fetch-path statistics.
    pub fn access_with_floor(&mut self, key: u64, size: u64, floor: usize) -> ChainAccess {
        // Provenance: decided before any mutation, so a demotion cascade
        // triggered by this access cannot mis-attribute where the bytes
        // actually came from.
        let provenance = self.levels.iter().position(|l| l.cache.contains(&key));
        let last_consulted = provenance.unwrap_or(self.levels.len() - 1);

        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut admitted = false;
        for k in 0..=last_consulted {
            if Some(k) == provenance {
                let outcome = self.levels[k].cache.access(key, size);
                debug_assert_eq!(outcome, AccessOutcome::Hit, "provenance tier must hit");
                self.levels[k].stats.record_hit(size);
            } else {
                let mut inserted = false;
                if !admitted && k >= floor {
                    let outcome = self.levels[k].cache.access(key, size);
                    debug_assert_ne!(outcome, AccessOutcome::Hit, "tier above provenance");
                    for victim in self.levels[k].cache.take_evicted() {
                        pending.push((k, victim));
                    }
                    inserted = outcome == AccessOutcome::Inserted;
                    admitted |= inserted;
                }
                self.levels[k].stats.record_miss(size, inserted);
                if inserted {
                    self.levels[k].stats.record_evictions(pending.len() as u64);
                }
            }
        }
        // Record the size only on admission: a resident key already has an
        // entry, and the recorded size must stay the one the policies
        // accounted (demotions move entries with *that* size).
        if admitted {
            self.sizes.insert(key, size);
        }

        let (dropped, demoted) = self.demote(pending);
        ChainAccess {
            source: provenance.map_or(ChainSource::Store, ChainSource::Tier),
            admitted,
            dropped,
            demoted,
        }
    }

    /// Whether a store miss of `size` bytes — a key no level holds — would
    /// be admitted at some level `>= floor`: the admission test
    /// [`TierChain::access_with_floor`] runs for such a key, without running
    /// the access.  When it is `false`, that access records a bypassed miss
    /// at every level and changes nothing else, whatever the key.
    pub fn would_admit(&self, size: u64, floor: usize) -> bool {
        self.levels
            .iter()
            .skip(floor)
            .any(|l| l.cache.accepts(size))
    }

    /// The topmost tier currently holding `key` (its provenance), without
    /// touching recency state or statistics.
    pub fn locate(&self, key: u64) -> Option<usize> {
        self.levels.iter().position(|l| l.cache.contains(&key))
    }

    /// Administratively remove `key` from every tier holding it, returning
    /// the total bytes freed across levels (a promoted key occupies two).
    ///
    /// Like [`PolicyCache::remove`], this is a lifecycle operation — a departing
    /// tenant's keys being reclaimed — not an eviction: no statistics are
    /// recorded, nothing demotes, and byte-holding wrappers must drop the
    /// payload themselves.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.sizes.remove(&key)?;
        let freed = self
            .levels
            .iter_mut()
            .filter_map(|l| l.cache.remove(&key))
            .sum();
        Some(freed)
    }

    /// [`TierChain::remove`] every resident key in `range` (a departing
    /// tenant's key window), returning the total bytes freed.
    pub fn remove_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        let victims: Vec<u64> = self
            .sizes
            .keys()
            .copied()
            .filter(|k| range.contains(k))
            .collect();
        victims.into_iter().filter_map(|k| self.remove(k)).sum()
    }

    /// Cascade `(level, victim)` demotions down the chain, returning the
    /// keys that ended up resident nowhere and the `(key, level)` landings
    /// of victims some tier accepted (keep-last: a victim re-evicted within
    /// the cascade keeps only its final landing).
    fn demote(&mut self, pending: Vec<(usize, u64)>) -> (Vec<u64>, Vec<(u64, usize)>) {
        let mut queue: std::collections::VecDeque<(usize, u64)> = pending.into();
        let mut dropped = Vec::new();
        let mut demoted: Vec<(u64, usize)> = Vec::new();
        while let Some((from, victim)) = queue.pop_front() {
            // Whatever landing this victim had earlier in the cascade is
            // stale: it is in flight again.
            demoted.retain(|&(key, _)| key != victim);
            let next = from + 1;
            if next >= self.levels.len() {
                // Fell off the chain; only drop the key if no other tier
                // still holds a (promoted) copy.
                if !self.levels.iter().any(|l| l.cache.contains(&victim)) {
                    self.sizes.remove(&victim);
                    dropped.push(victim);
                }
                continue;
            }
            let size = self.sizes.get(&victim).copied().unwrap_or(0);
            match self.levels[next].cache.access(victim, size) {
                AccessOutcome::Hit => {
                    // Already resident below (a promoted copy); nothing to do.
                }
                AccessOutcome::Inserted => {
                    self.levels[from].demotions.demoted_out += 1;
                    self.levels[next].demotions.demoted_in += 1;
                    demoted.push((victim, next));
                    for v in self.levels[next].cache.take_evicted() {
                        queue.push_back((next, v));
                    }
                }
                AccessOutcome::Bypassed => {
                    // This tier will not hold it; keep pushing it down.
                    queue.push_back((next, victim));
                }
            }
        }
        (dropped, demoted)
    }
}

impl std::fmt::Debug for TierChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tiers: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                format!(
                    "{}:{}({}B)",
                    l.spec.name,
                    l.spec.policy.name(),
                    l.spec.capacity_bytes
                )
            })
            .collect();
        f.debug_struct("TierChain")
            .field("tiers", &tiers)
            .field("resident_items", &self.resident_items())
            .finish()
    }
}

/// A one-tier chain over `policy` at DRAM-like cost — the drop-in
/// equivalent of the raw policy cache.
pub fn single_tier(name: &'static str, policy: PolicyKind, capacity_bytes: u64) -> TierChain {
    TierChain::new(vec![TierSpec {
        name,
        policy,
        capacity_bytes,
        // Placeholder DRAM-class cost; consumers that charge time supply
        // their own calibrated TierCost via TierChain::new.
        cost: TierCost {
            bandwidth_bps: 20e9,
            latency_s: 0.0,
        },
    }])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &'static str, policy: PolicyKind, cap: u64) -> TierSpec {
        TierSpec {
            name,
            policy,
            capacity_bytes: cap,
            cost: TierCost {
                bandwidth_bps: 1e9,
                latency_s: 1e-4,
            },
        }
    }

    #[test]
    fn single_tier_chain_is_bit_identical_to_the_raw_policy() {
        // Same accesses, same outcomes, same stats, same victims: the chain
        // adds nothing when it has one tier.
        let mut chain = single_tier("dram", PolicyKind::Lru, 3);
        let mut raw = PolicyCache::new(PolicyKind::Lru, 3);
        raw.set_eviction_tracking(true);
        let trace: Vec<u64> = vec![1, 2, 3, 1, 4, 5, 2, 1, 6, 6, 3];
        for &k in &trace {
            let raw_outcome = raw.access(k, 1);
            let raw_victims = raw.take_evicted();
            let chain_outcome = chain.access(k, 1);
            match raw_outcome {
                AccessOutcome::Hit => {
                    assert_eq!(chain_outcome.source, ChainSource::Tier(0), "key {k}")
                }
                AccessOutcome::Inserted => {
                    assert_eq!(chain_outcome.source, ChainSource::Store);
                    assert!(chain_outcome.admitted);
                }
                AccessOutcome::Bypassed => {
                    assert_eq!(chain_outcome.source, ChainSource::Store);
                    assert!(!chain_outcome.admitted);
                }
            }
            assert_eq!(chain_outcome.dropped, raw_victims, "victim order, key {k}");
        }
        assert_eq!(chain.tier_stats(0), raw.stats());
        assert_eq!(chain.used_bytes(), raw.used_bytes());
        assert_eq!(chain.resident_items(), raw.len());
        assert_eq!(chain.hits(), raw.stats().hits);
        assert_eq!(chain.store_misses(), raw.stats().misses);
    }

    #[test]
    fn minio_dram_spills_into_the_ssd_tier() {
        // §4.1 extended: a full MinIO DRAM tier bypasses new items, which the
        // MinIO SSD tier then admits — aggregate reach is the *sum* of the
        // capacities, not their max.
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::MinIo, 3),
            spec("ssd", PolicyKind::MinIo, 4),
        ]);
        for k in 0..10u64 {
            let out = chain.access(k, 1);
            assert_eq!(out.source, ChainSource::Store, "cold chain");
        }
        assert_eq!(chain.tier_len(0), 3, "DRAM filled first");
        assert_eq!(chain.tier_len(1), 4, "SSD extends the reach");
        assert_eq!(chain.resident_items(), 7);
        // Second epoch: 3 DRAM hits, 4 SSD hits, 3 store reads — in any order.
        chain.reset_stats();
        for k in (0..10u64).rev() {
            chain.access(k, 1);
        }
        assert_eq!(chain.tier_stats(0).hits, 3);
        assert_eq!(chain.tier_stats(1).hits, 4);
        assert_eq!(chain.store_misses(), 3);
        // A fetch that falls through DRAM records a miss there.
        assert_eq!(chain.tier_stats(0).misses, 7);
        assert_eq!(chain.tier_stats(1).misses, 3);
    }

    #[test]
    fn lru_victims_demote_in_eviction_order_and_hit_below() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::Lru, 2),
            spec("ssd", PolicyKind::Fifo, 2),
        ]);
        // Fill DRAM with 1, 2; then 3 and 4 evict them in LRU order.
        for k in 1..=4u64 {
            chain.access(k, 1);
        }
        assert!(chain.tier_contains(0, 3) && chain.tier_contains(0, 4));
        assert!(chain.tier_contains(1, 1) && chain.tier_contains(1, 2));
        assert_eq!(chain.tier_demotions(0).demoted_out, 2);
        assert_eq!(chain.tier_demotions(1).demoted_in, 2);
        // Touching demoted key 1 serves it from the SSD tier...
        let out = chain.access(1, 1);
        assert_eq!(out.source, ChainSource::Tier(1));
        // ...and promotes it back into DRAM (evicting 3, the LRU victim).
        assert!(chain.tier_contains(0, 1));
        assert!(!chain.tier_contains(0, 3));
        // 3's demotion lands in the FIFO tier, whose insertion-order victim
        // is the stale SSD copy of 1.  That copy falls off the chain, but 1
        // was just promoted to DRAM, so it must stay in the residency set.
        assert!(chain.tier_contains(1, 3));
        assert!(!chain.tier_contains(1, 1));
        assert!(chain.contains(1));
    }

    #[test]
    fn victims_falling_off_the_last_tier_are_reported_dropped() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::Fifo, 2),
            spec("ssd", PolicyKind::Fifo, 2),
        ]);
        for k in 0..6u64 {
            chain.access(k, 1);
        }
        // FIFO everywhere: DRAM holds {4,5}, SSD holds the last two demoted
        // {2,3}; 0 and 1 fell off the end.
        assert!(chain.tier_contains(0, 4) && chain.tier_contains(0, 5));
        assert!(chain.tier_contains(1, 2) && chain.tier_contains(1, 3));
        assert!(!chain.contains(0) && !chain.contains(1));
        assert_eq!(chain.resident_items(), 4);
        // The drops were reported as they happened, in order.
        let mut chain2 = TierChain::new(vec![
            spec("dram", PolicyKind::Fifo, 2),
            spec("ssd", PolicyKind::Fifo, 2),
        ]);
        let mut dropped = Vec::new();
        for k in 0..6u64 {
            dropped.extend(chain2.access(k, 1).dropped);
        }
        assert_eq!(dropped, vec![0, 1]);
    }

    #[test]
    fn demotion_landings_are_reported_per_access_with_final_levels_only() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::Fifo, 2),
            spec("ssd", PolicyKind::Fifo, 2),
        ]);
        // Filling DRAM causes no demotions yet.
        assert!(chain.access(0, 1).demoted.is_empty());
        assert!(chain.access(1, 1).demoted.is_empty());
        // 2 evicts 0 from DRAM; 0 lands on the SSD tier.
        assert_eq!(chain.access(2, 1).demoted, vec![(0, 1)]);
        assert_eq!(chain.access(3, 1).demoted, vec![(1, 1)]);
        // SSD is now full: 4 demotes 2, whose landing evicts 0 off the end.
        let out = chain.access(4, 1);
        assert_eq!(out.demoted, vec![(2, 1)]);
        assert_eq!(out.dropped, vec![0]);
        // A key dropped within the same cascade never reports a landing:
        // byte-placing wrappers see each key exactly once per access.
        let keys: Vec<u64> = out.demoted.iter().map(|&(k, _)| k).collect();
        assert!(keys.iter().all(|k| !out.dropped.contains(k)));
    }

    #[test]
    fn oversized_items_bypass_every_tier() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::Lru, 4),
            spec("ssd", PolicyKind::Lru, 8),
        ]);
        let out = chain.access(1, 100);
        assert_eq!(out.source, ChainSource::Store);
        assert!(!out.admitted);
        assert!(!chain.contains(1));
        assert_eq!(chain.tier_stats(0).misses, 1);
        assert_eq!(chain.tier_stats(1).misses, 1);
    }

    #[test]
    fn would_admit_predicts_admission_of_every_store_miss() {
        // MinIO over MinIO fills and then bypasses; LRU over MinIO never
        // bypasses an item that fits its DRAM level.  At each floor, a miss
        // is admitted exactly when `would_admit` said so, and a predicted
        // bypass records nothing but the misses.
        for (top, floor) in [
            (PolicyKind::MinIo, 0),
            (PolicyKind::MinIo, 1),
            (PolicyKind::Lru, 0),
        ] {
            let mut chain = TierChain::new(vec![
                spec("dram", top, 40),
                spec("ssd", PolicyKind::MinIo, 60),
            ]);
            for key in 0..30u64 {
                let size = 5 + key % 9;
                let predicted = chain.would_admit(size, floor);
                let used = chain.used_bytes();
                let out = chain.access_with_floor(key, size, floor);
                assert_eq!(out.source, ChainSource::Store);
                assert_eq!(out.admitted, predicted, "{top:?} floor {floor} key {key}");
                if !predicted {
                    assert_eq!(chain.used_bytes(), used);
                    assert!(out.dropped.is_empty() && out.demoted.is_empty());
                }
            }
            assert_eq!(chain.tier_stats(0).misses, 30);
        }
    }

    #[test]
    fn variable_sizes_demote_with_their_true_sizes() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::Fifo, 10),
            spec("ssd", PolicyKind::Fifo, 10),
        ]);
        chain.access(1, 6);
        chain.access(2, 6); // evicts 1 (size 6) into the SSD tier
        assert_eq!(chain.tier_used_bytes(0), 6);
        assert_eq!(chain.tier_used_bytes(1), 6, "victim kept its 6 bytes");
        chain.access(3, 6); // evicts 2 -> SSD must evict 1 to fit it
        assert_eq!(chain.tier_used_bytes(1), 6);
        assert!(chain.tier_contains(1, 2) && !chain.contains(1));
    }

    #[test]
    fn tier_costs_order_access_seconds() {
        let chain = TierChain::new(vec![
            TierSpec {
                name: "dram",
                policy: PolicyKind::MinIo,
                capacity_bytes: 10,
                cost: TierCost {
                    bandwidth_bps: 20e9,
                    latency_s: 0.0,
                },
            },
            TierSpec {
                name: "ssd",
                policy: PolicyKind::MinIo,
                capacity_bytes: 10,
                cost: TierCost {
                    bandwidth_bps: 530e6,
                    latency_s: 100e-6,
                },
            },
        ]);
        let dram = chain.tier_cost(0).access_seconds(1 << 20);
        let ssd = chain.tier_cost(1).access_seconds(1 << 20);
        assert!(ssd > 10.0 * dram, "ssd {ssd} vs dram {dram}");
    }

    #[test]
    fn access_with_floor_zero_is_plain_access() {
        let drive = |floored: bool| {
            let mut chain = TierChain::new(vec![
                spec("dram", PolicyKind::Lru, 3),
                spec("ssd", PolicyKind::Fifo, 3),
            ]);
            let trace: Vec<u64> = vec![1, 2, 3, 4, 1, 5, 2, 6, 1, 3];
            let outcomes: Vec<ChainAccess> = trace
                .iter()
                .map(|&k| {
                    if floored {
                        chain.access_with_floor(k, 1, 0)
                    } else {
                        chain.access(k, 1)
                    }
                })
                .collect();
            (
                outcomes,
                *chain.tier_stats(0),
                *chain.tier_stats(1),
                chain.used_bytes(),
            )
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn floor_blocks_admission_and_promotion_above_it() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::MinIo, 4),
            spec("ssd", PolicyKind::MinIo, 4),
        ]);
        // Admission with floor 1 lands in the SSD tier, leaving DRAM empty.
        let out = chain.access_with_floor(1, 1, 1);
        assert!(out.admitted);
        assert!(!chain.tier_contains(0, 1) && chain.tier_contains(1, 1));
        // The DRAM tier still records the fetch falling through it.
        assert_eq!(chain.tier_stats(0).misses, 1);
        assert_eq!(chain.tier_stats(0).insertions, 0);
        // A floored hit at the SSD tier is served there without promoting.
        let out = chain.access_with_floor(1, 1, 1);
        assert_eq!(out.source, ChainSource::Tier(1));
        assert!(!out.admitted);
        assert!(!chain.tier_contains(0, 1));
        // An unfloored hit promotes into the empty DRAM tier.
        let out = chain.access(1, 1);
        assert_eq!(out.source, ChainSource::Tier(1));
        assert!(out.admitted);
        assert!(chain.tier_contains(0, 1));
        assert_eq!(chain.locate(1), Some(0));
    }

    #[test]
    fn locate_reports_provenance_without_touching_state() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::MinIo, 2),
            spec("ssd", PolicyKind::MinIo, 2),
        ]);
        for k in 0..4u64 {
            chain.access(k, 1);
        }
        let stats = (*chain.tier_stats(0), *chain.tier_stats(1));
        assert_eq!(chain.locate(0), Some(0));
        assert_eq!(chain.locate(2), Some(1));
        assert_eq!(chain.locate(9), None);
        assert_eq!((*chain.tier_stats(0), *chain.tier_stats(1)), stats);
    }

    #[test]
    fn remove_reclaims_capacity_across_levels() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::MinIo, 2),
            spec("ssd", PolicyKind::MinIo, 2),
        ]);
        for k in 0..4u64 {
            chain.access(k, 1);
        }
        assert_eq!(chain.remove(1), Some(1));
        assert_eq!(chain.remove(1), None, "double remove");
        assert!(!chain.contains(1));
        assert_eq!(chain.resident_items(), 3);
        assert_eq!(chain.tier_used_bytes(0), 1, "DRAM byte reclaimed");
        // The freed DRAM slot is reusable by the next admission.
        let out = chain.access(9, 1);
        assert!(out.admitted);
        assert_eq!(chain.locate(9), Some(0));
    }

    #[test]
    fn remove_frees_both_copies_of_a_promoted_key() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::MinIo, 2),
            spec("ssd", PolicyKind::MinIo, 2),
        ]);
        for k in 0..4u64 {
            chain.access(k, 1);
        }
        // Free a DRAM slot, then hit the SSD-resident 2: MinIO promotes it,
        // leaving copies at both levels.
        chain.remove(0);
        chain.access(2, 1);
        assert!(chain.tier_contains(0, 2) && chain.tier_contains(1, 2));
        assert_eq!(chain.remove(2), Some(2), "both copies freed");
        assert!(!chain.contains(2));
    }

    #[test]
    fn remove_range_clears_exactly_the_window() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::MinIo, 4),
            spec("ssd", PolicyKind::MinIo, 4),
        ]);
        // Two key windows of four 1-byte items each.
        for k in (0..4u64).chain(100..104) {
            chain.access(k, 1);
        }
        assert_eq!(chain.resident_items(), 8);
        assert_eq!(chain.remove_range(100..200), 4);
        assert_eq!(chain.remove_range(100..200), 0, "window already empty");
        for k in 0..4u64 {
            assert!(chain.contains(k), "survivor window intact");
        }
        for k in 100..104u64 {
            assert!(!chain.contains(k));
        }
        assert_eq!(chain.resident_items(), 4);
        assert_eq!(chain.used_bytes(), 4);
    }

    #[test]
    fn reset_stats_preserves_contents_and_demotion_history() {
        let mut chain = TierChain::new(vec![
            spec("dram", PolicyKind::Lru, 2),
            spec("ssd", PolicyKind::Lru, 2),
        ]);
        for k in 0..4u64 {
            chain.access(k, 1);
        }
        chain.reset_stats();
        assert_eq!(chain.tier_stats(0).accesses(), 0);
        assert_eq!(chain.resident_items(), 4);
        assert_eq!(chain.tier_demotions(0).demoted_out, 2);
    }
}
