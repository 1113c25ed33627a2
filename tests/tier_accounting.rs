//! Byte-accounting and victim-order regression tests for the cache
//! hierarchy (ISSUE 5 satellites).
//!
//! The tier-demotion path moves *exactly* the keys each policy evicts, in
//! *exactly* the order it evicts them — so the victim logs behind
//! `set_eviction_tracking` / `take_evicted` are pinned here for all three
//! evicting policies, including CLOCK's second-chance rotation.  And the
//! byte-holding caches must never let resident bytes exceed capacity, under
//! key replacement (re-admitting an existing key with different bytes) or
//! demotion churn.  Finally, all four policies are checked operation by
//! operation against an obviously-correct vector-scan model on seeded
//! random access/remove streams (`PROPTEST_CASES` sets how many).

use datastalls::cache::{AccessOutcome, CacheStats, PolicyCache, PolicyKind};
use datastalls::coordl::{ByteTierSpec, CacheTier, TieredByteCache};
use proptest::prelude::*;
use std::sync::Arc;

fn payload(tag: u64, len: usize) -> Arc<Vec<u8>> {
    Arc::new(vec![tag as u8; len])
}

// ---------------------------------------------------------------------------
// Victim order
// ---------------------------------------------------------------------------

#[test]
fn lru_victim_log_is_exact_recency_order() {
    let mut c = PolicyCache::new(PolicyKind::Lru, 3);
    c.set_eviction_tracking(true);
    for k in [1u64, 2, 3] {
        c.access(k, 1);
    }
    c.access(1, 1); // recency now 2 < 3 < 1
    c.access(4, 1); // evicts 2
    c.access(5, 1); // evicts 3
    c.access(6, 1); // evicts 1
    assert_eq!(c.take_evicted(), vec![2, 3, 1]);
    assert!(c.take_evicted().is_empty(), "log drains");
}

#[test]
fn fifo_victim_log_is_exact_insertion_order() {
    let mut c = PolicyCache::new(PolicyKind::Fifo, 2);
    c.set_eviction_tracking(true);
    for k in [7u64, 8] {
        c.access(k, 1);
    }
    c.access(7, 1); // hit: FIFO does not promote
    c.access(9, 1); // evicts 7
    c.access(10, 1); // evicts 8
    assert_eq!(c.take_evicted(), vec![7, 8]);
}

#[test]
fn clock_victim_log_follows_second_chance_order_exactly() {
    // Hand-computed trace on the textbook clock: a victim's frame takes the
    // new key and the hand moves past it.
    //   insert 1,2,3            frames [1,2,3], hand at 1, all unreferenced
    //   hit 2                   ref(2)
    //   insert 4: 1 is unreferenced -> evict 1; frames [4,2,3], hand at 2
    //   hit 3                   ref(3)
    //   insert 5: hand clears 2, clears 3, lands on 4 -> evict 4;
    //             frames [5,2,3], hand at 2
    //   insert 6: 2 spent its second chance -> evict 2; hand at 3
    let mut c = PolicyCache::new(PolicyKind::Clock, 3);
    c.set_eviction_tracking(true);
    for k in [1u64, 2, 3] {
        c.access(k, 1);
    }
    c.access(2, 1);
    c.access(4, 1);
    c.access(3, 1);
    c.access(5, 1);
    c.access(6, 1);
    assert_eq!(c.take_evicted(), vec![1, 4, 2]);
    // The newest keys stay: the hand reaches them last.
    assert!(c.contains(&3) && c.contains(&5) && c.contains(&6));
}

#[test]
fn demotion_preserves_each_policy_victim_order() {
    // A FIFO lower tier receives victims in arrival order, so after churn
    // its insertion order *is* the upper tier's eviction order.  Drive the
    // same accesses through each upper policy and check the lower tier's
    // eventual FIFO eviction order replays the upper tier's victim log.
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock] {
        // Reference run: the raw policy with tracking on.
        let mut reference = PolicyCache::new(kind, 3);
        reference.set_eviction_tracking(true);
        let trace: Vec<u64> = vec![1, 2, 3, 2, 4, 3, 5, 6, 1, 7];
        for &k in &trace {
            reference.access(k, 1);
        }
        let expected_victims = reference.take_evicted();
        assert!(expected_victims.len() >= 3, "{kind:?} trace must churn");

        // Tiered run: the same upper tier demoting into a roomy FIFO tier.
        // The chain drives the upper policy through the identical access
        // sequence (a promotion is an admission attempt, exactly like the
        // raw policy's miss), so its victim stream is the reference's.
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(kind, 3),
            ByteTierSpec::sata_ssd(PolicyKind::Fifo, 64),
        ]);
        for &k in &trace {
            if tier.lookup(k).is_none() {
                tier.admit(k, payload(k, 1));
            }
        }
        let snaps = tier.tier_snapshots();
        assert!(
            snaps[1].demoted_in > 0,
            "{kind:?}: the trace must demote victims"
        );
        // Nothing falls off a 64-byte FIFO tier on a 1-byte trace: every
        // victim the reference evicted must still be chain-resident.
        for v in &expected_victims {
            assert!(
                tier.contains(*v),
                "{kind:?}: victim {v} lost during demotion"
            );
        }
        // Demotions pair up across the boundary...
        assert_eq!(
            snaps[0].demoted_out, snaps[1].demoted_in,
            "{kind:?}: every demoted-out victim lands below"
        );
        // ...and the chain's upper tier evicted exactly as many entries as
        // the reference policy did (same policy code, same access stream).
        assert_eq!(
            snaps[0].evictions,
            reference.stats().evictions,
            "{kind:?}: eviction count"
        );
    }
}

// ---------------------------------------------------------------------------
// Resident-bytes <= capacity under replacement and demotion
// ---------------------------------------------------------------------------

#[test]
fn minio_byte_cache_replacement_keeps_first_copy_and_capacity() {
    let cache = TieredByteCache::single(PolicyKind::MinIo, 100);
    cache.admit(1, payload(1, 60));
    // Re-admitting the same key with different bytes must not change the
    // accounting or the resident copy.
    let kept = cache.admit(1, payload(9, 80));
    assert_eq!(kept.as_slice(), &[1u8; 60], "first copy wins");
    assert_eq!(cache.used_bytes(), 60);
    cache.admit(2, payload(2, 40));
    assert_eq!(cache.used_bytes(), 100);
    assert!(cache.used_bytes() <= 100);
    // Over-capacity admissions bypass without corrupting the accounting.
    cache.admit(3, payload(3, 10));
    assert_eq!(cache.used_bytes(), 100);
    assert!(!cache.contains(3));
}

#[test]
fn policy_byte_cache_replacement_never_exceeds_capacity() {
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::MinIo,
    ] {
        let cache = TieredByteCache::single(kind, 64);
        // Churn with varied sizes, re-admitting keys with *different*
        // payload sizes (the replacement case).
        for round in 0..4u64 {
            for k in 0..12u64 {
                let size = 4 + ((k + round) % 5) as usize * 7;
                if cache.lookup(k).is_none() {
                    cache.admit(k, payload(k, size));
                }
                assert!(
                    cache.used_bytes() <= cache.capacity_bytes(),
                    "{kind:?}: {} > {}",
                    cache.used_bytes(),
                    cache.capacity_bytes()
                );
            }
        }
        // The payload map and the policy agree on residency.
        let resident = (0..12u64).filter(|&k| cache.contains(k)).count();
        assert_eq!(resident, cache.resident_items(), "{kind:?}");
    }
}

#[test]
fn tiered_byte_cache_invariants_hold_under_demotion_churn() {
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock] {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(kind, 48),
            ByteTierSpec::sata_ssd(kind, 32),
        ]);
        for round in 0..5u64 {
            for k in 0..20u64 {
                let size = 3 + ((k * 7 + round) % 6) as usize * 5;
                if tier.lookup(k).is_none() {
                    tier.admit(k, payload(k, size));
                }
                let snaps = tier.tier_snapshots();
                for level in &snaps {
                    assert!(
                        level.used_bytes <= level.capacity_bytes,
                        "{kind:?} level {}: {} > {}",
                        level.name,
                        level.used_bytes,
                        level.capacity_bytes
                    );
                }
                // Payloads exist exactly for chain-resident keys.
                for probe in 0..20u64 {
                    assert_eq!(
                        tier.contains(probe),
                        tier.lookup(probe).is_some(),
                        "{kind:?}: payload map out of sync for {probe}"
                    );
                }
            }
        }
        let snaps = tier.tier_snapshots();
        assert!(
            snaps[1].demoted_in > 0,
            "{kind:?}: churn must have demoted victims"
        );
    }
}

#[test]
fn lookup_probe_does_not_change_residency() {
    // `contains` + `lookup` agreement above relies on lookup hits touching
    // recency only; a miss must not admit or evict anything.
    let tier = TieredByteCache::new(vec![
        ByteTierSpec::dram(PolicyKind::Lru, 16),
        ByteTierSpec::sata_ssd(PolicyKind::Lru, 16),
    ]);
    for k in 0..8u64 {
        tier.admit(k, payload(k, 4));
    }
    let before: Vec<bool> = (0..8).map(|k| tier.contains(k)).collect();
    for _ in 0..3 {
        assert!(tier.lookup(999).is_none());
    }
    let after: Vec<bool> = (0..8).map(|k| tier.contains(k)).collect();
    assert_eq!(before, after);
}

// ---------------------------------------------------------------------------
// Reference model of the policy layer
// ---------------------------------------------------------------------------

/// Proptest case count: `PROPTEST_CASES` if set (the CI extended leg boosts
/// it), the default otherwise.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// An obviously-correct byte-capacity cache: one vector of resident
/// `(key, size, referenced)` entries, scanned linearly.  LRU keeps it in
/// recency order (least recent first), FIFO and MinIO in arrival order.
/// CLOCK is the textbook one: the vector is a circle of frames and `hand`
/// points at the next frame to inspect; a referenced frame loses its bit and
/// the hand moves on, an unreferenced one is the victim, the new key takes
/// the victim's place and the hand moves past it.  It logs every victim and
/// counts its own statistics.
struct PolicyModel {
    kind: PolicyKind,
    cap: u64,
    items: Vec<(u64, u64, bool)>,
    hand: usize,
    victims: Vec<u64>,
    stats: CacheStats,
}

impl PolicyModel {
    fn used(&self) -> u64 {
        self.items.iter().map(|&(_, size, _)| size).sum()
    }

    /// Take the entry at `pos` out; the hand keeps pointing at the frame it
    /// pointed at, or at the next one if `pos` was the hand's.
    fn take(&mut self, pos: usize) -> (u64, u64, bool) {
        if pos < self.hand {
            self.hand -= 1;
        }
        self.items.remove(pos)
    }

    /// Admit a new, unreferenced key: at the back, or on the clock just
    /// behind the hand (where the last victim was).
    fn insert(&mut self, key: u64, size: u64) {
        if self.kind == PolicyKind::Clock {
            self.items.insert(self.hand, (key, size, false));
            self.hand += 1;
        } else {
            self.items.push((key, size, false));
        }
    }

    /// Where the next victim sits.  LRU, FIFO: the front.  CLOCK: the first
    /// unreferenced entry from the hand on, clearing the bits it passes.
    fn victim(&mut self) -> usize {
        while self.kind == PolicyKind::Clock {
            if self.hand >= self.items.len() {
                self.hand = 0;
            }
            if !std::mem::take(&mut self.items[self.hand].2) {
                return self.hand;
            }
            self.hand += 1;
        }
        0
    }

    fn access(&mut self, key: u64, size: u64) -> AccessOutcome {
        if let Some(pos) = self.items.iter().position(|&(k, _, _)| k == key) {
            match self.kind {
                PolicyKind::Lru => self.items[pos..].rotate_left(1), // to the back
                PolicyKind::Clock => self.items[pos].2 = true,
                PolicyKind::Fifo | PolicyKind::MinIo => {}
            }
            self.stats.hits += 1;
            self.stats.bytes_hit += size;
            return AccessOutcome::Hit;
        }
        self.stats.misses += 1;
        self.stats.bytes_missed += size;
        let minio = self.kind == PolicyKind::MinIo;
        if size > self.cap || (minio && self.used() + size > self.cap) {
            return AccessOutcome::Bypassed;
        }
        while self.used() + size > self.cap {
            let pos = self.victim();
            let (victim, _, _) = self.take(pos);
            self.victims.push(victim);
            self.stats.evictions += 1;
        }
        self.insert(key, size);
        self.stats.insertions += 1;
        AccessOutcome::Inserted
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let pos = self.items.iter().position(|&(k, _, _)| k == key)?;
        Some(self.take(pos).1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// Every policy makes the model's decisions on a random stream of
    /// accesses (sizes up to one byte over the capacity) and removals: the
    /// same outcome, victims, resident bytes and items and statistics after
    /// every operation.
    #[test]
    fn every_policy_matches_the_vector_scan_model_op_by_op(
        ops_seed in 0u64..u64::MAX,
        cap in 1u64..=12,
        keys in 2u64..24,
        num_ops in 1usize..300,
    ) {
        for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock, PolicyKind::MinIo] {
            let mut cache = PolicyCache::new(kind, cap);
            cache.set_eviction_tracking(true);
            let mut model = PolicyModel {
                kind,
                cap,
                items: Vec::new(),
                hand: 0,
                victims: Vec::new(),
                stats: CacheStats::default(),
            };
            let mut rng = TestRng::new(ops_seed);
            for step in 0..num_ops {
                let (op, key) = (rng.next_u64(), rng.next_u64() % keys);
                let what = if op % 8 == 0 {
                    prop_assert_eq!(cache.remove(&key), model.remove(key), "{kind:?} step {step}: remove {key}");
                    format!("remove {key}")
                } else {
                    let size = 1 + (op >> 8) % (cap + 1);
                    prop_assert_eq!(cache.access(key, size), model.access(key, size), "{kind:?} step {step}: access {key}");
                    format!("access {key} ({size} B)")
                };
                let victims = std::mem::take(&mut model.victims);
                prop_assert_eq!(cache.take_evicted(), victims, "{kind:?} step {step}: {what}");
                prop_assert_eq!(cache.used_bytes(), model.used(), "{kind:?} step {step}: {what}");
                prop_assert_eq!(cache.len(), model.items.len(), "{kind:?} step {step}: {what}");
                prop_assert_eq!(*cache.stats(), model.stats, "{kind:?} step {step}: {what}");
            }
        }
    }
}
