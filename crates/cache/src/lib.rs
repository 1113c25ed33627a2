//! Cache substrate: the software caches that sit between DNN training and
//! storage.
//!
//! The paper's analysis shows that the OS page cache (an LRU variant) is a
//! poor fit for the DNN access pattern — every item is accessed exactly once
//! per epoch in a fresh random order — because items are evicted before they
//! are used again, producing *thrashing*.  CoorDL's **MinIO** cache exploits
//! the fact that all items have the same access probability: it caches items
//! as they are first fetched, never evicts, and therefore turns every cached
//! item into exactly one hit per epoch (the minimum possible amount of disk
//! I/O).
//!
//! This crate provides:
//!
//! * the [`Cache`] trait and byte-capacity [`CacheStats`] accounting,
//! * policy implementations: [`LruCache`], [`FifoCache`], [`ClockCache`]
//!   (page-cache stand-ins) and [`MinIoCache`],
//! * [`PartitionedIndex`] — the shard directory used by CoorDL's partitioned
//!   cache for distributed training,
//! * fault machinery for chaos testing that directory: deterministic
//!   membership schedules ([`fault_schedule`]) and rendezvous hashing
//!   ([`rendezvous_order`]) for rebalancing when a node dies.

pub mod fault;
pub mod hierarchy;
pub mod partitioned;
pub mod policy;
pub mod ring;
pub mod sharded;
pub mod stats;

pub use fault::{fault_schedule, FaultEvent, FaultKind};
pub use hierarchy::{ChainAccess, ChainSource, DemotionStats, TierChain, TierCost, TierSpec};
pub use partitioned::{Location, PartitionedIndex, ServerId};
pub use policy::{ClockCache, FifoCache, LruCache, MinIoCache, PolicyKind};
pub use ring::{rendezvous_order, rendezvous_pick, rendezvous_score};
pub use sharded::{shard_capacity, shard_of_key, ShardedChain};
pub use stats::{AccessOutcome, CacheStats};

use std::hash::Hash;

/// A byte-capacity cache of opaque items.
///
/// `access` performs a combined lookup-and-admit: on a miss, the policy
/// decides whether to insert the item (possibly evicting others).  This
/// mirrors how both the OS page cache and the MinIO cache behave during
/// training: every item read from storage is offered to the cache.
pub trait Cache<K: Hash + Eq + Clone> {
    /// Look up `key` (an item of `size` bytes). Records statistics and admits
    /// the item on a miss according to the policy.
    fn access(&mut self, key: K, size: u64) -> AccessOutcome;

    /// Whether `key` is currently resident.
    fn contains(&self, key: &K) -> bool;

    /// Bytes currently resident.
    fn used_bytes(&self) -> u64;

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Number of resident items.
    fn len(&self) -> usize;

    /// True when no items are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative statistics since the last [`Cache::reset_stats`].
    fn stats(&self) -> &CacheStats;

    /// Reset statistics (e.g. at an epoch boundary) without touching contents.
    fn reset_stats(&mut self);

    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Enable or disable victim logging for [`Cache::take_evicted`].
    ///
    /// Off by default so plain simulations pay no memory for evictions they
    /// never inspect; byte-holding wrappers turn it on at construction.
    /// Policies that never evict ignore it.
    fn set_eviction_tracking(&mut self, _enabled: bool) {}

    /// Keys evicted since the last call, in eviction order.
    ///
    /// [`TierChain`] uses this to demote victims to the next tier and to tell
    /// byte-holding wrappers (the CoorDL runtime's `TieredByteCache`) which
    /// payloads to drop.  Returns nothing unless
    /// [`Cache::set_eviction_tracking`] was enabled first.
    fn take_evicted(&mut self) -> Vec<K> {
        Vec::new()
    }

    /// Administratively remove `key`, returning its resident size.
    ///
    /// Removal is not an eviction: it records no statistics and does not
    /// appear in the [`Cache::take_evicted`] victim log.  It exists for
    /// external lifecycle events — a multi-tenant server reclaiming a
    /// departed tenant's bytes — rather than for the policy's own decisions.
    fn remove(&mut self, key: &K) -> Option<u64>;
}

/// Construct a boxed cache of the given policy kind and capacity, keyed by
/// `u64` item ids (the representation used throughout the simulator).
pub fn build_cache(kind: PolicyKind, capacity_bytes: u64) -> Box<dyn Cache<u64> + Send> {
    match kind {
        PolicyKind::Lru => Box::new(LruCache::new(capacity_bytes)),
        PolicyKind::Fifo => Box::new(FifoCache::new(capacity_bytes)),
        PolicyKind::Clock => Box::new(ClockCache::new(capacity_bytes)),
        PolicyKind::MinIo => Box::new(MinIoCache::new(capacity_bytes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_cache_constructs_each_policy() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::MinIo,
        ] {
            let mut c = build_cache(kind, 100);
            assert_eq!(c.capacity_bytes(), 100);
            assert!(c.is_empty());
            c.access(1, 10);
            assert_eq!(c.len(), 1);
        }
    }
}
