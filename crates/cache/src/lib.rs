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
//! * [`PolicyCache`] — one byte-capacity cache with [`CacheStats`]
//!   accounting, under LRU, FIFO or CLOCK (page-cache stand-ins) or MinIO
//!   ([`PolicyKind`]),
//! * [`TierChain`] — an ordered hierarchy of policy caches with spill-down
//!   admission and demotion-on-eviction,
//! * [`PartitionedIndex`] — the shard directory used by CoorDL's partitioned
//!   cache for distributed training, with the cluster's membership and its
//!   one rule set (local first; a kill re-homes orphans to live holders; a
//!   leave re-homes, then migrates the rest; a join re-advertises lazily on
//!   local hits; dead nodes never register), shared by the simulator and
//!   the runtime,
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
pub use policy::{KeyMap, PolicyCache, PolicyKind};
pub use ring::{rendezvous_order, rendezvous_pick, rendezvous_score};
pub use sharded::{shard_capacity, shard_of_key, ShardedChain};
pub use stats::{AccessOutcome, CacheStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_cache_constructs_each_policy() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
            PolicyKind::MinIo,
        ] {
            let mut c = PolicyCache::new(kind, 100);
            assert_eq!(c.capacity_bytes(), 100);
            assert!(c.is_empty());
            c.access(1, 10);
            assert_eq!(c.len(), 1);
        }
    }
}
