//! The partitioned-cache shard directory (§4.2 of the paper).
//!
//! During distributed training, CoorDL shards the dataset across the MinIO
//! caches of all participating servers: in the first epoch each server
//! populates its cache with the shard assigned to it, and from the second
//! epoch on a local miss is first looked up in the *directory* — metadata that
//! says which server caches which item — and served from the remote server's
//! DRAM over commodity TCP rather than from local storage.
//!
//! [`PartitionedIndex`] is that directory.  It is deliberately independent of
//! the cache *contents*: the simulator and the functional loader both register
//! residency here and query it on a local miss.

use std::collections::HashMap;

/// Identifier of a server participating in a distributed training job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

/// Where a partitioned-cache lookup found (or did not find) an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Resident in the local server's MinIO cache.
    Local,
    /// Resident in a remote server's MinIO cache.
    Remote(ServerId),
    /// Not resident anywhere; must be read from storage.
    Storage,
}

/// Directory mapping items to the server whose MinIO cache holds them.
///
/// The directory assigns nothing: which server sweeps (and so caches) an
/// item is the engine's per-epoch sharding (`dataset::EpochSampler::
/// distributed_shard` in both the simulator and the runtime).  Residency is
/// registered here dynamically as caches fill, because a server's cache may
/// be too small to hold its entire shard.
#[derive(Debug, Clone)]
pub struct PartitionedIndex {
    num_servers: usize,
    resident: HashMap<u64, ServerId>,
}

impl PartitionedIndex {
    /// Create a directory for `num_servers` servers.
    ///
    /// # Panics
    /// Panics if `num_servers` is zero.
    pub fn new(num_servers: usize) -> Self {
        assert!(num_servers > 0, "need at least one server");
        PartitionedIndex {
            num_servers,
            resident: HashMap::new(),
        }
    }

    /// Number of servers in the job.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Record that `item` is now resident in `server`'s cache.
    pub fn register(&mut self, item: u64, server: ServerId) {
        assert!(
            server.0 < self.num_servers,
            "server {server:?} out of range (num_servers = {})",
            self.num_servers
        );
        self.resident.insert(item, server);
    }

    /// Number of items registered as resident anywhere.
    pub fn resident_items(&self) -> usize {
        self.resident.len()
    }

    /// Forget `item`'s residency (no-op when unregistered), returning the
    /// server it was registered to.
    pub fn unregister(&mut self, item: u64) -> Option<ServerId> {
        self.resident.remove(&item)
    }

    /// Drop every entry registered to `server` — the directory's view of
    /// that node dying — returning the orphaned items in ascending order so
    /// callers can re-home them deterministically.
    pub fn unregister_server(&mut self, server: ServerId) -> Vec<u64> {
        let mut items: Vec<u64> = self
            .resident
            .iter()
            .filter(|&(_, &s)| s == server)
            .map(|(&item, _)| item)
            .collect();
        items.sort_unstable();
        for item in &items {
            self.resident.remove(item);
        }
        items
    }

    /// Every `(item, server)` registration, in ascending item order.
    pub fn entries(&self) -> Vec<(u64, ServerId)> {
        let mut entries: Vec<(u64, ServerId)> =
            self.resident.iter().map(|(&item, &s)| (item, s)).collect();
        entries.sort_unstable();
        entries
    }

    /// Look up `item` from the point of view of `local` server.
    pub fn locate(&self, item: u64, local: ServerId) -> Location {
        match self.resident.get(&item) {
            Some(&s) if s == local => Location::Local,
            Some(&s) => Location::Remote(s),
            None => Location::Storage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_distinguishes_local_remote_storage() {
        let mut idx = PartitionedIndex::new(2);
        idx.register(10, ServerId(0));
        idx.register(11, ServerId(1));
        assert_eq!(idx.locate(10, ServerId(0)), Location::Local);
        assert_eq!(idx.locate(10, ServerId(1)), Location::Remote(ServerId(0)));
        assert_eq!(idx.locate(11, ServerId(0)), Location::Remote(ServerId(1)));
        assert_eq!(idx.locate(99, ServerId(0)), Location::Storage);
    }

    #[test]
    fn unregister_server_returns_orphans_in_order() {
        let mut idx = PartitionedIndex::new(3);
        for i in 0..12u64 {
            idx.register(i, ServerId(i as usize % 3));
        }
        assert_eq!(idx.resident_items(), 12);
        let orphans = idx.unregister_server(ServerId(1));
        assert_eq!(orphans, vec![1, 4, 7, 10]);
        assert_eq!(idx.resident_items(), 8);
        for &i in &orphans {
            assert_eq!(idx.locate(i, ServerId(0)), Location::Storage);
        }
        // Other servers' registrations are untouched.
        assert_eq!(idx.locate(0, ServerId(0)), Location::Local);
        assert_eq!(idx.unregister_server(ServerId(1)), Vec::<u64>::new());
        // Single-item unregister round-trips.
        assert_eq!(idx.unregister(0), Some(ServerId(0)));
        assert_eq!(idx.unregister(0), None);
    }

    #[test]
    fn entries_list_every_registration_in_item_order() {
        let mut idx = PartitionedIndex::new(2);
        for item in [9u64, 3, 7] {
            idx.register(item, ServerId(item as usize % 2));
        }
        idx.register(7, ServerId(0)); // re-registration moves the item
        let expected = vec![(3, ServerId(1)), (7, ServerId(0)), (9, ServerId(1))];
        assert_eq!(idx.entries(), expected);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = PartitionedIndex::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn register_out_of_range_server_rejected() {
        let mut idx = PartitionedIndex::new(2);
        idx.register(0, ServerId(5));
    }
}
