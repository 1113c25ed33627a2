//! The partitioned-cache shard directory (§4.2 of the paper).
//!
//! During distributed training, CoorDL shards the dataset across the MinIO
//! caches of all participating servers: in the first epoch each server
//! populates its cache with the shard assigned to it, and from the second
//! epoch on a local miss is first looked up in the *directory* — metadata that
//! says which server caches which item — and served from the remote server's
//! DRAM over commodity TCP rather than from local storage.
//!
//! [`PartitionedIndex`] is that directory, and it owns the cluster's cache
//! *membership* as well: which servers are alive, the fault schedule and what
//! a kill, a graceful leave and a rejoin do to the entries.  It is
//! deliberately independent of the cache *contents* — a membership change
//! asks the caller whether a node holds an item — so the simulator and the
//! functional loader run the same rules over their own caches.
//!
//! # The membership rules
//!
//! * A fetch is served by the local cache if the node is alive, else by a
//!   live remote owner ([`remote_owner`](PartitionedIndex::remote_owner)),
//!   else by storage; only a live node admits and registers what storage
//!   served ([`register`](PartitionedIndex::register) refuses a dead one).
//! * **Kill**: the node's entries are re-homed, each to the first live node
//!   in the item's rendezvous order that already holds it; the rest are
//!   dropped, so their next fetch reads storage.
//! * **Leave** = kill's re-home, then each remaining orphan migrates to the
//!   first live rendezvous candidate that keeps the leaver's copy.
//! * **Join**: the node is alive again with whatever its cache still holds;
//!   its local hits re-advertise those items lazily
//!   ([`advertise`](PartitionedIndex::advertise)) when nobody owns them.
//! * No entry ever names a dead node.

use crate::fault::{FaultEvent, FaultKind};
use crate::ring::rendezvous_order;
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

/// Directory mapping items to the server whose MinIO cache holds them, plus
/// the cluster's cache membership.
///
/// The directory assigns nothing: which server sweeps (and so caches) an
/// item is the engine's per-epoch sharding (`dataset::EpochSampler::
/// distributed_shard` in both the simulator and the runtime).  Residency is
/// registered here dynamically as caches fill, because a server's cache may
/// be too small to hold its entire shard.
#[derive(Debug, Clone)]
pub struct PartitionedIndex {
    resident: HashMap<u64, ServerId>,
    alive: Vec<bool>,
    /// Membership events sorted by `at`; those before `fired` have fired.
    schedule: Vec<FaultEvent>,
    fired: usize,
}

impl PartitionedIndex {
    /// Create a directory for `num_servers` live servers and no schedule.
    ///
    /// # Panics
    /// Panics if `num_servers` is zero.
    pub fn new(num_servers: usize) -> Self {
        assert!(num_servers > 0, "need at least one server");
        PartitionedIndex {
            resident: HashMap::new(),
            alive: vec![true; num_servers],
            schedule: Vec::new(),
            fired: 0,
        }
    }

    /// Number of servers in the job.
    pub fn num_servers(&self) -> usize {
        self.alive.len()
    }

    /// Whether `server`'s cache is a live member (`false` out of range).
    pub fn is_alive(&self, server: ServerId) -> bool {
        self.alive.get(server.0).copied().unwrap_or(false)
    }

    /// Record that `item` is now resident in `server`'s cache.  A dead
    /// server's cache registers nothing.
    ///
    /// # Panics
    /// Panics if `server` is out of range.
    pub fn register(&mut self, item: u64, server: ServerId) {
        assert!(
            server.0 < self.num_servers(),
            "server {server:?} out of range (num_servers = {})",
            self.num_servers()
        );
        if self.alive[server.0] {
            self.resident.insert(item, server);
        }
    }

    /// The lazy re-advertise of a local hit: register `item` to `server`
    /// when nobody owns it — a rejoined node's warm copy of an entry its
    /// kill dropped.  An owned item keeps its owner.
    pub fn advertise(&mut self, item: u64, server: ServerId) {
        if !self.resident.contains_key(&item) {
            self.register(item, server);
        }
    }

    /// Number of items registered as resident anywhere.
    pub fn resident_items(&self) -> usize {
        self.resident.len()
    }

    /// Drop every entry registered to `server`, returning the orphaned items
    /// in ascending order so they are re-homed deterministically.
    fn unregister_server(&mut self, server: ServerId) -> Vec<u64> {
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

    /// The live server other than `local` that owns `item`, if any — where
    /// a local miss is served from before storage.
    pub fn remote_owner(&self, item: u64, local: ServerId) -> Option<ServerId> {
        match self.locate(item, local) {
            Location::Remote(owner) if self.is_alive(owner) => Some(owner),
            _ => None,
        }
    }

    /// Install (or replace) the membership schedule; events are stably
    /// sorted by `at` and none has fired yet.
    pub fn set_schedule(&mut self, mut events: Vec<FaultEvent>) {
        events.sort_by_key(|e| e.at);
        self.schedule = events;
        self.fired = 0;
    }

    /// The next scheduled event with `at <= completed` that has not fired
    /// yet, marking it fired.  `completed` counts the units done so far
    /// (epochs in the simulator, fetches in the runtime), so an event at `k`
    /// fires before unit `k` (0-based) is served.
    pub fn next_due(&mut self, completed: u64) -> Option<FaultEvent> {
        let event = *self.schedule.get(self.fired)?;
        if event.at > completed {
            return None;
        }
        self.fired += 1;
        Some(event)
    }

    /// Apply one membership change to `node` (a no-op for a kill or leave of
    /// a dead node and for a join of a live one).
    ///
    /// `holds(item, candidate, offered)` reports whether `candidate`'s cache
    /// holds `item`; with `offered` set (a leave's migration) the caller
    /// first offers the leaver's copy to `candidate`.  It is only asked about
    /// live candidates, in the item's rendezvous order.
    pub fn apply(
        &mut self,
        kind: FaultKind,
        node: ServerId,
        mut holds: impl FnMut(u64, ServerId, bool) -> bool,
    ) {
        if kind == FaultKind::Join {
            if let Some(alive) = self.alive.get_mut(node.0) {
                *alive = true;
            }
            return;
        }
        if !self.is_alive(node) {
            return;
        }
        self.alive[node.0] = false;
        for item in self.unregister_server(node) {
            let live: Vec<ServerId> = rendezvous_order(item, self.num_servers())
                .into_iter()
                .map(ServerId)
                .filter(|&n| self.alive[n.0])
                .collect();
            let mut owner = live.iter().copied().find(|&n| holds(item, n, false));
            if owner.is_none() && kind == FaultKind::Leave {
                owner = live.into_iter().find(|&n| holds(item, n, true));
            }
            if let Some(owner) = owner {
                self.resident.insert(item, owner);
            }
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
