//! An obviously-correct single-level byte cache, the reference the real
//! `TieredByteCache` is compared against: one vector in recency order and a
//! linear scan per operation — no `dcache` policy code, no chain, no shards.

use datastalls::coordl::CacheTier;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct State {
    /// Resident items, least recently used first (MinIO ignores the order).
    items: Vec<(u64, Arc<Vec<u8>>)>,
    used: u64,
    hits: u64,
    misses: u64,
}

/// `cap` bytes under LRU or, when `!lru`, MinIO: admit until full, never evict.
pub struct RefTier {
    inner: Mutex<State>,
    cap: u64,
    lru: bool,
}

impl RefTier {
    pub fn new(cap: u64, lru: bool) -> Self {
        let inner = Mutex::default();
        RefTier { inner, cap, lru }
    }
}

impl CacheTier for RefTier {
    fn lookup(&self, item: u64) -> Option<Arc<Vec<u8>>> {
        let mut s = self.inner.lock().unwrap();
        let Some(pos) = s.items.iter().position(|(k, _)| *k == item) else {
            s.misses += 1;
            return None;
        };
        s.hits += 1;
        let entry = s.items.remove(pos);
        s.items.push(entry.clone());
        Some(entry.1)
    }
    fn admit(&self, item: u64, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let mut s = self.inner.lock().unwrap();
        if let Some((_, resident)) = s.items.iter().find(|(k, _)| *k == item) {
            return Arc::clone(resident);
        }
        let size = bytes.len() as u64;
        while self.lru && size <= self.cap && s.used + size > self.cap {
            s.used -= s.items.remove(0).1.len() as u64;
        }
        if s.used + size <= self.cap {
            s.used += size;
            s.items.push((item, Arc::clone(&bytes)));
        }
        bytes
    }
    fn contains(&self, item: u64) -> bool {
        let s = self.inner.lock().unwrap();
        s.items.iter().any(|(k, _)| *k == item)
    }
    fn used_bytes(&self) -> u64 {
        self.inner.lock().unwrap().used
    }
    fn capacity_bytes(&self) -> u64 {
        self.cap
    }
    fn resident_items(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }
    fn hits(&self) -> u64 {
        self.inner.lock().unwrap().hits
    }
    fn misses(&self) -> u64 {
        self.inner.lock().unwrap().misses
    }
    fn policy_name(&self) -> &'static str {
        ["MinIO", "LRU"][self.lru as usize]
    }
}
