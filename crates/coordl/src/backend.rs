//! Pluggable fetch backends: where raw bytes come from when every cache
//! tier misses.
//!
//! A [`FetchBackend`] is the bottom of a [`Session`](crate::Session)'s fetch
//! stack.  [`DirectBackend`] reads straight from a [`DataSource`] (a
//! ramdisk, effectively); [`DirectBackend::with_profile`] also accounts the
//! *modelled* device busy time of every read against a
//! [`storage::DeviceProfile`], so a runtime session can report how long its
//! storage traffic would have taken on a SATA SSD or a hard drive — the
//! number the `validate` figure row compares against the simulator's
//! predictions.
//! [`FsBackend`](crate::FsBackend) goes one step further and serves fetches
//! from real files, recording *measured* wall-clock device seconds next to
//! the modelled ones.
//!
//! A failed read (item out of range, missing or truncated file) surfaces as
//! [`CoordlError::BackendIo`] rather than a panic, and propagates through
//! the batch stream to the consumer that asked for the item.

use crate::error::CoordlError;
use crate::spares::{Spares, FREE_LIST_CAP};
use dataset::{DataSource, ItemId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use storage::{AccessPattern, DeviceProfile};

/// A source of raw item bytes below every cache tier.
pub trait FetchBackend: Send + Sync {
    /// Number of items the backend can serve.
    fn num_items(&self) -> u64;

    /// Raw size of `item` in bytes, without reading it.
    fn item_bytes(&self, item: ItemId) -> u64;

    /// Read the raw bytes of `item`.  Out-of-range items and failed or
    /// truncated reads are [`CoordlError::BackendIo`].
    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError>;

    /// Take back a payload buffer nobody references any more, for a later
    /// [`read`](FetchBackend::read) to fill.  The runtime offers every raw
    /// payload it held the last reference to once prep is done with it (a
    /// payload a cache tier kept is never offered until the tier lets go of
    /// it: a session's own tier offers each payload it drops, whichever of
    /// the two lets go last offers it, exactly once); its contents are
    /// garbage to the backend, and it need not have come from this
    /// backend's `read`.  A session also offers new empty buffers: when its
    /// tier first bypasses a miss, room for the misses it holds between
    /// read and prep, and after that one for each payload the tier still
    /// keeps.  The default drops it.
    ///
    /// A tier offers what it drops while it holds a shard lock, so the lock
    /// order is tier shard → whatever `recycle` locks: an implementation
    /// must not call into a cache tier.
    fn recycle(&self, _buf: Vec<u8>) {}

    /// The device profile timing this backend, if any.
    fn profile(&self) -> Option<&DeviceProfile> {
        None
    }

    /// Cumulative *modelled* device busy time of all reads, in seconds
    /// (0 for unprofiled backends).
    fn device_seconds(&self) -> f64 {
        0.0
    }

    /// Cumulative *measured* wall-clock time spent inside real I/O, in
    /// seconds (0 for backends that fabricate bytes in memory).
    fn measured_seconds(&self) -> f64 {
        0.0
    }

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

/// The shared out-of-range check: every backend rejects items past the end
/// of its dataset with the same typed error.
pub(crate) fn check_item_in_range(
    backend: &'static str,
    item: ItemId,
    num_items: u64,
) -> Result<(), CoordlError> {
    if item >= num_items {
        return Err(CoordlError::BackendIo {
            backend: backend.to_string(),
            item,
            detail: format!("item out of range (dataset has {num_items} items)"),
        });
    }
    Ok(())
}

/// Hand `raw` back to `backend` if this was the last reference to it: a
/// payload a cache tier still holds, or a peer's cache shares, stays where
/// it is, and comes back from whoever lets go of it last.  Prep calls this
/// for every payload it is done with and a session's tier for every payload
/// it drops; when both let go of one payload at the same moment,
/// `Arc::into_inner` hands it to exactly one of them.
pub(crate) fn recycle_if_last(backend: &dyn FetchBackend, raw: Arc<Vec<u8>>) {
    if let Some(buf) = Arc::into_inner(raw) {
        backend.recycle(buf);
    }
}

/// A backend that is never read and records every buffer handed back to it:
/// the double that tests count recycling with.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Recycler(pub(crate) parking_lot::Mutex<Vec<Vec<u8>>>);

#[cfg(test)]
impl FetchBackend for Recycler {
    fn num_items(&self) -> u64 {
        0
    }
    fn item_bytes(&self, _item: ItemId) -> u64 {
        0
    }
    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
        unreachable!("item {item}: the tests fetch through their own closures")
    }
    fn recycle(&self, buf: Vec<u8>) {
        self.0.lock().push(buf);
    }
    fn name(&self) -> &'static str {
        "recycler"
    }
}

/// Reads items directly from a [`DataSource`].
///
/// Each read fills a payload buffer handed back through
/// [`recycle`](FetchBackend::recycle) when there is one
/// ([`DataSource::read_into`]), so a steady-state miss allocates nothing.
pub struct DirectBackend {
    source: Arc<dyn DataSource>,
    /// Recycled payload buffers, at most [`FREE_LIST_CAP`] of them.
    free: Spares,
    profile: Option<(DeviceProfile, AccessPattern)>,
    modelled_nanos: AtomicU64,
}

impl DirectBackend {
    /// Wrap `source`, with no timing model.
    pub fn new(source: Arc<dyn DataSource>) -> Self {
        DirectBackend {
            source,
            free: Spares::capped(FREE_LIST_CAP),
            profile: None,
            modelled_nanos: AtomicU64::new(0),
        }
    }

    /// Also charge each read's modelled device time against `profile`.
    ///
    /// The bytes are still served immediately (this is a functional loader,
    /// not a simulator); only the *accounting* is profiled.
    /// `device_seconds` then answers "how long would this epoch's storage
    /// traffic have kept an SSD / HDD busy", which is what the
    /// predicted-vs-empirical validation compares.  Reports and
    /// [`CoordlError::BackendIo`] errors name the backend after the profile.
    pub fn with_profile(mut self, profile: DeviceProfile, pattern: AccessPattern) -> Self {
        self.profile = Some((profile, pattern));
        self
    }
}

impl FetchBackend for DirectBackend {
    fn num_items(&self) -> u64 {
        self.source.len()
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.source.item_bytes(item)
    }

    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
        check_item_in_range(self.name(), item, self.source.len())?;
        let mut buf = self.free.pop();
        self.source.read_into(item, &mut buf);
        if let Some((profile, pattern)) = &self.profile {
            let secs = profile.read_seconds(buf.len() as u64, *pattern);
            self.modelled_nanos
                .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
        }
        Ok(buf)
    }

    fn recycle(&self, buf: Vec<u8>) {
        self.free.push([buf]);
    }

    fn profile(&self) -> Option<&DeviceProfile> {
        self.profile.as_ref().map(|(p, _)| p)
    }

    fn device_seconds(&self) -> f64 {
        self.modelled_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn name(&self) -> &'static str {
        self.profile.as_ref().map_or("direct", |(p, _)| p.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{DatasetSpec, SyntheticItemStore};
    use std::sync::Barrier;
    use storage::AccessPattern::Random;

    fn store(n: u64, size: u64) -> Arc<dyn DataSource> {
        Arc::new(SyntheticItemStore::new(
            DatasetSpec::new("t", n, size, 0.0, 6.0),
            3,
        ))
    }

    #[test]
    fn direct_backend_serves_source_bytes() {
        let src = store(10, 64);
        let b = DirectBackend::new(Arc::clone(&src));
        assert_eq!(b.num_items(), 10);
        assert_eq!(b.item_bytes(3), 64);
        assert_eq!(b.read(3).unwrap(), src.read(3));
        assert_eq!(b.device_seconds(), 0.0);
        assert_eq!(b.measured_seconds(), 0.0);
        assert!(b.profile().is_none());
    }

    #[test]
    fn source_backends_read_misses_into_recycled_buffers() {
        let src = store(10, 64);
        let direct = DirectBackend::new(Arc::clone(&src));
        let profiled =
            DirectBackend::new(Arc::clone(&src)).with_profile(DeviceProfile::hdd(), Random);
        let backends: [&dyn FetchBackend; 2] = [&direct, &profiled];
        for b in backends {
            let first = b.read(3).unwrap();
            let addr = first.as_ptr();
            b.recycle(first);
            let again = b.read(5).unwrap();
            assert_eq!(again.as_ptr(), addr, "{}: the recycled buffer", b.name());
            assert_eq!(again, src.read(5), "{}: nothing left over", b.name());
        }
    }

    #[test]
    fn racing_hand_backs_recycle_each_payload_exactly_once() {
        // A tier dropping a payload and prep finishing with it at the same
        // moment: whichever lets go last hands it back, never both, never
        // neither.
        const ROUNDS: usize = 10_000;
        let backend = Recycler::default();
        let (tier_side, prep_side): (Vec<_>, Vec<_>) = (0..ROUNDS)
            .map(|round| {
                let payload = Arc::new(round.to_le_bytes().to_vec());
                (Arc::clone(&payload), payload)
            })
            .unzip();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for side in [tier_side, prep_side] {
                let (backend, barrier) = (&backend, &barrier);
                s.spawn(move || {
                    for payload in side {
                        barrier.wait();
                        recycle_if_last(backend, payload);
                    }
                });
            }
        });
        let mut rounds: Vec<usize> = backend
            .0
            .lock()
            .iter()
            .map(|buf| usize::from_le_bytes(buf[..].try_into().unwrap()))
            .collect();
        rounds.sort_unstable();
        assert_eq!(rounds, (0..ROUNDS).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range_items_are_typed_backend_errors() {
        let direct = DirectBackend::new(store(10, 64));
        match direct.read(10) {
            Err(CoordlError::BackendIo {
                backend,
                item,
                detail,
            }) => {
                assert_eq!(backend, "direct");
                assert_eq!(item, 10);
                assert!(detail.contains("out of range"));
            }
            other => panic!("expected BackendIo, got {other:?}"),
        }
        let profiled = DirectBackend::new(store(10, 64)).with_profile(DeviceProfile::hdd(), Random);
        assert!(matches!(
            profiled.read(u64::MAX),
            Err(CoordlError::BackendIo { .. })
        ));
        assert_eq!(
            profiled.device_seconds(),
            0.0,
            "failed reads charge nothing"
        );
    }

    #[test]
    fn profiled_backend_accounts_modelled_read_time() {
        let src = store(4, 1_000_000);
        let b = DirectBackend::new(src).with_profile(DeviceProfile::hdd(), Random);
        for i in 0..4 {
            let _ = b.read(i).unwrap();
        }
        let expected = 4.0 * DeviceProfile::hdd().read_seconds(1_000_000, AccessPattern::Random);
        assert!(
            (b.device_seconds() - expected).abs() < 1e-6,
            "modelled busy time {} vs expected {expected}",
            b.device_seconds()
        );
        assert_eq!(b.name(), "hdd");
    }

    #[test]
    fn modelled_device_seconds_are_invariant_under_concurrent_fetch() {
        // Each read's charge is quantized to whole nanoseconds *before* the
        // atomic add, so any partition of the items across threads accounts
        // exactly the same total as one thread reading them all — the
        // invariant that keeps `device_seconds` identical across
        // `fetch_threads` values.
        let serial =
            DirectBackend::new(store(64, 10_000)).with_profile(DeviceProfile::sata_ssd(), Random);
        for i in 0..64 {
            let _ = serial.read(i).unwrap();
        }
        for threads in [2u64, 4] {
            let b = Arc::new(
                DirectBackend::new(store(64, 10_000))
                    .with_profile(DeviceProfile::sata_ssd(), Random),
            );
            std::thread::scope(|s| {
                for t in 0..threads {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let mut i = t;
                        while i < 64 {
                            let _ = b.read(i).unwrap();
                            i += threads;
                        }
                    });
                }
            });
            assert_eq!(
                b.device_seconds(),
                serial.device_seconds(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn hdd_models_more_busy_time_than_ramdisk_for_the_same_bytes() {
        let hdd = DirectBackend::new(store(8, 10_000)).with_profile(DeviceProfile::hdd(), Random);
        let ram =
            DirectBackend::new(store(8, 10_000)).with_profile(DeviceProfile::ramdisk(), Random);
        for i in 0..8 {
            let _ = hdd.read(i).unwrap();
            let _ = ram.read(i).unwrap();
        }
        assert!(hdd.device_seconds() > 100.0 * ram.device_seconds());
    }
}
