//! [`FsBackend`]: a fetch backend that serves real bytes from real files.
//!
//! Where [`DirectBackend`](crate::DirectBackend) fabricates payloads and at
//! most charges modelled seconds, `FsBackend` materializes the dataset once as a packed,
//! page-aligned `DATA` file under a [`Vfs`] directory and serves every
//! fetch with one positional read of the item's exact extent, straight into
//! the payload buffer it returns.  Each read's wall-clock time is
//! accumulated as *measured* device seconds next to the optional modelled
//! ones, which is what turns the `validate` figure row into a genuine
//! predicted-vs-modelled-vs-measured three-way.

use crate::backend::{check_item_in_range, FetchBackend};
use crate::error::CoordlError;
use crate::spares::{Spares, FREE_LIST_CAP};
use dataset::{DataSource, ItemId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use storage::{AccessPattern, DeviceProfile};
use vfs::{FileHandle, Vfs, VfsError, PAGE_SIZE};

fn io_error(item: ItemId, err: VfsError) -> CoordlError {
    CoordlError::BackendIo {
        backend: "fs".to_string(),
        item,
        detail: err.to_string(),
    }
}

/// A [`FetchBackend`] over a materialized, page-aligned dataset file.
///
/// Layout: item `i` starts at page-aligned offset `offsets[i]` of
/// `<dir>/DATA` and occupies `item_bytes(i)` bytes; the gap to the next
/// page boundary is zero padding.  Materialization happens once in
/// [`FsBackend::new`] and is skipped when the file already has the expected
/// length — so a backend rebuilt over the same [`OsVfs`](vfs::OsVfs) root
/// (a restart) pays no re-write, and CI's `MemVfs` runs stay deterministic.
///
/// A [`read`](FetchBackend::read) is one [`Vfs::read_into`] of exactly the
/// item's bytes: an epoch's plan is a permutation, so nothing read beyond an
/// item would be used before it is read again.  The destination is a buffer
/// prep or the session's cache tier handed back through
/// [`recycle`](FetchBackend::recycle) when there is one, so a steady-state
/// miss allocates nothing; the free list of those buffers is the only state
/// concurrent readers share, and its lock is never held across the read.
pub struct FsBackend {
    vfs: Arc<dyn Vfs>,
    file: FileHandle,
    /// Page-aligned start offset of each item, plus the total file length
    /// as a sentinel (`offsets[num_items]`).
    offsets: Vec<u64>,
    sizes: Vec<u64>,
    /// Recycled payload buffers, at most [`FREE_LIST_CAP`] of them.
    free: Spares,
    profile: Option<(DeviceProfile, AccessPattern)>,
    reads: AtomicU64,
    modelled_nanos: AtomicU64,
    measured_nanos: AtomicU64,
}

impl FsBackend {
    /// Materialize `source` under `dir` of `vfs`, skipping the write when a
    /// previous materialization is already present.
    ///
    /// The fourth argument was a readahead window and is ignored: every read
    /// is one exact extent.  It stays, like [`span_hits`](Self::span_hits)
    /// and [`span_misses`](Self::span_misses), because the frozen
    /// `benchmark/` package calls this signature.
    pub fn new(
        vfs: Arc<dyn Vfs>,
        dir: &str,
        source: &dyn DataSource,
        _readahead_pages: u32,
    ) -> Result<Self, CoordlError> {
        let num_items = source.len();
        let mut offsets = Vec::with_capacity(num_items as usize + 1);
        let mut sizes = Vec::with_capacity(num_items as usize);
        let mut cursor = 0u64;
        for item in 0..num_items {
            offsets.push(cursor);
            let size = source.item_bytes(item);
            sizes.push(size);
            cursor += size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        }
        offsets.push(cursor);

        let path = format!("{dir}/DATA");
        let mut file = vfs.open(&path, true).map_err(|e| io_error(u64::MAX, e))?;
        let mut existing = vfs.len(file).map_err(|e| io_error(u64::MAX, e))?;
        if existing > cursor {
            // Writes only ever extend the file, so the leftover of a larger
            // dataset would fail the length check below on every restart:
            // start it over.
            vfs.close(file).map_err(|e| io_error(u64::MAX, e))?;
            vfs.remove(&path).map_err(|e| io_error(u64::MAX, e))?;
            file = vfs.open(&path, true).map_err(|e| io_error(u64::MAX, e))?;
            existing = 0;
        }
        if existing != cursor {
            // Write item by item; the file ends page-aligned, so a matching
            // length marks a completed materialization.
            for item in 0..num_items {
                let bytes = source.read(item);
                if bytes.len() as u64 != sizes[item as usize] {
                    return Err(CoordlError::BackendIo {
                        backend: "fs".to_string(),
                        item,
                        detail: format!(
                            "source returned {} bytes, expected {}",
                            bytes.len(),
                            sizes[item as usize]
                        ),
                    });
                }
                vfs.write_at(file, offsets[item as usize], &bytes)
                    .map_err(|e| io_error(item, e))?;
            }
            // Pad the final page so length alone certifies completeness.
            if cursor > 0 {
                vfs.write_at(file, cursor - 1, &[0u8][..])
                    .map_err(|e| io_error(num_items.saturating_sub(1), e))?;
                // The last item's tail byte may be the pad position; restore
                // it when the item runs to the very end of the file.
                let last = num_items - 1;
                let last_end = offsets[last as usize] + sizes[last as usize];
                if last_end == cursor {
                    let bytes = source.read(last);
                    vfs.write_at(file, cursor - 1, &bytes[bytes.len() - 1..])
                        .map_err(|e| io_error(last, e))?;
                }
            }
            vfs.sync(file).map_err(|e| io_error(u64::MAX, e))?;
        }

        Ok(FsBackend {
            vfs,
            file,
            offsets,
            sizes,
            free: Spares::capped(FREE_LIST_CAP),
            profile: None,
            reads: AtomicU64::new(0),
            modelled_nanos: AtomicU64::new(0),
            measured_nanos: AtomicU64::new(0),
        })
    }

    /// Also charge modelled seconds per read against `profile`, so reports
    /// carry the modelled and the measured number side by side.
    pub fn with_profile(mut self, profile: DeviceProfile, pattern: AccessPattern) -> Self {
        self.profile = Some((profile, pattern));
        self
    }

    /// The VFS the dataset lives on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Always 0: there is no span to hit.  Kept for the frozen `benchmark/`
    /// package (see [`FsBackend::new`]).
    pub fn span_hits(&self) -> u64 {
        0
    }

    /// Physical reads issued, one per in-range [`read`](FetchBackend::read).
    /// The name is the one the frozen `benchmark/` package calls (see
    /// [`FsBackend::new`]).
    pub fn span_misses(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl FetchBackend for FsBackend {
    fn num_items(&self) -> u64 {
        self.sizes.len() as u64
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.sizes[item as usize]
    }

    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
        check_item_in_range("fs", item, self.num_items())?;
        let offset = self.offsets[item as usize];
        let len = self.sizes[item as usize] as usize;
        let mut buf = self.free.pop();
        buf.resize(len, 0);
        let started = Instant::now();
        let read = self.vfs.read_into(self.file, offset, &mut buf);
        // A failed read spent device time too: count it before propagating.
        self.measured_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        // Whatever lies past the bytes this read delivered is what the
        // buffer's previous owner left there: cut it off before anything
        // looks at the length.
        buf.truncate(read.as_ref().map_or(0, |&got| got));
        let detail = match read {
            Ok(got) if got == len => {
                if let Some((profile, pattern)) = &self.profile {
                    let secs = profile.read_seconds(len as u64, *pattern);
                    self.modelled_nanos
                        .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
                }
                return Ok(buf);
            }
            Ok(got) => format!("truncated read: expected {len} bytes, got {got}"),
            Err(err) => err.to_string(),
        };
        // The buffer of a failed read is as good as any other.
        self.recycle(buf);
        Err(CoordlError::BackendIo {
            backend: "fs".to_string(),
            item,
            detail,
        })
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

    fn measured_seconds(&self) -> f64 {
        self.measured_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn name(&self) -> &'static str {
        "fs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{DatasetSpec, InMemoryStore, SyntheticItemStore};
    use std::sync::Condvar;
    use std::time::Duration;
    use vfs::{MemVfs, OsVfs, VfsStats};

    fn store(n: u64, size: u64) -> SyntheticItemStore {
        SyntheticItemStore::new(DatasetSpec::new("t", n, size, 0.0, 6.0), 3)
    }

    /// Run `test` on a `MemVfs` and on an `OsVfs` under a scratch directory
    /// named after the calling test (tests run in parallel and must not
    /// share one).
    fn with_both(name: &str, test: impl Fn(Arc<dyn Vfs>)) {
        let dir = std::env::temp_dir().join(format!("coordl-fsb-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        test(Arc::new(MemVfs::new()));
        test(Arc::new(OsVfs::new(&dir).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(reads, bytes_read)` issued between two snapshots.
    fn reads_since(vfs: &dyn Vfs, before: VfsStats) -> (u64, u64) {
        let now = vfs.stats();
        (now.reads - before.reads, now.bytes_read - before.bytes_read)
    }

    /// Fill the free list with buffers full of `item`'s bytes.
    fn prime(b: &FsBackend, item: ItemId) {
        let bufs: Vec<_> = (0..FREE_LIST_CAP).map(|_| b.read(item).unwrap()).collect();
        bufs.into_iter().for_each(|buf| b.recycle(buf));
        assert_eq!(b.free.len(), FREE_LIST_CAP);
    }

    #[test]
    fn fs_backend_serves_the_same_bytes_as_the_source() {
        let src = store(20, 1000);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 2).unwrap();
        assert_eq!(b.num_items(), 20);
        for item in 0..20 {
            assert_eq!(b.read(item).unwrap(), src.read(item), "item {item}");
            assert_eq!(b.item_bytes(item), 1000);
        }
        assert!(b.measured_seconds() >= 0.0);
        assert_eq!(b.device_seconds(), 0.0, "unprofiled: no modelled time");
    }

    #[test]
    fn items_start_on_page_boundaries() {
        let src = store(4, 5000);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        for item in 0..4usize {
            assert_eq!(b.offsets[item] % PAGE_SIZE, 0);
        }
        // 5000 bytes occupy two 4 KiB pages.
        assert_eq!(b.offsets[1], 2 * PAGE_SIZE);
        let file = vfs.open("ds/DATA", false).unwrap();
        assert_eq!(vfs.len(file).unwrap(), 8 * PAGE_SIZE, "4 items × 2 pages");
    }

    #[test]
    fn rematerialization_is_skipped_when_the_file_is_complete() {
        let src = store(8, 3000);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let _first = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        let writes_after_first = vfs.stats().writes;
        let second = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        assert_eq!(
            vfs.stats().writes,
            writes_after_first,
            "a complete DATA file is reused, not rewritten"
        );
        assert_eq!(second.read(5).unwrap(), src.read(5));
    }

    #[test]
    fn a_longer_stale_data_file_is_replaced_once_not_on_every_restart() {
        with_both("stale", |vfs| {
            let (large, small) = (store(16, 3000), store(8, 3000));
            drop(FsBackend::new(Arc::clone(&vfs), "ds", &large, 0).unwrap());
            drop(FsBackend::new(Arc::clone(&vfs), "ds", &small, 0).unwrap());
            let writes_after_replacing = vfs.stats().writes;
            let again = FsBackend::new(Arc::clone(&vfs), "ds", &small, 0).unwrap();
            assert_eq!(
                vfs.stats().writes,
                writes_after_replacing,
                "{}: the replaced DATA file has the small dataset's length",
                vfs.name()
            );
            for item in 0..8 {
                assert_eq!(again.read(item).unwrap(), small.read(item), "item {item}");
            }
        });
    }

    #[test]
    fn every_read_is_one_exact_extent() {
        let sizes = [1usize, 4095, 4096, 5000];
        let items = sizes.iter().map(|&n| vec![n as u8; n]).collect();
        let src = InMemoryStore::new(items);
        with_both("extent", |vfs| {
            let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 8).unwrap();
            // Twice over, the second pass into the first one's buffers: a
            // recycled buffer of another size changes nothing.
            for pass in 0..2 {
                for (item, &size) in sizes.iter().enumerate() {
                    let before = vfs.stats();
                    let got = b.read(item as ItemId).unwrap();
                    assert_eq!(got, src.read(item as ItemId), "pass {pass} item {item}");
                    assert_eq!(reads_since(&*vfs, before), (1, size as u64));
                    b.recycle(got);
                }
            }
            assert_eq!(b.span_misses(), 8, "physical reads == reads asked for");
            assert_eq!(b.span_hits(), 0);
        });
    }

    #[test]
    fn truncated_data_file_surfaces_backend_io() {
        let src = store(4, 2048);
        let dir = std::env::temp_dir().join(format!("coordl-fsb-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs: Arc<dyn Vfs> = Arc::new(OsVfs::new(&dir).unwrap());
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        assert_eq!(b.read(3).unwrap(), src.read(3));
        // Every buffer the next reads draw is full of item 3's bytes.
        prime(&b, 3);
        // Truncate the materialized file behind the backend's back: item 0
        // comes back short and item 1 empty.  Both must be the typed error,
        // never a payload padded out with what the buffer held before, and
        // never a panic.
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("ds/DATA"))
            .unwrap()
            .set_len(100)
            .unwrap();
        for (item, got) in [(0, 100), (1, 0)] {
            match b.read(item) {
                Err(CoordlError::BackendIo {
                    backend,
                    item: failed,
                    detail,
                }) => {
                    assert_eq!(backend, "fs");
                    assert_eq!(failed, item);
                    assert_eq!(
                        detail,
                        format!("truncated read: expected 2048 bytes, got {got}")
                    );
                }
                other => panic!("expected truncated-read error, got {other:?}"),
            }
        }
        assert_eq!(b.free.len(), FREE_LIST_CAP, "failed reads pooled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_reads_still_count_as_measured_device_time() {
        let src = store(4, 2048);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        // Handles are slots of the VFS's table and a closed slot is reused,
        // so this copy names the handle the backend is about to open.
        let handle = vfs.open("ds/DATA", true).unwrap();
        vfs.close(handle).unwrap();
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        assert_eq!(b.read(2).unwrap(), src.read(2));
        vfs.close(handle).unwrap();
        let before = b.measured_seconds();
        for _ in 0..100 {
            assert!(matches!(
                b.read(1),
                Err(CoordlError::BackendIo { item: 1, .. })
            ));
        }
        assert!(
            b.measured_seconds() > before,
            "the time a failed read took is device time too"
        );
        // The one buffer those reads drew went back to the list each time,
        // not to the allocator, and serves the first read that works again.
        assert_eq!(b.free.len(), 1);
        assert_eq!(vfs.open("ds/DATA", false).unwrap(), handle);
        assert_eq!(b.read(1).unwrap(), src.read(1));
        assert_eq!(b.free.len(), 0);
    }

    #[test]
    fn recycling_a_useless_or_foreign_buffer_is_harmless() {
        let src = store(4, 2048);
        let b = FsBackend::new(Arc::new(MemVfs::new()), "ds", &src, 0).unwrap();
        b.recycle(Vec::new()); // nothing to reuse
        b.recycle(vec![0xAA; 1 << 20]); // oversized
        b.recycle(vec![0xAA; 7]); // too small, and not from `read`
        b.recycle(Vec::with_capacity(2048)); // empty
        for item in 0..4 {
            assert_eq!(b.read(item).unwrap(), src.read(item), "item {item}");
        }
    }

    #[test]
    fn out_of_range_item_is_a_typed_error() {
        let src = store(4, 2048);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        assert!(matches!(
            b.read(99),
            Err(CoordlError::BackendIo { item: 99, .. })
        ));
    }

    #[test]
    fn concurrent_reads_are_exact_extents_and_the_free_list_stays_capped() {
        let src = store(50, 3000);
        with_both("threads", |vfs| {
            let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 3).unwrap();
            let before = vfs.stats();
            let (threads, rounds) = (4u64, 2u64);
            // A consumer that holds a round's payloads and hands them all
            // back at once: more than the list may keep, even from one
            // thread alone.
            let per_round = FREE_LIST_CAP as u64 + 50;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (b, src) = (&b, &src);
                    s.spawn(move || {
                        for round in 0..rounds {
                            let held: Vec<_> = (0..per_round)
                                .map(|i| {
                                    let item = (i * 7 + t + round) % 50;
                                    let got = b.read(item).unwrap();
                                    assert_eq!(got, src.read(item), "thread {t} item {item}");
                                    got
                                })
                                .collect();
                            for buf in held {
                                b.recycle(buf);
                                assert!(b.free.len() <= FREE_LIST_CAP);
                            }
                        }
                    });
                }
            });
            let reads = threads * rounds * per_round;
            assert_eq!(reads_since(&*vfs, before), (reads, reads * 3000));
            assert_eq!(b.span_misses(), reads);
            assert_eq!(b.free.len(), FREE_LIST_CAP);
        });
    }

    /// Every required `Vfs` method except `read_at`, forwarded to
    /// `self.inner`.
    macro_rules! delegate_to_inner {
        () => {
            fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
                self.inner.open(path, create)
            }
            fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
                self.inner.write_at(file, offset, data)
            }
            fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
                self.inner.sync(file)
            }
            fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
                self.inner.len(file)
            }
            fn close(&self, file: FileHandle) -> Result<(), VfsError> {
                self.inner.close(file)
            }
            fn exists(&self, path: &str) -> bool {
                self.inner.exists(path)
            }
            fn remove(&self, path: &str) -> Result<(), VfsError> {
                self.inner.remove(path)
            }
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn stats(&self) -> VfsStats {
                self.inner.stats()
            }
        };
    }

    /// A `Vfs` that provides only the required methods, as a decorator
    /// outside the `vfs` crate would, and counts the reads it is shown.
    struct RequiredOnly {
        inner: Arc<dyn Vfs>,
        reads_seen: AtomicU64,
    }

    impl Vfs for RequiredOnly {
        fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
            self.reads_seen.fetch_add(1, Ordering::Relaxed);
            self.inner.read_at(file, offset, len)
        }
        delegate_to_inner!();
    }

    #[test]
    fn required_methods_only_vfs_serves_the_same_bytes_by_default_read_into() {
        let src = store(6, 5000);
        with_both("default", |vfs| {
            let wrapped = Arc::new(RequiredOnly {
                inner: Arc::clone(&vfs),
                reads_seen: AtomicU64::new(0),
            });
            let b = FsBackend::new(Arc::clone(&wrapped) as Arc<dyn Vfs>, "ds", &src, 3).unwrap();
            let before = vfs.stats();
            for item in 0..6 {
                assert_eq!(b.read(item).unwrap(), src.read(item), "item {item}");
            }
            // The wrapper saw every read, and each was one read below it.
            assert_eq!(wrapped.reads_seen.load(Ordering::Relaxed), 6);
            assert_eq!(reads_since(&*vfs, before), (6, 6 * 5000));
            // `read_into` itself, defaulted against native: short at end of
            // file and past it, the buffer's tail left as it was.
            let len = vfs.len(b.file).unwrap();
            for (offset, want) in [(len - 5, 5), (len + 1, 0), (10, 64)] {
                let (mut native, mut defaulted) = ([0xAAu8; 64], [0xAAu8; 64]);
                let before = vfs.stats();
                assert_eq!(vfs.read_into(b.file, offset, &mut native), Ok(want));
                assert_eq!(reads_since(&*vfs, before), (1, want as u64));
                assert_eq!(wrapped.read_into(b.file, offset, &mut defaulted), Ok(want));
                assert_eq!(reads_since(&*vfs, before), (2, 2 * want as u64));
                assert_eq!(native, defaulted);
                assert!(native[want..].iter().all(|&byte| byte == 0xAA));
            }
        });
    }

    /// A `Vfs` whose `read_into` does not return until two reads are inside
    /// it at once (or a timeout passes, so that a backend that serialises
    /// its reads fails the test instead of hanging it).
    struct Rendezvous {
        inner: Arc<dyn Vfs>,
        inside: std::sync::Mutex<u32>,
        changed: Condvar,
        met: AtomicU64,
    }

    impl Vfs for Rendezvous {
        fn read_into(
            &self,
            file: FileHandle,
            offset: u64,
            buf: &mut [u8],
        ) -> Result<usize, VfsError> {
            let mut inside = self.inside.lock().unwrap();
            *inside += 1;
            self.changed.notify_all();
            let (inside, timeout) = self
                .changed
                .wait_timeout_while(inside, Duration::from_secs(10), |n| *n < 2)
                .unwrap();
            if !timeout.timed_out() {
                self.met.fetch_add(1, Ordering::Relaxed);
            }
            drop(inside);
            self.inner.read_into(file, offset, buf)
        }
        fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
            self.inner.read_at(file, offset, len)
        }
        delegate_to_inner!();
    }

    #[test]
    fn two_reads_are_in_flight_at_once_because_no_lock_is_held_across_io() {
        let src = store(8, 1000);
        let vfs = Arc::new(Rendezvous {
            inner: Arc::new(MemVfs::new()),
            inside: std::sync::Mutex::new(0),
            changed: Condvar::new(),
            met: AtomicU64::new(0),
        });
        let b = FsBackend::new(Arc::clone(&vfs) as Arc<dyn Vfs>, "ds", &src, 0).unwrap();
        std::thread::scope(|s| {
            for item in [1, 5] {
                let (b, src) = (&b, &src);
                s.spawn(move || assert_eq!(b.read(item).unwrap(), src.read(item)));
            }
        });
        assert_eq!(b.span_misses(), 2);
        assert_eq!(
            vfs.met.load(Ordering::Relaxed),
            2,
            "both physical reads were inside the VFS at the same time"
        );
    }

    #[test]
    fn a_session_hands_back_what_the_tier_did_not_keep() {
        use crate::{Session, SessionConfig};
        let src = Arc::new(store(4, 2048));
        let backend = Arc::new(FsBackend::new(Arc::new(MemVfs::new()), "ds", &*src, 0).unwrap());
        // One batch of four, room for two: MinIO admits the first two items
        // of the plan and bypasses the rest.
        let config = SessionConfig {
            batch_size: 4,
            cache_capacity_bytes: 2 * 2048,
            ..SessionConfig::default()
        };
        let session = Session::builder(src, config)
            .fetch_backend(Arc::clone(&backend) as Arc<dyn FetchBackend>)
            .build()
            .unwrap();
        assert_eq!(session.epoch(0).stream(0).count(), 1);
        assert_eq!(session.cache_tier().unwrap().resident_items(), 2);
        assert_eq!(backend.span_misses(), 4);
        // The first bypass handed the backend the executor's window of
        // holes in new buffers — eight positions of four: depth 4, the one
        // handed over, two workers and one fetch thread — and the bypassed
        // items were read into those, whichever stage thread got there
        // first.  So the list made just the two payloads the tier keeps.
        let window = 8 * 4;
        assert_eq!(backend.free.made(), 2);
        assert_eq!(
            backend.free.len(),
            window,
            "the bypassed payloads came back, the admitted ones stay put"
        );
        // The next epoch reads the two bypassed items into those buffers.
        assert_eq!(session.epoch(1).stream(0).count(), 1);
        assert_eq!(backend.span_misses(), 6);
        assert_eq!((backend.free.made(), backend.free.len()), (2, window));
    }

    #[test]
    fn modelled_seconds_accumulate_exactly_under_concurrent_reads() {
        // The sharded fetch pool issues backend reads from several threads
        // at once; the per-read nanosecond quantization happens before the
        // atomic add, so a disjoint partition of the items across threads
        // models exactly the serial total (measured seconds are wall-clock
        // and only need to stay monotone).
        let src = store(48, 4096);
        let serial = FsBackend::new(Arc::new(MemVfs::new()), "ds", &src, 2)
            .unwrap()
            .with_profile(DeviceProfile::sata_ssd(), AccessPattern::Random);
        for item in 0..48 {
            let _ = serial.read(item).unwrap();
        }
        let b = Arc::new(
            FsBackend::new(Arc::new(MemVfs::new()), "ds", &src, 2)
                .unwrap()
                .with_profile(DeviceProfile::sata_ssd(), AccessPattern::Random),
        );
        let threads = 4u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    let mut item = t;
                    while item < 48 {
                        let _ = b.read(item).unwrap();
                        item += threads;
                    }
                });
            }
        });
        assert_eq!(b.device_seconds(), serial.device_seconds());
        assert!(b.measured_seconds() > 0.0);
    }

    #[test]
    fn profiled_fs_backend_reports_modelled_and_measured_side_by_side() {
        let src = store(16, 4096);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 2)
            .unwrap()
            .with_profile(DeviceProfile::sata_ssd(), AccessPattern::Random);
        for item in 0..16 {
            let _ = b.read(item).unwrap();
        }
        let expected = 16.0 * DeviceProfile::sata_ssd().read_seconds(4096, AccessPattern::Random);
        assert!((b.device_seconds() - expected).abs() < 1e-6);
        assert!(b.measured_seconds() > 0.0, "real reads take real time");
        assert_eq!(b.profile().unwrap().name, "sata-ssd");
    }
}
