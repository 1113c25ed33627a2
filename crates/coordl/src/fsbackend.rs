//! [`FsBackend`]: a fetch backend that serves real bytes from real files.
//!
//! Where [`DirectBackend`](crate::DirectBackend) fabricates payloads and
//! [`ProfiledBackend`](crate::ProfiledBackend) only charges modelled
//! seconds, `FsBackend` materializes the dataset once as a packed,
//! page-aligned `DATA` file under a [`Vfs`] directory and serves every
//! fetch with an actual positional read through an
//! [`AlignedReader`].  Each read's wall-clock time is
//! accumulated as *measured* device seconds next to the optional modelled
//! ones, which is what turns `dstool validate` into a genuine
//! predicted-vs-modelled-vs-measured three-way.

use crate::backend::{check_item_in_range, FetchBackend};
use crate::error::CoordlError;
use dataset::{DataSource, ItemId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use storage::{AccessPattern, DeviceProfile};
use vfs::{AlignedReader, Vfs, VfsError, PAGE_SIZE};

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
pub struct FsBackend {
    vfs: Arc<dyn Vfs>,
    reader: AlignedReader,
    /// Page-aligned start offset of each item, plus the total file length
    /// as a sentinel (`offsets[num_items]`).
    offsets: Vec<u64>,
    sizes: Vec<u64>,
    profile: Option<(DeviceProfile, AccessPattern)>,
    modelled_nanos: AtomicU64,
    measured_nanos: AtomicU64,
}

impl FsBackend {
    /// Materialize `source` under `dir` of `vfs` (skipping the write when a
    /// previous materialization is already present) and serve reads with a
    /// readahead window of `readahead_pages` pages.
    pub fn new(
        vfs: Arc<dyn Vfs>,
        dir: &str,
        source: &dyn DataSource,
        readahead_pages: u32,
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
        let file = vfs.open(&path, true).map_err(|e| io_error(u64::MAX, e))?;
        let existing = vfs.len(file).map_err(|e| io_error(u64::MAX, e))?;
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

        let reader = AlignedReader::new(Arc::clone(&vfs), file, readahead_pages);
        Ok(FsBackend {
            vfs,
            reader,
            offsets,
            sizes,
            profile: None,
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

    /// The readahead window, in pages.
    pub fn readahead_pages(&self) -> u32 {
        self.reader.readahead_pages()
    }

    /// Reads served from the readahead span without touching the VFS.
    pub fn span_hits(&self) -> u64 {
        self.reader.span_hits()
    }

    /// Reads that issued a physical aligned read.
    pub fn span_misses(&self) -> u64 {
        self.reader.span_misses()
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
        let started = Instant::now();
        let read = self.reader.read(offset, len);
        // A failed read spent device time too: count it before propagating.
        self.measured_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let bytes = read.map_err(|e| io_error(item, e))?;
        if bytes.len() != len {
            return Err(CoordlError::BackendIo {
                backend: "fs".to_string(),
                item,
                detail: format!("truncated read: expected {len} bytes, got {}", bytes.len()),
            });
        }
        if let Some((profile, pattern)) = &self.profile {
            let secs = profile.read_seconds(len as u64, *pattern);
            self.modelled_nanos
                .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
        }
        Ok(bytes)
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
    use dataset::{DatasetSpec, SyntheticItemStore};
    use vfs::MemVfs;

    fn store(n: u64, size: u64) -> SyntheticItemStore {
        SyntheticItemStore::new(DatasetSpec::new("t", n, size, 0.0, 6.0), 3)
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
    fn readahead_turns_sequential_item_reads_into_fewer_physical_reads() {
        let src = store(32, 2048);
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let wide = FsBackend::new(Arc::clone(&vfs), "wide", &src, 8).unwrap();
        let narrow = FsBackend::new(Arc::clone(&vfs), "narrow", &src, 0).unwrap();
        for item in 0..32 {
            let _ = wide.read(item).unwrap();
            let _ = narrow.read(item).unwrap();
        }
        assert!(
            wide.span_misses() < narrow.span_misses(),
            "readahead {} misses vs none {}",
            wide.span_misses(),
            narrow.span_misses()
        );
        assert_eq!(narrow.span_misses(), 32, "no readahead: one read per item");
    }

    #[test]
    fn truncated_data_file_surfaces_backend_io() {
        let src = store(4, 2048);
        let dir = std::env::temp_dir().join(format!("coordl-fsb-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs: Arc<dyn Vfs> = Arc::new(vfs::OsVfs::new(&dir).unwrap());
        let b = FsBackend::new(Arc::clone(&vfs), "ds", &src, 0).unwrap();
        assert_eq!(b.read(3).unwrap(), src.read(3));
        // Truncate the materialized file behind the backend's back: the
        // next uncached read comes back short and must be a typed error,
        // not a panic.  (Item 3's span is still buffered; item 1 is not.)
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("ds/DATA"))
            .unwrap()
            .set_len(100)
            .unwrap();
        match b.read(1) {
            Err(CoordlError::BackendIo {
                backend,
                item,
                detail,
            }) => {
                assert_eq!(backend, "fs");
                assert_eq!(item, 1);
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected truncated-read error, got {other:?}"),
        }
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
