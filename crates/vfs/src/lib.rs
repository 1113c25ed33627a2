//! A minimal virtual filesystem: the real-bytes bottom layer of the stack.
//!
//! Every byte the runtime serves today is synthetic; this crate puts an
//! actual file layer underneath it, in the spirit of the vfs/fdtable
//! layering of OS-like runtimes.  A [`Vfs`] is a flat namespace of files
//! addressed by `/`-separated relative paths, with positional reads and
//! writes and an explicit durability barrier:
//!
//! * [`OsVfs`] — real `std::fs` I/O rooted under a directory, so spilled
//!   cache tiers and materialized datasets survive process restarts;
//! * [`MemVfs`] — a deterministic in-memory implementation with identical
//!   semantics, for tests and CI hosts without fast (or writable) disks.
//!
//! On top of the raw positional API sit the pieces the data-loading runtime
//! needs: [`Vfs::read_aligned`] (page-aligned spans with a configurable
//! readahead window), [`AlignedReader`] (a stateful reader whose sequential
//! reads hit the readahead buffer), and [`SpillStore`] (a manifest-backed
//! key→payload store that lets a cache tier persist demoted victims and a
//! restarted process warm itself back up from disk).

mod mem;
mod os;
mod spill;

pub use mem::MemVfs;
pub use os::OsVfs;
pub use spill::SpillStore;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The alignment unit of [`Vfs::read_aligned`]: physical reads start and end
/// on multiples of this many bytes, like page-cache-backed I/O.
pub const PAGE_SIZE: u64 = 4096;

/// Errors surfaced by VFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The path does not name an existing file.
    NotFound(String),
    /// The path is not a valid relative `/`-separated path.
    InvalidPath(String),
    /// The handle does not name an open file (already closed, or from
    /// another VFS instance).
    BadHandle,
    /// An underlying I/O operation failed.
    Io {
        /// The file the operation targeted.
        path: String,
        /// The OS error message.
        detail: String,
    },
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfsError::NotFound(path) => write!(f, "file not found: {path}"),
            VfsError::InvalidPath(path) => write!(f, "invalid path: {path}"),
            VfsError::BadHandle => write!(f, "stale or foreign file handle"),
            VfsError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// An open file within one [`Vfs`] instance (an index into its fd table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle(pub(crate) usize);

/// Cumulative I/O counters of one [`Vfs`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsStats {
    /// Positional reads issued.
    pub reads: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Positional writes issued.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Durability barriers issued.
    pub syncs: u64,
}

/// Shared atomic counters behind [`VfsStats`] (one per VFS instance).
#[derive(Debug, Default)]
pub(crate) struct StatCells {
    reads: AtomicU64,
    bytes_read: AtomicU64,
    writes: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
}

impl StatCells {
    pub(crate) fn record_read(&self, bytes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_write(&self, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> VfsStats {
        VfsStats {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

/// Validate a `/`-separated relative path: non-empty components, no `.` or
/// `..`, no leading slash.  Both implementations share the same namespace
/// rules, so a path that works on [`MemVfs`] works on [`OsVfs`].
pub(crate) fn validate_path(path: &str) -> Result<(), VfsError> {
    if path.is_empty()
        || path
            .split('/')
            .any(|c| c.is_empty() || c == "." || c == "..")
        || path.contains('\\')
    {
        return Err(VfsError::InvalidPath(path.to_string()));
    }
    Ok(())
}

/// One page-aligned span read by [`Vfs::read_aligned`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlignedSpan {
    /// Absolute file offset of the first byte of `data` (a multiple of
    /// [`PAGE_SIZE`]).
    pub start: u64,
    /// The span's bytes (short only at end of file).
    pub data: Vec<u8>,
}

impl AlignedSpan {
    /// The bytes `[offset, offset + len)` if this span fully covers them.
    pub fn slice(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let rel = offset.checked_sub(self.start)? as usize;
        let end = rel.checked_add(len)?;
        self.data.get(rel..end)
    }

    /// Overwrite this span with the page-aligned span covering
    /// `[offset, offset + len)` plus `readahead_pages` further pages, in one
    /// physical [`Vfs::read_into`] straight into `data`'s existing storage.
    ///
    /// This is the one definition of span geometry ([`Vfs::read_aligned`] is
    /// a `refill` of an empty span).  Only the bytes by which the new span
    /// is longer than the old one are zeroed before the read, so a recycled
    /// span of the usual length costs neither an allocation nor a `memset`.
    /// On error the span's contents are unspecified.
    pub fn refill<V: Vfs + ?Sized>(
        &mut self,
        vfs: &V,
        file: FileHandle,
        offset: u64,
        len: usize,
        readahead_pages: u32,
    ) -> Result<(), VfsError> {
        let start = (offset / PAGE_SIZE) * PAGE_SIZE;
        let logical_end = offset + len as u64;
        let span_end =
            logical_end.div_ceil(PAGE_SIZE) * PAGE_SIZE + u64::from(readahead_pages) * PAGE_SIZE;
        self.data.resize((span_end - start) as usize, 0);
        let filled = vfs.read_into(file, start, &mut self.data)?;
        self.data.truncate(filled);
        self.start = start;
        Ok(())
    }
}

/// A flat virtual filesystem with positional I/O.
///
/// Paths are `/`-separated and relative; implementations create missing
/// parent directories on `open(path, create = true)`.  All methods are
/// thread-safe; positional reads and writes on one handle may proceed
/// concurrently.
pub trait Vfs: Send + Sync {
    /// Open `path`, creating it (and its parent directories) when `create`
    /// is set; opening a missing file without `create` is
    /// [`VfsError::NotFound`].
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError>;

    /// Read up to `len` bytes at `offset`.  Returns fewer bytes only when
    /// the read crosses end of file (zero bytes at or past it).
    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError>;

    /// Read up to `buf.len()` bytes at `offset` into the caller's buffer and
    /// return how many were read: fewer than `buf.len()` only when the read
    /// crosses end of file (zero at or past it), exactly like
    /// [`read_at`](Vfs::read_at).  Bytes of `buf` past the returned count
    /// are left as they were.
    ///
    /// This is the read the hot path issues: the caller owns (and reuses)
    /// the destination, so a read costs no allocation and no zeroing.  It
    /// counts as one read in [`stats`](Vfs::stats), like `read_at`.  The
    /// default goes through `read_at` and copies, so an implementation that
    /// only provides the required methods — a tracing or fault-injecting
    /// wrapper, say — still serves, and still sees, every read; [`OsVfs`]
    /// and [`MemVfs`] read straight into `buf`.
    fn read_into(&self, file: FileHandle, offset: u64, buf: &mut [u8]) -> Result<usize, VfsError> {
        let bytes = self.read_at(file, offset, buf.len())?;
        let filled = bytes.len().min(buf.len());
        buf[..filled].copy_from_slice(&bytes[..filled]);
        Ok(filled)
    }

    /// Write `data` at `offset`, extending the file (zero-filled) when the
    /// offset is past the current end.
    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError>;

    /// Durability barrier: all writes issued on `file` so far survive a
    /// restart of the process (a no-op guarantee for [`MemVfs`], whose
    /// "restart" is reusing the same instance).
    fn sync(&self, file: FileHandle) -> Result<(), VfsError>;

    /// Current length of the file in bytes.
    fn len(&self, file: FileHandle) -> Result<u64, VfsError>;

    /// Release the handle.  Using it afterwards is [`VfsError::BadHandle`].
    fn close(&self, file: FileHandle) -> Result<(), VfsError>;

    /// Whether `path` names an existing file.
    fn exists(&self, path: &str) -> bool;

    /// Delete the file at `path` (missing files are [`VfsError::NotFound`]).
    fn remove(&self, path: &str) -> Result<(), VfsError>;

    /// Implementation name used in reports (`"os"` / `"mem"`).
    fn name(&self) -> &'static str;

    /// Cumulative I/O counters of this instance.
    fn stats(&self) -> VfsStats;

    /// Read the page-aligned span covering `[offset, offset + len)` plus a
    /// readahead window of `readahead_pages` further pages, in one physical
    /// read.  The span starts and ends on [`PAGE_SIZE`] boundaries (short
    /// only at end of file), which is what makes the I/O pattern match what
    /// a page cache would issue for the same request.
    fn read_aligned(
        &self,
        file: FileHandle,
        offset: u64,
        len: usize,
        readahead_pages: u32,
    ) -> Result<AlignedSpan, VfsError> {
        let mut span = AlignedSpan::default();
        span.refill(self, file, offset, len, readahead_pages)?;
        Ok(span)
    }
}

/// A stateful page-aligned reader over one open file: each miss reads one
/// aligned span (request pages + the readahead window) and keeps it, so
/// sequential readers are served from the buffered span instead of touching
/// the device again — the classic readahead win the `fs-sweep` bench grid
/// measures.
///
/// **Buffers.**  A miss reads into a *recycled* span buffer
/// ([`AlignedSpan::refill`]): the span it replaces goes back to a small pool
/// and is the destination of a later miss, so after warm-up (two buffers for
/// one reading thread, at most one more per concurrent reader) the only
/// allocation of a [`read`](AlignedReader::read) is the exact-length payload
/// it returns, and the destination of the physical read is already
/// initialised and cache-warm.
///
/// **Locking.**  The mutex guards the buffered span and the pool, and is
/// held for the hit check, a hit's copy out of the span, and the pointer
/// swaps around a miss — never across the [`Vfs`] call.  Misses from several
/// threads therefore overlap at the device, each into a buffer of its own;
/// the span that finishes last stays buffered.  From one thread, hit/miss
/// decisions and physical reads are exactly those of a reader that holds
/// the lock throughout.
pub struct AlignedReader {
    vfs: Arc<dyn Vfs>,
    file: FileHandle,
    readahead_pages: u32,
    state: Mutex<ReaderState>,
    span_hits: AtomicU64,
    span_misses: AtomicU64,
}

#[derive(Default)]
struct ReaderState {
    /// The span hits are served from: the last one a miss read successfully.
    span: Option<AlignedSpan>,
    /// Replaced spans, kept for their storage.
    spare: Vec<AlignedSpan>,
}

impl AlignedReader {
    /// Wrap an open `file` of `vfs` with a readahead window of
    /// `readahead_pages` pages (0 disables readahead; reads are still
    /// page-aligned).
    pub fn new(vfs: Arc<dyn Vfs>, file: FileHandle, readahead_pages: u32) -> Self {
        AlignedReader {
            vfs,
            file,
            readahead_pages,
            state: Mutex::new(ReaderState::default()),
            span_hits: AtomicU64::new(0),
            span_misses: AtomicU64::new(0),
        }
    }

    /// The readahead window in pages.
    pub fn readahead_pages(&self) -> u32 {
        self.readahead_pages
    }

    /// Read exactly `[offset, offset + len)`, from the buffered span when it
    /// covers the range, otherwise via one fresh aligned read.
    ///
    /// Reads that run past end of file are truncated I/O at the device; the
    /// caller sees them as a short result, exactly like [`Vfs::read_at`].
    /// A failed read leaves the buffered span as it was.
    pub fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        let mut fresh = {
            let mut state = self.state.lock();
            if let Some(bytes) = state.span.as_ref().and_then(|s| s.slice(offset, len)) {
                self.span_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(bytes.to_vec());
            }
            self.span_misses.fetch_add(1, Ordering::Relaxed);
            state.spare.pop().unwrap_or_default()
        };
        let read = fresh.refill(&*self.vfs, self.file, offset, len, self.readahead_pages);
        let bytes = read.map(|()| {
            // Short when the span is: the request crosses end of file.
            let rel = (offset - fresh.start) as usize;
            let end = rel.saturating_add(len).min(fresh.data.len());
            fresh.data.get(rel..end).unwrap_or(&[]).to_vec()
        });
        let mut state = self.state.lock();
        let replaced = match bytes {
            Ok(_) => state.span.replace(fresh),
            Err(_) => Some(fresh),
        };
        state.spare.extend(replaced);
        bytes
    }

    /// Reads served from the buffered span without touching the VFS.
    pub fn span_hits(&self) -> u64 {
        self.span_hits.load(Ordering::Relaxed)
    }

    /// Reads that issued a physical aligned read.
    pub fn span_misses(&self) -> u64 {
        self.span_misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_both(test: impl Fn(Arc<dyn Vfs>)) {
        test(Arc::new(MemVfs::new()));
        let dir = std::env::temp_dir().join(format!(
            "coordl-vfs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        test(Arc::new(OsVfs::new(&dir).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_read_write_len_roundtrip_on_both_impls() {
        with_both(|vfs| {
            assert!(!vfs.exists("a/b.bin"));
            let f = vfs.open("a/b.bin", true).unwrap();
            vfs.write_at(f, 0, b"hello world").unwrap();
            assert_eq!(vfs.len(f).unwrap(), 11);
            assert_eq!(vfs.read_at(f, 6, 5).unwrap(), b"world");
            assert_eq!(vfs.read_at(f, 6, 100).unwrap(), b"world", "short at EOF");
            assert_eq!(vfs.read_at(f, 100, 4).unwrap(), b"", "past EOF");
            vfs.sync(f).unwrap();
            assert!(vfs.exists("a/b.bin"));
            // Reopen sees the same bytes.
            let g = vfs.open("a/b.bin", false).unwrap();
            assert_eq!(vfs.read_at(g, 0, 11).unwrap(), b"hello world");
            vfs.close(f).unwrap();
            vfs.close(g).unwrap();
            assert_eq!(vfs.read_at(f, 0, 1), Err(VfsError::BadHandle));
            let stats = vfs.stats();
            assert!(stats.reads >= 4 && stats.writes == 1 && stats.syncs == 1);
            assert_eq!(stats.bytes_written, 11);
        });
    }

    #[test]
    fn sparse_writes_zero_fill_the_gap() {
        with_both(|vfs| {
            let f = vfs.open("sparse.bin", true).unwrap();
            vfs.write_at(f, 10, b"xy").unwrap();
            assert_eq!(vfs.len(f).unwrap(), 12);
            assert_eq!(vfs.read_at(f, 0, 12).unwrap(), b"\0\0\0\0\0\0\0\0\0\0xy");
        });
    }

    #[test]
    fn missing_files_and_bad_paths_are_typed_errors() {
        with_both(|vfs| {
            assert_eq!(
                vfs.open("nope.bin", false),
                Err(VfsError::NotFound("nope.bin".into()))
            );
            assert_eq!(
                vfs.remove("nope.bin"),
                Err(VfsError::NotFound("nope.bin".into()))
            );
            for bad in ["", "/abs", "a//b", "../up", "a/./b"] {
                assert_eq!(
                    vfs.open(bad, true),
                    Err(VfsError::InvalidPath(bad.into())),
                    "{bad:?}"
                );
            }
        });
    }

    #[test]
    fn remove_deletes_the_file() {
        with_both(|vfs| {
            let f = vfs.open("gone.bin", true).unwrap();
            vfs.write_at(f, 0, b"data").unwrap();
            vfs.close(f).unwrap();
            vfs.remove("gone.bin").unwrap();
            assert!(!vfs.exists("gone.bin"));
            assert_eq!(
                vfs.open("gone.bin", false),
                Err(VfsError::NotFound("gone.bin".into()))
            );
        });
    }

    #[test]
    fn read_aligned_spans_are_page_aligned_with_readahead() {
        with_both(|vfs| {
            let f = vfs.open("big.bin", true).unwrap();
            let content: Vec<u8> = (0..3 * PAGE_SIZE as usize).map(|i| i as u8).collect();
            vfs.write_at(f, 0, &content).unwrap();
            // A 10-byte read in the middle of page 1, readahead 1 page.
            let span = vfs.read_aligned(f, PAGE_SIZE + 100, 10, 1).unwrap();
            assert_eq!(span.start, PAGE_SIZE);
            assert_eq!(span.data.len(), 2 * PAGE_SIZE as usize, "page + readahead");
            assert_eq!(
                span.slice(PAGE_SIZE + 100, 10).unwrap(),
                &content[PAGE_SIZE as usize + 100..PAGE_SIZE as usize + 110]
            );
            // Readahead past EOF truncates instead of failing.
            let tail = vfs.read_aligned(f, 2 * PAGE_SIZE + 1, 8, 4).unwrap();
            assert_eq!(tail.start, 2 * PAGE_SIZE);
            assert_eq!(tail.data.len(), PAGE_SIZE as usize);
        });
    }

    #[test]
    fn aligned_reader_serves_sequential_reads_from_the_readahead_span() {
        with_both(|vfs| {
            let f = vfs.open("seq.bin", true).unwrap();
            let content: Vec<u8> = (0..8 * PAGE_SIZE).map(|i| (i * 7) as u8).collect();
            vfs.write_at(f, 0, &content).unwrap();
            let reads_before = vfs.stats().reads;
            let reader = AlignedReader::new(Arc::clone(&vfs), f, 3);
            // 16 sequential 1 KiB reads cover 4 pages; with a 3-page (+1
            // request page) window every 4th page boundary misses.
            for i in 0..16u64 {
                let got = reader.read(i * 1024, 1024).unwrap();
                assert_eq!(
                    got,
                    &content[(i * 1024) as usize..(i * 1024 + 1024) as usize]
                );
            }
            assert_eq!(reader.span_misses(), 1, "one physical read for 4 pages");
            assert_eq!(reader.span_hits(), 15);
            assert_eq!(vfs.stats().reads - reads_before, 1);
            // A zero-readahead reader touches the device once per page.
            let bare = AlignedReader::new(Arc::clone(&vfs), f, 0);
            for i in 0..16u64 {
                let _ = bare.read(i * 1024, 1024).unwrap();
            }
            assert_eq!(bare.span_misses(), 4, "one miss per page");
        });
    }

    #[test]
    fn os_vfs_contents_survive_reopen_from_the_same_root() {
        let dir = std::env::temp_dir().join(format!("coordl-vfs-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let vfs = OsVfs::new(&dir).unwrap();
            let f = vfs.open("state/epoch.bin", true).unwrap();
            vfs.write_at(f, 0, b"persisted").unwrap();
            vfs.sync(f).unwrap();
        }
        // A fresh instance over the same root sees the bytes: the restart
        // story every persistent tier builds on.
        let vfs = OsVfs::new(&dir).unwrap();
        assert!(vfs.exists("state/epoch.bin"));
        let f = vfs.open("state/epoch.bin", false).unwrap();
        assert_eq!(vfs.read_at(f, 0, 9).unwrap(), b"persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
