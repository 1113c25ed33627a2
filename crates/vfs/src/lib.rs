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
//! On top of the raw positional API sits [`SpillStore`], a small
//! log-structured key→payload store that lets a cache tier persist demoted
//! victims and a restarted process warm itself back up from disk.  Payloads
//! are appended to fixed-size, recycled segment files (`seg-<n>.dat`); one
//! checksummed manifest (`MANIFEST` / `MANIFEST.1`, checkpointed from one
//! slot to the other) records where each key lives.  It commits in *groups*:
//! one barrier on the segment, one manifest append and one barrier on the
//! manifest per [`SpillStore::GROUP_BYTES`] of payloads, never a record
//! before the bytes it names — so a crash loses at most the open group and
//! never yields a wrong payload, and a landing costs about one write.  The
//! store is single-threaded; a cache tier hands its ops to one write-behind
//! thread that owns its stores, so a crash there also loses what was still
//! queued for that thread, under the byte bound the tier documents.  A
//! spill directory is a cache: one in another format is not migrated, the
//! store starts empty over it.

mod mem;
mod os;
mod spill;

pub use mem::MemVfs;
pub use os::OsVfs;
pub use spill::SpillStore;

use std::sync::atomic::{AtomicU64, Ordering};

/// The alignment unit of on-disk layouts: a materialized dataset starts every
/// item on a multiple of this many bytes, like page-cache-backed files.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
