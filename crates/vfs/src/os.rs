//! Real-disk [`Vfs`] implementation over `std::fs`, rooted under a
//! directory.

use crate::{validate_path, FileHandle, StatCells, Vfs, VfsError, VfsStats};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// A filesystem of real files under a root directory.
///
/// All VFS paths resolve strictly inside the root (path validation rejects
/// `..` and absolute components), so a `Session` pointed at a scratch
/// directory cannot touch anything outside it.  Bytes written through one
/// instance are visible to any later instance over the same root — the
/// property the persistent SSD tier's restart warm-up relies on.
pub struct OsVfs {
    root: PathBuf,
    handles: Mutex<Vec<Option<Arc<OpenFile>>>>,
    stats: StatCells,
}

/// Slot table entry, shared so that I/O clones one pointer out of the table
/// and runs without its lock: the open file plus the VFS path it was opened
/// under, which only ever reaches an error message.
struct OpenFile {
    path: String,
    file: File,
}

impl OpenFile {
    fn io_err(&self, err: io::Error) -> VfsError {
        io_err(&self.path, err)
    }
}

fn io_err(path: &str, err: io::Error) -> VfsError {
    VfsError::Io {
        path: path.to_string(),
        detail: err.to_string(),
    }
}

impl OsVfs {
    /// Open (creating if needed) a VFS rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self, VfsError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root.to_string_lossy(), e))?;
        Ok(OsVfs {
            root,
            handles: Mutex::new(Vec::new()),
            stats: StatCells::default(),
        })
    }

    /// The root directory all paths resolve under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn full_path(&self, path: &str) -> Result<PathBuf, VfsError> {
        validate_path(path)?;
        Ok(self.root.join(path))
    }

    fn resolve(&self, file: FileHandle) -> Result<Arc<OpenFile>, VfsError> {
        self.handles
            .lock()
            .get(file.0)
            .and_then(|slot| slot.clone())
            .ok_or(VfsError::BadHandle)
    }
}

impl Vfs for OsVfs {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        let full = self.full_path(path)?;
        if create {
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(path, e))?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .open(&full)
            .map_err(|e| {
                if e.kind() == io::ErrorKind::NotFound {
                    VfsError::NotFound(path.to_string())
                } else {
                    io_err(path, e)
                }
            })?;
        let mut handles = self.handles.lock();
        let slot = Arc::new(OpenFile {
            path: path.to_string(),
            file,
        });
        match handles.iter_mut().enumerate().find(|(_, s)| s.is_none()) {
            Some((idx, empty)) => {
                *empty = Some(slot);
                Ok(FileHandle(idx))
            }
            None => {
                handles.push(Some(slot));
                Ok(FileHandle(handles.len() - 1))
            }
        }
    }

    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        let mut buf = vec![0u8; len];
        let filled = self.read_into(file, offset, &mut buf)?;
        buf.truncate(filled);
        Ok(buf)
    }

    fn read_into(&self, file: FileHandle, offset: u64, buf: &mut [u8]) -> Result<usize, VfsError> {
        let open = self.resolve(file)?;
        let mut filled = 0usize;
        while filled < buf.len() {
            match open
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
            {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(open.io_err(e)),
            }
        }
        self.stats.record_read(filled as u64);
        Ok(filled)
    }

    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        let open = self.resolve(file)?;
        open.file
            .write_all_at(data, offset)
            .map_err(|e| open.io_err(e))?;
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        let open = self.resolve(file)?;
        open.file.sync_data().map_err(|e| open.io_err(e))?;
        self.stats.record_sync();
        Ok(())
    }

    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        let open = self.resolve(file)?;
        Ok(open.file.metadata().map_err(|e| open.io_err(e))?.len())
    }

    fn close(&self, file: FileHandle) -> Result<(), VfsError> {
        let mut handles = self.handles.lock();
        match handles.get_mut(file.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                Ok(())
            }
            _ => Err(VfsError::BadHandle),
        }
    }

    fn exists(&self, path: &str) -> bool {
        match self.full_path(path) {
            Ok(full) => full.is_file(),
            Err(_) => false,
        }
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        let full = self.full_path(path)?;
        std::fs::remove_file(&full).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                VfsError::NotFound(path.to_string())
            } else {
                io_err(path, e)
            }
        })
    }

    fn name(&self) -> &'static str {
        "os"
    }

    fn stats(&self) -> VfsStats {
        self.stats.snapshot()
    }
}
