//! Deterministic in-memory [`Vfs`] implementation.

use crate::{validate_path, FileHandle, StatCells, Vfs, VfsError, VfsStats};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

type FileBytes = Arc<Mutex<Vec<u8>>>;

/// An in-memory filesystem with the same semantics as [`crate::OsVfs`].
///
/// "Persistence" is scoped to the instance: handing the same `Arc<MemVfs>`
/// to a rebuilt `Session` models a restart over a surviving disk, which is
/// exactly what the restart warm-up tests exercise on CI hosts where real
/// disk I/O would be slow or unwritable.
pub struct MemVfs {
    files: Mutex<BTreeMap<String, FileBytes>>,
    /// Slot table: a handle resolves to its file's shared bytes, so I/O
    /// clones one pointer out of the table and runs without its lock.
    handles: Mutex<Vec<Option<FileBytes>>>,
    stats: StatCells,
}

impl MemVfs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemVfs {
            files: Mutex::new(BTreeMap::new()),
            handles: Mutex::new(Vec::new()),
            stats: StatCells::default(),
        }
    }

    fn resolve(&self, file: FileHandle) -> Result<FileBytes, VfsError> {
        self.handles
            .lock()
            .get(file.0)
            .and_then(|slot| slot.clone())
            .ok_or(VfsError::BadHandle)
    }

    /// Run `consume` on the bytes a positional read of `len` at `offset`
    /// covers (clamped at end of file) and count the read.
    fn read_with<R>(
        &self,
        file: FileHandle,
        offset: u64,
        len: usize,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, VfsError> {
        let bytes = self.resolve(file)?;
        let bytes = bytes.lock();
        let start = (offset as usize).min(bytes.len());
        let end = start.saturating_add(len).min(bytes.len());
        self.stats.record_read((end - start) as u64);
        Ok(consume(&bytes[start..end]))
    }
}

impl Default for MemVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs for MemVfs {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        validate_path(path)?;
        let mut files = self.files.lock();
        let bytes = match files.get(path) {
            Some(bytes) => Arc::clone(bytes),
            None if create => {
                let bytes: FileBytes = Arc::new(Mutex::new(Vec::new()));
                files.insert(path.to_string(), Arc::clone(&bytes));
                bytes
            }
            None => return Err(VfsError::NotFound(path.to_string())),
        };
        drop(files);
        let mut handles = self.handles.lock();
        match handles.iter_mut().enumerate().find(|(_, s)| s.is_none()) {
            Some((idx, empty)) => {
                *empty = Some(bytes);
                Ok(FileHandle(idx))
            }
            None => {
                handles.push(Some(bytes));
                Ok(FileHandle(handles.len() - 1))
            }
        }
    }

    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        self.read_with(file, offset, len, <[u8]>::to_vec)
    }

    fn read_into(&self, file: FileHandle, offset: u64, buf: &mut [u8]) -> Result<usize, VfsError> {
        self.read_with(file, offset, buf.len(), |src| {
            buf[..src.len()].copy_from_slice(src);
            src.len()
        })
    }

    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        let bytes = self.resolve(file)?;
        let mut bytes = bytes.lock();
        let end = offset as usize + data.len();
        if bytes.is_empty() {
            // A fresh file takes its zeroes from the allocator: a segment
            // created at full length by one small write is not filled twice.
            *bytes = vec![0; end];
        } else if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset as usize..end].copy_from_slice(data);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        self.resolve(file)?;
        self.stats.record_sync();
        Ok(())
    }

    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        let len = self.resolve(file)?.lock().len() as u64;
        Ok(len)
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
        self.files.lock().contains_key(path)
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        validate_path(path)?;
        // Open handles keep their Arc alive, matching unlinked-but-open
        // POSIX files.
        match self.files.lock().remove(path) {
            Some(_) => Ok(()),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    fn name(&self) -> &'static str {
        "mem"
    }

    fn stats(&self) -> VfsStats {
        self.stats.snapshot()
    }
}
