//! Scratch directories that never outlive the code using them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under a base directory, removed with everything in it
/// when the value is dropped — on success, on an early error return and
/// while a panic unwinds alike, so no spill manifest or dataset file leaks
/// from one set-up into the next.
#[derive(Debug)]
pub struct TempRoot {
    path: PathBuf,
}

static NEXT: AtomicU64 = AtomicU64::new(0);

/// Where scratch directories go unless `--root` says otherwise: next to the
/// running executable, which is inside the build directory and therefore
/// inside the checkout and ignored by git.
pub fn default_base() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("dsbench-work")
}

impl TempRoot {
    /// Create `base/<tag>-<pid>-<n>`; the name is unique within the process
    /// and, through the pid, across concurrently running benchmarks.
    pub fn new(base: &Path, tag: &str) -> std::io::Result<TempRoot> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        // Drop must not panic; a directory that cannot be removed is left
        // for the caller's own clean-up of the base directory.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TempRoot {
        TempRoot::new(&default_base(), "tempdir-test").unwrap()
    }

    fn fill(dir: &Path) {
        std::fs::create_dir_all(dir.join("ssd/shard-0")).unwrap();
        std::fs::write(dir.join("ssd/shard-0/MANIFEST"), b"+ 1 2\n").unwrap();
    }

    #[test]
    fn removed_on_success() {
        let base = base();
        let kept = {
            let t = TempRoot::new(base.path(), "ok").unwrap();
            fill(t.path());
            assert!(t.path().join("ssd/shard-0/MANIFEST").is_file());
            t.path().to_path_buf()
        };
        assert!(!kept.exists());
    }

    #[test]
    fn removed_on_early_error_return() {
        fn failing(base: &Path, seen: &mut PathBuf) -> Result<(), String> {
            let t = TempRoot::new(base, "err").map_err(|e| e.to_string())?;
            fill(t.path());
            *seen = t.path().to_path_buf();
            Err("set-up failed".to_string())
        }
        let base = base();
        let mut seen = PathBuf::new();
        assert!(failing(base.path(), &mut seen).is_err());
        assert!(seen.starts_with(base.path()) && !seen.exists());
    }

    #[test]
    fn removed_while_a_panic_unwinds() {
        let base = base();
        let seen = std::sync::Mutex::new(PathBuf::new());
        let outcome = std::panic::catch_unwind(|| {
            let t = TempRoot::new(base.path(), "panic").unwrap();
            fill(t.path());
            *seen.lock().unwrap() = t.path().to_path_buf();
            panic!("workload panicked");
        });
        assert!(outcome.is_err());
        let seen = seen.into_inner().unwrap();
        assert!(seen.starts_with(base.path()) && !seen.exists());
    }

    #[test]
    fn names_are_unique_within_a_process() {
        let base = base();
        let a = TempRoot::new(base.path(), "same").unwrap();
        let b = TempRoot::new(base.path(), "same").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
