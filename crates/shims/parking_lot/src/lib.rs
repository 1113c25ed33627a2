//! Minimal offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Matches parking_lot's API shape where it differs from std: `lock()` /
//! `read()` / `write()` return guards directly (poisoning is swallowed, as
//! parking_lot has no poisoning), and `Condvar::wait` takes the guard by
//! `&mut` reference.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

/// Guard wrapper so `Condvar::wait(&mut guard)` can move the inner std guard
/// out and back (std's `wait` consumes the guard; parking_lot's borrows it).
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// The guard if nobody holds the lock, without waiting: `None` when
    /// another thread holds it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(inner) })
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A reader-writer lock whose accessors never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable taking this crate's `MutexGuard` by `&mut`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        guard.inner = Some(
            self.inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_rwlock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = RwLock::new(10);
        assert_eq!(*rw.read(), 10);
        *rw.write() = 11;
        assert_eq!(rw.into_inner(), 11);
    }

    #[test]
    fn try_lock_fails_only_while_the_lock_is_held() {
        let m = Arc::new(Mutex::new(1));
        *m.try_lock().expect("free") += 1;
        let held = m.lock();
        let m2 = Arc::clone(&m);
        let other = std::thread::spawn(move || m2.try_lock().is_none());
        assert!(other.join().unwrap(), "held by another thread");
        drop(held);
        assert_eq!(m.try_lock().map(|g| *g), Some(2));
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut started = lock.lock();
            while !*started {
                cvar.wait(&mut started);
            }
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
    }
}
