//! Bytes the process asks its allocator for: the one cost the pinned
//! allocator (see `main.rs`) takes out of the time-based metrics.
//!
//! With trimming and `mmap` off, `malloc` is a free-list operation, so a
//! change that allocates a fresh buffer per sample — or one that stops doing
//! so — barely moves `samples_per_s` here, while under glibc's defaults it
//! is the largest cost there is (README, finding 1).  Counting the bytes
//! requested keeps that cost in the benchmark as an exact-to-a-percent
//! number, `alloc_bytes_per_sample`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the bytes of every request.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth only: shrinking in place asks for nothing.
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Bytes requested by all threads of the process so far.
pub fn requested_bytes() -> u64 {
    REQUESTED.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_counted_and_growth_only_once() {
        // Other tests allocate concurrently: the counter can only be bounded
        // from below.
        let before = requested_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        assert!(requested_bytes() - before >= 1 << 20);
        let before = requested_bytes();
        v.reserve_exact(2 << 20);
        assert!(requested_bytes() - before >= 1 << 20, "the growth");
        drop(v);
    }
}
