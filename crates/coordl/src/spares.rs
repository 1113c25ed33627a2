//! [`Spares`]: byte buffers nobody references any more, kept for the next
//! read or prep to fill instead of going back to the allocator.
//!
//! Two places recycle this way.  Every backend that reads a miss into a
//! buffer of its own (`FsBackend`, `DirectBackend`) keeps
//! the raw payloads handed back through `FetchBackend::recycle` — by prep
//! once it is done with one, and by a session's cache tier once it drops one
//! — and reads the next misses into them; a session lane keeps the prepared
//! sample buffers its streams take back from the consumer and prepares the
//! next samples into them, having made its whole prepared-side window of
//! them at its first batch.

use parking_lot::Mutex;

/// Payload buffers a backend's free list holds at most: thirty-two default
/// minibatches.  Three sources feed it.  Prep hands back every payload it
/// held the last reference to — the misses no tier kept — so with a
/// never-evicting tier the list needs the executor's fetch→prep window:
/// each lane of four positions, the position being handed over, and the
/// positions in prep or staged — at most `workers + fetch_threads`, three
/// by default — eight default minibatches.  A session hands the backend
/// that window of new buffers when its tier first bypasses a miss, and one
/// more for each payload the tier keeps after that
/// (`stack::tier_over_backend`), so the list holds the window before any
/// of it is in flight.  The prepared side's window is five: the staging window and
/// the batch lent to the consumer (see `Lane::spares`).  A session's cache
/// tier hands back every payload it drops (an evicted key, or the copy a
/// raced admission discarded), at most one per miss in steady state, and
/// each is taken again by the miss that follows.  What it buys is a count
/// that does not depend on timing.  A list smaller than the window (32)
/// re-allocated anything from one payload in a hundred to two in five,
/// depending on which stage happened to run ahead (`BENCH_17.json`); the
/// cap is four windows so that the spares made before the first bypass fit
/// beside the window.  What arrives beyond the cap is dropped and allocated
/// again, nothing worse.
pub(crate) const FREE_LIST_CAP: usize = 1024;

/// A stack of spare buffers shared between threads.  Its lock is held only
/// to push, pop or make the window, never while a buffer is filled.
pub(crate) struct Spares {
    stack: Mutex<Stack>,
    /// Buffers kept at most; what arrives beyond it is dropped.
    cap: usize,
    /// Buffers [`fill_window`](Self::fill_window) makes the stack's total
    /// up to (0: none).
    window: usize,
}

struct Stack {
    bufs: Vec<Vec<u8>>,
    /// Buffers made so far: handed out new by `pop` or `pop_n`, or made by
    /// `fill_window`.
    made: usize,
}

impl Default for Spares {
    /// A stack with no cap.  It only grows when every buffer it handed out
    /// is in flight at once, so it never holds more than the most buffers
    /// that were ever in flight together: whoever draws from it bounds it.
    fn default() -> Self {
        Self::capped(usize::MAX)
    }
}

impl Spares {
    /// A stack that keeps at most `cap` buffers: for a pool anyone may hand
    /// buffers to, however many.
    pub(crate) fn capped(cap: usize) -> Self {
        Spares {
            stack: Mutex::new(Stack {
                bufs: Vec::new(),
                made: 0,
            }),
            cap,
            window: 0,
        }
    }

    /// A stack with no cap whose owner knows how many buffers can be in
    /// flight at once: `window`, made all together the first time it runs
    /// dry (see [`fill_window`](Self::fill_window)).
    pub(crate) fn with_window(window: usize) -> Self {
        Spares {
            window,
            ..Self::default()
        }
    }

    /// One spare buffer, or a new empty one when there is none.
    pub(crate) fn pop(&self) -> Vec<u8> {
        let mut stack = self.stack.lock();
        stack.bufs.pop().unwrap_or_else(|| {
            stack.made += 1;
            Vec::new()
        })
    }

    /// Append `n` buffers to `out` under one lock: spares while there are
    /// any, then new empty ones.  Returns how many are new.
    pub(crate) fn pop_n(&self, n: usize, out: &mut Vec<Vec<u8>>) -> usize {
        let wanted = out.len() + n;
        let new = {
            let mut stack = self.stack.lock();
            let keep = stack.bufs.len().saturating_sub(n);
            out.extend(stack.bufs.drain(keep..));
            let new = wanted - out.len();
            stack.made += new;
            new
        };
        out.resize_with(wanted, Vec::new);
        new
    }

    /// Make new buffers of `capacity` bytes until the stack has made its
    /// window in all, and keep them.  Called once `pop_n` had to make new
    /// buffers, this sizes every buffer the window can hold in flight at
    /// the first dry pop, so how many are made never depends on how far the
    /// stages happened to run ahead of each other.  A no-op once the
    /// window is made: a later dry pop (more in flight than the window, or
    /// buffers a consumer kept) makes only what it takes.
    ///
    /// The buffers are made under the lock, once per stack: a worker that
    /// popped in between would find the stack dry and make more.
    pub(crate) fn fill_window(&self, capacity: usize) {
        let mut stack = self.stack.lock();
        let missing = self.window.saturating_sub(stack.made);
        stack.made += missing;
        stack
            .bufs
            .extend((0..missing).map(|_| Vec::with_capacity(capacity)));
    }

    /// Keep `bufs` (under one lock) until the cap is reached; the rest go
    /// back to the allocator, outside the lock.
    pub(crate) fn push(&self, bufs: impl IntoIterator<Item = Vec<u8>>) {
        let mut bufs = bufs.into_iter();
        let mut stack = self.stack.lock();
        let room = self.cap - stack.bufs.len();
        stack.bufs.extend(bufs.by_ref().take(room));
    }

    /// Buffers on the stack.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stack.lock().bufs.len()
    }

    /// Buffers made so far.
    #[cfg(test)]
    pub(crate) fn made(&self) -> usize {
        self.stack.lock().made
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_what_was_pushed_last_and_new_buffers_once_empty() {
        let spares = Spares::default();
        spares.push([vec![1], vec![2], vec![3]]);
        let mut out = vec![vec![9]];
        spares.pop_n(2, &mut out);
        assert_eq!(out, [vec![9], vec![2], vec![3]]);
        spares.pop_n(3, &mut out);
        assert_eq!(out[3..], [vec![1], vec![], vec![]]);
        assert_eq!(spares.len(), 0);
        assert_eq!(spares.pop(), Vec::<u8>::new());
    }

    #[test]
    fn the_first_dry_pops_make_the_whole_window_whoever_fills_first() {
        // Two workers find the stack dry before either fills it: the window
        // is made exactly once, in either order.
        for first_fills_early in [false, true] {
            let spares = Spares::with_window(10);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            assert_eq!(spares.pop_n(3, &mut a), 3);
            if first_fills_early {
                spares.fill_window(64);
            }
            let made_by_b = spares.pop_n(3, &mut b);
            assert_eq!(made_by_b, if first_fills_early { 0 } else { 3 });
            spares.fill_window(64);
            spares.fill_window(64);
            spares.push(a.into_iter().chain(b));
            assert_eq!(spares.len(), 10);
            let mut all = Vec::new();
            assert_eq!(spares.pop_n(10, &mut all), 0, "nothing more is made");
            assert!(all.iter().filter(|buf| buf.capacity() >= 64).count() >= 4);
            // More in flight than the window: only what it takes is made.
            assert_eq!(spares.pop_n(2, &mut all), 2);
            spares.fill_window(64);
            assert_eq!(spares.len(), 0);
        }
    }

    #[test]
    fn a_stack_without_a_window_makes_only_what_it_hands_out() {
        let spares = Spares::default();
        assert_eq!(spares.pop_n(4, &mut Vec::new()), 4);
        spares.fill_window(64);
        assert_eq!(spares.len(), 0);
    }

    #[test]
    fn a_capped_stack_drops_what_does_not_fit() {
        let spares = Spares::capped(2);
        spares.push([vec![1]]);
        spares.push([vec![2], vec![3], vec![4]]);
        assert_eq!(spares.len(), 2);
        assert_eq!((spares.pop(), spares.pop()), (vec![2], vec![1]));
    }
}
