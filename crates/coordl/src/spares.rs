//! [`Spares`]: byte buffers nobody references any more, kept for the next
//! read or prep to fill instead of going back to the allocator.
//!
//! Two places recycle this way.  `FsBackend` keeps the raw payloads prep
//! hands back through `FetchBackend::recycle` and reads the next misses into
//! them; a session lane keeps the prepared sample buffers its streams take
//! back from the consumer and prepares the next samples into them.

use parking_lot::Mutex;

/// A stack of spare buffers shared between threads.  Its lock is held only
/// to push or pop, never while a buffer is filled.
pub(crate) struct Spares {
    stack: Mutex<Vec<Vec<u8>>>,
    /// Buffers kept at most; what arrives beyond it is dropped.
    cap: usize,
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
            stack: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// One spare buffer, or a new empty one when there is none.
    pub(crate) fn pop(&self) -> Vec<u8> {
        self.stack.lock().pop().unwrap_or_default()
    }

    /// Append `n` buffers to `out` under one lock: spares while there are
    /// any, then new empty ones.
    pub(crate) fn pop_n(&self, n: usize, out: &mut Vec<Vec<u8>>) {
        let wanted = out.len() + n;
        {
            let mut stack = self.stack.lock();
            let keep = stack.len().saturating_sub(n);
            out.extend(stack.drain(keep..));
        }
        out.resize_with(wanted, Vec::new);
    }

    /// Keep `bufs` (under one lock) until the cap is reached; the rest go
    /// back to the allocator, outside the lock.
    pub(crate) fn push(&self, bufs: impl IntoIterator<Item = Vec<u8>>) {
        let mut bufs = bufs.into_iter();
        let mut stack = self.stack.lock();
        let room = self.cap - stack.len();
        stack.extend(bufs.by_ref().take(room));
    }

    /// Buffers on the stack.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.stack.lock().len()
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
    fn a_capped_stack_drops_what_does_not_fit() {
        let spares = Spares::capped(2);
        spares.push([vec![1]]);
        spares.push([vec![2], vec![3], vec![4]]);
        assert_eq!(spares.len(), 2);
        assert_eq!((spares.pop(), spares.pop()), (vec![2], vec![1]));
    }
}
