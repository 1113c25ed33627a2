//! Minimal offline stand-in for `crossbeam`: a bounded MPMC channel.
//!
//! Only `channel::bounded` with blocking `send`/`recv`, non-blocking
//! `try_send`/`try_recv`, `Sender::is_full`, cloneable endpoints and disconnect
//! detection is provided — the surface this workspace uses.  As upstream,
//! dropping the last receiver frees the queued messages and fails every
//! send, including one blocked on a full channel.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    /// Error returned by `send` when every receiver is gone; carries the
    /// unsent message back to the caller like crossbeam's.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by `try_send`; carries the unsent message back to the
    /// caller like crossbeam's.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel holds `capacity` messages.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    /// Error returned by `recv` when the channel is empty and every sender is
    /// gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by `try_recv`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is queued, and a sender may still send one.
        Empty,
        /// No message is queued and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Times a sender has waited for room, so a test can act while one
        /// is waiting.
        #[cfg(test)]
        waits: AtomicUsize,
    }

    /// The sending half; cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create a bounded channel holding at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            #[cfg(test)]
            waits: AtomicUsize::new(0),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Block until there is room, then enqueue; `Err` if all receivers
        /// are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                if queue.len() < shared.capacity {
                    queue.push_back(value);
                    shared.not_empty.notify_one();
                    return Ok(());
                }
                #[cfg(test)]
                shared.waits.fetch_add(1, Ordering::SeqCst);
                queue = shared
                    .not_full
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Whether the channel holds `capacity` messages.
        pub fn is_full(&self) -> bool {
            let queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            queue.len() >= self.shared.capacity
        }

        /// Enqueue if there is room, without blocking: `Full` when the
        /// channel is full, `Disconnected` when every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if queue.len() >= shared.capacity {
                return Err(TrySendError::Full(value));
            }
            queue.push_back(value);
            shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives; `Err` once the channel is empty and
        /// all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(value) = queue.pop_front() {
                    shared.not_full.notify_one();
                    return Ok(value);
                }
                if shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = shared
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Dequeue a message if one is there, without blocking: `Empty`
        /// when none is, `Disconnected` when none is and every sender is
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &self.shared;
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(value) = queue.pop_front() {
                shared.not_full.notify_one();
                return Ok(value);
            }
            if shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake blocked receivers so they observe it.
                let _guard = self.shared.queue.lock();
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last receiver gone: wake blocked senders so they observe it,
                // and, like crossbeam's, free what nobody can receive now —
                // outside the lock, since a message's drop may do anything.
                let unreceived = {
                    let mut queue = self
                        .shared
                        .queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    self.shared.not_full.notify_all();
                    std::mem::take(&mut *queue)
                };
                drop(unreceived);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn values_flow_in_order() {
            let (tx, rx) = bounded(4);
            for i in 0..4 {
                tx.send(i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(rx.recv(), Ok(i));
            }
        }

        #[test]
        fn recv_errors_after_all_senders_drop() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_errors_after_all_receivers_drop() {
            let (tx, rx) = bounded::<u32>(2);
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn dropping_the_last_receiver_frees_what_is_queued() {
            let held = std::sync::Arc::new(7u32);
            let (tx, rx) = bounded(1);
            tx.send(std::sync::Arc::clone(&held)).unwrap();
            assert!(tx.is_full());
            let rx2 = rx.clone();
            drop(rx);
            assert_eq!(std::sync::Arc::strong_count(&held), 2, "a receiver is left");
            drop(rx2);
            assert_eq!(
                std::sync::Arc::strong_count(&held),
                1,
                "freed, sender alive"
            );
            assert!(!tx.is_full());
        }

        #[test]
        fn a_sender_blocked_on_a_full_channel_fails_when_the_receiver_drops() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let shared = std::sync::Arc::clone(&rx.shared);
            let blocked = std::thread::spawn(move || tx.send(2));
            while shared.waits.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            // The drop takes the lock the sender gave up only by waiting.
            drop(rx);
            assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
        }

        #[test]
        fn bounded_send_blocks_until_recv() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2).is_ok());
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert!(t.join().unwrap());
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn try_send_reports_full_and_disconnected_with_the_message() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(tx.try_send(1), Ok(()));
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(tx.try_send(3), Ok(()));
            drop(rx);
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        }

        #[test]
        fn try_recv_reports_empty_then_disconnected_once_drained() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
            tx.send(1).unwrap();
            // Taking the message frees the slot for a blocked sender.
            let t = std::thread::spawn(move || tx.send(2).is_ok());
            assert_eq!(rx.try_recv(), Ok(1));
            assert!(t.join().unwrap());
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn multiple_consumers_partition_the_stream() {
            let (tx, rx) = bounded::<u32>(64);
            let rx2 = rx.clone();
            for i in 0..64 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let h1 = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            });
            let h2 = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            let mut all = h1.join().unwrap();
            all.extend(h2.join().unwrap());
            all.sort_unstable();
            assert_eq!(all, (0..64).collect::<Vec<_>>());
        }
    }
}
