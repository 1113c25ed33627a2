//! The cross-job staging area (§4.3).
//!
//! Prepared minibatches are published here by whichever job prepared them and
//! consumed by *every* concurrent job exactly once per epoch.  A minibatch is
//! evicted as soon as its per-batch use counter shows that all jobs have taken
//! it, which keeps the staging area's footprint to a handful of in-flight
//! batches (the paper measures ~5 GB of extra process memory for 8 AlexNet
//! jobs).  Consumers that wait too long for a batch receive a timeout so the
//! job group's failure detector can identify and replace a dead producer.
//!
//! Every session stream takes from one: a single-mode or partitioned-node
//! stream is a staging area with one consumer.  Publishing and taking
//! allocate nothing beyond the batch's own `Arc`: a batch's slot is fixed by
//! its index, each slot counts the takes it still owes, and each job keeps
//! one cursor, so no per-batch set of takers is ever built.

use crate::minibatch::Minibatch;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a `take` call did not return a minibatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeError {
    /// The batch did not appear within the timeout — the responsible producer
    /// may have failed; report to the failure detector.
    Timeout,
    /// The staging area was shut down.
    Shutdown,
}

/// The typed outcome of a [`StagingArea::publish`] call, so producers react
/// to shutdown from the return value instead of polling
/// [`StagingArea::is_shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "producers must stop on PublishOutcome::Shutdown"]
pub enum PublishOutcome {
    /// The batch entered the staging area.
    Published,
    /// The batch was already resident or already fully consumed — a harmless
    /// failure-recovery double publish.
    Duplicate,
    /// The staging area was shut down before the batch could be published;
    /// the producer must stop.
    Shutdown,
}

impl PublishOutcome {
    /// True unless the staging area was shut down.
    pub fn is_live(self) -> bool {
        self != PublishOutcome::Shutdown
    }
}

/// Point-in-time statistics of the staging area.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagingStats {
    /// Batches currently resident.
    pub resident_batches: usize,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes since creation.
    pub peak_bytes: u64,
    /// Batches published so far.
    pub published: u64,
    /// Batches fully consumed (by every job) and evicted so far.
    pub evicted: u64,
}

#[derive(Debug)]
struct Slot {
    batch: Arc<Minibatch>,
    /// Consumers that have not taken the batch yet.
    remaining: usize,
}

#[derive(Debug)]
struct Inner {
    /// Batch `i` sits in slot `i % window` while resident: resident indices
    /// all lie in `evicted..evicted + window`, so no two share a slot.
    slots: Vec<Option<Slot>>,
    /// Per job, the lowest index it has not taken yet.
    cursors: Vec<usize>,
    resident_bytes: u64,
    peak_bytes: u64,
    published: u64,
    evicted: u64,
}

/// A bounded, shared buffer of prepared minibatches with per-batch use
/// counters.
///
/// Each job takes batches in index order, so batches are evicted in index
/// order too and `evicted` is the lowest index still resident or to come.
#[derive(Debug)]
pub struct StagingArea {
    inner: Mutex<Inner>,
    available: Condvar,
    space: Condvar,
    /// Set under `inner`'s lock, so no waiter misses it; read without it by
    /// [`StagingArea::is_shutdown`].
    shutdown: AtomicBool,
    num_consumers: usize,
    window: usize,
}

impl StagingArea {
    /// Create a staging area shared by `num_consumers` jobs, holding at most
    /// `window` batches at a time (producer backpressure).
    pub fn new(num_consumers: usize, window: usize) -> Self {
        assert!(num_consumers > 0, "need at least one consumer");
        assert!(window > 0, "window must be positive");
        StagingArea {
            inner: Mutex::new(Inner {
                slots: (0..window).map(|_| None).collect(),
                cursors: vec![0; num_consumers],
                resident_bytes: 0,
                peak_bytes: 0,
                published: 0,
                evicted: 0,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            shutdown: AtomicBool::new(false),
            num_consumers,
            window,
        }
    }

    /// Number of consumer jobs each batch must be taken by before eviction.
    pub fn num_consumers(&self) -> usize {
        self.num_consumers
    }

    /// Publish `batch` (blocking while the window is full).
    ///
    /// Backpressure is expressed relative to consumer progress: batch `i` may
    /// only enter the staging area once every batch below `i - window + 1`
    /// has been fully consumed.  Because consumers take batches in index
    /// order, this bounds resident memory to `window` batches *and*
    /// guarantees that the batch the slowest consumer is waiting for can
    /// always be published (no producer/consumer deadlock even when one
    /// producer runs far ahead of the others).
    ///
    /// Returns [`PublishOutcome::Shutdown`] if the staging area was shut down
    /// before the batch could be published.  Re-publishing an index that is
    /// already resident or already fully consumed (which can happen during
    /// failure recovery) is a harmless no-op reported as
    /// [`PublishOutcome::Duplicate`].
    pub fn publish(&self, batch: Minibatch) -> PublishOutcome {
        let mut guard = self.inner.lock();
        while batch.index >= guard.evicted as usize + self.window && !self.is_shutdown() {
            self.space.wait(&mut guard);
        }
        if self.is_shutdown() {
            return PublishOutcome::Shutdown;
        }
        let inner = &mut *guard;
        let slot = &mut inner.slots[batch.index % self.window];
        if batch.index < inner.evicted as usize || slot.is_some() {
            // Already delivered (or in flight): recovery double-publish.
            return PublishOutcome::Duplicate;
        }
        inner.resident_bytes += batch.payload_bytes();
        inner.peak_bytes = inner.peak_bytes.max(inner.resident_bytes);
        inner.published += 1;
        *slot = Some(Slot {
            batch: Arc::new(batch),
            remaining: self.num_consumers,
        });
        self.available.notify_all();
        PublishOutcome::Published
    }

    /// Whether batch `index` can be published without waiting (see
    /// [`publish`](Self::publish)); once `true`, it stays `true`.
    pub(crate) fn has_room(&self, index: usize) -> bool {
        index < self.inner.lock().evicted as usize + self.window
    }

    /// Take minibatch `index` on behalf of consumer `job`, waiting up to
    /// `timeout` for it to be published (`Duration::MAX` waits until it is
    /// published or the area shuts down).
    ///
    /// Each job takes its batches in index order, each exactly once: asking
    /// for an index below one the job already took is refused at once as a
    /// [`TakeError::Timeout`] (a caller bug — batches are never reused across
    /// epochs).  A batch already resident is handed out even after
    /// [`shutdown`](Self::shutdown); only a missing one reports it.
    pub fn take(
        &self,
        job: usize,
        index: usize,
        timeout: Duration,
    ) -> Result<Arc<Minibatch>, TakeError> {
        assert!(job < self.num_consumers, "job {job} out of range");
        let mut guard = self.inner.lock();
        if index < guard.cursors[job] {
            return Err(TakeError::Timeout);
        }
        loop {
            let inner = &mut *guard;
            let at = index % self.window;
            if let Some(slot) = inner.slots[at].as_mut().filter(|s| s.batch.index == index) {
                slot.remaining -= 1;
                let batch = Arc::clone(&slot.batch);
                if slot.remaining == 0 {
                    inner.slots[at] = None;
                    inner.resident_bytes -= batch.payload_bytes();
                    inner.evicted += 1;
                    self.space.notify_all();
                }
                inner.cursors[job] = index + 1;
                return Ok(batch);
            }
            if self.is_shutdown() {
                return Err(TakeError::Shutdown);
            }
            if self.available.wait_for(&mut guard, timeout).timed_out() {
                return Err(TakeError::Timeout);
            }
        }
    }

    /// Shut the staging area down, waking every waiter: producers stop and
    /// consumers get [`TakeError::Shutdown`] for any batch not yet resident.
    pub fn shutdown(&self) {
        let _guard = self.inner.lock();
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        self.space.notify_all();
    }

    /// Whether the staging area has been shut down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Current statistics.
    pub fn stats(&self) -> StagingStats {
        let inner = self.inner.lock();
        StagingStats {
            resident_batches: inner.slots.iter().flatten().count(),
            resident_bytes: inner.resident_bytes,
            peak_bytes: inner.peak_bytes,
            published: inner.published,
            evicted: inner.evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep::PreparedSample;
    use std::sync::Arc;
    use std::time::Duration;

    fn batch(index: usize, bytes: usize) -> Minibatch {
        Minibatch {
            epoch: 0,
            index,
            samples: vec![PreparedSample {
                item: index as u64,
                epoch: 0,
                augmentation_seed: 0,
                data: vec![0u8; bytes],
            }],
        }
    }

    const T: Duration = Duration::from_millis(200);

    #[test]
    fn publish_then_take_by_all_consumers_evicts() {
        let area = StagingArea::new(2, 4);
        assert_eq!(area.publish(batch(0, 100)), PublishOutcome::Published);
        let a = area.take(0, 0, T).unwrap();
        assert_eq!(a.index, 0);
        assert_eq!(area.stats().resident_batches, 1, "still waiting for job 1");
        let _b = area.take(1, 0, T).unwrap();
        let stats = area.stats();
        assert_eq!(stats.resident_batches, 0, "evicted once all jobs consumed");
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.peak_bytes, 100);
    }

    #[test]
    fn take_before_publish_blocks_until_available() {
        let area = Arc::new(StagingArea::new(1, 2));
        let a2 = Arc::clone(&area);
        let consumer = std::thread::spawn(move || a2.take(0, 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(area.publish(batch(0, 10)), PublishOutcome::Published);
        let got = consumer.join().unwrap().unwrap();
        assert_eq!(got.index, 0);
    }

    #[test]
    fn take_times_out_when_batch_never_arrives() {
        let area = StagingArea::new(1, 2);
        let err = area.take(0, 7, Duration::from_millis(50)).unwrap_err();
        assert_eq!(err, TakeError::Timeout);
    }

    #[test]
    fn double_take_by_same_job_is_refused() {
        let area = StagingArea::new(2, 2);
        let _ = area.publish(batch(0, 10));
        area.take(0, 0, T).unwrap();
        let err = area.take(0, 0, Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, TakeError::Timeout);
    }

    #[test]
    fn window_applies_backpressure_to_producers() {
        let area = Arc::new(StagingArea::new(1, 2));
        let _ = area.publish(batch(0, 10));
        let _ = area.publish(batch(1, 10));
        let a2 = Arc::clone(&area);
        let producer = std::thread::spawn(move || a2.publish(batch(2, 10)));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(area.stats().resident_batches, 2, "third publish must wait");
        // Consuming batch 0 frees a slot.
        area.take(0, 0, T).unwrap();
        assert_eq!(producer.join().unwrap(), PublishOutcome::Published);
        assert_eq!(area.stats().published, 3);
    }

    #[test]
    fn recovery_double_publish_is_reported_as_duplicate() {
        let area = StagingArea::new(2, 4);
        assert_eq!(area.publish(batch(0, 10)), PublishOutcome::Published);
        assert_eq!(area.publish(batch(0, 10)), PublishOutcome::Duplicate);
        // Fully consumed and evicted: re-publishing is still a duplicate.
        area.take(0, 0, T).unwrap();
        area.take(1, 0, T).unwrap();
        assert_eq!(area.publish(batch(0, 10)), PublishOutcome::Duplicate);
        assert_eq!(area.stats().published, 1);
    }

    #[test]
    fn shutdown_wakes_blocked_consumers_and_producers() {
        let area = Arc::new(StagingArea::new(1, 1));
        let _ = area.publish(batch(0, 10));
        let a2 = Arc::clone(&area);
        let blocked_producer = std::thread::spawn(move || a2.publish(batch(1, 10)));
        let a3 = Arc::clone(&area);
        let blocked_consumer = std::thread::spawn(move || a3.take(0, 99, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(50));
        area.shutdown();
        let outcome = blocked_producer.join().unwrap();
        assert_eq!(
            outcome,
            PublishOutcome::Shutdown,
            "publish reports shutdown"
        );
        assert!(!outcome.is_live());
        assert_eq!(
            blocked_consumer.join().unwrap().unwrap_err(),
            TakeError::Shutdown
        );
        assert!(area.is_shutdown());
    }

    #[test]
    fn memory_overhead_stays_bounded_by_window() {
        // The paper's Figure 20 claim: coordinated prep only holds a few
        // minibatches at a time.
        let area = Arc::new(StagingArea::new(1, 3));
        let a2 = Arc::clone(&area);
        let producer = std::thread::spawn(move || {
            for i in 0..50 {
                assert_eq!(a2.publish(batch(i, 1000)), PublishOutcome::Published);
            }
        });
        for i in 0..50 {
            let mb = area.take(0, i, Duration::from_secs(5)).unwrap();
            assert_eq!(mb.index, i);
            assert!(area.stats().resident_bytes <= 3 * 1000);
        }
        producer.join().unwrap();
        let stats = area.stats();
        assert_eq!(stats.published, 50);
        assert_eq!(stats.evicted, 50);
        assert!(stats.peak_bytes <= 3 * 1000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_job_rejected() {
        let area = StagingArea::new(2, 2);
        let _ = area.take(5, 0, T);
    }
}
