//! Loader statistics (atomic, shared across worker threads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters describing where a loader's bytes came from and how much work it
/// performed.  All counters are monotone and thread-safe.
///
/// The byte and sample counters are *deterministic*: the prefetching
/// executor performs every cache shard's transactions sequentially in plan
/// order, so they are a pure function of the workload and the shard count
/// regardless of fetch-thread count, worker count or prefetch depth.  The stage-timing counters (`*_seconds`) are wall-clock
/// measurements summed across all threads of a stage and naturally vary run
/// to run — they describe where time went (fetch vs prep vs consumer wait),
/// not what was computed.
#[derive(Debug, Default)]
pub struct LoaderStats {
    bytes_from_storage: AtomicU64,
    bytes_from_cache: AtomicU64,
    bytes_from_lower_tiers: AtomicU64,
    bytes_from_remote: AtomicU64,
    samples_prepared: AtomicU64,
    samples_delivered: AtomicU64,
    fetch_busy_nanos: AtomicU64,
    fetch_stall_nanos: AtomicU64,
    prep_busy_nanos: AtomicU64,
    prep_stall_nanos: AtomicU64,
    consumer_wait_nanos: AtomicU64,
    deferred_reads: AtomicU64,
    /// Per-fetch-thread `[busy, stall]` nanos, indexed by fetch thread: a
    /// `fetch_threads(f)` stage records one row per thread (one row for the
    /// default `f = 1`), so reports can show how evenly the shard-ownership
    /// partition spreads fetch work.  Grown on demand — the recording path
    /// is per-batch, not per-item, so a mutex is fine.
    fetch_thread_nanos: std::sync::Mutex<Vec<[u64; 2]>>,
}

impl LoaderStats {
    /// Record `bytes` read from the storage tier.
    pub fn record_storage_read(&self, bytes: u64) {
        self.bytes_from_storage.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `bytes` served from the local cache.
    pub fn record_cache_read(&self, bytes: u64) {
        self.bytes_from_cache.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `bytes` served from a remote server's cache.
    pub fn record_remote_read(&self, bytes: u64) {
        self.bytes_from_remote.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record that `bytes` of a cache read were served by a tier below DRAM
    /// (call *in addition to* [`LoaderStats::record_cache_read`]: lower-tier
    /// bytes are a subset of cache bytes).
    pub fn record_lower_tier_read(&self, bytes: u64) {
        self.bytes_from_lower_tiers
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record that `n` samples were pre-processed.
    pub fn record_prepared(&self, n: u64) {
        self.samples_prepared.fetch_add(n, Ordering::Relaxed);
    }

    /// Record that `n` samples were delivered to a consumer.
    pub fn record_delivered(&self, n: u64) {
        self.samples_delivered.fetch_add(n, Ordering::Relaxed);
    }

    /// Bytes read from storage so far.
    pub fn bytes_from_storage(&self) -> u64 {
        self.bytes_from_storage.load(Ordering::Relaxed)
    }

    /// Bytes served from the cache so far.
    pub fn bytes_from_cache(&self) -> u64 {
        self.bytes_from_cache.load(Ordering::Relaxed)
    }

    /// Bytes served from remote caches so far.
    pub fn bytes_from_remote(&self) -> u64 {
        self.bytes_from_remote.load(Ordering::Relaxed)
    }

    /// Of [`LoaderStats::bytes_from_cache`], the bytes served by cache tiers
    /// below DRAM (zero for flat tiers).
    pub fn bytes_from_lower_tiers(&self) -> u64 {
        self.bytes_from_lower_tiers.load(Ordering::Relaxed)
    }

    /// Samples pre-processed so far.
    pub fn samples_prepared(&self) -> u64 {
        self.samples_prepared.load(Ordering::Relaxed)
    }

    /// Samples delivered to consumers so far.
    pub fn samples_delivered(&self) -> u64 {
        self.samples_delivered.load(Ordering::Relaxed)
    }

    /// Record one hole read: the backend read of a miss the tier bypassed,
    /// done by a fetch thread or a prep pool thread.
    pub fn record_deferred_read(&self) {
        self.deferred_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Hole reads so far: misses the tier bypassed before reading them,
    /// read off the ordered fetch path by whichever stage thread reached
    /// them first.  Like the stage timings, these depend on timing (a
    /// stream dropped mid-epoch leaves holes unread), so no report's
    /// deterministic fields carry them.
    pub fn deferred_reads(&self) -> u64 {
        self.deferred_reads.load(Ordering::Relaxed)
    }

    /// Record time a prep pool thread spent prepping a position.
    pub fn record_prep_busy(&self, d: Duration) {
        self.prep_busy_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record time a prep pool thread spent reading holes: raw bytes the
    /// prep stage had to fetch before it could prep.
    pub fn record_prep_stall(&self, d: Duration) {
        self.prep_stall_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Record time fetch thread `thread` spent reading tiers and backends
    /// (accumulates into the aggregate fetch-busy counter and the thread's
    /// own row).
    pub fn record_fetch_busy_for(&self, thread: usize, d: Duration) {
        self.fetch_busy_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.fetch_thread_add(thread, 0, d);
    }

    /// Record time fetch thread `thread` spent blocked on a full prefetch
    /// queue or window (accumulates into the aggregate fetch-stall counter
    /// and the thread's own row).
    pub fn record_fetch_stall_for(&self, thread: usize, d: Duration) {
        self.fetch_stall_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.fetch_thread_add(thread, 1, d);
    }

    fn fetch_thread_add(&self, thread: usize, slot: usize, d: Duration) {
        let mut rows = self
            .fetch_thread_nanos
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if rows.len() <= thread {
            rows.resize(thread + 1, [0, 0]);
        }
        rows[thread][slot] += d.as_nanos() as u64;
    }

    /// Per-fetch-thread busy seconds, indexed by fetch thread (empty before
    /// the first fetch records).
    pub fn fetch_thread_busy_seconds(&self) -> Vec<f64> {
        self.fetch_thread_seconds(0)
    }

    /// Per-fetch-thread stall seconds: time parked on the thread's own full
    /// lane, i.e. prep backpressure.
    pub fn fetch_thread_stall_seconds(&self) -> Vec<f64> {
        self.fetch_thread_seconds(1)
    }

    fn fetch_thread_seconds(&self, slot: usize) -> Vec<f64> {
        self.fetch_thread_nanos
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|row| row[slot] as f64 / 1e9)
            .collect()
    }

    /// Record time a consumer spent waiting for the next minibatch.
    pub fn record_consumer_wait(&self, d: Duration) {
        self.consumer_wait_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds the fetch stage spent reading, summed across epochs.
    pub fn fetch_busy_seconds(&self) -> f64 {
        self.fetch_busy_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds the fetch stage spent blocked on prep backpressure.
    pub fn fetch_stall_seconds(&self) -> f64 {
        self.fetch_stall_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds prep pool threads spent pre-processing, summed across them.
    pub fn prep_busy_seconds(&self) -> f64 {
        self.prep_busy_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds prep pool threads spent reading holes instead of prepping,
    /// summed across them.
    pub fn prep_stall_seconds(&self) -> f64 {
        self.prep_stall_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds consumers spent waiting for minibatches, summed across
    /// consumer threads.
    pub fn consumer_wait_seconds(&self) -> f64 {
        self.consumer_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = LoaderStats::default();
        s.record_storage_read(10);
        s.record_storage_read(5);
        s.record_cache_read(7);
        s.record_remote_read(3);
        s.record_prepared(2);
        s.record_delivered(4);
        s.record_deferred_read();
        s.record_deferred_read();
        assert_eq!(s.bytes_from_storage(), 15);
        assert_eq!(s.bytes_from_cache(), 7);
        assert_eq!(s.bytes_from_remote(), 3);
        assert_eq!(s.samples_prepared(), 2);
        assert_eq!(s.samples_delivered(), 4);
        assert_eq!(s.deferred_reads(), 2);
    }

    #[test]
    fn stage_timings_accumulate_in_seconds() {
        let s = LoaderStats::default();
        s.record_fetch_busy_for(0, Duration::from_millis(500));
        s.record_fetch_busy_for(0, Duration::from_millis(250));
        s.record_fetch_stall_for(0, Duration::from_millis(100));
        s.record_prep_busy(Duration::from_secs(2));
        s.record_prep_stall(Duration::from_millis(40));
        s.record_consumer_wait(Duration::from_millis(10));
        assert!((s.fetch_busy_seconds() - 0.75).abs() < 1e-9);
        assert!((s.fetch_stall_seconds() - 0.1).abs() < 1e-9);
        assert!((s.prep_busy_seconds() - 2.0).abs() < 1e-9);
        assert!((s.prep_stall_seconds() - 0.04).abs() < 1e-9);
        assert!((s.consumer_wait_seconds() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn per_fetch_thread_timings_split_the_aggregate() {
        let s = LoaderStats::default();
        assert!(s.fetch_thread_busy_seconds().is_empty(), "nothing recorded");
        s.record_fetch_busy_for(0, Duration::from_millis(100));
        s.record_fetch_busy_for(2, Duration::from_millis(300));
        s.record_fetch_stall_for(1, Duration::from_millis(50));
        let busy = s.fetch_thread_busy_seconds();
        let stall = s.fetch_thread_stall_seconds();
        assert_eq!(busy.len(), 3, "grown to the highest recorded thread");
        assert!((busy[0] - 0.1).abs() < 1e-9);
        assert!((busy[1]).abs() < 1e-9, "thread 1 never fetched");
        assert!((busy[2] - 0.3).abs() < 1e-9);
        assert!((stall[1] - 0.05).abs() < 1e-9);
        // The aggregate counters see the same time: per-thread rows are a
        // decomposition, not a separate clock.
        assert!((s.fetch_busy_seconds() - 0.4).abs() < 1e-9);
        assert!((s.fetch_stall_seconds() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let s = Arc::new(LoaderStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_prepared(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.samples_prepared(), 4000);
    }
}
