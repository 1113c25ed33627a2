//! The multi-threaded prefetching executor behind every
//! [`Session`](crate::Session) mode.
//!
//! The paper's fix for data stalls is *overlap*: prefetch raw items ahead of
//! the consumer and pre-process them on parallel CPU workers so storage and
//! prep latency hide behind the GPU (§2, §5).  This module implements that
//! overlap once, for all three session modes:
//!
//! ```text
//!   plan (ordered batches)
//!        │ fetch stage: `fetch_threads` >= 1 threads, each owning the
//!        │ cache shards `{k : k % fetch_threads == t}`
//!        ▼
//!   bounded raw-batch queue (prefetch_depth)
//!        │ N prep workers, deterministic per-(epoch, item) pipeline
//!        ▼
//!   PreparedSink — reorder buffer (single / partitioned) or the
//!                  coordinated StagingArea
//! ```
//!
//! **Determinism contract.**  The fetch stage is one **sharded pool** of
//! `fetch_threads = f >= 1` threads: items are routed to cache shards by
//! `dcache::shard_of_key` (the same routing the sharded tiers use), and pool
//! thread `t` owns exactly the shards `{k : k % f == t}`.  Every pool thread
//! walks *every* plan position in order, fetching only the items it owns, so
//! all tier transactions for a given key are executed by exactly one thread,
//! in plan order for that key's shard — the per-shard access subsequence is
//! the same for every `f`, and for `f = 1` it is the whole plan in order on
//! one thread.  Cache hits, misses, byte provenance and eviction decisions
//! are therefore a pure function of the plan and the shard count: streams
//! and [`LoaderStats`] counters are bit-identical across `fetch_threads`,
//! `workers` and `prefetch_depth` for *any* tier policy (the
//! order-preserving sinks and the per-`(epoch, item)` deterministic prep
//! carry that through to the delivered minibatches); only the stage-timing
//! counters (fetch busy/stall per thread, prep busy/stall, consumer wait)
//! move.  The root `tests/parallel_session_equivalence.rs` and
//! `tests/parallel_fetch_equivalence.rs` suites pin this contract.
//!
//! **Failure contract.**  A panicking stage thread is caught, converted into
//! a descriptive [`CoordlError::WorkerPanicked`] and recorded in the shared
//! [`ExecutorShared`] slot; the channels disconnect, the remaining threads
//! drain out, and only the owning session's streams observe the error.
//! Shutting down mid-epoch (dropping a stream or an epoch run) never
//! deadlocks: the owner drops the consumer endpoint (or shuts the staging
//! area down) *before* joining, which unblocks any worker parked on a full
//! queue.

use crate::backend::{recycle_if_last, FetchBackend};
use crate::error::CoordlError;
use crate::minibatch::Minibatch;
use crate::stats::LoaderStats;
use crossbeam::channel::{bounded, Receiver, Sender};
use dataset::ItemId;
use parking_lot::Mutex;
use prep::ExecutablePipeline;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How raw bytes for one item are obtained (tier → backend for single and
/// coordinated sessions, cluster lookup order for partitioned nodes).
/// A typed `Err` (a failed backend read) ends the epoch early and surfaces
/// through the stream, unlike a panic, which is caught and wrapped.
pub(crate) type FetchFn = dyn Fn(ItemId) -> Result<Arc<Vec<u8>>, CoordlError> + Send + Sync;

/// Batch-index filter: `true` drops the batch before fetch and prep
/// (coordinated failure injection).
pub(crate) type SkipFn = dyn Fn(usize) -> bool + Send + Sync;

/// Where prep workers deliver prepared minibatches.
pub(crate) trait PreparedSink: Send + Sync + 'static {
    /// Deliver one prepared minibatch.  Returning `false` tells the worker
    /// to stop (the consumer is gone or the epoch was shut down).
    fn publish(&self, mb: Minibatch) -> bool;
}

impl PreparedSink for Sender<Minibatch> {
    fn publish(&self, mb: Minibatch) -> bool {
        self.send(mb).is_ok()
    }
}

/// One fetched-but-not-yet-prepared minibatch in flight between the stages.
struct RawBatch {
    index: usize,
    items: Vec<ItemId>,
    raw: Vec<Arc<Vec<u8>>>,
}

/// State shared between an executor's threads and its owner: the first
/// worker panic (as a typed error) and the shutdown flag.
#[derive(Default)]
pub(crate) struct ExecutorShared {
    error: Mutex<Option<CoordlError>>,
    shutdown: AtomicBool,
}

impl ExecutorShared {
    /// Record the first panic; later ones are dropped (the first is the
    /// cause, the rest are fallout).
    fn record_panic(&self, stage: &'static str, payload: Box<dyn std::any::Any + Send>) {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(CoordlError::WorkerPanicked { stage, detail });
        }
    }

    /// Record a recovery-producer panic (coordinated mode's failure path).
    pub(crate) fn record_recovery_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        self.record_panic("recovery", payload);
    }

    /// Record the first typed error (e.g. a failed backend read); later
    /// ones are dropped, like later panics.
    pub(crate) fn record_error(&self, err: CoordlError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// The recorded failure, if any worker panicked.
    pub(crate) fn failure(&self) -> Option<CoordlError> {
        self.error.lock().clone()
    }

    /// Take the recorded failure, so a stream surfaces it exactly once.
    pub(crate) fn take_failure(&self) -> Option<CoordlError> {
        self.error.lock().take()
    }

    /// Ask the fetch stage to stop at the next batch boundary.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Thread counts and queue depth of an epoch executor, derived once per
/// session from its [`SessionConfig`](crate::SessionConfig).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecutorConfig {
    /// Prep worker threads (>= 1 enforced).
    pub workers: usize,
    /// Raw batches buffered between fetch and prep (>= 1 enforced).
    pub prefetch_depth: usize,
    /// Fetch-stage threads (>= 1 enforced).
    pub fetch_threads: usize,
    /// Cache shards the fetch stage's key-ownership map is computed against
    /// (>= 1 enforced).  Must match the shard count of the session's
    /// sharded tier for the determinism contract to hold.
    pub fetch_shards: usize,
}

/// Everything needed to run one epoch's fetch + prep pipeline.
pub(crate) struct ExecutorSpec {
    /// Epoch index (seeds the per-(epoch, item) augmentations).
    pub epoch: u64,
    /// The ordered plan: `(batch_index, item_ids)` in training order.
    pub batches: Vec<(usize, Vec<ItemId>)>,
    /// Raw-byte source, called in plan order per cache shard.
    pub fetch: Arc<FetchFn>,
    /// The backend under `fetch`: prep workers hand it back every raw
    /// payload nothing else references.
    pub backend: Arc<dyn FetchBackend>,
    /// Optional batch filter (coordinated failure injection).
    pub skip: Option<Arc<SkipFn>>,
    /// The deterministic prep pipeline.
    pub pipeline: Arc<ExecutablePipeline>,
    /// Shared statistics (byte provenance, sample counts, stage timings).
    pub stats: Arc<LoaderStats>,
    /// Where prepared minibatches go.
    pub sink: Arc<dyn PreparedSink>,
    /// Thread counts and queue depth.
    pub config: ExecutorConfig,
}

/// A running fetch + prep pipeline for one epoch.  Dropping it (after the
/// owner has disconnected the sink's consumer side) joins every thread.
pub(crate) struct PrefetchExecutor {
    shared: Arc<ExecutorShared>,
    handles: Vec<JoinHandle<()>>,
}

impl PrefetchExecutor {
    /// Spawn the fetch stage and prep pool described by `spec`.
    pub(crate) fn spawn(spec: ExecutorSpec) -> Self {
        let shared = Arc::new(ExecutorShared::default());
        let workers = spec.config.workers.max(1);
        let fetch_threads = spec.config.fetch_threads.max(1);
        let depth = spec.config.prefetch_depth.max(1);
        let (raw_tx, raw_rx) = bounded::<RawBatch>(depth);
        let mut handles = Vec::with_capacity(workers + fetch_threads);

        let pool = Arc::new(FetchPool {
            state: std::sync::Mutex::new(PoolState {
                done: 0,
                pending: HashMap::new(),
                aborted: false,
            }),
            cv: Condvar::new(),
            threads: fetch_threads,
            shards: spec.config.fetch_shards.max(1),
            depth,
            batches: spec.batches,
            fetch: spec.fetch,
            skip: spec.skip,
            stats: Arc::clone(&spec.stats),
            shared: Arc::clone(&shared),
        });
        for thread in 0..fetch_threads {
            let pool = Arc::clone(&pool);
            let raw_tx = raw_tx.clone();
            handles.push(std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| pool.run(thread, &raw_tx)));
                if let Err(payload) = outcome {
                    pool.shared.record_panic("fetch", payload);
                    // Peers parked on the window must not wait for
                    // contributions that will never come.
                    pool.abort();
                }
            }));
        }
        drop(raw_tx);
        for _ in 0..workers {
            handles.push(spawn_prep_worker(
                spec.epoch,
                Arc::clone(&spec.backend),
                Arc::clone(&spec.pipeline),
                Arc::clone(&spec.stats),
                Arc::clone(&spec.sink),
                Arc::clone(&shared),
                raw_rx.clone(),
            ));
        }
        drop(raw_rx);

        PrefetchExecutor { shared, handles }
    }

    /// The error/shutdown state shared with streams and consumers.
    pub(crate) fn shared(&self) -> &Arc<ExecutorShared> {
        &self.shared
    }

    /// Stop fetching and join every stage thread.
    ///
    /// The owner must first unblock any worker parked on the sink (drop the
    /// consumer receiver, or shut the staging area down) — this method only
    /// unblocks the fetch → prep queue.
    pub(crate) fn shutdown_and_join(&mut self) {
        self.shared.begin_shutdown();
        for h in self.handles.drain(..) {
            // A panicked worker already recorded its error; the Err here is
            // just the resume payload.
            let _ = h.join();
        }
    }
}

impl Drop for PrefetchExecutor {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// One plan position in the pool's in-flight window: per-item byte slots
/// filled by their owning threads, and the once-evaluated skip decision.
struct PendingBatch {
    skipped: bool,
    raw: Vec<Option<Arc<Vec<u8>>>>,
    /// Pool threads that have not yet contributed to this position.
    remaining: usize,
}

/// Mutable state of the fetch pool.
///
/// `done` counts fully completed positions.  Positions complete strictly in
/// plan order: a position is complete only once every thread has passed it,
/// and each thread visits positions in increasing order, so completion of
/// position `p` implies completion of every earlier one.  The window
/// invariant threads wait on (`pos < done + depth`) therefore never
/// deadlocks: if the minimum incomplete position is `p_min`, all positions
/// below it are complete (`done >= p_min`), so a thread parked at
/// `p <= p_min` would need `p >= done + depth > p_min >= p` — impossible —
/// and the thread holding up `p_min` is running, not waiting.  (A pool of
/// one never parks on the window at all: it completes each position before
/// visiting the next, so only the bounded raw-batch queue holds it back.)
struct PoolState {
    done: usize,
    pending: HashMap<usize, PendingBatch>,
    aborted: bool,
}

/// One epoch's fetch stage: the plan, the fetch path and the coordination
/// state its `threads` pool threads share (see the module docs).
struct FetchPool {
    state: std::sync::Mutex<PoolState>,
    cv: Condvar,
    threads: usize,
    shards: usize,
    depth: usize,
    batches: Vec<(usize, Vec<ItemId>)>,
    fetch: Arc<FetchFn>,
    skip: Option<Arc<SkipFn>>,
    stats: Arc<LoaderStats>,
    shared: Arc<ExecutorShared>,
}

impl FetchPool {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // A panicking pool thread records a typed error and aborts the pool;
        // peers must still be able to observe the abort through the lock.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stop every pool thread at its next window check (error/panic/
    /// disconnect fallout — never called on a normal completion).
    fn abort(&self) {
        self.lock().aborted = true;
        self.cv.notify_all();
    }

    /// Which pool thread owns `item`: the thread that executes every cache
    /// transaction for `item`'s shard.  Routing MUST match the sharded
    /// tier's (`dcache::shard_of_key`) so shard ownership and lock ownership
    /// coincide.
    fn owner(&self, item: ItemId) -> usize {
        dcache::shard_of_key(item, self.shards) % self.threads
    }

    /// Pool thread `thread`'s sweep over the whole plan.
    fn run(&self, thread: usize, raw_tx: &Sender<RawBatch>) {
        let (stats, shared) = (&*self.stats, &*self.shared);
        // This thread's fetches of one position; the first batch is the
        // largest.
        let batch = self.batches.first().map_or(0, |(_, items)| items.len());
        let mut mine: Vec<(usize, Arc<Vec<u8>>)> = Vec::with_capacity(batch);
        for (pos, (index, items)) in self.batches.iter().enumerate() {
            // Wait for the prefetch window, then claim (or join) this
            // position's pending entry under the same lock hold.
            let wait = Instant::now();
            let mut st = self.lock();
            while !st.aborted && !shared.is_shutdown() && pos >= st.done + self.depth {
                // Timed wait: `begin_shutdown` does not know about this
                // condvar, so a parked thread re-checks the flag on its own
                // clock.
                let (guard, _timeout) = self
                    .cv
                    .wait_timeout(st, Duration::from_millis(25))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                st = guard;
            }
            if st.aborted || shared.is_shutdown() {
                return;
            }
            let entry = st.pending.entry(pos).or_insert_with(|| PendingBatch {
                // Evaluated exactly once per position, by whichever thread
                // arrives first: the filter may read mutable state
                // (coordinated kill flags), and the pool must agree on one
                // decision.
                skipped: self.skip.as_ref().is_some_and(|s| s(*index)),
                raw: vec![None; items.len()],
                remaining: self.threads,
            });
            let skipped = entry.skipped;
            drop(st);
            stats.record_fetch_stall_for(thread, wait.elapsed());

            // Fetch the items this thread owns, outside the lock: owners are
            // disjoint across threads, so every tier transaction for a given
            // key happens on one thread, in plan order for that key's shard.
            if !skipped {
                let busy = Instant::now();
                for (slot, &item) in items.iter().enumerate() {
                    if self.owner(item) != thread {
                        continue;
                    }
                    match (self.fetch)(item) {
                        Ok(bytes) => mine.push((slot, bytes)),
                        Err(err) => {
                            // A typed fetch failure ends the epoch exactly
                            // like a panic would, but with the real cause
                            // attached.
                            stats.record_fetch_busy_for(thread, busy.elapsed());
                            shared.record_error(err);
                            self.abort();
                            return;
                        }
                    }
                }
                stats.record_fetch_busy_for(thread, busy.elapsed());
            }

            // Contribute, and as the last thread in, take the completed
            // batch.
            let ready = {
                let mut st = self.lock();
                let entry = st
                    .pending
                    .get_mut(&pos)
                    .expect("a contributed position stays pending until complete");
                for (slot, bytes) in mine.drain(..) {
                    entry.raw[slot] = Some(bytes);
                }
                entry.remaining -= 1;
                if entry.remaining == 0 {
                    let entry = st.pending.remove(&pos).expect("entry just updated");
                    st.done += 1;
                    self.cv.notify_all();
                    (!entry.skipped).then_some(entry)
                } else {
                    None
                }
            };
            // Dispatch outside the lock; the sink reorders, so out-of-order
            // sends between racing last-contributors are fine.
            if let Some(entry) = ready {
                let raw: Vec<Arc<Vec<u8>>> = entry
                    .raw
                    .into_iter()
                    .map(|slot| slot.expect("every item was fetched by its owner"))
                    .collect();
                let stall = Instant::now();
                let sent = raw_tx.send(RawBatch {
                    index: *index,
                    items: items.clone(),
                    raw,
                });
                stats.record_fetch_stall_for(thread, stall.elapsed());
                if sent.is_err() {
                    // Every prep worker is gone; the channel stays
                    // disconnected for all senders, so stop the whole pool.
                    self.abort();
                    return;
                }
            }
        }
    }
}

fn spawn_prep_worker(
    epoch: u64,
    backend: Arc<dyn FetchBackend>,
    pipeline: Arc<ExecutablePipeline>,
    stats: Arc<LoaderStats>,
    sink: Arc<dyn PreparedSink>,
    shared: Arc<ExecutorShared>,
    raw_rx: Receiver<RawBatch>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let stall = Instant::now();
            let Ok(batch) = raw_rx.recv() else {
                break; // fetch stage done and queue drained
            };
            stats.record_prep_stall(stall.elapsed());
            let busy = Instant::now();
            let samples = batch
                .items
                .iter()
                .zip(batch.raw)
                .map(|(&item, raw)| {
                    let sample = pipeline.prepare(epoch, item, &raw);
                    recycle_if_last(&*backend, raw);
                    sample
                })
                .collect::<Vec<_>>();
            stats.record_prepared(samples.len() as u64);
            stats.record_prep_busy(busy.elapsed());
            // Publishing blocks on downstream backpressure (a full output
            // queue or staging window); like the recv above, that is time
            // the worker is not pre-processing, so it counts as prep stall.
            let publishing = Instant::now();
            let delivered = sink.publish(Minibatch {
                epoch,
                index: batch.index,
                samples,
            });
            stats.record_prep_stall(publishing.elapsed());
            if !delivered {
                break; // consumer gone or epoch shut down
            }
        }));
        if let Err(payload) = outcome {
            shared.record_panic("prep", payload);
        }
    })
}

/// Spawn one epoch's executor delivering into an order-preserving stream:
/// prepared batches flow through a bounded channel into a reorder buffer
/// that yields them strictly in plan order.
pub(crate) fn spawn_ordered_epoch(
    epoch: u64,
    batches: Vec<(usize, Vec<ItemId>)>,
    fetch: Arc<FetchFn>,
    backend: Arc<dyn FetchBackend>,
    pipeline: Arc<ExecutablePipeline>,
    stats: Arc<LoaderStats>,
    config: ExecutorConfig,
) -> OrderedStream {
    let total = batches.len();
    let (out_tx, out_rx) = bounded::<Minibatch>(config.prefetch_depth.max(1));
    let executor = PrefetchExecutor::spawn(ExecutorSpec {
        epoch,
        batches,
        fetch,
        backend,
        skip: None,
        pipeline,
        stats: Arc::clone(&stats),
        sink: Arc::new(out_tx),
        config,
    });
    OrderedStream {
        rx: out_rx,
        reorder: BTreeMap::new(),
        next: 0,
        total,
        stats,
        executor,
    }
}

/// Iterator over one epoch's minibatches, delivered in training order.
///
/// Owns the epoch's executor: dropping the stream disconnects the output
/// channel (unblocking any worker mid-`send`) and joins every stage thread,
/// so no worker outlives the stream.
pub(crate) struct OrderedStream {
    rx: Receiver<Minibatch>,
    reorder: BTreeMap<usize, Minibatch>,
    next: usize,
    total: usize,
    stats: Arc<LoaderStats>,
    executor: PrefetchExecutor,
}

impl OrderedStream {
    /// Number of minibatches this epoch will deliver.
    pub(crate) fn total_batches(&self) -> usize {
        self.total
    }

    /// The worker failure that ended this stream early, surfaced at most
    /// once (used by `Session` streams to turn an early end into a typed
    /// error).
    pub(crate) fn take_failure(&mut self) -> Option<CoordlError> {
        if self.next >= self.total {
            return None; // the epoch completed; any panic came after
        }
        self.executor.shared().take_failure()
    }
}

impl Iterator for OrderedStream {
    type Item = Minibatch;

    fn next(&mut self) -> Option<Minibatch> {
        if self.next >= self.total {
            return None;
        }
        loop {
            if let Some(mb) = self.reorder.remove(&self.next) {
                self.next += 1;
                self.stats.record_delivered(mb.len() as u64);
                return Some(mb);
            }
            let wait = Instant::now();
            let received = self.rx.recv();
            self.stats.record_consumer_wait(wait.elapsed());
            match received {
                Ok(mb) => {
                    self.reorder.insert(mb.index, mb);
                }
                Err(_) => return None, // workers gone; epoch incomplete
            }
        }
    }
}

impl Drop for OrderedStream {
    fn drop(&mut self) {
        // Disconnect the output channel so any worker blocked on `send`
        // observes the disconnect and exits, then join them all.
        self.reorder.clear();
        let (_tx, dummy_rx) = bounded::<Minibatch>(1);
        let real_rx = std::mem::replace(&mut self.rx, dummy_rx);
        drop(real_rx);
        self.executor.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A backend that is never read and records what is handed back to it.
    #[derive(Default)]
    struct Recycler(Mutex<Vec<Vec<u8>>>);

    impl FetchBackend for Recycler {
        fn num_items(&self) -> u64 {
            0
        }
        fn item_bytes(&self, _item: ItemId) -> u64 {
            0
        }
        fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
            unreachable!("item {item}: the tests fetch through their own closures")
        }
        fn recycle(&self, buf: Vec<u8>) {
            self.0.lock().push(buf);
        }
        fn name(&self) -> &'static str {
            "recycler"
        }
    }

    fn plan(batches: usize, per_batch: usize) -> Vec<(usize, Vec<ItemId>)> {
        (0..batches)
            .map(|i| {
                let items = (0..per_batch)
                    .map(|j| (i * per_batch + j) as ItemId)
                    .collect();
                (i, items)
            })
            .collect()
    }

    fn byte_fetch() -> Arc<FetchFn> {
        Arc::new(|item: ItemId| Ok(Arc::new(vec![item as u8; 16])))
    }

    fn pipeline() -> Arc<ExecutablePipeline> {
        Arc::new(ExecutablePipeline::new(
            prep::PrepPipeline::image_classification(),
            2,
            7,
        ))
    }

    /// An executor shape over 8 cache shards.
    fn shape(workers: usize, prefetch_depth: usize, fetch_threads: usize) -> ExecutorConfig {
        ExecutorConfig {
            workers,
            prefetch_depth,
            fetch_threads,
            fetch_shards: 8,
        }
    }

    fn ordered(
        batches: Vec<(usize, Vec<ItemId>)>,
        fetch: Arc<FetchFn>,
        stats: &Arc<LoaderStats>,
        config: ExecutorConfig,
    ) -> OrderedStream {
        let backend = Arc::new(Recycler::default());
        spawn_ordered_epoch(
            0,
            batches,
            fetch,
            backend,
            pipeline(),
            Arc::clone(stats),
            config,
        )
    }

    #[test]
    fn ordered_stream_delivers_in_plan_order_for_any_worker_count() {
        for workers in [1, 2, 8] {
            for depth in [1, 4] {
                let stats = Arc::new(LoaderStats::default());
                let stream = ordered(plan(9, 4), byte_fetch(), &stats, shape(workers, depth, 1));
                let indices: Vec<usize> = stream.map(|mb| mb.index).collect();
                assert_eq!(indices, (0..9).collect::<Vec<_>>(), "w={workers} d={depth}");
                assert_eq!(stats.samples_prepared(), 36);
                assert_eq!(stats.samples_delivered(), 36);
            }
        }
    }

    #[test]
    fn fetch_order_is_sequential_regardless_of_workers() {
        // The determinism contract: fetches happen in plan order on one
        // thread, so a recording fetch function sees the identical sequence
        // for any worker count.
        let record = |workers: usize| {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let seen2 = Arc::clone(&seen);
            let fetch: Arc<FetchFn> = Arc::new(move |item| {
                seen2.lock().push(item);
                Ok(Arc::new(vec![0u8; 8]))
            });
            let stats = Arc::new(LoaderStats::default());
            let _ = ordered(plan(6, 3), fetch, &stats, shape(workers, 2, 1)).count();
            let order = seen.lock().clone();
            order
        };
        let serial = record(1);
        assert_eq!(serial, (0..18).collect::<Vec<ItemId>>());
        assert_eq!(record(4), serial);
    }

    #[test]
    fn dropping_the_stream_early_joins_all_threads_without_deadlock() {
        for fetch_threads in [1, 3] {
            for _ in 0..8 {
                let stats = Arc::new(LoaderStats::default());
                // Smallest window: prep workers park on full queues, pool
                // threads on the prefetch window, constantly.
                let config = shape(3, 1, fetch_threads);
                let mut stream = ordered(plan(64, 4), byte_fetch(), &stats, config);
                let _ = stream.next();
                drop(stream); // must unblock + join, not hang
            }
        }
    }

    #[test]
    fn panicking_fetch_surfaces_a_typed_error() {
        for fetch_threads in [1, 3] {
            let fetch: Arc<FetchFn> = Arc::new(|item| {
                if item == 7 {
                    panic!("injected fetch failure for item {item}");
                }
                Ok(Arc::new(vec![1u8; 8]))
            });
            let stats = Arc::new(LoaderStats::default());
            let mut stream = ordered(plan(5, 2), fetch, &stats, shape(2, 2, fetch_threads));
            let delivered = stream.by_ref().count();
            assert!(delivered < 5, "f={fetch_threads}: the epoch must end early");
            let err = stream.take_failure().expect("panic recorded");
            match &err {
                CoordlError::WorkerPanicked { stage, detail } => {
                    assert_eq!(*stage, "fetch");
                    assert!(detail.contains("injected fetch failure"));
                }
                other => panic!("expected WorkerPanicked, got {other}"),
            }
            assert!(stream.take_failure().is_none(), "surfaced exactly once");
        }
    }

    #[test]
    fn skip_filter_drops_batches_before_fetch() {
        for fetch_threads in [1, 3] {
            let fetched = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&fetched);
            let fetch: Arc<FetchFn> = Arc::new(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::new(vec![0u8; 4]))
            });
            let (out_tx, out_rx) = bounded::<Minibatch>(16);
            let mut executor = PrefetchExecutor::spawn(ExecutorSpec {
                epoch: 0,
                batches: plan(6, 2),
                fetch,
                backend: Arc::new(Recycler::default()),
                skip: Some(Arc::new(|index| index % 2 == 1)),
                pipeline: pipeline(),
                stats: Arc::new(LoaderStats::default()),
                sink: Arc::new(out_tx),
                config: shape(2, 4, fetch_threads),
            });
            let mut indices = Vec::new();
            while let Ok(mb) = out_rx.recv() {
                indices.push(mb.index);
            }
            indices.sort_unstable();
            assert_eq!(indices, vec![0, 2, 4], "f={fetch_threads}");
            assert_eq!(fetched.load(Ordering::SeqCst), 6, "3 batches x 2 items");
            executor.shutdown_and_join();
        }
    }

    #[test]
    fn fetch_pool_delivers_the_serial_stream_for_any_thread_count() {
        let run = |fetch_threads: usize| {
            let stats = Arc::new(LoaderStats::default());
            let stream = ordered(
                plan(11, 4),
                byte_fetch(),
                &stats,
                shape(2, 3, fetch_threads),
            );
            let out: Vec<(usize, Vec<Vec<u8>>)> = stream
                .map(|mb| {
                    (
                        mb.index,
                        mb.samples.iter().map(|s| s.data.clone()).collect(),
                    )
                })
                .collect();
            assert_eq!(stats.samples_prepared(), 44);
            out
        };
        let serial = run(1);
        assert_eq!(serial.len(), 11);
        for f in [2, 3, 4, 7] {
            assert_eq!(run(f), serial, "fetch_threads={f}");
        }
    }

    #[test]
    fn fetch_pool_partitions_keys_exactly_once_by_shard_ownership() {
        // Every item must be fetched exactly once, by the thread that owns
        // its shard.  A recording fetch closure tags each fetch with the
        // calling thread's id; the ownership map is then checked against
        // `shard_of_key` directly.
        let threads = 3;
        let shards = 8;
        let seen: Arc<Mutex<Vec<(ItemId, std::thread::ThreadId)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let fetch: Arc<FetchFn> = Arc::new(move |item| {
            seen2.lock().push((item, std::thread::current().id()));
            Ok(Arc::new(vec![item as u8; 8]))
        });
        let stats = Arc::new(LoaderStats::default());
        let stream = ordered(plan(10, 5), fetch, &stats, shape(2, 4, threads));
        assert_eq!(stream.count(), 10);
        let log = seen.lock().clone();
        assert_eq!(log.len(), 50, "each item fetched exactly once");
        let mut item_thread: HashMap<ItemId, std::thread::ThreadId> = HashMap::new();
        let mut pool_thread_of: HashMap<usize, std::thread::ThreadId> = HashMap::new();
        for (item, tid) in log {
            assert!(
                item_thread.insert(item, tid).is_none(),
                "item {item} fetched twice"
            );
            let owner = dcache::shard_of_key(item, shards) % threads;
            // Each pool-thread slot maps to one OS thread, consistently.
            match pool_thread_of.entry(owner) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(tid);
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(*e.get(), tid, "owner {owner} split across threads");
                }
            }
        }
        // Distinct pool-thread slots really are distinct OS threads.
        let distinct: std::collections::HashSet<_> = pool_thread_of.values().collect();
        assert_eq!(distinct.len(), pool_thread_of.len());
    }

    #[test]
    fn prep_hands_back_exactly_the_payloads_nothing_else_references() {
        // Even items are fetched as sole references; odd ones stay shared
        // with a holder, the way a tier keeps what it admitted.
        let held: Arc<Mutex<Vec<Arc<Vec<u8>>>>> = Arc::default();
        let holder = Arc::clone(&held);
        let fetch: Arc<FetchFn> = Arc::new(move |item| {
            let bytes = Arc::new(vec![item as u8; 16]);
            if item % 2 == 1 {
                holder.lock().push(Arc::clone(&bytes));
            }
            Ok(bytes)
        });
        let backend = Arc::new(Recycler::default());
        let stream = spawn_ordered_epoch(
            0,
            plan(5, 4),
            fetch,
            Arc::clone(&backend) as Arc<dyn FetchBackend>,
            pipeline(),
            Arc::new(LoaderStats::default()),
            shape(2, 2, 2),
        );
        assert_eq!(stream.count(), 5);
        let mut returned: Vec<u8> = backend.0.lock().iter().map(|buf| buf[0]).collect();
        returned.sort_unstable();
        assert_eq!(returned, (0..20).step_by(2).collect::<Vec<u8>>());
        assert_eq!(held.lock().len(), 10);
        assert!(held.lock().iter().all(|b| Arc::strong_count(b) == 1));
    }

    #[test]
    fn fetch_pool_typed_error_ends_the_epoch() {
        for fetch_threads in [1, 2] {
            let fetch: Arc<FetchFn> = Arc::new(|item| {
                if item == 9 {
                    return Err(CoordlError::BackendIo {
                        backend: "test".into(),
                        item,
                        detail: "injected typed failure".into(),
                    });
                }
                Ok(Arc::new(vec![2u8; 8]))
            });
            let stats = Arc::new(LoaderStats::default());
            let mut stream = ordered(plan(6, 3), fetch, &stats, shape(2, 2, fetch_threads));
            let delivered = stream.by_ref().count();
            assert!(delivered < 6, "f={fetch_threads}: the epoch must end early");
            match stream.take_failure().expect("error recorded") {
                CoordlError::BackendIo { item, .. } => assert_eq!(item, 9),
                other => panic!("expected BackendIo, got {other}"),
            }
        }
    }
}
