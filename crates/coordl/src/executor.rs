//! The multi-threaded prefetching executor behind every
//! [`Session`](crate::Session) mode.
//!
//! The paper's fix for data stalls is *overlap*: prefetch raw items ahead of
//! the consumer and pre-process them on parallel CPU workers so storage and
//! prep latency hide behind the GPU (§2, §5).  This module implements that
//! overlap once, for all three session modes and for coordinated recovery —
//! three share-nothing stages joined by bounded channels:
//!
//! ```text
//!   plan (ordered batches, shared by reference)
//!        │ fetch stage: `fetch_threads` >= 1 threads; thread `t` walks the
//!        │ plan in order and fetches the items of the cache shards
//!        │ `{k : k % fetch_threads == t}`
//!        ▼
//!   one bounded thread lane per fetch thread (prefetch_depth positions):
//!   one partial — the thread's `(slot, bytes)` — per plan position
//!        │ N prep workers; one at a time assembles the next position from
//!        │ every thread lane, then all prep in parallel, deterministically
//!        │ per (epoch, item)
//!        ▼
//!   PreparedSink — the epoch's StagingArea: one consumer for a single /
//!                  partitioned stream, every job in a coordinated epoch
//! ```
//!
//! **Determinism contract.**  Items are routed to cache shards by
//! `dcache::shard_of_key` (the same routing the sharded tiers use) and fetch
//! thread `t` of `f` owns exactly the shards `{k : k % f == t}`.  Each
//! thread walks *every* plan position in order, fetching only the items it
//! owns, so all tier transactions for a given key are executed by exactly
//! one thread, in plan order for that key's shard — the per-shard access
//! subsequence is the same for every `f`, and for `f = 1` it is the whole
//! plan in order on one thread.  That per-shard *program order* is the whole
//! contract, and it needs no state shared between fetch threads: a thread
//! waits only on its own lane.  Cache hits, misses, byte provenance and
//! eviction decisions are therefore a pure function of the plan and the
//! shard count: streams and [`LoaderStats`] counters are bit-identical
//! across `fetch_threads`, `workers` and `prefetch_depth` for *any* tier
//! policy (the index-ordered staging area and the per-`(epoch, item)`
//! deterministic prep carry that through to the delivered minibatches); only
//! the stage-timing counters (fetch busy/stall per thread, prep busy/stall,
//! consumer wait) move.  The root `tests/parallel_session_equivalence.rs`
//! and `tests/parallel_fetch_equivalence.rs` suites pin this contract.
//!
//! **Window and progress.**  A fetch thread runs at most `prefetch_depth`
//! positions (plus the one parked in `send`) ahead of the assembler.  The
//! assembler holds its lock across `recv` on purpose — lanes are FIFO, so
//! nobody else could make progress on a later position anyway — and it waits
//! only on a lane whose head is empty; that lane's thread is therefore
//! fetching, not parked on a full lane, so the wait ends.
//!
//! **Recycled buffers.**  A prep worker prepares each batch into buffers
//! popped from the lane's [`Spares`] under one lock — buffers the lane's
//! streams took back from consumers that let go of a delivered batch (see
//! [`BatchStream`](crate::BatchStream)); the lane's first batch makes every
//! buffer the prepared-side window can hold (see `Lane::spares`).  It
//! hands every raw payload it held the last reference to back to the
//! backend.  A payload a session's cache tier still holds is not prep's to
//! hand back: the tier returns it to the same backend when it drops it, and
//! whichever of the two lets go last returns it, exactly once.  In steady
//! state neither stage allocates per sample, whether the tier keeps its
//! misses or evicts on each one.
//!
//! **Failure contract.**  A panicking stage thread is caught, converted into
//! a descriptive [`CoordlError::WorkerPanicked`] and handed to the sink's
//! [`fail`](PreparedSink::fail); a typed fetch error is handed over as it
//! is.  The sink ends the epoch, which wakes its consumers.  The failing
//! fetch thread returns, which drops its lane's sender: the assembler sees
//! the lane end, the prep workers leave, the last one drops the lane
//! receivers, and any fetch thread parked on a full lane wakes and returns.
//! Only the owning session's streams observe the error.  Shutting down
//! mid-epoch (dropping a stream or an epoch run) never deadlocks and never
//! polls a clock: the owner shuts the sink down *before* joining, which
//! unblocks any worker parked in `publish`, and the fetch threads read the
//! sink's liveness once per position.

use crate::backend::{recycle_if_last, FetchBackend};
use crate::error::{panic_detail, CoordlError};
use crate::minibatch::Minibatch;
use crate::spares::Spares;
use crate::stats::LoaderStats;
use crossbeam::channel::{bounded, Receiver, Sender};
use dataset::ItemId;
use parking_lot::Mutex;
use prep::ExecutablePipeline;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// How raw bytes for one item are obtained (tier → backend for single and
/// coordinated sessions, cluster lookup order for partitioned nodes).
/// A typed `Err` (a failed backend read) ends the epoch early and surfaces
/// through the stream, unlike a panic, which is caught and wrapped.
pub(crate) type FetchFn = dyn Fn(ItemId) -> Result<Arc<Vec<u8>>, CoordlError> + Send + Sync;

/// Batch-index filter: `true` drops the batch before fetch and prep
/// (coordinated failure injection and recovery).
pub(crate) type SkipFn = dyn Fn(usize) -> bool + Send + Sync;

/// One epoch's ordered plan, `(batch_index, item_ids)` in training order,
/// shared by every executor that sweeps it and read by position.
pub(crate) type Plan = Arc<Vec<(usize, Vec<ItemId>)>>;

/// What a fetch thread sends down its lane per plan position: the position's
/// skip decision and the `(slot, bytes)` of the items the thread owns there
/// (none when it owns nothing or the position is skipped).
type Partial = (bool, Vec<(usize, Arc<Vec<u8>>)>);

/// Where an executor's threads deliver prepared minibatches and report
/// failures: the epoch they sweep for.
pub(crate) trait PreparedSink: Send + Sync + 'static {
    /// Deliver one prepared minibatch.  Returning `false` tells the worker
    /// to stop (the epoch was shut down).
    fn publish(&self, mb: Minibatch) -> bool;

    /// A stage thread failed: end the epoch with `err` (the first failure
    /// is the one its consumers see).
    fn fail(&self, err: CoordlError);

    /// Whether the epoch still runs; fetch threads stop once it does not.
    fn is_live(&self) -> bool;
}

/// A caught stage-thread panic as the typed error consumers see.
fn panicked(stage: &'static str, payload: Box<dyn Any + Send>) -> CoordlError {
    CoordlError::WorkerPanicked {
        stage,
        detail: panic_detail(payload),
    }
}

/// Thread counts and queue depth of an epoch executor, derived once per
/// session from its [`SessionConfig`](crate::SessionConfig).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecutorConfig {
    /// Prep worker threads (>= 1 enforced).
    pub workers: usize,
    /// Plan positions each fetch thread's lane buffers ahead of the prep
    /// pool (>= 1 enforced).
    pub prefetch_depth: usize,
    /// Fetch-stage threads (>= 1 enforced).
    pub fetch_threads: usize,
    /// Cache shards the fetch stage's key-ownership map is computed against
    /// (>= 1 enforced).  Must match the shard count of the session's
    /// sharded tier for the determinism contract to hold.
    pub fetch_shards: usize,
}

/// One fetch → prep lane of a session: everything an epoch executor runs on
/// except the epoch's plan and sink.  Built once per session (one per
/// partitioned node) and cloned into the threads it spawns.
#[derive(Clone)]
pub(crate) struct Lane {
    /// Raw-byte source, called in plan order per cache shard.
    pub fetch: Arc<FetchFn>,
    /// The backend under `fetch`: prep workers hand it back every raw
    /// payload nothing else references (the session's tier, if it still
    /// holds one, hands it back once it drops it).
    pub backend: Arc<dyn FetchBackend>,
    /// The deterministic prep pipeline.
    pub pipeline: Arc<ExecutablePipeline>,
    /// Spare prepared-sample buffers: prep workers prepare into them (one
    /// lock per batch) and the lane's streams push back the buffers of
    /// every batch the consumer let go of.  Built with the lane, so it
    /// outlives the per-epoch executors.  Its window is the prepared-side
    /// window — the most samples the lane's streams can hold in flight
    /// together: the staging window, one batch per prep worker and the
    /// batch lent to the consumer, i.e. `prefetch_depth + workers + 1`
    /// minibatches for a single or partitioned stream and `staging_window +
    /// workers + 1` in a coordinated epoch, exact at any worker count.  The
    /// first batch finds the stack empty, and the worker then makes the
    /// whole window, sized like that batch's buffers:
    /// had it made only what was in flight, the count would grow whenever
    /// a later epoch ran further ahead than any before it, a step of one
    /// minibatch of buffers that depends on thread timing alone.  Beyond
    /// that, a buffer is made only when every one that exists is in flight,
    /// so the stack needs no cap.
    pub spares: Arc<Spares>,
    /// Shared statistics (byte provenance, sample counts, stage timings).
    pub stats: Arc<LoaderStats>,
    /// Thread counts and queue depth.
    pub config: ExecutorConfig,
}

impl Lane {
    /// Spawn the fetch threads and prep workers of one sweep over `plan`,
    /// dropping the batches `skip` names and delivering the rest into
    /// `sink`, the epoch every sweep over `plan` (main or recovery) shares.
    pub(crate) fn spawn(
        &self,
        epoch: u64,
        plan: Plan,
        skip: Option<Arc<SkipFn>>,
        sink: Arc<dyn PreparedSink>,
    ) -> PrefetchExecutor {
        let workers = self.config.workers.max(1);
        let threads = self.config.fetch_threads.max(1);
        let depth = self.config.prefetch_depth.max(1);
        let stage = Arc::new(FetchStage {
            threads,
            shards: self.config.fetch_shards.max(1),
            skip: skip.map(|skip| (skip, plan.iter().map(|_| OnceLock::new()).collect())),
            plan: Arc::clone(&plan),
            fetch: Arc::clone(&self.fetch),
            stats: Arc::clone(&self.stats),
            sink: Arc::clone(&sink),
        });
        let mut handles = Vec::with_capacity(threads + workers);
        let mut lanes = Vec::with_capacity(threads);
        for thread in 0..threads {
            let (lane_tx, lane_rx) = bounded::<Partial>(depth);
            lanes.push(lane_rx);
            let stage = Arc::clone(&stage);
            handles.push(std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| stage.run(thread, &lane_tx)));
                if let Err(payload) = outcome {
                    stage.sink.fail(panicked("fetch", payload));
                }
            }));
        }
        // The lane receivers belong to the prep workers alone: a fetch
        // thread that held a reference would keep its own lane connected,
        // and a sender parked on a full lane would never see the last
        // worker leave.
        let assembler = Arc::new(Mutex::new(Assembler { lanes, cursor: 0 }));
        for _ in 0..workers {
            let (lane, plan, assembler) = (self.clone(), Arc::clone(&plan), Arc::clone(&assembler));
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    lane.run_prep_worker(epoch, &plan, &assembler, &*sink)
                }));
                if let Err(payload) = outcome {
                    sink.fail(panicked("prep", payload));
                }
            }));
        }
        PrefetchExecutor { handles }
    }

    /// One prep worker: assemble the next position, prep it, publish it.
    fn run_prep_worker(
        &self,
        epoch: u64,
        plan: &[(usize, Vec<ItemId>)],
        assembler: &Mutex<Assembler>,
        sink: &dyn PreparedSink,
    ) {
        let stats = &*self.stats;
        let (mut raw, mut bufs) = (Vec::new(), Vec::new());
        loop {
            let stall = Instant::now();
            let next = assembler.lock().next(plan, &mut raw);
            stats.record_prep_stall(stall.elapsed());
            let Some(pos) = next else {
                break; // plan exhausted, or a fetch thread ended early
            };
            let (index, items) = &plan[pos];
            let busy = Instant::now();
            let made = self.spares.pop_n(items.len(), &mut bufs);
            let samples = items
                .iter()
                .zip(raw.drain(..))
                .zip(bufs.drain(..))
                .map(|((&item, raw), buf)| {
                    let raw = raw.expect("every item was fetched by its owner");
                    let sample = self.pipeline.prepare_into(epoch, item, &raw, buf);
                    recycle_if_last(&*self.backend, raw);
                    sample
                })
                .collect::<Vec<_>>();
            if made > 0 {
                let capacity = samples.iter().map(|s| s.data.capacity()).max();
                self.spares.fill_window(capacity.unwrap_or(0));
            }
            stats.record_prepared(samples.len() as u64);
            stats.record_prep_busy(busy.elapsed());
            // Publishing blocks on downstream backpressure (a full staging
            // window); like the assembly above, that is
            // time the worker is not pre-processing, so it counts as prep
            // stall.
            let publishing = Instant::now();
            let delivered = sink.publish(Minibatch {
                epoch,
                index: *index,
                samples,
            });
            stats.record_prep_stall(publishing.elapsed());
            if !delivered {
                break; // epoch shut down
            }
        }
    }
}

/// A running fetch + prep pipeline for one sweep.  Dropping it joins every
/// thread, so its owner shuts the sink down first: that stops the fetch
/// threads and unblocks any worker parked in `publish`, and everything
/// behind the workers unblocks by itself once they leave.
pub(crate) struct PrefetchExecutor {
    handles: Vec<JoinHandle<()>>,
}

impl Drop for PrefetchExecutor {
    fn drop(&mut self) {
        for h in self.handles.drain(..) {
            // A panicked worker already reported its error; the Err here is
            // just the resume payload.
            let _ = h.join();
        }
    }
}

/// What one sweep's fetch threads read: the plan, the fetch path and the
/// per-position skip decisions.  Nothing in it is a wait point — each thread
/// blocks only on its own lane.
struct FetchStage {
    threads: usize,
    shards: usize,
    plan: Plan,
    /// The batch filter with one decision cell per plan position.
    skip: Option<(Arc<SkipFn>, Vec<OnceLock<bool>>)>,
    fetch: Arc<FetchFn>,
    stats: Arc<LoaderStats>,
    sink: Arc<dyn PreparedSink>,
}

impl FetchStage {
    /// Which fetch thread owns `item`: the thread that executes every cache
    /// transaction for `item`'s shard.  Routing MUST match the sharded
    /// tier's (`dcache::shard_of_key`) so shard ownership and lock ownership
    /// coincide.
    fn owner(&self, item: ItemId) -> usize {
        dcache::shard_of_key(item, self.shards) % self.threads
    }

    /// Fetch thread `thread`'s sweep over the whole plan: one partial per
    /// position down `lane`, until the plan ends, a fetch fails, the epoch
    /// shuts down or every prep worker is gone.
    fn run(&self, thread: usize, lane: &Sender<Partial>) {
        let (stats, sink) = (&*self.stats, &*self.sink);
        for (pos, (index, items)) in self.plan.iter().enumerate() {
            if !sink.is_live() {
                return;
            }
            // Evaluated exactly once per position, by whichever thread
            // arrives first: the filter may read mutable state (coordinated
            // kill flags), and every thread must act on the one decision.
            let skipped = self
                .skip
                .as_ref()
                .is_some_and(|(skip, decided)| *decided[pos].get_or_init(|| skip(*index)));
            let mut mine = Vec::new();
            if !skipped {
                // Owners are disjoint across threads, so every tier
                // transaction for a given key happens on one thread, in
                // plan order for that key's shard.
                let busy = Instant::now();
                mine.reserve_exact(items.len().div_ceil(self.threads));
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
                            sink.fail(err);
                            return;
                        }
                    }
                }
                stats.record_fetch_busy_for(thread, busy.elapsed());
            }
            let stall = Instant::now();
            let sent = lane.send((skipped, mine));
            stats.record_fetch_stall_for(thread, stall.elapsed());
            if sent.is_err() {
                return; // every prep worker is gone
            }
        }
    }
}

/// The receiving end of every thread lane and the next plan position to
/// assemble; one prep worker at a time holds it.
struct Assembler {
    lanes: Vec<Receiver<Partial>>,
    cursor: usize,
}

impl Assembler {
    /// Receive the next unskipped position's partial from every lane, in
    /// thread order, into `raw` (one slot per item) and return the position.
    /// `None` once the plan is exhausted or a lane ended early (its thread
    /// failed or saw the shutdown), for this and every later call.
    fn next(
        &mut self,
        plan: &[(usize, Vec<ItemId>)],
        raw: &mut Vec<Option<Arc<Vec<u8>>>>,
    ) -> Option<usize> {
        while self.cursor < plan.len() {
            let pos = self.cursor;
            raw.clear();
            raw.resize(plan[pos].1.len(), None);
            let mut skipped = false;
            for lane in &self.lanes {
                let Ok((skip, mine)) = lane.recv() else {
                    self.cursor = plan.len();
                    return None;
                };
                skipped = skip;
                for (slot, bytes) in mine {
                    raw[slot] = Some(bytes);
                }
            }
            self.cursor += 1;
            if !skipped {
                return Some(pos);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Recycler;
    use crate::coordinator::{EpochSession, JobEpochIterator};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn plan(batches: usize, per_batch: usize) -> Plan {
        let batch = |i| (0..per_batch).map(move |j| (i * per_batch + j) as ItemId);
        Arc::new((0..batches).map(|i| (i, batch(i).collect())).collect())
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

    fn lane(fetch: Arc<FetchFn>, stats: &Arc<LoaderStats>, config: ExecutorConfig) -> Lane {
        Lane {
            fetch,
            backend: Arc::new(Recycler::default()),
            pipeline: pipeline(),
            spares: Arc::default(),
            stats: Arc::clone(stats),
            config,
        }
    }

    /// A one-consumer stream over `plan`: the delivery path of a single-mode
    /// session, with a staging window of `prefetch_depth`.
    fn ordered(
        plan: Plan,
        fetch: Arc<FetchFn>,
        stats: &Arc<LoaderStats>,
        config: ExecutorConfig,
    ) -> JobEpochIterator {
        let lane = lane(fetch, stats, config);
        EpochSession::start(&lane, 1, config.prefetch_depth, None, 0, plan).into_consumer()
    }

    /// A sink that hands every batch to a channel, for a sweep with a filter
    /// of its own.
    impl PreparedSink for Sender<Minibatch> {
        fn publish(&self, mb: Minibatch) -> bool {
            self.send(mb).is_ok()
        }

        fn fail(&self, err: CoordlError) {
            unreachable!("no stage thread fails here: {err}");
        }

        fn is_live(&self) -> bool {
            true
        }
    }

    #[test]
    fn ordered_stream_delivers_in_plan_order_for_any_worker_count() {
        for workers in [1, 2, 8] {
            for depth in [1, 4] {
                let stats = Arc::new(LoaderStats::default());
                let stream = ordered(plan(9, 4), byte_fetch(), &stats, shape(workers, depth, 1));
                let indices: Vec<usize> = stream.map(|mb| mb.unwrap().index).collect();
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
                // Smallest window: prep workers park on the full output
                // queue, fetch threads on their full lanes, constantly.
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
            let stream = ordered(plan(5, 2), fetch, &stats, shape(2, 2, fetch_threads));
            let outcomes: Vec<_> = stream.collect();
            let (last, delivered) = outcomes.split_last().expect("the failure is yielded");
            assert!(
                delivered.len() < 5,
                "f={fetch_threads}: the epoch must end early"
            );
            assert!(delivered.iter().all(Result::is_ok), "surfaced exactly once");
            match last {
                Err(CoordlError::WorkerPanicked { stage, detail }) => {
                    assert_eq!(*stage, "fetch");
                    assert!(detail.contains("injected fetch failure"));
                }
                other => panic!("expected WorkerPanicked, got {:?}", other.as_ref().err()),
            }
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
            let executor = lane(fetch, &Arc::default(), shape(2, 4, fetch_threads)).spawn(
                0,
                plan(6, 2),
                Some(Arc::new(|index| index % 2 == 1)),
                Arc::new(out_tx),
            );
            let mut indices = Vec::new();
            while let Ok(mb) = out_rx.recv() {
                indices.push(mb.index);
            }
            indices.sort_unstable();
            assert_eq!(indices, vec![0, 2, 4], "f={fetch_threads}");
            assert_eq!(fetched.load(Ordering::SeqCst), 6, "3 batches x 2 items");
            drop(executor);
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
                    let mb = mb.unwrap();
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
        let lane = Lane {
            backend: Arc::clone(&backend) as Arc<dyn FetchBackend>,
            ..lane(fetch, &Arc::default(), shape(2, 2, 2))
        };
        let stream = EpochSession::start(&lane, 1, 2, None, 0, plan(5, 4)).into_consumer();
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
            let stream = ordered(plan(6, 3), fetch, &stats, shape(2, 2, fetch_threads));
            let mut outcomes: Vec<_> = stream.collect();
            let last = outcomes.pop().expect("the failure is yielded");
            assert!(
                outcomes.len() < 6,
                "f={fetch_threads}: the epoch must end early"
            );
            assert!(outcomes.iter().all(Result::is_ok), "f={fetch_threads}");
            match last.expect_err("error recorded") {
                CoordlError::BackendIo { item, .. } => assert_eq!(item, 9),
                other => panic!("expected BackendIo, got {other}"),
            }
        }
    }

    #[test]
    fn a_stalled_consumer_bounds_how_far_the_fetch_stage_runs_ahead() {
        // The window `FsBackend`'s free list relies on.  With the consumer
        // stalled after one batch, what has been fetched is: that batch, the
        // staging window's `depth`, one batch parked in `publish` per
        // worker, each lane's `depth` positions and the one parked in
        // `send`.
        let (depth, workers, per_batch, batches) = (2, 1, 4, 40);
        for fetch_threads in [1, 3] {
            let fetched = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&fetched);
            let fetch: Arc<FetchFn> = Arc::new(move |item| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::new(vec![item as u8; 8]))
            });
            let stats = Arc::new(LoaderStats::default());
            let config = shape(workers, depth, fetch_threads);
            let mut stream = ordered(plan(batches, per_batch), fetch, &stats, config);
            assert_eq!(stream.next().map(|mb| mb.unwrap().index), Some(0));
            // Quiescence: every stage is parked once the count holds still.
            let mut last = usize::MAX;
            while last != fetched.load(Ordering::SeqCst) {
                last = fetched.load(Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
            }
            let ahead = last - per_batch;
            assert!(
                ahead <= (2 * depth + workers + 1) * per_batch,
                "f={fetch_threads}: {ahead} items fetched beyond the consumed batch"
            );
            // Resuming the consumer still delivers the whole plan in order.
            let rest: Vec<usize> = stream.map(|mb| mb.unwrap().index).collect();
            assert_eq!(rest, (1..batches).collect::<Vec<_>>(), "f={fetch_threads}");
            assert_eq!(fetched.load(Ordering::SeqCst), batches * per_batch);
        }
    }
}
