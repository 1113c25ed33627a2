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
//!        │ plan in order and runs the tier transactions of the items of the
//!        │ cache shards `{k : k % fetch_threads == t}`
//!        ▼
//!   one bounded thread lane per fetch thread (prefetch_depth positions):
//!   one partial per plan position — a cell per item the thread owns there,
//!   holding its bytes or a *hole*: a bypassed miss not read yet.  While
//!   its lane is full, the thread reads the holes of the positions queued
//!   in it, oldest first; with none left it *lends* itself to prep — it
//!   assembles and preps the next position, like a prep worker, while the
//!   process has a core no prep worker holds — and only then blocks
//!        │ N prep workers, and the fetch threads they lend; one at a time
//!        │ assembles the next position from every thread lane, then all
//!        │ prep in parallel, deterministically per (epoch, item): first
//!        │ the cells that hold bytes, then the holes nobody claimed (read
//!        │ by whoever preps), last the holes a fetch thread is still reading
//!        ▼
//!   PreparedSink — the epoch's StagingArea: one consumer for a single /
//!                  partitioned stream, every job in a coordinated epoch
//! ```
//!
//! **Determinism contract.**  Items are routed to cache shards by
//! `dcache::shard_of_key` (the same routing the sharded tiers use) and fetch
//! thread `t` of `f` owns exactly the shards `{k : k % f == t}`.  Each
//! thread walks *every* plan position in order, running the tier
//! transactions of only the items it owns, so all tier transactions for a
//! given key are executed by exactly one thread, in plan order for that
//! key's shard — the per-shard access subsequence is the same for every
//! `f`, and for `f = 1` it is the whole plan in order on one thread.  That
//! per-shard *program order* is the whole contract, and it needs no state
//! shared between fetch threads: a thread waits only on its own lane.
//! Cache hits, misses, byte provenance and eviction decisions are therefore
//! a pure function of the plan and the shard count: streams and
//! [`LoaderStats`] counters are bit-identical across `fetch_threads`,
//! `workers` and `prefetch_depth` for *any* tier policy (the index-ordered
//! staging area and the per-`(epoch, item)` deterministic prep carry that
//! through to the delivered minibatches); only the stage-timing counters
//! (fetch busy/stall per thread, prep busy/stall, consumer wait), the split
//! of hole reads between threads and the positions fetch threads prepped
//! move.  Lending changes nothing else: prep is the same function whichever
//! thread runs it, and a lending thread's tier transactions still happen
//! only in its plan-order loop.  The root
//! `tests/parallel_session_equivalence.rs`,
//! `tests/parallel_fetch_equivalence.rs` and `tests/deferred_reads.rs`
//! suites pin this contract.
//!
//! **Transactions are ordered, hole reads are not.**  A miss the tier will
//! not keep needs only its size for the admit transaction (see
//! [`CacheTier::try_bypass`](crate::CacheTier::try_bypass)), so its backend
//! read leaves the ordered path: the fetch function returns
//! [`Fetched::Hole`] and the read happens later, exactly once, on whichever
//! stage thread claims the hole first with one compare-and-swap — the fetch
//! thread while its lane is full (and after the plan ends), for positions
//! still queued in its lane, or the thread that assembled the position, for
//! the holes left when it did.  The same items are read, each once and with
//! the same bytes; only the thread and the moment change.  A hole read is
//! counted in `bytes_from_storage` when it succeeds.  A thread prepping a
//! position that waits for a hole a fetch thread was already reading parks
//! on the position's condvar, and the reader signals it only when someone
//! waits.
//!
//! **Lending.**  A [`CoreLedger`] counts the process's cores and who holds
//! them: every prep worker registers a seat when its sweep is spawned,
//! before any fetch thread starts, and gives it back when it exits; a fetch
//! thread borrows a free seat with one compare-and-swap per position and
//! gives it back once the position is prepped.  So a fetch thread preps
//! only while the prep workers of every session in the process hold fewer
//! seats than there are cores, and sessions whose workers fill the cores
//! keep the schedule they had.  A lending thread never blocks to get a
//! position: it takes the assembler with `try_lock` and reads the lanes
//! with `try_recv`, and a position it found only partly there stays staged
//! in the [`Assembler`] for the next caller.  Waiting there could deadlock:
//! a fetch thread parked on its own lane, which only it fills.  The
//! position it takes frees its own lane's head, so the partial it had
//! fetched goes down the lane before it preps: it holds one position's
//! payloads at a time, and the fetch → prep window of raw payloads stays
//! `prefetch_depth + 1 + workers` positions with one fetch thread.  Its prep
//! time counts as prep busy or prep stall, never as fetch time, and
//! [`LoaderStats::lent_positions`] counts the positions it prepped.
//!
//! **Window and progress.**  A fetch thread runs at most `prefetch_depth`
//! positions (plus the one it is handing over) ahead of the assembler.  A
//! prep worker holds the assembler's lock across `recv` on purpose — lanes
//! are FIFO, so nobody else could make progress on a later position anyway
//! — and it waits only on a lane whose head is empty; that lane's thread is
//! therefore fetching or prepping a position it took, not parked on a full
//! lane, and a position it preps waits on nothing but holes other threads
//! are reading and on the sink's own window, which positions assembled
//! before it advance; so the wait ends.  Whoever preps a position waits only
//! on a hole being read, which the reader settles without waiting on
//! anything.  Each fetch thread's partials live in a ring the lane keeps
//! across positions and epochs: `prefetch_depth + workers + fetch_threads +
//! 1` of them, one more than its lane, the prep workers and the lending
//! fetch threads can hold at once (a position staged in the assembler is
//! one no lending thread holds), so a free one is always there and neither
//! stage allocates per position.
//!
//! **Recycled buffers.**  Whoever preps a batch prepares it into buffers
//! popped from the lane's [`Spares`] under one lock — buffers the lane's
//! streams took back from consumers that let go of a delivered batch (see
//! [`BatchStream`](crate::BatchStream)); the lane's first batch makes every
//! buffer the prepared-side window can hold (see `Lane::spares`).  It
//! hands every raw payload it held the last reference to back to the
//! backend.  A payload a session's cache tier still holds is not prep's to
//! hand back: the tier returns it to the same backend when it drops it, and
//! whichever of the two lets go last returns it, exactly once.  The prep
//! scratch itself is kept too: the prep workers' on the lane, each fetch
//! thread's in its ring, sized when the ring is fitted, so whether a thread
//! ever lends changes nothing that is allocated.  In steady state neither
//! stage allocates per sample, whether the tier keeps its misses or evicts
//! on each one.
//!
//! **Failure contract.**  A panicking stage thread is caught, converted into
//! a descriptive [`CoordlError::WorkerPanicked`] and handed to the sink's
//! [`fail`](PreparedSink::fail) (a panic in a lent position's prep is a
//! `"prep"` one); a typed fetch error, or a failed hole read on any thread,
//! is handed over as it is, once, by the thread that saw it.  The sink ends
//! the epoch, which wakes its consumers.  The failing fetch thread returns,
//! which drops its lane's sender: the assembler sees the lane end and drops
//! every lane receiver, the prep workers leave (the last one drops the
//! receivers too, whatever ended the sweep), and any fetch thread parked on
//! a full lane wakes and returns.  Only the owning session's streams observe
//! the error.  Shutting down mid-epoch (dropping a stream or an epoch run)
//! never deadlocks and never polls a clock: the owner shuts the sink down
//! *before* joining, which unblocks any thread parked in `publish`, and the
//! fetch threads read the sink's liveness once per position and once per
//! hole.  Once every thread is joined, each payload still in a partial goes
//! back to the backend.

use crate::backend::{recycle_if_last, FetchBackend};
use crate::error::{panic_detail, CoordlError};
use crate::minibatch::Minibatch;
use crate::spares::Spares;
use crate::stack::read_hole;
use crate::stats::LoaderStats;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use dataset::ItemId;
use parking_lot::{Condvar, Mutex};
use prep::{ExecutablePipeline, PreparedSample};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the fetch path gives back for one item.
pub(crate) enum Fetched {
    /// The item's bytes: a hit, or a miss read inline.
    Bytes(Arc<Vec<u8>>),
    /// A miss of this many bytes that the tier bypassed without reading
    /// it: a hole for a stage thread to read (see [`crate::stack`]).
    Hole(u64),
}

/// How raw bytes for one item are obtained (tier → backend for single and
/// coordinated sessions, cluster lookup order for partitioned nodes).
/// A typed `Err` (a failed backend read) ends the epoch early and surfaces
/// through the stream, unlike a panic, which is caught and wrapped.
pub(crate) type FetchFn = dyn Fn(ItemId) -> Result<Fetched, CoordlError> + Send + Sync;

/// Batch-index filter: `true` drops the batch before fetch and prep
/// (coordinated failure injection and recovery).
pub(crate) type SkipFn = dyn Fn(usize) -> bool + Send + Sync;

/// One epoch's ordered plan, `(batch_index, item_ids)` in training order,
/// shared by every executor that sweeps it and read by position.
pub(crate) type Plan = Arc<Vec<(usize, Vec<ItemId>)>>;

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

/// The cores a process's stage threads share, and how many of them prep
/// holds: one seat per registered prep worker, plus one per fetch thread
/// lent to prep for a position.  The count gates and publishes nothing
/// else, so its atomics are relaxed.
pub(crate) struct CoreLedger {
    cores: usize,
    seats: AtomicUsize,
}

/// A ledger that always has a free seat: every fetch thread lends.
pub(crate) static LENDS: CoreLedger = CoreLedger::new(usize::MAX);

/// A ledger with no seat to lend: no fetch thread ever preps.
pub(crate) static NEVER_LENDS: CoreLedger = CoreLedger::new(0);

thread_local! {
    /// The ledger sessions built on this thread take instead of the
    /// process's one (see [`with_lending`]).
    static SESSION_LEDGER: std::cell::Cell<Option<&'static CoreLedger>> =
        const { std::cell::Cell::new(None) };
}

impl CoreLedger {
    const fn new(cores: usize) -> Self {
        CoreLedger {
            cores,
            seats: AtomicUsize::new(0),
        }
    }

    /// The ledger the lanes of every session share: as many cores as
    /// `std::thread::available_parallelism` reports, read once.
    fn process() -> &'static CoreLedger {
        static PROCESS: OnceLock<CoreLedger> = OnceLock::new();
        PROCESS.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            CoreLedger::new(cores)
        })
    }

    /// The ledger a session built now takes: the process's, unless
    /// [`with_lending`] chose one for this thread.
    pub(crate) fn for_sessions() -> &'static CoreLedger {
        SESSION_LEDGER
            .with(std::cell::Cell::get)
            .unwrap_or_else(CoreLedger::process)
    }

    /// A prep worker's seat, taken whatever the count: prep workers are
    /// what the cores are for.
    fn register(&'static self) -> Seat {
        self.seats.fetch_add(1, Ordering::Relaxed);
        Seat(self)
    }

    /// A free seat for one lent position: one compare-and-swap, `None` when
    /// every core is held or another thread took the free seat first.
    fn borrow(&'static self) -> Option<Seat> {
        let seats = self.seats.load(Ordering::Relaxed);
        let free = seats < self.cores
            && self
                .seats
                .compare_exchange(seats, seats + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        free.then(|| Seat(self))
    }
}

/// One seat of a [`CoreLedger`], given back when dropped.
struct Seat(&'static CoreLedger);

impl Drop for Seat {
    fn drop(&mut self) {
        self.0.seats.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Run `build` with every session it builds on this thread lending its
/// fetch threads to prep always (`true`) or never (`false`), whatever the
/// host's cores and the process's other sessions.  For suites that pin
/// that lending changes no stream or counter; not a tuning knob.
#[doc(hidden)]
pub fn with_lending<R>(lend: bool, build: impl FnOnce() -> R) -> R {
    /// Puts the thread's previous choice back, also on a panic.
    struct Restore(Option<&'static CoreLedger>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SESSION_LEDGER.with(|ledger| ledger.set(self.0));
        }
    }
    let ledger = if lend { &LENDS } else { &NEVER_LENDS };
    let _restore = Restore(SESSION_LEDGER.with(|cell| cell.replace(Some(ledger))));
    build()
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

/// Spare partial rings, one per fetch thread per set: a sweep takes a set
/// and gives it back once its threads are joined.
type Rings = Mutex<Vec<Vec<Ring>>>;

/// Spare prep-worker scratch: a sweep's prep workers each take one and
/// give it back when they exit.
type Scratch = Mutex<Vec<PrepWorker>>;

/// One fetch → prep lane of a session: everything an epoch executor runs on
/// except the epoch's plan and sink.  Built once per session (one per
/// partitioned node) and cloned into the threads it spawns.
#[derive(Clone)]
pub(crate) struct Lane {
    /// Raw-byte source, called in plan order per cache shard.
    pub fetch: Arc<FetchFn>,
    /// The backend under `fetch`: stage threads read the holes `fetch`
    /// leaves from it, and whoever preps hands it back every raw payload
    /// nothing else references (the session's tier, if it still holds one,
    /// hands it back once it drops it).
    pub backend: Arc<dyn FetchBackend>,
    /// The deterministic prep pipeline.
    pub pipeline: Arc<ExecutablePipeline>,
    /// Spare prepared-sample buffers: whoever preps a batch prepares into
    /// them (one lock per batch) and the lane's streams push back the
    /// buffers of every batch the consumer let go of.  Built with the lane,
    /// so it outlives the per-epoch executors.  Its window is the
    /// prepared-side window — the most samples the lane's streams can hold
    /// in flight together: the staging window, one batch per prep worker,
    /// one per fetch thread (lent to prep) and the batch lent to the
    /// consumer, i.e. `prefetch_depth + workers + fetch_threads + 1`
    /// minibatches for a single or partitioned stream and `staging_window +
    /// workers + fetch_threads + 1` in a coordinated epoch, exact at any
    /// thread count.  The first batch finds the stack empty, and its prep
    /// then makes the whole window, sized like that batch's buffers: had it
    /// made only what was in flight, the count would grow whenever a later
    /// epoch ran further ahead than any before it, a step of one minibatch
    /// of buffers that depends on thread timing alone.  Beyond that, a
    /// buffer is made only when every one that exists is in flight, so the
    /// stack needs no cap.
    pub spares: Arc<Spares>,
    /// The fetch threads' partials, kept across epochs: a sweep takes one
    /// set (a sweep running beside it, such as a coordinated recovery,
    /// finds none and makes its own) and returns it emptied.
    pub rings: Arc<Rings>,
    /// The prep workers' scratch, kept across epochs the same way.
    pub scratch: Arc<Scratch>,
    /// Whose cores the lane's prep workers register on and its fetch
    /// threads borrow from: the process's, for every session.
    pub ledger: &'static CoreLedger,
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
        // The prep workers hold their seats before any fetch thread could
        // borrow one, and for as long as they run, busy or not.
        let seats: Vec<Seat> = (0..workers).map(|_| self.ledger.register()).collect();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| bounded::<Arc<Partial>>(depth)).unzip();
        let assembler = Arc::new(Mutex::new(Assembler {
            staged: Vec::with_capacity(threads),
            lanes: receivers,
            cursor: 0,
        }));
        let stage = Arc::new(FetchStage {
            lane: self.clone(),
            epoch,
            threads,
            shards: self.config.fetch_shards.max(1),
            skip: skip.map(|skip| (skip, plan.iter().map(|_| OnceLock::new()).collect())),
            plan: Arc::clone(&plan),
            sink: Arc::clone(&sink),
            assembler: Arc::clone(&assembler),
        });
        // Every partial a lane, the prep workers and the lending fetch
        // threads can hold at once, plus the one being filled; each with a
        // cell for every item of the largest batch.
        let cells = plan.iter().map(|(_, items)| items.len()).max().unwrap_or(0);
        let mut rings = self.rings.lock().pop().unwrap_or_default();
        rings.resize_with(threads, Ring::default);
        let mut fetchers = Vec::with_capacity(threads);
        for (thread, (mut ring, lane_tx)) in rings.into_iter().zip(senders).enumerate() {
            ring.fit(depth + workers + threads + 1, cells, threads);
            let stage = Arc::clone(&stage);
            fetchers.push(std::thread::spawn(move || {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| stage.run(thread, &lane_tx, &mut ring)));
                if let Err(payload) = outcome {
                    stage.sink.fail(panicked("fetch", payload));
                }
                ring
            }));
        }
        // The fetch threads share the assembler, so it outlives the prep
        // workers; the last worker to leave drops the lane receivers, or a
        // sender parked on a full lane would never see them go.
        let closer = Arc::new(CloseOnLastWorker(Arc::clone(&assembler)));
        let mut handles = Vec::with_capacity(workers);
        for seat in seats {
            let mut prep = self.scratch.lock().pop().unwrap_or_default();
            prep.fit(cells, threads);
            let (lane, plan, assembler) = (self.clone(), Arc::clone(&plan), Arc::clone(&assembler));
            let (sink, closer) = (Arc::clone(&sink), Arc::clone(&closer));
            handles.push(std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    lane.run_prep_worker(epoch, &plan, &assembler, &mut prep, &*sink)
                }));
                if let Err(payload) = outcome {
                    sink.fail(panicked("prep", payload));
                }
                prep.parts.clear(); // left behind by a panic
                lane.scratch.lock().push(prep);
                // Moved in to be let go of here, once the worker is done.
                drop((closer, seat));
            }));
        }
        PrefetchExecutor {
            fetchers,
            workers: handles,
            backend: Arc::clone(&self.backend),
            rings: Arc::clone(&self.rings),
        }
    }

    /// One prep worker: assemble the next position, prep it, publish it.
    fn run_prep_worker(
        &self,
        epoch: u64,
        plan: &[(usize, Vec<ItemId>)],
        assembler: &Mutex<Assembler>,
        prep: &mut PrepWorker,
        sink: &dyn PreparedSink,
    ) {
        loop {
            let stall = Instant::now();
            let next = assembler.lock().next(plan, &mut prep.parts, true);
            self.stats.record_prep_stall(stall.elapsed());
            let Some(pos) = next else {
                break; // plan exhausted, or a fetch thread ended early
            };
            if !self.prep_next(epoch, plan, pos, prep, sink) {
                break;
            }
        }
    }

    /// Prep the assembled position `pos`, whose partials are in
    /// `prep.parts`, and publish it: the one path of prep workers and lent
    /// fetch threads alike.  `false` when the sweep is over for the caller:
    /// the epoch shut down, or a hole read failed it.
    fn prep_next(
        &self,
        epoch: u64,
        plan: &[(usize, Vec<ItemId>)],
        pos: usize,
        prep: &mut PrepWorker,
        sink: &dyn PreparedSink,
    ) -> bool {
        let stats = &*self.stats;
        let (index, items) = &plan[pos];
        let busy = Instant::now();
        let made = self.spares.pop_n(items.len(), &mut prep.batch.bufs);
        let samples = prep.position(self, epoch, items.len(), sink);
        // Let go of the partials before publishing: their fetch thread
        // reuses each once nobody else holds it.
        prep.parts.clear();
        let Some(samples) = samples else {
            return false; // a hole read failed the epoch
        };
        if made > 0 {
            let capacity = samples.iter().map(|s| s.data.capacity()).max();
            self.spares.fill_window(capacity.unwrap_or(0));
        }
        stats.record_prepared(samples.len() as u64);
        stats.record_prep_busy(busy.elapsed().saturating_sub(prep.waited));
        // Waiting for a hole another thread reads, and publishing into a
        // backed-up staging window, are time spent not pre-processing:
        // both count as prep stall.
        let publishing = Instant::now();
        let delivered = sink.publish(Minibatch {
            epoch,
            index: *index,
            samples,
        });
        stats.record_prep_stall(prep.waited + publishing.elapsed());
        delivered
    }
}

/// Drops the assembler's lane receivers once the last prep worker holding
/// it is gone.
struct CloseOnLastWorker(Arc<Mutex<Assembler>>);

impl Drop for CloseOnLastWorker {
    fn drop(&mut self) {
        self.0.lock().close();
    }
}

/// The scratch of whoever preps a position, reused across positions and
/// epochs.
#[derive(Default)]
pub(crate) struct PrepWorker {
    /// The partials of the position being prepped, one per fetch thread.
    parts: Vec<Arc<Partial>>,
    batch: Batch,
    /// `(slot, item, payload)` of the cells that hold bytes.
    ready: Vec<(usize, ItemId, Arc<Vec<u8>>)>,
    /// `(part, cell)` of the other cells, then of the holes another thread
    /// claimed.
    holes: Vec<(usize, usize)>,
    claimed: Vec<(usize, usize)>,
    /// How long the last position waited for holes another thread read.
    waited: Duration,
}

/// The samples of one position: each lands in its slot whatever order its
/// bytes arrive in.
#[derive(Default)]
struct Batch {
    slots: Vec<Option<PreparedSample>>,
    /// Sample buffers popped for the position.
    bufs: Vec<Vec<u8>>,
}

impl Batch {
    /// Prepare `item` from `raw` into `slot`, then hand `raw` back to the
    /// lane's backend if this was its last reference.
    fn prep(&mut self, lane: &Lane, epoch: u64, slot: usize, item: ItemId, raw: Arc<Vec<u8>>) {
        let buf = self.bufs.pop().unwrap_or_default();
        let sample = lane.pipeline.prepare_into(epoch, item, &raw, buf);
        self.slots[slot] = Some(sample);
        recycle_if_last(&*lane.backend, raw);
    }
}

impl PrepWorker {
    /// Make room for positions of up to `cells` items from `parts` fetch
    /// threads, once: grown as positions came, the scratch's size would
    /// depend on how many holes were read before it got to them.
    fn fit(&mut self, cells: usize, parts: usize) {
        self.parts.reserve_exact(parts);
        self.batch.slots.reserve_exact(cells);
        self.batch.bufs.reserve_exact(cells);
        self.ready.reserve_exact(cells);
        self.holes.reserve_exact(cells);
        self.claimed.reserve_exact(cells);
    }

    /// Prep the `len` samples of the position whose partials are in
    /// `parts`, into the buffers in `batch.bufs`: first every cell that
    /// holds bytes, then every hole nobody claimed — read here — and last
    /// every hole another thread is reading, waiting for each.  `None` when
    /// a hole's read failed: whoever read it has failed `sink`.
    fn position(
        &mut self,
        lane: &Lane,
        epoch: u64,
        len: usize,
        sink: &dyn PreparedSink,
    ) -> Option<Vec<PreparedSample>> {
        let (backend, stats) = (&*lane.backend, &*lane.stats);
        let parts = &self.parts;
        self.batch.slots.clear();
        self.batch.slots.resize_with(len, || None);
        self.waited = Duration::ZERO;
        self.claimed.clear();
        for (p, part) in parts.iter().enumerate() {
            part.take_ready(p, &mut self.ready, &mut self.holes);
        }
        for (slot, item, raw) in self.ready.drain(..) {
            self.batch.prep(lane, epoch, slot, item, raw);
        }
        for (p, c) in self.holes.drain(..) {
            let part = &parts[p];
            if !part.claim(c) {
                self.claimed.push((p, c));
                continue;
            }
            let Cell {
                slot, item, size, ..
            } = part.cells[c];
            match read_hole(backend, stats, item, size) {
                Ok(raw) => {
                    stats.record_deferred_read(true);
                    self.batch.prep(lane, epoch, slot, item, raw);
                }
                Err(err) => {
                    sink.fail(err);
                    return None;
                }
            }
        }
        // Drained, like the rest of the scratch: a hole left listed here
        // would make the next sweep's `fit` grow the list.
        for (p, c) in self.claimed.drain(..) {
            let (part, waiting) = (&parts[p], Instant::now());
            let collected = part.collect(c);
            self.waited += waiting.elapsed();
            // `None`: its reader failed the epoch.
            let raw = collected?;
            let Cell { slot, item, .. } = part.cells[c];
            self.batch.prep(lane, epoch, slot, item, raw);
        }
        let samples: Vec<PreparedSample> = self.batch.slots.drain(..).flatten().collect();
        assert_eq!(samples.len(), len, "every item was fetched");
        Some(samples)
    }
}

/// A running fetch + prep pipeline for one sweep.  Dropping it joins every
/// thread, so its owner shuts the sink down first: that stops the fetch
/// threads and unblocks any thread parked in `publish`, and everything
/// behind them unblocks by itself once the prep workers leave.  Then it
/// empties the fetch threads' partials — each payload still in one goes
/// back to the backend — and returns them to the lane.
pub(crate) struct PrefetchExecutor {
    fetchers: Vec<JoinHandle<Ring>>,
    workers: Vec<JoinHandle<()>>,
    backend: Arc<dyn FetchBackend>,
    rings: Arc<Rings>,
}

impl Drop for PrefetchExecutor {
    fn drop(&mut self) {
        // A panicked thread already reported its error; the Err here is
        // just the resume payload.
        let mut rings: Vec<Ring> = self
            .fetchers
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for ring in &mut rings {
            ring.empty(&*self.backend);
        }
        self.rings.lock().push(rings);
    }
}
/// A partial cell's payload is in its partial's `payloads`, or prep took it.
const READY: u8 = 0;
/// A hole nobody has claimed.
const OPEN: u8 = 1;
/// A hole the thread that claimed it is reading.
const CLAIMED: u8 = 2;
/// A claimed hole a prep worker waits for.
const AWAITED: u8 = 3;
/// A hole whose read failed: its reader has failed the epoch.
const FAILED: u8 = 4;

/// One item a fetch thread owns at one plan position.
struct Cell {
    /// The item's place in its batch.
    slot: usize,
    item: ItemId,
    /// A hole's length, from the backend's `item_bytes` (0 for a cell that
    /// arrived with its bytes).
    size: u64,
    state: AtomicU8,
}

/// What one fetch thread hands down its lane for one plan position: a cell
/// per item it owns there, in batch order.  Its fetch thread fills it while
/// nobody else holds it; from then on only atomics and the payload lock
/// change, until every other holder let go of it and the thread reuses it.
#[derive(Default)]
struct Partial {
    pos: usize,
    skipped: bool,
    cells: Vec<Cell>,
    /// Holes not claimed yet: the fetch thread skips partials without any.
    open: AtomicUsize,
    /// Whether the partial waits in its lane: the fetch thread reads only
    /// the holes of queued positions and leaves an assembled position's to
    /// the prep worker that holds it.  The worker then waits only for a
    /// read claimed before it took the position, not for one behind every
    /// hole of it — a reader that a third runnable thread can preempt.
    queued: AtomicBool,
    /// Each cell's payload until prep takes it.  A hole's reader settles
    /// the hole under this lock, so a prep worker that checked the hole's
    /// state under it cannot miss the wake-up.
    payloads: Mutex<Vec<Option<Arc<Vec<u8>>>>>,
    /// Signalled when a hole a prep worker awaits settles.
    settled: Condvar,
}

impl Partial {
    /// Drop the previous position, handing each payload left in it (by a
    /// sweep that ended early) back to `backend`, and describe `pos`.
    fn reset(&mut self, pos: usize, skipped: bool, backend: &dyn FetchBackend) {
        self.pos = pos;
        self.skipped = skipped;
        self.cells.clear();
        for payload in self.payloads.get_mut().drain(..).flatten() {
            recycle_if_last(backend, payload);
        }
        *self.open.get_mut() = 0;
        *self.queued.get_mut() = true;
    }

    /// Append the cell of `item` at `slot`.
    fn push(&mut self, slot: usize, item: ItemId, fetched: Fetched) {
        let (size, state, payload) = match fetched {
            Fetched::Bytes(bytes) => (0, READY, Some(bytes)),
            Fetched::Hole(size) => {
                *self.open.get_mut() += 1;
                (size, OPEN, None)
            }
        };
        let state = AtomicU8::new(state);
        self.cells.push(Cell {
            slot,
            item,
            size,
            state,
        });
        self.payloads.get_mut().push(payload);
    }

    /// Claim hole `cell` for reading: exactly one caller gets `true`.
    fn claim(&self, cell: usize) -> bool {
        let state = &self.cells[cell].state;
        // A plain load first: scanning settled cells writes nothing.
        let won = state.load(Ordering::Relaxed) == OPEN
            && state
                .compare_exchange(OPEN, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if won {
            self.open.fetch_sub(1, Ordering::Relaxed);
        }
        won
    }

    /// Take every payload that is here, as `(slot, item, payload)` into
    /// `ready`, and list the other cells, as `(part, cell)`, in `holes`.
    fn take_ready(
        &self,
        part: usize,
        ready: &mut Vec<(usize, ItemId, Arc<Vec<u8>>)>,
        holes: &mut Vec<(usize, usize)>,
    ) {
        let mut payloads = self.payloads.lock();
        for (c, (cell, payload)) in self.cells.iter().zip(payloads.iter_mut()).enumerate() {
            match payload.take() {
                Some(raw) => ready.push((cell.slot, cell.item, raw)),
                None => holes.push((part, c)),
            }
        }
    }

    /// Settle claimed hole `cell` with its payload, or as failed, and wake
    /// the prep worker waiting for it, if one is.
    fn settle(&self, cell: usize, payload: Option<Arc<Vec<u8>>>) {
        let state = if payload.is_some() { READY } else { FAILED };
        let awaited = {
            let mut payloads = self.payloads.lock();
            payloads[cell] = payload;
            self.cells[cell].state.swap(state, Ordering::AcqRel) == AWAITED
        };
        if awaited {
            self.settled.notify_all();
        }
    }

    /// Wait until hole `cell`, which another thread claimed, settles, and
    /// take its payload: `None` if its read failed.
    fn collect(&self, cell: usize) -> Option<Arc<Vec<u8>>> {
        let state = &self.cells[cell].state;
        let mut payloads = self.payloads.lock();
        loop {
            match state.compare_exchange(CLAIMED, AWAITED, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) | Err(AWAITED) => self.settled.wait(&mut payloads),
                Err(READY) => return payloads[cell].take(),
                Err(_) => return None,
            }
        }
    }
}

/// A hole a fetch thread claimed: dropped unsettled — its read panicked —
/// it settles as failed, so a prep worker waiting for it wakes.
struct Claim<'a> {
    partial: &'a Partial,
    cell: usize,
}

impl Claim<'_> {
    fn settle(self, payload: Option<Arc<Vec<u8>>>) {
        self.partial.settle(self.cell, payload);
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.partial.settle(self.cell, None);
    }
}

/// One fetch thread's partials, reused round-robin across positions and
/// epochs, and its prep scratch for the positions it lends itself to.  Only
/// the ring's thread clones the partials (into its lane), so one nobody
/// else holds stays free until the thread hands it over again.
#[derive(Default)]
pub(crate) struct Ring {
    partials: Vec<Arc<Partial>>,
    next: usize,
    prep: PrepWorker,
}

impl Ring {
    /// Grow to at least `len` partials, each with room for `cells` cells,
    /// and fit the prep scratch to positions of `cells` items from `parts`
    /// fetch threads.
    fn fit(&mut self, len: usize, cells: usize, parts: usize) {
        let len = len.max(self.partials.len());
        self.partials.resize_with(len, Arc::default);
        for partial in &mut self.partials {
            if let Some(partial) = Arc::get_mut(partial) {
                partial.cells.reserve_exact(cells);
                partial.payloads.get_mut().reserve_exact(cells);
            }
        }
        self.prep.fit(cells, parts);
    }

    /// The index of the next partial nobody else holds.  The ring holds
    /// one more than its lane, the prep workers and the lending fetch
    /// threads can; should it not, it grows.
    fn next_free(&mut self) -> usize {
        let n = self.partials.len();
        let free = (0..n)
            .map(|k| (self.next + k) % n)
            .find(|&i| Arc::get_mut(&mut self.partials[i]).is_some());
        let i = free.unwrap_or_else(|| {
            self.partials.push(Arc::default());
            n
        });
        self.next = (i + 1) % self.partials.len();
        i
    }

    /// Empty every partial, handing each payload left in one back to
    /// `backend` (once every other holder is gone).
    fn empty(&mut self, backend: &dyn FetchBackend) {
        for partial in &mut self.partials {
            if let Some(partial) = Arc::get_mut(partial) {
                partial.reset(0, false, backend);
            }
        }
    }
}

/// What one sweep's fetch threads read and where they lend themselves: the
/// lane, the plan, the per-position skip decisions, the sink and the
/// assembler.  Nothing in it is a wait point — each thread blocks only on
/// its own lane, and on the sink while it publishes a position it prepped.
struct FetchStage {
    lane: Lane,
    epoch: u64,
    threads: usize,
    shards: usize,
    plan: Plan,
    /// The batch filter with one decision cell per plan position.
    skip: Option<(Arc<SkipFn>, Vec<OnceLock<bool>>)>,
    sink: Arc<dyn PreparedSink>,
    assembler: Arc<Mutex<Assembler>>,
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
    /// shuts down or every prep worker is gone.  Then, while the epoch
    /// runs, it reads the holes its partials still have and lends itself
    /// to prep, until neither is possible.
    fn run(&self, thread: usize, lane: &Sender<Arc<Partial>>, ring: &mut Ring) {
        let (stats, sink) = (&*self.lane.stats, &*self.sink);
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
            let free = ring.next_free();
            let Some(partial) = Arc::get_mut(&mut ring.partials[free]) else {
                unreachable!("only this thread clones its ring's partials");
            };
            partial.reset(pos, skipped, &*self.lane.backend);
            if !skipped {
                // Owners are disjoint across threads, so every tier
                // transaction for a given key happens on one thread, in
                // plan order for that key's shard.
                let busy = Instant::now();
                for (slot, &item) in items.iter().enumerate() {
                    if self.owner(item) != thread {
                        continue;
                    }
                    match (self.lane.fetch)(item) {
                        Ok(fetched) => partial.push(slot, item, fetched),
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
            if !self.hand_over(thread, lane, ring, free) {
                return;
            }
        }
        while sink.is_live() && (self.read_hole(thread, ring) || self.lend(&mut ring.prep, || ())) {
        }
    }

    /// Hand partial `free` down `lane`.  While the lane is full, read a
    /// hole, or else lend this thread to prep for one position, instead of
    /// waiting; wait only once neither is possible.  `false` when the
    /// thread must stop: every prep worker is gone, the epoch shut down or
    /// a hole read failed it.
    fn hand_over(
        &self,
        thread: usize,
        lane: &Sender<Arc<Partial>>,
        ring: &mut Ring,
        free: usize,
    ) -> bool {
        let mut unsent = Some(Arc::clone(&ring.partials[free]));
        while let Some(partial) = unsent.take() {
            match lane.try_send(partial) {
                Ok(()) => return true,
                Err(TrySendError::Disconnected(_)) => return false,
                Err(TrySendError::Full(partial)) => unsent = Some(partial),
            }
            if !self.sink.is_live() {
                return false;
            }
            // The position a lending thread takes frees its own lane's head
            // (unless an earlier try had staged it): the partial goes down
            // the lane before the prep starts, so the thread holds one
            // position's payloads, not two.
            let send = || {
                if let Some(Err(
                    TrySendError::Full(partial) | TrySendError::Disconnected(partial),
                )) = unsent.take().map(|partial| lane.try_send(partial))
                {
                    unsent = Some(partial);
                }
            };
            if !(self.read_hole(thread, ring) || self.lend(&mut ring.prep, send)) {
                break;
            }
        }
        let Some(partial) = unsent else {
            return true; // handed over while lending
        };
        if !self.sink.is_live() {
            return false; // a hole read or a lent position ended the epoch
        }
        let stall = Instant::now();
        let sent = lane.send(partial);
        self.lane
            .stats
            .record_fetch_stall_for(thread, stall.elapsed());
        sent.is_ok()
    }

    /// Claim and read one unclaimed hole of `ring`, from the oldest
    /// position still queued in the lane that has one.  `false` when there
    /// is none, or when the read failed (the epoch is failed then).
    fn read_hole(&self, thread: usize, ring: &Ring) -> bool {
        let stats = &*self.lane.stats;
        loop {
            let open = ring
                .partials
                .iter()
                .filter(|p| p.queued.load(Ordering::Relaxed) && p.open.load(Ordering::Relaxed) > 0);
            let Some(oldest) = open.min_by_key(|p| p.pos) else {
                return false;
            };
            let Some(cell) = (0..oldest.cells.len()).find(|&c| oldest.claim(c)) else {
                continue; // prep claimed the rest meanwhile
            };
            let busy = Instant::now();
            let claim = Claim {
                partial: oldest,
                cell,
            };
            let Cell { item, size, .. } = oldest.cells[cell];
            let read = read_hole(&*self.lane.backend, stats, item, size);
            stats.record_fetch_busy_for(thread, busy.elapsed());
            return match read {
                Ok(raw) => {
                    stats.record_deferred_read(false);
                    claim.settle(Some(raw));
                    true
                }
                Err(err) => {
                    drop(claim);
                    self.sink.fail(err);
                    false
                }
            };
        }
    }

    /// Prep the next plan position on this thread, with `prep` as scratch,
    /// if the ledger has a free seat, nobody holds the assembler and every
    /// lane has the position's partial; `assembled` runs once it has the
    /// position, before the prep.  Never waits for any of the three: a
    /// lane it would wait on may be this thread's own.  `false` when it
    /// prepped nothing, or when the sweep is over (the sink says which).
    fn lend(&self, prep: &mut PrepWorker, assembled: impl FnOnce()) -> bool {
        let lane = &self.lane;
        let Some(_seat) = lane.ledger.borrow() else {
            return false;
        };
        let assembling = Instant::now();
        let Some(pos) = self
            .assembler
            .try_lock()
            .and_then(|mut assembler| assembler.next(&self.plan, &mut prep.parts, false))
        else {
            return false;
        };
        lane.stats.record_prep_stall(assembling.elapsed());
        lane.stats.record_lent_position();
        assembled();
        let prepped = catch_unwind(AssertUnwindSafe(|| {
            lane.prep_next(self.epoch, &self.plan, pos, prep, &*self.sink)
        }));
        prepped.unwrap_or_else(|payload| {
            prep.parts.clear();
            self.sink.fail(panicked("prep", payload));
            false
        })
    }
}

/// The receiving end of every thread lane and the next plan position to
/// assemble; one thread at a time holds it.
struct Assembler {
    lanes: Vec<Receiver<Arc<Partial>>>,
    /// The partials of position `cursor` received so far, in lane order: a
    /// position a lending fetch thread found only partly there waits here
    /// for whoever assembles next.
    staged: Vec<Arc<Partial>>,
    cursor: usize,
}

impl Assembler {
    /// Receive the next unskipped position's partial from every lane, in
    /// thread order, into `parts` and return the position.  `None` once the
    /// plan is exhausted or a lane ended early (its thread failed or saw
    /// the shutdown), for this and every later call.  Without `wait`, also
    /// `None` when a lane's next partial is not there yet: what was
    /// received stays staged for the next call.
    fn next(
        &mut self,
        plan: &[(usize, Vec<ItemId>)],
        parts: &mut Vec<Arc<Partial>>,
        wait: bool,
    ) -> Option<usize> {
        while self.cursor < plan.len() {
            while let Some(lane) = self.lanes.get(self.staged.len()) {
                let received = match wait {
                    true => lane.recv().ok(),
                    false => match lane.try_recv() {
                        Ok(partial) => Some(partial),
                        Err(TryRecvError::Empty) => return None,
                        Err(TryRecvError::Disconnected) => None,
                    },
                };
                let Some(partial) = received else {
                    self.close();
                    return None;
                };
                debug_assert_eq!(partial.pos, self.cursor, "lanes are FIFO in plan order");
                partial.queued.store(false, Ordering::Relaxed);
                self.staged.push(partial);
            }
            self.cursor += 1;
            if self.staged.iter().all(|part| !part.skipped) {
                parts.append(&mut self.staged);
                return Some(self.cursor - 1);
            }
            self.staged.clear();
        }
        None
    }

    /// End the sweep for every later caller and drop the lane receivers,
    /// which wakes any fetch thread parked on a full lane.
    fn close(&mut self) {
        self.cursor = usize::MAX;
        self.staged.clear();
        self.lanes.clear();
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Recycler;
    use crate::coordinator::{EpochSession, JobEpochIterator};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn plan(batches: usize, per_batch: usize) -> Plan {
        let batch = |i| (0..per_batch).map(move |j| (i * per_batch + j) as ItemId);
        Arc::new((0..batches).map(|i| (i, batch(i).collect())).collect())
    }

    fn byte_fetch() -> Arc<FetchFn> {
        Arc::new(|item: ItemId| Ok(Fetched::Bytes(Arc::new(vec![item as u8; 16]))))
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

    /// The two test ledgers: fetch threads never lend, and fetch threads
    /// lend whenever their lane is full.
    fn ledgers() -> [&'static CoreLedger; 2] {
        [&NEVER_LENDS, &LENDS]
    }

    fn lending(ledger: &CoreLedger) -> &'static str {
        match std::ptr::eq(ledger, &LENDS) {
            true => "lending",
            false => "not lending",
        }
    }

    fn lane(
        ledger: &'static CoreLedger,
        fetch: Arc<FetchFn>,
        stats: &Arc<LoaderStats>,
        config: ExecutorConfig,
    ) -> Lane {
        Lane {
            fetch,
            backend: Arc::new(Recycler::default()),
            pipeline: pipeline(),
            spares: Arc::default(),
            rings: Arc::default(),
            scratch: Arc::default(),
            ledger,
            stats: Arc::clone(stats),
            config,
        }
    }

    /// A one-consumer stream over `plan`: the delivery path of a single-mode
    /// session, with a staging window of `prefetch_depth`.
    fn ordered(
        ledger: &'static CoreLedger,
        plan: Plan,
        fetch: Arc<FetchFn>,
        stats: &Arc<LoaderStats>,
        config: ExecutorConfig,
    ) -> JobEpochIterator {
        let lane = lane(ledger, fetch, stats, config);
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
        for ledger in ledgers() {
            for workers in [1, 2, 8] {
                for depth in [1, 4] {
                    let stats = Arc::new(LoaderStats::default());
                    let config = shape(workers, depth, 1);
                    let stream = ordered(ledger, plan(9, 4), byte_fetch(), &stats, config);
                    let indices: Vec<usize> = stream.map(|mb| mb.unwrap().index).collect();
                    let what = format!("{}: w={workers} d={depth}", lending(ledger));
                    assert_eq!(indices, (0..9).collect::<Vec<_>>(), "{what}");
                    assert_eq!(stats.samples_prepared(), 36, "{what}");
                    assert_eq!(stats.samples_delivered(), 36, "{what}");
                }
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
                Ok(Fetched::Bytes(Arc::new(vec![0u8; 8])))
            });
            let stats = Arc::new(LoaderStats::default());
            let _ = ordered(&LENDS, plan(6, 3), fetch, &stats, shape(workers, 2, 1)).count();
            let order = seen.lock().clone();
            order
        };
        let serial = record(1);
        assert_eq!(serial, (0..18).collect::<Vec<ItemId>>());
        assert_eq!(record(4), serial);
    }

    #[test]
    fn dropping_the_stream_early_joins_all_threads_without_deadlock() {
        for ledger in ledgers() {
            for fetch_threads in [1, 3] {
                for _ in 0..8 {
                    let stats = Arc::new(LoaderStats::default());
                    // Smallest window: prep workers (and lending fetch
                    // threads) park on the full output queue, fetch
                    // threads on their full lanes, constantly.
                    let config = shape(3, 1, fetch_threads);
                    let mut stream = ordered(ledger, plan(64, 4), byte_fetch(), &stats, config);
                    let _ = stream.next();
                    drop(stream); // must unblock + join, not hang
                }
            }
        }
    }

    #[test]
    fn panicking_fetch_surfaces_a_typed_error() {
        for (ledger, fetch_threads) in ledgers().into_iter().flat_map(|l| [(l, 1), (l, 3)]) {
            let fetch: Arc<FetchFn> = Arc::new(|item| {
                if item == 7 {
                    panic!("injected fetch failure for item {item}");
                }
                Ok(Fetched::Bytes(Arc::new(vec![1u8; 8])))
            });
            let stats = Arc::new(LoaderStats::default());
            let stream = ordered(
                ledger,
                plan(5, 2),
                fetch,
                &stats,
                shape(2, 2, fetch_threads),
            );
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
        for (ledger, fetch_threads) in ledgers().into_iter().flat_map(|l| [(l, 1), (l, 3)]) {
            let fetched = Arc::new(AtomicUsize::new(0));
            let f2 = Arc::clone(&fetched);
            let fetch: Arc<FetchFn> = Arc::new(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
                Ok(Fetched::Bytes(Arc::new(vec![0u8; 4])))
            });
            let (out_tx, out_rx) = bounded::<Minibatch>(16);
            let executor = lane(ledger, fetch, &Arc::default(), shape(2, 4, fetch_threads)).spawn(
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
                &LENDS,
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
            Ok(Fetched::Bytes(Arc::new(vec![item as u8; 8])))
        });
        let stats = Arc::new(LoaderStats::default());
        let stream = ordered(&LENDS, plan(10, 5), fetch, &stats, shape(2, 4, threads));
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
            Ok(Fetched::Bytes(bytes))
        });
        let backend = Arc::new(Recycler::default());
        let lane = Lane {
            backend: Arc::clone(&backend) as Arc<dyn FetchBackend>,
            ..lane(&LENDS, fetch, &Arc::default(), shape(2, 2, 2))
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
        for (ledger, fetch_threads) in ledgers().into_iter().flat_map(|l| [(l, 1), (l, 2)]) {
            let fetch: Arc<FetchFn> = Arc::new(|item| {
                if item == 9 {
                    return Err(CoordlError::BackendIo {
                        backend: "test".into(),
                        item,
                        detail: "injected typed failure".into(),
                    });
                }
                Ok(Fetched::Bytes(Arc::new(vec![2u8; 8])))
            });
            let stats = Arc::new(LoaderStats::default());
            let stream = ordered(
                ledger,
                plan(6, 3),
                fetch,
                &stats,
                shape(2, 2, fetch_threads),
            );
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
        // worker and per lending fetch thread, each lane's `depth`
        // positions and the one parked in `send`.
        let (depth, workers, per_batch, batches) = (2, 1, 4, 40);
        for ledger in ledgers() {
            for fetch_threads in [1, 3] {
                let what = format!("{}: f={fetch_threads}", lending(ledger));
                let fetched = Arc::new(AtomicUsize::new(0));
                let counter = Arc::clone(&fetched);
                let fetch: Arc<FetchFn> = Arc::new(move |item| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(Fetched::Bytes(Arc::new(vec![item as u8; 8])))
                });
                let stats = Arc::new(LoaderStats::default());
                let config = shape(workers, depth, fetch_threads);
                let mut stream = ordered(ledger, plan(batches, per_batch), fetch, &stats, config);
                assert_eq!(stream.next().map(|mb| mb.unwrap().index), Some(0));
                // Quiescence: every stage is parked once the count holds still.
                let mut last = usize::MAX;
                while last != fetched.load(Ordering::SeqCst) {
                    last = fetched.load(Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(100));
                }
                let ahead = last - per_batch;
                assert!(
                    ahead <= (2 * depth + workers + fetch_threads + 1) * per_batch,
                    "{what}: {ahead} items fetched beyond the consumed batch"
                );
                // Resuming the consumer still delivers the whole plan in order.
                let rest: Vec<usize> = stream.map(|mb| mb.unwrap().index).collect();
                assert_eq!(rest, (1..batches).collect::<Vec<_>>(), "{what}");
                assert_eq!(fetched.load(Ordering::SeqCst), batches * per_batch);
                if std::ptr::eq(ledger, &NEVER_LENDS) {
                    assert_eq!(stats.lent_positions(), 0, "{what}");
                }
            }
        }
    }

    /// Bytes per item of [`HoleBackend`].
    const SIZE: u64 = 16;

    /// A backend whose every read returns a fresh buffer filled with the
    /// read's serial number (with `by_item`, the item's id), and which
    /// records the number of every buffer handed back.  Reads of `gated`
    /// wait until [`HoleBackend::open`]; reads of `failing` fail; every
    /// read takes at least `delay`.
    #[derive(Default)]
    struct HoleBackend {
        reads: AtomicUsize,
        returned: Mutex<Vec<u64>>,
        by_item: bool,
        gated: Option<ItemId>,
        failing: Option<ItemId>,
        entered: AtomicBool,
        gate: (Mutex<bool>, Condvar),
        delay: Duration,
    }

    impl HoleBackend {
        fn open(&self) {
            *self.gate.0.lock() = true;
            self.gate.1.notify_all();
        }

        /// Numbers handed back, sorted.
        fn returned(&self) -> Vec<u64> {
            let mut numbers = self.returned.lock().clone();
            numbers.sort_unstable();
            numbers
        }
    }

    impl FetchBackend for HoleBackend {
        fn num_items(&self) -> u64 {
            u64::MAX
        }
        fn item_bytes(&self, _item: ItemId) -> u64 {
            SIZE
        }
        fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
            let serial = self.reads.fetch_add(1, Ordering::SeqCst) as u64;
            if self.failing == Some(item) {
                return Err(CoordlError::BackendIo {
                    backend: self.name().into(),
                    item,
                    detail: "injected read failure".into(),
                });
            }
            if self.gated == Some(item) {
                self.entered.store(true, Ordering::SeqCst);
                let mut open = self.gate.0.lock();
                while !*open {
                    self.gate.1.wait(&mut open);
                }
            }
            std::thread::sleep(self.delay);
            let number = if self.by_item { item } else { serial };
            Ok(number.to_le_bytes().repeat(SIZE as usize / 8))
        }
        fn recycle(&self, buf: Vec<u8>) {
            let number = u64::from_le_bytes(buf[..8].try_into().unwrap());
            self.returned.lock().push(number);
        }
        fn name(&self) -> &'static str {
            "holes"
        }
    }

    /// The fetch path a tier that bypasses the items `hole` picks would
    /// give: those are holes, the rest are read inline.
    fn hole_fetch(backend: &Arc<HoleBackend>, hole: fn(ItemId) -> bool) -> Arc<FetchFn> {
        let backend = Arc::clone(backend);
        Arc::new(move |item| match hole(item) {
            true => Ok(Fetched::Hole(SIZE)),
            false => Ok(Fetched::Bytes(Arc::new(backend.read(item)?))),
        })
    }

    /// A lane of shape `config` on `ledger` whose fetch path leaves the
    /// items `hole` picks as holes in `backend`.
    fn hole_lane(
        ledger: &'static CoreLedger,
        backend: &Arc<HoleBackend>,
        hole: fn(ItemId) -> bool,
        stats: &Arc<LoaderStats>,
        config: ExecutorConfig,
    ) -> Lane {
        Lane {
            backend: Arc::clone(backend) as Arc<dyn FetchBackend>,
            ..lane(ledger, hole_fetch(backend, hole), stats, config)
        }
    }

    /// A fetch stage of one thread over `plan` on `ledger`, reading holes
    /// from `backend`, whose assembler receives from `lanes`.
    fn stage(
        plan: Plan,
        backend: &Arc<HoleBackend>,
        ledger: &'static CoreLedger,
        sink: Arc<dyn PreparedSink>,
        lanes: Vec<Receiver<Arc<Partial>>>,
    ) -> FetchStage {
        FetchStage {
            lane: hole_lane(ledger, backend, |_| true, &Arc::default(), shape(1, 1, 1)),
            epoch: 0,
            threads: 1,
            shards: 1,
            plan,
            skip: None,
            sink,
            assembler: Arc::new(Mutex::new(Assembler {
                staged: Vec::new(),
                lanes,
                cursor: 0,
            })),
        }
    }

    /// A ring of one partial filled with `items` at slots 0.., the items
    /// `hole` picks as holes, the rest read inline from `backend`.
    fn filled(backend: &Arc<HoleBackend>, items: &[ItemId], hole: fn(ItemId) -> bool) -> Ring {
        let mut ring = Ring::default();
        ring.fit(1, items.len(), 1);
        let fetch = hole_fetch(backend, hole);
        let partial = Arc::get_mut(&mut ring.partials[0]).unwrap();
        partial.reset(0, false, &**backend);
        for (slot, &item) in items.iter().enumerate() {
            partial.push(slot, item, fetch(item).unwrap());
        }
        ring
    }

    /// A sink that keeps what it is handed: published batches, failures.
    #[derive(Default)]
    struct Recording {
        published: Mutex<Vec<Minibatch>>,
        failures: Mutex<Vec<CoordlError>>,
    }

    impl PreparedSink for Recording {
        fn publish(&self, mb: Minibatch) -> bool {
            self.published.lock().push(mb);
            true
        }

        fn fail(&self, err: CoordlError) {
            self.failures.lock().push(err);
        }

        fn is_live(&self) -> bool {
            self.failures.lock().is_empty()
        }
    }

    #[test]
    fn holes_deliver_the_stream_of_inline_reads() {
        // Every other item a hole: the delivered stream is the one a fetch
        // path that reads everything inline delivers, at any shape, and
        // each item is read exactly once.
        let run = |ledger, hole: fn(ItemId) -> bool, workers: usize, fetch_threads: usize| {
            let backend = Arc::new(HoleBackend::default());
            let stats = Arc::new(LoaderStats::default());
            let config = shape(workers, 2, fetch_threads);
            let lane = hole_lane(ledger, &backend, hole, &stats, config);
            let stream = EpochSession::start(&lane, 1, 2, None, 3, plan(12, 5)).into_consumer();
            let items: Vec<Vec<ItemId>> = stream
                .map(|mb| mb.unwrap().samples.iter().map(|s| s.item).collect())
                .collect();
            assert_eq!(backend.reads.load(Ordering::SeqCst), 60);
            assert_eq!(backend.returned(), (0..60).collect::<Vec<u64>>());
            (items, stats.deferred_reads())
        };
        let (inline, none) = run(&NEVER_LENDS, |_| false, 1, 1);
        assert_eq!(none, 0);
        for ledger in ledgers() {
            for workers in [1, 3] {
                for fetch_threads in [1, 3] {
                    let what = format!("{}: w={workers} f={fetch_threads}", lending(ledger));
                    let (deferred, holes) =
                        run(ledger, |item| item % 2 == 0, workers, fetch_threads);
                    assert_eq!(deferred, inline, "{what}");
                    assert_eq!(holes, 30, "{what}");
                }
            }
        }
    }

    #[test]
    fn lending_or_not_delivers_the_same_stream_with_holes() {
        // Two of every three items holes, the smallest lanes: fetch threads
        // find them full constantly and, on the lending ledger, prep.  The
        // delivered bytes, the counters and the items read are the same.
        let run = |ledger, workers: usize, fetch_threads: usize| {
            let backend = Arc::new(HoleBackend {
                by_item: true,
                ..HoleBackend::default()
            });
            let stats = Arc::new(LoaderStats::default());
            let config = shape(workers, 1, fetch_threads);
            let lane = hole_lane(ledger, &backend, |item| item % 3 != 0, &stats, config);
            let stream = EpochSession::start(&lane, 1, 1, None, 5, plan(24, 6)).into_consumer();
            let delivered: Vec<(usize, Vec<prep::PreparedSample>)> = stream
                .map(|mb| {
                    let mb = mb.unwrap();
                    (mb.index, mb.samples.clone())
                })
                .collect();
            assert_eq!(backend.returned(), (0..144).collect::<Vec<u64>>());
            let counters = (
                stats.samples_prepared(),
                stats.samples_delivered(),
                stats.bytes_from_storage(),
                stats.deferred_reads(),
            );
            (delivered, counters)
        };
        for workers in [1, 2] {
            for fetch_threads in [1, 3] {
                let never = run(&NEVER_LENDS, workers, fetch_threads);
                assert_eq!(never.1, (144, 144, 96 * SIZE, 96));
                let lends = run(&LENDS, workers, fetch_threads);
                assert!(lends == never, "w={workers} f={fetch_threads}");
            }
        }
    }

    #[test]
    fn a_ledger_lends_only_the_seats_its_prep_workers_leave_free() {
        let ledger: &'static CoreLedger = Box::leak(Box::new(CoreLedger::new(2)));
        let worker = ledger.register();
        let lent = ledger.borrow().expect("one core is free");
        assert!(ledger.borrow().is_none(), "both cores are held");
        drop(lent);
        let (second, third) = (ledger.register(), ledger.register());
        assert!(ledger.borrow().is_none(), "registration ignores the count");
        drop((worker, second, third));
        assert_eq!(ledger.seats.load(Ordering::Relaxed), 0);
        assert!(NEVER_LENDS.borrow().is_none());
        let seats: Vec<Seat> = (0..64).filter_map(|_| LENDS.borrow()).collect();
        assert_eq!(seats.len(), 64);
    }

    #[test]
    fn a_lending_fetch_thread_leaves_a_position_partly_there_staged() {
        // Two lanes; only the first has position 0's partial.  A lending
        // thread stages it and preps nothing, never waiting on the second
        // lane; once that lane has its partial too, the next one to lend
        // preps and publishes the position.
        let backend = Arc::new(HoleBackend::default());
        let first = filled(&backend, &[0], |_| false);
        let mut second = Ring::default();
        second.fit(1, 1, 1);
        let partial = Arc::get_mut(&mut second.partials[0]).unwrap();
        partial.reset(0, false, &*backend);
        partial.push(1, 1, Fetched::Bytes(Arc::new(1u64.to_le_bytes().repeat(2))));
        let (tx0, rx0) = bounded(1);
        let (tx1, rx1) = bounded(1);
        let sink = Arc::new(Recording::default());
        let stage = stage(plan(1, 2), &backend, &LENDS, sink.clone(), vec![rx0, rx1]);
        let mut prep = PrepWorker::default();
        prep.fit(2, 2);
        assert!(tx0.try_send(Arc::clone(&first.partials[0])).is_ok());
        assert!(
            !stage.lend(&mut prep, || ()),
            "the second partial is not there"
        );
        assert_eq!(stage.assembler.lock().staged.len(), 1);
        assert!(!first.partials[0].queued.load(Ordering::Relaxed));
        assert!(tx1.try_send(Arc::clone(&second.partials[0])).is_ok());
        assert!(stage.lend(&mut prep, || ()));
        let published = sink.published.lock();
        let items: Vec<ItemId> = published[0].samples.iter().map(|s| s.item).collect();
        assert_eq!((published.len(), items), (1, vec![0, 1]));
        assert_eq!(stage.lane.stats.lent_positions(), 1);
        assert!(prep.parts.is_empty(), "the partials are let go of");
        // The plan is over: nothing more to lend.
        assert!(!stage.lend(&mut prep, || ()));
    }

    #[test]
    fn a_failed_hole_read_in_a_lent_position_surfaces_once_as_backend_io() {
        // Direct: the lending thread reads the failing hole itself.
        let backend = Arc::new(HoleBackend {
            failing: Some(2),
            ..HoleBackend::default()
        });
        let ring = filled(&backend, &[0, 1, 2, 3], |item| item >= 2);
        let (tx, rx) = bounded(1);
        assert!(tx.try_send(Arc::clone(&ring.partials[0])).is_ok());
        let sink = Arc::new(Recording::default());
        let stage = stage(plan(1, 4), &backend, &LENDS, sink.clone(), vec![rx]);
        let mut prep = PrepWorker::default();
        prep.fit(4, 1);
        assert!(!stage.lend(&mut prep, || ()), "the sweep is over");
        assert!(sink.published.lock().is_empty());
        let failures = sink.failures.lock();
        assert_eq!(failures.len(), 1, "surfaced exactly once");
        assert!(matches!(
            failures[0],
            CoordlError::BackendIo { item: 2, .. }
        ));
        drop(failures);
        // Through a stream: the error is the last thing it yields, once.
        for (workers, fetch_threads) in [(1, 1), (2, 3)] {
            let backend = Arc::new(HoleBackend {
                failing: Some(37),
                ..HoleBackend::default()
            });
            let config = shape(workers, 1, fetch_threads);
            let lane = hole_lane(
                &LENDS,
                &backend,
                |item| item % 2 == 1,
                &Arc::default(),
                config,
            );
            let stream = EpochSession::start(&lane, 1, 1, None, 0, plan(16, 4)).into_consumer();
            let mut outcomes: Vec<_> = stream.collect();
            let last = outcomes.pop().expect("the failure is yielded");
            assert!(outcomes.len() < 16 && outcomes.iter().all(Result::is_ok));
            match last.expect_err("the read failed") {
                CoordlError::BackendIo { item, .. } => assert_eq!(item, 37),
                other => panic!("expected BackendIo, got {other}"),
            }
        }
    }

    #[test]
    fn fetch_and_prep_racing_for_one_hole_read_it_exactly_once() {
        let backend = Arc::new(HoleBackend::default());
        let (sink, _) = bounded::<Minibatch>(1);
        let stage = stage(
            plan(1, 1),
            &backend,
            &NEVER_LENDS,
            Arc::new(sink),
            Vec::new(),
        );
        let barrier = Barrier::new(2);
        let (mut by_fetch, mut by_prep) = (0, 0);
        let mut ring = Ring::default();
        for round in 0..10_000u64 {
            ring = filled(&backend, &[round], |_| true);
            let part = Arc::clone(&ring.partials[0]);
            let (fetched, raw) = std::thread::scope(|s| {
                let fetch = s.spawn(|| {
                    barrier.wait();
                    stage.read_hole(0, &ring)
                });
                barrier.wait();
                let mine = part.claim(0);
                let raw = match mine {
                    true => read_hole(&*backend, &LoaderStats::default(), round, SIZE).unwrap(),
                    false => part.collect(0).expect("the fetch thread read it"),
                };
                let fetched = fetch.join().unwrap();
                assert!(fetched != mine, "round {round}: exactly one reader");
                (fetched, raw)
            });
            assert_eq!(raw.len() as u64, SIZE);
            by_fetch += usize::from(fetched);
            by_prep += usize::from(!fetched);
        }
        drop(ring);
        assert_eq!(backend.reads.load(Ordering::SeqCst), 10_000);
        assert_eq!(by_fetch + by_prep, 10_000);
        assert_eq!(stage.lane.stats.deferred_reads(), by_fetch as u64);
    }

    #[test]
    fn prep_preps_the_rest_while_the_fetch_thread_reads_a_hole() {
        // The fetch thread is held inside the read of item 2's hole; the
        // prep worker that assembled the position preps items 0, 1 and 3,
        // hands their payloads back, and only then waits for item 2.
        let backend = Arc::new(HoleBackend {
            gated: Some(2),
            ..HoleBackend::default()
        });
        let ring = filled(&backend, &[0, 1, 2, 3], |item| item == 2);
        let (sink, _) = bounded::<Minibatch>(1);
        let sink: Arc<dyn PreparedSink> = Arc::new(sink);
        let stage = stage(
            plan(1, 4),
            &backend,
            &NEVER_LENDS,
            Arc::clone(&sink),
            Vec::new(),
        );
        let lane = &stage.lane;
        let part = Arc::clone(&ring.partials[0]);
        std::thread::scope(|s| {
            let fetch = s.spawn(|| stage.read_hole(0, &ring));
            while !backend.entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let prep = s.spawn(|| {
                let mut prep = PrepWorker::default();
                prep.fit(4, 1);
                prep.parts.push(Arc::clone(&part));
                prep.position(lane, 0, 4, &*sink)
            });
            while part.cells[2].state.load(Ordering::SeqCst) != AWAITED {
                std::thread::yield_now();
            }
            assert_eq!(backend.returned().len(), 3, "the rest was prepped first");
            assert!(!prep.is_finished(), "prep waits for the hole");
            backend.open();
            assert!(fetch.join().unwrap());
            let samples = prep.join().unwrap().expect("no read failed");
            let items: Vec<ItemId> = samples.iter().map(|s| s.item).collect();
            assert_eq!(items, vec![0, 1, 2, 3]);
        });
        assert_eq!(backend.returned(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropping_a_stream_with_open_and_in_flight_holes_hands_every_payload_back_once() {
        for ledger in ledgers() {
            for (workers, fetch_threads) in [(1, 1), (3, 1), (1, 3), (3, 3)] {
                let what = format!("{}: w={workers} f={fetch_threads}", lending(ledger));
                for _ in 0..4 {
                    let backend = Arc::new(HoleBackend {
                        delay: Duration::from_micros(200),
                        ..HoleBackend::default()
                    });
                    let config = shape(workers, 1, fetch_threads);
                    let hole = |item| item % 3 != 0;
                    let lane = hole_lane(ledger, &backend, hole, &Arc::default(), config);
                    let mut stream =
                        EpochSession::start(&lane, 1, 1, None, 0, plan(64, 4)).into_consumer();
                    assert!(stream.next().unwrap().is_ok());
                    drop(stream); // must join, not hang
                    let reads = backend.reads.load(Ordering::SeqCst) as u64;
                    assert!(reads < 256, "{what}: stopped early");
                    assert_eq!(
                        backend.returned(),
                        (0..reads).collect::<Vec<u64>>(),
                        "{what}: each payload back exactly once"
                    );
                }
            }
        }
    }
}
