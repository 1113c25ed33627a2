//! The multi-threaded prefetching executor behind every
//! [`Session`](crate::Session) mode.
//!
//! The paper's fix for data stalls is *overlap*: prefetch raw items ahead of
//! the consumer and pre-process them on parallel CPU workers so storage and
//! prep latency hide behind the GPU (§2, §5).  This module implements that
//! overlap once, for all three session modes and for coordinated recovery —
//! a sweep's fetch threads, joined by bounded lanes to the process's one
//! prep pool ([`crate::pool`]):
//!
//! ```text
//!   plan (ordered batches, shared by reference)
//!        │ fetch stage: `fetch_threads` >= 1 threads per sweep; thread `t`
//!        │ walks the plan in order and runs the tier transactions of the
//!        │ items of the cache shards `{k : k % fetch_threads == t}`
//!        ▼
//!   one bounded thread lane per fetch thread (prefetch_depth positions):
//!   one partial per plan position — a cell per item the thread owns there,
//!   holding its bytes or a *hole*: a bypassed miss not read yet.  While
//!   its lane is full, the thread reads the holes of its partials, oldest
//!   position first, and only then blocks
//!        │ the prep pool: `available_parallelism` threads for the whole
//!        │ process, serving every live sweep in turn.  The sweep's
//!        │ assembler stages the positions every lane has handed over; a
//!        │ pool thread preps any staged position whose cells all hold
//!        │ bytes, deterministically per (epoch, item), or — all but one
//!        │ pool thread at most — reads the unclaimed holes of the oldest
//!        │ staged position that has any
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
//! per-shard *program order* is the whole contract.  Cache hits, misses,
//! byte provenance and eviction decisions are therefore a pure function of
//! the plan and the shard count: streams and [`LoaderStats`] counters are
//! bit-identical across `fetch_threads`, `workers`, `prefetch_depth` and
//! whatever else the process runs on the pool, for *any* tier policy (the
//! index-ordered staging area and the per-`(epoch, item)` deterministic
//! prep carry that through to the delivered minibatches); only the stage
//! timings and the split of hole reads between threads move.  The root
//! `tests/parallel_session_equivalence.rs`,
//! `tests/parallel_fetch_equivalence.rs` and `tests/deferred_reads.rs`
//! suites pin this contract.
//!
//! **Transactions are ordered, hole reads are not.**  A miss the tier will
//! not keep needs only its size for the admit transaction (see
//! [`CacheTier::try_bypass`](crate::CacheTier::try_bypass)), so its backend
//! read leaves the ordered path: the fetch function returns
//! [`Fetched::Hole`] and the read happens later, exactly once, on whichever
//! thread claims the hole first with one compare-and-swap — its fetch
//! thread while its lane is full (and after the plan ends), or a pool
//! thread's read task on a staged position.  A hole read is counted in
//! `bytes_from_storage` when it succeeds.  Nobody waits for a read another
//! thread claimed: a position is prepped only once all its holes are read,
//! and a fetch thread that reads a partial's last one wakes the pool.
//!
//! **No pool thread waits on a lane, a sink or another thread.**  The
//! assembler receives a partial from a lane only if it is there
//! (`try_recv`), and hands out a position for prep only when it is
//! complete and the sink has room for its batch
//! ([`PreparedSink::has_room`]), so `publish` returns at once; see
//! [`crate::pool`].  What a pool thread may wait on is the backend, in a
//! read task of its own — that time is prep stall.  The pool lets at most
//! all but one of its threads read holes at once, so a sweep whose backend
//! hangs cannot hold every pool thread: the positions nobody else reads
//! wait for their fetch threads.
//!
//! **Windows.**  A fetch thread runs at most `prefetch_depth` positions
//! (plus the one it is handing over) ahead of the assembler.  Its staged
//! positions and its pool tasks in flight together number at most
//! `workers + fetch_threads`, and only its last staged position may wait
//! for room in the sink.  Each fetch thread's partials live in a ring the
//! lane keeps across positions and epochs, as many as
//! [`ExecutorConfig::fetch_window`] (`prefetch_depth + 1 + workers +
//! fetch_threads`): one more than its lane, the staged positions and the
//! tasks can hold at once, so neither stage allocates per position.
//!
//! **Recycled buffers.**  Whoever preps a batch prepares it into buffers
//! popped from the lane's [`Spares`] — buffers the lane's streams took back
//! from consumers that let go of a delivered batch (see
//! [`BatchStream`](crate::BatchStream)) — and hands every raw payload it
//! held the last reference to back to the backend.  A payload a session's
//! cache tier still holds is the tier's to hand back when it drops it:
//! whichever of the two lets go last returns it, exactly once.  Each pool
//! thread keeps its prep scratch for the process's life, so in steady state
//! neither stage allocates per sample.
//!
//! **Failure contract.**  A panicking stage thread is caught, converted into
//! a descriptive [`CoordlError::WorkerPanicked`] and handed to the sink's
//! [`fail`](PreparedSink::fail) (a panic in a pool thread's task is a
//! `"prep"` one, and the thread goes on serving); a typed fetch error, or a
//! failed hole read on any thread, is handed over as it is, once, by the
//! thread that saw it.  The sink ends the epoch, which wakes its consumers;
//! only the owning session's streams observe the error.  A failing fetch
//! thread drops its lane's sender: the assembler sees the lane end and
//! drops every lane receiver, which wakes a fetch thread parked on a full
//! lane.  Teardown never deadlocks and never polls a clock (see
//! [`PrefetchExecutor`]).

use crate::backend::{recycle_if_last, FetchBackend};
use crate::error::{panic_detail, CoordlError};
use crate::minibatch::Minibatch;
use crate::pool;
use crate::spares::Spares;
use crate::stack::read_hole;
use crate::stats::LoaderStats;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use dataset::ItemId;
use parking_lot::Mutex;
use prep::{ExecutablePipeline, PreparedSample};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

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
    /// Whether batch `index` can be published without waiting.  Once
    /// `true`, it stays `true` for that index.
    fn has_room(&self, index: usize) -> bool;

    /// Deliver one prepared minibatch, for which the sink had room.
    fn publish(&self, mb: Minibatch);

    /// A stage thread failed: end the epoch with `err` (the first failure
    /// is the one its consumers see).
    fn fail(&self, err: CoordlError);

    /// Whether the epoch still runs; fetch threads stop once it does not,
    /// and the pool takes none of its positions.
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
    /// A sweep's share of the prep pool: its staged positions and its pool
    /// tasks in flight number at most `workers + fetch_threads` (>= 1
    /// enforced).
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

impl ExecutorConfig {
    /// Plan positions a sweep holds between fetch and prep at most: each
    /// lane's `prefetch_depth`, the one being handed over, and `workers +
    /// fetch_threads` staged or in a pool task.
    pub(crate) fn fetch_window(&self) -> usize {
        self.prefetch_depth.max(1) + 1 + self.workers.max(1) + self.fetch_threads.max(1)
    }
}

/// What a sweep keeps for the next one over its lane: its fetch threads'
/// partial rings and its assembler's staged list.
#[derive(Default)]
pub(crate) struct Kept {
    rings: Vec<Ring>,
    staged: Vec<Arc<Partial>>,
}

/// One fetch → prep lane of a session: everything an epoch executor runs on
/// except the epoch's plan and sink.  Built once per session (one per
/// partitioned node) and cloned into every sweep.
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
    /// buffers of every batch the consumer let go of.  Its window is the
    /// most samples the lane's streams can hold in flight together: the
    /// staging window — whose batch indices bound the positions in prep as
    /// well as the staged batches — and the batch lent to the consumer,
    /// i.e. `prefetch_depth + 1` minibatches for a single or partitioned
    /// stream and `staging_window + 1` in a coordinated epoch, exact at any
    /// thread count.  The first batch makes the whole window, so how many
    /// buffers exist never depends on how far prep happened to run ahead;
    /// beyond it, a buffer is made only when every one is in flight.
    pub spares: Arc<Spares>,
    /// What sweeps keep across epochs: a sweep takes one set (a sweep
    /// running beside it, such as a coordinated recovery, finds none and
    /// makes its own) and returns it emptied.
    pub kept: Arc<Mutex<Vec<Kept>>>,
    /// Shared statistics (byte provenance, sample counts, stage timings).
    pub stats: Arc<LoaderStats>,
    /// Thread counts and queue depth.
    pub config: ExecutorConfig,
}

impl Lane {
    /// Start one sweep over `plan`: spawn its fetch threads and register it
    /// with the prep pool, dropping the batches `skip` names and delivering
    /// the rest into `sink`, the epoch every sweep over `plan` (main or
    /// recovery) shares.
    pub(crate) fn spawn(
        &self,
        epoch: u64,
        plan: Plan,
        skip: Option<Arc<SkipFn>>,
        sink: Arc<dyn PreparedSink>,
    ) -> PrefetchExecutor {
        let threads = self.config.fetch_threads.max(1);
        let depth = self.config.prefetch_depth.max(1);
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| bounded::<Arc<Partial>>(depth)).unzip();
        let (held, gone) = bounded(1);
        let sweep = Arc::new(Sweep {
            lane: self.clone(),
            epoch,
            threads,
            shards: self.config.fetch_shards.max(1),
            cap: self.config.workers.max(1) + threads,
            cells: plan.iter().map(|(_, items)| items.len()).max().unwrap_or(0),
            skip: skip.map(|skip| (skip, plan.iter().map(|_| OnceLock::new()).collect())),
            plan,
            sink,
            _held: held,
        });
        let Kept { mut rings, staged } = self.kept.lock().pop().unwrap_or_default();
        // Registered before any fetch thread sends, so every send's wake
        // finds the sweep.
        let assembler = Assembler::new(receivers, staged, sweep.cap);
        pool::register(Arc::clone(&sweep), assembler);
        rings.resize_with(threads, Ring::default);
        let fetchers = rings.into_iter().zip(senders).enumerate();
        let fetchers = fetchers.map(|(thread, (mut ring, lane_tx))| {
            ring.fit(self.config.fetch_window(), sweep.cells);
            let sweep = Arc::clone(&sweep);
            std::thread::spawn(move || {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| sweep.run(thread, &lane_tx, &mut ring)));
                if let Err(payload) = outcome {
                    sweep.sink.fail(panicked("fetch", payload));
                }
                ring
            })
        });
        let fetchers = fetchers.collect();
        PrefetchExecutor {
            sweep: Arc::as_ptr(&sweep) as usize,
            gone,
            fetchers,
            lane: self.clone(),
        }
    }
}

/// A pool thread's scratch, reused across tasks, sweeps and epochs.
#[derive(Default)]
pub(crate) struct PrepWorker {
    /// The partials of the position of the task at hand, one per fetch
    /// thread.
    parts: Vec<Arc<Partial>>,
    /// The samples of the position in prep, each in its batch slot.
    slots: Vec<Option<PreparedSample>>,
    /// Sample buffers popped for it.
    bufs: Vec<Vec<u8>>,
}

impl PrepWorker {
    /// Make room for positions of up to `cells` items from `parts` fetch
    /// threads before a task is taken: grown as positions came, the
    /// scratch's size would depend on which thread took which task.
    fn fit(&mut self, cells: usize, parts: usize) {
        self.parts.reserve_exact(parts);
        self.slots.reserve_exact(cells);
        self.bufs.reserve_exact(cells);
    }

    /// Prep the `len` samples of the complete position whose partials are
    /// in `parts`, into the buffers in `bufs`, handing every payload it
    /// held the last reference to back to the lane's backend.
    fn position(&mut self, lane: &Lane, epoch: u64, len: usize) -> Vec<PreparedSample> {
        self.slots.clear();
        self.slots.resize_with(len, || None);
        for part in &self.parts {
            // Nobody else takes this lock now: the position has no holes.
            let mut payloads = part.payloads.lock();
            for (cell, payload) in part.cells.iter().zip(payloads.iter_mut()) {
                let raw = payload
                    .take()
                    .expect("a complete position holds every payload");
                let buf = self.bufs.pop().unwrap_or_default();
                let sample = lane.pipeline.prepare_into(epoch, cell.item, &raw, buf);
                self.slots[cell.slot] = Some(sample);
                recycle_if_last(&*lane.backend, raw);
            }
        }
        let samples: Vec<PreparedSample> = self.slots.drain(..).flatten().collect();
        assert_eq!(samples.len(), len, "every item was fetched");
        samples
    }
}

/// A running sweep: its fetch threads and its place in the prep pool.
/// Dropping it joins every thread, so its owner shuts the sink down first:
/// that stops the fetch threads and the pool's takes.  Then it deregisters
/// the sweep, waits until nothing holds it, joins the fetch threads and
/// hands every payload left in their partials back to the backend.
pub(crate) struct PrefetchExecutor {
    /// The sweep's address, its name in the pool: this holds no
    /// reference to it.
    sweep: usize,
    /// Disconnects once nothing holds the sweep any more.
    gone: Receiver<()>,
    fetchers: Vec<JoinHandle<Ring>>,
    lane: Lane,
}

impl Drop for PrefetchExecutor {
    fn drop(&mut self) {
        // Dropping the assembler drops the lane receivers.
        let assembler = pool::deregister(self.sweep);
        let staged = assembler.map(Assembler::into_staged).unwrap_or_default();
        // The sweep's last holders are the pool threads inside it and the
        // fetch threads, which return now that the sink is down and the lane
        // receivers are gone.  Nothing is ever sent on `gone`.
        let _ = self.gone.recv();
        // A panicked thread already reported its error; the Err here is
        // just the resume payload.
        let rings = self.fetchers.drain(..).filter_map(|h| h.join().ok());
        let rings = rings.map(|ring| ring.empty(&*self.lane.backend)).collect();
        self.lane.kept.lock().push(Kept { rings, staged });
    }
}

/// A partial cell's payload is in its partial's `payloads`, or prep took it.
const READY: u8 = 0;
/// A hole nobody has claimed.
const OPEN: u8 = 1;
/// A hole the thread that claimed it is reading (for good, if the read
/// failed: the epoch is over then).
const CLAIMED: u8 = 2;

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
    /// Holes not claimed yet: a reader skips partials without any.
    open: AtomicUsize,
    /// Each cell's payload until prep takes it; a hole's reader puts its
    /// payload here.
    payloads: Mutex<Vec<Option<Arc<Vec<u8>>>>>,
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
        // A plain load first: scanning cells that hold bytes writes nothing.
        let won = state.load(Ordering::Relaxed) == OPEN
            && state
                .compare_exchange(OPEN, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if won {
            self.open.fetch_sub(1, Ordering::Relaxed);
        }
        won
    }

    /// Whether every cell holds its bytes.
    fn complete(&self) -> bool {
        let mut states = self.cells.iter().map(|cell| &cell.state);
        states.all(|state| state.load(Ordering::Acquire) == READY)
    }

    /// Claim one hole nobody has claimed and read it from `lane`'s backend:
    /// `None` when there is none left to claim.
    fn read_one(&self, lane: &Lane) -> Option<Result<(), CoordlError>> {
        let cell = (0..self.cells.len()).find(|&c| self.claim(c))?;
        let Cell { item, size, .. } = self.cells[cell];
        let read = read_hole(&*lane.backend, &lane.stats, item, size);
        Some(read.map(|raw| {
            lane.stats.record_deferred_read();
            let mut payloads = self.payloads.lock();
            payloads[cell] = Some(raw);
            self.cells[cell].state.store(READY, Ordering::Release);
        }))
    }
}

/// One fetch thread's partials, reused round-robin across positions and
/// epochs.  Only the ring's thread clones the partials (into its lane), so
/// one nobody else holds stays free until the thread hands it over again.
#[derive(Default)]
pub(crate) struct Ring {
    partials: Vec<Arc<Partial>>,
    next: usize,
}

impl Ring {
    /// Grow to at least `len` partials, each with room for `cells` cells.
    fn fit(&mut self, len: usize, cells: usize) {
        let len = len.max(self.partials.len());
        self.partials.resize_with(len, Arc::default);
        for partial in &mut self.partials {
            if let Some(partial) = Arc::get_mut(partial) {
                partial.cells.reserve_exact(cells);
                partial.payloads.get_mut().reserve_exact(cells);
            }
        }
    }

    /// The index of the next partial nobody else holds.  The ring holds
    /// one more than its lane, the staged positions and the pool tasks
    /// can; should it not, it grows.
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
    fn empty(mut self, backend: &dyn FetchBackend) -> Self {
        for partial in &mut self.partials {
            if let Some(partial) = Arc::get_mut(partial) {
                partial.reset(0, false, backend);
            }
        }
        self
    }
}

/// One sweep over a plan: what its fetch threads read, and what the prep
/// pool works on.  Nothing in it is a wait point — a fetch thread blocks
/// only on its own lane.
pub(crate) struct Sweep {
    lane: Lane,
    epoch: u64,
    threads: usize,
    shards: usize,
    /// Staged positions plus pool tasks in flight the sweep may have at
    /// once: `workers + fetch_threads`.
    pub(crate) cap: usize,
    /// Items of the plan's largest batch.
    cells: usize,
    plan: Plan,
    /// The batch filter with one decision cell per plan position.
    skip: Option<(Arc<SkipFn>, Vec<OnceLock<bool>>)>,
    sink: Arc<dyn PreparedSink>,
    /// Dropped with the sweep, which disconnects its executor's `gone`.
    _held: Sender<()>,
}

impl Sweep {
    /// Which fetch thread owns `item`: the thread that executes every cache
    /// transaction for `item`'s shard.  Routing MUST match the sharded
    /// tier's (`dcache::shard_of_key`) so shard ownership and lock ownership
    /// coincide.
    fn owner(&self, item: ItemId) -> usize {
        dcache::shard_of_key(item, self.shards) % self.threads
    }

    /// Fetch thread `thread`'s sweep over the whole plan: one partial per
    /// position down `lane`, until the plan ends, a fetch fails, the epoch
    /// shuts down or the sweep is deregistered.  Then, while the epoch
    /// runs, it reads the holes its partials still have.
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
        while sink.is_live() && self.read_hole(thread, ring) {}
    }

    /// Hand partial `free` down `lane`, reading holes while the lane is
    /// full and waiting only once there is none, then wake a pool thread
    /// for it.  `false` when the thread must stop: the sweep was
    /// deregistered, the epoch shut down or a hole read failed it.
    fn hand_over(
        &self,
        thread: usize,
        lane: &Sender<Arc<Partial>>,
        ring: &Ring,
        free: usize,
    ) -> bool {
        let mut unsent = Arc::clone(&ring.partials[free]);
        let sent = loop {
            match lane.try_send(unsent) {
                Err(TrySendError::Full(partial)) if self.read_hole(thread, ring) => {
                    unsent = partial
                }
                Err(TrySendError::Full(partial)) if self.sink.is_live() => {
                    let stall = Instant::now();
                    let sent = lane.send(partial).is_ok();
                    let stats = &self.lane.stats;
                    stats.record_fetch_stall_for(thread, stall.elapsed());
                    break sent;
                }
                outcome => break outcome.is_ok(),
            }
        };
        if sent {
            pool::wake();
        }
        sent
    }

    /// Claim and read one unclaimed hole of `ring`, from the oldest
    /// position that has one, wherever it waits.  `false` when there is
    /// none, or when the read failed (the epoch is failed then).
    fn read_hole(&self, thread: usize, ring: &Ring) -> bool {
        loop {
            let open = ring
                .partials
                .iter()
                .filter(|p| p.open.load(Ordering::Relaxed) > 0);
            let Some(oldest) = open.min_by_key(|p| p.pos) else {
                return false;
            };
            let busy = Instant::now();
            let Some(read) = oldest.read_one(&self.lane) else {
                continue; // a pool thread claimed the rest meanwhile
            };
            self.lane
                .stats
                .record_fetch_busy_for(thread, busy.elapsed());
            if let Err(err) = read {
                self.sink.fail(err);
                return false;
            }
            // Its position may be complete now.
            if oldest.open.load(Ordering::Relaxed) == 0 {
                pool::wake();
            }
            return true;
        }
    }

    /// Run `task`, which [`Assembler::next`] handed out with its partials in
    /// `prep`.  A panic fails the epoch as a `"prep"` one.
    pub(crate) fn work(&self, task: Task, prep: &mut PrepWorker) {
        let worked = catch_unwind(AssertUnwindSafe(|| match task {
            Task::Prep(pos) => self.prep(pos, prep),
            Task::Read => self.read_holes(prep),
        }));
        if let Err(payload) = worked {
            prep.parts.clear();
            self.sink.fail(panicked("prep", payload));
        }
        // Buffers popped for a position that failed go back to its lane.
        if !prep.bufs.is_empty() {
            self.lane.spares.push(prep.bufs.drain(..));
        }
    }

    /// Prep complete position `pos` and publish it: prep busy time.
    fn prep(&self, pos: usize, prep: &mut PrepWorker) {
        let (lane, stats) = (&self.lane, &*self.lane.stats);
        let (index, items) = &self.plan[pos];
        let busy = Instant::now();
        let made = lane.spares.pop_n(items.len(), &mut prep.bufs);
        let samples = prep.position(lane, self.epoch, items.len());
        // Let go of the partials before publishing: their fetch thread
        // reuses each once nobody else holds it.
        prep.parts.clear();
        if made > 0 {
            let capacity = samples.iter().map(|s| s.data.capacity()).max();
            lane.spares.fill_window(capacity.unwrap_or(0));
        }
        stats.record_prepared(samples.len() as u64);
        stats.record_prep_busy(busy.elapsed());
        self.sink.publish(Minibatch {
            epoch: self.epoch,
            index: *index,
            samples,
        });
    }

    /// Claim and read every hole nobody has claimed in the partials in
    /// `prep`: prep stall time, the pool fetching instead of prepping.
    fn read_holes(&self, prep: &mut PrepWorker) {
        let stall = Instant::now();
        let reads = prep
            .parts
            .iter()
            .flat_map(|part| std::iter::from_fn(|| part.read_one(&self.lane)));
        let failed = reads.filter_map(Result::err).next();
        prep.parts.clear();
        self.lane.stats.record_prep_stall(stall.elapsed());
        if let Some(err) = failed {
            self.sink.fail(err);
        }
    }
}

/// What a pool thread does for a sweep next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Task {
    /// Prep and publish this plan position, whose cells all hold bytes.
    Prep(usize),
    /// Read the unclaimed holes of a staged position.
    Read,
}

/// The receiving end of every thread lane of one sweep, and the positions
/// received and not in prep yet.  The prep pool keeps it, under its lock;
/// dropping it drops the lane receivers, which wakes any fetch thread
/// parked on a full lane.
pub(crate) struct Assembler {
    lanes: Vec<Receiver<Arc<Partial>>>,
    /// The staged positions in plan order, each a run of one partial per
    /// lane, in lane order; the last run is short while its position is
    /// still being received.
    staged: Vec<Arc<Partial>>,
    /// The plan position being received, or the next one to.
    cursor: usize,
}

impl Assembler {
    /// An assembler of `lanes` that stages into `staged`, with room for
    /// `cap` positions.
    fn new(lanes: Vec<Receiver<Arc<Partial>>>, mut staged: Vec<Arc<Partial>>, cap: usize) -> Self {
        staged.reserve_exact(cap * lanes.len());
        Assembler {
            lanes,
            staged,
            cursor: 0,
        }
    }

    /// Drop the lane receivers and the staged partials; the staged list,
    /// empty, is for the lane's next sweep.
    fn into_staged(self) -> Vec<Arc<Partial>> {
        let mut staged = self.staged;
        staged.clear();
        staged
    }

    /// The next task for a pool thread in `sweep`, which has `tasks` in
    /// flight, with its partials put in `prep`: prep the first complete
    /// staged position if the sink has room for its batch; else — while
    /// staged positions and tasks are fewer than the sweep's cap — read the
    /// unclaimed holes of the oldest staged position with any, if the caller
    /// `may_read`, or else receive the next position from the lanes and
    /// look again.  Only the last staged position may lack room: no
    /// position is received after it until it has some.  Never waits:
    /// `None` when a lane's next partial is not there yet, and for good once
    /// the plan is exhausted or a lane ended early (its thread failed or saw
    /// the shutdown).  Called under the pool's lock.
    pub(crate) fn next(
        &mut self,
        sweep: &Sweep,
        prep: &mut PrepWorker,
        tasks: usize,
        may_read: bool,
    ) -> Option<Task> {
        let (plan, sink, t) = (&sweep.plan, &*sweep.sink, sweep.threads);
        if !sink.is_live() {
            return None;
        }
        prep.fit(sweep.cells, t);
        let room = |part: &Arc<Partial>| sink.has_room(plan[part.pos].0);
        loop {
            // Only the first complete position can have room if any has.
            let mut positions = self.staged.chunks_exact(t);
            let complete = positions.position(|parts| parts.iter().all(|p| p.complete()));
            if let Some(at) = complete.map(|i| i * t).filter(|&at| room(&self.staged[at])) {
                let pos = self.staged[at].pos;
                prep.parts.extend(self.staged.drain(at..at + t));
                return Some(Task::Prep(pos));
            }
            if self.staged.len().div_ceil(t) + tasks >= sweep.cap {
                return None;
            }
            let mut positions = self.staged.chunks_exact(t);
            let open = |part: &Arc<Partial>| part.open.load(Ordering::Relaxed) > 0;
            if let Some(parts) = positions.find(|parts| may_read && parts.iter().any(open)) {
                prep.parts.extend(parts.iter().cloned());
                return Some(Task::Read);
            }
            let receiving = !self.staged.len().is_multiple_of(t);
            let done = || self.cursor == plan.len() || self.staged.last().is_some_and(|p| !room(p));
            if !receiving && done() || !self.receive(t) {
                return None;
            }
            let received = self.staged.len() - t;
            if self.staged[received..].iter().any(|part| part.skipped) {
                self.staged.truncate(received);
            }
        }
    }

    /// Receive the rest of position `cursor` from the `t` lanes, in lane
    /// order: `false` when a lane has no partial for it yet, or ended —
    /// then for every later call too, and the other receivers are dropped,
    /// which wakes a fetch thread parked on its lane.
    fn receive(&mut self, t: usize) -> bool {
        while let Some(lane) = self.lanes.get(self.staged.len() % t) {
            match lane.try_recv() {
                Ok(partial) => {
                    debug_assert_eq!(partial.pos, self.cursor, "lanes are FIFO in plan order");
                    self.staged.push(partial);
                    if self.staged.len().is_multiple_of(t) {
                        self.cursor += 1;
                        return true;
                    }
                }
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => break,
            }
        }
        self.staged.clear();
        self.lanes.clear();
        false
    }
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::Recycler;
    use crate::coordinator::{EpochSession, JobEpochIterator};
    use parking_lot::Condvar;
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

    /// A lane of shape `config` over `fetch`, recording into `stats`.
    fn lane(fetch: Arc<FetchFn>, stats: &Arc<LoaderStats>, config: ExecutorConfig) -> Lane {
        Lane {
            fetch,
            backend: Arc::new(Recycler::default()),
            pipeline: pipeline(),
            spares: Arc::default(),
            kept: Arc::default(),
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
        fn has_room(&self, _index: usize) -> bool {
            true
        }

        fn publish(&self, mb: Minibatch) {
            let _ = self.send(mb);
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
                let config = shape(workers, depth, 1);
                let stream = ordered(plan(9, 4), byte_fetch(), &stats, config);
                let indices: Vec<usize> = stream.map(|mb| mb.unwrap().index).collect();
                let what = format!("w={workers} d={depth}");
                assert_eq!(indices, (0..9).collect::<Vec<_>>(), "{what}");
                assert_eq!(stats.samples_prepared(), 36, "{what}");
                assert_eq!(stats.samples_delivered(), 36, "{what}");
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
                // Smallest window: the pool soon has no position it may
                // take, and the fetch threads park on their full lanes.
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
                Ok(Fetched::Bytes(Arc::new(vec![1u8; 8])))
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
                Ok(Fetched::Bytes(Arc::new(vec![0u8; 4])))
            });
            let (out_tx, out_rx) = bounded::<Minibatch>(16);
            let executor = lane(fetch, &Arc::default(), shape(2, 4, fetch_threads)).spawn(
                0,
                plan(6, 2),
                Some(Arc::new(|index| index % 2 == 1)),
                Arc::new(out_tx),
            );
            // The sweep holds the sink until it is dropped: take what the
            // three kept batches publish, then check nothing else came.
            let mut indices: Vec<usize> = (0..3).map(|_| out_rx.recv().unwrap().index).collect();
            drop(executor);
            assert!(
                out_rx.try_recv().is_err(),
                "f={fetch_threads}: one batch too many"
            );
            indices.sort_unstable();
            assert_eq!(indices, vec![0, 2, 4], "f={fetch_threads}");
            assert_eq!(fetched.load(Ordering::SeqCst), 6, "3 batches x 2 items");
        }
    }

    #[test]
    fn fetch_pool_delivers_the_serial_stream_for_any_thread_count() {
        let run = |fetch_threads: usize| {
            let stats = Arc::new(LoaderStats::default());
            let config = shape(2, 3, fetch_threads);
            let stream = ordered(plan(11, 4), byte_fetch(), &stats, config);
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
            Ok(Fetched::Bytes(bytes))
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
                Ok(Fetched::Bytes(Arc::new(vec![2u8; 8])))
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
        // staging window's `depth` (prepped or in prep: the pool takes no
        // position the window has no room for), the one position assembled
        // and waiting for that room, each lane's `depth` positions and the
        // one parked in `send` — whatever the worker and fetch-thread counts.
        let (depth, per_batch, batches) = (2, 4, 40);
        for (workers, fetch_threads) in [(1, 1), (1, 3), (3, 2)] {
            let what = format!("w={workers} f={fetch_threads}");
            let fetched = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&fetched);
            let fetch: Arc<FetchFn> = Arc::new(move |item| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(Fetched::Bytes(Arc::new(vec![item as u8; 8])))
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
                ahead <= (2 * depth + 2) * per_batch,
                "{what}: {ahead} items fetched beyond the consumed batch"
            );
            // Resuming the consumer still delivers the whole plan in order.
            let rest: Vec<usize> = stream.map(|mb| mb.unwrap().index).collect();
            assert_eq!(rest, (1..batches).collect::<Vec<_>>(), "{what}");
            assert_eq!(fetched.load(Ordering::SeqCst), batches * per_batch);
        }
    }

    /// Bytes per item of [`HoleBackend`].
    const SIZE: u64 = 16;

    /// A backend whose every read returns a fresh buffer filled with the
    /// read's serial number (with `by_item`, the item's id), and which
    /// records the number of every buffer handed back.  Reads of the items
    /// `gated` picks wait until [`HoleBackend::open`], counting the prep
    /// pool's threads among them; reads of `failing` fail; every read takes
    /// at least `delay`.
    #[derive(Default)]
    pub(crate) struct HoleBackend {
        reads: AtomicUsize,
        returned: Mutex<Vec<u64>>,
        by_item: bool,
        gated: Option<fn(ItemId) -> bool>,
        failing: Option<ItemId>,
        entered: AtomicBool,
        /// Prep pool threads waiting at the gate.
        pool_readers: AtomicUsize,
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
            if self.gated.is_some_and(|gated| gated(item)) {
                self.entered.store(true, Ordering::SeqCst);
                let pool = std::thread::current().name() == Some("coordl-prep");
                let mut open = self.gate.0.lock();
                if pool && !*open {
                    self.pool_readers.fetch_add(1, Ordering::SeqCst);
                }
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

    /// A lane of shape `config` whose fetch path leaves the items `hole`
    /// picks as holes in `backend`.
    fn hole_lane(
        backend: &Arc<HoleBackend>,
        hole: fn(ItemId) -> bool,
        stats: &Arc<LoaderStats>,
        config: ExecutorConfig,
    ) -> Lane {
        Lane {
            backend: Arc::clone(backend) as Arc<dyn FetchBackend>,
            ..lane(hole_fetch(backend, hole), stats, config)
        }
    }

    /// A sweep of one fetch thread over `plan`, reading holes from
    /// `backend`, that no pool serves: the tests drive it by hand.
    fn stage(plan: Plan, backend: &Arc<HoleBackend>, sink: Arc<dyn PreparedSink>) -> Sweep {
        let cells = plan.iter().map(|(_, items)| items.len()).max().unwrap_or(0);
        Sweep {
            lane: hole_lane(backend, |_| true, &Arc::default(), shape(1, 1, 1)),
            epoch: 0,
            threads: 1,
            shards: 1,
            cap: 2,
            cells,
            plan,
            skip: None,
            sink,
            _held: bounded(1).0,
        }
    }

    /// A ring of one partial filled with `items` at slots 0.., the items
    /// `hole` picks as holes, the rest read inline from `backend`.
    fn filled(backend: &Arc<HoleBackend>, items: &[ItemId], hole: fn(ItemId) -> bool) -> Ring {
        let mut ring = Ring::default();
        ring.fit(1, items.len());
        let fetch = hole_fetch(backend, hole);
        let partial = Arc::get_mut(&mut ring.partials[0]).unwrap();
        partial.reset(0, false, &**backend);
        for (slot, &item) in items.iter().enumerate() {
            partial.push(slot, item, fetch(item).unwrap());
        }
        ring
    }

    /// A sink that keeps what it is handed: published batches, failures.
    /// It has room for the batches below `room`.
    pub(crate) struct Recording {
        published: Mutex<Vec<Minibatch>>,
        failures: Mutex<Vec<CoordlError>>,
        room: AtomicUsize,
    }

    /// A [`Recording`] sink with room for the batches below `room`.
    pub(crate) fn recording(room: usize) -> Arc<Recording> {
        Arc::new(Recording {
            published: Mutex::default(),
            failures: Mutex::default(),
            room: AtomicUsize::new(room),
        })
    }

    impl PreparedSink for Recording {
        fn has_room(&self, index: usize) -> bool {
            index < self.room.load(Ordering::SeqCst)
        }

        fn publish(&self, mb: Minibatch) {
            self.published.lock().push(mb);
        }

        fn fail(&self, err: CoordlError) {
            self.failures.lock().push(err);
        }

        fn is_live(&self) -> bool {
            self.failures.lock().is_empty()
        }
    }

    /// Indices of the batches `sink` was handed, in the order it was.
    fn published(sink: &Recording) -> Vec<usize> {
        sink.published.lock().iter().map(|mb| mb.index).collect()
    }

    #[test]
    fn holes_deliver_the_stream_of_inline_reads() {
        // Every other item a hole: the delivered stream is the one a fetch
        // path that reads everything inline delivers, at any shape, and
        // each item is read exactly once.
        let run = |hole: fn(ItemId) -> bool, workers: usize, fetch_threads: usize| {
            let backend = Arc::new(HoleBackend::default());
            let stats = Arc::new(LoaderStats::default());
            let config = shape(workers, 2, fetch_threads);
            let lane = hole_lane(&backend, hole, &stats, config);
            let stream = EpochSession::start(&lane, 1, 2, None, 3, plan(12, 5)).into_consumer();
            let items: Vec<Vec<ItemId>> = stream
                .map(|mb| mb.unwrap().samples.iter().map(|s| s.item).collect())
                .collect();
            assert_eq!(backend.reads.load(Ordering::SeqCst), 60);
            assert_eq!(backend.returned(), (0..60).collect::<Vec<u64>>());
            (items, stats.deferred_reads())
        };
        let (inline, none) = run(|_| false, 1, 1);
        assert_eq!(none, 0);
        for workers in [1, 3] {
            for fetch_threads in [1, 3] {
                let what = format!("w={workers} f={fetch_threads}");
                let (deferred, holes) = run(|item| item % 2 == 0, workers, fetch_threads);
                assert_eq!(deferred, inline, "{what}");
                assert_eq!(holes, 30, "{what}");
            }
        }
    }

    #[test]
    fn full_lanes_deliver_the_same_stream_with_holes_at_any_shape() {
        // Two of every three items holes, the smallest lanes: fetch threads
        // find them full constantly and read holes of queued positions while
        // the pool reads the rest.  The delivered bytes, the counters and
        // the items read are the same at every shape.
        let run = |workers: usize, fetch_threads: usize| {
            let backend = Arc::new(HoleBackend {
                by_item: true,
                ..HoleBackend::default()
            });
            let stats = Arc::new(LoaderStats::default());
            let config = shape(workers, 1, fetch_threads);
            let lane = hole_lane(&backend, |item| item % 3 != 0, &stats, config);
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
        let reference = run(1, 1);
        assert_eq!(reference.1, (144, 144, 96 * SIZE, 96));
        for (workers, fetch_threads) in [(1, 3), (2, 1), (2, 3)] {
            let observed = run(workers, fetch_threads);
            assert!(observed == reference, "w={workers} f={fetch_threads}");
        }
    }

    #[test]
    fn the_assembler_holds_a_position_until_its_lanes_and_the_sink_are_ready() {
        // Two lanes; only the first has position 0's partial.  The
        // assembler stages it and returns nothing, never waiting on the
        // second lane.  Once that lane has its partial too, the position's
        // hole yields a read task only to a caller that may read, and the
        // complete position is handed out for prep only once the sink has
        // room for batch 0.  Position 1 is not received while position 0
        // waits for that room.
        let backend = Arc::new(HoleBackend::default());
        let first = filled(&backend, &[0], |_| true);
        let mut second = Ring::default();
        second.fit(2, 1);
        for (pos, partial) in second.partials.iter_mut().enumerate() {
            let partial = Arc::get_mut(partial).unwrap();
            partial.reset(pos, false, &*backend);
            let item = 2 * pos as ItemId + 1;
            let bytes = item.to_le_bytes().repeat(2);
            partial.push(1, item, Fetched::Bytes(Arc::new(bytes)));
        }
        let (tx0, rx0) = bounded(2);
        let (tx1, rx1) = bounded(2);
        let sink = recording(0);
        let stage = Sweep {
            threads: 2,
            ..stage(plan(2, 2), &backend, sink.clone())
        };
        let mut assembler = Assembler::new(vec![rx0, rx1], Vec::new(), stage.cap);
        let mut prep = PrepWorker::default();
        assert!(tx0.try_send(Arc::clone(&first.partials[0])).is_ok());
        let taken = assembler.next(&stage, &mut prep, 0, true);
        assert_eq!(taken, None, "the second partial is not there");
        assert_eq!(assembler.staged.len(), 1);
        for partial in &second.partials {
            assert!(tx1.try_send(Arc::clone(partial)).is_ok());
        }
        let taken = assembler.next(&stage, &mut prep, 0, false);
        assert_eq!(taken, None, "a hole to read, and no reader");
        assert_eq!(
            (assembler.staged.len(), assembler.cursor),
            (2, 1),
            "position 1 waits"
        );
        assert_eq!(assembler.next(&stage, &mut prep, 0, true), Some(Task::Read));
        assert_eq!(prep.parts.len(), 2, "the read task holds both partials");
        stage.work(Task::Read, &mut prep);
        assert!(prep.parts.is_empty(), "the partials are let go of");
        let taken = assembler.next(&stage, &mut prep, 0, true);
        assert_eq!(taken, None, "no room for batch 0");
        assert_eq!(assembler.cursor, 1, "position 1 still waits");
        sink.room.store(1, Ordering::SeqCst);
        assert_eq!(
            assembler.next(&stage, &mut prep, 0, true),
            Some(Task::Prep(0))
        );
        stage.work(Task::Prep(0), &mut prep);
        let items: Vec<ItemId> = sink.published.lock()[0]
            .samples
            .iter()
            .map(|s| s.item)
            .collect();
        assert_eq!(items, vec![0, 1]);
        assert!(prep.parts.is_empty(), "the partials are let go of");
        // Position 1 has only the second lane's partial so far.
        assert_eq!(assembler.next(&stage, &mut prep, 0, true), None);
        assert_eq!((assembler.staged.len(), assembler.cursor), (0, 1));
    }

    #[test]
    fn at_most_one_staged_position_waits_for_room_in_the_sink() {
        // Four complete positions and a cap of six: only the sink's room
        // holds the assembler back.  It stages the first position without
        // room and receives none after it until that one has room.
        let sink = recording(0);
        let (sweep, mut assembler, _ring) = staged_sweep(&Arc::default(), &sink, 4, 6, |_| false);
        let mut prep = PrepWorker::default();
        let room = |n| sink.room.store(n, Ordering::SeqCst);
        assert_eq!(assembler.next(&sweep, &mut prep, 0, true), None);
        assert_eq!(assembler.staged.len(), 1, "batch 0 waits for room");
        room(1);
        assert_eq!(
            assembler.next(&sweep, &mut prep, 0, true),
            Some(Task::Prep(0))
        );
        assert_eq!(assembler.next(&sweep, &mut prep, 1, true), None);
        assert_eq!(assembler.staged[0].pos, 1, "batch 1 waits for room");
        assert_eq!(assembler.staged.len(), 1, "batch 2 is not received");
        room(4);
        for pos in 1..4 {
            prep.parts.clear();
            let task = assembler.next(&sweep, &mut prep, 0, true);
            assert_eq!(task, Some(Task::Prep(pos)));
        }
    }

    #[test]
    fn a_failed_hole_read_in_prep_surfaces_once_as_backend_io() {
        // Direct: a pool thread's read task reads the failing hole.
        let backend = Arc::new(HoleBackend {
            failing: Some(2),
            ..HoleBackend::default()
        });
        let ring = filled(&backend, &[0, 1, 2, 3], |item| item >= 2);
        let (tx, rx) = bounded(1);
        assert!(tx.try_send(Arc::clone(&ring.partials[0])).is_ok());
        let sink = recording(usize::MAX);
        let stage = stage(plan(1, 4), &backend, sink.clone());
        let mut assembler = Assembler::new(vec![rx], Vec::new(), stage.cap);
        let mut prep = PrepWorker::default();
        assert_eq!(assembler.next(&stage, &mut prep, 0, true), Some(Task::Read));
        stage.work(Task::Read, &mut prep);
        assert!(sink.published.lock().is_empty());
        let failures = sink.failures.lock();
        assert_eq!(failures.len(), 1, "surfaced exactly once");
        assert!(matches!(
            failures[0],
            CoordlError::BackendIo { item: 2, .. }
        ));
        drop(failures);
        assert!(prep.parts.is_empty(), "the partials are let go of");
        assert_eq!(
            assembler.next(&stage, &mut prep, 0, true),
            None,
            "the epoch is over"
        );
        // Through a stream: the error is the last thing it yields, once.
        for (workers, fetch_threads) in [(1, 1), (2, 3)] {
            let backend = Arc::new(HoleBackend {
                failing: Some(37),
                ..HoleBackend::default()
            });
            let config = shape(workers, 1, fetch_threads);
            let lane = hole_lane(&backend, |item| item % 2 == 1, &Arc::default(), config);
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
    fn all_but_one_pool_thread_at_most_wait_on_a_sweeps_backend() {
        // Every item a hole whose read waits at the gate, lanes deeper than
        // the plan: each read task the pool takes parks one pool thread at
        // the gate.  However long the gate stays shut, no more than all but
        // one of the pool's threads get there, nor more than the sweep's
        // cap less the staged position they read; the rest of the holes
        // wait for the sweep's fetch threads, which read them once the gate
        // opens.
        let pool = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (workers, fetch_threads) in [(1, 1), (3, 2)] {
            let what = format!("w={workers} f={fetch_threads}");
            let backend = Arc::new(HoleBackend {
                gated: Some(|_| true),
                ..HoleBackend::default()
            });
            let config = shape(workers, 16, fetch_threads);
            let lane = hole_lane(&backend, |_| true, &Arc::default(), config);
            let stream = EpochSession::start(&lane, 1, 16, None, 0, plan(16, 4)).into_consumer();
            // How the holes split between read tasks decides how many
            // staged positions they hold, so only the bound is exact.
            let readers = (workers + fetch_threads - 1).min(pool - 1);
            let deadline = Instant::now() + Duration::from_secs(30);
            while backend.pool_readers.load(Ordering::SeqCst) < readers.min(1) {
                assert!(Instant::now() < deadline, "{what}: the pool never read");
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(50));
            let at_gate = backend.pool_readers.load(Ordering::SeqCst);
            backend.open();
            assert!(
                at_gate >= readers.min(1) && at_gate <= readers,
                "{what}: {at_gate}"
            );
            assert_eq!(
                stream.map(|mb| mb.unwrap().len()).sum::<usize>(),
                64,
                "{what}"
            );
        }
    }

    /// A sweep over `positions` batches of one item each into `sink`,
    /// reading holes from `backend`, at most `cap` positions staged or in
    /// tasks, that no pool serves, and an assembler whose lane holds every
    /// position's partial — a hole where `hole` picks the item — with the
    /// ring that keeps them: tests drive its tasks by hand.
    pub(crate) fn staged_sweep(
        backend: &Arc<HoleBackend>,
        sink: &Arc<Recording>,
        positions: usize,
        cap: usize,
        hole: fn(ItemId) -> bool,
    ) -> (Arc<Sweep>, Assembler, Ring) {
        let sweep = Sweep {
            cap,
            ..stage(plan(positions, 1), backend, sink.clone())
        };
        let fetch = hole_fetch(backend, hole);
        let mut ring = Ring::default();
        ring.fit(positions, 1);
        let (tx, rx) = bounded(positions);
        for (pos, partial) in ring.partials.iter_mut().enumerate() {
            let part = Arc::get_mut(partial).unwrap();
            part.reset(pos, false, &**backend);
            part.push(0, pos as ItemId, fetch(pos as ItemId).unwrap());
            assert!(tx.try_send(Arc::clone(partial)).is_ok());
        }
        (
            Arc::new(sweep),
            Assembler::new(vec![rx], Vec::new(), cap),
            ring,
        )
    }

    /// Partials `assembler` holds staged.
    pub(crate) fn staged(assembler: &Assembler) -> usize {
        assembler.staged.len()
    }

    /// What `sweep`'s fetch thread does with its lane full: read one hole
    /// of `ring`.
    pub(crate) fn read_one_hole(sweep: &Sweep, ring: &Ring) -> bool {
        sweep.read_hole(0, ring)
    }

    #[test]
    fn fetch_and_prep_racing_for_one_hole_read_it_exactly_once() {
        // A fetch thread and a pool thread's read task race for one hole:
        // exactly one reads it, and the other neither reads nor waits.
        let backend = Arc::new(HoleBackend::default());
        let (sink, _) = bounded::<Minibatch>(1);
        let stage = stage(plan(1, 1), &backend, Arc::new(sink));
        let barrier = Barrier::new(2);
        let mut by_fetch = 0;
        let mut ring = Ring::default();
        for round in 0..10_000u64 {
            ring = filled(&backend, &[round], |_| true);
            let fetched = std::thread::scope(|s| {
                let fetch = s.spawn(|| {
                    barrier.wait();
                    stage.read_hole(0, &ring)
                });
                let mut prep = PrepWorker::default();
                prep.parts.push(Arc::clone(&ring.partials[0]));
                barrier.wait();
                stage.work(Task::Read, &mut prep);
                fetch.join().unwrap()
            });
            assert!(ring.partials[0].complete(), "round {round}");
            by_fetch += usize::from(fetched);
        }
        drop(ring);
        assert_eq!(backend.reads.load(Ordering::SeqCst), 10_000);
        assert_eq!(stage.lane.stats.deferred_reads(), 10_000);
        assert!(by_fetch <= 10_000);
    }

    #[test]
    fn a_complete_position_is_prepped_while_an_earlier_ones_hole_is_read() {
        // The fetch thread is held inside the read of position 0's hole;
        // a pool thread preps and publishes the complete position 1 behind
        // it meanwhile, and finds no task in position 0 — nothing to read
        // there, and nothing to wait for — until the read lands.
        let backend = Arc::new(HoleBackend {
            gated: Some(|item| item == 0),
            ..HoleBackend::default()
        });
        let sink = recording(usize::MAX);
        let (sweep, mut assembler, ring) = staged_sweep(&backend, &sink, 2, 4, |item| item == 0);
        let mut prep = PrepWorker::default();
        std::thread::scope(|s| {
            let fetch = s.spawn(|| read_one_hole(&sweep, &ring));
            while !backend.entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            assert_eq!(
                assembler.next(&sweep, &mut prep, 0, true),
                Some(Task::Prep(1))
            );
            sweep.work(Task::Prep(1), &mut prep);
            assert_eq!(published(&sink), [1]);
            assert_eq!(assembler.next(&sweep, &mut prep, 0, true), None);
            assert!(!fetch.is_finished(), "the hole's read is still held");
            backend.open();
            assert!(fetch.join().unwrap());
        });
        assert_eq!(
            assembler.next(&sweep, &mut prep, 0, true),
            Some(Task::Prep(0))
        );
        sweep.work(Task::Prep(0), &mut prep);
        assert_eq!(published(&sink), [1, 0]);
        assert_eq!(backend.returned(), [0, 1]);
    }

    #[test]
    fn dropping_a_stream_with_open_and_in_flight_holes_hands_every_payload_back_once() {
        for (workers, fetch_threads) in [(1, 1), (3, 1), (1, 3), (3, 3)] {
            let what = format!("w={workers} f={fetch_threads}");
            for _ in 0..4 {
                let backend = Arc::new(HoleBackend {
                    delay: Duration::from_micros(200),
                    ..HoleBackend::default()
                });
                let config = shape(workers, 1, fetch_threads);
                let hole = |item| item % 3 != 0;
                let lane = hole_lane(&backend, hole, &Arc::default(), config);
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
