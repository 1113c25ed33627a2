//! Coordinated prep: one fetch + prep sweep per epoch shared by all
//! concurrent hyper-parameter-search jobs (§4.3) — and the delivery path of
//! every session stream.
//!
//! The engine here ([`EpochSession`], [`JobEpochIterator`]) is what every
//! [`Session`](crate::Session) stream runs on.  In
//! [`Mode::Coordinated`](crate::Mode) all jobs of an epoch share **one
//! prefetching executor** (the crate's `executor` module): its fetch stage
//! sweeps the epoch's batches in training order per cache shard (so the
//! shared cache tier sees a deterministic access sequence at any
//! `fetch_threads`) and the process's prep pool pre-processes them in
//! parallel, publishing each prepared minibatch into the [`StagingArea`]
//! exactly once — the cache-once-serve-all invariant.  Every job then
//! consumes the *entire* epoch — every minibatch exactly once — through its
//! [`JobEpochIterator`].  A single-mode stream, and each partitioned node's
//! stream, is the same engine with one consumer: a staging window of
//! `prefetch_depth`, no kill switches, no failure detector, and the stream
//! owns its epoch.
//!
//! **Failures.**  A stage thread's failure, in the main sweep or a recovery
//! sweep, is recorded on the epoch and shuts its staging area down, which
//! wakes every consumer blocked in `take`.  Each consumer takes what is
//! already staged for it, then returns that typed error once, then `None`.
//!
//! For failure attribution each minibatch still *belongs* to a job: batch
//! `i` is job `i % num_jobs`'s responsibility (its "shard"), and per-shard
//! watermarks track the contiguous prefix already published.  When a job is
//! killed mid-epoch ([`EpochSession::inject_failure`]) its shard's batches
//! stop flowing; a consumer that times out waiting identifies the dead
//! shard and spawns a *recovery executor* — one more sweep over the same
//! plan, through the same lane and sink, that keeps exactly the dead shard's
//! batches from its watermark on (mirroring §4.3's "Handling job failures
//! and terminations").

use crate::error::CoordlError;
use crate::executor::{Lane, Plan, PrefetchExecutor, PreparedSink, SkipFn};
use crate::minibatch::Minibatch;
use crate::pool;
use crate::staging::{StagingArea, TakeError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Contiguous-published tracking for one shard: the prep pool publishes a
/// shard's batches slightly out of order, but recovery must resume from a
/// position below which *everything* is durably published.
struct ShardProgress {
    /// Lowest shard position not yet published.
    next: usize,
    /// Which shard positions were published, one flag per position of the
    /// plan, made with the epoch: a set of the positions published ahead
    /// of `next` would allocate whenever prep happened to publish out of
    /// order, a count that depends on thread timing alone.
    done: Vec<bool>,
}

/// What one epoch's consumers and executors, main and recovery, share: the
/// plan, the lane, the staging area, the first failure and the
/// failure-detection bookkeeping.
struct EpochState {
    epoch: u64,
    /// The epoch's plan; batch `i` belongs to shard (job) `i % num_jobs`.
    plan: Plan,
    lane: Lane,
    staging: Arc<StagingArea>,
    /// How long a consumer waits before suspecting a dead producer.  `None`
    /// for a one-consumer stream, which has no peers to recover it: its
    /// `take` waits until the batch is published, the epoch fails or it
    /// shuts down, so a slow stream never starts a recovery sweep.
    take_timeout: Option<Duration>,
    /// The first failure any stage thread of the epoch recorded.
    failure: OnceLock<CoordlError>,
    /// The main sweep, then any recovery sweeps; `None` once the epoch is
    /// torn down, after which none is started.
    sweeps: Mutex<Option<Vec<PrefetchExecutor>>>,
    /// Out-of-order publish tracking per shard; `ShardProgress::next` is
    /// the contiguous published prefix recovery resumes from.
    progress: Vec<Mutex<ShardProgress>>,
    /// Kill switches set by `inject_failure` to simulate a job being
    /// terminated mid-epoch.
    kill_flags: Vec<AtomicBool>,
    /// Whether a recovery executor has already been launched for a shard.
    recovered: Vec<AtomicBool>,
}

impl EpochState {
    fn num_jobs(&self) -> usize {
        self.progress.len()
    }

    /// Record that epoch batch `index` was published (or found already
    /// resident) and advance its shard's contiguous watermark.
    fn mark_published(&self, index: usize) {
        let num_jobs = self.num_jobs();
        let pos = index / num_jobs;
        let progress = &mut *self.progress[index % num_jobs].lock();
        progress.done[pos] = true;
        while progress.done.get(progress.next) == Some(&true) {
            progress.next += 1;
        }
    }

    /// Start one more sweep over the plan delivering into this epoch — the
    /// main one, or a recovery sweep keeping only what `skip` lets through —
    /// unless the epoch is torn down.
    fn sweep(self: &Arc<Self>, skip: Option<Arc<SkipFn>>) {
        if let Some(sweeps) = self.sweeps.lock().as_mut() {
            let sink = Arc::clone(self) as Arc<dyn PreparedSink>;
            sweeps.push(
                self.lane
                    .spawn(self.epoch, Arc::clone(&self.plan), skip, sink),
            );
        }
    }
}

/// The sink of an epoch's executors, main and recovery alike: publish into
/// the staging area and keep the per-shard watermarks current.
impl PreparedSink for EpochState {
    fn has_room(&self, index: usize) -> bool {
        self.staging.has_room(index)
    }

    fn publish(&self, mb: Minibatch) {
        let index = mb.index;
        if self.staging.publish(mb).is_live() {
            self.mark_published(index);
        }
    }

    fn fail(&self, err: CoordlError) {
        // The first failure is the cause; later ones are fallout.
        let _ = self.failure.set(err);
        self.staging.shutdown();
    }

    fn is_live(&self) -> bool {
        !self.staging.is_shutdown()
    }
}

/// One epoch: the shared prefetching executor running in the background
/// plus per-job consumers.
pub(crate) struct EpochSession {
    state: Arc<EpochState>,
}

impl EpochSession {
    /// Start one epoch of `num_jobs` consumers on `lane` over `plan`, the
    /// epoch's ordered `(batch_index, items)` list, staging at most `window`
    /// batches.  With a `take_timeout` it is a coordinated epoch, with kill
    /// switches and a failure detector; without, a one-consumer stream.
    pub(crate) fn start(
        lane: &Lane,
        num_jobs: usize,
        window: usize,
        take_timeout: Option<Duration>,
        epoch: u64,
        plan: Plan,
    ) -> Self {
        let positions = plan.iter().map(|(index, _)| index / num_jobs + 1).max();
        let progress = || ShardProgress {
            next: 0,
            done: vec![false; positions.unwrap_or(0)],
        };
        let state = Arc::new(EpochState {
            epoch,
            plan,
            lane: lane.clone(),
            staging: Arc::new(StagingArea::new(num_jobs, window)),
            take_timeout,
            failure: OnceLock::new(),
            sweeps: Mutex::new(Some(Vec::new())),
            progress: (0..num_jobs).map(|_| Mutex::new(progress())).collect(),
            kill_flags: (0..num_jobs).map(|_| AtomicBool::new(false)).collect(),
            recovered: (0..num_jobs).map(|_| AtomicBool::new(false)).collect(),
        });
        // One shared executor per epoch: the fetch stage sweeps every batch
        // in training order; the prep pool publishes into the staging area.
        // Batches of a killed job are dropped at dispatch so its work
        // disappears mid-epoch, exactly like a dying producer's would; only
        // an epoch with a failure detector can recover from that.
        let skip = take_timeout.map(|_| {
            let killed = Arc::clone(&state);
            Arc::new(move |index: usize| killed.kill_flags[index % num_jobs].load(Ordering::SeqCst))
                as Arc<SkipFn>
        });
        state.sweep(skip);
        EpochSession { state }
    }

    /// The staging area (for memory-overhead inspection; the handle
    /// survives the session for post-drop statistics).
    pub(crate) fn staging(&self) -> &Arc<StagingArea> {
        &self.state.staging
    }

    /// Simulate the user killing job `job` mid-epoch: its producer stops
    /// publishing new minibatches.  Consumers will detect the failure and the
    /// group will spawn a replacement producer for its shard.
    pub(crate) fn inject_failure(&self, job: usize) {
        self.state.kill_flags[job].store(true, Ordering::SeqCst);
    }

    /// The consumer-side iterator for `job`.
    pub(crate) fn consumer(&self, job: usize) -> JobEpochIterator {
        assert!(job < self.state.num_jobs(), "job {job} out of range");
        JobEpochIterator {
            job,
            next: 0,
            state: Arc::clone(&self.state),
            epoch: None,
        }
    }

    /// The one consumer of a one-consumer epoch, owning the epoch.
    pub(crate) fn into_consumer(self) -> JobEpochIterator {
        let mut consumer = self.consumer(0);
        consumer.epoch = Some(self);
        consumer
    }
}

impl Drop for EpochSession {
    fn drop(&mut self) {
        // Shutting the staging area down first stops every fetch thread at
        // its next position and the prep pool from taking more positions,
        // so each sweep can drain and join.  The sweeps are taken out of the
        // state and joined here: their threads hold the state as their sink,
        // so it must never be the state's own drop that joins them.
        self.state.staging.shutdown();
        let sweeps = self.state.sweeps.lock().take();
        drop(sweeps);
    }
}

/// Iterator over one job's view of an epoch.
///
/// Yields every minibatch of the epoch exactly once, in training order.  If a
/// producer dies, the iterator transparently triggers recovery.  The first
/// error (a failed stage thread, a shutdown, a recovery that did not
/// deliver) ends the stream: it is yielded once, then `None`.
pub(crate) struct JobEpochIterator {
    job: usize,
    next: usize,
    state: Arc<EpochState>,
    /// The epoch itself when this is its one consumer (a single-mode or
    /// partitioned-node stream): dropping the iterator shuts it down and
    /// joins its threads.
    epoch: Option<EpochSession>,
}

impl JobEpochIterator {
    /// Minibatches this consumer is to take.
    pub(crate) fn total_batches(&self) -> usize {
        self.state.plan.len()
    }

    /// Handle a take timeout for batch `index`: identify the responsible
    /// shard, and unless it is already being recovered spawn a recovery
    /// executor: a sweep over the same plan, into the same epoch, that keeps
    /// only that shard's batches from its watermark on.  A failed recovery
    /// thus reaches every consumer as the typed error it was.
    fn handle_timeout(&self, index: usize) {
        let state = &self.state;
        let num_jobs = state.num_jobs();
        let shard = index % num_jobs;
        // Only recover once per shard; a recovery already in flight just
        // means the take is worth retrying.
        if state.recovered[shard].swap(true, Ordering::SeqCst) {
            return;
        }
        let from = state.progress[shard].lock().next;
        let skip: Arc<SkipFn> =
            Arc::new(move |index| index % num_jobs != shard || index / num_jobs < from);
        state.sweep(Some(skip));
    }
}

impl Iterator for JobEpochIterator {
    type Item = Result<Arc<Minibatch>, CoordlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let state = &self.state;
        let stats = &state.lane.stats;
        let index = self.next;
        if index >= state.plan.len() {
            return None;
        }
        let timeout = state.take_timeout.unwrap_or(Duration::MAX);
        let mut timeouts = 0;
        let err = loop {
            let wait = Instant::now();
            let taken = state.staging.take(self.job, index, timeout);
            stats.record_consumer_wait(wait.elapsed());
            match taken {
                Ok(batch) => {
                    self.next += 1;
                    stats.record_delivered(batch.len() as u64);
                    // The take may have made room for a position.
                    pool::wake();
                    return Some(Ok(batch));
                }
                // A failed epoch shut its staging area down: say why.
                Err(TakeError::Shutdown) => {
                    break state
                        .failure
                        .get()
                        .cloned()
                        .unwrap_or(CoordlError::Shutdown)
                }
                Err(TakeError::Timeout) if timeouts == 3 => {
                    break CoordlError::ProducerFailed {
                        job: index % state.num_jobs(),
                        batch: index,
                    }
                }
                Err(TakeError::Timeout) => {
                    timeouts += 1;
                    self.handle_timeout(index);
                }
            }
        };
        self.next = state.plan.len();
        Some(Err(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EpochRun, Mode, Session, SessionBuilder, SessionConfig};
    use crate::{DirectBackend, FetchBackend};
    use dataset::{DataSource, DatasetSpec, ItemId, SyntheticItemStore};
    use prep::{ExecutablePipeline, PrepPipeline};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn store(items: u64) -> Arc<dyn DataSource> {
        let spec = DatasetSpec::new("t", items, 128, 0.2, 6.0);
        Arc::new(SyntheticItemStore::new(spec, 5))
    }

    fn builder(num_jobs: usize, items: u64, batch: usize, cache_bytes: u64) -> SessionBuilder {
        let pipeline = ExecutablePipeline::new(PrepPipeline::image_classification(), 6, 17);
        Session::builder(
            store(items),
            SessionConfig {
                batch_size: batch,
                staging_window: 6,
                seed: 3,
                cache_capacity_bytes: cache_bytes,
                take_timeout: Duration::from_millis(250),
                ..SessionConfig::default()
            },
        )
        .mode(Mode::Coordinated { jobs: num_jobs })
        .pipeline(pipeline)
    }

    /// A coordinated session; the tests drive its engine through
    /// `Session::epoch` and the run's per-job streams.
    fn group(num_jobs: usize, items: u64, batch: usize, cache_bytes: u64) -> Session {
        builder(num_jobs, items, batch, cache_bytes)
            .build()
            .expect("valid config")
    }

    /// Drain every job's iterator on its own thread (jobs run concurrently in
    /// HP search) and return the per-job item sequences.
    fn drain_all(run: &EpochRun<'_>, num_jobs: usize) -> Vec<Vec<u64>> {
        let mut joins = Vec::new();
        for j in 0..num_jobs {
            let stream = run.stream(j);
            joins.push(std::thread::spawn(move || {
                let mut items = Vec::new();
                for mb in stream {
                    items.extend(mb.expect("no failure").item_ids());
                }
                items
            }));
        }
        joins.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn every_job_sees_the_whole_epoch_exactly_once() {
        let g = group(4, 120, 16, 1 << 20);
        let session = g.epoch(0);
        let per_job = drain_all(&session, 4);
        for items in &per_job {
            assert_eq!(items.len(), 120);
            let set: HashSet<_> = items.iter().collect();
            assert_eq!(set.len(), 120, "exactly-once per job per epoch");
        }
        // All jobs see the same training order (they share the epoch sweep).
        assert!(per_job.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dataset_is_fetched_and_prepared_once_for_all_jobs() {
        let g = group(4, 80, 10, 1 << 20);
        {
            let session = g.epoch(0);
            let _ = drain_all(&session, 4);
        }
        // Prep happened once per item, not once per item per job.
        assert_eq!(g.stats().samples_prepared(), 80);
        // Every raw byte was read from storage exactly once (MinIO cached it).
        let expected: u64 = {
            let spec = DatasetSpec::new("t", 80, 128, 0.2, 6.0);
            (0..80).map(|i| spec.item_size(i)).sum()
        };
        assert_eq!(g.stats().bytes_from_storage(), expected);
        // But every job received the full epoch.
        assert_eq!(g.stats().samples_delivered(), 4 * 80);
    }

    #[test]
    fn second_epoch_reuses_the_minio_cache() {
        let g = group(2, 60, 10, 1 << 20);
        {
            let s = g.epoch(0);
            let _ = drain_all(&s, 2);
        }
        let after_first = g.stats().bytes_from_storage();
        {
            let s = g.epoch(1);
            let _ = drain_all(&s, 2);
        }
        assert_eq!(g.stats().bytes_from_storage(), after_first);
    }

    #[test]
    fn augmentations_are_fresh_each_epoch_but_shared_across_jobs() {
        let g = group(2, 20, 5, 1 << 20);
        let collect = |epoch| {
            let s = g.epoch(epoch);
            let mut per_job = Vec::new();
            for j in 0..2 {
                let samples: Vec<_> = s
                    .stream(j)
                    .flat_map(|mb| mb.unwrap().samples.clone())
                    .collect();
                per_job.push(samples);
            }
            per_job
        };
        // NOTE: consumers here run sequentially, which works because the
        // staging window (6) exceeds the number of batches (4).
        let e0 = collect(0);
        let e1 = collect(1);
        // Jobs share identical prepared samples within an epoch...
        assert_eq!(e0[0], e0[1]);
        // ...but the same item is augmented differently across epochs.
        let find = |set: &Vec<prep::PreparedSample>, item: u64| {
            set.iter().find(|s| s.item == item).unwrap().clone()
        };
        assert_ne!(
            find(&e0[0], 7).augmentation_seed,
            find(&e1[0], 7).augmentation_seed
        );
    }

    #[test]
    fn staging_memory_stays_bounded() {
        let g = group(2, 200, 10, 1 << 22);
        let session = g.epoch(0);
        let _ = drain_all(&session, 2);
        let stats = session.staging().expect("coordinated run").stats();
        assert_eq!(stats.published, 20);
        assert_eq!(stats.evicted, 20);
        // The window is 6 batches; peak memory must respect it.
        let max_batch_bytes = 10 * 128 * 7; // batch * raw * (decode multiplier + slack)
        assert!(stats.peak_bytes <= 6 * max_batch_bytes as u64);
    }

    #[test]
    fn killed_producer_is_detected_and_its_shard_recovered() {
        for fetch_threads in [1, 2] {
            let g = builder(2, 120, 10, 1 << 22)
                .fetch_threads(fetch_threads)
                .workers(2)
                .build()
                .expect("valid config");
            let session = g.epoch(0);
            // Kill job 1's producer immediately: its shard (odd batch
            // indices) must be taken over by a recovery executor.
            session.inject_failure(1);
            let per_job = drain_all(&session, 2);
            for items in &per_job {
                assert_eq!(items.len(), 120, "full epoch despite the failure");
                let set: HashSet<_> = items.iter().collect();
                assert_eq!(set.len(), 120, "f={fetch_threads}: exactly once");
            }
        }
    }

    /// A backend whose reads park until it is opened and fail once it is
    /// armed, counting the successful ones.
    struct GatedBackend {
        inner: DirectBackend,
        open: AtomicBool,
        armed: AtomicBool,
        reads: AtomicUsize,
    }

    impl FetchBackend for GatedBackend {
        fn num_items(&self) -> u64 {
            self.inner.num_items()
        }
        fn item_bytes(&self, item: ItemId) -> u64 {
            self.inner.item_bytes(item)
        }
        fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            if self.armed.load(Ordering::SeqCst) {
                return Err(CoordlError::BackendIo {
                    backend: self.name().into(),
                    item,
                    detail: "armed".into(),
                });
            }
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.inner.read(item)
        }
        fn name(&self) -> &'static str {
            "gated"
        }
    }

    #[test]
    fn a_read_failing_during_recovery_reaches_the_surviving_job_typed() {
        let backend = Arc::new(GatedBackend {
            inner: DirectBackend::new(store(60)),
            open: AtomicBool::new(false),
            armed: AtomicBool::new(false),
            reads: AtomicUsize::new(0),
        });
        // Six batches fit the staging window of six, so the main sweep can
        // finish with no consumer running.
        let g = builder(2, 60, 10, 1 << 22)
            .fetch_backend(Arc::clone(&backend) as Arc<dyn FetchBackend>)
            .build()
            .expect("valid config");
        let session = g.epoch(0);
        // The main sweep is parked in its first read: the kill lands before
        // it decides batch 1, so it reads job 0's three batches and nothing
        // else.
        session.inject_failure(1);
        backend.open.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(30);
        while backend.reads.load(Ordering::SeqCst) < 30 {
            assert!(Instant::now() < deadline, "the main sweep stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        // From here on only the recovery sweep reads, and every read fails.
        backend.armed.store(true, Ordering::SeqCst);
        let outcomes: Vec<_> = session.stream(0).collect();
        assert_eq!(outcomes.len(), 2, "batch 0, the error, then None");
        assert!(outcomes[0].is_ok(), "batch 0 was published before the kill");
        match &outcomes[1] {
            Err(CoordlError::BackendIo { backend, .. }) => assert_eq!(backend, "gated"),
            other => panic!("expected the recovery sweep's BackendIo, got {other:?}"),
        }
        assert_eq!(backend.reads.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let spec = DatasetSpec::new("t", 10, 64, 0.0, 6.0);
        let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 1));
        let bad = Session::builder(store, SessionConfig::default())
            .mode(Mode::Coordinated { jobs: 0 })
            .build();
        assert!(matches!(bad, Err(CoordlError::InvalidConfig(_))));
    }

    #[test]
    fn single_job_group_degenerates_to_a_plain_loader() {
        let g = group(1, 50, 8, 1 << 20);
        let session = g.epoch(0);
        let items: Vec<u64> = session
            .stream(0)
            .flat_map(|mb| mb.unwrap().item_ids())
            .collect();
        assert_eq!(items.len(), 50);
    }

    #[test]
    fn consumer_mid_epoch_sees_typed_shutdown_when_the_session_is_dropped() {
        // Satellite invariant: dropping the epoch session shuts the staging
        // area down, and in-flight consumers observe CoordlError::Shutdown
        // as a typed outcome instead of hanging or panicking.
        let g = group(2, 400, 10, 1 << 22);
        let session = g.epoch(0);
        let mut consumer = session.stream(0);
        let first = consumer.next().expect("epoch has batches");
        assert!(first.is_ok());
        drop(session); // shutdown + join producers
        let mut saw_shutdown = false;
        for outcome in consumer.by_ref() {
            match outcome {
                Ok(_) => continue, // already-staged batches may still drain
                Err(CoordlError::Shutdown) => {
                    saw_shutdown = true;
                    break;
                }
                Err(other) => panic!("expected Shutdown, got {other}"),
            }
        }
        assert!(saw_shutdown, "consumer must observe the typed shutdown");
    }
}
