//! Coordinated prep: one fetch + prep sweep per epoch shared by all
//! concurrent hyper-parameter-search jobs (§4.3).
//!
//! The engine here ([`EpochSession`], [`JobEpochIterator`]) is what a
//! [`Session`](crate::Session) in [`Mode::Coordinated`](crate::Mode) runs
//! on.  All jobs of an epoch share **one prefetching executor** (the
//! crate's `executor` module): its fetch stage sweeps the epoch's batches in
//! training order per cache shard (so the shared cache tier sees a
//! deterministic access sequence at any `fetch_threads`) and a pool of prep
//! workers pre-processes them in parallel, publishing each prepared
//! minibatch into the [`StagingArea`] exactly once — the
//! cache-once-serve-all invariant.  Every job then consumes the *entire*
//! epoch — every minibatch exactly once — through its
//! [`JobEpochIterator`].
//!
//! For failure attribution each minibatch still *belongs* to a job: batch
//! `i` is job `i % num_jobs`'s responsibility (its "shard"), and per-shard
//! watermarks track the contiguous prefix already published.  When a job is
//! killed mid-epoch ([`EpochSession::inject_failure`]) its shard's batches
//! stop flowing; a consumer that times out waiting identifies the dead
//! shard and spawns a *recovery producer* that resumes it from the
//! watermark (mirroring §4.3's "Handling job failures and terminations").

use crate::error::CoordlError;
use crate::executor::{
    ExecutorConfig, ExecutorShared, ExecutorSpec, PrefetchExecutor, PreparedSink, SkipFn,
};
use crate::minibatch::Minibatch;
use crate::stack::LoaderStack;
use crate::staging::{PublishOutcome, StagingArea, TakeError};
use dataset::ItemId;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The coordinated-prep engine: everything needed to run shared epochs.
pub(crate) struct CoordinatedEngine {
    pub(crate) stack: LoaderStack,
    pub(crate) num_jobs: usize,
    pub(crate) staging_window: usize,
    pub(crate) take_timeout: Duration,
    /// Shape of the one executor shared by all jobs of the session.
    pub(crate) executor: ExecutorConfig,
}

impl CoordinatedEngine {
    /// Start one coordinated epoch over `plan`, the epoch's ordered
    /// `(batch_index, items)` list.
    pub(crate) fn run_epoch(&self, epoch: u64, plan: Vec<(usize, Vec<ItemId>)>) -> EpochSession {
        let num_jobs = self.num_jobs;
        // Round-robin shard *ownership* (failure attribution): batch index
        // i belongs to job i % num_jobs.  Recovery producers replay a
        // shard's ordered batch list from its watermark.
        let shards = (0..num_jobs)
            .map(|j| plan.iter().skip(j).step_by(num_jobs).cloned().collect())
            .collect();
        let state = Arc::new(EpochState {
            epoch,
            total: plan.len(),
            shards,
            staging: Arc::new(StagingArea::new(num_jobs, self.staging_window)),
            stack: self.stack.clone(),
            take_timeout: self.take_timeout,
            handles: Mutex::new(Vec::new()),
            progress: (0..num_jobs)
                .map(|_| Mutex::new(ShardProgress::default()))
                .collect(),
            kill_flags: (0..num_jobs).map(|_| AtomicBool::new(false)).collect(),
            recovered: (0..num_jobs).map(|_| AtomicBool::new(false)).collect(),
        });

        // One shared executor per epoch: the fetch stage sweeps every batch
        // in training order; the prep pool publishes into the staging area.
        // Batches of a killed job are dropped at dispatch so its work
        // disappears mid-epoch, exactly like a dying producer's would.
        let killed = Arc::clone(&state);
        let skip: Arc<SkipFn> = Arc::new(move |index: usize| {
            killed.kill_flags[index % num_jobs].load(Ordering::SeqCst)
        });
        let executor = PrefetchExecutor::spawn(ExecutorSpec {
            epoch,
            batches: plan,
            fetch: self.stack.fetch_fn(),
            backend: Arc::clone(&self.stack.backend),
            skip: Some(skip),
            pipeline: Arc::clone(&self.stack.pipeline),
            stats: Arc::clone(&self.stack.stats),
            sink: Arc::clone(&state) as Arc<dyn PreparedSink>,
            config: self.executor,
        });
        EpochSession { state, executor }
    }
}

/// Contiguous-published tracking for one shard: the prep pool publishes a
/// shard's batches slightly out of order, but recovery must resume from a
/// position below which *everything* is durably published.
#[derive(Default)]
struct ShardProgress {
    /// Lowest shard position not yet published.
    next: usize,
    /// Published positions above `next` (gaps still open).
    done: BTreeSet<usize>,
}

/// What one coordinated epoch's consumers, executor sink and recovery
/// producers share: the per-shard plan, the staging area and the
/// failure-detection bookkeeping.
struct EpochState {
    epoch: u64,
    /// Minibatches per job this epoch.
    total: usize,
    /// For each shard (job), the ordered `(batch_index, items)` pairs it is
    /// responsible for.
    shards: Vec<Vec<(usize, Vec<ItemId>)>>,
    staging: Arc<StagingArea>,
    stack: LoaderStack,
    take_timeout: Duration,
    /// Recovery producer threads (the main pool belongs to the executor).
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Out-of-order publish tracking per shard; `ShardProgress::next` is
    /// the contiguous published prefix recovery resumes from.
    progress: Vec<Mutex<ShardProgress>>,
    /// Kill switches set by `inject_failure` to simulate a job being
    /// terminated mid-epoch.
    kill_flags: Vec<AtomicBool>,
    /// Whether a recovery producer has already been launched for a shard.
    recovered: Vec<AtomicBool>,
}

impl EpochState {
    /// Record that epoch batch `index` was published (or found already
    /// resident) and advance its shard's contiguous watermark.
    fn mark_published(&self, index: usize) {
        let num_jobs = self.shards.len();
        let pos = index / num_jobs;
        let mut progress = self.progress[index % num_jobs].lock();
        if pos >= progress.next {
            progress.done.insert(pos);
            loop {
                let next = progress.next;
                if !progress.done.remove(&next) {
                    break;
                }
                progress.next += 1;
            }
        }
    }
}

/// The executor sink for coordinated epochs (and the recovery producers'):
/// publish into the staging area and keep the per-shard watermarks current.
impl PreparedSink for EpochState {
    fn publish(&self, mb: Minibatch) -> bool {
        let index = mb.index;
        match self.staging.publish(mb) {
            PublishOutcome::Shutdown => false,
            PublishOutcome::Published | PublishOutcome::Duplicate => {
                self.mark_published(index);
                true
            }
        }
    }
}

/// One epoch of coordinated prep: the shared prefetching executor running in
/// the background plus per-job consumers.
pub(crate) struct EpochSession {
    state: Arc<EpochState>,
    executor: PrefetchExecutor,
}

impl EpochSession {
    /// Total minibatches per job this epoch.
    pub(crate) fn total_batches(&self) -> usize {
        self.state.total
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
        assert!(job < self.state.shards.len(), "job {job} out of range");
        JobEpochIterator {
            job,
            next: 0,
            state: Arc::clone(&self.state),
            shared: Arc::clone(self.executor.shared()),
        }
    }
}

impl Drop for EpochSession {
    fn drop(&mut self) {
        // Order matters for a deadlock-free teardown: shutting the staging
        // area down first wakes any prep worker blocked in `publish`, so the
        // executor's pool (and then its fetch stage) can drain and join.
        self.state.staging.shutdown();
        self.executor.shutdown_and_join();
        let mut handles = self.state.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A recovery producer: sequentially re-fetch, re-prep and publish `shard`'s
/// batches from position `from` (its watermark) after the owning job died.
fn spawn_recovery_thread(
    state: Arc<EpochState>,
    shared: Arc<ExecutorShared>,
    shard: usize,
    from: usize,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for (index, items) in state.shards[shard].iter().skip(from) {
                let samples = match state.stack.prepare(state.epoch, items) {
                    Ok(samples) => samples,
                    Err(err) => {
                        // A typed backend failure during recovery surfaces
                        // like a recovery panic: recorded once, consumers
                        // see the real cause.
                        shared.record_error(err);
                        return;
                    }
                };
                let delivered = state.publish(Minibatch {
                    epoch: state.epoch,
                    index: *index,
                    samples,
                });
                if !delivered {
                    return;
                }
            }
        }));
        if let Err(payload) = outcome {
            shared.record_recovery_panic(payload);
        }
    })
}

/// Iterator over one job's view of a coordinated epoch.
///
/// Yields every minibatch of the epoch exactly once, in training order.  If a
/// producer dies, the iterator transparently triggers recovery; only if
/// recovery itself fails does it yield an error.
pub(crate) struct JobEpochIterator {
    job: usize,
    next: usize,
    state: Arc<EpochState>,
    shared: Arc<ExecutorShared>,
}

impl JobEpochIterator {
    /// Handle a take timeout for batch `index`: identify the responsible
    /// shard, and unless it is already being recovered spawn a recovery
    /// producer resuming from its watermark.
    fn handle_timeout(&self, index: usize) {
        let state = &self.state;
        let shard = index % state.shards.len();
        // Only recover once per shard; a recovery already in flight just
        // means the take is worth retrying.
        if state.recovered[shard].swap(true, Ordering::SeqCst) {
            return;
        }
        let from = state.progress[shard].lock().next;
        let handle =
            spawn_recovery_thread(Arc::clone(state), Arc::clone(&self.shared), shard, from);
        state.handles.lock().push(handle);
    }
}

impl Iterator for JobEpochIterator {
    type Item = Result<Arc<Minibatch>, CoordlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let state = &self.state;
        if self.next >= state.total {
            return None;
        }
        let index = self.next;
        let mut attempts = 0;
        loop {
            let wait = Instant::now();
            let taken = state.staging.take(self.job, index, state.take_timeout);
            state.stack.stats.record_consumer_wait(wait.elapsed());
            match taken {
                Ok(batch) => {
                    self.next += 1;
                    state.stack.stats.record_delivered(batch.len() as u64);
                    return Some(Ok(batch));
                }
                Err(TakeError::Shutdown) => return Some(Err(CoordlError::Shutdown)),
                Err(TakeError::Timeout) => {
                    // A panicked worker explains the missing batch better
                    // than a producer-failure guess does.
                    if let Some(err) = self.shared.failure() {
                        return Some(Err(err));
                    }
                    attempts += 1;
                    if attempts > 3 {
                        return Some(Err(CoordlError::ProducerFailed {
                            job: index % state.shards.len(),
                            batch: index,
                        }));
                    }
                    self.handle_timeout(index);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{EpochRun, Mode, Session, SessionConfig};
    use dataset::{DataSource, DatasetSpec, SyntheticItemStore};
    use prep::{ExecutablePipeline, PrepPipeline};
    use std::collections::HashSet;

    /// A coordinated session; the tests drive its engine through
    /// `Session::epoch` and the run's per-job streams.
    fn group(num_jobs: usize, items: u64, batch: usize, cache_bytes: u64) -> Session {
        let spec = DatasetSpec::new("t", items, 128, 0.2, 6.0);
        let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 5));
        let pipeline = ExecutablePipeline::new(PrepPipeline::image_classification(), 6, 17);
        Session::builder(
            store,
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
        let g = group(2, 120, 10, 1 << 22);
        let session = g.epoch(0);
        // Kill job 1's producer immediately: its shard (odd batch indices)
        // must be taken over by a recovery producer.
        session.inject_failure(1);
        let per_job = drain_all(&session, 2);
        for items in &per_job {
            assert_eq!(items.len(), 120, "full epoch despite the failure");
            let set: HashSet<_> = items.iter().collect();
            assert_eq!(set.len(), 120);
        }
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
