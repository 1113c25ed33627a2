//! The unified CoorDL runtime API: one [`Session`] builder for every
//! loading mode, mirroring the simulator's `pipeline::Experiment`.
//!
//! A session describes *one workload* — a dataset, a prep pipeline, a cache
//! tier over a fetch backend — and a [`Mode`] describing how it is consumed:
//!
//! * [`Mode::Single`] — one job, a multi-threaded fetch → prep → collate
//!   worker pool (the classic data loader),
//! * [`Mode::Coordinated`] — `jobs` concurrent HP-search jobs sharing one
//!   fetch + prep sweep per epoch through the staging area (§4.3),
//! * [`Mode::Partitioned`] — `nodes` servers of a distributed job, each
//!   caching a shard and serving peers' misses (§4.2).
//!
//! Every mode hands out per-job [`BatchStream`] iterators from
//! [`Session::epoch`] and records per-epoch [`EpochTrajectory`] deltas, so
//! one [`LoaderReport`] describes any run — which is what the `validate`
//! figure row diffs against the simulator's predictions.
//!
//! ```
//! use coordl::{Mode, Session, SessionConfig};
//! use dataset::{DatasetSpec, SyntheticItemStore};
//! use std::sync::Arc;
//!
//! let store = Arc::new(SyntheticItemStore::new(
//!     DatasetSpec::new("doc", 64, 256, 0.0, 4.0),
//!     1,
//! ));
//! let session = Session::builder(store, SessionConfig::default())
//!     .mode(Mode::Coordinated { jobs: 2 })
//!     .build()
//!     .unwrap();
//! let run = session.epoch(0);
//! for job in 0..2 {
//!     assert_eq!(run.stream(job).count(), session.batches_per_epoch());
//! }
//! drop(run);
//! assert_eq!(session.report().epochs.len(), 1);
//! ```

use crate::coordinator::{EpochSession, JobEpochIterator};
use crate::error::CoordlError;
use crate::executor::{ExecutorConfig, FetchFn, Fetched, Lane, Plan};
use crate::fault::FaultPlan;
use crate::minibatch::Minibatch;
use crate::partition::PartitionedCacheCluster;
use crate::report::{EpochTrajectory, LoaderReport};
use crate::spares::Spares;
use crate::stack::tier_over_backend;
use crate::staging::{StagingArea, StagingStats};
use crate::stats::LoaderStats;
use crate::tier::{ByteTierSpec, CacheTier, TierSnapshot, TieredByteCache};
use crate::{DirectBackend, FetchBackend};
use dataset::{minibatches, DataSource, EpochSampler};
use dcache::PolicyKind;
use parking_lot::Mutex;
use pipeline::EpochCounts;
use prep::{ExecutablePipeline, PrepPipeline};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a session's workload is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One job on one server (the classic data loader).
    Single,
    /// `jobs` concurrent same-dataset jobs sharing one fetch + prep sweep
    /// per epoch (coordinated prep, §4.3).
    Coordinated {
        /// Number of concurrent HP-search jobs.
        jobs: usize,
    },
    /// One data-parallel job over `nodes` servers with partitioned caching
    /// (§4.2): each node sweeps a random per-epoch shard, local misses are
    /// served from peer caches before storage.
    Partitioned {
        /// Number of servers, each contributing one cache tier.
        nodes: usize,
    },
}

impl Mode {
    /// Short mode name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Single => "single",
            Mode::Coordinated { .. } => "coordinated",
            Mode::Partitioned { .. } => "partitioned",
        }
    }

    /// Number of per-epoch streams this mode hands out.
    pub fn num_jobs(&self) -> usize {
        match self {
            Mode::Single => 1,
            Mode::Coordinated { jobs } => *jobs,
            Mode::Partitioned { nodes } => *nodes,
        }
    }
}

/// Configuration shared by every session mode.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Samples per minibatch.
    pub batch_size: usize,
    /// A cap on the process's prep pool, which has a thread per core and
    /// serves every session: each epoch executor (the single-mode one, the
    /// one *shared by all jobs* of a coordinated session, or each
    /// partitioned node's) has at most `num_workers + fetch_threads`
    /// positions staged or in pool tasks at once.  It starts no thread,
    /// and never changes what a job observes (see
    /// [`SessionBuilder::workers`]).
    pub num_workers: usize,
    /// Plan positions each fetch thread runs ahead of the prep pool (the
    /// capacity of its lane; one more is parked in `send`), and the staging
    /// window of a single-mode or partitioned-node stream: prepared
    /// minibatches staged ahead of its one consumer.
    pub prefetch_depth: usize,
    /// Seed for the per-epoch shuffle (shared by all jobs of a session).
    pub seed: u64,
    /// Cache capacity in bytes — of the one shared tier (single,
    /// coordinated) or of *each* node's tier (partitioned).
    pub cache_capacity_bytes: u64,
    /// Maximum minibatches resident in the coordinated staging area.
    pub staging_window: usize,
    /// How long a coordinated consumer waits for a batch before invoking the
    /// failure detector.  Single-mode and partitioned streams have no peers
    /// to recover them and ignore it: they wait until the batch is
    /// published, the epoch fails or it is shut down.  A failed epoch wakes
    /// every consumer at once, in any mode.
    pub take_timeout: Duration,
    /// Threads of each epoch executor's fetch stage (default 1).  Items are
    /// partitioned across the threads by cache-shard ownership, so the
    /// thread count only decides how many shards run concurrently: streams
    /// and counters are bit-identical across `f` for a fixed
    /// [`SessionConfig::fetch_shards`] (see
    /// [`SessionBuilder::fetch_threads`]).
    pub fetch_threads: usize,
    /// Cache shards of the session's tier(s), and therefore of the fetch
    /// stage's key-ownership map.  The shard count — not the thread count —
    /// is what pins a run's eviction decisions and so its digests.  `0`
    /// (the default) resolves automatically: 1 shard when
    /// `fetch_threads == 1` (the unsplit tier every baseline digest was
    /// recorded with), or [`DEFAULT_FETCH_SHARDS`] otherwise.  Explicit
    /// values must be `>= fetch_threads` so every fetch thread owns at
    /// least one shard.
    pub fetch_shards: usize,
}

/// Shard count a `fetch_threads > 1` session resolves `fetch_shards = 0`
/// to.  Eight shards keep per-shard capacity splits coarse enough for the
/// small test datasets while giving a 4-thread stage two shards per thread.
pub const DEFAULT_FETCH_SHARDS: usize = 8;

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            batch_size: 32,
            num_workers: 2,
            prefetch_depth: 4,
            seed: 0x5EED,
            cache_capacity_bytes: 256 * 1024 * 1024,
            staging_window: 8,
            take_timeout: Duration::from_secs(2),
            fetch_threads: 1,
            fetch_shards: 0,
        }
    }
}

impl SessionConfig {
    /// The shard count the session's tiers and fetch stage actually use:
    /// [`SessionConfig::fetch_shards`], with `0` resolved to 1 shard (the
    /// unsplit tier) for one fetch thread or [`DEFAULT_FETCH_SHARDS`] for
    /// more.
    pub fn resolved_fetch_shards(&self) -> usize {
        match self.fetch_shards {
            0 if self.fetch_threads <= 1 => 1,
            0 => DEFAULT_FETCH_SHARDS,
            s => s,
        }
    }
}

enum TierChoice {
    Policy(PolicyKind),
    Tiers(Vec<ByteTierSpec>),
    Custom(Arc<dyn CacheTier>),
}

/// Builder for a [`Session`]; start from [`Session::builder`].
pub struct SessionBuilder {
    dataset: Arc<dyn DataSource>,
    config: SessionConfig,
    mode: Mode,
    pipeline: Option<ExecutablePipeline>,
    backend: Option<Arc<dyn FetchBackend>>,
    profile: Option<storage::DeviceProfile>,
    tier: TierChoice,
    fault_plan: Option<FaultPlan>,
}

impl SessionBuilder {
    /// Select the session mode (default: [`Mode::Single`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Cap each epoch executor's positions staged for or in tasks of the
    /// process's prep pool at `n + fetch_threads` at once (overrides
    /// [`SessionConfig::num_workers`]); it starts no thread.
    ///
    /// Parallelism is an implementation detail of *when* work happens, never
    /// of *what* is computed: every cache transaction runs in training
    /// order on the fetch thread owning its shard, so `workers(1)` and
    /// `workers(n)` yield bit-identical minibatch streams and
    /// [`LoaderStats`] counters (pinned by
    /// `tests/parallel_session_equivalence.rs`).
    pub fn workers(mut self, n: usize) -> Self {
        self.config.num_workers = n;
        self
    }

    /// Set how many raw minibatches the fetch stage runs ahead of the prep
    /// pool (overrides [`SessionConfig::prefetch_depth`]).  Like the worker
    /// count, depth only trades memory for overlap — the delivered streams
    /// and statistics are identical for any value.
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.config.prefetch_depth = depth;
        self
    }

    /// Size the fetch stage (overrides [`SessionConfig::fetch_threads`];
    /// default 1, its narrowest setting).
    ///
    /// Each epoch's plan is partitioned by cache-shard ownership
    /// (`dcache::shard_of_key`, the same FNV-style routing the sharded
    /// tiers use): fetch thread `t` fetches exactly the items of shards
    /// `{k : k % f == t}`, so every tier transaction on a given key happens
    /// on one thread, in plan order for that shard.  For a fixed
    /// [`SessionBuilder::fetch_shards`] count, streams *and* counters are
    /// bit-identical across any `f` (pinned by
    /// `tests/parallel_fetch_equivalence.rs`); changing the shard count
    /// changes the per-shard capacity split and may change eviction
    /// decisions, which is why `fetch_threads(1)` defaults to the unsplit
    /// 1-shard tier.
    pub fn fetch_threads(mut self, f: usize) -> Self {
        self.config.fetch_threads = f;
        self
    }

    /// Pin the cache-shard count the session's tiers (and the fetch stage's
    /// ownership map) use, instead of the automatic resolution described on
    /// [`SessionConfig::fetch_shards`].  Pin this when comparing runs across
    /// different `fetch_threads` values — equal shard counts is what makes
    /// the comparison bit-identical.
    pub fn fetch_shards(mut self, shards: usize) -> Self {
        self.config.fetch_shards = shards;
        self
    }

    /// Set the executable prep pipeline.  Defaults to the image
    /// classification pipeline with decode multiplier 6, seeded from the
    /// session seed.
    pub fn pipeline(mut self, pipeline: ExecutablePipeline) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Use a `coordl-cache` replacement policy for the cache tier(s)
    /// (default: [`PolicyKind::MinIo`]).
    pub fn cache_policy(mut self, kind: PolicyKind) -> Self {
        self.tier = TierChoice::Policy(kind);
        self
    }

    /// Use a multi-level cache hierarchy (DRAM spilling into a profiled
    /// local-SSD tier, and so on) for the cache tier(s): one
    /// [`TieredByteCache`] shared by single/coordinated sessions, or one per
    /// node in partitioned mode — node `n`'s persistent levels spill into
    /// `{dir}/node-{n}`, so nodes never share a manifest.  Overrides
    /// [`SessionConfig::cache_capacity_bytes`] with the specs' own sizes.
    pub fn cache_tiers(mut self, tiers: Vec<ByteTierSpec>) -> Self {
        self.tier = TierChoice::Tiers(tiers);
        self
    }

    /// Use a custom cache tier (single and coordinated modes only — the
    /// partitioned mode builds one tier per node from the policy).
    pub fn cache_tier(mut self, tier: Arc<dyn CacheTier>) -> Self {
        self.tier = TierChoice::Custom(tier);
        self
    }

    /// Use a custom fetch backend instead of reading the dataset directly.
    pub fn fetch_backend(mut self, backend: Arc<dyn FetchBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Time backend reads against `profile` (ramdisk / SSD / HDD), so the
    /// session's report carries modelled device seconds: the session reads
    /// through [`DirectBackend::with_profile`] under random access.
    pub fn device_profile(mut self, profile: storage::DeviceProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Inject a deterministic membership-fault schedule into the partitioned
    /// cluster ([`Mode::Partitioned`] only).  The plan's events fire on the
    /// cluster's shared fetch-step axis, so the same plan replays
    /// bit-identically for any worker count.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Validate the configuration and build the session.
    pub fn build(self) -> Result<Session, CoordlError> {
        let config = &self.config;
        if config.batch_size == 0 {
            return Err(CoordlError::InvalidConfig("batch_size must be > 0".into()));
        }
        if config.num_workers == 0 {
            return Err(CoordlError::InvalidConfig("num_workers must be > 0".into()));
        }
        if config.prefetch_depth == 0 {
            return Err(CoordlError::InvalidConfig(
                "prefetch_depth must be > 0".into(),
            ));
        }
        if config.staging_window == 0 {
            return Err(CoordlError::InvalidConfig(
                "staging_window must be > 0".into(),
            ));
        }
        if config.fetch_threads == 0 {
            return Err(CoordlError::InvalidConfig(
                "fetch_threads must be > 0".into(),
            ));
        }
        if config.fetch_shards != 0 && config.fetch_shards < config.fetch_threads {
            return Err(CoordlError::InvalidConfig(format!(
                "fetch_shards ({}) must be >= fetch_threads ({}) so every \
                 fetch thread owns at least one shard",
                config.fetch_shards, config.fetch_threads
            )));
        }
        if self.dataset.is_empty() {
            return Err(CoordlError::InvalidConfig("dataset is empty".into()));
        }
        if self.mode.num_jobs() == 0 {
            return Err(CoordlError::InvalidConfig(format!(
                "{} mode needs at least one job",
                self.mode.name()
            )));
        }
        if self.backend.is_some() && self.profile.is_some() {
            return Err(CoordlError::InvalidConfig(
                "fetch_backend and device_profile are mutually exclusive".into(),
            ));
        }
        if let Some(plan) = &self.fault_plan {
            let Mode::Partitioned { nodes } = self.mode else {
                return Err(CoordlError::InvalidConfig(format!(
                    "fault_plan requires partitioned mode, not {}",
                    self.mode.name()
                )));
            };
            if let Some(max) = plan.max_node() {
                if max >= nodes {
                    return Err(CoordlError::InvalidConfig(format!(
                        "fault_plan touches node {max} but the cluster has {nodes} nodes"
                    )));
                }
            }
        }

        let backend: Arc<dyn FetchBackend> = match (self.backend, self.profile) {
            (Some(b), None) => b,
            (None, Some(p)) => Arc::new(
                DirectBackend::new(Arc::clone(&self.dataset))
                    .with_profile(p, storage::AccessPattern::Random),
            ),
            (None, None) => Arc::new(DirectBackend::new(Arc::clone(&self.dataset))),
            (Some(_), Some(_)) => unreachable!("rejected above"),
        };
        let pipeline = Arc::new(self.pipeline.unwrap_or_else(|| {
            ExecutablePipeline::new(PrepPipeline::image_classification(), 6, config.seed)
        }));
        let stats = Arc::new(LoaderStats::default());

        let executor = ExecutorConfig {
            workers: config.num_workers,
            prefetch_depth: config.prefetch_depth,
            fetch_threads: config.fetch_threads,
            fetch_shards: config.resolved_fetch_shards(),
        };
        // Every session-built tier is a sharded `TieredByteCache` (a policy
        // choice is its single-DRAM-level form).  The shard count ties the
        // tier to the fetch stage, so fetch-thread ownership and tier-shard
        // locking agree.  Partitioned node `n` keeps its persistent levels
        // under `node-{n}`: nodes must never share a spill manifest.  Each
        // tier hands the payloads it drops to the session's backend, for the
        // next miss to read into.
        let build_tier = |node: Option<usize>| -> Result<Arc<dyn CacheTier>, CoordlError> {
            let specs = match &self.tier {
                TierChoice::Custom(t) => return Ok(Arc::clone(t)),
                TierChoice::Policy(kind) => {
                    vec![ByteTierSpec::dram(*kind, config.cache_capacity_bytes)]
                }
                TierChoice::Tiers(specs) => specs.clone(),
            };
            let specs = match node {
                Some(n) => specs
                    .into_iter()
                    .map(|spec| spec.in_subdir(&format!("node-{n}")))
                    .collect(),
                None => specs,
            };
            let tier =
                TieredByteCache::build(specs, executor.fetch_shards, Some(Arc::clone(&backend)))?;
            Ok(Arc::new(tier))
        };
        // The prepared-side window of every lane (see `Lane::spares`).
        let queued = match self.mode {
            Mode::Coordinated { .. } => config.staging_window,
            Mode::Single | Mode::Partitioned { .. } => config.prefetch_depth,
        };
        let window = (queued + 1) * config.batch_size;
        let lane = |fetch: Arc<FetchFn>| Lane {
            fetch,
            backend: Arc::clone(&backend),
            pipeline: Arc::clone(&pipeline),
            spares: Arc::new(Spares::with_window(window)),
            kept: Arc::default(),
            stats: Arc::clone(&stats),
            config: executor,
        };

        let (lanes, kind) = match self.mode {
            // One lane: the shared tier over the backend.
            Mode::Single | Mode::Coordinated { .. } => {
                let tier = build_tier(None)?;
                let holes = executor.fetch_window() * config.batch_size;
                let fetch = tier_over_backend(
                    Arc::clone(&tier),
                    Arc::clone(&backend),
                    Arc::clone(&stats),
                    holes,
                );
                (vec![lane(fetch)], SessionKind::Shared { tier })
            }
            Mode::Partitioned { nodes } => {
                if matches!(self.tier, TierChoice::Custom(_)) {
                    return Err(CoordlError::InvalidConfig(
                        "partitioned mode builds one tier per node; use cache_policy".into(),
                    ));
                }
                let tiers = (0..nodes)
                    .map(|n| build_tier(Some(n)))
                    .collect::<Result<_, _>>()?;
                let cluster = Arc::new(PartitionedCacheCluster::with_stack(
                    Arc::clone(&backend),
                    tiers,
                    Arc::clone(&stats),
                ));
                if let Some(plan) = self.fault_plan {
                    cluster.set_fault_plan(plan);
                }
                // A node's executor fetches through the cluster (local tier
                // → peers → backend) in shard order, so its fetch sequence
                // stays deterministic under any executor shape.
                let lanes = (0..nodes)
                    .map(|node| {
                        let cluster = Arc::clone(&cluster);
                        lane(Arc::new(move |item| {
                            cluster
                                .fetch(node, item)
                                .map(|(bytes, _)| Fetched::Bytes(bytes))
                        }))
                    })
                    .collect();
                (lanes, SessionKind::Partitioned { cluster })
            }
        };

        Ok(Session {
            dataset: self.dataset,
            config: self.config,
            mode: self.mode,
            lanes,
            kind,
            trajectories: Mutex::new(Vec::new()),
        })
    }
}

enum SessionKind {
    /// Single and coordinated sessions: one tier shared by every job.
    Shared { tier: Arc<dyn CacheTier> },
    Partitioned {
        cluster: Arc<PartitionedCacheCluster>,
    },
}

/// A configured CoorDL runtime: dataset + prep pipeline + cache tier(s) +
/// fetch backend + mode.  See the [module docs](self) for an overview.
pub struct Session {
    dataset: Arc<dyn DataSource>,
    config: SessionConfig,
    mode: Mode,
    /// What each epoch executor runs on: one lane over the shared tier in
    /// single and coordinated mode (whose jobs share the one executor), one
    /// `cluster.fetch(node, ·)` lane per partitioned node.  They differ only
    /// in their fetch path.
    lanes: Vec<Lane>,
    kind: SessionKind,
    trajectories: Mutex<Vec<EpochTrajectory>>,
}

impl Session {
    /// Start describing a session over `dataset`.
    pub fn builder(dataset: Arc<dyn DataSource>, config: SessionConfig) -> SessionBuilder {
        SessionBuilder {
            dataset,
            config,
            mode: Mode::Single,
            pipeline: None,
            backend: None,
            profile: None,
            tier: TierChoice::Policy(PolicyKind::MinIo),
            fault_plan: None,
        }
    }

    /// The session mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Number of per-epoch streams ([`EpochRun::stream`] arguments).
    pub fn num_jobs(&self) -> usize {
        self.mode.num_jobs()
    }

    /// Shared loader statistics across all epochs run so far.
    pub fn stats(&self) -> &LoaderStats {
        &self.lanes[0].stats
    }

    /// The fetch backend.
    pub fn backend(&self) -> &dyn FetchBackend {
        self.lanes[0].backend.as_ref()
    }

    /// The shared cache tier (single and coordinated modes; `None` for
    /// partitioned sessions, whose tiers are per node — see
    /// [`Session::node_tier`]).
    pub fn cache_tier(&self) -> Option<Arc<dyn CacheTier>> {
        match &self.kind {
            SessionKind::Shared { tier } => Some(Arc::clone(tier)),
            SessionKind::Partitioned { .. } => None,
        }
    }

    /// The cache tier of one partitioned node (`None` in other modes).
    pub fn node_tier(&self, node: usize) -> Option<Arc<dyn CacheTier>> {
        match &self.kind {
            SessionKind::Partitioned { cluster } => Some(cluster.tier(node)),
            _ => None,
        }
    }

    /// The partitioned cache cluster (`None` in other modes).
    pub fn partitioned_cluster(&self) -> Option<&PartitionedCacheCluster> {
        match &self.kind {
            SessionKind::Partitioned { cluster } => Some(cluster),
            _ => None,
        }
    }

    /// Minibatches each job consumes per epoch.  In partitioned mode this is
    /// the per-node upper bound (nodes whose shard is one item short may
    /// deliver one batch less).
    pub fn batches_per_epoch(&self) -> usize {
        let items = match self.mode {
            Mode::Partitioned { nodes } => (self.dataset.len() as usize).div_ceil(nodes),
            _ => self.dataset.len() as usize,
        };
        items.div_ceil(self.config.batch_size)
    }

    /// Start one epoch, returning the handle that hands out its per-job
    /// [`BatchStream`]s.  Dropping the handle records the epoch's
    /// [`EpochTrajectory`] in the session's report, so consume the streams
    /// within the handle's lifetime.
    pub fn epoch(&self, epoch: u64) -> EpochRun<'_> {
        // Before the coordinated sweep starts: its first fetches belong to
        // this epoch's trajectory.
        let start = self.snapshot();
        let coordinated = match self.mode {
            Mode::Coordinated { jobs } => Some(EpochSession::start(
                &self.lanes[0],
                jobs,
                self.config.staging_window,
                Some(self.config.take_timeout),
                epoch,
                self.plan(epoch, 0),
            )),
            _ => None,
        };
        EpochRun {
            session: self,
            epoch,
            start,
            coordinated,
            taken: (0..self.num_jobs())
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    /// The ordered `(batch_index, items)` plan of `lane` for `epoch`: the
    /// lane's share of the epoch's permutation, cut into minibatches.
    /// Partitioned sessions have one lane per node; every other mode has a
    /// single lane, whose share *is* the whole permutation.
    fn plan(&self, epoch: u64, lane: usize) -> Plan {
        let lanes = match self.mode {
            Mode::Partitioned { nodes } => nodes,
            _ => 1,
        };
        let sampler = EpochSampler::new(self.dataset.len(), self.config.seed);
        let order = sampler.distributed_shard(epoch, lane, lanes);
        let batches = minibatches(&order, self.config.batch_size);
        Arc::new(batches.into_iter().enumerate().collect())
    }

    /// Every cache tier of the session: the one shared tier, or one per
    /// partitioned node.
    fn all_tiers(&self) -> Vec<Arc<dyn CacheTier>> {
        match &self.kind {
            SessionKind::Partitioned { cluster } => (0..cluster.num_servers())
                .map(|n| cluster.tier(n))
                .collect(),
            _ => vec![self.cache_tier().expect("non-partitioned tier")],
        }
    }

    /// Per-level statistics of every cache tier of the session, aggregated
    /// across partitioned nodes by level index (the `validate` figure row
    /// uses this for its per-tier hit-ratio rows).
    pub fn tier_levels(&self) -> Vec<TierSnapshot> {
        let mut levels: Vec<TierSnapshot> = Vec::new();
        for tier in self.all_tiers() {
            for (k, snap) in tier.tier_snapshots().into_iter().enumerate() {
                match levels.get_mut(k) {
                    None => levels.push(snap),
                    Some(agg) => {
                        agg.capacity_bytes += snap.capacity_bytes;
                        agg.used_bytes += snap.used_bytes;
                        agg.resident_items += snap.resident_items;
                        agg.hits += snap.hits;
                        agg.misses += snap.misses;
                        agg.evictions += snap.evictions;
                        agg.demoted_in += snap.demoted_in;
                        agg.demoted_out += snap.demoted_out;
                        agg.device_seconds += snap.device_seconds;
                    }
                }
            }
        }
        levels
    }

    /// The unified report: totals plus the per-epoch trajectories recorded
    /// as [`EpochRun`]s completed.
    pub fn report(&self) -> LoaderReport {
        let snap = self.snapshot();
        let tiers = self.all_tiers();
        let (capacity, used, resident, policy) = (
            tiers.iter().map(|t| t.capacity_bytes()).sum(),
            tiers.iter().map(|t| t.used_bytes()).sum(),
            tiers.iter().map(|t| t.resident_items()).sum(),
            tiers[0].policy_name(),
        );
        LoaderReport {
            mode: self.mode.name(),
            jobs: self.num_jobs(),
            cache_policy: policy,
            backend: self.backend().name(),
            cache_capacity_bytes: capacity,
            cache_used_bytes: used,
            cache_resident_items: resident,
            bytes_from_storage: snap.counts.bytes_from_storage,
            bytes_from_cache: snap.counts.bytes_from_cache,
            bytes_from_lower_tiers: snap.counts.bytes_from_lower_tiers,
            bytes_from_remote: snap.counts.bytes_from_remote,
            samples_prepared: snap.samples_prepared,
            samples_delivered: snap.counts.samples,
            cache_hits: snap.counts.cache_hits,
            cache_misses: snap.counts.cache_misses,
            lower_tier_hits: snap.counts.lower_tier_hits,
            device_seconds: snap.device_seconds,
            measured_device_seconds: snap.measured_device_seconds,
            fetch_busy_seconds: snap.fetch_busy_seconds,
            fetch_stall_seconds: snap.fetch_stall_seconds,
            prep_busy_seconds: snap.prep_busy_seconds,
            prep_stall_seconds: snap.prep_stall_seconds,
            consumer_wait_seconds: snap.consumer_wait_seconds,
            fetch_thread_busy_seconds: self.stats().fetch_thread_busy_seconds(),
            fetch_thread_stall_seconds: self.stats().fetch_thread_stall_seconds(),
            epochs: self.trajectories.lock().clone(),
            tenant: None,
        }
    }

    fn snapshot(&self) -> CounterSnapshot {
        let (cache_hits, cache_misses) = match &self.kind {
            // Partitioned hit counts come from the cluster, not the tiers: a
            // remote hit is a *local-tier miss* served by a peer, and must
            // count as a session-level hit.
            SessionKind::Partitioned { cluster } => {
                let agg = cluster.aggregate_stats();
                (agg.local_hits + agg.remote_hits, agg.storage_reads)
            }
            _ => {
                let tier = self.cache_tier().expect("non-partitioned tier");
                (tier.hits(), tier.misses())
            }
        };
        let lower_tier_hits = self
            .tier_levels()
            .iter()
            .skip(1)
            .map(|level| level.hits)
            .sum();
        CounterSnapshot {
            counts: EpochCounts {
                samples: self.stats().samples_delivered(),
                bytes_from_cache: self.stats().bytes_from_cache(),
                bytes_from_storage: self.stats().bytes_from_storage(),
                bytes_from_remote: self.stats().bytes_from_remote(),
                bytes_from_lower_tiers: self.stats().bytes_from_lower_tiers(),
                cache_hits,
                cache_misses,
                lower_tier_hits,
            },
            samples_prepared: self.stats().samples_prepared(),
            device_seconds: self.backend().device_seconds(),
            measured_device_seconds: self.backend().measured_seconds(),
            fetch_busy_seconds: self.stats().fetch_busy_seconds(),
            fetch_stall_seconds: self.stats().fetch_stall_seconds(),
            prep_busy_seconds: self.stats().prep_busy_seconds(),
            prep_stall_seconds: self.stats().prep_stall_seconds(),
            consumer_wait_seconds: self.stats().consumer_wait_seconds(),
        }
    }

    fn record_trajectory(&self, epoch: u64, start: CounterSnapshot, staging: Option<StagingStats>) {
        let end = self.snapshot();
        let staging = staging.unwrap_or_default();
        self.trajectories.lock().push(EpochTrajectory {
            epoch,
            counts: end.counts.since(&start.counts),
            samples_prepared: end.samples_prepared - start.samples_prepared,
            device_seconds: end.device_seconds - start.device_seconds,
            staging_peak_bytes: staging.peak_bytes,
            staging_published: staging.published,
            staging_evicted: staging.evicted,
            fetch_busy_seconds: end.fetch_busy_seconds - start.fetch_busy_seconds,
            fetch_stall_seconds: end.fetch_stall_seconds - start.fetch_stall_seconds,
            prep_busy_seconds: end.prep_busy_seconds - start.prep_busy_seconds,
            prep_stall_seconds: end.prep_stall_seconds - start.prep_stall_seconds,
            consumer_wait_seconds: end.consumer_wait_seconds - start.consumer_wait_seconds,
        });
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct CounterSnapshot {
    counts: EpochCounts,
    samples_prepared: u64,
    device_seconds: f64,
    measured_device_seconds: f64,
    fetch_busy_seconds: f64,
    fetch_stall_seconds: f64,
    prep_busy_seconds: f64,
    prep_stall_seconds: f64,
    consumer_wait_seconds: f64,
}

/// One epoch of a session: hands out per-job [`BatchStream`]s and records
/// the epoch's trajectory when dropped.
///
/// Dropping it is the epoch's commit point: it calls [`CacheTier::flush`]
/// on every tier of the session, which for a persistent hierarchy waits
/// until its spill writer has applied and committed every op the epoch
/// issued.  So what the epoch admitted survives a restart once the drop
/// returns, and I/O counters read after it count the whole epoch.
pub struct EpochRun<'a> {
    session: &'a Session,
    epoch: u64,
    start: CounterSnapshot,
    /// The shared engine epoch of a coordinated session (started eagerly);
    /// a single-mode or partitioned stream starts its own one-consumer
    /// epoch lazily, at [`EpochRun::stream`].
    coordinated: Option<EpochSession>,
    /// One flag per stream index: set by the first [`EpochRun::stream`].
    taken: Box<[AtomicBool]>,
}

impl EpochRun<'_> {
    /// The epoch index this run covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Minibatches each stream of this epoch delivers.
    pub fn total_batches(&self) -> usize {
        self.session.batches_per_epoch()
    }

    /// The batch stream of `job` (a node index in partitioned mode; must be
    /// 0 in single mode).
    ///
    /// Every stream takes its batches from a staging area.  A single-mode or
    /// partitioned-node stream is the one consumer of an epoch of its own
    /// (staging window `prefetch_depth`), which it owns: dropping the
    /// stream shuts that epoch down and joins its threads.  A coordinated
    /// stream is one of the jobs of the run's shared epoch (staging window
    /// `staging_window`).  Streams can be moved to consumer threads; keep
    /// the `EpochRun` alive while they drain (dropping it shuts a
    /// coordinated epoch down).
    ///
    /// # Panics
    /// Panics when `job` is out of range, and on a second `stream(job)` call
    /// for the same `job` on the same run, in every mode: in single and
    /// partitioned mode it would spawn a fresh worker pool and re-fetch the
    /// job's share of the epoch, double-counting this run's trajectory; in
    /// coordinated mode a second consumer for one job would wait on batches
    /// the first one already took.  Call [`Session::epoch`] again for another
    /// pass over the same epoch.
    pub fn stream(&self, job: usize) -> BatchStream {
        let session = self.session;
        assert!(
            job < session.num_jobs(),
            "job {job} out of range for {} mode with {} job(s)",
            session.mode().name(),
            session.num_jobs()
        );
        assert!(
            !self.taken[job].swap(true, Ordering::SeqCst),
            "stream({job}) already taken for this EpochRun; call \
             Session::epoch again for another pass"
        );
        let (consumer, lane) = match &self.coordinated {
            Some(epoch_session) => (epoch_session.consumer(job), &session.lanes[0]),
            None => {
                let lane = &session.lanes[job];
                let plan = session.plan(self.epoch, job);
                let depth = session.config.prefetch_depth;
                let epoch = EpochSession::start(lane, 1, depth, None, self.epoch, plan);
                (epoch.into_consumer(), lane)
            }
        };
        BatchStream {
            consumer,
            lender: Lender::new(lane),
        }
    }

    /// Simulate the user killing job `job` mid-epoch (coordinated mode).
    ///
    /// # Panics
    /// Panics unless the session is in [`Mode::Coordinated`].
    pub fn inject_failure(&self, job: usize) {
        match &self.coordinated {
            Some(s) => s.inject_failure(job),
            None => panic!("inject_failure requires Mode::Coordinated"),
        }
    }

    /// The coordinated staging area (`None` in other modes).
    pub fn staging(&self) -> Option<&StagingArea> {
        self.coordinated.as_ref().map(|s| s.staging().as_ref())
    }
}

impl Drop for EpochRun<'_> {
    fn drop(&mut self) {
        // Shut a coordinated epoch down (joining its producers) *before*
        // snapshotting, so late producer work is attributed to this epoch.
        let staging = self.coordinated.take().map(|epoch_session| {
            let staging = Arc::clone(epoch_session.staging());
            drop(epoch_session);
            staging.stats()
        });
        // The epoch's commit point: `flush` returns once the spill writer
        // has committed what the epoch admitted to a persistent level, so
        // it survives a restart from here on.  A drop cannot report; a spill
        // failure stays with the tier for the next explicit `flush`.
        for tier in self.session.all_tiers() {
            let _ = tier.flush();
        }
        self.session
            .record_trajectory(self.epoch, self.start, staging);
    }
}

/// One job's minibatch stream for one epoch, in training order.
///
/// All modes yield `Result<Arc<Minibatch>, CoordlError>`: a failed fetch or
/// prep thread surfaces as its typed error (e.g. [`CoordlError::BackendIo`],
/// [`CoordlError::WorkerPanicked`]) right after the batches already staged,
/// and a coordinated stream also surfaces shutdown and unrecovered producer
/// failure.  The first error ends the stream: it is yielded once, then
/// `None`.
///
/// **Lending contract.**  A delivered batch is *lent*: the stream keeps a
/// reference to the batch it handed out last, and at the next
/// [`next`](Iterator::next) — or when the stream is dropped — takes it
/// back if that reference is the only one left, returning its sample
/// buffers to its lane for prep to fill again.  A batch anyone still holds
/// (the consumer, or in a coordinated epoch another job or the staging
/// area) is never touched; it is freed as usual by whoever drops it last.
/// So holding batches is always safe, and a consumer that drops each batch
/// before asking for the next makes steady-state prep allocate nothing for
/// the samples it delivers.
pub struct BatchStream {
    consumer: JobEpochIterator,
    /// Dropped after `consumer`, whose own epoch (if it owns one) is joined
    /// by then.
    lender: Lender,
}

/// The batch a stream lent last, and the lane its buffers go back to.
struct Lender {
    spares: Arc<Spares>,
    lent: Option<Arc<Minibatch>>,
}

impl Lender {
    fn new(lane: &Lane) -> Self {
        Lender {
            spares: Arc::clone(&lane.spares),
            lent: None,
        }
    }

    fn lend(&mut self, batch: Arc<Minibatch>) -> Arc<Minibatch> {
        self.lent = Some(Arc::clone(&batch));
        batch
    }

    /// Take the lent batch back if nobody else holds it any more: only the
    /// last holder gets it out of the `Arc`.
    fn take_back(&mut self) {
        if let Some(batch) = self.lent.take().and_then(Arc::into_inner) {
            self.spares
                .push(batch.samples.into_iter().map(|sample| sample.data));
        }
    }
}

impl Drop for Lender {
    fn drop(&mut self) {
        self.take_back();
    }
}

impl BatchStream {
    /// Number of minibatches this stream will deliver.
    pub fn total_batches(&self) -> usize {
        self.consumer.total_batches()
    }
}

impl Iterator for BatchStream {
    type Item = Result<Arc<Minibatch>, CoordlError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.lender.take_back();
        let next = self.consumer.next();
        next.map(|batch| batch.map(|batch| self.lender.lend(batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{DatasetSpec, SyntheticItemStore};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    fn store(items: u64, avg: u64) -> Arc<dyn DataSource> {
        Arc::new(SyntheticItemStore::new(
            DatasetSpec::new("sess", items, avg, 0.2, 4.0),
            13,
        ))
    }

    fn config(batch: usize, cache: u64) -> SessionConfig {
        SessionConfig {
            batch_size: batch,
            num_workers: 2,
            prefetch_depth: 4,
            seed: 21,
            cache_capacity_bytes: cache,
            staging_window: 8,
            take_timeout: Duration::from_secs(5),
            fetch_threads: 1,
            fetch_shards: 0,
        }
    }

    #[test]
    fn single_mode_delivers_every_item_once_in_order() {
        let session = Session::builder(store(100, 256), config(16, 1 << 20))
            .build()
            .unwrap();
        let run = session.epoch(0);
        let mut indices = Vec::new();
        let mut items = Vec::new();
        for mb in run.stream(0) {
            let mb = mb.unwrap();
            indices.push(mb.index);
            items.extend(mb.item_ids());
        }
        assert_eq!(indices, (0..7).collect::<Vec<_>>());
        assert_eq!(items.iter().collect::<HashSet<_>>().len(), 100);
        drop(run);
        assert_eq!(session.stats().samples_delivered(), 100);
        let report = session.report();
        assert_eq!(report.mode, "single");
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].counts.samples, 100);
        assert_eq!(report.epochs[0].counts.cache_misses, 100, "cold cache");
    }

    #[test]
    fn coordinated_mode_shares_one_sweep_across_jobs() {
        let session = Session::builder(store(120, 128), config(10, 1 << 20))
            .mode(Mode::Coordinated { jobs: 3 })
            .build()
            .unwrap();
        {
            let run = session.epoch(0);
            let handles: Vec<_> = (0..3)
                .map(|j| {
                    let stream = run.stream(j);
                    std::thread::spawn(move || stream.map(|b| b.unwrap().len()).sum::<usize>())
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 120);
            }
        }
        assert_eq!(session.stats().samples_prepared(), 120, "prepared once");
        assert_eq!(session.stats().samples_delivered(), 3 * 120);
        let report = session.report();
        assert_eq!(report.mode, "coordinated");
        assert!(report.epochs[0].staging_published > 0);
        assert_eq!(
            report.epochs[0].staging_published,
            report.epochs[0].staging_evicted
        );
    }

    #[test]
    fn partitioned_mode_serves_peer_misses_from_remote_tiers() {
        let items = 100u64;
        let spec = DatasetSpec::new("sess", items, 100, 0.0, 4.0);
        let total = spec.total_bytes();
        let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 9));
        // Each node caches 65 %: together they cover the dataset.
        let session = Session::builder(ds, config(10, total * 65 / 100))
            .mode(Mode::Partitioned { nodes: 2 })
            .build()
            .unwrap();
        for epoch in 0..3u64 {
            let run = session.epoch(epoch);
            for node in 0..2 {
                for mb in run.stream(node) {
                    assert!(!mb.unwrap().is_empty());
                }
            }
        }
        let report = session.report();
        assert_eq!(report.mode, "partitioned");
        assert_eq!(report.epochs.len(), 3);
        // After warm-up the aggregate cache covers the dataset: no storage.
        for e in &report.epochs[1..] {
            assert_eq!(e.counts.bytes_from_storage, 0, "epoch {}", e.epoch);
        }
        assert!(report.bytes_from_remote > 0, "peer fetches happened");
        let agg = session.partitioned_cluster().unwrap().aggregate_stats();
        assert_eq!(agg.storage_bytes, total);
    }

    #[test]
    fn partitioned_session_survives_a_mid_training_kill() {
        let items = 60u64;
        let spec = DatasetSpec::new("sess", items, 100, 0.0, 4.0);
        let total = spec.total_bytes();
        let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 9));
        // Kill node 1 once epoch 0's `items` fetches have completed; it
        // rejoins (tier still warm with its stale epoch-0 shard) for epoch 2.
        let plan = FaultPlan::new(vec![
            crate::FaultEvent {
                at: items,
                node: 1,
                kind: crate::FaultKind::Kill,
            },
            crate::FaultEvent {
                at: 2 * items,
                node: 1,
                kind: crate::FaultKind::Join,
            },
        ]);
        let session = Session::builder(ds, config(10, total))
            .mode(Mode::Partitioned { nodes: 2 })
            .fault_plan(plan)
            .build()
            .unwrap();
        for epoch in 0..4u64 {
            let run = session.epoch(epoch);
            for node in 0..2 {
                let mut seen = 0u64;
                for mb in run.stream(node) {
                    seen += mb.unwrap().len() as u64;
                }
                assert_eq!(seen, items / 2, "epoch {epoch} node {node} exactly once");
            }
        }
        let cluster = session.partitioned_cluster().unwrap();
        assert!(
            cluster.is_alive(0) && cluster.is_alive(1),
            "node 1 rejoined"
        );
        assert_eq!(
            session.stats().samples_delivered(),
            4 * items,
            "no sample lost or duplicated across the kill"
        );
        // Epoch 1 (node 1 dead) pays storage for the dropped shard; after the
        // warm tier rejoins, the directory heals lazily on its local hits and
        // the steady state is storage-free again.
        let report = session.report();
        assert!(
            report.epochs[1].counts.bytes_from_storage > 0,
            "degraded epoch"
        );
        assert_eq!(
            report.epochs[3].counts.bytes_from_storage, 0,
            "recovered epoch"
        );
    }

    #[test]
    fn profiled_backend_shows_up_in_the_report() {
        let session = Session::builder(store(50, 1000), config(10, 1 << 20))
            .device_profile(storage::DeviceProfile::hdd())
            .build()
            .unwrap();
        {
            let run = session.epoch(0);
            assert_eq!(run.stream(0).count(), 5);
        }
        let report = session.report();
        assert_eq!(report.backend, "hdd");
        assert!(report.device_seconds > 0.0);
        assert!(report.epochs[0].device_seconds > 0.0);
    }

    #[test]
    fn lru_policy_tier_thrashes_where_minio_does_not() {
        // §4.1 through the new API: same workload, same capacity, two tiers.
        let run_with = |kind: PolicyKind| {
            let spec = DatasetSpec::new("sess", 100, 1000, 0.0, 4.0);
            let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 9));
            let mut cfg = config(10, 50 * 1000);
            cfg.num_workers = 1; // deterministic access order
            let session = Session::builder(ds, cfg)
                .cache_policy(kind)
                .build()
                .unwrap();
            for epoch in 0..3u64 {
                let run = session.epoch(epoch);
                for mb in run.stream(0) {
                    let _ = mb.unwrap();
                }
            }
            let report = session.report();
            report
                .steady_epochs()
                .iter()
                .map(|e| e.counts.cache_misses)
                .sum::<u64>()
        };
        let minio_misses = run_with(PolicyKind::MinIo);
        let lru_misses = run_with(PolicyKind::Lru);
        assert_eq!(minio_misses, 2 * 50, "MinIO: capacity misses only");
        assert!(
            lru_misses > minio_misses,
            "LRU thrashes: {lru_misses} vs {minio_misses}"
        );
    }

    #[test]
    fn tiered_session_reports_per_level_hit_ratios() {
        // DRAM MinIO holding ~35 % + SSD MinIO holding ~35 %: the chain
        // serves ~70 % of steady-state fetches, split across the levels.
        let spec = DatasetSpec::new("sess", 200, 1000, 0.0, 4.0);
        let total = spec.total_bytes();
        let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 9));
        let session = Session::builder(ds, config(20, 0))
            .cache_tiers(vec![
                ByteTierSpec::dram(PolicyKind::MinIo, total * 35 / 100),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, total * 35 / 100),
            ])
            .build()
            .unwrap();
        for epoch in 0..3u64 {
            let run = session.epoch(epoch);
            for mb in run.stream(0) {
                let _ = mb.unwrap();
            }
        }
        let report = session.report();
        assert!((report.steady_dram_hit_ratio() - 0.35).abs() < 0.03);
        assert!((report.steady_lower_tier_hit_ratio() - 0.35).abs() < 0.03);
        assert!((report.steady_hit_ratio() - 0.70).abs() < 0.05);
        assert!(report.bytes_from_lower_tiers > 0);
        assert!(
            report.bytes_from_lower_tiers < report.bytes_from_cache,
            "lower-tier bytes are a subset of cache bytes"
        );
        let levels = session.tier_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].name, "dram");
        assert_eq!(levels[1].name, "ssd");
        assert!(
            levels[1].device_seconds > 0.0,
            "SSD level charges device time"
        );
        assert_eq!(report.cache_policy, "dram:MinIO+ssd:MinIO");
    }

    #[test]
    fn partitioned_tier_levels_sum_every_nodes_counters() {
        // Two LRU nodes caching 30 % each both evict every epoch; the
        // session's per-level view must be the sum of the node tiers'.
        let spec = DatasetSpec::new("sess", 100, 100, 0.0, 4.0);
        let total = spec.total_bytes();
        let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 9));
        let session = Session::builder(ds, config(10, total * 30 / 100))
            .mode(Mode::Partitioned { nodes: 2 })
            .cache_policy(PolicyKind::Lru)
            .build()
            .unwrap();
        for epoch in 0..3u64 {
            let run = session.epoch(epoch);
            for node in 0..2 {
                for mb in run.stream(node) {
                    let _ = mb.unwrap();
                }
            }
        }
        let nodes: Vec<TierSnapshot> = (0..2)
            .map(|n| session.node_tier(n).unwrap().tier_snapshots()[0].clone())
            .collect();
        assert!(nodes.iter().all(|s| s.evictions > 0), "{nodes:?}");
        // capacity, used, resident, hits, misses, evictions, demoted in/out
        let counters = |s: &TierSnapshot| {
            [
                s.capacity_bytes,
                s.used_bytes,
                s.resident_items as u64,
                s.hits,
                s.misses,
                s.evictions,
                s.demoted_in,
                s.demoted_out,
            ]
        };
        let mut sum = [0u64; 8];
        for node in &nodes {
            for (total, v) in sum.iter_mut().zip(counters(node)) {
                *total += v;
            }
        }
        assert_eq!(counters(&session.tier_levels()[0]), sum, "{nodes:?}");
    }

    #[test]
    fn a_lane_makes_its_whole_prepared_window_whatever_the_timing() {
        // A consumer that drops each batch at once keeps few samples in
        // flight, yet each node's lane ends every epoch holding exactly its
        // window of buffers — depth 4 and the lent batch — however far prep
        // happened to run ahead.
        for mode in [Mode::Single, Mode::Partitioned { nodes: 2 }] {
            let config = SessionConfig {
                num_workers: 1,
                ..config(8, 1 << 20)
            };
            let session = Session::builder(store(200, 256), config)
                .mode(mode)
                .build()
                .unwrap();
            for epoch in 0..2 {
                let run = session.epoch(epoch);
                for job in 0..session.num_jobs() {
                    assert!(run.stream(job).all(|mb| mb.is_ok()));
                }
            }
            for lane in &session.lanes {
                assert_eq!(lane.spares.len(), (4 + 1) * 8, "{}", mode.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "stream(0) already taken")]
    fn second_single_mode_stream_on_one_run_is_refused() {
        // Silently re-running a stream would re-fetch its share and
        // double-count the trajectory (single, partitioned), or wait on
        // batches the first consumer already took (coordinated).
        for mode in [
            Mode::Partitioned { nodes: 2 },
            Mode::Coordinated { jobs: 2 },
        ] {
            let session = Session::builder(store(40, 128), config(8, 1 << 20))
                .mode(mode)
                .build()
                .unwrap();
            let run = session.epoch(0);
            let job = session.num_jobs() - 1;
            let _first = run.stream(job);
            let second = catch_unwind(AssertUnwindSafe(|| run.stream(job)));
            let err = second
                .err()
                .unwrap_or_else(|| panic!("{}: served twice", mode.name()));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            let expected = format!("stream({job}) already taken");
            assert!(msg.contains(&expected), "{}: {msg}", mode.name());
        }
        // Single mode: the second stream panics even after the first is
        // dropped.
        let session = Session::builder(store(40, 128), config(8, 1 << 20))
            .build()
            .unwrap();
        let run = session.epoch(0);
        drop(run.stream(0));
        let _second = run.stream(0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ds = store(10, 64);
        let bad = Session::builder(
            Arc::clone(&ds),
            SessionConfig {
                batch_size: 0,
                ..SessionConfig::default()
            },
        )
        .build();
        assert!(matches!(bad, Err(CoordlError::InvalidConfig(_))));
        let bad = Session::builder(Arc::clone(&ds), SessionConfig::default())
            .mode(Mode::Coordinated { jobs: 0 })
            .build();
        assert!(matches!(bad, Err(CoordlError::InvalidConfig(_))));
        let bad = Session::builder(Arc::clone(&ds), SessionConfig::default())
            .mode(Mode::Partitioned { nodes: 2 })
            .cache_tier(Arc::new(TieredByteCache::single(PolicyKind::MinIo, 10)))
            .build();
        assert!(matches!(bad, Err(CoordlError::InvalidConfig(_))));
        // A fault plan only makes sense for a partitioned cluster ...
        let plan = FaultPlan::new(vec![crate::FaultEvent {
            at: 5,
            node: 1,
            kind: crate::FaultKind::Kill,
        }]);
        let bad = Session::builder(Arc::clone(&ds), SessionConfig::default())
            .fault_plan(plan.clone())
            .build();
        assert!(matches!(bad, Err(CoordlError::InvalidConfig(_))));
        // ... and must only touch nodes the cluster actually has.
        let bad = Session::builder(ds, SessionConfig::default())
            .mode(Mode::Partitioned { nodes: 1 })
            .fault_plan(plan)
            .build();
        assert!(matches!(bad, Err(CoordlError::InvalidConfig(_))));
    }

    #[test]
    fn unbuildable_tier_specs_are_typed_errors_not_panics() {
        use vfs::{MemVfs, Vfs};
        let ds = store(10, 64);
        let empty = Session::builder(Arc::clone(&ds), SessionConfig::default())
            .cache_tiers(vec![])
            .build();
        assert!(matches!(empty, Err(CoordlError::InvalidConfig(_))));
        // A spill directory the VFS refuses to open.
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        for mode in [Mode::Single, Mode::Partitioned { nodes: 2 }] {
            let escaping = Session::builder(Arc::clone(&ds), SessionConfig::default())
                .mode(mode)
                .cache_tiers(vec![ByteTierSpec::sata_ssd(PolicyKind::MinIo, 1 << 20)
                    .persistent(Arc::clone(&vfs), "../escape")])
                .build();
            match escaping {
                Err(CoordlError::InvalidConfig(msg)) => {
                    assert!(msg.contains("../escape"), "{}: {msg}", mode.name())
                }
                Err(other) => panic!("{}: expected InvalidConfig, got {other}", mode.name()),
                Ok(_) => panic!("{}: an un-openable tier must not build", mode.name()),
            }
        }
    }

    #[test]
    fn partitioned_nodes_spill_into_their_own_directories() {
        use vfs::{MemVfs, SpillStore, Vfs};
        let items = 60u64;
        let spec = DatasetSpec::new("sess", items, 100, 0.0, 4.0);
        let total = spec.total_bytes();
        let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 9));
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let build = || {
            Session::builder(Arc::clone(&ds), config(10, 0))
                .mode(Mode::Partitioned { nodes: 2 })
                .cache_tiers(vec![ByteTierSpec::sata_ssd(PolicyKind::MinIo, total)
                    .persistent(Arc::clone(&vfs), "spill")])
                .build()
                .unwrap()
        };
        let drain = |session: &Session, epoch: u64| {
            let run = session.epoch(epoch);
            for node in 0..2 {
                assert_eq!(
                    run.stream(node).map(|mb| mb.unwrap().len()).sum::<usize>(),
                    30
                );
            }
        };
        let first = build();
        drain(&first, 0);
        // Each node's manifest lists exactly the keys its own tier holds.
        let manifest = |node: usize| -> Vec<u64> {
            let store = SpillStore::open(Arc::clone(&vfs), &format!("spill/node-{node}"))
                .expect("node directory opens");
            store.entries().map(|(key, _)| key).collect()
        };
        let held: Vec<Vec<u64>> = (0..2).map(manifest).collect();
        for (node, keys) in held.iter().enumerate() {
            let tier = first.node_tier(node).unwrap();
            assert_eq!(keys.len(), 30, "node {node} spilled its whole shard");
            assert_eq!(keys.len(), tier.resident_items(), "node {node}");
            assert!(keys.iter().all(|&k| tier.contains(k)), "node {node}");
        }
        assert!(held[0].iter().all(|k| !held[1].contains(k)), "disjoint");
        drop(first);
        // A rebuilt session warms each node from its own directory: the
        // same epoch again is served entirely from the nodes' local tiers.
        let reborn = build();
        for (node, keys) in held.iter().enumerate() {
            let tier = reborn.node_tier(node).unwrap();
            assert_eq!(tier.resident_items(), keys.len(), "node {node} re-warmed");
            assert!(keys.iter().all(|&k| tier.contains(k)), "node {node}");
        }
        drain(&reborn, 0);
        assert_eq!(reborn.stats().bytes_from_storage(), 0, "zero storage reads");
        assert_eq!(reborn.stats().bytes_from_remote(), 0, "own shard, own tier");
    }

    #[test]
    fn report_has_one_busy_slot_per_fetch_thread() {
        // The slot layout `dsbench`'s fetch-thread-imbalance metric reads.
        for fetch_threads in [1, 2] {
            let session = Session::builder(store(64, 128), config(8, 1 << 20))
                .fetch_threads(fetch_threads)
                .build()
                .unwrap();
            {
                let run = session.epoch(0);
                assert_eq!(run.stream(0).count(), 8);
            }
            let report = session.report();
            assert_eq!(report.fetch_thread_busy_seconds.len(), fetch_threads);
            assert_eq!(report.fetch_thread_stall_seconds.len(), fetch_threads);
        }
    }

    #[test]
    fn backend_read_failures_surface_through_the_batch_stream() {
        use crate::{DirectBackend, FsBackend};
        use storage::{AccessPattern::Random, DeviceProfile};
        use vfs::{MemVfs, Vfs};
        // A dataset of 32 items served by backends that only materialized
        // 24: the epoch's tail items are missing.  In every mode, each of
        // the three backends must surface one typed BackendIo through every
        // stream instead of panicking a worker thread, then end the stream —
        // at once, not after a coordinated consumer's 60 s take timeout.
        let dataset = store(32, 256);
        let small = store(24, 256);
        let backends = || -> Vec<(Arc<dyn FetchBackend>, &str)> {
            let fs_vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
            let ssd = DeviceProfile::sata_ssd();
            vec![
                (Arc::new(DirectBackend::new(Arc::clone(&small))), "direct"),
                (
                    Arc::new(DirectBackend::new(Arc::clone(&small)).with_profile(ssd, Random)),
                    "profiled",
                ),
                (
                    Arc::new(
                        FsBackend::new(fs_vfs, "data", small.as_ref(), 2)
                            .expect("materialization succeeds"),
                    ),
                    "fs",
                ),
            ]
        };
        let modes = [
            Mode::Single,
            Mode::Coordinated { jobs: 2 },
            Mode::Partitioned { nodes: 2 },
        ];
        for mode in modes {
            for (backend, name) in backends() {
                let name = format!("{}/{name}", mode.name());
                let reported = backend.name();
                let config = SessionConfig {
                    take_timeout: Duration::from_secs(60),
                    ..config(8, 1 << 22)
                };
                let session = Session::builder(Arc::clone(&dataset), config)
                    .mode(mode)
                    .fetch_backend(backend)
                    .build()
                    .unwrap();
                let run = session.epoch(0);
                let drains: Vec<_> = (0..session.num_jobs())
                    .map(|job| {
                        let stream = run.stream(job);
                        std::thread::spawn(move || {
                            stream.map(|mb| mb.map(|mb| mb.len())).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let deadline = Instant::now() + Duration::from_secs(10);
                while !drains.iter().all(|drain| drain.is_finished()) {
                    assert!(
                        Instant::now() < deadline,
                        "{name}: a stream hung on the failure"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
                for drain in drains {
                    let outcomes = drain.join().unwrap();
                    let (last, before) = outcomes.split_last().expect("the failure is yielded");
                    assert!(
                        before.iter().all(Result::is_ok),
                        "{name}: one error, then None"
                    );
                    match last {
                        Err(CoordlError::BackendIo {
                            backend: b,
                            item,
                            detail,
                        }) => {
                            assert_eq!(b, reported, "{name}: error names the backend that failed");
                            assert!(
                                *item >= 24,
                                "{name}: item {item} is one of the missing ones"
                            );
                            assert!(detail.contains("out of range"), "{name}: {detail}");
                        }
                        other => {
                            panic!("{name}: expected BackendIo, got {:?}", other.as_ref().err())
                        }
                    }
                    let delivered: usize = before.iter().flatten().sum();
                    assert!(
                        delivered < run.total_batches() * 8,
                        "{name}: the epoch must not claim full delivery"
                    );
                }
            }
        }
    }

    /// A backend that takes 5 ms over every read.
    struct SlowBackend(DirectBackend);

    impl FetchBackend for SlowBackend {
        fn num_items(&self) -> u64 {
            self.0.num_items()
        }
        fn item_bytes(&self, item: dataset::ItemId) -> u64 {
            self.0.item_bytes(item)
        }
        fn read(&self, item: dataset::ItemId) -> Result<Vec<u8>, CoordlError> {
            std::thread::sleep(Duration::from_millis(5));
            self.0.read(item)
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn a_one_consumer_stream_never_times_out() {
        // Under 5 ms reads a 1 ms take timeout would fire the coordinated
        // failure detector on every batch.  A single-mode stream has no
        // peers to recover it, so it waits, and delivers exactly what a
        // patient stream delivers.
        let counters = |take_timeout: Duration| {
            let dataset = store(24, 256);
            let backend = SlowBackend(DirectBackend::new(Arc::clone(&dataset)));
            let config = SessionConfig {
                take_timeout,
                ..config(8, 1 << 20)
            };
            let session = Session::builder(dataset, config)
                .fetch_backend(Arc::new(backend))
                .build()
                .unwrap();
            let run = session.epoch(0);
            let delivered: usize = run
                .stream(0)
                .map(|mb| mb.expect("a slow stream is not a dead one").len())
                .sum();
            assert_eq!(delivered, 24);
            drop(run);
            let stats = session.stats();
            [
                stats.bytes_from_storage(),
                stats.bytes_from_cache(),
                stats.bytes_from_lower_tiers(),
                stats.bytes_from_remote(),
                stats.samples_prepared(),
                stats.samples_delivered(),
            ]
        };
        assert_eq!(
            counters(Duration::from_millis(1)),
            counters(Duration::from_secs(60))
        );
    }

    #[test]
    fn inject_failure_recovers_through_the_session_api() {
        let mut cfg = config(10, 1 << 22);
        cfg.take_timeout = Duration::from_millis(250); // fast failure detection
        let session = Session::builder(store(200, 128), cfg)
            .mode(Mode::Coordinated { jobs: 2 })
            .build()
            .unwrap();
        let run = session.epoch(0);
        run.inject_failure(1);
        let handles: Vec<_> = (0..2)
            .map(|j| {
                let stream = run.stream(j);
                std::thread::spawn(move || {
                    stream
                        .map(|b| b.expect("recovered epoch completes").len())
                        .sum::<usize>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
    }
}
