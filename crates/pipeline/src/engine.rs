//! The exact epoch engine: every scenario except the single-job MinIO fast
//! path (`crate::fast`) runs here.
//!
//! This module owns the per-minibatch cost model (fetch/prep/compute), the
//! epoch accumulator and one epoch driver per resource shape, which
//! [`crate::Experiment`] steps epoch by epoch:
//!
//! * `SharedNodeSim` — jobs sharing one server's cache, CPU cores and disk
//!   (single job, HP search, mixed and elastic clusters).  Each epoch is a
//!   set of *producer* sweeps, each fetching and preparing one epoch order
//!   and feeding its *consumer* jobs' GPUs: one producer per job when jobs
//!   are uncoordinated, one producer for the whole ensemble under CoorDL's
//!   coordinated prep.  A single job is the one-producer, one-consumer case.
//! * `DistributedSim` — one data-parallel job over identical servers, with
//!   CoorDL's partitioned cache and an optional membership-fault schedule.

use crate::churn::{churn_schedule, TenantSchedule};
use crate::config::ServerConfig;
use crate::experiment::{CacheSpec, Scenario};
use crate::job::JobSpec;
use crate::loader::FetchOrder;
use crate::metrics::{EpochCounts, EpochMetrics};
use crate::sweep::ExperimentSpec;
use dataset::{EpochSampler, ItemId, StorageFormat};
use dcache::{FaultEvent, PartitionedIndex, PolicyKind, ServerId, TierSpec};
use gpu::{aggregate_samples_per_sec, GpuGeneration};
use netsim::Fabric;
use prep::{PrepBackend, PrepCostModel};
use simkit::{PipelineRecurrence, SimTime, StageSample, TimeSeries};
use storage::{
    AccessPattern, DeviceProfile, FetchSource, StorageNode, DRAM_BANDWIDTH_BYTES_PER_SEC,
};

/// Build one server's storage node from the experiment's cache
/// specification: the classic single DRAM tier, or a DRAM tier spilling into
/// a profiled local-SSD tier, both driven by the loader's replacement
/// policy.
pub(crate) fn build_node(
    server: &ServerConfig,
    policy: PolicyKind,
    cache: CacheSpec,
) -> StorageNode {
    match cache {
        CacheSpec::DramOnly => StorageNode::new(server.device, policy, server.dram_cache_bytes),
        CacheSpec::Tiered {
            dram_bytes,
            ssd_bytes,
        } => StorageNode::with_tiers(
            server.device,
            vec![
                TierSpec {
                    name: "dram",
                    policy,
                    capacity_bytes: dram_bytes,
                    cost: storage::dram_tier_cost(),
                },
                TierSpec {
                    name: "ssd",
                    policy,
                    capacity_bytes: ssd_bytes,
                    // Cache-tier reads are shuffled small-item reads, the
                    // random half of the SATA-SSD profile (Table 2).
                    cost: DeviceProfile::sata_ssd().tier_cost(AccessPattern::Random),
                },
            ],
        ),
    }
}

/// Number of bins used for the per-epoch I/O timeline.
pub(crate) const IO_BINS: usize = 40;

/// Byte and time accounting for fetching one minibatch's raw data.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchFetch {
    /// The minibatch's samples, bytes by source and cache hits and misses.
    pub counts: EpochCounts,
    pub fetch_secs: f64,
}

impl BatchFetch {
    /// Tally one fetch unit of `bytes` that `source` served in `t`, returning
    /// the seconds it spent in a cache tier below DRAM (0 for any other
    /// source).
    fn record(&mut self, source: FetchSource, bytes: u64, t: SimTime) -> f64 {
        let c = &mut self.counts;
        if source == FetchSource::Disk {
            c.bytes_from_storage += bytes;
            c.cache_misses += 1;
            return 0.0;
        }
        c.bytes_from_cache += bytes;
        c.cache_hits += 1;
        let FetchSource::LowerTier(_) = source else {
            return 0.0;
        };
        c.bytes_from_lower_tiers += bytes;
        c.lower_tier_hits += 1;
        t.as_secs()
    }
}

/// Fetch `items` of `job` through `node`, with `disk_share` of the device
/// bandwidth available to the sweep (1.0 when it has the device to itself).
///
/// `key_base` namespaces the job's fetch units within the shared cache; it
/// is 0 except where jobs training *different* datasets, or elastic tenants,
/// share one cache and their keys would otherwise collide.
pub(crate) fn fetch_batch_local(
    node: &mut StorageNode,
    at: SimTime,
    items: &[ItemId],
    job: &JobSpec,
    disk_share: f64,
    key_base: u64,
) -> BatchFetch {
    assert!(disk_share > 0.0 && disk_share <= 1.0);
    let mut out = BatchFetch::default();
    let pattern = access_pattern(job);
    let latency = node.device().profile().request_latency_s;
    let bandwidth = node.device().profile().bandwidth(pattern);
    // Seconds spent reading from cache tiers below DRAM, charged at each
    // tier's own cost (a lower tier is a local device shared by the node's
    // jobs exactly like the durable store, so `disk_share` applies).
    let mut lower_secs = 0.0;
    for &item in items {
        let unit = job.loader.format.unit_of(item, &job.dataset);
        let (t, source) = node.fetch(at, key_base + unit.key, unit.bytes, pattern);
        lower_secs += out.record(source, unit.bytes, t);
    }
    out.counts.samples = items.len() as u64;
    out.fetch_secs = local_fetch_secs(&out, lower_secs, latency, bandwidth, disk_share);
    out
}

/// The batch-aggregate fetch-time formula shared by the exact engine and the
/// fast MinIO engine (`crate::fast`); keeping one closing expression is what
/// makes the two paths bit-identical.
///
/// The DRAM term keeps the pre-hierarchy batch-aggregate formula so a
/// single-tier chain charges bit-identical fetch times.
pub(crate) fn local_fetch_secs(
    out: &BatchFetch,
    lower_secs: f64,
    latency: f64,
    bandwidth: f64,
    disk_share: f64,
) -> f64 {
    let c = &out.counts;
    c.bytes_from_storage as f64 / (bandwidth * disk_share)
        + c.cache_misses as f64 * latency / disk_share
        + (c.bytes_from_cache - c.bytes_from_lower_tiers) as f64
            / storage::DRAM_BANDWIDTH_BYTES_PER_SEC
        + lower_secs / disk_share
}

/// GPU compute seconds for one global minibatch of `samples` samples,
/// including the compute interference of GPU-offloaded prep.
pub(crate) fn compute_secs_for_batch(job: &JobSpec, gpu: GpuGeneration, samples: usize) -> f64 {
    let profile = job.model.profile();
    let rate = aggregate_samples_per_sec(&profile, gpu, job.num_gpus, job.batch_per_gpu);
    let overhead = if job.loader.prep_backend == PrepBackend::DaliGpu {
        let cost = PrepCostModel::for_pipeline(&job.pipeline, PrepBackend::DaliGpu);
        1.0 + cost.gpu_compute_overhead
    } else {
        1.0
    };
    samples as f64 / rate * overhead
}

/// Prep seconds for `raw_bytes` of input given `cores` physical-core
/// equivalents for this job and its GPUs (for GPU-offloaded prep).
pub(crate) fn prep_secs_for_batch(job: &JobSpec, raw_bytes: u64, cores: f64) -> f64 {
    let cost = PrepCostModel::for_pipeline(&job.pipeline, job.loader.prep_backend);
    let gpus = if job.loader.prep_backend == PrepBackend::DaliGpu {
        job.num_gpus as f64
    } else {
        0.0
    };
    cost.prep_seconds(raw_bytes, cores, gpus)
}

/// The storage access pattern implied by the loader's fetch order and format.
pub(crate) fn access_pattern(job: &JobSpec) -> AccessPattern {
    if job.loader.format.is_sequential_within_unit()
        || job.loader.fetch_order == FetchOrder::Sequential
    {
        AccessPattern::Sequential
    } else {
        AccessPattern::Random
    }
}

/// Write the order in which raw items are read off storage during one epoch
/// into `out`; it differs from the (always shuffled) training order for
/// sequential readers.
pub(crate) fn fetch_stream_into(job: &JobSpec, consume_order: &[ItemId], out: &mut Vec<ItemId>) {
    out.clear();
    out.extend_from_slice(consume_order);
    if job.loader.fetch_order == FetchOrder::Sequential {
        out.sort_unstable();
    }
}

/// Reusable per-epoch working memory, hoisted out of the epoch drivers so a
/// sweep worker allocates once and simulates hundreds of thousands of grid
/// points (ROADMAP item 3: a what-if sweep point must be cheap).
///
/// [`sweep::run`](crate::sweep::run) owns one per worker thread and threads
/// it through every point it claims; [`Experiment`](crate::Experiment)
/// callers can pass their own via
/// [`Experiment::scratch`](crate::Experiment::scratch).  Every field is
/// (re-)initialised before use, so reuse across arbitrary experiments never
/// leaks state between runs: a scratch-reusing run is bit-identical to a
/// fresh-allocation run.
#[derive(Default)]
pub struct EngineScratch {
    /// Per producer sweep, the epoch's consume and storage read orders.
    pub(crate) sweeps: Vec<SweepOrder>,
    /// Per job, the epoch's metrics accumulator.
    pub(crate) accs: Vec<EpochAccumulator>,
    /// Fast engine: per-item fetch-unit key/size and raw size, packed into
    /// one array so the chunked-format replay touches one cache line per
    /// item.
    pub(crate) items_meta: Vec<crate::fast::ItemMeta>,
    /// Fast engine: per-item raw size, dense.  For file-per-item formats the
    /// fetch unit *is* the item (key = id, bytes = raw size), so this single
    /// 8-byte-stride array is all the replay touches per access.
    pub(crate) item_sizes: Vec<u64>,
    /// Fast engine: the inputs `items_meta`/`item_sizes` were derived from
    /// (item count, average size, spread bits, storage format).  Sweeps keep
    /// these constant across grid points, so the size-jitter hashing runs
    /// once per sweep instead of once per point.
    pub(crate) meta_key: Option<(u64, u64, u64, StorageFormat)>,
    /// Fast engine: per-unit topmost resident tier (`fast::NO_TIER` if none).
    pub(crate) unit_tier: Vec<u32>,
    /// Fast engine: per-tier resident bytes.
    pub(crate) tier_used: Vec<u64>,
    /// Fast engine: item count the permutation memo was built for.
    pub(crate) perm_items: u64,
    /// Fast engine: sampler seed the permutation memo was built for.
    pub(crate) perm_seed: u64,
    /// Fast engine: memoized per-epoch consume permutations.  A sweep re-runs
    /// the same `(num_items, seed)` job at every grid point, so the shuffles
    /// are identical across points and are computed once per epoch index.
    pub(crate) perms: Vec<Vec<ItemId>>,
}

impl EngineScratch {
    /// Fresh, empty scratch.  Buffers grow on first use and are then reused.
    pub fn new() -> Self {
        EngineScratch::default()
    }

    /// Grow to at least `sweeps` sweep orders and `jobs` accumulators.
    pub(crate) fn reserve(&mut self, sweeps: usize, jobs: usize) {
        let n = self.sweeps.len().max(sweeps);
        self.sweeps.resize_with(n, SweepOrder::default);
        let n = self.accs.len().max(jobs);
        self.accs.resize_with(n, EpochAccumulator::default);
    }
}

/// One producer's epoch orders.
#[derive(Default)]
pub(crate) struct SweepOrder {
    /// The consume-order permutation (`EpochSampler::permutation_into`).
    pub(crate) consume: Vec<ItemId>,
    /// The storage read order (`fetch_stream_into`).
    pub(crate) fetch: Vec<ItemId>,
}

/// Incrementally builds one epoch's metrics from per-batch stage samples.
pub(crate) struct EpochAccumulator {
    rec: PipelineRecurrence,
    counts: EpochCounts,
    io: TimeSeries,
    epoch: u64,
}

impl Default for EpochAccumulator {
    fn default() -> Self {
        EpochAccumulator::new(0, 1)
    }
}

impl EpochAccumulator {
    pub(crate) fn new(epoch: u64, prefetch_depth: usize) -> Self {
        EpochAccumulator {
            rec: PipelineRecurrence::new(prefetch_depth),
            counts: EpochCounts::default(),
            io: TimeSeries::new(),
            epoch,
        }
    }

    /// Reset for a fresh epoch, keeping the recurrence and time-series
    /// allocations so one accumulator can serve every epoch of a sweep.
    pub(crate) fn reset(&mut self, epoch: u64, prefetch_depth: usize) {
        self.rec.reset(prefetch_depth);
        self.counts = EpochCounts::default();
        self.io.clear();
        self.epoch = epoch;
    }

    /// Current virtual time (completion of the last pushed batch).
    pub(crate) fn now(&self) -> SimTime {
        self.rec
            .gpu_done_times()
            .last()
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Record one minibatch.
    pub(crate) fn push_batch(&mut self, fetch: &BatchFetch, prep_secs: f64, compute_secs: f64) {
        self.rec.push(StageSample::from_secs(
            fetch.fetch_secs,
            prep_secs,
            compute_secs,
        ));
        self.counts += fetch.counts;
        let t = self
            .rec
            .fetch_done_times()
            .last()
            .copied()
            .unwrap_or(SimTime::ZERO);
        self.io.push(t, fetch.counts.bytes_from_storage as f64);
    }

    /// Finish the epoch, producing metrics with the I/O timeline binned into
    /// `bins` windows.  Takes `&self` so a scratch-resident accumulator can
    /// be reset and reused for the next epoch.
    pub(crate) fn finish(&self, bins: usize) -> EpochMetrics {
        let breakdown = self.rec.breakdown();
        let horizon = breakdown.epoch_time.max(SimTime::from_secs(1e-9));
        let bin = SimTime::from_secs((horizon.as_secs() / bins.max(1) as f64).max(1e-9));
        let io_timeline = self
            .io
            .binned_sum(bin, horizon)
            .into_iter()
            .map(|(t, v)| (t.as_secs(), v))
            .collect();
        EpochMetrics {
            epoch: self.epoch,
            breakdown,
            counts: self.counts,
            io_timeline,
        }
    }
}

// ---------------------------------------------------------------------------
// Epoch drivers
// ---------------------------------------------------------------------------

/// Cross-epoch state of jobs sharing one server: its storage node (warm
/// across epochs), each job's cache-key window and lifetime, and whether one
/// coordinated producer feeds the whole ensemble.
pub(crate) struct SharedNodeSim {
    node: StorageNode,
    /// Per job, the base its fetch-unit keys are offset by in the cache.
    key_bases: Vec<u64>,
    /// Per job, the epochs it trains in: the whole run, except for an
    /// elastic cluster's tenants, whose key windows are reclaimed when they
    /// depart.
    lifetimes: Vec<TenantSchedule>,
    /// CoorDL's coordinated prep: the lead job's sweep feeds every job.
    coordinated: bool,
}

impl SharedNodeSim {
    /// The shared node of a validated single-server, HP-search, mixed or
    /// elastic `spec`.
    pub(crate) fn new(spec: &ExperimentSpec) -> Self {
        let jobs = &spec.jobs;
        let elastic = matches!(spec.scenario, Scenario::ElasticCluster { .. });
        // Jobs sharing a dataset *and* on-storage format (HP search) share
        // key space, preserving the cache-sharing behaviour the paper
        // measures.  Any other job gets a window of its own: different
        // datasets' item ids would collide, and different formats address
        // different fetch units (items vs record chunks).  Elastic tenants
        // are isolated even on one dataset (the runtime server's per-tenant
        // key windows).
        let mut key_bases = Vec::with_capacity(jobs.len());
        let mut next_base = 0u64;
        for job in jobs {
            let prior = jobs[..key_bases.len()].iter().position(|j| {
                !elastic && j.dataset == job.dataset && j.loader.format == job.loader.format
            });
            match prior {
                Some(i) => key_bases.push(key_bases[i]),
                None => {
                    key_bases.push(next_base);
                    next_base += job.dataset.num_items;
                }
            }
        }
        let whole_run = TenantSchedule {
            arrival: 0,
            departure: spec.epochs,
        };
        let lifetimes = match spec.scenario {
            Scenario::ElasticCluster { tenants, seed } => {
                churn_schedule(tenants, spec.epochs, seed)
            }
            _ => vec![whole_run; jobs.len()],
        };
        let lead = &jobs[0].loader;
        SharedNodeSim {
            node: build_node(&spec.server, lead.cache_policy, spec.cache),
            key_bases,
            lifetimes,
            coordinated: lead.coordinated_prep
                && matches!(spec.scenario, Scenario::HpSearch { .. }),
        }
    }

    /// Simulate one epoch of every job; a job outside its lifetime reports
    /// an idle epoch.
    ///
    /// The epoch is a set of producer sweeps, each fetching and preparing
    /// one job's epoch order and feeding its consumers' GPUs.  Uncoordinated,
    /// every active job is its own producer and gets an even share of the
    /// device bandwidth and the CPU cores; coordinated, the lead job's sweep
    /// uses the whole server and feeds every job, which sees each prepared
    /// minibatch exactly once.  Producers are interleaved minibatch by
    /// minibatch so their accesses mix in the shared cache exactly as
    /// concurrent processes' would.  A single job is the one-producer,
    /// one-consumer case.  All per-epoch working memory lives in `scratch`.
    pub(crate) fn epoch(
        &mut self,
        server: &ServerConfig,
        jobs: &[JobSpec],
        epoch: u64,
        scratch: &mut EngineScratch,
    ) -> Vec<EpochMetrics> {
        // Reclaim the key windows of tenants departing at this boundary
        // before anyone trains, mirroring the runtime's
        // `TenantHandle::depart`.
        for (j, life) in self.lifetimes.iter().enumerate() {
            if life.departure == epoch {
                let base = self.key_bases[j];
                self.node
                    .evict_keyspace(base, base + jobs[j].dataset.num_items);
            }
        }
        self.node.reset_epoch_stats();
        let active: Vec<usize> = (0..jobs.len())
            .filter(|&j| self.lifetimes[j].is_active(epoch))
            .collect();
        let producers = if self.coordinated {
            &active[..1]
        } else {
            &active[..]
        };
        let disk_share = 1.0 / producers.len() as f64;
        let producer_cores = server.cpu_cores as f64 / producers.len() as f64;

        scratch.reserve(producers.len(), jobs.len());
        let EngineScratch { sweeps, accs, .. } = scratch;
        let mut cores = Vec::with_capacity(producers.len());
        for (sweep, &j) in sweeps.iter_mut().zip(producers) {
            let job = &jobs[j];
            let sampler = EpochSampler::new(job.dataset.num_items, job.seed);
            sampler.permutation_into(epoch, &mut sweep.consume);
            fetch_stream_into(job, &sweep.consume, &mut sweep.fetch);
            let cost = PrepCostModel::for_pipeline(&job.pipeline, job.loader.prep_backend);
            cores.push(cost.effective_cores(producer_cores, producer_cores));
        }
        for &j in &active {
            accs[j].reset(epoch, jobs[j].loader.prefetch_depth);
        }

        let num_batches = |p: usize| {
            sweeps[p]
                .consume
                .len()
                .div_ceil(jobs[producers[p]].global_batch())
        };
        let max_batches = (0..producers.len()).map(num_batches).max().unwrap_or(0);
        for b in 0..max_batches {
            for (p, &j) in producers.iter().enumerate() {
                let (job, sweep, n) = (&jobs[j], &sweeps[p], num_batches(p));
                if b >= n {
                    continue;
                }
                // Concurrent jobs are never in lockstep: each starts its
                // sweep at a different position in its own epoch order
                // (TensorFlow shards record files across jobs, PyTorch
                // workers drift apart within a few iterations).  Offsetting
                // each producer's batch index models that drift; without it,
                // sequential readers would all touch the same chunk at the
                // same instant and the shared cache would hide the read
                // amplification the paper measures (§3.3.1, Table 3).
                let b = (b + p * n / producers.len()) % n;
                let start = b * job.global_batch();
                let end = (start + job.global_batch()).min(sweep.consume.len());
                let batch = &sweep.consume[start..end];
                let fetch_items = &sweep.fetch[start..end];
                let now = accs[j].now();
                let key_base = self.key_bases[j];
                let bf =
                    fetch_batch_local(&mut self.node, now, fetch_items, job, disk_share, key_base);
                let raw_bytes: u64 = batch.iter().map(|&it| job.dataset.item_size(it)).sum();
                let prep = prep_secs_for_batch(job, raw_bytes, cores[p]);
                let consumers = if self.coordinated {
                    &active[..]
                } else {
                    std::slice::from_ref(&producers[p])
                };
                for &c in consumers {
                    let compute = compute_secs_for_batch(&jobs[c], server.gpu, batch.len());
                    accs[c].push_batch(&bf, prep, compute);
                }
            }
        }

        let mut metrics: Vec<EpochMetrics> = (0..jobs.len())
            .map(|j| {
                if self.lifetimes[j].is_active(epoch) {
                    accs[j].finish(IO_BINS)
                } else {
                    EpochMetrics {
                        epoch,
                        ..Default::default()
                    }
                }
            })
            .collect();
        if self.coordinated {
            // Every consumer saw the same per-batch fetch (so its stall
            // timing is right), but the shared sweep's bytes must be
            // attributed once to the ensemble, not once per job: keep them
            // on the lead job so per-epoch disk totals are not inflated.
            for m in &mut metrics[1..] {
                *m = EpochMetrics {
                    epoch,
                    breakdown: m.breakdown,
                    counts: EpochCounts {
                        samples: m.counts.samples,
                        ..EpochCounts::default()
                    },
                    ..Default::default()
                };
            }
        }
        metrics
    }
}

/// Cross-epoch state of a distributed simulation: one storage node per
/// server, the partitioned-cache directory and the network fabric.
///
/// The directory ([`PartitionedIndex`]) also holds the cache membership and
/// the fault schedule, and its rules are the runtime cluster's
/// (`coordl::PartitionedCacheCluster`): a fetch is served by the local cache
/// if the server is alive, then by a live remote owner, then by storage,
/// admitted and registered only by a live server; a kill re-homes each
/// orphan to the first live rendezvous candidate already holding it and
/// drops the rest; a leave is a kill's re-home followed by migrating the
/// remaining orphans into the first live candidate that keeps them; a
/// rejoined server's stale-but-valid cache re-advertises lazily on local
/// hits.  A dead server keeps *training* — its consumer is unaffected.
pub(crate) struct DistributedSim {
    nodes: Vec<StorageNode>,
    directory: PartitionedIndex,
    fabric: Fabric,
    num_servers: usize,
}

impl DistributedSim {
    /// A cluster of `num_servers` cold nodes under the membership events
    /// `faults`: empty for a healthy cluster, the seeded schedule shared
    /// with the runtime ([`dcache::fault_schedule`]) under chaos.  An event
    /// at `k` fires after `k` full epochs, as the runtime plan's event at
    /// `k × dataset_len` fetches.
    pub(crate) fn new(
        server: &ServerConfig,
        job: &JobSpec,
        num_servers: usize,
        cache: CacheSpec,
        faults: Vec<FaultEvent>,
    ) -> Self {
        let mut directory = PartitionedIndex::new(num_servers);
        directory.set_schedule(faults);
        DistributedSim {
            nodes: (0..num_servers)
                .map(|_| build_node(server, job.loader.cache_policy, cache))
                .collect(),
            directory,
            fabric: Fabric::new(server.link, num_servers),
            num_servers,
        }
    }

    /// Simulate one epoch of the data-parallel job: random disjoint
    /// epoch-varying shards per server, partitioned caching when the loader
    /// enables it.  Returns per-server metrics in server order.
    pub(crate) fn epoch(
        &mut self,
        server: &ServerConfig,
        job: &JobSpec,
        epoch: u64,
    ) -> Vec<EpochMetrics> {
        let sampler = EpochSampler::new(job.dataset.num_items, job.seed);
        let cost = PrepCostModel::for_pipeline(&job.pipeline, job.loader.prep_backend);
        let cores = cost.effective_cores(server.cpu_cores as f64, server.cpu_cores as f64);
        let nodes = &mut self.nodes;
        while let Some(e) = self.directory.next_due(epoch) {
            let holds = |item, ServerId(n), offered| {
                if offered {
                    nodes[n].preload(item, job.dataset.item_size(item));
                }
                nodes[n].is_cached(&item)
            };
            self.directory.apply(e.kind, ServerId(e.node), holds);
        }
        for node in self.nodes.iter_mut() {
            node.reset_epoch_stats();
        }
        self.fabric.reset();

        (0..self.num_servers)
            .map(|s| {
                // This server's shard of the epoch: random, disjoint,
                // epoch-varying.
                let shard = sampler.distributed_shard(epoch, s, self.num_servers);
                let mut acc = EpochAccumulator::new(epoch, job.loader.prefetch_depth);
                for batch in shard.chunks(job.global_batch()) {
                    let now = acc.now();
                    let bf = if job.loader.partitioned_cache {
                        self.fetch_partitioned(ServerId(s), now, batch, job)
                    } else {
                        // Uncoordinated: every miss goes to local storage.
                        fetch_batch_local(&mut self.nodes[s], now, batch, job, 1.0, 0)
                    };
                    let raw_bytes: u64 = batch.iter().map(|&it| job.dataset.item_size(it)).sum();
                    let prep = prep_secs_for_batch(job, raw_bytes, cores);
                    let compute = compute_secs_for_batch(job, server.gpu, batch.len());
                    acc.push_batch(&bf, prep, compute);
                }
                acc.finish(IO_BINS)
            })
            .collect()
    }

    /// Fetch one minibatch with CoorDL's partitioned cache: local MinIO cache
    /// first, then a peer's cache over the network, then local storage.
    ///
    /// A dead server (under chaos) keeps consuming — peers still serve its
    /// remote hits — but bypasses its own cache: storage reads are charged
    /// without admitting or registering.
    fn fetch_partitioned(
        &mut self,
        me: ServerId,
        at: SimTime,
        items: &[ItemId],
        job: &JobSpec,
    ) -> BatchFetch {
        let mut out = BatchFetch::default();
        let device = *self.nodes[me.0].device().profile();
        let pattern = access_pattern(job);
        let peers = self.num_servers.saturating_sub(1).max(1);
        let alive = self.directory.is_alive(me);
        let mut remote_requests = 0u64;
        let mut lower_secs = 0.0;

        for &item in items {
            let bytes = job.dataset.item_size(item);
            let node = &mut self.nodes[me.0];
            if alive && node.is_cached(&item) {
                // Resident in some tier of the local cache chain.
                let (t, src) = node.fetch(at, item, bytes, pattern);
                lower_secs += out.record(src, bytes, t);
                self.directory.advertise(item, me);
            } else if let Some(peer) = self.directory.remote_owner(item, me) {
                self.fabric.remote_fetch(peer.0, me.0, bytes, peers);
                out.counts.bytes_from_remote += bytes;
                out.counts.cache_hits += 1;
                remote_requests += 1;
            } else if alive {
                // Cached nowhere: read from local storage and, if the local
                // cache admits it, publish it in the directory.
                let (t, src) = node.fetch(at, item, bytes, pattern);
                lower_secs += out.record(src, bytes, t);
                if node.is_cached(&item) {
                    self.directory.register(item, me);
                }
            } else {
                out.record(FetchSource::Disk, bytes, SimTime::ZERO);
            }
        }

        let link = self.fabric.link();
        let c = &mut out.counts;
        c.samples = items.len() as u64;
        out.fetch_secs = c.bytes_from_storage as f64 / device.bandwidth(pattern)
            + c.cache_misses as f64 * device.request_latency_s
            + (c.bytes_from_cache - c.bytes_from_lower_tiers) as f64 / DRAM_BANDWIDTH_BYTES_PER_SEC
            + lower_secs
            + c.bytes_from_remote as f64 / link.per_flow_bandwidth(peers)
            + if remote_requests > 0 { link.rtt_s } else { 0.0 };
        out
    }
}
