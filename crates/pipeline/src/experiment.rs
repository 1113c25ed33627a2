//! The unified experiment API: one builder, one scenario enum, one report.
//!
//! Every comparison in the paper's evaluation — and every bench, example and
//! test in this workspace — is the same experiment shape: a server, one or
//! more jobs, a scenario and an epoch count.  [`Experiment`] expresses that
//! directly:
//!
//! ```
//! use pipeline::{Experiment, JobSpec, LoaderConfig, Scenario, ServerConfig};
//! use dataset::DatasetSpec;
//! use gpu::ModelKind;
//!
//! let dataset = DatasetSpec::imagenet_1k().scaled(2000);
//! let server = ServerConfig::config_ssd_v100()
//!     .with_cache_fraction(dataset.total_bytes(), 0.35);
//! let job = JobSpec::new(
//!     ModelKind::ResNet18,
//!     dataset,
//!     1,
//!     LoaderConfig::coordl_best(ModelKind::ResNet18),
//! );
//!
//! let report = Experiment::on(&server)
//!     .job(job)
//!     .scenario(Scenario::HpSearch { jobs: 8 })
//!     .epochs(3)
//!     .run();
//! assert_eq!(report.num_units(), 8);
//! assert!(report.steady_per_job_samples_per_sec() > 0.0);
//! ```
//!
//! The same builder covers the single-server (§5.1), HP-search (§5.3) and
//! distributed (§5.2) scenarios the paper evaluates, plus a
//! [`Scenario::MixedCluster`] of *heterogeneous* jobs — different models,
//! datasets and loaders — contending for one server's cache, CPU and disk,
//! which the legacy one-function-per-scenario API could not express.

use crate::churn::churn_schedule;
use crate::config::ServerConfig;
use crate::engine::{
    build_node, shared_coordinated_epoch, shared_uncoordinated_epoch, single_epoch, DistributedSim,
    EngineScratch,
};
use crate::fast;
use crate::job::JobSpec;
use crate::json::{compact, int, num, nums, object, text, Value};
use crate::metrics::{EpochMetrics, RunResult};

/// The cache hierarchy every storage node of the experiment runs
/// (`dcache::TierChain` under the hood).
///
/// The replacement policy at each tier comes from the job's loader
/// ([`crate::LoaderConfig::cache_policy`]), so the baselines keep their
/// page-cache LRU and CoorDL keeps MinIO at every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSpec {
    /// One DRAM tier sized by [`ServerConfig::dram_cache_bytes`] — the
    /// pre-hierarchy behaviour, bit-identical to it by construction.
    DramOnly,
    /// A DRAM tier spilling into a local SATA-SSD tier (§4.2 / Table 2:
    /// the SSD extends MinIO's reach at 530 MB/s instead of DRAM
    /// bandwidth).  Epoch drivers charge SSD hits at the SSD profile's
    /// random-read cost instead of the flat cache-or-disk split.
    Tiered {
        /// DRAM tier capacity in bytes (overrides the server's DRAM cache
        /// size so sweeps can vary it per point).
        dram_bytes: u64,
        /// Local-SSD tier capacity in bytes.
        ssd_bytes: u64,
    },
}

impl CacheSpec {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CacheSpec::DramOnly => "dram",
            CacheSpec::Tiered { .. } => "dram+ssd",
        }
    }
}

/// The shape of a training scenario (which resources are shared and how).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// One job alone on one server: all CPU cores, the full device bandwidth
    /// and the entire DRAM cache (§5.1, Figure 9a).
    SingleServer,
    /// `jobs` concurrent hyper-parameter-search jobs training the *same*
    /// dataset on one server (§5.3, Figure 9d).  When the builder holds a
    /// single job it is cloned `jobs` times with derived seeds; an explicit
    /// job list must have exactly `jobs` entries.  The first job's loader
    /// decides whether CoorDL's coordinated prep is used.
    HpSearch {
        /// Number of concurrent jobs in the search ensemble.
        jobs: usize,
    },
    /// One data-parallel job spread over `servers` identical servers (§5.2,
    /// Figure 9b), with CoorDL's partitioned caching when the loader enables
    /// it.
    Distributed {
        /// Number of identical servers, each contributing `job.num_gpus` GPUs.
        servers: usize,
    },
    /// Heterogeneous jobs — different models, datasets and loaders — sharing
    /// one server's cache, CPU cores and disk bandwidth.  Generalises the
    /// symmetric-HP-search assumption: jobs sweep their *own* datasets
    /// uncoordinated, contending in the shared cache (whose policy is taken
    /// from the first job's loader).
    MixedCluster,
    /// `tenants` jobs arriving and departing over the run on one shared
    /// server — the elastic counterpart of the multi-tenant `coordl::Server`
    /// (§5 HP-search lineage with job churn).  A deterministic
    /// [`churn_schedule`] seeded by `seed`
    /// decides each tenant's `[arrival, departure)` window; a departing
    /// tenant's cached keys are reclaimed from the shared chain at the
    /// departure-epoch boundary.  Each tenant gets its own cache-key window
    /// even when datasets coincide, mirroring the runtime server's
    /// per-tenant key namespacing.
    ElasticCluster {
        /// Number of tenants in the churn schedule.
        tenants: usize,
        /// Seed of the churn schedule.
        seed: u64,
    },
    /// A distributed data-parallel job whose servers suffer injected
    /// membership faults — crashes, graceful leaves and rejoins — from the
    /// seeded [`dcache::fault_schedule`] the runtime's `coordl::FaultPlan`
    /// shares.  A failed server keeps training (its consumer never loses a
    /// sample) but its cache shard drops out of the partitioned directory
    /// and is re-homed onto survivors in rendezvous order; a rejoined
    /// server's stale-but-valid cache re-advertises lazily.  The §5.2
    /// partitioned-caching claims under churn.
    PartitionedChaos {
        /// Number of identical servers in the cluster.
        servers: usize,
        /// Number of membership events to schedule.
        faults: usize,
        /// Seed of the fault schedule.
        seed: u64,
    },
}

impl Scenario {
    /// Short scenario name used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::SingleServer => "single-server",
            Scenario::HpSearch { .. } => "hp-search",
            Scenario::Distributed { .. } => "distributed",
            Scenario::MixedCluster => "mixed-cluster",
            Scenario::ElasticCluster { .. } => "elastic-cluster",
            Scenario::PartitionedChaos { .. } => "partitioned-chaos",
        }
    }

    /// What one "unit" of the report is for this scenario.
    fn unit_label(&self) -> &'static str {
        match self {
            Scenario::SingleServer => "job",
            Scenario::HpSearch { .. } | Scenario::MixedCluster => "job",
            Scenario::ElasticCluster { .. } => "job",
            Scenario::Distributed { .. } | Scenario::PartitionedChaos { .. } => "server",
        }
    }
}

/// Per-epoch snapshot handed to [`Experiment::observer`] callbacks as the
/// simulation runs: one [`EpochMetrics`] per unit (job or server).
#[derive(Debug)]
pub struct EpochUpdate<'a> {
    /// Epoch index (0 is the cold-cache warm-up epoch).
    pub epoch: u64,
    /// The scenario being simulated.
    pub scenario: Scenario,
    /// This epoch's metrics for each unit, in unit order.
    pub units: &'a [EpochMetrics],
}

/// A per-epoch telemetry callback registered with [`Experiment::observer`].
type Observer<'obs> = Box<dyn FnMut(&EpochUpdate<'_>) + 'obs>;

/// Builder for one simulated experiment.
///
/// Construct with [`Experiment::on`], describe the workload with
/// [`job`](Experiment::job) / [`jobs`](Experiment::jobs) and
/// [`scenario`](Experiment::scenario), then [`run`](Experiment::run).
pub struct Experiment<'obs> {
    server: ServerConfig,
    jobs: Vec<JobSpec>,
    scenario: Scenario,
    cache: CacheSpec,
    epochs: u64,
    observer: Option<Observer<'obs>>,
    scratch: Option<&'obs mut EngineScratch>,
    exact_engine: bool,
}

impl<'obs> Experiment<'obs> {
    /// Start describing an experiment on `server`.  Defaults:
    /// [`Scenario::SingleServer`], 3 epochs (one warm-up plus two measured,
    /// the paper's methodology), no observer.
    pub fn on(server: &ServerConfig) -> Self {
        Experiment {
            server: server.clone(),
            jobs: Vec::new(),
            scenario: Scenario::SingleServer,
            cache: CacheSpec::DramOnly,
            epochs: 3,
            observer: None,
            scratch: None,
            exact_engine: false,
        }
    }

    /// Add one job.  May be called repeatedly; jobs accumulate.
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Replace the job list wholesale (explicit HP-search ensembles with
    /// custom seeds, mixed clusters).
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs = jobs.into_iter().collect();
        self
    }

    /// Select the scenario shape.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Select the cache hierarchy every storage node runs (default:
    /// [`CacheSpec::DramOnly`], the single-tier behaviour).  In distributed
    /// scenarios each server gets its own chain of this shape.
    pub fn cache(mut self, cache: CacheSpec) -> Self {
        self.cache = cache;
        self
    }

    /// Number of epochs to simulate (epoch 0 starts with a cold cache).
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.epochs = epochs;
        self
    }

    /// Register a per-epoch callback for live telemetry: it is invoked after
    /// every simulated epoch with that epoch's metrics for every unit.
    pub fn observer(mut self, f: impl FnMut(&EpochUpdate<'_>) + 'obs) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    /// Reuse `scratch` for all per-epoch working memory instead of
    /// allocating fresh buffers; sweeps thread one scratch per worker
    /// through every grid point.  Results are bit-identical either way.
    pub fn scratch(mut self, scratch: &'obs mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Force the exact cache-chain engine even where the vectorized MinIO
    /// fast path applies (default `false`).  The two engines produce
    /// bit-identical [`SimReport`]s — this switch exists so tests, the
    /// `mega-sweep` gate and curious users can prove it.
    pub fn exact_engine(mut self, exact: bool) -> Self {
        self.exact_engine = exact;
        self
    }

    /// Run the simulation.
    ///
    /// # Panics
    /// Panics on invalid configurations: no jobs, zero epochs, more GPUs
    /// requested than the server has, HP-search jobs with different datasets,
    /// or a job count that contradicts `Scenario::HpSearch { jobs }`.
    pub fn run(self) -> SimReport {
        assert!(self.epochs > 0, "need at least one epoch");
        assert!(!self.jobs.is_empty(), "need at least one job");

        let scenario = self.scenario;
        let mut report = match scenario {
            Scenario::SingleServer => self.run_single(),
            Scenario::HpSearch { jobs } => self.run_shared(Some(jobs)),
            Scenario::MixedCluster => self.run_shared(None),
            Scenario::ElasticCluster { tenants, seed } => self.run_elastic(tenants, seed),
            Scenario::Distributed { servers } => self.run_distributed(servers),
            Scenario::PartitionedChaos {
                servers,
                faults,
                seed,
            } => self.run_partitioned_chaos(servers, faults, seed),
        };
        report.scenario = scenario;
        report
    }

    fn notify(
        observer: &mut Option<Observer<'obs>>,
        scenario: Scenario,
        epoch: u64,
        units: &[EpochMetrics],
    ) {
        if let Some(f) = observer.as_mut() {
            f(&EpochUpdate {
                epoch,
                scenario,
                units,
            });
        }
    }

    fn run_single(mut self) -> SimReport {
        assert_eq!(
            self.jobs.len(),
            1,
            "Scenario::SingleServer takes exactly one job, got {}",
            self.jobs.len()
        );
        let job = self.jobs.remove(0);
        assert!(
            job.num_gpus <= self.server.num_gpus,
            "job wants {} GPUs but the server has {}",
            job.num_gpus,
            self.server.num_gpus
        );
        let mut local_scratch = EngineScratch::default();
        let scratch = match self.scratch.take() {
            Some(s) => s,
            None => &mut local_scratch,
        };
        let mut report = SimReport::empty(Scenario::SingleServer, 1);
        // MinIO single-server runs take the vectorized flat-array engine
        // (`crate::fast`), bit-identical to the chain but 10–100× cheaper per
        // sweep point; every other configuration runs the exact chain.
        if !self.exact_engine && job.loader.cache_policy == dcache::PolicyKind::MinIo {
            let plan = fast::TierPlan::new(&self.server, self.cache);
            fast::init_run(&job, &plan, scratch);
            for epoch in 0..self.epochs {
                let m = fast::single_epoch_fast(&self.server, &job, &plan, epoch, scratch);
                Self::notify(
                    &mut self.observer,
                    Scenario::SingleServer,
                    epoch,
                    std::slice::from_ref(&m),
                );
                report.push_epoch(vec![m]);
            }
        } else {
            let mut node = build_node(&self.server, job.loader.cache_policy, self.cache);
            for epoch in 0..self.epochs {
                node.reset_epoch_stats();
                let m = single_epoch(&self.server, &job, &mut node, epoch, scratch);
                Self::notify(
                    &mut self.observer,
                    Scenario::SingleServer,
                    epoch,
                    std::slice::from_ref(&m),
                );
                report.push_epoch(vec![m]);
            }
        }
        report
    }

    /// Shared-server scenarios: symmetric HP search (`expected_jobs` given)
    /// or a heterogeneous mixed cluster (`None`).
    fn run_shared(mut self, expected_jobs: Option<usize>) -> SimReport {
        let scenario = self.scenario;
        if let Some(n) = expected_jobs {
            assert!(n > 0, "need at least one HP-search job");
            if self.jobs.len() == 1 && n > 1 {
                // Clone the template job with derived seeds, as the paper's
                // HP-search ensembles differ only in hyper-parameters/seed.
                let template = self.jobs[0].clone();
                self.jobs = (0..n)
                    .map(|j| template.with_seed(template.seed + j as u64))
                    .collect();
            }
            assert_eq!(
                self.jobs.len(),
                n,
                "Scenario::HpSearch {{ jobs: {n} }} got {} jobs",
                self.jobs.len()
            );
            for j in &self.jobs {
                assert_eq!(
                    j.dataset, self.jobs[0].dataset,
                    "HP-search jobs must share a dataset; use Scenario::MixedCluster \
                     for heterogeneous jobs"
                );
            }
        }
        let total_gpus: usize = self.jobs.iter().map(|j| j.num_gpus).sum();
        assert!(
            total_gpus <= self.server.num_gpus,
            "jobs use {total_gpus} GPUs but the server has {}",
            self.server.num_gpus
        );

        // Heterogeneous jobs may train different datasets: namespace each
        // job's cache keys so item ids do not collide in the shared cache.
        // Jobs sharing a dataset *and* on-storage format (HP search) share
        // key space, preserving the cache-sharing behaviour the paper
        // measures; different formats address different fetch units (items
        // vs record chunks), so they must not alias either.
        let mut key_bases = Vec::with_capacity(self.jobs.len());
        let mut next_base = 0u64;
        for job in &self.jobs {
            let prior = self.jobs[..key_bases.len()]
                .iter()
                .position(|j| j.dataset == job.dataset && j.loader.format == job.loader.format);
            match prior {
                Some(i) => key_bases.push(key_bases[i]),
                None => {
                    key_bases.push(next_base);
                    next_base += job.dataset.num_items;
                }
            }
        }

        let coordinated = self.jobs[0].loader.coordinated_prep && expected_jobs.is_some();
        let mut node = build_node(&self.server, self.jobs[0].loader.cache_policy, self.cache);
        let mut report = SimReport::empty(scenario, self.jobs.len());
        for epoch in 0..self.epochs {
            node.reset_epoch_stats();
            let per_epoch = if coordinated {
                shared_coordinated_epoch(&self.server, &self.jobs, &mut node, epoch)
            } else {
                shared_uncoordinated_epoch(&self.server, &self.jobs, &mut node, epoch, &key_bases)
            };
            Self::notify(&mut self.observer, scenario, epoch, &per_epoch);
            report.push_epoch(per_epoch);
        }
        report
    }

    /// Elastic multi-tenant scenario: the shared-server driver over the
    /// subset of tenants active each epoch, with per-tenant cache-key
    /// windows and departure-time reclamation.
    fn run_elastic(mut self, tenants: usize, seed: u64) -> SimReport {
        assert!(tenants > 0, "need at least one tenant");
        if self.jobs.len() == 1 && tenants > 1 {
            let template = self.jobs[0].clone();
            self.jobs = (0..tenants)
                .map(|j| template.with_seed(template.seed + j as u64))
                .collect();
        }
        assert_eq!(
            self.jobs.len(),
            tenants,
            "Scenario::ElasticCluster {{ tenants: {tenants} }} got {} jobs",
            self.jobs.len()
        );
        let total_gpus: usize = self.jobs.iter().map(|j| j.num_gpus).sum();
        assert!(
            total_gpus <= self.server.num_gpus,
            "jobs use {total_gpus} GPUs but the server has {}",
            self.server.num_gpus
        );

        // Unlike HP search, tenants are namespace-isolated even on the same
        // dataset (the runtime server's per-tenant key windows): every job
        // gets a distinct key base.
        let mut key_bases = Vec::with_capacity(self.jobs.len());
        let mut next_base = 0u64;
        for job in &self.jobs {
            key_bases.push(next_base);
            next_base += job.dataset.num_items;
        }

        let schedule = churn_schedule(tenants, self.epochs, seed);
        let scenario = self.scenario;
        let mut node = build_node(&self.server, self.jobs[0].loader.cache_policy, self.cache);
        let mut report = SimReport::empty(scenario, tenants);
        for epoch in 0..self.epochs {
            // Reclaim the key windows of tenants departing at this boundary
            // before anyone trains, mirroring the runtime's
            // `TenantHandle::depart`.
            for (j, t) in schedule.iter().enumerate() {
                if t.departure == epoch {
                    node.evict_keyspace(
                        key_bases[j],
                        key_bases[j] + self.jobs[j].dataset.num_items,
                    );
                }
            }
            node.reset_epoch_stats();
            let active: Vec<usize> = (0..tenants)
                .filter(|&j| schedule[j].is_active(epoch))
                .collect();
            let active_jobs: Vec<JobSpec> = active.iter().map(|&j| self.jobs[j].clone()).collect();
            let active_bases: Vec<u64> = active.iter().map(|&j| key_bases[j]).collect();
            let results = shared_uncoordinated_epoch(
                &self.server,
                &active_jobs,
                &mut node,
                epoch,
                &active_bases,
            );
            let mut per_epoch: Vec<EpochMetrics> =
                (0..tenants).map(|_| idle_epoch(epoch)).collect();
            for (&slot, m) in active.iter().zip(results) {
                per_epoch[slot] = m;
            }
            Self::notify(&mut self.observer, scenario, epoch, &per_epoch);
            report.push_epoch(per_epoch);
        }
        report
    }

    fn run_distributed(mut self, num_servers: usize) -> SimReport {
        assert!(num_servers >= 1, "need at least one server");
        assert_eq!(
            self.jobs.len(),
            1,
            "Scenario::Distributed takes exactly one data-parallel job, got {}",
            self.jobs.len()
        );
        let job = self.jobs.remove(0);
        assert!(
            job.num_gpus <= self.server.num_gpus,
            "job wants {} GPUs per server but servers have {}",
            job.num_gpus,
            self.server.num_gpus
        );
        let scenario = self.scenario;
        let mut sim = DistributedSim::new(&self.server, &job, num_servers, self.cache);
        let mut report = SimReport::empty(scenario, num_servers);
        for epoch in 0..self.epochs {
            let per_epoch = sim.epoch(&self.server, &job, epoch);
            Self::notify(&mut self.observer, scenario, epoch, &per_epoch);
            report.push_epoch(per_epoch);
        }
        report
    }

    /// Distributed scenario under a seeded membership-fault schedule; the
    /// fault-free prefix is bit-identical to [`Scenario::Distributed`] by
    /// construction (same engine, same shards, same directory).
    fn run_partitioned_chaos(mut self, num_servers: usize, faults: usize, seed: u64) -> SimReport {
        assert!(num_servers >= 2, "chaos needs at least two servers");
        assert_eq!(
            self.jobs.len(),
            1,
            "Scenario::PartitionedChaos takes exactly one data-parallel job, got {}",
            self.jobs.len()
        );
        let job = self.jobs.remove(0);
        assert!(
            job.num_gpus <= self.server.num_gpus,
            "job wants {} GPUs per server but servers have {}",
            job.num_gpus,
            self.server.num_gpus
        );
        let scenario = self.scenario;
        let mut sim = DistributedSim::with_faults(
            &self.server,
            &job,
            num_servers,
            self.cache,
            self.epochs,
            faults,
            seed,
        );
        let mut report = SimReport::empty(scenario, num_servers);
        for epoch in 0..self.epochs {
            let per_epoch = sim.epoch(&self.server, &job, epoch);
            Self::notify(&mut self.observer, scenario, epoch, &per_epoch);
            report.push_epoch(per_epoch);
        }
        report
    }
}

/// The unified result of any [`Experiment`]: per-unit epoch metrics plus
/// cross-unit aggregates.  A *unit* is one job (single-server, HP search,
/// mixed cluster) or one server (distributed).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Scenario this report came from.
    pub scenario: Scenario,
    /// Per-unit run results, in unit order.
    pub units: Vec<RunResult>,
    /// Bytes read from storage per epoch, summed over units.
    pub disk_bytes_per_epoch: Vec<u64>,
    /// Bytes fetched over the network per epoch, summed over units
    /// (non-zero only with partitioned caching).
    pub remote_bytes_per_epoch: Vec<u64>,
}

impl SimReport {
    fn empty(scenario: Scenario, num_units: usize) -> Self {
        SimReport {
            scenario,
            units: vec![RunResult::default(); num_units],
            disk_bytes_per_epoch: Vec::new(),
            remote_bytes_per_epoch: Vec::new(),
        }
    }

    fn push_epoch(&mut self, per_unit: Vec<EpochMetrics>) {
        debug_assert_eq!(per_unit.len(), self.units.len());
        self.disk_bytes_per_epoch
            .push(per_unit.iter().map(|m| m.bytes_from_disk).sum());
        self.remote_bytes_per_epoch
            .push(per_unit.iter().map(|m| m.bytes_from_remote).sum());
        for (unit, m) in self.units.iter_mut().zip(per_unit) {
            unit.epochs.push(m);
        }
    }

    /// Number of units (jobs or servers).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Number of simulated epochs.
    pub fn num_epochs(&self) -> usize {
        self.disk_bytes_per_epoch.len()
    }

    /// Per-job results (single-server, HP-search and mixed-cluster runs).
    pub fn per_job(&self) -> &[RunResult] {
        &self.units
    }

    /// Per-server results (distributed runs).
    pub fn per_server(&self) -> &[RunResult] {
        &self.units
    }

    /// The single unit of a single-server run.
    ///
    /// # Panics
    /// Panics if the report has more than one unit.
    pub fn single(&self) -> &RunResult {
        assert_eq!(
            self.units.len(),
            1,
            "SimReport::single() on a {}-unit {} report",
            self.units.len(),
            self.scenario.name()
        );
        &self.units[0]
    }

    /// Warm-up (first) epoch of the single unit; see [`SimReport::single`].
    pub fn warmup(&self) -> &EpochMetrics {
        self.single().warmup()
    }

    /// Steady-state metrics of the single unit; see [`SimReport::single`].
    pub fn steady_state(&self) -> EpochMetrics {
        self.single().steady_state()
    }

    /// Steady-state epoch time: units synchronise (distributed) or contend
    /// (shared server), so the slowest unit sets the pace.
    pub fn steady_epoch_seconds(&self) -> f64 {
        self.units
            .iter()
            .map(|r| r.steady_state().epoch_seconds())
            .fold(0.0, f64::max)
    }

    /// Steady-state aggregate throughput in samples/second across all units.
    pub fn steady_samples_per_sec(&self) -> f64 {
        let secs = self.steady_epoch_seconds();
        if secs == 0.0 {
            return 0.0;
        }
        let samples: u64 = self.units.iter().map(|r| r.steady_state().samples).sum();
        samples as f64 / secs
    }

    /// Average steady-state per-job throughput in samples/second (the
    /// HP-search headline metric, §5.3).
    pub fn steady_per_job_samples_per_sec(&self) -> f64 {
        let n = self.units.len() as f64;
        self.units
            .iter()
            .map(RunResult::steady_samples_per_sec)
            .sum::<f64>()
            / n
    }

    /// Speedup of this experiment over `baseline`.
    ///
    /// Shared-server scenarios (HP search, mixed cluster) compare mean
    /// per-job throughput, matching the paper's §5.3 metric; single-server
    /// and distributed runs compare aggregate throughput.
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        let (a, b) = match self.scenario {
            Scenario::HpSearch { .. }
            | Scenario::MixedCluster
            | Scenario::ElasticCluster { .. } => (
                self.steady_per_job_samples_per_sec(),
                baseline.steady_per_job_samples_per_sec(),
            ),
            Scenario::SingleServer
            | Scenario::Distributed { .. }
            | Scenario::PartitionedChaos { .. } => (
                self.steady_samples_per_sec(),
                baseline.steady_samples_per_sec(),
            ),
        };
        if b == 0.0 {
            f64::INFINITY
        } else {
            a / b
        }
    }

    /// Read amplification relative to one sweep over the dataset in the
    /// given epoch (Table 3 / §3.3.1: 8 uncoordinated jobs read up to 7× the
    /// dataset).
    pub fn read_amplification(&self, dataset_bytes: u64, epoch: usize) -> f64 {
        self.disk_bytes_per_epoch[epoch] as f64 / dataset_bytes as f64
    }

    /// Total disk traffic across all epochs and units.
    pub fn total_disk_bytes(&self) -> u64 {
        self.disk_bytes_per_epoch.iter().sum()
    }

    /// Per-unit disk I/O in the given epoch, in bytes.
    pub fn disk_bytes_per_server(&self, epoch: usize) -> Vec<u64> {
        self.units
            .iter()
            .map(|r| r.epochs[epoch].bytes_from_disk)
            .collect()
    }

    /// Average network receive bandwidth per server in Gbit/s during the
    /// given epoch (paper §5.5 reports CoorDL uses ~5.7 Gbps of the 40 Gbps).
    pub fn avg_network_gbps(&self, epoch: usize) -> f64 {
        let secs = self
            .units
            .iter()
            .map(|r| r.epochs[epoch].epoch_seconds())
            .fold(0.0, f64::max);
        if secs == 0.0 {
            return 0.0;
        }
        let per_server_bytes = self
            .units
            .iter()
            .map(|r| r.epochs[epoch].bytes_from_remote as f64)
            .sum::<f64>()
            / self.units.len() as f64;
        per_server_bytes * 8.0 / secs / 1e9
    }

    /// Extract the sole unit's [`RunResult`] (single-server runs).
    pub fn into_run_result(mut self) -> RunResult {
        assert_eq!(self.units.len(), 1, "report has more than one unit");
        self.units.remove(0)
    }

    /// Serialise the full report — per-unit, per-epoch metrics including the
    /// I/O timeline — as a JSON object, for bench trajectory dumps and
    /// external plotting.
    pub fn to_json(&self) -> String {
        compact(&self.to_value())
    }

    /// [`SimReport::to_json`]'s document as a [`Value`].
    pub(crate) fn to_value(&self) -> Value {
        let bytes = |per_epoch: &[u64]| nums(per_epoch.iter().map(|&b| b as f64));
        let units = self.units.iter().map(|unit| {
            let epochs = unit.epochs.iter().map(epoch_metrics_value);
            object([("epochs", Value::Array(epochs.collect()))])
        });
        object([
            ("scenario", text(self.scenario.name())),
            ("unit_kind", text(self.scenario.unit_label())),
            ("epochs", int(self.num_epochs() as u64)),
            ("disk_bytes_per_epoch", bytes(&self.disk_bytes_per_epoch)),
            (
                "remote_bytes_per_epoch",
                bytes(&self.remote_bytes_per_epoch),
            ),
            ("steady_epoch_seconds", num(self.steady_epoch_seconds())),
            ("steady_samples_per_sec", num(self.steady_samples_per_sec())),
            ("units", Value::Array(units.collect())),
        ])
    }
}

/// A zeroed [`EpochMetrics`] for an epoch a tenant sat out of an elastic
/// cluster (not yet arrived or already departed).
fn idle_epoch(epoch: u64) -> EpochMetrics {
    EpochMetrics {
        epoch,
        breakdown: Default::default(),
        samples: 0,
        bytes_from_cache: 0,
        bytes_from_disk: 0,
        bytes_from_remote: 0,
        cache_hits: 0,
        cache_misses: 0,
        bytes_from_lower_tiers: 0,
        lower_tier_hits: 0,
        io_timeline: Vec::new(),
    }
}

fn epoch_metrics_value(e: &EpochMetrics) -> Value {
    let timeline = e.io_timeline.iter().map(|&(t, v)| nums([t, v]));
    object([
        ("epoch", int(e.epoch)),
        ("epoch_seconds", num(e.epoch_seconds())),
        ("compute_seconds", num(e.breakdown.compute_time.as_secs())),
        (
            "fetch_stall_seconds",
            num(e.breakdown.fetch_stall.as_secs()),
        ),
        ("prep_stall_seconds", num(e.breakdown.prep_stall.as_secs())),
        ("samples", int(e.samples)),
        ("samples_per_sec", num(e.samples_per_sec())),
        ("bytes_from_cache", int(e.bytes_from_cache)),
        ("bytes_from_disk", int(e.bytes_from_disk)),
        ("bytes_from_remote", int(e.bytes_from_remote)),
        ("cache_hits", int(e.cache_hits)),
        ("cache_misses", int(e.cache_misses)),
        ("bytes_from_lower_tiers", int(e.bytes_from_lower_tiers)),
        ("lower_tier_hits", int(e.lower_tier_hits)),
        ("io_timeline", Value::Array(timeline.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::LoaderConfig;
    use dataset::DatasetSpec;
    use gpu::ModelKind;
    use prep::PrepBackend;
    use std::cell::RefCell;

    fn small_ds() -> DatasetSpec {
        DatasetSpec::imagenet_1k().scaled(2000)
    }

    fn ssd(ds: &DatasetSpec, frac: f64) -> ServerConfig {
        ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), frac)
    }

    #[test]
    fn single_server_report_has_one_unit_per_job_metrics() {
        let ds = small_ds();
        let server = ssd(&ds, 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let report = Experiment::on(&server).job(job).epochs(2).run();
        assert_eq!(report.scenario, Scenario::SingleServer);
        assert_eq!(report.num_units(), 1);
        assert_eq!(report.num_epochs(), 2);
        assert_eq!(report.single().epochs.len(), 2);
        assert_eq!(
            report.disk_bytes_per_epoch[0],
            report.single().epochs[0].bytes_from_disk
        );
        assert!(report.steady_samples_per_sec() > 0.0);
    }

    #[test]
    fn hp_search_clones_template_job_with_distinct_seeds() {
        let ds = small_ds();
        let server = ssd(&ds, 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            1,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        )
        .with_batch(64);
        let report = Experiment::on(&server)
            .job(job)
            .scenario(Scenario::HpSearch { jobs: 4 })
            .epochs(2)
            .run();
        assert_eq!(report.num_units(), 4);
        // All jobs processed the full dataset.
        for unit in report.per_job() {
            assert_eq!(unit.epochs.len(), 2);
            assert!(unit.steady_state().samples > 0);
        }
    }

    #[test]
    fn observer_sees_every_epoch_in_order() {
        let ds = small_ds();
        let server = ssd(&ds, 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            1,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        )
        .with_batch(64);
        let seen: RefCell<Vec<(u64, usize)>> = RefCell::new(Vec::new());
        let report = Experiment::on(&server)
            .job(job)
            .scenario(Scenario::HpSearch { jobs: 3 })
            .epochs(3)
            .observer(|update| {
                assert_eq!(update.scenario, Scenario::HpSearch { jobs: 3 });
                seen.borrow_mut().push((update.epoch, update.units.len()));
            })
            .run();
        assert_eq!(seen.into_inner(), vec![(0, 3), (1, 3), (2, 3)]);
        assert_eq!(report.num_epochs(), 3);
    }

    #[test]
    fn json_serialisation_is_well_formed() {
        let ds = small_ds();
        let server = ssd(&ds, 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let report = Experiment::on(&server).job(job).epochs(2).run();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\":\"single-server\""));
        assert!(json.contains("\"epoch\":0"));
        assert!(json.contains("\"io_timeline\":["));
        assert!(!json.contains("inf") && !json.contains("NaN"));
        // Full well-formedness: the document must round-trip through the
        // crate's own JSON parser.
        let doc = crate::json::parse(&json).expect("SimReport::to_json must emit valid JSON");
        assert_eq!(
            doc.get("scenario").and_then(crate::json::Value::as_str),
            Some("single-server")
        );
        assert_eq!(
            doc.get("units")
                .and_then(crate::json::Value::as_array)
                .map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "share a dataset")]
    fn hp_search_rejects_heterogeneous_datasets() {
        let ds = small_ds();
        let other = DatasetSpec::new("other", 100, 1000, 0.0, 6.0);
        let server = ssd(&ds, 0.5);
        let _ = Experiment::on(&server)
            .jobs([
                JobSpec::new(ModelKind::ResNet18, ds, 1, LoaderConfig::pytorch_dl()),
                JobSpec::new(ModelKind::ResNet18, other, 1, LoaderConfig::pytorch_dl()),
            ])
            .scenario(Scenario::HpSearch { jobs: 2 })
            .run();
    }

    #[test]
    fn mixed_cluster_accepts_heterogeneous_datasets() {
        let ds_a = DatasetSpec::imagenet_1k().scaled(4000);
        let ds_b = DatasetSpec::openimages_extended().scaled(4000);
        let cache = ds_a.total_bytes() / 2 + ds_b.total_bytes() / 2;
        let server = ServerConfig::config_ssd_v100().with_cache_bytes(cache);
        let report = Experiment::on(&server)
            .jobs([
                JobSpec::new(
                    ModelKind::ResNet18,
                    ds_a.clone(),
                    4,
                    LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
                ),
                JobSpec::new(
                    ModelKind::AlexNet,
                    ds_b.clone(),
                    4,
                    LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
                ),
            ])
            .scenario(Scenario::MixedCluster)
            .epochs(2)
            .run();
        assert_eq!(report.num_units(), 2);
        // Each job swept its own dataset: per-unit fetched bytes match the
        // respective dataset sizes, not each other's.
        let total_a: u64 = report.per_job()[0]
            .epochs
            .iter()
            .map(|e| e.bytes_from_cache + e.bytes_from_disk)
            .sum();
        let total_b: u64 = report.per_job()[1]
            .epochs
            .iter()
            .map(|e| e.bytes_from_cache + e.bytes_from_disk)
            .sum();
        assert!((total_a as f64 / (2.0 * ds_a.total_bytes() as f64) - 1.0).abs() < 0.05);
        assert!((total_b as f64 / (2.0 * ds_b.total_bytes() as f64) - 1.0).abs() < 0.05);
    }

    #[test]
    fn mixed_cluster_does_not_alias_cache_keys_across_formats() {
        // Same dataset, different on-storage formats: a file-per-item job's
        // item keys must not collide with a TFRecord job's chunk keys in the
        // shared cache.  With aliasing, one job would record warm-up cache
        // hits for fetch units the other job inserted.
        let ds = small_ds();
        let server = ssd(&ds, 0.6);
        let report = Experiment::on(&server)
            .jobs([
                JobSpec::new(
                    ModelKind::ResNet18,
                    ds.clone(),
                    4,
                    LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
                )
                .with_batch(64),
                JobSpec::new(ModelKind::ResNet18, ds, 4, LoaderConfig::tfrecord()).with_batch(64),
            ])
            .scenario(Scenario::MixedCluster)
            .epochs(1)
            .run();
        for (i, unit) in report.per_job().iter().enumerate() {
            assert_eq!(
                unit.epochs[0].bytes_from_cache, 0,
                "job {i} saw phantom warm-up cache hits: formats alias in the shared cache"
            );
        }
    }

    #[test]
    fn tiered_cache_extends_minio_reach_and_charges_ssd_time() {
        // §4.2 / Table 2 through the simulator: a DRAM tier that covers 35 %
        // of the dataset plus an SSD tier covering another 35 % serves ~70 %
        // of steady-state fetches from the chain, cutting disk bytes roughly
        // in half versus DRAM alone — while SSD hits cost more than DRAM
        // hits, so the tiered epoch is slower than a DRAM-only cache of the
        // same aggregate size.
        let ds = small_ds();
        let server = ssd(&ds, 0.35);
        let job = || {
            JobSpec::new(
                ModelKind::ResNet18,
                ds.clone(),
                8,
                LoaderConfig::coordl(PrepBackend::DaliGpu),
            )
        };
        let dram_frac = server.dram_cache_bytes;
        let dram_only = Experiment::on(&server).job(job()).epochs(3).run();
        let tiered = Experiment::on(&server)
            .job(job())
            .cache(CacheSpec::Tiered {
                dram_bytes: dram_frac,
                ssd_bytes: dram_frac,
            })
            .epochs(3)
            .run();
        let ss_dram = dram_only.steady_state();
        let ss_tiered = tiered.steady_state();
        assert_eq!(ss_dram.lower_tier_hits, 0, "single tier has no spill");
        assert!(ss_tiered.lower_tier_hits > 0, "SSD tier serves spill hits");
        assert!(
            ss_tiered.bytes_from_disk < ss_dram.bytes_from_disk * 6 / 10,
            "SSD tier absorbs misses: {} vs {}",
            ss_tiered.bytes_from_disk,
            ss_dram.bytes_from_disk
        );
        assert!(
            (ss_tiered.dram_hit_ratio() - ss_dram.miss_ratio().mul_add(-1.0, 1.0)).abs() < 0.02,
            "DRAM tier behaves like the single tier"
        );
        // The time ordering needs a durable store slower than the SSD tier:
        // on an HDD server, dram+ssd beats dram-only (530 MB/s beats
        // 15 MB/s) but loses to a doubled DRAM tier (DRAM beats the SSD).
        let hdd = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.35);
        let fetch_bound = || {
            JobSpec::new(
                ModelKind::AlexNet,
                ds.clone(),
                8,
                LoaderConfig::coordl(PrepBackend::DaliGpu),
            )
        };
        let on_hdd = |cache: CacheSpec, dram_bytes: u64| {
            Experiment::on(&hdd.with_cache_bytes(dram_bytes))
                .job(fetch_bound())
                .cache(cache)
                .epochs(3)
                .run()
                .steady_epoch_seconds()
        };
        let dram_only_s = on_hdd(CacheSpec::DramOnly, hdd.dram_cache_bytes);
        let tiered_s = on_hdd(
            CacheSpec::Tiered {
                dram_bytes: hdd.dram_cache_bytes,
                ssd_bytes: hdd.dram_cache_bytes,
            },
            hdd.dram_cache_bytes,
        );
        let big_dram_s = on_hdd(CacheSpec::DramOnly, 2 * hdd.dram_cache_bytes);
        assert!(
            tiered_s > big_dram_s,
            "SSD hits are slower than DRAM hits: {tiered_s} vs {big_dram_s}"
        );
        assert!(
            tiered_s < dram_only_s,
            "but much faster than the HDD: {tiered_s} vs {dram_only_s}"
        );
    }

    #[test]
    fn elastic_cluster_is_deterministic_and_respects_the_schedule() {
        let ds = small_ds();
        let server = ssd(&ds, 0.5);
        let job = || {
            JobSpec::new(
                ModelKind::ResNet18,
                ds.clone(),
                1,
                LoaderConfig::coordl(PrepBackend::DaliGpu),
            )
            .with_batch(64)
        };
        let scenario = Scenario::ElasticCluster {
            tenants: 4,
            seed: 7,
        };
        let run = || {
            Experiment::on(&server)
                .job(job())
                .scenario(scenario)
                .epochs(5)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "elastic runs must be deterministic");
        assert_eq!(a.num_units(), 4);
        let schedule = crate::churn::churn_schedule(4, 5, 7);
        for (j, unit) in a.per_job().iter().enumerate() {
            assert_eq!(unit.epochs.len(), 5);
            for (e, m) in unit.epochs.iter().enumerate() {
                let active = schedule[j].is_active(e as u64);
                assert_eq!(
                    m.samples > 0,
                    active,
                    "tenant {j} epoch {e}: samples={} active={active}",
                    m.samples
                );
            }
        }
        // Tenant 0 spans the run; with a warm shared cache its later epochs
        // serve bytes from the cache.
        assert!(a.per_job()[0].epochs[1].bytes_from_cache > 0);
    }

    #[test]
    fn elastic_departure_reclaims_the_tenants_cache_window() {
        // Compare a 2-tenant churn run against a permanent 2-tenant run on a
        // cache big enough for one dataset copy but not two: after the
        // short-lived tenant departs, its reclaimed window lets the survivor
        // cache more than it could while both were resident.
        let ds = small_ds();
        let server = ssd(&ds, 0.6);
        let job = || {
            JobSpec::new(
                ModelKind::ResNet18,
                ds.clone(),
                1,
                LoaderConfig::coordl(PrepBackend::DaliGpu),
            )
            .with_batch(64)
        };
        let epochs = 6u64;
        // Find a seed whose 2-tenant schedule has tenant 1 departing
        // mid-run, so the run has both a contended and a reclaimed phase.
        let seed = (0..64)
            .find(|&s| {
                let t = crate::churn::churn_schedule(2, epochs, s)[1];
                t.arrival == 0 && t.departure >= 2 && t.departure <= epochs - 2
            })
            .expect("some seed departs mid-run");
        let schedule = crate::churn::churn_schedule(2, epochs, seed);
        let report = Experiment::on(&server)
            .job(job())
            .scenario(Scenario::ElasticCluster { tenants: 2, seed })
            .epochs(epochs)
            .run();
        let contended = &report.per_job()[0].epochs[(schedule[1].departure - 1) as usize];
        let reclaimed = report.per_job()[0].epochs.last().unwrap();
        assert!(
            reclaimed.cache_hits > contended.cache_hits,
            "reclaimed window raises the survivor's hits: {} vs {}",
            reclaimed.cache_hits,
            contended.cache_hits
        );
    }

    #[test]
    #[should_panic(expected = "GPUs")]
    fn gpu_oversubscription_rejected() {
        let ds = small_ds();
        let server = ssd(&ds, 0.5);
        let job = JobSpec::new(ModelKind::ResNet18, ds, 8, LoaderConfig::pytorch_dl());
        let _ = Experiment::on(&server)
            .job(job)
            .scenario(Scenario::HpSearch { jobs: 2 })
            .run();
    }
}
