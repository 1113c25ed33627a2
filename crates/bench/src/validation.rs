//! Predicted-vs-empirical validation, the `validate` row of
//! [`FIGURES`](crate::FIGURES): the same workload through the simulator
//! (`pipeline::Experiment`) and the runtime (`coordl::Session`).
//!
//! This is the paper's Table 5 / Figure 16 methodology applied to the
//! reproduction itself: the simulator *predicts* cache hit ratios, storage
//! traffic and stalls from the device/cache model, the functional loader
//! *measures* them on real bytes, and the row lists both side by side.  Both
//! sides share the epoch sampler, the per-item size function and the
//! cache-policy code, so hit-ratio and storage-byte predictions land within
//! [`TOLERANCE`] — and, being counts, both columns are pinned in
//! `FIGURES.json`.  The stall comparison (simulated fetch-stall seconds vs
//! the runtime's modelled device-busy seconds) is reported but not gated,
//! because the simulator accounts pipelining overlap that a functional
//! loader cannot observe; where the runtime's side is wall clock it is an
//! observation, printed and never written.

use crate::figures::FigureTable;
use crate::runtime::cell;
use coordl::{
    ByteTierSpec, FaultPlan, FetchBackend, FsBackend, LoaderReport, Mode, Session, SessionBuilder,
    SessionConfig, TenantHandle, TenantSpec,
};
use dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use dcache::PolicyKind;
use pipeline::json::{int, num, text};
use pipeline::{
    churn_schedule, CacheSpec, EpochMetrics, Experiment, JobSpec, LoaderConfig, Scenario,
    ServerConfig, SimReport,
};
use prep::PrepBackend;
use std::sync::Arc;
use std::time::Duration;
use storage::AccessPattern;
use vfs::{MemVfs, Vfs};

/// Shuffle seed shared by the simulator job and the runtime session, so both
/// sweep identical per-epoch permutations.
const VALIDATION_SEED: u64 = 0xC0DA;

/// Synthetic-store content seed (irrelevant to the comparison; bytes only).
const STORE_SEED: u64 = 7;

/// Tenants in the elastic-churn scenario.
const CHURN_TENANTS: usize = 3;

/// Seed of the churn schedule shared by the simulator's
/// `Scenario::ElasticCluster` and the runtime `coordl::Server` replay.
const CHURN_SEED: u64 = 0xE1A5;

/// Servers in the partitioned-chaos scenario.
const CHAOS_SERVERS: usize = 3;

/// Membership faults scheduled over a partitioned-chaos run.
const CHAOS_FAULTS: usize = 2;

/// Seed of the fault schedule shared by the simulator's
/// `Scenario::PartitionedChaos` and the runtime session's
/// [`coordl::FaultPlan`].
const CHAOS_FAULT_SEED: u64 = 0xFA11;

/// Fetch threads driven by the parallel-fetch validation scenario.
const PARALLEL_FETCH_THREADS: usize = 4;

/// ImageNet-1k scale-down of the validation dataset (~320 items).
const DATASET_SCALE: u64 = 4000;

/// DRAM cache capacity as a fraction of the dataset.
const CACHE_FRACTION: f64 = 0.35;

/// Concurrent jobs in the coordinated scenario.
const JOBS: usize = 4;

/// Epochs per run (epoch 0 is the cold-cache warm-up).
const EPOCHS: u64 = 3;

/// The claim's tolerance: absolute for hit ratios, relative for byte and
/// sample counts.
pub const TOLERANCE: f64 = 0.05;

/// The wall-clock tripwire, [`GateKind::WallClock`]: the prediction is
/// modelled-hardware seconds while the measurement is wall time on the test
/// host, so the claim allows this multiple of the prediction plus
/// [`WALL_SLACK_SECONDS`] of fixed overhead before failing — enough headroom
/// even for an oversubscribed single-core host, and still an order of
/// magnitude below what a stuck consumer produces (take-timeout-bound waits
/// are 30 s+).
pub const WALL_FACTOR: f64 = 10.0;

/// See [`WALL_FACTOR`].
pub const WALL_SLACK_SECONDS: f64 = 10.0;

/// How a row's predicted/empirical pair is checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    /// `|predicted - empirical| <= TOLERANCE`.
    Absolute,
    /// `|predicted - empirical| / max(predicted, epsilon) <= TOLERANCE`.
    Relative,
    /// A one-sided tripwire for a wall-clock measurement against a modelled
    /// prediction: fails only when `empirical > predicted * WALL_FACTOR +
    /// WALL_SLACK_SECONDS`.  Coarse by design — it catches stuck consumers
    /// and lost wakeups, not scheduler noise.
    WallClock,
    /// Reported only, never checked.
    Informational,
}

impl GateKind {
    const ALL: [GateKind; 4] = [
        GateKind::Absolute,
        GateKind::Relative,
        GateKind::WallClock,
        GateKind::Informational,
    ];

    /// The table's `gate` cell.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Absolute => "abs",
            GateKind::Relative => "rel",
            GateKind::WallClock => "wall",
            GateKind::Informational => "info",
        }
    }

    /// Whether the pair passes.
    pub fn passes(self, predicted: f64, empirical: f64) -> bool {
        let delta = (predicted - empirical).abs();
        match self {
            GateKind::Absolute => delta <= TOLERANCE,
            // Two near-zero values agree regardless of their ratio.
            GateKind::Relative => delta <= 1e-6 || delta / predicted.abs().max(1e-9) <= TOLERANCE,
            GateKind::WallClock => empirical <= predicted * WALL_FACTOR + WALL_SLACK_SECONDS,
            GateKind::Informational => true,
        }
    }
}

/// What one side of a scenario observed: the same shape whether it was folded
/// from the simulator's [`SimReport`] ([`observe_sim`]) or from the runtime's
/// [`LoaderReport`]s ([`observe_runtime`]).  The four counts and byte totals
/// cover the *steady state* — every server epoch after the cold warm-up —
/// folded as the scenario's [`Fold`] says.
#[derive(Debug, Default)]
struct Observed {
    /// Steady fetch-unit cache hits.
    hits: u64,
    /// Steady fetch-unit cache misses.
    misses: u64,
    /// Steady bytes read from storage.
    disk_bytes: f64,
    /// Steady bytes fetched from peer caches.
    remote_bytes: f64,
    /// Samples over the *whole* run, one entry per unit (job, tenant, server).
    samples: Vec<u64>,
    /// Steady hit ratio of the DRAM level.
    dram_hit_ratio: f64,
    /// Steady hit ratio of the levels below DRAM.
    lower_hit_ratio: f64,
    /// Seconds per steady epoch attributed to fetching: the simulator's fetch
    /// stall, the runtime's modelled device time.
    fetch_seconds: f64,
    /// Seconds per steady epoch a consumer waited for data: the simulator's
    /// fetch + prep stall, the runtime's wall-clock consumer wait per job.
    stall_seconds: f64,
    /// Runtime only: modelled device seconds of the whole run.
    run_modelled_seconds: f64,
    /// Runtime only: wall-clock seconds the backend's reads took.
    run_measured_seconds: f64,
    /// Runtime only: wall-clock seconds fetch-pool threads waited their turn.
    run_pool_stall_seconds: f64,
}

impl Observed {
    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    fn total_samples(&self) -> f64 {
        self.samples.iter().sum::<u64>() as f64
    }
}

/// How a scenario folds epochs into its steady state, on both sides alike.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// The per-epoch mean of the first unit over the epochs after the
    /// warm-up, as the paper reports it (§3.1).  Unit 0 carries the byte and
    /// hit accounting of a coordinated run.
    Mean,
    /// The sum over every unit and every server epoch from 1 on, for
    /// scenarios whose units come, go and fail mid-run.
    Sum,
}

/// The ONE steady-state extractor of the simulator side.
fn observe_sim(report: &SimReport, fold: Fold) -> Observed {
    let units = report.per_job();
    let mean;
    let steady: Vec<&EpochMetrics> = match fold {
        Fold::Mean => {
            mean = units[0].steady_state();
            vec![&mean]
        }
        Fold::Sum => {
            let epochs = units.iter().flat_map(|u| &u.epochs);
            epochs.filter(|e| e.epoch >= 1).collect()
        }
    };
    let sum = |f: fn(&EpochMetrics) -> u64| steady.iter().map(|e| f(e)).sum::<u64>();
    // Per-tier ratios and stall seconds are read by `Fold::Mean` rows only.
    let first = steady[0];
    let fetch_stall = first.breakdown.fetch_stall.as_secs();
    Observed {
        hits: sum(|e| e.cache_hits),
        misses: sum(|e| e.cache_misses),
        disk_bytes: sum(|e| e.bytes_from_disk) as f64,
        remote_bytes: sum(|e| e.bytes_from_remote) as f64,
        samples: units
            .iter()
            .map(|u| u.epochs.iter().map(|e| e.samples).sum())
            .collect(),
        dram_hit_ratio: first.dram_hit_ratio(),
        lower_hit_ratio: first.lower_tier_hit_ratio(),
        fetch_seconds: fetch_stall,
        stall_seconds: fetch_stall + first.breakdown.prep_stall.as_secs(),
        ..Observed::default()
    }
}

/// The ONE steady-state extractor of the runtime side: one report per unit,
/// each with the server epoch its local epoch 0 ran at.
fn observe_runtime(reports: &[(u64, LoaderReport)], fold: Fold) -> Observed {
    let steady = reports.iter().flat_map(|(arrival, report)| {
        let epochs = report.epochs.iter();
        epochs.filter(move |e| arrival + e.epoch >= 1)
    });
    let steady: Vec<_> = steady.collect();
    let sum = |f: fn(&coordl::EpochTrajectory) -> u64| steady.iter().map(|e| f(e)).sum::<u64>();
    // Per-tier ratios and seconds are read by `Fold::Mean` rows only.
    let first = &reports[0].1;
    let per_epoch = match fold {
        Fold::Mean => first.steady_epochs().len() as f64,
        Fold::Sum => 1.0,
    };
    Observed {
        hits: sum(|e| e.cache_hits),
        misses: sum(|e| e.cache_misses),
        disk_bytes: sum(|e| e.bytes_from_storage) as f64 / per_epoch,
        remote_bytes: sum(|e| e.bytes_from_remote) as f64 / per_epoch,
        samples: reports
            .iter()
            .map(|(_, r)| r.epochs.iter().map(|e| e.samples_delivered).sum())
            .collect(),
        dram_hit_ratio: first.steady_dram_hit_ratio(),
        lower_hit_ratio: first.steady_lower_tier_hit_ratio(),
        fetch_seconds: first.steady_device_seconds(),
        // Coordinated sessions sum their consumers' waits, which would scale
        // with the job count.
        stall_seconds: first.steady_consumer_wait_seconds() / first.jobs as f64,
        run_modelled_seconds: first.device_seconds,
        run_measured_seconds: first.measured_device_seconds,
        run_pool_stall_seconds: first.fetch_thread_stall_seconds.iter().sum(),
    }
}

/// The simulator side of a scenario, as data: [`Ctx::sim`] is the
/// single-server CoorDL job every scenario starts from.
struct Sim {
    loader: LoaderConfig,
    scenario: Scenario,
    cache: CacheSpec,
    /// DRAM cache bytes of the simulated server.
    cache_bytes: u64,
}

/// What every scenario of one validation run shares.
struct Ctx {
    spec: DatasetSpec,
    jobs: usize,
    epochs: u64,
    server: ServerConfig,
}

impl Ctx {
    /// Exact dataset footprint: `DatasetSpec::total_bytes` is the *average*
    /// (`num_items × avg_item_bytes`), but the hash-derived per-item sizes sum
    /// to slightly more or less.  A cache meant to hold the whole dataset
    /// must cover the exact sum, or the never-evict tail is refused admission
    /// and re-read from storage every epoch — a steady-state miss stream the
    /// simulator (sized the same way) never predicts.
    fn exact_bytes(&self) -> u64 {
        (0..self.spec.num_items)
            .map(|i| self.spec.item_size(i))
            .sum()
    }

    fn sim(&self) -> Sim {
        Sim {
            loader: LoaderConfig::coordl(PrepBackend::DaliCpu),
            scenario: Scenario::SingleServer,
            cache: CacheSpec::DramOnly,
            cache_bytes: self.server.dram_cache_bytes,
        }
    }

    /// The ONE simulator-job constructor.
    fn predict(&self, sim: Sim, fold: Fold) -> Observed {
        let job = JobSpec::new(gpu::ModelKind::ResNet18, self.spec.clone(), 1, sim.loader)
            .with_seed(VALIDATION_SEED);
        let report = Experiment::on(&self.server.with_cache_bytes(sim.cache_bytes))
            .job(job)
            .scenario(sim.scenario)
            .cache(sim.cache)
            .epochs(self.epochs)
            .run();
        observe_sim(&report, fold)
    }

    fn store(&self, unit: u64) -> Arc<dyn DataSource> {
        Arc::new(SyntheticItemStore::new(
            self.spec.clone(),
            STORE_SEED + unit,
        ))
    }

    /// The ONE runtime session configuration (`unit` offsets the seed of a
    /// multi-tenant scenario's tenants).
    fn session_config(&self, unit: u64, cache_bytes: u64) -> SessionConfig {
        SessionConfig {
            batch_size: 64,
            // One worker keeps the cache access order identical to the
            // simulator's sequential sweep, so LRU decisions line up exactly.
            num_workers: 1,
            seed: VALIDATION_SEED + unit,
            cache_capacity_bytes: cache_bytes,
            take_timeout: Duration::from_secs(30),
            ..SessionConfig::default()
        }
    }

    /// Run one session, shaped by `shape`, for the configured epochs.
    fn session(
        &self,
        cache_bytes: u64,
        shape: impl FnOnce(&Arc<dyn DataSource>, SessionBuilder) -> SessionBuilder,
    ) -> Vec<(u64, LoaderReport)> {
        let store = self.store(0);
        let builder = Session::builder(Arc::clone(&store), self.session_config(0, cache_bytes));
        let session = shape(&store, builder)
            .build()
            .expect("valid validation session");
        for epoch in 0..self.epochs {
            drain_epoch(&session, epoch);
        }
        vec![(0, session.report())]
    }
}

/// The ONE epoch-drain loop.  Coordinated jobs share one staging area, so
/// their streams must drain concurrently; every other mode drains its
/// streams one after another in unit order — the order the simulator sweeps
/// its shards, so a partitioned directory evolves identically on both sides.
fn drain_epoch(session: &Session, epoch: u64) {
    let run = session.epoch(epoch);
    let drain = |stream: coordl::BatchStream| {
        for batch in stream {
            let _ = batch.expect("validation epoch should complete");
        }
    };
    let streams = (0..session.num_jobs()).map(|unit| run.stream(unit));
    if matches!(session.mode(), Mode::Coordinated { .. }) {
        std::thread::scope(|scope| {
            for stream in streams {
                scope.spawn(move || drain(stream));
            }
        });
    } else {
        streams.for_each(drain);
    }
}

/// The runtime side of `elastic-churn`: a multi-tenant `coordl::Server`
/// replaying the *identical* deterministic churn schedule the simulator's
/// `Scenario::ElasticCluster` derives (same `churn_schedule(tenants, epochs,
/// seed)` on both sides).
///
/// The shared hierarchy holds one dataset copy per tenant and every tenant's
/// quota covers its dataset, so the quota mechanism — which the simulator
/// does not model — never binds; what is compared is the churn dynamics
/// themselves: arrival cold misses, steady-state hits and departure-time
/// reclamation.
fn replay_churn(c: &Ctx) -> Vec<(u64, LoaderReport)> {
    let per_tenant = c.exact_bytes();
    let schedule = churn_schedule(CHURN_TENANTS, c.epochs, CHURN_SEED);
    // One lock shard: sharding splits the MinIO capacity per shard, and with
    // the cache sized exactly to the active datasets that imbalance causes
    // admission refusals the simulator's single shared cache never predicts.
    // The unsharded server is the bit-exact configuration the model maps to;
    // shard-count behaviour is gated separately by the multi-tenant preset.
    let cap = per_tenant * CHURN_TENANTS as u64;
    let server = coordl::Server::new(coordl::ServerConfig::minio(cap, 1))
        .expect("valid churn server config");
    let mut handles: Vec<Option<TenantHandle>> = schedule.iter().map(|_| None).collect();
    let mut reports: Vec<Option<LoaderReport>> = schedule.iter().map(|_| None).collect();
    // Epoch `epochs` runs nothing: it only departs the run's survivors.
    for epoch in 0..=c.epochs {
        for (j, tenant) in schedule.iter().enumerate() {
            if tenant.departure == epoch {
                // The trajectory is read before `depart` reclaims the window.
                let handle = handles[j].take().expect("departing tenant arrived");
                reports[j] = Some(handle.report());
                handle.depart();
            }
            if tenant.arrival == epoch {
                let spec = TenantSpec {
                    name: format!("tenant-{j}"),
                    dataset: c.store(j as u64),
                    quota_bytes: per_tenant,
                    session: c.session_config(j as u64, cap),
                    profile: None,
                };
                handles[j] = Some(server.submit(spec).expect("valid churn tenant"));
            }
        }
        for (handle, tenant) in handles.iter().zip(&schedule) {
            if let Some(handle) = handle {
                drain_epoch(handle.session(), epoch - tenant.arrival);
            }
        }
    }
    let reports = reports.into_iter().zip(&schedule);
    reports
        .map(|(report, tenant)| (tenant.arrival, report.expect("every tenant departs")))
        .collect()
}

/// One `(metric, gate, pick)` row of a scenario: `pick` reads the
/// `(predicted, empirical)` pair out of the two sides' observations;
/// `wall_clock` marks an empirical side measured in wall time, which is
/// observed rather than written.
struct Metric {
    name: &'static str,
    gate: GateKind,
    wall_clock: bool,
    pick: fn(sim: &Observed, runtime: &Observed) -> (f64, f64),
}

const HIT_RATIO: Metric = Metric {
    name: "steady_hit_ratio",
    gate: GateKind::Absolute,
    wall_clock: false,
    pick: |p, e| (p.hit_ratio(), e.hit_ratio()),
};
const AGGREGATE_HIT_RATIO: Metric = Metric {
    name: "aggregate_steady_hit_ratio",
    ..HIT_RATIO
};
const DISK_BYTES: Metric = Metric {
    name: "steady_disk_bytes",
    gate: GateKind::Relative,
    pick: |p, e| (p.disk_bytes, e.disk_bytes),
    ..HIT_RATIO
};
const DRAM_HIT_RATIO: Metric = Metric {
    name: "steady_dram_hit_ratio",
    pick: |p, e| (p.dram_hit_ratio, e.dram_hit_ratio),
    ..HIT_RATIO
};
const SSD_HIT_RATIO: Metric = Metric {
    name: "steady_ssd_hit_ratio",
    pick: |p, e| (p.lower_hit_ratio, e.lower_hit_ratio),
    ..HIT_RATIO
};
/// Reported, not gated: the simulator accounts pipelining overlap that a
/// functional loader cannot observe.
const FETCH_SECONDS: Metric = Metric {
    name: "steady_fetch_stall_vs_device_seconds",
    gate: GateKind::Informational,
    wall_clock: false,
    pick: |p, e| (p.fetch_seconds, e.fetch_seconds),
};
/// The simulator's fetch+prep stall is on modelled hardware, the runtime's
/// consumer wait is wall time on the test host: reported so per-stage trends
/// stay comparable, checked (coarsely, see [`GateKind::WallClock`]) only
/// where the scenario's counter rows match the simulator exactly.
const STALL_SECONDS: Metric = Metric {
    name: "steady_data_stall_vs_consumer_wait_seconds",
    gate: GateKind::Informational,
    wall_clock: true,
    pick: |p, e| (p.stall_seconds, e.stall_seconds),
};

/// The rows of a single-DRAM-level scenario.
const FLAT: &[Metric] = &[HIT_RATIO, DISK_BYTES, FETCH_SECONDS, STALL_SECONDS];

/// One row of the scenario registry: how to predict, how to measure, and
/// which `(metric, gate, pick)` rows compare the two.
struct ValidateScenario {
    name: &'static str,
    fold: Fold,
    /// The simulator experiment, as a delta on [`Ctx::sim`].
    predict: fn(&Ctx) -> Sim,
    /// Drive the runtime; one report per unit with its arrival epoch.
    measure: fn(&Ctx) -> Vec<(u64, LoaderReport)>,
    metrics: &'static [Metric],
}

/// The registry, in report order.  Adding a scenario is one row here.
static VALIDATE_SCENARIOS: [ValidateScenario; 8] = [
    // CoorDL's MinIO cache, one job.
    ValidateScenario {
        name: "single-minio",
        fold: Fold::Mean,
        predict: Ctx::sim,
        measure: |c| {
            c.session(c.server.dram_cache_bytes, |_, b| {
                b.cache_policy(PolicyKind::MinIo)
                    .device_profile(c.server.device)
            })
        },
        metrics: FLAT,
    },
    // The page-cache baseline: the *same* LRU policy code runs inside the
    // simulator's StorageNode and inside the runtime's TieredByteCache.
    ValidateScenario {
        name: "single-lru",
        fold: Fold::Mean,
        predict: |c| Sim {
            loader: LoaderConfig::dali_shuffle(PrepBackend::DaliCpu),
            ..c.sim()
        },
        measure: |c| {
            c.session(c.server.dram_cache_bytes, |_, b| {
                b.cache_policy(PolicyKind::Lru)
                    .device_profile(c.server.device)
            })
        },
        metrics: FLAT,
    },
    // The tiered hierarchy: a MinIO DRAM tier spilling into a MinIO SSD
    // tier of the same size — both sides run the identical TierChain code,
    // so the per-tier hit ratios are predicted exactly (§4.2 / Table 2).
    ValidateScenario {
        name: "single-tiered",
        fold: Fold::Mean,
        predict: |c| Sim {
            cache: CacheSpec::Tiered {
                dram_bytes: c.server.dram_cache_bytes,
                ssd_bytes: c.server.dram_cache_bytes,
            },
            ..c.sim()
        },
        measure: |c| {
            let bytes = c.server.dram_cache_bytes;
            c.session(bytes, |_, b| {
                b.device_profile(c.server.device).cache_tiers(vec![
                    ByteTierSpec::dram(PolicyKind::MinIo, bytes),
                    ByteTierSpec::sata_ssd(PolicyKind::MinIo, bytes),
                ])
            })
        },
        metrics: &[
            HIT_RATIO,
            DISK_BYTES,
            DRAM_HIT_RATIO,
            SSD_HIT_RATIO,
            FETCH_SECONDS,
            STALL_SECONDS,
        ],
    },
    // Coordinated prep: one shared sweep for the whole HP-search ensemble.
    // Its counter rows match the simulator exactly, so its consumer-wait
    // row graduates from informational to a stuck-consumer tripwire.
    ValidateScenario {
        name: "hp-coordinated",
        fold: Fold::Mean,
        predict: |c| Sim {
            scenario: Scenario::HpSearch { jobs: c.jobs },
            ..c.sim()
        },
        measure: |c| {
            c.session(c.server.dram_cache_bytes, |_, b| {
                b.mode(Mode::Coordinated { jobs: c.jobs })
                    .cache_policy(PolicyKind::MinIo)
                    .device_profile(c.server.device)
            })
        },
        metrics: &[
            HIT_RATIO,
            DISK_BYTES,
            FETCH_SECONDS,
            Metric {
                gate: GateKind::WallClock,
                ..STALL_SECONDS
            },
        ],
    },
    // Elastic churn: tenants arriving and departing over one shared
    // multi-tenant server, against Scenario::ElasticCluster.
    ValidateScenario {
        name: "elastic-churn",
        fold: Fold::Sum,
        predict: |c| Sim {
            scenario: Scenario::ElasticCluster {
                tenants: CHURN_TENANTS,
                seed: CHURN_SEED,
            },
            cache_bytes: c.exact_bytes() * CHURN_TENANTS as u64,
            ..c.sim()
        },
        measure: replay_churn,
        metrics: &[
            AGGREGATE_HIT_RATIO,
            DISK_BYTES,
            Metric {
                name: "tenant0_samples",
                pick: |p, e| (p.samples[0] as f64, e.samples[0] as f64),
                ..DISK_BYTES
            },
            Metric {
                name: "tenant1_samples",
                pick: |p, e| (p.samples[1] as f64, e.samples[1] as f64),
                ..DISK_BYTES
            },
            Metric {
                name: "tenant2_samples",
                pick: |p, e| (p.samples[2] as f64, e.samples[2] as f64),
                ..DISK_BYTES
            },
        ],
    },
    // Real bytes: the single-minio workload with the dataset materialized as
    // a page-aligned packed file on a deterministic in-memory VFS and every
    // fetch a real positional read through `FsBackend`.  Three timing columns
    // line up: the simulator's *predicted* fetch stall, the backend's
    // *modelled* device seconds (the same profile arithmetic, charged per
    // real read), and the *measured* wall-clock seconds those reads took.
    // The measured row is a one-sided tripwire: real reads on an in-memory
    // VFS must stay far below the modelled SSD, so only a pathological I/O
    // path (or a stuck reader) trips it.
    ValidateScenario {
        name: "fs-real",
        fold: Fold::Mean,
        predict: Ctx::sim,
        measure: |c| {
            c.session(c.server.dram_cache_bytes, |store, b| {
                let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
                let backend = FsBackend::new(fs, "data", store.as_ref(), 0)
                    .expect("fs-real materialization must succeed")
                    .with_profile(c.server.device, AccessPattern::Random);
                b.cache_policy(PolicyKind::MinIo)
                    .fetch_backend(Arc::new(backend) as Arc<dyn FetchBackend>)
            })
        },
        metrics: &[
            HIT_RATIO,
            DISK_BYTES,
            FETCH_SECONDS,
            Metric {
                name: "modelled_vs_measured_device_seconds",
                gate: GateKind::WallClock,
                wall_clock: true,
                pick: |_, e| (e.run_modelled_seconds, e.run_measured_seconds),
            },
        ],
    },
    // Partitioned caching under membership faults.  Both sides derive the
    // schedule from the same `fault_schedule(servers, epochs, faults, seed)`
    // call: the simulator applies each event at its epoch boundary, and
    // `FaultPlan::seeded` scales the same boundaries by the dataset length so
    // the runtime's fetch-step clock fires each event before the same epoch —
    // kills, leaves and rejoins included.
    ValidateScenario {
        name: "partitioned-chaos",
        fold: Fold::Sum,
        predict: |c| Sim {
            scenario: Scenario::PartitionedChaos {
                servers: CHAOS_SERVERS,
                faults: CHAOS_FAULTS,
                seed: CHAOS_FAULT_SEED,
            },
            ..c.sim()
        },
        measure: |c| {
            c.session(c.server.dram_cache_bytes, |_, b| {
                b.mode(Mode::Partitioned {
                    nodes: CHAOS_SERVERS,
                })
                .cache_policy(PolicyKind::MinIo)
                .device_profile(c.server.device)
                .fault_plan(FaultPlan::seeded(
                    CHAOS_SERVERS,
                    c.epochs,
                    CHAOS_FAULTS,
                    CHAOS_FAULT_SEED,
                    c.spec.num_items,
                ))
            })
        },
        metrics: &[
            AGGREGATE_HIT_RATIO,
            DISK_BYTES,
            Metric {
                name: "steady_remote_bytes",
                pick: |p, e| (p.remote_bytes, e.remote_bytes),
                ..DISK_BYTES
            },
            // Exactly-once accounting: a fault must never lose or duplicate
            // a sample, so the run totals agree to the sample on both sides.
            Metric {
                name: "samples_delivered",
                pick: |p, e| (p.total_samples(), e.total_samples()),
                ..DISK_BYTES
            },
        ],
    },
    // Sharded parallel fetch: the single-minio workload with a fully resident
    // cache, fetched by a 4-thread pool.  Full residency makes the steady
    // prediction *exact* — after the warm-up every access hits, so both sides
    // must report exactly 1.0 and any delta means the pool changed caching
    // behaviour, not just scheduling.  4x the *exact* footprint: the sharded
    // tier splits its capacity across fetch shards and FNV routing is only
    // statistically uniform, so the headroom keeps even the most loaded
    // shard resident.
    ValidateScenario {
        name: "parallel-fetch",
        fold: Fold::Mean,
        predict: |c| Sim {
            cache_bytes: c.exact_bytes() * 4,
            ..c.sim()
        },
        measure: |c| {
            c.session(c.exact_bytes() * 4, |_, b| {
                b.cache_policy(PolicyKind::MinIo)
                    .device_profile(c.server.device)
                    .fetch_threads(PARALLEL_FETCH_THREADS)
            })
        },
        metrics: &[
            HIT_RATIO,
            // Wall time on the test host against the modelled device seconds
            // the same reads were charged: informational, like every other
            // wall-vs-model column.
            Metric {
                name: "fetch_thread_stall_vs_modelled_device_seconds",
                pick: |_, e| (e.run_modelled_seconds, e.run_pool_stall_seconds),
                ..STALL_SECONDS
            },
        ],
    },
];

/// The `validate` row: every registry scenario through the simulator and
/// the runtime, one table row per metric.
pub fn validate() -> FigureTable {
    compare(DATASET_SCALE, JOBS, EPOCHS)
}

/// [`validate`] on ImageNet-1k scaled down by `dataset_scale`, with `jobs`
/// coordinated jobs and `epochs` epochs (tests run it smaller).
fn compare(dataset_scale: u64, jobs: usize, epochs: u64) -> FigureTable {
    let spec = DatasetSpec::imagenet_1k().scaled(dataset_scale);
    let server =
        ServerConfig::config_ssd_v100().with_cache_fraction(spec.total_bytes(), CACHE_FRACTION);
    let mut t = FigureTable::new("scenario metric gate predicted empirical");
    t.summary = vec![
        ("items".into(), int(spec.num_items)),
        ("cache_frac".into(), num(CACHE_FRACTION)),
        ("jobs".into(), int(jobs as u64)),
        ("epochs".into(), int(epochs)),
        ("tolerance".into(), num(TOLERANCE)),
    ];
    let ctx = Ctx {
        spec,
        jobs,
        epochs,
        server,
    };
    for scenario in &VALIDATE_SCENARIOS {
        let predicted = ctx.predict((scenario.predict)(&ctx), scenario.fold);
        let empirical = observe_runtime(&(scenario.measure)(&ctx), scenario.fold);
        for metric in scenario.metrics {
            let pair = (metric.pick)(&predicted, &empirical);
            push_row(&mut t, scenario.name, metric, pair);
        }
    }
    t
}

/// Append one comparison.  A wall-clock empirical side is observed under
/// `scenario/metric` and its cell reads `observed`.
fn push_row(t: &mut FigureTable, scenario: &str, metric: &Metric, pair: (f64, f64)) {
    let (predicted, empirical) = pair;
    let measured = if metric.wall_clock {
        let key = format!("{scenario}/{}", metric.name);
        t.observed.push((key, empirical));
        text("observed")
    } else {
        num(empirical)
    };
    t.rows.push(vec![
        text(scenario),
        text(metric.name),
        text(metric.gate.name()),
        num(predicted),
        measured,
    ]);
}

/// Every row passes its gate: hit ratios within [`TOLERANCE`] absolutely,
/// byte and sample counts relatively, wall-clock waits under the tripwire.
pub fn validate_claim(t: &FigureTable) -> Result<(), String> {
    let mut failed = Vec::new();
    for r in 0..t.rows.len() {
        let name = format!(
            "{}/{}",
            cell(t.cell(r, "scenario")),
            cell(t.cell(r, "metric"))
        );
        let gate = t.cell(r, "gate").as_str();
        let Some(gate) = GateKind::ALL.into_iter().find(|g| Some(g.name()) == gate) else {
            return Err(format!("{name}: unknown gate {gate:?}"));
        };
        let predicted = t.num(r, "predicted");
        let empirical = t.cell(r, "empirical").as_f64();
        match empirical.or_else(|| t.observation(&name)) {
            Some(e) if !gate.passes(predicted, e) => {
                failed.push(format!(
                    "{name}: predicted {predicted:.4} vs empirical {e:.4}"
                ));
            }
            None if gate != GateKind::Informational => {
                failed.push(format!("{name}: no empirical value"));
            }
            _ => {}
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} row(s) off: {}",
            failed.len(),
            failed.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::{compact, parse, Value};

    /// The row of `scenario`/`metric`.
    fn row(t: &FigureTable, scenario: &str, metric: &str) -> usize {
        let is = |r: usize, column: &str, value: &str| t.cell(r, column).as_str() == Some(value);
        let mut rows = 0..t.rows.len();
        let found = rows.find(|&r| is(r, "scenario", scenario) && is(r, "metric", metric));
        found.unwrap_or_else(|| panic!("no row {scenario}/{metric}"))
    }

    #[test]
    fn predicted_and_empirical_agree_within_tolerance() {
        // ~80 items, 2 jobs, 2 epochs: the committed block is the full size,
        // which `cargo test` in a debug build runs too slowly.
        let t = compare(16_000, 2, 2);
        // Which rows exist is pinned by the registry test below.
        let samples = row(&t, "partitioned-chaos", "samples_delivered");
        assert_eq!(
            t.num(samples, "predicted"),
            t.num(samples, "empirical"),
            "exactly-once delivery under faults"
        );
        let measured = row(&t, "fs-real", "modelled_vs_measured_device_seconds");
        assert!(
            t.num(measured, "predicted") > 0.0,
            "modelled seconds accumulate"
        );
        let key = "fs-real/modelled_vs_measured_device_seconds";
        assert!(
            t.observation(key).unwrap() > 0.0,
            "measured seconds accumulate"
        );
        let pf_hit = row(&t, "parallel-fetch", "steady_hit_ratio");
        assert_eq!(
            (t.num(pf_hit, "predicted"), t.num(pf_hit, "empirical")),
            (1.0, 1.0),
            "full residency predicts a perfect steady hit ratio, exactly"
        );
        validate_claim(&t).expect("every gated delta within tolerance");
        // The MinIO hit ratio lands near the cache fraction by construction.
        let minio = t.num(row(&t, "single-minio", "steady_hit_ratio"), "empirical");
        assert!(
            (minio - CACHE_FRACTION).abs() < 0.10,
            "MinIO steady hit ratio tracks the cache fraction, got {minio}"
        );
    }

    #[test]
    fn registry_yields_the_pinned_rows_in_order() {
        const FLAT_ROWS: [(&str, &str); 4] = [
            ("steady_hit_ratio", "abs"),
            ("steady_disk_bytes", "rel"),
            ("steady_fetch_stall_vs_device_seconds", "info"),
            ("steady_data_stall_vs_consumer_wait_seconds", "info"),
        ];
        let flat = |scenario: &'static str| FLAT_ROWS.map(|(m, g)| (scenario, m, g)).to_vec();
        let mut pinned = [flat("single-minio"), flat("single-lru")].concat();
        pinned.extend([
            ("single-tiered", "steady_hit_ratio", "abs"),
            ("single-tiered", "steady_disk_bytes", "rel"),
            ("single-tiered", "steady_dram_hit_ratio", "abs"),
            ("single-tiered", "steady_ssd_hit_ratio", "abs"),
            (
                "single-tiered",
                "steady_fetch_stall_vs_device_seconds",
                "info",
            ),
            (
                "single-tiered",
                "steady_data_stall_vs_consumer_wait_seconds",
                "info",
            ),
        ]);
        pinned.extend(flat("hp-coordinated"));
        pinned.last_mut().unwrap().2 = "wall";
        pinned.extend([
            ("elastic-churn", "aggregate_steady_hit_ratio", "abs"),
            ("elastic-churn", "steady_disk_bytes", "rel"),
            ("elastic-churn", "tenant0_samples", "rel"),
            ("elastic-churn", "tenant1_samples", "rel"),
            ("elastic-churn", "tenant2_samples", "rel"),
            ("fs-real", "steady_hit_ratio", "abs"),
            ("fs-real", "steady_disk_bytes", "rel"),
            ("fs-real", "steady_fetch_stall_vs_device_seconds", "info"),
            ("fs-real", "modelled_vs_measured_device_seconds", "wall"),
            ("partitioned-chaos", "aggregate_steady_hit_ratio", "abs"),
            ("partitioned-chaos", "steady_disk_bytes", "rel"),
            ("partitioned-chaos", "steady_remote_bytes", "rel"),
            ("partitioned-chaos", "samples_delivered", "rel"),
            ("parallel-fetch", "steady_hit_ratio", "abs"),
            (
                "parallel-fetch",
                "fetch_thread_stall_vs_modelled_device_seconds",
                "info",
            ),
        ]);
        let registry: Vec<_> = VALIDATE_SCENARIOS
            .iter()
            .flat_map(|s| s.metrics.iter().map(|m| (s.name, m.name, m.gate.name())))
            .collect();
        assert_eq!(registry.len(), 33);
        assert_eq!(registry, pinned);
        // Every tripwire measures wall clock, and wall clock is never written.
        let metrics = VALIDATE_SCENARIOS.iter().flat_map(|s| s.metrics);
        assert!(metrics
            .filter(|m| m.gate == GateKind::WallClock)
            .all(|m| m.wall_clock));
    }

    #[test]
    fn json_reports_every_row_and_round_trips() {
        let mut t = FigureTable::new("scenario metric gate predicted empirical");
        push_row(&mut t, "single-minio", &HIT_RATIO, (0.35, 0.34));
        push_row(&mut t, "single-minio", &STALL_SECONDS, (1.0, 1.4));
        validate_claim(&t).expect("0.01 apart, and an informational wait");
        let doc = parse(&compact(&t.to_value("Table 5"))).expect("valid JSON");
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("predicted").and_then(Value::as_f64), Some(0.35));
        assert_eq!(rows[0].get("gate").and_then(Value::as_str), Some("abs"));
        assert_eq!(rows[1].get("gate").and_then(Value::as_str), Some("info"));
        // The wall-clock wait is observed, never written.
        assert_eq!(
            rows[1].get("empirical").and_then(Value::as_str),
            Some("observed")
        );
        let key = "single-minio/steady_data_stall_vs_consumer_wait_seconds";
        assert_eq!(t.observation(key), Some(1.4));
        // A row outside its gate fails the claim, naming it.
        push_row(&mut t, "single-lru", &HIT_RATIO, (0.35, 0.45));
        let err = validate_claim(&t).unwrap_err();
        assert!(
            err.contains("single-lru/steady_hit_ratio: predicted 0.3500"),
            "{err}"
        );
    }

    #[test]
    fn gates_behave_per_kind() {
        use GateKind::*;
        assert!(Absolute.passes(0.50, 0.53) && !Absolute.passes(0.50, 0.56));
        assert!(Relative.passes(100.0, 104.0) && !Relative.passes(100.0, 109.0));
        assert!(Relative.passes(0.0, 0.0), "two zeros agree");
        assert!(
            Informational.passes(1.0, 100.0),
            "informational rows never gate"
        );
        // The wall-clock tripwire: one-sided, affine headroom.
        assert!(WallClock.passes(0.1, 0.5), "within 10x + 10s");
        assert!(WallClock.passes(0.1, 10.9), "slack covers tiny runs");
        assert!(!WallClock.passes(0.1, 11.1), "a stuck consumer trips it");
        assert!(WallClock.passes(10.0, 0.01), "one-sided: faster is fine");
    }
}
