//! Predicted-vs-empirical validation: the same workload through the
//! simulator (`pipeline::Experiment`) and the runtime (`coordl::Session`).
//!
//! This is the paper's Table 5 / Figure 16 methodology applied to the
//! reproduction itself: the simulator *predicts* cache hit ratios, storage
//! traffic and stalls from the device/cache model, the functional loader
//! *measures* them on real bytes, and `dstool validate` reports the deltas.
//! Both sides share the epoch sampler, the per-item size function and the
//! cache-policy code, so hit-ratio and storage-byte predictions should land
//! within a small tolerance; the stall comparison (simulated fetch-stall
//! seconds vs the runtime's modelled device-busy seconds) is reported but
//! not gated, because the simulator accounts pipelining overlap that a
//! functional loader cannot observe.

use crate::runtime::{compact, int, num, object, text};
use coordl::{
    ByteTierSpec, FaultPlan, FetchBackend, FsBackend, LoaderReport, Mode, Session, SessionBuilder,
    SessionConfig, TenantHandle, TenantSpec,
};
use dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use dcache::PolicyKind;
use pipeline::json::Value;
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

/// Configuration of one validation run.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Dataset scale-down applied to ImageNet-1k (larger = smaller run).
    pub scale: u64,
    /// DRAM cache capacity as a fraction of the dataset.
    pub cache_fraction: f64,
    /// Concurrent jobs in the coordinated scenario.
    pub jobs: usize,
    /// Epochs per run (epoch 0 is the cold-cache warm-up).
    pub epochs: u64,
    /// Gate tolerance: absolute for hit ratios, relative for byte counts.
    pub tolerance: f64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            scale: 4000,
            cache_fraction: 0.35,
            jobs: 4,
            epochs: 3,
            tolerance: 0.05,
        }
    }
}

/// How a row's predicted/empirical pair is compared against the tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    /// `|predicted - empirical| <= tolerance`.
    Absolute,
    /// `|predicted - empirical| / max(predicted, epsilon) <= tolerance`.
    Relative,
    /// A one-sided tripwire for wall-clock measurements compared against
    /// modelled predictions: fails only when
    /// `empirical > predicted * factor + slack_seconds`.  Coarse by design —
    /// it catches stuck consumers and lost wakeups, not scheduler noise.
    WallClock {
        /// Multiplicative headroom over the prediction.
        factor: f64,
        /// Additive headroom covering fixed thread/startup overhead that
        /// dominates tiny validation runs.
        slack_seconds: f64,
    },
    /// Reported only, never gated.
    Informational,
}

/// One predicted-vs-empirical comparison.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Scenario label (`single-minio`, `single-lru`, `single-tiered`,
    /// `hp-coordinated`, `elastic-churn`, `fs-real`, `partitioned-chaos`).
    pub scenario: &'static str,
    /// Metric label (`steady_hit_ratio`, `steady_disk_bytes`, ...).
    pub metric: &'static str,
    /// The simulator's prediction.
    pub predicted: f64,
    /// The runtime's measurement.
    pub empirical: f64,
    /// How the pair is gated.
    pub gate: GateKind,
}

impl ValidationRow {
    /// Absolute delta.
    pub fn delta(&self) -> f64 {
        (self.predicted - self.empirical).abs()
    }

    /// Delta relative to the prediction (Table 5's error metric).
    pub fn relative_delta(&self) -> f64 {
        self.delta() / self.predicted.abs().max(1e-9)
    }

    /// Whether the row passes under `tolerance`.
    pub fn passes(&self, tolerance: f64) -> bool {
        match self.gate {
            GateKind::Absolute => self.delta() <= tolerance,
            GateKind::Relative => {
                // Two near-zero values agree regardless of their ratio.
                self.delta() <= 1e-6 || self.relative_delta() <= tolerance
            }
            GateKind::WallClock {
                factor,
                slack_seconds,
            } => self.empirical <= self.predicted * factor + slack_seconds,
            GateKind::Informational => true,
        }
    }
}

/// The result of one validation run.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The configuration that produced it.
    pub config: ValidationConfig,
    /// All comparisons, in scenario order.
    pub rows: Vec<ValidationRow>,
}

impl ValidationReport {
    /// Rows that fail the gate under the configured tolerance.
    pub fn failures(&self) -> Vec<&ValidationRow> {
        self.rows
            .iter()
            .filter(|r| !r.passes(self.config.tolerance))
            .collect()
    }

    /// True when every gated row is within tolerance.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Serialise through the shared `pipeline::json` emitter.
    pub fn to_json(&self) -> String {
        let tolerance = self.config.tolerance;
        let rows = self.rows.iter().map(|row| {
            object([
                ("scenario", text(row.scenario)),
                ("metric", text(row.metric)),
                ("predicted", num(row.predicted)),
                ("empirical", num(row.empirical)),
                ("delta", num(row.delta())),
                ("relative_delta", num(row.relative_delta())),
                ("gated", Value::Bool(row.gate != GateKind::Informational)),
                ("pass", Value::Bool(row.passes(tolerance))),
            ])
        });
        compact(&object([
            ("schema", text("datastalls-validate/v1")),
            ("scale", int(self.config.scale)),
            ("cache_fraction", num(self.config.cache_fraction)),
            ("jobs", int(self.config.jobs as u64)),
            ("epochs", int(self.config.epochs)),
            ("tolerance", num(tolerance)),
            ("passed", Value::Bool(self.passed())),
            ("rows", Value::Array(rows.collect())),
        ]))
    }
}

/// The coordinated consumer-wait tripwire: the prediction is
/// modelled-hardware seconds while the measurement is wall time on the test
/// host, so the gate allows 10x the prediction plus ten seconds of fixed
/// overhead before failing — enough headroom even for an oversubscribed
/// single-core host running sibling tests, and still an order of magnitude
/// below what a stuck consumer produces (take-timeout-bound waits are 30s+).
pub const CONSUMER_WAIT_GATE: GateKind = GateKind::WallClock {
    factor: 10.0,
    slack_seconds: 10.0,
};

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
    cfg: ValidationConfig,
    spec: DatasetSpec,
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
            .epochs(self.cfg.epochs)
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
        for epoch in 0..self.cfg.epochs {
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
    let schedule = churn_schedule(CHURN_TENANTS, c.cfg.epochs, CHURN_SEED);
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
    for epoch in 0..=c.cfg.epochs {
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
/// `(predicted, empirical)` pair out of the two sides' observations.
struct Metric {
    name: &'static str,
    gate: GateKind,
    pick: fn(sim: &Observed, runtime: &Observed) -> (f64, f64),
}

const HIT_RATIO: Metric = Metric {
    name: "steady_hit_ratio",
    gate: GateKind::Absolute,
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
};
const DRAM_HIT_RATIO: Metric = Metric {
    name: "steady_dram_hit_ratio",
    gate: GateKind::Absolute,
    pick: |p, e| (p.dram_hit_ratio, e.dram_hit_ratio),
};
const SSD_HIT_RATIO: Metric = Metric {
    name: "steady_ssd_hit_ratio",
    gate: GateKind::Absolute,
    pick: |p, e| (p.lower_hit_ratio, e.lower_hit_ratio),
};
/// Reported, not gated: the simulator accounts pipelining overlap that a
/// functional loader cannot observe.
const FETCH_SECONDS: Metric = Metric {
    name: "steady_fetch_stall_vs_device_seconds",
    gate: GateKind::Informational,
    pick: |p, e| (p.fetch_seconds, e.fetch_seconds),
};
/// The simulator's fetch+prep stall is on modelled hardware, the runtime's
/// consumer wait is wall time on the test host: reported so per-stage trends
/// stay comparable, gated (coarsely, see [`CONSUMER_WAIT_GATE`]) only where
/// the scenario's counter rows match the simulator exactly.
const STALL_SECONDS: Metric = Metric {
    name: "steady_data_stall_vs_consumer_wait_seconds",
    gate: GateKind::Informational,
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
            scenario: Scenario::HpSearch { jobs: c.cfg.jobs },
            ..c.sim()
        },
        measure: |c| {
            c.session(c.server.dram_cache_bytes, |_, b| {
                b.mode(Mode::Coordinated { jobs: c.cfg.jobs })
                    .cache_policy(PolicyKind::MinIo)
                    .device_profile(c.server.device)
            })
        },
        metrics: &[
            HIT_RATIO,
            DISK_BYTES,
            FETCH_SECONDS,
            Metric {
                gate: CONSUMER_WAIT_GATE,
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
                gate: GateKind::Relative,
                pick: |p, e| (p.samples[0] as f64, e.samples[0] as f64),
            },
            Metric {
                name: "tenant1_samples",
                gate: GateKind::Relative,
                pick: |p, e| (p.samples[1] as f64, e.samples[1] as f64),
            },
            Metric {
                name: "tenant2_samples",
                gate: GateKind::Relative,
                pick: |p, e| (p.samples[2] as f64, e.samples[2] as f64),
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
                gate: CONSUMER_WAIT_GATE,
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
                    c.cfg.epochs,
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
                gate: GateKind::Relative,
                pick: |p, e| (p.remote_bytes, e.remote_bytes),
            },
            // Exactly-once accounting: a fault must never lose or duplicate
            // a sample, so the run totals agree to the sample on both sides.
            Metric {
                name: "samples_delivered",
                gate: GateKind::Relative,
                pick: |p, e| (p.total_samples(), e.total_samples()),
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
                gate: GateKind::Informational,
                pick: |_, e| (e.run_modelled_seconds, e.run_pool_stall_seconds),
            },
        ],
    },
];

/// Run the full predicted-vs-empirical comparison: every registry scenario
/// through the simulator and the runtime, one row per metric.
pub fn run_validation(cfg: &ValidationConfig) -> ValidationReport {
    assert!(cfg.epochs >= 2, "need a warm-up plus one steady epoch");
    let spec = DatasetSpec::imagenet_1k().scaled(cfg.scale);
    let server =
        ServerConfig::config_ssd_v100().with_cache_fraction(spec.total_bytes(), cfg.cache_fraction);
    let ctx = Ctx {
        cfg: cfg.clone(),
        spec,
        server,
    };
    let mut rows = Vec::new();
    for scenario in &VALIDATE_SCENARIOS {
        let predicted = ctx.predict((scenario.predict)(&ctx), scenario.fold);
        let empirical = observe_runtime(&(scenario.measure)(&ctx), scenario.fold);
        rows.extend(scenario.metrics.iter().map(|metric| {
            let (predicted, empirical) = (metric.pick)(&predicted, &empirical);
            ValidationRow {
                scenario: scenario.name,
                metric: metric.name,
                predicted,
                empirical,
                gate: metric.gate,
            }
        }));
    }
    ValidationReport {
        config: ctx.cfg,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::{parse, Value};

    fn small_config() -> ValidationConfig {
        ValidationConfig {
            scale: 16_000, // ~80 items: fast enough for debug test runs
            cache_fraction: 0.35,
            jobs: 2,
            epochs: 2,
            tolerance: 0.05,
        }
    }

    #[test]
    fn predicted_and_empirical_agree_within_tolerance() {
        let report = run_validation(&small_config());
        // Which rows exist is pinned by the registry test below.
        let row = |scenario: &str, metric: &str| {
            let mut rows = report.rows.iter();
            rows.find(|r| r.scenario == scenario && r.metric == metric)
                .unwrap_or_else(|| panic!("no row {scenario}/{metric}"))
        };
        let samples = row("partitioned-chaos", "samples_delivered");
        assert_eq!(
            samples.predicted, samples.empirical,
            "exactly-once delivery under faults"
        );
        let measured = row("fs-real", "modelled_vs_measured_device_seconds");
        assert!(measured.predicted > 0.0, "modelled seconds accumulate");
        assert!(measured.empirical > 0.0, "measured seconds accumulate");
        let pf_hit = row("parallel-fetch", "steady_hit_ratio");
        assert_eq!(
            pf_hit.predicted, 1.0,
            "full residency predicts a perfect steady hit ratio"
        );
        assert_eq!(
            pf_hit.predicted, pf_hit.empirical,
            "the parallel-fetch hit-ratio prediction is exact (delta 0.0)"
        );
        let failures: Vec<String> = report
            .failures()
            .iter()
            .map(|r| {
                format!(
                    "{}/{}: predicted {:.4} vs empirical {:.4}",
                    r.scenario, r.metric, r.predicted, r.empirical
                )
            })
            .collect();
        assert!(report.passed(), "gated deltas exceeded: {failures:?}");
        // The MinIO hit ratio lands near the cache fraction by construction.
        let minio = row("single-minio", "steady_hit_ratio");
        assert!(
            (minio.empirical - 0.35).abs() < 0.10,
            "MinIO steady hit ratio tracks the cache fraction, got {}",
            minio.empirical
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
        let kind = |gate: GateKind| match gate {
            GateKind::Absolute => "abs",
            GateKind::Relative => "rel",
            GateKind::Informational => "info",
            // Both tripwires share the one constant: hang detectors.
            wall => {
                assert_eq!(wall, CONSUMER_WAIT_GATE);
                "wall"
            }
        };
        let registry: Vec<_> = VALIDATE_SCENARIOS
            .iter()
            .flat_map(|s| s.metrics.iter().map(|m| (s.name, m.name, kind(m.gate))))
            .collect();
        assert_eq!(registry.len(), 33);
        assert_eq!(registry, pinned);
    }

    #[test]
    fn json_reports_every_row_and_round_trips() {
        let report = ValidationReport {
            config: small_config(),
            rows: vec![
                ValidationRow {
                    scenario: "single-minio",
                    metric: "steady_hit_ratio",
                    predicted: 0.35,
                    empirical: 0.34,
                    gate: GateKind::Absolute,
                },
                ValidationRow {
                    scenario: "single-minio",
                    metric: "steady_fetch_stall_vs_device_seconds",
                    predicted: 1.0,
                    empirical: 1.4,
                    gate: GateKind::Informational,
                },
            ],
        };
        let doc = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("rows").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(doc.get("passed"), Some(&Value::Bool(true)));
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows[0].get("predicted").and_then(Value::as_f64), Some(0.35));
        assert_eq!(rows[0].get("gated"), Some(&Value::Bool(true)));
        assert_eq!(rows[1].get("gated"), Some(&Value::Bool(false)));
        assert_eq!(rows[1].get("pass"), Some(&Value::Bool(true)));
    }

    #[test]
    fn gates_behave_per_kind() {
        let abs = ValidationRow {
            scenario: "s",
            metric: "m",
            predicted: 0.50,
            empirical: 0.53,
            gate: GateKind::Absolute,
        };
        assert!(abs.passes(0.05) && !abs.passes(0.01));
        let rel = ValidationRow {
            predicted: 100.0,
            empirical: 109.0,
            gate: GateKind::Relative,
            ..abs.clone()
        };
        assert!(rel.passes(0.10) && !rel.passes(0.05));
        let zero = ValidationRow {
            predicted: 0.0,
            empirical: 0.0,
            gate: GateKind::Relative,
            ..abs.clone()
        };
        assert!(zero.passes(0.01), "two zeros agree");
        let info = ValidationRow {
            predicted: 1.0,
            empirical: 100.0,
            gate: GateKind::Informational,
            ..abs.clone()
        };
        assert!(info.passes(0.0), "informational rows never gate");
        // The wall-clock tripwire: one-sided, affine headroom.
        let wall = |predicted: f64, empirical: f64| ValidationRow {
            predicted,
            empirical,
            gate: CONSUMER_WAIT_GATE,
            ..abs.clone()
        };
        assert!(wall(0.1, 0.5).passes(0.05), "within 10x + 10s");
        assert!(wall(0.1, 10.9).passes(0.05), "slack covers tiny runs");
        assert!(!wall(0.1, 11.1).passes(0.05), "a stuck consumer trips it");
        assert!(wall(10.0, 0.01).passes(0.05), "one-sided: faster is fine");
    }
}
