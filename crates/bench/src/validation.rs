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

use coordl::{FetchBackend, FsBackend, Mode, Session, SessionConfig, TenantHandle, TenantSpec};
use dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use dcache::PolicyKind;
use pipeline::json::{write_f64, write_string};
use pipeline::{
    churn_schedule, CacheSpec, Experiment, JobSpec, LoaderConfig, Scenario, ServerConfig, SimReport,
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

/// Per-tenant sample-count metric labels of the churn scenario.
const CHURN_SAMPLE_METRICS: [&str; CHURN_TENANTS] =
    ["tenant0_samples", "tenant1_samples", "tenant2_samples"];

/// Servers in the partitioned-chaos scenario.
const CHAOS_SERVERS: usize = 3;

/// Membership faults scheduled over a partitioned-chaos run.
const CHAOS_FAULTS: usize = 2;

/// Seed of the fault schedule shared by the simulator's
/// `Scenario::PartitionedChaos` and the runtime session's
/// [`coordl::FaultPlan`].
const CHAOS_FAULT_SEED: u64 = 0xFA11;

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
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"datastalls-validate/v1\",\"scale\":");
        out.push_str(&self.config.scale.to_string());
        out.push_str(",\"cache_fraction\":");
        write_f64(&mut out, self.config.cache_fraction);
        out.push_str(",\"jobs\":");
        out.push_str(&self.config.jobs.to_string());
        out.push_str(",\"epochs\":");
        out.push_str(&self.config.epochs.to_string());
        out.push_str(",\"tolerance\":");
        write_f64(&mut out, self.config.tolerance);
        out.push_str(",\"passed\":");
        out.push_str(if self.passed() { "true" } else { "false" });
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scenario\":");
            write_string(&mut out, row.scenario);
            out.push_str(",\"metric\":");
            write_string(&mut out, row.metric);
            out.push_str(",\"predicted\":");
            write_f64(&mut out, row.predicted);
            out.push_str(",\"empirical\":");
            write_f64(&mut out, row.empirical);
            out.push_str(",\"delta\":");
            write_f64(&mut out, row.delta());
            out.push_str(",\"relative_delta\":");
            write_f64(&mut out, row.relative_delta());
            out.push_str(",\"gated\":");
            out.push_str(if row.gate == GateKind::Informational {
                "false"
            } else {
                "true"
            });
            out.push_str(",\"pass\":");
            out.push_str(if row.passes(self.config.tolerance) {
                "true"
            } else {
                "false"
            });
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

struct ScenarioOutcome {
    predicted_hit_ratio: f64,
    empirical_hit_ratio: f64,
    predicted_disk_bytes: f64,
    empirical_disk_bytes: f64,
    predicted_stall_secs: f64,
    empirical_device_secs: f64,
    predicted_data_stall_secs: f64,
    /// Consumer wait per consuming job (coordinated sessions sum their
    /// consumers' waits, which would scale with the job count).
    empirical_consumer_wait_secs: f64,
    /// Per-tier hit ratios, present for tiered scenarios:
    /// `(predicted_dram, empirical_dram, predicted_ssd, empirical_ssd)`.
    tier_ratios: Option<(f64, f64, f64, f64)>,
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

fn push_rows(
    rows: &mut Vec<ValidationRow>,
    scenario: &'static str,
    o: ScenarioOutcome,
    gate_consumer_wait: bool,
) {
    rows.push(ValidationRow {
        scenario,
        metric: "steady_hit_ratio",
        predicted: o.predicted_hit_ratio,
        empirical: o.empirical_hit_ratio,
        gate: GateKind::Absolute,
    });
    rows.push(ValidationRow {
        scenario,
        metric: "steady_disk_bytes",
        predicted: o.predicted_disk_bytes,
        empirical: o.empirical_disk_bytes,
        gate: GateKind::Relative,
    });
    if let Some((p_dram, e_dram, p_ssd, e_ssd)) = o.tier_ratios {
        rows.push(ValidationRow {
            scenario,
            metric: "steady_dram_hit_ratio",
            predicted: p_dram,
            empirical: e_dram,
            gate: GateKind::Absolute,
        });
        rows.push(ValidationRow {
            scenario,
            metric: "steady_ssd_hit_ratio",
            predicted: p_ssd,
            empirical: e_ssd,
            gate: GateKind::Absolute,
        });
    }
    rows.push(ValidationRow {
        scenario,
        metric: "steady_fetch_stall_vs_device_seconds",
        predicted: o.predicted_stall_secs,
        empirical: o.empirical_device_secs,
        gate: GateKind::Informational,
    });
    // The simulator's fetch+prep stall prediction is on modelled hardware;
    // the runtime's consumer-wait is wall time on the test host.  The pair
    // is reported so per-stage trends stay comparable.  For the coordinated
    // scenario — whose counter rows match the simulator exactly — it is
    // additionally gated, coarsely (see [`CONSUMER_WAIT_GATE`]), as a
    // stuck-consumer tripwire.
    rows.push(ValidationRow {
        scenario,
        metric: "steady_data_stall_vs_consumer_wait_seconds",
        predicted: o.predicted_data_stall_secs,
        empirical: o.empirical_consumer_wait_secs,
        gate: if gate_consumer_wait {
            CONSUMER_WAIT_GATE
        } else {
            GateKind::Informational
        },
    });
}

fn sim_steady(report: &SimReport) -> (f64, f64, f64, f64) {
    // Unit 0 carries the byte/hit accounting in coordinated runs.
    let steady = report.per_job()[0].steady_state();
    let fetch_stall = steady.breakdown.fetch_stall.as_secs();
    let prep_stall = steady.breakdown.prep_stall.as_secs();
    (
        steady.cache_hits as f64 / (steady.cache_hits + steady.cache_misses).max(1) as f64,
        steady.bytes_from_disk as f64,
        fetch_stall,
        fetch_stall + prep_stall,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    cfg: &ValidationConfig,
    spec: &DatasetSpec,
    server: &ServerConfig,
    loader: LoaderConfig,
    scenario: Scenario,
    mode: Mode,
    cache_policy: PolicyKind,
    tiers: Option<(u64, u64)>,
) -> ScenarioOutcome {
    // --- Predicted: the simulator. -----------------------------------------
    let job =
        JobSpec::new(gpu::ModelKind::ResNet18, spec.clone(), 1, loader).with_seed(VALIDATION_SEED);
    let sim = Experiment::on(server)
        .job(job)
        .scenario(scenario)
        .cache(match tiers {
            None => CacheSpec::DramOnly,
            Some((dram_bytes, ssd_bytes)) => CacheSpec::Tiered {
                dram_bytes,
                ssd_bytes,
            },
        })
        .epochs(cfg.epochs)
        .run();
    let (predicted_hit_ratio, predicted_disk_bytes, predicted_stall_secs, predicted_data_stall) =
        sim_steady(&sim);
    let sim_tier_ratios = tiers.map(|_| {
        let steady = sim.per_job()[0].steady_state();
        (steady.dram_hit_ratio(), steady.lower_tier_hit_ratio())
    });

    // --- Empirical: the runtime session on real bytes. ---------------------
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), STORE_SEED));
    let mut builder = Session::builder(
        store,
        SessionConfig {
            batch_size: 64,
            // One worker keeps the cache access order identical to the
            // simulator's sequential sweep, so LRU decisions line up exactly.
            num_workers: 1,
            seed: VALIDATION_SEED,
            cache_capacity_bytes: server.dram_cache_bytes,
            take_timeout: Duration::from_secs(30),
            ..SessionConfig::default()
        },
    )
    .mode(mode)
    .device_profile(server.device);
    builder = match tiers {
        None => builder.cache_policy(cache_policy),
        Some((dram_bytes, ssd_bytes)) => builder.cache_tiers(vec![
            coordl::ByteTierSpec::dram(cache_policy, dram_bytes),
            coordl::ByteTierSpec::sata_ssd(cache_policy, ssd_bytes),
        ]),
    };
    let session = builder.build().expect("valid validation session");
    for epoch in 0..cfg.epochs {
        let run = session.epoch(epoch);
        let handles: Vec<_> = (0..session.num_jobs())
            .map(|j| {
                let stream = run.stream(j);
                std::thread::spawn(move || {
                    for batch in stream {
                        let _ = batch.expect("validation epoch should complete");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("validation consumer");
        }
    }
    let report = session.report();
    let tail = report.steady_epochs();
    let hits: u64 = tail.iter().map(|e| e.cache_hits).sum();
    let misses: u64 = tail.iter().map(|e| e.cache_misses).sum();

    ScenarioOutcome {
        predicted_hit_ratio,
        empirical_hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        predicted_disk_bytes,
        empirical_disk_bytes: report.steady_storage_bytes(),
        predicted_stall_secs,
        empirical_device_secs: report.steady_device_seconds(),
        predicted_data_stall_secs: predicted_data_stall,
        empirical_consumer_wait_secs: report.steady_consumer_wait_seconds()
            / session.num_jobs() as f64,
        tier_ratios: sim_tier_ratios.map(|(p_dram, p_ssd)| {
            (
                p_dram,
                report.steady_dram_hit_ratio(),
                p_ssd,
                report.steady_lower_tier_hit_ratio(),
            )
        }),
    }
}

/// Predicted-vs-empirical comparison of the elastic-churn scenario: the
/// simulator's `Scenario::ElasticCluster` against a multi-tenant
/// `coordl::Server` replaying the *identical* deterministic churn schedule
/// (same `churn_schedule(tenants, epochs, seed)` on both sides).
///
/// The shared hierarchy is sized to hold one dataset copy per tenant and
/// every tenant's quota covers its dataset, so the quota mechanism — which
/// the simulator does not model — never binds; what is compared is the
/// churn dynamics themselves: arrival cold misses, steady-state hits and
/// departure-time reclamation.
fn run_churn_scenario(
    cfg: &ValidationConfig,
    spec: &DatasetSpec,
    server: &ServerConfig,
) -> Vec<ValidationRow> {
    let tenants = CHURN_TENANTS;
    // Exact dataset footprint: `DatasetSpec::total_bytes` is the *average*
    // (`num_items × avg_item_bytes`), but the hash-derived per-item sizes sum
    // to slightly more or less.  Quotas and the shared capacity must cover
    // the exact sum, or the never-evict tail of a tenant's dataset is refused
    // admission and re-read from storage every epoch — a steady-state miss
    // stream the simulator (sized the same way) never predicts.
    let per_tenant: u64 = (0..spec.num_items).map(|i| spec.item_size(i)).sum();
    let cap = per_tenant * tenants as u64;

    // --- Predicted: the simulator. -----------------------------------------
    let job = JobSpec::new(
        gpu::ModelKind::ResNet18,
        spec.clone(),
        1,
        LoaderConfig::coordl(PrepBackend::DaliCpu),
    )
    .with_seed(VALIDATION_SEED);
    let sim = Experiment::on(&server.with_cache_bytes(cap))
        .job(job)
        .scenario(Scenario::ElasticCluster {
            tenants,
            seed: CHURN_SEED,
        })
        .epochs(cfg.epochs)
        .run();
    let mut p_hits = 0u64;
    let mut p_misses = 0u64;
    let mut p_disk = 0u64;
    let mut p_samples = vec![0u64; tenants];
    for (j, unit) in sim.per_job().iter().enumerate() {
        for e in &unit.epochs {
            p_samples[j] += e.samples;
            if e.epoch >= 1 {
                p_hits += e.cache_hits;
                p_misses += e.cache_misses;
                p_disk += e.bytes_from_disk;
            }
        }
    }

    // --- Empirical: the multi-tenant server on real bytes. -----------------
    let schedule = churn_schedule(tenants, cfg.epochs, CHURN_SEED);
    // One lock shard: sharding splits the MinIO capacity per shard, and with
    // the cache sized exactly to the active datasets that imbalance causes
    // admission refusals the simulator's single shared cache never predicts.
    // The unsharded server is the bit-exact configuration the model maps to;
    // shard-count behaviour is gated separately by the multi-tenant preset.
    let rt = coordl::Server::new(coordl::ServerConfig::minio(cap, 1))
        .expect("valid churn server config");
    let mut handles: Vec<Option<TenantHandle>> = (0..tenants).map(|_| None).collect();
    let mut e_hits = 0u64;
    let mut e_misses = 0u64;
    let mut e_disk = 0u64;
    let mut e_samples = vec![0u64; tenants];
    // Fold a departing (or run-surviving) tenant's per-epoch trajectory
    // into the aggregates, mapping its local epochs to server epochs.
    let mut collect = |j: usize, handle: &TenantHandle| {
        for e in &handle.report().epochs {
            e_samples[j] += e.samples_delivered;
            if schedule[j].arrival + e.epoch >= 1 {
                e_hits += e.cache_hits;
                e_misses += e.cache_misses;
                e_disk += e.bytes_from_storage;
            }
        }
    };
    for epoch in 0..cfg.epochs {
        for j in 0..tenants {
            if schedule[j].departure == epoch {
                if let Some(handle) = handles[j].take() {
                    collect(j, &handle);
                    handle.depart();
                }
            }
            if schedule[j].arrival == epoch {
                let store: Arc<dyn DataSource> =
                    Arc::new(SyntheticItemStore::new(spec.clone(), STORE_SEED + j as u64));
                let handle = rt
                    .submit(TenantSpec {
                        name: format!("tenant-{j}"),
                        dataset: store,
                        quota_bytes: per_tenant,
                        session: SessionConfig {
                            batch_size: 64,
                            num_workers: 1,
                            seed: VALIDATION_SEED + j as u64,
                            ..SessionConfig::default()
                        },
                        profile: None,
                    })
                    .expect("valid churn tenant");
                handles[j] = Some(handle);
            }
        }
        for (j, slot) in handles.iter().enumerate() {
            let Some(handle) = slot else { continue };
            let run = handle.session().epoch(epoch - schedule[j].arrival);
            for batch in run.stream(0) {
                let _ = batch.expect("churn epoch should complete");
            }
        }
    }
    for (j, slot) in handles.iter().enumerate() {
        if let Some(handle) = slot {
            collect(j, handle);
        }
    }
    drop(handles);

    let mut rows = vec![
        ValidationRow {
            scenario: "elastic-churn",
            metric: "aggregate_steady_hit_ratio",
            predicted: p_hits as f64 / (p_hits + p_misses).max(1) as f64,
            empirical: e_hits as f64 / (e_hits + e_misses).max(1) as f64,
            gate: GateKind::Absolute,
        },
        ValidationRow {
            scenario: "elastic-churn",
            metric: "steady_disk_bytes",
            predicted: p_disk as f64,
            empirical: e_disk as f64,
            gate: GateKind::Relative,
        },
    ];
    for (j, metric) in CHURN_SAMPLE_METRICS.iter().enumerate() {
        rows.push(ValidationRow {
            scenario: "elastic-churn",
            metric,
            predicted: p_samples[j] as f64,
            empirical: e_samples[j] as f64,
            gate: GateKind::Relative,
        });
    }
    rows
}

/// Readahead window, in pages, of the fs-real scenario's backend.
const FS_REAL_READAHEAD: u32 = 4;

/// Real-bytes validation: the same single-job MinIO workload as
/// `single-minio`, but the dataset is materialized as a page-aligned packed
/// file on a deterministic in-memory VFS and every fetch is a real
/// positional read through [`FsBackend`].  Three timing columns line up:
/// the simulator's *predicted* fetch stall, the backend's *modelled* device
/// seconds (the same profile arithmetic, charged per real read), and the
/// *measured* wall-clock seconds those reads actually took.  The counter
/// rows are gated like `single-minio`; the measured row is a one-sided
/// wall-clock tripwire — real reads on an in-memory VFS must stay far below
/// the modelled SSD, so only a pathological I/O path (or a stuck reader)
/// trips it.
fn run_fs_real_scenario(
    cfg: &ValidationConfig,
    spec: &DatasetSpec,
    server: &ServerConfig,
) -> Vec<ValidationRow> {
    // --- Predicted: the simulator (identical to single-minio). -------------
    let job = JobSpec::new(
        gpu::ModelKind::ResNet18,
        spec.clone(),
        1,
        LoaderConfig::coordl(PrepBackend::DaliCpu),
    )
    .with_seed(VALIDATION_SEED);
    let sim = Experiment::on(server)
        .job(job)
        .scenario(Scenario::SingleServer)
        .cache(CacheSpec::DramOnly)
        .epochs(cfg.epochs)
        .run();
    let (p_hit, p_disk, p_stall, _) = sim_steady(&sim);

    // --- Empirical: the runtime over real bytes on a VFS. ------------------
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), STORE_SEED));
    let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let backend = Arc::new(
        FsBackend::new(Arc::clone(&fs), "data", store.as_ref(), FS_REAL_READAHEAD)
            .expect("fs-real materialization must succeed")
            .with_profile(server.device, AccessPattern::Random),
    );
    let session = Session::builder(
        store,
        SessionConfig {
            batch_size: 64,
            num_workers: 1,
            seed: VALIDATION_SEED,
            cache_capacity_bytes: server.dram_cache_bytes,
            take_timeout: Duration::from_secs(30),
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Single)
    .cache_policy(PolicyKind::MinIo)
    .fetch_backend(backend as Arc<dyn FetchBackend>)
    .build()
    .expect("valid fs-real session");
    for epoch in 0..cfg.epochs {
        let run = session.epoch(epoch);
        for batch in run.stream(0) {
            let _ = batch.expect("fs-real epoch should complete");
        }
    }
    let report = session.report();
    let tail = report.steady_epochs();
    let hits: u64 = tail.iter().map(|e| e.cache_hits).sum();
    let misses: u64 = tail.iter().map(|e| e.cache_misses).sum();

    vec![
        ValidationRow {
            scenario: "fs-real",
            metric: "steady_hit_ratio",
            predicted: p_hit,
            empirical: hits as f64 / (hits + misses).max(1) as f64,
            gate: GateKind::Absolute,
        },
        ValidationRow {
            scenario: "fs-real",
            metric: "steady_disk_bytes",
            predicted: p_disk,
            empirical: report.steady_storage_bytes(),
            gate: GateKind::Relative,
        },
        ValidationRow {
            scenario: "fs-real",
            metric: "steady_fetch_stall_vs_device_seconds",
            predicted: p_stall,
            empirical: report.steady_device_seconds(),
            gate: GateKind::Informational,
        },
        ValidationRow {
            scenario: "fs-real",
            metric: "modelled_vs_measured_device_seconds",
            predicted: report.device_seconds,
            empirical: report.measured_device_seconds,
            gate: CONSUMER_WAIT_GATE,
        },
    ]
}

/// Failure-injection validation: the simulator's
/// `Scenario::PartitionedChaos` against a runtime partitioned [`Session`]
/// replaying the *identical* membership-fault schedule.  Both sides derive
/// it from the same `fault_schedule(servers, epochs, faults, seed)` call:
/// the simulator applies each event at its epoch boundary, and
/// [`coordl::FaultPlan::seeded`] scales the same boundaries by the dataset
/// length so the runtime's fetch-step clock fires each event before the
/// same epoch.  Node streams are consumed sequentially in node order — the
/// order the simulator sweeps its shards — so the shared directory and the
/// per-node MinIO caches evolve identically on both sides, kills, leaves
/// and rejoins included.
fn run_partitioned_chaos_scenario(
    cfg: &ValidationConfig,
    spec: &DatasetSpec,
    server: &ServerConfig,
) -> Vec<ValidationRow> {
    let servers = CHAOS_SERVERS;
    let schedule = pipeline::fault_schedule(servers, cfg.epochs, CHAOS_FAULTS, CHAOS_FAULT_SEED);
    assert!(
        !schedule.is_empty(),
        "the chaos validation seed must schedule at least one fault"
    );

    // --- Predicted: the simulator under the fault schedule. ----------------
    let job = JobSpec::new(
        gpu::ModelKind::ResNet18,
        spec.clone(),
        1,
        LoaderConfig::coordl(PrepBackend::DaliCpu),
    )
    .with_seed(VALIDATION_SEED);
    let sim = Experiment::on(server)
        .job(job)
        .scenario(Scenario::PartitionedChaos {
            servers,
            faults: CHAOS_FAULTS,
            seed: CHAOS_FAULT_SEED,
        })
        .epochs(cfg.epochs)
        .run();
    let mut p_hits = 0u64;
    let mut p_misses = 0u64;
    let mut p_disk = 0u64;
    let mut p_remote = 0u64;
    let mut p_samples = 0u64;
    for unit in sim.per_server() {
        for e in &unit.epochs {
            p_samples += e.samples;
            if e.epoch >= 1 {
                p_hits += e.cache_hits;
                p_misses += e.cache_misses;
                p_disk += e.bytes_from_disk;
                p_remote += e.bytes_from_remote;
            }
        }
    }

    // --- Empirical: the partitioned runtime under the same schedule. -------
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), STORE_SEED));
    let session = Session::builder(
        store,
        SessionConfig {
            batch_size: 64,
            num_workers: 1,
            seed: VALIDATION_SEED,
            cache_capacity_bytes: server.dram_cache_bytes,
            take_timeout: Duration::from_secs(30),
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Partitioned { nodes: servers })
    .cache_policy(PolicyKind::MinIo)
    .device_profile(server.device)
    .fault_plan(coordl::FaultPlan::seeded(
        servers,
        cfg.epochs,
        CHAOS_FAULTS,
        CHAOS_FAULT_SEED,
        spec.num_items,
    ))
    .build()
    .expect("valid chaos validation session");
    for epoch in 0..cfg.epochs {
        let run = session.epoch(epoch);
        for node in 0..servers {
            for batch in run.stream(node) {
                let _ = batch.expect("chaos epoch should complete");
            }
        }
    }
    let report = session.report();
    let mut e_hits = 0u64;
    let mut e_misses = 0u64;
    let mut e_disk = 0u64;
    let mut e_remote = 0u64;
    let mut e_samples = 0u64;
    for e in &report.epochs {
        e_samples += e.samples_delivered;
        if e.epoch >= 1 {
            e_hits += e.cache_hits;
            e_misses += e.cache_misses;
            e_disk += e.bytes_from_storage;
            e_remote += e.bytes_from_remote;
        }
    }

    vec![
        ValidationRow {
            scenario: "partitioned-chaos",
            metric: "aggregate_steady_hit_ratio",
            predicted: p_hits as f64 / (p_hits + p_misses).max(1) as f64,
            empirical: e_hits as f64 / (e_hits + e_misses).max(1) as f64,
            gate: GateKind::Absolute,
        },
        ValidationRow {
            scenario: "partitioned-chaos",
            metric: "steady_disk_bytes",
            predicted: p_disk as f64,
            empirical: e_disk as f64,
            gate: GateKind::Relative,
        },
        ValidationRow {
            scenario: "partitioned-chaos",
            metric: "steady_remote_bytes",
            predicted: p_remote as f64,
            empirical: e_remote as f64,
            gate: GateKind::Relative,
        },
        // Exactly-once accounting: a fault must never lose or duplicate a
        // sample, so the run totals agree to the sample on both sides.
        ValidationRow {
            scenario: "partitioned-chaos",
            metric: "samples_delivered",
            predicted: p_samples as f64,
            empirical: e_samples as f64,
            gate: GateKind::Relative,
        },
    ]
}

/// Fetch threads driven by the parallel-fetch validation scenario.
const PARALLEL_FETCH_THREADS: usize = 4;

/// Parallel-fetch validation: the single-minio workload with a fully
/// resident cache, fetched by a [`PARALLEL_FETCH_THREADS`]-thread pool.
/// Full residency makes the steady-state prediction *exact*: after the
/// cold warm-up epoch every access hits, so the simulator and the runtime
/// must both report a steady hit ratio of exactly 1.0 — any delta at all
/// means the fetch pool changed caching behaviour, not just scheduling.
/// The second row compares the pool's summed condvar-wait seconds (wall
/// time on the test host) against the modelled device seconds those same
/// reads were charged; the pair is informational, like every other
/// wall-vs-model column.
fn run_parallel_fetch_scenario(
    cfg: &ValidationConfig,
    spec: &DatasetSpec,
    server: &ServerConfig,
) -> Vec<ValidationRow> {
    // Full residency with headroom: the sharded tier splits its capacity
    // across fetch shards, and FNV routing is only statistically uniform,
    // so 4x the *exact* dataset footprint keeps even the most loaded
    // shard resident (the same exact-sum sizing the churn scenario uses).
    let exact_bytes: u64 = (0..spec.num_items).map(|i| spec.item_size(i)).sum();
    let cap = exact_bytes * 4;
    let full = server.with_cache_bytes(cap);

    // --- Predicted: the simulator with a fully resident cache. -------------
    let job = JobSpec::new(
        gpu::ModelKind::ResNet18,
        spec.clone(),
        1,
        LoaderConfig::coordl(PrepBackend::DaliCpu),
    )
    .with_seed(VALIDATION_SEED);
    let sim = Experiment::on(&full)
        .job(job)
        .scenario(Scenario::SingleServer)
        .cache(CacheSpec::DramOnly)
        .epochs(cfg.epochs)
        .run();
    let (p_hit, _, _, _) = sim_steady(&sim);

    // --- Empirical: the runtime with a 4-thread fetch pool. ----------------
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), STORE_SEED));
    let session = Session::builder(
        store,
        SessionConfig {
            batch_size: 64,
            num_workers: 1,
            seed: VALIDATION_SEED,
            cache_capacity_bytes: cap,
            take_timeout: Duration::from_secs(30),
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Single)
    .cache_policy(PolicyKind::MinIo)
    .device_profile(server.device)
    .fetch_threads(PARALLEL_FETCH_THREADS)
    .build()
    .expect("valid parallel-fetch session");
    for epoch in 0..cfg.epochs {
        let run = session.epoch(epoch);
        for batch in run.stream(0) {
            let _ = batch.expect("parallel-fetch epoch should complete");
        }
    }
    let report = session.report();
    let tail = report.steady_epochs();
    let hits: u64 = tail.iter().map(|e| e.cache_hits).sum();
    let misses: u64 = tail.iter().map(|e| e.cache_misses).sum();

    vec![
        ValidationRow {
            scenario: "parallel-fetch",
            metric: "steady_hit_ratio",
            predicted: p_hit,
            empirical: hits as f64 / (hits + misses).max(1) as f64,
            gate: GateKind::Absolute,
        },
        ValidationRow {
            scenario: "parallel-fetch",
            metric: "fetch_thread_stall_vs_modelled_device_seconds",
            predicted: report.device_seconds,
            empirical: report.fetch_thread_stall_seconds.iter().sum(),
            gate: GateKind::Informational,
        },
    ]
}

/// Run the full predicted-vs-empirical comparison.
pub fn run_validation(cfg: &ValidationConfig) -> ValidationReport {
    assert!(cfg.epochs >= 2, "need a warm-up plus one steady epoch");
    let spec = DatasetSpec::imagenet_1k().scaled(cfg.scale);
    let server =
        ServerConfig::config_ssd_v100().with_cache_fraction(spec.total_bytes(), cfg.cache_fraction);
    let mut rows = Vec::new();

    // CoorDL's MinIO cache, one job.
    push_rows(
        &mut rows,
        "single-minio",
        run_scenario(
            cfg,
            &spec,
            &server,
            LoaderConfig::coordl(PrepBackend::DaliCpu),
            Scenario::SingleServer,
            Mode::Single,
            PolicyKind::MinIo,
            None,
        ),
        false,
    );

    // The page-cache baseline: the *same* LRU policy code runs inside the
    // simulator's StorageNode and inside the runtime's TieredByteCache.
    push_rows(
        &mut rows,
        "single-lru",
        run_scenario(
            cfg,
            &spec,
            &server,
            LoaderConfig::dali_shuffle(PrepBackend::DaliCpu),
            Scenario::SingleServer,
            Mode::Single,
            PolicyKind::Lru,
            None,
        ),
        false,
    );

    // The tiered hierarchy: a MinIO DRAM tier spilling into a MinIO SSD
    // tier of the same size — both sides run the identical TierChain code,
    // so the per-tier hit ratios are predicted exactly (§4.2 / Table 2).
    push_rows(
        &mut rows,
        "single-tiered",
        run_scenario(
            cfg,
            &spec,
            &server,
            LoaderConfig::coordl(PrepBackend::DaliCpu),
            Scenario::SingleServer,
            Mode::Single,
            PolicyKind::MinIo,
            Some((server.dram_cache_bytes, server.dram_cache_bytes)),
        ),
        false,
    );

    // Coordinated prep: one shared sweep for the whole HP-search ensemble.
    // Its counter rows match the simulator exactly, so its consumer-wait
    // row graduates from informational to (coarsely) gated.
    push_rows(
        &mut rows,
        "hp-coordinated",
        run_scenario(
            cfg,
            &spec,
            &server,
            LoaderConfig::coordl(PrepBackend::DaliCpu),
            Scenario::HpSearch { jobs: cfg.jobs },
            Mode::Coordinated { jobs: cfg.jobs },
            PolicyKind::MinIo,
            None,
        ),
        true,
    );

    // Elastic churn: tenants arriving and departing over one shared
    // multi-tenant server, against Scenario::ElasticCluster.
    rows.extend(run_churn_scenario(cfg, &spec, &server));

    // Real bytes: the single-minio workload re-run through FsBackend on a
    // VFS, adding the predicted / modelled / measured timing columns.
    rows.extend(run_fs_real_scenario(cfg, &spec, &server));

    // Partitioned caching under membership faults: the chaos simulator
    // against a runtime cluster replaying the identical fault schedule.
    rows.extend(run_partitioned_chaos_scenario(cfg, &spec, &server));

    // Sharded parallel fetch: a fully resident cache fetched by a
    // 4-thread pool, where the steady hit-ratio prediction is exact.
    rows.extend(run_parallel_fetch_scenario(cfg, &spec, &server));

    ValidationReport {
        config: cfg.clone(),
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
        assert_eq!(
            report.rows.len(),
            33,
            "4 rows for each flat scenario, 6 for the tiered one, 5 for \
             churn, 4 for fs-real, 4 for partitioned-chaos, 2 for \
             parallel-fetch"
        );
        let chaos: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.scenario == "partitioned-chaos")
            .collect();
        assert_eq!(chaos.len(), 4);
        let samples = chaos
            .iter()
            .find(|r| r.metric == "samples_delivered")
            .expect("chaos reports sample accounting");
        assert_eq!(
            samples.predicted, samples.empirical,
            "exactly-once delivery under faults"
        );
        let fs_real: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.scenario == "fs-real")
            .collect();
        assert_eq!(fs_real.len(), 4);
        let measured = fs_real
            .iter()
            .find(|r| r.metric == "modelled_vs_measured_device_seconds")
            .expect("fs-real reports the measured column");
        assert!(measured.predicted > 0.0, "modelled seconds accumulate");
        assert!(measured.empirical > 0.0, "measured seconds accumulate");
        let parallel_fetch: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.scenario == "parallel-fetch")
            .collect();
        assert_eq!(parallel_fetch.len(), 2);
        let pf_hit = parallel_fetch
            .iter()
            .find(|r| r.metric == "steady_hit_ratio")
            .expect("parallel-fetch reports the steady hit ratio");
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
        let minio = &report.rows[0];
        assert_eq!(minio.metric, "steady_hit_ratio");
        assert!(
            (minio.empirical - 0.35).abs() < 0.10,
            "MinIO steady hit ratio tracks the cache fraction, got {}",
            minio.empirical
        );
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
