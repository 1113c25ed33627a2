//! The paper's figures and tables, and the checks of the reproduction
//! itself, as one registry: [`FIGURES`].
//!
//! Each row regenerates one artifact as one [`FigureTable`] of exact numbers
//! — outputs of the deterministic simulator, cache-trace counts, accuracies
//! of a model trained through the runtime, stream digests and counters of
//! runtime sessions.  The paper's evaluation is Figures 1–23, Tables
//! 3/5/6/7 and the storage ablation; the other rows are the runtime presets
//! ([`runtime`](crate::runtime)), the vectorized engine's 100 000-point
//! `mega_sweep`, the predicted-vs-empirical `validate` table and the
//! `mixed_cluster` grid.  `dstool figures` prints every table, writes them as
//! one document keyed by id and compares it leaf for leaf with the committed
//! `FIGURES.json` through [`compare_exact`](crate::compare_exact), so a
//! row's numbers change only in a commit that also changes `FIGURES.json`.
//!
//! Simulator rows list their grid points as [`ExperimentSpec`]s and run
//! them as one sweep through the one [`SweepRunner`] (parallel == serial, bit
//! for bit, as `tests/sweep_determinism.rs` pins).  `fig01`, `fig08`,
//! `fig10`, `fig16`, `tab05` and `fig19` are plain functions returning the
//! same table type.
//!
//! A row's [`Claim`] is the paper's headline, checked against the row's own
//! numbers.  Where the simulator's factor departs from the paper's, the claim
//! is a shape bracket — who wins, the ordering, the crossover — and
//! `EXPERIMENTS.md` records both values.  A headline that one of
//! `tests/paper_claims.rs`'s assertions already owns gets no claim here; the
//! row's doc comment names the owning test.

use crate::chaos::{chaos, chaos_claim};
use crate::fetchsweep::{fetch_sweep, fetch_sweep_claim};
use crate::fssweep::{fs_sweep, fs_sweep_claim};
use crate::mega::{mega_sweep, mega_sweep_claim};
use crate::multitenant::{multi_tenant, multi_tenant_claim};
use crate::parallel::{worker_sweep, worker_sweep_claim};
use crate::presets::{
    scaled, server_ssd, vcpu_effective_cores, EPOCHS, HP_WIDTHS, MIXED_CACHE_PERCENTS,
    SCALABILITY_SERVERS, SCALE, VCPUS_PER_GPU,
};
use crate::report::Table;
use crate::runtime::cell;
use crate::tiersweep::{tier_sweep, tier_sweep_claim};
use crate::validation::{validate, validate_claim};
use coordl::{Mode, Session, SessionConfig};
use dataset::{DataSource, DatasetSpec, EpochSampler, LabeledVectorStore, SyntheticItemStore};
use dcache::{build_cache, Cache, LruCache, MinIoCache, PolicyKind};
use dnn::{train_through_coordinated_group, train_through_loader, TrainConfig};
use dsanalyzer::{Bottleneck, ProfiledRates, WhatIfAnalysis};
use gpu::{aggregate_samples_per_sec, GpuGeneration, ModelKind};
use pipeline::json::{int, num, object, text, Value};
use pipeline::{
    Axis, CacheSpec, ExperimentSpec, JobSpec, LoaderConfig, LoaderKind, Scenario, ServerConfig,
    SimReport, SweepReport, SweepRunner, SweepSpec,
};
use prep::{ExecutablePipeline, PrepBackend, PrepCostModel, PrepPipeline};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use storage::{AccessPattern, DeviceProfile, DRAM_BANDWIDTH_BYTES_PER_SEC};

/// One figure's numbers: named columns, rows of exact values, and the
/// scalars the paper states beside the figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FigureTable {
    /// Column names, in print order.
    pub columns: Vec<String>,
    /// One value per column per row: numbers unrounded, labels as strings.
    pub rows: Vec<Vec<Value>>,
    /// Scalars outside the grid (e.g. the recommended cache size): emitted.
    pub summary: Vec<(String, Value)>,
    /// Observations that depend on thread timing (they move run to run):
    /// printed and read by the claim, never emitted.
    pub observed: Vec<(String, f64)>,
}

impl FigureTable {
    /// An empty table with the whitespace-separated `columns`.
    pub(crate) fn new(columns: &str) -> Self {
        FigureTable {
            columns: columns.split_whitespace().map(str::to_string).collect(),
            ..FigureTable::default()
        }
    }

    /// Append a row: its `labels` (the leading columns), then its numbers.
    fn row(&mut self, labels: &[&str], numbers: &[f64]) {
        let cells = labels
            .iter()
            .map(|l| text(l))
            .chain(numbers.iter().map(|&n| num(n)));
        self.rows.push(cells.collect());
        assert_eq!(
            self.rows[self.rows.len() - 1].len(),
            self.columns.len(),
            "row width"
        );
    }

    /// The cell in `column` of `row`.
    ///
    /// # Panics
    /// Panics when there is no such column (a bug in the figure or claim).
    pub fn cell(&self, row: usize, column: &str) -> &Value {
        let Some(i) = self.columns.iter().position(|c| c == column) else {
            panic!("no column {column}");
        };
        &self.rows[row][i]
    }

    /// The number in `column` of `row`.
    ///
    /// # Panics
    /// Panics when there is no such number (a bug in the figure or claim).
    pub fn num(&self, row: usize, column: &str) -> f64 {
        let value = self.cell(row, column).as_f64();
        value.unwrap_or_else(|| panic!("{column} of row {row} is not a number"))
    }

    /// Every row's number in `column`.
    pub fn column(&self, column: &str) -> Vec<f64> {
        (0..self.rows.len()).map(|r| self.num(r, column)).collect()
    }

    /// `column` of the rows whose `key` column reads `value`.
    pub fn select(&self, column: &str, key: &str, value: &str) -> Vec<f64> {
        let rows = (0..self.rows.len()).filter(|&r| self.cell(r, key).as_str() == Some(value));
        rows.map(|r| self.num(r, column)).collect()
    }

    /// The summary scalar `key`.
    pub fn summary_num(&self, key: &str) -> f64 {
        let value = self.summary.iter().find(|(k, _)| k == key);
        value
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("no summary number {key}"))
    }

    /// The thread-timing observation `key`, if this run made it.
    pub fn observation(&self, key: &str) -> Option<f64> {
        self.observed
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// The table as a document block: the paper artifact, the columns, one
    /// object per row and the summary.  Observations are not part of it.
    pub fn to_value(&self, paper: &str) -> Value {
        let columns = self.columns.iter().map(|c| text(c));
        let names = || self.columns.iter().map(String::as_str);
        let rows = self
            .rows
            .iter()
            .map(|r| object(names().zip(r.iter().cloned())));
        let summary = self.summary.iter().map(|(k, v)| (k.as_str(), v.clone()));
        object([
            ("paper", text(paper)),
            ("columns", Value::Array(columns.collect())),
            ("rows", Value::Array(rows.collect())),
            ("summary", object(summary)),
        ])
    }

    fn print(&self, title: &str) {
        let columns: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let summary = self.summary.iter().map(|(k, v)| format!("{k}={}", cell(v)));
        let observed = self
            .observed
            .iter()
            .map(|(k, v)| format!("{k}={v} (not written)"));
        let caption: Vec<String> = summary.chain(observed).collect();
        let mut table = Table::new(title, &columns);
        if !caption.is_empty() {
            table = table.with_caption(caption.join(", "));
        }
        for row in &self.rows {
            table.row(&row.iter().map(cell).collect::<Vec<_>>());
        }
        table.print();
    }
}

/// The paper's headline for one figure and its check against the figure's
/// own numbers.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// What the paper reports (EXPERIMENTS.md's "paper" column).
    pub headline: &'static str,
    /// `Err(what was measured)` when the numbers contradict the headline.
    pub check: fn(&FigureTable) -> Result<(), String>,
}

/// One row of the figure registry.
#[derive(Debug)]
pub struct Figure {
    /// CLI id (`dstool figures --only <id>`) and key in `FIGURES.json`.
    pub id: &'static str,
    /// The paper artifact and its setting.
    pub paper: &'static str,
    /// The paper's headline, when no `tests/paper_claims.rs` test owns it.
    pub claim: Option<Claim>,
    /// Regenerate the figure at bench scale ([`SCALE`]).
    pub run: fn() -> FigureTable,
}

impl Figure {
    /// Check the figure's claim against `table`; the error names the
    /// figure, the paper's value and the measured one.
    pub fn check(&self, table: &FigureTable) -> Result<(), String> {
        let Some(claim) = self.claim else {
            return Ok(());
        };
        (claim.check)(table).map_err(|measured| {
            format!(
                "{}: claim failed — the paper reports {}; measured {measured}",
                self.id, claim.headline
            )
        })
    }
}

/// Look a figure up by id.
pub fn find_figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// Run `figures` in order, printing each table: the document keyed by id,
/// and every failed claim.
pub fn run_figures(figures: &[&'static Figure]) -> (Value, Vec<String>) {
    let mut doc = BTreeMap::new();
    let mut failed = Vec::new();
    for figure in figures {
        let table = (figure.run)();
        table.print(&format!("{} — {}", figure.id, figure.paper));
        failed.extend(figure.check(&table).err());
        doc.insert(figure.id.to_string(), table.to_value(figure.paper));
    }
    (Value::Object(doc), failed)
}

fn ensure(ok: bool, measured: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(measured())
    }
}

fn increasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

fn decreasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] > w[1])
}

/// Models whose GPU compute is light, and heavy (§3.3.2).
const LIGHT: [&str; 3] = ["ShuffleNetv2", "AlexNet", "ResNet18"];
const HEAVY: [&str; 2] = ["ResNet50", "VGG11"];

/// `column` of the [`LIGHT`] and of the [`HEAVY`] models' rows.
fn light_and_heavy(t: &FigureTable, column: &str) -> (Vec<f64>, Vec<f64>) {
    let of = |models: &[&str]| -> Vec<f64> {
        let rows = models.iter().map(|m| t.select(column, "model", m));
        rows.flatten().collect()
    };
    (of(&LIGHT), of(&HEAVY))
}

/// One 8-GPU job of `model` over `dataset` with `loader`, [`EPOCHS`] epochs.
fn job(
    server: &ServerConfig,
    model: ModelKind,
    dataset: &DatasetSpec,
    loader: LoaderConfig,
) -> ExperimentSpec {
    let job = JobSpec::new(model, dataset.clone(), 8, loader);
    ExperimentSpec {
        epochs: EPOCHS,
        ..ExperimentSpec::new(server.clone(), job)
    }
}

/// `spec`'s job as an HP search: `n` concurrent jobs sharing the server's
/// GPUs, each shuffling with its own seed.
fn hp(mut spec: ExperimentSpec, n: usize) -> ExperimentSpec {
    let mut template = spec.jobs[0].clone();
    template.num_gpus = (spec.server.num_gpus / n).max(1);
    spec.jobs = (0..n)
        .map(|j| template.with_seed(0xC0DE + j as u64))
        .collect();
    spec.scenario = Scenario::HpSearch { jobs: n };
    spec
}

/// `spec`'s job data-parallel across `servers` servers.
fn distributed(spec: ExperimentSpec, servers: usize) -> ExperimentSpec {
    ExperimentSpec {
        scenario: Scenario::Distributed { servers },
        ..spec
    }
}

/// Simulate `points` as one sweep through the one [`SweepRunner`]: each
/// point's report beside its key, in order.
fn simulate<K>(points: Vec<(K, ExperimentSpec)>) -> Vec<(K, SimReport)> {
    let mut axis = Axis::new("point");
    for (i, (_, spec)) in points.iter().enumerate() {
        let spec = spec.clone();
        axis.push_value(i.to_string(), move |point: &mut ExperimentSpec| {
            *point = spec.clone()
        });
    }
    let grid = SweepSpec::new("figure", points[0].1.clone()).axis(axis);
    let reports = completed(SweepRunner::new().run(&grid));
    points.into_iter().map(|(k, _)| k).zip(reports).collect()
}

/// Every point's report; a failed point is a bug in the figure.
fn completed(report: SweepReport) -> Vec<SimReport> {
    let SweepReport { name, points } = report;
    let reports = points.into_iter().map(|p| {
        let label = p.label.label();
        p.outcome.unwrap_or_else(|e| panic!("{name}/{label}: {e}"))
    });
    reports.collect()
}

/// The §5 workload of `model` (bench scale) and its cacheable fraction:
/// FMA at 45 %, OpenImages (detection) or OpenImages-Extended at 65 %.
fn section5_workload(model: ModelKind) -> (DatasetSpec, f64) {
    match model {
        ModelKind::AudioM5 => (scaled(DatasetSpec::fma()), 0.45),
        ModelKind::SsdRes18 => (scaled(DatasetSpec::openimages()), 0.65),
        _ => (scaled(DatasetSpec::openimages_extended()), 0.65),
    }
}

/// Mean per-server disk bytes in epoch 2, in GiB.
fn disk_gib_per_server(report: &SimReport) -> f64 {
    let bytes = report.disk_bytes_per_server(2);
    bytes.iter().sum::<u64>() as f64 / bytes.len() as f64 / (1u64 << 30) as f64
}

/// The two servers of Table 2.
fn both_servers() -> [ServerConfig; 2] {
    [
        ServerConfig::config_ssd_v100(),
        ServerConfig::config_hdd_1080ti(),
    ]
}

/// The [`LoaderConfig::dali_best`] and [`LoaderConfig::coordl_best`] pair
/// most comparisons run.
const DALI_VS_COORDL: [fn(ModelKind) -> LoaderConfig; 2] =
    [LoaderConfig::dali_best, LoaderConfig::coordl_best];

/// §6 ablation: DALI on ever faster storage vs CoorDL on the SATA SSD
/// (ResNet18 and ResNet50, OpenImages, 65 % cached, 8 V100s).
fn abl() -> FigureTable {
    let dataset = scaled(DatasetSpec::openimages_extended());
    let base = server_ssd(&dataset, 0.65);
    let dali: fn(ModelKind) -> LoaderConfig = LoaderConfig::dali_best;
    let setups = [
        ("DALI + HDD", DeviceProfile::hdd(), dali),
        ("DALI + SATA SSD", DeviceProfile::sata_ssd(), dali),
        ("DALI + NVMe SSD", DeviceProfile::nvme_ssd(), dali),
        ("DALI + RAM-class storage", DeviceProfile::ramdisk(), dali),
        (
            "CoorDL + SATA SSD",
            DeviceProfile::sata_ssd(),
            LoaderConfig::coordl_best,
        ),
    ];
    let mut points = Vec::new();
    for model in [ModelKind::ResNet18, ModelKind::ResNet50] {
        for (label, device, loader) in &setups {
            let server = ServerConfig {
                device: *device,
                ..base.clone()
            };
            points.push((
                (model, *label),
                job(&server, model, &dataset, loader(model)),
            ));
        }
    }
    let mut t =
        FigureTable::new("model configuration samples_per_s fetch_stall_frac prep_stall_frac");
    for ((model, label), report) in simulate(points) {
        let e = report.steady_state();
        let stalls = [e.fetch_stall_fraction(), e.prep_stall_fraction()];
        t.row(
            &[model.name(), label],
            &[e.samples_per_sec(), stalls[0], stalls[1]],
        );
    }
    t
}

fn abl_claim(t: &FigureTable) -> Result<(), String> {
    for model in ["ResNet18", "ResNet50"] {
        // HDD, SATA, NVMe, RAM-class, then CoorDL on SATA.
        let rate = t.select("samples_per_s", "model", model);
        let prep = t.select("prep_stall_frac", "model", model)[2];
        let dali_ok = increasing(&rate[..3]) && rate[2] <= rate[3] && prep > 0.25;
        let coordl_ok = rate[4] > rate[1] && rate[4] >= 0.9 * rate[2];
        ensure(dali_ok && coordl_ok, || {
            format!("{model}: {rate:.0?} samples/s, {prep:.3} prep stall on NVMe")
        })?;
    }
    Ok(())
}

/// Figure 1: the ResNet18 pipeline's component rates, analytically (8×V100,
/// 24 cores, ImageNet-1k, 35 % cached).
fn fig01() -> FigureTable {
    let avg_item = DatasetSpec::imagenet_1k().avg_item_bytes as f64;
    let model = ModelKind::ResNet18.profile();
    let random = |device: DeviceProfile| device.bandwidth(AccessPattern::Random);
    let ssd = random(DeviceProfile::sata_ssd());
    let f = 0.35;
    let mix = 1.0 / (f / DRAM_BANDWIDTH_BYTES_PER_SEC + (1.0 - f) / ssd);
    let pipeline = PrepPipeline::image_classification();
    let prep =
        |backend, gpus| PrepCostModel::for_pipeline(&pipeline, backend).throughput_bps(24.0, gpus);
    let batch = model.reference_batch;
    let demand = aggregate_samples_per_sec(&model, GpuGeneration::V100, 8, batch) * avg_item;
    let rates = [
        ("HDD random read", random(DeviceProfile::hdd()), 15.0),
        ("SATA SSD random read", ssd, 530.0),
        ("fetch (35% cache + SSD)", mix, 802.0),
        (
            "prep, DALI-CPU, 24 cores",
            prep(PrepBackend::DaliCpu, 0.0),
            735.0,
        ),
        (
            "prep, DALI-GPU offload",
            prep(PrepBackend::DaliGpu, 8.0),
            1062.0,
        ),
        ("GPU ingestion demand (8xV100)", demand, 2283.0),
    ];
    let mut t = FigureTable::new("component measured_mb_per_s paper_mb_per_s");
    for (component, bps, paper) in rates {
        t.row(&[component], &[bps / 1e6, paper]);
    }
    t
}

fn fig01_claim(t: &FigureTable) -> Result<(), String> {
    let (measured, paper) = (t.column("measured_mb_per_s"), t.column("paper_mb_per_s"));
    let close = measured
        .iter()
        .zip(&paper)
        .all(|(m, p)| (m / p - 1.0).abs() <= 0.01);
    let stalls = measured[..5].iter().all(|&m| m < measured[5]);
    ensure(close && stalls, || format!("{measured:.0?} MB/s"))
}

/// Figure 2: fetch stalls with 35 % of each model's dataset cached (DALI,
/// Config-SSD-V100).  Claim owned by
/// `tests/paper_claims.rs::many_models_have_fetch_stalls_with_a_35_percent_cache`.
fn fig02() -> FigureTable {
    let mut points = Vec::new();
    for model in ModelKind::paper_models() {
        // The dataset each model trains on in the paper's analysis (Table 1).
        let dataset = scaled(match model {
            ModelKind::ShuffleNetV2 | ModelKind::AlexNet | ModelKind::ResNet18 => {
                DatasetSpec::imagenet_22k().scaled(4)
            }
            ModelKind::SqueezeNet | ModelKind::MobileNetV2 => DatasetSpec::openimages_extended(),
            ModelKind::SsdRes18 => DatasetSpec::openimages(),
            ModelKind::AudioM5 => DatasetSpec::fma(),
            _ => DatasetSpec::imagenet_1k(),
        });
        let server = server_ssd(&dataset, 0.35);
        let spec = job(&server, model, &dataset, LoaderConfig::dali_best(model));
        points.push(((model, dataset.name.clone()), spec));
    }
    let mut t = FigureTable::new("model dataset fetch_stall_frac prep_stall_frac epoch_s");
    for ((model, dataset), report) in simulate(points) {
        let e = report.steady_state();
        let stalls = [e.fetch_stall_fraction(), e.prep_stall_fraction()];
        t.row(
            &[model.name(), dataset.as_str()],
            &[stalls[0], stalls[1], e.epoch_seconds()],
        );
    }
    t
}

/// Figure 3: ResNet18's epoch time split into compute, the ideal fetch
/// stall (MinIO: capacity misses only) and the page cache's extra stall.
fn fig03() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let mut points = Vec::new();
    for pct in [20u32, 35, 50, 65, 80, 100] {
        let server = server_ssd(&dataset, pct as f64 / 100.0);
        for loader in [LoaderConfig::dali_shuffle, LoaderConfig::coordl] {
            let loader = loader(PrepBackend::DaliGpu);
            points.push((pct, job(&server, ModelKind::ResNet18, &dataset, loader)));
        }
    }
    let mut t = FigureTable::new(
        "cache_frac compute_s ideal_fetch_stall_s thrashing_extra_s \
         page_cache_miss_frac ideal_miss_frac",
    );
    for pair in simulate(points).chunks(2) {
        let [(pct, lru), (_, ideal)] = pair else {
            unreachable!("page cache, then ideal")
        };
        let (lru, ideal) = (lru.steady_state(), ideal.steady_state());
        let stall = ideal.breakdown.fetch_stall.as_secs();
        let extra = (lru.breakdown.fetch_stall.as_secs() - stall).max(0.0);
        let compute = lru.breakdown.compute_time.as_secs();
        let misses = [lru.miss_ratio(), ideal.miss_ratio()];
        t.row(
            &[],
            &[
                *pct as f64 / 100.0,
                compute,
                stall,
                extra,
                misses[0],
                misses[1],
            ],
        );
    }
    t
}

fn fig03_claim(t: &FigureTable) -> Result<(), String> {
    for r in 0..t.rows.len() {
        let cache = t.num(r, "cache_frac");
        let (page, ideal) = (
            t.num(r, "page_cache_miss_frac"),
            t.num(r, "ideal_miss_frac"),
        );
        let floor = (ideal - (1.0 - cache)).abs() <= 0.01;
        ensure(floor && (cache >= 1.0 || page > ideal), || {
            format!("at {cache:.2} cache the page cache misses {page:.3}, the ideal {ideal:.3}")
        })?;
    }
    let stall = t.column("ideal_fetch_stall_s");
    let shrinking = stall.windows(2).all(|w| w[0] >= w[1]);
    ensure(shrinking, || format!("ideal fetch stall {stall:.2?} s"))
}

/// Figure 4: throughput vs CPU cores per GPU, fully cached, DALI-CPU prep.
/// Claim owned by `tests/paper_claims.rs::dnns_need_three_to_twentyfour_cores_per_gpu`.
fn fig04() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let models = [
        ModelKind::ResNet18,
        ModelKind::AlexNet,
        ModelKind::ShuffleNetV2,
        ModelKind::ResNet50,
    ];
    let mut points = Vec::new();
    for cores in [1usize, 3, 6, 12, 24] {
        let server = ServerConfig::config_ssd_v100()
            .with_cpu_cores(cores * 8)
            .with_cache_fraction(dataset.total_bytes(), 1.1);
        for model in models {
            let loader = LoaderConfig::dali_shuffle(PrepBackend::DaliCpu);
            points.push((cores, job(&server, model, &dataset, loader)));
        }
    }
    let rates = models.map(|m| format!("{}_samples_per_s", m.name()));
    let mut t = FigureTable::new(&format!("cores_per_gpu {}", rates.join(" ")));
    for row in simulate(points).chunks(models.len()) {
        let mut numbers = vec![row[0].0 as f64];
        numbers.extend(row.iter().map(|(_, r)| r.steady_state().samples_per_sec()));
        t.row(&[], &numbers);
    }
    t
}

/// Figure 5: ResNet18 prep stalls with DALI's CPU vs GPU prep, fully cached,
/// on the 1080Ti and the V100 server.
fn fig05() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let mut points = Vec::new();
    for server in both_servers().into_iter().rev() {
        let server = server.with_cache_fraction(dataset.total_bytes(), 1.1);
        for backend in [PrepBackend::DaliCpu, PrepBackend::DaliGpu] {
            let loader = LoaderConfig::dali_shuffle(backend);
            let spec = job(&server, ModelKind::ResNet18, &dataset, loader);
            points.push(((server.name.clone(), backend), spec));
        }
    }
    let mut t = FigureTable::new("server prep_backend prep_stall_frac samples_per_s");
    for ((server, backend), report) in simulate(points) {
        let e = report.steady_state();
        t.row(
            &[server.as_str(), backend.name()],
            &[e.prep_stall_fraction(), e.samples_per_sec()],
        );
    }
    t
}

fn fig05_claim(t: &FigureTable) -> Result<(), String> {
    // 1080Ti, then V100.
    let stall = t.select("prep_stall_frac", "prep_backend", "dali-gpu");
    ensure(stall[0] < 0.05 && stall[1] >= 0.4, || {
        format!("prep stalls with GPU prep {stall:.3?} (1080Ti, V100)")
    })
}

/// Figure 6: prep stalls with the dataset fully cached (3 cores/GPU, best
/// DALI prep).  Claim owned by
/// `tests/paper_claims.rs::computationally_light_models_have_prep_stalls_even_when_fully_cached`.
fn fig06() -> FigureTable {
    let mut points = Vec::new();
    for model in ModelKind::paper_models() {
        let dataset = scaled(match model {
            ModelKind::SsdRes18 => DatasetSpec::openimages(),
            ModelKind::AudioM5 => DatasetSpec::fma(),
            _ => DatasetSpec::imagenet_1k(),
        });
        let server = server_ssd(&dataset, 1.1);
        let loader = LoaderConfig::dali_best(model);
        points.push((model, job(&server, model, &dataset, loader)));
    }
    let mut t = FigureTable::new("model prep_stall_frac samples_per_s");
    for (model, report) in simulate(points) {
        let e = report.steady_state();
        t.row(
            &[model.name()],
            &[e.prep_stall_fraction(), e.samples_per_sec()],
        );
    }
    t
}

/// Figure 8: the worked 4-item example (two slots, warmed with D and B),
/// then the same comparison over ImageNet-1k/32 at a 50 % cache.
fn fig08() -> FigureTable {
    let mut t = FigureTable::new("trace policy misses miss_frac");
    let mut row = |trace: &str, policy: PolicyKind, cache: &dyn Cache<u64>| {
        let stats = cache.stats();
        t.row(
            &[trace, format!("{policy:?}").as_str()],
            &[stats.misses as f64, stats.miss_ratio()],
        );
    };
    let mut lru = LruCache::new(2);
    let mut minio = MinIoCache::new(2);
    for item in [3u64, 1] {
        lru.access(item, 1);
        minio.access(item, 1);
    }
    for epoch in [[2u64, 1, 0, 3], [0, 3, 2, 1]] {
        let order: Vec<&str> = epoch
            .iter()
            .map(|&i| ["A", "B", "C", "D"][i as usize])
            .collect();
        let caches = [
            (PolicyKind::Lru, &mut lru as &mut dyn Cache<u64>),
            (PolicyKind::MinIo, &mut minio),
        ];
        for (policy, cache) in caches {
            cache.reset_stats();
            for item in epoch {
                cache.access(item, 1);
            }
            row(&order.join(" "), policy, cache);
        }
    }
    let spec = DatasetSpec::imagenet_1k().scaled(32);
    let sampler = EpochSampler::new(spec.num_items, 3);
    let trace = format!("{}, 50% cache", spec.name);
    for policy in [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::MinIo,
    ] {
        let mut cache = build_cache(policy, spec.cache_bytes_for_fraction(0.5));
        for epoch in 0..3u64 {
            cache.reset_stats();
            for item in sampler.permutation(epoch) {
                cache.access(item, spec.item_size(item));
            }
        }
        row(&trace, policy, cache.as_ref());
    }
    t
}

fn fig08_claim(t: &FigureTable) -> Result<(), String> {
    // The two example epochs, then the scaled-up trace.
    let misses = t.select("misses", "policy", "MinIo");
    let minio = t.select("miss_frac", "policy", "MinIo");
    let lru = t.select("miss_frac", "policy", "Lru");
    let thrash = lru.iter().zip(&minio).all(|(l, m)| l >= m) && lru[2] > minio[2];
    ensure(
        misses[..2] == [2.0, 2.0] && minio[2] <= 0.505 && thrash,
        || format!("MinIO misses {misses:?} (ratios {minio:.3?}) vs LRU ratios {lru:.3?}"),
    )
}

/// Figure 9(a): single-server training with DALI-seq, DALI-shuffle and
/// CoorDL on both server SKUs.  Claim owned by
/// `tests/paper_claims.rs::single_server_speedup_is_modest_and_never_a_slowdown`.
fn fig09a() -> FigureTable {
    let loaders = [
        LoaderConfig::dali_seq,
        LoaderConfig::dali_shuffle,
        LoaderConfig::coordl,
    ];
    let mut points = Vec::new();
    for server in both_servers() {
        for model in ModelKind::paper_models() {
            let (dataset, frac) = section5_workload(model);
            let server = server.with_cache_fraction(dataset.total_bytes(), frac);
            let prep = LoaderConfig::best_prep_for(model);
            for loader in loaders {
                let spec = job(&server, model, &dataset, loader(prep));
                points.push(((server.name.clone(), model), spec));
            }
        }
    }
    let mut t = FigureTable::new(
        "server model dali_seq_samples_per_s dali_shuffle_samples_per_s \
         coordl_samples_per_s speedup",
    );
    for row in simulate(points).chunks(3) {
        let [((server, model), seq), (_, shuffle), (_, coordl)] = row else {
            unreachable!("three loaders per model")
        };
        let rate = |r: &SimReport| r.steady_state().samples_per_sec();
        let speedup = coordl.speedup_over(shuffle);
        t.row(
            &[server.as_str(), model.name()],
            &[rate(seq), rate(shuffle), rate(coordl), speedup],
        );
    }
    t
}

/// Figure 9(b): one job across two servers (16 GPUs), partitioned caching
/// vs DALI.  Claim owned by
/// `tests/paper_claims.rs::distributed_training_on_hard_drives_sees_the_largest_wins`.
fn fig09b() -> FigureTable {
    let models = [
        ModelKind::AlexNet,
        ModelKind::ShuffleNetV2,
        ModelKind::ResNet18,
        ModelKind::ResNet50,
        ModelKind::AudioM5,
    ];
    let mut points = Vec::new();
    for server in both_servers().into_iter().rev() {
        for model in models {
            let (dataset, frac) = section5_workload(model);
            let server = server.with_cache_fraction(dataset.total_bytes(), frac);
            for loader in DALI_VS_COORDL {
                let spec = distributed(job(&server, model, &dataset, loader(model)), 2);
                points.push(((server.name.clone(), model), spec));
            }
        }
    }
    let mut t = FigureTable::new(
        "server model dali_samples_per_s coordl_samples_per_s speedup \
         dali_disk_gib_per_server coordl_disk_gib_per_server coordl_net_gbps",
    );
    for pair in simulate(points).chunks(2) {
        let [((server, model), dali), (_, coordl)] = pair else {
            unreachable!("DALI, then CoorDL")
        };
        let rates = [
            dali.steady_samples_per_sec(),
            coordl.steady_samples_per_sec(),
        ];
        let disk = [disk_gib_per_server(dali), disk_gib_per_server(coordl)];
        let (speedup, net) = (coordl.speedup_over(dali), coordl.avg_network_gbps(2));
        let numbers = [rates[0], rates[1], speedup, disk[0], disk[1], net];
        t.row(&[server.as_str(), model.name()], &numbers);
    }
    t
}

/// Figure 9(d): eight concurrent single-GPU HP-search jobs, coordinated prep
/// vs independent DALI pipelines.  Claim owned by
/// `tests/paper_claims.rs::hp_search_without_coordination_amplifies_reads_roughly_sevenfold`.
fn fig09d() -> FigureTable {
    let mut points = Vec::new();
    for server in both_servers() {
        for model in ModelKind::paper_models() {
            let (dataset, frac) = section5_workload(model);
            let server = server.with_cache_fraction(dataset.total_bytes(), frac);
            for loader in DALI_VS_COORDL {
                let spec = hp(job(&server, model, &dataset, loader(model)), 8);
                points.push(((server.name.clone(), model, dataset.total_bytes()), spec));
            }
        }
    }
    let mut t = FigureTable::new(
        "server model dali_samples_per_s_per_job coordl_samples_per_s_per_job speedup \
         dali_read_amp coordl_read_amp",
    );
    for pair in simulate(points).chunks(2) {
        let [((server, model, bytes), dali), (_, coordl)] = pair else {
            unreachable!("DALI, then CoorDL")
        };
        let rate = SimReport::steady_per_job_samples_per_sec;
        let amp = |r: &SimReport| r.read_amplification(*bytes, 1);
        let numbers = [
            rate(dali),
            rate(coordl),
            coordl.speedup_over(dali),
            amp(dali),
            amp(coordl),
        ];
        t.row(&[server.as_str(), model.name()], &numbers);
    }
    t
}

/// Figure 9(e): AlexNet HP-search shapes, 8×1 to 1×8 GPUs (OpenImages, 65 %
/// cached; DALI, then CoorDL at each width).
fn fig09e() -> FigureTable {
    let model = ModelKind::AlexNet;
    let dataset = scaled(DatasetSpec::openimages_extended());
    let server = server_ssd(&dataset, 0.65);
    let mut points = Vec::new();
    for jobs in HP_WIDTHS {
        for loader in DALI_VS_COORDL {
            points.push((jobs, hp(job(&server, model, &dataset, loader(model)), jobs)));
        }
    }
    let mut t = FigureTable::new(
        "jobs gpus_per_job dali_samples_per_s_per_job coordl_samples_per_s_per_job speedup",
    );
    for pair in simulate(points).chunks(2) {
        let [(jobs, dali), (_, coordl)] = pair else {
            unreachable!("DALI, then CoorDL")
        };
        let rate = SimReport::steady_per_job_samples_per_sec;
        let speedup = coordl.speedup_over(dali);
        let gpus = (8 / jobs) as f64;
        t.row(
            &[],
            &[*jobs as f64, gpus, rate(dali), rate(coordl), speedup],
        );
    }
    t
}

fn fig09e_claim(t: &FigureTable) -> Result<(), String> {
    // Rows run from 8 concurrent jobs down to one.
    let speedup = t.column("speedup");
    ensure(
        decreasing(&speedup) && speedup[speedup.len() - 1] > 1.0,
        || format!("speedups {speedup:.2?} at 8, 4, 2, 1 jobs"),
    )
}

/// Figure 10: a small MLP trained through a plain and through a coordinated
/// `Session` (same seeds), its per-epoch accuracy put on the simulator's
/// clock for ResNet50 on 2× Config-HDD-1080Ti at a 50 % cache.
fn fig10() -> FigureTable {
    let store = Arc::new(LabeledVectorStore::new(480, 8, 3, 99));
    let train = TrainConfig {
        hidden: 32,
        epochs: 5,
        seed: 21,
    };
    let config = SessionConfig {
        batch_size: 32,
        num_workers: 2,
        prefetch_depth: 4,
        seed: 4,
        cache_capacity_bytes: 8 << 20,
        staging_window: 8,
        take_timeout: Duration::from_secs(5),
        fetch_threads: 1,
        fetch_shards: 0,
    };
    let session = |mode| {
        let identity = PrepPipeline {
            name: "identity".into(),
            transforms: vec![],
        };
        Session::builder(Arc::clone(&store) as Arc<dyn DataSource>, config.clone())
            .mode(mode)
            .pipeline(ExecutablePipeline::new(identity, 1, 0))
            .build()
            .expect("valid fig10 session")
    };
    let baseline = train_through_loader(&session(Mode::Single), &store, &train);
    let group = session(Mode::Coordinated { jobs: 2 });
    let coordinated = train_through_coordinated_group(&group, &store, &train);

    let dataset = scaled(DatasetSpec::imagenet_1k());
    let model = ModelKind::ResNet50;
    let bytes = dataset.total_bytes();
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(bytes, 0.5);
    let points = DALI_VS_COORDL.map(|loader| {
        (
            (),
            distributed(job(&server, model, &dataset, loader(model)), 2),
        )
    });
    let secs: Vec<f64> = simulate(points.into())
        .iter()
        .map(|(_, r)| r.steady_epoch_seconds())
        .collect();
    let mut t = FigureTable::new("epoch accuracy coordl_accuracy dali_s coordl_s");
    for (b, c) in baseline.iter().zip(&coordinated[0]) {
        let epochs = (b.epoch + 1) as f64;
        t.row(
            &[],
            &[
                epochs,
                b.accuracy,
                c.accuracy,
                secs[0] * epochs,
                secs[1] * epochs,
            ],
        );
    }
    t
}

fn fig10_claim(t: &FigureTable) -> Result<(), String> {
    let (dali, coordl) = (t.column("accuracy"), t.column("coordl_accuracy"));
    let (dali_s, coordl_s) = (t.column("dali_s"), t.column("coordl_s"));
    let faster = dali_s.iter().zip(&coordl_s).all(|(d, c)| c < d);
    ensure(dali == coordl && faster, || {
        let ratio = dali_s[0] / coordl_s[0];
        format!("accuracy {dali:.3?} vs {coordl:.3?}; time-to-accuracy {ratio:.1}x")
    })
}

/// Figure 11: disk-read rate across a steady-state epoch in ten slices
/// (ResNet18, OpenImages, Config-SSD-V100, 65 % cache).
fn fig11() -> FigureTable {
    const SLICES: usize = 10;
    let dataset = scaled(DatasetSpec::openimages_extended());
    let server = server_ssd(&dataset, 0.65);
    let points = [LoaderConfig::dali_shuffle, LoaderConfig::coordl].map(|loader| {
        let loader = loader(PrepBackend::DaliGpu);
        ((), job(&server, ModelKind::ResNet18, &dataset, loader))
    });
    let reports = simulate(points.into());
    let epochs: Vec<_> = reports.iter().map(|(_, r)| &r.single().epochs[1]).collect();
    // MB/s per slice of the epoch.
    let profile = |e: &pipeline::EpochMetrics| {
        let horizon = e.epoch_seconds();
        let mut bytes = [0.0f64; SLICES];
        for &(at, b) in &e.io_timeline {
            bytes[((at / horizon) * SLICES as f64).min(SLICES as f64 - 1.0) as usize] += b;
        }
        bytes.map(|b| b / (horizon / SLICES as f64) / 1e6)
    };
    let (dali, coordl) = (profile(epochs[0]), profile(epochs[1]));
    let mut t = FigureTable::new("slice_start_frac dali_mb_per_s coordl_mb_per_s");
    for i in 0..SLICES {
        t.row(&[], &[i as f64 / SLICES as f64, dali[i], coordl[i]]);
    }
    for (loader, e) in ["dali", "coordl"].into_iter().zip(epochs) {
        let gib = e.bytes_from_disk as f64 / (1u64 << 30) as f64;
        t.summary
            .push((format!("{loader}_epoch_s"), num(e.epoch_seconds())));
        t.summary.push((format!("{loader}_disk_gib"), num(gib)));
    }
    t
}

fn fig11_claim(t: &FigureTable) -> Result<(), String> {
    let spread = |column| {
        let rates = t.column(column);
        let max = rates.iter().copied().fold(f64::MIN, f64::max);
        max / rates.iter().copied().fold(f64::MAX, f64::min)
    };
    let (dali, coordl) = (spread("dali_mb_per_s"), spread("coordl_mb_per_s"));
    let s = |k| t.summary_num(k);
    let (disk, secs) = (
        [s("dali_disk_gib"), s("coordl_disk_gib")],
        [s("dali_epoch_s"), s("coordl_epoch_s")],
    );
    ensure(
        disk[1] < disk[0] && secs[1] < secs[0] && coordl < dali,
        || {
            format!(
            "DALI, CoorDL: {disk:.1?} GiB in {secs:.1?} s, max/min slice rate {dali:.2}, {coordl:.2}"
        )
        },
    )
}

/// Figure 12 (app. B.1): ResNet18 epoch time vs vCPUs per GPU, fully cached
/// (DALI-CPU prep).
fn fig12() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let server =
        ServerConfig::config_highcpu_v100().with_cache_fraction(dataset.total_bytes(), 1.1);
    let points = VCPUS_PER_GPU.map(|vcpus| {
        let cores = vcpu_effective_cores(vcpus).round().max(1.0) as usize;
        let loader = LoaderConfig::dali_shuffle(PrepBackend::DaliCpu);
        let server = server.with_cpu_cores(cores);
        (vcpus, job(&server, ModelKind::ResNet18, &dataset, loader))
    });
    let mut t = FigureTable::new("vcpus_per_gpu effective_cores_per_gpu epoch_s prep_stall_frac");
    for (vcpus, report) in simulate(points.into()) {
        let e = report.steady_state();
        let cores = vcpu_effective_cores(vcpus) / 8.0;
        t.row(
            &[],
            &[
                vcpus as f64,
                cores,
                e.epoch_seconds(),
                e.prep_stall_fraction(),
            ],
        );
    }
    t
}

fn fig12_claim(t: &FigureTable) -> Result<(), String> {
    // Rows at 2, 3, 4 (the physical cores), 6 and 8 vCPUs per GPU.
    let (epoch, cores) = (t.column("epoch_s"), t.column("effective_cores_per_gpu"));
    let (gain, stall) = (cores[4] / cores[2], t.num(4, "prep_stall_frac"));
    ensure(decreasing(&epoch) && gain <= 1.35 && stall >= 0.3, || {
        format!("epoch {epoch:.1?} s; 8 vCPUs/GPU = {gain:.2}x 4, {stall:.3} prep stall")
    })
}

/// Figure 13 (app. B.2): epoch time with the native PyTorch loader vs DALI's
/// CPU and GPU prep, fully cached.
fn fig13() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let server = server_ssd(&dataset, 1.1);
    let mut points = Vec::new();
    for model in ModelKind::image_models() {
        for loader in [
            LoaderConfig::pytorch_dl(),
            LoaderConfig::dali_shuffle(PrepBackend::DaliCpu),
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        ] {
            points.push((model, job(&server, model, &dataset, loader)));
        }
    }
    let mut t = FigureTable::new("model best pytorch_s dali_cpu_s dali_gpu_s");
    for row in simulate(points).chunks(3) {
        let secs: Vec<f64> = row
            .iter()
            .map(|(_, r)| r.steady_state().epoch_seconds())
            .collect();
        let best = if secs[1] <= secs[2] {
            "DALI-CPU"
        } else {
            "DALI-GPU"
        };
        t.row(&[row[0].0.name(), best], &secs);
    }
    t
}

fn fig13_claim(t: &FigureTable) -> Result<(), String> {
    for r in 0..t.rows.len() {
        let model = t.cell(r, "model").as_str().unwrap_or_default();
        let (native, cpu) = (t.num(r, "pytorch_s"), t.num(r, "dali_cpu_s"));
        let gpu = t.num(r, "dali_gpu_s");
        ensure(
            cpu.min(gpu) < native && (gpu < cpu) != HEAVY.contains(&model),
            || {
                format!(
                    "{model}: PyTorch-DL {native:.1} s, DALI-CPU {cpu:.1} s, DALI-GPU {gpu:.1} s"
                )
            },
        )?;
    }
    Ok(())
}

/// Figure 14 (app. B.3): MobileNetV2 epoch time vs per-GPU batch, fully
/// cached.  Claim owned by
/// `tests/paper_claims.rs::faster_gpus_make_data_stalls_worse_not_better`.
fn fig14() -> FigureTable {
    let model = ModelKind::MobileNetV2;
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let server = server_ssd(&dataset, 1.1);
    let points = [128usize, 256, 512, 1024].map(|batch| {
        let mut spec = job(&server, model, &dataset, LoaderConfig::dali_best(model));
        spec.jobs[0] = spec.jobs[0].with_batch(batch);
        (batch, spec)
    });
    let mut t = FigureTable::new("batch_per_gpu compute_s epoch_s prep_stall_frac");
    for (batch, report) in simulate(points.into()) {
        let e = report.steady_state();
        let compute = e.breakdown.compute_time.as_secs();
        t.row(
            &[],
            &[
                batch as f64,
                compute,
                e.epoch_seconds(),
                e.prep_stall_fraction(),
            ],
        );
    }
    t
}

/// DS-Analyzer's what-if model of AlexNet on Config-SSD-V100 (ImageNet-1k,
/// probed with DALI at a 35 % cache), its server, and the CoorDL job whose
/// speed it predicts.
fn alexnet_whatif() -> (WhatIfAnalysis, ServerConfig, JobSpec) {
    let model = ModelKind::AlexNet;
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let server = server_ssd(&dataset, 0.35);
    let probe = JobSpec::new(model, dataset, 8, LoaderConfig::dali_best(model));
    let whatif = WhatIfAnalysis::new(ProfiledRates::measure(&server, &probe));
    (
        whatif,
        server,
        probe.with_loader(LoaderConfig::coordl_best(model)),
    )
}

/// Figure 16 (app. C.2): predicted vs simulated speed from 0 to 100 %
/// cache, and the recommended cache size.  Claim owned by
/// `tests/paper_claims.rs::whatif_bottleneck_crossover_matches_figure16`.
fn fig16() -> FigureTable {
    let (whatif, server, job) = alexnet_whatif();
    let fractions: Vec<f64> = (0..=100)
        .step_by(10)
        .map(|pct| pct as f64 / 100.0)
        .collect();
    let mut t =
        FigureTable::new("bottleneck cache_frac predicted_samples_per_s empirical_samples_per_s");
    for p in whatif.validate_speed_curve(&server, &job, &fractions, EPOCHS, &SweepRunner::new()) {
        let bottleneck = match p.bottleneck {
            Bottleneck::Io => "I/O",
            Bottleneck::Cpu => "CPU",
            Bottleneck::Gpu => "GPU",
        };
        t.row(&[bottleneck], &[p.cache_fraction, p.predicted, p.empirical]);
    }
    let recommended = num(whatif.recommended_cache_fraction());
    t.summary
        .push(("recommended_cache_frac".into(), recommended));
    t
}

/// Figure 17 (app. D.1): 8-job HP search on ImageNet-22k (scaled 256×, 35 %
/// cached).
fn fig17() -> FigureTable {
    let dataset = DatasetSpec::imagenet_22k().scaled(256);
    hp_pairs(&server_ssd(&dataset, 0.35), &dataset, &[])
}

/// The 8-job HP-search comparison of every image model on `server`: DALI
/// vs coordinated prep per job, with the paper's speedups where given.
fn hp_pairs(server: &ServerConfig, dataset: &DatasetSpec, paper: &[f64]) -> FigureTable {
    let mut points = Vec::new();
    for model in ModelKind::image_models() {
        for loader in DALI_VS_COORDL {
            points.push((model, hp(job(server, model, dataset, loader(model)), 8)));
        }
    }
    let mut t = FigureTable::new(&format!(
        "model dali_samples_per_s_per_job coordl_samples_per_s_per_job speedup {}",
        if paper.is_empty() {
            ""
        } else {
            "paper_speedup"
        }
    ));
    for (i, pair) in simulate(points).chunks(2).enumerate() {
        let [(model, dali), (_, coordl)] = pair else {
            unreachable!("DALI, then CoorDL")
        };
        let rate = SimReport::steady_per_job_samples_per_sec;
        let mut numbers = vec![rate(dali), rate(coordl), coordl.speedup_over(dali)];
        numbers.extend(paper.get(i));
        t.row(&[model.name()], &numbers);
    }
    t
}

/// Speedups ≥ 1 and every [`LIGHT`] model ahead of every [`HEAVY`] one.
fn lighter_models_gain_most(t: &FigureTable) -> Result<(), String> {
    let all = t.column("speedup");
    let (light, heavy) = light_and_heavy(t, "speedup");
    let ordered = light.iter().all(|l| heavy.iter().all(|h| l > h));
    ensure(all.iter().all(|&s| s >= 1.0) && ordered, || {
        format!("speedups {all:.2?}")
    })
}

/// Figure 18 (app. D.3): ResNet50 across 1–4 Config-HDD-1080Ti servers
/// (OpenImages, 65 % cached, 128 samples per GPU; DALI, then CoorDL at each
/// server count).
fn fig18() -> FigureTable {
    let model = ModelKind::ResNet50;
    let dataset = scaled(DatasetSpec::openimages_extended());
    let bytes = dataset.total_bytes();
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(bytes, 0.65);
    let mut points = Vec::new();
    for servers in SCALABILITY_SERVERS {
        for loader in DALI_VS_COORDL {
            // Keep several iterations per epoch on the scaled dataset even
            // with 4 servers' worth of GPUs.
            let mut spec = job(&server, model, &dataset, loader(model));
            spec.jobs[0] = spec.jobs[0].with_batch(128);
            points.push((servers, distributed(spec, servers)));
        }
    }
    let mut t = FigureTable::new(
        "servers dali_samples_per_s coordl_samples_per_s speedup \
         dali_disk_gib_per_server coordl_disk_gib_per_server",
    );
    for pair in simulate(points).chunks(2) {
        let [(servers, dali), (_, coordl)] = pair else {
            unreachable!("DALI, then CoorDL")
        };
        let rates = [
            dali.steady_samples_per_sec(),
            coordl.steady_samples_per_sec(),
        ];
        let disk = [disk_gib_per_server(dali), disk_gib_per_server(coordl)];
        let speedup = coordl.speedup_over(dali);
        t.row(
            &[],
            &[
                *servers as f64,
                rates[0],
                rates[1],
                speedup,
                disk[0],
                disk[1],
            ],
        );
    }
    t
}

fn fig18_claim(t: &FigureTable) -> Result<(), String> {
    let (rate, disk) = (
        t.column("coordl_samples_per_s"),
        t.column("coordl_disk_gib_per_server"),
    );
    let dali_disk = t.column("dali_disk_gib_per_server");
    let wins = t.column("speedup").iter().all(|&s| s > 1.0);
    let zero_disk = disk[1..].iter().all(|&d| d == 0.0);
    ensure(
        wins && zero_disk && increasing(&rate) && decreasing(&dali_disk),
        || {
            format!(
                "CoorDL {rate:.0?} samples/s, {disk:.2?} GiB; DALI {dali_disk:.2?} GiB per server"
            )
        },
    )
}

/// Beyond the paper: heterogeneous ResNet18 (ImageNet-1k) and AlexNet
/// (OpenImages) jobs, 4 GPUs each, sharing one Config-SSD-V100 whose cache
/// holds 25/50/75 % of their combined working set (DALI, then CoorDL).
fn mixed_cluster() -> FigureTable {
    let image = scaled(DatasetSpec::imagenet_1k());
    let open = scaled(DatasetSpec::openimages_extended());
    let working_set = (image.total_bytes() + open.total_bytes()) as f64;
    let mut points = Vec::new();
    for pct in MIXED_CACHE_PERCENTS {
        let frac = pct as f64 / 100.0;
        let server = ServerConfig::config_ssd_v100().with_cache_bytes((working_set * frac) as u64);
        for loader in DALI_VS_COORDL {
            let jobs = [(ModelKind::ResNet18, &image), (ModelKind::AlexNet, &open)]
                .map(|(model, dataset)| JobSpec::new(model, dataset.clone(), 4, loader(model)));
            let spec = ExperimentSpec {
                server: server.clone(),
                jobs: jobs.into(),
                scenario: Scenario::MixedCluster,
                cache: CacheSpec::DramOnly,
                epochs: EPOCHS,
            };
            points.push((frac, spec));
        }
    }
    let mut t = FigureTable::new("cache_frac dali_samples_per_s coordl_samples_per_s speedup");
    for pair in simulate(points).chunks(2) {
        let [(frac, dali), (_, coordl)] = pair else {
            unreachable!("DALI, then CoorDL")
        };
        let rates = [dali, coordl].map(SimReport::steady_samples_per_sec);
        t.row(&[], &[*frac, rates[0], rates[1], coordl.speedup_over(dali)]);
    }
    t
}

fn mixed_cluster_claim(t: &FigureTable) -> Result<(), String> {
    let (speedup, coordl) = (t.column("speedup"), t.column("coordl_samples_per_s"));
    let grows = coordl.windows(2).all(|w| w[0] <= w[1]);
    ensure(speedup.iter().all(|&s| s >= 1.0) && grows, || {
        format!("speedups {speedup:.2?}, CoorDL {coordl:.0?} samples/s at 25/50/75 % cache")
    })
}

/// Figures 19/20 and §5.5: CPU time spent on prep (ResNet18, OpenImages,
/// 65 % cache), network use of 2-server ResNet50 training, and the staging
/// memory of 8 coordinated jobs on the runtime.
fn fig19() -> FigureTable {
    let dataset = scaled(DatasetSpec::openimages_extended());
    let server = server_ssd(&dataset, 0.65);
    let (r18, r50) = (ModelKind::ResNet18, ModelKind::ResNet50);
    let gpu_prep = PrepBackend::DaliGpu;
    let points = vec![
        (
            "DALI-shuffle",
            job(&server, r18, &dataset, LoaderConfig::dali_shuffle(gpu_prep)),
        ),
        (
            "CoorDL",
            job(&server, r18, &dataset, LoaderConfig::coordl(gpu_prep)),
        ),
        (
            "network",
            distributed(
                job(&server, r50, &dataset, LoaderConfig::coordl_best(r50)),
                2,
            ),
        ),
    ];
    let mut reports = simulate(points);
    let (_, network) = reports.pop().expect("the network point");
    let cost = PrepCostModel::for_pipeline(&PrepPipeline::image_classification(), gpu_prep);
    let cores = server.cpu_cores as f64;
    let mut t = FigureTable::new("loader epoch_s prep_work_s cpu_busy_frac fetch_stall_frac");
    for (loader, report) in &reports {
        let e = report.steady_state();
        let raw = e.bytes_from_cache + e.bytes_from_disk + e.bytes_from_remote;
        let work = cost.prep_seconds(raw, cores, 8.0) * cores;
        let busy = (work / (e.epoch_seconds() * cores)).min(1.0);
        t.row(
            &[loader],
            &[e.epoch_seconds(), work, busy, e.fetch_stall_fraction()],
        );
    }
    t.summary
        .push(("coordl_net_gbps".into(), num(network.avg_network_gbps(2))));

    // Staging memory: 8 coordinated jobs draining one epoch on real threads.
    let (batch_size, window, multiplier) = (64, 4, 4);
    let spec = DatasetSpec::new("staging-probe", 16_384, 4096, 0.2, multiplier as f64);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 11));
    let config = SessionConfig {
        batch_size,
        staging_window: window,
        seed: 3,
        cache_capacity_bytes: 256 << 20,
        take_timeout: Duration::from_secs(10),
        ..SessionConfig::default()
    };
    let pipeline = ExecutablePipeline::new(PrepPipeline::image_classification(), multiplier, 1);
    let session = Session::builder(Arc::clone(&store), config)
        .mode(Mode::Coordinated { jobs: 8 })
        .pipeline(pipeline)
        .build()
        .expect("valid fig19 session");
    let run = session.epoch(0);
    let consumers: Vec<_> = (0..8)
        .map(|job| {
            let stream = run.stream(job);
            std::thread::spawn(move || stream.for_each(|b| drop(b.expect("coordinated batch"))))
        })
        .collect();
    for consumer in consumers {
        consumer.join().expect("consumer");
    }
    let staging = run.staging().expect("coordinated mode").stats();
    let items = (0..store.len()).map(|i| store.item_bytes(i));
    let (total, largest) = items.fold((0, 0), |(sum, max), b| (sum + b, max.max(b)));
    // A prepared sample is at most its decoded size: raw × multiplier.
    let bound = (window * batch_size * multiplier) as u64 * largest;
    t.summary.extend([
        ("staging_dataset_bytes".into(), int(total)),
        ("staging_bound_bytes".into(), int(bound)),
        ("staging_published_batches".into(), int(staging.published)),
    ]);
    // Which batches share the window depends on how the consumer threads
    // interleave, so the peak moves by a few percent run to run.
    t.observed
        .push(("staging_peak_bytes".into(), staging.peak_bytes as f64));
    t
}

fn fig19_claim(t: &FigureTable) -> Result<(), String> {
    let (busy, stall) = (t.column("cpu_busy_frac"), t.column("fetch_stall_frac"));
    let gbps = t.summary_num("coordl_net_gbps");
    let bound = t.summary_num("staging_bound_bytes");
    let peak = t.observation("staging_peak_bytes").unwrap_or(f64::INFINITY);
    let bounded = peak <= bound && bound < t.summary_num("staging_dataset_bytes");
    ensure(
        busy[1] > busy[0] && stall[1] < stall[0] && gbps < 10.0 && bounded,
        || {
            format!(
                "CPU busy {busy:.3?}, fetch stall {stall:.3?} (DALI, CoorDL); {gbps:.1} Gbps; \
             staging peak {peak} of a {bound} byte window"
            )
        },
    )
}

/// Figure 21 (app. E): the native PyTorch loader with and without a MinIO
/// cache (Py-CoorDL), ResNet18 on ImageNet-1k, on HDD and SSD servers.
fn fig21() -> FigureTable {
    let model = ModelKind::ResNet18;
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let py_coordl = LoaderConfig {
        cache_policy: PolicyKind::MinIo,
        kind: LoaderKind::CoorDl,
        ..LoaderConfig::pytorch_dl()
    };
    let mut points = Vec::new();
    for server in both_servers().into_iter().rev() {
        for pct in [25u32, 50, 75] {
            let frac = pct as f64 / 100.0;
            let server = server.with_cache_fraction(dataset.total_bytes(), frac);
            for loader in [LoaderConfig::pytorch_dl(), py_coordl.clone()] {
                points.push((
                    (server.name.clone(), frac),
                    job(&server, model, &dataset, loader),
                ));
            }
        }
    }
    let mut t = FigureTable::new("server cache_frac pytorch_s pycoordl_s speedup");
    for pair in simulate(points).chunks(2) {
        let [((server, frac), native), (_, pycoordl)] = pair else {
            unreachable!("PyTorch-DL, then Py-CoorDL")
        };
        let secs = |r: &SimReport| r.steady_state().epoch_seconds();
        let speedup = pycoordl.speedup_over(native);
        t.row(
            &[server.as_str()],
            &[*frac, secs(native), secs(pycoordl), speedup],
        );
    }
    t
}

fn fig21_claim(t: &FigureTable) -> Result<(), String> {
    let hdd = t.select("speedup", "server", "Config-HDD-1080Ti");
    let ssd = t.select("speedup", "server", "Config-SSD-V100");
    let prep_bound = ssd.iter().all(|s| (0.99..1.1).contains(s));
    let hdd_wins = hdd.iter().zip(&ssd).all(|(h, s)| h > s);
    ensure(increasing(&hdd) && hdd_wins && prep_bound, || {
        format!("HDD {hdd:.2?}, SSD {ssd:.2?} at 25/50/75 % cache")
    })
}

/// The native PyTorch loader with coordinated prep bolted on (appendix E's
/// Py-CoorDL without MinIO).
fn shared_prep() -> LoaderConfig {
    LoaderConfig {
        coordinated_prep: true,
        ..LoaderConfig::pytorch_dl()
    }
}

/// Figure 22 (app. E.2.2): coordinated prep inside the native PyTorch
/// loader, 4 and 8 concurrent ResNet18 jobs, fully cached.
fn fig22() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let server = server_ssd(&dataset, 1.1);
    let mut points = Vec::new();
    for jobs in [4usize, 8] {
        for loader in [LoaderConfig::pytorch_dl(), shared_prep()] {
            let spec = job(&server, ModelKind::ResNet18, &dataset, loader);
            points.push((jobs, hp(spec, jobs)));
        }
    }
    let mut t = FigureTable::new(
        "jobs pytorch_samples_per_s_per_job pycoordl_samples_per_s_per_job speedup",
    );
    for pair in simulate(points).chunks(2) {
        let [(jobs, native), (_, pycoordl)] = pair else {
            unreachable!("PyTorch-DL, then Py-CoorDL")
        };
        let rate = SimReport::steady_per_job_samples_per_sec;
        let speedup = pycoordl.speedup_over(native);
        t.row(&[], &[*jobs as f64, rate(native), rate(pycoordl), speedup]);
    }
    t
}

fn fig22_claim(t: &FigureTable) -> Result<(), String> {
    let speedup = t.column("speedup");
    ensure(speedup[0] > 1.0 && increasing(&speedup), || {
        format!("speedups {speedup:.2?} at 4 and 8 jobs")
    })
}

/// Figure 23 (app. E.2.3): an 8-trial HP search with the native loader,
/// adding coordinated prep and then MinIO (ResNet18, 75 % cache).
fn fig23() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let full = LoaderConfig {
        cache_policy: PolicyKind::MinIo,
        ..shared_prep()
    };
    let configurations = [
        ("PyTorch-DL", LoaderConfig::pytorch_dl()),
        ("+ coordinated prep", shared_prep()),
        ("Py-CoorDL (coord prep + MinIO)", full),
    ];
    let mut points = Vec::new();
    for server in both_servers().into_iter().rev() {
        let server = server.with_cache_fraction(dataset.total_bytes(), 0.75);
        for (name, loader) in &configurations {
            let spec = hp(
                job(&server, ModelKind::ResNet18, &dataset, loader.clone()),
                8,
            );
            points.push(((server.name.clone(), *name), spec));
        }
    }
    let mut t = FigureTable::new("server configuration search_s speedup disk_gb_per_epoch");
    for search in simulate(points).chunks(3) {
        let baseline = search[0].1.steady_epoch_seconds();
        for ((server, name), report) in search {
            let secs = report.steady_epoch_seconds();
            let disk = report.disk_bytes_per_epoch[1] as f64 / 1e9;
            t.row(&[server.as_str(), name], &[secs, baseline / secs, disk]);
        }
    }
    t
}

fn fig23_claim(t: &FigureTable) -> Result<(), String> {
    let hdd = t.select("speedup", "server", "Config-HDD-1080Ti");
    let ssd = t.select("speedup", "server", "Config-SSD-V100");
    let disk = t.column("disk_gb_per_epoch");
    let less_io = disk.chunks(3).all(decreasing);
    ensure(
        increasing(&hdd) && ssd[1] >= 0.8 * ssd[2] && less_io,
        || format!("speedups HDD {hdd:.2?}, SSD {ssd:.2?}; {disk:.1?} GB per epoch"),
    )
}

/// Table 3: the TensorFlow/TFRecord pipeline — an 8-GPU job's share of the
/// dataset read from storage, and 8 HP jobs' disk reads (ResNet18).
fn tab03() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let mut points = Vec::new();
    for pct in [50u32, 35, 25] {
        let frac = pct as f64 / 100.0;
        let server = server_ssd(&dataset, frac);
        let training = job(
            &server,
            ModelKind::ResNet18,
            &dataset,
            LoaderConfig::tfrecord(),
        );
        points.push((frac, training.clone()));
        points.push((frac, hp(training, 8)));
    }
    let bytes = dataset.total_bytes();
    let mut t = FigureTable::new("cache_frac miss_frac hp_disk_gb hp_read_amp");
    for pair in simulate(points).chunks(2) {
        let [(frac, training), (_, search)] = pair else {
            unreachable!("8-GPU training, then the HP search")
        };
        // TFRecord reads whole ~150 MB chunks: the meaningful miss rate is
        // the share of the dataset read from storage, not per-sample hits.
        let miss = training.steady_state().bytes_from_disk as f64 / bytes as f64;
        let disk = search.disk_bytes_per_epoch[1] as f64 / 1e9;
        t.row(
            &[],
            &[*frac, miss, disk, search.read_amplification(bytes, 1)],
        );
    }
    t
}

fn tab03_claim(t: &FigureTable) -> Result<(), String> {
    let (miss, amp) = (t.column("miss_frac"), t.column("hp_read_amp"));
    let amplified = amp.iter().all(|a| (6.0..=8.0).contains(a));
    ensure(miss.iter().all(|&m| m >= 0.9) && amplified, || {
        format!("misses {miss:.3?}, read amplification {amp:.2?} at 50/35/25 % cache")
    })
}

/// Table 5: DS-Analyzer's predicted vs simulated speed at 25/35/50 % cache.
/// Claim owned by
/// `tests/paper_claims.rs::dsanalyzer_predictions_match_simulation_within_a_few_percent`.
fn tab05() -> FigureTable {
    let (whatif, server, job) = alexnet_whatif();
    let mut t =
        FigureTable::new("cache_frac predicted_samples_per_s empirical_samples_per_s error_frac");
    let fractions = [0.25, 0.35, 0.5];
    for p in whatif.validate_speed_curve(&server, &job, &fractions, EPOCHS, &SweepRunner::new()) {
        let error = (p.predicted - p.empirical).abs() / p.empirical;
        t.row(&[], &[p.cache_fraction, p.predicted, p.empirical, error]);
    }
    t
}

/// Table 6: cache misses and disk I/O of DALI-seq, DALI-shuffle and CoorDL
/// (ShuffleNetV2, OpenImages, 65 % cache); disk I/O scaled back up by
/// [`SCALE`] to full-dataset terms.
fn tab06() -> FigureTable {
    let model = ModelKind::ShuffleNetV2;
    let dataset = scaled(DatasetSpec::openimages_extended());
    let server = server_ssd(&dataset, 0.65);
    let loaders = [
        (LoaderConfig::dali_seq(PrepBackend::DaliGpu), [0.66, 422.0]),
        (
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
            [0.53, 340.0],
        ),
        (LoaderConfig::coordl(PrepBackend::DaliGpu), [0.35, 225.0]),
    ];
    let points = loaders
        .map(|(loader, paper)| ((loader.kind, paper), job(&server, model, &dataset, loader)));
    let mut t =
        FigureTable::new("loader miss_frac disk_gb_per_epoch paper_miss_frac paper_disk_gb");
    for ((kind, paper), report) in simulate(points.into()) {
        let e = report.steady_state();
        let disk = (e.bytes_from_disk * SCALE) as f64 / 1e9;
        t.row(&[kind.name()], &[e.miss_ratio(), disk, paper[0], paper[1]]);
    }
    t
}

fn tab06_claim(t: &FigureTable) -> Result<(), String> {
    // DALI-seq, DALI-shuffle, CoorDL.
    let (miss, disk) = (t.column("miss_frac"), t.column("disk_gb_per_epoch"));
    ensure(
        decreasing(&miss) && decreasing(&disk) && (miss[2] - 0.35).abs() <= 0.005,
        || format!("misses {miss:.3?}, disk {disk:.0?} GB per epoch"),
    )
}

/// Table 7: 8-job HP search with ImageNet-1k fully cached — coordinated
/// prep alone.
fn tab07() -> FigureTable {
    let dataset = scaled(DatasetSpec::imagenet_1k());
    let paper = [1.81, 1.87, 1.53, 1.50, 1.35, 1.21, 1.22];
    hp_pairs(&server_ssd(&dataset, 1.1), &dataset, &paper)
}

fn tab07_claim(t: &FigureTable) -> Result<(), String> {
    lighter_models_gain_most(t)?;
    // The paper's largest win (AlexNet) is the largest here too.
    let argmax = |v: Vec<f64>| (0..v.len()).fold(0, |m, i| if v[i] > v[m] { i } else { m });
    let (ours, paper) = (
        argmax(t.column("speedup")),
        argmax(t.column("paper_speedup")),
    );
    ensure(ours == paper, || {
        format!("largest speedup in row {ours}, the paper's in {paper}")
    })
}

/// One registry row per `id: "paper" [=> "headline", claim_check];`.
macro_rules! figures {
    ($($id:ident: $paper:literal $(=> $headline:literal, $check:ident)?;)*) => {
        /// The registry, one row per artifact, in id order.
        pub static FIGURES: [Figure; 37] = [$(Figure {
            id: stringify!($id),
            paper: $paper,
            claim: figures!(@claim $($headline, $check)?),
            run: $id,
        }),*];
    };
    (@claim) => { None };
    (@claim $headline:literal, $check:ident) => {
        Some(Claim { headline: $headline, check: $check })
    };
}

figures! {
    abl: "§6 ablation: faster storage vs CoorDL (ResNet18/50, OpenImages, 65 % cached)"
        => "faster storage masks fetch stalls but leaves prep stalls; \
            CoorDL on a SATA SSD nearly matches DALI on NVMe", abl_claim;
    chaos: "§5.2 runtime: a partitioned cluster under a seeded kill/leave/rejoin schedule \
            vs its fault-free twin"
        => "partitioned caching survives churn: a healthy prefix, every sample exactly \
            once, no shard lost, and the hit ratio won back", chaos_claim;
    fetch_sweep: "§3/§5 runtime: the fetch-bound Session over 1, 2 and 4 fetch threads \
                  (8 cache shards)"
        => "parallel fetch changes when items are read, never which: one stream and one \
            set of counters at every thread count", fetch_sweep_claim;
    fig01: "Figure 1: ResNet18 pipeline component rates (8xV100, 24 cores, 35 % cached)"
        => "15 / 530 / 802 MB/s fetch, 735 MB/s CPU prep, 1062 MB/s with DALI-GPU, \
            against 2283 MB/s of GPU demand", fig01_claim;
    fig02: "Figure 2: fetch stalls with 35 % of the dataset cached (DALI, Config-SSD-V100)";
    fig03: "Figure 3: ResNet18 epoch-time split vs cache size, page cache vs ideal (MinIO)"
        => "at 35 % cache the page cache misses ~85 % of the dataset where the ideal \
            cache misses only its 65 % capacity floor", fig03_claim;
    fig04: "Figure 4: throughput vs CPU cores per GPU (fully cached, DALI-CPU)";
    fig05: "Figure 5: ResNet18 prep stalls with DALI CPU vs GPU prep on 1080Ti and V100"
        => "GPU prep removes the prep stall on 1080Ti; V100 still sees ~50 % prep stalls",
        fig05_claim;
    fig06: "Figure 6: prep stalls with the dataset fully cached (3 cores/GPU)";
    fig08: "Figure 8: MinIO vs page cache, the 4-item example and at dataset scale"
        => "MinIO incurs only capacity misses; the page cache loses ~20 % of the dataset \
            to thrashing", fig08_claim;
    fig09a: "Figure 9(a): single-server training, DALI-seq / DALI-shuffle / CoorDL";
    fig09b: "Figure 9(b): 2-server distributed training, partitioned caching vs DALI";
    fig09d: "Figure 9(d): 8-job HP search, coordinated prep vs DALI";
    fig09e: "Figure 9(e): AlexNet HP-search shapes 8x1 .. 1x8 GPUs (Config-SSD-V100)"
        => "one job gains from MinIO alone; the gain grows with the number of concurrent \
            jobs", fig09e_claim;
    fig10: "Figure 10: accuracy vs wall clock (MLP through Session; ResNet50 on 2x \
            Config-HDD-1080Ti)"
        => "the same accuracy trajectory in 4x less time", fig10_claim;
    fig11: "Figure 11: disk I/O across a steady-state epoch (ResNet18, OpenImages, SSD, \
            65 % cache)"
        => "DALI saturates the disk for most of the epoch; CoorDL's I/O is lower and \
            uniform and its epoch ends sooner", fig11_claim;
    fig12: "Figure 12 (app. B.1): ResNet18 epoch time vs vCPUs per GPU (fully cached)"
        => "hyper-threads add ~30 %; 8 vCPUs per GPU still leave ~37 % prep stalls",
        fig12_claim;
    fig13: "Figure 13 (app. B.2): epoch time with PyTorch-DL vs DALI-CPU vs DALI-GPU \
            (fully cached)"
        => "DALI beats the native loader (~2.2x faster prep); GPU prep wins for light \
            models and loses for ResNet50/VGG11", fig13_claim;
    fig14: "Figure 14 (app. B.3): MobileNetV2 epoch time vs per-GPU batch size (fully cached)";
    fig16: "Figure 16 (app. C.2): DS-Analyzer predicted vs empirical speed across cache \
            sizes (AlexNet)";
    fig17: "Figure 17 (app. D.1): 8-job HP search on ImageNet-22k (35 % cached)"
        => "up to 2.5x, lighter models gaining most", lighter_models_gain_most;
    fig18: "Figure 18 (app. D.3): ResNet50 across 1-4 Config-HDD-1080Ti servers"
        => "CoorDL scales with GPUs and reads nothing from disk from 2 servers on; DALI \
            stays I/O bound", fig18_claim;
    fig19: "Figures 19/20 and §5.5: CPU, network and staging memory (ResNet18/50, \
            OpenImages)"
        => "CPU time goes to prep instead of waiting; 5.7 Gbps of a 40 Gbps link; staging \
            memory is a bounded window", fig19_claim;
    fig21: "Figure 21 (app. E): MinIO inside the native PyTorch loader (ResNet18, \
            ImageNet-1k)"
        => "2.1-3.3x on HDDs, ~1.07x on SSDs where the native loader is prep-bound",
        fig21_claim;
    fig22: "Figure 22 (app. E.2.2): coordinated prep inside the native PyTorch loader \
            (fully cached)"
        => "the prep stall grows with the job count and shared prep removes it: 1.8x at \
            8 jobs", fig22_claim;
    fs_sweep: "§3 runtime: FsBackend Sessions over a memory- vs VFS-backed SSD tier, on \
               the in-memory VFS and on real files"
        => "fetch stalls are real I/O: every miss one exact-extent read, spills real \
            writes, one stream on every backing and file system", fs_sweep_claim;
    fig23: "Figure 23 (app. E.2.3): end-to-end 8-trial HP search with the native loader \
            (75 % cache)"
        => "HDD: ~2.5x from coordinated prep, ~5.5x adding MinIO; SSD: coordinated prep \
            carries the gain", fig23_claim;
    mega_sweep: "§6 what-if grid: 100 000 points of cache x vCPUs x batch x prefetch x \
                 order on the vectorized MinIO engine"
        => "a dense what-if grid is cheap: the fast path equals the exact engine bit for \
            bit at >=10x its speed", mega_sweep_claim;
    mixed_cluster: "beyond the paper: ResNet18 + AlexNet jobs sharing one Config-SSD-V100 \
                    at 25/50/75 % cache"
        => "CoorDL never loses to DALI when heterogeneous jobs share a server, and more \
            cache never slows it", mixed_cluster_claim;
    multi_tenant: "§5 runtime: churning tenants over one shared multi-tenant Server, 1 and \
                   4 shards"
        => "one shared hierarchy serves churning tenants within their fair-share quotas \
            and reclaims every byte at departure", multi_tenant_claim;
    tab03: "Table 3: data stalls in the TensorFlow/TFRecord pipeline (ResNet18, ImageNet-1k)"
        => "91-97 % cache misses and 6.1-7.3x HP-search read amplification", tab03_claim;
    tab05: "Table 5: DS-Analyzer predicted vs empirical speed at 25/35/50 % cache (AlexNet)";
    tab06: "Table 6: cache misses and disk I/O per loader (ShuffleNetV2, OpenImages, 65 % \
            cache)"
        => "66 % / 53 % / 35 % misses for DALI-seq / DALI-shuffle / CoorDL, the last at \
            the capacity floor", tab06_claim;
    tab07: "Table 7: 8-job HP search with the dataset fully cached"
        => "up to 1.87x (AlexNet) from shared prep alone, lighter models gaining most",
        tab07_claim;
    tier_sweep: "§4.2 / Table 2 runtime: DRAM% x SSD% grid of tiered Sessions (MinIO over \
                 a SATA-SSD MinIO tier)"
        => "a local SSD extends MinIO's reach: more SSD never serves less, and the cache \
            layout never changes the stream", tier_sweep_claim;
    validate: "Table 5 / Figure 16 on the reproduction: 33 predicted (Experiment) vs \
               empirical (Session) rows"
        => "DS-Analyzer-style prediction matches measurement: hit ratios within 0.05, \
            bytes and samples within 5 %", validate_claim;
    worker_sweep: "§5 runtime: the prep-heavy Session at 1, 2 and 4 prep workers"
        => "prefetching overlaps prep across workers without changing what a job sees: \
            one stream and one set of counters at every worker count", worker_sweep_claim;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare_exact;
    use pipeline::json::parse;

    fn committed() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FIGURES.json");
        let text = std::fs::read_to_string(path).expect("FIGURES.json is committed");
        parse(&text).expect("FIGURES.json is valid JSON")
    }

    /// A committed block read back as a table (observations are never
    /// written, so there are none).
    fn table(id: &str) -> FigureTable {
        let block = committed().get(id).cloned().expect("block in FIGURES.json");
        let strings = |key| -> Vec<String> {
            let items = block.get(key).and_then(Value::as_array).unwrap_or_default();
            items
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        };
        let columns = strings("columns");
        let rows = block.get("rows").and_then(Value::as_array).expect("rows");
        let rows = rows.iter().map(|r| {
            columns
                .iter()
                .map(|c| r.get(c).cloned().expect("cell"))
                .collect()
        });
        let Some(Value::Object(summary)) = block.get("summary") else {
            panic!("{id}: no summary object");
        };
        FigureTable {
            rows: rows.collect(),
            columns,
            summary: summary
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            observed: Vec::new(),
        }
    }

    #[test]
    fn registry_ids_match_the_committed_document_and_the_experiments_map() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{id} registered twice");
            assert!(std::ptr::eq(find_figure(id).unwrap(), &FIGURES[i]));
        }
        let Value::Object(doc) = committed() else {
            panic!("FIGURES.json is an object");
        };
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(doc.keys().map(String::as_str).collect::<Vec<_>>(), sorted);
        let map = include_str!("../../../EXPERIMENTS.md");
        for id in ids {
            assert!(
                map.contains(&format!("`dstool figures --only {id}`")),
                "{id} missing from EXPERIMENTS.md"
            );
        }
        assert!(find_figure("fig99").is_none());
    }

    #[test]
    fn cheap_rows_equal_their_committed_blocks() {
        // Run → emit → compare, as `dstool figures --baseline` does, on the
        // rows that take at most seconds in a debug build: every runtime row
        // among them, so each pinned stream digest is checked on every host.
        let baseline = committed();
        let cheap = [
            "fig01",
            "fig08",
            "fig16",
            "tab05",
            "worker_sweep",
            "tier_sweep",
            "multi_tenant",
            "fs_sweep",
            "chaos",
            "fetch_sweep",
        ];
        for id in cheap {
            let figure = find_figure(id).unwrap();
            let (doc, failed) = run_figures(&[figure]);
            assert!(failed.is_empty(), "{failed:?}");
            compare_exact(id, baseline.get(id).unwrap(), doc.get(id)).unwrap();
        }
    }

    #[test]
    fn claims_are_the_rows_no_paper_claims_test_owns() {
        let owned = [
            "fig02", "fig04", "fig06", "fig09a", "fig09b", "fig09d", "fig14", "fig16", "tab05",
        ];
        for figure in &FIGURES {
            assert_eq!(
                figure.claim.is_none(),
                owned.contains(&figure.id),
                "{}",
                figure.id
            );
        }
    }

    #[test]
    fn hp_search_jobs_have_distinct_seeds_and_share_the_gpus() {
        let dataset = DatasetSpec::imagenet_1k().scaled(4000);
        let server = server_ssd(&dataset, 0.5);
        let loader = LoaderConfig::pytorch_dl();
        let spec = hp(job(&server, ModelKind::ResNet18, &dataset, loader), 4);
        let mut seeds: Vec<u64> = spec.jobs.iter().map(|j| j.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
        assert!(spec.jobs.iter().all(|j| j.num_gpus == 2));
        assert_eq!(spec.scenario, Scenario::HpSearch { jobs: 4 });
    }

    /// Check `id`'s claim on its committed numbers, then with one value
    /// moved outside the bracket: the claim must fail, naming the figure.
    fn doctored(id: &str, row: usize, key: &str, value: f64) {
        let figure = find_figure(id).unwrap();
        let mut t = table(id);
        // Observations are never written: give the claims that read one a
        // value that holds.
        let observed: &[(&str, f64)] = match id {
            "fig19" => &[(
                "staging_peak_bytes",
                t.summary_num("staging_bound_bytes") * 0.6,
            )],
            "mega_sweep" => &[("speedup_vs_exact", 20.0)],
            "validate" => &[
                (
                    "hp-coordinated/steady_data_stall_vs_consumer_wait_seconds",
                    0.5,
                ),
                ("fs-real/modelled_vs_measured_device_seconds", 0.001),
            ],
            _ => &[],
        };
        t.observed = observed.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        figure
            .check(&t)
            .expect("the committed numbers hold the claim");
        if let Some(i) = t.columns.iter().position(|c| c == key) {
            t.rows[row][i] = num(value);
        } else if let Some(slot) = t.summary.iter_mut().find(|(k, _)| k == key) {
            slot.1 = num(value);
        } else {
            t.observed[0].1 = value;
        }
        let err = figure.check(&t).unwrap_err();
        assert!(err.starts_with(&format!("{id}: claim failed")), "{err}");
        assert!(err.contains(figure.claim.unwrap().headline), "{err}");
    }

    macro_rules! doctored {
        ($($test:ident => $id:literal, $row:literal, $key:literal, $value:expr;)*) => {$(
            #[test]
            fn $test() {
                doctored($id, $row, $key, $value);
            }
        )*};
    }
    doctored! {
        abl_claim_rejects_coordl_far_behind_nvme => "abl", 4, "samples_per_s", 2000.0;
        fig01_claim_rejects_a_rate_off_the_paper => "fig01", 1, "measured_mb_per_s", 600.0;
        fig03_claim_rejects_a_page_cache_under_the_floor => "fig03", 1, "page_cache_miss_frac", 0.6;
        fig05_claim_rejects_a_small_v100_prep_stall => "fig05", 3, "prep_stall_frac", 0.1;
        fig08_claim_rejects_minio_above_the_capacity_floor => "fig08", 7, "miss_frac", 0.6;
        fig09e_claim_rejects_a_gain_that_shrinks_with_jobs => "fig09e", 0, "speedup", 2.0;
        fig10_claim_rejects_diverging_trajectories => "fig10", 2, "coordl_accuracy", 0.5;
        fig11_claim_rejects_a_slower_coordl_epoch => "fig11", 0, "coordl_epoch_s", 100.0;
        fig12_claim_rejects_no_prep_stall_at_eight_vcpus => "fig12", 4, "prep_stall_frac", 0.1;
        fig13_claim_rejects_gpu_prep_winning_for_resnet50 => "fig13", 5, "dali_gpu_s", 10.0;
        fig17_claim_rejects_a_heavy_model_winning_most => "fig17", 6, "speedup", 5.0;
        fig18_claim_rejects_disk_reads_at_three_servers => "fig18", 2, "coordl_disk_gib_per_server", 1.0;
        fig19_claim_rejects_a_staging_peak_past_the_window => "fig19", 0, "staging_peak_bytes", 1e12;
        fig21_claim_rejects_an_ssd_gain_beyond_prep_bound => "fig21", 5, "speedup", 3.0;
        fig22_claim_rejects_a_gain_that_shrinks_with_jobs => "fig22", 1, "speedup", 2.0;
        fig23_claim_rejects_ssd_gains_without_coordination => "fig23", 4, "speedup", 2.0;
        tab03_claim_rejects_little_read_amplification => "tab03", 0, "hp_read_amp", 3.0;
        tab06_claim_rejects_coordl_off_the_floor => "tab06", 2, "miss_frac", 0.5;
        tab07_claim_rejects_a_heavy_model_winning_most => "tab07", 5, "speedup", 3.0;
        chaos_claim_rejects_a_lost_sample => "chaos", 0, "items", 151.0;
        fetch_sweep_claim_rejects_another_stream_at_four_threads => "fetch_sweep", 2, "stream_digest", 1.0;
        fs_sweep_claim_rejects_a_read_count_that_moved => "fs_sweep", 1, "backend_reads", 1.0;
        mega_sweep_claim_rejects_a_slow_fast_path => "mega_sweep", 0, "speedup_vs_exact", 5.0;
        mixed_cluster_claim_rejects_coordl_behind_dali => "mixed_cluster", 0, "speedup", 0.9;
        multi_tenant_claim_rejects_a_repeat_that_moved => "multi_tenant", 1, "peak_dram_used", 1.0;
        tier_sweep_claim_rejects_a_hit_ratio_that_moved => "tier_sweep", 3, "steady_hit_ratio", 0.01;
        validate_claim_rejects_a_hit_ratio_off_the_prediction => "validate", 0, "empirical", 0.9;
        worker_sweep_claim_rejects_another_stream_at_four_workers => "worker_sweep", 2, "stream_digest", 1.0;
    }
}
