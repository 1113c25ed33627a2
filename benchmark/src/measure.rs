//! One run of one workload: set-up, the timed window, the checks around it.
//!
//! An untraced run ([`end_to_end`]) produces the end-to-end metrics.  A
//! traced run ([`traced`]) measures an undecorated rig first and a decorated
//! one after it, so the per-layer numbers come with their own overhead
//! figure and never leak into an end-to-end metric.

use crate::allocs;
use crate::harness::{Check, Counters, EpochOutcome, Rig, CHECK_EPOCH};
use crate::hostspeed::HostSpeed;
use crate::layers;
use crate::procfs;
use crate::stats::median;
use crate::trace::{Recorder, Span, NO_ID, NO_PARENT};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rigs per untraced run, built, timed and dropped one after another:
/// `setup_s` is the median of their set-ups, and each gets an equal share of
/// `--seconds` for its window.
pub const RIGS: usize = 5;

/// Below this many `--seconds` a run is a smoke test (`--quick`) with one
/// rig: five set-ups would take longer than its window.
const SMOKE_SECONDS: f64 = 2.0;

/// A window never closes before this many epochs, however slow the host.
/// The counted metrics (`storage_bytes_per_sample`, `storage_ops_per_ksample`,
/// `alloc_bytes_per_sample`) are taken over exactly these first epochs, so
/// that they do not depend on how many epochs a faster or slower host fits
/// into the window (under LRU every epoch hits differently).
pub const MIN_EPOCHS: usize = 3;

/// Share of `--seconds` a traced run gives its untraced reference window.
const REFERENCE_SHARE: f64 = 0.35;

/// Share it spends, before that, on epochs nobody times: with trimming off
/// a fresh process grows its heap during its first rig's first epochs, and
/// the reference rig would look slower than the traced one that follows.
const WARM_UP_SHARE: f64 = 0.1;

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Digest of epoch 0 and of the check epoch.
    pub digests: [u64; 2],
    /// Delivered rate of every timed epoch on a host of nominal speed, for
    /// pooling across passes.
    pub epoch_rates: Vec<f64>,
    /// Human-readable findings that make the run incorrect.
    pub problems: Vec<String>,
    /// Median slowdown of the host over the timed windows (see
    /// [`crate::hostspeed`]); the time-based metrics are already divided
    /// by it.
    pub host_slowdown: f64,
    /// `samples_per_s` and `cpu_ms_per_ksample` as the clocks read them,
    /// before that division.
    pub uncorrected: [f64; 2],
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn count(&mut self, epoch: &EpochOutcome) {
        self.attempted += epoch.attempted;
        self.failed += epoch.failed;
    }
}

/// The counted end-to-end metrics of a window's first [`MIN_EPOCHS`]
/// epochs: they repeat for a given seed, whatever the host's speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counted {
    /// Bytes read from storage per sample delivered.
    pub storage_bytes_per_sample: f64,
    /// Operations issued to storage per 1000 samples delivered.
    pub storage_ops_per_ksample: f64,
    /// Bytes requested from the allocator per sample delivered.
    pub alloc_bytes_per_sample: f64,
}

/// A timed window over an already warm rig.
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub samples: u64,
    pub epochs: Vec<EpochOutcome>,
    /// Counter deltas over the window.
    pub counters: Counters,
    pub counted: Counted,
    /// Median host slowdown sampled between the window's epochs.
    pub host_slowdown: f64,
}

impl Window {
    /// Delivered rate of every epoch, as measured.
    pub fn rates(&self) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| e.samples as f64 / e.wall_s.max(1e-9))
            .collect()
    }

    /// Median epoch rate on a host of nominal speed.
    pub fn normalised_rate(&self) -> f64 {
        median(&self.rates()) * self.host_slowdown
    }
}

/// Build a rig and run its fully checked epoch 0; returns the rig, the
/// set-up time as measured, and the epoch's digest.
fn set_up(
    workload: &Workload,
    seed: u64,
    base: &Path,
    recorder: Option<&Arc<Recorder>>,
    report: &mut RunReport,
) -> Result<(Rig, f64, u64), String> {
    let start = Instant::now();
    let rig = Rig::build(workload, seed, base, recorder)?;
    let epoch = rig.run_epoch(0, Check::Full);
    let seconds = start.elapsed().as_secs_f64();
    report.count(&epoch);
    Ok((rig, seconds, epoch.digest))
}

/// Run light-checked epochs `first_epoch..` until `seconds` have passed,
/// sampling the host's speed between them.
pub fn window(
    rig: &Rig,
    first_epoch: u64,
    seconds: f64,
    host: &mut HostSpeed,
    report: &mut RunReport,
) -> Window {
    let before = rig.counters();
    let requested = allocs::requested_bytes();
    host.sample();
    // The reference kernel's CPU time is the harness's, not the loader's.
    let mut cpu_s = 0.0;
    let mut cpu_mark = procfs::cpu_seconds();
    let start = Instant::now();
    let mut epochs = Vec::new();
    let mut counted = Counted::default();
    while epochs.len() < MIN_EPOCHS || start.elapsed().as_secs_f64() < seconds {
        let epoch = rig.run_epoch(first_epoch + epochs.len() as u64, Check::Light);
        report.count(&epoch);
        epochs.push(epoch);
        cpu_s += procfs::cpu_seconds() - cpu_mark;
        if epochs.len() == MIN_EPOCHS {
            let samples = epochs.iter().map(|e| e.samples).sum::<u64>().max(1) as f64;
            let counters = rig.counters().since(&before);
            counted = Counted {
                storage_bytes_per_sample: counters.bytes_from_storage as f64 / samples,
                storage_ops_per_ksample: counters.storage_ops(rig.workload.store) as f64 * 1000.0
                    / samples,
                alloc_bytes_per_sample: (allocs::requested_bytes() - requested) as f64 / samples,
            };
        }
        host.sample_if_due();
        cpu_mark = procfs::cpu_seconds();
    }
    Window {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s,
        samples: epochs.iter().map(|e| e.samples).sum(),
        epochs,
        counters: rig.counters().since(&before),
        counted,
        host_slowdown: host.take_slowdown(rig.workload.bound_by),
    }
}

/// Every set-up of a run must deliver the stream the first one did.
fn note_digest(report: &mut RunReport, what: &str, seen: u64) {
    let expected = report.digests[0];
    if seen != expected {
        report.failed += 1;
        report.problems.push(format!(
            "{what}: stream digest {seen:016x} differs from {expected:016x}"
        ));
    }
}

/// The untraced run: [`RIGS`] rigs one after another, each set up, timed for
/// its share of `seconds` and dropped.  Rates are pooled over all rigs'
/// epochs, CPU time and samples summed; every time is divided by the host's
/// slowdown during its own rig.  Peak memory is read while the first rig is
/// still alive — what one session in a fresh process needs — and the check
/// epoch runs on the last.
pub fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    base: &Path,
) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    let mut host = HostSpeed::new();
    let rigs = if seconds < SMOKE_SECONDS { 1 } else { RIGS };
    let mut setups = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut peak_rss = 0.0;
    for nth in 0..rigs {
        let (rig, setup_s, digest) = set_up(workload, seed, base, None, &mut report)?;
        if nth == 0 {
            report.digests[0] = digest;
        } else {
            note_digest(&mut report, "repeated set-up", digest);
        }
        let win = window(&rig, 1, seconds / rigs as f64, &mut host, &mut report);
        setups.push(setup_s / win.host_slowdown);
        // Same seed, same epochs: every rig reads the same from storage.
        if windows.first().is_some_and(|first| {
            (
                first.counted.storage_bytes_per_sample,
                first.counted.storage_ops_per_ksample,
            ) != (
                win.counted.storage_bytes_per_sample,
                win.counted.storage_ops_per_ksample,
            )
        }) {
            report.failed += 1;
            report
                .problems
                .push("repeated set-up: storage counts differ from the first rig's".into());
        }
        if nth == 0 {
            peak_rss = procfs::peak_rss_mib();
        }
        if nth + 1 == rigs {
            let check = rig.run_epoch(CHECK_EPOCH, Check::Full);
            report.count(&check);
            report.digests[1] = check.digest;
        }
        windows.push(win);
    }

    let samples = windows.iter().map(|w| w.samples).sum::<u64>().max(1) as f64;
    let per_ksample = |cpu_s: f64| cpu_s * 1e6 / samples;
    let raw_rates: Vec<f64> = windows.iter().flat_map(Window::rates).collect();
    report.epoch_rates = windows
        .iter()
        .flat_map(|w| w.rates().into_iter().map(|r| r * w.host_slowdown))
        .collect();
    report.host_slowdown = median(&windows.iter().map(|w| w.host_slowdown).collect::<Vec<_>>());
    report.uncorrected = [
        median(&raw_rates),
        per_ksample(windows.iter().map(|w| w.cpu_s).sum()),
    ];
    let counted = windows[0].counted;
    report.metrics = vec![
        ("samples_per_s", median(&report.epoch_rates)),
        (
            "cpu_ms_per_ksample",
            per_ksample(windows.iter().map(|w| w.cpu_s / w.host_slowdown).sum()),
        ),
        ("storage_bytes_per_sample", counted.storage_bytes_per_sample),
        ("storage_ops_per_ksample", counted.storage_ops_per_ksample),
        ("alloc_bytes_per_sample", counted.alloc_bytes_per_sample),
        ("peak_rss_mb", peak_rss),
        ("setup_s", median(&setups)),
    ];
    Ok(report)
}

/// The traced run: an untraced reference window, then the same workload
/// rebuilt with every hook decorated, then the ceilings and the direct
/// layer measurements.  Per-layer numbers are as measured; the host's
/// slowdown during the traced window is reported beside them.
pub fn traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    base: &Path,
    spans_out: Option<&Path>,
) -> Result<RunReport, String> {
    let mut report = RunReport::default();
    let mut host = HostSpeed::new();

    let (plain, _, digest) = set_up(workload, seed, base, None, &mut report)?;
    report.digests[0] = digest;
    let warm_up = window(&plain, 1, seconds * WARM_UP_SHARE, &mut host, &mut report);
    let reference = window(
        &plain,
        1 + warm_up.epochs.len() as u64,
        seconds * REFERENCE_SHARE,
        &mut host,
        &mut report,
    );
    drop(plain);

    let recorder = Recorder::new();
    let (rig, _, digest) = set_up(workload, seed, base, Some(&recorder), &mut report)?;
    note_digest(&mut report, "traced set-up", digest);
    let setup_spans: Vec<Vec<Span>> = recorder.drain();
    let first_epoch = rig.epochs().len();
    let win = window(
        &rig,
        1,
        seconds * (1.0 - REFERENCE_SHARE - WARM_UP_SHARE),
        &mut host,
        &mut report,
    );
    let spans = recorder.drain();
    let trajectories = rig.epochs().split_off(first_epoch);
    let check = rig.run_epoch(CHECK_EPOCH, Check::Full);
    report.count(&check);
    report.digests[1] = check.digest;

    if let Some(path) = spans_out {
        write_spans(path, &spans)?;
    }
    report.epoch_rates = win.rates();
    report.host_slowdown = win.host_slowdown;
    let mut values = layers::from_window(&layers::Traced {
        workload,
        window: &win,
        spans: &spans,
        setup_spans: &setup_spans,
        trajectories: &trajectories,
        server: rig.server(),
        untraced_rate: reference.normalised_rate(),
    });
    drop(rig);
    values.extend(layers::ceilings(seed, base, &mut host, &mut report)?);
    values.extend(layers::direct(workload, seed, base)?);

    report.metrics = crate::metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    if let Some(stray) = values
        .keys()
        .find(|k| !report.metrics.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {stray} is computed but not in the table"));
    }
    Ok(report)
}

/// The traced window's spans as CSV, one row per span; `parent` is the
/// `index` of the causing span on the same `thread`.
fn write_spans(path: &Path, buffers: &[Vec<Span>]) -> Result<(), String> {
    let mut out = String::from("thread,index,layer,op,start_ns,end_ns,parent,id,bytes\n");
    let blank_or = |absent: bool, n: u64| if absent { String::new() } else { n.to_string() };
    for (thread, spans) in buffers.iter().enumerate() {
        for (index, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{thread},{index},{},{},{},{},{},{},{}",
                s.layer.name(),
                s.op.name(),
                s.start_ns,
                s.end_ns,
                blank_or(s.parent == NO_PARENT, u64::from(s.parent)),
                blank_or(s.id == NO_ID, s.id),
                s.bytes
            );
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
