//! The DRAM-fraction × SSD-fraction sweep over the *runtime* cache
//! hierarchy (`coordl::TieredByteCache`): the preset behind
//! `dstool sweep tier-sweep` and part of `dstool smoke`.
//!
//! The grid reproduces the paper's §4.2 / Table 2 point in tiered form: a
//! local SATA SSD (530 MB/s random reads) extends MinIO's reach beyond
//! DRAM, so the chain's steady-state hit ratio tracks the *sum* of the
//! DRAM and SSD fractions — every percent of SSD capacity converts an HDD
//! read into an SSD read.  Two gates come out of a run:
//!
//! * **a correctness gate** — the delivered stream is a function of the
//!   workload alone, never of the cache layout: every grid point at every
//!   worker count must produce one identical stream (hashed into
//!   `stream_digest` and checked against `ci/bench_baseline.json`), and the
//!   deterministic counters must be bit-identical across worker counts;
//! * **a model gate** — per-point steady DRAM/SSD hit ratios are exact
//!   counter arithmetic (no wall clock), so they are compared exactly
//!   against the baseline.

use crate::runtime::{
    drain_single, int, loader_counters, num, run_grid, text, PointResult, PresetReport,
    RuntimePreset, Workload,
};
use coordl::{ByteTierSpec, Mode, Session};
use dataset::{DataSource, SyntheticItemStore};
use dcache::PolicyKind;
use std::sync::Arc;

/// DRAM tier capacities as percent of the dataset.
const DRAM_PERCENTS: [u32; 3] = [15, 35, 55];

/// SSD tier capacities as percent of the dataset (0 = no SSD tier).
const SSD_PERCENTS: [u32; 3] = [0, 25, 50];

/// The registry row of `dstool sweep tier-sweep` (a small decode multiplier:
/// this preset is fetch-shaped).
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "tier-sweep",
    paper: "§4.2 / Table 2 (SSD extends MinIO)",
    description: "runtime cache hierarchy: DRAM% x SSD% grid of tiered Sessions \
                  (DRAM MinIO spilling into a SATA-SSD MinIO tier); per-tier hit \
                  ratios exact, one stream gated for the whole grid and every \
                  worker count",
    points: DRAM_PERCENTS.len() * SSD_PERCENTS.len(),
    workload: Workload {
        items: 1024,
        min_items: 128,
        avg_item_bytes: 1024,
        decode_multiplier: 4,
        batch_size: 32,
        epochs: 3,
        seed: 0x71E5,
        axis: &[1, 2],
    },
    axis: "workers",
    flat: false,
    takes_os_root: false,
    run: |w, _| run(w),
    shape,
};

/// Run the sweep: every (dram, ssd) grid point at every worker count (dram
/// slowest-varying).
pub fn run(w: &Workload) -> PresetReport {
    let grid: Vec<(u32, u32)> = DRAM_PERCENTS
        .iter()
        .flat_map(|&dram| SSD_PERCENTS.iter().map(move |&ssd| (dram, ssd)))
        .collect();
    PresetReport {
        preset: &PRESET,
        header: vec![("items", int(w.items)), ("epochs", int(w.epochs))],
        runs: run_grid(&grid, w.axis, |&(dram, ssd), workers| {
            run_once(w, dram, ssd, workers)
        }),
    }
}

fn run_once(w: &Workload, dram_percent: u32, ssd_percent: u32, workers: usize) -> PointResult {
    let spec = w.dataset(PRESET.name);
    let total_bytes = spec.total_bytes();
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 23));
    let session = Session::builder(store, w.session_config(workers))
        .mode(Mode::Single)
        .cache_tiers(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, total_bytes * dram_percent as u64 / 100),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, total_bytes * ssd_percent as u64 / 100),
        ])
        .pipeline(w.pipeline())
        .build()
        .expect("valid tier-sweep session");

    let (stream_digest, _) = drain_single(&session, w.epochs);
    let report = session.report();
    let label = format!("dram={dram_percent}%,ssd={ssd_percent}%");
    let mut counters = loader_counters(&session);
    counters.push(("dram_percent", dram_percent as u64));
    counters.push(("ssd_percent", ssd_percent as u64));
    PointResult {
        fields: vec![
            ("label", text(&label)),
            ("steady_hit_ratio", num(report.steady_hit_ratio())),
            ("dram_hit_ratio", num(report.steady_dram_hit_ratio())),
            ("ssd_hit_ratio", num(report.steady_lower_tier_hit_ratio())),
            ("steady_disk_bytes", num(report.steady_storage_bytes())),
        ],
        label,
        axis_value: workers,
        stream_digest,
        counters,
        timings: Vec::new(),
    }
}

/// The "SSD extends MinIO reach" shape: at fixed DRAM, more SSD never lowers
/// the chain hit ratio, and a non-empty SSD tier serves hits.  (That the
/// whole grid shares one stream — the cache layout is invisible to consumers
/// — is the harness's [`PresetReport::bit_identical`].)
fn shape(report: &PresetReport) -> Result<(), String> {
    let mut points: Vec<&PointResult> = report.points().collect();
    points.sort_by_key(|p| (p.counter("dram_percent"), p.counter("ssd_percent")));
    for pair in points.windows(2) {
        let (less, more) = (pair[0], pair[1]);
        if less.counter("dram_percent") != more.counter("dram_percent") {
            continue;
        }
        if more.num("steady_hit_ratio") + 1e-9 < less.num("steady_hit_ratio") {
            return Err(format!(
                "{}: hit ratio {:.4} fell below {}'s {:.4} — more SSD must never \
                 serve less",
                more.label,
                more.num("steady_hit_ratio"),
                less.label,
                less.num("steady_hit_ratio")
            ));
        }
        if more.counter("ssd_percent") > 0 && more.num("ssd_hit_ratio") <= 0.0 {
            return Err(format!(
                "{}: a non-empty SSD tier served no hits",
                more.label
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload {
            items: 160,
            avg_item_bytes: 256,
            ..PRESET.workload
        }
    }

    /// The two runs (workers 1 and 2) of the point labelled `label`.
    fn runs_of<'a>(report: &'a mut PresetReport, label: &str) -> Vec<&'a mut PointResult> {
        let runs = report.runs.iter_mut().filter(|r| r.label == label);
        runs.collect()
    }

    #[test]
    fn grid_shares_one_stream_and_ssd_extends_reach() {
        let report = run(&tiny());
        assert_eq!(report.points().count(), 9);
        assert_eq!(report.runs.len(), 18, "every point at both worker counts");
        report.gate().expect("hierarchy contract");
        let point = |label: &str| report.points().find(|p| p.label == label).unwrap();
        // The ssd=0 points behave like flat MinIO: hit ratio ~ dram percent.
        let flat = point("dram=35%,ssd=0%");
        assert!(
            (flat.num("steady_hit_ratio") - 0.35).abs() < 0.06,
            "{flat:?}"
        );
        assert_eq!(flat.num("ssd_hit_ratio"), 0.0);
        // dram=35,ssd=25 reaches ~60 %.
        let tiered = point("dram=35%,ssd=25%");
        assert!(
            (tiered.num("steady_hit_ratio") - 0.60).abs() < 0.06,
            "{tiered:?}"
        );
        assert!(tiered.num("steady_disk_bytes") < flat.num("steady_disk_bytes"));
    }

    #[test]
    fn gate_rejects_divergent_streams_and_a_broken_ssd_shape() {
        let report = run(&Workload {
            items: 128,
            avg_item_bytes: 128,
            ..tiny()
        });
        let mut doctored = report.clone();
        runs_of(&mut doctored, "dram=35%,ssd=25%")[0].stream_digest ^= 1;
        let err = doctored.gate().unwrap_err();
        assert!(
            err.contains("tier-sweep/dram=35%,ssd=25%: workers=1 delivered a different stream"),
            "{err}"
        );
        // A worker count that moves a counter is an Err too, not a panic.
        let mut doctored = report.clone();
        runs_of(&mut doctored, "dram=35%,ssd=25%")[1].counters[0].1 += 1;
        let err = doctored.gate().unwrap_err();
        assert!(err.contains("dram=35%,ssd=25%: workers=2"), "{err}");

        let mut doctored = report.clone();
        for r in runs_of(&mut doctored, "dram=15%,ssd=50%") {
            r.set("steady_hit_ratio", num(0.01));
        }
        let err = doctored.gate().unwrap_err();
        assert!(
            err.starts_with("dram=15%,ssd=50%") && err.contains("more SSD must never serve less"),
            "{err}"
        );
        let mut doctored = report;
        for r in runs_of(&mut doctored, "dram=55%,ssd=25%") {
            r.set("ssd_hit_ratio", num(0.0));
        }
        let err = doctored.gate().unwrap_err();
        assert!(
            err.contains("dram=55%,ssd=25%: a non-empty SSD tier served no hits"),
            "{err}"
        );
    }
}
