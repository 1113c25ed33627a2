//! The DRAM-fraction × SSD-fraction sweep over the *runtime* cache
//! hierarchy (`coordl::TieredByteCache`): the `tier_sweep` row of
//! [`FIGURES`](crate::FIGURES).
//!
//! The grid reproduces the paper's §4.2 / Table 2 point in tiered form: a
//! local SATA SSD (530 MB/s random reads) extends MinIO's reach beyond
//! DRAM, so the chain's steady-state hit ratio tracks the *sum* of the
//! DRAM and SSD fractions — every percent of SSD capacity converts an HDD
//! read into an SSD read.  The claim has two halves:
//!
//! * **correctness** — the delivered stream is a function of the workload
//!   alone, never of the cache layout: every grid point at every worker
//!   count must produce one identical stream (hashed into `stream_digest`),
//!   and the deterministic counters must be bit-identical across worker
//!   counts;
//! * **the model** — at fixed DRAM, more SSD never lowers the steady hit
//!   ratio and a non-empty SSD tier serves hits.  The per-point DRAM/SSD hit
//!   ratios are exact counter arithmetic (no wall clock), so `FIGURES.json`
//!   pins them.

use crate::figures::FigureTable;
use crate::runtime::{
    bit_identical, count, drain_single, loader_counters, run_grid, table, Run, Workload,
};
use coordl::{ByteTierSpec, Mode, Session};
use dataset::{DataSource, SyntheticItemStore};
use dcache::PolicyKind;
use pipeline::json::{int, num};
use std::sync::Arc;

/// DRAM tier capacities as percent of the dataset.
const DRAM_PERCENTS: [u32; 3] = [15, 35, 55];

/// SSD tier capacities as percent of the dataset (0 = no SSD tier).
const SSD_PERCENTS: [u32; 3] = [0, 25, 50];

/// The row's sizes (a small decode multiplier: this row is fetch-shaped).
pub const WORKLOAD: Workload = Workload {
    items: 128,
    avg_item_bytes: 1024,
    decode_multiplier: 4,
    batch_size: 32,
    epochs: 3,
    seed: 0x71E5,
    axis: &[1, 2],
};

/// The `tier_sweep` row: [`run`] at [`WORKLOAD`].
pub fn tier_sweep() -> FigureTable {
    run(&WORKLOAD)
}

/// Run the sweep: every (dram, ssd) grid point at every worker count (dram
/// slowest-varying).
pub fn run(w: &Workload) -> FigureTable {
    let grid: Vec<(u32, u32)> = DRAM_PERCENTS
        .iter()
        .flat_map(|&dram| SSD_PERCENTS.iter().map(move |&ssd| (dram, ssd)))
        .collect();
    let runs = run_grid(&grid, w.axis, |&(dram, ssd), workers| {
        run_once(w, dram, ssd, workers)
    });
    table(
        vec![("items", int(w.items)), ("epochs", int(w.epochs))],
        runs,
    )
}

fn run_once(w: &Workload, dram_percent: u32, ssd_percent: u32, workers: usize) -> Run {
    let spec = w.dataset("tier-sweep");
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
        .expect("valid tier_sweep session");

    let (digest, wall_seconds) = drain_single(&session, w.epochs);
    let report = session.report();
    let mut counters = loader_counters(&session);
    counters.push(("dram_percent", int(dram_percent as u64)));
    counters.push(("ssd_percent", int(ssd_percent as u64)));
    let label = format!("dram={dram_percent}%,ssd={ssd_percent}%");
    let run = Run::new(&label, "workers", workers, digest).with([
        ("steady_hit_ratio", num(report.steady_hit_ratio())),
        ("dram_hit_ratio", num(report.steady_dram_hit_ratio())),
        ("ssd_hit_ratio", num(report.steady_lower_tier_hit_ratio())),
        ("steady_disk_bytes", num(report.steady_storage_bytes())),
    ]);
    run.counted(counters, wall_seconds)
}

/// One stream for the whole grid (the cache layout is invisible to
/// consumers), and the "SSD extends MinIO's reach" shape: at fixed DRAM,
/// more SSD never lowers the chain hit ratio, and a non-empty SSD tier
/// serves hits.
pub fn tier_sweep_claim(t: &FigureTable) -> Result<(), String> {
    bit_identical(t, &["workers"])?;
    let label = |r: usize| t.cell(r, "label").as_str().unwrap_or_default();
    for r in 0..t.rows.len() {
        if count(t, r, "ssd_percent") > 0.0 && t.num(r, "ssd_hit_ratio") <= 0.0 {
            return Err(format!("{}: a non-empty SSD tier served no hits", label(r)));
        }
        // Rows run in grid order: ssd grows within one dram value.
        let Some(less) = r.checked_sub(1) else {
            continue;
        };
        let same_dram = count(t, less, "dram_percent") == count(t, r, "dram_percent");
        let (was, now) = (
            t.num(less, "steady_hit_ratio"),
            t.num(r, "steady_hit_ratio"),
        );
        if same_dram && now + 1e-9 < was {
            return Err(format!(
                "{}: hit ratio {now:.4} fell below {}'s {was:.4} — more SSD must never \
                 serve less",
                label(r),
                label(less)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{doctor, doctor_counter, hex};

    fn tiny() -> Workload {
        Workload {
            items: 160,
            avg_item_bytes: 256,
            ..WORKLOAD
        }
    }

    /// The rows (workers 1 and 2) of the point labelled `label`.
    fn rows_of(t: &FigureTable, label: &str) -> Vec<usize> {
        let rows = 0..t.rows.len();
        rows.filter(|&r| t.cell(r, "label").as_str() == Some(label))
            .collect()
    }

    #[test]
    fn grid_shares_one_stream_and_ssd_extends_reach() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 18, "every point at both worker counts");
        tier_sweep_claim(&t).expect("hierarchy contract");
        let point = |label: &str| rows_of(&t, label)[0];
        // The ssd=0 points behave like flat MinIO: hit ratio ~ dram percent.
        let flat = point("dram=35%,ssd=0%");
        let hit = t.num(flat, "steady_hit_ratio");
        assert!((hit - 0.35).abs() < 0.06, "{hit}");
        assert_eq!(t.num(flat, "ssd_hit_ratio"), 0.0);
        // dram=35,ssd=25 reaches ~60 %.
        let tiered = point("dram=35%,ssd=25%");
        let hit = t.num(tiered, "steady_hit_ratio");
        assert!((hit - 0.60).abs() < 0.06, "{hit}");
        let disk = |r| t.num(r, "steady_disk_bytes");
        assert!(disk(tiered) < disk(flat));
    }

    #[test]
    fn gate_rejects_divergent_streams_and_a_broken_ssd_shape() {
        let t = run(&Workload {
            items: 128,
            avg_item_bytes: 128,
            ..tiny()
        });
        let point = rows_of(&t, "dram=35%,ssd=25%");
        let mut doctored = t.clone();
        doctor(&mut doctored, point[0], "stream_digest", hex(7));
        let err = tier_sweep_claim(&doctored).unwrap_err();
        assert!(
            err.contains("dram=35%,ssd=25%: workers=1 delivered a different stream"),
            "{err}"
        );
        // A worker count that moves a counter is an Err too, not a panic.
        let mut doctored = t.clone();
        doctor_counter(&mut doctored, point[1], "samples_prepared", int(1));
        let err = tier_sweep_claim(&doctored).unwrap_err();
        assert!(err.contains("dram=35%,ssd=25%: workers=2"), "{err}");

        let mut doctored = t.clone();
        for r in rows_of(&t, "dram=15%,ssd=50%") {
            doctor(&mut doctored, r, "steady_hit_ratio", num(0.01));
        }
        let err = tier_sweep_claim(&doctored).unwrap_err();
        assert!(
            err.starts_with("dram=15%,ssd=50%") && err.contains("more SSD must never serve less"),
            "{err}"
        );
        let mut doctored = t.clone();
        for r in rows_of(&t, "dram=55%,ssd=25%") {
            doctor(&mut doctored, r, "ssd_hit_ratio", num(0.0));
        }
        let err = tier_sweep_claim(&doctored).unwrap_err();
        assert!(
            err.contains("dram=55%,ssd=25%: a non-empty SSD tier served no hits"),
            "{err}"
        );
    }
}
