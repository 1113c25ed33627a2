//! The readahead × tier-backing sweep over the *real-bytes* I/O path
//! (`coordl::FsBackend` over a [`Vfs`]): the preset behind
//! `dstool sweep fs-sweep` and part of `dstool smoke`.
//!
//! Where `tier-sweep` varies how much of the dataset the cache holds, this
//! sweep varies how the bytes *move*: the dataset is materialized once as a
//! page-aligned packed file and every fetch is a real positional read, with
//! a configurable readahead window (§3's I/O pattern discussion), while the
//! SSD cache level is either memory-backed or persisted through a
//! [`SpillStore`](vfs::SpillStore) on the same VFS.  Three contracts come
//! out of a run:
//!
//! * **a correctness gate** — the delivered stream is a function of the
//!   workload alone: every (readahead, backing) point at every worker count
//!   must produce one identical stream (hashed into `stream_digest` and
//!   checked against `ci/bench_baseline.json`);
//! * **an I/O-shape gate** — the backend's physical read count is exact
//!   counter arithmetic: identical across backings at fixed readahead (the
//!   spill path must never change what the backend reads), and never
//!   increased by a wider readahead window;
//! * **a persistence gate** — vfs-backed points must leave a spill manifest
//!   behind and issue strictly more VFS writes than their memory-backed
//!   twins (the durable shadow is real I/O, not bookkeeping).
//!
//! Wall-clock `measured_device_seconds` are printed next to the modelled
//! seconds and never emitted — machine-dependent by design.

use crate::runtime::{
    drain_single, int, loader_counters, num, run_grid, text, PointResult, PresetReport,
    RuntimePreset, Workload,
};
use coordl::{ByteTierSpec, FetchBackend, FsBackend, Mode, Session};
use dataset::{DataSource, SyntheticItemStore};
use dcache::PolicyKind;
use std::path::Path;
use std::sync::Arc;
use storage::{AccessPattern, DeviceProfile};
use vfs::{MemVfs, OsVfs, Vfs};

/// Readahead windows, in pages, the backend is run at.
const READAHEAD_PAGES: [u32; 2] = [0, 8];

/// SSD-level backings: `false` = in-memory, `true` = persisted to the VFS
/// through a spill store.
const PERSISTENT_SSD: [bool; 2] = [false, true];

/// DRAM tier capacity as percent of the dataset.
const DRAM_PERCENT: u64 = 25;

/// SSD tier capacity as percent of the dataset.
const SSD_PERCENT: u64 = 35;

/// The registry row of `dstool sweep fs-sweep` (a small decode multiplier:
/// this preset is fetch-shaped).  `dstool smoke` always runs it on the
/// deterministic in-memory [`MemVfs`], where digests and physical-read
/// counts are machine-independent; `--os-root` moves the same grid onto an
/// [`OsVfs`] rooted there (one subdirectory per run).
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "fs-sweep",
    paper: "§3 / Fig 5-7 (fetch stalls are real I/O)",
    description: "runtime real-bytes I/O: FsBackend Sessions over a VFS, readahead \
                  x tier-backing grid; every fetch a real page-aligned read, exact \
                  physical reads and on-disk spill manifests gated, one stream for \
                  the whole grid",
    points: READAHEAD_PAGES.len() * PERSISTENT_SSD.len(),
    workload: Workload {
        items: 768,
        min_items: 128,
        avg_item_bytes: 1024,
        decode_multiplier: 4,
        batch_size: 32,
        epochs: 3,
        seed: 0xF5D0,
        axis: &[1, 2],
    },
    axis: "workers",
    flat: false,
    takes_os_root: true,
    run,
    shape,
};

/// Run the sweep: every (readahead, backing) grid point at every worker
/// count (readahead slowest-varying), on real files under `os_root` when
/// given.
pub fn run(w: &Workload, os_root: Option<&Path>) -> PresetReport {
    let grid: Vec<(u32, bool)> = READAHEAD_PAGES
        .iter()
        .flat_map(|&ra| {
            PERSISTENT_SSD
                .iter()
                .map(move |&persistent| (ra, persistent))
        })
        .collect();
    let vfs = if os_root.is_some() { "os" } else { "mem" };
    PresetReport {
        preset: &PRESET,
        header: vec![
            ("items", int(w.items)),
            ("epochs", int(w.epochs)),
            ("vfs", text(vfs)),
        ],
        runs: run_grid(&grid, w.axis, |&(ra, persistent), workers| {
            run_once(w, os_root, ra, persistent, workers)
        }),
    }
}

fn run_once(
    w: &Workload,
    os_root: Option<&Path>,
    readahead: u32,
    persistent: bool,
    workers: usize,
) -> PointResult {
    let spec = w.dataset(PRESET.name);
    let total_bytes = spec.total_bytes();
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 23));
    let backing = if persistent { "vfs" } else { "mem" };
    // Every run gets a fresh VFS (or a fresh OsVfs subdirectory): the sweep
    // gates cold-start equivalence; warm restarts are pinned elsewhere.
    let fs: Arc<dyn Vfs> = match os_root {
        Some(root) => {
            let sub = root.join(format!("ra{readahead}-{backing}-w{workers}"));
            Arc::new(OsVfs::new(sub).expect("fs-sweep OS root must be writable"))
        }
        None => Arc::new(MemVfs::new()),
    };
    let backend = Arc::new(
        FsBackend::new(Arc::clone(&fs), "data", store.as_ref(), readahead)
            .expect("fs-sweep materialization must succeed")
            .with_profile(DeviceProfile::sata_ssd(), AccessPattern::Random),
    );
    let mut ssd = ByteTierSpec::sata_ssd(PolicyKind::MinIo, total_bytes * SSD_PERCENT / 100);
    if persistent {
        ssd = ssd.persistent(Arc::clone(&fs), "ssd");
    }
    let session = Session::builder(store, w.session_config(workers))
        .mode(Mode::Single)
        .cache_tiers(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, total_bytes * DRAM_PERCENT / 100),
            ssd,
        ])
        .fetch_backend(Arc::clone(&backend) as Arc<dyn FetchBackend>)
        .pipeline(w.pipeline())
        .build()
        .expect("valid fs-sweep session");

    let (stream_digest, _) = drain_single(&session, w.epochs);
    let report = session.report();
    let vfs_stats = fs.stats();
    let label = format!("ra={readahead}p,ssd={backing}");
    let mut counters = loader_counters(&session);
    counters.push(("readahead_pages", readahead as u64));
    counters.push(("persistent_ssd", persistent as u64));
    counters.push(("manifest_present", fs.exists("ssd/MANIFEST") as u64));
    PointResult {
        fields: vec![
            ("label", text(&label)),
            ("steady_hit_ratio", num(report.steady_hit_ratio())),
            ("ssd_hit_ratio", num(report.steady_lower_tier_hit_ratio())),
            ("steady_disk_bytes", num(report.steady_storage_bytes())),
            ("span_hits", int(backend.span_hits())),
            ("span_misses", int(backend.span_misses())),
            ("vfs_reads", int(vfs_stats.reads)),
            ("vfs_writes", int(vfs_stats.writes)),
            ("modelled_device_seconds", num(report.device_seconds)),
        ],
        timings: vec![("measured_device_seconds", report.measured_device_seconds)],
        label,
        axis_value: workers,
        stream_digest,
        counters,
    }
}

/// The I/O-shape and persistence contracts (see the [module docs](self)):
/// the spill manifest follows the backing, backings at one readahead issue
/// the same physical reads, a vfs-backed point issues strictly more VFS
/// writes than its memory-backed twin, and a wider readahead window never
/// reads more often.
fn shape(report: &PresetReport) -> Result<(), String> {
    let mut points: Vec<&PointResult> = report.points().collect();
    points.sort_by_key(|p| (p.counter("readahead_pages"), p.counter("persistent_ssd")));
    for p in &points {
        if p.counter("manifest_present") != p.counter("persistent_ssd") {
            return Err(format!(
                "{}: spill manifest {} — persistence must follow the backing",
                p.label,
                if p.counter("manifest_present") == 1 {
                    "present without a vfs backing"
                } else {
                    "missing"
                }
            ));
        }
    }
    for pair in points.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.counter("readahead_pages") == b.counter("readahead_pages") {
            if b.num("span_misses") != a.num("span_misses") {
                return Err(format!(
                    "{} vs {}: physical read counts differ ({} vs {}) — the spill \
                     path changed what the backend reads",
                    b.label,
                    a.label,
                    b.num("span_misses"),
                    a.num("span_misses")
                ));
            }
            if b.num("vfs_writes") <= a.num("vfs_writes") {
                return Err(format!(
                    "{}: {} VFS writes, no more than {}'s {} — the durable shadow \
                     issued no real I/O",
                    b.label,
                    b.num("vfs_writes"),
                    a.label,
                    a.num("vfs_writes")
                ));
            }
        }
    }
    points.retain(|p| p.counter("persistent_ssd") == 0);
    for pair in points.windows(2) {
        if pair[1].num("span_misses") > pair[0].num("span_misses") {
            return Err(format!(
                "{}: {} physical reads, more than {}'s {} — a wider window must \
                 never read more often",
                pair[1].label,
                pair[1].num("span_misses"),
                pair[0].label,
                pair[0].num("span_misses")
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
            avg_item_bytes: 512,
            ..PRESET.workload
        }
    }

    #[test]
    fn grid_shares_one_stream_and_spills_are_real_io() {
        let report = run(&tiny(), None);
        assert_eq!(report.points().count(), 4);
        assert_eq!(report.runs.len(), 8, "every point at both worker counts");
        report.gate().expect("fs sweep contract");
        // The cache still works over real bytes: later epochs hit.
        for p in report.points() {
            assert!(p.num("steady_hit_ratio") > 0.0, "{p:?}");
            assert!(p.num("ssd_hit_ratio") > 0.0, "{p:?}");
            assert!(p.num("span_misses") > 0.0, "{p:?}");
            assert!(p.num("modelled_device_seconds") > 0.0, "{p:?}");
        }
    }

    #[test]
    fn gate_rejects_each_broken_io_contract() {
        let workload = Workload {
            axis: &[1],
            items: 128,
            ..tiny()
        };
        let report = run(&workload, None);
        // Runs, in grid order: ra=0/mem, ra=0/vfs, ra=8/mem, ra=8/vfs.
        let mut doctored = report.clone();
        doctored.runs[1].set_counter("manifest_present", 0, 0);
        let err = doctored.gate().unwrap_err();
        assert!(
            err.contains("ra=0p,ssd=vfs: spill manifest missing"),
            "{err}"
        );

        let mut doctored = report.clone();
        doctored.runs[1].set("span_misses", int(1));
        let err = doctored.gate().unwrap_err();
        assert!(err.contains("physical read counts differ"), "{err}");

        let mut doctored = report.clone();
        doctored.runs[3].set("vfs_writes", int(0));
        let err = doctored.gate().unwrap_err();
        assert!(err.contains("durable shadow issued no real I/O"), "{err}");

        let mut doctored = report.clone();
        let more = int(report.runs[0].num("span_misses") as u64 + 1);
        doctored.runs[2].set("span_misses", more.clone());
        doctored.runs[3].set("span_misses", more);
        let err = doctored.gate().unwrap_err();
        assert!(
            err.contains("a wider window must never read more often"),
            "{err}"
        );

        let mut doctored = report;
        doctored.runs[3].stream_digest ^= 1;
        let err = doctored.gate().unwrap_err();
        assert!(
            err.contains("fs-sweep/ra=8p,ssd=vfs: workers=1 delivered a different stream"),
            "{err}"
        );
    }
}
