//! The tier-backing sweep over the *real-bytes* I/O path
//! (`coordl::FsBackend` over a [`Vfs`]): the preset behind
//! `dstool sweep fs-sweep` and part of `dstool smoke`.
//!
//! Where `tier-sweep` varies how much of the dataset the cache holds, this
//! sweep varies how the bytes *move*: the dataset is materialized once as a
//! page-aligned packed file and every fetch is a real positional read of the
//! item's exact extent (§3's I/O pattern discussion), while the SSD cache
//! level is either memory-backed or persisted through a
//! [`SpillStore`] on the same VFS.  Three contracts come
//! out of a run:
//!
//! * **a correctness gate** — the delivered stream is a function of the
//!   workload alone: both backings at every worker count must produce one
//!   identical stream (hashed into `stream_digest` and checked against
//!   `ci/bench_baseline.json`);
//! * **an I/O-shape gate** — the read traffic is exactly the cache's misses:
//!   on both backings the backend issues one physical read per tier miss,
//!   the VFS sees those reads and no others while the epochs run, and the
//!   bytes it returns are the session's `bytes_from_storage` (no alignment,
//!   no readahead, and a spill path that never changes what is read);
//! * **a persistence gate** — the vfs-backed point must leave a spill
//!   directory behind that a reopened [`SpillStore`] lists
//!   entries from, and issue strictly more VFS writes than its
//!   memory-backed twin (the durable shadow is real I/O, not bookkeeping).
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
use vfs::{MemVfs, OsVfs, SpillStore, Vfs};

/// SSD-level backings: `false` = in-memory, `true` = persisted to the VFS
/// through a spill store.
const PERSISTENT_SSD: [bool; 2] = [false, true];

/// DRAM tier capacity as percent of the dataset.
const DRAM_PERCENT: u64 = 25;

/// SSD tier capacity as percent of the dataset.
const SSD_PERCENT: u64 = 35;

/// The registry row of `dstool sweep fs-sweep` (a small decode multiplier:
/// this preset is fetch-shaped).  `dstool smoke` always runs it on the
/// deterministic in-memory [`MemVfs`]; `--os-root` moves the same two points
/// onto an [`OsVfs`] rooted there (one subdirectory per run), where every
/// emitted value must come out the same.
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "fs-sweep",
    paper: "§3 / Fig 5-7 (fetch stalls are real I/O)",
    description: "runtime real-bytes I/O: FsBackend Sessions over a VFS, memory- vs \
                  vfs-backed SSD tier; every fetch one exact-extent read, physical \
                  reads == tier misses and on-disk spill manifests gated, one stream \
                  for both backings",
    points: PERSISTENT_SSD.len(),
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

/// Run the sweep: both backings at every worker count, on real files under
/// `os_root` when given.
pub fn run(w: &Workload, os_root: Option<&Path>) -> PresetReport {
    let vfs = if os_root.is_some() { "os" } else { "mem" };
    PresetReport {
        preset: &PRESET,
        header: vec![
            ("items", int(w.items)),
            ("epochs", int(w.epochs)),
            ("vfs", text(vfs)),
        ],
        runs: run_grid(&PERSISTENT_SSD, w.axis, |&persistent, workers| {
            run_once(w, os_root, persistent, workers)
        }),
    }
}

fn run_once(w: &Workload, os_root: Option<&Path>, persistent: bool, workers: usize) -> PointResult {
    let spec = w.dataset(PRESET.name);
    let total_bytes = spec.total_bytes();
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 23));
    let backing = if persistent { "vfs" } else { "mem" };
    // Every run gets a fresh VFS (or a fresh OsVfs subdirectory): the sweep
    // gates cold-start equivalence; warm restarts are pinned elsewhere.
    let fs: Arc<dyn Vfs> = match os_root {
        Some(root) => {
            let sub = root.join(format!("{backing}-w{workers}"));
            Arc::new(OsVfs::new(sub).expect("fs-sweep OS root must be writable"))
        }
        None => Arc::new(MemVfs::new()),
    };
    let backend = Arc::new(
        FsBackend::new(Arc::clone(&fs), "data", store.as_ref(), 0)
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

    // What the VFS reads from here on is the epochs' traffic: the dataset is
    // materialized and the spill manifest replayed.
    let built = fs.stats();
    let (stream_digest, _) = drain_single(&session, w.epochs);
    let report = session.report();
    let vfs_stats = fs.stats();
    let label = format!("ssd={backing}");
    let mut counters = loader_counters(&session);
    counters.push(("persistent_ssd", persistent as u64));
    // What a restart would find: the epochs' commits, replayed by a second
    // store (opening one modifies nothing, also where nothing was spilled).
    let recoverable = SpillStore::open(Arc::clone(&fs), "ssd").is_ok_and(|spill| !spill.is_empty());
    counters.push(("manifest_present", recoverable as u64));
    PointResult {
        fields: vec![
            ("label", text(&label)),
            ("steady_hit_ratio", num(report.steady_hit_ratio())),
            ("ssd_hit_ratio", num(report.steady_lower_tier_hit_ratio())),
            ("steady_disk_bytes", num(report.steady_storage_bytes())),
            ("cache_misses", int(report.cache_misses)),
            ("backend_reads", int(backend.span_misses())),
            ("vfs_reads", int(vfs_stats.reads - built.reads)),
            (
                "vfs_bytes_read",
                int(vfs_stats.bytes_read - built.bytes_read),
            ),
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
/// on each backing the backend's and the VFS's reads are exactly the tier's
/// misses and the VFS's bytes exactly `bytes_from_storage`; the spill
/// manifest follows the backing; and the vfs-backed point issues strictly
/// more VFS writes than its memory-backed twin.
fn shape(report: &PresetReport) -> Result<(), String> {
    let mut points: Vec<&PointResult> = report.points().collect();
    points.sort_by_key(|p| p.counter("persistent_ssd"));
    for p in &points {
        let misses = p.num("cache_misses");
        let from_storage = p.counter("bytes_from_storage") as f64;
        if p.num("backend_reads") != misses
            || p.num("vfs_reads") != misses
            || p.num("vfs_bytes_read") != from_storage
        {
            return Err(format!(
                "{}: {} tier misses fetching {} bytes, but {} backend reads and {} VFS \
                 reads of {} bytes — every miss must be one exact-extent read",
                p.label,
                misses,
                from_storage,
                p.num("backend_reads"),
                p.num("vfs_reads"),
                p.num("vfs_bytes_read")
            ));
        }
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
        assert_eq!(report.points().count(), 2);
        assert_eq!(report.runs.len(), 4, "every point at both worker counts");
        report.gate().expect("fs sweep contract");
        // The cache still works over real bytes: later epochs hit.
        for p in report.points() {
            assert!(p.num("steady_hit_ratio") > 0.0, "{p:?}");
            assert!(p.num("ssd_hit_ratio") > 0.0, "{p:?}");
            assert!(p.num("backend_reads") > 0.0, "{p:?}");
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
        // Runs, in grid order: ssd=mem, ssd=vfs.
        let mut doctored = report.clone();
        doctored.runs[1].set_counter("manifest_present", 0, 0);
        let err = doctored.gate().unwrap_err();
        assert!(err.contains("ssd=vfs: spill manifest missing"), "{err}");

        // One read too many, or one byte, anywhere between tier and device.
        for (run, field) in [
            (0, "backend_reads"),
            (1, "vfs_reads"),
            (1, "vfs_bytes_read"),
            (0, "cache_misses"),
        ] {
            let mut doctored = report.clone();
            let more = int(report.runs[run].num(field) as u64 + 1);
            doctored.runs[run].set(field, more);
            let err = doctored.gate().unwrap_err();
            assert!(
                err.contains("every miss must be one exact-extent read"),
                "{field}: {err}"
            );
        }

        let mut doctored = report.clone();
        doctored.runs[1].set("vfs_writes", int(0));
        let err = doctored.gate().unwrap_err();
        assert!(err.contains("durable shadow issued no real I/O"), "{err}");

        let mut doctored = report;
        doctored.runs[1].stream_digest ^= 1;
        let err = doctored.gate().unwrap_err();
        assert!(
            err.contains("fs-sweep/ssd=vfs: workers=1 delivered a different stream"),
            "{err}"
        );
    }
}
