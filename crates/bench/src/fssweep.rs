//! The tier-backing sweep over the *real-bytes* I/O path
//! (`coordl::FsBackend` over a [`Vfs`]): the `fs_sweep` row of
//! [`FIGURES`](crate::FIGURES).
//!
//! Where `tier_sweep` varies how much of the dataset the cache holds, this
//! sweep varies how the bytes *move*: the dataset is materialized once as a
//! page-aligned packed file and every fetch is a real positional read of the
//! item's exact extent (§3's I/O pattern discussion), while the SSD cache
//! level is either memory-backed or persisted through a [`SpillStore`] on
//! the same VFS.  Both points run on the deterministic in-memory [`MemVfs`]
//! at every worker count, and once more on real files ([`OsVfs`] under the
//! system temp directory), where every count must come out the same.  The
//! claim has three halves:
//!
//! * **correctness** — the delivered stream is a function of the workload
//!   alone: both backings on both file systems at every worker count must
//!   produce one identical stream (hashed into `stream_digest`) and equal
//!   counts;
//! * **the I/O shape** — the read traffic is exactly the cache's misses: on
//!   both backings the backend issues one physical read per tier miss, the
//!   VFS sees those reads and no others while the epochs run, and the bytes
//!   it returns are the session's `bytes_from_storage` (no alignment, no
//!   readahead, and a spill path that never changes what is read);
//! * **persistence** — the vfs-backed point must leave a spill directory
//!   behind that a reopened [`SpillStore`] lists entries from, and issue
//!   strictly more VFS writes than its memory-backed twin (the durable
//!   shadow is real I/O, not bookkeeping).
//!
//! Wall-clock `measured_device_seconds` never reach the table — machine-
//! dependent by design.

use crate::figures::FigureTable;
use crate::runtime::{
    bit_identical, count, drain_single, loader_counters, run_grid, table, Run, Workload,
};
use coordl::{ByteTierSpec, FetchBackend, FsBackend, Mode, Session};
use dataset::{DataSource, SyntheticItemStore};
use dcache::PolicyKind;
use pipeline::json::{int, num, text};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The row's sizes (a small decode multiplier: this row is fetch-shaped).
pub const WORKLOAD: Workload = Workload {
    items: 128,
    avg_item_bytes: 1024,
    decode_multiplier: 4,
    batch_size: 32,
    epochs: 3,
    seed: 0xF5D0,
    axis: &[1, 2],
};

/// The `fs_sweep` row: [`run`] at [`WORKLOAD`].
pub fn fs_sweep() -> FigureTable {
    run(&WORKLOAD)
}

/// Run the sweep: both backings at every worker count on the in-memory VFS,
/// then both at the first worker count on real files.
pub fn run(w: &Workload) -> FigureTable {
    let mut runs = run_grid(&PERSISTENT_SSD, w.axis, |&persistent, workers| {
        run_once(w, None, persistent, workers)
    });
    let root = os_root();
    runs.extend(PERSISTENT_SSD.map(|persistent| run_once(w, Some(&root), persistent, w.axis[0])));
    let _ = std::fs::remove_dir_all(&root);
    table(
        vec![("items", int(w.items)), ("epochs", int(w.epochs))],
        runs,
    )
}

/// A fresh directory under the system temp directory for one run's real
/// files (runs in one process never share one).
fn os_root() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let name = format!("datastalls-fs_sweep-{}-{run}", std::process::id());
    std::env::temp_dir().join(name)
}

fn run_once(w: &Workload, os_root: Option<&Path>, persistent: bool, workers: usize) -> Run {
    let spec = w.dataset("fs-sweep");
    let total_bytes = spec.total_bytes();
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 23));
    let backing = if persistent { "vfs" } else { "mem" };
    // Every run gets a fresh VFS (or a fresh OsVfs subdirectory): the sweep
    // gates cold-start equivalence; warm restarts are pinned elsewhere.
    let fs: Arc<dyn Vfs> = match os_root {
        Some(root) => {
            let sub = root.join(format!("{backing}-w{workers}"));
            Arc::new(OsVfs::new(sub).expect("fs_sweep needs a writable temp directory"))
        }
        None => Arc::new(MemVfs::new()),
    };
    let backend = Arc::new(
        FsBackend::new(Arc::clone(&fs), "data", store.as_ref(), 0)
            .expect("fs_sweep materialization must succeed")
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
        .expect("valid fs_sweep session");

    // What the VFS reads from here on is the epochs' traffic: the dataset is
    // materialized and the spill manifest replayed.
    let built = fs.stats();
    let (digest, wall_seconds) = drain_single(&session, w.epochs);
    let report = session.report();
    let vfs_stats = fs.stats();
    let mut counters = loader_counters(&session);
    counters.push(("persistent_ssd", int(persistent as u64)));
    // What a restart would find: the epochs' commits, replayed by a second
    // store (opening one modifies nothing, also where nothing was spilled).
    let recoverable = SpillStore::open(Arc::clone(&fs), "ssd").is_ok_and(|spill| !spill.is_empty());
    counters.push(("manifest_present", int(recoverable as u64)));
    let vfs = if os_root.is_some() { "os" } else { "mem" };
    let run = Run::new(&format!("ssd={backing}"), "workers", workers, digest).with([
        ("vfs", text(vfs)),
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
    ]);
    run.counted(counters, wall_seconds)
}

/// One stream and equal counts on both file systems at every worker count,
/// then the I/O-shape and persistence contracts (see the [module
/// docs](self)): on each backing the backend's and the VFS's reads are
/// exactly the tier's misses and the VFS's bytes exactly
/// `bytes_from_storage`; the spill manifest follows the backing; and the
/// vfs-backed point issues strictly more VFS writes than its memory-backed
/// twin.
pub fn fs_sweep_claim(t: &FigureTable) -> Result<(), String> {
    bit_identical(t, &["workers", "vfs"])?;
    let label = |r: usize| t.cell(r, "label").as_str().unwrap_or_default();
    for r in 0..t.rows.len() {
        let misses = t.num(r, "cache_misses");
        let from_storage = count(t, r, "bytes_from_storage");
        let (backend, vfs) = (t.num(r, "backend_reads"), t.num(r, "vfs_reads"));
        let bytes = t.num(r, "vfs_bytes_read");
        if backend != misses || vfs != misses || bytes != from_storage {
            return Err(format!(
                "{}: {misses} tier misses fetching {from_storage} bytes, but {backend} \
                 backend reads and {vfs} VFS reads of {bytes} bytes — every miss must be \
                 one exact-extent read",
                label(r)
            ));
        }
        let (persistent, manifest) = (
            count(t, r, "persistent_ssd"),
            count(t, r, "manifest_present"),
        );
        if manifest != persistent {
            let state = if manifest == 1.0 {
                "present without a vfs backing"
            } else {
                "missing"
            };
            return Err(format!(
                "{}: spill manifest {state} — persistence must follow the backing",
                label(r)
            ));
        }
    }
    let writes = |backing: &str| t.select("vfs_writes", "label", backing)[0];
    let (memory, durable) = (writes("ssd=mem"), writes("ssd=vfs"));
    if durable <= memory {
        return Err(format!(
            "ssd=vfs: {durable} VFS writes, no more than ssd=mem's {memory} — the durable \
             shadow issued no real I/O"
        ));
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
            avg_item_bytes: 512,
            ..WORKLOAD
        }
    }

    #[test]
    fn grid_shares_one_stream_and_spills_are_real_io() {
        let t = run(&tiny());
        assert_eq!(
            t.rows.len(),
            6,
            "both points at both worker counts, then on real files"
        );
        assert_eq!(t.select("workers", "vfs", "os"), [1.0, 1.0]);
        fs_sweep_claim(&t).expect("fs sweep contract");
        // The cache still works over real bytes: later epochs hit.
        for r in 0..t.rows.len() {
            assert!(t.num(r, "steady_hit_ratio") > 0.0, "{:?}", t.rows[r]);
            assert!(t.num(r, "ssd_hit_ratio") > 0.0, "{:?}", t.rows[r]);
            assert!(t.num(r, "backend_reads") > 0.0, "{:?}", t.rows[r]);
            assert!(t.num(r, "modelled_device_seconds") > 0.0, "{:?}", t.rows[r]);
        }
    }

    #[test]
    fn gate_rejects_each_broken_io_contract() {
        let t = run(&Workload {
            axis: &[1],
            items: 128,
            ..tiny()
        });
        // Rows: ssd=mem and ssd=vfs on the in-memory VFS, then on real files.
        let mut doctored = t.clone();
        doctor_counter(&mut doctored, 1, "manifest_present", int(0));
        let err = fs_sweep_claim(&doctored).unwrap_err();
        assert!(
            err.contains("ssd=vfs: workers=1,vfs=os produced counters"),
            "{err}"
        );
        doctor_counter(&mut doctored, 3, "manifest_present", int(0));
        let err = fs_sweep_claim(&doctored).unwrap_err();
        assert!(err.contains("ssd=vfs: spill manifest missing"), "{err}");

        // One read too many, or one byte, anywhere between tier and device.
        for field in [
            "backend_reads",
            "vfs_reads",
            "vfs_bytes_read",
            "cache_misses",
        ] {
            let mut doctored = t.clone();
            for r in [0, 2] {
                doctor(&mut doctored, r, field, int(t.num(r, field) as u64 + 1));
            }
            let err = fs_sweep_claim(&doctored).unwrap_err();
            assert!(
                err.contains("every miss must be one exact-extent read"),
                "{field}: {err}"
            );
        }

        let mut doctored = t.clone();
        for r in [1, 3] {
            doctor(&mut doctored, r, "vfs_writes", int(0));
        }
        let err = fs_sweep_claim(&doctored).unwrap_err();
        assert!(err.contains("durable shadow issued no real I/O"), "{err}");

        let mut doctored = t;
        doctor(&mut doctored, 1, "stream_digest", hex(1));
        let err = fs_sweep_claim(&doctored).unwrap_err();
        assert!(
            err.contains("ssd=vfs: workers=1,vfs=mem delivered a different stream"),
            "{err}"
        );
    }
}
