//! I/O budget of the persistent tier's spill path (ISSUE 19): what a cache
//! miss costs *beside* its read.  The gates are counts, not timings, so they
//! run on every host (in the spirit of `alloc_budget.rs`): VFS operations
//! per landing, VFS reads against cache misses, and the bytes the spill
//! directory holds after many epochs of churn.  The churn session's I/O over
//! three warm epochs is pinned exactly, and after every epoch the reopened
//! store must hold exactly the SSD level's keys.
//!
//! The session has `dsbench`'s `tier_spill_churn` shape — LRU DRAM (15 %)
//! over a persistent LRU SSD level (35 %), 32 KiB items in batches of 32,
//! one fetch thread, `FsBackend` on a `MemVfs` — over a dataset small enough
//! for a debug build.

use datastalls::cache::PolicyKind;
use datastalls::coordl::{
    ByteTierSpec, CacheTier, FsBackend, Session, SessionConfig, TieredByteCache,
};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use datastalls::prep::{ExecutablePipeline, PrepPipeline, TransformKind};
use std::sync::Arc;
use vfs::{MemVfs, SpillStore, Vfs, VfsStats};

const ITEMS: u64 = 512;
const ITEM_BYTES: u64 = 32 * 1024;
const SEGMENT: u64 = SpillStore::SEGMENT_BYTES;

fn file_len(vfs: &Arc<dyn Vfs>, path: &str) -> u64 {
    let Ok(file) = vfs.open(path, false) else {
        return 0;
    };
    let len = vfs.len(file).unwrap();
    vfs.close(file).unwrap();
    len
}

/// Bytes of the segment files under `dir` (their numbers only grow, and far
/// slower than this probe's range under recycling).
fn segment_bytes(vfs: &Arc<dyn Vfs>, dir: &str) -> u64 {
    (0..1024)
        .map(|n| file_len(vfs, &format!("{dir}/seg-{n}.dat")))
        .sum()
}

fn manifest_bytes(vfs: &Arc<dyn Vfs>, dir: &str) -> u64 {
    file_len(vfs, &format!("{dir}/MANIFEST")) + file_len(vfs, &format!("{dir}/MANIFEST.1"))
}

/// The session, its tier (held here to read the SSD level's keys) and the
/// SSD level's capacity.
fn churn_session(vfs: &Arc<dyn Vfs>) -> (Session, Arc<TieredByteCache>, u64) {
    let spec = DatasetSpec::new("spill-io-budget", ITEMS, ITEM_BYTES, 0.0, 1.0);
    let total = spec.total_bytes();
    let dataset: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 11));
    let backend = FsBackend::new(Arc::clone(vfs), "data", dataset.as_ref(), 0)
        .expect("materialise on a MemVfs");
    let ssd_bytes = total * 35 / 100;
    let tier = Arc::new(
        TieredByteCache::try_new(vec![
            ByteTierSpec::dram(PolicyKind::Lru, total * 15 / 100),
            ByteTierSpec::sata_ssd(PolicyKind::Lru, ssd_bytes).persistent(Arc::clone(vfs), "ssd"),
        ])
        .expect("opening a spill directory modifies nothing"),
    );
    let session = Session::builder(
        dataset,
        SessionConfig {
            batch_size: 32,
            num_workers: 1,
            prefetch_depth: 4,
            fetch_threads: 1,
            ..SessionConfig::default()
        },
    )
    .cache_tier(Arc::clone(&tier) as Arc<dyn CacheTier>)
    .fetch_backend(Arc::new(backend))
    .pipeline(ExecutablePipeline::new(
        PrepPipeline {
            name: "crop-only".to_string(),
            transforms: vec![TransformKind::RandomResizedCrop],
        },
        1,
        3,
    ))
    .build()
    .expect("valid session");
    (session, tier, ssd_bytes)
}

fn run_epoch(session: &Session, epoch: u64) {
    let run = session.epoch(epoch);
    let delivered: usize = run
        .stream(0)
        .map(|batch| batch.expect("no fetch fails here").samples.len())
        .sum();
    assert_eq!(delivered as u64, ITEMS);
}

/// (cache misses, landings in the SSD level) so far.
fn misses_and_landings(session: &Session) -> (u64, u64) {
    let report = session.report();
    (report.cache_misses, session.tier_levels()[1].demoted_in)
}

/// `(reads, writes, bytes written, syncs)` from `before` to `now`.
fn since(now: VfsStats, before: VfsStats) -> [u64; 4] {
    [
        now.reads - before.reads,
        now.writes - before.writes,
        now.bytes_written - before.bytes_written,
        now.syncs - before.syncs,
    ]
}

/// Run `epoch`, then check that the SSD level's store, reopened, holds
/// exactly the keys the level holds: every spill op the epoch issued was
/// applied, once and in order, by the time its end committed them.  Returns
/// the epoch's own VFS I/O (the reopen's reads not counted).
fn run_checked_epoch(
    session: &Session,
    tier: &TieredByteCache,
    vfs: &Arc<dyn Vfs>,
    epoch: u64,
) -> [u64; 4] {
    let before = vfs.stats();
    run_epoch(session, epoch);
    let io = since(vfs.stats(), before);
    let store = SpillStore::open(Arc::clone(vfs), "ssd").unwrap();
    let on_disk: Vec<u64> = store.entries().map(|(key, _)| key).collect();
    assert_eq!(on_disk, tier.resident_keys(1), "epoch {epoch}");
    io
}

#[test]
fn a_landing_costs_about_one_write_and_the_directory_stays_bounded() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let (session, tier, ssd_bytes) = churn_session(&vfs);
    run_checked_epoch(&session, &tier, &vfs, 0);

    // Three warm epochs, as `dsbench` counts them.
    let counted = misses_and_landings(&session);
    let mut io = [0; 4];
    for epoch in 1..=3 {
        let epoch_io = run_checked_epoch(&session, &tier, &vfs, epoch);
        io = std::array::from_fn(|i| io[i] + epoch_io[i]);
    }
    // The exact I/O of the three epochs: the spill ops their accesses
    // issue, each applied once and in order, whichever thread applies them.
    assert_eq!(
        io,
        [1_341, 1_392, 44_072_065, 90],
        "(reads, writes, bytes, syncs)"
    );
    let [reads, writes, _, syncs] = io;
    let (misses, landings) = misses_and_landings(&session);
    let (misses, landings) = (misses - counted.0, landings - counted.1);
    assert!(landings > 3 * ITEMS / 2, "the SSD level churns: {landings}");
    // One read per miss.  The spill path reads only to compact: LRU churn
    // leaves segments about half live, right at the bound, so now and then a
    // last survivor is moved out of an old segment — a handful of reads.
    assert!(
        reads >= misses && (reads - misses) * 100 <= landings,
        "{reads} reads for {misses} misses and {landings} landings"
    );
    // One payload write per landing, and a group of 32 shares one segment
    // barrier, one manifest write and one manifest barrier: 35 / 32.
    assert!(
        (writes + syncs) * 10 <= landings * 12,
        "{writes} writes + {syncs} syncs for {landings} landings"
    );

    // Nine more epochs: the manifest is checkpointed, dead segments reused.
    for epoch in 4..=12 {
        run_checked_epoch(&session, &tier, &vfs, epoch);
    }
    let resident = session.tier_levels()[1].resident_items as u64;
    let manifest = manifest_bytes(&vfs, "ssd");
    assert!(manifest > 0, "there is a manifest");
    assert!(
        manifest <= 64 * (2 * resident + 64),
        "{manifest} manifest bytes for {resident} resident records"
    );
    let segments = segment_bytes(&vfs, "ssd");
    assert!(segments >= resident * ITEM_BYTES);
    assert!(
        segments <= 2 * ssd_bytes + 4 * SEGMENT,
        "{segments} segment bytes for a level of {ssd_bytes}"
    );
    assert_eq!(session.cache_tier().unwrap().flush(), Ok(()));
}

/// A hit pattern that keeps a few entries of every segment alive, so that no
/// segment ever dies whole: only compaction can bound the directory, and
/// what it reads and rewrites is counted.
#[test]
fn segments_kept_alive_by_a_few_hot_entries_are_compacted() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    // A single persistent LRU level: a hit refreshes an entry where it lies.
    let capacity = 64 * ITEM_BYTES;
    let tier = TieredByteCache::try_new(vec![
        ByteTierSpec::sata_ssd(PolicyKind::Lru, capacity).persistent(Arc::clone(&vfs), "hot")
    ])
    .unwrap();
    let payload = |item: u64| Arc::new(vec![item as u8; ITEM_BYTES as usize]);
    let mut hot: Vec<u64> = Vec::new();
    for item in 0..640u64 {
        assert!(tier.lookup(item).is_none());
        tier.admit(item, payload(item));
        // Every eighth item stays hot for as long as it is among the last
        // 32 of them: four survivors in each 32-item segment.
        if item % 8 == 0 {
            hot.push(item);
        }
        for &item in hot.iter().rev().take(32) {
            assert!(
                tier.lookup(item).is_some(),
                "hot item {item} stays resident"
            );
        }
        let segments = segment_bytes(&vfs, "hot");
        assert!(
            segments <= 2 * capacity + 4 * SEGMENT,
            "{segments} segment bytes at item {item}"
        );
    }
    tier.flush().unwrap();
    let stats = vfs.stats();
    assert!(stats.reads > 0, "compaction moved the survivors");
    // It moves at most half a segment to free a whole one.
    assert!(
        stats.bytes_written <= 2 * 640 * ITEM_BYTES,
        "{} bytes written for {} admitted",
        stats.bytes_written,
        640 * ITEM_BYTES
    );
    drop(tier);
    let store = SpillStore::open(Arc::clone(&vfs), "hot").unwrap();
    assert_eq!(store.len(), 64, "the level is full");
    for (key, _) in store.entries() {
        assert_eq!(store.read(key).unwrap(), *payload(key), "item {key}");
    }
}
