//! Crash-recovery properties of [`vfs::SpillStore`].
//!
//! The store commits in groups, so a crash can no longer be modelled by
//! "every payload intact, the manifest cut somewhere": bytes that were never
//! synced may be gone, in any file.  [`CrashVfs`] keeps, per file, the image
//! as of its last sync and the writes since, and yields the disk a power cut
//! would leave — a seeded subset of the unsynced writes, the last one torn.
//! Over random streams of write / rewrite / remove / flush / reopen, cut
//! before every single VFS mutation (so inside group commits, checkpoints,
//! compaction moves and segment reclamation alike) and after every
//! operation, reopening must
//!
//! * (a) never fail;
//! * (b) serve, for every recovered key, byte for byte a payload that was
//!   written under it;
//! * (c) recover the store's state at *some* point of its own history, no
//!   earlier than the last commit that completed before the cut — nothing
//!   committed is lost, no committed removal comes back;
//! * (d) leave a store that takes writes again, and that a second, clean
//!   reopen finds exactly as it was left.
//!
//! These are the invariants the persistent SSD tier's warm restart leans on.

#[path = "common/crash_vfs.rs"]
mod crash_vfs;
#[path = "common/spill_model.rs"]
mod spill_model;

use crash_vfs::{Crash, CrashVfs};
use proptest::prelude::*;
use spill_model::{holds, payload, splitmix, Model};
use std::sync::Arc;
use vfs::{MemVfs, SpillStore, Vfs};

/// Proptest case count: `PROPTEST_CASES` if set (the CI extended leg boosts
/// it), the given default otherwise.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const DIR: &str = "spill";
const SEG: usize = SpillStore::SEGMENT_BYTES as usize;

/// Payload lengths relative to a segment, so that a few dozen writes roll
/// the head several times, leave segments sparse and now and then need one
/// of their own; and two that fit anywhere.
const LENGTHS: [usize; 12] = [
    SEG / 16,
    SEG / 16,
    SEG / 8,
    SEG / 8,
    SEG / 5,
    SEG / 5,
    SEG / 3,
    SEG / 3,
    SEG / 2 + 1,
    SEG + SEG / 4,
    100,
    0,
];

/// Properties (a) to (d) for one crash image: it must reopen to one of
/// `candidates`, the store's states from the last completed commit on.
fn check_crash(crash: Crash, candidates: &[Model], what: &str) {
    let disk: Arc<dyn Vfs> = Arc::new(crash.disk);
    let mut store = SpillStore::open(Arc::clone(&disk), DIR)
        .unwrap_or_else(|e| panic!("{what}: reopening after a crash failed: {e}"));
    let Some(recovered) = candidates.iter().rev().find(|model| holds(&store, model)) else {
        panic!(
            "{what}: recovered {:?}, none of the {} states since the last commit: {:?}",
            store.entries().collect::<Vec<_>>(),
            candidates.len(),
            candidates
        );
    };
    // (d) The recovered store is a working store.
    let mut expected = recovered.clone();
    if let Some((&doomed, _)) = expected.iter().next() {
        store.remove(doomed).unwrap();
        expected.remove(&doomed);
    }
    store.write(1000, &payload(1000, 0, SEG / 7)).unwrap();
    expected.insert(1000, (0, SEG / 7));
    assert!(holds(&store, &expected), "{what}: after recovery");
    drop(store);
    let reopened = SpillStore::open(disk, DIR).unwrap();
    assert!(holds(&reopened, &expected), "{what}: second, clean reopen");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    #[test]
    fn a_crash_at_any_point_recovers_a_state_no_older_than_the_last_commit(
        ops in 30usize..=90,
        keys in 2u64..=6,
        seed in 0u64..u64::MAX,
    ) {
        let crashing = Arc::new(CrashVfs::new());
        crashing.capture_crashes(seed);
        let vfs: Arc<dyn Vfs> = Arc::clone(&crashing) as Arc<dyn Vfs>;
        let mut rng = seed;
        let mut store = SpillStore::open(Arc::clone(&vfs), DIR).unwrap();
        // `history[i]` is the model before operation `i`.
        let mut history: Vec<Model> = vec![Model::new()];
        let mut versions = 0u64;
        // Every state before `history[floor]` is older than a completed
        // commit: a manifest sync during operation `i` made everything
        // before `i` durable.
        let (mut floor, mut commits) = (0usize, 0u64);
        for op in 0..ops {
            let mut model = history[op].clone();
            let key = splitmix(&mut rng) % keys;
            let what = match splitmix(&mut rng) % 10 {
                0..=5 => {
                    let len = LENGTHS[splitmix(&mut rng) as usize % LENGTHS.len()];
                    versions += 1;
                    store.write(key, &payload(key, versions, len)).unwrap();
                    model.insert(key, (versions, len));
                    format!("write {key} ({len} bytes)")
                }
                6..=7 => {
                    store.remove(key).unwrap();
                    model.remove(&key);
                    format!("remove {key}")
                }
                8 => {
                    store.flush().unwrap();
                    "flush".to_string()
                }
                _ => {
                    drop(store);
                    store = SpillStore::open(Arc::clone(&vfs), DIR).unwrap();
                    prop_assert!(holds(&store, &model), "op {}: a clean restart", op);
                    "reopen".to_string()
                }
            };
            history.push(model);
            let label = |cut: &str| format!("seed {seed}, op {op} ({what}), cut {cut}");
            for (nth, crash) in crashing.take_crashes().into_iter().enumerate() {
                if crash.manifest_syncs > commits {
                    (commits, floor) = (crash.manifest_syncs, op);
                }
                check_crash(crash, &history[floor..], &label(&nth.to_string()));
            }
            let after = crashing.crash(splitmix(&mut rng));
            if after.manifest_syncs > commits {
                (commits, floor) = (after.manifest_syncs, op);
            }
            // What returned is known: a flush and a clean restart leave
            // nothing uncommitted.
            if what == "flush" || what == "reopen" {
                floor = op + 1;
            }
            check_crash(after, &history[floor..], &label("after"));
        }
        drop(store);
        let last = history.last().unwrap();
        prop_assert!(holds(&SpillStore::open(vfs, DIR).unwrap(), last));
    }
}

fn read_file(vfs: &Arc<dyn Vfs>, path: &str) -> Vec<u8> {
    let file = vfs.open(path, false).unwrap();
    let bytes = vfs
        .read_at(file, 0, vfs.len(file).unwrap() as usize)
        .unwrap();
    vfs.close(file).unwrap();
    bytes
}

fn write_file(vfs: &Arc<dyn Vfs>, path: &str, bytes: &[u8]) {
    let file = vfs.open(path, true).unwrap();
    vfs.write_at(file, 0, bytes).unwrap();
    vfs.close(file).unwrap();
}

/// The crash the per-key-file store's proptest modelled, as one case of the
/// model above: every segment synced, the manifest append cut — here at
/// *every* byte, through the checkpoint and through the records after it.
#[test]
fn a_manifest_torn_at_any_byte_never_serves_a_corrupt_payload() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let mut history: Vec<Model> = vec![Model::new()];
    {
        let mut store = SpillStore::open(Arc::clone(&vfs), DIR).unwrap();
        let mut model = Model::new();
        for step in 0..24u64 {
            let key = step % 7;
            if step % 5 == 4 {
                store.remove(key).unwrap();
                model.remove(&key);
            } else {
                let len = 1 + (step as usize * 37) % 300;
                store.write(key, &payload(key, step, len)).unwrap();
                model.insert(key, (step, len));
            }
            store.flush().unwrap();
            history.push(model.clone());
        }
    }
    let manifest = read_file(&vfs, &format!("{DIR}/MANIFEST"));
    let segment = read_file(&vfs, &format!("{DIR}/seg-0.dat"));
    assert!(!vfs.exists(&format!("{DIR}/MANIFEST.1")), "one generation");
    let mut recovered_up_to = 0;
    for cut in 0..=manifest.len() {
        let torn: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        write_file(&torn, &format!("{DIR}/MANIFEST"), &manifest[..cut]);
        write_file(&torn, &format!("{DIR}/seg-0.dat"), &segment);
        let store = SpillStore::open(torn, DIR).expect("replay never fails");
        // A longer prefix never recovers an older state, and what it
        // recovers is a state the store was in, byte for byte.
        let state = (recovered_up_to..history.len())
            .find(|&state| holds(&store, &history[state]))
            .unwrap_or_else(|| panic!("cut at {cut}: not a state at or after {recovered_up_to}"));
        recovered_up_to = state;
    }
    assert_eq!(recovered_up_to, history.len() - 1, "the whole manifest");
}

#[test]
fn a_rewritten_store_over_a_torn_manifest_is_fully_usable() {
    // Recovery is not read-only: after reopening over a torn manifest the
    // store must accept writes again, and a further clean reopen sees them.
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    {
        let mut store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
        store.write(1, &payload(1, 0, 200)).unwrap();
        store.flush().unwrap();
        store.write(2, &payload(2, 0, 300)).unwrap();
    }
    // Tear off the last byte of key 2's record (the newline).
    let path = "d/MANIFEST";
    let full = read_file(&vfs, path);
    vfs.remove(path).unwrap();
    write_file(&vfs, path, &full[..full.len() - 1]);

    let mut store = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
    assert_eq!(store.read(1).unwrap(), payload(1, 0, 200));
    // A record without its newline is still whole (its checksum is all
    // there), so key 2 survived with the right bytes.
    assert_eq!(store.read(2).unwrap(), payload(2, 0, 300));
    store.write(3, &payload(3, 0, 100)).unwrap();
    store.remove(1).unwrap();
    drop(store);

    let reopened = SpillStore::open(Arc::clone(&vfs), "d").unwrap();
    assert!(!reopened.contains(1));
    assert_eq!(reopened.read(2).unwrap(), payload(2, 0, 300));
    assert_eq!(reopened.read(3).unwrap(), payload(3, 0, 100));
}
