//! Injected I/O faults on the spill path: a write, a barrier or a remove
//! that fails (a full disk, a transient error) must never panic or hang the
//! loader, never change what it delivers, and never leave a directory that
//! reopens to anything but a state the store was in.
//!
//! Every fault position is tried: the test first counts the mutations a
//! fault-free run issues, then fails the N-th for every N.

#[path = "common/crash_vfs.rs"]
mod crash_vfs;
#[path = "common/spill_model.rs"]
mod spill_model;

use benchkit::runtime::StreamDigest;
use crash_vfs::{CrashVfs, Fault};
use datastalls::cache::PolicyKind;
use datastalls::coordl::{ByteTierSpec, CoordlError, Session, SessionConfig};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use datastalls::prep::{ExecutablePipeline, PrepPipeline, TransformKind};
use spill_model::{holds, payload, Model};
use std::sync::Arc;
use vfs::{SpillStore, Vfs};

const SEG: usize = SpillStore::SEGMENT_BYTES as usize;

/// A fixed script that rolls, recycles, compacts and checkpoints: 80 steps
/// over five keys.  Runs until the first failed call when `stop_at_error`,
/// else to the end, keeping the model in step with what the store says it
/// holds after a failed call.  Returns every state the store was in, and
/// the store.
fn run_script(vfs: &Arc<dyn Vfs>, stop_at_error: bool) -> (Vec<Model>, SpillStore) {
    let mut store = SpillStore::open(Arc::clone(vfs), "s").expect("open modifies nothing");
    let mut history = vec![Model::new()];
    for step in 0..80u64 {
        let mut model = history.last().unwrap().clone();
        let key = (step * 7) % 5;
        let outcome = if step % 4 == 3 {
            model.remove(&key);
            store.remove(key)
        } else {
            let len = [SEG / 8, SEG / 4, 100, SEG / 12][step as usize % 4];
            model.insert(key, (step, len));
            store
                .write(key, &payload(key, step, len))
                .and_then(|()| match step % 10 {
                    0 => store.flush(),
                    _ => Ok(()),
                })
        };
        if outcome.is_err() {
            // The call failed before or after the store took the change
            // in: either way it holds one of the two states.
            if !holds(&store, &model) {
                model = history.last().unwrap().clone();
                assert!(holds(&store, &model), "step {step}: neither state");
            }
            if stop_at_error {
                history.push(model);
                break;
            }
        }
        history.push(model);
    }
    (history, store)
}

#[test]
fn every_failed_mutation_leaves_a_state_of_the_stores_history() {
    let counting = Arc::new(CrashVfs::new());
    let (clean, store) = run_script(&(Arc::clone(&counting) as Arc<dyn Vfs>), false);
    drop(store);
    let mutations = counting.mutations();
    assert!(
        mutations > 80,
        "the script exercises the store: {mutations}"
    );
    let reopened = SpillStore::open(counting.live(), "s").unwrap();
    assert!(holds(&reopened, clean.last().unwrap()));

    for nth in 0..mutations {
        // A disk that fills up: the first error ends the store's use (as
        // the tier ends it); what reopens is a state it went through.
        let full = Arc::new(CrashVfs::failing(Fault::From(nth)));
        let (history, store) = run_script(&(Arc::clone(&full) as Arc<dyn Vfs>), true);
        drop(store);
        let store = SpillStore::open(full.live(), "s")
            .unwrap_or_else(|e| panic!("full disk at {nth}: reopen failed: {e}"));
        assert!(
            history.iter().any(|state| holds(&store, state)),
            "full disk at {nth}: reopened to {:?}",
            store.entries().collect::<Vec<_>>()
        );
        // A transient error: the store stays in use, later commits retry
        // what failed, and a flush that returns `Ok` (the second, if the
        // error was kept for the first) leaves exactly the final state.
        let flaky = Arc::new(CrashVfs::failing(Fault::Only(nth)));
        let (history, mut store) = run_script(&(Arc::clone(&flaky) as Arc<dyn Vfs>), false);
        store.flush().or_else(|_| store.flush()).expect("one fault");
        drop(store);
        let store = SpillStore::open(flaky.live(), "s")
            .unwrap_or_else(|e| panic!("transient error at {nth}: reopen failed: {e}"));
        assert!(
            holds(&store, history.last().unwrap()),
            "transient error at {nth}: reopened to {:?}, expected {:?}",
            store.entries().collect::<Vec<_>>(),
            history.last().unwrap()
        );
    }
}

/// A checkpoint whose barrier failed may sit whole in its manifest slot,
/// one generation ahead of the manifest in use.  Commits after it must not
/// be appended behind its back, or the next open would take the stale
/// checkpoint for the newest state.  The script makes its last flush the
/// first one to checkpoint, then grows the store so that an append would be
/// chosen again; the fault is tried at every position, that checkpoint's
/// barrier among them.
#[test]
fn a_failed_checkpoint_never_shadows_later_commits() {
    let script = |vfs: &Arc<dyn Vfs>| -> Model {
        let mut store = SpillStore::open(Arc::clone(vfs), "s").unwrap();
        let mut model = Model::new();
        let mut put = |store: &mut SpillStore, key: u64, version: u64| {
            model.insert(key, (version, 64));
            let bytes = payload(key, version, 64);
            store
                .write(key, &bytes)
                .or_else(|_| store.write(key, &bytes))
                .expect("one fault");
        };
        // One record a flush, over three keys: the 39th record is the first
        // to exceed twice the live records plus the store's slack of 32.
        for version in 0..38 {
            put(&mut store, version % 3, version);
            let _ = store.flush(); // a failed one keeps its records queued
        }
        assert!(!vfs.exists("s/MANIFEST.1"), "no checkpoint was due yet");
        put(&mut store, 2, 38);
        let _ = store.flush();
        for key in 3..24 {
            put(&mut store, key, 0);
        }
        store.flush().or_else(|_| store.flush()).expect("one fault");
        model
    };
    let counting = Arc::new(CrashVfs::new());
    script(&(Arc::clone(&counting) as Arc<dyn Vfs>));
    assert!(counting.live().exists("s/MANIFEST.1"), "the last one was");
    for nth in 0..counting.mutations() {
        let flaky = Arc::new(CrashVfs::failing(Fault::Only(nth)));
        let model = script(&(Arc::clone(&flaky) as Arc<dyn Vfs>));
        let store = SpillStore::open(flaky.live(), "s").unwrap();
        assert!(
            holds(&store, &model),
            "fault at {nth}: reopened to {:?}",
            store.entries().collect::<Vec<_>>()
        );
    }
}

const ITEMS: u64 = 64;
const ITEM_BYTES: u64 = 48 * 1024;

/// The spill directories of the session `run_epoch` builds: one per cache
/// shard, and a session with two fetch threads splits its cache into eight.
fn spill_dirs(fetch_threads: usize) -> Vec<String> {
    match fetch_threads {
        1 => vec!["ssd".to_string()],
        _ => (0..8).map(|shard| format!("ssd/shard-{shard}")).collect(),
    }
}

/// One epoch of a `tier_spill_churn`-shaped session over `vfs`: the stream
/// digest, what `flush` says afterwards, and the dataset for comparison.
fn run_epoch(
    vfs: &Arc<dyn Vfs>,
    fetch_threads: usize,
) -> (u64, Result<(), CoordlError>, Arc<dyn DataSource>) {
    let spec = DatasetSpec::new("spill-faults", ITEMS, ITEM_BYTES, 0.0, 1.0);
    let total = spec.total_bytes();
    let dataset: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 3));
    let session = Session::builder(
        Arc::clone(&dataset),
        SessionConfig {
            batch_size: 8,
            num_workers: 1,
            seed: 17,
            fetch_threads,
            ..SessionConfig::default()
        },
    )
    .cache_tiers(vec![
        ByteTierSpec::dram(PolicyKind::Lru, total * 15 / 100),
        ByteTierSpec::sata_ssd(PolicyKind::Lru, total * 35 / 100)
            .persistent(Arc::clone(vfs), "ssd"),
    ])
    // The cheapest prep: this test runs the epoch once per fault position.
    .pipeline(ExecutablePipeline::new(
        PrepPipeline {
            name: "crop-only".to_string(),
            transforms: vec![TransformKind::RandomResizedCrop],
        },
        1,
        3,
    ))
    .build()
    .expect("opening a spill directory modifies nothing");
    let mut digest = StreamDigest::default();
    let mut delivered = 0;
    {
        let run = session.epoch(0);
        for batch in run.stream(0) {
            let batch = batch.expect("a spill fault never reaches the stream");
            delivered += batch.samples.len() as u64;
            digest.absorb(&batch);
        }
    }
    assert_eq!(delivered, ITEMS, "no sample lost");
    let flushed = session.cache_tier().expect("single mode").flush();
    (digest.finish(), flushed, dataset)
}

/// Every fault position, with one fetch thread (one shard, one store) and
/// with two (eight shards, whose stores one writer thread serves in the
/// order their batches arrive).
#[test]
fn a_failed_spill_op_never_panics_hangs_or_changes_the_stream() {
    for fetch_threads in [1, 2] {
        let dirs = spill_dirs(fetch_threads);
        let counting = Arc::new(CrashVfs::new());
        let (clean_digest, flushed, _) =
            run_epoch(&(Arc::clone(&counting) as Arc<dyn Vfs>), fetch_threads);
        assert_eq!(flushed, Ok(()));
        let mutations = counting.mutations();
        assert!(mutations > 40, "the epoch spills: {mutations} mutations");

        for nth in 0..mutations {
            for fault in [Fault::From(nth), Fault::Only(nth)] {
                let failing = Arc::new(CrashVfs::failing(fault));
                let (digest, flushed, dataset) =
                    run_epoch(&(Arc::clone(&failing) as Arc<dyn Vfs>), fetch_threads);
                let case = format!("{fetch_threads} fetch thread(s), {fault:?}");
                assert_eq!(digest, clean_digest, "{case}: the stream is unaffected");
                match flushed {
                    Err(CoordlError::SpillIo { dir, detail }) => {
                        assert!(dirs.contains(&dir), "{case}: {dir}");
                        assert!(detail.contains("injected fault"), "{case}: {detail}");
                    }
                    other => panic!("{case}: flush must report the spill failure, got {other:?}"),
                }
                // What is on disk is a cache of the dataset and nothing else.
                for dir in &dirs {
                    let store = SpillStore::open(failing.live(), dir)
                        .unwrap_or_else(|e| panic!("{case}: reopen of {dir} failed: {e}"));
                    for (key, len) in store.entries() {
                        assert_eq!(len, ITEM_BYTES, "{case}: item {key}");
                        assert_eq!(
                            store.read(key).unwrap(),
                            dataset.read(key),
                            "{case}: item {key}"
                        );
                    }
                }
            }
        }
    }
}
