//! Integration tests for the functional CoorDL loader's coordination
//! invariants (§4.3): exactly-once delivery per job per epoch, fresh
//! per-epoch augmentation randomness, identical sample streams across
//! concurrent jobs, and bounded staging-area memory.
//!
//! These run the real multi-threaded machinery end to end through the
//! unified `Session` API: synthetic bytes flow from a `DataSource` through
//! the MinIO byte cache and the executable prep pipeline into the cross-job
//! staging area, and consumer threads play the role of the per-job GPUs.

use datastalls::coordl::{CoordlError, Mode, Session, SessionConfig};
use datastalls::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

fn store(items: u64, avg_bytes: u64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("coord-test", items, avg_bytes, 0.3, 4.0),
        41,
    ))
}

fn pipeline(seed: u64) -> ExecutablePipeline {
    ExecutablePipeline::new(PrepPipeline::image_classification(), 4, seed)
}

fn coordinated(num_jobs: usize, batch: usize, source: &Arc<dyn DataSource>) -> Session {
    Session::builder(
        Arc::clone(source),
        SessionConfig {
            batch_size: batch,
            staging_window: 8,
            seed: 9,
            cache_capacity_bytes: 64 << 20,
            take_timeout: Duration::from_secs(10),
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Coordinated { jobs: num_jobs })
    .pipeline(pipeline(5))
    .build()
    .expect("valid coordinated config")
}

/// Collect `(item, augmentation_seed)` pairs one job sees in one epoch.
fn consume_epoch(session: &Session, epoch: u64) -> Vec<Vec<(u64, u64)>> {
    let run = session.epoch(epoch);
    let handles: Vec<_> = (0..session.num_jobs())
        .map(|job| {
            let stream = run.stream(job);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for batch in stream {
                    let batch = batch.expect("epoch should complete");
                    for s in &batch.samples {
                        out.push((s.item, s.augmentation_seed));
                    }
                }
                out
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("consumer thread"))
        .collect()
}

#[test]
fn every_job_sees_every_item_exactly_once_per_epoch() {
    let source = store(1024, 2048);
    let session = coordinated(3, 64, &source);
    for epoch in 0..2u64 {
        for (job, seen) in consume_epoch(&session, epoch).into_iter().enumerate() {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for (item, _) in &seen {
                *counts.entry(*item).or_default() += 1;
            }
            assert_eq!(
                counts.len() as u64,
                source.len(),
                "job {job} epoch {epoch} coverage"
            );
            assert!(
                counts.values().all(|&n| n == 1),
                "job {job} epoch {epoch}: an item was delivered more than once"
            );
        }
    }
}

#[test]
fn concurrent_jobs_share_identical_sample_streams() {
    // Coordinated prep shares *prepared* minibatches: every job must see the
    // same items with the same augmentation, in the same order, within an
    // epoch — that is what "prepared exactly once and reused" means.
    let source = store(512, 1024);
    let session = coordinated(4, 32, &source);
    let per_job = consume_epoch(&session, 0);
    for job in 1..per_job.len() {
        assert_eq!(
            per_job[0], per_job[job],
            "job {job} saw a different prepared stream than job 0"
        );
    }
}

#[test]
fn augmentations_are_fresh_every_epoch() {
    // §4.3: reusing pre-processed data across epochs would hurt accuracy;
    // coordinated prep re-preps each epoch, so augmentation seeds must differ
    // between epochs for the same item.
    let source = store(256, 1024);
    let session = coordinated(2, 32, &source);
    let epoch0: HashMap<u64, u64> = consume_epoch(&session, 0)[0].iter().copied().collect();
    let epoch1: HashMap<u64, u64> = consume_epoch(&session, 1)[0].iter().copied().collect();
    let changed = epoch0
        .iter()
        .filter(|(item, seed)| epoch1.get(item) != Some(seed))
        .count();
    assert_eq!(
        changed,
        epoch0.len(),
        "every item's augmentation seed must change between epochs"
    );
}

#[test]
fn plain_loader_delivers_each_item_once_with_fresh_shuffles() {
    let source = store(640, 1024);
    let session = Session::builder(
        Arc::clone(&source),
        SessionConfig {
            batch_size: 50,
            num_workers: 3,
            prefetch_depth: 4,
            seed: 77,
            cache_capacity_bytes: 32 << 20,
            ..SessionConfig::default()
        },
    )
    .pipeline(pipeline(3))
    .build()
    .expect("valid loader config");

    let order_of = |epoch: u64| -> Vec<u64> {
        session
            .epoch(epoch)
            .stream(0)
            .flat_map(|b| b.expect("epoch completes").item_ids())
            .collect()
    };
    let e0 = order_of(0);
    let e1 = order_of(1);
    assert_eq!(e0.len() as u64, source.len());
    assert_eq!(e0.iter().collect::<HashSet<_>>().len() as u64, source.len());
    assert_eq!(e1.iter().collect::<HashSet<_>>().len() as u64, source.len());
    assert_ne!(e0, e1, "epochs must reshuffle");
}

#[test]
fn loader_minio_cache_hits_equal_capacity_after_warmup() {
    // The functional loader's byte cache obeys the same MinIO arithmetic the
    // simulator assumes: after warm-up, hits per epoch == resident items.
    let source = store(400, 4096);
    let total_bytes: u64 = (0..source.len()).map(|i| source.item_bytes(i)).sum();
    let session = Session::builder(
        Arc::clone(&source),
        SessionConfig {
            batch_size: 32,
            num_workers: 2,
            prefetch_depth: 4,
            seed: 1,
            cache_capacity_bytes: total_bytes / 2,
            ..SessionConfig::default()
        },
    )
    .pipeline(pipeline(3))
    .build()
    .expect("valid loader config");

    for batch in session.epoch(0).stream(0) {
        assert!(!batch.expect("epoch completes").samples.is_empty());
    }
    let tier = session.cache_tier().expect("single mode has one tier");
    let resident_after_warmup = tier.resident_items() as u64;
    let hits_before = tier.hits();
    for batch in session.epoch(1).stream(0) {
        assert!(!batch.expect("epoch completes").samples.is_empty());
    }
    let epoch1_hits = tier.hits() - hits_before;
    assert_eq!(
        epoch1_hits, resident_after_warmup,
        "steady-state hits per epoch must equal the number of resident items"
    );
    assert_eq!(
        tier.resident_items() as u64,
        resident_after_warmup,
        "MinIO never evicts, so residency is stable"
    );
    // The same invariant is visible in the unified report's trajectories.
    let report = session.report();
    assert_eq!(report.epochs.len(), 2);
    assert_eq!(report.epochs[1].counts.cache_hits, resident_after_warmup);
}

#[test]
fn staging_area_memory_stays_bounded() {
    // §5.5: coordinated prep holds only a small window of prepared
    // minibatches; it must not buffer the whole epoch.
    let source = store(2048, 1024);
    let session = Session::builder(
        Arc::clone(&source),
        SessionConfig {
            batch_size: 32,
            staging_window: 4,
            seed: 9,
            cache_capacity_bytes: 64 << 20,
            take_timeout: Duration::from_secs(10),
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Coordinated { jobs: 2 })
    .pipeline(pipeline(5))
    .build()
    .expect("valid coordinated config");

    {
        let run = session.epoch(0);
        let handles: Vec<_> = (0..2)
            .map(|job| {
                let stream = run.stream(job);
                std::thread::spawn(move || stream.inspect(|b| assert!(b.is_ok(), "batch")).count())
            })
            .collect();
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(counts.iter().all(|&c| c == 2048 / 32));
    }

    let report = session.report();
    let staging = &report.epochs[0];
    assert_eq!(
        staging.staging_evicted as usize,
        2048 / 32,
        "every published batch is evicted once both jobs consumed it"
    );
    // Peak memory is a few batches, not the whole epoch: each prepared batch
    // is at most batch_size × max-raw-item × decode-multiplier bytes.
    let max_batch_bytes = 32u64 * (1024 * 14 / 10) * 4;
    assert!(
        staging.staging_peak_bytes <= (4 + 2) * max_batch_bytes,
        "staging peak {} bytes exceeds the configured window's worth",
        staging.staging_peak_bytes
    );
}

#[test]
fn failed_job_is_detected_and_its_shard_recovered() {
    // §4.3 "Handling job failures": if the producer for one shard dies
    // mid-epoch, the others detect the timeout and a replacement producer
    // finishes that shard, so every surviving job still completes the epoch.
    let source = store(512, 1024);
    for fetch_threads in [1, 2] {
        let session = Session::builder(
            Arc::clone(&source),
            SessionConfig {
                batch_size: 32,
                staging_window: 8,
                seed: 9,
                cache_capacity_bytes: 64 << 20,
                take_timeout: Duration::from_millis(200),
                ..SessionConfig::default()
            },
        )
        .mode(Mode::Coordinated { jobs: 3 })
        .pipeline(pipeline(5))
        .fetch_threads(fetch_threads)
        .workers(2)
        .build()
        .expect("valid coordinated config");

        let run = session.epoch(0);
        run.inject_failure(1);
        let handles: Vec<_> = (0..3)
            .map(|job| {
                let stream = run.stream(job);
                std::thread::spawn(move || {
                    stream
                        .map(|batch| batch.expect("recovered epoch should complete").index)
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        for (job, handle) in handles.into_iter().enumerate() {
            let batches = handle.join().expect("consumer thread");
            assert_eq!(
                batches,
                (0..512 / 32).collect::<Vec<_>>(),
                "f={fetch_threads}: job {job} must still see every batch exactly once"
            );
        }
    }
}

#[test]
fn shutdown_mid_epoch_surfaces_as_a_typed_error() {
    // Dropping the epoch run shuts the staging area down; a consumer still
    // holding its stream observes CoordlError::Shutdown instead of hanging.
    let source = store(1024, 1024);
    let session = coordinated(2, 16, &source);
    let run = session.epoch(0);
    let mut stream = run.stream(0);
    let first = stream.next().expect("epoch has batches");
    assert!(first.is_ok());
    drop(run);
    let mut saw_shutdown = false;
    for outcome in stream.by_ref() {
        match outcome {
            Ok(_) => continue,
            Err(CoordlError::Shutdown) => {
                saw_shutdown = true;
                break;
            }
            Err(other) => panic!("expected Shutdown, got {other}"),
        }
    }
    assert!(saw_shutdown, "consumer must observe the typed shutdown");
    // The aborted epoch still left a trajectory entry behind.
    assert_eq!(session.report().epochs.len(), 1);
}
