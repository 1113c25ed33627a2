//! Equivalence of the `TierChain`-backed session tiers with an independent,
//! obviously-correct reference cache.
//!
//! Every `Session` routes its cache tier(s) through a
//! `coordl::TieredByteCache` (a `dcache::TierChain` holding real payloads).
//! These tests pin its contract: a single-level chain produces
//! *bit-identical* streams and `LoaderStats` counters to the naive
//! [`RefTier`] (a vector and a byte counter, sharing no code with `dcache`),
//! in every session mode — and a chain whose extra tier has zero capacity
//! degenerates to the single-tier behaviour exactly.

#[path = "common/ref_tier.rs"]
mod ref_tier;

use datastalls::coordl::{
    ByteTierSpec, EpochTrajectory, LoaderStats, Mode, Session, SessionConfig,
};
use datastalls::prelude::*;
use prep::PreparedSample;
use ref_tier::RefTier;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 31;
const PREP_SEED: u64 = 8;

fn store(items: u64, avg: u64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("equiv", items, avg, 0.25, 4.0),
        17,
    ))
}

fn pipeline() -> ExecutablePipeline {
    ExecutablePipeline::new(PrepPipeline::image_classification(), 4, PREP_SEED)
}

fn stats_tuple(stats: &LoaderStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.bytes_from_storage(),
        stats.bytes_from_cache(),
        stats.bytes_from_remote(),
        stats.samples_prepared(),
        stats.samples_delivered(),
    )
}

fn config(batch: usize, cache: u64, workers: usize) -> SessionConfig {
    SessionConfig {
        batch_size: batch,
        num_workers: workers,
        prefetch_depth: 4,
        seed: SEED,
        cache_capacity_bytes: cache,
        take_timeout: Duration::from_secs(10),
        ..SessionConfig::default()
    }
}

/// Drain one single-mode session, returning its prepared samples per epoch.
fn drain_single(session: &Session, epochs: u64) -> Vec<Vec<PreparedSample>> {
    (0..epochs)
        .map(|epoch| {
            session
                .epoch(epoch)
                .stream(0)
                .flat_map(|mb| mb.expect("epoch completes").samples.clone())
                .collect()
        })
        .collect()
}

#[test]
fn chain_backed_minio_tier_matches_the_dedicated_minio_byte_cache() {
    // Partial residency (cache = half the dataset) with one worker: the
    // admission order is deterministic, so *every* counter must agree.
    let source = store(300, 1024);
    let total_bytes: u64 = (0..source.len()).map(|i| source.item_bytes(i)).sum();
    let cache = total_bytes / 2;

    let chain = Session::builder(Arc::clone(&source), config(32, cache, 1))
        .pipeline(pipeline())
        .build()
        .expect("chain session");
    let dedicated_tier = Arc::new(RefTier::new(cache, false));
    let dedicated = Session::builder(Arc::clone(&source), config(32, cache, 1))
        .pipeline(pipeline())
        .cache_tier(Arc::clone(&dedicated_tier) as Arc<dyn CacheTier>)
        .build()
        .expect("dedicated session");

    assert_eq!(
        drain_single(&chain, 2),
        drain_single(&dedicated, 2),
        "prepared samples must be bit-identical"
    );
    assert_eq!(
        stats_tuple(chain.stats()),
        stats_tuple(dedicated.stats()),
        "every LoaderStats counter must match"
    );
    let tier = chain.cache_tier().expect("single mode tier");
    assert_eq!(tier.used_bytes(), dedicated_tier.used_bytes());
    assert_eq!(tier.resident_items(), dedicated_tier.resident_items());
    assert_eq!(tier.hits(), dedicated_tier.hits());
    assert_eq!(tier.misses(), dedicated_tier.misses());
    assert_eq!(tier.policy_name(), "MinIO");
    for item in 0..source.len() {
        assert_eq!(tier.contains(item), dedicated_tier.contains(item), "{item}");
    }
}

#[test]
fn default_chain_tier_matches_dedicated_minio_byte_cache_bitwise() {
    // The session-level pin of the one hierarchy: the default tier delivers
    // the same streams, the same report counters and the same per-epoch
    // trajectory as the reference MinIO cache, with two prep workers.
    let source = store(120, 700);
    let total_bytes: u64 = (0..source.len()).map(|i| source.item_bytes(i)).sum();
    let cache = total_bytes / 2; // partial residency
    let run = |reference: bool| {
        let mut builder = Session::builder(Arc::clone(&source), config(16, cache, 2));
        if reference {
            builder = builder.cache_tier(Arc::new(RefTier::new(cache, false)));
        }
        let session = builder.build().unwrap();
        (drain_single(&session, 3), session.report())
    };
    let (chain_samples, chain_report) = run(false);
    let (flat_samples, flat_report) = run(true);
    assert_eq!(chain_samples, flat_samples, "bit-identical streams");
    assert_eq!(chain_report.cache_hits, flat_report.cache_hits);
    assert_eq!(chain_report.cache_misses, flat_report.cache_misses);
    assert_eq!(
        chain_report.bytes_from_storage,
        flat_report.bytes_from_storage
    );
    assert_eq!(chain_report.bytes_from_cache, flat_report.bytes_from_cache);
    assert_eq!(chain_report.cache_used_bytes, flat_report.cache_used_bytes);
    assert_eq!(
        chain_report.lower_tier_hits, 0,
        "flat chain has no levels below DRAM"
    );
    // Per-epoch deterministic counters (the *_seconds fields are wall
    // clock and legitimately differ run to run).
    let deterministic = |report: &LoaderReport| -> Vec<[u64; 9]> {
        let row = |e: &EpochTrajectory| {
            [
                e.epoch,
                e.counts.bytes_from_storage,
                e.counts.bytes_from_cache,
                e.counts.bytes_from_lower_tiers,
                e.counts.cache_hits,
                e.counts.cache_misses,
                e.counts.lower_tier_hits,
                e.samples_prepared,
                e.counts.samples,
            ]
        };
        report.epochs.iter().map(row).collect()
    };
    assert_eq!(deterministic(&chain_report), deterministic(&flat_report));
}

#[test]
fn chain_backed_lru_tier_matches_the_policy_byte_cache_across_workers() {
    // The executor's sequential fetch order makes LRU decisions identical
    // for any worker count; pin chain == dedicated at workers 1 and 3.
    let source = store(256, 512);
    let total_bytes: u64 = (0..source.len()).map(|i| source.item_bytes(i)).sum();
    let cache = total_bytes * 2 / 5; // forces steady-state thrashing
    for workers in [1usize, 3] {
        let chain = Session::builder(Arc::clone(&source), config(25, cache, workers))
            .pipeline(pipeline())
            .cache_policy(PolicyKind::Lru)
            .build()
            .expect("chain session");
        let dedicated_tier = Arc::new(RefTier::new(cache, true));
        let dedicated = Session::builder(Arc::clone(&source), config(25, cache, workers))
            .pipeline(pipeline())
            .cache_tier(Arc::clone(&dedicated_tier) as Arc<dyn CacheTier>)
            .build()
            .expect("dedicated session");

        assert_eq!(
            drain_single(&chain, 3),
            drain_single(&dedicated, 3),
            "workers={workers}"
        );
        assert_eq!(
            stats_tuple(chain.stats()),
            stats_tuple(dedicated.stats()),
            "workers={workers}"
        );
        let tier = chain.cache_tier().expect("single mode tier");
        assert_eq!(tier.hits(), dedicated_tier.hits());
        assert_eq!(tier.misses(), dedicated_tier.misses());
        assert_eq!(
            tier.used_bytes(),
            dedicated_tier.used_bytes(),
            "workers={workers}"
        );
        assert_eq!(tier.resident_items(), dedicated_tier.resident_items());
        for item in 0..source.len() {
            assert_eq!(tier.contains(item), dedicated_tier.contains(item), "{item}");
        }
    }
}

#[test]
fn zero_capacity_ssd_tier_degenerates_to_the_single_tier_chain() {
    // A DRAM+SSD chain whose SSD holds nothing must be bit-identical to the
    // flat DRAM chain: every spill bypasses, every demotion falls through.
    let source = store(200, 700);
    let total_bytes: u64 = (0..source.len()).map(|i| source.item_bytes(i)).sum();
    let cache = total_bytes / 3;

    let flat = Session::builder(Arc::clone(&source), config(20, cache, 2))
        .pipeline(pipeline())
        .build()
        .expect("flat session");
    let degenerate = Session::builder(Arc::clone(&source), config(20, cache, 2))
        .pipeline(pipeline())
        .cache_tiers(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, cache),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 0),
        ])
        .build()
        .expect("degenerate session");

    assert_eq!(drain_single(&flat, 3), drain_single(&degenerate, 3));
    assert_eq!(stats_tuple(flat.stats()), stats_tuple(degenerate.stats()));
    assert_eq!(degenerate.stats().bytes_from_lower_tiers(), 0);
    let flat_report = flat.report();
    let tiered_report = degenerate.report();
    assert_eq!(flat_report.cache_hits, tiered_report.cache_hits);
    assert_eq!(flat_report.cache_misses, tiered_report.cache_misses);
    assert_eq!(tiered_report.lower_tier_hits, 0);
    assert_eq!(flat_report.cache_used_bytes, tiered_report.cache_used_bytes);
}

#[test]
fn coordinated_sessions_agree_between_chain_and_dedicated_tiers() {
    let source = store(240, 768);
    let jobs = 3;
    let run = |dedicated: bool| {
        let mut builder = Session::builder(
            Arc::clone(&source),
            SessionConfig {
                batch_size: 16,
                staging_window: 8,
                seed: SEED,
                cache_capacity_bytes: 64 << 20,
                take_timeout: Duration::from_secs(10),
                ..SessionConfig::default()
            },
        )
        .mode(Mode::Coordinated { jobs })
        .pipeline(pipeline());
        if dedicated {
            builder =
                builder.cache_tier(Arc::new(RefTier::new(64 << 20, false)) as Arc<dyn CacheTier>);
        }
        let session = builder.build().expect("session");
        let mut per_job: Vec<Vec<PreparedSample>> = Vec::new();
        for epoch in 0..2u64 {
            let run = session.epoch(epoch);
            let handles: Vec<_> = (0..jobs)
                .map(|j| {
                    let stream = run.stream(j);
                    std::thread::spawn(move || {
                        stream
                            .flat_map(|b| b.expect("epoch completes").samples.clone())
                            .collect::<Vec<PreparedSample>>()
                    })
                })
                .collect();
            for h in handles {
                per_job.push(h.join().unwrap());
            }
        }
        let stats = stats_tuple(session.stats());
        let tier = session.cache_tier().expect("coordinated tier");
        (
            per_job,
            stats,
            tier.hits(),
            tier.misses(),
            tier.used_bytes(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn partitioned_sessions_agree_between_chain_and_historical_stack() {
    // Partitioned nodes now carry one single-level chain each; their
    // counters must match what the MinIO-per-node stack produced.
    let items = 100u64;
    let spec = DatasetSpec::new("equiv", items, 100, 0.0, 4.0);
    let total = spec.total_bytes();
    let run = || {
        let ds: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 9));
        let session = Session::builder(ds, config(10, total * 65 / 100, 2))
            .mode(Mode::Partitioned { nodes: 2 })
            .pipeline(pipeline())
            .build()
            .expect("partitioned session");
        for epoch in 0..3u64 {
            let run = session.epoch(epoch);
            for node in 0..2 {
                for mb in run.stream(node) {
                    let _ = mb.expect("epoch completes");
                }
            }
        }
        let agg = session.partitioned_cluster().unwrap().aggregate_stats();
        (stats_tuple(session.stats()), agg)
    };
    // The chain is deterministic: two identical runs agree on everything,
    // and the §4.2 invariant holds (aggregate capacity covers the dataset,
    // so storage is read exactly once).
    let (stats_a, agg_a) = run();
    let (stats_b, agg_b) = run();
    assert_eq!(stats_a, stats_b);
    assert_eq!(agg_a, agg_b);
    assert_eq!(agg_a.storage_bytes, total, "dataset read from disk once");
    assert!(agg_a.remote_hits > 0, "peers served epoch-varying shards");
}
