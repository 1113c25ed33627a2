//! A one-tenant `coordl::Server` is the standalone `Session`, bit for bit.
//!
//! The server's `TenantView` replaces the session's private `TieredByteCache`
//! with a window onto the shared hierarchy.  For a lone tenant whose quota is
//! the DRAM capacity, the quota's admission-floor arithmetic is exactly
//! MinIO's internal `used + size <= capacity` check, so nothing about the
//! delivered stream *or the counters* may change — that equivalence is what
//! makes the multi-tenant path a strict generalisation rather than a fork.
//!
//! At `shards > 1` the hierarchy splits capacity across locks, which may
//! legitimately shift *which* items stay resident; the delivered stream is a
//! function of the workload alone and must still be identical.

use datastalls::coordl::{
    LoaderStats, Mode, Server, ServerConfig, Session, SessionConfig, TenantHandle, TenantSpec,
};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use prep::PreparedSample;
use std::sync::Arc;

const SEED: u64 = 29;
const STORE_SEED: u64 = 13;
const ITEMS: u64 = 200;

fn store() -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("srv-eq", ITEMS, 512, 0.25, 4.0),
        STORE_SEED,
    ))
}

fn config(cache: u64, workers: usize) -> SessionConfig {
    SessionConfig {
        batch_size: 16,
        num_workers: workers,
        prefetch_depth: 4,
        seed: SEED,
        cache_capacity_bytes: cache,
        ..SessionConfig::default()
    }
}

fn standalone(cache: u64, workers: usize) -> Session {
    Session::builder(store(), config(cache, workers))
        .mode(Mode::Single)
        .build()
        .expect("standalone session")
}

fn tenant(cache: u64, shards: usize, workers: usize) -> (Server, TenantHandle) {
    let server = Server::new(ServerConfig::minio(cache, shards)).expect("server");
    let handle = server
        .submit(TenantSpec {
            name: "lone".to_string(),
            dataset: store(),
            // Quota == DRAM capacity: the admission floor reduces to
            // MinIO's own capacity check.
            quota_bytes: cache,
            session: config(0, workers),
            profile: None,
        })
        .expect("tenant");
    (server, handle)
}

fn drain(session: &Session, epochs: u64) -> Vec<Vec<PreparedSample>> {
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

fn stats_tuple(stats: &LoaderStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.bytes_from_storage(),
        stats.bytes_from_cache(),
        stats.bytes_from_remote(),
        stats.samples_prepared(),
        stats.samples_delivered(),
    )
}

#[test]
fn one_tenant_server_is_bitwise_identical_to_a_standalone_session() {
    // Half the dataset fits: the quota floor must refuse exactly the same
    // admissions MinIO refuses, epoch after epoch.
    let total: u64 = {
        let s = store();
        (0..s.len()).map(|i| s.item_bytes(i)).sum()
    };
    let cache = total / 2;
    for workers in [1usize, 2] {
        let alone = standalone(cache, workers);
        let (_server, handle) = tenant(cache, 1, workers);
        assert_eq!(
            drain(&alone, 3),
            drain(handle.session(), 3),
            "workers={workers}: delivered streams must be bit-identical"
        );
        assert_eq!(
            stats_tuple(alone.stats()),
            stats_tuple(handle.session().stats()),
            "workers={workers}: every LoaderStats counter must match"
        );
        let alone_tier = alone.cache_tier().expect("single-mode tier");
        let tenant_tier = handle.session().cache_tier().expect("single-mode tier");
        assert_eq!(alone_tier.used_bytes(), tenant_tier.used_bytes());
        assert_eq!(alone_tier.resident_items(), tenant_tier.resident_items());
        assert_eq!(alone_tier.hits(), tenant_tier.hits());
        assert_eq!(alone_tier.misses(), tenant_tier.misses());
        assert_eq!(
            alone_tier.policy_name(),
            tenant_tier.policy_name(),
            "a one-tenant server reports the same cache_policy"
        );
    }
}

#[test]
fn one_tenant_report_matches_except_for_the_tenant_block() {
    let cache = 40 * 1024;
    let alone = standalone(cache, 1);
    let (_server, handle) = tenant(cache, 1, 1);
    drain(&alone, 2);
    drain(handle.session(), 2);
    let alone_report = alone.report();
    let tenant_report = handle.report();
    assert!(alone_report.tenant.is_none());
    assert!(tenant_report.tenant.is_some());
    // Byte and sample counters are deterministic; the *_seconds fields are
    // real wall clock and legitimately differ between runs.
    let counters = |r: &datastalls::coordl::LoaderReport| -> Vec<(u64, u64, u64, u64, u64, u64)> {
        r.epochs
            .iter()
            .map(|e| {
                (
                    e.counts.bytes_from_storage,
                    e.counts.bytes_from_cache,
                    e.counts.cache_hits,
                    e.counts.cache_misses,
                    e.samples_prepared,
                    e.counts.samples,
                )
            })
            .collect()
    };
    assert_eq!(
        counters(&alone_report),
        counters(&tenant_report),
        "per-epoch trajectories match"
    );
    assert_eq!(alone_report.cache_policy, tenant_report.cache_policy);
}

#[test]
fn sharding_the_hierarchy_never_changes_the_delivered_stream() {
    // With shards > 1 the capacity is split per lock, so residency (and
    // the stats) may shift — but the stream is workload-determined.
    let total: u64 = {
        let s = store();
        (0..s.len()).map(|i| s.item_bytes(i)).sum()
    };
    let cache = total / 2;
    let alone = standalone(cache, 1);
    let expected = drain(&alone, 3);
    for shards in [2usize, 4] {
        let (_server, handle) = tenant(cache, shards, 1);
        assert_eq!(
            expected,
            drain(handle.session(), 3),
            "shards={shards}: delivered stream must not depend on lock sharding"
        );
    }
}
