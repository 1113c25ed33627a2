//! Integration tests for the paper's caching claims (§3.3.1, §4.1, Table 6).
//!
//! These cross the `cache`, `storage`, `dataset` and `pipeline` crates: the
//! access pattern comes from the epoch sampler, flows through a storage node
//! with a given cache policy, and is measured the way the evaluation does.

use datastalls::cache::{build_cache, Cache, MinIoCache, PolicyKind};
use datastalls::dataset::{DatasetSpec, EpochSampler};
use datastalls::prelude::*;

/// Drive `epochs` epochs of the DNN access pattern (fresh random permutation
/// per epoch, every item exactly once) through a cache and return the misses
/// observed in the final epoch.
fn final_epoch_misses(
    policy: PolicyKind,
    spec: &DatasetSpec,
    cache_fraction: f64,
    epochs: u64,
) -> u64 {
    let mut cache = build_cache(policy, spec.cache_bytes_for_fraction(cache_fraction));
    let sampler = EpochSampler::new(spec.num_items, 7);
    let mut last = 0;
    for epoch in 0..epochs {
        cache.reset_stats();
        for item in sampler.permutation(epoch) {
            cache.access(item, spec.item_size(item));
        }
        last = cache.stats().misses;
    }
    last
}

#[test]
fn minio_reduces_misses_to_capacity_misses() {
    // §4.1: "Every epoch beyond the first gets exactly as many hits as the
    // number of items in the cache."
    let spec = DatasetSpec::new("cache-test", 20_000, 1000, 0.0, 6.0);
    for fraction in [0.25, 0.35, 0.5, 0.65] {
        let misses = final_epoch_misses(PolicyKind::MinIo, &spec, fraction, 3);
        let capacity_items = (spec.num_items as f64 * fraction).round() as u64;
        let ideal = spec.num_items - capacity_items;
        let deviation = (misses as f64 - ideal as f64).abs() / spec.num_items as f64;
        assert!(
            deviation < 0.01,
            "MinIO at {fraction}: {misses} misses, ideal {ideal}"
        );
    }
}

#[test]
fn page_cache_lru_thrashes_under_the_dnn_access_pattern() {
    // §3.3.1: with 35 % cached the page cache fetches ~85 % of the dataset
    // from storage instead of the ideal 65 % — roughly 20 % extra misses.
    let spec = DatasetSpec::new("cache-test", 20_000, 1000, 0.0, 6.0);
    let lru = final_epoch_misses(PolicyKind::Lru, &spec, 0.35, 3);
    let minio = final_epoch_misses(PolicyKind::MinIo, &spec, 0.35, 3);
    assert!(
        lru > minio,
        "LRU ({lru}) should miss more than MinIO ({minio}) under thrashing"
    );
    let extra = (lru - minio) as f64 / spec.num_items as f64;
    assert!(
        extra > 0.05 && extra < 0.40,
        "thrashing should cost a noticeable but bounded fraction of the dataset, got {extra:.2}"
    );
}

#[test]
fn every_page_cache_stand_in_is_worse_than_or_equal_to_minio() {
    let spec = DatasetSpec::new("cache-test", 10_000, 1000, 0.0, 6.0);
    let minio = final_epoch_misses(PolicyKind::MinIo, &spec, 0.5, 3);
    for policy in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock] {
        let other = final_epoch_misses(policy, &spec, 0.5, 3);
        assert!(
            other >= minio,
            "{policy:?} ({other} misses) should not beat MinIO ({minio} misses)"
        );
    }
}

#[test]
fn figure8_example_minio_two_capacity_misses_per_epoch() {
    // Figure 8: dataset {A,B,C,D}, cache of 2, warmed with D and B.  MinIO
    // incurs exactly 2 (capacity) misses per epoch; the page cache 2–4.
    let mut minio = MinIoCache::new(2);
    // Warm-up epoch: D and B get cached, C and A are capacity misses.
    for item in [3u64, 1, 2, 0] {
        minio.access(item, 1);
    }
    assert!(minio.contains(&3) && minio.contains(&1));
    for epoch_order in [[2u64, 1, 0, 3], [0, 3, 2, 1]] {
        minio.reset_stats();
        for item in epoch_order {
            minio.access(item, 1);
        }
        assert_eq!(
            minio.stats().misses,
            2,
            "exactly the two uncached items miss"
        );
        assert_eq!(minio.stats().hits, 2);
    }
}

#[test]
fn single_server_simulation_matches_table6_ordering() {
    // Table 6 (ShuffleNet on OpenImages, 65 % cache): cache-miss ratio and
    // disk I/O are ordered DALI-seq > DALI-shuffle > CoorDL, with CoorDL at
    // the capacity-miss floor of 35 %.
    let dataset = DatasetSpec::openimages_extended().scaled(128);
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.65);
    let model = ModelKind::ShuffleNetV2;
    let run = |loader: LoaderConfig| {
        let job = JobSpec::new(model, dataset.clone(), 8, loader);
        Experiment::on(&server)
            .job(job)
            .epochs(3)
            .run()
            .steady_state()
    };
    let seq = run(LoaderConfig::dali_seq(PrepBackend::DaliGpu));
    let shuffle = run(LoaderConfig::dali_shuffle(PrepBackend::DaliGpu));
    let coordl = run(LoaderConfig::coordl(PrepBackend::DaliGpu));

    assert!(seq.miss_ratio() >= shuffle.miss_ratio());
    assert!(shuffle.miss_ratio() > coordl.miss_ratio());
    assert!(
        (coordl.miss_ratio() - 0.35).abs() < 0.03,
        "CoorDL misses should sit at the 35% capacity floor, got {:.2}",
        coordl.miss_ratio()
    );
    assert!(seq.bytes_from_disk >= shuffle.bytes_from_disk);
    assert!(shuffle.bytes_from_disk > coordl.bytes_from_disk);
}

#[test]
fn minio_needs_no_bookkeeping_and_never_evicts() {
    // §4.1: items, once cached, are never replaced; eviction count stays zero.
    let mut cache = MinIoCache::new(1_000);
    for item in 0..10_000u64 {
        cache.access(item, 100);
    }
    assert_eq!(cache.stats().evictions, 0, "MinIO never evicts");
    assert_eq!(cache.len(), 10, "only the first 10 items fit");
    for item in 0..10u64 {
        assert!(cache.contains(&item), "early items stay resident forever");
    }
}

#[test]
fn dcache_minio_policy_pins_the_runtime_minio_byte_cache_behaviour() {
    // Satellite invariant: the raw `dcache` policies (used by the
    // simulator's `storage::StorageNode`) and the runtime's byte tier
    // (`coordl::TieredByteCache::single`) decide identically.  Driving both
    // with the same variable-size access trace must produce identical
    // hit/miss counts and identical residency (byte-for-byte AND
    // item-for-item) for every policy, and §4.1's steady-state arithmetic
    // for MinIO — this is what makes the `validate` figure row's
    // predicted-vs-empirical comparison meaningful.
    use datastalls::coordl::{CacheTier, TieredByteCache};
    use std::sync::Arc;

    let spec = DatasetSpec::new("parity", 500, 2048, 0.4, 4.0);
    let capacity = spec.cache_bytes_for_fraction(0.45);
    let sampler = EpochSampler::new(spec.num_items, 123);
    for kind in [
        PolicyKind::MinIo,
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
    ] {
        let mut policy = build_cache(kind, capacity);
        let byte_cache = TieredByteCache::single(kind, capacity);
        let epoch = |policy: &mut dyn Cache<u64>, epoch: u64| {
            for item in sampler.permutation(epoch) {
                let size = spec.item_size(item);
                policy.access(item, size);
                if byte_cache.lookup(item).is_none() {
                    byte_cache.admit(item, Arc::new(vec![0u8; size as usize]));
                }
            }
        };
        for e in 0..3u64 {
            epoch(policy.as_mut(), e);
        }

        assert_eq!(policy.stats().hits, byte_cache.hits(), "{kind:?} hits");
        assert_eq!(
            policy.stats().misses,
            byte_cache.misses(),
            "{kind:?} misses"
        );
        assert_eq!(policy.used_bytes(), byte_cache.used_bytes(), "{kind:?}");
        assert_eq!(policy.len(), byte_cache.resident_items(), "{kind:?}");
        for item in 0..spec.num_items {
            assert_eq!(
                policy.contains(&item),
                byte_cache.contains(item),
                "{kind:?}: resident sets must be identical (item {item})"
            );
        }
        // Steady state: both sides deliver the same hits per epoch — for
        // MinIO exactly `len()` of them.
        let resident = policy.len() as u64;
        policy.reset_stats();
        let hits_before = byte_cache.hits();
        epoch(policy.as_mut(), 9);
        assert_eq!(byte_cache.hits() - hits_before, policy.stats().hits);
        if kind == PolicyKind::MinIo {
            assert_eq!(policy.stats().hits, resident);
        }
    }
}
