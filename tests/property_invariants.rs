//! Property-based tests over the core invariants the system relies on.
//!
//! These cut across crates: the cache policies, the epoch samplers, the
//! what-if algebra and the simulator's accounting must hold for *any*
//! dataset size, cache size and batch size — not just the paper's
//! configurations — because the figures and sweeps vary those axes freely.

use datastalls::analyzer::{ProfiledRates, WhatIfAnalysis};
use datastalls::cache::{PolicyCache, PolicyKind};
use datastalls::dataset::{minibatches, DatasetSpec, EpochSampler};
use datastalls::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MinIO's defining property: in every epoch after warm-up, misses equal
    /// the number of items that do not fit in the cache — for any dataset
    /// size, item size and cache fraction.
    #[test]
    fn minio_misses_are_exactly_capacity_misses(
        items in 16u64..2_000,
        item_bytes in 64u64..4_096,
        cache_frac in 0.05f64..0.95,
        seed in 0u64..u64::MAX,
    ) {
        let spec = DatasetSpec::new("prop", items, item_bytes, 0.0, 4.0);
        let mut cache = PolicyCache::new(PolicyKind::MinIo, spec.cache_bytes_for_fraction(cache_frac));
        let sampler = EpochSampler::new(items, seed);
        // Warm-up epoch.
        for item in sampler.permutation(0) {
            cache.access(item, spec.item_size(item));
        }
        let resident = cache.len() as u64;
        // Steady-state epoch.
        cache.reset_stats();
        for item in sampler.permutation(1) {
            cache.access(item, spec.item_size(item));
        }
        prop_assert_eq!(cache.stats().hits, resident);
        prop_assert_eq!(cache.stats().misses, items - resident);
        prop_assert_eq!(cache.stats().evictions, 0);
    }

    /// No page-cache stand-in can beat MinIO's steady-state hit count under
    /// the exactly-once-per-epoch access pattern (§4.1's argument).
    #[test]
    fn no_policy_beats_minio_at_steady_state(
        items in 32u64..1_000,
        cache_frac in 0.1f64..0.9,
        policy in prop_oneof![Just(PolicyKind::Lru), Just(PolicyKind::Fifo), Just(PolicyKind::Clock)],
        seed in 0u64..u64::MAX,
    ) {
        let spec = DatasetSpec::new("prop", items, 1_000, 0.0, 4.0);
        let capacity = spec.cache_bytes_for_fraction(cache_frac);
        let run = |kind: PolicyKind| {
            let mut cache = PolicyCache::new(kind, capacity);
            let sampler = EpochSampler::new(items, seed);
            for epoch in 0..3u64 {
                cache.reset_stats();
                for item in sampler.permutation(epoch) {
                    cache.access(item, spec.item_size(item));
                }
            }
            cache.stats().hits
        };
        prop_assert!(run(policy) <= run(PolicyKind::MinIo));
    }

    /// Every epoch permutation visits each item exactly once, and distributed
    /// shards partition the permutation without overlap or loss.
    #[test]
    fn samplers_cover_the_dataset_exactly_once(
        items in 1u64..3_000,
        num_shards in 1usize..6,
        epoch in 0u64..50,
        seed in 0u64..u64::MAX,
    ) {
        let sampler = EpochSampler::new(items, seed);
        let perm = sampler.permutation(epoch);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..items).collect::<Vec<_>>());

        let mut from_shards: Vec<u64> = (0..num_shards)
            .flat_map(|s| sampler.distributed_shard(epoch, s, num_shards))
            .collect();
        from_shards.sort_unstable();
        prop_assert_eq!(from_shards, (0..items).collect::<Vec<_>>());
    }

    /// Minibatch assembly never drops or duplicates samples and respects the
    /// batch size except possibly in the final batch.
    #[test]
    fn minibatch_assembly_is_lossless(
        items in 1u64..2_000,
        batch in 1usize..512,
        seed in 0u64..u64::MAX,
    ) {
        let sampler = EpochSampler::new(items, seed);
        let order = sampler.permutation(0);
        let batches = minibatches(&order, batch);
        let flattened: Vec<u64> = batches.iter().flatten().copied().collect();
        prop_assert_eq!(flattened, order);
        for (i, b) in batches.iter().enumerate() {
            if i + 1 < batches.len() {
                prop_assert_eq!(b.len(), batch);
            } else {
                prop_assert!(b.len() <= batch && !b.is_empty());
            }
        }
    }

    /// The what-if fetch-rate model is monotone in cache size, bracketed by
    /// the storage and DRAM rates, and the predicted speed never exceeds the
    /// GPU ingestion rate.
    #[test]
    fn whatif_algebra_is_well_behaved(
        gpu in 100.0f64..50_000.0,
        prep in 100.0f64..50_000.0,
        storage in 10.0f64..10_000.0,
        cache_mult in 2.0f64..100.0,
        x1 in 0.0f64..1.0,
        x2 in 0.0f64..1.0,
    ) {
        let rates = ProfiledRates {
            gpu_rate: gpu,
            prep_rate: prep,
            storage_rate: storage,
            cache_rate: storage * cache_mult,
            avg_item_bytes: 100_000,
        };
        let w = WhatIfAnalysis::new(rates);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(w.fetch_rate(lo) <= w.fetch_rate(hi) + 1e-9);
        prop_assert!(w.fetch_rate(0.0) >= storage - 1e-6);
        prop_assert!(w.fetch_rate(1.0) <= storage * cache_mult + 1e-6);
        prop_assert!(w.predicted_speed(hi) <= gpu.min(prep) + 1e-9);
        let rec = w.recommended_cache_fraction();
        prop_assert!((0.0..=1.0).contains(&rec));
    }

    /// Dataset specs: per-item sizes are deterministic, stay within the
    /// declared spread, and average out to the declared mean.
    #[test]
    fn dataset_item_sizes_respect_their_spec(
        items in 100u64..5_000,
        avg in 512u64..200_000,
        spread in 0.0f64..0.9,
    ) {
        let spec = DatasetSpec::new("prop", items, avg, spread, 5.0);
        let mut total = 0u128;
        for i in 0..items {
            let s = spec.item_size(i);
            prop_assert_eq!(s, spec.item_size(i));
            let lo = (avg as f64 * (1.0 - spread)).floor() as u64;
            let hi = (avg as f64 * (1.0 + spread)).ceil() as u64;
            prop_assert!(s >= lo.max(1) && s <= hi.max(1));
            total += s as u128;
        }
        let mean = total as f64 / items as f64;
        prop_assert!((mean - avg as f64).abs() / (avg as f64) < 0.10);
    }
}

proptest! {
    // The simulator is heavier, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Simulator conservation law: every byte consumed in an epoch comes from
    /// exactly one of cache, disk or remote, and a bigger cache never makes
    /// the steady-state epoch slower.
    #[test]
    fn simulation_accounting_is_conserved_and_monotone_in_cache(
        frac_small in 0.10f64..0.45,
        frac_delta in 0.10f64..0.50,
        model in prop_oneof![
            Just(ModelKind::ResNet18),
            Just(ModelKind::ResNet50),
            Just(ModelKind::AlexNet),
        ],
    ) {
        let dataset = DatasetSpec::imagenet_1k().scaled(256);
        let job = JobSpec::new(model, dataset.clone(), 8, LoaderConfig::dali_best(model));
        let run_at = |frac: f64| {
            let server = ServerConfig::config_ssd_v100()
                .with_cache_fraction(dataset.total_bytes(), frac);
            Experiment::on(&server)
                .job(job.clone())
                .epochs(3)
                .run()
                .into_run_result()
        };
        let small = run_at(frac_small);
        let big = run_at((frac_small + frac_delta).min(0.95));

        for run in [&small, &big] {
            for epoch in &run.epochs {
                let accounted = epoch.counts.bytes_from_cache + epoch.counts.bytes_from_storage + epoch.counts.bytes_from_remote;
                // Every fetched byte is attributed to exactly one source and
                // epochs deliver the whole (scaled) dataset's worth of items.
                prop_assert!(accounted > 0);
                prop_assert_eq!(epoch.counts.cache_hits + epoch.counts.cache_misses, dataset.num_items);
            }
        }
        prop_assert!(
            big.steady_state().epoch_seconds() <= small.steady_state().epoch_seconds() * 1.02,
            "more cache must not slow training down"
        );
    }
}
