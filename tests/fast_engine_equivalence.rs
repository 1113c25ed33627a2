//! Bit-identity of the vectorized MinIO fast path with the exact engine.
//!
//! The `Experiment` runner silently routes single-server MinIO jobs through
//! `pipeline::fast` (flat-array cache replay, reused scratch buffers) instead
//! of the exact `TierChain` + `StorageNode` engine.  These tests pin the
//! refactor's contract:
//!
//! * the fast path reproduces the exact engine's `SimReport` *bit-identically*
//!   (same floats, same byte counts, same I/O timelines) over randomized
//!   cache fractions, dataset sizes, epoch counts and tier splits,
//! * reusing one `EngineScratch` across many differing runs changes no bit
//!   versus a fresh scratch per run,
//! * a `sweep::run` forced onto the exact engine matches the default
//!   fast-path sweep point for point.

use datastalls::dataset::StorageFormat;
use datastalls::pipeline::{CacheSpec, EngineScratch, FetchOrder};
use datastalls::prelude::*;
use proptest::prelude::*;

/// A single-server MinIO spec parameterized the way the property test and
/// the pinning tests both need: dataset size, cache split, epochs, batch.
fn minio_spec(
    items: u64,
    cache_frac: f64,
    ssd_frac: f64,
    epochs: u64,
    batch: usize,
    chunked: bool,
) -> ExperimentSpec {
    let model = ModelKind::ResNet18;
    let dataset = DatasetSpec::new("fast-eq", items, 96 * 1024, 0.4, 6.0);
    let total = dataset.total_bytes();
    let cache_bytes = (total as f64 * cache_frac) as u64;
    let server = ServerConfig::config_ssd_v100().with_cache_bytes(cache_bytes);
    let mut loader = LoaderConfig::coordl_best(model);
    if chunked {
        // Cover fetch-unit aggregation and the sorted sequential fetch
        // stream, not just the shuffled file-per-item layout.
        loader.format = StorageFormat::tfrecord_default();
        loader.fetch_order = FetchOrder::Sequential;
    }
    let job = JobSpec::new(model, dataset, 8, loader)
        .with_seed(0xFA57 ^ items)
        .with_batch(batch);
    let mut spec = ExperimentSpec::new(server, job);
    spec.epochs = epochs;
    if ssd_frac > 0.0 {
        let ssd_bytes = (cache_bytes as f64 * ssd_frac) as u64;
        spec.cache = CacheSpec::Tiered {
            dram_bytes: cache_bytes.saturating_sub(ssd_bytes),
            ssd_bytes,
        };
    }
    spec
}

/// Run `spec` on both engines and require bitwise-equal reports, down to the
/// serialized JSON.
fn assert_engines_agree(spec: &ExperimentSpec) {
    let fast = spec.run_with(&mut EngineScratch::default(), false);
    let exact = spec.run_with(&mut EngineScratch::default(), true);
    // `SimReport` derives `PartialEq` over every field, including the f64
    // stall breakdowns and I/O timelines, so equality here is bitwise.
    assert_eq!(fast, exact);
    assert_eq!(fast.to_json(), exact.to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized cross-check: cache fraction from starved to oversized,
    /// DRAM-only and tiered splits, 1–3 epochs (cold and warm), partial
    /// trailing batches, both storage formats.
    #[test]
    fn fast_engine_matches_exact_over_random_configs(
        items in 2u64..400,
        cache_frac in 0.0f64..1.25,
        ssd_frac in 0.0f64..0.9,
        epochs in 1u64..4,
        batch in 1usize..12,
        chunked in 0u8..2,
    ) {
        let spec = minio_spec(items, cache_frac, ssd_frac, epochs, batch * 8, chunked == 1);
        let fast = spec.run_with(&mut EngineScratch::default(), false);
        let exact = spec.run_with(&mut EngineScratch::default(), true);
        prop_assert_eq!(&fast, &exact);
        prop_assert_eq!(fast.to_json(), exact.to_json());
    }
}

/// The hand-picked corners the paper's sweeps visit most: zero cache (pure
/// disk), full cache, and a tiered split where the DRAM tier alone cannot
/// hold the working set (so promotions on lower-tier hits occur).
#[test]
fn fast_engine_matches_exact_at_cache_corners() {
    for (cache_frac, ssd_frac) in [(0.0, 0.0), (1.2, 0.0), (0.65, 0.7), (0.35, 0.5)] {
        let spec = minio_spec(192, cache_frac, ssd_frac, 3, 64, false);
        assert_engines_agree(&spec);
    }
}

/// Reusing one `EngineScratch` across sweep points of wildly different
/// shapes must change no `SimReport` bit versus a fresh scratch per point —
/// on both the fast path and the exact engine.
#[test]
fn scratch_reuse_across_points_changes_no_bit() {
    let specs = [
        minio_spec(300, 0.5, 0.0, 2, 48, false),
        minio_spec(64, 1.1, 0.6, 3, 32, true),
        minio_spec(177, 0.25, 0.0, 1, 64, false),
        minio_spec(16, 0.9, 0.3, 2, 8, true),
    ];
    for exact in [false, true] {
        let mut shared = EngineScratch::new();
        for spec in &specs {
            let reused = spec.run_with(&mut shared, exact);
            let fresh = spec.run_with(&mut EngineScratch::default(), exact);
            assert_eq!(reused, fresh);
        }
    }
}

/// A sweep forced onto the exact engine reproduces the default fast-path
/// sweep point for point, and both match a serial loop.
#[test]
fn forced_exact_sweep_matches_fast_sweep() {
    let base = minio_spec(160, 0.5, 0.0, 2, 32, false);
    let total = base.jobs[0].dataset.total_bytes();
    let mut points = Vec::new();
    for pct in [10u32, 50, 100] {
        for cores in [8usize, 24] {
            let mut spec = base.clone();
            spec.server = (spec.server)
                .with_cache_fraction(total, pct as f64 / 100.0)
                .with_cpu_cores(cores);
            points.push(spec);
        }
    }

    let fast = sweep::run(&points, false, |_| true);
    let exact = sweep::run(&points, true, |_| true);
    assert_eq!(fast.len(), 6);
    assert_eq!(fast, exact);
    for (i, report) in &fast {
        assert_eq!(report, &points[*i].run(), "point {i}");
    }
}

/// Non-MinIO loaders never take the fast path, so forcing the exact engine
/// must be a no-op for them.
#[test]
fn exact_toggle_is_a_noop_for_lru_loaders() {
    let model = ModelKind::ResNet18;
    let dataset = DatasetSpec::new("lru-eq", 128, 96 * 1024, 0.4, 6.0);
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.5);
    let job = JobSpec::new(model, dataset, 8, LoaderConfig::pytorch_dl()).with_batch(32);
    let mut spec = ExperimentSpec::new(server, job);
    spec.epochs = 2;
    assert_engines_agree(&spec);
}
