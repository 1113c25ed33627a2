//! The `sweep::run` contract: a parallel sweep returns exactly what a plain
//! serial loop of `ExperimentSpec::run` returns (same reports, index order),
//! `keep` selects which reports come back, and a panicking point panics the
//! run with a message naming that point's index.

use datastalls::pipeline::CacheSpec;
use datastalls::prelude::*;
use std::panic::{self, AssertUnwindSafe};

fn base_spec() -> ExperimentSpec {
    let dataset = DatasetSpec::imagenet_1k().scaled(1000);
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.5);
    let job = JobSpec::new(
        ModelKind::ResNet18,
        dataset,
        8,
        LoaderConfig::coordl_best(ModelKind::ResNet18),
    );
    ExperimentSpec::new(server, job)
}

/// `base_spec` at each cache fraction in `pcts`.
fn cache_points(pcts: &[u32]) -> Vec<ExperimentSpec> {
    let base = base_spec();
    let bytes = base.jobs[0].dataset.total_bytes();
    pcts.iter()
        .map(|&pct| ExperimentSpec {
            server: base.server.with_cache_fraction(bytes, pct as f64 / 100.0),
            ..base.clone()
        })
        .collect()
}

/// `spec` as `n` concurrent HP-search jobs, one GPU and one seed each.
fn hp_search(spec: &ExperimentSpec, n: usize) -> ExperimentSpec {
    let mut template = spec.jobs[0].clone();
    template.num_gpus = 1;
    ExperimentSpec {
        jobs: (0..n)
            .map(|j| template.with_seed(template.seed + j as u64))
            .collect(),
        scenario: Scenario::HpSearch { jobs: n },
        epochs: 2,
        ..spec.clone()
    }
}

fn serial(points: &[ExperimentSpec]) -> Vec<(usize, SimReport)> {
    points.iter().map(ExperimentSpec::run).enumerate().collect()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    // One point per engine shape: fast-path MinIO, an LRU loader (always
    // the exact engine), an HP search, a distributed job and a DRAM+SSD
    // hierarchy.
    let base = base_spec();
    let bytes = base.jobs[0].dataset.total_bytes();
    let mut lru = base.clone();
    lru.jobs[0].loader = LoaderConfig::pytorch_dl();
    let points = vec![
        base.clone(),
        lru,
        hp_search(&base, 3),
        ExperimentSpec {
            scenario: Scenario::Distributed { servers: 2 },
            ..base.clone()
        },
        ExperimentSpec {
            cache: CacheSpec::Tiered {
                dram_bytes: bytes / 4,
                ssd_bytes: bytes / 2,
            },
            ..base
        },
    ];

    let parallel = sweep::run(&points, false, |_| true);
    let serial = serial(&points);
    // SimReport is all plain data, so structural equality plus
    // byte-identical JSON pins every float.
    assert_eq!(parallel, serial);
    for ((i, a), (_, b)) in parallel.iter().zip(&serial) {
        assert_eq!(a.to_json(), b.to_json(), "point {i}: JSON byte for byte");
    }
}

#[test]
fn hp_search_sweep_is_deterministic_across_threads() {
    // The HP-search engine exercises the coordinated-prep path, whose shared
    // state is the most likely place for nondeterminism to creep in.
    let base = base_spec();
    let points: Vec<ExperimentSpec> = [2, 4, 8].map(|n| hp_search(&base, n)).into();
    assert_eq!(sweep::run(&points, false, |_| true), serial(&points));
}

#[test]
fn keep_returns_exactly_the_kept_indices_in_order() {
    let points = cache_points(&[10, 20, 30, 40, 50, 60, 70]);
    let kept = sweep::run(&points, false, |i| i % 3 != 1);
    let indices: Vec<usize> = kept.iter().map(|&(i, _)| i).collect();
    assert_eq!(indices, [0, 2, 3, 5, 6]);
    let serial = serial(&points);
    for (i, report) in &kept {
        assert_eq!(report, &serial[*i].1, "point {i}");
    }
    assert!(sweep::run(&points, false, |_| false).is_empty());
}

#[test]
fn a_poisoned_grid_point_fails_alone() {
    // Silence the default panic hook for the intentional panic below; no
    // other test in this binary panics on purpose.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut points = cache_points(&[20, 40, 60, 80]);
    let mut poisoned = base_spec();
    poisoned.epochs = 0; // Experiment::run asserts "need at least one epoch".
    points.insert(2, poisoned);
    let payload = panic::catch_unwind(AssertUnwindSafe(|| sweep::run(&points, false, |_| true)))
        .expect_err("a panicking point panics the run");
    panic::set_hook(prev_hook);

    // The run's panic blames the poisoned point, by index, with its reason.
    let msg = payload
        .downcast_ref::<String>()
        .expect("the run panics with a formatted message");
    assert!(
        msg.starts_with("sweep point 2 panicked:") && msg.contains("at least one epoch"),
        "{msg}"
    );
    // Without it, the healthy points run.
    points.remove(2);
    assert_eq!(sweep::run(&points, false, |_| true).len(), 4);
}
