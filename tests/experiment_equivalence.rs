//! Equivalence of the `CacheSpec` hierarchy with the pre-hierarchy cache
//! path, plus behavioural tests for the mixed-cluster scenario.
//!
//! Every storage node of an `Experiment` now runs a `dcache::TierChain`.
//! These tests pin the refactor's contract at the simulator level: the
//! default `CacheSpec::DramOnly` run — and a `CacheSpec::Tiered` run whose
//! SSD tier has zero capacity — reproduce the single-cache per-epoch metrics
//! *bit-identically* (same floats, same byte counts, same I/O timelines) in
//! every scenario shape.

use datastalls::pipeline::CacheSpec;
use datastalls::prelude::*;

const EPOCHS: u64 = 3;

/// Run one experiment twice — default cache spec vs a degenerate tiered
/// spec (SSD capacity 0) — and require bitwise-equal reports.
fn assert_degenerate_tier_equivalence(
    server: &ServerConfig,
    jobs: Vec<JobSpec>,
    scenario: Scenario,
) {
    let run = |cache: CacheSpec| {
        Experiment::on(server)
            .jobs(jobs.iter().cloned())
            .scenario(scenario)
            .cache(cache)
            .epochs(EPOCHS)
            .run()
    };
    let flat = run(CacheSpec::DramOnly);
    let degenerate = run(CacheSpec::Tiered {
        dram_bytes: server.dram_cache_bytes,
        ssd_bytes: 0,
    });
    // `SimReport` derives `PartialEq` over every field, including the f64
    // stall breakdowns and I/O timelines, so equality here is bitwise.
    assert_eq!(flat, degenerate);
    for unit in flat.per_job() {
        for epoch in &unit.epochs {
            assert_eq!(epoch.counts.lower_tier_hits, 0);
            assert_eq!(epoch.counts.bytes_from_lower_tiers, 0);
        }
    }
}

/// Figure 9a shape: ResNet18 alone on Config-SSD-V100, OpenImages, 65 % cache.
#[test]
fn single_server_chain_is_bit_identical_to_the_flat_cache() {
    let dataset = DatasetSpec::openimages_extended().scaled(256);
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.65);
    let model = ModelKind::ResNet18;
    let job = JobSpec::new(model, dataset, 8, LoaderConfig::coordl_best(model));
    assert_degenerate_tier_equivalence(&server, vec![job], Scenario::SingleServer);
}

/// Figure 9d shape: 8 single-GPU ResNet18 HP-search jobs, 35 % cache —
/// both the uncoordinated baseline and CoorDL's coordinated prep.
#[test]
fn hp_search_chain_is_bit_identical_to_the_flat_cache() {
    let dataset = DatasetSpec::imagenet_1k().scaled(1000);
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.35);
    let model = ModelKind::ResNet18;
    for loader in [
        LoaderConfig::dali_best(model),
        LoaderConfig::coordl_best(model),
    ] {
        let jobs: Vec<JobSpec> = (0..8)
            .map(|j| {
                JobSpec::new(model, dataset.clone(), 1, loader.clone())
                    .with_seed(0xC0DE + j as u64)
                    .with_batch(64)
            })
            .collect();
        assert_degenerate_tier_equivalence(&server, jobs, Scenario::HpSearch { jobs: 8 });
    }
}

/// Figure 9b shape: AlexNet across two Config-HDD-1080Ti servers, 65 % cache
/// per server — both uncoordinated and with partitioned caching.
#[test]
fn distributed_chain_is_bit_identical_to_the_flat_cache() {
    let dataset = DatasetSpec::openimages_extended().scaled(512);
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(dataset.total_bytes(), 0.65);
    let model = ModelKind::AlexNet;
    for loader in [
        LoaderConfig::dali_best(model),
        LoaderConfig::coordl_best(model),
    ] {
        let job = JobSpec::new(model, dataset.clone(), 8, loader);
        assert_degenerate_tier_equivalence(
            &server,
            vec![job],
            Scenario::Distributed { servers: 2 },
        );
    }
}

/// Same units and same per-epoch storage and network totals: the parts of a
/// report that do not name its scenario.
fn assert_same_run(a: &SimReport, b: &SimReport) {
    assert_eq!(a.units, b.units);
    assert_eq!(a.disk_bytes_per_epoch, b.disk_bytes_per_epoch);
    assert_eq!(a.remote_bytes_per_epoch, b.remote_bytes_per_epoch);
}

/// One job alone on a shared node is a single-server run whichever scenario
/// names it: the same disk share, cores, drift offset and key window, so the
/// same floats — for coordinated and uncoordinated loaders, sequential and
/// shuffled readers, record and file formats, over both cache hierarchies.
#[test]
fn one_job_on_a_shared_node_is_a_single_server_run() {
    let dataset = DatasetSpec::imagenet_1k().scaled(1000);
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.35);
    let model = ModelKind::ResNet18;
    let prep = LoaderConfig::best_prep_for(model);
    let caches = [
        CacheSpec::DramOnly,
        CacheSpec::Tiered {
            dram_bytes: server.dram_cache_bytes,
            ssd_bytes: server.dram_cache_bytes,
        },
    ];
    for loader in [
        LoaderConfig::coordl(prep),
        LoaderConfig::dali_shuffle(prep),
        LoaderConfig::dali_seq(prep),
        LoaderConfig::tfrecord(),
        LoaderConfig::pytorch_dl(),
    ] {
        let job = JobSpec::new(model, dataset.clone(), 8, loader).with_batch(64);
        for cache in caches {
            let run = |scenario: Scenario| {
                Experiment::on(&server)
                    .job(job.clone())
                    .scenario(scenario)
                    .cache(cache)
                    .epochs(EPOCHS)
                    .exact_engine(true)
                    .run()
            };
            let single = run(Scenario::SingleServer);
            for scenario in [
                Scenario::HpSearch { jobs: 1 },
                Scenario::MixedCluster,
                Scenario::ElasticCluster {
                    tenants: 1,
                    seed: 7,
                },
            ] {
                assert_same_run(&single, &run(scenario));
            }
        }
    }
}

/// A chaos cluster with no faults scheduled is a healthy distributed run.
#[test]
fn fault_free_chaos_is_a_healthy_distributed_run() {
    let dataset = DatasetSpec::openimages_extended().scaled(512);
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(dataset.total_bytes(), 0.35);
    let model = ModelKind::AlexNet;
    for loader in [
        LoaderConfig::dali_best(model),
        LoaderConfig::coordl_best(model),
    ] {
        let job = JobSpec::new(model, dataset.clone(), 8, loader);
        for cache in [
            CacheSpec::DramOnly,
            CacheSpec::Tiered {
                dram_bytes: server.dram_cache_bytes,
                ssd_bytes: server.dram_cache_bytes,
            },
        ] {
            let run = |scenario: Scenario| {
                Experiment::on(&server)
                    .job(job.clone())
                    .scenario(scenario)
                    .cache(cache)
                    .epochs(EPOCHS)
                    .run()
            };
            let chaos = Scenario::PartitionedChaos {
                servers: 2,
                faults: 0,
                seed: 11,
            };
            assert_same_run(&run(Scenario::Distributed { servers: 2 }), &run(chaos));
        }
    }
}

/// A real two-tier hierarchy in the distributed scenario: per-node DRAM+SSD
/// chains compose with partitioned caching, and the SSD tier absorbs reads
/// the flat configuration sent to the HDD.
#[test]
fn distributed_tiered_nodes_cut_disk_traffic() {
    let dataset = DatasetSpec::openimages_extended().scaled(512);
    // 35 % DRAM per node: two nodes cover only 70 % of the dataset, so the
    // uncoordinated baseline keeps hitting the HDD every epoch.
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(dataset.total_bytes(), 0.35);
    let model = ModelKind::AlexNet;
    let job = JobSpec::new(model, dataset.clone(), 8, LoaderConfig::dali_best(model));
    let run = |cache: CacheSpec| {
        Experiment::on(&server)
            .job(job.clone())
            .scenario(Scenario::Distributed { servers: 2 })
            .cache(cache)
            .epochs(EPOCHS)
            .run()
    };
    let flat = run(CacheSpec::DramOnly);
    let tiered = run(CacheSpec::Tiered {
        dram_bytes: server.dram_cache_bytes,
        ssd_bytes: server.dram_cache_bytes,
    });
    let flat_disk: u64 = flat.disk_bytes_per_epoch[1..].iter().sum();
    let tiered_disk: u64 = tiered.disk_bytes_per_epoch[1..].iter().sum();
    assert!(
        tiered_disk < flat_disk,
        "SSD spill tier absorbs steady-state HDD reads: {tiered_disk} vs {flat_disk}"
    );
    let lower_hits: u64 = tiered
        .per_server()
        .iter()
        .flat_map(|unit| unit.epochs[1..].iter())
        .map(|e| e.counts.lower_tier_hits)
        .sum();
    assert!(lower_hits > 0, "spill hits show up per server");
    assert!(
        tiered.steady_epoch_seconds() < flat.steady_epoch_seconds(),
        "530 MB/s SSD hits beat 15 MB/s HDD reads"
    );
}

/// Mixed cluster: two heterogeneous jobs (different models *and* datasets)
/// sharing one server contend for its cache, CPU and disk — each must be
/// slower than when it has the server to itself.
#[test]
fn mixed_cluster_jobs_contend_for_shared_resources() {
    let ds_images = DatasetSpec::imagenet_1k().scaled(1000);
    let ds_detect = DatasetSpec::openimages_extended().scaled(1000);
    // Cache holds only ~40 % of the combined working set, so sharing hurts.
    let cache = (ds_images.total_bytes() + ds_detect.total_bytes()) * 2 / 5;
    let server = ServerConfig::config_ssd_v100().with_cache_bytes(cache);

    let job_a = JobSpec::new(
        ModelKind::ResNet18,
        ds_images,
        4,
        LoaderConfig::dali_best(ModelKind::ResNet18),
    )
    .with_batch(64);
    let job_b = JobSpec::new(
        ModelKind::SsdRes18,
        ds_detect,
        4,
        LoaderConfig::dali_best(ModelKind::SsdRes18),
    )
    .with_batch(64);

    let alone = |job: &JobSpec| {
        Experiment::on(&server)
            .job(job.clone())
            .epochs(EPOCHS)
            .run()
            .steady_state()
            .epoch_seconds()
    };
    let alone_a = alone(&job_a);
    let alone_b = alone(&job_b);

    let mixed = Experiment::on(&server)
        .jobs([job_a, job_b])
        .scenario(Scenario::MixedCluster)
        .epochs(EPOCHS)
        .run();
    assert_eq!(mixed.scenario, Scenario::MixedCluster);
    let mixed_a = mixed.per_job()[0].steady_state().epoch_seconds();
    let mixed_b = mixed.per_job()[1].steady_state().epoch_seconds();

    assert!(
        mixed_a > alone_a * 1.05,
        "job A should be slower sharing the server: {mixed_a:.2}s vs {alone_a:.2}s alone"
    );
    assert!(
        mixed_b > alone_b * 1.05,
        "job B should be slower sharing the server: {mixed_b:.2}s vs {alone_b:.2}s alone"
    );
}

/// The mixed cluster keeps heterogeneous datasets distinct in the shared
/// cache: total bytes delivered to each job equal its own dataset's size per
/// epoch, and the shared cache cannot hold both working sets.
#[test]
fn mixed_cluster_accounts_bytes_per_dataset() {
    let ds_a = DatasetSpec::imagenet_1k().scaled(2000);
    let ds_b = DatasetSpec::fma().scaled(400);
    let cache = (ds_a.total_bytes() + ds_b.total_bytes()) / 2;
    let server = ServerConfig::config_ssd_v100().with_cache_bytes(cache);

    let report = Experiment::on(&server)
        .jobs([
            JobSpec::new(
                ModelKind::ResNet18,
                ds_a.clone(),
                4,
                LoaderConfig::coordl_best(ModelKind::ResNet18),
            )
            .with_batch(64),
            JobSpec::new(
                ModelKind::AudioM5,
                ds_b.clone(),
                4,
                LoaderConfig::coordl_best(ModelKind::AudioM5),
            ),
        ])
        .scenario(Scenario::MixedCluster)
        .epochs(2)
        .run();

    for (unit, ds) in report.per_job().iter().zip([&ds_a, &ds_b]) {
        for epoch in &unit.epochs {
            let delivered = epoch.counts.bytes_from_cache + epoch.counts.bytes_from_storage;
            let ratio = delivered as f64 / ds.total_bytes() as f64;
            assert!(
                (ratio - 1.0).abs() < 0.05,
                "each job sweeps its own dataset once per epoch, got {ratio:.3} for {}",
                ds.name
            );
        }
        // The shared cache is smaller than the combined working set, so
        // neither job can run fully cached after warm-up.
        assert!(unit.epochs[1].counts.bytes_from_storage > 0);
    }
}
