//! Integration tests for partitioned caching (§4.2) — the functional
//! partitioned `Session` and the distributed simulator, cross-checked
//! against each other.

use datastalls::coordl::{
    CacheTier, DirectBackend, FetchOrigin, LoaderStats, Mode, PartitionedCacheCluster, Session,
    SessionConfig, TieredByteCache,
};
use datastalls::dataset::EpochSampler;
use datastalls::prelude::*;
use std::sync::Arc;

fn cluster(
    items: u64,
    item_bytes: u64,
    servers: usize,
    per_server_fraction: f64,
) -> (Arc<dyn DataSource>, Session) {
    let spec = DatasetSpec::new("part-test", items, item_bytes, 0.0, 4.0);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 5));
    let per_server = (spec.total_bytes() as f64 * per_server_fraction) as u64;
    let session = Session::builder(
        Arc::clone(&store),
        SessionConfig {
            seed: 99,
            cache_capacity_bytes: per_server,
            ..SessionConfig::default()
        },
    )
    .mode(Mode::Partitioned { nodes: servers })
    .build()
    .expect("valid partitioned session");
    (store, session)
}

/// Run one epoch: each server fetches its random shard, returning
/// (local hits, remote hits, storage reads).  Drives the session's cluster
/// item by item so origins can be classified exactly.
fn run_epoch(
    store: &Arc<dyn DataSource>,
    session: &Session,
    epoch: u64,
    servers: usize,
) -> (u64, u64, u64) {
    let cluster = session.partitioned_cluster().expect("partitioned mode");
    let sampler = EpochSampler::new(store.len(), 99);
    let (mut local, mut remote, mut storage) = (0, 0, 0);
    for server in 0..servers {
        for item in sampler.distributed_shard(epoch, server, servers) {
            match cluster.fetch(server, item).expect("cluster fetch").1 {
                FetchOrigin::LocalCache => local += 1,
                FetchOrigin::RemoteCache(_) => remote += 1,
                FetchOrigin::Storage => storage += 1,
            }
        }
    }
    (local, remote, storage)
}

#[test]
fn aggregate_cache_covering_the_dataset_eliminates_storage_io_after_warmup() {
    // §4.2: "the entire dataset is fetched exactly once from disk in the
    // duration of distributed training".
    let servers = 2;
    let (store, cluster) = cluster(2000, 4096, servers, 0.55);
    let (_, _, warm_storage) = run_epoch(&store, &cluster, 0, servers);
    assert_eq!(
        warm_storage,
        store.len(),
        "cold caches: everything comes from storage once"
    );
    for epoch in 1..4u64 {
        let (local, remote, storage) = run_epoch(&store, &cluster, epoch, servers);
        assert_eq!(
            storage, 0,
            "epoch {epoch}: no storage reads once DRAM covers the dataset"
        );
        assert_eq!(local + remote, store.len());
        assert!(
            remote > 0,
            "random sharding forces some remote-cache traffic"
        );
    }
}

#[test]
fn undersized_aggregate_cache_still_prefers_remote_dram_over_storage() {
    let servers = 2;
    // 30 % per server -> 60 % aggregate: 40 % of fetches must still hit disk.
    let (store, cluster) = cluster(2000, 4096, servers, 0.30);
    run_epoch(&store, &cluster, 0, servers);
    let (local, remote, storage) = run_epoch(&store, &cluster, 1, servers);
    let total = (local + remote + storage) as f64;
    let dram_fraction = (local + remote) as f64 / total;
    assert!(
        (dram_fraction - 0.60).abs() < 0.05,
        "≈60% of fetches should be served from some server's DRAM, got {dram_fraction:.2}"
    );
    assert!(storage > 0);
}

#[test]
fn directory_routes_every_item_to_exactly_one_owner() {
    let servers = 4;
    let (store, session) = cluster(1200, 1024, servers, 0.30);
    run_epoch(&store, &session, 0, servers);
    let cluster = session.partitioned_cluster().unwrap();
    assert_eq!(
        cluster.directory_len() as u64,
        store.len(),
        "after warm-up every item has exactly one registered owner"
    );
    // Ownership is balanced: each server holds roughly a quarter.
    let mut held = vec![0u64; servers];
    for (server, slot) in held.iter_mut().enumerate().take(servers) {
        *slot = cluster.stats(server).storage_reads;
    }
    let expect = store.len() / servers as u64;
    for (server, reads) in held.iter().enumerate() {
        assert!(
            (*reads as f64 - expect as f64).abs() / (expect as f64) < 0.25,
            "server {server} populated {reads} items, expected ≈{expect}"
        );
    }
}

#[test]
fn remote_traffic_is_accounted_symmetrically() {
    let servers = 2;
    let (store, session) = cluster(1000, 2048, servers, 0.55);
    run_epoch(&store, &session, 0, servers);
    run_epoch(&store, &session, 1, servers);
    let cluster = session.partitioned_cluster().unwrap();
    let a = cluster.stats(0);
    let b = cluster.stats(1);
    assert_eq!(
        a.remote_bytes_in + b.remote_bytes_in,
        a.remote_bytes_out + b.remote_bytes_out,
        "bytes received by all servers equal bytes served by all servers"
    );
    assert_eq!(
        session.stats().bytes_from_storage(),
        (0..store.len()).map(|i| store.item_bytes(i)).sum::<u64>(),
        "storage is read exactly one dataset's worth in total"
    );
}

#[test]
fn session_streams_match_the_manual_cluster_drive() {
    // Mode::Partitioned as a first-class loader: streaming each node's shard
    // through Session::epoch preps every shard item exactly once and leaves
    // the same cache state a manual fetch drive would.
    let servers = 2;
    let (store, session) = cluster(600, 512, servers, 0.65);
    for epoch in 0..2u64 {
        let run = session.epoch(epoch);
        let mut delivered = 0u64;
        for node in 0..servers {
            for batch in run.stream(node) {
                delivered += batch.expect("partitioned epochs do not fail").len() as u64;
            }
        }
        assert_eq!(delivered, store.len(), "epoch {epoch} covers the dataset");
    }
    let report = session.report();
    assert_eq!(report.mode, "partitioned");
    assert_eq!(
        report.epochs[1].counts.bytes_from_storage, 0,
        "aggregate covers it"
    );
    assert!(report.bytes_from_remote > 0);
}

#[test]
fn simulator_agrees_partitioned_caching_removes_disk_io() {
    // The same claim at the simulator level (Figure 18's steady state): with
    // 65 % per-server cache and two servers, CoorDL's steady-state disk I/O
    // is zero while DALI keeps reading from storage.
    let dataset = DatasetSpec::openimages_extended().scaled(128);
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(dataset.total_bytes(), 0.65);
    let model = ModelKind::ResNet50;
    let dali = Experiment::on(&server)
        .job(JobSpec::new(
            model,
            dataset.clone(),
            8,
            LoaderConfig::dali_best(model),
        ))
        .scenario(Scenario::Distributed { servers: 2 })
        .epochs(3)
        .run();
    let coordl = Experiment::on(&server)
        .job(JobSpec::new(
            model,
            dataset,
            8,
            LoaderConfig::coordl_best(model),
        ))
        .scenario(Scenario::Distributed { servers: 2 })
        .epochs(3)
        .run();
    let dali_disk: u64 = dali.disk_bytes_per_server(2).iter().sum();
    let coordl_disk: u64 = coordl.disk_bytes_per_server(2).iter().sum();
    assert!(dali_disk > 0, "uncoordinated caches keep hitting storage");
    assert_eq!(
        coordl_disk, 0,
        "partitioned caching serves every miss from remote DRAM"
    );
    assert!(
        coordl.speedup_over(&dali) > 2.0,
        "on hard drives the win is large"
    );
    assert!(
        coordl.avg_network_gbps(2) > 0.0 && coordl.avg_network_gbps(2) < 40.0,
        "CoorDL uses a fraction of the 40 Gbps link"
    );
}

#[test]
fn remote_tier_sits_between_the_local_chain_and_storage() {
    // The CoorDL lookup order: a node's own chain first, then the peer view,
    // then the durable store — and a remote hit never *promotes* (copies)
    // the bytes into the fetcher's chain, so each item stays cached exactly
    // once cluster-wide with ownership where the directory says it is.
    let items = 40u64;
    let spec = DatasetSpec::new("remote-order", items, 128, 0.0, 4.0);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 5));
    let tiers: Vec<Arc<dyn CacheTier>> = (0..2)
        .map(|_| {
            Arc::new(TieredByteCache::single(
                PolicyKind::MinIo,
                spec.total_bytes(),
            )) as Arc<dyn CacheTier>
        })
        .collect();
    let cluster = Arc::new(PartitionedCacheCluster::with_stack(
        Arc::new(DirectBackend::new(Arc::clone(&store))),
        tiers,
        Arc::new(LoaderStats::default()),
    ));
    // Warm up with a fixed split: even items populate server 0, odd server 1.
    for item in 0..items {
        let (_, origin) = cluster.fetch((item % 2) as usize, item).unwrap();
        assert_eq!(origin, FetchOrigin::Storage, "cold fetch reads storage");
    }
    let odd = 7u64; // registered to server 1 by the warm-up

    // Fetch order: the owner serves it locally; everyone else remotely —
    // and repeating the remote fetch changes nothing, because the bytes are
    // never admitted into the fetcher's chain.
    assert_eq!(cluster.fetch(1, odd).unwrap().1, FetchOrigin::LocalCache);
    for _ in 0..2 {
        assert_eq!(
            cluster.fetch(0, odd).unwrap().1,
            FetchOrigin::RemoteCache(1)
        );
        assert!(
            !cluster.tier(0).contains(odd),
            "remote hits must not duplicate bytes into the fetcher's tier"
        );
    }
    // The probe half agrees: remote from 0, not remote from its owner.
    assert_eq!(
        cluster.remote_fetch(0, odd).unwrap().map(|(_, p)| p),
        Some(1)
    );
    assert!(cluster.remote_fetch(1, odd).unwrap().is_none());
}

#[test]
fn node_streams_are_bit_identical_for_any_worker_count() {
    type StreamSample = (u64, usize, u64, u64, Vec<u8>);
    // The partitioned loader's determinism contract: the per-node shard
    // streams (items, augmentation seeds and prepared bytes, in minibatch
    // order) do not depend on how many prep workers each node runs.
    let servers = 2;
    let collect = |workers: usize| {
        let spec = DatasetSpec::new("det", 300, 512, 0.2, 4.0);
        let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec.clone(), 5));
        let session = Session::builder(
            store,
            SessionConfig {
                seed: 99,
                num_workers: workers,
                cache_capacity_bytes: spec.total_bytes() * 65 / 100,
                ..SessionConfig::default()
            },
        )
        .mode(Mode::Partitioned { nodes: servers })
        .build()
        .unwrap();
        let mut streams: Vec<Vec<StreamSample>> = Vec::new();
        for epoch in 0..2u64 {
            let run = session.epoch(epoch);
            for node in 0..servers {
                let mut stream = Vec::new();
                for batch in run.stream(node) {
                    let mb = batch.unwrap();
                    for s in &mb.samples {
                        stream.push((
                            mb.epoch,
                            mb.index,
                            s.item,
                            s.augmentation_seed,
                            s.data.to_vec(),
                        ));
                    }
                }
                streams.push(stream);
            }
        }
        streams
    };
    let one = collect(1);
    for workers in [2usize, 8] {
        assert_eq!(
            one,
            collect(workers),
            "{workers} prep workers changed a node's delivered stream"
        );
    }
}

#[test]
fn more_servers_increase_throughput_when_io_is_not_the_bottleneck() {
    // Figure 18: with partitioned caching, going from 2 to 4 servers scales
    // throughput because the job is no longer I/O bound.  A smaller per-GPU
    // batch keeps enough iterations per epoch on the scaled-down dataset for
    // the pipelined stages to reach steady state.
    let dataset = DatasetSpec::openimages_extended().scaled(32);
    let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(dataset.total_bytes(), 0.65);
    let model = ModelKind::ResNet50;
    let job = JobSpec::new(model, dataset, 8, LoaderConfig::coordl_best(model)).with_batch(128);
    let distributed = |servers: usize| {
        Experiment::on(&server)
            .job(job.clone())
            .scenario(Scenario::Distributed { servers })
            .epochs(3)
            .run()
    };
    let two = distributed(2);
    let four = distributed(4);
    let scaling = four.steady_samples_per_sec() / two.steady_samples_per_sec();
    assert!(
        scaling > 1.6,
        "4 servers should be close to 2x the throughput of 2, got {scaling:.2}x"
    );
}
