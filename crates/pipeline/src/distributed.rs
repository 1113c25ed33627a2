//! Multi-server distributed data-parallel training (§3.3.1, §4.2, §5.2).
//!
//! Each epoch the dataset is split into random, disjoint per-server shards
//! that change every epoch, so without coordination a server keeps re-reading
//! items from its local storage even when a peer has them cached.  CoorDL's
//! partitioned cache registers which server's MinIO cache holds each item and
//! serves local misses from the remote cache over the commodity network
//! instead of local storage: beyond the first epoch the dataset is read from
//! storage at most once for the entire job.
//!
//! Behavioural tests of [`crate::Experiment`] under
//! [`crate::Scenario::Distributed`].

mod tests {
    use crate::config::ServerConfig;
    use crate::experiment::{Experiment, Scenario, SimReport};
    use crate::job::JobSpec;
    use crate::loader::LoaderConfig;
    use dataset::DatasetSpec;
    use gpu::ModelKind;
    use prep::PrepBackend;

    fn small_openimages() -> DatasetSpec {
        DatasetSpec::openimages_extended().scaled(2000)
    }

    fn run_distributed(
        server: &ServerConfig,
        job: &JobSpec,
        servers: usize,
        epochs: u64,
    ) -> SimReport {
        Experiment::on(server)
            .job(job.clone())
            .scenario(Scenario::Distributed { servers })
            .epochs(epochs)
            .run()
    }

    #[test]
    fn partitioned_cache_eliminates_disk_io_when_aggregate_memory_suffices() {
        // §4.2: two servers that can each cache 65 % of the dataset hold it
        // entirely in aggregate, so no disk I/O beyond the first epoch.
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::AlexNet,
            ds,
            8,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let res = run_distributed(&server, &job, 2, 3);
        for s in 0..2 {
            assert_eq!(
                res.disk_bytes_per_server(1)[s],
                0,
                "server {s} should read nothing from disk after warm-up"
            );
            assert_eq!(res.disk_bytes_per_server(2)[s], 0);
        }
        // But the warm-up epoch did read from disk.
        assert!(res.disk_bytes_per_server(0).iter().sum::<u64>() > 0);
        // And the network carried roughly half the dataset per epoch.
        assert!(res.remote_bytes_per_epoch[1] > 0);
    }

    #[test]
    fn uncoordinated_distributed_training_keeps_hitting_disk() {
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::AlexNet,
            ds.clone(),
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let res = run_distributed(&server, &job, 2, 3);
        let disk_epoch2: u64 = res.disk_bytes_per_server(2).iter().sum();
        // Each server still reads a sizeable fraction of its shard from disk.
        assert!(
            disk_epoch2 > ds.total_bytes() / 10,
            "expected continued disk I/O, got {disk_epoch2} bytes"
        );
    }

    #[test]
    fn coordl_speeds_up_distributed_training_on_hdd() {
        // Figure 9b: AlexNet on OpenImages across two Config-HDD-1080Ti
        // servers speeds up by an order of magnitude.
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let model = ModelKind::AlexNet;
        let mk = |loader| JobSpec::new(model, ds.clone(), 8, loader);
        let baseline = run_distributed(&server, &mk(LoaderConfig::dali_best(model)), 2, 3);
        let coordl = run_distributed(&server, &mk(LoaderConfig::coordl_best(model)), 2, 3);
        let speedup = coordl.speedup_over(&baseline);
        assert!(
            speedup > 5.0,
            "expected order-of-magnitude speedup on HDD, got {speedup:.1}x"
        );
    }

    #[test]
    fn adding_servers_scales_coordl_throughput() {
        // Figure 18: with partitioned caching, going from 2 to 4 servers keeps
        // the job GPU bound, so throughput scales with the GPU count.
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::ResNet50,
            ds,
            8,
            LoaderConfig::coordl(PrepBackend::DaliCpu),
        );
        let two = run_distributed(&server, &job, 2, 3);
        let four = run_distributed(&server, &job, 4, 3);
        let scaling = four.steady_samples_per_sec() / two.steady_samples_per_sec();
        assert!(
            scaling > 1.6 && scaling < 2.3,
            "4-server vs 2-server scaling = {scaling:.2}"
        );
    }

    #[test]
    fn network_usage_is_a_fraction_of_the_link() {
        // §5.5: CoorDL used ~5.7 Gbps per server of the 40 Gbps link.
        let ds = small_openimages();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::ResNet50,
            ds,
            8,
            LoaderConfig::coordl(PrepBackend::DaliCpu),
        );
        let res = run_distributed(&server, &job, 2, 3);
        let gbps = res.avg_network_gbps(2);
        assert!(gbps > 0.0 && gbps < 36.0, "network use {gbps:.1} Gbps");
    }

    fn run_chaos(
        server: &ServerConfig,
        job: &JobSpec,
        servers: usize,
        faults: usize,
        seed: u64,
        epochs: u64,
    ) -> SimReport {
        Experiment::on(server)
            .job(job.clone())
            .scenario(Scenario::PartitionedChaos {
                servers,
                faults,
                seed,
            })
            .epochs(epochs)
            .run()
    }

    #[test]
    fn chaos_healthy_prefix_is_bit_identical_to_distributed() {
        // The fault schedule never fires before epoch 1, so epoch 0 of a
        // chaos run must match Scenario::Distributed byte for byte: same
        // engine, same shards, same directory.
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::AlexNet,
            ds,
            8,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let healthy = run_distributed(&server, &job, 3, 4);
        let chaos = run_chaos(&server, &job, 3, 2, 42, 4);
        for s in 0..3 {
            assert_eq!(
                chaos.per_server()[s].epochs[0],
                healthy.per_server()[s].epochs[0],
                "server {s}: healthy prefix diverged"
            );
        }
    }

    #[test]
    fn chaos_runs_are_deterministic_and_lose_no_sample() {
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::AlexNet,
            ds.clone(),
            8,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let a = run_chaos(&server, &job, 3, 3, 7, 5);
        let b = run_chaos(&server, &job, 3, 3, 7, 5);
        assert_eq!(a, b, "chaos runs must be deterministic");
        // Exactly-once accounting: a failed server's consumer keeps training,
        // so every epoch still delivers the whole dataset across the shards.
        for e in 0..5 {
            let samples: u64 = a
                .per_server()
                .iter()
                .map(|r| r.epochs[e].counts.samples)
                .sum();
            assert_eq!(samples, ds.num_items, "epoch {e} lost or duplicated");
        }
    }

    #[test]
    fn a_kill_costs_disk_reads_that_a_healthy_cluster_avoids() {
        // Find a seed whose 3-server schedule starts with a kill that is
        // never rejoined: the dropped shard keeps costing storage reads in
        // every later epoch, where the healthy run reads nothing.
        let epochs = 4u64;
        let seed = (0..256)
            .find(|&s| {
                let sched = crate::fault_schedule(3, epochs, 1, s);
                sched.len() == 1 && sched[0].kind == crate::FaultKind::Kill
            })
            .expect("some seed schedules a lone kill");
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.65);
        let job = JobSpec::new(
            ModelKind::AlexNet,
            ds,
            8,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let healthy = run_distributed(&server, &job, 3, epochs);
        let chaos = run_chaos(&server, &job, 3, 1, seed, epochs);
        let last = (epochs - 1) as usize;
        assert_eq!(
            healthy.disk_bytes_per_epoch[last], 0,
            "healthy steady state is storage-free"
        );
        assert!(
            chaos.disk_bytes_per_epoch[last] > 0,
            "the dead server's shard must fall back to storage"
        );
    }

    #[test]
    fn single_server_distributed_matches_single_server_shape() {
        // With one server, the distributed driver degenerates to the
        // single-server case (no remote traffic).
        let ds = small_openimages();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let res = run_distributed(&server, &job, 1, 2);
        assert_eq!(res.remote_bytes_per_epoch[1], 0);
        assert_eq!(res.per_server().len(), 1);
    }
}
