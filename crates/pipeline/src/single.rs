//! Single-server, single-job training (the paper's §5.1 scenario and most of
//! the §3 analysis).
//!
//! Behavioural tests of [`crate::Experiment`] under
//! [`crate::Scenario::SingleServer`].

mod tests {
    use crate::config::ServerConfig;
    use crate::experiment::{Experiment, Scenario};
    use crate::job::JobSpec;
    use crate::loader::LoaderConfig;
    use crate::metrics::RunResult;
    use dataset::DatasetSpec;
    use gpu::ModelKind;
    use prep::PrepBackend;

    /// A small dataset whose shape (item size) matches OpenImages but with
    /// few enough items that tests run instantly.
    fn small_openimages() -> DatasetSpec {
        DatasetSpec::openimages_extended().scaled(200) // ~10,750 items
    }

    fn ssd_server(dataset: &DatasetSpec, cache_frac: f64) -> ServerConfig {
        ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), cache_frac)
    }

    fn run_single(server: &ServerConfig, job: &JobSpec, epochs: u64) -> RunResult {
        Experiment::on(server)
            .job(job.clone())
            .epochs(epochs)
            .run()
            .into_run_result()
    }

    #[test]
    fn fully_cached_run_has_no_fetch_stalls_after_warmup() {
        let ds = small_openimages();
        // 1.05 × the nominal dataset size: per-item sizes are randomised
        // around the average, so "fully cached" needs a little slack.
        let server = ssd_server(&ds, 1.05);
        let job = JobSpec::new(
            ModelKind::ResNet50,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliCpu),
        );
        let run = run_single(&server, &job, 3);
        let ss = run.steady_state();
        assert_eq!(
            ss.counts.bytes_from_storage, 0,
            "everything should be cached"
        );
        assert!(ss.fetch_stall_fraction() < 0.02);
    }

    #[test]
    fn uncached_hdd_run_is_io_bound() {
        let ds = small_openimages();
        let server = ServerConfig::config_hdd_1080ti().with_cache_fraction(ds.total_bytes(), 0.1);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let run = run_single(&server, &job, 2);
        let ss = run.steady_state();
        assert!(
            ss.fetch_stall_fraction() > 0.5,
            "HDD training should be dominated by fetch stalls, got {}",
            ss.fetch_stall_fraction()
        );
    }

    #[test]
    fn prep_bound_when_cached_with_few_cores() {
        // ResNet18 on V100s with 3 cores/GPU and a fully cached dataset:
        // the paper reports ~50 % prep stalls (Figure 5/6).
        let ds = small_openimages();
        let server = ssd_server(&ds, 1.05);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliCpu),
        );
        let run = run_single(&server, &job, 2);
        let ss = run.steady_state();
        assert!(
            ss.prep_stall_fraction() > 0.3,
            "expected significant prep stalls, got {}",
            ss.prep_stall_fraction()
        );
        assert!(ss.fetch_stall_fraction() < 0.05);
    }

    #[test]
    fn minio_reduces_disk_io_versus_lru_at_partial_cache() {
        let ds = small_openimages();
        let server = ssd_server(&ds, 0.65);
        let dali = JobSpec::new(
            ModelKind::ShuffleNetV2,
            ds.clone(),
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let coordl = dali.with_loader(LoaderConfig::coordl(PrepBackend::DaliGpu));
        let dali_run = run_single(&server, &dali, 3);
        let coordl_run = run_single(&server, &coordl, 3);
        let dali_ss = dali_run.steady_state();
        let coordl_ss = coordl_run.steady_state();
        // CoorDL's MinIO cache reaches the capacity-miss minimum (~35 % of
        // items), the LRU page cache thrashes and misses more (§5.1).
        assert!(
            coordl_ss.counts.miss_ratio() < dali_ss.counts.miss_ratio(),
            "MinIO miss {} should be below LRU miss {}",
            coordl_ss.counts.miss_ratio(),
            dali_ss.counts.miss_ratio()
        );
        assert!((coordl_ss.counts.miss_ratio() - 0.35).abs() < 0.05);
        assert!(coordl_ss.counts.bytes_from_storage < dali_ss.counts.bytes_from_storage);
        // And that translates into faster epochs.
        assert!(coordl_run.speedup_over(&dali_run) >= 1.0);
    }

    #[test]
    fn warmup_epoch_reads_whole_dataset_from_disk() {
        let ds = small_openimages();
        let server = ssd_server(&ds, 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds.clone(),
            8,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let run = run_single(&server, &job, 2);
        let warm = run.warmup();
        // Cold cache: every byte of the first epoch comes from storage.
        assert_eq!(warm.counts.bytes_from_cache, 0);
        let expected: u64 = ds.total_bytes();
        let ratio = warm.counts.bytes_from_storage as f64 / expected as f64;
        assert!((ratio - 1.0).abs() < 0.05, "disk bytes ratio {ratio}");
    }

    #[test]
    fn gpu_bound_language_model_has_negligible_stalls() {
        // BERT-Large is GPU bound: data stalls should be tiny even with a
        // small cache (§3.1 excludes it from the analysis for this reason).
        let ds = DatasetSpec::new("wiki-books", 2000, 8 * 1024, 0.2, 3.0);
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.25);
        let job = JobSpec::new(
            ModelKind::BertLarge,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliCpu),
        );
        let run = run_single(&server, &job, 2);
        assert!(run.steady_state().breakdown.stall_fraction() < 0.05);
    }

    #[test]
    fn io_timeline_is_produced_and_sums_to_disk_bytes() {
        let ds = small_openimages();
        let server = ssd_server(&ds, 0.5);
        let job = JobSpec::new(
            ModelKind::ResNet18,
            ds,
            8,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let run = run_single(&server, &job, 2);
        let e = &run.epochs[1];
        assert!(!e.io_timeline.is_empty());
        let sum: f64 = e.io_timeline.iter().map(|&(_, v)| v).sum();
        assert!((sum - e.counts.bytes_from_storage as f64).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "GPUs")]
    fn too_many_gpus_rejected() {
        let ds = small_openimages();
        let server = ssd_server(&ds, 1.05);
        let job = JobSpec::new(ModelKind::ResNet18, ds, 16, LoaderConfig::pytorch_dl());
        let _ = run_single(&server, &job, 1);
    }

    #[test]
    fn scenario_takes_exactly_one_job() {
        let ds = small_openimages();
        let server = ssd_server(&ds, 0.5);
        let job = JobSpec::new(ModelKind::ResNet18, ds, 8, LoaderConfig::pytorch_dl());
        let result = std::panic::catch_unwind(|| {
            Experiment::on(&server)
                .job(job.clone())
                .job(job)
                .scenario(Scenario::SingleServer)
                .run()
        });
        assert!(result.is_err(), "two jobs must be rejected");
    }
}
