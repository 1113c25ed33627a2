//! Hyper-parameter search: several concurrent jobs training the same dataset
//! on one server (§3.3.1, §4.3, §5.3).
//!
//! Without coordination every job fetches and pre-processes the dataset
//! independently: the jobs share the server's page cache (causing thrashing
//! and read amplification) and split its CPU cores (causing prep stalls).
//! With CoorDL's *coordinated prep*, the dataset is fetched and pre-processed
//! exactly once per epoch by the ensemble and every prepared minibatch is
//! consumed by every job through the cross-job staging area.
//!
//! Behavioural tests of [`crate::Experiment`] under
//! [`crate::Scenario::HpSearch`].

mod tests {
    use crate::config::ServerConfig;
    use crate::experiment::{Experiment, Scenario, SimReport};
    use crate::job::JobSpec;
    use crate::loader::LoaderConfig;
    use dataset::DatasetSpec;
    use gpu::ModelKind;
    use prep::PrepBackend;

    fn small_imagenet() -> DatasetSpec {
        DatasetSpec::imagenet_1k().scaled(2000) // ~640 items
    }

    fn eight_jobs(model: ModelKind, ds: &DatasetSpec, loader: LoaderConfig) -> Vec<JobSpec> {
        (0..8)
            .map(|i| {
                JobSpec::new(model, ds.clone(), 1, loader.clone())
                    .with_seed(1000 + i)
                    .with_batch(64)
            })
            .collect()
    }

    fn run_hp(server: &ServerConfig, jobs: &[JobSpec], epochs: u64) -> SimReport {
        Experiment::on(server)
            .jobs(jobs.to_vec())
            .scenario(Scenario::HpSearch { jobs: jobs.len() })
            .epochs(epochs)
            .run()
    }

    #[test]
    fn uncoordinated_hp_search_amplifies_disk_reads() {
        // §3.3.1: 8 uncoordinated jobs with 35 % cache produce ~7× read
        // amplification per epoch.
        let ds = small_imagenet();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.35);
        let jobs = eight_jobs(
            ModelKind::ResNet18,
            &ds,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let res = run_hp(&server, &jobs, 2);
        let amp = res.read_amplification(ds.total_bytes(), 1);
        assert!(
            amp > 4.0 && amp <= 8.3,
            "expected 5-8x read amplification, got {amp:.2}"
        );
    }

    #[test]
    fn coordinated_prep_fetches_dataset_once_per_epoch() {
        let ds = small_imagenet();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.35);
        let jobs = eight_jobs(
            ModelKind::ResNet18,
            &ds,
            LoaderConfig::coordl(PrepBackend::DaliGpu),
        );
        let res = run_hp(&server, &jobs, 2);
        // Steady state: only the uncached 65 % is read, once for all jobs.
        let amp = res.read_amplification(ds.total_bytes(), 1);
        assert!(
            amp < 0.75,
            "expected < 0.75x dataset per epoch, got {amp:.2}"
        );
    }

    #[test]
    fn coordl_speeds_up_hp_search() {
        let ds = small_imagenet();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.35);
        let model = ModelKind::AlexNet;
        let baseline = run_hp(
            &server,
            &eight_jobs(model, &ds, LoaderConfig::dali_best(model)),
            3,
        );
        let coordl = run_hp(
            &server,
            &eight_jobs(model, &ds, LoaderConfig::coordl_best(model)),
            3,
        );
        let speedup = coordl.speedup_over(&baseline);
        assert!(
            speedup > 1.5,
            "CoorDL should clearly accelerate HP search, got {speedup:.2}x"
        );
    }

    #[test]
    fn fully_cached_hp_search_still_benefits_from_shared_prep() {
        // §5.3 / Table 7: with ImageNet-1k fully cached, coordinating prep
        // alone speeds up AlexNet HP search (~1.9×) because the baseline is
        // prep bound at 3 cores/job.
        let ds = small_imagenet();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 1.05);
        let model = ModelKind::AlexNet;
        let baseline = run_hp(
            &server,
            &eight_jobs(model, &ds, LoaderConfig::dali_best(model)),
            2,
        );
        let coordl = run_hp(
            &server,
            &eight_jobs(model, &ds, LoaderConfig::coordl_best(model)),
            2,
        );
        let speedup = coordl.speedup_over(&baseline);
        assert!(speedup > 1.3, "expected >1.3x, got {speedup:.2}x");
        // No fetch I/O in either case beyond warm-up.
        assert_eq!(coordl.disk_bytes_per_epoch[1], 0);
    }

    #[test]
    fn jobs_with_different_datasets_are_rejected() {
        let ds = small_imagenet();
        let other = DatasetSpec::new("other", 100, 1000, 0.0, 6.0);
        let server = ServerConfig::config_ssd_v100();
        let jobs = vec![
            JobSpec::new(ModelKind::ResNet18, ds, 1, LoaderConfig::pytorch_dl()),
            JobSpec::new(ModelKind::ResNet18, other, 1, LoaderConfig::pytorch_dl()),
        ];
        let result = std::panic::catch_unwind(|| run_hp(&server, &jobs, 1));
        assert!(result.is_err());
    }

    #[test]
    fn per_job_results_are_symmetric() {
        let ds = small_imagenet();
        let server = ServerConfig::config_ssd_v100().with_cache_fraction(ds.total_bytes(), 0.5);
        let jobs = eight_jobs(
            ModelKind::MobileNetV2,
            &ds,
            LoaderConfig::dali_shuffle(PrepBackend::DaliGpu),
        );
        let res = run_hp(&server, &jobs, 2);
        let times: Vec<f64> = res
            .per_job()
            .iter()
            .map(|r| r.steady_state().epoch_seconds())
            .collect();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min < 1.25,
            "jobs should finish within 25% of each other"
        );
    }
}
