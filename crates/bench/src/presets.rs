//! Scaled datasets, server presets and grid constants shared by the
//! simulator rows of [`FIGURES`](crate::FIGURES).

use dataset::DatasetSpec;
use pipeline::ServerConfig;
use prep::{PrepBackend, PrepCostModel, PrepPipeline};

/// Dataset scale-down factor used by the figures.
///
/// Every dataset is shrunk by this factor (item sizes are untouched, only the
/// item *count* shrinks) so one `dstool figures` run regenerates every figure
/// in seconds instead of simulating terabytes of I/O.  Because the cache is
/// always sized as a fraction of the dataset and every reported quantity is a
/// ratio (stall fraction, hit ratio, speedup, read amplification), the shapes
/// the paper reports are invariant to this factor — only absolute epoch
/// seconds change.  `EXPERIMENTS.md` discusses this in more detail.
pub const SCALE: u64 = 16;

/// Epochs simulated per configuration: a cold warm-up epoch plus two measured
/// epochs, matching the paper's methodology (§3.1).
pub const EPOCHS: u64 = 3;

/// A dataset scaled down by [`SCALE`].
pub fn scaled(spec: DatasetSpec) -> DatasetSpec {
    spec.scaled(SCALE)
}

/// Config-SSD-V100 with its DRAM cache sized to hold `cache_fraction` of
/// `dataset`.
pub fn server_ssd(dataset: &DatasetSpec, cache_fraction: f64) -> ServerConfig {
    ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), cache_fraction)
}

/// Config-HDD-1080Ti with its DRAM cache sized to hold `cache_fraction` of
/// `dataset`.
pub fn server_hdd(dataset: &DatasetSpec, cache_fraction: f64) -> ServerConfig {
    ServerConfig::config_hdd_1080ti().with_cache_fraction(dataset.total_bytes(), cache_fraction)
}

/// vCPUs per GPU swept by Figure 12.
pub const VCPUS_PER_GPU: [usize; 5] = [2, 3, 4, 6, 8];

/// HP-search ensemble widths (number of concurrent jobs; each width uses all
/// 8 GPUs) swept by Figure 9(e).
pub const HP_WIDTHS: [usize; 4] = [8, 4, 2, 1];

/// Server counts swept by Figure 18.
pub const SCALABILITY_SERVERS: [usize; 4] = [1, 2, 3, 4];

/// Cache fractions (percent of the combined working set) swept by the
/// `mixed_cluster` row.
pub const MIXED_CACHE_PERCENTS: [u32; 3] = [25, 50, 75];

/// Effective physical-core count for `vcpus_per_gpu` hardware threads per
/// GPU on the Figure 12 server (32 physical cores, 8 GPUs): hyper-threads
/// beyond the physical cores contribute ~30 % of a core.
pub fn vcpu_effective_cores(vcpus_per_gpu: usize) -> f64 {
    let cost =
        PrepCostModel::for_pipeline(&PrepPipeline::image_classification(), PrepBackend::DaliCpu);
    cost.effective_cores((vcpus_per_gpu * 8) as f64, 32.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_dataset_preserves_item_size() {
        let full = DatasetSpec::imagenet_1k();
        let small = scaled(full.clone());
        assert_eq!(small.avg_item_bytes, full.avg_item_bytes);
        assert!(small.num_items <= full.num_items / SCALE + 1);
    }

    #[test]
    fn server_cache_is_a_fraction_of_the_dataset() {
        let ds = scaled(DatasetSpec::imagenet_1k());
        let s = server_ssd(&ds, 0.35);
        let frac = s.dram_cache_bytes as f64 / ds.total_bytes() as f64;
        assert!((frac - 0.35).abs() < 0.01, "cache fraction {frac}");
        assert_eq!(s.device.name, "sata-ssd");
        assert_eq!(server_hdd(&ds, 0.5).device.name, "hdd");
    }

    #[test]
    fn vcpu_effective_cores_are_sublinear_beyond_physical() {
        // 4 vCPUs/GPU = the 32 physical cores; 8/GPU adds only hyper-threads.
        let at4 = vcpu_effective_cores(4);
        let at8 = vcpu_effective_cores(8);
        assert!(at8 > at4, "more vCPUs must not hurt");
        assert!(at8 < at4 * 2.0, "hyper-threads must not scale linearly");
    }
}
