//! DS-Analyzer what-if analysis: sizing hardware before buying it (§3.4, App. C).
//!
//! DS-Analyzer profiles a job once — the GPU ingestion rate `G`, the prep
//! rate `P`, the storage rate `S` and the DRAM rate `C` — and then answers
//! questions like:
//!
//! * how much DRAM cache does this model need before more DRAM stops helping?
//! * how many CPU cores per GPU are needed to mask prep stalls?
//! * would a 2× faster GPU actually train faster, or just stall harder?
//! * would replacing the SATA SSD with NVMe move the bottleneck?
//!
//! The example prints the predicted speed-vs-cache curve (Figure 16) for
//! AlexNet and then cross-checks a few points against the full simulator,
//! reproducing the paper's "predictions within 4 % of empirical" claim
//! (Table 5).
//!
//! Run with `cargo run --release --example whatif_analysis`.

use datastalls::analyzer::{Bottleneck, ProfiledRates, WhatIfAnalysis};
use datastalls::prelude::*;

fn main() {
    let dataset = DatasetSpec::imagenet_1k().scaled(64);
    let model = ModelKind::AlexNet;
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.35);
    let job = JobSpec::new(model, dataset.clone(), 8, LoaderConfig::dali_best(model));

    let rates = ProfiledRates::measure(&server, &job);
    let whatif = WhatIfAnalysis::new(rates);

    println!(
        "== Profiled rates for {} on {} ==",
        model.name(),
        server.name
    );
    println!("GPU ingestion rate G : {:9.0} samples/s", rates.gpu_rate);
    println!("prep rate          P : {:9.0} samples/s", rates.prep_rate);
    println!(
        "storage rate       S : {:9.0} samples/s",
        rates.storage_rate
    );
    println!("DRAM rate          C : {:9.0} samples/s", rates.cache_rate);

    println!("\n== Predicted training speed vs cache size (Figure 16) ==");
    println!(
        "{:>8}  {:>12}  {:>10}",
        "cache %", "samples/s", "bottleneck"
    );
    for (x, speed) in whatif.speed_curve(11) {
        println!(
            "{:>7.0}%  {:>12.0}  {:>10}",
            x * 100.0,
            speed,
            match whatif.bottleneck(x) {
                Bottleneck::Io => "I/O",
                Bottleneck::Cpu => "CPU",
                Bottleneck::Gpu => "GPU",
            }
        );
    }
    println!(
        "recommended cache: {:.0}% of the dataset (more DRAM buys nothing beyond this)",
        whatif.recommended_cache_fraction() * 100.0
    );
    println!(
        "cores per GPU to mask prep stalls: {:.1}",
        whatif.recommended_cores_per_gpu(server.cpu_cores, server.num_gpus)
    );

    // Hardware what-ifs.
    println!("\n== Hardware what-ifs at 35% cache ==");
    let faster_gpu = whatif.with_faster_gpu(2.0);
    let nvme = whatif.with_faster_storage(6.0);
    println!(
        "today          : {:8.0} samples/s ({:?}-bound)",
        whatif.predicted_speed(0.35),
        whatif.bottleneck(0.35)
    );
    println!(
        "2x faster GPU  : {:8.0} samples/s ({:?}-bound) — faster compute alone does not help",
        faster_gpu.predicted_speed(0.35),
        faster_gpu.bottleneck(0.35)
    );
    println!(
        "NVMe storage   : {:8.0} samples/s ({:?}-bound)",
        nvme.predicted_speed(0.35),
        nvme.bottleneck(0.35)
    );

    // Cross-check predictions against the simulator (Table 5's methodology).
    // The what-if model assumes an efficient cache — "a cache of size x items
    // has at least x hits per epoch" (Appendix C) — so the empirical side of
    // the comparison runs with CoorDL's MinIO cache, like the paper's tool.
    // A larger (less scaled-down) dataset is used here so the pipeline's
    // ramp-up/drain overhead does not distort the comparison; all cache sizes
    // simulate as one parallel sweep.
    println!("\n== Prediction vs simulation (Table 5 methodology) ==");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>7}",
        "cache %", "predicted", "simulated", "error"
    );
    let big = DatasetSpec::imagenet_1k().scaled(16);
    let srv = ServerConfig::config_ssd_v100().with_cache_fraction(big.total_bytes(), 0.35);
    let minio_job = JobSpec::new(model, big, 8, LoaderConfig::coordl_best(model));
    let curve = whatif.validate_speed_curve(&srv, &minio_job, &[0.25, 0.35, 0.50], 3);
    for point in curve {
        println!(
            "{:>7.0}%  {:>12.0}  {:>12.0}  {:>6.1}%",
            point.cache_fraction * 100.0,
            point.predicted,
            point.empirical,
            point.relative_error() * 100.0
        );
    }
}
