//! Quickstart: diagnose data stalls for one training job, then fix them.
//!
//! This walks through the paper's core loop in a few dozen lines:
//!
//! 1. describe a training job (model, dataset, server, loader),
//! 2. profile it with DS-Analyzer to find out whether it is GPU-, CPU- or
//!    I/O-bound and how much of the epoch is data-stall time,
//! 3. ask the what-if model how much cache would remove the fetch stalls,
//! 4. switch the loader to CoorDL and measure the speedup.
//!
//! Run with `cargo run --release --example quickstart`.

use datastalls::analyzer::{DifferentialReport, ProfiledRates, WhatIfAnalysis};
use datastalls::prelude::*;

fn main() {
    // The paper's setting from Figure 1: ResNet18 on 8 V100s with 24 CPU
    // cores and 35 % of the dataset cached.  We scale the dataset down so the
    // example runs in a second; every reported quantity is a ratio, so the
    // shape of the result is unchanged.
    let dataset = DatasetSpec::imagenet_1k().scaled(64);
    let model = ModelKind::ResNet18;
    let server = ServerConfig::config_ssd_v100().with_cache_fraction(dataset.total_bytes(), 0.35);
    let baseline = JobSpec::new(model, dataset.clone(), 8, LoaderConfig::dali_best(model));

    println!("== Job ==");
    println!(
        "{} on {} ({} GPUs, {} cores, cache {:.0}% of {:.0} GiB)",
        model.name(),
        server.name,
        server.num_gpus,
        server.cpu_cores,
        100.0 * server.dram_cache_bytes as f64 / dataset.total_bytes() as f64,
        dataset.total_gib(),
    );

    // --- Step 1: differential profiling (DS-Analyzer §3.2) ---------------
    let report = DifferentialReport::run(&server, &baseline, 3);
    println!("\n== DS-Analyzer differential report ==");
    println!(
        "epoch time, ingestion-only : {:8.2} s",
        report.ingestion_epoch_secs
    );
    println!(
        "epoch time, fully cached   : {:8.2} s",
        report.cached_epoch_secs
    );
    println!(
        "epoch time, 35% cache      : {:8.2} s",
        report.actual_epoch_secs
    );
    println!(
        "prep stalls: {:.0}% of epoch, fetch stalls: {:.0}% of epoch",
        report.prep_stall_fraction() * 100.0,
        report.fetch_stall_fraction() * 100.0
    );

    // --- Step 2: what-if analysis (§3.4) ----------------------------------
    let rates = ProfiledRates::measure(&server, &baseline);
    let whatif = WhatIfAnalysis::new(rates);
    println!("\n== What-if analysis ==");
    println!(
        "component rates (samples/s): G = {:.0}, P = {:.0}, S = {:.0}",
        rates.gpu_rate, rates.prep_rate, rates.storage_rate
    );
    println!(
        "bottleneck at 35% cache     : {:?}",
        whatif.bottleneck(0.35)
    );
    println!(
        "cache fraction to mask fetch stalls: {:.0}%",
        whatif.recommended_cache_fraction() * 100.0
    );
    println!(
        "CPU cores per GPU to mask prep stalls: {:.1}",
        whatif.recommended_cores_per_gpu(server.cpu_cores, server.num_gpus)
    );

    // --- Step 3: switch the loader to CoorDL and measure ------------------
    // The observer streams per-epoch telemetry while the simulation runs.
    let dali_run = Experiment::on(&server)
        .job(baseline.clone())
        .scenario(Scenario::SingleServer)
        .epochs(3)
        .observer(|update| {
            println!(
                "  [dali epoch {}] {:6.2} s, {:5.0} samples/s",
                update.epoch,
                update.units[0].epoch_seconds(),
                update.units[0].samples_per_sec()
            );
        })
        .run();
    let coordl_job = baseline.with_loader(LoaderConfig::coordl_best(model));
    let coordl_run = Experiment::on(&server).job(coordl_job).epochs(3).run();

    let dali = dali_run.steady_state();
    let coordl = coordl_run.steady_state();
    println!("\n== DALI-shuffle vs CoorDL (steady-state epoch) ==");
    println!(
        "DALI  : {:8.2} s/epoch, {:6.0} samples/s, {:5.1}% fetch stall, miss ratio {:.2}",
        dali.epoch_seconds(),
        dali.samples_per_sec(),
        dali.fetch_stall_fraction() * 100.0,
        dali.counts.miss_ratio()
    );
    println!(
        "CoorDL: {:8.2} s/epoch, {:6.0} samples/s, {:5.1}% fetch stall, miss ratio {:.2}",
        coordl.epoch_seconds(),
        coordl.samples_per_sec(),
        coordl.fetch_stall_fraction() * 100.0,
        coordl.counts.miss_ratio()
    );
    println!("speedup: {:.2}x", coordl_run.speedup_over(&dali_run));
}
