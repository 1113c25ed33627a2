//! `ds-analyzer` — the paper's profiling tool as a command-line binary.
//!
//! Mirrors the three things DS-Analyzer does in the paper (§3.2, §3.4):
//! measure the component rates of a training job, attribute epoch time to
//! compute / prep stalls / fetch stalls, and answer what-if questions about
//! cache size, CPU cores, GPU speed and storage speed.
//!
//! ```text
//! ds_analyzer --model resnet18 --dataset imagenet-1k --server ssd-v100 \
//!             --cache-fraction 0.35 [--gpus 8] [--scale 64]
//! ```
//!
//! Run via `cargo run --release --bin ds_analyzer -- --model resnet18 ...`.
//! With no arguments it profiles the Figure 1 configuration.

use datastalls::analyzer::{Bottleneck, DifferentialReport, ProfiledRates, WhatIfAnalysis};
use datastalls::prelude::*;
use std::process::ExitCode;

/// Parsed command-line options with the Figure 1 setting as the default.
struct Options {
    model: ModelKind,
    dataset: DatasetSpec,
    server: ServerConfig,
    cache_fraction: f64,
    gpus: usize,
    scale: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            model: ModelKind::ResNet18,
            dataset: DatasetSpec::imagenet_1k(),
            server: ServerConfig::config_ssd_v100(),
            cache_fraction: 0.35,
            gpus: 8,
            scale: 64,
        }
    }
}

fn parse_model(name: &str) -> Option<ModelKind> {
    let lowered = name.to_ascii_lowercase();
    ModelKind::paper_models()
        .into_iter()
        .chain([ModelKind::BertLarge, ModelKind::Gnmt])
        .find(|m| m.name().to_ascii_lowercase().replace('-', "") == lowered.replace(['-', '_'], ""))
}

fn parse_dataset(name: &str) -> Option<DatasetSpec> {
    match name.to_ascii_lowercase().as_str() {
        "imagenet-1k" | "imagenet1k" => Some(DatasetSpec::imagenet_1k()),
        "imagenet-22k" | "imagenet22k" => Some(DatasetSpec::imagenet_22k()),
        "openimages" => Some(DatasetSpec::openimages()),
        "openimages-ext" | "openimages-extended" => Some(DatasetSpec::openimages_extended()),
        "fma" => Some(DatasetSpec::fma()),
        _ => None,
    }
}

fn parse_server(name: &str) -> Option<ServerConfig> {
    match name.to_ascii_lowercase().as_str() {
        "ssd-v100" | "config-ssd-v100" => Some(ServerConfig::config_ssd_v100()),
        "hdd-1080ti" | "config-hdd-1080ti" => Some(ServerConfig::config_hdd_1080ti()),
        "highcpu-v100" => Some(ServerConfig::config_highcpu_v100()),
        _ => None,
    }
}

fn usage() -> &'static str {
    "usage: ds_analyzer [--model NAME] [--dataset NAME] [--server NAME]\n\
     \u{20}                 [--cache-fraction X] [--gpus N] [--scale N]\n\
     \n\
     models   : shufflenetv2 alexnet resnet18 squeezenet mobilenetv2 resnet50\n\
     \u{20}          vgg11 ssd-res18 audio-m5 bert-large gnmt\n\
     datasets : imagenet-1k imagenet-22k openimages openimages-ext fma\n\
     servers  : ssd-v100 hdd-1080ti highcpu-v100\n\
     scale    : divide the dataset's item count by N so the analysis runs in\n\
     \u{20}          seconds (ratios are unaffected); default 64"
}

/// What the command line asks for.
enum Command {
    /// Print the usage (`--help` / `-h`): stdout, exit 0.
    Help,
    /// Profile the job `Options` describes.
    Analyze(Box<Options>),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--model" => {
                let v = value()?;
                opts.model = parse_model(v).ok_or_else(|| format!("unknown model {v}"))?;
            }
            "--dataset" => {
                let v = value()?;
                opts.dataset = parse_dataset(v).ok_or_else(|| format!("unknown dataset {v}"))?;
            }
            "--server" => {
                let v = value()?;
                opts.server = parse_server(v).ok_or_else(|| format!("unknown server {v}"))?;
            }
            "--cache-fraction" => {
                let v = value()?;
                opts.cache_fraction = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| (0.0..=1.0).contains(x))
                    .ok_or_else(|| format!("cache fraction must be in [0,1], got {v}"))?;
            }
            "--gpus" => {
                let v = value()?;
                opts.gpus = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=8).contains(&n))
                    .ok_or_else(|| format!("gpus must be 1..=8, got {v}"))?;
            }
            "--scale" => {
                let v = value()?;
                opts.scale = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("scale must be >= 1, got {v}"))?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    Ok(Command::Analyze(Box::new(opts)))
}

fn run(opts: &Options) {
    let dataset = opts.dataset.scaled(opts.scale);
    let server = opts
        .server
        .with_cache_fraction(dataset.total_bytes(), opts.cache_fraction);
    let job = JobSpec::new(
        opts.model,
        dataset.clone(),
        opts.gpus,
        LoaderConfig::dali_best(opts.model),
    );

    println!(
        "== DS-Analyzer: {} on {} ({} GPUs, {} cores, cache = {:.0}% of {:.0} GiB {}) ==",
        opts.model.name(),
        server.name,
        opts.gpus,
        server.cpu_cores,
        opts.cache_fraction * 100.0,
        opts.dataset.total_gib(),
        opts.dataset.name,
    );

    // Phase 1-3: differential measurement.
    let report = DifferentialReport::run(&server, &job, 3);
    println!("\n-- differential report (per epoch, steady state) --");
    println!(
        "ingestion-only epoch : {:10.2} s",
        report.ingestion_epoch_secs
    );
    println!("fully-cached epoch   : {:10.2} s", report.cached_epoch_secs);
    println!("actual epoch         : {:10.2} s", report.actual_epoch_secs);
    println!(
        "prep stall {:5.1}%   fetch stall {:5.1}%   GPU busy {:5.1}%",
        report.prep_stall_fraction() * 100.0,
        report.fetch_stall_fraction() * 100.0,
        (1.0 - report.data_stall_fraction()) * 100.0
    );

    // What-if analysis.
    let rates = ProfiledRates::measure(&server, &job);
    let whatif = WhatIfAnalysis::new(rates);
    let name = |b: Bottleneck| match b {
        Bottleneck::Io => "I/O",
        Bottleneck::Cpu => "CPU (prep)",
        Bottleneck::Gpu => "GPU",
    };
    println!("\n-- component rates (samples/s) --");
    println!("GPU ingest G {:10.0}", rates.gpu_rate);
    println!("prep       P {:10.0}", rates.prep_rate);
    println!("storage    S {:10.0}", rates.storage_rate);
    println!("DRAM       C {:10.0}", rates.cache_rate);
    println!("\n-- what-if --");
    println!(
        "bottleneck at the configured cache : {}",
        name(whatif.bottleneck(opts.cache_fraction))
    );
    println!(
        "cache fraction to mask fetch stalls: {:.0}%",
        whatif.recommended_cache_fraction() * 100.0
    );
    println!(
        "CPU cores per GPU to mask prep     : {:.1}",
        whatif.recommended_cores_per_gpu(server.cpu_cores, opts.gpus)
    );
    println!(
        "2x faster GPUs                     : {:.0} -> {:.0} samples/s ({})",
        whatif.predicted_speed(opts.cache_fraction),
        whatif
            .with_faster_gpu(2.0)
            .predicted_speed(opts.cache_fraction),
        name(whatif.with_faster_gpu(2.0).bottleneck(opts.cache_fraction)),
    );
    println!(
        "NVMe-class storage (6x)            : {:.0} -> {:.0} samples/s ({})",
        whatif.predicted_speed(opts.cache_fraction),
        whatif
            .with_faster_storage(6.0)
            .predicted_speed(opts.cache_fraction),
        name(
            whatif
                .with_faster_storage(6.0)
                .bottleneck(opts.cache_fraction)
        ),
    );

    // And the fix the paper proposes: switch the loader to CoorDL.
    let dali = Experiment::on(&server).job(job.clone()).epochs(3).run();
    let coordl = Experiment::on(&server)
        .job(job.with_loader(LoaderConfig::coordl_best(opts.model)))
        .epochs(3)
        .run();
    println!(
        "\nswitching DALI -> CoorDL: {:.0} -> {:.0} samples/s ({:.2}x)",
        dali.steady_samples_per_sec(),
        coordl.steady_samples_per_sec(),
        coordl.speedup_over(&dali)
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Ok(Command::Analyze(opts)) => {
            run(&opts);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The options `list` parses to; asking for help is an error here.
    fn options(list: &[&str]) -> Result<Options, String> {
        match parse_args(&args(list))? {
            Command::Analyze(opts) => Ok(*opts),
            Command::Help => Err("asked for help".to_string()),
        }
    }

    #[test]
    fn defaults_match_figure_one_setting() {
        let opts = options(&[]).unwrap();
        assert_eq!(opts.model, ModelKind::ResNet18);
        assert_eq!(opts.dataset.name, "imagenet-1k");
        assert!((opts.cache_fraction - 0.35).abs() < 1e-12);
    }

    #[test]
    fn parses_every_flag() {
        let opts = options(&[
            "--model",
            "resnet50",
            "--dataset",
            "openimages-ext",
            "--server",
            "hdd-1080ti",
            "--cache-fraction",
            "0.5",
            "--gpus",
            "4",
            "--scale",
            "128",
        ])
        .unwrap();
        assert_eq!(opts.model, ModelKind::ResNet50);
        assert_eq!(opts.dataset.name, "openimages-ext");
        assert_eq!(opts.server.name, "Config-HDD-1080Ti");
        assert_eq!(opts.gpus, 4);
        assert_eq!(opts.scale, 128);
    }

    #[test]
    fn model_names_accept_paper_spelling() {
        assert_eq!(parse_model("ShuffleNetv2"), Some(ModelKind::ShuffleNetV2));
        assert_eq!(parse_model("audio-m5"), Some(ModelKind::AudioM5));
        assert_eq!(parse_model("ssd_res18"), Some(ModelKind::SsdRes18));
        assert_eq!(parse_model("nonexistent"), None);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_args(&args(&["--cache-fraction", "1.5"])).is_err());
        assert!(parse_args(&args(&["--gpus", "0"])).is_err());
        assert!(parse_args(&args(&["--model"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn help_flags_ask_for_usage_not_an_error() {
        for help in [&["--help"][..], &["-h"], &["--model", "alexnet", "--help"]] {
            assert!(
                matches!(parse_args(&args(help)), Ok(Command::Help)),
                "{help:?}"
            );
        }
    }
}
