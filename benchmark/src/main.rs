//! `dsbench`: the repository's benchmark.
//!
//! Without a subcommand it measures one workload once and prints one JSON
//! object as its last line of output — the form the benchmark driver calls:
//!
//! ```text
//! dsbench --workload NAME --seed N --seconds S --trace 0|1 [--root DIR]
//! ```
//!
//! The subcommands are for people.  `run`, `trace`, `selfcheck` and
//! `calibrate` start that same single measurement as child processes — one
//! per workload and pass, so every number comes from a clean process — and
//! tabulate what the children report.  See `README.md` beside the manifest.

mod allocs;
mod harness;
mod hostspeed;
mod layers;
mod measure;
mod metrics;
mod procfs;
mod stats;
mod suite;
mod tempdir;
mod trace;
mod workloads;

use pipeline::json::{write_value, Value};
use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: allocs::Counting = allocs::Counting;

/// The seed `run`, `trace` and `selfcheck` use unless told otherwise, and
/// the one whose stream digests are pinned in `baseline.json`.
pub const DEFAULT_SEED: u64 = 1;

/// `run_seconds` of `BENCHMARK.json`: the timed seconds of one run.
pub const RUN_SECONDS: u64 = 8;

/// Command-line options shared by every form of the command.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workloads: Vec<&'static workloads::Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub root: PathBuf,
    /// `--quick`: a smoke test of one pass with half-second windows.
    pub quick: bool,
    pub write_baseline: Option<PathBuf>,
    pub spans_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: dsbench [run|trace|selfcheck|calibrate|manifest] [options]\n\
         \n\
         no subcommand   measure one workload once (needs --workload), print one JSON line\n\
         run             every workload, {} interleaved passes, end-to-end metrics, stream checks\n\
         trace           every workload once with tracing, per-layer metrics\n\
         selfcheck       `run` twice, compare the two medians against the bounds\n\
         calibrate       every workload under {} seeds, quartile spread per metric\n\
         manifest        print BENCHMARK.json as generated from the metric tables\n\
         \n\
         --workload NAME   restrict to one workload (repeatable): {}\n\
         --seed N          seed of dataset, shuffle and augmentation (default {DEFAULT_SEED})\n\
         --seconds S       timed seconds of one run (default {RUN_SECONDS})\n\
         --trace 0|1       per-layer instead of end-to-end metrics (single measurement)\n\
         --root DIR        where scratch directories go (default: beside the executable)\n\
         --quick           one pass, one rig, half-second windows: a smoke test\n\
         --write-baseline FILE   `calibrate`: record medians, spreads, digests, host\n\
         --spans-out FILE  with --trace 1: write the traced window's spans as CSV",
        suite::PASSES,
        suite::CALIBRATE_SEEDS,
        names.join(", "),
    )
}

fn parse(args: &[String]) -> Result<(Option<String>, Options), String> {
    let mut options = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        root: tempdir::default_base(),
        quick: false,
        write_baseline: None,
        spans_out: None,
    };
    let mut command = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value\n\n{}", usage()))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot read {text:?} as a number"))
        }
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                options.workloads.push(
                    workloads::by_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n\n{}", usage()))?,
                );
            }
            "--seed" => options.seed = number(arg, value()?)?,
            "--seconds" => {
                options.seconds = number(arg, value()?)?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--root" => options.root = PathBuf::from(value()?),
            "--quick" => {
                options.seconds = 0.5;
                options.quick = true;
            }
            "--write-baseline" => options.write_baseline = Some(PathBuf::from(value()?)),
            "--spans-out" => options.spans_out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(usage()),
            name if command.is_none() && !name.starts_with('-') => command = Some(name.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    Ok((command, options))
}

/// The single measurement: the last line printed is the result object.
fn measure_once(options: &Options) -> Result<(), String> {
    let [workload] = options.workloads[..] else {
        return Err(format!(
            "measuring needs exactly one --workload\n\n{}",
            usage()
        ));
    };
    if cfg!(debug_assertions) {
        return Err("dsbench measures optimized builds only: build with --release".into());
    }
    let root = tempdir::TempRoot::new(&options.root, "run")
        .map_err(|e| format!("{}: {e}", options.root.display()))?;
    let run = match options.trace {
        false => measure::end_to_end(workload, options.seed, options.seconds, root.path()),
        true => measure::traced(
            workload,
            options.seed,
            options.seconds,
            root.path(),
            options.spans_out.as_deref(),
        ),
    };
    let mut report = run?;
    suite::check_pinned(workload.name, options.seed, &mut report);
    drop(root);

    for problem in &report.problems {
        eprintln!("dsbench: {}: {problem}", workload.name);
    }
    println!("# detail {}", suite::detail_json(&report));
    let units = |name: &str| {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, unit)| unit)
    };
    let metrics: BTreeMap<String, Value> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            let entry = BTreeMap::from([
                ("value".to_string(), Value::Number(value)),
                ("unit".to_string(), Value::String(units(name).to_string())),
            ]);
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let result = BTreeMap::from([
        ("correct".to_string(), Value::Bool(report.correct())),
        (
            "attempted".to_string(),
            Value::Number(report.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Value::Number(report.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    let mut line = String::new();
    write_value(&mut line, &Value::Object(result));
    println!("{line}");
    Ok(())
}

/// glibc malloc settings every measurement runs under: freed memory is
/// never trimmed back to the system, and buffers of up to 32 MiB (the
/// largest value glibc accepts) stay off `mmap`.  Arenas are left alone:
/// one arena for all threads made the arena lock the bottleneck (README,
/// finding 1).
///
/// Under glibc's defaults the runtime's buffers — 64 KiB to 512 KiB, a fresh
/// one per transform and per read — sit around the trim and mmap
/// thresholds, which glibc moves at run time: heaps grow and shrink per
/// sample, a quarter to a half of all CPU time goes to page faults, one
/// session's delivered rate moves between 14 000 and 46 000 samples/s from
/// one two-second stretch to the next, and ten runs spread by 20–35 %
/// between their quartiles whatever the window (README, finding 1).  No
/// bound the manifest allows holds against that, so the benchmark fixes the
/// allocator's settings, like any other build setting, identically for every
/// commit it compares, and reports what the settings hide as a count,
/// `alloc_bytes_per_sample`.
const MALLOC_SETTINGS: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

/// The allocator settings this process runs under, for the `# detail` line
/// of every result.
pub fn malloc_state() -> String {
    let settings: Vec<String> = MALLOC_SETTINGS
        .iter()
        .map(|(name, _)| {
            let value = std::env::var(name).unwrap_or_else(|_| "unset".into());
            format!("{name}={value}")
        })
        .collect();
    settings.join(" ")
}

/// malloc reads its settings once, at process start: replace this process
/// by itself with them in place.  Children inherit them.  A process that
/// cannot get them measures nothing.
fn pin_allocator() -> Result<(), String> {
    let pinned = MALLOC_SETTINGS
        .iter()
        .all(|(name, value)| std::env::var(name).as_deref() == Ok(*value));
    if pinned {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let failure = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(MALLOC_SETTINGS)
        .exec();
    Err(format!(
        "cannot re-execute with the benchmark's allocator settings: {failure}"
    ))
}

fn main() -> ExitCode {
    if let Err(message) = pin_allocator() {
        eprintln!("dsbench: {message}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(command, options)| match command.as_deref() {
        None => measure_once(&options),
        Some("run") => suite::run(&options),
        Some("trace") => suite::trace(&options),
        Some("selfcheck") => suite::selfcheck(&options),
        Some("calibrate") => suite::calibrate(&options),
        Some("manifest") => {
            print!("{}", suite::manifest());
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{}", usage())),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let (command, o) = parse(&args(
            "--workload prep_cached --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(command, None);
        assert_eq!(o.workloads[0].name, "prep_cached");
        assert_eq!((o.seed, o.seconds, o.trace), (42, 10.0, true));
    }

    #[test]
    fn subcommands_defaults_and_quick() {
        let (command, o) = parse(&args("run --quick --workload fetch_pool_fs --root /x")).unwrap();
        assert_eq!(command.as_deref(), Some("run"));
        assert_eq!((o.seconds, o.quick, o.seed), (0.5, true, DEFAULT_SEED));
        assert_eq!(o.root, PathBuf::from("/x"));
        let (_, o) = parse(&args("selfcheck")).unwrap();
        assert_eq!((o.seconds, o.quick), (RUN_SECONDS as f64, false));
        assert!(o.workloads.is_empty(), "empty means the whole suite");
    }

    #[test]
    fn bad_input_is_refused_with_a_reason() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate",
            "run --passes 2",
            "run extra",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
        // No workload, no measurement.
        let (_, o) = parse(&args("--seed 1")).unwrap();
        assert!(measure_once(&o).is_err());
    }
}
