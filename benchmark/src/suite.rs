//! The subcommands for people: run the single measurement as child
//! processes over the suite and tabulate, compare or record what they
//! report.  A child per workload and pass keeps peak memory and CPU time
//! per process meaningful, and lets a panicking workload fail alone.

use crate::measure::RunReport;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, pooled_median};
use crate::workloads::{Workload, WORKLOADS};
use crate::{procfs, Options, DEFAULT_SEED, RUN_SECONDS};
use pipeline::json::{self, write_string, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Interleaved passes of `run`: w1…w7, w1…w7, w1…w7, so slow drift of a
/// shared host spreads over every workload instead of landing on one.
pub const PASSES: usize = 3;

/// Seeds of `calibrate`: as many runs as the benchmark driver takes its
/// quartiles over.
pub const CALIBRATE_SEEDS: u64 = 10;

/// The committed baseline: medians and spreads of `calibrate` on the host
/// named inside it, and the stream digests pinned for [`DEFAULT_SEED`].
const BASELINE: &str = include_str!("../baseline.json");

/// What a child measurement printed.
#[derive(Debug, Clone, Default)]
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    digests: Vec<String>,
    epoch_rates: Vec<f64>,
    host_slowdown: f64,
}

/// The `# detail` line a measurement prints before its result: what the
/// suite needs beyond the metrics.
pub fn detail_json(report: &RunReport) -> String {
    let digests = report
        .digests
        .iter()
        .map(|d| Value::String(format!("{d:016x}")));
    let rates = report.epoch_rates.iter().map(|&r| Value::Number(r));
    let mut out = String::new();
    json::write_value(
        &mut out,
        &Value::Object(BTreeMap::from([
            ("digests".to_string(), Value::Array(digests.collect())),
            ("epoch_rates".to_string(), Value::Array(rates.collect())),
            (
                "host_slowdown".to_string(),
                Value::Number(report.host_slowdown),
            ),
            (
                "uncorrected".to_string(),
                Value::Array(
                    report
                        .uncorrected
                        .iter()
                        .map(|&v| Value::Number(v))
                        .collect(),
                ),
            ),
            ("malloc".to_string(), Value::String(crate::malloc_state())),
        ])),
    );
    out
}

fn pinned_digests(workload: &str, seed: u64) -> Option<Vec<String>> {
    let baseline = json::parse(BASELINE).ok()?;
    if baseline.get("seed")?.as_f64()? != seed as f64 {
        return None;
    }
    let pinned = baseline.get("workloads")?.get(workload)?.get("digests")?;
    Some(
        pinned
            .as_array()?
            .iter()
            .filter_map(|d| d.as_str().map(str::to_string))
            .collect(),
    )
}

/// At the pinned seed, a stream digest that differs from the committed one
/// makes the run incorrect: the delivered stream changed.
pub fn check_pinned(workload: &str, seed: u64, report: &mut RunReport) {
    let Some(pinned) = pinned_digests(workload, seed) else {
        return;
    };
    let seen: Vec<String> = report.digests.iter().map(|d| format!("{d:016x}")).collect();
    if pinned != seen {
        report.failed += 1;
        report.problems.push(format!(
            "stream digests {seen:?} differ from the pinned {pinned:?} (baseline.json, seed {seed})"
        ));
    }
}

fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().ok_or("no output")?)?;
    let detail = lines
        .find_map(|l| l.strip_prefix("# detail "))
        .ok_or("no detail line")?;
    let detail = json::parse(detail)?;
    let number = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("no {key}"))
    };
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Err("no metrics".into());
    };
    Ok(ChildRun {
        correct: matches!(result.get("correct"), Some(Value::Bool(true))),
        attempted: number(&result, "attempted")? as u64,
        failed: number(&result, "failed")? as u64,
        metrics: metrics
            .iter()
            .map(|(name, m)| Ok((name.clone(), number(m, "value")?)))
            .collect::<Result<_, String>>()?,
        digests: detail
            .get("digests")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|d| d.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
        epoch_rates: detail
            .get("epoch_rates")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
        host_slowdown: number(&detail, "host_slowdown").unwrap_or(1.0),
    })
}

/// Measure `workload` once in a child process of this same executable.
fn child(
    workload: &Workload,
    seed: u64,
    trace: bool,
    options: &Options,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--root")
        .arg(&options.root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start the measurement: {e}", workload.name))?;
    if !output.status.success() {
        return Err(format!(
            "{}: measurement exited with {}",
            workload.name, output.status
        ));
    }
    parse_child(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{}: unreadable result: {e}", workload.name))
}

fn passes(options: &Options) -> usize {
    if options.quick {
        1
    } else {
        PASSES
    }
}

fn selected(options: &Options) -> Vec<&'static Workload> {
    match options.workloads.is_empty() {
        true => WORKLOADS.iter().collect(),
        false => options.workloads.clone(),
    }
}

/// End-to-end medians of one workload over its passes, and what was wrong.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// metric → (median, lowest, highest) over the passes.
    metrics: BTreeMap<&'static str, (f64, f64, f64)>,
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn summarize(name: &str, runs: &[ChildRun], problems: &mut Vec<String>) -> Summary {
    let mut summary = Summary {
        digests: runs[0].digests.clone(),
        ..Summary::default()
    };
    for (pass, run) in runs.iter().enumerate() {
        summary.attempted += run.attempted;
        summary.failed += run.failed;
        if !run.correct {
            problems.push(format!(
                "{name}: pass {pass} failed {} of {} batches or a stream check",
                run.failed, run.attempted
            ));
        }
        if run.digests != summary.digests {
            problems.push(format!(
                "{name}: pass {pass} delivered another stream than pass 0"
            ));
        }
    }
    for m in &END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.get(m.name).copied())
            .collect();
        let mid = match m.name {
            // Per-epoch rates pooled over the passes, not a median of medians.
            "samples_per_s" => pooled_median(
                &runs
                    .iter()
                    .map(|r| r.epoch_rates.clone())
                    .collect::<Vec<_>>(),
            ),
            _ => median(&values),
        };
        let low = values.iter().copied().fold(f64::INFINITY, f64::min);
        let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        summary.metrics.insert(m.name, (mid, low, high));
    }
    summary
}

/// Run the suite's end-to-end measurement [`PASSES`] times (once under
/// `--quick`), interleaved, and check the streams against each other.
fn run_suite(
    options: &Options,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, Summary>, String> {
    let suite = selected(options);
    let mut runs: BTreeMap<&'static str, Vec<ChildRun>> = BTreeMap::new();
    let passes = passes(options);
    for pass in 0..passes {
        for w in &suite {
            eprintln!("dsbench: pass {}/{passes}: {}", pass + 1, w.name);
            runs.entry(w.name)
                .or_default()
                .push(child(w, options.seed, false, options)?);
        }
    }
    let summaries: BTreeMap<&'static str, Summary> = runs
        .iter()
        .map(|(name, runs)| (*name, summarize(name, runs, problems)))
        .collect();
    // The differential pair: same bytes, same stream, other fetch stage.
    if let (Some(serial), Some(pool)) = (
        summaries.get("fetch_serial_fs"),
        summaries.get("fetch_pool_fs"),
    ) {
        if serial.digests != pool.digests {
            problems.push("fetch_serial_fs and fetch_pool_fs delivered different streams".into());
        }
        let bytes = |s: &Summary| s.metrics["storage_bytes_per_sample"].0;
        if bytes(serial) != bytes(pool) {
            problems
                .push("fetch_serial_fs and fetch_pool_fs read different bytes from storage".into());
        }
    }
    Ok(summaries)
}

fn host_line(options: &Options) -> String {
    format!(
        "host: nproc {}, scratch on {} ({}), {} build",
        procfs::nproc(),
        procfs::fs_type(&options.root),
        options.root.display(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

fn print_summaries(summaries: &BTreeMap<&'static str, Summary>) {
    for w in WORKLOADS.iter().filter(|w| summaries.contains_key(w.name)) {
        let s = &summaries[w.name];
        println!(
            "\n{}  ({} of {} batches failed; digests {})",
            w.name,
            s.failed,
            s.attempted,
            s.digests.join(" ")
        );
        for m in &END_TO_END {
            let (mid, low, high) = s.metrics[m.name];
            println!(
                "  {:<26} {:>14.4} {:<11} [{:.4} .. {:.4}]  {} is better, bound {:.0} %",
                m.name,
                mid,
                m.unit,
                low,
                high,
                m.better.name(),
                m.bound * 100.0
            );
        }
    }
}

fn print_legend() {
    println!("\nthe metrics (time-based ones are corrected for the host's speed, see README):");
    for m in &END_TO_END {
        println!("  {:<26} {}", m.name, m.what);
    }
}

fn finish(problems: Vec<String>) -> Result<(), String> {
    match problems.is_empty() {
        true => Ok(()),
        false => Err(format!("\nFAILED:\n  {}", problems.join("\n  "))),
    }
}

/// `dsbench run`.
pub fn run(options: &Options) -> Result<(), String> {
    let mut problems = Vec::new();
    println!("{}", host_line(options));
    println!(
        "seed {}, {} passes, {} s windows; median [lowest .. highest] over the passes",
        options.seed,
        passes(options),
        options.seconds
    );
    let summaries = run_suite(options, &mut problems)?;
    print_summaries(&summaries);
    print_legend();
    finish(problems)
}

/// `dsbench selfcheck`: two suites of the same binary must agree within the
/// benchmark's own bounds, and on the exact metric exactly.
pub fn selfcheck(options: &Options) -> Result<(), String> {
    let mut problems = Vec::new();
    println!("{}", host_line(options));
    let first = run_suite(options, &mut problems)?;
    let second = run_suite(options, &mut problems)?;
    println!(
        "\n{:<18} {:<26} {:>14} {:>14} {:>9}  bound",
        "workload", "metric", "first", "second", "change"
    );
    for (name, a) in &first {
        for m in &END_TO_END {
            let (a, b) = (a.metrics[m.name].0, second[name].metrics[m.name].0);
            let change = if a != 0.0 { (b - a) / a } else { 0.0 };
            // Same seed, same code: what is read from and issued to storage
            // must repeat exactly, whatever the bound says about other
            // commits.
            let exact = matches!(
                m.name,
                "storage_bytes_per_sample" | "storage_ops_per_ksample"
            );
            let apart = match exact {
                true => a != b,
                false => {
                    m.better.worse_by_more_than(a, b, m.bound)
                        || m.better.worse_by_more_than(b, a, m.bound)
                }
            };
            println!(
                "{name:<18} {:<26} {a:>14.4} {b:>14.4} {:>8.2}%  {}{}",
                m.name,
                change * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0} %", m.bound * 100.0)
                },
                if apart { "  <-- apart" } else { "" }
            );
            if apart {
                problems.push(format!("{name}: {} read {a} then {b}", m.name));
            }
        }
    }
    finish(problems)
}

/// `dsbench trace`: the per-layer metrics of every workload, side by side.
pub fn trace(options: &Options) -> Result<(), String> {
    let suite = selected(options);
    let mut problems = Vec::new();
    let mut columns = Vec::new();
    println!("{}", host_line(options));
    for w in &suite {
        eprintln!("dsbench: tracing {}", w.name);
        let run = child(w, options.seed, true, options)?;
        if !run.correct {
            problems.push(format!(
                "{}: failed {} of {} batches or a stream check",
                w.name, run.failed, run.attempted
            ));
        }
        let closure = run
            .metrics
            .get("trace.closure_frac")
            .copied()
            .unwrap_or(0.0);
        if !(0.9..=1.1).contains(&closure) {
            eprintln!(
                "dsbench: warning: {}: trace.closure_frac is {closure:.3}, outside 0.9–1.1",
                w.name
            );
        }
        columns.push(run);
    }
    print!("\n{:<38} {:<10}", "metric", "unit");
    for w in &suite {
        print!(" {:>16}", w.name);
    }
    println!();
    for m in PER_LAYER {
        print!("{:<38} {:<10}", m.name, m.unit);
        for run in &columns {
            print!(" {:>16.5}", run.metrics.get(m.name).copied().unwrap_or(0.0));
        }
        println!();
    }
    println!("\nwhat each metric is, and the end-to-end metric it should move:");
    for m in PER_LAYER {
        println!(
            "  {:<38} ({} is better) {}",
            m.name,
            m.better.name(),
            m.what
        );
    }
    finish(problems)
}

/// `dsbench calibrate`: the suite once per seed; the quartile spread of
/// every end-to-end metric as a share of its median, against its bound.
pub fn calibrate(options: &Options) -> Result<(), String> {
    let suite = selected(options);
    let mut problems = Vec::new();
    let mut runs: BTreeMap<&'static str, Vec<ChildRun>> = BTreeMap::new();
    println!("{}", host_line(options));
    for seed in 0..CALIBRATE_SEEDS {
        for w in &suite {
            let seed = DEFAULT_SEED + seed;
            eprintln!("dsbench: seed {seed}: {}", w.name);
            let run = child(w, seed, false, options)?;
            if !run.correct {
                problems.push(format!("{}: seed {seed} failed a check", w.name));
            }
            runs.entry(w.name).or_default().push(run);
        }
    }
    println!(
        "\n{:<18} {:<26} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut workloads = BTreeMap::new();
    for w in &suite {
        let mut recorded = BTreeMap::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs[w.name]
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            let (mid, spread) = (median(&values), iqr_share(&values));
            let verdict = match spread {
                s if s > m.bound => "  <-- wider than the bound",
                s if s > m.bound / 3.0 => "  (above a third of the bound)",
                _ => "",
            };
            println!(
                "{:<18} {:<26} {mid:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0
            );
            // Every run made, in seed order.
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!("{:<18}   runs: {}", "", runs.join(" "));
            recorded.insert(
                m.name.to_string(),
                Value::Object(BTreeMap::from([
                    ("median".to_string(), Value::Number(mid)),
                    ("spread".to_string(), Value::Number(spread)),
                ])),
            );
        }
        let slowdowns: Vec<f64> = runs[w.name].iter().map(|r| r.host_slowdown).collect();
        println!(
            "{:<18} host slowdown the runs were corrected for: {}",
            w.name,
            slowdowns
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        // The first run of each workload used the pinned seed.
        let digests = runs[w.name][0]
            .digests
            .iter()
            .cloned()
            .map(Value::String)
            .collect();
        workloads.insert(
            w.name.to_string(),
            Value::Object(BTreeMap::from([
                ("digests".to_string(), Value::Array(digests)),
                (
                    "host_slowdown".to_string(),
                    Value::Number(median(&slowdowns)),
                ),
                ("metrics".to_string(), Value::Object(recorded)),
            ])),
        );
    }
    if let Some(path) = &options.write_baseline {
        let host = BTreeMap::from([
            ("nproc".to_string(), Value::Number(procfs::nproc() as f64)),
            (
                "scratch_fs".to_string(),
                Value::String(procfs::fs_type(&options.root)),
            ),
            ("build".to_string(), Value::String("release".into())),
        ]);
        let baseline = Value::Object(BTreeMap::from([
            ("seed".to_string(), Value::Number(DEFAULT_SEED as f64)),
            ("seeds".to_string(), Value::Number(CALIBRATE_SEEDS as f64)),
            ("window_seconds".to_string(), Value::Number(options.seconds)),
            ("host".to_string(), Value::Object(host)),
            ("workloads".to_string(), Value::Object(workloads)),
        ]));
        let mut text = String::new();
        pretty(&mut text, &baseline, 0);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nbaseline written to {}", path.display());
    }
    finish(problems)
}

/// Indented JSON (objects one key per line, arrays of scalars inline).
fn pretty(out: &mut String, value: &Value, depth: usize) {
    match value {
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in map.iter().enumerate() {
                out.push_str(&"  ".repeat(depth + 1));
                write_string(out, key);
                out.push_str(": ");
                pretty(out, item, depth + 1);
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        other => json::write_value(out, other),
    }
}

/// `BENCHMARK.json`, generated from the workload and metric tables so the
/// manifest cannot drift from what the program measures.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = writeln!(out, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name,
                    json::escape(w.why)
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        rows(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.name()
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `dsbench manifest > BENCHMARK.json`"
        );
        let parsed = json::parse(&manifest()).unwrap();
        assert_eq!(
            parsed.get("workloads").unwrap().as_array().unwrap().len(),
            7
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn the_readme_names_every_workload_and_metric() {
        let readme = include_str!("../README.md");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(readme.contains(&format!("`{name}`")), "{name}");
        }
    }

    #[test]
    fn the_baseline_parses_and_pins_the_default_seed() {
        let baseline = json::parse(BASELINE).unwrap();
        assert_eq!(
            baseline.get("seed").unwrap().as_f64(),
            Some(DEFAULT_SEED as f64)
        );
        for w in &WORKLOADS {
            let pinned = pinned_digests(w.name, DEFAULT_SEED).unwrap();
            assert_eq!(pinned.len(), 2, "{}", w.name);
            assert!(pinned_digests(w.name, DEFAULT_SEED + 1).is_none());
        }
    }

    #[test]
    fn a_pinned_digest_that_moved_makes_the_run_incorrect() {
        let pinned = pinned_digests("prep_cached", DEFAULT_SEED).unwrap();
        let parse = |d: &String| u64::from_str_radix(d, 16).unwrap();
        let mut report = RunReport {
            digests: [parse(&pinned[0]), parse(&pinned[1])],
            ..RunReport::default()
        };
        check_pinned("prep_cached", DEFAULT_SEED, &mut report);
        assert!(report.correct());
        report.digests[1] ^= 1;
        check_pinned("prep_cached", DEFAULT_SEED + 1, &mut report);
        assert!(report.correct(), "other seeds have no pin");
        check_pinned("prep_cached", DEFAULT_SEED, &mut report);
        assert!(!report.correct() && report.failed == 1);
    }

    #[test]
    fn a_childs_output_round_trips() {
        let report = RunReport {
            attempted: 640,
            digests: [0xdead_beef, u64::MAX],
            epoch_rates: vec![1000.5, 990.25],
            ..RunReport::default()
        };
        let stdout = format!(
            "noise\n# detail {}\n{}\n",
            detail_json(&report),
            r#"{"attempted":640,"correct":true,"failed":0,"metrics":{"setup_s":{"unit":"s","value":0.25}}}"#
        );
        let run = parse_child(&stdout).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (640, 0));
        assert_eq!(run.metrics["setup_s"], 0.25);
        assert_eq!(run.digests, vec!["00000000deadbeef", "ffffffffffffffff"]);
        assert_eq!(run.epoch_rates, vec![1000.5, 990.25]);
        assert!(parse_child("").is_err());
        assert!(
            parse_child("{\"correct\":true}\n").is_err(),
            "no detail line"
        );
    }

    #[test]
    fn summaries_pool_epoch_rates_and_flag_diverging_streams() {
        let pass = |rates: &[f64], digest: &str| ChildRun {
            correct: true,
            attempted: 10,
            metrics: BTreeMap::from([
                ("samples_per_s".to_string(), median(rates)),
                ("setup_s".to_string(), 1.0),
            ]),
            digests: vec![digest.to_string()],
            epoch_rates: rates.to_vec(),
            ..ChildRun::default()
        };
        let mut problems = Vec::new();
        let runs = [
            pass(&[1.0, 1.0, 1.0], "a"),
            pass(&[5.0, 5.0, 2.0], "a"),
            pass(&[9.0, 9.0, 2.0], "a"),
        ];
        let s = summarize("w", &runs, &mut problems);
        assert_eq!(
            s.metrics["samples_per_s"],
            (2.0, 1.0, 9.0),
            "pooled, not median of medians"
        );
        assert_eq!(s.attempted, 30);
        assert!(problems.is_empty());
        summarize("w", &[pass(&[1.0], "a"), pass(&[1.0], "b")], &mut problems);
        assert_eq!(problems.len(), 1);
    }
}
