//! `dstool` — run the named sweep suites from the command line.
//!
//! The paper's workflow (what-if analysis and HP search over dozens of
//! configurations) is a *sweep*; `dstool` exposes the preset sweeps from
//! `benchkit::presets` as a CLI, fanned out across OS threads by
//! `pipeline::SweepRunner`:
//!
//! ```text
//! dstool list                            # show the suite registry
//! dstool sweep cache-sweep               # run one suite, print the table
//! dstool sweep all --out sweeps.json     # run everything, export trajectories
//! dstool smoke --out BENCH_sweep.json \
//!              --baseline ci/bench_baseline.json
//! ```
//!
//! `smoke` is the CI entry point: it runs every suite at a reduced scale
//! *twice* — once across worker threads, once serially — fails unless the two
//! are bit-identical, runs every runtime preset, and writes one JSON document
//! of *exact* values only: simulated steady-state throughput (virtual time,
//! deterministic across machines), stream digests, counters and hit ratios.
//! With `--baseline` it fails unless that document equals the checked-in one
//! leaf for leaf, so the gate catches behavioural changes, never CI-runner
//! jitter.  Wall clock is printed in the tables and recorded nowhere: speed
//! claims live in `dsbench` (`benchmark/`, `BENCH_<pr>.json`).
//!
//! Refresh the baseline after an intentional change with
//! `cargo run --release --bin dstool -- smoke --refresh-baseline`, which
//! rewrites `ci/bench_baseline.json` in canonical form (sorted keys,
//! trailing newline) so refresh diffs stay minimal.

use benchkit::runtime::{compact, int, num, object, text};
use benchkit::{
    compare_exact, find_preset, find_suite, run_mega_sweep, run_validation, GateKind,
    MegaSweepConfig, MegaSweepReport, PresetReport, RuntimePreset, SweepSuite, Table,
    ValidationConfig, MEGA_SWEEP_NAME, RUNTIME_PRESETS, SMOKE_EXTRA_SCALE, SUITES,
};
use datastalls::pipeline::json::{self, Value};
use datastalls::pipeline::{SweepReport, SweepRunner};
use std::path::Path;
use std::process::ExitCode;

/// Default thread count for `smoke`: enough to prove the parallel path even
/// on single-core CI runners.
const SMOKE_THREADS: usize = 4;

/// Minimum fast-over-exact speedup `sweep mega-sweep` must demonstrate.
/// The ratio compares both engines on the same host and run, so it is
/// gated on every host and never against a recorded number.
const MIN_MEGA_SPEEDUP: f64 = 10.0;

/// Where `smoke --refresh-baseline` writes when no `--baseline` is given.
const DEFAULT_BASELINE: &str = "ci/bench_baseline.json";

fn usage() -> String {
    // One block per registry row: a new runtime preset shows up here (and in
    // `list`, `sweep`, `smoke`) without an edit to this file.
    let mut runtime = String::new();
    for p in RUNTIME_PRESETS {
        runtime.push_str(&format!(
            "\u{20} sweep {:<22} run the *runtime* preset for {}:\n\
             \u{20}       {}\n\
             \u{20}       [--scale N] [--out FILE]{}\n",
            p.name,
            p.paper,
            p.description,
            if p.takes_os_root {
                " [--os-root DIR]"
            } else {
                ""
            }
        ));
    }
    format!(
        "usage: dstool <command> [options]\n\
         \n\
         commands:\n\
         \u{20} list                         list the preset sweep suites\n\
         \u{20} sweep <suite|all>            run a simulator suite and print its table\n\
         \u{20}       [--threads N|--serial] [--scale N] [--out FILE]\n\
         {runtime}\
         \u{20} sweep {MEGA_SWEEP_NAME:<22} run the 100k-point what-if grid on the\n\
         \u{20}       vectorized MinIO engine, re-run a strided subsample on the\n\
         \u{20}       exact engine, and gate bit-identity plus a >=10x speedup\n\
         \u{20}       [--scale N] [--threads N] [--out FILE]\n\
         \u{20} smoke                        CI smoke: every suite, parallel vs serial\n\
         \u{20}       [--threads N] [--scale N] [--out FILE] [--only SUITE]\n\
         \u{20}       [--baseline FILE] [--refresh-baseline]\n\
         \u{20} validate                     run the same workload through the\n\
         \u{20}       simulator (Experiment) and the runtime (Session) and gate\n\
         \u{20}       the predicted-vs-empirical deltas (Table 5 / Figure 16)\n\
         \u{20}       [--scale N] [--cache-frac F] [--jobs N] [--epochs N]\n\
         \u{20}       [--tolerance FRAC] [--out FILE]\n\
         \n\
         sweep options:\n\
         \u{20} --threads N    worker threads (default: one per core, min 2)\n\
         \u{20} --serial       run on the calling thread\n\
         \u{20} --scale N      extra dataset scale-down on top of the bench scale\n\
         \u{20}                (default 1 for sweep, 8 for smoke)\n\
         \u{20} --out FILE     write full sweep trajectories as JSON\n\
         \u{20} --os-root DIR  (presets that list it) run on real files under DIR\n\
         \u{20}                instead of the deterministic in-memory VFS\n\
         \n\
         smoke options:\n\
         \u{20} --out FILE          summary JSON path (default BENCH_sweep.json)\n\
         \u{20} --only SUITE        run a single suite or runtime preset (skips the\n\
         \u{20}                     summary artifact and the baseline gate; mutually\n\
         \u{20}                     exclusive with --refresh-baseline)\n\
         \u{20} --baseline FILE     fail unless the summary equals FILE leaf for leaf\n\
         \u{20}                     (every value in it is machine-independent)\n\
         \u{20} --refresh-baseline  instead of gating, rewrite the baseline file\n\
         \u{20}                     (ci/bench_baseline.json unless --baseline) in\n\
         \u{20}                     canonical form: sorted keys, trailing newline\n\
         \n\
         validate options:\n\
         \u{20} --scale N         ImageNet-1k scale-down (default 4000)\n\
         \u{20} --cache-frac F    cache fraction of the dataset (default 0.35)\n\
         \u{20} --jobs N          coordinated HP-search jobs (default 4)\n\
         \u{20} --epochs N        epochs incl. warm-up (default 3, min 2)\n\
         \u{20} --tolerance FRAC  gate tolerance (default 0.05)\n\
         \u{20} --out FILE        JSON report path (default VALIDATE.json)"
    )
}

/// The flags of every `sweep` flavour (simulator suites, runtime presets,
/// mega-sweep); [`parse_sweep_flags`] accepts only those a flavour allows.
struct SweepFlags {
    threads: Option<usize>,
    serial: bool,
    scale: u64,
    out: Option<String>,
    /// Only for presets whose registry row takes one: run on a real
    /// filesystem rooted here instead of the deterministic in-memory VFS.
    os_root: Option<String>,
}

struct SmokeCmd {
    threads: usize,
    scale: u64,
    out: String,
    baseline: Option<String>,
    refresh_baseline: bool,
    /// Run a single suite / runtime preset instead of the full matrix (no
    /// summary artifact, no baseline gate).
    only: Option<String>,
}

struct ValidateCmd {
    config: ValidationConfig,
    out: String,
}

enum Command {
    Help,
    List,
    Sweep(Vec<&'static SweepSuite>, SweepFlags),
    RuntimeSweep(&'static RuntimePreset, SweepFlags),
    /// `threads: None` = one per core.
    MegaSweep(SweepFlags),
    Smoke(SmokeCmd),
    Validate(ValidateCmd),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "list" => {
            if let Some(extra) = rest.first() {
                return Err(format!("list takes no arguments, got {extra}"));
            }
            Ok(Command::List)
        }
        "sweep" => parse_sweep(&rest),
        "smoke" => parse_smoke(&rest),
        "validate" => parse_validate(&rest),
        "--help" | "-h" | "help" => Ok(Command::Help),
        other => Err(format!(
            "unknown command {other}; valid commands: list, sweep, smoke, validate, help\n\n{}",
            usage()
        )),
    }
}

/// The value following `flag`.
fn value<'a>(it: &mut std::slice::Iter<'_, &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next()
        .copied()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_sweep_flags(
    it: &mut std::slice::Iter<'_, &String>,
    who: &str,
    allowed: &[&str],
) -> Result<SweepFlags, String> {
    let mut flags = SweepFlags {
        threads: None,
        serial: false,
        scale: 1,
        out: None,
        os_root: None,
    };
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag {flag} for {who} (only {} apply)\n\n{}",
                allowed.join(", "),
                usage()
            ));
        }
        match flag.as_str() {
            "--threads" => flags.threads = Some(parse_threads(value(it, flag)?)?),
            "--serial" => flags.serial = true,
            "--scale" => flags.scale = parse_scale(value(it, flag)?)?,
            "--out" => flags.out = Some(value(it, flag)?.clone()),
            _ => flags.os_root = Some(value(it, flag)?.clone()),
        }
    }
    if flags.serial && flags.threads.is_some() {
        return Err("--serial and --threads are mutually exclusive".to_string());
    }
    Ok(flags)
}

fn parse_sweep(args: &[&String]) -> Result<Command, String> {
    let mut it = args.iter();
    let which = it
        .next()
        .ok_or_else(|| format!("sweep needs a suite name or 'all'\n\n{}", usage()))?;
    if which.as_str() == MEGA_SWEEP_NAME {
        // The mega sweep runs its own two-phase (fast, then exact) harness
        // rather than a plain SweepRunner.
        let allowed = ["--scale", "--threads", "--out"];
        return parse_sweep_flags(&mut it, which, &allowed).map(Command::MegaSweep);
    }
    if let Some(preset) = find_preset(which) {
        // The runtime presets sweep their own axes (worker counts, tier
        // sizes, shard counts), so the simulator-sweep threading flags do
        // not apply; a preset's registry row declares any flag of its own.
        let allowed: &[&str] = if preset.takes_os_root {
            &["--scale", "--out", "--os-root"]
        } else {
            &["--scale", "--out"]
        };
        let flags = parse_sweep_flags(&mut it, which, allowed)?;
        return Ok(Command::RuntimeSweep(preset, flags));
    }
    let suites: Vec<&'static SweepSuite> = if which.as_str() == "all" {
        SUITES.iter().collect()
    } else {
        vec![find_suite(which).ok_or_else(|| {
            format!(
                "unknown suite {which}; available: {}",
                sweep_names().join(", ")
            )
        })?]
    };
    let allowed = ["--threads", "--serial", "--scale", "--out"];
    let flags = parse_sweep_flags(&mut it, "a simulator suite", &allowed)?;
    Ok(Command::Sweep(suites, flags))
}

/// Every name `sweep` and `smoke --only` accept: the simulator suites, the
/// vectorized-engine sweep and the runtime-preset registry.
fn sweep_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SUITES.iter().map(|s| s.name).collect();
    names.push(MEGA_SWEEP_NAME);
    names.extend(RUNTIME_PRESETS.iter().map(|p| p.name));
    names
}

fn parse_smoke(args: &[&String]) -> Result<Command, String> {
    let mut cmd = SmokeCmd {
        threads: SMOKE_THREADS,
        scale: SMOKE_EXTRA_SCALE,
        out: "BENCH_sweep.json".to_string(),
        baseline: None,
        refresh_baseline: false,
        only: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => {
                cmd.threads = parse_threads(value(&mut it, flag)?)?;
                if cmd.threads < 2 {
                    return Err(
                        "smoke exists to prove the parallel path; --threads must be >= 2"
                            .to_string(),
                    );
                }
            }
            "--scale" => cmd.scale = parse_scale(value(&mut it, flag)?)?,
            "--out" => cmd.out = value(&mut it, flag)?.clone(),
            "--baseline" => cmd.baseline = Some(value(&mut it, flag)?.clone()),
            "--refresh-baseline" => cmd.refresh_baseline = true,
            "--only" => {
                let v = value(&mut it, flag)?;
                if !sweep_names().contains(&v.as_str()) {
                    return Err(format!(
                        "unknown suite {v} for --only; valid: {}",
                        sweep_names().join(", ")
                    ));
                }
                cmd.only = Some(v.clone());
            }
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    if cmd.only.is_some() && cmd.refresh_baseline {
        return Err(
            "--only runs a partial smoke and cannot refresh the baseline; \
             run a full smoke --refresh-baseline instead"
                .to_string(),
        );
    }
    Ok(Command::Smoke(cmd))
}

fn parse_validate(args: &[&String]) -> Result<Command, String> {
    let mut cmd = ValidateCmd {
        config: ValidationConfig::default(),
        out: "VALIDATE.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => cmd.config.scale = parse_scale(value(&mut it, flag)?)?,
            "--cache-frac" => {
                cmd.config.cache_fraction = parse_in(
                    value(&mut it, flag)?,
                    0.01..=1.0,
                    "cache-frac must be in [0.01,1]",
                )?;
            }
            "--jobs" => {
                cmd.config.jobs = parse_in(value(&mut it, flag)?, 1..=64, "jobs must be 1..=64")?;
            }
            "--epochs" => {
                cmd.config.epochs =
                    parse_in(value(&mut it, flag)?, 2..=16, "epochs must be 2..=16")?;
            }
            "--tolerance" => {
                cmd.config.tolerance = parse_in(
                    value(&mut it, flag)?,
                    0.0..1.0,
                    "tolerance must be in [0,1)",
                )?;
            }
            "--out" => cmd.out = value(&mut it, flag)?.clone(),
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    Ok(Command::Validate(cmd))
}

/// Parse `v` as a number inside `range`, or say what it `must` be.
fn parse_in<T: std::str::FromStr + PartialOrd>(
    v: &str,
    range: impl std::ops::RangeBounds<T>,
    must: &str,
) -> Result<T, String> {
    let parsed = v.parse::<T>().ok().filter(|n| range.contains(n));
    parsed.ok_or_else(|| format!("{must}, got {v}"))
}

fn parse_threads(v: &str) -> Result<usize, String> {
    parse_in(v, 1..=256, "threads must be 1..=256")
}

fn parse_scale(v: &str) -> Result<u64, String> {
    parse_in(v, 1.., "scale must be >= 1")
}

fn list_table() -> Table {
    let mut table = Table::new(
        "Preset sweep suites",
        &["name", "points", "paper", "description"],
    );
    for suite in &SUITES {
        table.row(&[
            suite.name.to_string(),
            suite.spec(1).num_points().to_string(),
            suite.paper.to_string(),
            suite.description.to_string(),
        ]);
    }
    table.row(&[
        MEGA_SWEEP_NAME.to_string(),
        MegaSweepConfig::default().spec().num_points().to_string(),
        "§6 (what-if analysis)".to_string(),
        "vectorized MinIO engine: the full cache x vcpus x batch x prefetch \
         x order cross product, exact-engine subsample gated bit-identical"
            .to_string(),
    ]);
    for preset in RUNTIME_PRESETS {
        table.row(&[
            preset.name.to_string(),
            preset.points.to_string(),
            preset.paper.to_string(),
            preset.description.to_string(),
        ]);
    }
    table
}

/// Print one suite's per-point summary table.
fn print_suite_table(suite: &SweepSuite, report: &SweepReport) {
    let mut table = Table::new(
        format!("Sweep {} ({})", suite.name, suite.paper),
        &["point", "samples/s", "samples/s/job", "epoch s"],
    )
    .with_caption(suite.description.to_string());
    for point in &report.points {
        match point.report() {
            Some(sim) => {
                table.row(&[
                    point.label.label(),
                    format!("{:.0}", sim.steady_samples_per_sec()),
                    format!("{:.0}", sim.steady_per_job_samples_per_sec()),
                    format!("{:.2}", sim.steady_epoch_seconds()),
                ]);
            }
            None => {
                table.row(&[
                    point.label.label(),
                    "failed".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
        }
    }
    table.print();
}

/// Write an `--out` artifact, creating missing parent directories first so
/// `--out results/bench/BENCH.json` works on a fresh checkout; both failure
/// modes name the path and the failing step.
fn write_out(path: &str, contents: &str) -> Result<(), String> {
    let parent = std::path::Path::new(path).parent();
    if let Some(dir) = parent.filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| {
            format!(
                "cannot create parent directory {} for {path}: {e}",
                dir.display()
            )
        })?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Re-serialize a JSON document in canonical form: sorted object keys and a
/// trailing newline, so checked-in artifacts diff cleanly run to run.
fn canonical_json(doc: &str) -> String {
    let parsed = json::parse(doc).expect("reports emit valid JSON");
    let mut canonical = String::with_capacity(doc.len() + 1);
    json::write_value(&mut canonical, &parsed);
    canonical.push('\n');
    canonical
}

fn run_sweep(suites: &[&SweepSuite], cmd: &SweepFlags) -> Result<(), String> {
    let runner = if cmd.serial {
        SweepRunner::serial()
    } else {
        match cmd.threads {
            Some(n) => SweepRunner::with_threads(n),
            None => SweepRunner::new(),
        }
    };
    let mut failed = 0usize;
    let mut exports = Vec::new();
    for suite in suites {
        let spec = suite.spec(cmd.scale);
        let report = runner.run(&spec);
        print_suite_table(suite, &report);
        failed += report.num_failed();
        exports.push(report);
    }
    if let Some(path) = &cmd.out {
        let mut doc = String::from("{\"sweeps\":[");
        for (i, report) in exports.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&report.to_json());
        }
        doc.push_str("]}");
        write_out(path, &doc)?;
        println!("\nwrote full trajectories to {path}");
    }
    if failed > 0 {
        return Err(format!("{failed} grid point(s) failed"));
    }
    Ok(())
}

/// Run one runtime preset at `scale`, print its table, write `out` if asked
/// and only then gate — a gate failure must not discard the artifact CI
/// needs for diagnosis.
fn run_runtime_sweep(preset: &RuntimePreset, cmd: &SweepFlags) -> Result<(), String> {
    let report = preset.run_scaled(cmd.scale, cmd.os_root.as_deref().map(Path::new));
    report.print_table();
    if let Some(path) = &cmd.out {
        write_out(path, &report.to_json())?;
        println!("wrote {path}");
    }
    report.gate()?;
    println!(
        "{} gate passed: {} point(s), one stream (digest {:016x}) at every {} value",
        preset.name,
        report.points().count(),
        report.digest(),
        preset.axis
    );
    Ok(())
}

/// Print the mega sweep's two-engine comparison.
fn print_mega_table(report: &MegaSweepReport) {
    let mut table = Table::new(
        format!("Sweep {MEGA_SWEEP_NAME} (vectorized MinIO engine, §6 what-if grid)"),
        &["engine", "points", "wall s", "points/s"],
    )
    .with_caption(format!(
        "{} threads; every exact-engine report compared bit for bit against \
         the fast path ({} mismatches)",
        report.threads, report.mismatches
    ));
    table.row(&[
        "fast".to_string(),
        report.points.to_string(),
        format!("{:.2}", report.fast_seconds),
        format!("{:.0}", report.points_per_sec()),
    ]);
    table.row(&[
        "exact".to_string(),
        report.exact_points.to_string(),
        format!("{:.2}", report.exact_seconds),
        format!("{:.0}", report.exact_points_per_sec()),
    ]);
    table.print();
    println!(
        "speedup_vs_exact: {:.1}x  (sim_sweep_points_per_sec: {:.0})",
        report.speedup_vs_exact(),
        report.points_per_sec()
    );
}

/// The wall-clock half of the mega-sweep gate, and the one home of the
/// fast-engine speed claim: both engines on this host in this run, so no
/// host skips it and no baseline records it (`sweep mega-sweep` only; smoke
/// gates the bit-identity half).
fn gate_mega_speedup(report: &MegaSweepReport) -> Result<(), String> {
    let speedup = report.speedup_vs_exact();
    if speedup < MIN_MEGA_SPEEDUP {
        return Err(format!(
            "mega-sweep: fast engine is only {speedup:.1}x the exact engine \
             (gate: >={MIN_MEGA_SPEEDUP:.0}x); the vectorized path lost its \
             advantage — profile pipeline::fast before shipping"
        ));
    }
    Ok(())
}

fn run_mega_sweep_cmd(cmd: &SweepFlags) -> Result<(), String> {
    let cfg = MegaSweepConfig {
        threads: cmd.threads.unwrap_or(0),
        ..MegaSweepConfig::scaled(cmd.scale)
    };
    let report = run_mega_sweep(&cfg);
    print_mega_table(&report);
    if let Some(path) = &cmd.out {
        write_out(path, &report.to_json())?;
        println!("wrote {path}");
    }
    report.bit_identical()?;
    gate_mega_speedup(&report)?;
    println!(
        "mega-sweep gate passed: {} points, {} exact re-runs bit-identical, \
         {:.1}x over the exact engine",
        report.points,
        report.exact_points,
        report.speedup_vs_exact()
    );
    Ok(())
}

/// Run one simulator suite across `threads` workers and again serially; the
/// two must be bit-identical and no point may fail.
fn smoke_suite(suite: &SweepSuite, cmd: &SmokeCmd) -> Result<SweepReport, String> {
    let spec = suite.spec(cmd.scale);
    let parallel = SweepRunner::with_threads(cmd.threads).run(&spec);
    let serial = SweepRunner::serial().run(&spec);
    if parallel != serial {
        return Err(format!(
            "suite {}: parallel run is not bit-identical to the serial run",
            suite.name
        ));
    }
    if parallel.num_failed() > 0 {
        let labels: Vec<String> = parallel
            .points
            .iter()
            .filter(|p| p.outcome.is_err())
            .map(|p| p.label.label())
            .collect();
        return Err(format!(
            "suite {}: {} point(s) failed: {}",
            suite.name,
            labels.len(),
            labels.join(", ")
        ));
    }
    Ok(parallel)
}

/// `smoke --only <name>`: run a single suite / runtime preset with its own
/// gates, skipping the summary artifact and the baseline comparison (a
/// partial document would not be comparable to the checked-in baseline).
fn run_smoke_only(cmd: &SmokeCmd, name: &str) -> Result<(), String> {
    println!(
        "dstool smoke --only {name}: extra scale {}, {} worker threads vs serial",
        cmd.scale, cmd.threads
    );
    if let Some(suite) = find_suite(name) {
        let report = smoke_suite(suite, cmd)?;
        print_suite_table(suite, &report);
        println!(
            "  {name}: parallel == serial, {} points",
            report.points.len()
        );
    } else if let Some(preset) = find_preset(name) {
        let report = preset.run_scaled(cmd.scale, None);
        report.print_table();
        report.gate()?;
    } else {
        // parse_smoke validated the name against `sweep_names`, whose only
        // other member is the vectorized-engine sweep.
        let report = run_mega_sweep(&MegaSweepConfig::scaled(cmd.scale));
        print_mega_table(&report);
        report.bit_identical()?;
    }
    println!(
        "note: --only {name} ran a single suite; no summary artifact written, \
         baseline digests not gated"
    );
    Ok(())
}

fn run_smoke(cmd: &SmokeCmd) -> Result<(), String> {
    if let Some(name) = &cmd.only {
        return run_smoke_only(cmd, name);
    }
    println!(
        "dstool smoke: {} suites, extra scale {}, {} worker threads vs serial",
        SUITES.len(),
        cmd.scale,
        cmd.threads
    );
    let mut results: Vec<(&SweepSuite, SweepReport)> = Vec::new();
    for suite in &SUITES {
        let start = std::time::Instant::now();
        let report = smoke_suite(suite, cmd)?;
        println!(
            "  {:<14} {:>2} points  parallel == serial  ({:.2?})",
            suite.name,
            report.points.len(),
            start.elapsed()
        );
        results.push((suite, report));
    }

    // The runtime half: every registry preset on the real executor (the
    // presets that can take an OS root smoke on the in-memory VFS, where
    // their exact values are machine-independent).  Measure first, write
    // the artifact, then gate — a gate failure must not discard the results
    // CI needs for diagnosis.
    let mut runtime_reports = Vec::new();
    for preset in RUNTIME_PRESETS {
        let report = preset.run_scaled(cmd.scale, None);
        report.print_table();
        runtime_reports.push(report);
    }
    // The vectorized-engine preset runs with one thread per core (not
    // `--threads`, which exists to prove the parallel sweep path even on
    // undersized hosts).
    let mega_report = run_mega_sweep(&MegaSweepConfig::scaled(cmd.scale));
    print_mega_table(&mega_report);

    let doc = smoke_json(cmd, &results, &runtime_reports, &mega_report);
    write_out(&cmd.out, &doc)?;
    println!("wrote {}", cmd.out);

    for report in &runtime_reports {
        report.gate()?;
    }
    mega_report.bit_identical()?;

    if cmd.refresh_baseline {
        let path = cmd.baseline.as_deref().unwrap_or(DEFAULT_BASELINE);
        write_out(path, &canonical_json(&doc))?;
        println!("refreshed baseline {path} (canonical: sorted keys, trailing newline)");
    } else if let Some(path) = &cmd.baseline {
        check_baseline(path, &doc)?;
        println!("baseline gate passed: this run equals {path} leaf for leaf");
    }
    Ok(())
}

/// The `BENCH_sweep.json` / `ci/bench_baseline.json` document: per-suite
/// simulated steady-state throughput, one block per runtime preset under its
/// registry-derived key, and the vectorized-engine block.  Every leaf is
/// exact — a model output, a digest or a counter — so two runs of one build
/// write the same bytes on any host, and the baseline gate is plain equality.
fn smoke_json(
    cmd: &SmokeCmd,
    results: &[(&SweepSuite, SweepReport)],
    runtime_reports: &[PresetReport],
    mega_report: &MegaSweepReport,
) -> String {
    let suites = results.iter().map(|(suite, report)| {
        let points = report.reports().map(|(label, sim)| {
            object([
                ("label", text(&label.label())),
                ("steady_samples_per_sec", num(sim.steady_samples_per_sec())),
                ("steady_epoch_seconds", num(sim.steady_epoch_seconds())),
            ])
        });
        object([
            ("suite", text(suite.name)),
            ("paper", text(suite.paper)),
            ("points", Value::Array(points.collect())),
        ])
    });
    let keys: Vec<String> = runtime_reports
        .iter()
        .map(|r| r.preset.smoke_key())
        .collect();
    let blocks = keys.iter().zip(runtime_reports);
    let mut doc = vec![
        ("schema", text("datastalls-bench-sweep/v1")),
        ("extra_scale", int(cmd.scale)),
        ("suites", Value::Array(suites.collect())),
        ("sim_sweep", mega_report.to_value()),
    ];
    doc.extend(blocks.map(|(key, report)| (key.as_str(), report.to_value())));
    compact(&object(doc))
}

/// The baseline gate: this run's document must equal the baseline's, leaf
/// for leaf and key for key.  Every leaf is machine-independent, so any
/// difference — a moved digest, ratio or simulated rate, a block only one
/// side has — is a behavioural change: fix it, or refresh the baseline after
/// an intentional one.
fn check_baseline(path: &str, current_doc: &str) -> Result<(), String> {
    let baseline_text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline = json::parse(&baseline_text)
        .map_err(|e| format!("baseline {path} is not valid JSON: {e}"))?;
    let current = json::parse(current_doc).expect("smoke_json emits valid JSON");

    // Every value depends on the dataset scale: name that mismatch as what
    // it is rather than as the first leaf it happens to move.
    let scale = |doc: &Value| doc.get("extra_scale").and_then(Value::as_f64);
    if scale(&baseline) != scale(&current) {
        let show = |s: Option<f64>| s.map_or("<missing>".to_string(), |s| format!("{s:.0}"));
        return Err(format!(
            "baseline {path} was recorded at extra_scale {} but this run used --scale {}; \
             re-run with a matching --scale or refresh the baseline",
            show(scale(&baseline)),
            show(scale(&current)),
        ));
    }
    compare_exact(path, &baseline, Some(&current)).map_err(|e| {
        format!(
            "{e} — this build behaves differently; fix the regression or \
             refresh the baseline after an intentional change"
        )
    })
}

fn run_validate(cmd: &ValidateCmd) -> Result<(), String> {
    println!(
        "dstool validate: ImageNet-1k/{} at {:.0}% cache, {} HP jobs, {} epochs",
        cmd.config.scale,
        cmd.config.cache_fraction * 100.0,
        cmd.config.jobs,
        cmd.config.epochs
    );
    let report = run_validation(&cmd.config);
    let mut table = Table::new(
        "Predicted (Experiment) vs empirical (Session)",
        &[
            "scenario",
            "metric",
            "predicted",
            "empirical",
            "delta",
            "gate",
        ],
    )
    .with_caption(
        "hit ratios gated absolutely, byte counts relatively; \
         stall-vs-device seconds reported for context (Table 5 / Figure 16)",
    );
    for row in &report.rows {
        let gate = match row.gate {
            GateKind::Informational => "info".to_string(),
            _ if row.passes(report.config.tolerance) => "pass".to_string(),
            _ => "FAIL".to_string(),
        };
        table.row(&[
            row.scenario.to_string(),
            row.metric.to_string(),
            format!("{:.4}", row.predicted),
            format!("{:.4}", row.empirical),
            format!("{:.4}", row.delta()),
            gate,
        ]);
    }
    table.print();

    // Canonical form (sorted keys, trailing newline), same as the bench
    // baseline: VALIDATE.json diffs cleanly across runs and machines.
    write_out(&cmd.out, &canonical_json(&report.to_json()))?;
    println!("wrote {}", cmd.out);

    if report.passed() {
        println!(
            "validation gate passed: every gated delta within {:.0}%",
            report.config.tolerance * 100.0
        );
        Ok(())
    } else {
        let lines: Vec<String> = report
            .failures()
            .iter()
            .map(|r| {
                format!(
                    "{}/{}: predicted {:.4} vs empirical {:.4}",
                    r.scenario, r.metric, r.predicted, r.empirical
                )
            })
            .collect();
        Err(format!(
            "predicted-vs-empirical gate failed ({} row(s)):\n  {}",
            lines.len(),
            lines.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{}", usage());
            Ok(())
        }
        Ok(Command::List) => {
            list_table().print();
            println!("\nrun one with: dstool sweep <name>   (or 'dstool sweep all')");
            Ok(())
        }
        Ok(Command::Sweep(suites, cmd)) => run_sweep(&suites, &cmd),
        Ok(Command::RuntimeSweep(preset, cmd)) => run_runtime_sweep(preset, &cmd),
        Ok(Command::MegaSweep(cmd)) => run_mega_sweep_cmd(&cmd),
        Ok(Command::Smoke(cmd)) => run_smoke(&cmd),
        Ok(Command::Validate(cmd)) => run_validate(&cmd),
        Err(msg) => Err(msg),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
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

    /// Gate `current` against `baseline`, written to a temp file of its own
    /// (tests run on parallel threads and must not share one).
    fn gate(baseline: &str, current: &str) -> Result<(), String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let file = format!("dstool_gate_{}_{n}.json", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, baseline).unwrap();
        let outcome = check_baseline(path.to_str().unwrap(), current);
        let _ = std::fs::remove_file(&path);
        outcome
    }

    /// A minimal smoke document carrying `block` under `key`.
    fn doc_with(key: &str, block: &str) -> String {
        format!(
            r#"{{"extra_scale":8,"suites":[
            {{"suite":"s","points":[{{"label":"a","steady_samples_per_sec":1000}}]}}],
            "{key}":{block}}}"#
        )
    }

    #[test]
    fn parses_list_and_rejects_extras() {
        assert!(matches!(parse_args(&args(&["list"])), Ok(Command::List)));
        assert!(parse_args(&args(&["list", "x"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["bogus"])).is_err());
        // Asking for help is not an error (exit 0, usage on stdout).
        for help in ["--help", "-h", "help"] {
            assert!(matches!(parse_args(&args(&[help])), Ok(Command::Help)));
        }
    }

    #[test]
    fn parses_sweep_flags() {
        let Ok(Command::Sweep(suites, cmd)) = parse_args(&args(&[
            "sweep",
            "cache-sweep",
            "--threads",
            "3",
            "--scale",
            "4",
            "--out",
            "x.json",
        ])) else {
            panic!("expected sweep command");
        };
        assert_eq!(suites.len(), 1);
        assert_eq!(suites[0].name, "cache-sweep");
        assert_eq!(cmd.threads, Some(3));
        assert_eq!(cmd.scale, 4);
        assert_eq!(cmd.out.as_deref(), Some("x.json"));

        let Ok(Command::Sweep(all, cmd)) = parse_args(&args(&["sweep", "all", "--serial"])) else {
            panic!("expected sweep command");
        };
        assert_eq!(all.len(), SUITES.len());
        assert!(cmd.serial);
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(parse_args(&args(&["sweep"])).is_err());
        assert!(parse_args(&args(&["sweep", "nope"])).is_err());
        assert!(parse_args(&args(&["sweep", "all", "--serial", "--threads", "2"])).is_err());
        assert!(parse_args(&args(&["sweep", "all", "--threads", "0"])).is_err());
    }

    /// `sweep <preset>` reaches the runtime harness with `--scale`/`--out`
    /// parsed, rejects the simulator threading flags, and takes `--os-root`
    /// exactly when the preset's registry row declares it.
    fn assert_routed(preset: &'static RuntimePreset) {
        let name = preset.name;
        let Ok(Command::RuntimeSweep(routed, cmd)) =
            parse_args(&args(&["sweep", name, "--scale", "4", "--out", "p.json"]))
        else {
            panic!("expected the runtime preset {name}");
        };
        assert!(
            std::ptr::eq(routed, preset),
            "{name} routed to {}",
            routed.name
        );
        assert_eq!(cmd.scale, 4);
        assert_eq!(cmd.out.as_deref(), Some("p.json"));
        assert!(
            cmd.os_root.is_none(),
            "default: deterministic in-memory VFS"
        );
        // Defaults: full fidelity, no artifact.
        let Ok(Command::RuntimeSweep(_, cmd)) = parse_args(&args(&["sweep", name])) else {
            panic!("expected the runtime preset {name}");
        };
        assert_eq!(cmd.scale, 1);
        assert!(cmd.out.is_none());
        // The simulator threading flags do not apply to a runtime preset.
        assert!(parse_args(&args(&["sweep", name, "--serial"])).is_err());
        assert!(parse_args(&args(&["sweep", name, "--threads", "2"])).is_err());
        let with_root = parse_args(&args(&["sweep", name, "--os-root", "/tmp/fsroot"]));
        if preset.takes_os_root {
            let Ok(Command::RuntimeSweep(_, cmd)) = with_root else {
                panic!("{name} declares --os-root");
            };
            assert_eq!(cmd.os_root.as_deref(), Some("/tmp/fsroot"));
        } else {
            let Err(err) = with_root else {
                panic!("--os-root only applies to presets that declare it, not {name}");
            };
            assert!(err.contains("--os-root") && err.contains(name), "{err}");
        }
    }

    #[test]
    fn every_registered_preset_is_routed_to_the_runtime_harness() {
        for preset in RUNTIME_PRESETS {
            assert_routed(preset);
        }
        assert_eq!(
            RUNTIME_PRESETS.iter().filter(|p| p.takes_os_root).count(),
            1,
            "--os-root stays the one preset-specific flag"
        );
    }

    #[test]
    fn mega_sweep_is_routed_to_its_two_phase_harness() {
        let Ok(Command::MegaSweep(cmd)) = parse_args(&args(&[
            "sweep",
            MEGA_SWEEP_NAME,
            "--scale",
            "8",
            "--threads",
            "2",
            "--out",
            "mega.json",
        ])) else {
            panic!("expected mega-sweep command");
        };
        assert_eq!(cmd.scale, 8);
        assert_eq!(cmd.threads, Some(2));
        assert_eq!(cmd.out.as_deref(), Some("mega.json"));
        // Defaults: full grid, one thread per core.
        let Ok(Command::MegaSweep(cmd)) = parse_args(&args(&["sweep", MEGA_SWEEP_NAME])) else {
            panic!("expected mega-sweep command");
        };
        assert_eq!(cmd.scale, 1);
        assert_eq!(cmd.threads, None);
        assert!(parse_args(&args(&["sweep", MEGA_SWEEP_NAME, "--serial"])).is_err());
    }

    #[test]
    fn mega_gates_reject_a_doctored_report() {
        let healthy = MegaSweepReport {
            points: 2000,
            threads: 2,
            fast_seconds: 0.05,
            exact_points: 2000,
            exact_seconds: 1.0,
            mismatches: 0,
        };
        healthy.bit_identical().unwrap();
        gate_mega_speedup(&healthy).expect("20x clears the 10x gate");
        let slow = MegaSweepReport {
            fast_seconds: 0.2,
            ..healthy.clone()
        };
        let err = gate_mega_speedup(&slow).unwrap_err();
        assert!(err.contains("only 5.0x") && err.contains(">=10x"), "{err}");
        let diverged = MegaSweepReport {
            mismatches: 3,
            ..healthy
        };
        let err = diverged.bit_identical().unwrap_err();
        assert!(err.contains("3 of 2000"), "{err}");
    }

    #[test]
    fn smoke_parses_refresh_baseline() {
        let Ok(Command::Smoke(cmd)) = parse_args(&args(&["smoke", "--refresh-baseline"])) else {
            panic!("expected smoke command");
        };
        assert!(cmd.refresh_baseline);
        assert!(cmd.baseline.is_none(), "defaults to ci/bench_baseline.json");
        let Ok(Command::Smoke(cmd)) = parse_args(&args(&["smoke"])) else {
            panic!("expected smoke command");
        };
        assert!(!cmd.refresh_baseline);
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        // Every registered name — simulator suite, mega-sweep, runtime
        // preset — shows up wherever a name is listed or accepted.
        let Err(err) = parse_args(&args(&["sweep", "nope"])) else {
            panic!("expected an unknown-suite error");
        };
        let (help, list) = (usage(), list_table().render());
        for name in sweep_names() {
            assert!(err.contains(name), "suite error lists {name}: {err}");
            assert!(list.contains(name), "list shows {name}");
            assert!(help.contains(&format!("sweep {name}")) || find_suite(name).is_some());
        }
        for preset in RUNTIME_PRESETS {
            assert!(sweep_names().contains(&preset.name));
            assert!(help.contains(preset.description), "{}", preset.name);
        }
        assert!(help.contains("[--os-root DIR]"), "declared flags are shown");
        let Err(err) = parse_args(&args(&["bogus"])) else {
            panic!("expected an unknown-command error");
        };
        for name in ["list", "sweep", "smoke", "validate", "help"] {
            assert!(err.contains(name), "command error lists {name}: {err}");
        }
    }

    /// The baseline gate compares every leaf of the preset's block: the
    /// stream digest, point fields matched by label, and the presence of
    /// every point and key on both sides.
    fn assert_exact_leaves_gated(preset: &RuntimePreset) {
        let key = preset.smoke_key();
        let point =
            |label: &str, ratio: &str| format!(r#"{{"label":"{label}","hit_ratio":{ratio}}}"#);
        let block = |points: &[String]| {
            let points = points.join(",");
            doc_with(
                &key,
                &format!(r#"{{"stream_digest":"00000000deadbeef","points":[{points}]}}"#),
            )
        };
        let baseline = block(&[point("p=1", "0.5"), point("p=2", "0.49")]);
        gate(&baseline, &baseline).unwrap();
        // A changed digest means the runtime delivered different bytes.
        let err = gate(&baseline, &baseline.replace("deadbeef", "0badf00d")).unwrap_err();
        assert!(
            err.contains(&format!("{key}/stream_digest changed")) && err.contains("0badf00d"),
            "{err}"
        );
        // A drifted field is a hard failure: there is no tolerance.
        let err = gate(&baseline, &baseline.replace("0.49", "0.48")).unwrap_err();
        assert!(
            err.contains(&format!("{key}/points/p=2/hit_ratio changed")),
            "{err}"
        );
        // A missing point, and a missing block, are reported as such.
        let err = gate(&baseline, &block(&[point("p=1", "0.5")])).unwrap_err();
        assert!(
            err.contains(&format!("{key}/points/p=2: missing from this run")),
            "{err}"
        );
        let err = gate(&baseline, &doc_with("other", "{}")).unwrap_err();
        assert!(
            err.contains(&format!("{key}: missing from this run")),
            "{err}"
        );
        // So is a leaf only the run has: a wall-clock value that found its
        // way back into a document cannot hide behind a skip list.
        let timed = baseline.replace(
            "\"hit_ratio\":0.49",
            "\"hit_ratio\":0.49,\"wall_seconds\":1.5",
        );
        let err = gate(&baseline, &timed).unwrap_err();
        assert!(
            err.contains(&format!(
                "{key}/points/p=2/wall_seconds: not in the baseline"
            )),
            "{err}"
        );
    }

    #[test]
    fn baseline_gate_compares_every_exact_leaf_of_every_preset() {
        for preset in RUNTIME_PRESETS {
            assert_exact_leaves_gated(preset);
        }
    }

    #[test]
    fn smoke_document_exact_projection_matches_the_committed_baseline() {
        // The whole `smoke --baseline`, as CI runs it: every suite and preset
        // gated, then the document compared with the committed baseline —
        // every key and every leaf, both ways, no skip list, on every host.
        let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/bench_baseline.json");
        let smoke = |run: u32| {
            let out = format!("dstool_smoke_{}_{run}.json", std::process::id());
            let out = std::env::temp_dir().join(out);
            let flags = [
                "smoke",
                "--out",
                out.to_str().unwrap(),
                "--baseline",
                baseline,
            ];
            let Ok(Command::Smoke(cmd)) = parse_args(&args(&flags)) else {
                panic!("expected smoke command");
            };
            run_smoke(&cmd).expect("smoke equals the committed baseline");
            let doc = std::fs::read_to_string(&out).unwrap();
            let _ = std::fs::remove_file(&out);
            doc
        };
        let first = smoke(0);
        // No wall-clock leaf is left: a second run writes the same bytes.
        assert_eq!(first, smoke(1));
        assert_eq!(
            canonical_json(&first),
            std::fs::read_to_string(baseline).unwrap(),
            "refreshing the baseline would change nothing"
        );
    }

    #[test]
    fn smoke_defaults_and_flags() {
        let Ok(Command::Smoke(cmd)) = parse_args(&args(&["smoke"])) else {
            panic!("expected smoke command");
        };
        assert_eq!(cmd.threads, SMOKE_THREADS);
        assert_eq!(cmd.scale, SMOKE_EXTRA_SCALE);
        assert_eq!(cmd.out, "BENCH_sweep.json");
        assert!(cmd.baseline.is_none());

        let Ok(Command::Smoke(cmd)) =
            parse_args(&args(&["smoke", "--baseline", "ci/bench_baseline.json"]))
        else {
            panic!("expected smoke command");
        };
        assert_eq!(cmd.baseline.as_deref(), Some("ci/bench_baseline.json"));

        // smoke exists to prove the parallel path.
        assert!(parse_args(&args(&["smoke", "--threads", "1"])).is_err());
        // The baseline gate is exact: smoke has no tolerance to set.
        let Err(err) = parse_args(&args(&["smoke", "--tolerance", "0.2"])) else {
            panic!("smoke --tolerance is gone");
        };
        assert!(err.starts_with("unknown flag --tolerance"), "{err}");
    }

    #[test]
    fn validate_defaults_and_flags() {
        let Ok(Command::Validate(cmd)) = parse_args(&args(&["validate"])) else {
            panic!("expected validate command");
        };
        assert_eq!(cmd.config.scale, 4000);
        assert!((cmd.config.cache_fraction - 0.35).abs() < 1e-12);
        assert_eq!(cmd.config.jobs, 4);
        assert_eq!(cmd.config.epochs, 3);
        assert_eq!(cmd.out, "VALIDATE.json");

        let Ok(Command::Validate(cmd)) = parse_args(&args(&[
            "validate",
            "--scale",
            "16000",
            "--cache-frac",
            "0.5",
            "--jobs",
            "2",
            "--epochs",
            "2",
            "--tolerance",
            "0.08",
            "--out",
            "v.json",
        ])) else {
            panic!("expected validate command");
        };
        assert_eq!(cmd.config.scale, 16000);
        assert!((cmd.config.cache_fraction - 0.5).abs() < 1e-12);
        assert_eq!(cmd.config.jobs, 2);
        assert_eq!(cmd.config.epochs, 2);
        assert!((cmd.config.tolerance - 0.08).abs() < 1e-12);
        assert_eq!(cmd.out, "v.json");

        assert!(parse_args(&args(&["validate", "--epochs", "1"])).is_err());
        assert!(parse_args(&args(&["validate", "--cache-frac", "2.0"])).is_err());
        assert!(parse_args(&args(&["validate", "--bogus"])).is_err());
    }

    #[test]
    fn smoke_only_accepts_every_registered_suite_name() {
        for name in sweep_names() {
            let Ok(Command::Smoke(cmd)) = parse_args(&args(&["smoke", "--only", name])) else {
                panic!("--only {name} should parse");
            };
            assert_eq!(cmd.only.as_deref(), Some(name));
        }
        // Without the flag, the full matrix runs.
        let Ok(Command::Smoke(cmd)) = parse_args(&args(&["smoke"])) else {
            panic!("expected smoke command");
        };
        assert!(cmd.only.is_none());
    }

    #[test]
    fn smoke_only_rejects_unknown_names_listing_the_valid_ones() {
        let Err(err) = parse_args(&args(&["smoke", "--only", "nope"])) else {
            panic!("expected an unknown-suite error");
        };
        for name in sweep_names() {
            assert!(err.contains(name), "--only error lists {name}: {err}");
        }
    }

    #[test]
    fn smoke_only_is_mutually_exclusive_with_refresh_baseline() {
        let Err(err) = parse_args(&args(&[
            "smoke",
            "--only",
            RUNTIME_PRESETS[0].name,
            "--refresh-baseline",
        ])) else {
            panic!("a partial smoke must not refresh the baseline");
        };
        assert!(err.contains("--only"), "{err}");
    }

    #[test]
    fn write_out_creates_parent_directories() {
        let root = std::env::temp_dir().join("dstool_write_out_test");
        let _ = std::fs::remove_dir_all(&root);
        // The directories a CI invocation would name for its artifacts
        // (`smoke --out .../BENCH_sweep.json`, `validate --out
        // .../VALIDATE.json`) do not exist yet: write_out makes them.
        for name in ["bench/BENCH_sweep.json", "validate/deep/VALIDATE.json"] {
            let path = root.join(name);
            let path = path.to_str().unwrap();
            write_out(path, "{}\n").unwrap();
            assert_eq!(std::fs::read_to_string(path).unwrap(), "{}\n");
        }
        // A bare filename (no parent) writes to the working directory
        // without tripping the mkdir path; prove it by not erroring on the
        // create_dir_all step for an empty parent.
        let bare = root.join("flat.json");
        write_out(bare.to_str().unwrap(), "x").unwrap();
    }

    #[test]
    fn write_out_names_the_path_when_it_cannot_write() {
        // A path whose parent is a *file* cannot be created: both the smoke
        // and validate writers must surface the path, not panic.
        let root = std::env::temp_dir().join("dstool_write_out_err_test");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("blocker");
        std::fs::write(&blocker, "a file, not a directory").unwrap();
        let target = blocker.join("BENCH_sweep.json");
        let err = write_out(target.to_str().unwrap(), "{}").unwrap_err();
        assert!(
            err.contains("BENCH_sweep.json") && err.starts_with("cannot create parent"),
            "{err}"
        );
        // Writing *to* a directory fails at the write step with the path.
        let err = write_out(root.to_str().unwrap(), "{}").unwrap_err();
        assert!(err.starts_with("cannot write"), "{err}");
    }

    #[test]
    fn canonical_json_sorts_keys_and_ends_with_newline() {
        let canonical = canonical_json(r#"{"b":1,"a":{"z":true,"y":"s"}}"#);
        assert_eq!(canonical, "{\"a\":{\"y\":\"s\",\"z\":true},\"b\":1}\n");
    }

    #[test]
    fn baseline_gate_flags_regressions_and_missing_presets() {
        let baseline = doc_with("runtime_chaos", r#"{"stream_digest":"00ff"}"#);
        gate(&baseline, &baseline).unwrap();
        // A simulated rate is a model output: moved by 1e-6 it fails.
        let err = gate(&baseline, &baseline.replace(":1000}", ":1000.000001}")).unwrap_err();
        assert!(
            err.contains("/suites/s/points/a/steady_samples_per_sec changed"),
            "{err}"
        );
        // A point that left a suite, and a suite that left the run.
        let err = gate(
            &baseline,
            &baseline.replace(r#"{"label":"a","steady_samples_per_sec":1000}"#, ""),
        )
        .unwrap_err();
        assert!(
            err.contains("/suites/s/points/a: missing from this run"),
            "{err}"
        );
        // A block the run produced but the baseline never recorded is not
        // silently skipped ...
        let grown = baseline.replace(
            r#""runtime_chaos""#,
            r#""runtime_new":{"stream_digest":"0a"},"runtime_chaos""#,
        );
        let err = gate(&baseline, &grown).unwrap_err();
        assert!(err.contains("/runtime_new: not in the baseline"), "{err}");
        // ... nor is a baseline block the run lost, nor a moved digest.
        let err = gate(&grown, &baseline).unwrap_err();
        assert!(err.contains("/runtime_new: missing from this run"), "{err}");
        let err = gate(&baseline, &baseline.replace("00ff", "00fe")).unwrap_err();
        assert!(
            err.contains("/runtime_chaos/stream_digest changed") && err.contains("00fe"),
            "{err}"
        );
        // A scale mismatch is named as such, not as the first leaf it moved.
        let err = gate(&baseline.replace(":8,", ":2,"), &baseline).unwrap_err();
        assert!(
            err.contains("extra_scale 2") && err.contains("--scale 8"),
            "scale mismatch reported: {err}"
        );
    }

    // The per-preset tests of earlier PRs, kept under their names (the
    // tier-1 floor lists them) as instances of the table-driven checks
    // above, so each still fails alone when its preset regresses.
    macro_rules! per_preset {
        ($($test:ident => $check:ident($name:literal);)*) => {$(
            #[test]
            fn $test() {
                $check(find_preset($name).expect("preset left the registry"));
            }
        )*};
    }
    per_preset! {
        worker_sweep_is_routed_to_the_runtime_preset => assert_routed("worker-sweep");
        tier_sweep_is_routed_to_the_runtime_preset => assert_routed("tier-sweep");
        multi_tenant_is_routed_to_the_runtime_preset => assert_routed("multi-tenant");
        fs_sweep_is_routed_to_the_runtime_preset => assert_routed("fs-sweep");
        chaos_is_routed_to_the_runtime_preset => assert_routed("chaos");
        fetch_sweep_is_routed_to_the_runtime_preset => assert_routed("fetch-sweep");
        baseline_gate_compares_the_runtime_stream_digest => assert_exact_leaves_gated("worker-sweep");
        baseline_gate_compares_tier_sweep_ratios_exactly => assert_exact_leaves_gated("tier-sweep");
        baseline_gate_compares_multi_tenant_ratios_exactly => assert_exact_leaves_gated("multi-tenant");
        baseline_gate_compares_the_fs_sweep_stream_digest => assert_exact_leaves_gated("fs-sweep");
        baseline_gate_compares_the_chaos_stream_digest => assert_exact_leaves_gated("chaos");
        baseline_gate_compares_the_fetch_sweep_stream_digest => assert_exact_leaves_gated("fetch-sweep");
    }
}
