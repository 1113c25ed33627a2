//! `dstool` — regenerate and gate the reproduction from the command line.
//!
//! ```text
//! dstool list                               # every row of the registry
//! dstool figures --only fig14               # one row, printed with its claim
//! dstool figures --baseline FIGURES.json    # every row, gated
//! dstool figures --out FIGURES.json         # refresh the committed document
//! ```
//!
//! Every row of `benchkit::FIGURES` regenerates one table of exact values and
//! checks its claim: the paper's figures and tables on the simulator, the
//! runtime presets (one stream digest and one set of counters across each
//! preset's worker, fetch-thread or shard axis), the vectorized engine's
//! 100 000-point mega sweep and the predicted-vs-empirical `validate` table.
//! With `--baseline` the document must equal the committed `FIGURES.json`
//! leaf for leaf, so the gate catches behavioural changes, never host
//! jitter: thread-timing observations are printed and read by the claims,
//! never written.  Speed claims live in `dsbench` (`benchmark/`,
//! `BENCH_<pr>.json`).

use benchkit::{compare_exact, find_figure, run_figures, Figure, Table, FIGURES};
use datastalls::pipeline::json::{self, compact, object, Value};
use std::process::ExitCode;

fn usage() -> String {
    "usage: dstool <command> [options]\n\
     \n\
     commands:\n\
     \u{20} list                         list the registry: every row's id, claim and\n\
     \u{20}                              paper artifact (see EXPERIMENTS.md)\n\
     \u{20} figures                      regenerate every row (paper figures and\n\
     \u{20}                              tables, runtime presets, mega_sweep,\n\
     \u{20}                              validate) and check each claim\n\
     \u{20}       [--only ID] [--out FILE] [--baseline FILE]\n\
     \u{20} help                         this text\n\
     \n\
     figures options:\n\
     \u{20} --only ID        run one row (e.g. fig09a, chaos); --baseline then\n\
     \u{20}                  compares that row's block only\n\
     \u{20} --out FILE       write the document (--out FIGURES.json refreshes it)\n\
     \u{20} --baseline FILE  fail unless the document equals FILE leaf for leaf"
        .to_string()
}

struct FiguresCmd {
    only: Option<&'static Figure>,
    out: Option<String>,
    baseline: Option<String>,
}

enum Command {
    Help,
    List,
    Figures(FiguresCmd),
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
        "figures" => parse_figures(&rest),
        "--help" | "-h" | "help" => Ok(Command::Help),
        other => Err(format!(
            "unknown command {other}; valid commands: list, figures, help\n\n{}",
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

fn parse_figures(args: &[&String]) -> Result<Command, String> {
    let mut cmd = FiguresCmd {
        only: None,
        out: None,
        baseline: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--only" => {
                let id = value(&mut it, flag)?;
                let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                let figure = find_figure(id)
                    .ok_or_else(|| format!("unknown figure {id}; valid: {}", ids.join(", ")))?;
                cmd.only = Some(figure);
            }
            "--out" => cmd.out = Some(value(&mut it, flag)?.clone()),
            "--baseline" => cmd.baseline = Some(value(&mut it, flag)?.clone()),
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    Ok(Command::Figures(cmd))
}

fn list_table() -> Table {
    let mut table = Table::new("The FIGURES registry", &["id", "claim", "paper"]);
    for figure in &FIGURES {
        let claim = if figure.claim.is_some() {
            "checked"
        } else {
            "tests/paper_claims.rs"
        };
        table.row(&[
            figure.id.to_string(),
            claim.to_string(),
            figure.paper.to_string(),
        ]);
    }
    table
}

/// Write an `--out` artifact, creating missing parent directories first so
/// `--out results/FIGURES.json` works on a fresh checkout; both failure
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

/// A document in the committed form: sorted object keys (a `Value` object is
/// a sorted map) and a trailing newline, so refreshes diff only where a
/// value moved.
fn canonical_json(doc: &Value) -> String {
    format!("{}\n", compact(doc))
}

fn read_baseline(path: &str) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("baseline {path} is not valid JSON: {e}"))
}

/// The baseline gate: `doc` must equal the committed document at `path` —
/// only `only`'s block of it when one row ran — leaf for leaf and key for
/// key.  Every leaf is machine-independent, so any difference is a
/// behavioural change.
fn check_baseline(path: &str, only: Option<&Figure>, doc: &Value) -> Result<(), String> {
    let mut baseline = read_baseline(path)?;
    if let Some(figure) = only {
        let block = baseline.get(figure.id).cloned();
        baseline = object(block.map(|b| (figure.id, b)));
    }
    compare_exact(path, &baseline, Some(doc)).map_err(|e| {
        format!(
            "{e} — a row changed; fix the regression, or refresh with \
             `dstool figures --out {path}` after an intentional change"
        )
    })
}

/// Run the registry (or one row), print every table, write the document,
/// then gate: the baseline comparison and every claim.
fn run_figures_cmd(cmd: &FiguresCmd) -> Result<(), String> {
    let figures: Vec<&'static Figure> = match cmd.only {
        Some(figure) => vec![figure],
        None => FIGURES.iter().collect(),
    };
    let (doc, mut failed) = run_figures(&figures);
    if let Some(path) = &cmd.out {
        write_out(path, &canonical_json(&doc))?;
        println!("\nwrote {path}");
    }
    if let Some(path) = &cmd.baseline {
        match check_baseline(path, cmd.only, &doc) {
            Ok(()) => println!("baseline gate passed: this run equals {path} leaf for leaf"),
            Err(e) => failed.push(e),
        }
    }
    if !failed.is_empty() {
        return Err(failed.join("\n"));
    }
    let claims = figures.iter().filter(|f| f.claim.is_some()).count();
    println!("{} row(s), {claims} claim(s) hold", figures.len());
    Ok(())
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
            println!("\nrun one with: dstool figures --only <id>");
            Ok(())
        }
        Ok(Command::Figures(cmd)) => run_figures_cmd(&cmd),
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
    use benchkit::MegaSweepReport;
    use std::collections::BTreeMap;

    /// The runtime rows (`benchkit::runtime`'s presets).
    const RUNTIME_ROWS: [&str; 6] = [
        "worker_sweep",
        "tier_sweep",
        "multi_tenant",
        "fs_sweep",
        "chaos",
        "fetch_sweep",
    ];

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/FIGURES.json");

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Gate `current` against `baseline`, written to a temp file of its own
    /// (tests run on parallel threads and must not share one).
    fn gate(baseline: &Value, current: &Value) -> Result<(), String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let file = format!("dstool_gate_{}_{n}.json", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, canonical_json(baseline)).unwrap();
        let outcome = check_baseline(path.to_str().unwrap(), None, current);
        let _ = std::fs::remove_file(&path);
        outcome
    }

    /// The entries of an object value, for doctoring.
    fn entries(v: &mut Value) -> &mut BTreeMap<String, Value> {
        let Value::Object(map) = v else {
            panic!("an object");
        };
        map
    }

    /// Row `i` of a committed block, for doctoring.
    fn row(block: &mut Value, i: usize) -> &mut BTreeMap<String, Value> {
        let Some(Value::Array(rows)) = entries(block).get_mut("rows") else {
            panic!("a rows array");
        };
        entries(&mut rows[i])
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
    fn sweep_rejects_bad_input() {
        // `sweep`, `smoke` and `validate` are not commands (their work is
        // rows of the registry): each is refused, naming the valid ones.
        for removed in [
            &["sweep", "chaos"][..],
            &["sweep", "all", "--serial"],
            &["smoke", "--baseline", "ci/bench_baseline.json"],
            &["validate", "--tolerance", "0.05"],
        ] {
            let Err(err) = parse_args(&args(removed)) else {
                panic!("{removed:?} is gone");
            };
            let expected = format!("unknown command {}", removed[0]);
            assert!(err.starts_with(&expected), "{err}");
            assert!(err.contains("valid commands: list, figures, help"), "{err}");
        }
    }

    /// `figures --only <id>` reaches the registry row `id` with `--out` and
    /// `--baseline` parsed.
    fn assert_routed(id: &str) {
        let flags = [
            "figures",
            "--only",
            id,
            "--out",
            "p.json",
            "--baseline",
            "b",
        ];
        let Ok(Command::Figures(cmd)) = parse_args(&args(&flags)) else {
            panic!("--only {id} should parse");
        };
        let figure = cmd.only.expect("one row");
        assert!(std::ptr::eq(figure, find_figure(id).unwrap()), "{id}");
        assert_eq!(cmd.out.as_deref(), Some("p.json"));
        assert_eq!(cmd.baseline.as_deref(), Some("b"));
        assert!(figure.claim.is_some(), "{id} checks its contract");
    }

    #[test]
    fn every_registered_preset_is_routed_to_the_runtime_harness() {
        for id in RUNTIME_ROWS {
            assert_routed(id);
        }
    }

    #[test]
    fn mega_sweep_is_routed_to_its_two_phase_harness() {
        assert_routed("mega_sweep");
    }

    #[test]
    fn mega_gates_reject_a_doctored_report() {
        let mega = find_figure("mega_sweep").unwrap();
        let healthy = MegaSweepReport {
            points: 2000,
            threads: 2,
            fast_seconds: 0.05,
            exact_points: 2000,
            exact_seconds: 1.0,
            mismatches: 0,
        };
        mega.check(&healthy.table())
            .expect("20x clears the 10x claim");
        let slow = MegaSweepReport {
            fast_seconds: 0.2,
            ..healthy.clone()
        };
        let err = mega.check(&slow.table()).unwrap_err();
        assert!(err.contains("only 5.0x") && err.contains(">=10x"), "{err}");
        let diverged = MegaSweepReport {
            mismatches: 3,
            ..healthy
        };
        let err = mega.check(&diverged.table()).unwrap_err();
        assert!(err.contains("3 of 2000"), "{err}");
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        // Every registered id shows up wherever an id is listed or accepted.
        let Err(err) = parse_args(&args(&["figures", "--only", "nope"])) else {
            panic!("expected an unknown-figure error");
        };
        let list = list_table().render();
        for figure in &FIGURES {
            assert!(
                err.contains(figure.id),
                "the error lists {}: {err}",
                figure.id
            );
            assert!(list.contains(figure.id), "list shows {}", figure.id);
            assert!(
                list.contains(figure.paper),
                "list shows {}'s artifact",
                figure.id
            );
        }
        let Err(err) = parse_args(&args(&["bogus"])) else {
            panic!("expected an unknown-command error");
        };
        for name in ["list", "figures", "help"] {
            assert!(err.contains(name), "command error lists {name}: {err}");
        }
    }

    /// The baseline gate compares every leaf of the runtime row `id`'s
    /// committed block: the stream digest, each run's cells matched by
    /// position, and the presence of every run and key on both sides.
    fn assert_exact_leaves_gated(id: &str) {
        let committed = read_baseline(COMMITTED).unwrap();
        let block = committed.get(id).expect("the row's block").clone();
        let doc = object([(id, block.clone())]);
        gate(&doc, &doc).unwrap();
        let label = row(&mut block.clone(), 0)["label"]
            .as_str()
            .unwrap()
            .to_string();
        let doctored = |edit: &dyn Fn(&mut Value)| {
            let mut block = block.clone();
            edit(&mut block);
            gate(&doc, &object([(id, block)])).unwrap_err()
        };
        // A changed digest means the runtime delivered different bytes.
        let err = doctored(&|b| {
            row(b, 0).insert("stream_digest".into(), json::text("000000000badf00d"));
        });
        let path = format!("{id}/rows/{label}/stream_digest changed");
        assert!(err.contains(&path) && err.contains("0badf00d"), "{err}");
        // A moved counter is a hard failure: there is no tolerance.
        let err = doctored(&|b| {
            let counters = entries(row(b, 0).get_mut("counters").unwrap());
            let (_, first) = counters.iter_mut().next().unwrap();
            *first = json::num(first.as_f64().unwrap_or_default() + 1e-6);
        });
        assert!(
            err.contains(&format!("{id}/rows/{label}/counters/")),
            "{err}"
        );
        // A missing run, and a missing block, are reported as such.
        let err = doctored(&|b| {
            let Some(Value::Array(rows)) = entries(b).get_mut("rows") else {
                unreachable!()
            };
            rows.pop();
        });
        assert!(err.contains("missing from this run"), "{err}");
        let err = gate(&doc, &object([])).unwrap_err();
        assert!(
            err.contains(&format!("{id}: missing from this run")),
            "{err}"
        );
        // So is a leaf only the run has: a wall-clock value that found its
        // way back into the document cannot hide behind a skip list.
        let err = doctored(&|b| {
            row(b, 0).insert("wall_seconds".into(), json::num(1.5));
        });
        let path = format!("{id}/rows/{label}/wall_seconds: not in the baseline");
        assert!(err.contains(&path), "{err}");
    }

    #[test]
    fn baseline_gate_compares_every_exact_leaf_of_every_preset() {
        for id in RUNTIME_ROWS {
            assert_exact_leaves_gated(id);
        }
    }

    #[test]
    fn figures_flags_parse_every_id_and_reject_the_removed_ones() {
        let Ok(Command::Figures(cmd)) = parse_args(&args(&["figures"])) else {
            panic!("expected figures command");
        };
        assert!(cmd.only.is_none() && cmd.out.is_none() && cmd.baseline.is_none());
        for figure in &FIGURES {
            let flags = ["figures", "--only", figure.id];
            let Ok(Command::Figures(cmd)) = parse_args(&args(&flags)) else {
                panic!("--only {} should parse", figure.id);
            };
            assert!(std::ptr::eq(cmd.only.unwrap(), figure));
        }
        // The flags of the deleted commands are not figures flags.
        for flag in [
            "--threads",
            "--scale",
            "--refresh-baseline",
            "--os-root",
            "--tolerance",
        ] {
            let Err(err) = parse_args(&args(&["figures", flag, "2"])) else {
                panic!("{flag} is gone");
            };
            assert!(err.starts_with(&format!("unknown flag {flag}")), "{err}");
        }
        assert!(usage().contains("figures options"));
    }

    #[test]
    fn figures_only_gates_one_block_against_the_committed_document() {
        // The CLI end to end on the instant row: run, write, compare with
        // its block of FIGURES.json, check its claim.
        let out = std::env::temp_dir().join(format!("dstool_figures_{}.json", std::process::id()));
        let flags = [
            "figures",
            "--only",
            "fig01",
            "--out",
            out.to_str().unwrap(),
            "--baseline",
            COMMITTED,
        ];
        let Ok(Command::Figures(cmd)) = parse_args(&args(&flags)) else {
            panic!("expected figures command");
        };
        run_figures_cmd(&cmd).expect("fig01 equals its committed block");
        let written = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let _ = std::fs::remove_file(&out);
        let committed = read_baseline(COMMITTED).unwrap();
        assert_eq!(written.get("fig01"), committed.get("fig01"));
        let Value::Object(doc) = written else {
            panic!("an object keyed by id");
        };
        assert_eq!(doc.len(), 1);
    }

    #[test]
    fn write_out_creates_parent_directories() {
        let root = std::env::temp_dir().join("dstool_write_out_test");
        let _ = std::fs::remove_dir_all(&root);
        // The directories a CI invocation would name for its artifact do
        // not exist yet: write_out makes them.
        for name in ["figures/FIGURES_run.json", "deep/er/FIGURES.json"] {
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
        // A path whose parent is a *file* cannot be created: the writer must
        // surface the path, not panic.
        let root = std::env::temp_dir().join("dstool_write_out_err_test");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let blocker = root.join("blocker");
        std::fs::write(&blocker, "a file, not a directory").unwrap();
        let target = blocker.join("FIGURES_run.json");
        let err = write_out(target.to_str().unwrap(), "{}").unwrap_err();
        assert!(
            err.contains("FIGURES_run.json") && err.starts_with("cannot create parent"),
            "{err}"
        );
        // Writing *to* a directory fails at the write step with the path.
        let err = write_out(root.to_str().unwrap(), "{}").unwrap_err();
        assert!(err.starts_with("cannot write"), "{err}");
    }

    #[test]
    fn canonical_json_sorts_keys_and_ends_with_newline() {
        let doc = json::parse(r#"{"b":1,"a":{"z":true,"y":"s"}}"#).unwrap();
        let canonical = canonical_json(&doc);
        assert_eq!(canonical, "{\"a\":{\"y\":\"s\",\"z\":true},\"b\":1}\n");
    }

    #[test]
    fn baseline_gate_flags_regressions_and_missing_presets() {
        let committed = read_baseline(COMMITTED).unwrap();
        let block = |id: &str| committed.get(id).unwrap().clone();
        let baseline = object([("fig01", block("fig01")), ("chaos", block("chaos"))]);
        gate(&baseline, &baseline).unwrap();
        // A model output moved by 1e-6 fails.
        let mut moved = baseline.clone();
        let rate = row(entries(&mut moved).get_mut("fig01").unwrap(), 1);
        let x = rate["measured_mb_per_s"].as_f64().unwrap();
        rate.insert("measured_mb_per_s".into(), json::num(x + 1e-6));
        let err = gate(&baseline, &moved).unwrap_err();
        assert!(
            err.contains("/fig01/rows/1/measured_mb_per_s changed"),
            "{err}"
        );
        // A row the run produced but the baseline never recorded is not
        // silently skipped ...
        let mut grown = baseline.clone();
        entries(&mut grown).insert("new_row".into(), object([]));
        let err = gate(&baseline, &grown).unwrap_err();
        assert!(err.contains("/new_row: not in the baseline"), "{err}");
        // ... nor is a baseline row the run lost, nor a moved digest.
        let err = gate(&grown, &baseline).unwrap_err();
        assert!(err.contains("/new_row: missing from this run"), "{err}");
        let mut flipped = baseline.clone();
        let chaos = row(entries(&mut flipped).get_mut("chaos").unwrap(), 1);
        chaos.insert("stream_digest".into(), json::text("00fe"));
        let err = gate(&baseline, &flipped).unwrap_err();
        assert!(
            err.contains("/chaos/rows/faults=3/stream_digest changed") && err.contains("00fe"),
            "{err}"
        );
        // And the message says how to refresh after an intentional change.
        assert!(err.contains("dstool figures --out"), "{err}");
    }

    // One test per runtime row, instances of the table-driven checks above,
    // so each fails alone when its row regresses.
    macro_rules! per_preset {
        ($($test:ident => $check:ident($id:literal);)*) => {$(
            #[test]
            fn $test() {
                $check($id);
            }
        )*};
    }
    per_preset! {
        worker_sweep_is_routed_to_the_runtime_preset => assert_routed("worker_sweep");
        tier_sweep_is_routed_to_the_runtime_preset => assert_routed("tier_sweep");
        multi_tenant_is_routed_to_the_runtime_preset => assert_routed("multi_tenant");
        fs_sweep_is_routed_to_the_runtime_preset => assert_routed("fs_sweep");
        chaos_is_routed_to_the_runtime_preset => assert_routed("chaos");
        fetch_sweep_is_routed_to_the_runtime_preset => assert_routed("fetch_sweep");
        baseline_gate_compares_the_runtime_stream_digest => assert_exact_leaves_gated("worker_sweep");
        baseline_gate_compares_tier_sweep_ratios_exactly => assert_exact_leaves_gated("tier_sweep");
        baseline_gate_compares_multi_tenant_ratios_exactly => assert_exact_leaves_gated("multi_tenant");
        baseline_gate_compares_the_fs_sweep_stream_digest => assert_exact_leaves_gated("fs_sweep");
        baseline_gate_compares_the_chaos_stream_digest => assert_exact_leaves_gated("chaos");
        baseline_gate_compares_the_fetch_sweep_stream_digest => assert_exact_leaves_gated("fetch_sweep");
    }
}
