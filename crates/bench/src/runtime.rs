//! The one harness behind every *runtime* row of [`FIGURES`](crate::FIGURES):
//! `worker_sweep`, `tier_sweep`, `multi_tenant`, `fs_sweep`, `chaos` and
//! `fetch_sweep`.
//!
//! The paper's method is differential: run one workload under controlled
//! variations and compare.  Each runtime row is one such comparison over the
//! real `coordl` runtime; this module holds everything they share, so a row's
//! module is only its sizes, one `run_once` and its shape check:
//!
//! * [`StreamDigest`] — the single word-wise FNV hash of a delivered stream;
//! * [`Workload`] — the sizes every row is built from;
//! * [`Run`] / [`table`] — one run's cells, and the [`FigureTable`] with one
//!   row per run: every value of the invariance axis is a row of its own, so
//!   a claim checks the contract from the table alone — on this run or on
//!   the committed `FIGURES.json` block;
//! * [`bit_identical`] / [`same_counters`] — the determinism contract every
//!   runtime claim starts from;
//! * [`compare_exact`] — the baseline walk behind `dstool figures
//!   --baseline`.
//!
//! Every cell is **exact** (machine-independent: digests, counters, hit
//! ratios, physical read/write counts), so the committed document pins it.
//! Each run's wall time is a [`FigureTable::observed`] entry: printed, never
//! written.  Speed claims belong to `dsbench` (`benchmark/`).

use crate::figures::FigureTable;
use coordl::{Minibatch, Session, SessionConfig};
use dataset::DatasetSpec;
use pipeline::json::{compact, int, object, text, Value};
use prep::{ExecutablePipeline, PrepPipeline};
use std::time::Instant;

/// FNV-1a over 8-byte words, the dependency-free hash behind every
/// `stream_digest`.  Word-at-a-time keeps the checker an order of magnitude
/// cheaper than the prep work it verifies while covering every payload byte.
/// The multiplier is the one every committed digest was recorded with (a
/// digit wider than the canonical 64-bit FNV prime); it must not change.
pub struct StreamDigest(u64);

impl Default for StreamDigest {
    fn default() -> Self {
        StreamDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamDigest {
    /// Absorb one 8-byte word.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    /// Absorb a byte string, little-endian word by word.
    pub fn bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(8);
        for c in chunks.by_ref() {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail so "ab" and "ab\0" differ.
            self.word(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    /// Absorb everything a consumer can observe of one minibatch: epoch,
    /// index, and per sample the item id, augmentation seed and prepared
    /// bytes.
    pub fn absorb(&mut self, mb: &Minibatch) {
        self.word(mb.epoch);
        self.word(mb.index as u64);
        for s in &mb.samples {
            self.word(s.item);
            self.word(s.augmentation_seed);
            self.bytes(&s.data);
        }
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The sizes every runtime row shares.  A row's module holds its own as a
/// `WORKLOAD` constant; tests derive smaller ones with struct-update syntax.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Items in the synthetic dataset (per tenant in `multi_tenant`).
    pub items: u64,
    /// Average raw item size in bytes.
    pub avg_item_bytes: u64,
    /// Decode expansion factor — the prep-heaviness knob (prepared items are
    /// `decode_multiplier`× the raw size).
    pub decode_multiplier: usize,
    /// Samples per minibatch.
    pub batch_size: usize,
    /// Epochs per run (epoch 0 is the cold warm-up).
    pub epochs: u64,
    /// Shuffle + augmentation seed shared by every run.
    pub seed: u64,
    /// The values of the invariance axis every point is run at.
    pub axis: &'static [usize],
}

impl Workload {
    /// The synthetic dataset of the row called `name`.
    pub fn dataset(&self, name: &str) -> DatasetSpec {
        DatasetSpec::new(
            name,
            self.items,
            self.avg_item_bytes,
            0.2,
            self.decode_multiplier as f64,
        )
    }

    /// The session configuration of one run with `workers` prep workers.
    pub fn session_config(&self, workers: usize) -> SessionConfig {
        SessionConfig {
            batch_size: self.batch_size,
            seed: self.seed,
            num_workers: workers,
            ..SessionConfig::default()
        }
    }

    /// The image-classification prep pipeline at this decode multiplier.
    pub fn pipeline(&self) -> ExecutablePipeline {
        ExecutablePipeline::new(
            PrepPipeline::image_classification(),
            self.decode_multiplier,
            self.seed,
        )
    }
}

/// Drain `epochs` epochs of a single-stream session into a digest.  Returns
/// the digest and the wall-clock seconds of the drain (digesting included).
pub fn drain_single(session: &Session, epochs: u64) -> (u64, f64) {
    let start = Instant::now();
    let mut digest = StreamDigest::default();
    for epoch in 0..epochs {
        let run = session.epoch(epoch);
        for batch in run.stream(0) {
            digest.absorb(&batch.expect("runtime rows' epochs do not fail"));
        }
    }
    (digest.finish(), start.elapsed().as_secs_f64())
}

/// The deterministic `LoaderStats` counters of a finished session.
pub fn loader_counters(session: &Session) -> Vec<(&'static str, Value)> {
    let stats = session.stats();
    vec![
        ("bytes_from_storage", int(stats.bytes_from_storage())),
        ("bytes_from_cache", int(stats.bytes_from_cache())),
        ("bytes_from_remote", int(stats.bytes_from_remote())),
        (
            "bytes_from_lower_tiers",
            int(stats.bytes_from_lower_tiers()),
        ),
        ("samples_prepared", int(stats.samples_prepared())),
        ("samples_delivered", int(stats.samples_delivered())),
    ]
}

/// A 64-bit digest as a JSON value: a hex *string* (u64 does not survive a
/// float round-trip).
pub fn hex(v: u64) -> Value {
    text(&format!("{v:016x}"))
}

/// `v` as a table cell: integers whole, other numbers to four decimals,
/// strings bare.
pub fn cell(v: &Value) -> String {
    match v {
        Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n:.0}"),
        Value::Number(n) => format!("{n:.4}"),
        Value::String(s) => s.clone(),
        other => compact(other),
    }
}

/// One run of a runtime row at one value of its invariance axis: the cells
/// of its table row, in column order, and its wall time.
#[derive(Debug, Clone)]
pub struct Run {
    /// `(column, value)` pairs, exact values only.
    pub cells: Vec<(&'static str, Value)>,
    /// Wall-clock seconds of the run: an observation, never written.
    pub wall_seconds: f64,
}

impl Run {
    /// A run of the point `label` at `axis` = `value` that delivered the
    /// stream `digest`: the leading cells of every runtime row.
    pub fn new(label: &str, axis: &'static str, value: usize, digest: u64) -> Self {
        Run {
            cells: vec![
                ("label", text(label)),
                (axis, int(value as u64)),
                ("stream_digest", hex(digest)),
            ],
            wall_seconds: 0.0,
        }
    }

    /// The run with `cells` appended.
    pub fn with(mut self, cells: impl IntoIterator<Item = (&'static str, Value)>) -> Self {
        self.cells.extend(cells);
        self
    }

    /// The finished run: its deterministic `counters` as one `counters`
    /// cell, and its wall time.
    pub fn counted(self, counters: Vec<(&'static str, Value)>, wall_seconds: f64) -> Self {
        let run = self.with([("counters", object(counters))]);
        Run {
            wall_seconds,
            ..run
        }
    }
}

/// The run of an axis-scaling row (`worker_sweep`, `fetch_sweep`): the axis
/// value is the point; the counters are the loader's plus the tier's
/// hits and misses.
pub fn timed_run(axis: &'static str, value: usize, session: &Session, drained: (u64, f64)) -> Run {
    let tier = session.cache_tier().expect("single-mode tier");
    let mut counters = loader_counters(session);
    counters.push(("cache_hits", int(tier.hits())));
    counters.push(("cache_misses", int(tier.misses())));
    let run = Run::new(&format!("{axis}={value}"), axis, value, drained.0);
    run.counted(counters, drained.1)
}

/// Run every grid point at every value of the invariance axis (grid
/// slowest-varying), the loop shared by the grid rows.
pub fn run_grid<P>(
    grid: &[P],
    axis_values: &[usize],
    run_once: impl Fn(&P, usize) -> Run,
) -> Vec<Run> {
    assert!(!axis_values.is_empty(), "the invariance axis is empty");
    let run_once = &run_once;
    grid.iter()
        .flat_map(|p| axis_values.iter().map(move |&v| run_once(p, v)))
        .collect()
}

/// The table of a runtime row: `summary` describes the workload, every run is
/// one row (with the first run's columns), every run's wall time one
/// observation.
pub fn table(summary: Vec<(&str, Value)>, runs: Vec<Run>) -> FigureTable {
    let columns = runs[0].cells.iter().map(|(k, _)| k.to_string()).collect();
    let mut t = FigureTable {
        columns,
        summary: summary.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ..FigureTable::default()
    };
    for (i, run) in runs.into_iter().enumerate() {
        let columns = run.cells.iter().map(|(k, _)| *k);
        assert!(
            columns.eq(t.columns.iter().map(String::as_str)),
            "run {i}'s columns"
        );
        t.rows.push(run.cells.into_iter().map(|(_, v)| v).collect());
        t.observed.push((format!("wall_s[{i}]"), run.wall_seconds));
    }
    t
}

fn label(t: &FigureTable, row: usize) -> &str {
    t.cell(row, "label").as_str().unwrap_or_default()
}

/// The determinism contract every runtime row shares: one delivered stream
/// for the whole table, and for each point the same cells at every value of
/// its invariance `axes`.  The error names the point and the axis values.
pub fn bit_identical(t: &FigureTable, axes: &[&str]) -> Result<(), String> {
    if t.rows.is_empty() {
        return Err("produced no runs".to_string());
    }
    let at = |row: usize| {
        let values = axes.iter().map(|a| format!("{a}={}", cell(t.cell(row, a))));
        values.collect::<Vec<_>>().join(",")
    };
    let digest = |row: usize| cell(t.cell(row, "stream_digest"));
    for r in 0..t.rows.len() {
        if digest(r) != digest(0) {
            return Err(format!(
                "{}: {} delivered a different stream than {} at {} (digest {} vs {})",
                label(t, r),
                at(r),
                label(t, 0),
                at(0),
                digest(r),
                digest(0)
            ));
        }
        let Some(base) = (0..r).find(|&b| label(t, b) == label(t, r)) else {
            continue;
        };
        let mut cells = t.columns.iter().zip(t.rows[r].iter().zip(&t.rows[base]));
        let moved = cells.find(|(c, (now, then))| !axes.contains(&c.as_str()) && now != then);
        if let Some((column, (now, then))) = moved {
            return Err(format!(
                "{}: {} produced {column} {} where {} produced {}",
                label(t, r),
                at(r),
                cell(now),
                at(base),
                cell(then)
            ));
        }
    }
    Ok(())
}

/// The stricter contract of rows whose points differ only in how the work
/// is scheduled (worker, fetch-thread and shard counts): every run counts
/// the same.
pub fn same_counters(t: &FigureTable) -> Result<(), String> {
    let counters = |row: usize| t.cell(row, "counters");
    match (1..t.rows.len()).find(|&r| counters(r) != counters(0)) {
        None => Ok(()),
        Some(r) => Err(format!(
            "{}: counters differ from {} ({} vs {})",
            label(t, r),
            label(t, 0),
            compact(counters(r)),
            compact(counters(0))
        )),
    }
}

/// The counter `key` of `row` (an array for per-tenant or per-epoch ones).
///
/// # Panics
/// Panics when the row has no such counter (a bug in the row).
pub fn counter<'t>(t: &'t FigureTable, row: usize, key: &str) -> &'t Value {
    let value = t.cell(row, "counters").get(key);
    value.unwrap_or_else(|| panic!("{}: no counter {key}", label(t, row)))
}

/// The numeric counter `key` of `row`.
pub fn count(t: &FigureTable, row: usize, key: &str) -> f64 {
    let value = counter(t, row, key).as_f64();
    value.unwrap_or_else(|| panic!("{}: counter {key} is not a number", label(t, row)))
}

/// Compare two documents for equality, leaf by leaf: numbers within 1e-9,
/// everything else exactly.  Array elements are matched by position and
/// named by their `label` where they have one.  The first difference — a
/// changed leaf, or a key or element only one side has — is an `Err` naming
/// its path under `path`.
pub fn compare_exact(path: &str, baseline: &Value, current: Option<&Value>) -> Result<(), String> {
    let Some(current) = current else {
        return Err(format!("{path}: missing from this run"));
    };
    match (baseline, current) {
        (Value::Object(base), Value::Object(cur)) => {
            for (key, value) in base {
                compare_exact(&format!("{path}/{key}"), value, cur.get(key))?;
            }
            match cur.keys().find(|key| !base.contains_key(*key)) {
                Some(key) => Err(format!("{path}/{key}: not in the baseline")),
                None => Ok(()),
            }
        }
        (Value::Array(base), Value::Array(cur)) => {
            for (i, value) in base.iter().enumerate() {
                let name = value.get("label").and_then(Value::as_str);
                let name = name.map_or(i.to_string(), str::to_string);
                compare_exact(&format!("{path}/{name}"), value, cur.get(i))?;
            }
            if cur.len() > base.len() {
                return Err(format!(
                    "{path}: {} element(s) of this run are not in the baseline",
                    cur.len() - base.len()
                ));
            }
            Ok(())
        }
        (Value::Number(a), Value::Number(b)) if (a - b).abs() <= 1e-9 => Ok(()),
        (a, b) if a == b => Ok(()),
        (a, b) => Err(format!(
            "{path} changed: the baseline has {}, this run produced {}",
            compact(a),
            compact(b)
        )),
    }
}

/// Overwrite the cell `column` of `row` (how tests doctor a table).
#[cfg(test)]
pub(crate) fn doctor(t: &mut FigureTable, row: usize, column: &str, value: Value) {
    let i = t.columns.iter().position(|c| c == column).expect("column");
    t.rows[row][i] = value;
}

/// Overwrite the counter `key` of `row` (how tests doctor a table).
#[cfg(test)]
pub(crate) fn doctor_counter(t: &mut FigureTable, row: usize, key: &str, value: Value) {
    let mut counters = t.cell(row, "counters").clone();
    if let Value::Object(map) = &mut counters {
        map.insert(key.to_string(), value);
    }
    doctor(t, row, "counters", counters);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::{num, parse};

    fn fake_run(label: &str, workers: usize, wall: f64) -> Run {
        let run = Run::new(label, "workers", workers, 0xD16E57).with([("hit_ratio", num(0.25))]);
        run.counted(vec![("samples", int(96))], wall)
    }

    /// Two points, each run at workers 1 and 2.
    fn fake_table() -> FigureTable {
        let runs = run_grid(&["a", "b"], &[1, 2], |label, w| {
            fake_run(label, w, w as f64)
        });
        table(vec![("items", int(96))], runs)
    }

    #[test]
    fn stream_digest_golden_vector_is_pinned() {
        let mut d = StreamDigest::default();
        d.word(7);
        d.bytes(b"data stalls in DNN training");
        // Pinned: every committed digest depends on this function.
        assert_eq!(d.finish(), 0x274d_fbc6_b670_bf3b);
        let digest_of = |data: &[u8]| {
            let mut d = StreamDigest::default();
            d.bytes(data);
            d.finish()
        };
        assert_ne!(
            digest_of(b"ab"),
            digest_of(b"ab\0"),
            "tails are length-tagged"
        );
        assert_ne!(digest_of(b"12345678"), digest_of(b"12345678\0"));
        assert_eq!(digest_of(b""), StreamDigest::default().finish());
    }

    #[test]
    fn a_diverging_repeat_is_an_err_naming_preset_point_and_axis_value() {
        let healthy = fake_table();
        assert_eq!(healthy.rows.len(), 4, "every run is a row");
        bit_identical(&healthy, &["workers"]).expect("healthy table");
        same_counters(&healthy).expect("healthy table");
        // Wall time is observed per run and never part of the block.
        assert_eq!(healthy.observation("wall_s[3]"), Some(2.0));
        let doc = compact(&healthy.to_value("§0"));
        assert!(!doc.contains("wall"), "{doc}");
        let rows = parse(&doc).unwrap();
        let rows = rows.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(
            rows[3].get("stream_digest"),
            Some(&text("0000000000d16e57"))
        );

        // One repeat's digest flipped: an Err, not a panic.
        let mut t = healthy.clone();
        doctor(&mut t, 3, "stream_digest", hex(0xD16E56));
        let err = bit_identical(&t, &["workers"]).unwrap_err();
        assert!(
            err.starts_with("b: workers=2 delivered a different stream"),
            "{err}"
        );
        // A repeat whose cells moved, likewise — counters or fields.
        let mut t = healthy.clone();
        doctor_counter(&mut t, 1, "samples", int(95));
        let err = bit_identical(&t, &["workers"]).unwrap_err();
        assert!(err.starts_with("a: workers=2 produced counters"), "{err}");
        assert!(same_counters(&t)
            .unwrap_err()
            .contains("a: counters differ from a"));
        let mut t = healthy.clone();
        doctor(&mut t, 1, "hit_ratio", num(0.26));
        let err = bit_identical(&t, &["workers"]).unwrap_err();
        assert!(
            err.contains("produced hit_ratio 0.2600 where workers=1"),
            "{err}"
        );
        // Points may not disagree on counters either, and an empty table
        // is an error.
        let mut t = healthy;
        for row in [2, 3] {
            doctor_counter(&mut t, row, "samples", int(1));
        }
        bit_identical(&t, &["workers"]).expect("per point, repeats agree");
        let err = same_counters(&t).unwrap_err();
        assert!(err.starts_with("b: counters differ from a"), "{err}");
        t.rows.clear();
        assert!(bit_identical(&t, &["workers"])
            .unwrap_err()
            .contains("no runs"));
    }

    #[test]
    fn compare_exact_names_the_first_difference_in_either_direction() {
        let base = parse(
            r#"{"stream_digest":"00ff","alive":[true,false],"points":[
                {"label":"a","hit_ratio":0.25},
                {"label":"b","hit_ratio":0.5}]}"#,
        )
        .unwrap();
        let check = |cur: &str| compare_exact("blk", &base, Some(&parse(cur).unwrap()));
        let same = r#"{"stream_digest":"00ff","alive":[true,false],"points":[
            {"label":"a","hit_ratio":0.2500000000001},
            {"label":"b","hit_ratio":0.5}]}"#;
        check(same).expect("sub-1e-9 noise is ignored");

        let err = check(&same.replace("00ff", "00fe")).unwrap_err();
        assert!(err.contains("blk/stream_digest changed"), "{err}");
        assert!(
            err.contains("\"00ff\"") && err.contains("\"00fe\""),
            "{err}"
        );
        let err = check(&same.replace("0.5", "0.51")).unwrap_err();
        assert!(err.contains("blk/points/b/hit_ratio changed"), "{err}");
        let err = check(&same.replace("[true,false]", "[true,true]")).unwrap_err();
        assert!(err.contains("blk/alive/1 changed"), "{err}");
        let err = check(
            r#"{"stream_digest":"00ff","alive":[true,false],"points":[
            {"label":"a","hit_ratio":0.25}]}"#,
        )
        .unwrap_err();
        assert_eq!(err, "blk/points/b: missing from this run");
        let err = check(&same.replace("\"alive\":[true,false],", "")).unwrap_err();
        assert_eq!(err, "blk/alive: missing from this run");
        // What only this run has is a difference too: there is no skip list.
        let err = check(&same.replace("[true,false]", "[true,false,true]")).unwrap_err();
        assert!(err.contains("not in the baseline"), "{err}");
        let extra = same.replace(
            "\"hit_ratio\":0.5",
            "\"hit_ratio\":0.5,\"wall_seconds\":1.5",
        );
        assert_eq!(
            check(&extra).unwrap_err(),
            "blk/points/b/wall_seconds: not in the baseline"
        );
        let err = compare_exact("blk", &base, None).unwrap_err();
        assert_eq!(err, "blk: missing from this run");
    }
}
