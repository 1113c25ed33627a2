//! The one harness behind every *runtime* preset (`dstool sweep <name>` and
//! the runtime half of `dstool smoke`).
//!
//! The paper's method is differential: run one workload under controlled
//! variations and compare.  Each runtime preset is one such comparison over
//! the real `coordl` runtime; this module holds everything they share, so a
//! preset module is only its sizes, one `run_once` and its shape check:
//!
//! * [`StreamDigest`] — the single word-wise FNV hash of a delivered stream;
//! * [`PresetReport`] / [`PointResult`] — the one recorded result shape, with
//!   one JSON emitter ([`PresetReport::to_json`]), one table printer
//!   ([`PresetReport::print_table`]) and one gate runner
//!   ([`PresetReport::gate`]);
//! * [`RuntimePreset`] / [`RUNTIME_PRESETS`] — the registry `dstool`
//!   iterates for `list`, `usage`, `sweep`, `smoke` and the baseline gate;
//! * [`compare_exact`] — the baseline walk: the one comparison behind
//!   `dstool smoke --baseline`.
//!
//! Every *emitted* value is **exact** (machine-independent: digests,
//! counters, hit ratios, physical read/write counts) and gated — across the
//! invariance axis within a run and against `ci/bench_baseline.json` across
//! runs.  Wall-clock observations live in [`PointResult::timings`], which
//! only the table printer reads: they never reach a document, so no gate can
//! depend on them.  Speed claims belong to `dsbench` (`benchmark/`).

use crate::report::Table;
use coordl::{Minibatch, Session, SessionConfig};
use dataset::DatasetSpec;
use pipeline::json::{write_value, Value};
use prep::{ExecutablePipeline, PrepPipeline};
use std::path::Path;
use std::time::Instant;

/// FNV-1a over 8-byte words, the dependency-free hash behind every
/// `stream_digest`.  Word-at-a-time keeps the checker an order of magnitude
/// cheaper than the prep work it verifies while covering every payload byte.
/// The multiplier is the one every digest in `ci/bench_baseline.json` was
/// recorded with (a digit wider than the canonical 64-bit FNV prime); it
/// must not change.
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

/// The sizes every runtime preset shares.  A preset's registry row carries
/// its full-fidelity workload; `dstool --scale` and tests derive smaller ones
/// with struct-update syntax or [`Workload::scaled`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Items in the synthetic dataset (per tenant in `multi-tenant`).
    pub items: u64,
    /// Floor [`Workload::scaled`] never shrinks `items` below, so even
    /// smoke-scale points stay dominated by the stage the preset measures
    /// rather than by thread startup and channel overhead.
    pub min_items: u64,
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
    /// The workload with its dataset shrunk by `extra_scale` — the single
    /// scaling rule behind `dstool sweep <preset> --scale` and `dstool
    /// smoke` (pass 1 for full fidelity).  Only the item count changes.
    pub fn scaled(self, extra_scale: u64) -> Self {
        Workload {
            items: (self.items / extra_scale.max(1)).max(self.min_items),
            ..self
        }
    }

    /// The synthetic dataset of the preset called `name`.
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
            digest.absorb(&batch.expect("preset epochs do not fail"));
        }
    }
    (digest.finish(), start.elapsed().as_secs_f64().max(1e-9))
}

/// The deterministic `LoaderStats` counters of a finished session, in the
/// form [`PointResult::counters`] holds them.
pub fn loader_counters(session: &Session) -> Vec<(&'static str, u64)> {
    let stats = session.stats();
    vec![
        ("bytes_from_storage", stats.bytes_from_storage()),
        ("bytes_from_cache", stats.bytes_from_cache()),
        ("bytes_from_remote", stats.bytes_from_remote()),
        ("bytes_from_lower_tiers", stats.bytes_from_lower_tiers()),
        ("samples_prepared", stats.samples_prepared()),
        ("samples_delivered", stats.samples_delivered()),
    ]
}

/// A JSON number field value.
pub fn num(v: f64) -> Value {
    Value::Number(v)
}

/// A JSON integer field value (every emitted count is far below 2^53).
pub fn int(v: u64) -> Value {
    Value::Number(v as f64)
}

/// A JSON string field value.
pub fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

/// A 64-bit digest as a JSON field value: a hex *string* (u64 does not
/// survive a float round-trip).
pub fn hex(v: u64) -> Value {
    text(&format!("{v:016x}"))
}

/// A JSON object from `(key, value)` pairs.
pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    let entries = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Value::Object(entries.collect())
}

/// `v` as compact JSON text.
pub fn compact(v: &Value) -> String {
    let mut s = String::new();
    write_value(&mut s, v);
    s
}

/// One measured run of one grid point at one value of the invariance axis.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Grid label, e.g. `dram=35%,ssd=25%`.  Runs sharing a label are the
    /// same point repeated at other axis values.
    pub label: String,
    /// The value of the preset's invariance axis this run used.
    pub axis_value: usize,
    /// [`StreamDigest`] of everything the run delivered.
    pub stream_digest: u64,
    /// Exact observations that are gated but kept out of the document
    /// (whose key set `ci/bench_baseline.json` pins).  Names may repeat for
    /// vector-valued observations.
    pub counters: Vec<(&'static str, u64)>,
    /// The emitted fields, in document order: exact values only.
    pub fields: Vec<(&'static str, Value)>,
    /// Wall-clock observations (seconds, samples/sec), in table order.
    /// Printed by [`PresetReport::print_table`] and read by nothing else.
    pub timings: Vec<(&'static str, f64)>,
}

impl PointResult {
    /// The first counter named `key`.
    ///
    /// # Panics
    /// Panics when the point has none — a preset asking for a counter it
    /// never recorded is a bug in that preset.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters_named(key)
            .next()
            .unwrap_or_else(|| panic!("{}: no counter {key}", self.label))
    }

    /// Every counter named `key`, in recording order.
    pub fn counters_named<'a>(&'a self, key: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.counters
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// The emitted field `key`.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The numeric emitted field `key`.
    ///
    /// # Panics
    /// Panics when the point has no such number (a bug in the preset).
    pub fn num(&self, key: &str) -> f64 {
        self.field(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{}: no numeric field {key}", self.label))
    }

    /// Overwrite the `nth` counter named `key` (how tests doctor a report).
    #[cfg(test)]
    pub(crate) fn set_counter(&mut self, key: &str, nth: usize, value: u64) {
        let mut named = self.counters.iter_mut().filter(|(k, _)| *k == key);
        named.nth(nth).expect("counter to doctor").1 = value;
    }

    /// Replace (or add) the emitted field `key` (how tests doctor a report).
    #[cfg(test)]
    pub(crate) fn set(&mut self, key: &'static str, value: Value) {
        match self.fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.fields.push((key, value)),
        }
    }
}

/// The point of an axis-scaling preset (worker-sweep, fetch-sweep): the axis
/// value is the point and its only emitted field; wall clock and throughput
/// lead the printed timings.  Counters are the loader counters plus the
/// tier's hits/misses.
pub fn timed_point(
    axis: &'static str,
    axis_value: usize,
    session: &Session,
    stream_digest: u64,
    wall_seconds: f64,
) -> PointResult {
    let tier = session.cache_tier().expect("single-mode tier");
    let mut counters = loader_counters(session);
    counters.push(("cache_hits", tier.hits()));
    counters.push(("cache_misses", tier.misses()));
    let delivered = session.stats().samples_delivered();
    PointResult {
        label: format!("{axis}={axis_value}"),
        axis_value,
        stream_digest,
        counters,
        fields: vec![(axis, int(axis_value as u64))],
        timings: vec![
            ("wall_seconds", wall_seconds),
            ("samples_per_sec", delivered as f64 / wall_seconds),
        ],
    }
}

/// Run every grid point at every value of the invariance axis (grid
/// slowest-varying), the loop shared by the grid presets.
pub fn run_grid<P>(
    grid: &[P],
    axis_values: &[usize],
    run_once: impl Fn(&P, usize) -> PointResult,
) -> Vec<PointResult> {
    assert!(!axis_values.is_empty(), "the invariance axis is empty");
    let run_once = &run_once;
    grid.iter()
        .flat_map(|p| axis_values.iter().map(move |&v| run_once(p, v)))
        .collect()
}

/// The recorded result of one preset run: every measured run plus the
/// header describing the workload.
#[derive(Debug, Clone)]
pub struct PresetReport {
    /// The registry row that produced it.
    pub preset: &'static RuntimePreset,
    /// Document-level fields (sizes, grid constants), in document order.
    pub header: Vec<(&'static str, Value)>,
    /// Every run, grid order then axis order.  Only the first run of each
    /// label is emitted (see [`PresetReport::points`]); the rest exist to be
    /// compared against it.
    pub runs: Vec<PointResult>,
}

impl PresetReport {
    /// The emitted points: the first run of every label.
    pub fn points(&self) -> impl Iterator<Item = &PointResult> {
        self.runs
            .iter()
            .enumerate()
            .filter(|(i, r)| !self.runs[..*i].iter().any(|e| e.label == r.label))
            .map(|(_, r)| r)
    }

    /// The digest pinned in `ci/bench_baseline.json`: the first run's, which
    /// [`PresetReport::bit_identical`] proves every run shares.
    pub fn digest(&self) -> u64 {
        self.runs.first().map_or(0, |r| r.stream_digest)
    }

    /// The numeric header field `key`.
    ///
    /// # Panics
    /// Panics when the header has no such number (a bug in the preset).
    pub fn header_num(&self, key: &str) -> f64 {
        let field = self.header.iter().find(|(k, _)| *k == key);
        field
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or_else(|| panic!("{}: no numeric header field {key}", self.preset.name))
    }

    /// The determinism contract every preset shares: one delivered stream
    /// for the whole report, and for each point identical counters and
    /// emitted fields at every value of the invariance axis.  A violation is
    /// an `Err` naming preset, point and axis value — never a panic, so the
    /// caller's artifact is already on disk.
    pub fn bit_identical(&self) -> Result<(), String> {
        let (name, axis) = (self.preset.name, self.preset.axis);
        let Some(first) = self.runs.first() else {
            return Err(format!("{name}: produced no points"));
        };
        for (i, r) in self.runs.iter().enumerate() {
            if r.stream_digest != first.stream_digest {
                return Err(format!(
                    "{name}/{}: {axis}={} delivered a different stream than {} at \
                     {axis}={} (digest {:016x} vs {:016x})",
                    r.label,
                    r.axis_value,
                    first.label,
                    first.axis_value,
                    r.stream_digest,
                    first.stream_digest
                ));
            }
            let Some(base) = self.runs[..i].iter().find(|b| b.label == r.label) else {
                continue;
            };
            if r.counters != base.counters || r.fields != base.fields {
                return Err(format!(
                    "{name}/{}: {axis}={} produced different counters or fields \
                     than {axis}={} ({:?} / {:?} vs {:?} / {:?})",
                    r.label,
                    r.axis_value,
                    base.axis_value,
                    r.counters,
                    r.fields,
                    base.counters,
                    base.fields
                ));
            }
        }
        Ok(())
    }

    /// The stricter contract of presets whose *points* are the axis values
    /// (and of sharded presets across shard counts): every emitted point
    /// carries the same counters.
    pub fn identical_across_points(&self) -> Result<(), String> {
        let mut points = self.points();
        let Some(first) = points.next() else {
            return Ok(());
        };
        for p in points {
            if p.counters != first.counters {
                return Err(format!(
                    "{}/{}: counters differ from {} ({:?} vs {:?})",
                    self.preset.name, p.label, first.label, p.counters, first.counters
                ));
            }
        }
        Ok(())
    }

    /// Run every gate of the preset: the shared determinism contract, then
    /// the preset's own shape check.  Call *after* writing any artifact.
    pub fn gate(&self) -> Result<(), String> {
        self.bit_identical()?;
        (self.preset.shape)(self)
    }

    /// The report as a document block: `preset`, the header, `stream_digest`,
    /// then the emitted points' fields — under `points`, or at the top level
    /// for a [`RuntimePreset::flat`] preset.
    pub fn to_value(&self) -> Value {
        let mut doc = self.header.clone();
        doc.push(("preset", text(self.preset.name)));
        doc.push(("stream_digest", hex(self.digest())));
        let points = self.points().map(|p| p.fields.iter().cloned());
        if self.preset.flat {
            doc.extend(points.flatten());
        } else {
            doc.push(("points", Value::Array(points.map(object).collect())));
        }
        object(doc)
    }

    /// [`PresetReport::to_value`] as compact JSON text.
    pub fn to_json(&self) -> String {
        compact(&self.to_value())
    }

    /// Print the report as a text table: scalar header fields in the
    /// caption, one row per emitted point, one column per emitted field and
    /// then per timing.  A flat preset's fields print as `key: value` lines
    /// instead.
    pub fn print_table(&self) {
        let cell = |v: &Value| match v {
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{n:.0}"),
            Value::Number(n) => format!("{n:.4}"),
            Value::String(s) => s.clone(),
            other => compact(other),
        };
        let mut caption: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{k}={}", cell(v)))
            .collect();
        caption.push(format!("stream_digest={:016x}", self.digest()));
        let Some(first) = self.points().next() else {
            return;
        };
        let shown = |p: &'_ PointResult| -> Vec<(&'static str, String)> {
            // The point column already shows the label and the axis value.
            let fields = p.fields.iter();
            let fields = fields.filter(|(k, _)| *k != "label" && *k != self.preset.axis);
            let timings = p.timings.iter().map(|(k, v)| (*k, format!("{v:.4}")));
            fields.map(|(k, v)| (*k, cell(v))).chain(timings).collect()
        };
        let title = format!("Runtime {} ({})", self.preset.name, self.preset.paper);
        if self.preset.flat {
            println!("\n=== {title} ===\n{}", caption.join(", "));
            for (k, v) in shown(first) {
                println!("{k}: {v}");
            }
            return;
        }
        let mut headers = vec!["point"];
        headers.extend(shown(first).iter().map(|(k, _)| *k));
        let mut table = Table::new(title, &headers).with_caption(caption.join(", "));
        for p in self.points() {
            let mut row = vec![p.label.clone()];
            row.extend(shown(p).into_iter().map(|(_, v)| v));
            table.row(&row);
        }
        table.print();
    }
}

/// One row of the runtime-preset registry: everything `dstool` needs to
/// list, run, print, emit and gate a preset without naming it.
#[derive(Debug)]
pub struct RuntimePreset {
    /// CLI name (`dstool sweep <name>`, `dstool smoke --only <name>`).
    pub name: &'static str,
    /// The part of the paper the preset reproduces.
    pub paper: &'static str,
    /// One-paragraph description for `list` and `usage`.
    pub description: &'static str,
    /// Emitted points of the grid (for `list`).
    pub points: usize,
    /// The full-fidelity sizes (`--scale 1`).
    pub workload: Workload,
    /// Name of the invariance axis — the worker / fetch-thread values across
    /// which digest, counters and emitted fields must not move.
    pub axis: &'static str,
    /// Whether the document has no `points` array: the single point's fields
    /// sit at the top level.
    pub flat: bool,
    /// Whether `run` honours an OS root (`dstool sweep <name> --os-root`).
    pub takes_os_root: bool,
    /// Run the grid at the given sizes (`os_root` only reaches presets that
    /// take one).
    pub run: fn(workload: &Workload, os_root: Option<&Path>) -> PresetReport,
    /// The preset-specific shape check over a finished report.
    pub shape: fn(&PresetReport) -> Result<(), String>,
}

impl RuntimePreset {
    /// The preset's key in the `dstool smoke` document, derived from its
    /// name: `tier-sweep` → `runtime_tier_sweep`.
    pub fn smoke_key(&self) -> String {
        format!("runtime_{}", self.name.replace('-', "_"))
    }

    /// Run the preset with its dataset shrunk by `scale` (1 = full
    /// fidelity).
    pub fn run_scaled(&self, scale: u64, os_root: Option<&Path>) -> PresetReport {
        (self.run)(&self.workload.scaled(scale), os_root)
    }
}

/// The registry, in `dstool smoke` execution order.
pub static RUNTIME_PRESETS: [&RuntimePreset; 6] = [
    &crate::parallel::PRESET,
    &crate::tiersweep::PRESET,
    &crate::multitenant::PRESET,
    &crate::fssweep::PRESET,
    &crate::chaos::PRESET,
    &crate::fetchsweep::PRESET,
];

/// Look a runtime preset up by CLI name.
pub fn find_preset(name: &str) -> Option<&'static RuntimePreset> {
    RUNTIME_PRESETS.iter().copied().find(|p| p.name == name)
}

/// Compare two documents for equality, leaf by leaf: numbers within 1e-9,
/// everything else exactly.  Array elements are matched by position and
/// named by their `label` (or `suite`) where they have one.  The first
/// difference — a changed leaf, or a key or element only one side has — is an
/// `Err` naming its path under `path`.
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
                let label = value.get("label").or_else(|| value.get("suite"));
                let name = label.and_then(Value::as_str);
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

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::parse;

    static FAKE: RuntimePreset = RuntimePreset {
        name: "fake-sweep",
        paper: "§0",
        description: "harness test double",
        points: 2,
        workload: Workload {
            items: 96,
            min_items: 24,
            avg_item_bytes: 64,
            decode_multiplier: 1,
            batch_size: 8,
            epochs: 1,
            seed: 7,
            axis: &[1, 2],
        },
        axis: "workers",
        flat: false,
        takes_os_root: false,
        run: |_, _| fake_report(),
        shape: |r| r.identical_across_points(),
    };

    fn fake_run(label: &str, axis_value: usize, wall: f64) -> PointResult {
        PointResult {
            label: label.to_string(),
            axis_value,
            stream_digest: 0xD16E57,
            counters: vec![("samples", 96), ("samples", 96)],
            fields: vec![("label", text(label)), ("hit_ratio", num(0.25))],
            timings: vec![("wall_seconds", wall)],
        }
    }

    /// Two points, each run at workers 1 and 2.
    fn fake_report() -> PresetReport {
        let grid = ["a", "b"];
        let runs = run_grid(&grid, FAKE.workload.axis, |label, w| {
            fake_run(label, w, w as f64)
        });
        PresetReport {
            preset: &FAKE,
            header: vec![("items", int(96))],
            runs,
        }
    }

    #[test]
    fn stream_digest_golden_vector_is_pinned() {
        let mut d = StreamDigest::default();
        d.word(7);
        d.bytes(b"data stalls in DNN training");
        // Pinned: every committed baseline digest depends on this function.
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
    fn only_the_first_run_of_each_label_is_emitted() {
        let report = fake_report();
        assert_eq!(report.runs.len(), 4);
        let labels: Vec<&str> = report.points().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["a", "b"]);
        report.gate().expect("healthy report");

        let doc = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            doc.get("preset").and_then(Value::as_str),
            Some("fake-sweep")
        );
        assert_eq!(doc.get("items").and_then(Value::as_f64), Some(96.0));
        assert_eq!(
            doc.get("stream_digest").and_then(Value::as_str),
            Some("0000000000d16e57")
        );
        let points = doc.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("label").and_then(Value::as_str), Some("b"));
        assert_eq!(points[1].get("hit_ratio"), Some(&num(0.25)));
        assert!(
            !report.to_json().contains("wall_seconds"),
            "timings are printed, never emitted"
        );
    }

    #[test]
    fn a_diverging_repeat_is_an_err_naming_preset_point_and_axis_value() {
        // One repeat's digest flipped: an Err, not a panic, so the artifact
        // the caller already wrote survives.
        let mut report = fake_report();
        report.runs[3].stream_digest ^= 1;
        let err = report.gate().unwrap_err();
        assert!(err.starts_with("fake-sweep/b: workers=2 "), "{err}");
        assert!(err.contains("delivered a different stream"), "{err}");

        // A repeat whose counters or exact fields moved, likewise.
        let mut report = fake_report();
        report.runs[1].counters[1].1 = 95;
        let err = report.gate().unwrap_err();
        assert!(err.starts_with("fake-sweep/a: workers=2 "), "{err}");
        assert!(err.contains("different counters"), "{err}");
        let mut report = fake_report();
        report.runs[1].set("hit_ratio", num(0.26));
        assert!(report
            .gate()
            .unwrap_err()
            .contains("fake-sweep/a: workers=2"));

        // Timings are free to move across the axis (they do above:
        // wall_seconds differs per repeat), points may not disagree on
        // counters, and an empty report is an error.
        let mut report = fake_report();
        report.runs[2].counters[0].1 = 1;
        report.runs[3].counters[0].1 = 1;
        let err = report.gate().unwrap_err();
        assert!(
            err.contains("fake-sweep/b: counters differ from a"),
            "{err}"
        );
        report.runs.clear();
        assert!(report.gate().unwrap_err().contains("no points"));
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

    #[test]
    fn registry_names_are_unique_and_derive_their_smoke_keys() {
        for (i, p) in RUNTIME_PRESETS.iter().enumerate() {
            assert!(
                RUNTIME_PRESETS[..i].iter().all(|q| q.name != p.name),
                "{} registered twice",
                p.name
            );
            assert!(std::ptr::eq(find_preset(p.name).unwrap(), *p));
            assert!(p.points >= 1 && !p.axis.is_empty(), "{}", p.name);
        }
        // `scaled` shrinks the item count only, down to each preset's floor.
        let floors = [256, 128, 64, 128, 150, 128];
        for (p, floor) in RUNTIME_PRESETS.iter().zip(floors) {
            let (full, smoke, tiny) =
                (p.workload, p.workload.scaled(8), p.workload.scaled(1 << 40));
            assert_eq!(
                p.workload.scaled(1).items,
                full.items,
                "{}: full fidelity",
                p.name
            );
            assert!(
                smoke.items < full.items && smoke.items >= floor,
                "{}",
                p.name
            );
            assert_eq!(tiny.items, floor, "{}", p.name);
            assert_eq!(
                (tiny.decode_multiplier, tiny.epochs, tiny.seed, tiny.axis),
                (full.decode_multiplier, full.epochs, full.seed, full.axis),
                "{}: only the item count scales",
                p.name
            );
        }
        assert_eq!(
            find_preset("tier-sweep").unwrap().smoke_key(),
            "runtime_tier_sweep"
        );
        assert_eq!(find_preset("chaos").unwrap().smoke_key(), "runtime_chaos");
        assert!(find_preset("nope").is_none());
    }
}
