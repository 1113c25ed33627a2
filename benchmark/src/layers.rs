//! Per-layer metrics: spans and counters of a traced window turned into the
//! numbers of [`crate::metrics::PER_LAYER`], the differential ceilings, and
//! the layers that have no hook, timed by calling their public functions.

use crate::harness::{mix, Check, Rig};
use crate::hostspeed::HostSpeed;
use crate::measure::{window, RunReport, Window};
use crate::stats::{median, tail};
use crate::tempdir::TempRoot;
use crate::trace::{self_times_ns, Layer, Op, Span, NO_PARENT};
use crate::workloads::{by_name, Cache, Prep, Shape, Workload, BATCH_SIZE};
use coordl::{EpochTrajectory, Minibatch, Server};
use dataset::{DataSource, DatasetSpec, EpochSampler, SyntheticItemStore};
use dcache::{hierarchy::single_tier, PolicyKind, ShardedChain, TierSpec};
use prep::PreparedSample;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfs::{MemVfs, OsVfs, SpillStore, Vfs};

pub type Values = BTreeMap<&'static str, f64>;

/// Seconds each ceiling's window lasts.
const CEILING_SECONDS: f64 = 0.8;

/// How long each direct layer measurement runs.
const DIRECT: Duration = Duration::from_millis(250);

/// Everything a traced window produced.
pub struct Traced<'a> {
    pub workload: &'a Workload,
    pub window: &'a Window,
    /// One span buffer per thread that ran during the window.
    pub spans: &'a [Vec<Span>],
    /// The same for set-up (materialisation and epoch 0).
    pub setup_spans: &'a [Vec<Span>],
    /// The runtime's own per-epoch records of the window.
    pub trajectories: &'a [EpochTrajectory],
    pub server: Option<&'a Server>,
    /// `samples_per_s` of the undecorated rig, measured just before.
    pub untraced_rate: f64,
}

/// Durations, bytes and self time of one `(layer, op)`.
#[derive(Default)]
struct OpStats {
    durations_ns: Vec<f64>,
    bytes: u64,
}

/// Spans of a window folded per layer and per operation.
#[derive(Default)]
struct Folded {
    ops: BTreeMap<(Layer, Op), OpStats>,
    self_ns: BTreeMap<Layer, u64>,
    /// Time of spans with no parent, outside the consumer: the part of the
    /// fetch stage's busy time the decorators can see.
    fetch_root_ns: u64,
    /// Consumer waits for batch 0 of an epoch.
    first_batch_ns: Vec<f64>,
}

fn fold(buffers: &[Vec<Span>]) -> Folded {
    let mut folded = Folded::default();
    for spans in buffers {
        let own = self_times_ns(spans);
        for (span, own) in spans.iter().zip(own) {
            if span.end_ns == 0 {
                continue; // still open when the buffer was taken
            }
            let op = folded.ops.entry((span.layer, span.op)).or_default();
            op.durations_ns.push(span.duration_ns() as f64);
            op.bytes += span.bytes;
            *folded.self_ns.entry(span.layer).or_default() += own;
            if span.layer == Layer::Consumer {
                if span.id == 0 {
                    folded.first_batch_ns.push(span.duration_ns() as f64);
                }
            } else if span.parent == NO_PARENT {
                folded.fetch_root_ns += span.duration_ns();
            }
        }
    }
    folded
}

impl Folded {
    fn op(&self, layer: Layer, op: Op) -> Option<&OpStats> {
        self.ops.get(&(layer, op))
    }

    fn count(&self, layer: Layer, op: Op) -> f64 {
        self.op(layer, op)
            .map_or(0.0, |o| o.durations_ns.len() as f64)
    }

    fn bytes(&self, layer: Layer, op: Op) -> f64 {
        self.op(layer, op).map_or(0.0, |o| o.bytes as f64)
    }

    /// Median duration of an operation, in units of `ns_per_unit` ns.
    fn p50(&self, layer: Layer, op: Op, ns_per_unit: f64) -> f64 {
        self.op(layer, op)
            .map_or(0.0, |o| median(&o.durations_ns) / ns_per_unit)
    }

    fn tail(&self, layer: Layer, op: Op, ns_per_unit: f64) -> f64 {
        self.op(layer, op)
            .map_or(0.0, |o| tail(&o.durations_ns) / ns_per_unit)
    }

    fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / 1e9
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The per-layer metrics a traced window supports.
pub fn from_window(t: &Traced<'_>) -> Values {
    let w = t.workload;
    let c = &t.window.counters;
    let f = fold(t.spans);
    let ksamples = t.window.samples as f64 / 1000.0;
    let samples = t.window.samples as f64;
    let per_k = |x: f64| ratio(x, ksamples);
    let mut v = Values::new();

    v.insert(
        "consumer.batch_wait_p50_ms",
        f.p50(Layer::Consumer, Op::BatchWait, 1e6),
    );
    v.insert(
        "consumer.batch_wait_p99_ms",
        f.tail(Layer::Consumer, Op::BatchWait, 1e6),
    );
    v.insert("consumer.first_batch_ms", median(&f.first_batch_ns) / 1e6);
    // The stream's end is one more wait per stream and epoch, not a batch.
    let ends = (t.window.epochs.len() * w.shape.streams()) as f64;
    v.insert(
        "consumer.batches",
        f.count(Layer::Consumer, Op::BatchWait) - ends,
    );

    v.insert("executor.fetch_busy_s_per_ksample", per_k(c.fetch_busy_s));
    v.insert("executor.fetch_stall_s_per_ksample", per_k(c.fetch_stall_s));
    v.insert("executor.prep_busy_s_per_ksample", per_k(c.prep_busy_s));
    v.insert("executor.prep_stall_s_per_ksample", per_k(c.prep_stall_s));
    v.insert(
        "executor.consumer_wait_s_per_ksample",
        per_k(c.consumer_wait_s),
    );
    let slots = &c.fetch_slot_busy_s;
    let mean_slot = slots.iter().sum::<f64>() / slots.len().max(1) as f64;
    let busiest = slots.iter().copied().fold(0.0, f64::max);
    v.insert("executor.fetch_thread_imbalance", ratio(busiest, mean_slot));
    v.insert(
        "executor.fetch_overhead_frac",
        1.0 - ratio(f.fetch_root_ns as f64 / 1e9, c.fetch_busy_s).min(1.0),
    );

    let lookups = (c.cache_hits + c.cache_misses) as f64;
    v.insert("tier.lookups_per_ksample", per_k(lookups));
    v.insert("tier.hit_frac", ratio(c.cache_hits as f64, lookups));
    v.insert(
        "tier.lower_hit_frac",
        ratio(c.lower_tier_hits as f64, lookups),
    );
    v.insert("tier.lookup_ns_p50", f.p50(Layer::Tier, Op::Lookup, 1.0));
    v.insert("tier.lookup_ns_p99", f.tail(Layer::Tier, Op::Lookup, 1.0));
    v.insert("tier.admit_ns_p50", f.p50(Layer::Tier, Op::Admit, 1.0));
    v.insert("tier.admit_ns_p99", f.tail(Layer::Tier, Op::Admit, 1.0));
    v.insert("tier.self_s_per_ksample", per_k(f.self_s(Layer::Tier)));
    v.insert("tier.evictions_per_ksample", per_k(c.evictions as f64));
    v.insert("tier.demotions_per_ksample", per_k(c.demotions as f64));

    let backend_bytes = f.bytes(Layer::Backend, Op::Read);
    v.insert(
        "backend.reads_per_ksample",
        per_k(f.count(Layer::Backend, Op::Read)),
    );
    v.insert("backend.bytes_per_sample", ratio(backend_bytes, samples));
    v.insert("backend.read_us_p50", f.p50(Layer::Backend, Op::Read, 1e3));
    v.insert("backend.read_us_p99", f.tail(Layer::Backend, Op::Read, 1e3));
    v.insert(
        "backend.self_s_per_ksample",
        per_k(f.self_s(Layer::Backend)),
    );
    v.insert("backend.errors", c.backend_errors as f64);

    v.insert("vfs.reads_per_ksample", per_k(c.vfs.reads as f64));
    v.insert(
        "vfs.read_bytes_per_sample",
        ratio(c.vfs.bytes_read as f64, samples),
    );
    v.insert(
        "vfs.read_amplification",
        ratio(c.vfs.bytes_read as f64, backend_bytes),
    );
    v.insert(
        "vfs.span_hit_frac",
        ratio(c.span_hits as f64, (c.span_hits + c.span_misses) as f64),
    );
    v.insert("vfs.read_us_p50", f.p50(Layer::Vfs, Op::Read, 1e3));
    v.insert("vfs.writes_per_ksample", per_k(c.vfs.writes as f64));
    v.insert(
        "vfs.write_bytes_per_sample",
        ratio(c.vfs.bytes_written as f64, samples),
    );
    v.insert("vfs.syncs_per_ksample", per_k(c.vfs.syncs as f64));
    v.insert("vfs.sync_us_p50", f.p50(Layer::Vfs, Op::Sync, 1e3));
    v.insert("vfs.self_s_per_ksample", per_k(f.self_s(Layer::Vfs)));

    let workers = (w.workers * w.shape.executors()) as f64;
    v.insert(
        "prep.busy_share",
        ratio(c.prep_busy_s, workers * t.window.wall_s),
    );

    v.insert("dataset.read_us_p50", f.p50(Layer::Dataset, Op::Read, 1e3));
    v.insert(
        "dataset.self_s_per_ksample",
        per_k(f.self_s(Layer::Dataset)),
    );
    v.insert(
        "dataset.setup_self_s",
        fold(t.setup_spans).self_s(Layer::Dataset),
    );

    v.insert(
        "staging.share_ratio",
        ratio(c.samples_delivered as f64, c.samples_prepared as f64),
    );
    let peaks = t.trajectories.iter().map(|e| e.staging_peak_bytes);
    v.insert("staging.peak_bytes", peaks.max().unwrap_or(0) as f64);
    let published: Vec<f64> = t
        .trajectories
        .iter()
        .map(|e| e.staging_published as f64)
        .collect();
    v.insert("staging.published_per_epoch", median(&published));

    let stream_ratio = median(
        &t.window
            .epochs
            .iter()
            .map(|e| e.stream_rate_ratio)
            .collect::<Vec<f64>>(),
    );
    if let Shape::Partitioned { .. } = w.shape {
        let fetches = (c.local_hits + c.remote_hits + c.storage_reads) as f64;
        v.insert(
            "partition.local_hit_frac",
            ratio(c.local_hits as f64, fetches),
        );
        v.insert(
            "partition.remote_hit_frac",
            ratio(c.remote_hits as f64, fetches),
        );
        v.insert(
            "partition.storage_frac",
            ratio(c.storage_reads as f64, fetches),
        );
        v.insert("partition.node_rate_ratio", stream_ratio);
    }
    if let Some(server) = t.server {
        v.insert("server.aggregate_hit_frac", ratio(c.server_hits, lookups));
        v.insert("server.tenant_rate_ratio", stream_ratio);
        v.insert(
            "server.dram_used_frac",
            ratio(
                server.dram_used_bytes() as f64,
                server.dram_capacity_bytes() as f64,
            ),
        );
    }

    // What the decorators' spans and the executor's stall counter explain of
    // the fetch threads' wall time.  Every traced call on a fetch thread is
    // under exactly one root span, so the root spans' durations are the sum
    // of all self times there; the remainder is executor time outside every
    // hook and the per-epoch thread start and teardown.
    let fetchers = (w.fetch_threads * w.shape.executors()) as f64;
    v.insert(
        "trace.closure_frac",
        ratio(
            f.fetch_root_ns as f64 / 1e9 + c.fetch_stall_s,
            fetchers * t.window.wall_s,
        ),
    );
    v.insert(
        "trace.overhead_frac",
        1.0 - ratio(t.window.normalised_rate(), t.untraced_rate),
    );
    v.insert("trace.host_slowdown", t.window.host_slowdown);
    v
}

/// DS-Analyzer's differential trick on the fetch-bound workload: the same
/// dataset and configuration with one stage at a time made free.
pub fn ceilings(
    seed: u64,
    base: &Path,
    host: &mut HostSpeed,
    report: &mut RunReport,
) -> Result<Values, String> {
    let serial = *by_name("fetch_serial_fs").expect("the fetch-bound workload");
    let mut v = Values::new();
    let mut warm_rate = |variant: Workload| -> Result<f64, String> {
        let rig = Rig::build(&variant, seed, base, None)?;
        let warm_up = rig.run_epoch(0, Check::Light);
        report.attempted += warm_up.attempted;
        report.failed += warm_up.failed;
        Ok(median(
            &window(&rig, 1, CEILING_SECONDS, host, report).rates(),
        ))
    };
    v.insert(
        "ceiling.cached_samples_per_s",
        warm_rate(Workload {
            cache: Cache::MinIo { pct: 200 },
            ..serial
        })?,
    );
    v.insert(
        "ceiling.nullprep_samples_per_s",
        warm_rate(Workload {
            prep: Prep::Null,
            ..serial
        })?,
    );

    // Ingest: what the harness's own consumer loop sustains when batches
    // cost nothing to produce — cropped-size payloads, already built.
    let batches: Vec<Arc<Minibatch>> = (0..16)
        .map(|index| {
            Arc::new(Minibatch {
                epoch: 0,
                index,
                samples: (0..BATCH_SIZE as u64)
                    .map(|item| PreparedSample {
                        item,
                        epoch: 0,
                        augmentation_seed: item,
                        data: vec![0u8; serial.item_bytes as usize * 3 / 4],
                    })
                    .collect(),
            })
        })
        .collect();
    let start = Instant::now();
    let mut delivered = 0u64;
    let mut items = Vec::with_capacity(16 * BATCH_SIZE);
    while start.elapsed() < DIRECT {
        items.clear();
        for mb in &batches {
            let mb = black_box(Arc::clone(mb));
            items.extend(mb.samples.iter().map(|s| s.item));
            delivered += mb.samples.len() as u64;
        }
        black_box(&items);
    }
    v.insert(
        "ceiling.ingest_samples_per_s",
        delivered as f64 / start.elapsed().as_secs_f64(),
    );
    Ok(v)
}

/// Layers without a hook, timed by calling their public functions.
pub fn direct(workload: &Workload, seed: u64, base: &Path) -> Result<Values, String> {
    let mut v = Values::new();
    let keys = 4096u64;
    let size = 64 * 1024u64;
    let order: Vec<u64> = (0..4)
        .flat_map(|epoch| EpochSampler::new(keys, mix(seed, 3)).permutation(epoch))
        .collect();

    // TierChain: lookup + admission over a recorded shuffle stream.
    let mut chain = single_tier("dram", PolicyKind::Lru, keys * size * 35 / 100);
    let (mut accesses, start) = (0u64, Instant::now());
    while start.elapsed() < DIRECT {
        for &key in &order {
            black_box(chain.access(key, size));
        }
        accesses += order.len() as u64;
    }
    v.insert(
        "dcache.chain_access_ns",
        start.elapsed().as_nanos() as f64 / accesses as f64,
    );

    // ShardedChain: the same stream from two threads at once.
    let sharded = ShardedChain::new(
        vec![TierSpec {
            name: "dram",
            policy: PolicyKind::Lru,
            capacity_bytes: keys * size * 35 / 100,
            cost: storage::dram_tier_cost(),
        }],
        8,
    );
    let start = Instant::now();
    let per_thread: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (sharded, order) = (&sharded, &order);
                scope.spawn(move || {
                    let mut accesses = 0u64;
                    while start.elapsed() < DIRECT {
                        for &key in order.iter().skip(t).step_by(2) {
                            black_box(sharded.access(key, size));
                        }
                        accesses += order.len() as u64 / 2;
                    }
                    accesses
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lock probe panicked"))
            .collect()
    });
    let slowest = per_thread.iter().copied().min().unwrap_or(1).max(1);
    v.insert(
        "dcache.shard_lock_ns",
        start.elapsed().as_nanos() as f64 / slowest as f64,
    );

    // SpillStore::write of one of the workload's items, device and memory.
    let payload = vec![0x5Au8; workload.item_bytes as usize];
    let scratch = TempRoot::new(base, "spill-probe").map_err(|e| e.to_string())?;
    let os: Arc<dyn Vfs> = Arc::new(OsVfs::new(scratch.path()).map_err(|e| e.to_string())?);
    for (name, vfs) in [
        ("vfs.spill_append_os_us", os),
        (
            "vfs.spill_append_mem_us",
            Arc::new(MemVfs::new()) as Arc<dyn Vfs>,
        ),
    ] {
        let mut store = SpillStore::open(vfs, "probe").map_err(|e| e.to_string())?;
        let mut micros = Vec::new();
        let start = Instant::now();
        // Fresh keys: every write appends a payload and a manifest line.
        while start.elapsed() < DIRECT {
            let one = Instant::now();
            store
                .write(micros.len() as u64, &payload)
                .map_err(|e| e.to_string())?;
            micros.push(one.elapsed().as_nanos() as f64 / 1e3);
        }
        v.insert(name, median(&micros));
    }

    // The workload's own pipeline on the workload's own items.
    let source = SyntheticItemStore::new(
        DatasetSpec::new("probe", 64, workload.item_bytes, 0.0, 1.0),
        mix(seed, 0),
    );
    let raw: Vec<Vec<u8>> = (0..64).map(|i| source.read(i)).collect();
    let pipeline = crate::harness::executable(workload.prep, mix(seed, 2));
    let (mut bytes, start) = (0u64, Instant::now());
    let mut epoch = 0u64;
    while start.elapsed() < DIRECT {
        for (item, raw) in raw.iter().enumerate() {
            black_box(pipeline.prepare(epoch, item as u64, raw));
            bytes += raw.len() as u64;
        }
        epoch += 1;
    }
    v.insert(
        "prep.ns_per_raw_byte",
        start.elapsed().as_nanos() as f64 / bytes as f64,
    );
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, op: Op, start: u64, end: u64, parent: u32, id: u64) -> Span {
        Span {
            layer,
            op,
            start_ns: start,
            end_ns: end,
            parent,
            id,
            bytes: 100,
        }
    }

    #[test]
    fn folding_attributes_self_time_to_the_layer_that_spent_it() {
        let fetch = vec![
            span(Layer::Tier, Op::Lookup, 0, 10, NO_PARENT, 7),
            span(Layer::Backend, Op::Read, 10, 110, NO_PARENT, 7),
            span(Layer::Vfs, Op::Read, 20, 90, 1, 7),
            span(Layer::Tier, Op::Admit, 110, 150, NO_PARENT, 7),
            span(Layer::Vfs, Op::Sync, 120, 140, 3, 7),
            span(Layer::Vfs, Op::Sync, 500, 0, NO_PARENT, 7), // open: ignored
        ];
        let consumer = vec![
            span(Layer::Consumer, Op::BatchWait, 0, 1000, NO_PARENT, 0),
            span(Layer::Consumer, Op::BatchWait, 1000, 1200, NO_PARENT, 1),
        ];
        let f = fold(&[fetch, consumer]);
        assert_eq!(f.self_ns[&Layer::Tier], 10 + 20);
        assert_eq!(f.self_ns[&Layer::Backend], 30);
        assert_eq!(f.self_ns[&Layer::Vfs], 70 + 20);
        assert_eq!(
            f.fetch_root_ns,
            10 + 100 + 40,
            "consumer waits are not fetch time"
        );
        assert_eq!(f.first_batch_ns, vec![1000.0]);
        assert_eq!(f.count(Layer::Vfs, Op::Sync), 1.0);
        assert_eq!(f.bytes(Layer::Vfs, Op::Read), 100.0);
        assert_eq!(f.p50(Layer::Backend, Op::Read, 1e3), 0.1);
        assert_eq!(f.p50(Layer::Dataset, Op::Read, 1.0), 0.0, "no such spans");
    }
}
