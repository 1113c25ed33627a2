//! The metric tables: every number the benchmark reports, with its unit,
//! which direction is better and — for the per-layer metrics — which
//! end-to-end metric it is expected to move on which workload.
//! `BENCHMARK.json` is generated from these tables (`dsbench manifest`).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Whether `new` is worse than `old` by more than `bound` (a share of
    /// `old`).
    pub fn worse_by_more_than(self, old: f64, new: f64, bound: f64) -> bool {
        match self {
            Better::Higher => new < old * (1.0 - bound),
            Better::Lower => new > old * (1.0 + bound),
        }
    }
}

/// A metric a user of the loader would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// A metric of one layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "samples_per_s",
        unit: "samples/s",
        better: Higher,
        bound: 0.25,
        what: "median over the timed epochs of samples delivered to all streams / epoch wall time, corrected for the host's speed",
    },
    EndToEnd {
        name: "cpu_ms_per_ksample",
        unit: "ms/ksample",
        better: Lower,
        bound: 0.25,
        what: "process user+system CPU time of the timed epochs per 1000 samples delivered, corrected for the host's speed",
    },
    EndToEnd {
        name: "storage_bytes_per_sample",
        unit: "bytes",
        better: Lower,
        bound: 0.02,
        what: "bytes read from the store below every cache tier per sample delivered, over the first three timed epochs",
    },
    EndToEnd {
        name: "storage_ops_per_ksample",
        unit: "1/ksample",
        better: Lower,
        bound: 0.02,
        what: "operations issued to storage per 1000 samples delivered, over the first three timed epochs: VFS reads + writes + durability barriers, or store reads where the store has no VFS",
    },
    EndToEnd {
        name: "alloc_bytes_per_sample",
        unit: "bytes",
        better: Lower,
        bound: 0.02,
        what: "bytes requested from the allocator, by all threads, per sample delivered over the first three timed epochs: the cost the pinned allocator takes out of the time-based metrics",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        what: "peak resident set of the benchmark process (VmHWM) at the end of its first rig's window: one session in a fresh process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "scratch directory + dataset materialisation + session build + fully checked epoch 0; median of the run's set-ups, each corrected for the host's speed",
    },
];

macro_rules! per_layer {
    ($( $name:literal, $unit:literal, $better:ident, $what:literal; )*) => {
        pub const PER_LAYER: &[PerLayer] = &[
            $( PerLayer { name: $name, unit: $unit, better: $better, what: $what }, )*
        ];
    };
}

// `what` ends with "→ <end-to-end metric> on <workload>": the number the
// layer metric is expected to move.  A metric reads 0 on a workload that
// does not have the layer, or has no hook to observe it through.
per_layer! {
    "consumer.batch_wait_p50_ms", "ms", Lower, "median time a consumer blocks for its next batch → samples_per_s everywhere";
    "consumer.batch_wait_p99_ms", "ms", Lower, "p99 of the same (the highest percentile with ten samples beyond it below 1000 batches) → samples_per_s on partitioned_peers";
    "consumer.first_batch_ms", "ms", Lower, "median wait for the first batch of an epoch: pipeline fill after the per-epoch thread start → samples_per_s on short epochs";
    "consumer.batches", "count", Higher, "batches the traced window delivered (the sample count behind the percentiles)";
    "executor.fetch_busy_s_per_ksample", "s/ksample", Lower, "fetch-stage seconds inside tier+backend calls, summed over fetch threads → samples_per_s, cpu_ms_per_ksample on fetch_serial_fs, fetch_pool_fs";
    "executor.fetch_stall_s_per_ksample", "s/ksample", Lower, "fetch-stage seconds blocked on the prefetch window or pool ordering → samples_per_s on fetch_pool_fs";
    "executor.prep_busy_s_per_ksample", "s/ksample", Lower, "prep-worker seconds inside the pipeline → samples_per_s, cpu_ms_per_ksample on prep_cached, hp_coordinated";
    "executor.prep_stall_s_per_ksample", "s/ksample", Lower, "prep-worker seconds waiting for raw batches or for the sink → samples_per_s on fetch_serial_fs";
    "executor.consumer_wait_s_per_ksample", "s/ksample", Lower, "consumer seconds blocked in the reorder sink → samples_per_s everywhere";
    "executor.fetch_thread_imbalance", "ratio", Lower, "busiest fetch slot / mean slot busy time (1 = balanced) → samples_per_s on fetch_pool_fs";
    "executor.fetch_overhead_frac", "ratio", Lower, "share of fetch-busy time outside every traced call: plan walking, condvar, clock reads (untraceable tiers count here too) → samples_per_s, cpu_ms_per_ksample on fetch_pool_fs; no change on prep_cached";
    "tier.lookups_per_ksample", "1/ksample", Lower, "cache-tier lookups per 1000 delivered samples → cpu_ms_per_ksample on hp_coordinated (500 when one sweep feeds two jobs)";
    "tier.hit_frac", "ratio", Higher, "lookups served by any cache level → storage_bytes_per_sample everywhere";
    "tier.lower_hit_frac", "ratio", Higher, "lookups served below DRAM → storage_bytes_per_sample, samples_per_s on tier_spill_churn";
    "tier.lookup_ns_p50", "ns", Lower, "median tier lookup, lock included → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "tier.lookup_ns_p99", "ns", Lower, "tail tier lookup: shard-lock waits show here → samples_per_s on fetch_pool_fs";
    "tier.admit_ns_p50", "ns", Lower, "median admission after a miss (spill writes included) → samples_per_s on tier_spill_churn";
    "tier.admit_ns_p99", "ns", Lower, "tail admission → samples_per_s on tier_spill_churn";
    "tier.self_s_per_ksample", "s/ksample", Lower, "tier time outside its VFS calls → samples_per_s on fetch_serial_fs, fetch_pool_fs, tier_spill_churn";
    "tier.evictions_per_ksample", "1/ksample", Lower, "entries evicted from any level → storage_bytes_per_sample on tier_spill_churn";
    "tier.demotions_per_ksample", "1/ksample", Lower, "victims accepted by a lower level (each one a spill write) → samples_per_s on tier_spill_churn";
    "backend.reads_per_ksample", "1/ksample", Lower, "store reads (cache misses) → storage_bytes_per_sample everywhere";
    "backend.bytes_per_sample", "bytes", Lower, "bytes store reads returned; equals storage_bytes_per_sample → the same";
    "backend.read_us_p50", "us", Lower, "median store read → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "backend.read_us_p99", "us", Lower, "tail store read → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "backend.self_s_per_ksample", "s/ksample", Lower, "backend time outside VFS and dataset calls: offsets, span copy, accounting → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "backend.errors", "count", Lower, "store reads that returned an error → failed batches everywhere";
    "vfs.reads_per_ksample", "1/ksample", Lower, "positional reads issued → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "vfs.read_bytes_per_sample", "bytes", Lower, "bytes those reads returned → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "vfs.read_amplification", "ratio", Lower, "VFS bytes read / bytes the backend returned (alignment + readahead) → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "vfs.span_hit_frac", "ratio", Higher, "backend reads served from the readahead span → samples_per_s on fetch_serial_fs (0 under a shuffle: readahead buys nothing)";
    "vfs.read_us_p50", "us", Lower, "median positional read → samples_per_s on fetch_serial_fs, fetch_pool_fs";
    "vfs.writes_per_ksample", "1/ksample", Lower, "positional writes issued (spill payloads, manifest lines) → samples_per_s on tier_spill_churn";
    "vfs.write_bytes_per_sample", "bytes", Lower, "bytes written → samples_per_s on tier_spill_churn";
    "vfs.syncs_per_ksample", "1/ksample", Lower, "durability barriers issued → samples_per_s on tier_spill_churn; 0 on every other workload";
    "vfs.sync_us_p50", "us", Lower, "median durability barrier → samples_per_s on tier_spill_churn";
    "vfs.self_s_per_ksample", "s/ksample", Lower, "time inside VFS calls → samples_per_s on fetch_serial_fs, fetch_pool_fs, tier_spill_churn; 0 on prep_cached";
    "prep.busy_share", "ratio", Higher, "prep-busy seconds / (prep workers x wall): how prep-bound the workload is → samples_per_s on prep_cached, hp_coordinated";
    "prep.ns_per_raw_byte", "ns/byte", Lower, "direct ExecutablePipeline::prepare calls on the workload's items → samples_per_s, cpu_ms_per_ksample on prep_cached, hp_coordinated";
    "dataset.read_us_p50", "us", Lower, "median synthetic item generation → samples_per_s on the DirectBackend workloads";
    "dataset.self_s_per_ksample", "s/ksample", Lower, "time generating items inside the timed window → samples_per_s on the DirectBackend workloads";
    "dataset.setup_self_s", "s", Lower, "time generating items during set-up (materialisation, cold epoch 0) → setup_s on fetch_serial_fs, fetch_pool_fs";
    "staging.share_ratio", "ratio", Higher, "samples delivered / samples prepared: 2 with two coordinated jobs, 1 elsewhere → cpu_ms_per_ksample on hp_coordinated";
    "staging.peak_bytes", "bytes", Lower, "largest staging-area footprint of any epoch → peak_rss_mb on hp_coordinated";
    "staging.published_per_epoch", "count", Lower, "batches published to the staging area per epoch → cpu_ms_per_ksample on hp_coordinated";
    "partition.local_hit_frac", "ratio", Higher, "fetches served by the node's own tier → samples_per_s on partitioned_peers";
    "partition.remote_hit_frac", "ratio", Higher, "fetches served by a peer's tier → storage_bytes_per_sample on partitioned_peers";
    "partition.storage_frac", "ratio", Lower, "fetches that fell through to the store → storage_bytes_per_sample on partitioned_peers";
    "partition.node_rate_ratio", "ratio", Higher, "slowest node's rate / fastest node's, median over epochs → samples_per_s on partitioned_peers";
    "server.aggregate_hit_frac", "ratio", Higher, "hit ratio the shared hierarchy counted over all tenants during the window → storage_bytes_per_sample on server_tenants";
    "server.tenant_rate_ratio", "ratio", Higher, "slowest tenant's rate / fastest tenant's, median over epochs → samples_per_s on server_tenants";
    "server.dram_used_frac", "ratio", Lower, "shared DRAM in use / capacity → peak_rss_mb on server_tenants";
    "trace.closure_frac", "ratio", Higher, "(self time of every tier, backend, VFS and dataset span on the fetch threads + the executor's fetch-stall seconds) / (fetch threads x wall): what the spans explain of the stage they decorate; the rest is executor time outside every hook and per-epoch thread start and teardown";
    "trace.overhead_frac", "ratio", Lower, "1 - traced samples_per_s / untraced samples_per_s, both measured in the same run, each corrected for the host's speed";
    "trace.host_slowdown", "ratio", Lower, "how much slower than nominal the benchmark's reference kernel ran during the traced window; per-layer times are as measured, divide by this to compare runs";
    "ceiling.ingest_samples_per_s", "samples/s", Higher, "the harness consumer alone, over pre-built minibatches: the rate no loader can exceed here";
    "ceiling.cached_samples_per_s", "samples/s", Higher, "fetch_serial_fs with a cache twice the dataset: no store reads → bounds what a faster backend or VFS can buy on fetch_serial_fs";
    "ceiling.nullprep_samples_per_s", "samples/s", Higher, "fetch_serial_fs with an empty transform list → bounds what a faster prep can buy on fetch_serial_fs";
    "dcache.chain_access_ns", "ns", Lower, "TierChain::access over a recorded shuffle stream, LRU at 35 % → tier.self_s_per_ksample";
    "dcache.shard_lock_ns", "ns", Lower, "ShardedChain::access from two threads at once → tier.lookup_ns_p99 on fetch_pool_fs, samples_per_s on server_tenants";
    "vfs.spill_append_os_us", "us", Lower, "SpillStore::write of one item on OsVfs: payload write, two syncs, manifest line → vfs.sync_us_p50, samples_per_s on tier_spill_churn";
    "vfs.spill_append_mem_us", "us", Lower, "the same on MemVfs: the store's own bookkeeping without the device";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn worse_respects_direction_and_bound() {
        assert!(Higher.worse_by_more_than(100.0, 89.0, 0.10));
        assert!(!Higher.worse_by_more_than(100.0, 91.0, 0.10));
        assert!(!Higher.worse_by_more_than(100.0, 150.0, 0.10));
        assert!(Lower.worse_by_more_than(100.0, 111.0, 0.10));
        assert!(!Lower.worse_by_more_than(100.0, 109.0, 0.10));
        assert!(Lower.worse_by_more_than(4096.0, 4097.0, 0.0), "exact");
        assert!(!Lower.worse_by_more_than(4096.0, 4096.0, 0.0));
    }
}
