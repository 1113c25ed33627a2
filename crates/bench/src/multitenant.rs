//! The multi-tenant server preset (`dstool sweep multi-tenant`, part of
//! `dstool smoke`): a churning ensemble of tenants over one shared
//! `coordl::Server`, replaying the same deterministic arrival/departure
//! schedule the simulator's `Scenario::ElasticCluster` uses.
//!
//! Tenants run their epochs serially in tenant order (round-robin per
//! server epoch), so every cache transaction is sequential and the run is
//! exactly reproducible.  Three gates come out of a run:
//!
//! * **a correctness gate** — the concatenated per-tenant streams are a
//!   function of the workload alone: every shard count at every worker
//!   count must deliver one identical stream (hashed into `stream_digest`
//!   and checked against `ci/bench_baseline.json`);
//! * **a model gate** — the aggregate hit ratio of the shared hierarchy is
//!   exact counter arithmetic, compared exactly against the baseline per
//!   shard count (shard capacity splitting may shift it slightly between
//!   shard counts, never between worker counts);
//! * **a quota gate** — no tenant's DRAM-resident bytes ever exceed the
//!   highest effective (fair-share) quota it was granted (never-evict
//!   tiers keep bytes admitted before a share shrank, but the server must
//!   never *admit* past the quota in force), and the DRAM tier never
//!   exceeds its capacity.

use crate::runtime::{
    int, num, run_grid, text, PointResult, PresetReport, RuntimePreset, StreamDigest, Workload,
};
use coordl::{Server, ServerConfig, SessionConfig, TenantHandle, TenantSpec};
use dataset::{DataSource, SyntheticItemStore};
use pipeline::churn_schedule;
use std::sync::Arc;

/// Tenants in the churn schedule.
const TENANTS: usize = 4;

/// Shard counts of the shared hierarchy the run is repeated at (1 = single
/// lock; all must deliver the same stream).
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// DRAM capacity as a percent of the summed tenant dataset bytes (below 100,
/// so quotas oversubscribe and fair-share scaling binds).
const DRAM_PERCENT: u32 = 60;

/// The registry row of `dstool sweep multi-tenant`.  `items` is per tenant;
/// the seed drives both the churn schedule and the tenants' shuffles; epoch
/// 0 is cold and tenants arrive and depart at epoch boundaries.
pub static PRESET: RuntimePreset = RuntimePreset {
    name: "multi-tenant",
    paper: "§5 / Fig 10 (coordinated HP search)",
    description: "runtime multi-tenant Server: churning tenants over one shared \
                  hierarchy; quotas, capacity and departure reclamation gated, one \
                  stream across every shard and worker count",
    points: SHARD_COUNTS.len(),
    workload: Workload {
        items: 256,
        min_items: 64,
        avg_item_bytes: 512,
        decode_multiplier: 2,
        batch_size: 16,
        epochs: 4,
        seed: 0xE1A5,
        axis: &[1, 2],
    },
    axis: "workers",
    flat: false,
    takes_os_root: false,
    run: |w, _| run(w),
    shape,
};

/// Run the preset: the same churn schedule at every shard count × worker
/// count.
///
/// Recorded per run, beside the emitted fields: `tenant_samples` (one
/// counter per tenant, over its lifetime), `max_quota_excess` (largest
/// excess of any tenant's DRAM-resident bytes over the highest effective
/// quota it was ever granted), `dram_capacity`, and `leftover_bytes` (bytes
/// still in the hierarchy after the last tenants departed).
pub fn run(w: &Workload) -> PresetReport {
    PresetReport {
        preset: &PRESET,
        header: vec![
            ("tenants", int(TENANTS as u64)),
            ("items", int(w.items)),
            ("epochs", int(w.epochs)),
        ],
        runs: run_grid(&SHARD_COUNTS, w.axis, |&shards, workers| {
            run_once(w, shards, workers)
        }),
    }
}

fn run_once(w: &Workload, shards: usize, workers: usize) -> PointResult {
    let spec = w.dataset(PRESET.name);
    let per_tenant_bytes = spec.total_bytes();
    let dram_capacity = per_tenant_bytes * TENANTS as u64 * DRAM_PERCENT as u64 / 100;
    let server =
        Server::new(ServerConfig::minio(dram_capacity, shards)).expect("valid server config");
    let schedule = churn_schedule(TENANTS, w.epochs, w.seed);

    let mut handles: Vec<Option<TenantHandle>> = (0..TENANTS).map(|_| None).collect();
    let mut digest = StreamDigest::default();
    let mut per_tenant_samples = [0u64; TENANTS];
    // Highest effective quota each tenant has been granted so far: the
    // never-admit-past-the-quota gate is measured against this, because a
    // later arrival shrinks fair shares without evicting what never-evict
    // tiers already hold.
    let mut quota_ceiling = [0u64; TENANTS];
    let mut max_quota_excess = 0u64;
    let mut peak_dram_used = 0u64;

    for epoch in 0..w.epochs {
        for (j, t) in schedule.iter().enumerate() {
            if t.departure == epoch {
                if let Some(handle) = handles[j].take() {
                    handle.depart();
                }
            }
        }
        for (j, t) in schedule.iter().enumerate() {
            if t.arrival == epoch {
                let store: Arc<dyn DataSource> =
                    Arc::new(SyntheticItemStore::new(spec.clone(), 23 + j as u64));
                let handle = server
                    .submit(TenantSpec {
                        name: format!("tenant-{j}"),
                        dataset: store,
                        // Every tenant asks for a full dataset's worth of
                        // DRAM; with DRAM_PERCENT < 100 the sum
                        // oversubscribes and fair shares bind.
                        quota_bytes: per_tenant_bytes,
                        session: SessionConfig {
                            seed: w.seed + j as u64,
                            ..w.session_config(workers)
                        },
                        profile: None,
                    })
                    .expect("valid tenant spec");
                handles[j] = Some(handle);
            }
        }
        for (j, slot) in handles.iter().enumerate() {
            let Some(handle) = slot else { continue };
            // Arrivals and departures only happen at the epoch boundary
            // above, so this is the share in force for the whole epoch.
            quota_ceiling[j] = quota_ceiling[j].max(handle.effective_quota_bytes());
            let local_epoch = epoch - schedule[j].arrival;
            let run = handle.session().epoch(local_epoch);
            for batch in run.stream(0) {
                let mb = batch.expect("multi-tenant epochs do not fail");
                digest.word(j as u64);
                digest.absorb(&mb);
                per_tenant_samples[j] += mb.samples.len() as u64;
            }
            let excess = handle
                .dram_resident_bytes()
                .saturating_sub(quota_ceiling[j]);
            max_quota_excess = max_quota_excess.max(excess);
        }
        peak_dram_used = peak_dram_used.max(server.dram_used_bytes());
    }

    let aggregate_hit_ratio = server.aggregate_hit_ratio();
    drop(handles);
    let label = format!("shards={shards}");
    let mut counters: Vec<(&'static str, u64)> = per_tenant_samples
        .into_iter()
        .map(|n| ("tenant_samples", n))
        .collect();
    counters.push(("max_quota_excess", max_quota_excess));
    counters.push(("dram_capacity", dram_capacity));
    counters.push(("leftover_bytes", server.used_bytes()));
    PointResult {
        fields: vec![
            ("label", text(&label)),
            ("shards", int(shards as u64)),
            ("aggregate_hit_ratio", num(aggregate_hit_ratio)),
            ("peak_dram_used", int(peak_dram_used)),
        ],
        label,
        axis_value: workers,
        stream_digest: digest.finish(),
        counters,
        timings: Vec::new(),
    }
}

/// The server's multi-tenancy contract: identical per-tenant sample counts
/// at every shard count, quotas never exceeded, the DRAM tier never over
/// capacity, departure reclaiming every byte, and every scheduled tenant
/// served.  Fair shares *shrink* when a later tenant arrives and MinIO never
/// evicts, so resident bytes may linger above the current share — but the
/// server must never have *admitted* past the quota in force, which is what
/// `max_quota_excess` measures.
fn shape(report: &PresetReport) -> Result<(), String> {
    for p in report.points() {
        if p.counter("max_quota_excess") > 0 {
            return Err(format!(
                "{}: a tenant's DRAM bytes exceeded its effective DRAM quota \
                 by {} bytes",
                p.label,
                p.counter("max_quota_excess")
            ));
        }
        if p.num("peak_dram_used") > p.counter("dram_capacity") as f64 {
            return Err(format!(
                "{}: DRAM tier over capacity ({} of {} bytes)",
                p.label,
                p.num("peak_dram_used"),
                p.counter("dram_capacity")
            ));
        }
        if p.counter("leftover_bytes") > 0 {
            return Err(format!(
                "{}: {} bytes leaked after every tenant departed",
                p.label,
                p.counter("leftover_bytes")
            ));
        }
        if p.counters_named("tenant_samples").any(|n| n == 0) {
            return Err(format!(
                "{}: a tenant was scheduled but delivered no samples",
                p.label
            ));
        }
    }
    report.identical_across_points()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        Workload {
            items: 64,
            avg_item_bytes: 128,
            epochs: 3,
            ..PRESET.workload
        }
    }

    #[test]
    fn churn_run_is_bit_identical_across_shards_and_workers() {
        let report = run(&tiny());
        assert_eq!(report.points().count(), 2);
        assert_eq!(
            report.runs.len(),
            4,
            "every shard count at both worker counts"
        );
        report.gate().expect("multi-tenancy contract");
        assert_eq!(
            report.runs[0].counters_named("tenant_samples").count(),
            TENANTS
        );
        assert_eq!(
            run(&tiny()).digest(),
            report.digest(),
            "runs must be reproducible"
        );
    }

    #[test]
    fn gate_rejects_each_broken_invariant() {
        let report = run(&Workload {
            axis: &[1],
            ..tiny()
        });
        // Doctor one counter of both shard counts alike, so only the
        // invariant under test breaks.
        let doctored = |key: &str, value: u64| {
            let mut report = report.clone();
            for run in &mut report.runs {
                run.set_counter(key, 0, value);
            }
            report.gate().unwrap_err()
        };
        let err = doctored("max_quota_excess", 17);
        assert!(err.contains("exceeded its effective DRAM quota"), "{err}");
        assert!(doctored("dram_capacity", 1).contains("DRAM tier over capacity"));
        assert!(doctored("leftover_bytes", 9).contains("9 bytes leaked"));
        assert!(doctored("tenant_samples", 0).contains("delivered no samples"));

        // A shard count that delivers another stream, or other per-tenant
        // counts, is rejected too.
        let mut diverged = report.clone();
        diverged.runs[1].stream_digest ^= 1;
        let err = diverged.gate().unwrap_err();
        assert!(
            err.contains("multi-tenant/shards=4: workers=1 delivered a different stream"),
            "{err}"
        );
        let mut diverged = report.clone();
        diverged.runs[1].counters[0].1 += 1;
        let err = diverged.gate().unwrap_err();
        assert!(
            err.contains("shards=4: counters differ from shards=1"),
            "{err}"
        );
    }
}
