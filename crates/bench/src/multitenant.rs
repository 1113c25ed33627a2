//! The multi-tenant server row (`multi_tenant` in
//! [`FIGURES`](crate::FIGURES)): a churning ensemble of tenants over one
//! shared `coordl::Server`, replaying the same deterministic
//! arrival/departure schedule the simulator's `Scenario::ElasticCluster`
//! uses.
//!
//! Tenants run their epochs serially in tenant order (round-robin per
//! server epoch), so every cache transaction is sequential and the run is
//! exactly reproducible.  The claim has three halves:
//!
//! * **correctness** — the concatenated per-tenant streams are a function of
//!   the workload alone: every shard count at every worker count must
//!   deliver one identical stream (hashed into `stream_digest`) and count
//!   the same samples per tenant;
//! * **the model** — the aggregate hit ratio of the shared hierarchy is
//!   exact counter arithmetic, pinned per shard count (shard capacity
//!   splitting may shift it slightly between shard counts, never between
//!   worker counts);
//! * **quotas** — no tenant's DRAM-resident bytes ever exceed the highest
//!   effective (fair-share) quota it was granted (never-evict tiers keep
//!   bytes admitted before a share shrank, but the server must never *admit*
//!   past the quota in force), the DRAM tier never exceeds its capacity, and
//!   departure reclaims every byte.

use crate::figures::FigureTable;
use crate::runtime::{
    bit_identical, count, counter, run_grid, same_counters, table, Run, StreamDigest, Workload,
};
use coordl::{Server, ServerConfig, SessionConfig, TenantHandle, TenantSpec};
use dataset::{DataSource, SyntheticItemStore};
use pipeline::churn_schedule;
use pipeline::json::{int, num, nums};
use std::sync::Arc;
use std::time::Instant;

/// Tenants in the churn schedule.
const TENANTS: usize = 4;

/// Shard counts of the shared hierarchy the run is repeated at (1 = single
/// lock; all must deliver the same stream).
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// DRAM capacity as a percent of the summed tenant dataset bytes (below 100,
/// so quotas oversubscribe and fair-share scaling binds).
const DRAM_PERCENT: u32 = 60;

/// The row's sizes: `items` is per tenant; the seed drives both the churn
/// schedule and the tenants' shuffles; epoch 0 is cold and tenants arrive
/// and depart at epoch boundaries.
pub const WORKLOAD: Workload = Workload {
    items: 64,
    avg_item_bytes: 512,
    decode_multiplier: 2,
    batch_size: 16,
    epochs: 4,
    seed: 0xE1A5,
    axis: &[1, 2],
};

/// The `multi_tenant` row: [`run`] at [`WORKLOAD`].
pub fn multi_tenant() -> FigureTable {
    run(&WORKLOAD)
}

/// Run the row: the same churn schedule at every shard count × worker
/// count.
///
/// Counted per run, beside the emitted fields: `tenant_samples` (one entry
/// per tenant, over its lifetime), `max_quota_excess` (largest excess of any
/// tenant's DRAM-resident bytes over the highest effective quota it was ever
/// granted), `dram_capacity`, and `leftover_bytes` (bytes still in the
/// hierarchy after the last tenants departed).
pub fn run(w: &Workload) -> FigureTable {
    let summary = vec![
        ("tenants", int(TENANTS as u64)),
        ("items", int(w.items)),
        ("epochs", int(w.epochs)),
    ];
    let runs = run_grid(&SHARD_COUNTS, w.axis, |&shards, workers| {
        run_once(w, shards, workers)
    });
    table(summary, runs)
}

fn run_once(w: &Workload, shards: usize, workers: usize) -> Run {
    let started = Instant::now();
    let spec = w.dataset("multi-tenant");
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
    let tenant_samples = nums(per_tenant_samples.map(|n| n as f64));
    let run = Run::new(
        &format!("shards={shards}"),
        "workers",
        workers,
        digest.finish(),
    )
    .with([
        ("shards", int(shards as u64)),
        ("aggregate_hit_ratio", num(aggregate_hit_ratio)),
        ("peak_dram_used", int(peak_dram_used)),
    ]);
    let counters = vec![
        ("tenant_samples", tenant_samples),
        ("max_quota_excess", int(max_quota_excess)),
        ("dram_capacity", int(dram_capacity)),
        ("leftover_bytes", int(server.used_bytes())),
    ];
    run.counted(counters, started.elapsed().as_secs_f64())
}

/// The server's multi-tenancy contract: one stream and identical counters
/// at every shard and worker count, quotas never exceeded, the DRAM tier
/// never over capacity, departure reclaiming every byte, and every scheduled
/// tenant served.  Fair shares *shrink* when a later tenant arrives and
/// MinIO never evicts, so resident bytes may linger above the current share
/// — but the server must never have *admitted* past the quota in force,
/// which is what `max_quota_excess` measures.
pub fn multi_tenant_claim(t: &FigureTable) -> Result<(), String> {
    bit_identical(t, &["workers"])?;
    for r in 0..t.rows.len() {
        let label = t.cell(r, "label").as_str().unwrap_or_default();
        let excess = count(t, r, "max_quota_excess");
        if excess > 0.0 {
            return Err(format!(
                "{label}: a tenant's DRAM bytes exceeded its effective DRAM quota by \
                 {excess} bytes"
            ));
        }
        let (peak, capacity) = (t.num(r, "peak_dram_used"), count(t, r, "dram_capacity"));
        if peak > capacity {
            return Err(format!(
                "{label}: DRAM tier over capacity ({peak} of {capacity} bytes)"
            ));
        }
        let leftover = count(t, r, "leftover_bytes");
        if leftover > 0.0 {
            return Err(format!(
                "{label}: {leftover} bytes leaked after every tenant departed"
            ));
        }
        let samples = counter(t, r, "tenant_samples")
            .as_array()
            .unwrap_or_default();
        if samples.iter().any(|n| n.as_f64() == Some(0.0)) {
            return Err(format!(
                "{label}: a tenant was scheduled but delivered no samples"
            ));
        }
    }
    same_counters(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{doctor, doctor_counter, hex};
    use pipeline::json::Value;

    fn tiny() -> Workload {
        Workload {
            items: 64,
            avg_item_bytes: 128,
            epochs: 3,
            ..WORKLOAD
        }
    }

    #[test]
    fn churn_run_is_bit_identical_across_shards_and_workers() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 4, "every shard count at both worker counts");
        multi_tenant_claim(&t).expect("multi-tenancy contract");
        let samples = counter(&t, 0, "tenant_samples").as_array().unwrap();
        assert_eq!(samples.len(), TENANTS);
        assert_eq!(
            run(&tiny()).cell(0, "stream_digest"),
            t.cell(0, "stream_digest"),
            "runs must be reproducible"
        );
    }

    #[test]
    fn gate_rejects_each_broken_invariant() {
        let t = run(&Workload {
            axis: &[1],
            ..tiny()
        });
        // Doctor one counter of both shard counts alike, so only the
        // invariant under test breaks.
        let doctored = |key: &str, value: Value| {
            let mut t = t.clone();
            for r in 0..t.rows.len() {
                doctor_counter(&mut t, r, key, value.clone());
            }
            multi_tenant_claim(&t).unwrap_err()
        };
        let err = doctored("max_quota_excess", int(17));
        assert!(err.contains("exceeded its effective DRAM quota"), "{err}");
        assert!(doctored("dram_capacity", int(1)).contains("DRAM tier over capacity"));
        assert!(doctored("leftover_bytes", int(9)).contains("9 bytes leaked"));
        let starved = nums([0.0, 1.0, 1.0, 1.0]);
        assert!(doctored("tenant_samples", starved).contains("delivered no samples"));

        // A shard count that delivers another stream, or other per-tenant
        // counts, is rejected too.
        let mut diverged = t.clone();
        doctor(&mut diverged, 1, "stream_digest", hex(1));
        let err = multi_tenant_claim(&diverged).unwrap_err();
        assert!(
            err.contains("shards=4: workers=1 delivered a different stream"),
            "{err}"
        );
        let mut diverged = t.clone();
        doctor_counter(&mut diverged, 1, "tenant_samples", nums([1.0; 4]));
        let err = multi_tenant_claim(&diverged).unwrap_err();
        assert!(
            err.contains("shards=4: counters differ from shards=1"),
            "{err}"
        );
    }
}
