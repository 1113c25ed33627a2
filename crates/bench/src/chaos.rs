//! The fault-injection row over the *runtime* partitioned cluster
//! (`coordl::PartitionedCacheCluster` under a seeded `coordl::FaultPlan`):
//! the `chaos` row of [`FIGURES`](crate::FIGURES).
//!
//! A chaos run trains one partitioned session twice: once fault-free and
//! once under a deterministic membership schedule (kills, graceful leaves,
//! rejoins) fired on the cluster's shared fetch-step axis.  Four contracts
//! make up the claim:
//!
//! * **a healthy prefix** — every epoch before the first scheduled fault
//!   must be bit-identical to the fault-free twin (hashed into
//!   `chaos_prefix_digest` / `healthy_prefix_digest`): fault plumbing that
//!   is not armed must cost nothing and change nothing;
//! * **exactly once** — every epoch of both runs delivers each dataset item
//!   exactly once across the node shards, faults or not: a consumer stream
//!   never loses or duplicates a sample;
//! * **no lost shard** — after the run, every directory entry is owned by an
//!   alive server (dead owners must have been re-homed onto survivors in
//!   rendezvous order or dropped);
//! * **recovery** — the final epoch's cache-served byte fraction must be no
//!   worse than the worst post-fault epoch and stay within a configured
//!   fraction of the fault-free twin's: rebalancing plus lazy
//!   re-registration win the hit ratio back (§5.2's partitioned claims
//!   under churn).
//!
//! Worker counts ride along exactly as in the other runtime rows: every
//! worker count must deliver byte-identical streams, faults included.

use crate::figures::FigureTable;
use crate::runtime::{
    bit_identical, cell, count, counter, hex, run_grid, table, Run, StreamDigest, Workload,
};
use coordl::{FaultPlan, Mode, Session, SessionConfig};
use dataset::{DataSource, SyntheticItemStore};
use pipeline::json::{int, num, nums, object, text, Value};
use std::sync::Arc;
use std::time::Instant;

/// Servers in the partitioned cluster.
const NODES: usize = 3;

/// Membership events to schedule (kills, leaves, rejoins).
const FAULTS: usize = 3;

/// Seed of the fault schedule (`dcache::fault_schedule`).
const FAULT_SEED: u64 = 0xC0DA;

/// Per-node cache capacity as percent of the dataset.
const CACHE_PERCENT: u64 = 65;

/// Recovery gate: the final chaos epoch's cache-served byte fraction must be
/// at least this multiple of the fault-free twin's.
const RECOVERY_FRACTION: f64 = 0.5;

/// The row's sizes.  Epoch 0 is the cold warm-up; faults fire on epoch
/// boundaries `1..epochs`.
pub const WORKLOAD: Workload = Workload {
    items: 150,
    avg_item_bytes: 600,
    decode_multiplier: 4,
    batch_size: 25,
    epochs: 6,
    seed: 0xFA17,
    axis: &[1, 2],
};

/// The `chaos` row: [`run`] at [`WORKLOAD`].
pub fn chaos() -> FigureTable {
    run(&WORKLOAD)
}

/// Run the row: the chaos run and its fault-free twin at every worker
/// count, folded into one table row per worker count.
///
/// Counted per run, beside the emitted fields: `chaos_prefix_digest` /
/// `healthy_prefix_digest` (stream digests of the epochs before the first
/// fault), `chaos_epoch_samples` / `healthy_epoch_samples` (one entry per
/// epoch, summed over nodes) and `dead_owned_entries` (directory entries
/// owned by a dead server after the run).
pub fn run(w: &Workload) -> FigureTable {
    assert!(
        w.epochs >= 2,
        "chaos needs a boundary for faults to fire on"
    );
    let plan = FaultPlan::seeded(NODES, w.epochs, FAULTS, FAULT_SEED, w.items);
    let prefix_epochs = plan
        .first_fault_step()
        .map(|s| s / w.items)
        .unwrap_or(w.epochs);
    let faults = plan.steps().iter().map(|s| {
        object([
            ("at_epoch", int(s.at_step / w.items)),
            ("node", int(s.node as u64)),
            ("kind", text(s.kind.name())),
        ])
    });
    let faults = Value::Array(faults.collect());

    let runs = run_grid(&[()], w.axis, |_, workers| {
        let started = Instant::now();
        let chaos = run_once(w, Some(plan.clone()), prefix_epochs, workers);
        let healthy = run_once(w, None, prefix_epochs, workers);
        let samples = |obs: &RunObs| nums(obs.epoch_samples.iter().map(|&n| n as f64));
        let healthy_final = *healthy.epoch_cached_fraction.last().expect("epochs >= 2");
        let alive = chaos.alive_at_end.iter().map(|&a| Value::Bool(a));
        let label = format!("faults={}", plan.steps().len());
        let run = Run::new(&label, "workers", workers, chaos.digest).with([
            ("healthy_digest", hex(healthy.digest)),
            ("faults", faults.clone()),
            (
                "epoch_cached_fraction",
                nums(chaos.epoch_cached_fraction.iter().copied()),
            ),
            ("healthy_final_cached_fraction", num(healthy_final)),
            ("directory_entries", int(chaos.directory_entries)),
            ("alive_at_end", Value::Array(alive.collect())),
        ]);
        let counters = vec![
            ("chaos_prefix_digest", hex(chaos.prefix_digest)),
            ("healthy_prefix_digest", hex(healthy.prefix_digest)),
            ("dead_owned_entries", int(chaos.dead_owned_entries)),
            ("chaos_epoch_samples", samples(&chaos)),
            ("healthy_epoch_samples", samples(&healthy)),
        ];
        run.counted(counters, started.elapsed().as_secs_f64())
    });
    let summary = vec![
        ("nodes", int(NODES as u64)),
        ("items", int(w.items)),
        ("epochs", int(w.epochs)),
        ("prefix_epochs", int(prefix_epochs)),
    ];
    table(summary, runs)
}

/// One stream at every worker count, then the run's four contracts (see the
/// [module docs](self)).
pub fn chaos_claim(t: &FigureTable) -> Result<(), String> {
    bit_identical(t, &["workers"])?;
    let array = |key: &str| t.cell(0, key).as_array().unwrap_or_default();
    let (items, prefix_epochs) = (
        t.summary_num("items"),
        t.summary_num("prefix_epochs") as usize,
    );
    if array("faults").is_empty() {
        return Err("chaos run scheduled no faults — nothing was tested".to_string());
    }
    let (chaos_prefix, healthy_prefix) = (
        counter(t, 0, "chaos_prefix_digest"),
        counter(t, 0, "healthy_prefix_digest"),
    );
    if chaos_prefix != healthy_prefix {
        return Err(format!(
            "healthy prefix diverged: chaos {} vs fault-free {} over the first \
             {prefix_epochs} epoch(s) — an unarmed fault plan changed the stream",
            cell(chaos_prefix),
            cell(healthy_prefix)
        ));
    }
    for (name, key) in [
        ("chaos", "chaos_epoch_samples"),
        ("fault-free", "healthy_epoch_samples"),
    ] {
        let samples = counter(t, 0, key).as_array().unwrap_or_default();
        for (e, s) in samples.iter().filter_map(Value::as_f64).enumerate() {
            if s != items {
                return Err(format!(
                    "{name} epoch {e}: {s} samples delivered, want exactly {items} — \
                     a fault lost or duplicated samples"
                ));
            }
        }
    }
    let dead = count(t, 0, "dead_owned_entries");
    if dead > 0.0 {
        return Err(format!(
            "{dead} directory entrie(s) still owned by a dead server — rebalancing lost \
             a shard"
        ));
    }
    let fractions: Vec<f64> = array("epoch_cached_fraction")
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    let post = &fractions[prefix_epochs.min(fractions.len().saturating_sub(1))..];
    let (&last, earlier) = post.split_last().expect("at least one post-fault epoch");
    // The trough is taken over the post-fault epochs *before* the final one:
    // with the final epoch included the comparison could never fail.
    let worst = earlier.iter().copied().fold(f64::INFINITY, f64::min);
    if !earlier.is_empty() && last + 1e-9 < worst {
        return Err(format!(
            "hit ratio never recovered: final epoch serves {last:.3} of bytes \
             from cache, worse than the degraded trough {worst:.3}"
        ));
    }
    let healthy_final = t.num(0, "healthy_final_cached_fraction");
    let floor = RECOVERY_FRACTION * healthy_final;
    if last < floor {
        return Err(format!(
            "post-rebalance recovery too weak: final cached fraction {last:.3} \
             below {floor:.3} ({}% of the fault-free twin's {healthy_final:.3})",
            (RECOVERY_FRACTION * 100.0) as u32
        ));
    }
    Ok(())
}

/// Per-run observations shared by the chaos run and its twin.
struct RunObs {
    digest: u64,
    prefix_digest: u64,
    epoch_samples: Vec<u64>,
    epoch_cached_fraction: Vec<f64>,
    dead_owned_entries: u64,
    directory_entries: u64,
    alive_at_end: Vec<bool>,
}

fn run_once(w: &Workload, plan: Option<FaultPlan>, prefix_epochs: u64, workers: usize) -> RunObs {
    let spec = w.dataset("chaos");
    let cache_capacity_bytes = spec.total_bytes() * CACHE_PERCENT / 100;
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 31));
    let config = SessionConfig {
        cache_capacity_bytes,
        ..w.session_config(workers)
    };
    let mut builder = Session::builder(store, config).mode(Mode::Partitioned { nodes: NODES });
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let session = builder.build().expect("valid chaos session");

    let mut digest = StreamDigest::default();
    let mut prefix_digest = 0u64;
    let mut epoch_samples = Vec::with_capacity(w.epochs as usize);
    for epoch in 0..w.epochs {
        let run = session.epoch(epoch);
        let mut samples = 0u64;
        // One node stream at a time: cluster fetches stay sequential, so the
        // fault plan's step axis is identical for every worker count.
        for node in 0..NODES {
            for batch in run.stream(node) {
                let mb = batch.expect("chaos epochs never fail a consumer");
                samples += mb.len() as u64;
                digest.absorb(&mb);
            }
        }
        epoch_samples.push(samples);
        if epoch + 1 == prefix_epochs {
            prefix_digest = digest.finish();
        }
    }

    let report = session.report();
    let epoch_cached_fraction = report
        .epochs
        .iter()
        .map(|e| {
            let cached = e.bytes_from_cache + e.bytes_from_remote;
            let total = cached + e.bytes_from_storage;
            if total == 0 {
                1.0
            } else {
                cached as f64 / total as f64
            }
        })
        .collect();
    let cluster = session
        .partitioned_cluster()
        .expect("partitioned session has a cluster");
    let snapshot = cluster.directory_snapshot();
    let dead_owned_entries = snapshot
        .iter()
        .filter(|&&(_, owner)| !cluster.is_alive(owner))
        .count() as u64;
    RunObs {
        digest: digest.finish(),
        prefix_digest,
        epoch_samples,
        epoch_cached_fraction,
        dead_owned_entries,
        directory_entries: snapshot.len() as u64,
        alive_at_end: (0..NODES).map(|n| cluster.is_alive(n)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{doctor, doctor_counter};

    fn tiny() -> Workload {
        Workload {
            items: 200,
            avg_item_bytes: 256,
            batch_size: 20,
            ..WORKLOAD
        }
    }

    #[test]
    fn default_run_passes_all_gates() {
        let t = run(&tiny());
        assert_eq!(t.rows.len(), 2, "one folded row per worker count");
        assert!(
            t.summary_num("prefix_epochs") >= 1.0,
            "epoch 0 is always healthy"
        );
        chaos_claim(&t).expect("chaos contract");
        assert_eq!(
            counter(&t, 0, "chaos_prefix_digest"),
            counter(&t, 0, "healthy_prefix_digest")
        );
    }

    #[test]
    fn gate_rejects_each_broken_contract() {
        let t = run(&Workload {
            axis: &[1],
            ..tiny()
        });
        let mut doctored = t.clone();
        doctor_counter(&mut doctored, 0, "chaos_prefix_digest", hex(1));
        let err = chaos_claim(&doctored).unwrap_err();
        assert!(err.contains("healthy prefix diverged"), "{err}");

        let mut doctored = t.clone();
        let mut samples = vec![200.0; tiny().epochs as usize];
        samples[1] = 199.0;
        doctor_counter(&mut doctored, 0, "chaos_epoch_samples", nums(samples));
        let err = chaos_claim(&doctored).unwrap_err();
        assert!(
            err.contains("chaos epoch 1") && err.contains("lost or duplicated"),
            "{err}"
        );

        let mut doctored = t.clone();
        doctor_counter(&mut doctored, 0, "dead_owned_entries", int(2));
        let err = chaos_claim(&doctored).unwrap_err();
        assert!(err.contains("lost a shard"), "{err}");

        let mut doctored = t.clone();
        doctor(&mut doctored, 0, "faults", Value::Array(Vec::new()));
        assert!(chaos_claim(&doctored)
            .unwrap_err()
            .contains("scheduled no faults"));

        // Recovery: a final epoch below the post-fault trough, then one that
        // recovers but stays under half the fault-free twin's fraction.
        let epochs = t.summary_num("epochs") as usize;
        let mut fractions = vec![0.9; epochs];
        fractions[epochs - 1] = 0.2;
        let mut doctored = t.clone();
        doctor(&mut doctored, 0, "epoch_cached_fraction", nums(fractions));
        let err = chaos_claim(&doctored).unwrap_err();
        assert!(err.contains("hit ratio never recovered"), "{err}");
        let mut doctored = t.clone();
        doctor(
            &mut doctored,
            0,
            "epoch_cached_fraction",
            nums(vec![0.2; epochs]),
        );
        doctor(&mut doctored, 0, "healthy_final_cached_fraction", num(1.0));
        let err = chaos_claim(&doctored).unwrap_err();
        assert!(err.contains("post-rebalance recovery too weak"), "{err}");

        // A worker count that delivers another stream is an Err, not a panic.
        let mut doctored = t.clone();
        doctored.rows.push(t.rows[0].clone());
        doctor(&mut doctored, 1, "workers", int(2));
        doctor(&mut doctored, 1, "stream_digest", hex(1));
        let err = chaos_claim(&doctored).unwrap_err();
        assert!(
            err.contains("faults=3: workers=2 delivered a different stream"),
            "{err}"
        );
    }
}
