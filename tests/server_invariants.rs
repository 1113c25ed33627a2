//! Property-based invariants of the multi-tenant `coordl::Server`.
//!
//! The server's contract is capacity- and namespace-safety under *any*
//! submit/run/depart interleaving, not just the churn schedules the bench
//! preset replays:
//!
//! * the per-tenant resident-byte counters always sum to the hierarchy's
//!   occupancy, which never exceeds capacity;
//! * a tenant's DRAM bytes never exceed the highest effective (fair-share)
//!   quota it was granted — the server never *admits* past the quota in
//!   force, though never-evict tiers keep bytes a shrunk share no longer
//!   covers;
//! * departure reclaims every byte, leaks nothing into later tenants'
//!   key windows, and leaves survivors' residency untouched.

use datastalls::coordl::{Server, ServerConfig, SessionConfig, TenantHandle, TenantSpec};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use datastalls::pipeline::churn_schedule;
use proptest::prelude::*;
use std::sync::Arc;

/// Proptest case count: `PROPTEST_CASES` if set (the CI extended leg boosts
/// it), the default otherwise.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn submit(server: &Server, j: usize, items: u64, quota: u64) -> TenantHandle {
    let spec = DatasetSpec::new("inv", items, 256, 0.2, 2.0);
    let store: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(spec, 5 + j as u64));
    server
        .submit(TenantSpec {
            name: format!("tenant-{j}"),
            dataset: store,
            quota_bytes: quota,
            session: SessionConfig {
                batch_size: 8,
                num_workers: 1,
                seed: 100 + j as u64,
                ..SessionConfig::default()
            },
            profile: None,
        })
        .expect("valid tenant spec")
}

fn run_epoch(handle: &TenantHandle, epoch: u64) {
    for mb in handle.session().epoch(epoch).stream(0) {
        mb.expect("tenant epochs do not fail");
    }
}

fn dataset_bytes(items: u64) -> u64 {
    DatasetSpec::new("inv", items, 256, 0.2, 2.0).total_bytes()
}

/// One admitted tenant plus the bookkeeping the invariants are checked
/// against: its next local epoch and the highest effective quota it has
/// been granted so far.
struct Live {
    handle: TenantHandle,
    next_epoch: u64,
    quota_ceiling: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Under an arbitrary interleaving of submits, epochs and departures,
    /// occupancy accounting stays exact, capacity is never exceeded, no
    /// tenant's DRAM bytes pass the highest quota it was granted, and the
    /// final departures reclaim every byte.
    #[test]
    fn arbitrary_churn_preserves_capacity_and_quota_invariants(
        ops_seed in 0u64..u64::MAX,
        num_ops in 4usize..32,
        items in 12u64..48,
        cap_frac in 0.3f64..1.5,
        quota_frac in 0.2f64..1.2,
        shards in 1usize..5,
    ) {
        let per_tenant = dataset_bytes(items);
        let capacity = ((per_tenant as f64) * cap_frac) as u64 + 1;
        let quota = ((per_tenant as f64) * quota_frac) as u64;
        let server = Server::new(ServerConfig::minio(capacity, shards)).unwrap();
        let mut op_rng = TestRng::new(ops_seed);
        let mut live: Vec<Live> = Vec::new();
        let mut submitted = 0usize;
        for _ in 0..num_ops {
            let op = op_rng.next_u64();
            match op % 3 {
                0 => {
                    live.push(Live {
                        handle: submit(&server, submitted, items, quota),
                        next_epoch: 0,
                        quota_ceiling: 0,
                    });
                    submitted += 1;
                }
                1 if !live.is_empty() => {
                    let idx = (op as usize >> 8) % live.len();
                    let t = &mut live[idx];
                    // Shares only move on submit/depart, so the quota in
                    // force for this epoch is what the handle reports now.
                    t.quota_ceiling = t.quota_ceiling.max(t.handle.effective_quota_bytes());
                    run_epoch(&t.handle, t.next_epoch);
                    t.next_epoch += 1;
                    prop_assert!(
                        t.handle.dram_resident_bytes() <= t.quota_ceiling,
                        "tenant admitted past every quota it was granted"
                    );
                }
                2 if !live.is_empty() => {
                    let idx = (op as usize >> 8) % live.len();
                    live.swap_remove(idx).handle.depart();
                }
                _ => {}
            }
            let sum: u64 = live.iter().map(|t| t.handle.resident_bytes()).sum();
            prop_assert_eq!(sum, server.used_bytes(), "per-tenant counters must sum to occupancy");
            prop_assert!(server.used_bytes() <= server.capacity_bytes());
            prop_assert!(server.dram_used_bytes() <= server.dram_capacity_bytes());
        }
        for t in live.drain(..) {
            t.handle.depart();
        }
        prop_assert_eq!(server.used_bytes(), 0, "departures must reclaim every byte");
        prop_assert_eq!(server.resident_items(), 0);
    }

    /// Departing a tenant leaves every survivor's residency untouched and
    /// leaks nothing into a later tenant's key window: the newcomer sees
    /// all of its items absent even though the departed tenant cached the
    /// same item ids.
    #[test]
    fn departure_leaks_no_keys_across_tenants(
        tenants in 3usize..6,
        items in 12u64..48,
        victim_pick in 0usize..32,
        shards in 1usize..4,
    ) {
        // Capacity for everyone: residency differences can only come from
        // leaks, not admission pressure.
        let per_tenant = dataset_bytes(items);
        let capacity = per_tenant * (tenants as u64 + 1);
        let server = Server::new(ServerConfig::minio(capacity, shards)).unwrap();
        let mut live: Vec<Live> = (0..tenants)
            .map(|j| Live {
                handle: submit(&server, j, items, per_tenant),
                next_epoch: 0,
                quota_ceiling: 0,
            })
            .collect();
        for t in &mut live {
            run_epoch(&t.handle, 0);
            t.next_epoch = 1;
        }
        let victim = victim_pick % tenants;
        let survivors: Vec<u64> = live
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != victim)
            .map(|(_, t)| t.handle.resident_bytes())
            .collect();
        live.remove(victim).handle.depart();
        let after: Vec<u64> = live.iter().map(|t| t.handle.resident_bytes()).collect();
        prop_assert_eq!(&survivors, &after, "survivors' residency must be untouched");
        prop_assert_eq!(server.used_bytes(), after.iter().sum::<u64>());
        // A newcomer gets a fresh key window: every one of its items must
        // be absent despite the departed tenant having cached ids 0..items.
        let fresh = submit(&server, tenants, items, per_tenant);
        let tier = fresh.session().cache_tier().expect("single-mode tier");
        for item in 0..items {
            prop_assert!(!tier.contains(item), "item {} leaked into a fresh tenant", item);
        }
        prop_assert_eq!(fresh.resident_bytes(), 0);
    }

    /// The bench preset's churn contract at property scale: any churn
    /// schedule with at least three tenants runs to completion with quotas
    /// enforced throughout and the hierarchy empty afterwards.
    #[test]
    fn churn_schedules_run_with_quotas_enforced(
        tenants in 3usize..6,
        epochs in 2u64..5,
        seed in 0u64..(1u64 << 32),
        dram_percent in 30u64..90,
        shards in 1usize..4,
    ) {
        let items = 24u64;
        let per_tenant = dataset_bytes(items);
        // Oversubscribed on purpose: every tenant asks for a full dataset's
        // worth, so fair-share scaling binds whenever several are active.
        let capacity = per_tenant * tenants as u64 * dram_percent / 100;
        let server = Server::new(ServerConfig::minio(capacity, shards)).unwrap();
        let schedule = churn_schedule(tenants, epochs, seed);
        let mut live: Vec<Option<Live>> = (0..tenants).map(|_| None).collect();
        for epoch in 0..epochs {
            for (j, t) in schedule.iter().enumerate() {
                if t.departure == epoch {
                    if let Some(gone) = live[j].take() {
                        gone.handle.depart();
                    }
                }
            }
            for (j, t) in schedule.iter().enumerate() {
                if t.arrival == epoch {
                    live[j] = Some(Live {
                        handle: submit(&server, j, items, per_tenant),
                        next_epoch: 0,
                        quota_ceiling: 0,
                    });
                }
            }
            for slot in live.iter_mut().flatten() {
                let t = slot;
                t.quota_ceiling = t.quota_ceiling.max(t.handle.effective_quota_bytes());
                run_epoch(&t.handle, t.next_epoch);
                t.next_epoch += 1;
                prop_assert!(t.handle.dram_resident_bytes() <= t.quota_ceiling);
            }
            prop_assert!(server.dram_used_bytes() <= server.dram_capacity_bytes());
        }
        live.clear();
        prop_assert_eq!(server.used_bytes(), 0);
    }
}
