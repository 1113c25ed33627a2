//! The unified runtime report every [`Session`](crate::Session) produces.
//!
//! [`LoaderReport`] is the runtime counterpart of the simulator's
//! `pipeline::SimReport`: cache hits and misses, byte provenance, modelled
//! device time, staging occupancy and per-epoch trajectories, serialised
//! through the *same* `pipeline::json` emitter so the two documents are
//! structurally comparable — which is what lets the `validate` figure row
//! diff predicted against empirical behaviour (Table 5 / Figure 16
//! methodology).

use pipeline::json::{compact, int, num, nums, object, text, Value};

/// Counter deltas observed over one epoch of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochTrajectory {
    /// Epoch index.
    pub epoch: u64,
    /// Bytes read from the fetch backend (storage).
    pub bytes_from_storage: u64,
    /// Bytes served from local cache tiers.
    pub bytes_from_cache: u64,
    /// Of `bytes_from_cache`, the bytes served by tiers below DRAM (the
    /// local-SSD level of a tiered session; zero for flat tiers).
    pub bytes_from_lower_tiers: u64,
    /// Bytes served from remote peers (partitioned mode only).
    pub bytes_from_remote: u64,
    /// Samples pre-processed.
    pub samples_prepared: u64,
    /// Samples delivered to consumers.
    pub samples_delivered: u64,
    /// Cache-tier hits (local + remote).
    pub cache_hits: u64,
    /// Cache-tier misses (reads that fell through to the backend).
    pub cache_misses: u64,
    /// Of `cache_hits`, the hits served by tiers below DRAM.
    pub lower_tier_hits: u64,
    /// Modelled device busy time for this epoch's backend reads, in seconds
    /// (0 with an unprofiled backend).
    pub device_seconds: f64,
    /// Staging-area high-water mark in bytes (coordinated mode only).
    pub staging_peak_bytes: u64,
    /// Minibatches published to the staging area (coordinated mode only).
    pub staging_published: u64,
    /// Minibatches fully consumed and evicted (coordinated mode only).
    pub staging_evicted: u64,
    /// Wall seconds the fetch thread spent reading tiers and backends.
    pub fetch_busy_seconds: f64,
    /// Wall seconds the fetch thread spent blocked on prep backpressure.
    pub fetch_stall_seconds: f64,
    /// Wall seconds prep workers spent pre-processing (summed across the
    /// pool, so this can exceed the epoch's wall time).
    pub prep_busy_seconds: f64,
    /// Wall seconds prep workers spent blocked on their queues — starved
    /// for fetched batches, or publishing into a backed-up consumer /
    /// staging window (summed across the pool).
    pub prep_stall_seconds: f64,
    /// Wall seconds consumers spent waiting for the next minibatch (summed
    /// across consumer threads) — the runtime analogue of the simulator's
    /// data-stall time.
    pub consumer_wait_seconds: f64,
}

impl EpochTrajectory {
    /// Cache hit ratio over fetches this epoch (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Hit ratio of the DRAM (topmost) cache level over fetches this epoch.
    pub fn dram_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits - self.lower_tier_hits) as f64 / total as f64
        }
    }

    /// Hit ratio of the cache levels below DRAM over fetches this epoch
    /// (zero for flat tiers).
    pub fn lower_tier_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.lower_tier_hits as f64 / total as f64
        }
    }
}

/// Per-tenant accounting attached to a [`LoaderReport`] when the session ran
/// under a multi-tenant [`Server`](crate::Server).
///
/// `None` for standalone sessions, so every existing report (and its JSON
/// document) is unchanged; a server-held session additionally records how
/// much of the shared hierarchy this tenant occupies and what DRAM quota it
/// was granted after fair-share scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name as given at submission.
    pub name: String,
    /// Requested DRAM-tier quota in bytes.
    pub quota_bytes: u64,
    /// Quota actually granted after fair-share scaling (== `quota_bytes`
    /// unless the active tenants oversubscribe the DRAM tier).
    pub effective_quota_bytes: u64,
    /// Bytes this tenant currently holds in the DRAM tier.
    pub dram_resident_bytes: u64,
    /// Bytes this tenant currently holds across all shared tiers.
    pub resident_bytes: u64,
}

/// The unified result of running a [`Session`](crate::Session): totals plus
/// the per-epoch trajectories recorded as epochs were run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoaderReport {
    /// Session mode name (`single` / `coordinated` / `partitioned`).
    pub mode: &'static str,
    /// Number of jobs (coordinated) or nodes (partitioned); 1 for single.
    pub jobs: usize,
    /// Cache replacement policy of the tier(s).
    pub cache_policy: &'static str,
    /// Fetch-backend name (`direct` or a device-profile name).
    pub backend: &'static str,
    /// Total cache capacity across tiers, in bytes.
    pub cache_capacity_bytes: u64,
    /// Bytes currently resident across tiers.
    pub cache_used_bytes: u64,
    /// Items currently resident across tiers.
    pub cache_resident_items: usize,
    /// Cumulative bytes read from the backend.
    pub bytes_from_storage: u64,
    /// Cumulative bytes served from cache tiers.
    pub bytes_from_cache: u64,
    /// Of `bytes_from_cache`, the cumulative bytes served by tiers below
    /// DRAM.
    pub bytes_from_lower_tiers: u64,
    /// Cumulative bytes served from remote peers.
    pub bytes_from_remote: u64,
    /// Cumulative samples pre-processed.
    pub samples_prepared: u64,
    /// Cumulative samples delivered.
    pub samples_delivered: u64,
    /// Cumulative cache hits.
    pub cache_hits: u64,
    /// Cumulative cache misses.
    pub cache_misses: u64,
    /// Of `cache_hits`, the cumulative hits served by tiers below DRAM.
    pub lower_tier_hits: u64,
    /// Cumulative modelled device busy seconds.
    pub device_seconds: f64,
    /// Cumulative *measured* wall-clock seconds the backend spent in real
    /// I/O (0 for purely modelled backends; nonzero with
    /// [`FsBackend`](crate::FsBackend), which reports both so modelled and
    /// measured time can be compared side by side).
    pub measured_device_seconds: f64,
    /// Cumulative wall seconds the fetch stage spent reading.
    pub fetch_busy_seconds: f64,
    /// Cumulative wall seconds the fetch stage spent blocked on prep
    /// backpressure.
    pub fetch_stall_seconds: f64,
    /// Cumulative wall seconds prep workers spent pre-processing.
    pub prep_busy_seconds: f64,
    /// Cumulative wall seconds prep workers spent blocked on their queues.
    pub prep_stall_seconds: f64,
    /// Cumulative wall seconds consumers spent waiting for minibatches.
    pub consumer_wait_seconds: f64,
    /// Per-fetch-thread breakdown of `fetch_busy_seconds`, indexed by pool
    /// slot.  One entry (slot 0) for the default serial fetch stage; one per
    /// thread for a `fetch_threads(f)` session, so skew across the sharded
    /// pool is visible in the report.
    pub fetch_thread_busy_seconds: Vec<f64>,
    /// Per-fetch-thread breakdown of `fetch_stall_seconds`, indexed by pool
    /// slot (same layout as `fetch_thread_busy_seconds`).
    pub fetch_thread_stall_seconds: Vec<f64>,
    /// Per-epoch counter deltas, in the order epochs were run.
    pub epochs: Vec<EpochTrajectory>,
    /// Multi-tenant accounting; `None` unless the session ran under a
    /// [`Server`](crate::Server).
    pub tenant: Option<TenantReport>,
}

impl LoaderReport {
    /// Overall cache hit ratio (0 when nothing was fetched).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The steady-state epochs: everything after the cold-cache warm-up
    /// epoch (all epochs when only one was run).
    pub fn steady_epochs(&self) -> &[EpochTrajectory] {
        if self.epochs.len() > 1 {
            &self.epochs[1..]
        } else {
            &self.epochs
        }
    }

    /// Average steady-state hit ratio (the paper averages epochs after the
    /// first, §3.1).
    pub fn steady_hit_ratio(&self) -> f64 {
        let tail = self.steady_epochs();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(EpochTrajectory::hit_ratio).sum::<f64>() / tail.len() as f64
    }

    /// Average steady-state hit ratio of the DRAM (topmost) cache level.
    pub fn steady_dram_hit_ratio(&self) -> f64 {
        let tail = self.steady_epochs();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter()
            .map(EpochTrajectory::dram_hit_ratio)
            .sum::<f64>()
            / tail.len() as f64
    }

    /// Average steady-state hit ratio of the cache levels below DRAM (zero
    /// for flat tiers).
    pub fn steady_lower_tier_hit_ratio(&self) -> f64 {
        let tail = self.steady_epochs();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter()
            .map(EpochTrajectory::lower_tier_hit_ratio)
            .sum::<f64>()
            / tail.len() as f64
    }

    /// Average steady-state bytes read from storage per epoch.
    pub fn steady_storage_bytes(&self) -> f64 {
        let tail = self.steady_epochs();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter()
            .map(|e| e.bytes_from_storage as f64)
            .sum::<f64>()
            / tail.len() as f64
    }

    /// Average steady-state modelled device seconds per epoch.
    pub fn steady_device_seconds(&self) -> f64 {
        let tail = self.steady_epochs();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|e| e.device_seconds).sum::<f64>() / tail.len() as f64
    }

    /// Average steady-state consumer-wait seconds per epoch (the runtime's
    /// measured data-stall analogue, compared informationally against the
    /// simulator's stall predictions by the `validate` figure row).
    pub fn steady_consumer_wait_seconds(&self) -> f64 {
        let tail = self.steady_epochs();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|e| e.consumer_wait_seconds).sum::<f64>() / tail.len() as f64
    }

    /// Serialise the report as a JSON object through the shared
    /// `pipeline::json` emitter, mirroring `SimReport::to_json`'s layout
    /// (`disk_bytes_per_epoch`, `remote_bytes_per_epoch`, per-epoch records)
    /// so simulator and runtime documents diff cleanly.
    pub fn to_json(&self) -> String {
        let per_epoch =
            |f: fn(&EpochTrajectory) -> u64| nums(self.epochs.iter().map(|e| f(e) as f64));
        let mut doc = vec![
            ("kind", text("loader-report")),
            ("mode", text(self.mode)),
            ("unit_kind", text("job")),
            ("jobs", int(self.jobs as u64)),
            ("cache_policy", text(self.cache_policy)),
            ("backend", text(self.backend)),
            ("cache_capacity_bytes", int(self.cache_capacity_bytes)),
            ("cache_used_bytes", int(self.cache_used_bytes)),
            (
                "cache_resident_items",
                int(self.cache_resident_items as u64),
            ),
            ("epochs", int(self.epochs.len() as u64)),
            ("disk_bytes_per_epoch", per_epoch(|e| e.bytes_from_storage)),
            ("remote_bytes_per_epoch", per_epoch(|e| e.bytes_from_remote)),
            ("hit_ratio", num(self.hit_ratio())),
            ("cache_hits", int(self.cache_hits)),
            ("cache_misses", int(self.cache_misses)),
            ("bytes_from_lower_tiers", int(self.bytes_from_lower_tiers)),
            ("lower_tier_hits", int(self.lower_tier_hits)),
            ("samples_prepared", int(self.samples_prepared)),
            ("samples_delivered", int(self.samples_delivered)),
            ("device_seconds", num(self.device_seconds)),
            ("measured_device_seconds", num(self.measured_device_seconds)),
            ("fetch_busy_seconds", num(self.fetch_busy_seconds)),
            ("fetch_stall_seconds", num(self.fetch_stall_seconds)),
            ("prep_busy_seconds", num(self.prep_busy_seconds)),
            ("prep_stall_seconds", num(self.prep_stall_seconds)),
            ("consumer_wait_seconds", num(self.consumer_wait_seconds)),
            (
                "fetch_thread_busy_seconds",
                nums(self.fetch_thread_busy_seconds.iter().copied()),
            ),
            (
                "fetch_thread_stall_seconds",
                nums(self.fetch_thread_stall_seconds.iter().copied()),
            ),
            (
                "trajectories",
                Value::Array(self.epochs.iter().map(trajectory_value).collect()),
            ),
        ];
        if let Some(tenant) = &self.tenant {
            let block = object([
                ("name", text(&tenant.name)),
                ("quota_bytes", int(tenant.quota_bytes)),
                ("effective_quota_bytes", int(tenant.effective_quota_bytes)),
                ("dram_resident_bytes", int(tenant.dram_resident_bytes)),
                ("resident_bytes", int(tenant.resident_bytes)),
            ]);
            doc.push(("tenant", block));
        }
        compact(&object(doc))
    }
}

fn trajectory_value(e: &EpochTrajectory) -> Value {
    object([
        ("epoch", int(e.epoch)),
        ("bytes_from_cache", int(e.bytes_from_cache)),
        ("bytes_from_disk", int(e.bytes_from_storage)),
        ("bytes_from_remote", int(e.bytes_from_remote)),
        ("cache_hits", int(e.cache_hits)),
        ("cache_misses", int(e.cache_misses)),
        ("bytes_from_lower_tiers", int(e.bytes_from_lower_tiers)),
        ("lower_tier_hits", int(e.lower_tier_hits)),
        ("hit_ratio", num(e.hit_ratio())),
        ("samples", int(e.samples_delivered)),
        ("device_seconds", num(e.device_seconds)),
        ("staging_peak_bytes", int(e.staging_peak_bytes)),
        ("staging_published", int(e.staging_published)),
        ("staging_evicted", int(e.staging_evicted)),
        ("fetch_busy_seconds", num(e.fetch_busy_seconds)),
        ("fetch_stall_seconds", num(e.fetch_stall_seconds)),
        ("prep_busy_seconds", num(e.prep_busy_seconds)),
        ("prep_stall_seconds", num(e.prep_stall_seconds)),
        ("consumer_wait_seconds", num(e.consumer_wait_seconds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::json::{parse, Value};

    fn sample_report() -> LoaderReport {
        LoaderReport {
            mode: "coordinated",
            jobs: 4,
            cache_policy: "MinIO",
            backend: "sata-ssd",
            cache_capacity_bytes: 1000,
            cache_used_bytes: 800,
            cache_resident_items: 8,
            bytes_from_storage: 1000,
            bytes_from_cache: 2000,
            bytes_from_lower_tiers: 0,
            bytes_from_remote: 0,
            samples_prepared: 30,
            samples_delivered: 120,
            cache_hits: 20,
            cache_misses: 10,
            lower_tier_hits: 0,
            device_seconds: 0.5,
            measured_device_seconds: 0.01,
            fetch_busy_seconds: 0.2,
            fetch_stall_seconds: 0.05,
            prep_busy_seconds: 1.5,
            prep_stall_seconds: 0.1,
            consumer_wait_seconds: 0.3,
            fetch_thread_busy_seconds: vec![0.12, 0.08],
            fetch_thread_stall_seconds: vec![0.03, 0.02],
            epochs: vec![
                EpochTrajectory {
                    epoch: 0,
                    bytes_from_storage: 1000,
                    cache_misses: 10,
                    samples_delivered: 60,
                    device_seconds: 0.5,
                    consumer_wait_seconds: 0.25,
                    ..EpochTrajectory::default()
                },
                EpochTrajectory {
                    epoch: 1,
                    bytes_from_cache: 2000,
                    cache_hits: 20,
                    samples_delivered: 60,
                    consumer_wait_seconds: 0.05,
                    ..EpochTrajectory::default()
                },
            ],
            tenant: None,
        }
    }

    #[test]
    fn steady_state_ignores_the_warmup_epoch() {
        let r = sample_report();
        assert!((r.hit_ratio() - 20.0 / 30.0).abs() < 1e-12);
        assert!((r.steady_hit_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(r.steady_storage_bytes(), 0.0);
        assert_eq!(r.steady_device_seconds(), 0.0);
        assert!((r.steady_consumer_wait_seconds() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_through_the_shared_parser() {
        let r = sample_report();
        let doc = parse(&r.to_json()).expect("LoaderReport::to_json must emit valid JSON");
        assert_eq!(doc.get("mode").and_then(Value::as_str), Some("coordinated"));
        assert_eq!(doc.get("jobs").and_then(Value::as_f64), Some(4.0));
        // Structural comparability with SimReport: the same epoch-array keys.
        let disk = doc
            .get("disk_bytes_per_epoch")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(disk.len(), 2);
        assert_eq!(disk[0].as_f64(), Some(1000.0));
        let traj = doc.get("trajectories").and_then(Value::as_array).unwrap();
        assert_eq!(
            traj[1].get("cache_hits").and_then(Value::as_f64),
            Some(20.0)
        );
        // The per-stage timing columns are present at both levels.
        assert_eq!(
            doc.get("prep_busy_seconds").and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(
            traj[0].get("consumer_wait_seconds").and_then(Value::as_f64),
            Some(0.25)
        );
        // Per-fetch-thread arrays split the aggregate fetch timings.
        let busy = doc
            .get("fetch_thread_busy_seconds")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0].as_f64(), Some(0.12));
        let stall = doc
            .get("fetch_thread_stall_seconds")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(stall[1].as_f64(), Some(0.02));
        // Standalone sessions emit no tenant block at all.
        assert!(doc.get("tenant").is_none());
    }

    #[test]
    fn tenant_block_is_emitted_only_when_present() {
        let mut r = sample_report();
        r.tenant = Some(TenantReport {
            name: "job-a".to_string(),
            quota_bytes: 600,
            effective_quota_bytes: 500,
            dram_resident_bytes: 480,
            resident_bytes: 800,
        });
        let doc = parse(&r.to_json()).expect("tenant report must emit valid JSON");
        let tenant = doc.get("tenant").expect("tenant block present");
        assert_eq!(tenant.get("name").and_then(Value::as_str), Some("job-a"));
        assert_eq!(
            tenant.get("quota_bytes").and_then(Value::as_f64),
            Some(600.0)
        );
        assert_eq!(
            tenant.get("effective_quota_bytes").and_then(Value::as_f64),
            Some(500.0)
        );
        assert_eq!(
            tenant.get("dram_resident_bytes").and_then(Value::as_f64),
            Some(480.0)
        );
        assert_eq!(
            tenant.get("resident_bytes").and_then(Value::as_f64),
            Some(800.0)
        );
    }
}
