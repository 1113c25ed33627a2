//! Per-epoch and per-run metrics reported by the simulator.

use crate::json::{int, Value};
use simkit::{SimTime, StallBreakdown};
use std::ops::AddAssign;

/// The eight per-epoch counts both engines keep: samples, where their bytes
/// came from and how the cache answered.  The simulator's [`EpochMetrics`]
/// and the runtime's `coordl::EpochTrajectory` each embed one, so the
/// `validate` figure row folds predicted and measured epochs with one piece
/// of code and compares them with `==`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochCounts {
    /// Samples delivered.
    pub samples: u64,
    /// Bytes served from the local cache tiers.
    pub bytes_from_cache: u64,
    /// Bytes read from storage.
    pub bytes_from_storage: u64,
    /// Bytes fetched from remote caches (partitioned caching only).
    pub bytes_from_remote: u64,
    /// Of `bytes_from_cache`, the bytes served by cache tiers below DRAM
    /// (the local-SSD level of a tiered cache; zero for a single tier).
    pub bytes_from_lower_tiers: u64,
    /// Cache hits (fetch units), local and remote, summed across every tier
    /// of the cache.
    pub cache_hits: u64,
    /// Cache misses (fetch units): reads that fell through to storage.
    pub cache_misses: u64,
    /// Of `cache_hits`, the hits served by cache tiers below DRAM.
    pub lower_tier_hits: u64,
}

impl AddAssign for EpochCounts {
    fn add_assign(&mut self, other: EpochCounts) {
        *self = self.zip_with(other, |a, b| a + b);
    }
}

impl EpochCounts {
    /// `f` of each count of `self` and the same count of `other`.
    fn zip_with(self, other: EpochCounts, f: impl Fn(u64, u64) -> u64) -> EpochCounts {
        EpochCounts {
            samples: f(self.samples, other.samples),
            bytes_from_cache: f(self.bytes_from_cache, other.bytes_from_cache),
            bytes_from_storage: f(self.bytes_from_storage, other.bytes_from_storage),
            bytes_from_remote: f(self.bytes_from_remote, other.bytes_from_remote),
            bytes_from_lower_tiers: f(self.bytes_from_lower_tiers, other.bytes_from_lower_tiers),
            cache_hits: f(self.cache_hits, other.cache_hits),
            cache_misses: f(self.cache_misses, other.cache_misses),
            lower_tier_hits: f(self.lower_tier_hits, other.lower_tier_hits),
        }
    }

    /// The epoch delta of cumulative counters: what `self` counted since
    /// `earlier`, a snapshot of the same counters.
    pub fn since(&self, earlier: &EpochCounts) -> EpochCounts {
        self.zip_with(*earlier, |now, then| now - then)
    }

    /// `count` over the fetch units looked up (0 when there were none).
    fn per_lookup(&self, count: u64) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        }
    }

    /// Cache hit ratio over fetch units.
    pub fn hit_ratio(&self) -> f64 {
        self.per_lookup(self.cache_hits)
    }

    /// Cache miss ratio over fetch units.
    pub fn miss_ratio(&self) -> f64 {
        self.per_lookup(self.cache_misses)
    }

    /// Hit ratio of the DRAM (topmost) cache tier over fetch units.
    pub fn dram_hit_ratio(&self) -> f64 {
        self.per_lookup(self.cache_hits - self.lower_tier_hits)
    }

    /// Hit ratio of the cache tiers below DRAM over fetch units (zero on
    /// single-tier runs).
    pub fn lower_tier_hit_ratio(&self) -> f64 {
        self.per_lookup(self.lower_tier_hits)
    }

    /// The counts as the per-epoch fields of both engines' JSON documents
    /// (`SimReport::to_json`, `coordl::LoaderReport::to_json`).
    pub fn json_fields(&self) -> [(&'static str, Value); 8] {
        [
            ("samples", int(self.samples)),
            ("bytes_from_cache", int(self.bytes_from_cache)),
            ("bytes_from_disk", int(self.bytes_from_storage)),
            ("bytes_from_remote", int(self.bytes_from_remote)),
            ("cache_hits", int(self.cache_hits)),
            ("cache_misses", int(self.cache_misses)),
            ("bytes_from_lower_tiers", int(self.bytes_from_lower_tiers)),
            ("lower_tier_hits", int(self.lower_tier_hits)),
        ]
    }
}

/// Everything measured for one epoch of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0 = warm-up epoch with a cold cache).
    pub epoch: u64,
    /// Wall-clock / stall breakdown for the epoch.
    pub breakdown: StallBreakdown,
    /// Samples processed, bytes by source, cache hits and misses.
    pub counts: EpochCounts,
    /// Disk I/O over time: `(window_start_seconds, bytes_read_in_window)`.
    pub io_timeline: Vec<(f64, f64)>,
}

impl EpochMetrics {
    /// Epoch duration in seconds.
    pub fn epoch_seconds(&self) -> f64 {
        self.breakdown.epoch_time.as_secs()
    }

    /// Training throughput in samples per second.
    pub fn samples_per_sec(&self) -> f64 {
        if self.breakdown.epoch_time.is_zero() {
            0.0
        } else {
            self.counts.samples as f64 / self.epoch_seconds()
        }
    }

    /// Fraction of epoch time spent stalled on I/O.
    pub fn fetch_stall_fraction(&self) -> f64 {
        self.breakdown.fetch_stall_fraction()
    }

    /// Fraction of epoch time spent stalled on prep.
    pub fn prep_stall_fraction(&self) -> f64 {
        self.breakdown.prep_stall_fraction()
    }
}

/// The result of simulating several epochs of one job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Per-epoch metrics, in epoch order.
    pub epochs: Vec<EpochMetrics>,
}

impl RunResult {
    /// Metrics of the warm-up (first) epoch.
    pub fn warmup(&self) -> &EpochMetrics {
        &self.epochs[0]
    }

    /// Average steady-state epoch metrics: the paper reports "the average
    /// epoch time ignoring the first epoch" (§3.1). Falls back to the single
    /// epoch when only one was simulated.
    pub fn steady_state(&self) -> EpochMetrics {
        assert!(!self.epochs.is_empty(), "no epochs simulated");
        let tail: &[EpochMetrics] = if self.epochs.len() > 1 {
            &self.epochs[1..]
        } else {
            &self.epochs[..]
        };
        let n = tail.len() as f64;
        let avg_time = tail.iter().map(|e| e.epoch_seconds()).sum::<f64>() / n;
        let avg = |f: &dyn Fn(&EpochMetrics) -> f64| tail.iter().map(f).sum::<f64>() / n;
        let mut out = tail[tail.len() - 1].clone();
        out.breakdown.epoch_time = SimTime::from_secs(avg_time);
        out.breakdown.compute_time =
            SimTime::from_secs(avg(&|e| e.breakdown.compute_time.as_secs()));
        out.breakdown.fetch_stall = SimTime::from_secs(avg(&|e| e.breakdown.fetch_stall.as_secs()));
        out.breakdown.prep_stall = SimTime::from_secs(avg(&|e| e.breakdown.prep_stall.as_secs()));
        let mut total = EpochCounts::default();
        for e in tail {
            total += e.counts;
        }
        // An integer mean, truncated; the `validate` row folds the exact
        // per-epoch counts instead.
        let epochs = tail.len() as u64;
        out.counts = total.zip_with(total, |sum, _| sum / epochs);
        out
    }

    /// Steady-state throughput in samples/second.
    pub fn steady_samples_per_sec(&self) -> f64 {
        self.steady_state().samples_per_sec()
    }

    /// Speedup of `self` over `baseline` in steady-state throughput.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        let base = baseline.steady_samples_per_sec();
        if base == 0.0 {
            f64::INFINITY
        } else {
            self.steady_samples_per_sec() / base
        }
    }

    /// Total bytes read from disk across all epochs.
    pub fn total_disk_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.counts.bytes_from_storage)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    fn epoch(epoch: u64, time: f64, samples: u64, disk: u64) -> EpochMetrics {
        EpochMetrics {
            epoch,
            breakdown: StallBreakdown {
                epoch_time: SimTime::from_secs(time),
                compute_time: SimTime::from_secs(time * 0.6),
                fetch_stall: SimTime::from_secs(time * 0.3),
                prep_stall: SimTime::from_secs(time * 0.1),
                iterations: 10,
            },
            counts: EpochCounts {
                samples,
                bytes_from_cache: 100,
                bytes_from_storage: disk,
                cache_hits: 50,
                cache_misses: 50,
                ..EpochCounts::default()
            },
            io_timeline: Vec::new(),
        }
    }

    #[test]
    fn samples_per_sec_and_miss_ratio() {
        let e = epoch(0, 10.0, 1000, 0);
        assert!((e.samples_per_sec() - 100.0).abs() < 1e-9);
        assert!((e.counts.miss_ratio() - 0.5).abs() < 1e-12);
        assert!((e.fetch_stall_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn steady_state_ignores_warmup() {
        let run = RunResult {
            epochs: vec![
                epoch(0, 100.0, 1000, 999),
                epoch(1, 10.0, 1000, 5),
                epoch(2, 12.0, 1000, 8),
            ],
        };
        let ss = run.steady_state();
        assert!((ss.epoch_seconds() - 11.0).abs() < 1e-9);
        assert_eq!(ss.counts.bytes_from_storage, 6, "a truncated integer mean");
        assert_eq!(run.total_disk_bytes(), 1012);
    }

    #[test]
    fn counts_add_up_and_an_epoch_is_the_delta_of_two_snapshots() {
        let epoch = EpochCounts {
            samples: 64,
            bytes_from_cache: 3_000,
            bytes_from_storage: 5_000,
            bytes_from_remote: 700,
            bytes_from_lower_tiers: 1_000,
            cache_hits: 40,
            cache_misses: 24,
            lower_tier_hits: 10,
        };
        let mut cumulative = EpochCounts::default();
        cumulative += epoch;
        let start = cumulative;
        cumulative += epoch;
        cumulative += epoch;
        assert_eq!(cumulative.samples, 3 * 64);
        assert_eq!(cumulative.lower_tier_hits, 3 * 10);
        let two = cumulative.since(&start);
        assert_eq!(two.since(&epoch), epoch, "every count moves alike");
        assert_eq!(two.bytes_from_remote, 1_400);
        assert_eq!(two.cache_misses, 48);
        assert_eq!(
            EpochCounts::default().since(&EpochCounts::default()),
            EpochCounts::default()
        );
        // The ratios are over fetch units looked up, and zero without any.
        assert!((two.hit_ratio() - 40.0 / 64.0).abs() < 1e-12);
        assert!((two.dram_hit_ratio() - 30.0 / 64.0).abs() < 1e-12);
        assert!((two.lower_tier_hit_ratio() - 10.0 / 64.0).abs() < 1e-12);
        assert_eq!(EpochCounts::default().miss_ratio(), 0.0);
    }

    #[test]
    fn speedup_is_relative_throughput() {
        let fast = RunResult {
            epochs: vec![epoch(0, 10.0, 1000, 0), epoch(1, 10.0, 1000, 0)],
        };
        let slow = RunResult {
            epochs: vec![epoch(0, 20.0, 1000, 0), epoch(1, 20.0, 1000, 0)],
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn single_epoch_run_uses_itself_as_steady_state() {
        let run = RunResult {
            epochs: vec![epoch(0, 10.0, 100, 1)],
        };
        assert!((run.steady_state().epoch_seconds() - 10.0).abs() < 1e-9);
    }
}
