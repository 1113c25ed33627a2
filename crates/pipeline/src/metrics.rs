//! Per-epoch and per-run metrics reported by the simulator.

use simkit::{SimTime, StallBreakdown};

/// Everything measured for one epoch of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0 = warm-up epoch with a cold cache).
    pub epoch: u64,
    /// Wall-clock / stall breakdown for the epoch.
    pub breakdown: StallBreakdown,
    /// Samples processed.
    pub samples: u64,
    /// Bytes served from the local software cache.
    pub bytes_from_cache: u64,
    /// Bytes read from the local storage device.
    pub bytes_from_disk: u64,
    /// Bytes fetched from remote caches (partitioned caching only).
    pub bytes_from_remote: u64,
    /// Cache hits (fetch units), summed across every tier of the node's
    /// cache chain.
    pub cache_hits: u64,
    /// Cache misses (fetch units): reads that fell through to the device.
    pub cache_misses: u64,
    /// Of `bytes_from_cache`, the bytes served by cache tiers below DRAM
    /// (the local-SSD spill tier of a `CacheSpec::Tiered` run; zero on
    /// single-tier runs).
    pub bytes_from_lower_tiers: u64,
    /// Of `cache_hits`, the hits served by cache tiers below DRAM.
    pub lower_tier_hits: u64,
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
            self.samples as f64 / self.epoch_seconds()
        }
    }

    /// Cache miss ratio over fetch units.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_misses as f64 / total as f64
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

    /// Hit ratio of the DRAM (topmost) cache tier over fetch units.
    pub fn dram_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits - self.lower_tier_hits) as f64 / total as f64
        }
    }

    /// Hit ratio of the cache tiers below DRAM over fetch units (zero on
    /// single-tier runs).
    pub fn lower_tier_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.lower_tier_hits as f64 / total as f64
        }
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
        out.samples = (avg(&|e| e.samples as f64)) as u64;
        out.bytes_from_cache = avg(&|e| e.bytes_from_cache as f64) as u64;
        out.bytes_from_disk = avg(&|e| e.bytes_from_disk as f64) as u64;
        out.bytes_from_remote = avg(&|e| e.bytes_from_remote as f64) as u64;
        out.cache_hits = avg(&|e| e.cache_hits as f64) as u64;
        out.cache_misses = avg(&|e| e.cache_misses as f64) as u64;
        out.bytes_from_lower_tiers = avg(&|e| e.bytes_from_lower_tiers as f64) as u64;
        out.lower_tier_hits = avg(&|e| e.lower_tier_hits as f64) as u64;
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
        self.epochs.iter().map(|e| e.bytes_from_disk).sum()
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
            samples,
            bytes_from_cache: 100,
            bytes_from_disk: disk,
            bytes_from_remote: 0,
            cache_hits: 50,
            cache_misses: 50,
            bytes_from_lower_tiers: 0,
            lower_tier_hits: 0,
            io_timeline: Vec::new(),
        }
    }

    #[test]
    fn samples_per_sec_and_miss_ratio() {
        let e = epoch(0, 10.0, 1000, 0);
        assert!((e.samples_per_sec() - 100.0).abs() < 1e-9);
        assert!((e.miss_ratio() - 0.5).abs() < 1e-12);
        assert!((e.fetch_stall_fraction() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn steady_state_ignores_warmup() {
        let run = RunResult {
            epochs: vec![
                epoch(0, 100.0, 1000, 999),
                epoch(1, 10.0, 1000, 5),
                epoch(2, 12.0, 1000, 7),
            ],
        };
        let ss = run.steady_state();
        assert!((ss.epoch_seconds() - 11.0).abs() < 1e-9);
        assert_eq!(ss.bytes_from_disk, 6);
        assert_eq!(run.total_disk_bytes(), 1011);
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
