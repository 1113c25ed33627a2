//! Percentiles and time-series recording.

use crate::SimTime;

/// Percentile of a sample set using nearest-rank interpolation.
///
/// `q` must be in `[0, 1]`. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in percentile input"));
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank])
}

/// A time series of (time, value) points, used to record quantities such as
/// the disk-read rate over the course of an epoch (paper Figure 11) or memory
/// utilisation over time (Figure 20).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a point.
    ///
    /// Points do not need to arrive in time order (several logical clocks may
    /// feed one series, e.g. concurrent jobs sharing a storage device);
    /// [`TimeSeries::binned_sum`] buckets by timestamp regardless of insertion
    /// order.
    pub fn push(&mut self, t: SimTime, value: f64) {
        self.points.push((t, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Re-bucket the series into fixed-width time bins of `bin` seconds,
    /// summing the values that fall into each bin. Returns `(bin_start, sum)`
    /// pairs covering `[0, horizon]`.
    ///
    /// This is how the per-request disk-read log is turned into an
    /// "MB read per 10-second window" curve.
    pub fn binned_sum(&self, bin: SimTime, horizon: SimTime) -> Vec<(SimTime, f64)> {
        assert!(!bin.is_zero(), "bin width must be positive");
        let nbins = (horizon.as_secs() / bin.as_secs()).ceil() as usize;
        let mut out: Vec<(SimTime, f64)> =
            (0..nbins.max(1)).map(|i| (bin * i as f64, 0.0)).collect();
        for &(t, v) in &self.points {
            let idx = ((t.as_secs() / bin.as_secs()) as usize).min(out.len().saturating_sub(1));
            out[idx].1 += v;
        }
        out
    }

    /// Drop every recorded point, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.points.clear();
    }

    /// Sum of all values in the series.
    pub fn total(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn timeseries_binning() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0.5), 10.0);
        ts.push(SimTime::from_secs(1.5), 20.0);
        ts.push(SimTime::from_secs(1.9), 5.0);
        ts.push(SimTime::from_secs(3.0), 7.0);
        let bins = ts.binned_sum(SimTime::from_secs(1.0), SimTime::from_secs(4.0));
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0].1, 10.0);
        assert_eq!(bins[1].1, 25.0);
        assert_eq!(bins[2].1, 0.0);
        assert_eq!(bins[3].1, 7.0);
        assert!((ts.total() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_points_beyond_horizon_clamp_to_last_bin() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(10.0), 3.0);
        let bins = ts.binned_sum(SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[1].1, 3.0);
    }
}
