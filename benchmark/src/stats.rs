//! Order statistics used for every reported number: medians, the highest
//! percentile a sample supports, pooled medians across passes, and the
//! quartile spread the benchmark's bounds are calibrated against.

/// Sort ascending; NaNs (never produced by the harness) sort last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    values
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending sample; 0 for an
/// empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` values supports: p99 from 1000
/// samples on, otherwise the highest percentile that still has ten samples
/// beyond it, and never below the median.
pub fn tail_level(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n > 20 {
        1.0 - 10.0 / n as f64
    } else {
        0.5
    }
}

/// The value at [`tail_level`] of `values`.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    percentile(&v, tail_level(v.len()))
}

/// Median of all values of all `groups` pooled together (per-epoch rates of
/// several interleaved passes).
pub fn pooled_median(groups: &[Vec<f64>]) -> f64 {
    let pooled: Vec<f64> = groups.iter().flatten().copied().collect();
    median(&pooled)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method), or `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract compares against each metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pooled_median_ignores_pass_boundaries() {
        // Per-pass medians are 1, 5 and 9 (median 5); pooling the epochs
        // gives the median of all nine values instead.
        let passes = vec![
            vec![1.0, 1.0, 1.0],
            vec![5.0, 5.0, 2.0],
            vec![9.0, 9.0, 2.0],
        ];
        assert_eq!(pooled_median(&passes), 2.0);
        assert_eq!(pooled_median(&[vec![], vec![7.0]]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(5000), 0.99);
        // 200 samples: the highest percentile with ten samples beyond it.
        assert!((tail_level(200) - 0.95).abs() < 1e-12);
        assert!((tail_level(999) - (1.0 - 10.0 / 999.0)).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_level(20), 0.5);
        assert_eq!(tail_level(0), 0.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 1..=200 is 190: exactly ten larger samples remain.
        assert_eq!(tail(&v), 190.0);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), 1980.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!(quartiles(&[1.0]).is_none());
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }
}
