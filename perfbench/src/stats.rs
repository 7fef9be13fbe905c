//! Order statistics for latency samples and run-to-run spread.

/// Percentiles the tail latency may be reported at, highest first. p99.9
/// is left out: on a shared host the top 0.1% of sub-millisecond jobs are
/// scheduler preemptions, not job work, and do not repeat run to run.
const TAIL_CANDIDATES: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its rank, as `(percentile, value)`; `None` when
/// there are too few samples for any candidate.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
///
/// # Panics
///
/// Panics with fewer than two values, as Python raises.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // May be negative when the sample is tiny, exactly as in Python.
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a metric is judged by.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.9), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Odd count: p50 is the true middle.
        assert_eq!(percentile(&ramp(21), 50.0), 11.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 is rank 10, ten beyond it.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 99 samples: p90 is rank 90, nine beyond → falls back to p50.
        assert_eq!(tail(&ramp(99)), Some((50.0, 50.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(25_000)), Some((99.0, 24_750.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // |x - 3| = 2,1,0,1,97 → median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        assert!((iqr_share(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }
}
