//! Order statistics for latency reporting.

/// The percentiles a latency tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it before it is reportable.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (interpolated between the middle pair); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks (the common "type 7" definition); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Mean of `values`; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile
/// (nearest-rank).
pub fn beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 99.9% of 10,000 at rank 9,990, not 9,991.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize;
    n - rank.min(n)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
                let higher = TAIL_LADDER.iter().find(|&&q| q > p);
                if let Some(&q) = higher {
                    assert!(beyond(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
                }
            }
        }
    }
}
