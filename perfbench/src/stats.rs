//! Sample statistics with the benchmark's reporting rules.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a guess, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `samples` (sorted in place), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize - 1;
    let rank = rank.min(n - 1);
    if n - 1 - rank < MIN_BEYOND {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[rank])
}

/// Like [`percentile`] but for per-layer figures, where a short sample
/// reads as `0` and the sample count printed beside it tells why.
pub fn percentile_or_zero(samples: &mut [f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// Largest sample, `0` when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Median of a small set of repeated measurements (no tail rule: used
/// for the median of a handful of set-up times or window rates).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Ratio that reads `0` instead of dividing by zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 (1-based) leaves exactly 10 above.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(990.0));
        // 999 samples: only 9 lie beyond the 99th percentile.
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), None);
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(10.0));
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), None);
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(500.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
