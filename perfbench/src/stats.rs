//! Order statistics over latency samples.
//!
//! A failed operation enters a latency sample as [`FAILED`], which sorts
//! above every real duration: it counts as missing any latency limit, so
//! failures push the upper percentiles up instead of vanishing from them.

/// The latency sample of a failed operation: +∞ for every percentile.
pub const FAILED: u64 = u64::MAX;

/// Nearest-rank percentile `q ∈ [0, 1]` of `samples` (sorted in place).
///
/// Returns `f64::INFINITY` when the rank lands on a failed operation and
/// `None` for an empty sample.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    let v = samples[rank.clamp(1, samples.len()) - 1];
    Some(if v == FAILED { f64::INFINITY } else { v as f64 })
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values`; `None` when empty.
pub fn quantile(mut values: Vec<f64>, q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// [`median`] of integer samples, as `f64`.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut v, 1.0), Some(100.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        let mut odd = vec![30, 10, 20];
        assert_eq!(percentile(&mut odd, 0.5), Some(20.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 98 fast operations and 2 failures: p50 is untouched, p99 lands
        // on a failure and reads +∞.
        let mut v: Vec<u64> = (1..=98).collect();
        v.extend([FAILED, FAILED]);
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 0.98), Some(98.0));
        assert_eq!(percentile(&mut v, 0.99), Some(f64::INFINITY));
        // A majority of failures moves the median itself.
        let mut mostly_failed = vec![5, FAILED, FAILED];
        assert_eq!(percentile(&mut mostly_failed, 0.5), Some(f64::INFINITY));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_u64(&[7, 1, 9]), Some(7.0));
    }

    #[test]
    fn float_quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(v.clone(), 0.1), Some(1.0));
        assert_eq!(quantile(v.clone(), 0.9), Some(9.0));
        assert_eq!(quantile(v, 0.0), Some(1.0));
        assert_eq!(quantile(vec![f64::INFINITY, 2.0], 1.0), Some(f64::INFINITY));
        assert_eq!(quantile(Vec::new(), 0.5), None);
    }
}
