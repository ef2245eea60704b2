//! Cheap fixed-footprint latency accounting for the issuing hot path.
//!
//! A [`LatencyHistogram`] is 64 power-of-two buckets of nanosecond
//! costs: recording is a `leading_zeros` and an increment (no allocation,
//! no locking — each worker owns one and they are merged at shutdown),
//! and quantiles are read back with sub-bucket linear interpolation,
//! which is plenty of resolution for p50/p99 reporting where the answer
//! spans decades, not percent.
//!
//! The histogram itself now lives in [`uuidp_obs`] (as
//! [`uuidp_obs::Histogram`], with an atomic sibling for shared
//! recording) so the whole stack shares one streaming implementation;
//! this module re-exports it under its historical service-side name.

/// Power-of-two-bucketed nanosecond histogram — the shared streaming
/// implementation from the observability core, re-exported under its
/// historical service name.
pub use uuidp_obs::Histogram as LatencyHistogram;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        assert!((128.0..=512.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 65_536.0, "p99 = {p99}");
        assert!(h.mean_ns() > 0.0);
        assert_eq!(h.max_ns(), 100_000);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(10);
        b.record_ns(1000);
        b.record_ns(0); // bucket 0 edge case
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 1000);
    }

    #[test]
    fn empty_window_percentiles_are_finite_zeros() {
        // A chaos-heavy run can end with zero recorded samples; every
        // derived number must stay finite (no NaN in reports).
        let h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile_ns(q), 0.0, "q={q}");
        }
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn single_sample_windows_never_produce_nan() {
        let mut h = LatencyHistogram::new();
        h.record_ns(4096);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = h.quantile_ns(q);
            assert!(v.is_finite(), "q={q} -> {v}");
            assert!((4096.0..=8192.0).contains(&v), "q={q} -> {v}");
        }
        assert!((h.mean_ns() - 4096.0).abs() < 1e-9);
    }
}
