//! Tail-latency sampling: keep the worst leases, fetch their stories.
//!
//! A [`TailSampler`] is a tiny bounded top-K structure fed from the
//! request hot path: workers `offer` each lease's measured latency and
//! correlation id, and only offers above the threshold that also beat
//! the current K-th worst are kept — O(K) memory, no allocation for
//! the common (fast) case beyond the retained set.
//!
//! When `offer` admits a lease, the driver asks the lease's node for
//! its span events over the wire (`TimelineReq`, protocol v2) straight
//! away, while the node's trace ring still holds them, and attaches the
//! assembled client→demux→persist→reply timeline to the sample
//! ([`TailSampler::set_timeline`]), so stress and fleet reports can
//! print end-to-end stories for the worst offenders instead of a bare
//! p999 number ([`render_slow_leases`]).

/// One sampled slow lease, with its fetched timeline once assembled.
#[derive(Debug, Clone)]
pub struct SlowLease {
    /// Correlation id of the lease frame (0 when the caller had none to
    /// record — such samples keep latency but no story).
    pub corr: u64,
    /// Tenant that requested the lease.
    pub tenant: u64,
    /// Node index the lease landed on (0 for single-node runs).
    pub node: usize,
    /// Client-observed end-to-end latency.
    pub latency_ns: u64,
    /// Rendered span timeline, filled in by a `TimelineReq` fetch once
    /// the sample is admitted; empty until then (or when the node's
    /// ring no longer held the span).
    pub timeline: String,
}

/// Bounded worst-K latency sampler.
#[derive(Debug, Clone)]
pub struct TailSampler {
    cap: usize,
    threshold_ns: u64,
    /// Kept sorted worst-first, at most `cap` entries.
    worst: Vec<SlowLease>,
}

impl TailSampler {
    /// Keeps at most `cap` leases at or above `threshold_ns`. A zero
    /// threshold keeps the `cap` worst regardless of magnitude.
    pub fn new(cap: usize, threshold_ns: u64) -> TailSampler {
        TailSampler {
            cap: cap.max(1),
            threshold_ns,
            worst: Vec::new(),
        }
    }

    /// Offers one lease observation; returns true when retained.
    pub fn offer(&mut self, corr: u64, tenant: u64, node: usize, latency_ns: u64) -> bool {
        if latency_ns < self.threshold_ns {
            return false;
        }
        if self.worst.len() == self.cap
            && latency_ns <= self.worst.last().map(|s| s.latency_ns).unwrap_or(0)
        {
            return false;
        }
        let at = self.worst.partition_point(|s| s.latency_ns >= latency_ns);
        self.worst.insert(
            at,
            SlowLease {
                corr,
                tenant,
                node,
                latency_ns,
                timeline: String::new(),
            },
        );
        self.worst.truncate(self.cap);
        true
    }

    /// Attaches `timeline` to the retained sample `corr`; a no-op once
    /// worse leases have evicted it.
    pub fn set_timeline(&mut self, corr: u64, timeline: String) {
        if let Some(sample) = self.worst.iter_mut().find(|s| s.corr == corr) {
            sample.timeline = timeline;
        }
    }

    /// Retained samples, worst first.
    pub fn worst(&self) -> &[SlowLease] {
        &self.worst
    }

    /// True when nothing cleared the threshold.
    pub fn is_empty(&self) -> bool {
        self.worst.is_empty()
    }
}

/// The `slow leases:` block of a stress or fleet report: the three
/// worst of `slow`, each with its indented timeline. Empty when `slow`
/// is.
pub fn render_slow_leases(slow: &[SlowLease]) -> String {
    if slow.is_empty() {
        return String::new();
    }
    let mut out = String::from("slow leases:\n");
    for lease in slow.iter().take(3) {
        out.push_str(&format!(
            "  {:.3} ms corr={} tenant={} node={}\n",
            lease.latency_ns as f64 / 1e6,
            lease.corr,
            lease.tenant,
            lease.node,
        ));
        for line in lease.timeline.lines() {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_worst_sorted() {
        let mut t = TailSampler::new(3, 0);
        for (corr, ns) in [(1, 50), (2, 500), (3, 10), (4, 900), (5, 60)] {
            t.offer(corr, 7, 0, ns);
        }
        let kept: Vec<(u64, u64)> = t.worst().iter().map(|s| (s.corr, s.latency_ns)).collect();
        assert_eq!(kept, vec![(4, 900), (2, 500), (5, 60)]);
    }

    #[test]
    fn timelines_attach_to_retained_samples_only() {
        let mut t = TailSampler::new(2, 0);
        t.offer(1, 7, 0, 100);
        t.offer(2, 7, 0, 200);
        t.set_timeline(1, "span corr=1".into());
        t.offer(3, 7, 0, 300);
        // corr 1 was evicted: attaching to it changes nothing.
        t.set_timeline(1, "span corr=1 again".into());
        t.set_timeline(3, "span corr=3".into());
        let kept: Vec<(u64, &str)> = t
            .worst()
            .iter()
            .map(|s| (s.corr, s.timeline.as_str()))
            .collect();
        assert_eq!(kept, vec![(3, "span corr=3"), (2, "")]);
    }

    #[test]
    fn threshold_filters_fast_leases() {
        let mut t = TailSampler::new(8, 100);
        assert!(!t.offer(1, 0, 0, 99));
        assert!(t.offer(2, 0, 0, 100));
        assert_eq!(t.worst().len(), 1);
    }

    #[test]
    fn slow_lease_block_lists_the_three_worst_with_timelines() {
        assert_eq!(render_slow_leases(&[]), "");
        let mut t = TailSampler::new(4, 0);
        for corr in 1..=4 {
            t.offer(corr, 9, 1, corr * 1_000_000);
        }
        let mut slow = t.worst().to_vec();
        slow[0].timeline = "span corr=4\nreply-sent".into();
        let text = render_slow_leases(&slow);
        assert!(text.starts_with("slow leases:\n  4.000 ms corr=4 tenant=9 node=1\n"));
        assert!(text.contains("    span corr=4\n    reply-sent\n"), "{text}");
        assert!(
            text.contains("corr=2") && !text.contains("corr=1 "),
            "{text}"
        );
    }
}
