//! Constant-memory windowed time-series over registry snapshots.
//!
//! A [`TimeSeries`] keeps a bounded ring of the most recent windows,
//! each named by a window index the caller supplies (a poll, a scrape
//! or a request tick). Each ingested [`Snapshot`] is diffed against
//! the previous sample:
//!
//! * **counters** store per-window *deltas* — a sample that goes
//!   backwards is a counter reset (the process restarted with a fresh
//!   registry), and the new value is taken as a fresh-from-zero delta,
//!   so a restart produces a rate *dip*, never a negative rate;
//! * **gauges** store the *last* value observed in the window;
//! * **histograms** store per-window delta histograms (via
//!   [`Histogram::delta_since`]), so windowed quantiles reflect only
//!   the samples recorded inside that window.
//!
//! Memory is constant: `capacity` windows, each bounded by the number
//! of metric families — nothing grows with run length. Windows
//! [`merge`](Window::merge) commutatively and associatively (counters
//! add, gauges add, histograms merge), which is what lets per-node
//! series collapse into a cluster series in any arrival order; the
//! proptests in `tests/proptest_obs.rs` pin that invariance.

use std::collections::{BTreeMap, VecDeque};

use crate::registry::{Histogram, MetricValue, Snapshot};

/// One window of counter deltas, gauge last-values, and delta
/// histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    /// The window index every sample inside it was ingested at.
    pub index: u64,
    /// Per-family counter increments observed during the window.
    pub counters: BTreeMap<String, u64>,
    /// Per-family last gauge value observed during the window. A
    /// merged (cluster) window holds the *sum* across members.
    pub gauges: BTreeMap<String, i64>,
    /// Per-family histogram of samples recorded during the window.
    pub histograms: BTreeMap<String, Histogram>,
    /// Counter resets detected while ingesting this window.
    pub resets: u64,
}

impl Window {
    /// An empty window at `index` — the accumulator for cluster
    /// assembly ([`Window::merge`] over per-node windows).
    pub fn new(index: u64) -> Window {
        Window {
            index,
            ..Window::default()
        }
    }

    /// Folds `other` into `self`: counters add, gauges add (a cluster
    /// gauge is the sum of its members' levels), histograms merge,
    /// resets add. Commutative and associative up to f-p-free integer
    /// arithmetic, so cluster assembly order cannot change the result.
    pub fn merge(&mut self, other: &Window) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.resets += other.resets;
    }

    /// The counter delta for `name` in this window (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The last gauge value for `name` in this window.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The delta histogram for `name` in this window.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// Bounded ring of windows fed from registry snapshots.
///
/// The series never reads a clock: callers pass each sample's window
/// index, a poll count (`uuidp top`, the stress scraper) or a
/// deterministic request tick (fleet runs), keeping same-seed runs
/// bit-identical.
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    windows: VecDeque<Window>,
    /// Previous absolute sample per family, for delta computation.
    last: BTreeMap<String, MetricValue>,
    resets_total: u64,
}

impl TimeSeries {
    /// A series of `capacity` windows, clamped to at least 1.
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            last: BTreeMap::new(),
            resets_total: 0,
        }
    }

    /// Total counter resets detected over the series' lifetime.
    pub fn resets_total(&self) -> u64 {
        self.resets_total
    }

    /// Ingests one absolute snapshot into window `index`. Snapshots
    /// ingested at one index accumulate their deltas; out-of-order
    /// samples (an older index than the newest window's) are ignored
    /// rather than smeared into the wrong window.
    pub fn ingest(&mut self, index: u64, snap: &Snapshot) {
        if let Some(newest) = self.windows.back() {
            if index < newest.index {
                return;
            }
        }
        if self.windows.back().map(|w| w.index) != Some(index) {
            self.windows.push_back(Window {
                index,
                ..Window::default()
            });
            while self.windows.len() > self.capacity {
                self.windows.pop_front();
            }
        }
        let window = self.windows.back_mut().expect("window just ensured");
        for (name, value) in &snap.metrics {
            match (value, self.last.get(name)) {
                (MetricValue::Counter(now), prev) => {
                    let then = match prev {
                        Some(MetricValue::Counter(v)) => *v,
                        _ => 0,
                    };
                    let delta = if *now < then {
                        // Reset: the process restarted and the counter
                        // began again from zero — the whole new value
                        // is this window's increment.
                        window.resets += 1;
                        self.resets_total += 1;
                        *now
                    } else {
                        *now - then
                    };
                    *window.counters.entry(name.clone()).or_insert(0) += delta;
                }
                (MetricValue::Gauge(v), _) => {
                    window.gauges.insert(name.clone(), *v);
                }
                (MetricValue::Histogram(now), prev) => {
                    let delta = match prev {
                        Some(MetricValue::Histogram(then)) => {
                            if now.count() < then.count() {
                                window.resets += 1;
                                self.resets_total += 1;
                            }
                            now.delta_since(then)
                        }
                        _ => (**now).clone(),
                    };
                    if delta.count() > 0 {
                        window
                            .histograms
                            .entry(name.clone())
                            .or_default()
                            .merge(&delta);
                    }
                }
            }
            self.last.insert(name.clone(), value.clone());
        }
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter()
    }

    /// The most recent window, if any sample has been ingested.
    pub fn latest(&self) -> Option<&Window> {
        self.windows.back()
    }

    /// The retained window with exactly this index, if present.
    pub fn window_at(&self, index: u64) -> Option<&Window> {
        self.windows.iter().rev().find(|w| w.index == index)
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Counter increments per window, averaged over the most recent
    /// `lookback` retained windows.
    pub fn rate(&self, name: &str, lookback: usize) -> f64 {
        let lookback = lookback.max(1).min(self.windows.len());
        if lookback == 0 {
            return 0.0;
        }
        let total: u64 = self
            .windows
            .iter()
            .rev()
            .take(lookback)
            .map(|w| w.counter(name))
            .sum();
        total as f64 / lookback as f64
    }

    /// The `q`-quantile of `name`'s samples over the most recent
    /// `lookback` windows, merging their delta histograms. `None`
    /// when no window holds samples for the family.
    pub fn quantile_ns(&self, name: &str, lookback: usize, q: f64) -> Option<f64> {
        let lookback = lookback.max(1);
        let mut merged = Histogram::new();
        for w in self.windows.iter().rev().take(lookback) {
            if let Some(h) = w.histogram(name) {
                merged.merge(h);
            }
        }
        if merged.count() == 0 {
            None
        } else {
            Some(merged.quantile_ns(q))
        }
    }

    /// The most recent gauge value for `name` across retained windows.
    pub fn gauge_last(&self, name: &str) -> Option<i64> {
        self.windows.iter().rev().find_map(|w| w.gauge(name))
    }

    /// A unicode sparkline of `name`'s per-window counter deltas over
    /// the most recent `width` windows, oldest left. Scales to the
    /// visible maximum; an all-zero history renders as flat baseline.
    pub fn sparkline(&self, name: &str, width: usize) -> String {
        const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let take = width.max(1).min(self.windows.len());
        let deltas: Vec<u64> = self
            .windows
            .iter()
            .skip(self.windows.len() - take)
            .map(|w| w.counter(name))
            .collect();
        let max = deltas.iter().copied().max().unwrap_or(0);
        deltas
            .iter()
            .map(|&d| {
                if max == 0 {
                    RAMP[0]
                } else {
                    RAMP[((d as u128 * (RAMP.len() as u128 - 1)).div_ceil(max as u128)) as usize]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snap(leases: u64, inflight: i64, lat: &[u64]) -> Snapshot {
        let r = Registry::new();
        r.counter("uuidp_leases_total").add(leases);
        r.gauge("uuidp_inflight").set(inflight);
        let h = r.histogram("uuidp_lease_latency_ns");
        for &ns in lat {
            h.record_ns(ns);
        }
        r.snapshot()
    }

    #[test]
    fn deltas_accumulate_within_a_window_and_split_across_windows() {
        let mut ts = TimeSeries::new(8);
        ts.ingest(0, &snap(10, 3, &[50]));
        ts.ingest(0, &snap(25, 5, &[50, 60]));
        ts.ingest(1, &snap(40, 2, &[50, 60, 70]));
        assert_eq!(ts.len(), 2);
        let w0 = ts.window_at(0).unwrap();
        assert_eq!(w0.counter("uuidp_leases_total"), 25, "10 + (25-10)");
        assert_eq!(w0.gauge("uuidp_inflight"), Some(5), "last value wins");
        assert_eq!(w0.histogram("uuidp_lease_latency_ns").unwrap().count(), 2);
        let w1 = ts.window_at(1).unwrap();
        assert_eq!(w1.counter("uuidp_leases_total"), 15);
        assert_eq!(w1.histogram("uuidp_lease_latency_ns").unwrap().count(), 1);
        assert_eq!(ts.resets_total(), 0);
    }

    #[test]
    fn counter_reset_dips_but_never_goes_negative() {
        let mut ts = TimeSeries::new(8);
        ts.ingest(0, &snap(100, 0, &[1, 2, 3]));
        // Restart: counters come back smaller than the previous sample.
        ts.ingest(1, &snap(7, 0, &[9]));
        let w1 = ts.window_at(1).unwrap();
        assert_eq!(w1.counter("uuidp_leases_total"), 7, "fresh-from-zero");
        assert_eq!(w1.histogram("uuidp_lease_latency_ns").unwrap().count(), 1);
        assert_eq!(ts.resets_total(), 2, "counter + histogram resets");
        assert!(ts.rate("uuidp_leases_total", 4) >= 0.0);
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let mut ts = TimeSeries::new(4);
        for i in 0..10u64 {
            ts.ingest(i, &snap(i * 10, 0, &[]));
        }
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.windows().next().unwrap().index, 6);
        assert_eq!(ts.latest().unwrap().index, 9);
    }

    #[test]
    fn merge_is_commutative() {
        let mut ts = TimeSeries::new(8);
        ts.ingest(0, &snap(5, 1, &[100]));
        ts.ingest(0, &snap(11, 2, &[100, 200]));
        let a = ts.latest().unwrap().clone();
        let mut ts2 = TimeSeries::new(8);
        ts2.ingest(0, &snap(30, 4, &[400]));
        let b = ts2.latest().unwrap().clone();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("uuidp_leases_total"), 41);
        assert_eq!(ab.gauge("uuidp_inflight"), Some(6), "cluster gauges sum");
    }

    #[test]
    fn sparkline_scales_to_visible_max() {
        let mut ts = TimeSeries::new(8);
        let mut total = 0u64;
        for (i, d) in [0u64, 1, 4, 8].iter().enumerate() {
            total += d;
            ts.ingest(i as u64, &snap(total, 0, &[]));
        }
        let s = ts.sparkline("uuidp_leases_total", 8);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }

    #[test]
    fn parse_prometheus_round_trips_through_the_series() {
        let r = Registry::new();
        r.counter("uuidp_leases_total").add(42);
        r.gauge("uuidp_audit_duplicate_ids").set(-1);
        let h = r.histogram("uuidp_lease_latency_ns");
        h.record_ns(100);
        h.record_ns(100_000);
        let text = r.snapshot().render_prometheus();
        let parsed = Snapshot::parse_prometheus(&text);
        assert_eq!(parsed.scalar("uuidp_leases_total"), Some(42.0));
        assert_eq!(parsed.scalar("uuidp_audit_duplicate_ids"), Some(-1.0));
        let MetricValue::Histogram(ph) = &parsed.metrics["uuidp_lease_latency_ns"] else {
            panic!("histogram lost in round trip");
        };
        assert_eq!(ph.count(), 2);
        let mut ts = TimeSeries::new(4);
        ts.ingest(0, &parsed);
        assert_eq!(ts.latest().unwrap().counter("uuidp_leases_total"), 42);
    }
}
