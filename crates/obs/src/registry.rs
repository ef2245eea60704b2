//! The metric registry: named counters, gauges, and streaming
//! histograms with lock-free hot paths and interleaving-invariant
//! merges.
//!
//! Registration (`Registry::counter` & friends) takes the registry
//! lock once and returns an `Arc` handle; after that every increment
//! is a single relaxed atomic op. All aggregation is commutative
//! addition, so totals are bit-identical regardless of how threads or
//! shards interleave — the same discipline that makes `LeaseAudit`
//! twin-comparable, extended to telemetry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonic counter. Cloning the `Arc` handle shares the cell.
///
/// The total saturates at `u64::MAX` rather than wrapping, so it never
/// goes backwards.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        // Detect-and-pin, as `AtomicHistogram`'s sum does, instead of a
        // CAS loop on the hot path: an add that wraps stores the maximum
        // back, so a reader can see a wrapped total only in between.
        if self.value.fetch_add(n, Ordering::Relaxed) > u64::MAX - n {
            self.value.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a point-in-time level, not a rate.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Power-of-two-bucketed nanosecond histogram — the plain-value form.
///
/// `buckets[i]` counts samples with `floor(log2(ns)) == i` (bucket 0
/// also holds `ns == 0`). Recording is a `leading_zeros` and an
/// increment; quantiles are read back with sub-bucket linear
/// interpolation. Constant memory, additively mergeable: merging
/// per-thread histograms in any order yields bit-identical buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

/// Bucket index for a sample: `floor(log2(ns))`, with 0 for `ns == 0`.
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    (63u32.saturating_sub(ns.leading_zeros())) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one sampled [`Duration`].
    pub fn record(&mut self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds `other` into `self` (shutdown-time aggregation). Addition
    /// is commutative and associative, so any merge order over any
    /// partition of the samples produces identical buckets.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean cost in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The raw bucket counts (`buckets[i]` holds samples in
    /// `[2^i, 2^(i+1))`, with bucket 0 also holding zero).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Reassembles a histogram from exposition parts (per-bucket
    /// counts, total count, and summed nanoseconds). The wire
    /// exposition does not carry `max_ns`, so the reassembled maximum
    /// is the upper bound of the highest occupied bucket — an honest
    /// over-estimate that keeps dashboard quantiles meaningful.
    pub fn from_parts(buckets: [u64; 64], count: u64, sum_ns: u128) -> Histogram {
        let max_ns = buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| {
                if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                }
            })
            .unwrap_or(0);
        Histogram {
            buckets,
            count,
            sum_ns,
            max_ns,
        }
    }

    /// The per-window difference `self − earlier`, for time-series
    /// ingestion of cumulative histogram snapshots: bucket counts,
    /// `count`, and `sum_ns` subtract (saturating), `max_ns` keeps the
    /// later reading (a cumulative snapshot cannot say *when* its max
    /// landed, so the window inherits the series max — an upper bound).
    ///
    /// A snapshot whose `count` went **backwards** is a counter reset
    /// (the process restarted and began a fresh histogram): the whole
    /// later reading is returned as the delta — fresh-from-zero, so an
    /// ingested rate can dip but never go negative.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        if self.count < earlier.count {
            return self.clone();
        }
        let mut delta = Histogram::new();
        for (d, (now, then)) in delta
            .buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *d = now.saturating_sub(*then);
        }
        delta.count = self.count - earlier.count;
        delta.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        delta.max_ns = self.max_ns;
        delta
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds, linearly
    /// interpolated within the containing power-of-two bucket. Returns
    /// 0 when empty; a single-sample histogram reports that sample's
    /// bucket for every quantile (never NaN).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = if i >= 63 {
                    self.max_ns as f64
                } else {
                    (1u128 << (i + 1)) as f64
                };
                let into = (rank - seen as f64) / c as f64;
                return lo + (hi - lo) * into;
            }
            seen += c;
        }
        self.max_ns as f64
    }
}

/// The shared-atomic form of [`Histogram`]: recording from any number
/// of threads without locks. `snapshot()` projects it onto the plain
/// form for quantile reads and rendering.
///
/// `sum_ns` saturates at `u64::MAX` total nanoseconds (~584 years of
/// accumulated latency) rather than wrapping.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: [0u64; 64].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add: a CAS loop would serialize the hot path for a
        // case that takes centuries to reach; detect-and-pin is enough.
        if self.sum_ns.fetch_add(ns, Ordering::Relaxed) > u64::MAX - ns {
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
        }
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one sampled [`Duration`].
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Projects onto the plain-value form. A snapshot taken while
    /// writers are active is per-field consistent (each field a valid
    /// point in time), which is all a scrape needs.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum_ns = self.sum_ns.load(Ordering::Relaxed) as u128;
        h.max_ns = self.max_ns.load(Ordering::Relaxed);
        h
    }
}

/// One registered metric: the handle the registry hands out.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

/// A metric value as it appears in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Full histogram state (boxed: a histogram is ~0.5 KiB of
    /// buckets, far larger than the scalar variants).
    Histogram(Box<Histogram>),
}

/// The metric registry: name → handle, get-or-register semantics.
///
/// Names follow Prometheus conventions (`snake_case`, `_total` suffix
/// on counters, `_ns` unit suffix where applicable). Asking for an
/// existing name with the same kind returns the *same* handle — two
/// subsystems can share `uuidp_leases_total` without coordination.
/// Asking with a different kind panics: that is a naming bug, not a
/// runtime condition.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().expect("registry lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric `{name}` already registered as {other:?}, wanted counter"),
        }
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().expect("registry lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric `{name}` already registered as {other:?}, wanted gauge"),
        }
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        let mut map = self.metrics.lock().expect("registry lock");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(AtomicHistogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric `{name}` already registered as {other:?}, wanted histogram"),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("registry lock");
        let metrics = map
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { metrics }
    }
}

/// A point-in-time copy of a [`Registry`], ready to render.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Name → value, sorted by name (BTreeMap order) for stable output.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Looks up a scalar value: counter totals and gauge levels by
    /// name, histogram `_count` reads via the base name.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name)? {
            MetricValue::Counter(v) => Some(*v as f64),
            MetricValue::Gauge(v) => Some(*v as f64),
            MetricValue::Histogram(h) => Some(h.count() as f64),
        }
    }

    /// Prometheus-style text exposition. Counters/gauges render as
    /// `name value`; a histogram renders `_count`, `_sum` (ns), a
    /// cumulative `_bucket{le="…"}` series over the power-of-two bucket
    /// upper bounds that hold samples, and `_bucket{le="+Inf"}`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = (i as u32 + 1).min(64);
                        let _ = writeln!(out, "{name}_bucket{{le=\"2^{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum_ns());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// Parses a [`Snapshot::render_prometheus`] exposition back into a
    /// typed snapshot, reconstructing histogram buckets from the
    /// cumulative `_bucket{le="2^N"}` series. This is the ingestion
    /// path for `uuidp top` and the fleet time-series aggregator, which
    /// see remote registries only through the metrics wire frame.
    /// Unparseable lines are skipped; a histogram missing its `_count`
    /// sample is dropped rather than guessed at.
    pub fn parse_prometheus(text: &str) -> Snapshot {
        #[derive(Default)]
        struct HistParts {
            buckets: Vec<(usize, u64)>, // (bucket index, cumulative count)
            sum_ns: Option<u128>,
            count: Option<u64>,
        }
        let mut kinds: BTreeMap<String, &str> = BTreeMap::new();
        let mut scalars: BTreeMap<String, i128> = BTreeMap::new();
        let mut hists: BTreeMap<String, HistParts> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = rest.rsplit_once(' ') {
                    let kind = match kind {
                        "counter" => "counter",
                        "gauge" => "gauge",
                        "histogram" => "histogram",
                        _ => continue,
                    };
                    kinds.insert(name.to_string(), kind);
                    if kind == "histogram" {
                        hists.entry(name.to_string()).or_default();
                    }
                }
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Some((base, labels)) = series.split_once('{') {
                // `name_bucket{le="2^N"} cumulative` — +Inf is implied
                // by the _count sample, so only exponent buckets load.
                let (Some(name), Some(exp)) = (
                    base.strip_suffix("_bucket"),
                    labels
                        .strip_prefix("le=\"2^")
                        .and_then(|l| l.strip_suffix("\"}")),
                ) else {
                    continue;
                };
                let (Ok(exp), Ok(cumulative)) = (exp.parse::<usize>(), value.parse::<u64>()) else {
                    continue;
                };
                if (1..=64).contains(&exp) {
                    hists
                        .entry(name.to_string())
                        .or_default()
                        .buckets
                        .push((exp - 1, cumulative));
                }
                continue;
            }
            if let Some(name) = series.strip_suffix("_sum") {
                if hists.contains_key(name) {
                    if let Ok(v) = value.parse::<u128>() {
                        hists.get_mut(name).unwrap().sum_ns = Some(v);
                    }
                    continue;
                }
            }
            if let Some(name) = series.strip_suffix("_count") {
                if hists.contains_key(name) {
                    if let Ok(v) = value.parse::<u64>() {
                        hists.get_mut(name).unwrap().count = Some(v);
                    }
                    continue;
                }
            }
            if let Ok(v) = value.parse::<i128>() {
                scalars.insert(series.to_string(), v);
            }
        }
        let mut metrics = BTreeMap::new();
        for (name, parts) in hists {
            let Some(count) = parts.count else { continue };
            let mut buckets = [0u64; 64];
            let mut ordered = parts.buckets;
            ordered.sort_unstable();
            let mut prev = 0u64;
            for (idx, cumulative) in ordered {
                buckets[idx] = cumulative.saturating_sub(prev);
                prev = cumulative;
            }
            let h = Histogram::from_parts(buckets, count, parts.sum_ns.unwrap_or(0));
            metrics.insert(name, MetricValue::Histogram(Box::new(h)));
        }
        for (name, v) in scalars {
            let value = match kinds.get(&name).copied() {
                Some("gauge") => MetricValue::Gauge(v as i64),
                // Unannotated scalars default to counters: wire peers
                // always send TYPE lines, so this only covers tests.
                _ => MetricValue::Counter(v.max(0) as u64),
            };
            metrics.entry(name).or_insert(value);
        }
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_handles_by_name() {
        let r = Registry::new();
        let a = r.counter("uuidp_leases_total");
        let b = r.counter("uuidp_leases_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "same name must alias the same cell");
        let g = r.gauge("uuidp_inflight");
        g.set(7);
        g.add(-3);
        assert_eq!(r.gauge("uuidp_inflight").get(), 4);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let c = Registry::new().counter("uuidp_ids_issued_total");
        for _ in 0..3 {
            c.add(1 << 63);
        }
        assert_eq!(c.get(), u64::MAX, "three 2^63 adds pin at the top");
        c.inc();
        assert_eq!(c.get(), u64::MAX, "a saturated counter stays put");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_naming_bug() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain_recording() {
        let ah = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for ns in [0u64, 1, 100, 4096, 1_000_000, u64::MAX] {
            ah.record_ns(ns);
            plain.record_ns(ns);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.buckets(), plain.buckets());
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.max_ns(), plain.max_ns());
        // sum saturates in the atomic form once u64::MAX lands.
        assert_eq!(snap.sum_ns(), u64::MAX as u128);
    }

    #[test]
    fn concurrent_recording_is_interleaving_invariant() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new());
        let h = r.histogram("uuidp_lease_latency_ns");
        let c = r.counter("uuidp_ops_total");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns(t * 1000 + i);
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        // Same samples recorded serially must give identical buckets.
        let mut serial = Histogram::new();
        for t in 0..4u64 {
            for i in 0..1000u64 {
                serial.record_ns(t * 1000 + i);
            }
        }
        assert_eq!(snap.buckets(), serial.buckets());
        assert_eq!(snap.sum_ns(), serial.sum_ns());
    }

    #[test]
    fn exposition_round_trips_scalars() {
        let r = Registry::new();
        r.counter("uuidp_leases_total").add(42);
        r.gauge("uuidp_nodes_up").set(3);
        let h = r.histogram("uuidp_lease_latency_ns");
        h.record_ns(100);
        h.record_ns(100_000);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE uuidp_leases_total counter"), "{text}");
        assert!(text.contains("uuidp_leases_total 42"), "{text}");
        let parsed = Snapshot::parse_prometheus(&text);
        assert_eq!(parsed.scalar("uuidp_leases_total"), Some(42.0));
        assert_eq!(parsed.scalar("uuidp_nodes_up"), Some(3.0));
        assert_eq!(parsed.scalar("uuidp_lease_latency_ns"), Some(2.0));
        let Some(MetricValue::Histogram(parsed_h)) = parsed.metrics.get("uuidp_lease_latency_ns")
        else {
            panic!("the histogram must parse back as one: {text}");
        };
        assert_eq!(parsed_h.sum_ns(), 100_100);
        assert_eq!(parsed_h.buckets(), h.snapshot().buckets());
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::new();
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
    fn empty_and_single_sample_histograms_stay_finite() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0.0);
        assert_eq!(h.mean_ns(), 0.0);
        let mut h = Histogram::new();
        h.record_ns(777);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = h.quantile_ns(q);
            assert!(v.is_finite() && v > 0.0, "q={q} -> {v}");
        }
        assert!((h.mean_ns() - 777.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_percentiles_are_finite_zeros() {
        // A chaos-heavy run can end with zero recorded samples; every
        // derived number must stay finite (no NaN in reports).
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile_ns(q), 0.0, "q={q}");
        }
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn single_sample_windows_never_produce_nan() {
        let mut h = Histogram::new();
        h.record_ns(4096);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let v = h.quantile_ns(q);
            assert!(v.is_finite(), "q={q} -> {v}");
            assert!((4096.0..=8192.0).contains(&v), "q={q} -> {v}");
        }
        assert!((h.mean_ns() - 4096.0).abs() < 1e-9);
    }
}
