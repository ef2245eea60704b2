//! Fleet-wide time-series aggregation and burn-rate alerting.
//!
//! The fleet driver scrapes every node at fixed request-count windows
//! (never wall clock — the window index is the tick the driver hands
//! in, so a seeded run ticks identically every time). Each scrape is
//! ingested into a per-`(node, incarnation)` [`TimeSeries`]: a
//! crash-restart boots a fresh registry *and* a fresh incarnation, so
//! its counters restart under a new series key and the cluster rate
//! dips instead of going negative. An in-place counter regression (same
//! incarnation) is therefore a fault, not a restart: its series counts
//! it as a reset ([`FleetSeries::resets`]), and the fleet runner fails
//! the run on any.
//!
//! Per tick the node windows are merged into one cluster [`Window`],
//! and the deterministic counter families ([`CLUSTER_FAMILIES`]) are
//! folded into a running fingerprint: two same-seed runs must print the
//! same pin. Families fed by free-running threads (audit lag, reactor
//! wakeups) are ingested into the series for dashboards but excluded
//! from the fingerprint.
//!
//! Two multi-window burn-rate alert evaluators ride on top: lease
//! availability (router-side exhausted retries over submissions) and
//! scrape health (failed scrapes over attempts). A failed scrape never
//! aborts the run — it increments `uuidp_fleet_scrape_errors_total` in
//! the scraper's own registry and degrades that node's series for the
//! tick (satellite: degrade, don't abort).

use std::collections::BTreeMap;
use std::sync::Arc;

use uuidp_core::codec::fnv1a;
use uuidp_obs::{
    AlertRule, AlertTransition, BurnRateAlerts, Counter, Registry, Snapshot, TimeSeries, Window,
};

/// Counter families folded into the cluster fingerprint. These move
/// synchronously with the (sequential) request loop, so their values at
/// any window boundary are a pure function of the seed; audit-pipeline
/// and reactor families lag nondeterministically and stay out.
pub const CLUSTER_FAMILIES: [&str; 3] = [
    "uuidp_leases_total",
    "uuidp_ids_issued_total",
    "uuidp_lease_errors_total",
];

/// Windows the driver aims for across a run (the width in requests is
/// `max(1, requests / TARGET_WINDOWS)`).
pub const TARGET_WINDOWS: u64 = 16;

/// Ring capacity of every per-incarnation series (constant memory per
/// node regardless of run length).
const SERIES_CAPACITY: usize = 64;

/// The fleet scraper's aggregation state: per-incarnation series, the
/// merged cluster windows, the alert evaluators, and the fingerprint.
#[derive(Debug)]
pub struct FleetSeries {
    width_requests: u64,
    per_node: BTreeMap<(usize, u32), TimeSeries>,
    cluster: Vec<Window>,
    availability: BurnRateAlerts,
    scrape_health: BurnRateAlerts,
    transitions: Vec<AlertTransition>,
    digest: Vec<u8>,
    ticks: u64,
    registry: Arc<Registry>,
    scrape_errors: Arc<Counter>,
}

impl FleetSeries {
    /// A series sized for `requests` total submissions: one window per
    /// `max(1, requests / TARGET_WINDOWS)` requests.
    pub fn new(requests: u64) -> FleetSeries {
        let registry = Arc::new(Registry::new());
        let scrape_errors = registry.counter("uuidp_fleet_scrape_errors_total");
        FleetSeries {
            width_requests: (requests / TARGET_WINDOWS).max(1),
            per_node: BTreeMap::new(),
            cluster: Vec::new(),
            availability: BurnRateAlerts::new(vec![AlertRule::availability()]),
            scrape_health: BurnRateAlerts::new(vec![AlertRule::scrape_health()]),
            transitions: Vec::new(),
            digest: Vec::new(),
            ticks: 0,
            registry,
            scrape_errors,
        }
    }

    /// Requests per window.
    pub fn width_requests(&self) -> u64 {
        self.width_requests
    }

    /// The scraper's own registry (`uuidp_fleet_scrape_errors_total`
    /// lives here — the errors belong to the scraper, not to any node).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// One aggregation tick: ingest each node's scrape (keyed by its
    /// current incarnation; `None` marks a failed scrape, which
    /// degrades that node for the tick and feeds the scrape-health
    /// alert), merge the cluster window, fold the fingerprint, and
    /// evaluate the availability alert over `(bad, total)` — the
    /// router-side exhausted-retry and submission deltas for the
    /// window. Returns the alert transitions this tick produced.
    pub fn tick(
        &mut self,
        tick: u64,
        scrapes: &[Option<(u32, Snapshot)>],
        bad: u64,
        total: u64,
    ) -> Vec<AlertTransition> {
        self.ticks += 1;
        let mut cluster = Window::new(tick);
        for (node, scrape) in scrapes.iter().enumerate() {
            let Some((incarnation, snap)) = scrape else {
                self.scrape_errors.inc();
                continue;
            };
            let series = self
                .per_node
                .entry((node, *incarnation))
                .or_insert_with(|| TimeSeries::new(SERIES_CAPACITY));
            series.ingest(tick, snap);
            if let Some(window) = series.window_at(tick) {
                cluster.merge(window);
            }
        }
        self.digest.extend_from_slice(&tick.to_le_bytes());
        for family in CLUSTER_FAMILIES {
            self.digest
                .extend_from_slice(&cluster.counter(family).to_le_bytes());
        }
        self.cluster.push(cluster);
        if self.cluster.len() > SERIES_CAPACITY {
            self.cluster.remove(0);
        }
        let failed = scrapes.iter().filter(|s| s.is_none()).count() as u64;
        let mut fired = self.availability.observe(bad, total);
        fired.extend(self.scrape_health.observe(failed, scrapes.len() as u64));
        self.transitions.extend(fired.iter().cloned());
        fired
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Retained merged cluster windows, oldest first.
    pub fn cluster_windows(&self) -> &[Window] {
        &self.cluster
    }

    /// Distinct `(node, incarnation)` series opened — ≥ the node count,
    /// and strictly greater whenever a crash-restart landed mid-run.
    pub fn incarnation_series(&self) -> usize {
        self.per_node.len()
    }

    /// Per-`(node, incarnation)` series, for dashboards.
    pub fn series(&self) -> &BTreeMap<(usize, u32), TimeSeries> {
        &self.per_node
    }

    /// In-place counter regressions, summed over every series. Restarts
    /// open fresh series, so on a healthy fleet this stays zero.
    pub fn resets(&self) -> u64 {
        self.per_node.values().map(|s| s.resets_total()).sum()
    }

    /// FNV-1a over `(tick, CLUSTER_FAMILIES values)` for every tick so
    /// far — the cluster-series pin two same-seed runs must share.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.digest)
    }

    /// Scrapes that failed (and were degraded rather than fatal).
    pub fn scrape_errors(&self) -> u64 {
        self.scrape_errors.get()
    }

    /// Every alert transition, in firing order.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// Rules firing right now, across both evaluators.
    pub fn firing_rules(&self) -> Vec<&'static str> {
        let mut rules = self.availability.firing_rules();
        rules.extend(self.scrape_health.firing_rules());
        rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_obs::MetricValue;

    fn snap(leases: u64, ids: u64, errors: u64) -> Snapshot {
        let mut metrics = BTreeMap::new();
        metrics.insert("uuidp_leases_total".into(), MetricValue::Counter(leases));
        metrics.insert("uuidp_ids_issued_total".into(), MetricValue::Counter(ids));
        metrics.insert(
            "uuidp_lease_errors_total".into(),
            MetricValue::Counter(errors),
        );
        Snapshot { metrics }
    }

    #[test]
    fn failed_scrapes_degrade_the_node_and_count_instead_of_aborting() {
        let mut series = FleetSeries::new(32);
        let fired = series.tick(0, &[Some((0, snap(10, 100, 0))), None], 0, 16);
        // Half the fleet unscrapeable is a 50× burn on a 99% objective:
        // the scrape-health alert fires on the spot.
        assert_eq!(fired.len(), 1);
        assert!(
            fired[0].render().contains("scrape-burn firing"),
            "{fired:?}"
        );
        assert_eq!(series.scrape_errors(), 1);
        // The healthy node's series ingested; the dead node opened none.
        assert_eq!(series.incarnation_series(), 1);
        assert_eq!(
            series.cluster_windows()[0].counter("uuidp_leases_total"),
            10
        );
        // The error is a real metric family on the scraper's registry.
        assert_eq!(
            series
                .registry()
                .snapshot()
                .scalar("uuidp_fleet_scrape_errors_total"),
            Some(1.0)
        );
    }

    #[test]
    fn a_restart_opens_a_fresh_incarnation_series_and_the_rate_dips_not_negative() {
        let mut series = FleetSeries::new(32);
        series.tick(0, &[Some((0, snap(10, 100, 0)))], 0, 8);
        series.tick(1, &[Some((0, snap(20, 200, 0)))], 0, 8);
        // Crash-restart: incarnation bumps, counters start over smaller.
        series.tick(2, &[Some((1, snap(3, 30, 0)))], 0, 8);
        assert_eq!(series.incarnation_series(), 2);
        assert_eq!(series.resets(), 0, "incarnation keying avoids the clamp");
        let ids: Vec<u64> = series
            .cluster_windows()
            .iter()
            .map(|w| w.counter("uuidp_ids_issued_total"))
            .collect();
        // 100 fresh, then +100, then the restart's fresh-from-zero 30:
        // a dip, never a negative (u64 could not even express one — the
        // clamp and the keying are what keep the arithmetic honest).
        assert_eq!(ids, vec![100, 100, 30]);
    }

    #[test]
    fn a_counter_that_drops_on_one_incarnation_is_a_reset() {
        let mut series = FleetSeries::new(32);
        series.tick(
            0,
            &[Some((0, snap(10, 100, 0))), Some((0, snap(5, 50, 0)))],
            0,
            8,
        );
        assert_eq!(series.resets(), 0);
        // Node 1's counters fall back while its incarnation stays put.
        series.tick(
            1,
            &[Some((0, snap(20, 200, 0))), Some((0, snap(6, 40, 0)))],
            0,
            8,
        );
        assert_eq!(series.resets(), 1, "only node 1's issued counter dropped");
        assert_eq!(series.series()[&(0, 0)].resets_total(), 0);
        assert_eq!(series.series()[&(1, 0)].resets_total(), 1);
    }

    #[test]
    fn same_feed_reproduces_fingerprint_and_transitions() {
        let run = || {
            let mut series = FleetSeries::new(64);
            for tick in 0..16u64 {
                let bad = if (6..=9).contains(&tick) { 4 } else { 0 };
                series.tick(tick, &[Some((0, snap(tick * 4, tick * 64, 0)))], bad, 4);
            }
            (
                series.fingerprint(),
                series
                    .transitions()
                    .iter()
                    .map(|t| t.render())
                    .collect::<Vec<_>>(),
            )
        };
        let (fp_a, tr_a) = run();
        let (fp_b, tr_b) = run();
        assert_eq!(fp_a, fp_b);
        assert_eq!(tr_a, tr_b);
        assert!(
            tr_a.iter().any(|t| t.contains("availability-burn firing")),
            "the error burst must fire the availability alert: {tr_a:?}"
        );
    }
}
