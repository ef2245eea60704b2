//! The stress driver: replay a traffic mix against a live [`IdService`]
//! and report end-to-end issue throughput, per-lease latency quantiles,
//! and audit health.
//!
//! The driver walks one [`Scheduler`], the same request schedule the
//! fleet runner routes across nodes, built from the run's
//! [`TrafficMix`] and the service's master seed, so stress runs are
//! reproducible end to end. The oblivious mixes (uniform, skewed,
//! flood) fire and forget; the hunter plays the `adversary` crate's
//! adaptive `RunHunter` *through the service front door*, leasing
//! synchronously and feeding every returned ID back to the schedule.
//!
//! [`run_stress`] drives an in-process [`IdService`]. Over the wire,
//! `uuidp stress --remote` is a one-node fleet run
//! (`uuidp_fleet::stress::run_stress_remote`) printed in this module's
//! [`StressReport`] layout: its issue latency, errors and audit come
//! from the node's own [`ServiceReport`], as in process, so the two
//! transports report identical totals for one seed and mix. The wire
//! run fills in the fields only it can measure: client-side faults,
//! the chaos stamp, the scrape accounting and the slowest leases.

use std::time::Duration;

use uuidp_core::clock;

use uuidp_adversary::schedule::{Scheduler, TrafficMix};

use uuidp_client::FaultCounters;
use uuidp_netchaos::ChaosReport;
use uuidp_obs::{render_slow_leases, SlowLease, Snapshot};

use crate::service::{AuditReport, IdService, ServiceConfig, ServiceReport};

/// Configuration of one stress run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// The service under test.
    pub service: ServiceConfig,
    /// Number of tenants generating load.
    pub tenants: u64,
    /// Lease requests to submit.
    pub requests: u64,
    /// IDs per lease (the batch size; Flood multiplies it for the hot
    /// tenant, Hunter ignores it and requests single IDs).
    pub count: u128,
    /// Traffic shape, replayed through a [`Scheduler`].
    pub mix: TrafficMix,
}

impl StressConfig {
    /// A stress run of `requests` leases over `tenants` tenants.
    pub fn new(service: ServiceConfig, tenants: u64, requests: u64, count: u128) -> Self {
        assert!(tenants >= 1, "at least one tenant");
        StressConfig {
            service,
            tenants,
            requests,
            count,
            mix: TrafficMix::Uniform,
        }
    }
}

/// What a scrape-enabled wire run observed: one live scrape per
/// request-count window, and the node's registry after it shut down.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Over-the-wire scrapes taken while the run was live, one per
    /// window of the run's time series.
    pub scrapes: u64,
    /// Peak per-window `uuidp_ids_issued_total` delta: the hottest
    /// window's issue burst.
    pub peak_ids_per_window: u64,
    /// Final authoritative family values: the node's registry snapshot
    /// after it shut down.
    pub families: Snapshot,
}

/// What one stress run measured.
#[derive(Debug)]
pub struct StressReport {
    /// The mix that was replayed.
    pub mix: TrafficMix,
    /// Worker shards used.
    pub shards: usize,
    /// Leases submitted.
    pub requests: u64,
    /// Total IDs issued.
    pub issued_ids: u128,
    /// Wall clock from first submission to the last lease served.
    pub elapsed: Duration,
    /// Aggregate issue rate (IDs per second).
    pub ids_per_sec: f64,
    /// Median per-lease issue cost, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-lease issue cost, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile per-lease issue cost, microseconds.
    pub p999_us: f64,
    /// Mean per-lease issue cost, microseconds.
    pub mean_us: f64,
    /// Leases that hit a generator error.
    pub errors: u64,
    /// Client-side fault classification and recovery accounting
    /// (all-zero outside chaos runs).
    pub faults: FaultCounters,
    /// The chaos stamp, when this run injected faults.
    pub chaos: Option<ChaosReport>,
    /// The audit pipeline's findings (lag, duplicates).
    pub audit: AuditReport,
    /// The scrape accounting plus the final server-side registry
    /// families (only for scrape-enabled wire runs).
    pub metrics: Option<MetricsReport>,
    /// The worst leases the run produced, with their end-to-end span
    /// timelines (wire runs only; empty in process).
    pub slow: Vec<SlowLease>,
}

impl StressReport {
    /// The report of `requests` leases of `mix`, served in `elapsed` by
    /// a service of `shards` shards that shut down with `report`. The
    /// wire-only fields start empty.
    pub fn new(
        mix: TrafficMix,
        shards: usize,
        requests: u64,
        elapsed: Duration,
        report: ServiceReport,
    ) -> StressReport {
        let us = |q: f64| report.latency.quantile_ns(q) / 1e3;
        StressReport {
            mix,
            shards,
            requests,
            issued_ids: report.issued_ids,
            elapsed,
            ids_per_sec: report.issued_ids as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_us: us(0.50),
            p99_us: us(0.99),
            p999_us: us(0.999),
            mean_us: report.latency.mean_ns() / 1e3,
            errors: report.errors,
            faults: FaultCounters::default(),
            chaos: None,
            audit: report.audit,
            metrics: None,
            slow: Vec::new(),
        }
    }

    /// Renders the human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "mix:         {}\nshards:      {}\nrequests:    {} leases, {} IDs issued\n\
             elapsed:     {:.3}s\nthroughput:  {:.2}M IDs/s\n\
             issue p50:   {:.2} us\nissue p99:   {:.2} us\nissue p999:  {:.2} us\nissue mean:  {:.2} us\n\
             errors:      {}\naudit:       {} arcs, {} duplicate IDs, {} flagged leases\n\
             audit lag:   max {:.2} ms, mean {:.3} ms\n",
            self.mix,
            self.shards,
            self.requests,
            self.issued_ids,
            self.elapsed.as_secs_f64(),
            self.ids_per_sec / 1e6,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.mean_us,
            self.errors,
            self.audit.counts.recorded_arcs,
            self.audit.counts.duplicate_ids,
            self.audit.counts.flagged_records,
            self.audit.max_lag.as_secs_f64() * 1e3,
            self.audit.mean_lag_ns / 1e6,
        );
        // The straggler signal: one slow stripe-subset thread hides
        // inside the merged max, so the per-thread maxima are listed
        // whenever the pipeline ran more than one thread.
        if self.audit.per_thread.len() > 1 {
            let lags: Vec<String> = self
                .audit
                .per_thread
                .iter()
                .map(|t| format!("{:.2}", t.max_lag.as_secs_f64() * 1e3))
                .collect();
            out.push_str(&format!(
                "audit threads: {} (per-thread max lag ms: {})\n",
                self.audit.per_thread.len(),
                lags.join(", ")
            ));
        }
        if let Some(chaos) = &self.chaos {
            out.push_str(&chaos.render(13));
        }
        if self.chaos.is_some() || self.faults != FaultCounters::default() {
            out.push_str(&self.faults.render_slo(self.requests));
            out.push('\n');
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(&format!(
                "metrics:     {} live scrapes, {} families exported\n",
                metrics.scrapes,
                metrics.families.metrics.len()
            ));
            if metrics.scrapes > 0 {
                out.push_str(&format!(
                    "timeseries:  {} windows retained, peak {} IDs/window\n",
                    metrics.scrapes, metrics.peak_ids_per_window
                ));
            }
            if let Some(agrees) = self.chaos_mirror_agrees() {
                out.push_str(if agrees {
                    "chaos mirror: registry counters agree with injected ground truth\n"
                } else {
                    "chaos mirror: registry counters DISAGREE with injected ground truth\n"
                });
            }
        }
        out.push_str(&render_slow_leases(&self.slow));
        out
    }

    /// Whether the scraped `uuidp_netchaos_*` counters equal the chaos
    /// proxy's own injected-fault tally — the ground-truth equality the
    /// chaos smoke gates on. `None` unless the run had both `chaos` and
    /// `scrape` enabled.
    pub fn chaos_mirror_agrees(&self) -> Option<bool> {
        let chaos = self.chaos.as_ref()?;
        let metrics = self.metrics.as_ref()?;
        let of = |name: &str| metrics.families.scalar(name).unwrap_or(-1.0);
        let i = &chaos.injected;
        Some(
            of("uuidp_netchaos_connections_total") == i.connections as f64
                && of("uuidp_netchaos_refused_total") == i.refused as f64
                && of("uuidp_netchaos_dropped_requests_total") == i.dropped_requests as f64
                && of("uuidp_netchaos_truncated_replies_total") == i.truncated_replies as f64
                && of("uuidp_netchaos_corrupted_replies_total") == i.corrupted_replies as f64
                && of("uuidp_netchaos_resealed_replies_total") == i.resealed_replies as f64
                && of("uuidp_netchaos_upstream_failures_total") == i.upstream_failures as f64,
        )
    }
}

/// Runs one stress phase against an in-process [`IdService`].
pub fn run_stress(config: StressConfig) -> StressReport {
    let mix = config.mix;
    let service = IdService::start(config.service.clone());
    let mut schedule = Scheduler::new(
        mix,
        config.tenants,
        config.requests,
        config.count,
        config.service.space,
        config.service.master_seed,
    );
    let started = clock::monotonic_ns();
    let mut submitted = 0u64;
    while let Some((tenant, count)) = schedule.next(submitted) {
        if mix == TrafficMix::Hunter {
            // Every move is a real, synchronous lease, and every
            // observation a real returned ID.
            if let Some(arc) = service.lease(tenant, count).arcs.first() {
                schedule.observe(tenant, arc.start);
            }
        } else {
            service.issue(tenant, count);
        }
        submitted += 1;
    }
    service.drain();
    let elapsed = Duration::from_nanos(clock::monotonic_ns().saturating_sub(started));
    StressReport::new(
        mix,
        config.service.shards,
        submitted,
        elapsed,
        service.shutdown(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_core::id::IdSpace;

    fn base(kind: AlgorithmKind, bits: u32) -> StressConfig {
        let service = ServiceConfig::new(kind, IdSpace::with_bits(bits).unwrap());
        StressConfig::new(service, 8, 400, 64)
    }

    #[test]
    fn uniform_mix_issues_all_requested_ids() {
        let report = run_stress(base(AlgorithmKind::Cluster, 48));
        assert_eq!(report.requests, 400);
        assert_eq!(report.issued_ids, 400 * 64);
        assert_eq!(report.errors, 0);
        assert!(!report.audit.counts.collided());
        assert!(report.ids_per_sec > 0.0);
        assert!(report.p99_us >= report.p50_us);
    }

    #[test]
    fn skewed_and_flood_mixes_run_clean_on_big_universes() {
        for mix in [TrafficMix::Skewed, TrafficMix::Flood] {
            let mut cfg = base(AlgorithmKind::BinsStar, 48);
            cfg.mix = mix;
            cfg.requests = 300;
            let report = run_stress(cfg);
            assert_eq!(report.requests, 300);
            assert!(report.issued_ids >= 300 * 64, "{mix}: batches issued");
            assert!(!report.audit.counts.collided(), "{mix}: no duplicates");
        }
    }

    #[test]
    fn hunter_mix_plays_the_adaptive_game_through_the_service() {
        let mut cfg = base(AlgorithmKind::Cluster, 20);
        cfg.mix = TrafficMix::Hunter;
        cfg.tenants = 4;
        cfg.requests = 200;
        cfg.service.shards = 2;
        let report = run_stress(cfg);
        assert!(report.requests >= 4, "at least the probe phase ran");
        assert_eq!(
            report.issued_ids, report.requests as u128,
            "single-ID leases"
        );
        // On m = 2^20 with 200 adaptively aimed requests the hunter often
        // scores, but the *pipeline* guarantee is just that the audit saw
        // every issued ID.
        assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
    }

    #[test]
    fn injected_collision_is_always_detected() {
        // The acceptance-criterion scenario: same-seed twin tenants under
        // a full mix must produce zero audit false negatives.
        let mut cfg = base(AlgorithmKind::Cluster, 44);
        cfg.service.seed_alias = Some((0, 1));
        cfg.service.shards = 3;
        let tenants = cfg.tenants as u128;
        let report = run_stress(cfg);
        assert!(report.audit.counts.collided(), "audit false negative");
        // Uniform mix: tenants 0 and 1 lease identical streams of equal
        // volume; every ID of the later-audited twin is a duplicate.
        assert_eq!(
            report.audit.counts.duplicate_ids,
            report.issued_ids / tenants
        );
    }

    #[test]
    fn stress_is_reproducible_across_runs_and_shard_counts() {
        let run = |shards: usize| {
            let mut cfg = base(AlgorithmKind::ClusterStar, 40);
            cfg.mix = TrafficMix::Skewed;
            cfg.service.shards = shards;
            cfg.requests = 250;
            let r = run_stress(cfg);
            (r.issued_ids, r.audit.counts)
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "shard count changed stress outcome");
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let report = run_stress(base(AlgorithmKind::Cluster, 40));
        let text = report.render();
        assert!(text.contains("throughput"));
        assert!(text.contains("issue p99"));
        assert!(text.contains("issue p999"));
        assert!(text.contains("audit lag"));
    }
}
