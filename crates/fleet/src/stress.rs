//! Stress over the wire: `uuidp stress --remote` is a one-node fleet
//! run.
//!
//! [`run_stress_remote`] drives [`run_fleet`] with one volatile node, no
//! restarts and `workers` lease threads, and reports in the stress
//! driver's [`StressReport`] layout. Its issue latency, errors and audit
//! come from the node's own [`ServiceReport`](uuidp_service::service::ServiceReport),
//! as in-process runs report them, so the two transports must report
//! identical totals for the same seed and mix, for every worker count.
//! The fleet run adds what only a wire run measures: the client-side
//! fault ledger, the chaos stamp, one live scrape per window (with the
//! node's registry after shutdown), and the slowest leases with their
//! span timelines.

use std::io;
use std::path::PathBuf;

use uuidp_service::stress::{MetricsReport, StressConfig, StressReport};

use crate::run::{run_fleet, FleetConfig};

impl FleetConfig {
    /// The one-node fleet that replays `stress` over the wire: its
    /// service, tenants, requests, count and mix, one worker, no
    /// restarts, so no state directory.
    pub fn one_node(stress: StressConfig) -> FleetConfig {
        let mut config = FleetConfig::new(stress.service, 1, PathBuf::new());
        config.tenants = stress.tenants;
        config.requests = stress.requests;
        config.count = stress.count;
        config.placement = stress.mix;
        config
    }
}

/// Runs one stress phase over the wire: `config`, a one-node fleet with
/// no restarts (see [`FleetConfig::one_node`]), through [`run_fleet`],
/// reported in the stress layout. Any other topology is refused with an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn run_stress_remote(config: FleetConfig) -> io::Result<StressReport> {
    if config.nodes != 1 || config.kill_every.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a remote stress run is one node without restarts",
        ));
    }
    let (mix, shards) = (config.placement, config.service.shards);
    let fleet = run_fleet(config)?;
    let node = fleet
        .per_node
        .into_iter()
        .next()
        .expect("one node, one report");
    let mut report = StressReport::new(mix, shards, fleet.requests, fleet.elapsed, node.report);
    report.faults = fleet.faults;
    report.chaos = fleet.chaos;
    report.metrics = match (fleet.metrics, fleet.series) {
        (Some(metrics), Some(series)) => {
            metrics
                .per_node
                .into_iter()
                .next()
                .map(|families| MetricsReport {
                    scrapes: series.windows,
                    peak_ids_per_window: series.peak_ids_per_window,
                    families,
                })
        }
        _ => None,
    };
    report.slow = fleet.slow;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_adversary::schedule::TrafficMix;
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_core::id::IdSpace;
    use uuidp_netchaos::ChaosSpec;
    use uuidp_service::service::ServiceConfig;
    use uuidp_service::stress::run_stress;

    fn base(kind: AlgorithmKind, bits: u32) -> StressConfig {
        let service = ServiceConfig::new(kind, IdSpace::with_bits(bits).unwrap());
        StressConfig::new(service, 8, 400, 64)
    }

    /// `stress` over the wire with `workers` lease threads.
    fn wire(stress: StressConfig, workers: usize) -> FleetConfig {
        let mut config = FleetConfig::one_node(stress);
        config.workers = workers;
        config
    }

    /// The wire differential: one multiplexed connection, driven by each
    /// worker count in `widths`, must reproduce the in-process audit
    /// totals bit-exactly (the tenant→worker pinning keeps each tenant's
    /// stream FIFO).
    fn assert_wire_reproduces_in_process_totals(widths: &[usize]) {
        let make = || {
            let mut cfg = base(AlgorithmKind::ClusterStar, 40);
            cfg.mix = TrafficMix::Skewed;
            cfg.requests = 200;
            cfg.service.seed_alias = Some((0, 5)); // live duplicate counter
            cfg
        };
        let local = run_stress(make());
        assert!(local.audit.counts.collided(), "twins must collide");
        for &workers in widths {
            let remote = run_stress_remote(wire(make(), workers)).expect("v2 loopback stress");
            assert_eq!(
                (
                    local.issued_ids,
                    local.audit.counts.duplicate_ids,
                    local.audit.counts.recorded_ids,
                ),
                (
                    remote.issued_ids,
                    remote.audit.counts.duplicate_ids,
                    remote.audit.counts.recorded_ids,
                ),
                "{workers} workers changed the totals"
            );
        }
    }

    #[test]
    fn v2_transport_reproduces_in_process_totals_single_and_pooled() {
        assert_wire_reproduces_in_process_totals(&[1, 3]);
    }

    #[test]
    fn pooled_remote_transport_reproduces_in_process_totals() {
        // Connection reuse must be invisible in the numbers at even
        // worker counts too.
        assert_wire_reproduces_in_process_totals(&[2, 4]);
    }

    /// The hunter mix over the wire with `workers` lease threads: every
    /// single-ID lease's arc comes back to the adversary, and the audit
    /// records every issued ID.
    fn assert_hunter_observes_arcs_over_the_wire(workers: usize) {
        let mut cfg = base(AlgorithmKind::Cluster, 20);
        cfg.mix = TrafficMix::Hunter;
        cfg.tenants = 4;
        cfg.requests = 120;
        let report = run_stress_remote(wire(cfg, workers)).expect("v2 hunter stress");
        assert!(
            report.requests >= 4,
            "{workers} workers: probe phase never ran"
        );
        assert_eq!(report.issued_ids, report.requests as u128);
        assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
    }

    #[test]
    fn v2_hunter_mix_observes_arcs_over_the_mux() {
        assert_hunter_observes_arcs_over_the_wire(1);
    }

    #[test]
    fn pooled_hunter_mix_observes_arcs_through_the_pool() {
        assert_hunter_observes_arcs_over_the_wire(3);
    }

    #[test]
    fn every_slow_lease_of_a_long_run_keeps_its_timeline() {
        // 2,400 leases stamp about four span events each, far more than
        // the node's trace ring keeps per recording thread, so a span
        // left until teardown would be gone: each slow lease's span is
        // fetched when the tail sampler admits it.
        let mut cfg = base(AlgorithmKind::Cluster, 48);
        cfg.requests = 2_400;
        let report = run_stress_remote(wire(cfg, 4)).expect("long stress run");
        assert_eq!(report.requests, 2_400);
        assert!(!report.slow.is_empty(), "no slow lease was sampled");
        for lease in &report.slow {
            assert!(
                lease
                    .timeline
                    .starts_with(&format!("span corr={}\n", lease.corr)),
                "slow lease corr={} has no timeline: {:?}",
                lease.corr,
                lease.timeline
            );
        }
    }

    #[test]
    fn chaos_run_degrades_gracefully_and_never_duplicates() {
        // The tentpole invariant: under partitions, torn frames, and
        // corrupted replies, the retrying driver completes the run with
        // zero audit duplicates — lost leases leak, they never replay.
        let mut cfg = base(AlgorithmKind::Cluster, 48);
        cfg.requests = 300;
        let mut cfg = wire(cfg, 3);
        cfg.chaos = Some(ChaosSpec::heavy());
        cfg.chaos_seed = 0xC4A05;
        let report = run_stress_remote(cfg).expect("chaos stress run");
        assert_eq!(report.requests, 300);
        assert_eq!(
            report.audit.counts.duplicate_ids, 0,
            "chaos must leak, never duplicate"
        );
        let chaos = report.chaos.expect("chaos stamp");
        assert!(
            chaos.injected.injected() > 0,
            "the heavy preset injected nothing: {:?}",
            chaos.injected
        );
        assert!(
            report.faults.failed_attempts() > 0,
            "no client ever observed a fault"
        );
        let text = report.render();
        assert!(text.contains("slo:"), "{text}");
        assert!(text.contains("fault-class:"), "{text}");
        assert!(text.contains("chaos:"), "{text}");
    }

    #[test]
    fn scraped_run_sees_required_families_live_and_final_totals_exact() {
        let mut cfg = wire(base(AlgorithmKind::Cluster, 48), 2);
        cfg.scrape = true;
        let report = run_stress_remote(cfg).expect("scraped loopback stress");
        let metrics = report
            .metrics
            .clone()
            .expect("scrape-enabled run carries metrics");
        assert!(
            metrics.scrapes >= 1,
            "the run never completed a live scrape"
        );
        // The final server-side registry agrees exactly with the
        // node's report.
        assert_eq!(
            metrics.families.scalar("uuidp_ids_issued_total"),
            Some(report.issued_ids as f64),
        );
        assert_eq!(
            metrics.families.scalar("uuidp_leases_total"),
            Some(report.requests as f64),
        );
        assert_eq!(
            metrics.families.scalar("uuidp_audit_records_total"),
            Some(report.audit.records as f64),
        );
        let rendered = report.render();
        assert!(rendered.contains("live scrapes"), "{rendered}");
    }

    #[test]
    fn chaos_registry_mirror_equals_injected_ground_truth() {
        // The injected-fault counters exported by the registry must be
        // *equal* to the proxy's own tally — the scrape-vs-schedule
        // ground-truth gate the chaos smoke runs in CI.
        let mut cfg = base(AlgorithmKind::Cluster, 48);
        cfg.requests = 200;
        let mut cfg = wire(cfg, 3);
        cfg.chaos = Some(ChaosSpec::heavy());
        cfg.chaos_seed = 0xB0B0;
        cfg.scrape = true;
        let report = run_stress_remote(cfg).expect("chaos stress run");
        let chaos = report.chaos.expect("chaos stamp");
        assert!(chaos.injected.injected() > 0, "nothing was injected");
        assert_eq!(
            report.chaos_mirror_agrees(),
            Some(true),
            "registry mirror diverged from the proxy tally: {:?} vs {:?}",
            report.metrics.as_ref().map(|m| &m.families),
            chaos.injected,
        );
        assert!(
            report.render().contains("registry counters agree"),
            "render must surface the mirror agreement"
        );
    }

    #[test]
    fn chaos_schedule_fingerprint_is_seed_stable() {
        // Two runs of the same seed stamp the same schedule pin; a
        // different seed diverges.
        let run = |seed: u64| {
            let mut cfg = base(AlgorithmKind::Cluster, 48);
            cfg.requests = 60;
            let mut cfg = wire(cfg, 2);
            cfg.chaos = Some(ChaosSpec::small());
            cfg.chaos_seed = seed;
            run_stress_remote(cfg)
                .expect("chaos stress run")
                .chaos
                .expect("chaos stamp")
                .fingerprint
        };
        assert_eq!(run(7), run(7), "same seed must re-print the same pin");
        assert_ne!(run(7), run(8), "different seeds must diverge");
    }
}
