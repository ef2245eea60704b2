//! Integration tests pinning the fleet layer's headline guarantees:
//!
//! * the **global** collision audit's totals are bit-identical for
//!   every `(nodes, shards, audit_threads, workers)` combination on the
//!   same seed and schedule (property-tested, with same-seed twins injected
//!   so the duplicate counter is live, and a tiny universe so organic
//!   cross-tenant duplicates occur too);
//! * a **chaos** run (random crash-restarts mid-stress) with injected
//!   twins still detects the twins while recovered nodes contribute
//!   exactly zero duplicates — the acceptance criterion;
//! * node-local audits provably cannot see cross-node twins (the gap
//!   the global audit exists to close);
//! * the stress driver and the fleet runner replay one request
//!   schedule: a one-node fleet reproduces an in-process stress run's
//!   totals for every mix.

use proptest::prelude::*;

use uuidp::adversary::schedule::TrafficMix;
use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::IdSpace;
use uuidp::fleet::run::{run_fleet, FleetConfig};
use uuidp::service::service::ServiceConfig;
use uuidp::service::stress::{run_stress, StressConfig};

fn state_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("uuidp-it-fleet-{}-{tag}", std::process::id()))
}

/// Runs one fleet and returns its transport-and-topology-invariant
/// totals.
#[allow(clippy::too_many_arguments)]
fn replay(
    seed: u64,
    nodes: usize,
    shards: usize,
    audit_threads: usize,
    workers: usize,
    tenants: u64,
    requests: u64,
    count: u128,
    tag: &str,
) -> (u128, u128, u128, u128) {
    let mut service = ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(13).unwrap());
    service.master_seed = seed;
    service.shards = shards;
    service.audit_threads = audit_threads;
    service.audit_stripes = 8;
    // Twin tenants keep the duplicate counter provably non-zero.
    service.seed_alias = Some((0, 1));
    let dir = state_dir(tag);
    let mut cfg = FleetConfig::new(service, nodes, &dir);
    cfg.tenants = tenants;
    cfg.requests = requests;
    cfg.count = count;
    cfg.placement = TrafficMix::Skewed;
    cfg.workers = workers;
    let report = run_fleet(cfg).expect("fleet run");
    let _ = std::fs::remove_dir_all(&dir);
    (
        report.issued_ids,
        report.global.duplicate_ids,
        report.cross_tenant_duplicate_ids,
        report.global.recorded_ids,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn global_audit_is_bit_identical_across_the_topology_grid(
        seed in any::<u64>(),
        tenants in 2u64..6,
        requests in 30u64..70,
        count in 8u128..120,
    ) {
        let mut reference = None;
        for &nodes in &[1usize, 2, 3] {
            for &shards in &[1usize, 3] {
                for &threads in &[1usize, 2] {
                    for &workers in &[1usize, 3] {
                        let tag = format!("grid-{nodes}-{shards}-{threads}-{workers}");
                        let got = replay(
                            seed, nodes, shards, threads, workers, tenants, requests, count,
                            &tag,
                        );
                        prop_assert!(got.1 > 0, "twins must collide");
                        prop_assert_eq!(
                            got.1, got.2,
                            "without restarts the two owner keyings agree"
                        );
                        match &reference {
                            None => reference = Some(got),
                            Some(r) => prop_assert_eq!(
                                *r, got,
                                "nodes={} shards={} audit_threads={} workers={} changed the global audit",
                                nodes, shards, threads, workers
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn chaos_with_cross_node_twins_detects_them_and_recovered_nodes_add_nothing() {
    // The acceptance scenario: 4 nodes, twins 0 and 1 pinned to nodes 0
    // and 1, random nodes crash-restarted every 25 requests. The twins
    // may themselves be restarted (their streams then skip ahead), but
    // the victim's coverage dwarfs the skipped windows, so detection is
    // guaranteed — and the recovered-duplicate counter must stay at
    // exactly zero or crash recovery is broken.
    let mut service = ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(44).unwrap());
    service.seed_alias = Some((0, 1));
    service.shards = 2;
    service.audit_threads = 2;
    let dir = state_dir("chaos-twins");
    let mut cfg = FleetConfig::new(service, 4, &dir);
    cfg.tenants = 8;
    cfg.requests = 400;
    cfg.count = 64;
    cfg.kill_every = Some(25);
    cfg.reservation = 64;
    let report = run_fleet(cfg).expect("chaos fleet run");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        report.restarts >= 10,
        "chaos barely ran: {}",
        report.restarts
    );
    assert!(
        report.cross_tenant_duplicate_ids > 0,
        "global audit missed the cross-node twins"
    );
    assert_eq!(
        report.recovered_duplicate_ids, 0,
        "a recovered node re-emitted pre-crash IDs"
    );
    // The twins live on different nodes, so node-local audits see none
    // of their duplicates; every duplicate the global audit found is
    // cross-node (or cross-incarnation, and we just pinned those to 0).
    assert_eq!(
        report.merged_nodes.counts.duplicate_ids, 0,
        "node-local audits should be blind to cross-node twins"
    );
    assert_eq!(report.global.recorded_ids, report.issued_ids);
}

#[test]
fn clean_and_chaos_runs_issue_identical_per_tenant_volumes() {
    // Crash-restarts must be invisible to *throughput accounting*: the
    // same schedule issues the same number of IDs whether or not nodes
    // die along the way (recovery only skips IDs, it never loses or
    // duplicates requests).
    let run = |kill: Option<u64>, tag: &str| {
        let mut service =
            ServiceConfig::new(AlgorithmKind::ClusterStar, IdSpace::with_bits(40).unwrap());
        service.master_seed = 0xFEE7;
        let dir = state_dir(tag);
        let mut cfg = FleetConfig::new(service, 3, &dir);
        cfg.tenants = 6;
        cfg.requests = 300;
        cfg.count = 48;
        cfg.kill_every = kill;
        cfg.reservation = 96;
        let report = run_fleet(cfg).expect("fleet run");
        let _ = std::fs::remove_dir_all(&dir);
        (report.issued_ids, report.errors, report.restarts)
    };
    let (clean_issued, clean_errors, clean_restarts) = run(None, "clean-vol");
    let (chaos_issued, chaos_errors, chaos_restarts) = run(Some(30), "chaos-vol");
    assert_eq!(clean_restarts, 0);
    assert!(chaos_restarts > 0);
    assert_eq!(clean_errors, 0);
    assert_eq!(chaos_errors, 0);
    assert_eq!(clean_issued, chaos_issued, "chaos changed issuance volume");
}

#[test]
fn stress_and_fleet_replay_one_schedule() {
    // Both runners walk one `Scheduler`, and a one-node fleet's global
    // audit sees what a lone service's audit sees, so every mix must
    // give both the same totals. Twins 0 and 3 keep the duplicate
    // counter live; under Flood, tenant 3 is one of the cold tenants.
    for mix in [
        TrafficMix::Uniform,
        TrafficMix::Skewed,
        TrafficMix::Flood,
        TrafficMix::Hunter,
    ] {
        let mut service =
            ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(20).unwrap());
        service.master_seed = 0x5C4E;
        service.seed_alias = Some((0, 3));
        let mut stress = StressConfig::new(service.clone(), 5, 160, 24);
        stress.mix = mix;
        let local = run_stress(stress);

        let dir = state_dir(&format!("one-schedule-{mix}"));
        let mut fleet = FleetConfig::new(service, 1, &dir);
        fleet.tenants = 5;
        fleet.requests = 160;
        fleet.count = 24;
        fleet.placement = mix;
        let routed = run_fleet(fleet).expect("fleet run");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(
            local.audit.counts.duplicate_ids > 0,
            "{mix}: twins must collide"
        );
        assert_eq!(
            (
                local.requests,
                local.issued_ids,
                local.audit.counts.duplicate_ids,
                local.audit.counts.recorded_ids,
            ),
            (
                routed.requests,
                routed.issued_ids,
                routed.global.duplicate_ids,
                routed.global.recorded_ids,
            ),
            "{mix}: stress and fleet replayed different schedules"
        );
    }
}

#[test]
fn worker_count_leaves_fleet_totals_unchanged() {
    // Tenants are pinned to workers and to nodes, so the lease threads
    // only change who carries each tenant's in-order stream: every
    // worker count must give the same totals. Each kill run is compared
    // with the one-worker kill run, not with the clean run: recovery
    // skips a restarted twin's reservation window, which shifts its
    // stream.
    let run = |workers: usize, kill: Option<u64>| {
        let mut service =
            ServiceConfig::new(AlgorithmKind::ClusterStar, IdSpace::with_bits(40).unwrap());
        service.master_seed = 0x3E55;
        service.seed_alias = Some((0, 1));
        let dir = state_dir(&format!("workers-{workers}-{kill:?}"));
        let mut cfg = FleetConfig::new(service, 3, &dir);
        cfg.tenants = 6;
        cfg.requests = 240;
        cfg.count = 32;
        cfg.workers = workers;
        cfg.kill_every = kill;
        cfg.reservation = 64;
        let report = run_fleet(cfg).expect("fleet run");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.recovered_duplicate_ids, 0, "{workers} workers");
        (
            report.issued_ids,
            report.cross_tenant_duplicate_ids,
            report.recovered_duplicate_ids,
            report.restarts,
        )
    };
    for kill in [None, Some(40)] {
        let reference = run(1, kill);
        assert!(reference.1 > 0, "twins must collide");
        for workers in 2..=4 {
            assert_eq!(
                run(workers, kill),
                reference,
                "{workers} workers changed the totals (kill every {kill:?})"
            );
        }
    }
}
