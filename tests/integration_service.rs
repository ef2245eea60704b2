//! Integration tests pinning the service layer's concurrency story:
//!
//! * the parallel audit pipeline's headline counters are **bit-identical
//!   across every `(shards, audit_stripes, audit_threads)` combination**
//!   for the same seed and request script (property-tested over random
//!   scripts, with same-seed twin tenants injected so the counter is
//!   exercised, not just zero);
//! * injected duplicates survive the stripe-routing fan-out — the
//!   parallel pipeline has zero false negatives;
//! * the loopback TCP transport reproduces the in-process audit totals
//!   exactly for the same seed and mix (the stress driver differential).

use proptest::prelude::*;

use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::IdSpace;
use uuidp::service::service::{IdService, ServiceConfig};
use uuidp::service::stress::{run_stress, run_stress_remote, StressConfig, TrafficMix};

/// Replays `script` (tenant, count, reset?) against a fresh service and
/// returns the interleaving-invariant totals.
fn replay(
    seed: u64,
    shards: usize,
    stripes: usize,
    threads: usize,
    script: &[(u64, u128, bool)],
) -> (u128, u128, u128) {
    let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(13).unwrap());
    cfg.shards = shards;
    cfg.audit_stripes = stripes;
    cfg.audit_threads = threads;
    cfg.master_seed = seed;
    // Twin tenants guarantee duplicate material flows through the
    // pipeline in every case, so the proptest pins a live counter.
    cfg.seed_alias = Some((0, 1));
    let service = IdService::start(cfg);
    for &(tenant, count, reset) in script {
        // Resets stay off the twin pair so both twins remain in epoch 0
        // and their streams stay guaranteed-overlapping.
        if reset && tenant >= 2 {
            service.reset_tenant(tenant);
        }
        service.issue(tenant, count);
    }
    // A fixed twin tail makes the duplicate counter provably non-zero no
    // matter which tenants the random script happened to touch.
    service.issue(0, 64);
    service.issue(1, 64);
    service.drain();
    let report = service.shutdown();
    (
        report.issued_ids,
        report.audit.counts.duplicate_ids,
        report.audit.counts.recorded_ids,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn audit_totals_are_bit_identical_across_the_concurrency_grid(
        seed in any::<u64>(),
        script in prop::collection::vec((0u64..6, 1u128..160, any::<bool>()), 8..30),
    ) {
        let mut reference = None;
        for &shards in &[1usize, 3] {
            for &threads in &[1usize, 2, 5] {
                for &stripes in &[1usize, 11] {
                    let got = replay(seed, shards, stripes, threads, &script);
                    prop_assert!(got.1 > 0, "twin tenants must collide");
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => prop_assert_eq!(
                            *r, got,
                            "shards={} threads={} stripes={} changed the audit totals",
                            shards, threads, stripes
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn twin_injection_is_caught_exactly_through_the_parallel_pipeline() {
    // The zero-false-negative criterion, through the widest pipeline:
    // every ID the twin leases duplicates the victim's stream, and the
    // stripe-subset fan-out must count each exactly once.
    let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(48).unwrap());
    cfg.shards = 3;
    cfg.audit_stripes = 32;
    cfg.audit_threads = 5;
    cfg.seed_alias = Some((2, 7));
    let service = IdService::start(cfg);
    let per_lease = 256u128;
    let leases = 12u128;
    for _ in 0..leases {
        for tenant in 0..8u64 {
            service.issue(tenant, per_lease);
        }
    }
    service.drain();
    let report = service.shutdown();
    assert_eq!(report.issued_ids, 8 * per_lease * leases);
    assert_eq!(
        report.audit.counts.duplicate_ids,
        per_lease * leases,
        "parallel audit missed or double-counted twin duplicates"
    );
    assert_eq!(report.audit.per_thread.len(), 5);
}

/// The invariant slice of a stress report: everything that must not
/// depend on the transport. (`flagged_records` is an arrival-order
/// diagnostic and legitimately varies between runs.)
fn invariant_totals(r: &uuidp::service::stress::StressReport) -> (u64, u128, u64, u128, u128, u64) {
    (
        r.requests,
        r.issued_ids,
        r.errors,
        r.audit.counts.duplicate_ids,
        r.audit.counts.recorded_ids,
        r.audit.counts.recorded_arcs,
    )
}

#[test]
fn remote_stress_reproduces_in_process_audit_totals() {
    // The differential criterion: the same seed and mix, replayed once
    // through in-process channels and once over a loopback socket
    // through the real client, must produce identical audit totals.
    for mix in [TrafficMix::Skewed, TrafficMix::Uniform] {
        let mut service =
            ServiceConfig::new(AlgorithmKind::ClusterStar, IdSpace::with_bits(40).unwrap());
        service.shards = 2;
        service.audit_stripes = 16;
        service.audit_threads = 3;
        service.master_seed = 0xD1FF;
        // Twins make the duplicate counter non-trivial on both paths.
        service.seed_alias = Some((0, 3));
        let mut cfg = StressConfig::new(service, 6, 240, 32);
        cfg.mix = mix;
        let local = run_stress(cfg.clone());
        let remote = run_stress_remote(cfg).expect("loopback stress");
        assert!(
            local.audit.counts.collided(),
            "{mix}: twins must collide locally"
        );
        assert_eq!(
            invariant_totals(&local),
            invariant_totals(&remote),
            "{mix}: transport changed the audit totals"
        );
    }
}

proptest! {
    // Remote runs are whole client/server lifecycles, so a handful of
    // random scenarios is the budget; each one sweeps the full
    // {client pool width} × {shards, audit_threads} grid.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn duplicate_ids_are_bit_identical_across_pool_widths_and_concurrency(
        seed in any::<u64>(),
        tenants in 3u64..7,
        count in 8u128..48,
    ) {
        let mut reference: Option<(u64, u128, u64, u128, u128, u64)> = None;
        for workers in [1usize, 3] {
            for &shards in &[1usize, 3] {
                for &audit_threads in &[1usize, 4] {
                    let mut service = ServiceConfig::new(
                        AlgorithmKind::ClusterStar,
                        IdSpace::with_bits(40).unwrap(),
                    );
                    service.shards = shards;
                    service.audit_threads = audit_threads;
                    service.master_seed = seed;
                    // Twins keep the duplicate counter non-trivial.
                    service.seed_alias = Some((0, tenants - 1));
                    let mut cfg = StressConfig::new(service, tenants, 120, count);
                    cfg.mix = TrafficMix::Skewed;
                    cfg.remote_workers = workers;
                    let report = run_stress_remote(cfg).expect("loopback stress");
                    prop_assert!(
                        report.audit.counts.duplicate_ids > 0,
                        "twins must collide"
                    );
                    let got = invariant_totals(&report);
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => prop_assert_eq!(
                            *r, got,
                            "{} workers x {} shards x {} audit threads diverged",
                            workers, shards, audit_threads
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn remote_hunter_mix_observes_real_arcs_over_the_wire() {
    // The adaptive attacker needs the arcs echoed back through the
    // socket; if client-side parsing dropped or garbled them the game
    // would stall at the probe phase.
    let mut service = ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(20).unwrap());
    service.shards = 2;
    let mut cfg = StressConfig::new(service, 4, 150, 1);
    cfg.mix = TrafficMix::Hunter;
    let report = run_stress_remote(cfg).expect("loopback stress");
    assert!(report.requests >= 4, "probe phase never ran");
    assert_eq!(report.issued_ids, report.requests as u128);
    assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
}

#[test]
fn idle_v2_connections_cost_near_zero_wakeups() {
    // PR 8's reactor promise: parked v2 connections are free. A soak of
    // 256 idle connections must (a) leave the epoll reactor asleep —
    // the wakeup counter barely moves over two idle seconds, where the
    // poll-rotation fallback would spin thousands of passes — and
    // (b) leave every connection fully alive afterwards.
    use std::net::TcpStream;
    use uuidp::client::frame::{self, FrameBody};
    use uuidp::client::Client;
    use uuidp::service::net::TcpServer;

    let space = IdSpace::with_bits(40).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let registry = server.registry();
    let wakeups = registry.counter("uuidp_net_wakeups_total");

    let mut conns = Vec::new();
    for _ in 0..256 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        frame::write_frame(
            &mut stream,
            0,
            &FrameBody::Hello {
                version: frame::VERSION,
                space: space.size(),
            },
        )
        .unwrap();
        let hello = frame::read_frame(&mut stream).unwrap();
        assert!(matches!(hello.body, FrameBody::HelloOk { .. }));
        conns.push(stream);
    }

    let before = wakeups.get();
    std::thread::sleep(std::time::Duration::from_secs(2));
    let woke = wakeups.get() - before;
    if server.net_backend() == "epoll" {
        // The rotation fallback burns ~5000 passes/s at this backoff;
        // a sleeping epoll reactor wakes for nothing at all.
        assert!(
            woke < 500,
            "epoll reactor woke {woke} times over an idle 2s soak"
        );
    }

    // Liveness: every soaked connection still leases.
    for (i, stream) in conns.iter_mut().enumerate() {
        let corr = 1 + i as u64;
        frame::write_frame(
            stream,
            corr,
            &FrameBody::LeaseReq {
                tenant: (i % 8) as u64,
                count: 1,
            },
        )
        .unwrap();
        let reply = frame::read_frame(stream).unwrap();
        assert_eq!(reply.corr, corr);
        match reply.body {
            FrameBody::LeaseResp { granted, error, .. } => {
                assert_eq!(granted, 1, "conn {i}");
                assert!(error.is_none(), "conn {i}");
            }
            other => panic!("conn {i}: unexpected reply {other:?}"),
        }
    }
    drop(conns);

    let ctl = Client::connect(server.local_addr(), space).unwrap();
    let summary = ctl.shutdown().unwrap();
    assert_eq!(summary.issued_ids, 256);
    server.join().unwrap();
}
