//! Integration tests pinning the service layer's concurrency story:
//!
//! * the parallel audit pipeline's headline counters are **bit-identical
//!   across every `(shards, audit_stripes, audit_threads)` combination**
//!   for the same seed and request script (property-tested over random
//!   scripts, with same-seed twin tenants injected so the counter is
//!   exercised, not just zero);
//! * injected duplicates survive the stripe-routing fan-out — the
//!   parallel pipeline has zero false negatives;
//! * the loopback TCP transport (a one-node fleet run) reproduces the
//!   in-process audit totals exactly for the same seed and mix, for
//!   every worker count (the stress driver differential);
//! * leases run to completion on the threads that receive them, under
//!   shard locks: concurrent in-process callers, and connections spread
//!   over several reactors, each lease their tenants' direct generator
//!   streams, and the service counts every lease and ID.

use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use proptest::prelude::*;

use uuidp::adversary::schedule::TrafficMix;
use uuidp::client::Client;
use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::{Id, IdSpace};
use uuidp::core::interval::Arc;
use uuidp::core::rng::{SeedDomain, SeedTree};
use uuidp::fleet::run::FleetConfig;
use uuidp::fleet::stress::run_stress_remote;
use uuidp::service::net::TcpServer;
use uuidp::service::service::{IdService, ServiceConfig};
use uuidp::service::stress::{run_stress, StressConfig};

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
        let remote = run_stress_remote(FleetConfig::one_node(cfg)).expect("loopback stress");
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
    // {lease workers} × {shards, audit_threads} grid.
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
                    let mut wire = FleetConfig::one_node(cfg);
                    wire.workers = workers;
                    let report = run_stress_remote(wire).expect("loopback stress");
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
    let report = run_stress_remote(FleetConfig::one_node(cfg)).expect("loopback stress");
    assert!(report.requests >= 4, "probe phase never ran");
    assert_eq!(report.issued_ids, report.requests as u128);
    assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
}

#[test]
fn idle_v2_connections_cost_near_zero_wakeups() {
    // PR 8's reactor promise: parked v2 connections are free. A soak of
    // 256 idle connections must (a) leave the epoll reactor asleep —
    // the wakeup counter barely moves over two idle seconds — and
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
    // A sleeping epoll reactor wakes for nothing at all.
    assert!(
        woke < 500,
        "epoll reactor woke {woke} times over an idle 2s soak"
    );

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

/// Runs `body` on a thread of its own and fails the test if it has not
/// finished within 30 s, instead of hanging.
fn within_30s<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("did not finish within 30 s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("the body panicked"))
        }
    }
}

/// The test script of caller `k` of `callers`: `leases` leases of 1–64
/// IDs over its own tenants (`t ≡ k mod callers`, 64 tenants in all).
fn script(k: u64, callers: u64, leases: u64) -> impl Iterator<Item = (u64, u128)> {
    (0..leases).map(move |i| {
        let tenant = k + callers * (i % (64 / callers));
        (tenant, u128::from(1 + (i * 13 + k * 7) % 64))
    })
}

/// Appends `arcs`' IDs to `tenant`'s stream.
fn extend(streams: &mut HashMap<u64, Vec<Id>>, space: IdSpace, tenant: u64, arcs: &[Arc]) {
    let ids = arcs
        .iter()
        .flat_map(|a| (0..a.len).map(move |i| a.nth(space, i)));
    streams.entry(tenant).or_default().extend(ids);
}

/// Checks that each of the 64 tenants' leased IDs, in lease order, are
/// its direct generator stream, and returns how many IDs that is.
fn assert_direct_streams(config: &ServiceConfig, streams: &HashMap<u64, Vec<Id>>) -> u128 {
    assert_eq!(streams.len(), 64);
    let alg = config.kind.build(config.space);
    let roots = SeedTree::new(config.master_seed);
    let mut issued = 0u128;
    for (tenant, stream) in streams {
        let mut direct = alg.spawn(roots.trial(0).seed(SeedDomain::Instance(*tenant)));
        for (i, id) in stream.iter().enumerate() {
            assert_eq!(*id, direct.next_id().unwrap(), "tenant {tenant} id {i}");
        }
        issued += stream.len() as u128;
    }
    issued
}

#[test]
fn concurrent_in_process_callers_lease_their_tenants_direct_streams() {
    // Eight threads call `IdService::lease` on their own threads, each
    // over its own eight tenants, so all eight take every shard's lock.
    const CALLERS: u64 = 8;
    const LEASES: u64 = 500;
    let mut config =
        ServiceConfig::new(AlgorithmKind::ClusterStar, IdSpace::with_bits(48).unwrap());
    config.shards = 3;
    let start = config.clone();
    let (streams, report) = within_30s(move || {
        let service = IdService::start(start);
        let streams: HashMap<u64, Vec<Id>> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|k| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut streams = HashMap::new();
                        for (tenant, count) in script(k, CALLERS, LEASES) {
                            let reply = service.lease(tenant, count);
                            assert_eq!(reply.granted, count, "tenant {tenant}");
                            extend(&mut streams, service.space(), tenant, &reply.arcs);
                        }
                        streams
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|caller| caller.join().expect("caller panicked"))
                .collect()
        });
        let report = service.summary();
        drop(service.shutdown());
        (streams, report)
    });
    let issued = assert_direct_streams(&config, &streams);
    assert_eq!(report.leases, CALLERS * LEASES);
    assert_eq!(report.issued_ids, issued);
    assert_eq!(report.audit.counts.recorded_ids, issued);
    assert_eq!(report.audit.counts.duplicate_ids, 0);
}

#[test]
fn connections_over_several_reactors_lease_their_tenants_direct_streams() {
    // Four connections to a server with three shards, so three
    // reactors, each connection over its own 16 tenants: every shard's
    // tenants are served from several reactors at once.
    const CLIENTS: u64 = 4;
    const LEASES: u64 = 1000;
    let space = IdSpace::with_bits(48).unwrap();
    let mut config = ServiceConfig::new(AlgorithmKind::ClusterStar, space);
    config.shards = 3;
    let bind = config.clone();
    let (streams, summary) = within_30s(move || {
        let server = TcpServer::bind("127.0.0.1:0", bind).unwrap();
        let addr = server.local_addr();
        let callers: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let client = Client::connect(addr, space).unwrap();
                std::thread::spawn(move || {
                    let mut streams = HashMap::new();
                    for (tenant, count) in script(k, CLIENTS, LEASES) {
                        let lease = client.lease(tenant, count).unwrap();
                        assert_eq!(lease.granted, count, "tenant {tenant}");
                        extend(&mut streams, space, tenant, &lease.arcs);
                    }
                    streams
                })
            })
            .collect();
        let streams: HashMap<u64, Vec<Id>> = callers
            .into_iter()
            .flat_map(|caller| caller.join().expect("caller panicked"))
            .collect();
        let closer = Client::connect(addr, space).unwrap();
        closer.drain().unwrap();
        let summary = closer.summary().unwrap();
        closer.shutdown().unwrap();
        server.join().unwrap();
        (streams, summary)
    });
    let issued = assert_direct_streams(&config, &streams);
    assert_eq!(summary.leases, CLIENTS * LEASES);
    assert_eq!(summary.issued_ids, issued);
    assert_eq!(summary.recorded_ids, issued);
    assert_eq!(summary.duplicate_ids, 0);
}
