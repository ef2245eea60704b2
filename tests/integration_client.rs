//! Integration tests for the v2 client against a live `TcpServer`,
//! pinning the two client-facing acceptance stories:
//!
//! * **crash inside a lease** — the `halt_after_persists` hook kills
//!   the node *between* the write-ahead persist and the reply (the
//!   window no external kill can aim at); the client observes a dead
//!   connection, and after a restart the recovered tenant must never
//!   repeat anything the pre-crash instance could have emitted —
//!   acknowledged or not; leases pipelined behind the cut-off one get
//!   no reply either;
//! * **multiplexed audit visibility** — same-seed twin tenants driven
//!   concurrently through clones of one connection are counted exactly
//!   by the audit, and the client can watch the totals live via
//!   `summary` without stopping the service;
//! * **the session's retry ledger** — a `Session` spends exactly its
//!   budget on a dead server, never retries a fatal reply, and counts a
//!   redial only once it has been connected before.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use uuidp::client::frame::{encode_frame, read_frame, write_frame, FrameBody, VERSION};
use uuidp::client::{broken, Client, ClientOptions, ErrorClass, RetryPolicy, Session};
use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::{Id, IdSpace};
use uuidp::core::rng::{SeedDomain, SeedTree};
use uuidp::service::net::TcpServer;
use uuidp::service::service::{DurabilityConfig, ServiceConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uuidp-client-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_between_persist_and_reply_never_reissues_an_id() {
    let dir = temp_dir("mid-lease");
    let space = IdSpace::with_bits(24).unwrap();
    let config = |halt: Option<u64>| {
        let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, space);
        cfg.shards = 1;
        cfg.durability = Some(DurabilityConfig {
            dir: dir.clone(),
            reservation: 32,
            sync: false,
            halt_after_persists: halt,
        });
        cfg
    };

    // Run 1: the node is armed to die on its 3rd write-ahead persist —
    // which lands mid-lease: the record is on disk, the IDs have left
    // the generator, and the reply never happens.
    let server = TcpServer::bind("127.0.0.1:0", config(Some(3))).unwrap();
    let client = Client::connect(server.local_addr(), space).unwrap();
    let mut acked: HashSet<Id> = HashSet::new();
    let mut acked_leases = 0u32;
    // Lease until the node dies instead of replying.
    while let Ok(lease) = client.lease(0, 20) {
        acked_leases += 1;
        for arc in &lease.arcs {
            for i in 0..arc.len {
                acked.insert(arc.nth(space, i));
            }
        }
        assert!(acked_leases < 50, "the crash hook never fired");
    }
    // Leases of 20 against a reservation of 32: persists land on leases
    // 1, 2, 3 — the crash takes the 3rd lease's reply with it.
    assert_eq!(acked_leases, 2, "the crash must land mid-lease");
    assert_eq!(acked.len(), 40);
    // A halt is a crash, not a shutdown: no report anywhere.
    assert!(server.join().is_none(), "crashed node produced a report");

    // Run 2: a successor on the same state dir. Its stream must be
    // disjoint from every pre-crash ID — the 40 acknowledged AND the 20
    // in-flight ones the client never saw.
    let server = TcpServer::bind("127.0.0.1:0", config(None)).unwrap();
    let client = Client::connect(server.local_addr(), space).unwrap();
    let lease = client.lease(0, 200).unwrap();
    let mut recovered = Vec::new();
    for arc in &lease.arcs {
        for i in 0..arc.len {
            recovered.push(arc.nth(space, i));
        }
    }
    for id in &recovered {
        assert!(!acked.contains(id), "recovered tenant re-issued {id}");
    }
    // Stronger: recovery resumed the tenant's own permutation exactly
    // past the abandoned window — the crash happened at generated = 40
    // with a fresh reservation of 32, so the successor starts at
    // position 72 of the same seed's stream.
    let alg = AlgorithmKind::Cluster.build(space);
    let roots = SeedTree::new(config(None).master_seed);
    let mut reference = alg.spawn(roots.trial(0).seed(SeedDomain::Instance(0)));
    reference.skip(72).unwrap();
    for (i, id) in recovered.iter().enumerate() {
        assert_eq!(
            *id,
            reference.next_id().unwrap(),
            "recovered stream diverged at {i}"
        );
    }
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_leases_past_the_halt_hook_get_no_reply() {
    // The crash above, pipelined: ten leases in one write, the third of
    // which trips the hook. The node dies instead of answering it, and
    // no lease queued behind it is answered either, even though they
    // already sit in the shard's queue when the crash begins.
    let dir = temp_dir("pipelined-halt");
    let space = IdSpace::with_bits(24).unwrap();
    let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, space);
    cfg.shards = 1;
    cfg.durability = Some(DurabilityConfig {
        dir: dir.clone(),
        reservation: 32,
        sync: false,
        halt_after_persists: Some(3),
    });
    let server = TcpServer::bind("127.0.0.1:0", cfg).unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(
        &mut conn,
        0,
        &FrameBody::Hello {
            version: VERSION,
            space: space.size(),
        },
    )
    .unwrap();
    let hello = read_frame(&mut conn).unwrap();
    assert!(matches!(hello.body, FrameBody::HelloOk { .. }), "{hello:?}");

    let mut batch = Vec::new();
    for corr in 1..=10u64 {
        batch.extend_from_slice(&encode_frame(
            corr,
            &FrameBody::LeaseReq {
                tenant: 0,
                count: 20,
            },
        ));
    }
    std::io::Write::write_all(&mut conn, &batch).unwrap();
    // Persists land on leases 1, 2 and 3; the third is the crash.
    let mut answered = Vec::new();
    let end = loop {
        match read_frame(&mut conn) {
            Ok(reply) => {
                assert!(
                    matches!(reply.body, FrameBody::LeaseResp { granted: 20, .. }),
                    "{reply:?}"
                );
                answered.push(reply.corr);
            }
            Err(err) => break err,
        }
    };
    assert!(
        !matches!(
            end.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the connection must end in EOF, not a read timeout: {end:?}"
    );
    assert_eq!(
        answered,
        [1, 2],
        "only the leases before the crash are answered"
    );
    assert!(server.join().is_none(), "a halt is a crash, not a shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn twin_tenants_over_one_multiplexed_connection_are_counted_exactly() {
    // Tenants 0 and 5 share a seed; six threads drive all tenants
    // concurrently through clones of one connection, and the audit must
    // count every twin-issued ID exactly once — observable live.
    let space = IdSpace::with_bits(44).unwrap();
    let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, space);
    cfg.shards = 3;
    cfg.audit_threads = 2;
    cfg.seed_alias = Some((0, 5));
    let server = TcpServer::bind("127.0.0.1:0", cfg).unwrap();
    let client = Client::connect(server.local_addr(), space).unwrap();
    let per_lease = 64u128;
    let leases_per_tenant = 8u128;
    let workers: Vec<_> = (0..6u64)
        .map(|tenant| {
            let client = client.clone();
            std::thread::spawn(move || {
                for _ in 0..leases_per_tenant {
                    assert_eq!(client.lease(tenant, per_lease).unwrap().granted, per_lease);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    client.drain().unwrap();
    let live = client.summary().unwrap();
    assert_eq!(live.issued_ids, 6 * per_lease * leases_per_tenant);
    assert_eq!(
        live.duplicate_ids,
        per_lease * leases_per_tenant,
        "every twin-issued ID is a duplicate, counted exactly once"
    );
    // The service is still up: the live summary was not a shutdown.
    assert_eq!(client.lease(2, 3).unwrap().granted, 3);
    let final_summary = client.shutdown().unwrap();
    assert_eq!(final_summary.issued_ids, live.issued_ids + 3);
    assert_eq!(final_summary.duplicate_ids, live.duplicate_ids);
    server.join().unwrap();
}

/// A session to `addr` retrying up to `max_retries` times on a fast
/// schedule.
fn fast_session(addr: std::net::SocketAddr, space: IdSpace, max_retries: u32) -> Session {
    let policy = RetryPolicy {
        max_retries,
        base: Duration::from_micros(100),
        max: Duration::from_micros(200),
        ..RetryPolicy::default()
    };
    Session::new(addr, space, ClientOptions::default(), policy)
}

#[test]
fn session_spends_its_whole_budget_on_a_halted_server() {
    let space = IdSpace::with_bits(40).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    assert!(server.halt().is_some());

    let mut session = fast_session(addr, space, 2);
    session
        .call(|c| c.lease(0, 10))
        .expect_err("nothing listens");
    let faults = session.faults();
    assert_eq!(faults.failed_attempts(), 3, "{faults:?}");
    assert_eq!(faults.retries, 2, "{faults:?}");
    assert_eq!(faults.exhausted, 1, "{faults:?}");
    assert_eq!(session.failure_streak(), 3);
    assert_eq!(faults.reconnects, 0, "it never connected: {faults:?}");
}

#[test]
fn session_never_retries_a_fatal_reply() {
    // A stub that completes the handshake, then answers the lease with
    // the wrong frame kind: a protocol disagreement no retry can fix.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_frame(&mut conn).unwrap();
        let FrameBody::Hello { space, .. } = hello.body else {
            panic!("expected hello");
        };
        let hello_ok = FrameBody::HelloOk {
            version: VERSION,
            space,
        };
        write_frame(&mut conn, hello.corr, &hello_ok).unwrap();
        let lease = read_frame(&mut conn).unwrap();
        write_frame(&mut conn, lease.corr, &FrameBody::DrainResp).unwrap();
    });

    let mut session = fast_session(addr, IdSpace::with_bits(24).unwrap(), 3);
    let err = session
        .call(|c| c.lease(0, 8))
        .expect_err("a drain reply is no lease");
    assert!(err.to_string().contains("expected lease-resp"), "{err}");
    let faults = session.faults();
    assert_eq!(faults.failed_attempts(), 1, "{faults:?}");
    assert_eq!(faults.fatal, 1, "{faults:?}");
    assert_eq!(faults.retries, 0, "{faults:?}");
    assert_eq!(faults.exhausted, 1, "{faults:?}");
    stub.join().unwrap();
}

#[test]
fn session_counts_a_redial_after_success_as_one_reconnect() {
    let space = IdSpace::with_bits(40).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
    let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
    let mut session = fast_session(server.local_addr(), space, 1);
    assert_eq!(session.call(|c| c.lease(0, 10)).unwrap().granted, 10);
    assert_eq!(
        session.faults().reconnects,
        0,
        "the first dial is no reconnect"
    );

    // One failed attempt on the live connection, then the retry redials.
    let mut fail_once = true;
    let lease = session
        .call(|c| {
            if std::mem::take(&mut fail_once) {
                return Err(broken("injected", ErrorClass::RetrySafe));
            }
            c.lease(0, 10)
        })
        .unwrap();
    assert_eq!(lease.granted, 10);
    let faults = session.faults();
    assert_eq!(faults.retry_safe, 1, "{faults:?}");
    assert_eq!(faults.retries, 1, "{faults:?}");
    assert_eq!(faults.reconnects, 1, "{faults:?}");
    assert_eq!(faults.exhausted, 0, "{faults:?}");
    assert_eq!(session.failure_streak(), 0);
    session.call(|c| c.clone().shutdown()).unwrap();
    server.join().unwrap();
}
