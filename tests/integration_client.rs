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
//!   redial only once it has been connected before;
//! * **leader/follower reads** — callers sharing one connection read
//!   the socket for each other: every reply reaches the caller that
//!   asked for it, a caller whose reply never comes times out without
//!   stranding the others, and a read cut short by the timeout leaves
//!   its partial frame for the next reader.

use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uuidp::client::frame::{encode_frame, read_frame, write_frame, Frame, FrameBody, VERSION};
use uuidp::client::{broken, classify, Client, ClientOptions, ErrorClass, RetryPolicy, Session};
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

#[test]
fn eight_callers_on_one_connection_each_get_their_own_lease() {
    // Eight threads share one connection, so the read role changes
    // hands constantly: 500 leases each over 64 tenants, counts 1–64.
    // Every reply must reach the caller that asked for it, in full, and
    // the run must finish — a lost wake-up shows as a failure here,
    // not as a hung test.
    const THREADS: u64 = 8;
    const LEASES: u64 = 500;
    let space = IdSpace::with_bits(64).unwrap();
    let config = ServiceConfig::new(AlgorithmKind::ClusterStar, space);
    let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
    let client = Client::connect(server.local_addr(), space).unwrap();
    let (done, finished) = channel();
    let callers: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = client.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut issued = 0u128;
                for i in 0..LEASES {
                    let tenant = (i * THREADS + t) % 64;
                    let count = ((i * 37 + t * 11) % 64 + 1) as u128;
                    let lease = client.lease(tenant, count).expect("lease");
                    assert_eq!(lease.tenant, tenant, "another caller's reply");
                    assert_eq!(lease.granted, count);
                    assert_eq!(lease.arcs.iter().map(|a| a.len).sum::<u128>(), count);
                    assert!(lease.error.is_none(), "{:?}", lease.error);
                    issued += count;
                }
                done.send(issued).unwrap();
            })
        })
        .collect();
    drop(done);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut issued = 0u128;
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(Instant::now());
        match finished.recv_timeout(left) {
            Ok(ids) => issued += ids,
            Err(RecvTimeoutError::Timeout) => {
                panic!("a caller is still waiting after 30 s: a lost wake-up")
            }
            // A caller panicked: joining surfaces its message.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for caller in callers {
        caller.join().expect("no caller may fail");
    }
    client.drain().unwrap();
    let summary = client.summary().unwrap();
    assert_eq!(summary.issued_ids, issued);
    assert_eq!(summary.leases, THREADS * LEASES);
    assert_eq!(summary.duplicate_ids, 0);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// The bound on every reply in the stub tests below.
const STUB_TIMEOUT: Duration = Duration::from_millis(200);

/// A one-connection stub server: it answers the handshake, then runs
/// `script` on the connection.
fn stub_server(script: impl FnOnce(TcpStream) + Send + 'static) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
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
        script(conn);
    });
    (addr, stub)
}

/// A client whose every reply is bounded by [`STUB_TIMEOUT`].
fn stub_client(addr: SocketAddr) -> Client {
    let options = ClientOptions {
        request_timeout: Some(STUB_TIMEOUT),
        ..ClientOptions::default()
    };
    Client::connect_with(addr, IdSpace::with_bits(24).unwrap(), options).unwrap()
}

/// The stub's grant of `count` IDs to `tenant`.
fn stub_grant(tenant: u64, count: u128) -> FrameBody {
    FrameBody::LeaseResp {
        tenant,
        granted: count,
        arcs: vec![(tenant as u128 * 1000, count)],
        error: None,
    }
}

/// The tenant a lease request names.
fn tenant_of(frame: &Frame) -> u64 {
    match frame.body {
        FrameBody::LeaseReq { tenant, .. } => tenant,
        ref other => panic!("expected a lease request, got {other:?}"),
    }
}

/// Asserts `result` is a timed-out lease: lease-in-doubt, after about
/// [`STUB_TIMEOUT`].
fn assert_timed_out<T: std::fmt::Debug>(result: std::io::Result<T>, took: Duration) {
    let err = result.expect_err("the stub never answers this lease");
    assert_eq!(classify(&err), ErrorClass::LeaseInDoubt, "{err}");
    assert!(err.to_string().contains("timed out"), "{err}");
    assert!(
        took >= STUB_TIMEOUT && took < STUB_TIMEOUT * 10,
        "timed out after {took:?}"
    );
}

#[test]
fn an_unanswered_caller_times_out_without_stranding_the_answered_one() {
    // Caller A (tenant 1) is never answered; caller B (tenant 2) is,
    // once both requests are in. Whichever of the two reads the socket,
    // B gets its reply and A fails lease-in-doubt after its bound.
    for a_leads in [true, false] {
        let (first_in, first_arrived) = channel();
        let (addr, stub) = stub_server(move |mut conn| {
            let first = read_frame(&mut conn).unwrap();
            first_in.send(()).unwrap();
            let second = read_frame(&mut conn).unwrap();
            let b = if tenant_of(&first) == 2 {
                first
            } else {
                second
            };
            assert_eq!(tenant_of(&b), 2);
            write_frame(&mut conn, b.corr, &stub_grant(2, 5)).unwrap();
            // Hold the connection open until the client hangs up.
            while read_frame(&mut conn).is_ok() {}
        });
        let client = stub_client(addr);
        let caller = |tenant: u64| {
            let client = client.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                let result = client.lease(tenant, 5);
                (result, started.elapsed())
            })
        };
        let (first, second) = if a_leads { (1, 2) } else { (2, 1) };
        let first = caller(first);
        first_arrived.recv().unwrap();
        // The first caller is reading the socket by now; the second
        // waits behind it.
        std::thread::sleep(Duration::from_millis(50));
        let second = caller(second);
        let (a, b) = if a_leads {
            (first.join().unwrap(), second.join().unwrap())
        } else {
            let b = first.join().unwrap();
            (second.join().unwrap(), b)
        };
        let lease =
            b.0.unwrap_or_else(|e| panic!("a_leads={a_leads}: B lost its reply: {e}"));
        assert_eq!((lease.tenant, lease.granted), (2, 5));
        assert_timed_out(a.0, a.1);
        drop(client);
        stub.join().unwrap();
    }
}

#[test]
fn a_timed_out_read_leaves_its_partial_frame_for_the_next_reader() {
    // The stub sends half of A's reply, waits until A has timed out,
    // then sends the rest followed by B's reply. B decodes its own
    // reply only if the bytes A read before timing out were kept; A's
    // late reply is dropped, and the connection stays in step.
    let (addr, stub) = stub_server(|mut conn| {
        let a = read_frame(&mut conn).unwrap();
        assert_eq!(tenant_of(&a), 1);
        let a_reply = encode_frame(a.corr, &stub_grant(1, 5));
        let (head, tail) = a_reply.split_at(a_reply.len() / 2);
        std::io::Write::write_all(&mut conn, head).unwrap();
        // B asks only once A has timed out.
        let b = read_frame(&mut conn).unwrap();
        assert_eq!(tenant_of(&b), 2);
        let mut rest = tail.to_vec();
        rest.extend_from_slice(&encode_frame(b.corr, &stub_grant(2, 7)));
        std::io::Write::write_all(&mut conn, &rest).unwrap();
        let c = read_frame(&mut conn).unwrap();
        write_frame(&mut conn, c.corr, &stub_grant(tenant_of(&c), 9)).unwrap();
        while read_frame(&mut conn).is_ok() {}
    });
    let client = stub_client(addr);
    let started = Instant::now();
    let a = client.lease(1, 5);
    assert_timed_out(a, started.elapsed());
    let b = client.lease(2, 7).expect("B's reply follows A's late one");
    assert_eq!((b.tenant, b.granted), (2, 7));
    let c = client.lease(3, 9).expect("the connection is still in step");
    assert_eq!((c.tenant, c.granted), (3, 9));
    drop(client);
    stub.join().unwrap();
}
