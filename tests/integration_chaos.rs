//! End-to-end adversarial-network acceptance tests:
//!
//! * **seeded fleet chaos run** — a 3-node v2 fleet behind per-node
//!   fault-injecting proxies (partition windows, injected latency,
//!   slow-peer throttling, stream cuts, frame corruption) *plus*
//!   crash-restarts must finish with zero cross-node duplicates, zero
//!   recovered-node duplicates, and a tail-latency + SLO report — and a
//!   rerun with the same chaos seed must reproduce the identical fault
//!   schedule fingerprint and audit totals;
//! * **demux-death regression** — when a v2 connection dies with many
//!   requests in flight, every pending waiter must fail promptly with a
//!   typed broken-connection error instead of hanging forever;
//! * **failed handshakes are retry-safe** — no request exists before
//!   the `HelloOk` arrives, so a peer that hangs up or answers with a
//!   corrupt frame must never read as lease-in-doubt or fatal.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uuidp::client::frame::{
    encode_frame, read_frame, write_frame, FrameBody, TRAILER_LEN, VERSION,
};
use uuidp::client::{broken_connection, classify, Client, ErrorClass};
use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::IdSpace;
use uuidp::fleet::run::{run_fleet, FleetConfig, FleetReport};
use uuidp::netchaos::ChaosSpec;
use uuidp::service::service::ServiceConfig;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uuidp-chaos-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_fleet(tag: &str, chaos_seed: u64) -> FleetReport {
    let space = IdSpace::with_bits(48).unwrap();
    let mut service = ServiceConfig::new(AlgorithmKind::ClusterStar, space);
    service.shards = 2;
    service.audit_stripes = 8;
    service.master_seed = 0xC4A0_5EED;
    let dir = temp_dir(tag);
    let mut cfg = FleetConfig::new(service, 3, &dir);
    cfg.tenants = 6;
    cfg.requests = 240;
    cfg.count = 32;
    cfg.kill_every = Some(60);
    cfg.reservation = 64;
    // Every fault class the proxy knows, plus slow-peer throttling.
    cfg.chaos = Some(ChaosSpec::parse("small,throttle:256").unwrap());
    cfg.chaos_seed = chaos_seed;
    let report = run_fleet(cfg).expect("chaos fleet run completes");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn seeded_fleet_chaos_run_is_duplicate_free_and_reproducible() {
    let report = chaos_fleet("run-a", 0x5EED);

    // Graceful degradation, never corruption: the run took faults and
    // crash-restarts, yet the global audit is clean.
    assert!(report.restarts > 0, "kill schedule must fire");
    assert_eq!(report.cross_tenant_duplicate_ids, 0, "{report:?}");
    assert_eq!(report.recovered_duplicate_ids, 0, "{report:?}");
    let chaos = report.chaos.expect("chaos runs stamp their schedule");
    assert!(chaos.injected.connections > 0);

    // The report carries the tail and the error budget.
    assert!(report.p999_us >= report.p99_us && report.p99_us >= report.p50_us);
    let rendered = report.render();
    assert!(rendered.contains("p999"), "{rendered}");
    assert!(rendered.contains("slo:"), "{rendered}");
    assert!(rendered.contains("fault-class:"), "{rendered}");
    assert!(rendered.contains("schedule fingerprint"), "{rendered}");

    // Same chaos seed ⇒ bit-identical fault schedule and audit totals.
    let rerun = chaos_fleet("run-b", 0x5EED);
    let rechaos = rerun.chaos.expect("chaos stamp");
    assert_eq!(chaos.fingerprint, rechaos.fingerprint);
    assert_eq!(report.issued_ids, rerun.issued_ids);
    assert_eq!(report.global.duplicate_ids, rerun.global.duplicate_ids);
    assert_eq!(report.restarts, rerun.restarts);

    // A different seed derives a different schedule.
    let other = chaos_fleet("run-c", 0x00DD_5EED);
    assert_ne!(
        chaos.fingerprint,
        other.chaos.expect("chaos stamp").fingerprint
    );
}

#[test]
fn demux_death_fails_all_pending_waiters_promptly() {
    const WAITERS: usize = 3;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // A server that answers the handshake, swallows WAITERS lease
    // requests without replying, then drops the connection.
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_frame(&mut conn).unwrap();
        let FrameBody::Hello { space, .. } = hello.body else {
            panic!("expected hello");
        };
        write_frame(
            &mut conn,
            hello.corr,
            &FrameBody::HelloOk {
                version: VERSION,
                space,
            },
        )
        .unwrap();
        for _ in 0..WAITERS {
            read_frame(&mut conn).unwrap();
        }
        // Dropping `conn` closes the socket with all requests in flight.
    });

    let space = IdSpace::with_bits(24).unwrap();
    let client = Client::connect(addr, space).unwrap();
    let in_doubt = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let waiters: Vec<_> = (0..WAITERS)
        .map(|i| {
            let client = client.clone();
            let in_doubt = Arc::clone(&in_doubt);
            std::thread::spawn(move || {
                let err = client
                    .lease(i as u64, 8)
                    .expect_err("the reply can never arrive");
                let broken = broken_connection(&err)
                    .unwrap_or_else(|| panic!("untyped demux-death error: {err}"));
                if broken.class == ErrorClass::LeaseInDoubt {
                    in_doubt.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for w in waiters {
        w.join().expect("no waiter may panic");
    }
    // Promptly: seconds would mean a timeout fired instead of the
    // demux failing the waiters on connection death.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "waiters took {:?}",
        start.elapsed()
    );
    assert_eq!(
        in_doubt.load(Ordering::Relaxed),
        WAITERS,
        "a lost reply is lease-in-doubt for every waiter"
    );
    server.join().unwrap();
}

#[test]
fn failed_handshakes_are_retry_safe() {
    // (a) the peer accepts and hangs up; (b) it answers with a HelloOk
    // whose payload has one bit flipped (in the universe field, so a
    // decoder that skipped the checksum would report a fatal universe
    // mismatch instead).
    for corrupt in [false, true] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            if corrupt {
                let hello = read_frame(&mut conn).unwrap();
                let FrameBody::Hello { space, .. } = hello.body else {
                    panic!("expected hello");
                };
                let hello_ok = FrameBody::HelloOk {
                    version: VERSION,
                    space,
                };
                let mut bytes = encode_frame(hello.corr, &hello_ok);
                let last_payload_byte = bytes.len() - TRAILER_LEN - 1;
                bytes[last_payload_byte] ^= 0x01;
                conn.write_all(&bytes).unwrap();
            }
        });
        let err = Client::connect(addr, IdSpace::with_bits(24).unwrap())
            .expect_err("no handshake can complete");
        assert_eq!(
            classify(&err),
            ErrorClass::RetrySafe,
            "corrupt={corrupt}: {err}"
        );
        server.join().unwrap();
    }
}
