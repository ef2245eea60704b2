//! Integration tests for the observability layer, pinning the PR's
//! acceptance stories end to end:
//!
//! * **scrape surface** — every connection scrapes the same registry
//!   over the v2 metrics frame, and the exported totals match the
//!   traffic that actually flowed;
//! * **flight recorder under chaos** — a `halt_after_persists` crash
//!   behind a netchaos proxy leaves a postmortem dump in the node's
//!   state dir containing the registry snapshot, the last trace
//!   events, and the assembled corr-id span timeline of the exact
//!   lease the crash cut off;
//! * **audit-duplicate dump** — an injected same-seed twin pair makes
//!   the shutdown path dump a flight recording on its own.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use uuidp::client::frame::{read_frame, write_frame, FrameBody, VERSION};
use uuidp::client::Client;
use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::clock;
use uuidp::core::id::IdSpace;
use uuidp::netchaos::{ChaosProxy, ChaosSpec};
use uuidp::obs::{parse_exposition, Stage};
use uuidp::service::net::TcpServer;
use uuidp::service::service::{DurabilityConfig, IdService, ServiceConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uuidp-obs-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The first flight dump whose filename carries `reason`, polling
/// briefly: the dump is written on the crashing thread, which the
/// accept-loop join does not strictly order against this reader.
fn find_flight(dir: &PathBuf, reason: &str) -> PathBuf {
    let prefix = format!("flight-{reason}-");
    for _ in 0..500 {
        let hit = std::fs::read_dir(dir).ok().and_then(|entries| {
            entries.flatten().map(|e| e.path()).find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix))
            })
        });
        if let Some(path) = hit {
            return path;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("no flight-{reason}-*.log appeared in {}", dir.display());
}

#[test]
fn every_connection_scrapes_the_same_registry() {
    let space = IdSpace::with_bits(44).unwrap();
    let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, space);
    cfg.shards = 2;
    let server = TcpServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();

    let first = Client::connect(addr, space).unwrap();
    for tenant in 0..4u64 {
        assert_eq!(first.lease(tenant, 32).unwrap().granted, 32);
    }
    let from_first = parse_exposition(&first.metrics().unwrap());
    assert_eq!(from_first["uuidp_leases_total"], 4.0);
    assert_eq!(from_first["uuidp_ids_issued_total"], 128.0);

    let second = Client::connect(addr, space).unwrap();
    assert_eq!(second.lease(9, 16).unwrap().granted, 16);
    let from_second = parse_exposition(&second.metrics().unwrap());
    assert_eq!(from_second["uuidp_leases_total"], 5.0);
    assert_eq!(from_second["uuidp_ids_issued_total"], 144.0);
    assert!(
        from_second.contains_key("uuidp_lease_latency_ns_count"),
        "histogram families must export"
    );

    drop(second);
    first.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn halt_behind_a_chaos_proxy_dumps_the_cut_leases_span_timeline() {
    // The PR's acceptance scenario: a node armed to die on its 3rd
    // write-ahead persist, reached through a netchaos proxy (latency
    // shaping only, so the persist schedule — and thus the victim
    // lease — is pinned). The raw v2 framing gives the test control of
    // the correlation ids, so it can stamp the client-send leg into
    // the same recorder the server uses and then find the whole causal
    // chain in the dump.
    let dir = temp_dir("flight-halt");
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
    let trace = server.trace();
    let spec = ChaosSpec::parse("none,latency_us:100").unwrap();
    let proxy = ChaosProxy::launch(server.local_addr(), spec, 0xF7).unwrap();
    proxy.attach_obs(&server.registry(), server.trace());

    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    write_frame(
        &mut conn,
        1,
        &FrameBody::Hello {
            version: VERSION,
            space: space.size(),
        },
    )
    .unwrap();
    let hello = read_frame(&mut conn).unwrap();
    assert!(matches!(hello.body, FrameBody::HelloOk { .. }), "{hello:?}");

    // Leases of 20 against a reservation window of 32: persists land
    // on leases 1, 2, and 3 — the third one fires the halt hook, so
    // the corr of the third request is the lease the crash cuts off.
    let mut halted_corr = None;
    for i in 0..50u64 {
        let corr = 100 + i;
        trace.record(
            corr,
            7,
            Stage::ClientSend,
            "lease-req",
            clock::monotonic_ns(),
        );
        write_frame(
            &mut conn,
            corr,
            &FrameBody::LeaseReq {
                tenant: 7,
                count: 20,
            },
        )
        .unwrap();
        match read_frame(&mut conn) {
            Ok(reply) => {
                assert!(
                    matches!(reply.body, FrameBody::LeaseResp { .. }),
                    "{reply:?}"
                );
                trace.record(
                    corr,
                    7,
                    Stage::ClientRecv,
                    "lease-resp",
                    clock::monotonic_ns(),
                );
            }
            Err(_) => {
                halted_corr = Some(corr);
                break;
            }
        }
    }
    let halted_corr = halted_corr.expect("the crash hook never fired");
    assert_eq!(halted_corr, 102, "the 3rd persist takes the 3rd lease");
    assert!(server.join().is_none(), "a halt is a crash, not a shutdown");
    proxy.shutdown();

    let dump = find_flight(&dir, "halt-after-persists");
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.starts_with("uuidp flight recorder"), "{text}");
    assert!(text.contains("reason: halt-after-persists"), "{text}");
    // Registry snapshot: all three persists made it into the counters
    // before the node died.
    assert!(text.contains("uuidp_persists_total 3"), "{text}");
    assert!(text.contains("uuidp_leases_total"), "{text}");
    // Last events: the proxy's connection plan and the server's demux
    // leg were both recorded into the shared recorder.
    assert!(text.contains("stage=proxy-conn"), "{text}");
    assert!(text.contains("stage=server-demux"), "{text}");
    // The assembled causal timeline of the affected lease: focused on
    // the halted corr, spanning client send → demux → the write-ahead
    // persist that pulled the trigger.
    assert!(text.contains(&format!("span corr={halted_corr}")), "{text}");
    let timeline = text
        .split("== span timeline ==")
        .nth(1)
        .expect("dump has a timeline section");
    assert!(timeline.contains("client-send"), "{timeline}");
    assert!(timeline.contains("server-demux"), "{timeline}");
    assert!(timeline.contains("worker-persist"), "{timeline}");
    assert!(timeline.contains("halt hook"), "{timeline}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_duplicates_dump_a_flight_recording_at_shutdown() {
    // Injected same-seed twins: tenants 0 and 1 share a seed, so the
    // audit must count duplicates — and a duplicate-bearing shutdown
    // must leave a postmortem dump in the state dir on its own.
    let dir = temp_dir("flight-twin");
    let space = IdSpace::with_bits(30).unwrap();
    let mut cfg = ServiceConfig::new(AlgorithmKind::Cluster, space);
    cfg.shards = 1;
    cfg.seed_alias = Some((0, 1));
    cfg.durability = Some(DurabilityConfig {
        dir: dir.clone(),
        reservation: 64,
        sync: false,
        halt_after_persists: None,
    });
    let service = IdService::start(cfg);
    for tenant in [0u64, 1] {
        assert_eq!(service.lease(tenant, 48).granted, 48);
    }
    let report = service.shutdown();
    assert_eq!(report.audit.counts.duplicate_ids, 48, "twins must collide");

    let dump = find_flight(&dir, "audit-duplicate");
    let text = std::fs::read_to_string(&dump).unwrap();
    assert!(text.contains("reason: audit-duplicate"), "{text}");
    assert!(text.contains("uuidp_audit_duplicate_ids 48"), "{text}");
    assert!(text.contains("== span timeline =="), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
