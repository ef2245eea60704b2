//! The thread inventory of a service and of a bound server, read from
//! `/proc/self/task/*/comm`. Every thread the service or the server
//! starts is named `uuidp-accept`, `uuidp-react-<i>` or
//! `uuidp-audit-<t>`, and nothing else runs beside them: serving a
//! request starts no thread, and every stop path joins them all.
//!
//! This is a test binary of its own with one test, which runs its
//! cases in turn: the process then runs no thread but its own, the test
//! harness's and the ones each case starts.

use std::time::{Duration, Instant};

use uuidp::client::Client;
use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::IdSpace;
use uuidp::service::net::TcpServer;
use uuidp::service::service::{IdService, ServiceConfig};

fn config() -> ServiceConfig {
    ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(48).unwrap())
}

/// Every thread of this process, and the sorted names of its `uuidp-*`
/// threads.
fn threads() -> (usize, Vec<String>) {
    let comms: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    let mut named: Vec<String> = comms
        .iter()
        .filter(|comm| comm.starts_with("uuidp-"))
        .cloned()
        .collect();
    named.sort();
    (comms.len(), named)
}

/// Waits, for at most 5 s, until the process runs `baseline + want.len()`
/// threads and its `uuidp-*` threads are exactly `want`: a new thread
/// names itself only once it runs, and a joined one can linger in
/// `/proc/self/task` for a moment.
fn expect_threads(baseline: usize, want: &[&str]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (total, named) = threads();
        if total == baseline + want.len() && named == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{total} threads, uuidp ones {named:?}; expected {} with {want:?}",
            baseline + want.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The threads a bound server runs with the default two shards and one
/// audit thread, sorted.
const SERVER: [&str; 4] = [
    "uuidp-accept",
    "uuidp-audit-0",
    "uuidp-react-0",
    "uuidp-react-1",
];

#[test]
fn the_service_and_the_server_run_only_their_named_threads() {
    let baseline = threads().0;
    let space = config().space;

    // An unbound service runs its audit thread; a lease, a drain and a
    // summary are served on the caller's thread.
    let service = IdService::start(config());
    expect_threads(baseline, &["uuidp-audit-0"]);
    assert_eq!(service.lease(3, 100).granted, 100);
    service.drain();
    assert_eq!(service.summary().issued_ids, 100);
    expect_threads(baseline, &["uuidp-audit-0"]);
    assert_eq!(service.shutdown().issued_ids, 100);
    expect_threads(baseline, &[]);

    // A bound server adds an accept thread and a reactor per shard. The
    // reactor that reads a lease, a drain or a summary serves it: none
    // starts a thread or hands off to one.
    let server = TcpServer::bind("127.0.0.1:0", config()).unwrap();
    expect_threads(baseline, &SERVER);
    let client = Client::connect(server.local_addr(), space).unwrap();
    assert_eq!(client.lease(3, 100).unwrap().granted, 100);
    client.drain().unwrap();
    assert_eq!(client.summary().unwrap().issued_ids, 100);
    expect_threads(baseline, &SERVER);
    assert_eq!(client.shutdown().unwrap().issued_ids, 100);
    assert!(server.join().is_some());
    expect_threads(baseline, &[]);

    // A halt joins them all too.
    let server = TcpServer::bind("127.0.0.1:0", config()).unwrap();
    expect_threads(baseline, &SERVER);
    let client = Client::connect(server.local_addr(), space).unwrap();
    assert_eq!(client.lease(3, 100).unwrap().granted, 100);
    let report = server.halt().expect("halt yields the report");
    assert_eq!(report.issued_ids, 100);
    expect_threads(baseline, &[]);
}
