//! The closed-loop lease drivers: one round of each lease target, from
//! set-up through the correctness gates.
//!
//! A round sets the target up (timed as set-up), optionally warms it,
//! runs a measured window, reads the server-side registries, and tears
//! the target down through its normal shutdown path, checking the audits
//! on the way out. Every caller blocks on its lease before sending the
//! next (a closed loop), taking requests in order from the shared
//! workload sequence.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc as Shared;

use uuidp_client::{Client, ProtoVersion};
use uuidp_core::clock;
use uuidp_core::interval::Arc;
use uuidp_fleet::cluster::Fleet;
use uuidp_fleet::router::Router;
use uuidp_obs::{Histogram, Registry};
use uuidp_service::net::TcpServer;
use uuidp_service::service::{IdService, ServiceConfig, ServiceReport};

use crate::host;
use crate::spans::Tracer;
use crate::stats::FAILED;
use crate::workload::{FLEET_NODES, FLEET_RESERVATION};

/// What one lease returned, as the gates need it.
pub struct Grant {
    /// IDs the lease reports granting.
    pub granted: u128,
    /// Sum of the granted arcs' lengths.
    pub arc_sum: u128,
}

impl Grant {
    fn of(granted: u128, arcs: &[Arc]) -> Grant {
        Grant {
            granted,
            arc_sum: arcs.iter().map(|a| a.len).sum(),
        }
    }

    /// A grant known only by its arcs (the router's reply).
    fn of_arcs(arcs: &[Arc]) -> Grant {
        Grant::of(arcs.iter().map(|a| a.len).sum(), arcs)
    }
}

/// The request stream: the workload sequence and the index of the next
/// request, shared by every caller (requests wrap around the sequence).
pub struct Feed<'a> {
    /// The `(tenant, count)` sequence.
    pub seq: &'a [(u64, u128)],
    /// Index of the next request.
    pub cursor: AtomicUsize,
}

impl<'a> Feed<'a> {
    /// A feed over `seq` starting at request `start`.
    pub fn new(seq: &'a [(u64, u128)], start: usize) -> Feed<'a> {
        Feed {
            seq,
            cursor: AtomicUsize::new(start),
        }
    }

    fn position(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }
}

/// One caller thread's lease call.
pub type Caller<'a> = Box<dyn FnMut(u64, u128) -> io::Result<Grant> + Send + 'a>;

/// When a measured window ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many nanoseconds.
    Window(u64),
    /// After this many leases (fixed work).
    Ops(usize),
}

/// Width of the intervals a window is accounted in.
pub const INTERVAL_NS: u64 = 100_000_000;

/// One `INTERVAL_NS` interval of a window: the ops that ended in it, and
/// the process's CPU time meanwhile.
#[derive(Debug, Default, Clone)]
pub struct Interval {
    /// Latencies of the ops that ended in the interval; failures as
    /// [`FAILED`].
    pub lat_ns: Vec<u64>,
    /// Ops completed in full, and the IDs they moved.
    pub ops: u64,
    pub ids: u128,
    /// Process CPU time (read for whole intervals only).
    pub cpu_ns: u64,
}

/// Records an op that ended `elapsed_ns` into its window, with latency
/// `lat_ns`, completing `ops` ops that moved `ids` IDs (0 and 0 for a
/// failure).
pub fn count_interval(
    intervals: &mut Vec<Interval>,
    elapsed_ns: u64,
    lat_ns: u64,
    ops: u64,
    ids: u128,
) {
    let k = (elapsed_ns / INTERVAL_NS) as usize;
    if intervals.len() <= k {
        intervals.resize_with(k + 1, Interval::default);
    }
    let i = &mut intervals[k];
    i.lat_ns.push(lat_ns);
    i.ops += ops;
    i.ids += ids;
}

/// Every op's latency in ns over `intervals`; failures as [`FAILED`].
pub fn latencies(intervals: &[Interval]) -> Vec<u64> {
    intervals
        .iter()
        .flat_map(|i| i.lat_ns.iter().copied())
        .collect()
}

/// Stores a [`host::Sampler`]'s readings in the intervals they cover
/// and returns how many intervals are whole (the ones read).
pub fn read_host(intervals: &mut Vec<Interval>, readings: &[u64]) -> usize {
    if intervals.len() < readings.len() {
        intervals.resize_with(readings.len(), Interval::default);
    }
    for (i, &cpu_ns) in intervals.iter_mut().zip(readings) {
        i.cpu_ns = cpu_ns;
    }
    readings.len()
}

/// Where a driven window records spans: the tracer, the parent span,
/// and the name of each lease's span.
pub type Trace<'a> = Option<(&'a Tracer, u64, &'static str)>;

/// The caller-side account of one measured window.
#[derive(Debug, Default)]
pub struct Sample {
    /// The window's `INTERVAL_NS` intervals, from its start.
    pub intervals: Vec<Interval>,
    /// Leading intervals that are whole (the last one usually is not).
    pub whole: usize,
    /// Leases attempted.
    pub attempted: u64,
    /// Leases that returned an error or a short grant.
    pub failed: u64,
    /// IDs granted by completed leases.
    pub ids: u128,
    /// Wall time of the window.
    pub window_ns: u64,
    /// Process CPU time spent during the window.
    pub cpu_ns: u64,
    /// The first lease whose grant contradicted the request or its arcs.
    pub violation: Option<String>,
    /// The first lease error, for diagnostics.
    pub first_error: Option<String>,
}

impl Sample {
    fn absorb(&mut self, other: Sample) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ids += other.ids;
        if self.intervals.len() < other.intervals.len() {
            self.intervals
                .resize_with(other.intervals.len(), Interval::default);
        }
        for (mine, theirs) in self.intervals.iter_mut().zip(other.intervals) {
            mine.lat_ns.extend(theirs.lat_ns);
            mine.ops += theirs.ops;
            mine.ids += theirs.ids;
        }
        self.violation = self.violation.take().or(other.violation);
        self.first_error = self.first_error.take().or(other.first_error);
    }
}

/// Runs `callers` concurrently over `feed` until `stop`.
pub fn drive(
    callers: Vec<Caller<'_>>,
    feed: &Feed<'_>,
    stop: Stop,
    trace: Trace<'_>,
) -> Result<Sample, String> {
    let t0 = clock::monotonic_ns();
    let (deadline, limit) = match stop {
        Stop::Window(ns) => (t0 + ns, usize::MAX),
        Stop::Ops(n) => (u64::MAX, feed.position() + n),
    };
    let (seq, cursor) = (feed.seq, &feed.cursor);
    let cpu0 = host::cpu_ns();
    let sampler = host::Sampler::start(t0, INTERVAL_NS);
    let parts: Vec<std::thread::Result<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|mut call| {
                scope.spawn(move || {
                    let mut out = Sample::default();
                    let mut spans = trace.map(|(t, parent, _)| t.local(parent));
                    while clock::monotonic_ns() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= limit {
                            break;
                        }
                        let (tenant, count) = seq[i % seq.len()];
                        let a = clock::monotonic_ns();
                        let result = call(tenant, count);
                        let b = clock::monotonic_ns();
                        out.attempted += 1;
                        match result {
                            Ok(g) if g.granted == count && g.arc_sum == count => {
                                out.ids += count;
                                count_interval(&mut out.intervals, b - t0, b - a, 1, count);
                            }
                            Ok(g) => {
                                out.failed += 1;
                                count_interval(&mut out.intervals, b - t0, FAILED, 0, 0);
                                out.violation.get_or_insert_with(|| {
                                    format!(
                                        "lease {i} (tenant {tenant}, count {count}) granted {} \
                                         over arcs summing to {}",
                                        g.granted, g.arc_sum
                                    )
                                });
                            }
                            Err(e) => {
                                out.failed += 1;
                                count_interval(&mut out.intervals, b - t0, FAILED, 0, 0);
                                out.first_error.get_or_insert_with(|| e.to_string());
                            }
                        }
                        if let (Some(spans), Some((_, _, name))) = (spans.as_mut(), trace) {
                            spans.record(name, i as u64, a, b);
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let readings = sampler.finish();
    let mut sample = Sample::default();
    for part in parts {
        sample.absorb(part.map_err(|_| "a caller thread panicked".to_string())?);
    }
    sample.whole = read_host(&mut sample.intervals, &readings);
    sample.window_ns = clock::monotonic_ns() - t0;
    sample.cpu_ns = host::cpu_ns().saturating_sub(cpu0);
    Ok(sample)
}

/// Server-side readings of one round.
#[derive(Debug, Default, Clone)]
pub struct Readings {
    /// Worker-side issue latency (`uuidp_lease_latency_ns`), merged.
    pub issue: Histogram,
    /// `uuidp_leases_total`.
    pub leases: u64,
    /// `uuidp_persists_total`.
    pub persists: u64,
    /// `uuidp_net_wakeups_total`.
    pub wakeups: u64,
    /// `uuidp_net_replies_per_syscall`, merged.
    pub replies_per_syscall: Histogram,
    /// From the last lease returning until the audit caught up.
    pub drain_ns: u64,
    /// Mean and worst tap-to-audit lag.
    pub audit_lag_mean_ns: f64,
    pub audit_lag_max_ns: u64,
}

impl Readings {
    /// Folds another round's readings into these (lags and drain keep
    /// the worst round).
    pub fn merge(&mut self, r: &Readings) {
        self.issue.merge(&r.issue);
        self.replies_per_syscall.merge(&r.replies_per_syscall);
        self.leases += r.leases;
        self.persists += r.persists;
        self.wakeups += r.wakeups;
        self.drain_ns = self.drain_ns.max(r.drain_ns);
        self.audit_lag_mean_ns = self.audit_lag_mean_ns.max(r.audit_lag_mean_ns);
        self.audit_lag_max_ns = self.audit_lag_max_ns.max(r.audit_lag_max_ns);
    }
}

fn read_registries(registries: &[Shared<Registry>]) -> Readings {
    let mut r = Readings::default();
    for reg in registries {
        r.issue
            .merge(&reg.histogram("uuidp_lease_latency_ns").snapshot());
        r.leases += reg.counter("uuidp_leases_total").get();
        r.persists += reg.counter("uuidp_persists_total").get();
        r.wakeups += reg.counter("uuidp_net_wakeups_total").get();
        r.replies_per_syscall
            .merge(&reg.histogram("uuidp_net_replies_per_syscall").snapshot());
    }
    r
}

/// One round's results.
#[derive(Debug)]
pub struct Round {
    /// Set-up time: from nothing until the first lease may be sent.
    pub setup_ns: u64,
    /// The measured window (warm-up excluded).
    pub sample: Sample,
    /// Server-side readings, taken before shutdown.
    pub readings: Readings,
}

fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The service-side gates: no duplicates, the audit caught up with
/// every issued ID, and the service issued what the callers were
/// granted (exactly, unless a lease failed in doubt).
pub fn check_report(report: &ServiceReport, granted: u128, failed: u64) -> Result<(), String> {
    let counts = &report.audit.counts;
    gate(counts.duplicate_ids == 0, || {
        format!("service audit found {} duplicate IDs", counts.duplicate_ids)
    })?;
    gate(counts.recorded_ids == report.issued_ids, || {
        format!(
            "audit recorded {} IDs of {} issued",
            counts.recorded_ids, report.issued_ids
        )
    })?;
    gate(
        report.issued_ids == granted || (failed > 0 && report.issued_ids > granted),
        || {
            format!(
                "service issued {} IDs, callers were granted {granted}",
                report.issued_ids
            )
        },
    )
}

fn check_sample(sample: &Sample) -> Result<(), String> {
    match &sample.violation {
        Some(v) => Err(v.clone()),
        None => Ok(()),
    }
}

/// One round against a `TcpServer` (default options) shared by
/// `callers` threads over one multiplexed v2 `Client`.
pub fn mux_round(
    config: ServiceConfig,
    callers: usize,
    feed: &Feed<'_>,
    warm_ns: u64,
    stop: Stop,
    trace: Trace<'_>,
) -> Result<Round, String> {
    let space = config.space;
    let t0 = clock::monotonic_ns();
    let server = TcpServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let client =
        Client::connect(server.local_addr(), space).map_err(|e| format!("connect: {e}"))?;
    let setup_ns = clock::monotonic_ns() - t0;
    let callers_of = |client: &Client| -> Vec<Caller<'static>> {
        (0..callers)
            .map(|_| {
                let c = client.clone();
                Box::new(move |t, n| c.lease(t, n).map(|l| Grant::of(l.granted, &l.arcs)))
                    as Caller<'static>
            })
            .collect()
    };
    let warm = drive(callers_of(&client), feed, Stop::Window(warm_ns), None)?;
    let sample = drive(callers_of(&client), feed, stop, trace)?;
    check_sample(&warm)?;
    check_sample(&sample)?;
    let readings = read_registries(&[server.registry()]);
    let summary = client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let report = server.join().ok_or("server ended without a report")?;
    gate(summary.duplicate_ids == 0, || {
        format!(
            "wire summary reports {} duplicate IDs",
            summary.duplicate_ids
        )
    })?;
    check_report(&report, warm.ids + sample.ids, warm.failed + sample.failed)?;
    Ok(Round {
        setup_ns,
        sample,
        readings,
    })
}

/// One round against an in-process `IdService`: `callers` threads call
/// `IdService::lease`; the window closes when `summary()` shows the
/// audit has recorded every issued ID.
pub fn inproc_round(
    config: ServiceConfig,
    callers: usize,
    feed: &Feed<'_>,
    stop: Stop,
    trace: Trace<'_>,
) -> Result<Round, String> {
    let t0 = clock::monotonic_ns();
    let service = IdService::start(config);
    let setup_ns = clock::monotonic_ns() - t0;
    let svc = &service;
    let calls: Vec<Caller<'_>> = (0..callers)
        .map(|_| {
            Box::new(move |t, n| {
                let r = svc.lease(t, n);
                Ok(Grant::of(r.granted, &r.arcs))
            }) as Caller<'_>
        })
        .collect();
    let cpu0 = host::cpu_ns();
    let mut sample = drive(calls, feed, stop, trace)?;
    let last = clock::monotonic_ns();
    // `summary` answers only once the audit threads have processed every
    // record routed before it, so this is the audit catching up.
    let summary = service.summary();
    let drain_ns = clock::monotonic_ns() - last;
    sample.window_ns += drain_ns;
    sample.cpu_ns = host::cpu_ns().saturating_sub(cpu0);
    check_sample(&sample)?;
    check_report(&summary, sample.ids, sample.failed)?;
    let mut readings = read_registries(&[service.registry()]);
    readings.drain_ns = drain_ns;
    readings.audit_lag_mean_ns = summary.audit.mean_lag_ns;
    readings.audit_lag_max_ns = summary.audit.max_lag.as_nanos() as u64;
    check_report(&service.shutdown(), sample.ids, sample.failed)?;
    Ok(Round {
        setup_ns,
        sample,
        readings,
    })
}

/// One round against a fresh durable fleet under `dir`: one `Router`
/// (v2) thread leases through tenant-affine placement. With
/// `direct = Some(n)`, `2n` of the measured requests are also leased by
/// direct `Client::lease` calls to each tenant's node, for the router's
/// self time.
pub fn fleet_round(
    template: ServiceConfig,
    dir: &Path,
    feed: &Feed<'_>,
    warm_ns: u64,
    stop: Stop,
    trace: Trace<'_>,
    direct: Option<usize>,
) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(dir);
    let space = template.space;
    let stripes = template.audit_stripes;
    let t0 = clock::monotonic_ns();
    let mut fleet = Fleet::launch(template, FLEET_NODES, dir, FLEET_RESERVATION)
        .map_err(|e| format!("fleet launch: {e}"))?;
    let mut router = Router::new(space, FLEET_NODES, stripes, ProtoVersion::V2);
    for i in 0..FLEET_NODES {
        router
            .connect(i, fleet.addr(i))
            .map_err(|e| format!("router connect: {e}"))?;
    }
    let setup_ns = clock::monotonic_ns() - t0;

    let mut routed = |stop: Stop, trace: Trace<'_>| {
        let r = &mut router;
        let call: Caller<'_> = Box::new(move |t, n| r.lease(t, n).map(|a| Grant::of_arcs(&a)));
        drive(vec![call], feed, stop, trace)
    };
    let warm = routed(Stop::Window(warm_ns), None)?;
    let start = feed.position();
    // The direct pass replays the routed window's first requests straight
    // to each tenant's node, half before and half after the routed
    // window, so drift over the round cancels out of the difference.
    let clients = match direct {
        Some(_) => (0..FLEET_NODES)
            .map(|i| Client::connect(fleet.addr(i), space))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("direct connect: {e}"))?,
        None => Vec::new(),
    };
    let half = direct.unwrap_or(0);
    let direct_trace = trace.map(|(t, parent, _)| (t, parent, "fleet.direct_lease"));
    let before = direct_pass(&clients, feed.seq, start + half, half, direct_trace)?;
    let sample = routed(stop, trace)?;
    let after = direct_pass(&clients, feed.seq, start, half, direct_trace)?;
    let direct_ids = before.ids + after.ids;
    drop(clients);
    check_sample(&warm)?;
    check_sample(&sample)?;
    let routed_ids = warm.ids + sample.ids;

    let registries: Vec<_> = fleet.nodes().iter().filter_map(|n| n.registry()).collect();
    let readings = read_registries(&registries);
    gate(router.global_counts().duplicate_ids == 0, || {
        format!(
            "router global audit found {} duplicate IDs",
            router.global_counts().duplicate_ids
        )
    })?;
    gate(router.cross_tenant_counts().duplicate_ids == 0, || {
        "router tenant-keyed audit found duplicates".into()
    })?;
    gate(router.recovered_duplicate_ids() == 0, || {
        format!(
            "{} IDs re-emitted across restarts",
            router.recovered_duplicate_ids()
        )
    })?;
    gate(router.issued() == routed_ids, || {
        format!(
            "router issued {} IDs, callers were granted {routed_ids}",
            router.issued()
        )
    })?;
    let mut node_issued = 0u128;
    for i in 0..FLEET_NODES {
        router
            .shutdown_node(i)
            .map_err(|e| format!("node {i} shutdown: {e}"))?;
        let report = fleet
            .join_node(i)
            .ok_or_else(|| format!("node {i} ended without a report"))?;
        check_report(&report, report.issued_ids, 0)?;
        node_issued += report.issued_ids;
    }
    gate(node_issued == routed_ids + direct_ids, || {
        format!(
            "nodes issued {node_issued} IDs, callers were granted {}",
            routed_ids + direct_ids
        )
    })?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(Round {
        setup_ns,
        sample,
        readings,
    })
}

/// Leases `n` requests of `seq` from `from` directly from each tenant's
/// node (the router's tenant-affine placement, without the router).
fn direct_pass(
    clients: &[Client],
    seq: &[(u64, u128)],
    from: usize,
    n: usize,
    trace: Trace<'_>,
) -> Result<Sample, String> {
    if n == 0 {
        return Ok(Sample::default());
    }
    let call: Caller<'_> = Box::new(move |t, count| {
        let l = clients[(t % FLEET_NODES as u64) as usize].lease(t, count)?;
        Ok(Grant::of(l.granted, &l.arcs))
    });
    let sample = drive(vec![call], &Feed::new(seq, from), Stop::Ops(n), trace)?;
    check_sample(&sample)?;
    Ok(sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// Tenants 1 and 2 alternating, 256 IDs each.
    fn twin_sequence() -> Vec<(u64, u128)> {
        (0..16).map(|i| (1 + i % 2, 256)).collect()
    }

    fn bulk_config() -> ServiceConfig {
        Workload::IssueBulkInproc.service_config(Path::new("unused"))
    }

    #[test]
    fn distinct_tenants_pass_the_gates() {
        let seq = twin_sequence();
        let round = inproc_round(bulk_config(), 2, &Feed::new(&seq, 0), Stop::Ops(16), None)
            .expect("a clean round passes");
        assert_eq!(round.sample.attempted, 16);
        assert_eq!(round.sample.ids, 16 * 256);
    }

    #[test]
    fn the_duplicate_gate_rejects_seed_alias_twins() {
        // `seed_alias` makes tenant 2 draw tenant 1's seed: two identical
        // ID streams, which the service audit must flag.
        let mut config = bulk_config();
        config.seed_alias = Some((1, 2));
        let seq = twin_sequence();
        let err = inproc_round(config, 2, &Feed::new(&seq, 0), Stop::Ops(16), None)
            .expect_err("twins must fail the gate");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn short_grants_fail_the_lease_gate() {
        let seq = vec![(0, 10)];
        let short: Caller<'_> = Box::new(|_, _| {
            Ok(Grant {
                granted: 9,
                arc_sum: 9,
            })
        });
        let sample = drive(vec![short], &Feed::new(&seq, 0), Stop::Ops(3), None).unwrap();
        assert_eq!((sample.attempted, sample.failed), (3, 3));
        assert!(latencies(&sample.intervals).iter().all(|&ns| ns == FAILED));
        assert!(check_sample(&sample).is_err());
    }
}
