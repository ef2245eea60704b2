//! The fleet runner: route a whole cluster through one request
//! schedule (the [`Scheduler`] the stress driver walks too), optionally
//! crash-restarting nodes along the way, and aggregate everything into
//! one [`FleetReport`].
//!
//! The runner walks the schedule on its own thread and hands each
//! oblivious step to one of `workers` tenant-pinned threads (tenant `t`
//! to worker `t % workers`, which leases on router lane `t % workers`),
//! without waiting for the reply; the hunter's steps lease on the
//! runner's thread, because each move waits for its arcs. Before each
//! crash-restart, each time-series window and the teardown the runner
//! waits for every worker to finish what it was handed, so kill points,
//! window contents, alerts and fingerprints are functions of the request
//! count, whatever the worker count.

use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Mutex;
use std::thread::Scope;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_adversary::schedule::{Scheduler, TrafficMix};
use uuidp_client::{Client, FaultCounters, ProtoVersion, RetryPolicy, CHAOS_TIMEOUT};
use uuidp_core::codec::fnv1a;
use uuidp_core::id::IdSpace;
use uuidp_core::interval::Arc;
use uuidp_core::rng::{uniform_below, Xoshiro256pp};
use uuidp_netchaos::{
    schedule_fingerprint, ChaosProxy, ChaosReport, ChaosSpec, FaultCounts, FINGERPRINT_CONNS,
};
use uuidp_obs::{families, render_slow_leases, AlertTransition, SlowLease, Snapshot, Stage};
use uuidp_service::service::{
    AuditReport, AuditThreadReport, ServiceConfig, ServiceReport, TENANT_BITS,
};
use uuidp_sim::audit::AuditCounts;

use crate::cluster::Fleet;
use crate::router::Router;
use crate::series::FleetSeries;

/// The seed lane for node `index`'s chaos proxy.
fn node_chaos_seed(chaos_seed: u64, index: usize) -> u64 {
    chaos_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Points node `index`'s chaos proxy at the node's *current*
/// incarnation's registry and trace recorder, so the proxy's
/// `uuidp_netchaos_*` counters show up in that node's scrapes. Called
/// at launch and re-called after every crash-restart (the successor
/// boots a fresh registry).
fn attach_node_obs(fleet: &Fleet, proxy: &ChaosProxy, index: usize) {
    let node = &fleet.nodes()[index];
    if let (Some(registry), Some(trace)) = (node.registry(), node.trace()) {
        proxy.attach_obs(&registry, trace);
    }
}

/// One direct (proxy-bypassing) scrape of node `index`, read into a
/// typed [`Snapshot`]. `Ok(None)` is a scrape that failed at the
/// socket, which degrades the node for its window; a scrape that lacks
/// a required family is an error that ends the run.
fn scrape_node(fleet: &Fleet, index: usize, space: IdSpace) -> io::Result<Option<Snapshot>> {
    let Ok(text) = Client::connect(fleet.addr(index), space).and_then(|c| c.metrics()) else {
        return Ok(None);
    };
    let snap = Snapshot::parse_prometheus(&text);
    let missing = families::missing(&snap);
    if !missing.is_empty() {
        return Err(io::Error::other(format!(
            "node {index} scrape is missing required families {missing:?}"
        )));
    }
    Ok(Some(snap))
}

/// One fleet-series aggregation tick: scrape every node (a failed
/// scrape degrades that node for the tick instead of aborting), feed
/// the evaluators, and fan the resulting alert transitions out — each
/// live node's registry gains `uuidp_alert_transitions_total` /
/// `uuidp_alerts_firing` and its trace ring is stamped with a
/// [`Stage::Alert`] event, so a crash's flight-recorder dump carries
/// the alert history that preceded it.
///
/// The run's one monotonicity check rides here: a counter that went
/// backwards on one `(node, incarnation)` series is an error.
fn series_tick(
    fleet: &Fleet,
    series: &mut FleetSeries,
    space: IdSpace,
    tick: u64,
    bad: u64,
    total: u64,
) -> io::Result<()> {
    let mut scrapes = Vec::with_capacity(fleet.node_count());
    for i in 0..fleet.node_count() {
        let scrape = scrape_node(fleet, i, space)?;
        scrapes.push(scrape.map(|snap| (fleet.nodes()[i].incarnation(), snap)));
    }
    let fired = series.tick(tick, &scrapes, bad, total);
    for (&(node, incarnation), s) in series.series() {
        if s.resets_total() > 0 {
            return Err(io::Error::other(format!(
                "node {node} incarnation {incarnation}: a counter went backwards by window {tick}"
            )));
        }
    }
    let firing = series.firing_rules().len() as i64;
    for node in fleet.nodes() {
        let (Some(registry), Some(trace)) = (node.registry(), node.trace()) else {
            continue;
        };
        registry.gauge("uuidp_alerts_firing").set(firing);
        let transitions = registry.counter("uuidp_alert_transitions_total");
        for t in &fired {
            transitions.inc();
            // Window index as the timestamp: the trace ring's clock is
            // whatever the recorder is handed, and the window index is
            // the only deterministic time the fleet has.
            trace.record(0, 0, Stage::Alert, t.detail, tick);
        }
    }
    Ok(())
}

/// One step handed to a worker.
enum Job {
    /// A lease whose reply only the router's ledger needs.
    Lease(u64, u128),
    /// Answers, once every earlier job is served, with the worker's
    /// first lease error since the previous barrier.
    Barrier(SyncSender<Option<io::Error>>),
}

/// Each node's own address, for the span fetches of [`lease_traced`]:
/// not its chaos proxy's, so a fetch draws no faults. The runner
/// updates a node's entry at its crash-restart, while every worker
/// waits at a barrier.
type NodeAddrs = Mutex<Vec<SocketAddr>>;

/// The runner's one lease call: routes the lease and, when the router's
/// tail sampler admits it, fetches its span timeline from the node
/// straight away. A node's trace ring keeps only each recording
/// thread's last events, so a span left until teardown is gone on any
/// run longer than a few hundred leases.
fn lease_traced(
    router: &Router,
    nodes: &NodeAddrs,
    space: IdSpace,
    tenant: u64,
    count: u128,
) -> io::Result<Vec<Arc>> {
    let (arcs, admitted) = router.lease_sampled(tenant, count)?;
    if let Some((corr, node)) = admitted {
        let addr = nodes.lock().expect("node addresses")[node];
        if let Ok(text) = fetch_timeline(addr, space, corr) {
            router.set_timeline(corr, text);
        }
    }
    Ok(arcs)
}

/// One span timeline, over a fresh connection to the node at `addr`.
fn fetch_timeline(addr: SocketAddr, space: IdSpace, corr: u64) -> io::Result<String> {
    Client::connect(addr, space)?.timeline(corr)
}

/// The runner's `workers` tenant-pinned lease threads (see the module
/// docs), each serving its queue in order through the shared router.
struct Workers {
    jobs: Vec<SyncSender<Job>>,
}

/// A worker thread ended early; only a panic does that, which the
/// enclosing scope re-raises.
fn worker_exited() -> io::Error {
    io::Error::other("a fleet worker exited")
}

impl Workers {
    /// Spawns `workers ≥ 1` threads in `scope`. With `abandon`, a lease
    /// whose retry budget ran out is dropped (its session counted it);
    /// without, it fails the run at the next barrier.
    fn spawn<'scope, 'env>(
        scope: &'scope Scope<'scope, 'env>,
        router: &'env Router,
        nodes: &'env NodeAddrs,
        space: IdSpace,
        workers: usize,
        abandon: bool,
    ) -> Workers {
        let jobs = (0..workers)
            .map(|_| {
                let (tx, rx) = sync_channel::<Job>(1024);
                scope.spawn(move || {
                    let mut failed = None;
                    for job in rx {
                        match job {
                            Job::Lease(tenant, count) => {
                                if let Err(e) = lease_traced(router, nodes, space, tenant, count) {
                                    if !abandon {
                                        failed.get_or_insert(e);
                                    }
                                }
                            }
                            Job::Barrier(done) => {
                                let _ = done.send(failed.take());
                            }
                        }
                    }
                });
                tx
            })
            .collect();
        Workers { jobs }
    }

    /// Hands `tenant`'s lease to its worker without waiting for it.
    fn lease(&self, tenant: u64, count: u128) -> io::Result<()> {
        let worker = &self.jobs[(tenant % self.jobs.len() as u64) as usize];
        worker
            .send(Job::Lease(tenant, count))
            .map_err(|_| worker_exited())
    }

    /// Waits until every worker has served every job handed to it, and
    /// returns the first lease error since the previous barrier.
    fn barrier(&self) -> io::Result<()> {
        let answers = self
            .jobs
            .iter()
            .map(|worker| {
                let (done, answer) = sync_channel(1);
                worker
                    .send(Job::Barrier(done))
                    .map_err(|_| worker_exited())?;
                Ok(answer)
            })
            .collect::<io::Result<Vec<Receiver<_>>>>()?;
        let mut result = Ok(());
        for answer in answers {
            if let Some(e) = answer.recv().map_err(|_| worker_exited())? {
                result = result.and(Err(e));
            }
        }
        result
    }
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The per-node service template (algorithm, universe, shards,
    /// audit pipeline, master seed, fault injection); its
    /// `audit_stripes` also stripe the router's global audits.
    /// `durability` is managed by the fleet — per node, under
    /// `state_dir`, and only with `kill_every`.
    pub service: ServiceConfig,
    /// Number of nodes.
    pub nodes: usize,
    /// Tenants generating load (pinned to nodes by `tenant % nodes`).
    pub tenants: u64,
    /// Lease requests to route.
    pub requests: u64,
    /// IDs per lease (Flood's hot tenant leases 4×, the hunter 1).
    pub count: u128,
    /// The request schedule's mix; tenants are node-pinned, so this is
    /// also the cross-node placement.
    pub placement: TrafficMix,
    /// Lease threads (`≥ 1`), each serving the tenants `t % workers`
    /// on a router lane of its own. Clean runs share one connection
    /// per node across them; under chaos each dials its own.
    pub workers: usize,
    /// Chaos mode: crash-restart a random node every `K` requests. Only
    /// such runs make their nodes durable; without it they keep no
    /// state.
    pub kill_every: Option<u64>,
    /// Adversarial-network mode: when set, every node gets a
    /// [`ChaosProxy`] built from this spec in front of it, the router
    /// dials the proxies, and node failures are retried (same node
    /// only) instead of failing the run.
    pub chaos: Option<ChaosSpec>,
    /// Seed for the proxies' fault schedules and the retry jitter.
    pub chaos_seed: u64,
    /// Write-ahead reservation window for node durability (used with
    /// `kill_every`).
    pub reservation: u128,
    /// Scrape every node's metric registry over the wire — once per
    /// time-series window and once more before the nodes shut down.
    /// Every scrape must carry the required families, and no counter
    /// may go backwards on one node incarnation at any window: either
    /// failure ends the run with an error.
    pub scrape: bool,
    /// Root directory for per-node durable state (used with
    /// `kill_every`).
    pub state_dir: PathBuf,
}

impl FleetConfig {
    /// A fleet of `nodes` nodes over `service`, with durable state (if
    /// any) under `state_dir` and modest defaults.
    pub fn new(service: ServiceConfig, nodes: usize, state_dir: impl Into<PathBuf>) -> Self {
        FleetConfig {
            service,
            nodes,
            tenants: 8,
            requests: 1000,
            count: 64,
            placement: TrafficMix::Uniform,
            workers: 1,
            kill_every: None,
            chaos: None,
            chaos_seed: 0,
            reservation: 1024,
            scrape: false,
            state_dir: state_dir.into(),
        }
    }

    /// Refuses, as an [`io::ErrorKind::InvalidInput`] error, a config
    /// no run can honor.
    fn check(&self) -> io::Result<()> {
        let refusal = if self.nodes == 0 {
            "a fleet needs at least one node".to_string()
        } else if self.workers == 0 {
            "a fleet needs at least one worker".to_string()
        } else if self.tenants > 1 << TENANT_BITS {
            format!(
                "{} tenants is above 2^{TENANT_BITS}, too wide for incarnation tagging",
                self.tenants
            )
        } else if self.kill_every == Some(0) {
            // A zero interval would silently disable chaos while the
            // report still advertises it.
            "kill_every must be at least 1 (None disables restarts)".to_string()
        } else {
            return Ok(());
        };
        Err(io::Error::new(io::ErrorKind::InvalidInput, refusal))
    }
}

/// One node's end-of-run accounting.
#[derive(Debug)]
pub struct NodeReport {
    /// Node index.
    pub node: usize,
    /// Crash-restarts this node went through.
    pub restarts: u32,
    /// The final incarnation's server-side report. Earlier
    /// incarnations' reports died in their crashes, which is the
    /// point: only the router's global audit spans them.
    pub report: ServiceReport,
}

/// What one fleet run measured.
#[derive(Debug)]
pub struct FleetReport {
    /// Nodes in the fleet.
    pub nodes: usize,
    /// The mix that drove the run.
    pub placement: TrafficMix,
    /// Leases routed.
    pub requests: u64,
    /// Total IDs issued (router-side count; authoritative across
    /// crashes).
    pub issued_ids: u128,
    /// Leases whose grant fell short.
    pub errors: u64,
    /// Wall clock from first request to the last lease served.
    pub elapsed: Duration,
    /// Aggregate issue rate through the fleet front door.
    pub ids_per_sec: f64,
    /// Median client-side lease latency through the router,
    /// microseconds (includes retry and backoff time).
    pub p50_us: f64,
    /// 99th-percentile client-side lease latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile client-side lease latency, microseconds.
    pub p999_us: f64,
    /// The router's per-fault-class ledger (all-zero without chaos).
    pub faults: FaultCounters,
    /// The adversarial-network stamp, when proxies were interposed.
    pub chaos: Option<ChaosReport>,
    /// Per-node registry snapshots, when scraping was enabled.
    pub metrics: Option<FleetMetricsReport>,
    /// Windowed time-series aggregation and burn-rate alert history,
    /// when scraping was enabled.
    pub series: Option<FleetSeriesReport>,
    /// Crash-restarts performed.
    pub restarts: u32,
    /// Incarnation-keyed global audit counters (restart-aware).
    pub global: AuditCounts,
    /// IDs issued to more than one *tenant* (restart-blind — genuine
    /// cross-tenant collisions, e.g. injected same-seed twins).
    pub cross_tenant_duplicate_ids: u128,
    /// IDs a tenant re-emitted across its own restarts. Non-zero means
    /// the durability layer failed; chaos runs hard-fail on it.
    pub recovered_duplicate_ids: u128,
    /// All surviving node audits merged ([`AuditReport::merge`] over
    /// every node's pipeline threads). Note what this *cannot* see:
    /// duplicates spanning two nodes — that is the router's global
    /// audit's job, and the gap between the two is the whole reason
    /// the fleet layer exists.
    pub merged_nodes: AuditReport,
    /// Per-node breakdown.
    pub per_node: Vec<NodeReport>,
    /// The slowest leases through the router, worst first, with their
    /// span timelines, fetched from their nodes as each was admitted
    /// (and again before shutdown, kept where that held more events).
    pub slow: Vec<SlowLease>,
}

/// The fleet's windowed time-series aggregation, summarized.
#[derive(Debug, Clone)]
pub struct FleetSeriesReport {
    /// Aggregation ticks taken (one merged cluster window each).
    pub windows: u64,
    /// Requests per window — the tick width; request-count windows keep
    /// a seeded run's window boundaries identical across reruns.
    pub width_requests: u64,
    /// Distinct `(node, incarnation)` series opened. Greater than the
    /// node count exactly when crash-restarts landed mid-run: a
    /// restarted node's counters start over under a fresh key, so the
    /// cluster rate dips but never goes negative.
    pub incarnation_series: usize,
    /// FNV-1a over every merged cluster window's deterministic counter
    /// families ([`crate::series::CLUSTER_FAMILIES`]): two same-seed
    /// runs print the same pin.
    pub cluster_fingerprint: u64,
    /// The largest `uuidp_ids_issued_total` delta of any retained
    /// cluster window: the hottest window's issue burst.
    pub peak_ids_per_window: u64,
    /// Scrapes that failed and degraded their node's series for the
    /// tick (also exported as `uuidp_fleet_scrape_errors_total`).
    pub scrape_errors: u64,
    /// Every burn-rate alert transition, in firing order.
    pub transitions: Vec<AlertTransition>,
    /// Rules still firing at shutdown.
    pub firing: Vec<&'static str>,
}

/// Per-node snapshots of the fleet's metric registries.
#[derive(Debug, Clone)]
pub struct FleetMetricsReport {
    /// Each node's registry snapshot, taken after the node shut down,
    /// so it holds every count the shutdown settled. These are the
    /// *final incarnation's* registries: a crash-restart boots a fresh
    /// registry, so on restarted nodes the totals cover post-recovery
    /// traffic only.
    pub per_node: Vec<Snapshot>,
}

impl FleetReport {
    /// Renders the human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "nodes:        {} ({} crash-restarts)\nplacement:    {}\n\
             requests:     {} leases, {} IDs issued, {} errors\n\
             elapsed:      {:.3}s\nthroughput:   {:.2}M IDs/s\n\
             lease p50:    {:.2} us (client-side, p99 {:.2} us, p999 {:.2} us)\n\
             global audit: {} IDs recorded, {} duplicate IDs \
             ({} cross-tenant, {} from recovered nodes)\n\
             node audits:  {} duplicate IDs across {} pipeline threads \
             (cross-node duplicates are invisible here)\n",
            self.nodes,
            self.restarts,
            self.placement,
            self.requests,
            self.issued_ids,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.ids_per_sec / 1e6,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.global.recorded_ids,
            self.global.duplicate_ids,
            self.cross_tenant_duplicate_ids,
            self.recovered_duplicate_ids,
            self.merged_nodes.counts.duplicate_ids,
            self.merged_nodes.per_thread.len(),
        );
        for n in &self.per_node {
            let _ = writeln!(
                out,
                "  node {}: {} leases, {} IDs, {} dup (final incarnation; {} restarts)",
                n.node,
                n.report.leases,
                n.report.issued_ids,
                n.report.audit.counts.duplicate_ids,
                n.restarts,
            );
        }
        if let Some(metrics) = &self.metrics {
            let issued: f64 = metrics
                .per_node
                .iter()
                .filter_map(|f| f.scalar("uuidp_ids_issued_total"))
                .sum();
            let _ = writeln!(
                out,
                "metrics:      {} nodes scraped, {} IDs on final-incarnation registries",
                metrics.per_node.len(),
                issued,
            );
        }
        if let Some(series) = &self.series {
            let _ = writeln!(
                out,
                "series:       {} windows × {} requests, {} node-incarnation series, \
                 cluster fingerprint {:016x}",
                series.windows,
                series.width_requests,
                series.incarnation_series,
                series.cluster_fingerprint,
            );
            if series.scrape_errors > 0 {
                let _ = writeln!(
                    out,
                    "scrape errors: {} (degraded ticks, run kept going)",
                    series.scrape_errors
                );
            }
            for t in &series.transitions {
                let _ = writeln!(out, "{}", t.render());
            }
            if series.firing.is_empty() {
                out.push_str("alerts at shutdown: none firing\n");
            } else {
                let _ = writeln!(
                    out,
                    "alerts at shutdown: {} firing",
                    series.firing.join(", ")
                );
            }
        }
        if let Some(chaos) = &self.chaos {
            out.push_str(&chaos.render(14));
        }
        if self.chaos.is_some() || self.faults != FaultCounters::default() {
            out.push_str(&self.faults.render_slo(self.requests));
            out.push('\n');
        }
        out.push_str(&render_slow_leases(&self.slow));
        out
    }
}

/// Runs one fleet scenario end to end: launch `nodes` nodes (durable
/// ones only with `kill_every`), route `requests` leases per the
/// request schedule through `workers` lease threads (crash-restarting
/// victims if chaos is on), then shut every node down gracefully and
/// merge the accounting. A config no run can honor is refused with an
/// [`io::ErrorKind::InvalidInput`] error before any node boots. On any
/// mid-run error the surviving nodes are torn down before the error
/// propagates — no leaked accept threads or listeners in long-lived
/// embedders.
pub fn run_fleet(config: FleetConfig) -> io::Result<FleetReport> {
    config.check()?;
    // A run that never crashes a node needs no state.
    let durable = config
        .kill_every
        .map(|_| (config.state_dir.as_path(), config.reservation));
    let mut fleet = Fleet::boot(config.service.clone(), config.nodes, durable)?;
    let result = drive_fleet(&mut fleet, &config);
    if result.is_err() {
        fleet.teardown();
    }
    result
}

/// The fallible body of [`run_fleet`], against an already-launched
/// fleet (split out so the caller owns error-path teardown).
fn drive_fleet(fleet: &mut Fleet, config: &FleetConfig) -> io::Result<FleetReport> {
    let space = config.service.space;
    let mut router = Router::new(
        space,
        config.nodes,
        config.service.audit_stripes,
        ProtoVersion::V2,
    );
    router.set_lanes(config.workers);
    // Adversarial-network mode: one deterministic proxy per node, the
    // router dials the proxies, and failures are retried (same node —
    // tenant affinity is what keeps retries duplicate-free).
    let proxies: Vec<ChaosProxy> = match config.chaos {
        Some(spec) => {
            router.set_dial_timeout(Some(CHAOS_TIMEOUT));
            router.set_retry_policy(RetryPolicy {
                seed: config.chaos_seed,
                ..RetryPolicy::default()
            });
            (0..config.nodes)
                .map(|i| {
                    ChaosProxy::launch(fleet.addr(i), spec, node_chaos_seed(config.chaos_seed, i))
                })
                .collect::<io::Result<_>>()?
        }
        None => Vec::new(),
    };
    // Each proxy mirrors its fault tally into its node's registry, so
    // node scrapes expose `uuidp_netchaos_*` next to the service's own
    // families (attached before any traffic can reach the proxy).
    for (i, proxy) in proxies.iter().enumerate() {
        attach_node_obs(fleet, proxy, i);
    }
    for i in 0..config.nodes {
        match proxies.get(i) {
            // Lazy under chaos: the first request probes (even the
            // initial dial can land in a partition window).
            Some(proxy) => router.set_addr(i, proxy.addr()),
            None => router.connect(i, fleet.addr(i))?,
        }
    }
    let mut scheduler = Scheduler::new(
        config.placement,
        config.tenants,
        config.requests,
        config.count,
        space,
        config.service.master_seed,
    );
    // The kill schedule gets its own seed lane so traffic and kill
    // choices stay independently reproducible.
    let mut chaos_rng = Xoshiro256pp::new(config.service.master_seed ^ 0xC4A0_5EED);
    let mut restarts = 0u32;
    // Under chaos an exhausted retry budget abandons the request
    // (counted against the SLO) instead of failing the run; on a
    // supposedly clean network it is a real bug.
    let abandon = config.chaos.is_some();

    let started_ns = clock::monotonic_ns();
    let mut submitted = 0u64;
    // Time-series aggregation ticks by *request count*, not wall clock:
    // a seeded rerun crosses every window boundary at the same request,
    // so the cluster fingerprint and alert sequence replay exactly.
    let mut series = config.scrape.then(|| FleetSeries::new(config.requests));
    let width = series.as_ref().map_or(u64::MAX, |s| s.width_requests());
    // One aggregation tick over the window since the previous one; a
    // no-op when nothing was submitted since. "Bad" for the
    // availability burn is a request the router gave up on: an
    // exhausted retry budget (the only way a submission fails to land
    // under chaos), or a short grant.
    let mut tick = {
        let router = &router;
        let (mut ticks, mut ticked_bad, mut ticked_submitted) = (0u64, 0u64, 0u64);
        move |series: &mut FleetSeries, fleet: &Fleet, submitted: u64| {
            if submitted == ticked_submitted {
                return Ok(());
            }
            let bad = router.fault_counters().exhausted + router.errors();
            series_tick(
                fleet,
                series,
                space,
                ticks,
                bad - ticked_bad,
                submitted - ticked_submitted,
            )?;
            (ticks, ticked_bad, ticked_submitted) = (ticks + 1, bad, submitted);
            io::Result::Ok(())
        }
    };
    let nodes: NodeAddrs = Mutex::new((0..config.nodes).map(|i| fleet.addr(i)).collect());
    std::thread::scope(|scope| {
        let workers = Workers::spawn(scope, &router, &nodes, space, config.workers, abandon);
        while submitted < config.requests {
            if let Some(k) = config.kill_every {
                if submitted > 0 && submitted.is_multiple_of(k) {
                    workers.barrier()?;
                    let victim = uniform_below(&mut chaos_rng, config.nodes as u128) as usize;
                    let addr = fleet.crash_restart(victim)?;
                    nodes.lock().expect("node addresses")[victim] = addr;
                    match proxies.get(victim) {
                        // The proxy's listen address is stable: point it
                        // at the successor and let the next request
                        // reconnect.
                        Some(proxy) => {
                            proxy.retarget(addr);
                            attach_node_obs(fleet, proxy, victim);
                            router.mark_restarted(victim);
                        }
                        None => router.reconnect_after_crash(victim, addr)?,
                    }
                    restarts += 1;
                }
            }
            let Some((tenant, count)) = scheduler.next(submitted) else {
                break;
            };
            if config.placement == TrafficMix::Hunter {
                match lease_traced(&router, &nodes, space, tenant, count) {
                    Ok(arcs) => {
                        if let Some(arc) = arcs.first() {
                            scheduler.observe(tenant, arc.start);
                        }
                    }
                    Err(_) if abandon => {}
                    Err(e) => return Err(e),
                }
            } else {
                workers.lease(tenant, count)?;
            }
            submitted += 1;
            if let Some(s) = series.as_mut() {
                if submitted.is_multiple_of(width) || submitted == config.requests {
                    workers.barrier()?;
                    tick(s, fleet, submitted)?;
                }
            }
        }
        workers.barrier()?;
        // An early scheduler exit (e.g. an exhausted hunter budget) can
        // leave a partial window unticked — flush it so the series
        // covers every submission.
        match series.as_mut() {
            Some(s) => tick(s, fleet, submitted),
            None => Ok(()),
        }
    })?;
    let elapsed = Duration::from_nanos(clock::monotonic_ns().saturating_sub(started_ns));

    // Graceful teardown: every surviving node drains and reports. The
    // proxies go passthrough first so the accounting can't be a
    // casualty of a fault scheduled mid-shutdown — and each node gets a
    // fresh (clean) connection rather than one carrying an unfired
    // fault plan.
    for (i, proxy) in proxies.iter().enumerate() {
        proxy.set_passthrough(true);
        router.set_addr(i, proxy.addr());
    }
    // Final wire scrape, before the nodes drain: checked like every
    // window's scrape.
    if config.scrape {
        for i in 0..config.nodes {
            scrape_node(fleet, i, space)?.ok_or_else(|| {
                io::Error::other(format!("node {i} did not answer its final scrape"))
            })?;
        }
    }
    // The worst leases' spans were fetched as each was admitted. A
    // fetch now replaces one only where it holds more events: the
    // audit-record stamp can land after the reply.
    let mut slow = router.slow_leases();
    for lease in &mut slow {
        if let Ok(text) = fetch_timeline(fleet.addr(lease.node), space, lease.corr) {
            if text.lines().count() > lease.timeline.lines().count() {
                lease.timeline = text;
            }
        }
    }
    let mut per_node = Vec::with_capacity(config.nodes);
    let mut snapshots = Vec::new();
    for i in 0..config.nodes {
        let registry = fleet.nodes()[i].registry();
        router.shutdown_node(i)?;
        // An error (not a panic) so run_fleet's teardown still reaps
        // the remaining nodes.
        let report = fleet.join_node(i).ok_or_else(|| {
            io::Error::other(format!("node {i} exited without a shutdown report"))
        })?;
        if config.scrape {
            snapshots.extend(registry.map(|r| r.snapshot()));
        }
        per_node.push(NodeReport {
            node: i,
            restarts: fleet.nodes()[i].incarnation(),
            report,
        });
    }

    let merged_nodes = AuditReport::merge(
        per_node
            .iter()
            .flat_map(|n| n.report.audit.per_thread.iter().copied())
            .collect::<Vec<AuditThreadReport>>(),
    );
    let issued_ids = router.issued();
    let global = router.global_counts();
    debug_assert_eq!(
        global.recorded_ids, issued_ids,
        "every issued ID reaches the global audit"
    );
    let chaos = config.chaos.map(|spec| {
        let mut injected = FaultCounts::default();
        let mut pin_bytes = Vec::with_capacity(proxies.len() * 8);
        for (i, proxy) in proxies.iter().enumerate() {
            injected.merge(&proxy.counts());
            let node_pin = schedule_fingerprint(
                &spec,
                node_chaos_seed(config.chaos_seed, i),
                FINGERPRINT_CONNS,
            );
            pin_bytes.extend_from_slice(&node_pin.to_le_bytes());
        }
        ChaosReport {
            spec,
            seed: config.chaos_seed,
            fingerprint: fnv1a(&pin_bytes),
            injected,
        }
    });
    let series = series.map(|s| FleetSeriesReport {
        windows: s.ticks(),
        width_requests: s.width_requests(),
        incarnation_series: s.incarnation_series(),
        cluster_fingerprint: s.fingerprint(),
        peak_ids_per_window: s
            .cluster_windows()
            .iter()
            .map(|w| w.counter("uuidp_ids_issued_total"))
            .max()
            .unwrap_or(0),
        scrape_errors: s.scrape_errors(),
        transitions: s.transitions().to_vec(),
        firing: s.firing_rules(),
    });
    let latency = router.latency();
    Ok(FleetReport {
        nodes: config.nodes,
        placement: config.placement,
        requests: submitted,
        issued_ids,
        errors: router.errors(),
        elapsed,
        ids_per_sec: issued_ids as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: latency.quantile_ns(0.50) / 1e3,
        p99_us: latency.quantile_ns(0.99) / 1e3,
        p999_us: latency.quantile_ns(0.999) / 1e3,
        faults: router.fault_counters(),
        chaos,
        metrics: config.scrape.then_some(FleetMetricsReport {
            per_node: snapshots,
        }),
        series,
        restarts,
        global,
        cross_tenant_duplicate_ids: router.cross_tenant_counts().duplicate_ids,
        recovered_duplicate_ids: router.recovered_duplicate_ids(),
        merged_nodes,
        per_node,
        slow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_core::id::IdSpace;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uuidp-fleet-run-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn base(kind: AlgorithmKind, bits: u32, nodes: usize, tag: &str) -> FleetConfig {
        let service = ServiceConfig::new(kind, IdSpace::with_bits(bits).unwrap());
        let mut cfg = FleetConfig::new(service, nodes, temp_dir(tag));
        cfg.requests = 240;
        cfg.tenants = 6;
        cfg.count = 32;
        cfg
    }

    #[test]
    fn clean_uniform_run_issues_everything_and_stays_duplicate_free() {
        let cfg = base(AlgorithmKind::ClusterStar, 44, 3, "clean");
        let dir = cfg.state_dir.clone();
        let report = run_fleet(cfg).unwrap();
        assert_eq!(report.requests, 240);
        assert_eq!(report.issued_ids, 240 * 32);
        assert_eq!(report.errors, 0);
        assert_eq!(report.restarts, 0);
        assert_eq!(report.global.recorded_ids, report.issued_ids);
        assert_eq!(report.global.duplicate_ids, 0);
        assert_eq!(report.recovered_duplicate_ids, 0);
        // Every node served something and reported in.
        assert_eq!(report.per_node.len(), 3);
        assert!(report.per_node.iter().all(|n| n.report.issued_ids > 0));
        // Node audits saw every ID too (no cross-node traffic is lost).
        assert_eq!(
            report.merged_nodes.counts.recorded_ids, report.issued_ids,
            "merged node audits must cover the whole fleet's issuance"
        );
        let text = report.render();
        assert!(text.contains("nodes:        3"));
        assert!(text.contains("global audit:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_node_twins_are_invisible_to_node_audits_but_not_the_router() {
        // The demonstration the fleet layer exists for: tenants 0 and 1
        // share a seed but live on different nodes, so no node-local
        // audit can ever see the duplicates — the global audit must.
        let mut cfg = base(AlgorithmKind::Cluster, 48, 2, "twins");
        cfg.service.seed_alias = Some((0, 1));
        let dir = cfg.state_dir.clone();
        let report = run_fleet(cfg).unwrap();
        let per_tenant = 240 / 6;
        assert_eq!(
            report.cross_tenant_duplicate_ids,
            per_tenant as u128 * 32,
            "every twin-issued ID is a cross-node duplicate"
        );
        assert_eq!(
            report.merged_nodes.counts.duplicate_ids, 0,
            "node-local audits cannot see cross-node duplicates"
        );
        assert_eq!(report.recovered_duplicate_ids, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skewed_and_hunter_placements_route_and_audit_cleanly() {
        for placement in [TrafficMix::Skewed, TrafficMix::Flood, TrafficMix::Hunter] {
            let mut cfg = base(
                AlgorithmKind::ClusterStar,
                40,
                3,
                &format!("mix-{placement}"),
            );
            cfg.placement = placement;
            cfg.requests = 150;
            let dir = cfg.state_dir.clone();
            let report = run_fleet(cfg).unwrap();
            assert!(report.requests > 0);
            assert_eq!(report.global.recorded_ids, report.issued_ids);
            assert_eq!(report.recovered_duplicate_ids, 0, "{placement}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn protocol_v2_fleet_matches_v1_totals_and_survives_chaos() {
        // The cross-protocol fleet differential, v1 side pinned: the
        // totals the v1 text router produced for this twin scenario
        // (240 leases × 32 IDs; the later twin's whole stream, one
        // tenant in six, duplicated across nodes). The v2 multiplexed
        // router must reproduce them bit-exactly — and under chaos, v2
        // recovery must not count the twins' duplicates as re-emitted.
        const V1_ISSUED: u128 = 7680;
        const V1_DUPLICATES: u128 = 1280;
        let run_with = |chaos: bool, tag: &str| {
            let mut cfg = base(AlgorithmKind::ClusterStar, 40, 3, tag);
            cfg.service.seed_alias = Some((0, 1)); // live duplicate counter
            if chaos {
                cfg.kill_every = Some(40);
                cfg.reservation = 64;
            }
            let dir = cfg.state_dir.clone();
            let report = run_fleet(cfg).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        };
        let v2 = run_with(false, "diff-v2");
        assert_eq!(v2.issued_ids, V1_ISSUED);
        assert_eq!(v2.global.recorded_ids, V1_ISSUED);
        assert_eq!(v2.global.duplicate_ids, V1_DUPLICATES);
        assert_eq!(v2.cross_tenant_duplicate_ids, V1_DUPLICATES);
        let chaotic = run_with(true, "chaos-v2");
        assert!(chaotic.restarts > 0, "chaos must actually restart nodes");
        assert_eq!(
            chaotic.recovered_duplicate_ids, 0,
            "v2 recovery re-emitted pre-crash IDs"
        );
        assert_eq!(chaotic.global.recorded_ids, chaotic.issued_ids);
    }

    #[test]
    fn adversarial_network_fleet_stays_duplicate_free_and_stamps_its_schedule() {
        // The acceptance scenario: 3 nodes, partitions +
        // latency + torn frames + corrupted replies from the proxies,
        // AND --kill-every crash-restarts — the run completes, the
        // global audit is duplicate-free, and the same seed re-stamps
        // the same schedule fingerprint.
        let run = |seed: u64, tag: &str| {
            let mut cfg = base(AlgorithmKind::ClusterStar, 44, 3, tag);
            cfg.chaos = Some(uuidp_netchaos::ChaosSpec::small());
            cfg.chaos_seed = seed;
            cfg.kill_every = Some(60);
            cfg.reservation = 64;
            let dir = cfg.state_dir.clone();
            let report = run_fleet(cfg).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        };
        let report = run(0xFEED, "netchaos-a");
        assert_eq!(report.requests, 240);
        assert!(report.restarts > 0, "kill-every must fire");
        assert_eq!(report.global.duplicate_ids, 0, "chaos duplicated an ID");
        assert_eq!(report.recovered_duplicate_ids, 0);
        assert_eq!(
            report.global.recorded_ids, report.issued_ids,
            "router audit lost issued IDs"
        );
        let chaos = report.chaos.expect("chaos stamp");
        let text = report.render();
        assert!(text.contains("chaos:"), "{text}");
        assert!(text.contains("slo:"), "{text}");
        // Replayability: the same seed pins the same schedule, another
        // seed diverges.
        let again = run(0xFEED, "netchaos-b");
        assert_eq!(
            chaos.fingerprint,
            again.chaos.expect("chaos stamp").fingerprint
        );
        let other = run(0xBEEF, "netchaos-c");
        assert_ne!(
            chaos.fingerprint,
            other.chaos.expect("chaos stamp").fingerprint
        );
    }

    #[test]
    fn scraped_fleet_exports_required_families_on_every_node() {
        let mut cfg = base(AlgorithmKind::ClusterStar, 44, 3, "scrape");
        cfg.scrape = true;
        let dir = cfg.state_dir.clone();
        let report = run_fleet(cfg).unwrap();
        let metrics = report.metrics.as_ref().expect("scrape report");
        assert_eq!(metrics.per_node.len(), 3);
        for snap in &metrics.per_node {
            assert_eq!(families::missing(snap), Vec::<&str>::new());
        }
        // No restarts, so the final-incarnation registries cover the
        // whole run: their summed counter equals the router's count.
        let issued: f64 = metrics
            .per_node
            .iter()
            .map(|f| f.scalar("uuidp_ids_issued_total").unwrap())
            .sum();
        assert_eq!(
            issued, report.issued_ids as f64,
            "registry totals must match the router's authoritative count"
        );
        assert!(report.render().contains("metrics:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_fleet_scrapes_expose_netchaos_counters_per_node() {
        let mut cfg = base(AlgorithmKind::ClusterStar, 44, 3, "scrape-chaos");
        cfg.chaos = Some(uuidp_netchaos::ChaosSpec::small());
        cfg.chaos_seed = 0x0B5;
        cfg.scrape = true;
        let dir = cfg.state_dir.clone();
        let report = run_fleet(cfg).unwrap();
        let metrics = report.metrics.as_ref().expect("scrape report");
        for (i, families) in metrics.per_node.iter().enumerate() {
            let conns = families
                .scalar("uuidp_netchaos_connections_total")
                .unwrap_or(0.0);
            assert!(conns > 0.0, "node {i}'s registry never saw its proxy");
        }
        // The scrape predates the shutdown round-trips, so the mirror
        // can only lag the proxies' final tallies — never exceed them.
        let chaos = report.chaos.expect("chaos stamp");
        let scraped: f64 = metrics
            .per_node
            .iter()
            .map(|f| f.scalar("uuidp_netchaos_connections_total").unwrap())
            .sum();
        assert!(scraped <= chaos.injected.connections as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_chaos_fleet_replays_alert_sequence_and_cluster_fingerprint() {
        // The PR's acceptance scenario: a scraped chaos fleet with
        // crash-restarts, run twice with one seed, must reproduce the
        // exact alert-transition sequence and cluster-series pin —
        // request-count windows and a sequential driver leave no room
        // for the wall clock to leak in.
        let run = |tag: &str| {
            let mut cfg = base(AlgorithmKind::ClusterStar, 44, 3, tag);
            // Hostile enough that some retry budgets exhaust — the
            // availability burn must actually transition, or the
            // determinism claim compares two empty lists.
            cfg.chaos =
                Some(uuidp_netchaos::ChaosSpec::parse("small,refuse:900,drop:600").unwrap());
            cfg.chaos_seed = 0xA1E7;
            cfg.kill_every = Some(60);
            cfg.reservation = 64;
            cfg.scrape = true;
            let dir = cfg.state_dir.clone();
            let report = run_fleet(cfg).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
        };
        let a = run("series-a");
        let b = run("series-b");
        let series_a = a.series.as_ref().expect("series report");
        let series_b = b.series.as_ref().expect("series report");
        assert_eq!(series_a.cluster_fingerprint, series_b.cluster_fingerprint);
        let lines =
            |s: &FleetSeriesReport| s.transitions.iter().map(|t| t.render()).collect::<Vec<_>>();
        assert!(!lines(series_a).is_empty(), "no alert ever transitioned");
        assert_eq!(lines(series_a), lines(series_b));
        // Kills landed, so restarted nodes opened fresh incarnation
        // series (a counter reset on any one of them fails the run).
        assert!(a.restarts > 0);
        assert!(series_a.incarnation_series > 3);
        assert_eq!(series_a.windows, 16);
        let text = a.render();
        assert!(text.contains("cluster fingerprint"), "{text}");
    }

    #[test]
    fn chaos_restarts_leave_zero_recovered_duplicates() {
        let mut cfg = base(AlgorithmKind::ClusterStar, 40, 3, "chaos");
        cfg.kill_every = Some(40);
        cfg.reservation = 64;
        let dir = cfg.state_dir.clone();
        let report = run_fleet(cfg).unwrap();
        assert!(report.restarts > 0, "chaos must actually restart nodes");
        assert_eq!(report.issued_ids, 240 * 32);
        assert_eq!(
            report.recovered_duplicate_ids, 0,
            "a recovered node re-emitted a pre-crash ID"
        );
        assert_eq!(report.global.recorded_ids, report.issued_ids);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn configs_no_run_can_honor_are_refused_before_any_node_boots() {
        let spoilers: [fn(&mut FleetConfig); 4] = [
            |c| c.nodes = 0,
            |c| c.workers = 0,
            |c| c.tenants = (1 << TENANT_BITS) + 1,
            |c| c.kill_every = Some(0),
        ];
        for (case, spoil) in spoilers.into_iter().enumerate() {
            let mut cfg = base(AlgorithmKind::Cluster, 40, 2, "refused");
            cfg.kill_every = Some(10);
            spoil(&mut cfg);
            let dir = cfg.state_dir.clone();
            let err = run_fleet(cfg)
                .err()
                .unwrap_or_else(|| panic!("case {case}: ran"));
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "case {case}: {err}"
            );
            assert!(!dir.exists(), "case {case}: a node booted");
        }
    }

    #[test]
    fn only_runs_that_restart_nodes_keep_state() {
        let cfg = base(AlgorithmKind::Cluster, 40, 2, "volatile");
        let dir = cfg.state_dir.clone();
        run_fleet(cfg).unwrap();
        assert!(!dir.exists(), "a run without restarts wrote state");

        let mut cfg = base(AlgorithmKind::Cluster, 40, 2, "durable");
        cfg.kill_every = Some(100);
        let dir = cfg.state_dir.clone();
        assert!(run_fleet(cfg).unwrap().restarts > 0);
        for node in 0..2 {
            let shards = std::fs::read_dir(dir.join(format!("node-{node}")))
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| path.join("snapshots.slots").is_file())
                .count();
            assert!(shards > 0, "node {node} keeps no shard log");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
