//! The fleet runner: route a whole cluster through one request
//! schedule (the [`Scheduler`] the stress driver walks too), optionally
//! crash-restarting nodes along the way, and aggregate everything into
//! one [`FleetReport`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_adversary::schedule::{Scheduler, TrafficMix};
use uuidp_client::{Client, FaultCounters, ProtoVersion, RetryPolicy, CHAOS_TIMEOUT};
use uuidp_core::codec::fnv1a;
use uuidp_core::id::IdSpace;
use uuidp_core::rng::{uniform_below, Xoshiro256pp};
use uuidp_netchaos::{
    schedule_fingerprint, ChaosProxy, ChaosReport, ChaosSpec, FaultCounts, FINGERPRINT_CONNS,
};
use uuidp_obs::families::REQUIRED as REQUIRED_FAMILIES;
use uuidp_obs::{parse_exposition, AlertTransition, Snapshot, Stage};
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

/// One direct (proxy-bypassing) exposition scrape of node `index`,
/// asserting every required family is present.
fn scrape_node(fleet: &Fleet, index: usize, space: IdSpace) -> io::Result<BTreeMap<String, f64>> {
    let families = parse_exposition(&Client::connect(fleet.addr(index), space)?.metrics()?);
    for family in REQUIRED_FAMILIES {
        assert!(
            families.contains_key(*family),
            "node {index} scrape is missing required family `{family}`"
        );
    }
    Ok(families)
}

/// One direct typed scrape of node `index` for time-series ingestion.
fn scrape_node_snapshot(fleet: &Fleet, index: usize, space: IdSpace) -> io::Result<Snapshot> {
    let text = Client::connect(fleet.addr(index), space)?.metrics()?;
    Ok(Snapshot::parse_prometheus(&text))
}

/// One fleet-series aggregation tick: scrape every node (a failed
/// scrape degrades that node for the tick instead of aborting), feed
/// the evaluators, and fan the resulting alert transitions out — each
/// live node's registry gains `uuidp_alert_transitions_total` /
/// `uuidp_alerts_firing` and its trace ring is stamped with a
/// [`Stage::Alert`] event, so a crash's flight-recorder dump carries
/// the alert history that preceded it.
fn series_tick(
    fleet: &Fleet,
    series: &mut FleetSeries,
    space: IdSpace,
    tick: u64,
    bad: u64,
    total: u64,
) -> Vec<AlertTransition> {
    let scrapes: Vec<Option<(u32, Snapshot)>> = (0..fleet.node_count())
        .map(|i| {
            scrape_node_snapshot(fleet, i, space)
                .ok()
                .map(|snap| (fleet.nodes()[i].incarnation(), snap))
        })
        .collect();
    let fired = series.tick(tick, &scrapes, bad, total);
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
    fired
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The per-node service template (algorithm, universe, shards,
    /// audit pipeline, master seed, fault injection); its
    /// `audit_stripes` also stripe the router's global audits.
    /// `durability` is managed by the fleet — per node, under
    /// `state_dir`.
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
    /// Chaos mode: crash-restart a random node every `K` requests.
    pub kill_every: Option<u64>,
    /// Adversarial-network mode: when set, every node gets a
    /// [`ChaosProxy`] built from this spec in front of it, the router
    /// dials the proxies, and node failures are retried (same node
    /// only) instead of failing the run.
    pub chaos: Option<ChaosSpec>,
    /// Seed for the proxies' fault schedules and the retry jitter.
    pub chaos_seed: u64,
    /// Write-ahead reservation window for node durability.
    pub reservation: u128,
    /// Scrape every node's metric registry over the wire — once at the
    /// halfway mark and once after the last drain — asserting the
    /// required families are present and `_total`/`_count` families
    /// never move backwards on a stable incarnation.
    pub scrape: bool,
    /// Root directory for per-node durable state.
    pub state_dir: PathBuf,
}

impl FleetConfig {
    /// A fleet of `nodes` nodes over `service`, with durable state
    /// under `state_dir` and modest defaults.
    pub fn new(service: ServiceConfig, nodes: usize, state_dir: impl Into<PathBuf>) -> Self {
        FleetConfig {
            service,
            nodes,
            tenants: 8,
            requests: 1000,
            count: 64,
            placement: TrafficMix::Uniform,
            kill_every: None,
            chaos: None,
            chaos_seed: 0,
            reservation: 1024,
            scrape: false,
            state_dir: state_dir.into(),
        }
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
    /// Wall clock from first request to last drain.
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
    /// Per-node wire scrapes of the metric registries, when enabled.
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
    /// In-place counter resets the clamp absorbed (expected 0 — the
    /// incarnation keying catches restarts first).
    pub resets: u64,
    /// FNV-1a over every merged cluster window's deterministic counter
    /// families ([`crate::series::CLUSTER_FAMILIES`]): two same-seed
    /// runs print the same pin.
    pub cluster_fingerprint: u64,
    /// Scrapes that failed and degraded their node's series for the
    /// tick (also exported as `uuidp_fleet_scrape_errors_total`).
    pub scrape_errors: u64,
    /// Every burn-rate alert transition, in firing order.
    pub transitions: Vec<AlertTransition>,
    /// Rules still firing at shutdown.
    pub firing: Vec<&'static str>,
}

/// Per-node wire scrapes of the fleet's metric registries.
#[derive(Debug, Clone)]
pub struct FleetMetricsReport {
    /// Mid-run scrapes that completed (one per node, taken while the
    /// load loop paused at the halfway mark).
    pub mid_scrapes: usize,
    /// End-of-run exposition families per node, flattened by
    /// [`parse_exposition`]. These are the *final incarnation's*
    /// registries: a crash-restart boots a fresh registry, so on
    /// restarted nodes the totals cover post-recovery traffic only.
    pub per_node: Vec<BTreeMap<String, f64>>,
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
                .filter_map(|f| f.get("uuidp_ids_issued_total"))
                .sum();
            let _ = writeln!(
                out,
                "metrics:      {} nodes scraped ({} mid-run), {} IDs on final-incarnation registries",
                metrics.per_node.len(),
                metrics.mid_scrapes,
                issued,
            );
        }
        if let Some(series) = &self.series {
            let _ = writeln!(
                out,
                "series:       {} windows × {} requests, {} node-incarnation series, \
                 {} resets, cluster fingerprint {:016x}",
                series.windows,
                series.width_requests,
                series.incarnation_series,
                series.resets,
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
        out
    }
}

/// Runs one fleet scenario end to end: launch `nodes` durable nodes,
/// route `requests` leases per the request schedule (crash-restarting
/// victims if chaos is on), then shut every node down gracefully and
/// merge the accounting. On any mid-run error the surviving nodes are
/// torn down before the error propagates — no leaked accept threads or
/// listeners in long-lived embedders.
pub fn run_fleet(config: FleetConfig) -> io::Result<FleetReport> {
    assert!(
        config.tenants <= 1 << TENANT_BITS,
        "tenant space too wide for incarnation tagging"
    );
    // A zero interval would silently disable chaos while the report
    // still advertises it — reject instead of misleading.
    assert!(
        config.kill_every != Some(0),
        "kill_every must be at least 1 (None disables chaos)"
    );
    let mut fleet = Fleet::launch(
        config.service.clone(),
        config.nodes,
        &config.state_dir,
        config.reservation,
    )?;
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

    let started_ns = clock::monotonic_ns();
    let mut submitted = 0u64;
    // Mid-run scrape state: `(incarnation, families)` per node, taken
    // while the load loop pauses at the halfway mark.
    let mid_scrape_at = config.requests / 2;
    let mut mid: Vec<(u32, BTreeMap<String, f64>)> = Vec::new();
    // Time-series aggregation ticks by *request count*, not wall clock:
    // a seeded rerun crosses every window boundary at the same request,
    // so the cluster fingerprint and alert sequence replay exactly.
    let mut series = config.scrape.then(|| FleetSeries::new(config.requests));
    let width = series.as_ref().map_or(u64::MAX, |s| s.width_requests());
    let mut next_tick_at = width;
    let mut ticks = 0u64;
    let mut ticked_bad = 0u64;
    let mut ticked_submitted = 0u64;
    while submitted < config.requests {
        if config.scrape && submitted == mid_scrape_at && mid.is_empty() {
            for i in 0..config.nodes {
                mid.push((
                    fleet.nodes()[i].incarnation(),
                    scrape_node(fleet, i, space)?,
                ));
            }
        }
        if let Some(k) = config.kill_every {
            if submitted > 0 && submitted.is_multiple_of(k) {
                let victim = uniform_below(&mut chaos_rng, config.nodes as u128) as usize;
                let addr = fleet.crash_restart(victim)?;
                match proxies.get(victim) {
                    // The proxy's listen address is stable: point it at
                    // the successor and let the next request reconnect.
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
        match router.lease(tenant, count) {
            Ok(arcs) => {
                if let Some(arc) = arcs.first() {
                    scheduler.observe(tenant, arc.start);
                }
            }
            // Under chaos an exhausted retry budget abandons the
            // request (counted against the SLO) instead of failing the
            // run; on a supposedly clean network it is a real bug.
            Err(e) if config.chaos.is_some() => {
                let _ = e;
            }
            Err(e) => return Err(e),
        }
        submitted += 1;
        if let Some(s) = series.as_mut() {
            if submitted >= next_tick_at || submitted == config.requests {
                // "Bad" for the availability burn is a request the
                // router gave up on: an exhausted retry budget (the
                // only way a submission fails to land under chaos).
                let bad = router.fault_counters().exhausted + router.errors();
                series_tick(
                    fleet,
                    s,
                    space,
                    ticks,
                    bad - ticked_bad,
                    submitted - ticked_submitted,
                );
                ticked_bad = bad;
                ticked_submitted = submitted;
                ticks += 1;
                next_tick_at = submitted + width;
            }
        }
    }
    // An early scheduler exit (e.g. an exhausted hunter budget) can
    // leave a partial window unticked — flush it so the series covers
    // every submission.
    if let Some(s) = series.as_mut() {
        if submitted > ticked_submitted {
            let bad = router.fault_counters().exhausted + router.errors();
            series_tick(
                fleet,
                s,
                space,
                ticks,
                bad - ticked_bad,
                submitted - ticked_submitted,
            );
        }
    }
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
    // Final scrape, before the nodes drain: every `_total`/`_count`
    // family must be at or above its mid-run reading — unless the node
    // crash-restarted in between, which lawfully resets its registry.
    let metrics = if config.scrape {
        let mut scraped = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let families = scrape_node(fleet, i, space)?;
            if let Some((incarnation, earlier)) = mid.get(i) {
                if *incarnation == fleet.nodes()[i].incarnation() {
                    for (name, value) in earlier {
                        if name.ends_with("_total") || name.ends_with("_count") {
                            let now = families.get(name).copied().unwrap_or(-1.0);
                            assert!(
                                now >= *value,
                                "node {i} family `{name}` went backwards: {value} -> {now}"
                            );
                        }
                    }
                }
            }
            scraped.push(families);
        }
        Some(FleetMetricsReport {
            mid_scrapes: mid.len(),
            per_node: scraped,
        })
    } else {
        None
    };
    let mut per_node = Vec::with_capacity(config.nodes);
    for i in 0..config.nodes {
        router.shutdown_node(i)?;
        // An error (not a panic) so run_fleet's teardown still reaps
        // the remaining nodes.
        let report = fleet.join_node(i).ok_or_else(|| {
            io::Error::other(format!("node {i} exited without a shutdown report"))
        })?;
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
        resets: s.resets(),
        cluster_fingerprint: s.fingerprint(),
        scrape_errors: s.scrape_errors(),
        transitions: s.transitions().to_vec(),
        firing: s.firing_rules(),
    });
    Ok(FleetReport {
        nodes: config.nodes,
        placement: config.placement,
        requests: submitted,
        issued_ids,
        errors: router.errors(),
        elapsed,
        ids_per_sec: issued_ids as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: router.latency().quantile_ns(0.50) / 1e3,
        p99_us: router.latency().quantile_ns(0.99) / 1e3,
        p999_us: router.latency().quantile_ns(0.999) / 1e3,
        faults: router.fault_counters(),
        chaos,
        metrics,
        series,
        restarts,
        global,
        cross_tenant_duplicate_ids: router.cross_tenant_counts().duplicate_ids,
        recovered_duplicate_ids: router.recovered_duplicate_ids(),
        merged_nodes,
        per_node,
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
        assert_eq!(
            metrics.mid_scrapes, 3,
            "the halfway scrape must cover every node"
        );
        // No restarts, so the final-incarnation registries cover the
        // whole run: their summed counter equals the router's count.
        let issued: f64 = metrics
            .per_node
            .iter()
            .map(|f| f["uuidp_ids_issued_total"])
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
                .get("uuidp_netchaos_connections_total")
                .copied()
                .unwrap_or(0.0);
            assert!(conns > 0.0, "node {i}'s registry never saw its proxy");
        }
        // The scrape predates the shutdown round-trips, so the mirror
        // can only lag the proxies' final tallies — never exceed them.
        let chaos = report.chaos.expect("chaos stamp");
        let scraped: f64 = metrics
            .per_node
            .iter()
            .map(|f| f["uuidp_netchaos_connections_total"])
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
        // series — and the reset clamp never had to fire.
        assert!(a.restarts > 0);
        assert!(series_a.incarnation_series > 3);
        assert_eq!(series_a.resets, 0);
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
}
