//! The stress driver: replay a traffic mix against a live [`IdService`]
//! and report end-to-end issue throughput, per-lease latency quantiles,
//! and audit health.
//!
//! The driver walks one [`Scheduler`], the same request schedule the
//! fleet runner routes across nodes, built from the run's
//! [`TrafficMix`] and the service's master seed, so stress runs are
//! reproducible end to end. The oblivious mixes (uniform, skewed,
//! flood) fire and forget; the hunter plays the `adversary` crate's
//! adaptive `RunHunter` *through the service front door*, leasing
//! synchronously and feeding every returned ID back to the schedule.
//!
//! The driver is transport-generic: every mix runs against a
//! [`StressTarget`], either the in-process [`IdService`]
//! ([`run_stress`]) or a loopback TCP server through the real
//! [`Client`] socket path ([`run_stress_remote`]) — and because the
//! audit totals are interleaving-invariant, the two transports must
//! report identical issued/duplicate counts for the same seed and mix.
//!
//! Remote runs fan the client side out over `remote_workers ≥ 1` worker
//! threads of one [`WireTarget`], each holding a [`Session`]. Tenants
//! are pinned to pool workers (`tenant % workers`), so every tenant's
//! requests stay FIFO and the totals remain bit-identical to the
//! in-process path for every pool width.
//!
//! * **Clean runs** give every worker a clone of one session, so the
//!   whole pool multiplexes one connection. The sessions never retry:
//!   the first wire error fails the run.
//! * **Chaos runs** ([`StressConfig::chaos`]) interpose a deterministic
//!   [`ChaosProxy`] between the pool and the server and give every
//!   worker its own lazily dialed session — a severed connection must
//!   not take the whole pool down with it. Every request failure is
//!   classified (retry-safe / lease-in-doubt / fatal), retried under a
//!   seeded [`RetryPolicy`] unless fatal, and accounted into the
//!   report's SLO section. The shutdown that yields the authoritative
//!   totals travels over the proxy in passthrough mode, so the report
//!   itself is never a casualty of the faults it describes.

use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc as SyncArc;
use std::thread::JoinHandle;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_adversary::schedule::{Scheduler, TrafficMix};
use uuidp_core::id::IdSpace;
use uuidp_core::interval::Arc;

use uuidp_client::{
    Client, ClientOptions, FaultCounters, RetryPolicy, Session, Summary, CHAOS_TIMEOUT,
};
use uuidp_netchaos::{schedule_fingerprint, ChaosProxy, ChaosReport, ChaosSpec, FINGERPRINT_CONNS};
use uuidp_obs::{families, SlowLease, Snapshot, TailSampler, TimeSeries};

use crate::net::TcpServer;
use crate::service::{AuditReport, IdService, ServiceConfig, ServiceReport};

/// Worst-K leases each remote run samples end to end; the sampled corr
/// ids get their span timelines fetched back over the wire post-run.
const TAIL_SAMPLES: usize = 4;

/// Configuration of one stress run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// The service under test.
    pub service: ServiceConfig,
    /// Number of tenants generating load.
    pub tenants: u64,
    /// Lease requests to submit.
    pub requests: u64,
    /// IDs per lease (the batch size; Flood multiplies it for the hot
    /// tenant, Hunter ignores it and requests single IDs).
    pub count: u128,
    /// Traffic shape, replayed through a [`Scheduler`].
    pub mix: TrafficMix,
    /// Client-side pool width for remote runs: worker threads, each
    /// with a [`Session`]. Clean runs share one persistent connection
    /// for the whole run; under chaos each worker dials its own.
    pub remote_workers: usize,
    /// Fault schedule for remote runs: when set, a [`ChaosProxy`] built
    /// from this spec and [`StressConfig::chaos_seed`] sits between the
    /// clients and the server, and the driver switches to classified
    /// retries instead of failing fast. Ignored by in-process runs.
    pub chaos: Option<ChaosSpec>,
    /// Seed for the chaos schedule *and* the retry jitter; the same
    /// seed replays the same fault schedule bit-for-bit.
    pub chaos_seed: u64,
    /// Scrape the metric registry during remote runs: a sidecar thread
    /// scrapes the server over its own connection while load flows
    /// (asserting the required families are present and every counter
    /// is monotone scrape-over-scrape), and the report gains the final
    /// server-side family values. Ignored by in-process runs.
    pub scrape: bool,
}

impl StressConfig {
    /// A stress run of `requests` leases over `tenants` tenants.
    pub fn new(service: ServiceConfig, tenants: u64, requests: u64, count: u128) -> Self {
        assert!(tenants >= 1, "at least one tenant");
        StressConfig {
            service,
            tenants,
            requests,
            count,
            mix: TrafficMix::Uniform,
            remote_workers: 1,
            chaos: None,
            chaos_seed: 0,
            scrape: false,
        }
    }
}

/// What the scrape sidecar (and the final server-side snapshot)
/// observed during a `scrape`-enabled remote run.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Over-the-wire scrapes completed while the run was live (the
    /// sidecar keeps scraping until the shutdown severs it).
    pub scrapes: u64,
    /// Windows the sidecar's time-series ring ingested (one tick per
    /// scrape — a bounded ring, so long runs retain only the tail).
    pub windows: u64,
    /// Peak per-window `uuidp_ids_issued_total` delta across the
    /// retained windows: the hottest scrape-to-scrape issue burst.
    pub peak_ids_per_window: u64,
    /// Final authoritative family values: the server-side registry's
    /// snapshot after the run.
    pub families: Snapshot,
}

/// The scrape sidecar: one dedicated connection hammering `metrics`
/// while the run is live. Every scrape is parsed into a typed
/// [`Snapshot`], must name every [`families::REQUIRED`] family, and is
/// ingested into a bounded [`TimeSeries`] ring (one window per scrape)
/// whose reset count must stay 0: no counter or histogram goes
/// backwards on one server. The ring also lets the report describe the
/// run's shape over time, not just its end state. Ends (returning the
/// scrape count and the ring) when the shutdown severs its connection.
fn spawn_wire_scraper(addr: SocketAddr, space: IdSpace) -> JoinHandle<(u64, TimeSeries)> {
    std::thread::spawn(move || {
        let mut scrapes = 0u64;
        let mut series = TimeSeries::new(64);
        let options = ClientOptions::bounded(Some(CHAOS_TIMEOUT));
        let Ok(client) = Client::connect_with(addr, space, options) else {
            return (0, series); // raced the shutdown before the first scrape
        };
        // Scrapes until the shutdown severs the connection.
        while let Ok(text) = client.metrics() {
            let snap = Snapshot::parse_prometheus(&text);
            let missing = families::missing(&snap);
            assert!(
                missing.is_empty(),
                "scrape missing required families {missing:?}:\n{text}"
            );
            series.ingest(scrapes, &snap);
            assert_eq!(
                series.resets_total(),
                0,
                "a metric family went backwards across scrapes:\n{text}"
            );
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        (scrapes, series)
    })
}

/// Anything a stress mix can be replayed against: the in-process
/// service or a remote front-end over a socket. The driver only ever
/// needs to lease (observing arcs, for the adaptive mix), fire
/// lease-shaped load, drain, and collect the final accounting.
pub trait StressTarget {
    /// Synchronously leases `count` IDs and returns the granted arcs.
    fn lease_arcs(&mut self, tenant: u64, count: u128) -> Vec<Arc>;
    /// Lease-shaped load where the reply is not needed.
    fn issue(&mut self, tenant: u64, count: u128);
    /// Blocks until every submitted request has been processed.
    fn drain(&mut self);
    /// Shuts the target down and returns its aggregate accounting.
    fn finish(self) -> TargetReport;
}

/// The shutdown accounting a [`StressTarget`] hands back: the subset of
/// a [`ServiceReport`] every transport can deliver (a remote target
/// reconstructs it from the wire summary, so latency arrives as
/// pre-computed quantiles rather than a mergeable histogram).
#[derive(Debug)]
pub struct TargetReport {
    /// Total IDs issued.
    pub issued_ids: u128,
    /// Leases served.
    pub leases: u64,
    /// Leases that hit a generator error.
    pub errors: u64,
    /// Median per-lease issue cost, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile per-lease issue cost, nanoseconds.
    pub p99_ns: f64,
    /// 99.9th-percentile per-lease issue cost, nanoseconds — the tail
    /// the SLO section watches under chaos.
    pub p999_ns: f64,
    /// Mean per-lease issue cost, nanoseconds.
    pub mean_ns: f64,
    /// Client-side fault classification (all-zero outside chaos runs).
    pub faults: FaultCounters,
    /// The audit pipeline's findings.
    pub audit: AuditReport,
    /// Worst sampled end-to-end leases, with wire-fetched span
    /// timelines where available (remote targets only).
    pub slow: Vec<SlowLease>,
}

impl From<ServiceReport> for TargetReport {
    fn from(report: ServiceReport) -> TargetReport {
        TargetReport {
            issued_ids: report.issued_ids,
            leases: report.leases,
            errors: report.errors,
            p50_ns: report.latency.quantile_ns(0.50),
            p99_ns: report.latency.quantile_ns(0.99),
            p999_ns: report.latency.quantile_ns(0.999),
            mean_ns: report.latency.mean_ns(),
            faults: FaultCounters::default(),
            audit: report.audit,
            slow: Vec::new(),
        }
    }
}

impl From<Summary> for TargetReport {
    fn from(summary: Summary) -> TargetReport {
        TargetReport {
            issued_ids: summary.issued_ids,
            leases: summary.leases,
            errors: summary.errors,
            p50_ns: summary.p50_ns,
            p99_ns: summary.p99_ns,
            p999_ns: summary.p999_ns,
            mean_ns: summary.mean_ns,
            faults: FaultCounters::default(),
            audit: AuditReport {
                counts: uuidp_sim::audit::AuditCounts {
                    duplicate_ids: summary.duplicate_ids,
                    flagged_records: summary.flagged_records,
                    recorded_ids: summary.recorded_ids,
                    recorded_arcs: summary.recorded_arcs,
                },
                max_lag: Duration::from_nanos(summary.max_lag_ns.min(u64::MAX as u128) as u64),
                mean_lag_ns: summary.mean_lag_ns,
                records: summary.records,
                per_thread: Vec::new(), // aggregates only cross the wire
            },
            slow: Vec::new(),
        }
    }
}

/// The in-process target: a locally started [`IdService`].
pub struct LocalTarget {
    service: IdService,
}

impl LocalTarget {
    /// Boots a service for `config`.
    pub fn start(config: ServiceConfig) -> LocalTarget {
        LocalTarget {
            service: IdService::start(config),
        }
    }
}

impl StressTarget for LocalTarget {
    fn lease_arcs(&mut self, tenant: u64, count: u128) -> Vec<Arc> {
        self.service.lease(tenant, count).arcs
    }

    fn issue(&mut self, tenant: u64, count: u128) {
        self.service.issue(tenant, count);
    }

    fn drain(&mut self) {
        self.service.drain();
    }

    fn finish(self) -> TargetReport {
        self.service.shutdown().into()
    }
}

/// Fills in wire-fetched timelines for a sampler's retained leases. An
/// evicted span comes back empty, and so keeps its empty story.
fn fetch_timelines(client: &Client, tail: &mut TailSampler) {
    for s in tail.worst_mut() {
        if s.corr != 0 {
            if let Ok(text) = client.timeline(s.corr) {
                s.timeline = text;
            }
        }
    }
}

/// One lease's end-to-end cost in nanoseconds, from a
/// [`clock::monotonic_ns`] start stamp — the same epoch every other
/// telemetry timestamp in the stack uses.
fn elapsed_ns(started_ns: u64) -> u64 {
    clock::monotonic_ns().saturating_sub(started_ns)
}

/// One unit of work routed to a pool worker.
enum PoolMsg {
    /// Synchronous lease; the worker ships the granted arcs back.
    Lease {
        tenant: u64,
        count: u128,
        reply: SyncSender<Vec<Arc>>,
    },
    /// Lease-shaped load; the worker reads and drops the reply.
    Issue { tenant: u64, count: u128 },
    /// Ack once every prior message on this worker is fully replied.
    Barrier { done: SyncSender<()> },
    /// Issue a protocol-level drain on this worker's connection.
    Drain { done: SyncSender<()> },
}

/// A pool worker: serves its queue through its session, then hands
/// back the session's ledger along with its worst-lease samples.
/// Latency is measured around the whole request — retries and backoff
/// included — because that is what the caller experienced. With
/// `abandon`, a request whose session gives up is dropped (the session
/// counted it); without, it fails the run.
fn pool_worker(
    mut session: Session,
    abandon: bool,
    rx: Receiver<PoolMsg>,
) -> (FaultCounters, TailSampler) {
    let mut tail = TailSampler::new(TAIL_SAMPLES, 0);
    let mut lease = |session: &mut Session, tenant: u64, count: u128| {
        let started = clock::monotonic_ns();
        match session.call(|c| c.lease_with_corr(tenant, count)) {
            Ok((lease, corr)) => {
                tail.offer(corr, tenant, 0, elapsed_ns(started));
                Some(lease)
            }
            Err(e) => {
                assert!(abandon, "wire stress lease i/o: {e}");
                None
            }
        }
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            PoolMsg::Lease {
                tenant,
                count,
                reply,
            } => {
                let arcs = lease(&mut session, tenant, count).map_or_else(Vec::new, |l| l.arcs);
                let _ = reply.send(arcs);
            }
            PoolMsg::Issue { tenant, count } => {
                lease(&mut session, tenant, count);
            }
            PoolMsg::Barrier { done } => {
                let _ = done.send(());
            }
            PoolMsg::Drain { done } => {
                if let Err(e) = session.call(|c| c.drain()) {
                    assert!(abandon, "wire stress drain i/o: {e}");
                }
                let _ = done.send(());
            }
        }
    }
    (session.faults(), tail)
}

/// Tenant-pinned pool workers, one queue each: requests go to worker
/// `tenant % workers`, preserving each tenant's request order (and
/// therefore the run's deterministic totals).
struct Pool {
    txs: Vec<SyncSender<PoolMsg>>,
    workers: Vec<JoinHandle<(FaultCounters, TailSampler)>>,
}

impl Pool {
    /// One worker thread per session.
    fn spawn(sessions: impl IntoIterator<Item = Session>, abandon: bool) -> Pool {
        let (txs, workers) = sessions
            .into_iter()
            .map(|session| {
                let (tx, rx) = sync_channel::<PoolMsg>(1024);
                let worker = std::thread::spawn(move || pool_worker(session, abandon, rx));
                (tx, worker)
            })
            .unzip();
        Pool { txs, workers }
    }

    fn send(&self, tenant: u64, msg: PoolMsg) {
        self.txs[(tenant % self.txs.len() as u64) as usize]
            .send(msg)
            .expect("pool worker alive");
    }

    fn lease_arcs(&self, tenant: u64, count: u128) -> Vec<Arc> {
        let (reply, rx) = sync_channel(1);
        self.send(
            tenant,
            PoolMsg::Lease {
                tenant,
                count,
                reply,
            },
        );
        rx.recv().expect("pool worker replies")
    }

    fn issue(&self, tenant: u64, count: u128) {
        self.send(tenant, PoolMsg::Issue { tenant, count });
    }

    /// A local barrier first (every worker has fully served everything
    /// routed before it), then one protocol drain, so the contract
    /// matches the in-process target.
    fn drain(&self) {
        let barriers: Vec<Receiver<()>> = (0..self.txs.len() as u64)
            .map(|worker| {
                let (done, rx) = sync_channel(1);
                self.send(worker, PoolMsg::Barrier { done });
                rx
            })
            .collect();
        for rx in barriers {
            rx.recv().expect("pool worker alive");
        }
        let (done, rx) = sync_channel(1);
        self.send(0, PoolMsg::Drain { done });
        rx.recv().expect("pool worker drains");
    }

    /// Closes the queues and joins every worker, returning their merged
    /// ledgers and worst-lease samples.
    fn join(self) -> (FaultCounters, TailSampler) {
        drop(self.txs);
        let mut faults = FaultCounters::default();
        let mut tail = TailSampler::new(TAIL_SAMPLES, 0);
        for handle in self.workers {
            let (worker_faults, worker_tail) = handle.join().expect("pool worker panicked");
            faults.merge(&worker_faults);
            tail.merge(&worker_tail);
        }
        (faults, tail)
    }
}

/// The socket target: `workers ≥ 1` pool threads, each with a
/// [`Session`] (see the module docs for the clean and chaos shapes).
/// The report comes from the wire summary, so the whole client code
/// path — not just the traffic — is exercised.
pub struct WireTarget {
    /// Carries the post-run timeline fetches and the shutdown.
    session: Session,
    /// The chaos proxy the pool dials through, if any.
    proxy: Option<SyncArc<ChaosProxy>>,
    pool: Pool,
}

impl WireTarget {
    /// Connects to the front-end serving `space` at `addr` and starts
    /// `workers` pool threads on clones of the one connection. No
    /// session retries: the first wire error fails the run.
    pub fn connect(addr: SocketAddr, space: IdSpace, workers: usize) -> io::Result<WireTarget> {
        let session = Session::connect(addr, space, ClientOptions::default(), RetryPolicy::none())?;
        let pool = Pool::spawn(vec![session.clone(); workers.max(1)], false);
        Ok(WireTarget {
            session,
            proxy: None,
            pool,
        })
    }

    /// Starts `workers ≥ 1` pool threads dialing through `proxy`, each
    /// with its own session retrying under `policy` with a distinct,
    /// still seed-determined jitter stream. Connections are lazy — the
    /// first request dials, inside the retry loop, so a refused
    /// connection window is survivable.
    pub fn through_proxy(
        proxy: SyncArc<ChaosProxy>,
        space: IdSpace,
        workers: usize,
        policy: RetryPolicy,
    ) -> WireTarget {
        let options = ClientOptions::bounded(Some(CHAOS_TIMEOUT));
        let pool = Pool::spawn(
            (0..workers.max(1)).map(|worker| {
                let policy = RetryPolicy {
                    seed: policy.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..policy
                };
                Session::new(proxy.addr(), space, options, policy)
            }),
            true,
        );
        // The shutdown dials only once the proxy is passthrough: ten
        // tries, 20 ms apart.
        let every_20ms = RetryPolicy {
            max_retries: 9,
            base: Duration::from_millis(20),
            max: Duration::from_millis(20),
            jitter_per_mille: 0,
            seed: 0,
        };
        WireTarget {
            session: Session::new(proxy.addr(), space, options, every_20ms),
            proxy: Some(proxy),
            pool,
        }
    }
}

impl StressTarget for WireTarget {
    fn lease_arcs(&mut self, tenant: u64, count: u128) -> Vec<Arc> {
        self.pool.lease_arcs(tenant, count)
    }

    fn issue(&mut self, tenant: u64, count: u128) {
        self.pool.issue(tenant, count);
    }

    fn drain(&mut self) {
        self.pool.drain();
    }

    fn finish(mut self) -> TargetReport {
        // The report must survive the chaos that produced it: flip the
        // proxy to passthrough so the shutdown travels a clean path
        // (new connections are unscheduled from here on).
        if let Some(proxy) = &self.proxy {
            proxy.set_passthrough(true);
        }
        let (faults, mut tail) = self.pool.join();
        let summary = self
            .session
            .call(|client| {
                fetch_timelines(client, &mut tail);
                client.clone().shutdown()
            })
            .expect("wire stress shutdown i/o");
        let mut report = TargetReport::from(summary);
        report.faults = faults;
        report.slow = tail.worst().to_vec();
        report
    }
}

/// What one stress run measured.
#[derive(Debug)]
pub struct StressReport {
    /// The mix that was replayed.
    pub mix: TrafficMix,
    /// Worker shards used.
    pub shards: usize,
    /// Leases submitted.
    pub requests: u64,
    /// Total IDs issued.
    pub issued_ids: u128,
    /// Wall clock from first submission to worker drain.
    pub elapsed: Duration,
    /// Aggregate issue rate (IDs per second).
    pub ids_per_sec: f64,
    /// Median per-lease issue cost, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-lease issue cost, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile per-lease issue cost, microseconds.
    pub p999_us: f64,
    /// Mean per-lease issue cost, microseconds.
    pub mean_us: f64,
    /// Leases that hit a generator error.
    pub errors: u64,
    /// Client-side fault classification and recovery accounting
    /// (all-zero outside chaos runs).
    pub faults: FaultCounters,
    /// The chaos stamp, when this run injected faults.
    pub chaos: Option<ChaosReport>,
    /// The audit pipeline's findings (lag, duplicates).
    pub audit: AuditReport,
    /// The scrape sidecar's accounting plus the final server-side
    /// registry families (only for `scrape`-enabled remote runs).
    pub metrics: Option<MetricsReport>,
    /// The worst leases the run produced, with their end-to-end span
    /// timelines (remote runs only; empty in process).
    pub slow: Vec<SlowLease>,
}

impl StressReport {
    /// Renders the human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "mix:         {}\nshards:      {}\nrequests:    {} leases, {} IDs issued\n\
             elapsed:     {:.3}s\nthroughput:  {:.2}M IDs/s\n\
             issue p50:   {:.2} us\nissue p99:   {:.2} us\nissue p999:  {:.2} us\nissue mean:  {:.2} us\n\
             errors:      {}\naudit:       {} arcs, {} duplicate IDs, {} flagged leases\n\
             audit lag:   max {:.2} ms, mean {:.3} ms\n",
            self.mix,
            self.shards,
            self.requests,
            self.issued_ids,
            self.elapsed.as_secs_f64(),
            self.ids_per_sec / 1e6,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.mean_us,
            self.errors,
            self.audit.counts.recorded_arcs,
            self.audit.counts.duplicate_ids,
            self.audit.counts.flagged_records,
            self.audit.max_lag.as_secs_f64() * 1e3,
            self.audit.mean_lag_ns / 1e6,
        );
        // The straggler signal: one slow stripe-subset thread hides
        // inside the merged max, so the per-thread maxima are listed
        // whenever the breakdown is available (local runs; remote
        // summaries carry aggregates only).
        if self.audit.per_thread.len() > 1 {
            let lags: Vec<String> = self
                .audit
                .per_thread
                .iter()
                .map(|t| format!("{:.2}", t.max_lag.as_secs_f64() * 1e3))
                .collect();
            out.push_str(&format!(
                "audit threads: {} (per-thread max lag ms: {})\n",
                self.audit.per_thread.len(),
                lags.join(", ")
            ));
        }
        if let Some(chaos) = &self.chaos {
            out.push_str(&chaos.render(13));
        }
        if self.chaos.is_some() || self.faults != FaultCounters::default() {
            out.push_str(&self.faults.render_slo(self.requests));
            out.push('\n');
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(&format!(
                "metrics:     {} live scrapes, {} families exported\n",
                metrics.scrapes,
                metrics.families.metrics.len()
            ));
            if metrics.windows > 0 {
                out.push_str(&format!(
                    "timeseries:  {} windows retained, peak {} IDs/window\n",
                    metrics.windows, metrics.peak_ids_per_window
                ));
            }
            if let Some(agrees) = self.chaos_mirror_agrees() {
                out.push_str(if agrees {
                    "chaos mirror: registry counters agree with injected ground truth\n"
                } else {
                    "chaos mirror: registry counters DISAGREE with injected ground truth\n"
                });
            }
        }
        if !self.slow.is_empty() {
            out.push_str("slow leases:\n");
            for lease in self.slow.iter().take(3) {
                out.push_str(&format!(
                    "  {:.3} ms corr={} tenant={} node={}\n",
                    lease.latency_ns as f64 / 1e6,
                    lease.corr,
                    lease.tenant,
                    lease.node,
                ));
                for line in lease.timeline.lines() {
                    out.push_str(&format!("    {}\n", line));
                }
            }
        }
        out
    }

    /// Whether the scraped `uuidp_netchaos_*` counters equal the chaos
    /// proxy's own injected-fault tally — the ground-truth equality the
    /// chaos smoke gates on. `None` unless the run had both `chaos` and
    /// `scrape` enabled.
    pub fn chaos_mirror_agrees(&self) -> Option<bool> {
        let chaos = self.chaos.as_ref()?;
        let metrics = self.metrics.as_ref()?;
        let of = |name: &str| metrics.families.scalar(name).unwrap_or(-1.0);
        let i = &chaos.injected;
        Some(
            of("uuidp_netchaos_connections_total") == i.connections as f64
                && of("uuidp_netchaos_refused_total") == i.refused as f64
                && of("uuidp_netchaos_dropped_requests_total") == i.dropped_requests as f64
                && of("uuidp_netchaos_truncated_replies_total") == i.truncated_replies as f64
                && of("uuidp_netchaos_corrupted_replies_total") == i.corrupted_replies as f64
                && of("uuidp_netchaos_resealed_replies_total") == i.resealed_replies as f64
                && of("uuidp_netchaos_upstream_failures_total") == i.upstream_failures as f64,
        )
    }
}

/// Runs one stress phase against the in-process service.
pub fn run_stress(config: StressConfig) -> StressReport {
    let target = LocalTarget::start(config.service.clone());
    run_stress_with(target, config)
}

/// Runs one stress phase over a loopback TCP server: the service is
/// fronted by a [`TcpServer`] on an ephemeral port and every request —
/// including the shutdown that yields the report — travels through the
/// [`Client`] socket path of a [`WireTarget`], through a [`ChaosProxy`]
/// when [`StressConfig::chaos`] is set.
pub fn run_stress_remote(config: StressConfig) -> io::Result<StressReport> {
    let server = TcpServer::bind("127.0.0.1:0", config.service.clone())?;
    let registry = server.registry();
    // The scrape sidecar dials the server directly (not through any
    // chaos proxy): the export surface is probed while load flows, but
    // scrapes themselves must never be casualties of the schedule.
    let scraper = config
        .scrape
        .then(|| spawn_wire_scraper(server.local_addr(), config.service.space));
    let finish_metrics = |scraper: Option<JoinHandle<(u64, TimeSeries)>>| {
        scraper.map(|handle| {
            let (scrapes, series) = handle.join().expect("wire scraper panicked");
            MetricsReport {
                scrapes,
                windows: series.len() as u64,
                peak_ids_per_window: series
                    .windows()
                    .map(|w| w.counter("uuidp_ids_issued_total"))
                    .max()
                    .unwrap_or(0),
                families: registry.snapshot(),
            }
        })
    };
    let space = config.service.space;
    let (target, chaos) = match config.chaos {
        Some(spec) => {
            let seed = config.chaos_seed;
            let proxy = SyncArc::new(ChaosProxy::launch(server.local_addr(), spec, seed)?);
            // Mirror every injected fault into the node's own registry,
            // so the scrape shows ground truth next to the service's
            // counters.
            proxy.attach_obs(&registry, server.trace());
            let policy = RetryPolicy {
                seed,
                ..RetryPolicy::default()
            };
            let target = WireTarget::through_proxy(
                SyncArc::clone(&proxy),
                space,
                config.remote_workers,
                policy,
            );
            (target, Some((spec, proxy)))
        }
        None => {
            let target = WireTarget::connect(server.local_addr(), space, config.remote_workers)?;
            (target, None)
        }
    };
    let seed = config.chaos_seed;
    let mut report = run_stress_with(target, config);
    report.chaos = chaos.map(|(spec, proxy)| ChaosReport {
        spec,
        seed,
        fingerprint: schedule_fingerprint(&spec, seed, FINGERPRINT_CONNS),
        injected: proxy.counts(),
    });
    report.metrics = finish_metrics(scraper);
    // Join the server threads; the driver-side report already carries
    // the (identical) totals parsed off the wire.
    let _ = server.join();
    Ok(report)
}

/// Runs one stress phase against any [`StressTarget`].
pub fn run_stress_with<T: StressTarget>(mut target: T, config: StressConfig) -> StressReport {
    let mix = config.mix;
    let shards = config.service.shards;
    let mut schedule = Scheduler::new(
        mix,
        config.tenants,
        config.requests,
        config.count,
        config.service.space,
        config.service.master_seed,
    );
    let started = clock::monotonic_ns();
    let mut submitted = 0u64;
    while let Some((tenant, count)) = schedule.next(submitted) {
        if mix == TrafficMix::Hunter {
            // Every move is a real, synchronous lease, and every
            // observation a real returned ID.
            if let Some(arc) = target.lease_arcs(tenant, count).first() {
                schedule.observe(tenant, arc.start);
            }
        } else {
            target.issue(tenant, count);
        }
        submitted += 1;
    }
    target.drain();
    let elapsed = Duration::from_nanos(elapsed_ns(started));
    let report = target.finish();
    let ids_per_sec = report.issued_ids as f64 / elapsed.as_secs_f64().max(1e-9);
    StressReport {
        mix,
        shards,
        requests: submitted,
        issued_ids: report.issued_ids,
        elapsed,
        ids_per_sec,
        p50_us: report.p50_ns / 1e3,
        p99_us: report.p99_ns / 1e3,
        p999_us: report.p999_ns / 1e3,
        mean_us: report.mean_ns / 1e3,
        errors: report.errors,
        faults: report.faults,
        chaos: None,
        audit: report.audit,
        metrics: None,
        slow: report.slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_core::id::IdSpace;

    fn base(kind: AlgorithmKind, bits: u32) -> StressConfig {
        let service = ServiceConfig::new(kind, IdSpace::with_bits(bits).unwrap());
        StressConfig::new(service, 8, 400, 64)
    }

    #[test]
    fn uniform_mix_issues_all_requested_ids() {
        let report = run_stress(base(AlgorithmKind::Cluster, 48));
        assert_eq!(report.requests, 400);
        assert_eq!(report.issued_ids, 400 * 64);
        assert_eq!(report.errors, 0);
        assert!(!report.audit.counts.collided());
        assert!(report.ids_per_sec > 0.0);
        assert!(report.p99_us >= report.p50_us);
    }

    #[test]
    fn skewed_and_flood_mixes_run_clean_on_big_universes() {
        for mix in [TrafficMix::Skewed, TrafficMix::Flood] {
            let mut cfg = base(AlgorithmKind::BinsStar, 48);
            cfg.mix = mix;
            cfg.requests = 300;
            let report = run_stress(cfg);
            assert_eq!(report.requests, 300);
            assert!(report.issued_ids >= 300 * 64, "{mix}: batches issued");
            assert!(!report.audit.counts.collided(), "{mix}: no duplicates");
        }
    }

    #[test]
    fn hunter_mix_plays_the_adaptive_game_through_the_service() {
        let mut cfg = base(AlgorithmKind::Cluster, 20);
        cfg.mix = TrafficMix::Hunter;
        cfg.tenants = 4;
        cfg.requests = 200;
        cfg.service.shards = 2;
        let report = run_stress(cfg);
        assert!(report.requests >= 4, "at least the probe phase ran");
        assert_eq!(
            report.issued_ids, report.requests as u128,
            "single-ID leases"
        );
        // On m = 2^20 with 200 adaptively aimed requests the hunter often
        // scores, but the *pipeline* guarantee is just that the audit saw
        // every issued ID.
        assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
    }

    #[test]
    fn injected_collision_is_always_detected() {
        // The acceptance-criterion scenario: same-seed twin tenants under
        // a full mix must produce zero audit false negatives.
        let mut cfg = base(AlgorithmKind::Cluster, 44);
        cfg.service.seed_alias = Some((0, 1));
        cfg.service.shards = 3;
        let tenants = cfg.tenants as u128;
        let report = run_stress(cfg);
        assert!(report.audit.counts.collided(), "audit false negative");
        // Uniform mix: tenants 0 and 1 lease identical streams of equal
        // volume; every ID of the later-audited twin is a duplicate.
        assert_eq!(
            report.audit.counts.duplicate_ids,
            report.issued_ids / tenants
        );
    }

    /// The wire differential: one multiplexed connection, driven by each
    /// pool width in `widths`, must reproduce the in-process audit totals
    /// bit-exactly (the tenant→worker pinning keeps each tenant's stream
    /// FIFO).
    fn assert_wire_reproduces_in_process_totals(widths: &[usize]) {
        let make = || {
            let mut cfg = base(AlgorithmKind::ClusterStar, 40);
            cfg.mix = TrafficMix::Skewed;
            cfg.requests = 200;
            cfg.service.seed_alias = Some((0, 5)); // live duplicate counter
            cfg
        };
        let local = run_stress(make());
        assert!(local.audit.counts.collided(), "twins must collide");
        for &workers in widths {
            let mut cfg = make();
            cfg.remote_workers = workers;
            let remote = run_stress_remote(cfg).expect("v2 loopback stress");
            assert_eq!(
                (
                    local.issued_ids,
                    local.audit.counts.duplicate_ids,
                    local.audit.counts.recorded_ids,
                ),
                (
                    remote.issued_ids,
                    remote.audit.counts.duplicate_ids,
                    remote.audit.counts.recorded_ids,
                ),
                "{workers} pool workers changed the totals"
            );
        }
    }

    #[test]
    fn v2_transport_reproduces_in_process_totals_single_and_pooled() {
        assert_wire_reproduces_in_process_totals(&[1, 3]);
    }

    #[test]
    fn pooled_remote_transport_reproduces_in_process_totals() {
        // Connection reuse must be invisible in the numbers at even pool
        // widths too.
        assert_wire_reproduces_in_process_totals(&[2, 4]);
    }

    /// The hunter mix over the wire with `workers` pool workers: every
    /// single-ID lease's arc comes back to the adversary, and the audit
    /// records every issued ID.
    fn assert_hunter_observes_arcs_over_the_wire(workers: usize) {
        let mut cfg = base(AlgorithmKind::Cluster, 20);
        cfg.mix = TrafficMix::Hunter;
        cfg.tenants = 4;
        cfg.requests = 120;
        cfg.remote_workers = workers;
        let report = run_stress_remote(cfg).expect("v2 hunter stress");
        assert!(
            report.requests >= 4,
            "{workers} workers: probe phase never ran"
        );
        assert_eq!(report.issued_ids, report.requests as u128);
        assert_eq!(report.audit.counts.recorded_ids, report.issued_ids);
    }

    #[test]
    fn v2_hunter_mix_observes_arcs_over_the_mux() {
        assert_hunter_observes_arcs_over_the_wire(1);
    }

    #[test]
    fn pooled_hunter_mix_observes_arcs_through_the_pool() {
        assert_hunter_observes_arcs_over_the_wire(3);
    }

    #[test]
    fn stress_is_reproducible_across_runs_and_shard_counts() {
        let run = |shards: usize| {
            let mut cfg = base(AlgorithmKind::ClusterStar, 40);
            cfg.mix = TrafficMix::Skewed;
            cfg.service.shards = shards;
            cfg.requests = 250;
            let r = run_stress(cfg);
            (r.issued_ids, r.audit.counts)
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "shard count changed stress outcome");
    }

    #[test]
    fn render_mentions_the_headline_numbers() {
        let report = run_stress(base(AlgorithmKind::Cluster, 40));
        let text = report.render();
        assert!(text.contains("throughput"));
        assert!(text.contains("issue p99"));
        assert!(text.contains("issue p999"));
        assert!(text.contains("audit lag"));
    }

    #[test]
    fn chaos_run_degrades_gracefully_and_never_duplicates() {
        // The tentpole invariant: under partitions, torn frames, and
        // corrupted replies, the retrying driver completes the run with
        // zero audit duplicates — lost leases leak, they never replay.
        let mut cfg = base(AlgorithmKind::Cluster, 48);
        cfg.requests = 300;
        cfg.remote_workers = 3;
        cfg.chaos = Some(ChaosSpec::heavy());
        cfg.chaos_seed = 0xC4A05;
        let report = run_stress_remote(cfg).expect("chaos stress run");
        assert_eq!(report.requests, 300);
        assert_eq!(
            report.audit.counts.duplicate_ids, 0,
            "chaos must leak, never duplicate"
        );
        let chaos = report.chaos.expect("chaos stamp");
        assert!(
            chaos.injected.injected() > 0,
            "the heavy preset injected nothing: {:?}",
            chaos.injected
        );
        assert!(
            report.faults.failed_attempts() > 0,
            "no client ever observed a fault"
        );
        let text = report.render();
        assert!(text.contains("slo:"), "{text}");
        assert!(text.contains("fault-class:"), "{text}");
        assert!(text.contains("chaos:"), "{text}");
    }

    #[test]
    fn scraped_run_sees_required_families_live_and_final_totals_exact() {
        let mut cfg = base(AlgorithmKind::Cluster, 48);
        cfg.remote_workers = 2;
        cfg.scrape = true;
        let report = run_stress_remote(cfg).expect("scraped loopback stress");
        let metrics = report
            .metrics
            .clone()
            .expect("scrape-enabled run carries metrics");
        assert!(
            metrics.scrapes >= 1,
            "the sidecar never completed a live scrape"
        );
        // The final server-side registry agrees exactly with the wire
        // summary the run reported.
        assert_eq!(
            metrics.families.scalar("uuidp_ids_issued_total"),
            Some(report.issued_ids as f64),
        );
        assert_eq!(
            metrics.families.scalar("uuidp_leases_total"),
            Some(report.requests as f64),
        );
        assert_eq!(
            metrics.families.scalar("uuidp_audit_records_total"),
            Some(report.audit.records as f64),
        );
        let rendered = report.render();
        assert!(rendered.contains("live scrapes"), "{rendered}");
    }

    #[test]
    fn chaos_registry_mirror_equals_injected_ground_truth() {
        // The injected-fault counters exported by the registry must be
        // *equal* to the proxy's own tally — the scrape-vs-schedule
        // ground-truth gate the chaos smoke runs in CI.
        let mut cfg = base(AlgorithmKind::Cluster, 48);
        cfg.requests = 200;
        cfg.remote_workers = 3;
        cfg.chaos = Some(ChaosSpec::heavy());
        cfg.chaos_seed = 0xB0B0;
        cfg.scrape = true;
        let report = run_stress_remote(cfg).expect("chaos stress run");
        let chaos = report.chaos.expect("chaos stamp");
        assert!(chaos.injected.injected() > 0, "nothing was injected");
        assert_eq!(
            report.chaos_mirror_agrees(),
            Some(true),
            "registry mirror diverged from the proxy tally: {:?} vs {:?}",
            report.metrics.as_ref().map(|m| &m.families),
            chaos.injected,
        );
        assert!(
            report.render().contains("registry counters agree"),
            "render must surface the mirror agreement"
        );
    }

    #[test]
    fn chaos_schedule_fingerprint_is_seed_stable() {
        // Two runs of the same seed stamp the same schedule pin; a
        // different seed diverges.
        let run = |seed: u64| {
            let mut cfg = base(AlgorithmKind::Cluster, 48);
            cfg.requests = 60;
            cfg.remote_workers = 2;
            cfg.chaos = Some(ChaosSpec::small());
            cfg.chaos_seed = seed;
            run_stress_remote(cfg)
                .expect("chaos stress run")
                .chaos
                .expect("chaos stamp")
                .fingerprint
        };
        assert_eq!(run(7), run(7), "same seed must re-print the same pin");
        assert_ne!(run(7), run(8), "different seeds must diverge");
    }
}
