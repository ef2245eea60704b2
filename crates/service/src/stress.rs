//! The stress driver: replay `kvstore::workload`-shaped traffic mixes
//! against a live [`IdService`] and report end-to-end issue throughput,
//! per-lease latency quantiles, and audit health.
//!
//! Four mixes, mirroring the repository's adversary taxonomy:
//!
//! * [`TrafficMix::Uniform`] — every tenant leases equally (the uniform
//!   profile, Cluster's oblivious worst case);
//! * [`TrafficMix::Skewed`] — tenants lease by a power-law (the skewed
//!   profiles where Bins★'s competitive ratio shines);
//! * [`TrafficMix::Flood`] — one hot tenant takes most of the volume in
//!   oversized batches (the `SkewedFlood` shape);
//! * [`TrafficMix::Hunter`] — the `adversary` crate's [`RunHunter`]
//!   plays its adaptive game *through the service front door*, choosing
//!   each next request from the IDs the service actually returned.
//!
//! Every mix is generated deterministically from the service's master
//! seed, so stress runs are reproducible end to end.
//!
//! The driver is transport-generic: every mix runs against a
//! [`StressTarget`], either the in-process [`IdService`]
//! ([`run_stress`]) or a loopback TCP server through the real
//! [`Client`] socket path ([`run_stress_remote`]) — and because the
//! audit totals are interleaving-invariant, the two transports must
//! report identical issued/duplicate counts for the same seed and mix.
//!
//! Remote runs fan the client side out over `remote_workers ≥ 1` worker
//! threads, **all multiplexing clones of one connection**
//! ([`WireTarget`]). Tenants are pinned to pool workers
//! (`tenant % workers`), so every tenant's requests stay FIFO and the
//! totals remain bit-identical to the in-process path for every pool
//! width.
//!
//! Chaos runs ([`StressConfig::chaos`]) interpose a deterministic
//! [`ChaosProxy`] between the client pool and the server and swap the
//! fail-fast targets for a retrying one ([`ChaosRemoteTarget`]): every
//! request failure is classified (retry-safe / lease-in-doubt / fatal),
//! retried under a seeded [`RetryPolicy`], and accounted into the
//! report's SLO section. The shutdown that yields the authoritative
//! totals travels over the proxy in passthrough mode, so the report
//! itself is never a casualty of the faults it describes.
//!
//! [`RunHunter`]: uuidp_adversary::run_hunter::RunHunter

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc as SyncArc;
use std::thread::JoinHandle;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_adversary::adaptive::{Action, AdversarySpec, GameView};
use uuidp_adversary::run_hunter::RunHunter;
use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;
use uuidp_core::rng::{SeedDomain, SeedTree};

use uuidp_client::{Client, ClientOptions, Lease, RetryPolicy, Summary};
use uuidp_netchaos::{schedule_fingerprint, ChaosProxy, ChaosSpec, FaultCounts};
use uuidp_obs::{SlowLease, Snapshot, TailSampler, TimeSeries};

use crate::metrics::FaultCounters;
use crate::net::{ServerOptions, TcpServer};
use crate::reactor::NetBackend;
use crate::service::{AuditReport, IdService, ServiceConfig, ServiceReport};

/// Per-request bound for every blocking client phase in a chaos run:
/// long enough that a throttled-but-alive peer gets through, short
/// enough that a truncated reply cannot hang the driver.
const CHAOS_TIMEOUT: Duration = Duration::from_secs(5);

/// How many connection plans the report's schedule fingerprint covers.
/// Fixed (rather than "however many connections this run happened to
/// make") so the pin is a pure function of `(spec, seed)` and two runs
/// of the same seed print the same fingerprint even when retry timing
/// differs.
const FINGERPRINT_CONNS: u64 = 64;

/// Worst-K leases each remote run samples end to end; the sampled corr
/// ids get their span timelines fetched back over the wire post-run.
const TAIL_SAMPLES: usize = 4;

/// The request-mix shapes the driver can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficMix {
    /// Round-robin, equal batches: the uniform demand profile.
    #[default]
    Uniform,
    /// Power-law tenant choice (`weight(t) ∝ 1/(t+1)^1.2`): Zipf-shaped
    /// load, the skewed profiles of the competitive analysis.
    Skewed,
    /// One hot tenant takes 3 of every 4 requests at 4× batch size;
    /// the rest round-robin, the `SkewedFlood` shape.
    Flood,
    /// The adaptive `RunHunter` attacker drives single-ID requests
    /// through the synchronous lease path, observing returned IDs.
    Hunter,
}

impl TrafficMix {
    /// Parses a mix name (`uniform | skewed | flood | hunter`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(TrafficMix::Uniform),
            "skewed" | "zipf" => Ok(TrafficMix::Skewed),
            "flood" => Ok(TrafficMix::Flood),
            "hunter" | "adaptive" => Ok(TrafficMix::Hunter),
            other => Err(format!(
                "unknown mix `{other}` (uniform | skewed | flood | hunter)"
            )),
        }
    }
}

impl fmt::Display for TrafficMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TrafficMix::Uniform => "uniform",
            TrafficMix::Skewed => "skewed",
            TrafficMix::Flood => "flood",
            TrafficMix::Hunter => "hunter",
        };
        f.write_str(name)
    }
}

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
    /// Traffic shape.
    pub mix: TrafficMix,
    /// Client-side pool width for remote runs: worker threads that
    /// multiplex one persistent connection for the whole run (under
    /// chaos, each worker dials its own).
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
    /// Which readiness backend the remote run's server uses (see
    /// [`NetBackend`]): `Auto` picks epoll where compiled in, `Poll`
    /// forces the portable rotation fallback so CI can exercise it.
    /// Ignored by in-process runs.
    pub net_backend: NetBackend,
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
            net_backend: NetBackend::Auto,
        }
    }
}

/// Metric families every scrape of a live service must expose. The
/// canonical list lives with the registry ([`uuidp_obs::families`]);
/// this re-export keeps the stress driver's old path working.
pub use uuidp_obs::families::REQUIRED as REQUIRED_FAMILIES;

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
    /// Final authoritative family values, read from the server-side
    /// registry after the run — flattened the way
    /// [`uuidp_obs::parse_exposition`] flattens an exposition.
    pub families: std::collections::BTreeMap<String, f64>,
}

/// The scrape sidecar: one dedicated connection hammering `metrics`
/// while the run is live. Every scrape asserts the [`REQUIRED_FAMILIES`]
/// are present and that no counter family went backwards — the
/// monotonicity half of the export-surface contract — and is ingested
/// into a bounded [`TimeSeries`] ring (one window per scrape), so the
/// report can describe the run's shape over time, not just its end
/// state. Ends (returning the scrape count and the ring) when the
/// shutdown severs its connection.
fn spawn_wire_scraper(addr: SocketAddr, space: IdSpace) -> JoinHandle<(u64, TimeSeries)> {
    std::thread::spawn(move || {
        let mut scrapes = 0u64;
        let mut series = TimeSeries::new(1, 64);
        let mut last: std::collections::BTreeMap<String, f64> = Default::default();
        let options = ClientOptions::bounded(Some(CHAOS_TIMEOUT));
        let Ok(client) = Client::connect_with(addr, space, options) else {
            return (0, series); // raced the shutdown before the first scrape
        };
        loop {
            let text = match client.metrics() {
                Ok(t) => t,
                Err(_) => return (scrapes, series), // severed: the run is over
            };
            let families = uuidp_obs::parse_exposition(&text);
            for name in REQUIRED_FAMILIES {
                assert!(
                    families.contains_key(*name),
                    "scrape missing required family {name}:\n{text}"
                );
            }
            for (name, value) in &families {
                if name.ends_with("_total") || name.ends_with("_count") {
                    if let Some(prev) = last.get(name) {
                        assert!(
                            value >= prev,
                            "metric family {name} went backwards across scrapes: {prev} -> {value}"
                        );
                    }
                }
            }
            last = families;
            series.ingest(scrapes, &Snapshot::parse_prometheus(&text));
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
    })
}

/// Anything a stress mix can be replayed against: the in-process
/// service or a remote front-end over a socket. The driver only ever
/// needs to lease (observing arcs, for the adaptive mix), fire
/// lease-shaped load, drain, and collect the final accounting.
pub trait StressTarget {
    /// The target's ID universe.
    fn space(&self) -> IdSpace;
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
    fn space(&self) -> IdSpace {
        self.service.space()
    }

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

/// How a pool worker reaches the server. `None` is a lease the
/// connection gave up on (only the chaos target's retry budget ever
/// runs out; a clean run fails fast instead).
trait Conn {
    fn lease(&mut self, tenant: u64, count: u128) -> Option<(Lease, u64)>;
    fn drain(&mut self);
}

/// A clean run's connection: a clone of the shared multiplexed client.
/// Any failure is a bug, so it panics the run.
impl Conn for Client {
    fn lease(&mut self, tenant: u64, count: u128) -> Option<(Lease, u64)> {
        Some(
            self.lease_with_corr(tenant, count)
                .expect("wire stress lease i/o"),
        )
    }

    fn drain(&mut self) {
        Client::drain(self).expect("wire stress drain i/o");
    }
}

/// A pool worker: serves its queue over its connection, then hands the
/// connection back along with its worst-lease samples. Latency is
/// measured around the whole request — retries and backoff included —
/// because that is what the caller experienced.
fn pool_worker<C: Conn>(mut conn: C, rx: Receiver<PoolMsg>) -> (C, TailSampler) {
    let mut tail = TailSampler::new(TAIL_SAMPLES, 0);
    while let Ok(msg) = rx.recv() {
        match msg {
            PoolMsg::Lease {
                tenant,
                count,
                reply,
            } => {
                let started = clock::monotonic_ns();
                let arcs = match conn.lease(tenant, count) {
                    Some((lease, corr)) => {
                        tail.offer(corr, tenant, 0, elapsed_ns(started));
                        lease.arcs
                    }
                    None => Vec::new(),
                };
                let _ = reply.send(arcs);
            }
            PoolMsg::Issue { tenant, count } => {
                let started = clock::monotonic_ns();
                if let Some((_, corr)) = conn.lease(tenant, count) {
                    tail.offer(corr, tenant, 0, elapsed_ns(started));
                }
            }
            PoolMsg::Barrier { done } => {
                let _ = done.send(());
            }
            PoolMsg::Drain { done } => {
                conn.drain();
                let _ = done.send(());
            }
        }
    }
    (conn, tail)
}

/// Tenant-pinned pool workers, one queue each: requests go to worker
/// `tenant % workers`, preserving each tenant's request order (and
/// therefore the run's deterministic totals).
struct Pool<C> {
    txs: Vec<SyncSender<PoolMsg>>,
    workers: Vec<JoinHandle<(C, TailSampler)>>,
}

impl<C: Conn + Send + 'static> Pool<C> {
    /// One worker thread per connection.
    fn spawn(conns: impl IntoIterator<Item = C>) -> Pool<C> {
        let (txs, workers) = conns
            .into_iter()
            .map(|conn| {
                let (tx, rx) = sync_channel::<PoolMsg>(1024);
                (tx, std::thread::spawn(move || pool_worker(conn, rx)))
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

    /// Closes the queues and joins every worker, returning their
    /// connections and their merged worst-lease samples.
    fn join(self) -> (Vec<C>, TailSampler) {
        drop(self.txs);
        let mut tail = TailSampler::new(TAIL_SAMPLES, 0);
        let conns = self
            .workers
            .into_iter()
            .map(|handle| {
                let (conn, worker_tail) = handle.join().expect("pool worker panicked");
                tail.merge(&worker_tail);
                conn
            })
            .collect();
        (conns, tail)
    }
}

/// The socket target: `workers ≥ 1` pool threads, each holding a clone
/// of **one multiplexed [`Client`]** for the entire run, so the server
/// sees a single connection carrying the whole pool's concurrent
/// traffic. The report comes from the wire summary, so the whole client
/// code path — not just the traffic — is exercised.
pub struct WireTarget {
    client: Client,
    pool: Pool<Client>,
}

impl WireTarget {
    /// Connects to the front-end serving `space` at `addr` and starts
    /// `workers` pool threads on clones of the one connection.
    pub fn connect(addr: SocketAddr, space: IdSpace, workers: usize) -> io::Result<WireTarget> {
        let client = Client::connect(addr, space)?;
        let pool = Pool::spawn((0..workers.max(1)).map(|_| client.clone()));
        Ok(WireTarget { client, pool })
    }
}

impl StressTarget for WireTarget {
    fn space(&self) -> IdSpace {
        self.client.space()
    }

    fn lease_arcs(&mut self, tenant: u64, count: u128) -> Vec<Arc> {
        self.pool.lease_arcs(tenant, count)
    }

    fn issue(&mut self, tenant: u64, count: u128) {
        self.pool.issue(tenant, count);
    }

    fn drain(&mut self) {
        self.pool.drain();
    }

    fn finish(self) -> TargetReport {
        let (_clones, mut tail) = self.pool.join();
        fetch_timelines(&self.client, &mut tail);
        let mut report: TargetReport = self
            .client
            .shutdown()
            .expect("wire stress shutdown i/o")
            .into();
        report.slow = tail.worst().to_vec();
        report
    }
}

/// A [`Client`] wrapped in classified retries: every failure is
/// observed into a [`FaultCounters`], the (possibly poisoned)
/// connection is replaced, and the request is retried under the seeded
/// [`RetryPolicy`] until it succeeds or the budget is exhausted.
///
/// Retrying a lease-in-doubt failure is deliberate and *correct* for
/// this service: the generator never re-emits an ID, so the retried
/// lease yields fresh IDs and the abandoned grant merely leaks
/// server-side — leak-not-duplicate, pinned by the global audit.
struct ResilientClient {
    addr: SocketAddr,
    space: IdSpace,
    policy: RetryPolicy,
    client: Option<Client>,
    ever_connected: bool,
    faults: FaultCounters,
}

impl ResilientClient {
    fn new(addr: SocketAddr, space: IdSpace, policy: RetryPolicy) -> Self {
        ResilientClient {
            addr,
            space,
            policy,
            client: None,
            ever_connected: false,
            faults: FaultCounters::default(),
        }
    }

    fn client(&mut self) -> io::Result<&Client> {
        if self.client.is_none() {
            let options = ClientOptions::bounded(Some(CHAOS_TIMEOUT));
            let dialed = Client::connect_with(self.addr, self.space, options)?;
            if self.ever_connected {
                self.faults.reconnects += 1;
            }
            self.ever_connected = true;
            self.client = Some(dialed);
        }
        Ok(self.client.as_ref().expect("just dialed"))
    }

    /// Runs `f` against a live connection, retrying per the policy.
    /// Returns `None` when the retry budget is exhausted (the request
    /// is abandoned and counted against the error budget).
    fn attempt<T>(&mut self, f: impl Fn(&Client) -> io::Result<T>) -> Option<T> {
        for attempt in 0.. {
            let result = self.client().and_then(&f);
            match result {
                Ok(v) => return Some(v),
                Err(e) => {
                    self.faults.observe(&e);
                    // Any failure poisons the connection (a timed-out
                    // request's late reply must never be read as the
                    // next request's answer): replace it.
                    self.client = None;
                    if self.policy.allows(attempt) {
                        self.faults.retries += 1;
                        std::thread::sleep(self.policy.delay(attempt));
                    } else {
                        self.faults.exhausted += 1;
                        return None;
                    }
                }
            }
        }
        unreachable!("the retry loop returns from within")
    }
}

/// A chaos run's connection: failures are classified, retried, and
/// counted instead of panicking.
impl Conn for ResilientClient {
    fn lease(&mut self, tenant: u64, count: u128) -> Option<(Lease, u64)> {
        self.attempt(|c| c.lease_with_corr(tenant, count))
    }

    fn drain(&mut self) {
        let _ = self.attempt(|c| c.drain());
    }
}

/// The chaos socket target: a pool of [`ResilientClient`] workers
/// talking through a shared [`ChaosProxy`]. Unlike [`WireTarget`],
/// every worker owns an independent connection — a severed mux must
/// not take the whole pool down with it.
pub struct ChaosRemoteTarget {
    space: IdSpace,
    proxy: SyncArc<ChaosProxy>,
    pool: Pool<ResilientClient>,
}

impl ChaosRemoteTarget {
    /// Starts `workers ≥ 1` resilient workers dialing through `proxy`.
    /// Connections are lazy — the first request dials (and the dial
    /// itself is inside the retry loop, so a refused connection window
    /// is survivable).
    pub fn connect(
        proxy: SyncArc<ChaosProxy>,
        space: IdSpace,
        workers: usize,
        policy: RetryPolicy,
    ) -> ChaosRemoteTarget {
        let pool = Pool::spawn((0..workers.max(1)).map(|worker| {
            // Distinct jitter streams per worker, still seed-determined.
            let policy = RetryPolicy {
                seed: policy.seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..policy
            };
            ResilientClient::new(proxy.addr(), space, policy)
        }));
        ChaosRemoteTarget { space, proxy, pool }
    }
}

impl StressTarget for ChaosRemoteTarget {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn lease_arcs(&mut self, tenant: u64, count: u128) -> Vec<Arc> {
        self.pool.lease_arcs(tenant, count)
    }

    fn issue(&mut self, tenant: u64, count: u128) {
        self.pool.issue(tenant, count);
    }

    fn drain(&mut self) {
        self.pool.drain();
    }

    fn finish(self) -> TargetReport {
        // The report must survive the chaos that produced it: flip the
        // proxy to passthrough so the shutdown travels a clean path
        // (new connections are unscheduled from here on).
        self.proxy.set_passthrough(true);
        let (clients, mut tail) = self.pool.join();
        let mut faults = FaultCounters::default();
        for client in clients {
            faults.merge(&client.faults);
        }
        let mut last_err: Option<io::Error> = None;
        for _ in 0..10 {
            let options = ClientOptions::bounded(Some(CHAOS_TIMEOUT));
            let attempt =
                Client::connect_with(self.proxy.addr(), self.space, options).and_then(|client| {
                    // The proxy is passthrough now, so the timeline
                    // fetches ride the same clean path as the shutdown.
                    fetch_timelines(&client, &mut tail);
                    client.shutdown()
                });
            match attempt {
                Ok(summary) => {
                    let mut report = TargetReport::from(summary);
                    report.faults = faults;
                    report.slow = tail.worst().to_vec();
                    return report;
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        panic!(
            "shutdown over a passthrough proxy kept failing: {:?}",
            last_err
        );
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

/// What a chaos run did to the wire, stamped into the report.
#[derive(Debug, Clone, Copy)]
pub struct ChaosReport {
    /// The fault intensities that scheduled this run.
    pub spec: ChaosSpec,
    /// The seed the schedule (and retry jitter) was derived from.
    pub seed: u64,
    /// [`schedule_fingerprint`] over the first [`FINGERPRINT_CONNS`]
    /// connection plans — a pure function of `(spec, seed)`, so two
    /// runs of the same seed print the same pin.
    pub fingerprint: u64,
    /// What the proxy actually injected.
    pub injected: FaultCounts,
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
            out.push_str(&format!(
                "chaos:       spec `{}`, seed {}, schedule fingerprint {:016x}\n  injected:    \
                 {} conns: {} refused, {} req-drops, {} reply-truncs, {} reply-corrupts, \
                 {} resealed, {} upstream-failures\n",
                chaos.spec,
                chaos.seed,
                chaos.fingerprint,
                chaos.injected.connections,
                chaos.injected.refused,
                chaos.injected.dropped_requests,
                chaos.injected.truncated_replies,
                chaos.injected.corrupted_replies,
                chaos.injected.resealed_replies,
                chaos.injected.upstream_failures,
            ));
        }
        if self.chaos.is_some() || self.faults != FaultCounters::default() {
            out.push_str(&self.faults.render_slo(self.requests));
            out.push('\n');
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(&format!(
                "metrics:     {} live scrapes, {} families exported\n",
                metrics.scrapes,
                metrics.families.len()
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
        let of = |name: &str| metrics.families.get(name).copied().unwrap_or(-1.0);
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
/// [`Client`] socket path ([`WireTarget`], or [`ChaosRemoteTarget`]
/// when [`StressConfig::chaos`] is set).
pub fn run_stress_remote(config: StressConfig) -> io::Result<StressReport> {
    let server = TcpServer::bind_with(
        "127.0.0.1:0",
        config.service.clone(),
        ServerOptions {
            backend: config.net_backend,
            ..ServerOptions::default()
        },
    )?;
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
                families: uuidp_obs::parse_exposition(&registry.snapshot().render_prometheus()),
            }
        })
    };
    if let Some(spec) = config.chaos {
        let seed = config.chaos_seed;
        let proxy = SyncArc::new(ChaosProxy::launch(server.local_addr(), spec, seed)?);
        // Mirror every injected fault into the node's own registry, so
        // the scrape shows ground truth next to the service's counters.
        proxy.attach_obs(&registry, server.trace());
        let target = ChaosRemoteTarget::connect(
            SyncArc::clone(&proxy),
            config.service.space,
            config.remote_workers,
            RetryPolicy {
                seed,
                ..RetryPolicy::default()
            },
        );
        let mut report = run_stress_with(target, config);
        report.chaos = Some(ChaosReport {
            spec,
            seed,
            fingerprint: schedule_fingerprint(&spec, seed, FINGERPRINT_CONNS),
            injected: proxy.counts(),
        });
        report.metrics = finish_metrics(scraper);
        let _ = server.join();
        return Ok(report);
    }
    let target = WireTarget::connect(
        server.local_addr(),
        config.service.space,
        config.remote_workers,
    )?;
    let mut report = run_stress_with(target, config);
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
    let started = clock::monotonic_ns();
    let submitted = match mix {
        TrafficMix::Uniform => drive_uniform(&mut target, &config),
        TrafficMix::Skewed => drive_skewed(&mut target, &config),
        TrafficMix::Flood => drive_flood(&mut target, &config),
        TrafficMix::Hunter => drive_hunter(&mut target, &config),
    };
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

fn drive_uniform<T: StressTarget>(target: &mut T, cfg: &StressConfig) -> u64 {
    for r in 0..cfg.requests {
        target.issue(r % cfg.tenants, cfg.count);
    }
    cfg.requests
}

fn drive_skewed<T: StressTarget>(target: &mut T, cfg: &StressConfig) -> u64 {
    // Power-law tenant weights, sampled by inverse CDF over prefix sums.
    let alpha = 1.2f64;
    let weights: Vec<f64> = (0..cfg.tenants)
        .map(|t| 1.0 / ((t + 1) as f64).powf(alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = SeedTree::new(cfg.service.master_seed).rng(SeedDomain::Workload);
    for _ in 0..cfg.requests {
        let u = (rng.next_value() >> 11) as f64 / (1u64 << 53) as f64;
        let tenant = cdf
            .partition_point(|&c| c < u)
            .min(cfg.tenants as usize - 1);
        target.issue(tenant as u64, cfg.count);
    }
    cfg.requests
}

fn drive_flood<T: StressTarget>(target: &mut T, cfg: &StressConfig) -> u64 {
    for r in 0..cfg.requests {
        if r % 4 != 3 {
            target.issue(0, cfg.count * 4);
        } else {
            target.issue(1 + r % (cfg.tenants.max(2) - 1), cfg.count);
        }
    }
    cfg.requests
}

fn drive_hunter<T: StressTarget>(target: &mut T, cfg: &StressConfig) -> u64 {
    // The adaptive attacker plays through the front door: every move is
    // a real (synchronous) lease, every observation a real returned ID.
    let n = (cfg.tenants.max(2) as usize).min(64);
    let budget = cfg.requests as u128;
    let spec = RunHunter::new(n, budget.max(n as u128));
    let mut adv = spec.spawn(cfg.service.master_seed);
    let mut histories: Vec<Vec<Id>> = Vec::new();
    let mut submitted = 0u64;
    loop {
        if submitted as u128 >= budget {
            break;
        }
        let action = {
            let view = GameView {
                space: target.space(),
                histories: &histories,
                // The audit runs asynchronously; the attacker plays the
                // budget out rather than stopping at first blood.
                collision: false,
                total_requests: submitted as u128,
            };
            adv.next_action(&view)
        };
        let tenant = match action {
            Action::Stop => break,
            Action::Activate => {
                histories.push(Vec::new());
                histories.len() - 1
            }
            Action::Request(i) => i,
        };
        let arcs = target.lease_arcs(tenant as u64, 1);
        submitted += 1;
        let Some(arc) = arcs.first() else { break };
        histories[tenant].push(arc.start);
    }
    submitted
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
            metrics.families.get("uuidp_ids_issued_total"),
            Some(&(report.issued_ids as f64)),
        );
        assert_eq!(
            metrics.families.get("uuidp_leases_total"),
            Some(&(report.requests as f64)),
        );
        assert_eq!(
            metrics.families.get("uuidp_audit_records_total"),
            Some(&(report.audit.records as f64)),
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
