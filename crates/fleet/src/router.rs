//! The tenant-affine router: the fleet's front door and its adversary.
//!
//! The [`Router`] plays two roles at once:
//!
//! * **Placement + transport** — every tenant is pinned to one node
//!   (`tenant % nodes`), and the router keeps **one persistent
//!   [`Client`] connection per node** for the whole run
//!   (re-established only when chaos kills the node). The pinning is
//!   what makes the whole fleet deterministic: a tenant's stream is a
//!   function of its seed alone, and no tenant is ever served by two
//!   nodes, so changing the node count only re-partitions the same set
//!   of per-tenant streams.
//! * **Global collision audit** — per-node audits die with their node
//!   and, worse, can never see a duplicate that spans two nodes (the
//!   cross-node same-seed twin, the paper's headline hazard). The
//!   router therefore tees every lease reply that crosses the wire
//!   into fleet-level [`LeaseAudit`]s that survive every crash.
//!
//! Two parallel audits are kept, differing only in owner key:
//!
//! * keyed by `(incarnation, tenant)` — a restarted node's tenants
//!   audit as *new* owners, so a recovery bug that re-emits pre-crash
//!   IDs counts as duplicates;
//! * keyed by `tenant` alone — blind to restarts, so it counts only
//!   genuine cross-tenant collisions.
//!
//! For any ID the incarnation-keyed owner set refines the tenant-keyed
//! one, hence `dup_incarnation ≥ dup_tenant`, and the difference is
//! *exactly* the IDs a tenant re-emitted across its own restarts —
//! the quantity chaos mode hard-fails on (see [`crate::run`]).
//!
//! The request *schedulers* ([`Placement`]) reuse the repository's
//! adversary taxonomy across nodes: uniform rotation (the oblivious
//! uniform profile), a power-law profile from
//! [`uuidp_adversary::profile::power_law`], and the adaptive
//! [`RunHunter`] choosing each next victim from the IDs the fleet
//! actually returned — the cross-node adaptive game.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_adversary::adaptive::{Action, AdaptiveAdversary, AdversarySpec, GameView};
use uuidp_adversary::profile::power_law;
use uuidp_adversary::run_hunter::RunHunter;
use uuidp_client::{classify, Client, ClientOptions, ErrorClass, Lease, ProtoVersion, RetryPolicy};
use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;
use uuidp_core::rng::{SeedDomain, SeedTree, Xoshiro256pp};
use uuidp_service::metrics::{FaultCounters, LatencyHistogram};
use uuidp_sim::audit::{AuditCounts, LeaseAudit};

/// Tenants must fit under the incarnation tag in the global audit's
/// owner key.
pub const INCARNATION_SHIFT: u32 = 40;

/// How lease requests are scheduled across tenants (and therefore
/// across nodes — tenants are node-pinned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Round-robin over tenants: the uniform demand profile.
    #[default]
    Uniform,
    /// Power-law tenant choice (`α = 1.2` like the stress driver's
    /// skewed mix), weights from the adversary crate's profile
    /// machinery.
    Skewed,
    /// The adaptive [`RunHunter`] plays across the fleet: single-ID
    /// requests, each chosen from every ID observed so far.
    Hunter,
}

impl Placement {
    /// Parses a placement name (`uniform | skewed | hunter`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(Placement::Uniform),
            "skewed" | "zipf" => Ok(Placement::Skewed),
            "hunter" | "adaptive" => Ok(Placement::Hunter),
            other => Err(format!(
                "unknown placement `{other}` (uniform | skewed | hunter)"
            )),
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Placement::Uniform => "uniform",
            Placement::Skewed => "skewed",
            Placement::Hunter => "hunter",
        })
    }
}

/// Per-request tenant scheduler for one fleet run. Deterministic given
/// `(placement, tenants, master seed)` — and for the hunter, the
/// observed IDs, which are themselves deterministic — so fleet totals
/// are reproducible and node-count-invariant.
pub struct Scheduler {
    tenants: u64,
    kind: SchedulerKind,
}

enum SchedulerKind {
    Uniform,
    Skewed {
        /// Prefix-sum CDF over tenant weights.
        cdf: Vec<f64>,
        rng: Xoshiro256pp,
    },
    Hunter {
        adversary: Box<dyn AdaptiveAdversary>,
        histories: Vec<Vec<Id>>,
        space: IdSpace,
    },
}

impl Scheduler {
    /// A scheduler for `requests` leases over `tenants` tenants.
    pub fn new(
        placement: Placement,
        tenants: u64,
        requests: u64,
        space: IdSpace,
        master_seed: u64,
    ) -> Scheduler {
        assert!(tenants >= 1, "at least one tenant");
        let kind = match placement {
            Placement::Uniform => SchedulerKind::Uniform,
            Placement::Skewed => {
                // The α = 1.2 power-law profile; `power_law` yields the
                // integer demand profile, used here as sampling weights.
                let profile = power_law(tenants as usize, (tenants as u128) * 1000, 1.2);
                let total: u128 = profile.demands().iter().sum();
                let mut acc = 0.0;
                let cdf = profile
                    .demands()
                    .iter()
                    .map(|&d| {
                        acc += d as f64 / total as f64;
                        acc
                    })
                    .collect();
                SchedulerKind::Skewed {
                    cdf,
                    rng: SeedTree::new(master_seed).rng(SeedDomain::Workload),
                }
            }
            Placement::Hunter => {
                // The hunt needs at least two instances to pit against
                // each other; with `tenants = 1` a second tenant is
                // conscripted (it still routes to a valid node).
                let n = tenants.max(2) as usize;
                let budget = (requests as u128).max(n as u128);
                SchedulerKind::Hunter {
                    adversary: RunHunter::new(n, budget).spawn(master_seed),
                    histories: Vec::new(),
                    space,
                }
            }
        };
        Scheduler { tenants, kind }
    }

    /// The tenant for request number `submitted`, or `None` when an
    /// adaptive scheduler stops early.
    pub fn next(&mut self, submitted: u64) -> Option<u64> {
        match &mut self.kind {
            SchedulerKind::Uniform => Some(submitted % self.tenants),
            SchedulerKind::Skewed { cdf, rng } => {
                let u = (rng.next_value() >> 11) as f64 / (1u64 << 53) as f64;
                Some(cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64)
            }
            SchedulerKind::Hunter {
                adversary,
                histories,
                space,
            } => {
                let action = adversary.next_action(&GameView {
                    space: *space,
                    histories,
                    // The global audit runs as the IDs come back; the
                    // attacker plays its budget out rather than
                    // stopping at first blood.
                    collision: false,
                    total_requests: submitted as u128,
                });
                let tenant = match action {
                    Action::Stop => return None,
                    Action::Activate => {
                        histories.push(Vec::new());
                        histories.len() - 1
                    }
                    Action::Request(i) => i,
                };
                Some(tenant as u64)
            }
        }
    }

    /// The per-lease ID count this scheduler imposes, if any (the
    /// hunter plays single-ID requests).
    pub fn forced_count(&self) -> Option<u128> {
        match self.kind {
            SchedulerKind::Hunter { .. } => Some(1),
            _ => None,
        }
    }

    /// Feeds an observed ID back to adaptive schedulers.
    pub fn observe(&mut self, tenant: u64, id: Id) {
        if let SchedulerKind::Hunter { histories, .. } = &mut self.kind {
            if let Some(h) = histories.get_mut(tenant as usize) {
                h.push(id);
            }
        }
    }
}

/// The global audit owner key: incarnation tag above the tenant number.
pub fn owner_key(tenant: u64, incarnation: u32) -> u64 {
    assert!(
        tenant < 1 << INCARNATION_SHIFT,
        "tenant id too wide for incarnation tagging"
    );
    ((incarnation as u64) << INCARNATION_SHIFT) | tenant
}

/// A node's health as the router sees it.
///
/// `Healthy → Suspect` on the first failure, `Suspect → Down` after
/// [`DOWN_AFTER`] consecutive failures, and any state `→ Healthy` the
/// moment a request (which doubles as the recovery probe — every
/// attempt against a disconnected node redials it first) succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    /// The last request succeeded.
    #[default]
    Healthy,
    /// At least one recent failure; the node is being probed by the
    /// very requests routed to it.
    Suspect,
    /// [`DOWN_AFTER`] or more consecutive failures. Still probed — a
    /// node is never written off, only its error budget is.
    Down,
}

impl fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Down => "down",
        })
    }
}

/// Consecutive failures that demote a suspect node to down.
pub const DOWN_AFTER: u32 = 3;

/// The router's view of one node: where it listens, the persistent
/// connection (if live), and the health bookkeeping.
struct NodeLink {
    addr: Option<SocketAddr>,
    client: Option<Client>,
    incarnation: u32,
    health: NodeHealth,
    consecutive_failures: u32,
}

impl NodeLink {
    fn new() -> NodeLink {
        NodeLink {
            addr: None,
            client: None,
            incarnation: 0,
            health: NodeHealth::Healthy,
            consecutive_failures: 0,
        }
    }
}

/// The tenant-affine fleet router (see the module docs).
pub struct Router {
    space: IdSpace,
    links: Vec<NodeLink>,
    policy: RetryPolicy,
    dial_timeout: Option<Duration>,
    faults: FaultCounters,
    latency: LatencyHistogram,
    audit: LeaseAudit,
    audit_by_tenant: LeaseAudit,
    issued: u128,
    leases: u64,
    errors: u64,
}

impl Router {
    /// A router for `nodes` nodes over `space`, auditing globally with
    /// `audit_stripes` stripes, holding one multiplexed v2 connection
    /// per node. The fourth parameter has a single possible value; it
    /// is kept only because the out-of-workspace benchmark
    /// (`perfbench/`) still passes it.
    pub fn new(
        space: IdSpace,
        nodes: usize,
        audit_stripes: usize,
        _protocol: ProtoVersion,
    ) -> Router {
        assert!(nodes >= 1, "at least one node");
        Router {
            space,
            links: (0..nodes).map(|_| NodeLink::new()).collect(),
            policy: RetryPolicy::none(),
            dial_timeout: None,
            faults: FaultCounters::default(),
            latency: LatencyHistogram::new(),
            audit: LeaseAudit::new(space, audit_stripes),
            audit_by_tenant: LeaseAudit::new(space, audit_stripes),
            issued: 0,
            leases: 0,
            errors: 0,
        }
    }

    /// The node pinned to `tenant`.
    pub fn node_of(&self, tenant: u64) -> usize {
        (tenant % self.links.len() as u64) as usize
    }

    /// Installs the retry schedule for node failures. The default is
    /// [`RetryPolicy::none`] — fail fast, the right behavior when the
    /// network is supposed to be clean and an error means a bug.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Bounds every dial and reply read (`None` = block forever). Set
    /// this whenever a chaos proxy sits on the path.
    pub fn set_dial_timeout(&mut self, timeout: Option<Duration>) {
        self.dial_timeout = timeout;
    }

    /// Dials `addr` with this router's timeout bound.
    fn dial(&self, addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with(addr, self.space, ClientOptions::bounded(self.dial_timeout))
    }

    /// Opens (or replaces) the persistent connection to node `index`.
    pub fn connect(&mut self, index: usize, addr: SocketAddr) -> io::Result<()> {
        self.links[index].addr = Some(addr);
        let client = self.dial(addr)?;
        let link = &mut self.links[index];
        link.client = Some(client);
        link.health = NodeHealth::Healthy;
        link.consecutive_failures = 0;
        Ok(())
    }

    /// Records node `index`'s address without dialing: the first
    /// request routed there probes it. This is how a router starts
    /// against a chaotic network, where even the first dial may be
    /// inside a partition window.
    pub fn set_addr(&mut self, index: usize, addr: SocketAddr) {
        let link = &mut self.links[index];
        link.addr = Some(addr);
        link.client = None;
    }

    /// Reconnects to a crash-restarted node: fresh connection, and all
    /// the node's tenants audit under the next incarnation from here
    /// on (so any overlap with their pre-crash material counts).
    pub fn reconnect_after_crash(&mut self, index: usize, addr: SocketAddr) -> io::Result<()> {
        self.links[index].incarnation += 1;
        self.connect(index, addr)
    }

    /// The crash acknowledgement for proxied topologies, where the
    /// node's *proxy* address is stable across the restart: bumps the
    /// incarnation and drops the (dead) connection — dropping a
    /// client fails its pending waiters with a typed broken-connection
    /// error, so in-flight work is drained, never stranded. The next
    /// request to the node redials through the stored address.
    pub fn mark_restarted(&mut self, index: usize) {
        let link = &mut self.links[index];
        link.incarnation += 1;
        link.client = None;
        link.health = NodeHealth::Suspect;
    }

    /// The incarnation the router currently attributes to node `index`.
    pub fn incarnation(&self, index: usize) -> u32 {
        self.links[index].incarnation
    }

    /// Node `index`'s health as of the last request routed to it.
    pub fn health(&self, index: usize) -> NodeHealth {
        self.links[index].health
    }

    /// The per-fault-class ledger of everything [`Router::lease`]
    /// absorbed (all-zero under a clean network).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Client-side lease latency through this router (includes retry
    /// and backoff time — the latency a caller actually experienced).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// One lease attempt against node `index`, redialing first if the
    /// connection is down (the probe half of probed recovery).
    fn try_lease_once(&mut self, node: usize, tenant: u64, count: u128) -> io::Result<Lease> {
        if self.links[node].client.is_none() {
            let addr = self.links[node].addr.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotConnected,
                    format!("router has no address for node {node}"),
                )
            })?;
            let client = self.dial(addr)?;
            self.links[node].client = Some(client);
            self.faults.reconnects += 1;
        }
        self.links[node]
            .client
            .as_ref()
            .expect("just dialed")
            .lease(tenant, count)
    }

    /// Routes one lease to the tenant's node over the persistent
    /// connection and records the granted arcs in both global audits.
    ///
    /// Failures are classified and retried under the installed
    /// [`RetryPolicy`] — always against the tenant's *own* node. There
    /// is no cross-node failover, by design: every node derives the
    /// same per-tenant streams from the shared master seed, so serving
    /// a tenant from a second node would manufacture the exact
    /// duplicates this whole system exists to prevent. A lost reply
    /// means the granted IDs leak; a retry gets fresh ones
    /// (leak-not-duplicate, pinned by the global audit).
    pub fn lease(&mut self, tenant: u64, count: u128) -> io::Result<Vec<Arc>> {
        let node = self.node_of(tenant);
        let started_ns = clock::monotonic_ns();
        let mut attempt = 0u32;
        loop {
            match self.try_lease_once(node, tenant, count) {
                Ok(lease) => {
                    let link = &mut self.links[node];
                    link.health = NodeHealth::Healthy;
                    link.consecutive_failures = 0;
                    self.latency.record(Duration::from_nanos(
                        clock::monotonic_ns().saturating_sub(started_ns),
                    ));
                    self.leases += 1;
                    self.issued += lease.granted;
                    self.errors += lease.error.is_some() as u64;
                    let owner = owner_key(tenant, link.incarnation);
                    for &arc in &lease.arcs {
                        self.audit.record(owner, arc);
                        self.audit_by_tenant.record(tenant, arc);
                    }
                    return Ok(lease.arcs);
                }
                Err(e) => {
                    self.faults.observe(&e);
                    let link = &mut self.links[node];
                    link.client = None; // poisoned either way
                    link.consecutive_failures += 1;
                    link.health = if link.consecutive_failures >= DOWN_AFTER {
                        NodeHealth::Down
                    } else {
                        NodeHealth::Suspect
                    };
                    let fatal = classify(&e) == ErrorClass::Fatal;
                    if fatal || !self.policy.allows(attempt) {
                        self.faults.exhausted += 1;
                        return Err(e);
                    }
                    self.faults.retries += 1;
                    std::thread::sleep(self.policy.delay(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Total IDs issued through this router.
    pub fn issued(&self) -> u128 {
        self.issued
    }

    /// Leases routed.
    pub fn leases(&self) -> u64 {
        self.leases
    }

    /// Leases whose grant fell short (generator exhaustion).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// The incarnation-keyed global audit counters (restart-aware).
    pub fn global_counts(&self) -> AuditCounts {
        self.audit.counts()
    }

    /// The tenant-keyed global audit counters (restart-blind: genuine
    /// cross-tenant duplicates only).
    pub fn cross_tenant_counts(&self) -> AuditCounts {
        self.audit_by_tenant.counts()
    }

    /// IDs a tenant re-emitted across its own restarts — the recovery
    /// failure metric, provably `global − cross_tenant` (the owner
    /// refinement argument in the module docs).
    pub fn recovered_duplicate_ids(&self) -> u128 {
        self.audit.counts().duplicate_ids - self.audit_by_tenant.counts().duplicate_ids
    }

    /// Sends `shutdown` over node `index`'s connection, consuming it.
    /// The node's own summary frame is dropped — the caller
    /// collects the richer server-side report via
    /// [`Fleet::join_node`](crate::cluster::Fleet::join_node).
    ///
    /// Like [`Router::lease`], the shutdown survives a poisoned
    /// connection: on failure a fresh connection is dialed (up to the
    /// retry budget) so the run's accounting is never lost to a fault
    /// that was scheduled mid-teardown.
    pub fn shutdown_node(&mut self, index: usize) -> io::Result<()> {
        let mut client = self.links[index].client.take();
        if client.is_none() && self.links[index].addr.is_none() {
            return Ok(()); // never connected, nothing to shut down
        }
        let mut attempt = 0u32;
        loop {
            let result = match client.take() {
                Some(c) => c.shutdown().map(|_| ()),
                None => {
                    let addr = self.links[index].addr.expect("checked above");
                    self.dial(addr).and_then(|c| c.shutdown()).map(|_| ())
                }
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.faults.observe(&e);
                    if !self.policy.allows(attempt) {
                        self.faults.exhausted += 1;
                        return Err(e);
                    }
                    self.faults.retries += 1;
                    std::thread::sleep(self.policy.delay(attempt));
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_service::net::TcpServer;
    use uuidp_service::service::ServiceConfig;

    #[test]
    fn health_walks_suspect_to_down_and_recovers_on_success() {
        let space = IdSpace::with_bits(40).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let server = TcpServer::bind("127.0.0.1:0", config.clone()).unwrap();
        let mut router = Router::new(space, 1, 4, ProtoVersion::V2);
        router.set_retry_policy(RetryPolicy {
            max_retries: 1,
            base: Duration::from_micros(100),
            max: Duration::from_micros(200),
            ..RetryPolicy::default()
        });
        router.connect(0, server.local_addr()).unwrap();
        assert_eq!(router.health(0), NodeHealth::Healthy);
        assert_eq!(router.lease(0, 10).unwrap().len(), 1);

        // Kill the node; every lease now burns 1 try + 1 retry = 2
        // consecutive failures, so the second lease crosses DOWN_AFTER.
        let halted = server.halt();
        assert!(halted.is_some());
        assert!(router.lease(0, 10).is_err());
        assert_eq!(router.health(0), NodeHealth::Suspect);
        assert!(router.lease(0, 10).is_err());
        assert_eq!(router.health(0), NodeHealth::Down);
        let faults = router.fault_counters();
        assert!(faults.failed_attempts() >= 4, "{faults:?}");
        assert_eq!(faults.exhausted, 2);

        // A successor node comes up; the next request probes it back to
        // healthy without an explicit connect call.
        let server2 = TcpServer::bind("127.0.0.1:0", config).unwrap();
        router.set_addr(0, server2.local_addr());
        assert_eq!(router.lease(0, 10).unwrap().len(), 1);
        assert_eq!(router.health(0), NodeHealth::Healthy);
        assert!(router.latency().count() >= 2);
        router.shutdown_node(0).unwrap();
        assert!(server2.join().is_some());
    }

    #[test]
    fn owner_keys_separate_incarnations_and_tenants() {
        assert_eq!(owner_key(7, 0), 7);
        assert_ne!(owner_key(7, 1), owner_key(7, 0));
        assert_ne!(owner_key(7, 1), owner_key(8, 1));
        assert_eq!(owner_key(7, 1) & ((1 << INCARNATION_SHIFT) - 1), 7);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn oversized_tenants_are_rejected() {
        owner_key(1 << INCARNATION_SHIFT, 0);
    }

    #[test]
    fn placement_parses_and_displays() {
        for (name, want) in [
            ("uniform", Placement::Uniform),
            ("skewed", Placement::Skewed),
            ("zipf", Placement::Skewed),
            ("hunter", Placement::Hunter),
            ("adaptive", Placement::Hunter),
        ] {
            assert_eq!(Placement::parse(name).unwrap(), want);
        }
        assert!(Placement::parse("mesh").is_err());
        assert_eq!(Placement::Skewed.to_string(), "skewed");
    }

    #[test]
    fn uniform_and_skewed_schedules_are_deterministic() {
        let space = IdSpace::with_bits(32).unwrap();
        for placement in [Placement::Uniform, Placement::Skewed] {
            let mut a = Scheduler::new(placement, 6, 100, space, 42);
            let mut b = Scheduler::new(placement, 6, 100, space, 42);
            for r in 0..100 {
                let (x, y) = (a.next(r), b.next(r));
                assert_eq!(x, y, "{placement} diverged at {r}");
                assert!(x.unwrap() < 6);
            }
        }
    }

    #[test]
    fn skewed_schedule_actually_skews() {
        let space = IdSpace::with_bits(32).unwrap();
        let mut s = Scheduler::new(Placement::Skewed, 8, 4000, space, 7);
        let mut counts = [0u32; 8];
        for r in 0..4000 {
            counts[s.next(r).unwrap() as usize] += 1;
        }
        assert!(
            counts[0] > counts[7] * 2,
            "power law should favor tenant 0: {counts:?}"
        );
    }

    #[test]
    fn hunter_schedule_respects_the_tenant_budget_shape() {
        let space = IdSpace::with_bits(24).unwrap();
        let mut s = Scheduler::new(Placement::Hunter, 4, 50, space, 3);
        assert_eq!(s.forced_count(), Some(1));
        let mut submitted = 0u64;
        while submitted < 50 {
            let Some(tenant) = s.next(submitted) else {
                break;
            };
            assert!(tenant < 4, "hunter chose tenant {tenant} of 4");
            // Feed a fabricated observation to keep the game moving.
            s.observe(tenant, Id(submitted as u128 * 17 % (1 << 24)));
            submitted += 1;
        }
        assert!(submitted >= 4, "probe phase must run");
    }
}
