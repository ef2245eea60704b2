//! The tenant-affine router: the fleet's front door.
//!
//! The [`Router`] plays two roles at once:
//!
//! * **Placement + transport** — every tenant is pinned to one node
//!   (`tenant % nodes`), and the router keeps **one [`Session`] per
//!   node**: one persistent connection for the whole run, redialed
//!   only after a failure or a crash-restart, with the session's retry
//!   loop and failure streak behind every request and the node's
//!   health. The pinning is what makes the whole fleet deterministic:
//!   a tenant's stream is a function of its seed alone, and no tenant
//!   is ever served by two nodes, so changing the node count only
//!   re-partitions the same set of per-tenant streams.
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
//! Which tenant leases next is not the router's decision: the runner
//! walks `uuidp_adversary::schedule::Scheduler` and routes each step
//! here, so the adaptive hunter plays across nodes.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_client::{ClientOptions, FaultCounters, ProtoVersion, RetryPolicy, Session};
use uuidp_core::id::IdSpace;
use uuidp_core::interval::Arc;
use uuidp_obs::Histogram;
use uuidp_service::service::TENANT_BITS;
use uuidp_sim::audit::{AuditCounts, LeaseAudit};

/// The global audit owner key: incarnation tag above the tenant number.
///
/// # Panics
///
/// Panics unless `tenant < 2^`[`TENANT_BITS`].
pub fn owner_key(tenant: u64, incarnation: u32) -> u64 {
    assert!(
        tenant < 1 << TENANT_BITS,
        "tenant id too wide for incarnation tagging"
    );
    ((incarnation as u64) << TENANT_BITS) | tenant
}

/// A node's health as the router sees it, read off the node session's
/// failure streak.
///
/// `Healthy → Suspect` on the first failed attempt, `Suspect → Down`
/// after [`DOWN_AFTER`] consecutive failed attempts, and any state
/// `→ Healthy` the moment a request (which doubles as the recovery
/// probe — every attempt against a disconnected node redials it first)
/// succeeds.
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

/// The router's view of one node: its session (none until an address
/// is known) and the incarnation its leases audit under.
#[derive(Default)]
struct NodeLink {
    session: Option<Session>,
    incarnation: u32,
}

/// The tenant-affine fleet router (see the module docs).
pub struct Router {
    space: IdSpace,
    links: Vec<NodeLink>,
    policy: RetryPolicy,
    dial_timeout: Option<Duration>,
    /// The ledgers of sessions replaced by `connect` / `set_addr`.
    retired: FaultCounters,
    latency: Histogram,
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
            links: (0..nodes).map(|_| NodeLink::default()).collect(),
            policy: RetryPolicy::none(),
            dial_timeout: None,
            retired: FaultCounters::default(),
            latency: Histogram::new(),
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
        for session in self.links.iter_mut().filter_map(|l| l.session.as_mut()) {
            session.set_policy(policy);
        }
    }

    /// Bounds every dial and reply read (`None` = block forever). Set
    /// this whenever a chaos proxy sits on the path.
    pub fn set_dial_timeout(&mut self, timeout: Option<Duration>) {
        self.dial_timeout = timeout;
        for session in self.links.iter_mut().filter_map(|l| l.session.as_mut()) {
            session.set_options(ClientOptions::bounded(timeout));
        }
    }

    /// Installs `session` as node `index`'s, keeping the replaced
    /// session's ledger.
    fn install(&mut self, index: usize, session: Session) {
        if let Some(old) = self.links[index].session.replace(session) {
            self.retired.merge(&old.faults());
        }
    }

    /// Opens (or replaces) the persistent connection to node `index`.
    pub fn connect(&mut self, index: usize, addr: SocketAddr) -> io::Result<()> {
        let options = ClientOptions::bounded(self.dial_timeout);
        let session = Session::connect(addr, self.space, options, self.policy)?;
        self.install(index, session);
        Ok(())
    }

    /// Records node `index`'s address without dialing: the first
    /// request routed there probes it. This is how a router starts
    /// against a chaotic network, where even the first dial may be
    /// inside a partition window.
    pub fn set_addr(&mut self, index: usize, addr: SocketAddr) {
        let options = ClientOptions::bounded(self.dial_timeout);
        let session = Session::new(addr, self.space, options, self.policy);
        self.install(index, session);
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
        if let Some(session) = link.session.as_mut() {
            session.disconnect();
        }
    }

    /// The incarnation the router currently attributes to node `index`.
    pub fn incarnation(&self, index: usize) -> u32 {
        self.links[index].incarnation
    }

    /// Node `index`'s health as of the last request routed to it.
    pub fn health(&self, index: usize) -> NodeHealth {
        let session = self.links[index].session.as_ref();
        match session.map_or(0, Session::failure_streak) {
            0 => NodeHealth::Healthy,
            streak if streak < DOWN_AFTER => NodeHealth::Suspect,
            _ => NodeHealth::Down,
        }
    }

    /// The per-fault-class ledger of everything the node sessions
    /// absorbed (all-zero under a clean network).
    pub fn fault_counters(&self) -> FaultCounters {
        let mut faults = self.retired;
        for session in self.links.iter().filter_map(|l| l.session.as_ref()) {
            faults.merge(&session.faults());
        }
        faults
    }

    /// Client-side lease latency through this router (includes retry
    /// and backoff time — the latency a caller actually experienced).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Routes one lease to the tenant's node over the persistent
    /// connection and records the granted arcs in both global audits.
    ///
    /// Failures are classified and retried by the node's [`Session`]
    /// under the installed [`RetryPolicy`] — always against the
    /// tenant's *own* node. There is no cross-node failover, by design:
    /// every node derives the same per-tenant streams from the shared
    /// master seed, so serving a tenant from a second node would
    /// manufacture the exact duplicates this whole system exists to
    /// prevent. A lost reply means the granted IDs leak; a retry gets
    /// fresh ones (leak-not-duplicate, pinned by the global audit).
    pub fn lease(&mut self, tenant: u64, count: u128) -> io::Result<Vec<Arc>> {
        let node = self.node_of(tenant);
        let started_ns = clock::monotonic_ns();
        let session = self.links[node].session.as_mut().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("router has no address for node {node}"),
            )
        })?;
        let lease = session.call(|c| c.lease(tenant, count))?;
        self.latency.record(Duration::from_nanos(
            clock::monotonic_ns().saturating_sub(started_ns),
        ));
        self.leases += 1;
        self.issued += lease.granted;
        self.errors += lease.error.is_some() as u64;
        let owner = owner_key(tenant, self.links[node].incarnation);
        for &arc in &lease.arcs {
            self.audit.record(owner, arc);
            self.audit_by_tenant.record(tenant, arc);
        }
        Ok(lease.arcs)
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

    /// Sends `shutdown` over node `index`'s connection. The node's own
    /// summary frame is dropped — the caller collects the richer
    /// server-side report via
    /// [`Fleet::join_node`](crate::cluster::Fleet::join_node).
    ///
    /// Like [`Router::lease`], the shutdown runs in the node's session,
    /// so it survives a poisoned connection: on failure a fresh
    /// connection is dialed (up to the retry budget) and the run's
    /// accounting is never lost to a fault scheduled mid-teardown.
    pub fn shutdown_node(&mut self, index: usize) -> io::Result<()> {
        match self.links[index].session.as_mut() {
            None => Ok(()), // never connected, nothing to shut down
            Some(session) => session.call(|c| c.clone().shutdown()).map(drop),
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
        assert_eq!(owner_key(7, 1) & ((1 << TENANT_BITS) - 1), 7);
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn oversized_tenants_are_rejected() {
        owner_key(1 << TENANT_BITS, 0);
    }
}
