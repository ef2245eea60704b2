//! The tenant-affine router: the fleet's front door.
//!
//! The [`Router`] plays two roles at once:
//!
//! * **Placement + transport** — every tenant is pinned to one node
//!   (`tenant % nodes`) and leases on one *lane* (`tenant % lanes`). A
//!   lane holds one [`Session`] per node, so each of the runner's
//!   workers has sessions of its own, with the session's retry loop and
//!   failure streak behind every request and the node's health. On a
//!   clean network every lane shares one connection per node
//!   ([`Router::connect`] clones one session, and clones share their
//!   client); behind a chaos proxy each lane dials its own
//!   ([`Router::set_addr`]), so a severed connection stalls one lane
//!   only. The pinning is what makes the whole fleet deterministic: a
//!   tenant's stream is a function of its seed alone, and no tenant is
//!   ever served by two nodes, so changing the node or lane count only
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
//! The lanes share one ledger: both audits, the issued, lease and error
//! counts, the latency histogram and a worst-K [`TailSampler`]. The
//! audits' duplicate counts are interleaving-invariant, so the lanes
//! may record in any order. A lane is meant for one thread at a time,
//! so its lock is uncontended, and [`Router::lease`] runs on the
//! caller's thread.
//!
//! Which tenant leases next is not the router's decision: the runner
//! walks `uuidp_adversary::schedule::Scheduler` and routes each step
//! here, so the adaptive hunter plays across nodes.

use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

use uuidp_core::clock;

use uuidp_client::{ClientOptions, FaultCounters, ProtoVersion, RetryPolicy, Session};
use uuidp_core::id::IdSpace;
use uuidp_core::interval::Arc;
use uuidp_obs::{Histogram, SlowLease, TailSampler};
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

/// A node's health as the router sees it, read off the node sessions'
/// failure streaks.
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

/// Worst leases the ledger keeps, with the correlation ids their span
/// timelines are fetched back by.
const TAIL_SAMPLES: usize = 4;

/// A lease the tail sampler admitted: its correlation id and its node.
pub(crate) type Admitted = (u64, usize);

/// One lane: a session slot per node, empty until an address is known.
type Lane = Vec<Option<Session>>;

/// Lane `lane`'s retry schedule: `policy` with its own jitter seed, so
/// the lanes' backoffs stay seed-determined but do not move in step.
/// Lane 0 keeps `policy`'s seed.
fn lane_policy(policy: RetryPolicy, lane: usize) -> RetryPolicy {
    RetryPolicy {
        seed: policy.seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..policy
    }
}

/// What the lanes share: the global audits and the lease accounting.
struct Ledger {
    /// Each node's incarnation, the tag its leases audit under.
    incarnations: Vec<u32>,
    /// The ledgers of sessions replaced by `connect` / `set_addr`.
    retired: FaultCounters,
    latency: Histogram,
    tail: TailSampler,
    audit: LeaseAudit,
    audit_by_tenant: LeaseAudit,
    issued: u128,
    leases: u64,
    errors: u64,
}

/// The tenant-affine fleet router (see the module docs).
pub struct Router {
    space: IdSpace,
    nodes: usize,
    policy: RetryPolicy,
    dial_timeout: Option<Duration>,
    lanes: Vec<Mutex<Lane>>,
    ledger: Mutex<Ledger>,
}

impl Router {
    /// A router for `nodes` nodes over `space` with one lane, auditing
    /// globally with `audit_stripes` stripes. The fourth parameter has
    /// a single possible value; it is kept only because the
    /// out-of-workspace benchmark (`perfbench/`) still passes it.
    pub fn new(
        space: IdSpace,
        nodes: usize,
        audit_stripes: usize,
        _protocol: ProtoVersion,
    ) -> Router {
        assert!(nodes >= 1, "at least one node");
        Router {
            space,
            nodes,
            policy: RetryPolicy::none(),
            dial_timeout: None,
            lanes: vec![Mutex::new(vec![None; nodes])],
            ledger: Mutex::new(Ledger {
                incarnations: vec![0; nodes],
                retired: FaultCounters::default(),
                latency: Histogram::new(),
                tail: TailSampler::new(TAIL_SAMPLES, 0),
                audit: LeaseAudit::new(space, audit_stripes),
                audit_by_tenant: LeaseAudit::new(space, audit_stripes),
                issued: 0,
                leases: 0,
                errors: 0,
            }),
        }
    }

    /// Sets the lane count (`lanes ≥ 1`): tenant `t` leases on lane
    /// `t % lanes`. Call it before the first `connect` or `set_addr`,
    /// like [`Router::set_retry_policy`]; it empties every lane.
    pub(crate) fn set_lanes(&mut self, lanes: usize) {
        assert!(lanes >= 1, "at least one lane");
        self.lanes = (0..lanes)
            .map(|_| Mutex::new(vec![None; self.nodes]))
            .collect();
    }

    /// The node pinned to `tenant`.
    pub fn node_of(&self, tenant: u64) -> usize {
        (tenant % self.nodes as u64) as usize
    }

    /// Installs the retry schedule for node failures, each lane with its
    /// own jitter seed. The default is [`RetryPolicy::none`] — fail
    /// fast, the right behavior when the network is supposed to be
    /// clean and an error means a bug.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            let lane = lane.get_mut().expect("router lane");
            for session in lane.iter_mut().flatten() {
                session.set_policy(lane_policy(policy, l));
            }
        }
    }

    /// Bounds every dial and reply read (`None` = block forever). Set
    /// this whenever a chaos proxy sits on the path.
    pub fn set_dial_timeout(&mut self, timeout: Option<Duration>) {
        self.dial_timeout = timeout;
        for lane in &mut self.lanes {
            let lane = lane.get_mut().expect("router lane");
            for session in lane.iter_mut().flatten() {
                session.set_options(ClientOptions::bounded(timeout));
            }
        }
    }

    /// Installs `session(lane)` as node `index`'s session on every lane,
    /// keeping the replaced sessions' ledgers.
    fn install(&self, index: usize, session: impl Fn(usize) -> Session) {
        let mut retired = FaultCounters::default();
        for (l, lane) in self.lanes.iter().enumerate() {
            let old = lane.lock().expect("router lane")[index].replace(session(l));
            if let Some(old) = old {
                retired.merge(&old.faults());
            }
        }
        self.ledger
            .lock()
            .expect("router ledger")
            .retired
            .merge(&retired);
    }

    /// Opens (or replaces) the persistent connection to node `index`,
    /// shared by every lane.
    pub fn connect(&self, index: usize, addr: SocketAddr) -> io::Result<()> {
        let options = ClientOptions::bounded(self.dial_timeout);
        let session = Session::connect(addr, self.space, options, self.policy)?;
        self.install(index, |l| {
            let mut lane = session.clone();
            lane.set_policy(lane_policy(self.policy, l));
            lane
        });
        Ok(())
    }

    /// Records node `index`'s address without dialing: the first
    /// request each lane routes there dials its own connection. This is
    /// how a router starts against a chaotic network, where even the
    /// first dial may be inside a partition window.
    pub fn set_addr(&self, index: usize, addr: SocketAddr) {
        let options = ClientOptions::bounded(self.dial_timeout);
        self.install(index, |l| {
            Session::new(addr, self.space, options, lane_policy(self.policy, l))
        });
    }

    /// Bumps node `index`'s incarnation: its tenants audit under the
    /// next one from here on, so any overlap with their pre-crash
    /// material counts.
    fn bump_incarnation(&self, index: usize) {
        self.ledger.lock().expect("router ledger").incarnations[index] += 1;
    }

    /// Reconnects to a crash-restarted node: fresh connection, and all
    /// the node's tenants audit under the next incarnation from here
    /// on.
    pub fn reconnect_after_crash(&self, index: usize, addr: SocketAddr) -> io::Result<()> {
        self.bump_incarnation(index);
        self.connect(index, addr)
    }

    /// The crash acknowledgement for proxied topologies, where the
    /// node's *proxy* address is stable across the restart: bumps the
    /// incarnation and drops every lane's (dead) connection. The runner
    /// calls it between barriers, with no lease in flight; a caller
    /// still waiting on a dead connection would find the death itself,
    /// by reading the socket, and fail lease-in-doubt. The next request
    /// to the node redials through the stored address.
    pub fn mark_restarted(&self, index: usize) {
        self.bump_incarnation(index);
        for lane in &self.lanes {
            if let Some(session) = lane.lock().expect("router lane")[index].as_mut() {
                session.disconnect();
            }
        }
    }

    /// The incarnation the router currently attributes to node `index`.
    pub fn incarnation(&self, index: usize) -> u32 {
        self.ledger.lock().expect("router ledger").incarnations[index]
    }

    /// Node `index`'s health as of the last request routed to it: the
    /// longest failure streak among its lanes' sessions.
    pub fn health(&self, index: usize) -> NodeHealth {
        let streak = self
            .lanes
            .iter()
            .filter_map(|lane| {
                lane.lock().expect("router lane")[index]
                    .as_ref()
                    .map(Session::failure_streak)
            })
            .max()
            .unwrap_or(0);
        match streak {
            0 => NodeHealth::Healthy,
            streak if streak < DOWN_AFTER => NodeHealth::Suspect,
            _ => NodeHealth::Down,
        }
    }

    /// The per-fault-class ledger of everything the node sessions
    /// absorbed (all-zero under a clean network).
    pub fn fault_counters(&self) -> FaultCounters {
        let mut faults = self.ledger.lock().expect("router ledger").retired;
        for lane in &self.lanes {
            for session in lane.lock().expect("router lane").iter().flatten() {
                faults.merge(&session.faults());
            }
        }
        faults
    }

    /// Client-side lease latency through this router (includes retry
    /// and backoff time — the latency a caller actually experienced).
    pub fn latency(&self) -> Histogram {
        self.ledger.lock().expect("router ledger").latency.clone()
    }

    /// The slowest leases routed so far, worst first, with their
    /// correlation ids, nodes and the timelines fetched so far.
    pub(crate) fn slow_leases(&self) -> Vec<SlowLease> {
        self.ledger
            .lock()
            .expect("router ledger")
            .tail
            .worst()
            .to_vec()
    }

    /// Routes one lease to the tenant's node over the tenant's lane and
    /// records the granted arcs in both global audits.
    ///
    /// Failures are classified and retried by the lane's [`Session`]
    /// under the installed [`RetryPolicy`] — always against the
    /// tenant's *own* node. There is no cross-node failover, by design:
    /// every node derives the same per-tenant streams from the shared
    /// master seed, so serving a tenant from a second node would
    /// manufacture the exact duplicates this whole system exists to
    /// prevent. A lost reply means the granted IDs leak; a retry gets
    /// fresh ones (leak-not-duplicate, pinned by the global audit).
    pub fn lease(&self, tenant: u64, count: u128) -> io::Result<Vec<Arc>> {
        self.lease_sampled(tenant, count).map(|(arcs, _)| arcs)
    }

    /// [`Router::lease`], also returning the lease's correlation id and
    /// node when the tail sampler admitted it, so the caller can fetch
    /// its span while the node's trace ring still holds it
    /// ([`Router::set_timeline`]).
    pub(crate) fn lease_sampled(
        &self,
        tenant: u64,
        count: u128,
    ) -> io::Result<(Vec<Arc>, Option<Admitted>)> {
        let node = self.node_of(tenant);
        let lane = (tenant % self.lanes.len() as u64) as usize;
        let started_ns = clock::monotonic_ns();
        let (lease, corr) = {
            let mut lane = self.lanes[lane].lock().expect("router lane");
            let session = lane[node].as_mut().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotConnected,
                    format!("router has no address for node {node}"),
                )
            })?;
            session.call(|c| c.lease_with_corr(tenant, count))?
        };
        let latency_ns = clock::monotonic_ns().saturating_sub(started_ns);
        let mut ledger = self.ledger.lock().expect("router ledger");
        ledger.latency.record_ns(latency_ns);
        let admitted = ledger.tail.offer(corr, tenant, node, latency_ns);
        ledger.leases += 1;
        ledger.issued += lease.granted;
        ledger.errors += lease.error.is_some() as u64;
        let owner = owner_key(tenant, ledger.incarnations[node]);
        for &arc in &lease.arcs {
            ledger.audit.record(owner, arc);
            ledger.audit_by_tenant.record(tenant, arc);
        }
        Ok((lease.arcs, admitted.then_some((corr, node))))
    }

    /// Attaches a fetched span timeline to the slow lease `corr`, if
    /// the tail sampler still retains it.
    pub(crate) fn set_timeline(&self, corr: u64, timeline: String) {
        self.ledger
            .lock()
            .expect("router ledger")
            .tail
            .set_timeline(corr, timeline);
    }

    /// Total IDs issued through this router.
    pub fn issued(&self) -> u128 {
        self.ledger.lock().expect("router ledger").issued
    }

    /// Leases routed.
    pub fn leases(&self) -> u64 {
        self.ledger.lock().expect("router ledger").leases
    }

    /// Leases whose grant fell short (generator exhaustion).
    pub fn errors(&self) -> u64 {
        self.ledger.lock().expect("router ledger").errors
    }

    /// The incarnation-keyed global audit counters (restart-aware).
    pub fn global_counts(&self) -> AuditCounts {
        self.ledger.lock().expect("router ledger").audit.counts()
    }

    /// The tenant-keyed global audit counters (restart-blind: genuine
    /// cross-tenant duplicates only).
    pub fn cross_tenant_counts(&self) -> AuditCounts {
        self.ledger
            .lock()
            .expect("router ledger")
            .audit_by_tenant
            .counts()
    }

    /// IDs a tenant re-emitted across its own restarts — the recovery
    /// failure metric, provably `global − cross_tenant` (the owner
    /// refinement argument in the module docs).
    pub fn recovered_duplicate_ids(&self) -> u128 {
        let ledger = self.ledger.lock().expect("router ledger");
        ledger.audit.counts().duplicate_ids - ledger.audit_by_tenant.counts().duplicate_ids
    }

    /// Sends `shutdown` over node `index`'s lane-0 session. The node's
    /// own summary frame is dropped — the caller collects the richer
    /// server-side report via
    /// [`Fleet::join_node`](crate::cluster::Fleet::join_node).
    ///
    /// Like [`Router::lease`], the shutdown runs in a node session, so
    /// it survives a poisoned connection: on failure a fresh connection
    /// is dialed (up to the retry budget) and the run's accounting is
    /// never lost to a fault scheduled mid-teardown.
    pub fn shutdown_node(&self, index: usize) -> io::Result<()> {
        match self.lanes[0].lock().expect("router lane")[index].as_mut() {
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
