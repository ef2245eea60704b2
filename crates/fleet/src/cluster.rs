//! Fleet topology: booting, crashing, and restarting loopback nodes.
//!
//! A [`Fleet`] owns `N` independent [`TcpServer`] nodes, each a full
//! `uuidp-service` instance (its own shards, reactors, audit pipeline, and
//! TCP front-end on an ephemeral loopback port). Durable nodes keep
//! their state under the fleet's root, one directory per node; volatile
//! nodes keep none and cannot restart. Nodes share nothing at runtime —
//! the only cross-node artifact is the *seed convention*: every node
//! uses the same master seed, so a tenant's ID stream depends only on
//! its tenant number, never on which node serves it. That is what lets
//! the global audit pin bit-identical totals across node counts
//! (tenants are pinned to nodes, so no tenant is ever served by two
//! nodes in one run).
//!
//! [`Fleet::crash`] is the chaos lever: it pulls the node down via
//! [`TcpServer::halt`] and **discards** the node's in-memory state —
//! its final generator positions and its node-local audit die with it,
//! exactly as in a power cut. What survives is what the durability
//! layer persisted write-ahead; [`Fleet::restart`] boots a successor
//! on a fresh port that recovers every tenant from those records.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use uuidp_obs::{Registry, TraceRecorder};
use uuidp_service::net::TcpServer;
use uuidp_service::service::{DurabilityConfig, ServiceConfig, ServiceReport};

/// One node of the fleet: a service + TCP front-end.
pub struct FleetNode {
    index: usize,
    addr: SocketAddr,
    server: Option<TcpServer>,
    incarnation: u32,
}

impl FleetNode {
    /// The node's position in the fleet (stable across restarts).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The node's current listen address (changes on restart).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many times this node has been crash-restarted.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Whether the node is currently serving.
    pub fn is_up(&self) -> bool {
        self.server.is_some()
    }

    /// The live incarnation's metric registry, if the node is up.
    /// Crash-restarts boot a fresh registry: in-memory counters die in
    /// the power cut with everything else, so handles must be re-taken
    /// after [`Fleet::restart`].
    pub fn registry(&self) -> Option<Arc<Registry>> {
        self.server.as_ref().map(TcpServer::registry)
    }

    /// The live incarnation's trace recorder, if the node is up (same
    /// restart caveat as [`FleetNode::registry`]).
    pub fn trace(&self) -> Option<Arc<TraceRecorder>> {
        self.server.as_ref().map(TcpServer::trace)
    }
}

/// A running fleet of loopback nodes.
pub struct Fleet {
    template: ServiceConfig,
    /// The state root and write-ahead reservation window of durable
    /// nodes; `None` for volatile ones.
    durable: Option<(PathBuf, u128)>,
    nodes: Vec<FleetNode>,
}

impl Fleet {
    /// Boots `nodes ≥ 1` durable nodes from the shared `template`
    /// configuration, each with its state under `state_dir/node-<i>`
    /// and the given write-ahead reservation window. Any `durability`
    /// already present on the template is replaced by the per-node
    /// configuration.
    pub fn launch(
        template: ServiceConfig,
        nodes: usize,
        state_dir: &Path,
        reservation: u128,
    ) -> io::Result<Fleet> {
        Fleet::boot(template, nodes, Some((state_dir, reservation)))
    }

    /// Boots `nodes ≥ 1` nodes from `template`: durable ones as
    /// [`Fleet::launch`] does when `durable` names a state root and a
    /// reservation window, volatile ones (no state, no restarts) when
    /// it is `None`.
    pub(crate) fn boot(
        template: ServiceConfig,
        nodes: usize,
        durable: Option<(&Path, u128)>,
    ) -> io::Result<Fleet> {
        assert!(nodes >= 1, "a fleet needs at least one node");
        let mut fleet = Fleet {
            template,
            durable: durable.map(|(dir, reservation)| (dir.to_path_buf(), reservation)),
            nodes: Vec::with_capacity(nodes),
        };
        for index in 0..nodes {
            let server = TcpServer::bind("127.0.0.1:0", fleet.node_config(index))?;
            fleet.nodes.push(FleetNode {
                index,
                addr: server.local_addr(),
                server: Some(server),
                incarnation: 0,
            });
        }
        Ok(fleet)
    }

    fn node_config(&self, index: usize) -> ServiceConfig {
        let mut config = self.template.clone();
        config.durability = self
            .durable
            .as_ref()
            .map(|(dir, reservation)| DurabilityConfig {
                dir: dir.join(format!("node-{index}")),
                reservation: *reservation,
                sync: false,
                halt_after_persists: None,
            });
        config
    }

    /// Number of nodes (up or down).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes, for inspection.
    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    /// The current address of node `index`.
    pub fn addr(&self, index: usize) -> SocketAddr {
        self.nodes[index].addr
    }

    /// Crash node `index`: sever its connections, tear it down, and
    /// throw away everything it only held in memory. Returns what the
    /// node would have reported — callers modelling a true power cut
    /// should ignore it (the fleet runner does); it is surfaced for
    /// tests that want to inspect the lost state.
    pub fn crash(&mut self, index: usize) -> Option<ServiceReport> {
        let node = &mut self.nodes[index];
        node.server.take().and_then(TcpServer::halt)
    }

    /// Boots a fresh incarnation of a crashed durable node on a new
    /// ephemeral port. Boot reads the shard slot files in the node's
    /// state directory and, before the node serves anything, restores every
    /// tenant from its newest write-ahead record, advanced past the
    /// abandoned reservation window. Only durable nodes restart: with
    /// no records a volatile node's tenants would start over and
    /// re-issue their IDs.
    pub fn restart(&mut self, index: usize) -> io::Result<SocketAddr> {
        assert!(
            self.nodes[index].server.is_none(),
            "node {index} is still up; crash it first"
        );
        assert!(
            self.durable.is_some(),
            "node {index} is volatile; a restart would re-issue its IDs"
        );
        let server = TcpServer::bind("127.0.0.1:0", self.node_config(index))?;
        let node = &mut self.nodes[index];
        node.addr = server.local_addr();
        node.server = Some(server);
        node.incarnation += 1;
        Ok(node.addr)
    }

    /// [`crash`](Self::crash) + [`restart`](Self::restart) in one step,
    /// returning the successor's address.
    pub fn crash_restart(&mut self, index: usize) -> io::Result<SocketAddr> {
        self.crash(index);
        self.restart(index)
    }

    /// Collects node `index`'s server-side shutdown report after a
    /// client-initiated `shutdown` command, joining its threads.
    /// Returns `None` if the node is down or never received one.
    pub fn join_node(&mut self, index: usize) -> Option<ServiceReport> {
        self.nodes[index].server.take().and_then(TcpServer::join)
    }

    /// Crashes every node that is still up (end-of-run teardown for
    /// aborted runs; normal runs shut nodes down via the protocol).
    pub fn teardown(&mut self) {
        for index in 0..self.nodes.len() {
            self.crash(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_client::Client;
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_core::id::IdSpace;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "uuidp-fleet-cluster-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn template(bits: u32) -> ServiceConfig {
        ServiceConfig::new(AlgorithmKind::Cluster, IdSpace::with_bits(bits).unwrap())
    }

    #[test]
    fn launch_boots_distinct_nodes_with_own_state_dirs() {
        let dir = temp_dir("launch");
        let mut fleet = Fleet::launch(template(40), 3, &dir, 256).unwrap();
        assert_eq!(fleet.node_count(), 3);
        let addrs: Vec<_> = (0..3).map(|i| fleet.addr(i)).collect();
        assert!(addrs.windows(2).all(|w| w[0] != w[1]), "ports must differ");
        assert!(fleet.nodes().iter().all(|n| n.is_up()));
        // Serving creates the per-node snapshot layout: tenant 7 lives
        // in shard 1 of 2 (7 % 2), which writes its own slot file.
        let space = IdSpace::with_bits(40).unwrap();
        let client = Client::connect(fleet.addr(1), space).unwrap();
        assert_eq!(client.lease(7, 10).unwrap().granted, 10);
        client.drain().unwrap();
        assert!(dir
            .join("node-1")
            .join("shard-1")
            .join("snapshots.slots")
            .is_file());
        fleet.teardown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_restart_recovers_past_everything_emitted() {
        let dir = temp_dir("recover");
        let mut fleet = Fleet::launch(template(24), 1, &dir, 64).unwrap();
        let space = IdSpace::with_bits(24).unwrap();
        let client = Client::connect(fleet.addr(0), space).unwrap();
        let first = client.lease(3, 100).unwrap();
        assert_eq!(fleet.nodes()[0].incarnation(), 0);

        let lost = fleet.crash(0);
        assert!(lost.is_some(), "halt yields the (discarded) report");
        assert!(!fleet.nodes()[0].is_up());
        let addr = fleet.restart(0).unwrap();
        assert_eq!(fleet.nodes()[0].incarnation(), 1);

        let client2 = Client::connect(addr, space).unwrap();
        let second = client2.lease(3, 100).unwrap();
        // The recovered tenant continues its own permutation strictly
        // after the abandoned window: no arc overlap with the pre-crash
        // lease (Cluster arcs are contiguous, so compare coverage).
        let covered: Vec<(u128, u128)> = first
            .arcs
            .iter()
            .map(|a| (a.start.value(), a.start.value() + a.len))
            .collect();
        for arc in &second.arcs {
            let (lo, hi) = (arc.start.value(), arc.start.value() + arc.len);
            for &(flo, fhi) in &covered {
                assert!(hi <= flo || lo >= fhi, "recovered lease overlaps pre-crash");
            }
        }
        client2.shutdown().unwrap();
        assert!(fleet.join_node(0).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
