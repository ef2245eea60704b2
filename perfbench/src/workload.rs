//! The four workloads and their seed-generated request sequences.

use std::path::Path;

use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::id::IdSpace;
use uuidp_core::rng::{uniform_below, Xoshiro256pp};
use uuidp_service::service::{DurabilityConfig, ServiceConfig};

/// Pairs in a generated request sequence; runs cycle through it.
pub const SEQUENCE_LEN: usize = 1 << 16;

/// Write-ahead reservation of the durable fleet: equal to its lease
/// count, so every lease persists before it is served.
pub const FLEET_RESERVATION: u128 = 64;

/// Nodes of the durable fleet.
pub const FLEET_NODES: usize = 2;

/// Instances and per-instance demand of the Monte-Carlo profile.
pub const MC_INSTANCES: usize = 16;
pub const MC_DEMAND: u128 = 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// v2 leases of 1..=64 IDs from two threads sharing one connection.
    LeaseSmallMux,
    /// In-process 256-ID Random leases, clocked until the audit catches up.
    IssueBulkInproc,
    /// Router leases into a two-node durable fleet, one persist per lease.
    LeaseDurableFleet,
    /// The paper's oblivious Monte-Carlo estimate.
    MontecarloOblivious,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LeaseSmallMux,
        Workload::IssueBulkInproc,
        Workload::LeaseDurableFleet,
        Workload::MontecarloOblivious,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaseSmallMux => "lease_small_mux",
            Workload::IssueBulkInproc => "issue_bulk_inproc",
            Workload::LeaseDurableFleet => "lease_durable_fleet",
            Workload::MontecarloOblivious => "montecarlo_oblivious",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The algorithm every tenant (or Monte-Carlo instance) runs.
    pub fn kind(self) -> AlgorithmKind {
        match self {
            Workload::LeaseSmallMux | Workload::MontecarloOblivious => AlgorithmKind::ClusterStar,
            Workload::IssueBulkInproc => AlgorithmKind::Random,
            Workload::LeaseDurableFleet => AlgorithmKind::Cluster,
        }
    }

    /// The ID universe.
    pub fn space(self) -> IdSpace {
        let bits = match self {
            Workload::LeaseSmallMux | Workload::LeaseDurableFleet => 48,
            Workload::IssueBulkInproc => 64,
            Workload::MontecarloOblivious => 24,
        };
        IdSpace::with_bits(bits).expect("valid universe")
    }

    /// Tenants drawn uniformly per request.
    pub fn tenants(self) -> u64 {
        match self {
            Workload::LeaseSmallMux | Workload::IssueBulkInproc => 256,
            Workload::LeaseDurableFleet => 64,
            Workload::MontecarloOblivious => MC_INSTANCES as u64,
        }
    }

    /// Inclusive range of the per-request count.
    pub fn counts(self) -> (u128, u128) {
        match self {
            Workload::LeaseSmallMux => (1, 64),
            Workload::IssueBulkInproc => (256, 256),
            Workload::LeaseDurableFleet => (64, 64),
            Workload::MontecarloOblivious => (MC_DEMAND, MC_DEMAND),
        }
    }

    /// Caller threads of the closed loop (the router is single-threaded).
    pub fn callers(self) -> usize {
        match self {
            Workload::LeaseDurableFleet => 1,
            _ => 2,
        }
    }

    /// The service configuration: defaults, plus durability rooted at
    /// `state_dir` for the fleet workload, as `Fleet` configures nodes.
    pub fn service_config(self, state_dir: &Path) -> ServiceConfig {
        let mut config = ServiceConfig::new(self.kind(), self.space());
        if self == Workload::LeaseDurableFleet {
            let mut durability = DurabilityConfig::new(state_dir);
            durability.reservation = FLEET_RESERVATION;
            config.durability = Some(durability);
        }
        config
    }
}

/// The seed's request sequence: `SEQUENCE_LEN` `(tenant, count)` pairs,
/// tenant and count each uniform over the workload's ranges.
pub fn sequence(workload: Workload, seed: u64) -> Vec<(u64, u128)> {
    let mut rng = Xoshiro256pp::new(seed);
    let (lo, hi) = workload.counts();
    (0..SEQUENCE_LEN)
        .map(|_| {
            let tenant = uniform_below(&mut rng, workload.tenants() as u128) as u64;
            let count = lo + uniform_below(&mut rng, hi - lo + 1);
            (tenant, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        for w in Workload::ALL {
            assert_eq!(sequence(w, 7), sequence(w, 7), "{}", w.name());
        }
        assert_ne!(
            sequence(Workload::LeaseSmallMux, 7),
            sequence(Workload::LeaseSmallMux, 8)
        );
    }

    #[test]
    fn sequences_stay_in_the_declared_ranges() {
        for w in Workload::ALL {
            let (lo, hi) = w.counts();
            let seq = sequence(w, 1);
            assert_eq!(seq.len(), SEQUENCE_LEN);
            assert!(seq
                .iter()
                .all(|&(t, c)| t < w.tenants() && (lo..=hi).contains(&c)));
        }
        // Small-lease counts actually span 1..=64.
        let seq = sequence(Workload::LeaseSmallMux, 1);
        assert!(seq.iter().any(|&(_, c)| c == 1) && seq.iter().any(|&(_, c)| c == 64));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
