//! The ID-generation algorithms.
//!
//! Five algorithms from the paper — [`Random`], [`Cluster`], [`Bins`],
//! [`ClusterStar`], [`BinsStar`] — plus the Lemma 24 witness
//! [`SetAside`] and two practical comparators, [`Snowflake`] and
//! [`SessionCounter`]. [`AlgorithmKind`] is the one description of an
//! algorithm: experiments, benches, CLIs and snapshots name and
//! instantiate them by it, and [`AlgorithmKind::check`] is the one check
//! of its parameters against a universe.

pub mod bins;
pub mod bins_star;
pub mod cluster;
pub mod cluster_star;
pub mod random;
pub mod rocksdb_session;
pub mod set_aside;
pub mod snowflake;

pub use bins::{Bins, BinsGenerator};
pub use bins_star::{BinsStar, BinsStarGenerator, BinsStarGeometry, ChunkRule};
pub use cluster::{Cluster, ClusterGenerator};
pub use cluster_star::{ClusterStar, ClusterStarGenerator};
pub use random::{Random, RandomGenerator};
pub use rocksdb_session::{SessionCounter, SessionCounterGenerator};
pub use set_aside::{SetAside, SetAsideGenerator};
pub use snowflake::{Snowflake, SnowflakeConfig, SnowflakeGenerator};

use serde::{Deserialize, Serialize};

use crate::id::IdSpace;
use crate::traits::Algorithm;

/// A serializable description of an algorithm, decoupled from a universe.
///
/// Experiments are parameterized by `(AlgorithmKind, IdSpace)` pairs;
/// [`AlgorithmKind::build`] turns the pair into a live factory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// Uniform permutation of `[m]` (the GUID random part).
    Random,
    /// Random start, sequential IDs (RocksDB; Theorem 1).
    Cluster,
    /// Random permutation of aligned bins of size `k` (Theorem 2).
    Bins {
        /// Bin size, `1 ≤ k ≤ m`.
        k: u128,
    },
    /// Doubling runs placed uniformly among own runs (Theorem 8).
    ClusterStar,
    /// Cluster★ with run growth ×`growth` instead of doubling (the
    /// growth-factor ablation).
    ClusterStarGrowth {
        /// Run-length growth factor, `≥ 2`.
        growth: u32,
    },
    /// One bin per doubling-size chunk (Theorems 9 and 11).
    BinsStar,
    /// Bins★ with the max-fit chunk count instead of the paper formula.
    BinsStarMaxFit,
    /// Lemma 24 construction for the two-instance profile `(i, j)`.
    SetAside {
        /// Head demand `i`.
        i: u128,
        /// Total demand `j` of the heavy instance.
        j: u128,
    },
    /// Timestamp ‖ worker ‖ sequence with a skewed-clock fault model.
    Snowflake(SnowflakeConfig),
    /// Random session prefix + counter (RocksDB PR #8990 / #9126 shape).
    SessionCounter {
        /// Bits of random session prefix.
        session_bits: u32,
        /// Bits of sequential counter.
        counter_bits: u32,
    },
}

impl AlgorithmKind {
    /// Checks every parameter against `space`: bin sizes in `[m]`, a
    /// growth factor of at least 2, a Bins★ universe of at least 2 IDs,
    /// a SetAside head space that fits, and bit layouts whose fields are
    /// nonzero and add up to `log₂ m`. [`build`](Self::build) panics with
    /// its message; the CLI and [`restore`](crate::state::restore) return
    /// it, so no outside input reaches a constructor's asserts.
    pub fn check(&self, space: IdSpace) -> Result<(), String> {
        let m = space.size();
        let (valid, problem) = match *self {
            Self::Random | Self::Cluster | Self::ClusterStar => return Ok(()),
            Self::Bins { k } => (
                k >= 1 && k <= m,
                format!("bin size {k} out of range 1..={m}"),
            ),
            Self::ClusterStarGrowth { growth } => (
                growth >= 2,
                format!("growth factor {growth} must be at least 2"),
            ),
            Self::BinsStar | Self::BinsStarMaxFit => {
                (m >= 2, "Bins* requires a universe of at least 2 IDs".into())
            }
            Self::SetAside { i, j } => (
                i >= 1 && i <= j && j - i < m && m - (j - i) >= i,
                format!("SetAside({i}, {j}) needs 1 <= i <= j and i <= m - (j - i), got {space}"),
            ),
            Self::Snowflake(cfg) if cfg.requests_per_tick == 0 => {
                (false, "Snowflake requests_per_tick must be > 0".into())
            }
            Self::Snowflake(cfg) => {
                let fields = [cfg.timestamp_bits, cfg.worker_bits, cfg.sequence_bits];
                return layout("Snowflake", &fields, space);
            }
            Self::SessionCounter {
                session_bits,
                counter_bits,
            } => return layout("SessionCounter", &[session_bits, counter_bits], space),
        };
        valid.then_some(()).ok_or(problem)
    }

    /// Instantiates the algorithm over `space`.
    ///
    /// # Panics
    ///
    /// Panics with [`check`](Self::check)'s message if the parameters are
    /// invalid for `space`.
    pub fn build(&self, space: IdSpace) -> Box<dyn Algorithm> {
        if let Err(e) = self.check(space) {
            panic!("{e}");
        }
        match *self {
            Self::Random => Box::new(Random::new(space)),
            Self::Cluster => Box::new(Cluster::new(space)),
            Self::Bins { k } => Box::new(Bins::new(space, k)),
            Self::ClusterStar => Box::new(ClusterStar::new(space)),
            Self::ClusterStarGrowth { growth } => Box::new(ClusterStar::with_growth(space, growth)),
            Self::BinsStar => Box::new(BinsStar::new(space)),
            Self::BinsStarMaxFit => Box::new(BinsStar::with_rule(space, ChunkRule::MaxFit)),
            Self::SetAside { i, j } => Box::new(SetAside::new(space, i, j)),
            Self::Snowflake(cfg) => Box::new(Snowflake::new(cfg)),
            Self::SessionCounter {
                session_bits,
                counter_bits,
            } => Box::new(SessionCounter::new(session_bits, counter_bits)),
        }
    }

    /// The algorithms analyzed by the paper, suitable for comparison grids
    /// over an arbitrary universe. `bins_k` selects the Bins parameter.
    pub fn paper_suite(bins_k: u128) -> Vec<AlgorithmKind> {
        vec![
            AlgorithmKind::Random,
            AlgorithmKind::Cluster,
            AlgorithmKind::Bins { k: bins_k },
            AlgorithmKind::ClusterStar,
            AlgorithmKind::BinsStar,
        ]
    }
}

/// Checks that a bit layout's fields are each nonzero and add up to
/// `space`'s width.
fn layout(name: &str, fields: &[u32], space: IdSpace) -> Result<(), String> {
    if fields.contains(&0) {
        return Err(format!("{name} layout {fields:?} has a zero-width field"));
    }
    let bits = fields.iter().try_fold(0u32, |sum, &f| sum.checked_add(f));
    match bits.filter(|&bits| bits <= 127) {
        None => Err(format!("{name} layout {fields:?} exceeds 127 bits")),
        Some(bits) if space.size() != 1 << bits => {
            Err(format!("{name} layout implies m = 2^{bits}, got {space}"))
        }
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_working_factories() {
        let space = IdSpace::new(1 << 16).unwrap();
        let kinds = [
            AlgorithmKind::Random,
            AlgorithmKind::Cluster,
            AlgorithmKind::Bins { k: 16 },
            AlgorithmKind::ClusterStar,
            AlgorithmKind::ClusterStarGrowth { growth: 4 },
            AlgorithmKind::BinsStar,
            AlgorithmKind::BinsStarMaxFit,
            AlgorithmKind::SetAside { i: 4, j: 20 },
        ];
        for kind in kinds {
            let alg = kind.build(space);
            let mut g = alg.spawn(1);
            let id = g.next_id().unwrap();
            assert!(space.contains(id), "{}: ID out of space", alg.name());
        }
    }

    #[test]
    fn bit_layout_algorithms_check_space() {
        let cfg = SnowflakeConfig {
            timestamp_bits: 10,
            worker_bits: 5,
            sequence_bits: 5,
            requests_per_tick: 4,
            max_skew_ticks: 0,
        };
        let space = IdSpace::with_bits(20).unwrap();
        let alg = AlgorithmKind::Snowflake(cfg).build(space);
        assert_eq!(alg.space(), space);

        let alg = AlgorithmKind::SessionCounter {
            session_bits: 12,
            counter_bits: 8,
        }
        .build(space);
        assert_eq!(alg.space(), space);
    }

    #[test]
    #[should_panic(expected = "Snowflake layout")]
    fn mismatched_snowflake_space_panics() {
        let cfg = SnowflakeConfig {
            timestamp_bits: 10,
            worker_bits: 5,
            sequence_bits: 5,
            requests_per_tick: 4,
            max_skew_ticks: 0,
        };
        AlgorithmKind::Snowflake(cfg).build(IdSpace::with_bits(21).unwrap());
    }

    #[test]
    fn paper_suite_contains_all_five() {
        let suite = AlgorithmKind::paper_suite(8);
        assert_eq!(suite.len(), 5);
        let space = IdSpace::new(1 << 12).unwrap();
        let names: Vec<String> = suite.iter().map(|k| k.build(space).name()).collect();
        assert_eq!(names, ["random", "cluster", "bins(8)", "cluster*", "bins*"]);
    }

    #[test]
    fn names_are_stable() {
        let space = IdSpace::new(1 << 10).unwrap();
        assert_eq!(AlgorithmKind::Cluster.build(space).name(), "cluster");
        assert_eq!(
            AlgorithmKind::SetAside { i: 1, j: 9 }.build(space).name(),
            "set-aside(1, 9)"
        );
        assert_eq!(
            AlgorithmKind::ClusterStarGrowth { growth: 3 }
                .build(space)
                .name(),
            "cluster*(x3)"
        );
    }

    #[test]
    fn growth_registry_entry_matches_the_direct_constructor() {
        // The ablation entry must spawn generators bit-identical to
        // ClusterStar::with_growth — same stream, same exhaustion.
        let space = IdSpace::new(1 << 12).unwrap();
        let registry = AlgorithmKind::ClusterStarGrowth { growth: 4 }.build(space);
        let direct = ClusterStar::with_growth(space, 4);
        let mut a = registry.spawn(77);
        let mut b = direct.spawn(77);
        for i in 0..2000 {
            match (a.next_id(), b.next_id()) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "diverged at ID {i}"),
                (Err(_), Err(_)) => break,
                (x, y) => panic!("exhaustion diverged at {i}: {x:?} vs {y:?}"),
            }
        }
    }
}
