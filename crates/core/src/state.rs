//! Generator state persistence: snapshot, serialize, resume.
//!
//! A database embedding these algorithms must survive process restarts
//! without ever reusing an ID. Two strategies exist:
//!
//! 1. **Fresh instance per process lifetime** — what RocksDB's session
//!    scheme does: a restart spawns a brand-new generator with fresh
//!    randomness. Safe (the restarted process is just "one more
//!    uncoordinated instance"), but each restart adds to the effective
//!    `n`, and with it the collision exposure.
//! 2. **Exact resume** — persist the generator state in the manifest and
//!    continue the *same* permutation after restart. The effective `n`
//!    never grows; this module provides it.
//!
//! [`GeneratorState`] is a plain serde-serializable value capturing
//! everything a generator needs to continue exactly where it stopped:
//! its seed or RNG state, its structural position, and whatever of its
//! footprint the position does not determine. Random and Bins(k) are a
//! seed plus counters, since their streams are a
//! [keyed permutation](crate::permute) evaluated at a counter; Cluster
//! is a start plus a counter; Cluster★, Bins★ and SessionCounter keep
//! the runs, bins or sessions they have opened.
//!
//! ```
//! use uuidp_core::prelude::*;
//! use uuidp_core::state::restore;
//!
//! let space = IdSpace::with_bits(64).unwrap();
//! let algorithm = Cluster::new(space);
//! let mut gen = algorithm.spawn(42);
//! let a = gen.next_id().unwrap();
//!
//! // ... process crashes; the snapshot was persisted earlier ...
//! let snapshot = gen.snapshot().expect("cluster supports snapshots");
//! let mut resumed = restore(space, &snapshot).unwrap();
//! assert_eq!(resumed.next_id().unwrap(), gen.next_id().unwrap());
//! # let _ = a;
//! ```

use serde::{Deserialize, Serialize};

use crate::algorithms::{
    BinsGenerator, BinsStarGenerator, ClusterGenerator, ClusterStarGenerator, RandomGenerator,
    SessionCounterGenerator,
};
use crate::id::IdSpace;
use crate::traits::IdGenerator;

/// A serializable snapshot of a running generator.
///
/// Produced by [`IdGenerator::snapshot`]; consumed by [`restore`]. The
/// variants mirror the algorithms; all interval data is stored as
/// normalized `[lo, hi)` segments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeneratorState {
    /// Random: the permutation's seed and how far it has been revealed.
    Random {
        /// Seed of the keyed permutation of `[m]`.
        seed: u64,
        /// IDs drawn: positions `0..drawn` of the permutation.
        drawn: u128,
    },
    /// Cluster: fully determined by the start and the count.
    Cluster {
        /// The random starting ID `x`.
        start: u128,
        /// IDs emitted so far.
        generated: u128,
    },
    /// Bins(k): the bin order's seed and how far the stream has gone.
    Bins {
        /// Bin size.
        k: u128,
        /// Seed of the keyed permutation of the bins.
        seed: u64,
        /// Total IDs emitted.
        generated: u128,
    },
    /// Cluster★.
    ClusterStar {
        /// xoshiro256++ state.
        rng: [u64; 4],
        /// Run growth factor.
        growth: u32,
        /// Length of the next run to open.
        next_len: u128,
        /// Opened runs as (start, len), in opening order.
        runs: Vec<(u128, u128)>,
        /// IDs used from the currently open (= last) run.
        current_used: Option<u128>,
        /// Total IDs emitted.
        generated: u128,
    },
    /// Bins★.
    BinsStar {
        /// xoshiro256++ state.
        rng: [u64; 4],
        /// Chunk count C.
        chunks: u32,
        /// IDs per chunk.
        chunk_size: u128,
        /// 1-based index of the next chunk to open.
        next_chunk: u32,
        /// Chosen bins as (start, len), in choice order.
        bins: Vec<(u128, u128)>,
        /// IDs used from the currently open (= last) bin.
        current_used: Option<u128>,
        /// Total IDs emitted.
        generated: u128,
    },
    /// SessionCounter.
    SessionCounter {
        /// xoshiro256++ state.
        rng: [u64; 4],
        /// Session-prefix width.
        session_bits: u32,
        /// Counter width.
        counter_bits: u32,
        /// Session prefixes already used (sorted).
        used_sessions: Vec<u128>,
        /// The open session prefix, if any.
        current_session: Option<u128>,
        /// Counter position within the open session.
        counter: u128,
        /// Total IDs emitted.
        generated: u128,
    },
}

/// Error restoring a [`GeneratorState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(pub String);

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid generator state: {}", self.0)
    }
}

impl std::error::Error for StateError {}

/// Rebuilds a live generator from a snapshot over `space`.
///
/// Validation is defensive — snapshots typically come back from disk —
/// so structurally impossible states return [`StateError`] instead of
/// panicking.
pub fn restore(space: IdSpace, state: &GeneratorState) -> Result<Box<dyn IdGenerator>, StateError> {
    Ok(match state {
        GeneratorState::Random { .. } => Box::new(RandomGenerator::from_state(space, state)?),
        GeneratorState::Cluster { .. } => Box::new(ClusterGenerator::from_state(space, state)?),
        GeneratorState::Bins { .. } => Box::new(BinsGenerator::from_state(space, state)?),
        GeneratorState::ClusterStar { .. } => {
            Box::new(ClusterStarGenerator::from_state(space, state)?)
        }
        GeneratorState::BinsStar { .. } => Box::new(BinsStarGenerator::from_state(space, state)?),
        GeneratorState::SessionCounter { .. } => {
            Box::new(SessionCounterGenerator::from_state(space, state)?)
        }
    })
}

pub(crate) fn check(cond: bool, msg: &str) -> Result<(), StateError> {
    if cond {
        Ok(())
    } else {
        Err(StateError(msg.to_string()))
    }
}

pub(crate) fn rng_from(state: [u64; 4]) -> Result<crate::rng::Xoshiro256pp, StateError> {
    check(state.iter().any(|&w| w != 0), "all-zero RNG state")?;
    Ok(crate::rng::Xoshiro256pp::from_state(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgorithmKind;
    use crate::traits::Algorithm;

    fn suite(space: IdSpace) -> Vec<Box<dyn Algorithm>> {
        vec![
            AlgorithmKind::Random.build(space),
            AlgorithmKind::Cluster.build(space),
            AlgorithmKind::Bins { k: 16 }.build(space),
            AlgorithmKind::ClusterStar.build(space),
            AlgorithmKind::BinsStar.build(space),
        ]
    }

    #[test]
    fn snapshot_resume_continues_the_exact_stream() {
        let space = IdSpace::new(1 << 16).unwrap();
        for alg in suite(space) {
            let mut original = alg.spawn(42);
            for _ in 0..50 {
                original.next_id().unwrap();
            }
            let snap = original
                .snapshot()
                .unwrap_or_else(|| panic!("{} must support snapshots", alg.name()));
            let mut resumed = restore(space, &snap).unwrap();
            assert_eq!(resumed.generated(), original.generated(), "{}", alg.name());
            for step in 0..200 {
                assert_eq!(
                    resumed.next_id().unwrap(),
                    original.next_id().unwrap(),
                    "{} diverged at step {step}",
                    alg.name()
                );
            }
        }
    }

    #[test]
    fn snapshot_preserves_footprints() {
        let space = IdSpace::new(1 << 14).unwrap();
        for alg in suite(space) {
            let mut original = alg.spawn(7);
            for _ in 0..60 {
                original.next_id().unwrap();
            }
            let snap = original.snapshot().unwrap();
            let mut resumed = restore(space, &snap).unwrap();
            assert_eq!(
                resumed.footprint().measure(),
                original.footprint().measure(),
                "{}",
                alg.name()
            );
        }
    }

    #[test]
    fn snapshot_at_zero_is_a_fresh_start() {
        let space = IdSpace::new(1 << 12).unwrap();
        for alg in suite(space) {
            let original = alg.spawn(3);
            let snap = original.snapshot().unwrap();
            let mut resumed = restore(space, &snap).unwrap();
            let mut fresh = alg.spawn(3);
            for _ in 0..20 {
                assert_eq!(resumed.next_id().unwrap(), fresh.next_id().unwrap());
            }
        }
    }

    #[test]
    fn session_counter_snapshots_roundtrip() {
        let alg = AlgorithmKind::SessionCounter {
            session_bits: 10,
            counter_bits: 4,
        }
        .build(IdSpace::with_bits(14).unwrap());
        let mut original = alg.spawn(5);
        for _ in 0..40 {
            original.next_id().unwrap();
        }
        let snap = original.snapshot().unwrap();
        let mut resumed = restore(alg.space(), &snap).unwrap();
        for _ in 0..40 {
            assert_eq!(resumed.next_id().unwrap(), original.next_id().unwrap());
        }
    }

    #[test]
    fn corrupt_states_are_rejected_not_panicked() {
        let space = IdSpace::new(1 << 10).unwrap();
        // Cluster start outside the universe.
        let bad = GeneratorState::Cluster {
            start: 1 << 20,
            generated: 0,
        };
        assert!(restore(space, &bad).is_err());
        // Random drawn past the universe.
        let bad = GeneratorState::Random {
            seed: 1,
            drawn: (1 << 10) + 1,
        };
        assert!(restore(space, &bad).is_err());
        // Bins bin size out of range.
        let bad = GeneratorState::Bins {
            k: 1 << 20,
            seed: 1,
            generated: 0,
        };
        assert!(restore(space, &bad).is_err());
    }

    #[test]
    fn state_error_formats() {
        let e = StateError("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
