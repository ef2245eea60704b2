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
//! the algorithm's parameters, the seed, and the number of IDs it has
//! generated, so every snapshot has a constant size. An instance is a
//! seeded walk along one permutation of `[m]`, so [`restore`] spawns
//! the same instance and walks it forward by that count with
//! [`skip`](IdGenerator::skip): O(1) for Random, Cluster and Bins(k),
//! O(runs, bins or sessions opened) for Cluster★, Bins★ and
//! SessionCounter.
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
    BinsGenerator, BinsStarGenerator, BinsStarGeometry, ClusterGenerator, ClusterStarGenerator,
    RandomGenerator, SessionCounterGenerator,
};
use crate::id::IdSpace;
use crate::traits::IdGenerator;

/// A serializable snapshot of a running generator: its algorithm's
/// parameters, its seed, and how many IDs it has generated.
///
/// Produced by [`IdGenerator::snapshot`]; consumed by [`restore`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeneratorState {
    /// Random.
    Random {
        /// Seed of the keyed permutation of `[m]`.
        seed: u64,
        /// IDs emitted so far.
        generated: u128,
    },
    /// Cluster.
    Cluster {
        /// Seed the random start is drawn from.
        seed: u64,
        /// IDs emitted so far.
        generated: u128,
    },
    /// Bins(k).
    Bins {
        /// Bin size.
        k: u128,
        /// Seed of the keyed permutation of the bins.
        seed: u64,
        /// IDs emitted so far.
        generated: u128,
    },
    /// Cluster★.
    ClusterStar {
        /// Run growth factor.
        growth: u32,
        /// Seed of the run placements.
        seed: u64,
        /// IDs emitted so far.
        generated: u128,
    },
    /// Bins★.
    BinsStar {
        /// Chunk count C.
        chunks: u32,
        /// Seed of the bin choices.
        seed: u64,
        /// IDs emitted so far.
        generated: u128,
    },
    /// SessionCounter.
    SessionCounter {
        /// Session-prefix width.
        session_bits: u32,
        /// Counter width.
        counter_bits: u32,
        /// Seed of the session draws.
        seed: u64,
        /// IDs emitted so far.
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

/// Rebuilds a live generator from a snapshot over `space`: spawns the
/// instance the parameters and seed describe, then walks it forward by
/// `generated` IDs.
///
/// Validation is defensive — snapshots typically come back from disk —
/// so parameters out of range for `space`, and a count the walk cannot
/// reach, return [`StateError`] instead of panicking.
pub fn restore(space: IdSpace, state: &GeneratorState) -> Result<Box<dyn IdGenerator>, StateError> {
    let m = space.size();
    let (mut generator, generated): (Box<dyn IdGenerator>, u128) = match *state {
        GeneratorState::Random { seed, generated } => {
            (Box::new(RandomGenerator::new(space, seed)), generated)
        }
        GeneratorState::Cluster { seed, generated } => {
            (Box::new(ClusterGenerator::new(space, seed)), generated)
        }
        GeneratorState::Bins { k, seed, generated } => {
            check(k >= 1 && k <= m, "bin size out of range")?;
            (Box::new(BinsGenerator::new(space, k, seed)), generated)
        }
        GeneratorState::ClusterStar {
            growth,
            seed,
            generated,
        } => {
            check(growth >= 2, "growth factor below 2")?;
            let g = ClusterStarGenerator::with_growth(space, growth, seed);
            (Box::new(g), generated)
        }
        GeneratorState::BinsStar {
            chunks,
            seed,
            generated,
        } => {
            let geometry = BinsStarGeometry::with_chunks(space, chunks)
                .ok_or_else(|| StateError("chunk layout does not fit the universe".into()))?;
            let g = BinsStarGenerator::with_geometry(space, geometry, seed);
            (Box::new(g), generated)
        }
        GeneratorState::SessionCounter {
            session_bits,
            counter_bits,
            seed,
            generated,
        } => {
            let bits = session_bits.saturating_add(counter_bits);
            check(
                session_bits > 0 && counter_bits > 0 && bits <= 127 && m == 1 << bits,
                "bit layout inconsistent with the universe",
            )?;
            let g = SessionCounterGenerator::new(session_bits, counter_bits, seed);
            (Box::new(g), generated)
        }
    };
    check(generated <= m, "generated exceeds the universe")?;
    generator
        .skip(generated)
        .map_err(|e| StateError(format!("the walk cannot reach {generated} IDs: {e}")))?;
    Ok(generator)
}

fn check(cond: bool, msg: &str) -> Result<(), StateError> {
    if cond {
        Ok(())
    } else {
        Err(StateError(msg.to_string()))
    }
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
        use GeneratorState::*;
        let m = IdSpace::new(1 << 10).unwrap();
        let m14 = IdSpace::with_bits(14).unwrap();
        #[rustfmt::skip]
        let bad = [
            (m, Random { seed: 1, generated: (1 << 10) + 1 }),
            (m, Cluster { seed: 1, generated: (1 << 10) + 1 }),
            (m, Bins { k: 1 << 20, seed: 1, generated: 0 }),
            (m, Bins { k: 0, seed: 1, generated: 0 }),
            (m, Bins { k: 16, seed: 1, generated: u128::MAX }),
            (m, ClusterStar { growth: 1, seed: 1, generated: 0 }),
            // Cluster★'s 1024th ID needs a run of 2^10 beside its
            // earlier runs, which never fits in m = 2^10.
            (m, ClusterStar { growth: 2, seed: 1, generated: 1 << 10 }),
            (m, BinsStar { chunks: 0, seed: 1, generated: 0 }),
            (m, BinsStar { chunks: 9, seed: 1, generated: 0 }),
            // 7 chunks of 2^6 fit in 2^10 and serve 2^7 − 1 IDs.
            (m, BinsStar { chunks: 7, seed: 1, generated: 1 << 7 }),
            (m14, SessionCounter { session_bits: 0, counter_bits: 14, seed: 1, generated: 0 }),
            (m14, SessionCounter { session_bits: 10, counter_bits: 6, seed: 1, generated: 0 }),
            (m14, SessionCounter { session_bits: 10, counter_bits: 4, seed: 1, generated: (1 << 14) + 1 }),
        ];
        for (space, state) in bad {
            assert!(restore(space, &state).is_err(), "{state:?} restored");
        }
        // The largest counts the walks reach still restore.
        #[rustfmt::skip]
        let good = [
            (m, Random { seed: 1, generated: 1 << 10 }),
            (m, Cluster { seed: 1, generated: 1 << 10 }),
            (m, BinsStar { chunks: 7, seed: 1, generated: (1 << 7) - 1 }),
            (m14, SessionCounter { session_bits: 10, counter_bits: 4, seed: 1, generated: 1 << 14 }),
        ];
        for (space, state) in good {
            assert!(restore(space, &state).is_ok(), "{state:?} refused");
        }
    }

    #[test]
    fn state_error_formats() {
        let e = StateError("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
