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
//! the [`AlgorithmKind`] it was built from, its seed, and the number of
//! IDs it has generated, so every snapshot has a constant size. An
//! instance is a seeded walk along one permutation of `[m]`, so
//! [`restore`] checks the kind against the universe, builds it, spawns
//! the instance and walks it forward by that count with
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
//! assert_eq!(snapshot.kind, AlgorithmKind::Cluster);
//! let mut resumed = restore(space, &snapshot).unwrap();
//! assert_eq!(resumed.next_id().unwrap(), gen.next_id().unwrap());
//! # let _ = a;
//! ```

use serde::{Deserialize, Serialize};

use crate::algorithms::AlgorithmKind;
use crate::id::IdSpace;
use crate::traits::IdGenerator;

/// A serializable snapshot of a running generator: the algorithm it was
/// built from, its seed, and how many IDs it has generated.
///
/// Produced by [`IdGenerator::snapshot`]; consumed by [`restore`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratorState {
    /// The algorithm, with its parameters. Cluster★ with growth 2
    /// reports [`AlgorithmKind::ClusterStar`], however it was spelled.
    pub kind: AlgorithmKind,
    /// The instance's seed.
    pub seed: u64,
    /// IDs emitted so far.
    pub generated: u128,
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

/// Rebuilds a live generator from a snapshot over `space`: checks the
/// kind against `space`, builds it, spawns the instance the seed
/// describes, then walks it forward by `generated` IDs.
///
/// Validation is defensive — snapshots typically come back from disk —
/// so parameters out of range for `space` (the
/// [`check`](AlgorithmKind::check) behind every build), a kind without
/// snapshot support, and a count the walk cannot reach return
/// [`StateError`] instead of panicking.
pub fn restore(space: IdSpace, state: &GeneratorState) -> Result<Box<dyn IdGenerator>, StateError> {
    let (kind, generated) = (&state.kind, state.generated);
    kind.check(space).map_err(StateError)?;
    if generated > space.size() {
        return Err(StateError("generated exceeds the universe".into()));
    }
    let mut generator = kind.build(space).spawn(state.seed);
    if generator.snapshot().is_none() {
        return Err(StateError(format!("{kind:?} has no snapshot support")));
    }
    generator
        .skip(generated)
        .map_err(|e| StateError(format!("the walk cannot reach {generated} IDs: {e}")))?;
    Ok(generator)
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
        use AlgorithmKind::*;
        let state = |kind, generated| GeneratorState {
            kind,
            seed: 1,
            generated,
        };
        let session = |session_bits, counter_bits| SessionCounter {
            session_bits,
            counter_bits,
        };
        let m = IdSpace::new(1 << 10).unwrap();
        let m14 = IdSpace::with_bits(14).unwrap();
        let snowflake = crate::algorithms::SnowflakeConfig {
            timestamp_bits: 4,
            worker_bits: 3,
            sequence_bits: 3,
            requests_per_tick: 4,
            max_skew_ticks: 0,
        };
        #[rustfmt::skip]
        let bad = [
            (m, state(Random, (1 << 10) + 1)),
            (m, state(Cluster, (1 << 10) + 1)),
            (m, state(Bins { k: 1 << 20 }, 0)),
            (m, state(Bins { k: 0 }, 0)),
            (m, state(Bins { k: 16 }, u128::MAX)),
            (m, state(ClusterStarGrowth { growth: 1 }, 0)),
            // Cluster★'s 1024th ID needs a run of 2^10 beside its
            // earlier runs, which never fits in m = 2^10.
            (m, state(ClusterStar, 1 << 10)),
            // The paper's rule opens 7 chunks of 2^6 in 2^10, which
            // serve 2^7 − 1 IDs.
            (m, state(BinsStar, 1 << 7)),
            (IdSpace::new(1).unwrap(), state(BinsStar, 0)),
            (m14, state(session(0, 14), 0)),
            (m14, state(session(14, 0), 0)),
            (m14, state(session(10, 6), 0)),
            (m14, state(session(u32::MAX, 1), 0)),
            (m14, state(session(10, 4), (1 << 14) + 1)),
            // Valid parameters, but no snapshot support.
            (m, state(SetAside { i: 4, j: 20 }, 0)),
            (m, state(Snowflake(snowflake), 0)),
        ];
        for (space, state) in bad {
            assert!(restore(space, &state).is_err(), "{state:?} restored");
        }
        // The largest counts the walks reach still restore.
        #[rustfmt::skip]
        let good = [
            (m, state(Random, 1 << 10)),
            (m, state(Cluster, 1 << 10)),
            (m, state(BinsStar, (1 << 7) - 1)),
            // The max-fit rule opens 8 chunks of 2^7 in 2^10.
            (m, state(BinsStarMaxFit, (1 << 8) - 1)),
            (m14, state(session(10, 4), 1 << 14)),
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
