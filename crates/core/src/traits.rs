//! Core abstractions: ID generators, their footprints, and algorithm
//! factories.
//!
//! The paper models an ID-generation algorithm `A` as a distribution over
//! permutations of `[m]`; an *instance* of `A` reveals that permutation one
//! ID at a time, on request, without knowing how many requests will come.
//! [`IdGenerator`] is exactly that interface. [`Algorithm`] is the factory
//! that spawns independent instances (independent randomness, no
//! communication — the factory hands each instance nothing but a seed).

use std::fmt;

use crate::id::{Id, IdSpace};
use crate::interval::{Arc, IntervalSet};

/// Error conditions an instance can hit while generating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeneratorError {
    /// The instance cannot produce another ID under its rules.
    ///
    /// For Random/Cluster this happens only after all `m` IDs are emitted.
    /// Bins(k) runs out after all bins and leftovers are used. Cluster★ can
    /// fail earlier if its own reserved runs fragment the space so much that
    /// no gap fits the next run (the paper sidesteps this by restricting
    /// demand to `m / (2 log m)` per instance; we surface it as an error).
    /// Bins★ is exhausted after its last chunk's bin (the paper's Theorem 9
    /// likewise only covers demand below `m / log m`).
    Exhausted {
        /// Number of IDs successfully generated before exhaustion.
        generated: u128,
    },
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::Exhausted { generated } => {
                write!(f, "instance exhausted after generating {generated} IDs")
            }
        }
    }
}

impl std::error::Error for GeneratorError {}

/// The exact set of IDs an instance has emitted so far, in whichever
/// representation is compact for its algorithm.
///
/// Collision detection between instances only needs set intersection, so
/// exposing the emitted set symbolically lets the simulator check collisions
/// in time proportional to the number of *arcs*, not the number of IDs —
/// the difference between simulating `d = 2^40` and not.
#[derive(Debug)]
pub enum Footprint<'a> {
    /// Individual IDs, in emission order. Used by Random-like algorithms
    /// whose outputs have no arc structure.
    Points(&'a [Id]),
    /// A set of arcs. Used by Cluster, Bins(k), Cluster★, Bins★, whose
    /// emitted sets are unions of `O(polylog d)` or `O(d/k)` arcs.
    Arcs(&'a IntervalSet),
}

impl Footprint<'_> {
    /// Number of IDs in the footprint.
    pub fn measure(&self) -> u128 {
        match self {
            Footprint::Points(p) => p.len() as u128,
            Footprint::Arcs(s) => s.measure(),
        }
    }
}

/// One running instance of an ID-generation algorithm.
///
/// Instances are sequential state machines: each [`next_id`] call reveals
/// the next element of the instance's random permutation of `[m]`.
///
/// [`next_id`]: IdGenerator::next_id
pub trait IdGenerator: Send {
    /// The universe this instance draws from.
    fn space(&self) -> IdSpace;

    /// Produces the next ID.
    fn next_id(&mut self) -> Result<Id, GeneratorError>;

    /// Number of IDs produced so far.
    fn generated(&self) -> u128;

    /// The exact set of IDs produced so far.
    ///
    /// Takes `&mut self` because arc-structured generators keep their
    /// footprint *lazy*: [`next_id`](Self::next_id) only bumps counters,
    /// and the emitted prefix of the open run is folded into the interval
    /// set here, on demand. Between calls the set always reflects every ID
    /// emitted so far; the call is amortized O(1) per emitted run.
    fn footprint(&mut self) -> Footprint<'_>;

    /// Returns the instance to its freshly-constructed state under a new
    /// seed, reusing allocations (interval-set segment vectors, run lists,
    /// hash maps) instead of dropping them.
    ///
    /// Observationally identical to `algorithm.spawn(seed)`: the ID
    /// stream, footprints, and error behavior after `reset(seed)` must be
    /// bit-for-bit those of a fresh instance built with `seed`. This is
    /// the contract the Monte-Carlo trial engine relies on to run
    /// millions of trials without per-trial boxing, and it is enforced by
    /// the differential property tests.
    fn reset(&mut self, seed: u64);

    /// Produces the next `count` IDs as a *bulk lease*: the emitted IDs
    /// are pushed to `sink` as arcs, in emission order, covering exactly
    /// the IDs that `count` consecutive [`next_id`](Self::next_id) calls
    /// would have returned (and leaving the instance in the identical
    /// post-state — same footprint, same continuation, same errors).
    ///
    /// The default implementation calls `next_id` `count` times and emits
    /// one single-ID arc per call. Arc-structured algorithms override it
    /// to emit one arc per touched run/bin — `O(1)` amortized per *run*
    /// instead of per ID — which is what lets a service front-end lease
    /// thousands of IDs per request at interval-push cost. On exhaustion
    /// mid-batch the arcs already emitted stay delivered and the error is
    /// returned, exactly like the scalar loop.
    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        let space = self.space();
        for _ in 0..count {
            let id = self.next_id()?;
            sink(Arc::point(space, id));
        }
        Ok(())
    }

    /// Whether [`next_ids`](Self::next_ids) is sublinear in `count` for
    /// this algorithm (true for the arc-structured algorithms, whose
    /// leases cost `O(runs touched)`, false for Random-like ones).
    fn supports_bulk_lease(&self) -> bool {
        false
    }

    /// Advances the instance by `count` IDs without materializing them.
    ///
    /// Semantically identical to calling [`next_id`](Self::next_id) `count`
    /// times and discarding the results; the footprint afterwards reflects
    /// all skipped IDs. Algorithms with arc structure override this with an
    /// `O(arcs)` implementation, which is what lets worst-case experiments
    /// reach demands far beyond materializable scale.
    fn skip(&mut self, count: u128) -> Result<(), GeneratorError> {
        for _ in 0..count {
            self.next_id()?;
        }
        Ok(())
    }

    /// Captures a serializable snapshot for exact resume after a restart
    /// (see [`crate::state`]). `None` when the algorithm does not support
    /// persistence (SetAside, Snowflake — both stateful on externals).
    fn snapshot(&self) -> Option<crate::state::GeneratorState> {
        None
    }
}

/// A factory for independent instances of one ID-generation algorithm over
/// one universe.
///
/// The factory is the crate's unit of configuration: experiments are
/// parameterized by a list of `Box<dyn Algorithm>`. Spawned instances share
/// nothing; independence across instances — the defining constraint of the
/// UUIDP — is enforced by construction, since `spawn` passes only a seed.
pub trait Algorithm: Send + Sync {
    /// Short, stable, human-readable name (e.g. `"cluster"`, `"bins(64)"`).
    fn name(&self) -> String;

    /// The universe instances will draw from.
    fn space(&self) -> IdSpace;

    /// Spawns a fresh instance using `seed` as its only source of
    /// randomness.
    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator>;
}

impl fmt::Debug for dyn Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Algorithm({} over {})", self.name(), self.space())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        space: IdSpace,
        next: u128,
        emitted: Vec<Id>,
    }

    impl IdGenerator for Fake {
        fn space(&self) -> IdSpace {
            self.space
        }
        fn next_id(&mut self) -> Result<Id, GeneratorError> {
            if self.next >= self.space.size() {
                return Err(GeneratorError::Exhausted {
                    generated: self.next,
                });
            }
            let id = Id(self.next);
            self.next += 1;
            self.emitted.push(id);
            Ok(id)
        }
        fn generated(&self) -> u128 {
            self.next
        }
        fn footprint(&mut self) -> Footprint<'_> {
            Footprint::Points(&self.emitted)
        }
        fn reset(&mut self, _seed: u64) {
            self.next = 0;
            self.emitted.clear();
        }
    }

    #[test]
    fn default_skip_materializes() {
        let mut g = Fake {
            space: IdSpace::new(10).unwrap(),
            next: 0,
            emitted: Vec::new(),
        };
        g.skip(4).unwrap();
        assert_eq!(g.generated(), 4);
        assert_eq!(g.footprint().measure(), 4);
    }

    #[test]
    fn default_skip_propagates_exhaustion() {
        let mut g = Fake {
            space: IdSpace::new(3).unwrap(),
            next: 0,
            emitted: Vec::new(),
        };
        let err = g.skip(5).unwrap_err();
        assert_eq!(err, GeneratorError::Exhausted { generated: 3 });
    }

    #[test]
    fn default_next_ids_emits_point_arcs() {
        let mut g = Fake {
            space: IdSpace::new(10).unwrap(),
            next: 0,
            emitted: Vec::new(),
        };
        let mut arcs = Vec::new();
        g.next_ids(4, &mut |a| arcs.push(a)).unwrap();
        assert_eq!(arcs.len(), 4, "one point arc per ID");
        assert!(arcs.iter().all(|a| a.len == 1));
        assert_eq!(g.generated(), 4);
        assert!(!g.supports_bulk_lease());
    }

    #[test]
    fn default_next_ids_propagates_exhaustion_after_partial_batch() {
        let mut g = Fake {
            space: IdSpace::new(3).unwrap(),
            next: 0,
            emitted: Vec::new(),
        };
        let mut arcs = Vec::new();
        let err = g.next_ids(5, &mut |a| arcs.push(a)).unwrap_err();
        assert_eq!(err, GeneratorError::Exhausted { generated: 3 });
        assert_eq!(arcs.len(), 3, "partial batch stays delivered");
    }

    #[test]
    fn exhausted_error_formats() {
        let e = GeneratorError::Exhausted { generated: 42 };
        assert!(e.to_string().contains("42"));
    }
}
