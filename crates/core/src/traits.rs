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
/// Instances are sequential state machines: each call reveals the next
/// elements of the instance's random permutation of `[m]`. The one
/// required emission method is [`next_ids`]; [`next_id`] and the
/// default [`skip`] are that same walk, one ID at a time or with its
/// arcs dropped.
///
/// [`next_ids`]: IdGenerator::next_ids
/// [`next_id`]: IdGenerator::next_id
/// [`skip`]: IdGenerator::skip
pub trait IdGenerator: Send {
    /// The universe this instance draws from.
    fn space(&self) -> IdSpace;

    /// Produces the next `count` IDs as a *bulk lease*: the emitted IDs
    /// are pushed to `sink` as arcs, in emission order.
    ///
    /// Arc-structured algorithms emit one arc per touched run or bin,
    /// `O(1)` amortized per *run* instead of per ID, which is what lets
    /// a service front-end lease thousands of IDs per request at
    /// interval-push cost; Random-like ones emit one single-ID arc per
    /// ID. On exhaustion mid-batch the arcs already emitted stay
    /// delivered and the error is returned.
    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError>;

    /// Produces the next ID: a one-ID [`next_ids`](Self::next_ids).
    fn next_id(&mut self) -> Result<Id, GeneratorError> {
        let mut id = Id(0);
        self.next_ids(1, &mut |arc| id = arc.start)?;
        Ok(id)
    }

    /// Number of IDs produced so far.
    fn generated(&self) -> u128;

    /// The exact set of IDs produced so far.
    ///
    /// Takes `&mut self` because arc-structured generators keep their
    /// footprint *lazy*: [`next_ids`](Self::next_ids) only bumps
    /// counters, and the emitted prefix of the open run is folded into
    /// the interval set here, on demand. Between calls the set always
    /// reflects every ID emitted so far; the call is amortized O(1) per
    /// emitted run.
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

    /// Advances the instance by `count` IDs without materializing them:
    /// [`next_ids`](Self::next_ids) with its arcs dropped, so the
    /// footprint afterwards reflects all skipped IDs. Random and Bins(k)
    /// override it with an O(1) counter bump; the arc-structured
    /// algorithms walk their runs or bins, `O(arcs)`, which is what lets
    /// worst-case experiments reach demands far beyond materializable
    /// scale.
    fn skip(&mut self, count: u128) -> Result<(), GeneratorError> {
        self.next_ids(count, &mut |_| {})
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

    /// Emits `0, 1, 2, …` one ID at a time; only `next_ids` is written.
    struct Fake {
        space: IdSpace,
        next: u128,
        emitted: Vec<Id>,
    }

    impl Fake {
        fn new(m: u128) -> Fake {
            Fake {
                space: IdSpace::new(m).unwrap(),
                next: 0,
                emitted: Vec::new(),
            }
        }
    }

    impl IdGenerator for Fake {
        fn space(&self) -> IdSpace {
            self.space
        }
        fn next_ids(
            &mut self,
            count: u128,
            sink: &mut dyn FnMut(Arc),
        ) -> Result<(), GeneratorError> {
            for _ in 0..count {
                if self.next >= self.space.size() {
                    return Err(GeneratorError::Exhausted {
                        generated: self.next,
                    });
                }
                let id = Id(self.next);
                self.next += 1;
                self.emitted.push(id);
                sink(Arc::point(self.space, id));
            }
            Ok(())
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
        let mut g = Fake::new(10);
        g.skip(4).unwrap();
        assert_eq!(g.generated(), 4);
        assert_eq!(g.footprint().measure(), 4);
    }

    #[test]
    fn default_skip_propagates_exhaustion() {
        let mut g = Fake::new(3);
        let err = g.skip(5).unwrap_err();
        assert_eq!(err, GeneratorError::Exhausted { generated: 3 });
    }

    #[test]
    fn provided_next_id_is_a_one_id_lease() {
        let mut g = Fake::new(10);
        let mut arcs = Vec::new();
        g.next_ids(2, &mut |a| arcs.push(a)).unwrap();
        let ids: Vec<Id> = (0..3).map(|_| g.next_id().unwrap()).collect();
        assert_eq!(
            arcs,
            [Arc::point(g.space, Id(0)), Arc::point(g.space, Id(1))]
        );
        assert_eq!(ids, [Id(2), Id(3), Id(4)], "next_id continues the walk");
        assert_eq!(g.generated(), 5);
    }

    #[test]
    fn provided_next_id_propagates_exhaustion() {
        let mut g = Fake::new(3);
        g.skip(3).unwrap();
        let err = g.next_id().unwrap_err();
        assert_eq!(err, GeneratorError::Exhausted { generated: 3 });
    }

    #[test]
    fn exhausted_error_formats() {
        let e = GeneratorError::Exhausted { generated: 42 };
        assert!(e.to_string().contains("42"));
    }
}
