//! **Cluster** — RocksDB's scheme, optimal in the worst case against
//! oblivious adversaries.
//!
//! > *Algorithm Cluster: pick `x ∈ [m]` uniformly at random and return IDs
//! > in the order `x, x+1, x+2, …`, all modulo `m`.*
//!
//! Theorem 1: `p_Cluster(D) = Θ(min(1, n‖D‖₁/m))` for any demand profile —
//! a factor-`d/n` improvement over Random's birthday bound, and optimal by
//! Theorem 6. Lemma 7 shows its weakness: an *adaptive* adversary who sees
//! the starting IDs can force `Ω(min(1, n²d/m))`.
//!
//! The emitted set is a single arc, so [`skip`](IdGenerator::skip) is O(1):
//! worst-case experiments can push `d` to 2⁴⁰ and beyond.

use crate::id::{Id, IdSpace};
use crate::interval::{Arc, IntervalSet};
use crate::rng::{uniform_below, Xoshiro256pp};
use crate::state::GeneratorState;
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Factory for [`ClusterGenerator`] instances.
#[derive(Debug, Clone)]
pub struct Cluster {
    space: IdSpace,
}

impl Cluster {
    /// Cluster over the universe `space`.
    pub fn new(space: IdSpace) -> Self {
        Cluster { space }
    }
}

impl Algorithm for Cluster {
    fn name(&self) -> String {
        "cluster".to_owned()
    }

    fn space(&self) -> IdSpace {
        self.space
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(ClusterGenerator::new(self.space, seed))
    }
}

/// One instance of Cluster: a random start, then sequential IDs mod `m`.
///
/// The footprint is lazy: emitting only moves the `generated` counter,
/// and the emitted arc is folded into the interval set when
/// [`IdGenerator::footprint`] is called.
#[derive(Debug)]
pub struct ClusterGenerator {
    space: IdSpace,
    seed: u64,
    start: Id,
    generated: u128,
    emitted: IntervalSet,
    /// How many of the `generated` IDs are already in `emitted`.
    flushed: u128,
}

impl ClusterGenerator {
    /// A fresh instance seeded with `seed`.
    pub fn new(space: IdSpace, seed: u64) -> Self {
        ClusterGenerator {
            space,
            seed,
            start: start_of(space, seed),
            generated: 0,
            emitted: IntervalSet::new(space),
            flushed: 0,
        }
    }

    /// Folds the unflushed emitted prefix into the interval set.
    fn flush(&mut self) {
        if self.generated > self.flushed {
            let first = self.space.add(self.start, self.flushed);
            self.emitted
                .insert(Arc::new(self.space, first, self.generated - self.flushed));
            self.flushed = self.generated;
        }
    }

    /// The randomly chosen starting ID `x`.
    pub fn start(&self) -> Id {
        self.start
    }

    /// Emits the next `count` IDs to `sink`: one arc of the cluster.
    fn walk(&mut self, count: u128, mut sink: impl FnMut(Arc)) -> Result<(), GeneratorError> {
        let take = count.min(self.space.size() - self.generated);
        if take > 0 {
            sink(Arc::new(
                self.space,
                self.space.add(self.start, self.generated),
                take,
            ));
            self.generated += take;
        }
        if take < count {
            return Err(GeneratorError::Exhausted {
                generated: self.generated,
            });
        }
        Ok(())
    }
}

/// The uniform random start `x` that `seed` picks.
fn start_of(space: IdSpace, seed: u64) -> Id {
    Id(uniform_below(&mut Xoshiro256pp::new(seed), space.size()))
}

impl IdGenerator for ClusterGenerator {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn generated(&self) -> u128 {
        self.generated
    }

    fn footprint(&mut self) -> Footprint<'_> {
        self.flush();
        Footprint::Arcs(&self.emitted)
    }

    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        self.walk(count, sink)
    }

    fn skip(&mut self, count: u128) -> Result<(), GeneratorError> {
        self.walk(count, |_| {})
    }

    fn reset(&mut self, seed: u64) {
        self.seed = seed;
        self.start = start_of(self.space, seed);
        self.generated = 0;
        self.flushed = 0;
        self.emitted.clear();
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        Some(GeneratorState::Cluster {
            seed: self.seed,
            generated: self.generated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_consecutive_mod_m() {
        let space = IdSpace::new(20).unwrap();
        let mut g = ClusterGenerator::new(space, 1);
        let first = g.next_id().unwrap();
        let mut prev = first;
        for _ in 1..20 {
            let id = g.next_id().unwrap();
            assert_eq!(id, space.next(prev), "IDs must be sequential mod m");
            prev = id;
        }
        assert!(matches!(g.next_id(), Err(GeneratorError::Exhausted { .. })));
    }

    #[test]
    fn start_is_uniform() {
        let space = IdSpace::new(10).unwrap();
        let mut counts = [0u32; 10];
        let trials = 100_000;
        for seed in 0..trials {
            let g = ClusterGenerator::new(space, seed);
            counts[g.start().value() as usize] += 1;
        }
        let expected = trials as f64 / 10.0;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "start {v}: dev {dev:.3}");
        }
    }

    #[test]
    fn footprint_is_one_arc_until_wrap() {
        let space = IdSpace::new(100).unwrap();
        let mut g = ClusterGenerator::new(space, 2);
        for _ in 0..30 {
            g.next_id().unwrap();
        }
        match g.footprint() {
            Footprint::Arcs(set) => {
                assert_eq!(set.measure(), 30);
                assert!(set.segment_count() <= 2, "one arc, possibly split by wrap");
            }
            _ => panic!("Cluster must report an arc footprint"),
        }
    }

    #[test]
    fn skip_matches_materialized_emission() {
        let space = IdSpace::new(1 << 20).unwrap();
        let mut a = ClusterGenerator::new(space, 3);
        let mut b = ClusterGenerator::new(space, 3);
        a.skip(1000).unwrap();
        for _ in 0..1000 {
            b.next_id().unwrap();
        }
        assert_eq!(a.generated(), b.generated());
        let (fa, fb) = (a.footprint(), b.footprint());
        match (fa, fb) {
            (Footprint::Arcs(sa), Footprint::Arcs(sb)) => {
                assert_eq!(sa.measure(), sb.measure());
                assert_eq!(sa.intersection_measure_set(sb), 1000);
            }
            _ => panic!("arc footprints expected"),
        }
        // Continuing after a skip yields the right next ID.
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
    }

    #[test]
    fn skip_beyond_capacity_is_exhaustion() {
        let space = IdSpace::new(50).unwrap();
        let mut g = ClusterGenerator::new(space, 4);
        g.skip(40).unwrap();
        let err = g.skip(20).unwrap_err();
        assert_eq!(err, GeneratorError::Exhausted { generated: 50 });
        assert_eq!(g.footprint().measure(), 50);
    }

    #[test]
    fn huge_demand_fast_skip() {
        let space = IdSpace::with_bits(90).unwrap();
        let mut g = ClusterGenerator::new(space, 5);
        g.skip(1 << 60).unwrap();
        assert_eq!(g.generated(), 1 << 60);
        assert_eq!(g.footprint().measure(), 1 << 60);
    }

    #[test]
    fn wrap_around_is_seamless() {
        let space = IdSpace::new(10).unwrap();
        // Find a seed whose start is late enough to force a wrap.
        for seed in 0..100 {
            let mut g = ClusterGenerator::new(space, seed);
            if g.start().value() >= 7 {
                let ids: Vec<_> = (0..10).map(|_| g.next_id().unwrap()).collect();
                let mut sorted: Vec<_> = ids.iter().map(|i| i.value()).collect();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..10).collect::<Vec<_>>());
                return;
            }
        }
        panic!("no wrapping seed found in 100 tries");
    }
}
