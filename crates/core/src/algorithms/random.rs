//! **Random** — the paper's model of the random part of GUIDs.
//!
//! > *Algorithm Random: return the IDs from `[m]` in a uniformly random
//! > order.*
//!
//! Every request reveals the next element of a uniform random permutation
//! of `[m]`, i.e. sampling without replacement. Corollary 3 gives its
//! collision probability as `Θ(min(1, (‖D‖₁² − ‖D‖₂²)/m))` — the birthday
//! bound — which is why Random is only safe while the total demand stays
//! far below `√m`.
//!
//! The `i`-th ID is `π(i)`, where `π` is the seed's
//! [`KeyedPermutation`] of `[m]`: the state is the seed and the number
//! of IDs drawn, a draw costs the same at any `m` up to 2¹²⁷ and any
//! demand, and `skip` is O(1).

use crate::id::{Id, IdSpace};
use crate::interval::Arc;
use crate::permute::KeyedPermutation;
use crate::state::GeneratorState;
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Factory for [`RandomGenerator`] instances.
#[derive(Debug, Clone)]
pub struct Random {
    space: IdSpace,
}

impl Random {
    /// Random over the universe `space`.
    pub fn new(space: IdSpace) -> Self {
        Random { space }
    }
}

impl Algorithm for Random {
    fn name(&self) -> String {
        "random".to_owned()
    }

    fn space(&self) -> IdSpace {
        self.space
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(RandomGenerator::new(self.space, seed))
    }
}

/// One instance of Random: a keyed permutation of `[m]`, revealed one
/// position at a time.
#[derive(Debug)]
pub struct RandomGenerator {
    space: IdSpace,
    seed: u64,
    order: KeyedPermutation,
    drawn: u128,
    /// `π(0), π(1), …`: the IDs drawn so far that
    /// [`footprint`](IdGenerator::footprint) has materialized.
    emitted: Vec<Id>,
}

impl RandomGenerator {
    /// A fresh instance seeded with `seed`.
    pub fn new(space: IdSpace, seed: u64) -> Self {
        RandomGenerator {
            space,
            seed,
            order: KeyedPermutation::new(space.size(), seed),
            drawn: 0,
            emitted: Vec::new(),
        }
    }
}

impl IdGenerator for RandomGenerator {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        let end = self.drawn + count.min(self.space.size() - self.drawn);
        for i in self.drawn..end {
            sink(Arc::point(self.space, Id(self.order.at(i))));
        }
        self.skip(count)
    }

    fn generated(&self) -> u128 {
        self.drawn
    }

    fn footprint(&mut self) -> Footprint<'_> {
        let order = &self.order;
        let from = self.emitted.len() as u128;
        self.emitted
            .extend((from..self.drawn).map(|i| Id(order.at(i))));
        Footprint::Points(&self.emitted)
    }

    fn skip(&mut self, count: u128) -> Result<(), GeneratorError> {
        let left = self.space.size() - self.drawn;
        self.drawn += count.min(left);
        if count > left {
            return Err(GeneratorError::Exhausted {
                generated: self.drawn,
            });
        }
        Ok(())
    }

    fn reset(&mut self, seed: u64) {
        self.seed = seed;
        self.order = KeyedPermutation::new(self.space.size(), seed);
        self.drawn = 0;
        self.emitted.clear();
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        Some(GeneratorState::Random {
            seed: self.seed,
            generated: self.drawn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn emits_a_permutation_of_the_universe() {
        let space = IdSpace::new(64).unwrap();
        let mut g = RandomGenerator::new(space, 1);
        let mut seen = HashSet::new();
        for _ in 0..64 {
            let id = g.next_id().unwrap();
            assert!(space.contains(id));
            assert!(seen.insert(id), "duplicate ID within one instance");
        }
        assert!(matches!(
            g.next_id(),
            Err(GeneratorError::Exhausted { generated: 64 })
        ));
    }

    #[test]
    fn instances_with_different_seeds_differ() {
        let space = IdSpace::new(1 << 30).unwrap();
        let alg = Random::new(space);
        let mut a = alg.spawn(1);
        let mut b = alg.spawn(2);
        let xs: Vec<_> = (0..32).map(|_| a.next_id().unwrap()).collect();
        let ys: Vec<_> = (0..32).map(|_| b.next_id().unwrap()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let space = IdSpace::new(1000).unwrap();
        let alg = Random::new(space);
        let mut a = alg.spawn(7);
        let mut b = alg.spawn(7);
        for _ in 0..100 {
            assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
        }
    }

    #[test]
    fn footprint_matches_emitted_ids() {
        let space = IdSpace::new(128).unwrap();
        let mut g = RandomGenerator::new(space, 3);
        let ids: Vec<_> = (0..10).map(|_| g.next_id().unwrap()).collect();
        match g.footprint() {
            Footprint::Points(p) => assert_eq!(p, ids.as_slice()),
            _ => panic!("Random must report a point footprint"),
        }
        assert_eq!(g.footprint().measure(), 10);
    }

    #[test]
    fn skip_matches_materialized_emission() {
        let space = IdSpace::new(1 << 16).unwrap();
        let mut a = RandomGenerator::new(space, 6);
        let mut b = RandomGenerator::new(space, 6);
        a.skip(1000).unwrap();
        for _ in 0..1000 {
            b.next_id().unwrap();
        }
        assert_eq!(a.generated(), b.generated());
        match (a.footprint(), b.footprint()) {
            (Footprint::Points(pa), Footprint::Points(pb)) => assert_eq!(pa, pb),
            _ => panic!("Random must report a point footprint"),
        }
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
        // Skipping past the end stops at m, as the scalar loop does.
        let mut c = RandomGenerator::new(IdSpace::new(10).unwrap(), 6);
        c.skip(4).unwrap();
        assert_eq!(c.skip(7), Err(GeneratorError::Exhausted { generated: 10 }));
        assert_eq!(c.footprint().measure(), 10);
    }

    #[test]
    fn first_id_is_uniform() {
        let space = IdSpace::new(8).unwrap();
        let mut counts = [0u32; 8];
        let trials = 80_000;
        for seed in 0..trials {
            let mut g = RandomGenerator::new(space, seed);
            counts[g.next_id().unwrap().value() as usize] += 1;
        }
        let expected = trials as f64 / 8.0;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "id {v}: dev {dev:.3}");
        }
    }

    #[test]
    fn works_at_guid_scale() {
        let space = IdSpace::with_bits(127).unwrap();
        let mut g = RandomGenerator::new(space, 9);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(g.next_id().unwrap()));
        }
    }
}
