//! **SetAside(i, j)** — the profile-tailored construction from Lemma 24,
//! used as the `p*` upper-bound witness for two-instance profiles.
//!
//! > *The algorithm sets aside `j − i` hard-wired IDs. The first `i`
//! > requests are handled using Bins(i) on the rest of the IDs. All other
//! > requests (which are at most `j − i`) are served from the hard-wired
//! > IDs.*
//!
//! On the demand profile `(i, j)` (with `i ≤ j ≤ m/2`), a collision can
//! only happen between the two Bins(i) heads — the hard-wired tail is only
//! reached by the single high-demand instance — so
//! `p = p_Bins(i)((i,i))` on `m − j + i` IDs `= Θ(i/m)`, matching the
//! Lemma 24 lower bound. This is the algorithm exhibiting that Cluster's
//! competitive ratio is `Θ(d)` away from optimal on skewed profiles
//! (Section 3.4's example is SetAside(1, d−1)).
//!
//! SetAside is *not* a general-purpose algorithm: if two instances both
//! exceed `i` requests they collide with certainty in the tail. It exists
//! to make `p*(D)` concrete in experiments E9/E10.

use crate::algorithms::bins::BinsGenerator;
use crate::id::{Id, IdSpace};
use crate::interval::{Arc, IntervalSet};
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Factory for [`SetAsideGenerator`] instances, tailored to the demand
/// profile `(i, j)`.
#[derive(Debug, Clone)]
pub struct SetAside {
    space: IdSpace,
    head_demand: u128,
    tail_len: u128,
}

impl SetAside {
    /// The Lemma 24 construction for the profile `(i, j)`, `i ≤ j`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ j` and the head space `m − (j − i)` can hold
    /// at least one bin of size `i`.
    pub fn new(space: IdSpace, i: u128, j: u128) -> Self {
        assert!(i >= 1, "head demand must be at least 1");
        assert!(i <= j, "SetAside(i, j) requires i <= j");
        let tail_len = j - i;
        assert!(
            tail_len < space.size() && space.size() - tail_len >= i,
            "universe too small for SetAside({i}, {j})"
        );
        SetAside {
            space,
            head_demand: i,
            tail_len,
        }
    }

    /// The head universe `[m − (j − i)]` on which Bins(i) runs.
    pub fn head_space(&self) -> IdSpace {
        IdSpace::new(self.space.size() - self.tail_len).expect("validated at construction")
    }
}

impl Algorithm for SetAside {
    fn name(&self) -> String {
        format!(
            "set-aside({}, {})",
            self.head_demand,
            self.head_demand + self.tail_len
        )
    }

    fn space(&self) -> IdSpace {
        self.space
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(SetAsideGenerator {
            space: self.space,
            head: BinsGenerator::new(self.head_space(), self.head_demand, seed),
            head_demand: self.head_demand,
            tail_len: self.tail_len,
            tail_emitted: 0,
            generated: 0,
            emitted: IntervalSet::new(self.space),
        })
    }
}

/// One instance of SetAside(i, j).
#[derive(Debug)]
pub struct SetAsideGenerator {
    space: IdSpace,
    head: BinsGenerator,
    head_demand: u128,
    tail_len: u128,
    tail_emitted: u128,
    generated: u128,
    emitted: IntervalSet,
}

impl IdGenerator for SetAsideGenerator {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        for _ in 0..count {
            let id = if self.generated < self.head_demand {
                // Head: Bins(i) on the reduced space; IDs carry over unchanged.
                self.head.next_id().map_err(|_| GeneratorError::Exhausted {
                    generated: self.generated,
                })?
            } else if self.tail_emitted < self.tail_len {
                // Tail: hard-wired IDs {m − (j−i), …, m − 1} in increasing order.
                let id = Id(self.space.size() - self.tail_len + self.tail_emitted);
                self.tail_emitted += 1;
                id
            } else {
                return Err(GeneratorError::Exhausted {
                    generated: self.generated,
                });
            };
            let arc = Arc::point(self.space, id);
            self.emitted.insert(arc);
            self.generated += 1;
            sink(arc);
        }
        Ok(())
    }

    fn generated(&self) -> u128 {
        self.generated
    }

    fn footprint(&mut self) -> Footprint<'_> {
        Footprint::Arcs(&self.emitted)
    }

    fn reset(&mut self, seed: u64) {
        self.head.reset(seed);
        self.tail_emitted = 0;
        self.generated = 0;
        self.emitted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn head_then_hardwired_tail() {
        let space = IdSpace::new(100).unwrap();
        let (i, j) = (4u128, 10u128);
        let alg = SetAside::new(space, i, j);
        let mut g = alg.spawn(1);
        let mut ids = Vec::new();
        for _ in 0..j {
            ids.push(g.next_id().unwrap().value());
        }
        // Head IDs live in [0, m − (j−i)) = [0, 94).
        for &v in &ids[..i as usize] {
            assert!(v < 94, "head ID {v} outside head space");
        }
        // Tail IDs are exactly 94..100 in order.
        assert_eq!(&ids[i as usize..], &[94, 95, 96, 97, 98, 99]);
        assert!(matches!(g.next_id(), Err(GeneratorError::Exhausted { .. })));
    }

    #[test]
    fn tail_is_deterministic_across_instances() {
        let space = IdSpace::new(64).unwrap();
        let alg = SetAside::new(space, 2, 6);
        let mut a = alg.spawn(1);
        let mut b = alg.spawn(2);
        for _ in 0..2 {
            a.next_id().unwrap();
            b.next_id().unwrap();
        }
        // Both instances now serve the identical hard-wired tail.
        for _ in 0..4 {
            assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
        }
    }

    #[test]
    fn no_duplicates_within_one_instance() {
        let space = IdSpace::new(256).unwrap();
        let alg = SetAside::new(space, 8, 40);
        let mut g = alg.spawn(3);
        let mut seen = HashSet::new();
        for _ in 0..40 {
            assert!(seen.insert(g.next_id().unwrap()));
        }
    }

    #[test]
    fn i_equals_j_is_pure_bins() {
        let space = IdSpace::new(30).unwrap();
        let alg = SetAside::new(space, 5, 5);
        let mut g = alg.spawn(4);
        let mut seen = HashSet::new();
        for _ in 0..5 {
            let id = g.next_id().unwrap();
            assert!(id.value() < 30);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn section_3_4_example_collision_probability() {
        // D = (d−1, 1) with SetAside(1, d−1): collision iff the two random
        // head IDs coincide, which has probability 1/(m − (d − 2)).
        let m = 50u128;
        let d = 12u128;
        let space = IdSpace::new(m).unwrap();
        let alg = SetAside::new(space, 1, d - 1);
        let trials = 200_000u64;
        let mut collisions = 0u64;
        for t in 0..trials {
            let mut a = alg.spawn(2 * t);
            let mut b = alg.spawn(2 * t + 1);
            // Instance a: d − 1 requests; instance b: 1 request.
            let mut ids_a = HashSet::new();
            for _ in 0..(d - 1) {
                ids_a.insert(a.next_id().unwrap());
            }
            if ids_a.contains(&b.next_id().unwrap()) {
                collisions += 1;
            }
        }
        let measured = collisions as f64 / trials as f64;
        let predicted = 1.0 / (m - (d - 2)) as f64;
        let ratio = measured / predicted;
        assert!(
            (0.8..1.25).contains(&ratio),
            "measured {measured:.5} vs predicted {predicted:.5}"
        );
    }
}
