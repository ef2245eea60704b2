//! **Bins(k)** — a random permutation of aligned bins of `k` IDs.
//!
//! > *Algorithm Bins(k): partition `[m]` into `⌊m/k⌋` bins of `k` IDs and
//! > `m mod k` leftover IDs. Pick a random permutation of the bins. Iterate
//! > over the shuffled bins, returning all IDs of a bin in increasing order
//! > before moving on to the next bin. Finally, return the leftover IDs in
//! > increasing order.*
//!
//! Bins(1) is exactly Random. Theorem 2 gives the collision probability
//! `Θ(min(1, (‖D‖₁²−‖D‖₂²)/(km) + n‖D‖₁/m + n²k/m))`, and Lemma 16 shows
//! Bins(h) is the *optimal* algorithm for the uniform demand profile
//! `(h, …, h)` — which makes it the reference point (`p*`) for the paper's
//! lower bounds.
//!
//! The `j`-th bin is `π(j)`, where `π` is the seed's [`KeyedPermutation`]
//! of the bins, so the stream's `g`-th ID is a function of `g` alone: the
//! state is the seed and the number of IDs emitted, and `skip` is O(1).

use super::AlgorithmKind;
use crate::id::{Id, IdSpace};
use crate::interval::{Arc, IntervalSet};
use crate::permute::KeyedPermutation;
use crate::state::GeneratorState;
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Factory for [`BinsGenerator`] instances.
#[derive(Debug, Clone)]
pub struct Bins {
    space: IdSpace,
    k: u128,
}

impl Bins {
    /// Bins(k) over the universe `space`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= m`, matching the paper's `k ∈ [m]`.
    pub fn new(space: IdSpace, k: u128) -> Self {
        assert!(k >= 1 && k <= space.size(), "Bins(k) requires k in [m]");
        Bins { space, k }
    }

    /// The bin size `k`.
    pub fn k(&self) -> u128 {
        self.k
    }
}

impl Algorithm for Bins {
    fn name(&self) -> String {
        format!("bins({})", self.k)
    }

    fn space(&self) -> IdSpace {
        self.space
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(BinsGenerator::new(self.space, self.k, seed))
    }
}

/// One instance of Bins(k).
///
/// The emitted footprint is lazy: emitting only advances `generated`,
/// and [`IdGenerator::footprint`] folds the IDs emitted since its last
/// call into the interval set, one arc per bin.
#[derive(Debug)]
pub struct BinsGenerator {
    space: IdSpace,
    k: u128,
    seed: u64,
    bin_order: KeyedPermutation,
    generated: u128,
    /// How many of the first `generated` IDs are in `emitted`.
    folded: u128,
    emitted: IntervalSet,
}

impl BinsGenerator {
    /// A fresh instance seeded with `seed`.
    pub fn new(space: IdSpace, k: u128, seed: u64) -> Self {
        assert!(k >= 1 && k <= space.size(), "Bins(k) requires k in [m]");
        BinsGenerator {
            space,
            k,
            seed,
            bin_order: KeyedPermutation::new(space.size() / k, seed),
            generated: 0,
            folded: 0,
            emitted: IntervalSet::new(space),
        }
    }

    /// Takes the next `count` stream positions, or as many as are left,
    /// and returns the first and how many were taken.
    fn take(&mut self, count: u128) -> (u128, u128) {
        let from = self.generated;
        let taken = count.min(self.space.size() - from);
        self.generated += taken;
        (from, taken)
    }

    fn exhausted(&self) -> GeneratorError {
        GeneratorError::Exhausted {
            generated: self.generated,
        }
    }
}

/// Sends the stream positions `[from, from + count)` of the Bins(k)
/// instance whose bin order is `bins` to `sink` as arcs: one per bin
/// touched, then one for the leftover tail `{⌊m/k⌋·k, …, m−1}`, which
/// comes last in increasing order (so a position there is its own ID).
fn emit(
    space: IdSpace,
    k: u128,
    bins: &KeyedPermutation,
    mut from: u128,
    mut count: u128,
    sink: &mut dyn FnMut(Arc),
) {
    while count > 0 && from < bins.size() * k {
        let offset = from % k;
        let take = count.min(k - offset);
        sink(Arc::new(space, Id(bins.at(from / k) * k + offset), take));
        from += take;
        count -= take;
    }
    if count > 0 {
        sink(Arc::new(space, Id(from), count));
    }
}

impl IdGenerator for BinsGenerator {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn generated(&self) -> u128 {
        self.generated
    }

    fn footprint(&mut self) -> Footprint<'_> {
        let (from, count) = (self.folded, self.generated - self.folded);
        let emitted = &mut self.emitted;
        emit(
            self.space,
            self.k,
            &self.bin_order,
            from,
            count,
            &mut |arc| emitted.insert(arc),
        );
        self.folded = self.generated;
        Footprint::Arcs(&self.emitted)
    }

    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        let (from, taken) = self.take(count);
        emit(self.space, self.k, &self.bin_order, from, taken, sink);
        if taken < count {
            return Err(self.exhausted());
        }
        Ok(())
    }

    fn skip(&mut self, count: u128) -> Result<(), GeneratorError> {
        if self.take(count).1 < count {
            return Err(self.exhausted());
        }
        Ok(())
    }

    fn reset(&mut self, seed: u64) {
        self.seed = seed;
        self.bin_order = KeyedPermutation::new(self.bin_order.size(), seed);
        self.generated = 0;
        self.folded = 0;
        self.emitted.clear();
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        Some(GeneratorState {
            kind: AlgorithmKind::Bins { k: self.k },
            seed: self.seed,
            generated: self.generated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn emits_whole_universe_exactly_once() {
        let space = IdSpace::new(23).unwrap(); // 7 bins of 3 + 2 leftovers
        let mut g = BinsGenerator::new(space, 3, 1);
        let mut seen = HashSet::new();
        for _ in 0..23 {
            assert!(seen.insert(g.next_id().unwrap()));
        }
        assert!(matches!(g.next_id(), Err(GeneratorError::Exhausted { .. })));
    }

    #[test]
    fn ids_within_a_bin_are_increasing_and_aligned() {
        let space = IdSpace::new(100).unwrap();
        let k = 10u128;
        let mut g = BinsGenerator::new(space, k, 2);
        for _ in 0..10 {
            // Each group of k consecutive outputs must be one aligned bin.
            let ids: Vec<u128> = (0..k).map(|_| g.next_id().unwrap().value()).collect();
            let base = ids[0];
            assert_eq!(base % k, 0, "bin must be aligned to k");
            for (i, &v) in ids.iter().enumerate() {
                assert_eq!(v, base + i as u128, "IDs within bin increase by 1");
            }
        }
    }

    #[test]
    fn leftovers_come_last_in_increasing_order() {
        let space = IdSpace::new(11).unwrap(); // 3 bins of 3 + leftovers {9, 10}
        let mut g = BinsGenerator::new(space, 3, 3);
        let mut ids = Vec::new();
        for _ in 0..11 {
            ids.push(g.next_id().unwrap().value());
        }
        assert_eq!(&ids[9..], &[9, 10], "leftover tail must be 9, 10");
    }

    #[test]
    fn bins_1_behaves_like_random_permutation() {
        let space = IdSpace::new(16).unwrap();
        let mut g = BinsGenerator::new(space, 1, 4);
        let mut seen = HashSet::new();
        for _ in 0..16 {
            assert!(seen.insert(g.next_id().unwrap().value()));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn bins_1_is_random_under_the_same_seed() {
        let space = IdSpace::new(1000).unwrap();
        let mut bins = BinsGenerator::new(space, 1, 9);
        let mut random = crate::algorithms::RandomGenerator::new(space, 9);
        for _ in 0..1000 {
            assert_eq!(bins.next_id().unwrap(), random.next_id().unwrap());
        }
    }

    #[test]
    fn k_equal_m_is_deterministic_after_single_bin_choice() {
        let space = IdSpace::new(12).unwrap();
        let mut g = BinsGenerator::new(space, 12, 5);
        let ids: Vec<u128> = (0..12).map(|_| g.next_id().unwrap().value()).collect();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn bin_choice_is_uniform() {
        let space = IdSpace::new(40).unwrap(); // 4 bins of 10
        let mut counts = [0u32; 4];
        let trials = 80_000;
        for seed in 0..trials {
            let mut g = BinsGenerator::new(space, 10, seed);
            let first = g.next_id().unwrap().value();
            counts[(first / 10) as usize] += 1;
        }
        let expected = trials as f64 / 4.0;
        for (bin, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bin {bin}: dev {dev:.3}");
        }
    }

    #[test]
    fn skip_matches_materialized_emission() {
        let space = IdSpace::new(1 << 16).unwrap();
        let mut a = BinsGenerator::new(space, 64, 6);
        let mut b = BinsGenerator::new(space, 64, 6);
        a.skip(1000).unwrap();
        for _ in 0..1000 {
            b.next_id().unwrap();
        }
        assert_eq!(a.generated(), b.generated());
        match (a.footprint(), b.footprint()) {
            (Footprint::Arcs(sa), Footprint::Arcs(sb)) => {
                assert_eq!(sa.measure(), 1000);
                assert_eq!(sa.intersection_measure_set(sb), 1000);
            }
            _ => panic!("arc footprints expected"),
        }
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
    }

    #[test]
    fn skip_through_leftovers_then_exhausts() {
        let space = IdSpace::new(10).unwrap(); // 3 bins of 3 + leftover {9}
        let mut g = BinsGenerator::new(space, 3, 7);
        g.skip(10).unwrap();
        assert_eq!(g.generated(), 10);
        assert!(matches!(g.skip(1), Err(GeneratorError::Exhausted { .. })));
    }

    #[test]
    fn footprint_segments_stay_compact() {
        let space = IdSpace::new(1 << 20).unwrap();
        let k = 1 << 10;
        let mut g = BinsGenerator::new(space, k, 8);
        g.skip(100 * k).unwrap();
        match g.footprint() {
            Footprint::Arcs(set) => {
                assert_eq!(set.measure(), 100 * k);
                assert!(
                    set.segment_count() <= 100,
                    "at most one segment per opened bin"
                );
            }
            _ => panic!(),
        }
    }
}
