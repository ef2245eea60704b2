//! **Cluster★** — nearly optimal in the worst case against *adaptive*
//! adversaries (Theorem 8).
//!
//! > *Algorithm Cluster★: let `run(x, r)` be the sequence
//! > `(x, x+1, …, x+(r−1))` modulo `m`. Repeat the following for
//! > `r = 1, 2, 4, 8, …`: draw `x ∈ [m]` uniformly at random, such that
//! > `run(x, r)` does not collide with previously chosen runs. For the next
//! > `r` requests return the IDs from `run(x, r)`.*
//!
//! The doubling run lengths mean an adversary can only predict a long run
//! of future IDs from an instance if it has already requested about that
//! many IDs from it — which is what caps the damage of adaptivity at a
//! `log(1 + d/n)` factor over the oblivious lower bound:
//! `p ≤ O(min(1, (nd/m)·log(1 + d/n)))`.
//!
//! "Previously chosen runs" means *this instance's own* runs (instances
//! cannot see each other); the conditional draw is implemented exactly by
//! [`IntervalSet::sample_fitting_start`], which is equivalent to rejection
//! sampling but always terminates.
//!
//! Due to fragmentation, an instance may become unable to place its next
//! run; the paper restricts its analysis to at most `m / (2 log m)` requests
//! per instance, which always fit (an instance then opens at most `log m`
//! runs of size at most `m / (2 log m)`). We surface the out-of-space
//! condition as [`GeneratorError::Exhausted`].

use super::AlgorithmKind;
use crate::id::IdSpace;
use crate::interval::{Arc, IntervalSet};
use crate::rng::Xoshiro256pp;
use crate::state::GeneratorState;
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Factory for [`ClusterStarGenerator`] instances.
#[derive(Debug, Clone)]
pub struct ClusterStar {
    space: IdSpace,
    growth: u32,
}

impl ClusterStar {
    /// Cluster★ over the universe `space`, with the paper's doubling runs.
    pub fn new(space: IdSpace) -> Self {
        ClusterStar { space, growth: 2 }
    }

    /// Cluster★ with runs growing by `growth`× instead of doubling — the
    /// ablation knob for the design choice the paper makes implicitly.
    /// Larger growth means fewer runs (less adaptive leakage, closer to
    /// plain Cluster's oblivious performance) but each opened run exposes
    /// more predictable future IDs; `growth = 2` balances the two, which
    /// is what experiment EA2 measures.
    ///
    /// # Panics
    ///
    /// Panics unless `growth ≥ 2`.
    pub fn with_growth(space: IdSpace, growth: u32) -> Self {
        assert!(growth >= 2, "run growth factor must be at least 2");
        ClusterStar { space, growth }
    }

    /// The configured growth factor.
    pub fn growth(&self) -> u32 {
        self.growth
    }

    /// The per-instance demand up to which the paper guarantees runs always
    /// fit: `m / (2·⌈log₂ m⌉)`.
    pub fn guaranteed_capacity(space: IdSpace) -> u128 {
        space.size() / (2 * space.log2_ceil() as u128).max(1)
    }
}

impl Algorithm for ClusterStar {
    fn name(&self) -> String {
        if self.growth == 2 {
            "cluster*".to_owned()
        } else {
            format!("cluster*(x{})", self.growth)
        }
    }

    fn space(&self) -> IdSpace {
        self.space
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(ClusterStarGenerator::with_growth(
            self.space,
            self.growth,
            seed,
        ))
    }
}

/// One instance of Cluster★.
///
/// The emitted footprint is lazy: emitting only advances the open run's
/// counter, and the emitted prefix is folded into `emitted` when a run
/// closes or when [`IdGenerator::footprint`] is called. This makes
/// emission O(1) per ID; the only per-run cost is the placement draw.
#[derive(Debug)]
pub struct ClusterStarGenerator {
    space: IdSpace,
    seed: u64,
    rng: Xoshiro256pp,
    /// Union of all runs this instance has opened (whether fully emitted or
    /// not). New runs must be disjoint from this set.
    reserved: IntervalSet,
    /// The IDs emitted so far, minus the unflushed prefix of the open run.
    emitted: IntervalSet,
    /// The run currently being emitted: `(run, ids out, ids flushed into
    /// emitted)` with `flushed <= used`.
    current: Option<(Arc, u128, u128)>,
    /// Length of the *next* run to open: 1, g, g², … for growth factor g.
    next_len: u128,
    /// Run growth factor (2 in the paper).
    growth: u32,
    /// Starts of the opened runs, in order (diagnostics / adversaries).
    runs: Vec<Arc>,
    generated: u128,
}

impl ClusterStarGenerator {
    /// A fresh instance seeded with `seed` (paper doubling).
    pub fn new(space: IdSpace, seed: u64) -> Self {
        Self::with_growth(space, 2, seed)
    }

    /// A fresh instance with a custom run growth factor.
    pub fn with_growth(space: IdSpace, growth: u32, seed: u64) -> Self {
        assert!(growth >= 2, "run growth factor must be at least 2");
        ClusterStarGenerator {
            space,
            seed,
            rng: Xoshiro256pp::new(seed),
            reserved: IntervalSet::new(space),
            emitted: IntervalSet::new(space),
            current: None,
            next_len: 1,
            growth,
            runs: Vec::new(),
            generated: 0,
        }
    }

    /// The runs opened so far, in opening order.
    pub fn runs(&self) -> &[Arc] {
        &self.runs
    }

    /// The set of IDs reserved by opened runs (a superset of the emitted
    /// set; the gap is the tail of the current run).
    pub fn reserved(&self) -> &IntervalSet {
        &self.reserved
    }

    /// Folds the open run's unflushed emitted prefix into `emitted`.
    fn flush(&mut self) {
        if let Some((run, used, flushed)) = &mut self.current {
            if *used > *flushed {
                let first = self.space.add(run.start, *flushed);
                self.emitted
                    .insert(Arc::new(self.space, first, *used - *flushed));
                *flushed = *used;
            }
        }
    }

    /// Opens the next run (of length `next_len`), returning it.
    fn open_run(&mut self) -> Result<Arc, GeneratorError> {
        let len = self.next_len;
        if len > self.space.size() {
            return Err(GeneratorError::Exhausted {
                generated: self.generated,
            });
        }
        let start = self
            .reserved
            .sample_fitting_start(&mut self.rng, len)
            .ok_or(GeneratorError::Exhausted {
                generated: self.generated,
            })?;
        self.flush(); // retire the finished run before replacing it
        let run = Arc::new(self.space, start, len);
        self.reserved.insert(run);
        self.runs.push(run);
        self.current = Some((run, 0, 0));
        self.next_len = len.saturating_mul(self.growth as u128);
        Ok(run)
    }

    /// Emits the next `count` IDs to `sink`, one arc per touched run,
    /// opening runs as the walk reaches them.
    fn walk(&mut self, mut count: u128, mut sink: impl FnMut(Arc)) -> Result<(), GeneratorError> {
        while count > 0 {
            let (run, used) = match self.current {
                Some((run, used, _)) if used < run.len => (run, used),
                _ => (self.open_run()?, 0),
            };
            let take = count.min(run.len - used);
            // A literal, not `Arc::new`: 1 ≤ take ≤ run.len ≤ m holds by
            // construction, and `skip`'s no-op sink then costs nothing.
            sink(Arc {
                start: self.space.add(run.start, used),
                len: take,
            });
            if let Some((_, u, _)) = &mut self.current {
                *u = used + take;
            }
            self.generated += take;
            count -= take;
        }
        Ok(())
    }
}

impl IdGenerator for ClusterStarGenerator {
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
        self.rng = Xoshiro256pp::new(seed);
        self.reserved.clear();
        self.emitted.clear();
        self.current = None;
        self.next_len = 1;
        self.runs.clear();
        self.generated = 0;
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        Some(GeneratorState {
            kind: match self.growth {
                2 => AlgorithmKind::ClusterStar,
                growth => AlgorithmKind::ClusterStarGrowth { growth },
            },
            seed: self.seed,
            generated: self.generated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;
    use std::collections::HashSet;

    #[test]
    fn run_lengths_double() {
        let space = IdSpace::new(1 << 16).unwrap();
        let mut g = ClusterStarGenerator::new(space, 1);
        for _ in 0..(1 + 2 + 4 + 8 + 16) {
            g.next_id().unwrap();
        }
        let lens: Vec<u128> = g.runs().iter().map(|r| r.len).collect();
        assert_eq!(lens, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn runs_are_pairwise_disjoint() {
        let space = IdSpace::new(1 << 12).unwrap();
        let mut g = ClusterStarGenerator::new(space, 2);
        for _ in 0..500 {
            g.next_id().unwrap();
        }
        let mut seen = HashSet::new();
        for run in g.runs() {
            for i in 0..run.len {
                assert!(
                    seen.insert(run.nth(space, i)),
                    "runs overlap at {:?}",
                    run.nth(space, i)
                );
            }
        }
    }

    #[test]
    fn no_duplicate_ids_emitted() {
        // 300 requests is within the m/(2 log m) = 2048 guarantee for 2^16.
        let space = IdSpace::new(1 << 16).unwrap();
        let mut g = ClusterStarGenerator::new(space, 3);
        let mut seen = HashSet::new();
        for _ in 0..300 {
            assert!(seen.insert(g.next_id().unwrap()));
        }
    }

    #[test]
    fn ids_within_a_run_are_consecutive() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut g = ClusterStarGenerator::new(space, 4);
        let ids: Vec<Id> = (0..31).map(|_| g.next_id().unwrap()).collect();
        // Requests 3..7 (0-based) are the run of length 4.
        let run3 = &ids[3..7];
        for w in run3.windows(2) {
            assert_eq!(w[1], space.next(w[0]));
        }
        // Requests 15..31 are the run of length 16.
        let run5 = &ids[15..31];
        for w in run5.windows(2) {
            assert_eq!(w[1], space.next(w[0]));
        }
    }

    #[test]
    fn guaranteed_capacity_always_fits() {
        // The paper's demand cap m/(2 log m) must never trigger exhaustion.
        for seed in 0..50 {
            let space = IdSpace::new(1 << 12).unwrap();
            let cap = ClusterStar::guaranteed_capacity(space);
            assert!(cap >= 1);
            let mut g = ClusterStarGenerator::new(space, seed);
            for i in 0..cap {
                g.next_id()
                    .unwrap_or_else(|e| panic!("seed {seed}: failed at request {i}: {e}"));
            }
        }
    }

    #[test]
    fn exhaustion_is_reported_not_panicked() {
        let space = IdSpace::new(8).unwrap();
        let mut g = ClusterStarGenerator::new(space, 5);
        let mut produced = 0u128;
        loop {
            match g.next_id() {
                Ok(_) => produced += 1,
                Err(GeneratorError::Exhausted { generated }) => {
                    assert_eq!(generated, produced);
                    break;
                }
            }
            assert!(produced <= 8);
        }
        // Tiny space: at least the runs of lengths 1 and 2 must have fit.
        assert!(produced >= 3, "produced only {produced}");
    }

    #[test]
    fn skip_matches_materialized_emission() {
        let space = IdSpace::new(1 << 14).unwrap();
        let mut a = ClusterStarGenerator::new(space, 6);
        let mut b = ClusterStarGenerator::new(space, 6);
        a.skip(777).unwrap();
        for _ in 0..777 {
            b.next_id().unwrap();
        }
        assert_eq!(a.generated(), b.generated());
        assert_eq!(a.runs(), b.runs());
        match (a.footprint(), b.footprint()) {
            (Footprint::Arcs(sa), Footprint::Arcs(sb)) => {
                assert_eq!(sa.measure(), 777);
                assert_eq!(sa.intersection_measure_set(sb), 777);
            }
            _ => panic!(),
        }
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
    }

    #[test]
    fn emitted_is_subset_of_reserved() {
        let space = IdSpace::new(1 << 10).unwrap();
        let mut g = ClusterStarGenerator::new(space, 7);
        for _ in 0..100 {
            g.next_id().unwrap();
        }
        let emitted = match g.footprint() {
            Footprint::Arcs(s) => s.clone(),
            _ => panic!(),
        };
        assert_eq!(
            emitted.intersection_measure_set(g.reserved()),
            emitted.measure(),
            "every emitted ID must lie in a reserved run"
        );
        // Reserved = all opened runs; emitted = 100 of them.
        assert_eq!(emitted.measure(), 100);
        assert_eq!(
            g.reserved().measure(),
            g.runs().iter().map(|r| r.len).sum::<u128>()
        );
    }

    #[test]
    fn number_of_runs_is_logarithmic() {
        let space = IdSpace::new(1 << 20).unwrap();
        let mut g = ClusterStarGenerator::new(space, 8);
        let d = 10_000u128;
        g.skip(d).unwrap();
        // ⌈log₂(1 + d)⌉ runs suffice for d requests.
        let expected = 128 - d.leading_zeros() as usize + 1;
        assert!(
            g.runs().len() <= expected,
            "{} runs for d = {d}",
            g.runs().len()
        );
    }
}
