//! **Bins★** — optimal competitive ratio, `O(log m)`, in both the oblivious
//! and adaptive settings (Theorems 9–11).
//!
//! > *Algorithm Bins★: partition the ID space into `O(log m)` chunks and
//! > partition the `i`-th chunk into bins of `2^(i−1)` IDs each. Pick a
//! > uniformly random bin of size 1, then of size 2, then of size 4, and so
//! > on, always returning all IDs of a bin in increasing order before
//! > moving on to a bin of twice the size.*
//!
//! Section 7.1 fixes the geometry: the number of chunks is
//! `C = ⌈log m − log log m⌉`, each chunk has `2^(C−1)` IDs, and chunk `i`
//! is split into `2^(C−i)` bins of size `2^(i−1)`. This fits because
//! `C · 2^(C−1) ≤ m`.
//!
//! The point of the layout is that instances with similar loads draw most
//! of their IDs from the same *region* of `[m]`: a low-demand instance only
//! ever occupies small-bin chunks, so it can only collide with a few IDs of
//! a high-demand instance — which is what drives the `O(log m)` competitive
//! ratio on skewed profiles where Cluster loses a `Θ(d)` factor.
//!
//! Bins★ does not specify what happens after the last chunk's bin is
//! exhausted (the analysis only covers demand below `m / log m`); we report
//! [`GeneratorError::Exhausted`].

use super::AlgorithmKind;
use crate::id::{Id, IdSpace};
use crate::interval::{Arc, IntervalSet};
use crate::rng::{uniform_below, Xoshiro256pp};
use crate::state::GeneratorState;
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// How the number of chunks `C` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkRule {
    /// The paper's Section 7.1 formula `C = ⌈log m − log log m⌉`.
    #[default]
    PaperFormula,
    /// The largest `C` with `C · 2^(C−1) ≤ m`. Uses more of the universe
    /// and serves about twice the demand per instance; the paper's own
    /// `m = 32` illustration implicitly uses this variant (8 requests need
    /// `C = 4`, the formula gives `C = 3`). The competitive-ratio analysis
    /// holds for either choice, since `2^C = Ω(m / log m)` in both.
    MaxFit,
}

/// The chunk/bin layout of Bins★ over a universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinsStarGeometry {
    /// Number of chunks `C`.
    pub chunks: u32,
    /// IDs per chunk, `2^(C−1)`.
    pub chunk_size: u128,
}

impl BinsStarGeometry {
    /// Computes the layout for `space` under `rule`.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` (a one-ID universe has no meaningful layout).
    pub fn compute(space: IdSpace, rule: ChunkRule) -> Self {
        let m = space.size();
        assert!(m >= 2, "Bins* requires a universe of at least 2 IDs");
        let chunks = match rule {
            ChunkRule::PaperFormula => {
                let l = (m as f64).log2();
                let c = (l - l.log2()).ceil();
                let mut c = if c < 1.0 { 1 } else { c as u32 };
                // Guard against f64 edge cases: shrink until the layout fits.
                while c > 1 && !fits(c, m) {
                    c -= 1;
                }
                c
            }
            ChunkRule::MaxFit => {
                let mut c = 1u32;
                while c < 127 && fits(c + 1, m) {
                    c += 1;
                }
                c
            }
        };
        assert!(fits(chunks, m), "chunk layout must fit in the universe");
        BinsStarGeometry {
            chunks,
            chunk_size: 1u128 << (chunks - 1),
        }
    }

    /// First ID of chunk `i` (1-based).
    pub fn chunk_start(&self, i: u32) -> u128 {
        debug_assert!(i >= 1 && i <= self.chunks);
        (i as u128 - 1) * self.chunk_size
    }

    /// Bin size within chunk `i` (1-based): `2^(i−1)`.
    pub fn bin_size(&self, i: u32) -> u128 {
        debug_assert!(i >= 1 && i <= self.chunks);
        1u128 << (i - 1)
    }

    /// Number of bins in chunk `i` (1-based): `2^(C−i)`.
    pub fn bins_in_chunk(&self, i: u32) -> u128 {
        debug_assert!(i >= 1 && i <= self.chunks);
        1u128 << (self.chunks - i)
    }

    /// Total IDs one instance can serve: `2^C − 1`.
    pub fn capacity(&self) -> u128 {
        (1u128 << self.chunks) - 1
    }
}

fn fits(c: u32, m: u128) -> bool {
    c < 127 && (c as u128).saturating_mul(1u128 << (c - 1)) <= m
}

/// Factory for [`BinsStarGenerator`] instances.
#[derive(Debug, Clone)]
pub struct BinsStar {
    space: IdSpace,
    rule: ChunkRule,
}

impl BinsStar {
    /// Bins★ over `space` with the paper's chunk formula.
    pub fn new(space: IdSpace) -> Self {
        Self::with_rule(space, ChunkRule::PaperFormula)
    }

    /// Bins★ over `space` with an explicit chunk rule.
    pub fn with_rule(space: IdSpace, rule: ChunkRule) -> Self {
        BinsStar { space, rule }
    }
}

impl Algorithm for BinsStar {
    fn name(&self) -> String {
        "bins*".to_owned()
    }

    fn space(&self) -> IdSpace {
        self.space
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(BinsStarGenerator::with_rule(self.space, self.rule, seed))
    }
}

/// One instance of Bins★.
///
/// The emitted footprint is lazy, like Cluster★'s: emitting only
/// advances the open bin's counter; the emitted prefix is folded into
/// the interval set when the bin closes or on
/// [`IdGenerator::footprint`].
#[derive(Debug)]
pub struct BinsStarGenerator {
    space: IdSpace,
    rule: ChunkRule,
    geometry: BinsStarGeometry,
    seed: u64,
    rng: Xoshiro256pp,
    /// 1-based index of the *next* chunk to open a bin in.
    next_chunk: u32,
    /// The bin currently being emitted: `(bin, ids out, ids flushed)`.
    current: Option<(Arc, u128, u128)>,
    /// Chosen bins in order (diagnostics / adversaries).
    bins: Vec<Arc>,
    emitted: IntervalSet,
    generated: u128,
}

impl BinsStarGenerator {
    /// A fresh instance over `space` (paper chunk formula), seeded.
    pub fn new(space: IdSpace, seed: u64) -> Self {
        Self::with_rule(space, ChunkRule::PaperFormula, seed)
    }

    /// A fresh instance with an explicit chunk rule.
    pub fn with_rule(space: IdSpace, rule: ChunkRule, seed: u64) -> Self {
        BinsStarGenerator {
            space,
            rule,
            geometry: BinsStarGeometry::compute(space, rule),
            seed,
            rng: Xoshiro256pp::new(seed),
            next_chunk: 1,
            current: None,
            bins: Vec::new(),
            emitted: IntervalSet::new(space),
            generated: 0,
        }
    }

    /// The bins chosen so far, in choice order.
    pub fn bins(&self) -> &[Arc] {
        &self.bins
    }

    /// Folds the open bin's unflushed emitted prefix into `emitted`.
    fn flush(&mut self) {
        if let Some((bin, used, flushed)) = &mut self.current {
            if *used > *flushed {
                let first = self.space.add(bin.start, *flushed);
                self.emitted
                    .insert(Arc::new(self.space, first, *used - *flushed));
                *flushed = *used;
            }
        }
    }

    /// Opens the uniform random bin of the next chunk.
    fn open_next_bin(&mut self) -> Result<Arc, GeneratorError> {
        if self.next_chunk > self.geometry.chunks {
            return Err(GeneratorError::Exhausted {
                generated: self.generated,
            });
        }
        self.flush(); // retire the finished bin before replacing it
        let i = self.next_chunk;
        let b = uniform_below(&mut self.rng, self.geometry.bins_in_chunk(i));
        let start = self.geometry.chunk_start(i) + b * self.geometry.bin_size(i);
        let bin = Arc::new(self.space, Id(start), self.geometry.bin_size(i));
        self.bins.push(bin);
        self.current = Some((bin, 0, 0));
        self.next_chunk += 1;
        Ok(bin)
    }

    /// Emits the next `count` IDs to `sink`, one arc per touched bin,
    /// opening bins as the walk reaches them.
    fn walk(&mut self, mut count: u128, mut sink: impl FnMut(Arc)) -> Result<(), GeneratorError> {
        while count > 0 {
            let (bin, used) = match self.current {
                Some((bin, used, _)) if used < bin.len => (bin, used),
                _ => (self.open_next_bin()?, 0),
            };
            let take = count.min(bin.len - used);
            // A literal, as in Cluster★'s walk: 1 ≤ take ≤ bin.len holds
            // by construction.
            sink(Arc {
                start: self.space.add(bin.start, used),
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

impl IdGenerator for BinsStarGenerator {
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
        self.next_chunk = 1;
        self.current = None;
        self.bins.clear();
        self.emitted.clear();
        self.generated = 0;
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        Some(GeneratorState {
            kind: match self.rule {
                ChunkRule::PaperFormula => AlgorithmKind::BinsStar,
                ChunkRule::MaxFit => AlgorithmKind::BinsStarMaxFit,
            },
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
    fn paper_formula_geometry_examples() {
        // m = 32: C = ⌈5 − log₂5⌉ = ⌈2.678⌉ = 3, chunk size 4.
        let g = BinsStarGeometry::compute(IdSpace::new(32).unwrap(), ChunkRule::PaperFormula);
        assert_eq!(g.chunks, 3);
        assert_eq!(g.chunk_size, 4);
        assert_eq!(g.capacity(), 7);
        // m = 2^20: C = ⌈20 − log₂20⌉ = ⌈15.678⌉ = 16.
        let g = BinsStarGeometry::compute(IdSpace::with_bits(20).unwrap(), ChunkRule::PaperFormula);
        assert_eq!(g.chunks, 16);
        assert!((g.chunks as u128) * g.chunk_size <= 1 << 20);
    }

    #[test]
    fn max_fit_geometry_examples() {
        // m = 32: 4·2³ = 32 fits, 5·2⁴ = 80 does not.
        let g = BinsStarGeometry::compute(IdSpace::new(32).unwrap(), ChunkRule::MaxFit);
        assert_eq!(g.chunks, 4);
        assert_eq!(g.capacity(), 15);
    }

    #[test]
    fn layout_always_fits_universe() {
        for bits in [1u32, 2, 3, 5, 10, 20, 40, 64, 100, 126] {
            let space = IdSpace::with_bits(bits).unwrap();
            for rule in [ChunkRule::PaperFormula, ChunkRule::MaxFit] {
                let g = BinsStarGeometry::compute(space, rule);
                assert!(
                    (g.chunks as u128) * g.chunk_size <= space.size(),
                    "bits={bits} rule={rule:?}"
                );
            }
        }
        // Non-powers of two as well.
        for m in [2u128, 3, 5, 20, 100, 12345, (1 << 30) + 7] {
            let space = IdSpace::new(m).unwrap();
            let g = BinsStarGeometry::compute(space, ChunkRule::PaperFormula);
            assert!((g.chunks as u128) * g.chunk_size <= m, "m={m}");
        }
    }

    #[test]
    fn chunk_layout_indices() {
        let g = BinsStarGeometry {
            chunks: 3,
            chunk_size: 4,
        };
        assert_eq!(g.chunk_start(1), 0);
        assert_eq!(g.chunk_start(2), 4);
        assert_eq!(g.chunk_start(3), 8);
        assert_eq!(g.bin_size(1), 1);
        assert_eq!(g.bin_size(2), 2);
        assert_eq!(g.bin_size(3), 4);
        assert_eq!(g.bins_in_chunk(1), 4);
        assert_eq!(g.bins_in_chunk(2), 2);
        assert_eq!(g.bins_in_chunk(3), 1);
    }

    #[test]
    fn bin_sizes_double_and_live_in_their_chunks() {
        let space = IdSpace::with_bits(16).unwrap();
        let mut g = BinsStarGenerator::new(space, 1);
        let geo = g.geometry;
        let total = 1 + 2 + 4 + 8;
        for _ in 0..total {
            g.next_id().unwrap();
        }
        assert_eq!(g.bins().len(), 4);
        for (idx, bin) in g.bins().iter().enumerate() {
            let chunk = idx as u32 + 1;
            assert_eq!(bin.len, geo.bin_size(chunk));
            let lo = geo.chunk_start(chunk);
            let hi = lo + geo.chunk_size;
            assert!(bin.start.value() >= lo && bin.start.value() + bin.len <= hi);
            // Bins are aligned within their chunk.
            assert_eq!((bin.start.value() - lo) % bin.len, 0);
        }
    }

    #[test]
    fn no_duplicates_up_to_capacity() {
        let space = IdSpace::new(20).unwrap();
        let geo = BinsStarGeometry::compute(space, ChunkRule::PaperFormula);
        let mut g = BinsStarGenerator::new(space, 2);
        let mut seen = HashSet::new();
        for _ in 0..geo.capacity() {
            assert!(seen.insert(g.next_id().unwrap()));
        }
        assert!(matches!(g.next_id(), Err(GeneratorError::Exhausted { .. })));
    }

    #[test]
    fn first_bin_choice_is_uniform() {
        let space = IdSpace::new(32).unwrap();
        // Chunk 1 has 4 bins of size 1 at positions 0..4.
        let mut counts = [0u32; 4];
        let trials = 80_000;
        for seed in 0..trials {
            let mut g = BinsStarGenerator::new(space, seed);
            counts[g.next_id().unwrap().value() as usize] += 1;
        }
        let expected = trials as f64 / 4.0;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bin {b}: dev {dev:.3}");
        }
    }

    #[test]
    fn skip_matches_materialized_emission() {
        let space = IdSpace::with_bits(20).unwrap();
        let mut a = BinsStarGenerator::new(space, 9);
        let mut b = BinsStarGenerator::new(space, 9);
        a.skip(500).unwrap();
        for _ in 0..500 {
            b.next_id().unwrap();
        }
        assert_eq!(a.bins(), b.bins());
        match (a.footprint(), b.footprint()) {
            (Footprint::Arcs(sa), Footprint::Arcs(sb)) => {
                assert_eq!(sa.measure(), 500);
                assert_eq!(sa.intersection_measure_set(sb), 500);
            }
            _ => panic!(),
        }
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
    }

    #[test]
    fn max_fit_serves_the_paper_illustration() {
        // The paper's Bins* illustration: m = 32, 8 requests.
        let space = IdSpace::new(32).unwrap();
        let alg = BinsStar::with_rule(space, ChunkRule::MaxFit);
        let mut g = alg.spawn(3);
        for _ in 0..8 {
            g.next_id().unwrap();
        }
        assert_eq!(g.generated(), 8);
    }
}
