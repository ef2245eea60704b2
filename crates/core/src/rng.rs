//! Deterministic random number generation.
//!
//! Everything in this repository — generators, adversaries, Monte-Carlo
//! trials — must be exactly reproducible from a single `u64` seed, so that
//! experiments can be re-run and failures can be replayed. We therefore ship
//! our own small, well-known PRNGs (SplitMix64 for seed derivation,
//! xoshiro256++ for bulk generation) rather than depending on `StdRng`,
//! whose algorithm is explicitly unspecified and has changed across `rand`
//! releases. Both implement [`rand::RngCore`] so they compose with the
//! wider `rand` ecosystem.
//!
//! None of this is cryptographic. The paper's adversary knows the algorithm
//! but not the random bits; for the *simulation* of that game a fast
//! statistical PRNG is the right tool. A production deployment of these
//! algorithms should use an OS CSPRNG for the random draws (see the crate
//! docs), which changes nothing about the analysis.

use rand::RngCore;

/// SplitMix64: the standard 64-bit seed expander (Steele, Lea, Flood 2014).
///
/// Used to derive independent child seeds from a master seed — e.g. one seed
/// per instance per Monte-Carlo trial — without any correlation between
/// children. Also a perfectly serviceable (if small-state) RNG by itself.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. All 2⁶⁴ seeds are valid.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_value(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_value() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_value()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }
}

/// xoshiro256++ 1.0 (Blackman, Vigna 2019): the workhorse generator.
///
/// 256 bits of state, excellent statistical quality, a few nanoseconds per
/// draw. Seeded through SplitMix64 as its authors recommend, so any `u64`
/// seed yields a well-mixed initial state (the all-zero state is unreachable
/// this way).
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [
            sm.next_value(),
            sm.next_value(),
            sm.next_value(),
            sm.next_value(),
        ];
        Xoshiro256pp { s }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_value(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 128 random bits.
    #[inline]
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_value() as u128) << 64) | self.next_value() as u128
    }
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_value() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_value()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        fill_bytes_via_u64(self, dest);
    }
}

fn fill_bytes_via_u64<R: RngCore>(rng: &mut R, dest: &mut [u8]) {
    let mut chunks = dest.chunks_exact_mut(8);
    for chunk in &mut chunks {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let bytes = rng.next_u64().to_le_bytes();
        rem.copy_from_slice(&bytes[..rem.len()]);
    }
}

/// Samples a uniform integer in `[0, bound)` by 128-bit rejection sampling.
///
/// Uses the classic "zone" method: draw 128 bits, accept if below the
/// largest multiple of `bound` that fits in a `u128`. The acceptance
/// probability is at least 1/2, so the expected number of draws is < 2.
///
/// # Panics
///
/// Panics if `bound == 0`.
#[inline]
pub fn uniform_below(rng: &mut Xoshiro256pp, bound: u128) -> u128 {
    assert!(bound > 0, "uniform_below requires a positive bound");
    if bound.is_power_of_two() {
        return rng.next_u128() & (bound - 1);
    }
    // Largest multiple of `bound` representable in u128.
    let zone = u128::MAX - (u128::MAX % bound + 1) % bound;
    loop {
        let x = rng.next_u128();
        if x <= zone {
            return x % bound;
        }
    }
}

/// Derives a stream of independent child seeds from a master seed.
///
/// The derivation mixes a *domain tag* so that e.g. "seed for instance 3 of
/// trial 7" and "seed for the adversary of trial 7" can never coincide.
#[derive(Debug, Clone)]
pub struct SeedTree {
    master: u64,
}

/// Domains for [`SeedTree`] derivation; each consumer of randomness gets its
/// own domain so seeds never collide across roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedDomain {
    /// Seed for the `i`-th algorithm instance of a trial.
    Instance(u64),
    /// Seed for the adversary of a trial.
    Adversary,
    /// Seed for workload generation.
    Workload,
    /// Free-form auxiliary domain.
    Aux(u64),
}

impl SeedTree {
    /// A seed tree rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedTree { master }
    }

    /// The subtree for Monte-Carlo trial `trial`.
    pub fn trial(&self, trial: u64) -> SeedTree {
        let mut sm = SplitMix64::new(self.master ^ 0xA076_1D64_78BD_642F);
        let a = sm.next_value();
        SeedTree {
            master: mix(a, trial),
        }
    }

    /// The leaf seed for `domain` within this subtree.
    pub fn seed(&self, domain: SeedDomain) -> u64 {
        let (tag, idx) = match domain {
            SeedDomain::Instance(i) => (0x01, i),
            SeedDomain::Adversary => (0x02, 0),
            SeedDomain::Workload => (0x03, 0),
            SeedDomain::Aux(i) => (0x04, i),
        };
        mix(
            self.master ^ (tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            idx,
        )
    }

    /// Convenience: a ready-to-use RNG for `domain`.
    pub fn rng(&self, domain: SeedDomain) -> Xoshiro256pp {
        Xoshiro256pp::new(self.seed(domain))
    }
}

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut sm = SplitMix64::new(a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    sm.next_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_value()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_value()).collect();
        assert_eq!(xs, ys);
        // Known first output for seed 0 per the reference implementation.
        let mut z = SplitMix64::new(0);
        assert_eq!(z.next_value(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro_different_seeds_diverge() {
        let mut a = Xoshiro256pp::new(1);
        let mut b = Xoshiro256pp::new(2);
        let same = (0..16).filter(|_| a.next_value() == b.next_value()).count();
        assert!(same <= 1, "streams from different seeds should diverge");
    }

    #[test]
    fn uniform_below_respects_bound() {
        let mut rng = Xoshiro256pp::new(7);
        for bound in [
            1u128,
            2,
            3,
            7,
            20,
            1 << 20,
            (1 << 64) + 12345,
            u128::MAX / 3,
        ] {
            for _ in 0..200 {
                assert!(uniform_below(&mut rng, bound) < bound);
            }
        }
    }

    #[test]
    fn uniform_below_power_of_two_fast_path() {
        let mut rng = Xoshiro256pp::new(11);
        for _ in 0..1000 {
            assert!(uniform_below(&mut rng, 1) == 0);
            assert!(uniform_below(&mut rng, 16) < 16);
        }
    }

    #[test]
    fn uniform_below_is_roughly_uniform() {
        let mut rng = Xoshiro256pp::new(13);
        let bound = 10u128;
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[uniform_below(&mut rng, bound) as usize] += 1;
        }
        let expected = n as f64 / 10.0;
        for (digit, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "digit {digit} count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn seed_tree_domains_are_distinct() {
        let tree = SeedTree::new(99);
        let t0 = tree.trial(0);
        let t1 = tree.trial(1);
        let seeds = [
            t0.seed(SeedDomain::Instance(0)),
            t0.seed(SeedDomain::Instance(1)),
            t0.seed(SeedDomain::Adversary),
            t0.seed(SeedDomain::Workload),
            t1.seed(SeedDomain::Instance(0)),
            t1.seed(SeedDomain::Adversary),
        ];
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "seeds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn seed_tree_is_reproducible() {
        let a = SeedTree::new(5).trial(3).seed(SeedDomain::Instance(2));
        let b = SeedTree::new(5).trial(3).seed(SeedDomain::Instance(2));
        assert_eq!(a, b);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Xoshiro256pp::new(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
