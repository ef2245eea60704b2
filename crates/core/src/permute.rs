//! A keyed pseudorandom permutation of `{0, …, n−1}`, evaluated at any
//! index in O(1) from constant state, for `n` up to 2¹²⁷.
//!
//! Random reveals a uniform permutation of `[m]` one element at a time,
//! and Bins(k) a random permutation of its `⌊m/k⌋` bins, at `m` up to
//! 2¹²⁷. [`KeyedPermutation`] gives the `i`-th element as `π(i)`, so a
//! generator's whole state is its seed plus a counter: `skip` is O(1),
//! a snapshot has a fixed size, and nothing grows with demand.
//!
//! The construction is a balanced Feistel network (Luby and Rackoff,
//! SIAM J. Comput. 1988) over the smallest even-width power of two
//! `4^h ≥ n`, made a permutation of `[n]` by cycle-walking (Black and
//! Rogaway, CT-RSA 2002): encrypt again until the value lands below
//! `n`. Since `4^h < 4n`, a walk takes fewer than four encryptions on
//! average. Each of the [`ROUNDS`] rounds XORs one half with a
//! multiply–xorshift hash of the other half and that round's key; the
//! keys are drawn from the seed.
//!
//! The permutation is pseudorandom, not exactly uniform: a Feistel
//! network on halves of two or more bits generates only even
//! permutations of its block, and the round function is a statistical
//! hash, not a cipher. [`ROUNDS`] is the fewest rounds, at least 12,
//! under which the chi-square suite in `tests/permutation_uniformity.rs`
//! (first pairs and prefix sets at small `n`, 10⁶ seeds per case)
//! passes; 8 rounds fail it.

use crate::rng::Xoshiro256pp;

/// Feistel rounds per encryption.
pub const ROUNDS: usize = 12;

/// A keyed bijection of `{0, …, n−1}`.
#[derive(Debug, Clone)]
pub struct KeyedPermutation {
    n: u128,
    /// Bits per Feistel half: the network permutes `[4^half]`.
    half: u32,
    /// The low `half` bits.
    mask: u64,
    keys: [u64; ROUNDS],
}

impl KeyedPermutation {
    /// The permutation of `{0, …, n−1}` keyed by `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ n ≤ 2¹²⁷`.
    pub fn new(n: u128, seed: u64) -> Self {
        assert!(
            (1..=1 << 127).contains(&n),
            "permutation size {n} outside 1..=2^127"
        );
        let bits = 128 - (n - 1).leading_zeros();
        let half = bits.div_ceil(2);
        let mut rng = Xoshiro256pp::new(seed);
        KeyedPermutation {
            n,
            half,
            mask: ((1u128 << half) - 1) as u64,
            keys: std::array::from_fn(|_| rng.next_value()),
        }
    }

    /// The number of elements permuted, `n`.
    pub fn size(&self) -> u128 {
        self.n
    }

    /// `π(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn at(&self, i: u128) -> u128 {
        assert!(i < self.n, "index {i} outside a permutation of {}", self.n);
        let mut x = self.encrypt(i);
        while x >= self.n {
            x = self.encrypt(x);
        }
        x
    }

    /// One pass of the Feistel network over `[4^half]`.
    fn encrypt(&self, x: u128) -> u128 {
        let mut left = (x >> self.half) as u64;
        let mut right = x as u64 & self.mask;
        for &key in &self.keys {
            (left, right) = (right, left ^ (mix(right ^ key) & self.mask));
        }
        (left as u128) << self.half | right as u128
    }
}

/// The SplitMix64 finalizer: a bijective multiply–xorshift mix of 64
/// bits, every output bit depending on every input bit.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_bijection_for_every_small_n() {
        let mut seen = Vec::new();
        for n in 1..=1024u128 {
            let pi = KeyedPermutation::new(n, n as u64);
            seen.clear();
            seen.resize(n as usize, false);
            for i in 0..n {
                let x = pi.at(i);
                assert!(x < n, "n = {n}: π({i}) = {x} out of range");
                assert!(!seen[x as usize], "n = {n}: {x} appears twice");
                seen[x as usize] = true;
            }
        }
    }

    #[test]
    fn the_network_spans_an_even_width_block() {
        for (n, half) in [
            (1, 0),
            (2, 1),
            (4, 1),
            (5, 2),
            (16, 2),
            (17, 3),
            (1 << 64, 32),
        ] {
            assert_eq!(KeyedPermutation::new(n, 0).half, half, "n = {n}");
        }
        assert_eq!(KeyedPermutation::new(1 << 127, 0).half, 64);
        assert_eq!(KeyedPermutation::new((1 << 126) + 1, 0).half, 64);
    }
}
