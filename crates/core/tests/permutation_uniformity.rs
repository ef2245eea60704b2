//! Chi-square tests of the keyed permutation against a uniform one.
//!
//! Random's first IDs are `π(0), π(1), …` and Bins(k)'s first bins the
//! same over its bins, so the collision probabilities the paper
//! analyses depend on the joint law of a short prefix of `π` across
//! seeds. Each case draws that prefix under 10⁶ consecutive seeds at a
//! small `n` (where cycle-walking and the even-permutation constraint
//! of a Feistel network bite hardest) and checks Pearson's statistic
//! against the upper 10⁻³ point of its chi-square law. The seeds are
//! fixed, so the outcome is deterministic.

use uuidp_core::permute::KeyedPermutation;

const SEEDS: u64 = 1_000_000;

/// The upper 10⁻³ point of the chi-square law with `df` degrees of
/// freedom, by the Wilson–Hilferty cube-root normal approximation
/// (within 1 % of the exact point for `df ≥ 19`).
fn critical(df: usize) -> f64 {
    const Z: f64 = 3.090_232; // upper 10⁻³ point of N(0, 1)
    let a = 2.0 / (9.0 * df as f64);
    df as f64 * (1.0 - a + Z * a.sqrt()).powi(3)
}

/// Pearson's statistic for `counts` against equal expected counts.
fn chi_square(counts: &[u64]) -> f64 {
    let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - expected).powi(2) / expected)
        .sum()
}

fn assert_uniform(case: &str, counts: &[u64]) {
    let (stat, df) = (chi_square(counts), counts.len() - 1);
    println!("{case}: chi-square {stat:.1} on {df} df");
    assert!(
        stat <= critical(df),
        "{case}: chi-square {stat:.1} on {df} df exceeds the 1e-3 point {:.1}",
        critical(df)
    );
}

#[test]
fn ordered_first_pairs_are_uniform() {
    for n in [6u128, 8, 16, 20] {
        // One cell per ordered pair of distinct values.
        let mut counts = vec![0u64; (n * (n - 1)) as usize];
        for seed in 0..SEEDS {
            let pi = KeyedPermutation::new(n, seed);
            let (a, b) = (pi.at(0), pi.at(1));
            counts[(a * (n - 1) + b - u128::from(b > a)) as usize] += 1;
        }
        assert_uniform(&format!("first pairs at n = {n}"), &counts);
    }
}

#[test]
fn unordered_prefix_sets_are_uniform() {
    for (n, d) in [(6u128, 3u128), (10, 4), (16, 5)] {
        let mut counts = vec![0u64; 1 << n];
        for seed in 0..SEEDS {
            let pi = KeyedPermutation::new(n, seed);
            let set = (0..d).fold(0usize, |set, i| set | 1 << pi.at(i));
            counts[set] += 1;
        }
        let sets: Vec<u64> = (0..counts.len())
            .filter(|set| set.count_ones() as u128 == d)
            .map(|set| counts[set])
            .collect();
        assert_eq!(
            sets.iter().sum::<u64>(),
            SEEDS,
            "(n, d) = ({n}, {d}): a prefix repeated an element"
        );
        assert_uniform(&format!("prefix sets at (n, d) = ({n}, {d})"), &sets);
    }
}
