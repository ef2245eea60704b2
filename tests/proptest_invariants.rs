//! Property-based tests on the core data structures and the paper's
//! auxiliary lemmas.

use std::collections::HashSet;

use proptest::prelude::*;

use uuidp_adversary::profile::{prev_power_of_two, DemandProfile};
use uuidp_analysis::inequalities::{lemma13_bounds, lemma15_compare, lemma21_sides};
use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::{Arc, IntervalSet};
use uuidp_core::permute::KeyedPermutation;

// ---------------------------------------------------------------------
// IntervalSet vs a naive HashSet model.
// ---------------------------------------------------------------------

fn arcs_strategy(m: u128) -> impl Strategy<Value = Vec<(u128, u128)>> {
    prop::collection::vec((0..m, 1..=m / 2), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn interval_set_matches_naive_model(arcs in arcs_strategy(96)) {
        let m = 96u128;
        let space = IdSpace::new(m).unwrap();
        let mut set = IntervalSet::new(space);
        let mut model: HashSet<u128> = HashSet::new();
        for (start, len) in arcs {
            let arc = Arc::new(space, Id(start), len);
            set.insert(arc);
            for i in 0..len {
                model.insert((start + i) % m);
            }
            set.assert_invariants();
        }
        prop_assert_eq!(set.measure(), model.len() as u128);
        for v in 0..m {
            prop_assert_eq!(set.contains(Id(v)), model.contains(&v), "id {}", v);
        }
        // Gaps complement the set exactly.
        let gap_total: u128 = set.gaps().iter().map(|g| g.len).sum();
        prop_assert_eq!(gap_total, m - model.len() as u128);
        // Fitting starts agree with brute force for a few lengths.
        for len in [1u128, 3, 10] {
            let brute = (0..m)
                .filter(|&x| !set.intersects_arc(Arc::new(space, Id(x), len)))
                .count() as u128;
            prop_assert_eq!(set.count_fitting_starts(len), brute, "len {}", len);
        }
    }

    #[test]
    fn interval_intersection_matches_model(
        arcs_a in arcs_strategy(64),
        arcs_b in arcs_strategy(64),
    ) {
        let m = 64u128;
        let space = IdSpace::new(m).unwrap();
        let build = |arcs: &[(u128, u128)]| {
            let mut set = IntervalSet::new(space);
            let mut model = HashSet::new();
            for &(start, len) in arcs {
                set.insert(Arc::new(space, Id(start), len));
                for i in 0..len {
                    model.insert((start + i) % m);
                }
            }
            (set, model)
        };
        let (sa, ma) = build(&arcs_a);
        let (sb, mb) = build(&arcs_b);
        let expected: u128 = ma.intersection(&mb).count() as u128;
        prop_assert_eq!(sa.intersection_measure_set(&sb), expected);
        prop_assert_eq!(sa.intersects_set(&sb), expected > 0);
    }

    // -----------------------------------------------------------------
    // The keyed permutation is injective into [n] at large n (every
    // n ≤ 1024 is checked exhaustively in `uuidp_core::permute`).
    // -----------------------------------------------------------------

    #[test]
    fn keyed_permutation_is_injective_at_large_n(
        bits in 11u32..=127,
        below in any::<u128>(),
        start in any::<u128>(),
        seed in any::<u64>(),
    ) {
        // n is uniform over (2^(bits−1), 2^bits], so every network width
        // and both ends of its cycle-walking range come up.
        let n = (1u128 << (bits - 1)) + below % (1u128 << (bits - 1)) + 1;
        let pi = KeyedPermutation::new(n, seed);
        let from = start % (n - 256);
        let mut seen = HashSet::new();
        for i in from..from + 256 {
            let x = pi.at(i);
            prop_assert!(x < n);
            prop_assert!(seen.insert(x));
        }
    }

    // -----------------------------------------------------------------
    // Generators never repeat within an instance (beyond unit tests:
    // arbitrary seeds and demands).
    // -----------------------------------------------------------------

    #[test]
    fn generators_never_repeat(seed in any::<u64>(), demand in 1u128..300) {
        let space = IdSpace::new(1 << 14).unwrap();
        for kind in [
            AlgorithmKind::Random,
            AlgorithmKind::Cluster,
            AlgorithmKind::Bins { k: 32 },
            AlgorithmKind::ClusterStar,
            AlgorithmKind::BinsStar,
        ] {
            let alg = kind.build(space);
            let mut gen = alg.spawn(seed);
            let mut seen = HashSet::new();
            for _ in 0..demand {
                match gen.next_id() {
                    Ok(id) => prop_assert!(seen.insert(id), "{} repeated", alg.name()),
                    Err(_) => break,
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Snapshot/resume: arbitrary split points across all algorithms.
    // -----------------------------------------------------------------

    #[test]
    fn snapshot_resume_is_exact_at_any_point(
        seed in any::<u64>(),
        before in 0u128..150,
        after in 1u128..150,
    ) {
        let space = IdSpace::new(1 << 14).unwrap();
        for kind in [
            AlgorithmKind::Random,
            AlgorithmKind::Cluster,
            AlgorithmKind::Bins { k: 32 },
            AlgorithmKind::ClusterStar,
            AlgorithmKind::BinsStar,
        ] {
            let alg = kind.build(space);
            let mut original = alg.spawn(seed);
            let mut ok = true;
            for _ in 0..before {
                if original.next_id().is_err() {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue; // exhausted before the split; nothing to check
            }
            let snap = original.snapshot().expect("suite supports snapshots");
            let mut resumed = uuidp_core::state::restore(space, &snap).unwrap();
            prop_assert_eq!(resumed.generated(), original.generated());
            for _ in 0..after {
                let a = original.next_id();
                let b = resumed.next_id();
                match (&a, &b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "{} diverged", alg.name()),
                    (Err(_), Err(_)) => break,
                    _ => prop_assert!(false, "{}: exhaustion mismatch", alg.name()),
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Profile machinery.
    // -----------------------------------------------------------------

    #[test]
    fn rounding_is_idempotent_and_dominated(demands in prop::collection::vec(1u128..10_000, 2..10)) {
        let p = DemandProfile::new(demands);
        let r = p.rounded();
        // Idempotent.
        prop_assert_eq!(r.rounded(), r.clone());
        // Every rounded entry is a power of two not exceeding the original.
        for (orig, rounded) in p.demands().iter().zip(r.demands()) {
            prop_assert!(rounded.is_power_of_two());
            prop_assert!(rounded <= orig);
        }
        // Rank distribution counts all instances.
        let total: u128 = r.rank_distribution().iter().sum();
        prop_assert_eq!(total, r.n() as u128);
    }

    #[test]
    fn prev_power_of_two_brackets(d in 1u128..u64::MAX as u128) {
        let p = prev_power_of_two(d);
        prop_assert!(p.is_power_of_two());
        prop_assert!(p <= d);
        prop_assert!(d < p * 2);
    }

    // -----------------------------------------------------------------
    // The paper's auxiliary lemmas on random inputs.
    // -----------------------------------------------------------------

    #[test]
    fn lemma21_inequality_holds(x in 0u128..100_000, y in 0u128..100_000) {
        let (lhs, rhs) = lemma21_sides(x, y);
        prop_assert!(lhs <= rhs + 1e-6, "x={} y={}: {} > {}", x, y, lhs, rhs);
    }

    #[test]
    fn lemma13_bounds_are_ordered(probs in prop::collection::vec(0.0f64..0.4, 1..10)) {
        let (lo, hi) = lemma13_bounds(&probs);
        prop_assert!(lo <= hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
    }

    #[test]
    fn lemma15_uniform_maximizes(weights in prop::collection::vec(0.05f64..1.0, 3..8), n in 2usize..4) {
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let (uniform, given) = lemma15_compare(n, &probs);
        prop_assert!(uniform >= given - 1e-9, "uniform {} < given {}", uniform, given);
    }
}
