//! Property tests for crash-recovery semantics (`uuidp_core::persist`).
//!
//! The write-ahead reservation contract, per algorithm: snapshot a
//! running generator with a reservation window `R`, let the "process"
//! emit up to `R` further IDs (the crash can land mid-run, mid-bin,
//! mid-session — anywhere in the window), then recover. The recovered
//! instance must
//!
//! 1. never re-emit any ID emitted before the crash, and
//! 2. continue the seed's exact permutation from the reservation
//!    frontier (recovery is a *skip*, not a re-seed — the effective
//!    instance count `n` does not grow),
//!
//! with the record round-tripped through the on-disk store so the
//! codec, checksums, and atomic-replace path are all under test.

use std::collections::HashSet;

use proptest::prelude::*;

use uuidp::core::algorithms::AlgorithmKind;
use uuidp::core::id::IdSpace;
use uuidp::core::persist::{recover, SnapshotRecord, SnapshotStore};

/// The five paper algorithms, the Cluster★ growth and Bins★ max-fit
/// ablations, and the RocksDB-shaped SessionCounter (every kind with a
/// snapshot record), over universes small enough to stress structure
/// but big enough that ~1k-ID workloads never exhaust.
fn suite() -> Vec<(AlgorithmKind, IdSpace)> {
    let space = IdSpace::new(1 << 16).unwrap();
    vec![
        (AlgorithmKind::Random, space),
        (AlgorithmKind::Cluster, space),
        (AlgorithmKind::Bins { k: 16 }, space),
        (AlgorithmKind::ClusterStar, space),
        (AlgorithmKind::ClusterStarGrowth { growth: 3 }, space),
        (AlgorithmKind::BinsStar, space),
        (AlgorithmKind::BinsStarMaxFit, space),
        (
            AlgorithmKind::SessionCounter {
                session_bits: 10,
                counter_bits: 6,
            },
            IdSpace::with_bits(16).unwrap(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_never_reemits_and_resumes_the_exact_stream(
        seed in any::<u64>(),
        pre in 0u128..300,
        reservation in 1u128..400,
        extra_raw in any::<u128>(),
        post in 1u128..300,
    ) {
        // The crash point: anywhere inside the reserved window,
        // including its edges (0 = crash right after persisting,
        // `reservation` = the process used its whole window).
        let extra = extra_raw % (reservation + 1);
        let store_dir = std::env::temp_dir().join(format!(
            "uuidp-proptest-recovery-{}",
            std::process::id()
        ));
        let stores = [false, true].map(|sync| {
            SnapshotStore::with_sync(store_dir.join(format!("sync-{sync}")), sync).unwrap()
        });

        for (tenant, (kind, space)) in suite().into_iter().enumerate() {
            let alg = kind.build(space);
            let mut gen = alg.spawn(seed);
            let mut pre_crash: HashSet<u128> = HashSet::new();
            for _ in 0..pre {
                pre_crash.insert(gen.next_id().unwrap().value());
            }
            let record = SnapshotRecord {
                seq: 1,
                epoch: 0,
                reservation,
                space,
                state: gen.snapshot().expect("paper algorithms snapshot"),
            };
            // Crash mid-window: these IDs went out the door but were
            // never persisted anywhere.
            for _ in 0..extra {
                pre_crash.insert(gen.next_id().unwrap().value());
            }

            // Round-trip the record through a store with sync off and
            // one with sync on before recovering.
            let mut loaded = Vec::new();
            for store in &stores {
                store.save(tenant as u64, &record).unwrap();
                loaded.push(store.load(tenant as u64).unwrap().expect("just saved"));
            }
            prop_assert_eq!(&loaded, &[record.clone(), record], "{:?}: store round-trip", kind);

            let mut recovered = recover(&loaded[1]).unwrap();
            prop_assert_eq!(
                recovered.generated(),
                pre + reservation,
                "{:?}: recovery must land on the reservation frontier",
                kind
            );
            let mut reference = alg.spawn(seed);
            reference.skip(pre + reservation).unwrap();
            for step in 0..post {
                let id = recovered.next_id().unwrap();
                prop_assert_eq!(
                    id,
                    reference.next_id().unwrap(),
                    "{:?}: diverged from the seed's permutation at step {}",
                    kind,
                    step
                );
                prop_assert!(
                    !pre_crash.contains(&id.value()),
                    "{:?}: re-emitted pre-crash ID {} at step {}",
                    kind,
                    id,
                    step
                );
            }
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}

/// Exhaustion edge: when the reservation reaches past the universe,
/// recovery must yield an exhausted generator, never wrap or reuse.
#[test]
fn recovery_past_capacity_is_exhausted_for_every_algorithm() {
    let space = IdSpace::new(512).unwrap();
    for kind in [
        AlgorithmKind::Random,
        AlgorithmKind::Cluster,
        AlgorithmKind::Bins { k: 8 },
    ] {
        let alg = kind.build(space);
        let mut gen = alg.spawn(3);
        for _ in 0..100 {
            gen.next_id().unwrap();
        }
        let record = SnapshotRecord {
            seq: 1,
            epoch: 0,
            reservation: 10_000,
            space,
            state: gen.snapshot().unwrap(),
        };
        let mut recovered = recover(&record).unwrap();
        assert!(
            recovered.next_id().is_err(),
            "{kind:?}: over-reserved recovery must exhaust, not reuse"
        );
    }
}
