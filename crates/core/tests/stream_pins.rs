//! Pins every algorithm's ID stream, so a refactor of any generator
//! cannot silently change which IDs a seed yields.
//!
//! Each case is an algorithm over a universe it accepts, at one seed,
//! and pins three FNV-1a hashes:
//!
//! - the first 300 IDs of `next_id` on a fresh instance;
//! - the arcs a fixed script of `next_ids` leases and `skip`s emits on
//!   another fresh instance, with each call's outcome;
//! - that instance's footprint after the script.
//!
//! A changed hash means a changed stream. A change that means to move
//! a stream says so and re-records the table.

use uuidp_core::algorithms::{AlgorithmKind, SnowflakeConfig};
use uuidp_core::codec::fnv1a;
use uuidp_core::id::IdSpace;
use uuidp_core::traits::{Footprint, GeneratorError, IdGenerator};

/// `(lease, count)`: `next_ids(count)` when `lease`, else `skip(count)`.
const SCRIPT: [(bool, u128); 10] = [
    (true, 1),
    (false, 3),
    (true, 17),
    (true, 64),
    (false, 250),
    (true, 5),
    (false, 1),
    (true, 700),
    (false, 40),
    (true, 129),
];

const SEEDS: [u64; 2] = [1, 0xDEAD_BEEF_CAFE];

/// The cases, in table order: a name and the algorithm with its
/// universe.
fn cases() -> Vec<(&'static str, AlgorithmKind, IdSpace)> {
    let m = IdSpace::new(3_000_000_019).unwrap();
    let snowflake = SnowflakeConfig {
        timestamp_bits: 20,
        worker_bits: 6,
        sequence_bits: 6,
        requests_per_tick: 100,
        max_skew_ticks: 3,
    };
    vec![
        ("random", AlgorithmKind::Random, m),
        ("cluster", AlgorithmKind::Cluster, m),
        ("bins:16", AlgorithmKind::Bins { k: 16 }, m),
        ("cluster*", AlgorithmKind::ClusterStar, m),
        (
            "cluster*:3",
            AlgorithmKind::ClusterStarGrowth { growth: 3 },
            m,
        ),
        ("bins*", AlgorithmKind::BinsStar, m),
        // Over 2^32 the max-fit rule opens 28 chunks and the paper's
        // formula 27; over `m` both open 27.
        (
            "bins*:maxfit",
            AlgorithmKind::BinsStarMaxFit,
            IdSpace::with_bits(32).unwrap(),
        ),
        (
            "session:40,8",
            AlgorithmKind::SessionCounter {
                session_bits: 40,
                counter_bits: 8,
            },
            IdSpace::with_bits(48).unwrap(),
        ),
        ("set-aside", AlgorithmKind::SetAside { i: 64, j: 4096 }, m),
        (
            "snowflake",
            AlgorithmKind::Snowflake(snowflake),
            snowflake.space(),
        ),
    ]
}

fn put(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A call's outcome: 0 for success, else 1 and the exhaustion count.
fn put_result(out: &mut Vec<u8>, result: Result<(), GeneratorError>) {
    match result {
        Ok(()) => out.push(0),
        Err(GeneratorError::Exhausted { generated }) => {
            out.push(1);
            put(out, generated);
        }
    }
}

fn first_ids(g: &mut dyn IdGenerator) -> u64 {
    let mut out = Vec::new();
    for _ in 0..300 {
        match g.next_id() {
            Ok(id) => put(&mut out, id.value()),
            Err(e) => {
                put_result(&mut out, Err(e));
                break;
            }
        }
    }
    fnv1a(&out)
}

fn scripted(g: &mut dyn IdGenerator) -> (u64, u64) {
    let mut arcs = Vec::new();
    for (lease, count) in SCRIPT {
        let result = if lease {
            g.next_ids(count, &mut |arc| {
                put(&mut arcs, arc.start.value());
                put(&mut arcs, arc.len);
            })
        } else {
            g.skip(count)
        };
        put_result(&mut arcs, result);
    }
    put(&mut arcs, g.generated());
    let mut footprint = Vec::new();
    match g.footprint() {
        Footprint::Points(ids) => {
            footprint.push(0);
            for id in ids {
                put(&mut footprint, id.value());
            }
        }
        Footprint::Arcs(set) => {
            footprint.push(1);
            for (lo, hi) in set.segments() {
                put(&mut footprint, lo);
                put(&mut footprint, hi);
            }
        }
    }
    (fnv1a(&arcs), fnv1a(&footprint))
}

/// `(case, seed) → [first 300 IDs, script arcs, footprint]`, recorded
/// from the streams as they were when this test was written.
#[rustfmt::skip]
const PINS: [(&str, u64, [u64; 3]); 20] = [
    ("random", 1, [0xD21E_2432_973E_7256, 0x2170_B1D2_ACA4_E166, 0x7131_DEA3_E312_967D]),
    ("random", 0xDEAD_BEEF_CAFE, [0x0CDC_9263_4E3D_E861, 0x0121_99BE_DCA3_CCC1, 0xE568_72F3_7FED_A237]),
    ("cluster", 1, [0x0C96_3A6B_49D7_A860, 0x5452_2218_CDE9_E9EF, 0x85D9_CD2A_066C_0B53]),
    ("cluster", 0xDEAD_BEEF_CAFE, [0x0AEA_A6BB_7250_18AA, 0x7942_A384_FE5C_D94B, 0x146E_8F19_B5A3_B335]),
    ("bins:16", 1, [0x8326_657B_4012_F235, 0x5D4F_893B_72CC_F12D, 0x9AB8_3AE8_CA92_24F5]),
    ("bins:16", 0xDEAD_BEEF_CAFE, [0xC96C_2947_BF5C_A8F5, 0xB2BB_B736_CE52_04A7, 0x64B1_F499_6B66_2B8D]),
    ("cluster*", 1, [0x03C8_A9C5_B089_2886, 0xCD21_8FB6_685E_E8C9, 0xF7CB_1F6D_06AE_3348]),
    ("cluster*", 0xDEAD_BEEF_CAFE, [0x441B_B3FE_CAB2_6F30, 0xEC9A_9763_4EC6_0C48, 0x47FB_A6C9_6E11_7AB9]),
    ("cluster*:3", 1, [0x1AE8_B724_30FF_8169, 0xCC2F_7FDD_D845_C70C, 0xB51D_8E14_E96F_5947]),
    ("cluster*:3", 0xDEAD_BEEF_CAFE, [0xFB66_0383_BEE1_00DA, 0xF7CB_3F82_AF80_D7B1, 0x54D5_D9CB_0987_3449]),
    ("bins*", 1, [0x4C68_8173_E672_193A, 0x5767_DB4A_F2F0_5970, 0x93D7_F0AE_C5A3_1028]),
    ("bins*", 0xDEAD_BEEF_CAFE, [0x430C_E303_6627_06D4, 0xF99B_00BC_2F6F_954F, 0xE1F6_CE45_A862_018F]),
    ("bins*:maxfit", 1, [0x4F9A_541E_301A_FFDA, 0xB36B_B539_BB2F_1BF4, 0xFC41_0CB8_3984_A418]),
    ("bins*:maxfit", 0xDEAD_BEEF_CAFE, [0x955A_1A36_835A_5D20, 0x836A_5001_FAC1_3D2F, 0x62EC_0727_DED4_C647]),
    ("session:40,8", 1, [0xD557_F510_D8ED_C39D, 0x6B48_327D_8175_FBDE, 0x909F_EF92_97F0_E6D4]),
    ("session:40,8", 0xDEAD_BEEF_CAFE, [0x45FA_B95B_306B_98F5, 0x54E0_DC5F_D006_2BD1, 0xB132_58DA_FD7A_93BE]),
    ("set-aside", 1, [0x5831_619F_4A3A_6DFE, 0xFBE6_FF49_225F_552B, 0xCFA5_3797_3DB0_F1DE]),
    ("set-aside", 0xDEAD_BEEF_CAFE, [0xBEB2_0911_3316_67FE, 0x858A_E8FE_2A06_5578, 0x8FD1_95C6_26EE_7C9A]),
    ("snowflake", 1, [0x85EF_7AA6_8DCD_F539, 0xF0B4_3BA1_9F24_24F5, 0x93BA_E529_F2F8_2FCE]),
    ("snowflake", 0xDEAD_BEEF_CAFE, [0xA296_FF64_23BE_E5FD, 0x5EF2_4E6C_3CB8_992D, 0x6465_F5A6_FA07_B66E]),
];

#[test]
fn every_algorithms_stream_matches_its_pins() {
    let mut measured = Vec::new();
    for (name, kind, space) in cases() {
        let algorithm = kind.build(space);
        for seed in SEEDS {
            let first = first_ids(algorithm.spawn(seed).as_mut());
            let (arcs, footprint) = scripted(algorithm.spawn(seed).as_mut());
            measured.push((name, seed, [first, arcs, footprint]));
        }
    }
    let table: String = measured
        .iter()
        .map(|(name, seed, h)| {
            format!(
                "    (\"{name}\", {seed:#X}, [{:#018X}, {:#018X}, {:#018X}]),\n",
                h[0], h[1], h[2]
            )
        })
        .collect();
    assert_eq!(measured.len(), PINS.len(), "measured:\n{table}");
    for (got, want) in measured.iter().zip(PINS) {
        assert_eq!(*got, want, "stream changed; measured:\n{table}");
    }
}
