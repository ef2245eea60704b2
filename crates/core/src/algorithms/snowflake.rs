//! **Snowflake** — the metadata-based practical baseline the paper's
//! introduction argues *against*.
//!
//! GUID-style generators combine a timestamp, a node identifier, and a
//! sequence counter (Twitter's Snowflake, UUIDv1, MongoDB ObjectId, …).
//! The paper's point is that such schemes presume *reliable metadata*:
//! MAC addresses can be spoofed and clocks skew, so the UUIDP model keeps
//! only the random part. We implement Snowflake with an explicit fault
//! model — a uniformly random worker ID (the honest-but-uncoordinated
//! case: with no registry, the best a node can do is pick its worker ID at
//! random) and a per-instance clock skew — so experiments can quantify
//! exactly how the brittleness manifests: two instances collide as soon as
//! their worker IDs coincide *and* their (tick, sequence) windows overlap,
//! which at `w` worker bits happens with constant probability once
//! `n ≈ 2^(w/2)` instances exist, regardless of how sparse the rest of the
//! ID space is.
//!
//! Snowflake is **not** an algorithm for the UUIDP in the paper's sense —
//! its output distribution is not a uniform choice structure over `[m]`
//! and repeated ticks can even repeat IDs after timestamp wrap-around. It
//! exists here as the practical comparator for experiment E13.

use serde::{Deserialize, Serialize};

use crate::id::{Id, IdSpace};
use crate::interval::Arc;
use crate::rng::{uniform_below, Xoshiro256pp};
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Bit layout and fault model for [`Snowflake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnowflakeConfig {
    /// Bits for the timestamp field (most significant).
    pub timestamp_bits: u32,
    /// Bits for the worker ID field.
    pub worker_bits: u32,
    /// Bits for the per-tick sequence field (least significant).
    pub sequence_bits: u32,
    /// Requests served per logical clock tick (request-driven clock model;
    /// the real scheme is wall-clock driven, but for collision structure
    /// only the *rate* of tick advancement relative to requests matters).
    pub requests_per_tick: u64,
    /// Each instance's clock starts with a skew drawn uniformly from
    /// `[0, max_skew_ticks]`. Zero models perfectly synchronized clocks.
    pub max_skew_ticks: u64,
}

impl SnowflakeConfig {
    /// The classic 64-bit layout: 41 timestamp bits, 10 worker bits,
    /// 12 sequence bits (here 42 timestamp bits to fill 64).
    pub fn classic64() -> Self {
        SnowflakeConfig {
            timestamp_bits: 42,
            worker_bits: 10,
            sequence_bits: 12,
            requests_per_tick: 64,
            max_skew_ticks: 0,
        }
    }

    /// Total ID width in bits.
    pub fn total_bits(&self) -> u32 {
        self.timestamp_bits + self.worker_bits + self.sequence_bits
    }

    /// The universe implied by the layout: `m = 2^total_bits`.
    pub fn space(&self) -> IdSpace {
        IdSpace::with_bits(self.total_bits()).expect("layout exceeds 127 bits")
    }
}

/// Factory for [`SnowflakeGenerator`] instances.
#[derive(Debug, Clone)]
pub struct Snowflake {
    config: SnowflakeConfig,
}

impl Snowflake {
    /// Snowflake with the given layout and fault model.
    ///
    /// # Panics
    ///
    /// Panics if the layout exceeds 127 bits or any field is zero-width,
    /// or if `requests_per_tick` is zero.
    pub fn new(config: SnowflakeConfig) -> Self {
        assert!(config.timestamp_bits > 0, "timestamp field required");
        assert!(config.worker_bits > 0, "worker field required");
        assert!(config.sequence_bits > 0, "sequence field required");
        assert!(config.total_bits() <= 127, "layout exceeds 127 bits");
        assert!(
            config.requests_per_tick > 0,
            "requests_per_tick must be > 0"
        );
        Snowflake { config }
    }

    /// The layout in use.
    pub fn config(&self) -> SnowflakeConfig {
        self.config
    }
}

impl Algorithm for Snowflake {
    fn name(&self) -> String {
        format!(
            "snowflake({}+{}+{})",
            self.config.timestamp_bits, self.config.worker_bits, self.config.sequence_bits
        )
    }

    fn space(&self) -> IdSpace {
        self.config.space()
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(SnowflakeGenerator::new(self.config, seed))
    }
}

/// One Snowflake instance: a fixed random worker ID and a skewed clock.
#[derive(Debug)]
pub struct SnowflakeGenerator {
    config: SnowflakeConfig,
    space: IdSpace,
    worker: u128,
    skew: u64,
    served: u64,
    /// Current tick; advances with served requests and on sequence
    /// overflow (the real implementation stalls until the next
    /// millisecond — the logical equivalent is a forced tick bump).
    tick: u64,
    seq: u128,
    emitted: Vec<Id>,
}

impl SnowflakeGenerator {
    /// A fresh instance seeded with `seed`.
    pub fn new(config: SnowflakeConfig, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        let worker = uniform_below(&mut rng, 1u128 << config.worker_bits);
        let skew = if config.max_skew_ticks == 0 {
            0
        } else {
            uniform_below(&mut rng, config.max_skew_ticks as u128 + 1) as u64
        };
        SnowflakeGenerator {
            config,
            space: config.space(),
            worker,
            skew,
            served: 0,
            tick: skew,
            seq: 0,
            emitted: Vec::new(),
        }
    }

    /// The worker ID this instance drew.
    pub fn worker(&self) -> u128 {
        self.worker
    }

    /// This instance's clock skew, in ticks.
    pub fn skew(&self) -> u64 {
        self.skew
    }
}

impl IdGenerator for SnowflakeGenerator {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn next_ids(&mut self, count: u128, sink: &mut dyn FnMut(Arc)) -> Result<(), GeneratorError> {
        for _ in 0..count {
            let logical = self.skew + self.served / self.config.requests_per_tick;
            if logical > self.tick {
                self.tick = logical;
                self.seq = 0;
            }
            if self.seq >= 1u128 << self.config.sequence_bits {
                // Sequence exhausted within this tick: bump the tick.
                self.tick += 1;
                self.seq = 0;
            }
            let ts_mask = (1u128 << self.config.timestamp_bits) - 1;
            let id = ((self.tick as u128 & ts_mask)
                << (self.config.worker_bits + self.config.sequence_bits))
                | (self.worker << self.config.sequence_bits)
                | self.seq;
            self.seq += 1;
            self.served += 1;
            let id = Id(id);
            self.emitted.push(id);
            sink(Arc::point(self.space, id));
        }
        Ok(())
    }

    fn generated(&self) -> u128 {
        self.served as u128
    }

    fn footprint(&mut self) -> Footprint<'_> {
        Footprint::Points(&self.emitted)
    }

    fn reset(&mut self, seed: u64) {
        let mut rng = Xoshiro256pp::new(seed);
        self.worker = uniform_below(&mut rng, 1u128 << self.config.worker_bits);
        self.skew = if self.config.max_skew_ticks == 0 {
            0
        } else {
            uniform_below(&mut rng, self.config.max_skew_ticks as u128 + 1) as u64
        };
        self.served = 0;
        self.tick = self.skew;
        self.seq = 0;
        self.emitted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> SnowflakeConfig {
        SnowflakeConfig {
            timestamp_bits: 16,
            worker_bits: 4,
            sequence_bits: 4,
            requests_per_tick: 8,
            max_skew_ticks: 0,
        }
    }

    #[test]
    fn ids_encode_worker_and_sequence() {
        let cfg = tiny();
        let mut g = SnowflakeGenerator::new(cfg, 1);
        let w = g.worker();
        for i in 0..8u128 {
            let id = g.next_id().unwrap().value();
            assert_eq!((id >> 4) & 0xF, w, "worker field");
            assert_eq!(id & 0xF, i % 16, "sequence field");
        }
    }

    #[test]
    fn no_duplicates_within_instance_before_wraparound() {
        let cfg = tiny();
        let mut g = SnowflakeGenerator::new(cfg, 2);
        let mut seen = HashSet::new();
        for _ in 0..5000 {
            assert!(seen.insert(g.next_id().unwrap()));
        }
    }

    #[test]
    fn same_worker_and_no_skew_collides_quickly() {
        // Two synchronized instances with forced-equal worker IDs produce
        // identical streams — the degenerate case the paper warns about.
        let cfg = tiny();
        // Find two seeds with the same worker.
        let g1 = SnowflakeGenerator::new(cfg, 1);
        let mut other = None;
        for seed in 2..200 {
            let g = SnowflakeGenerator::new(cfg, seed);
            if g.worker() == g1.worker() {
                other = Some(seed);
                break;
            }
        }
        let seed2 = other.expect("no matching worker in 200 seeds");
        let mut a = SnowflakeGenerator::new(cfg, 1);
        let mut b = SnowflakeGenerator::new(cfg, seed2);
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
    }

    #[test]
    fn skew_shifts_the_timestamp_field() {
        let cfg = SnowflakeConfig {
            max_skew_ticks: 1000,
            ..tiny()
        };
        // Skew is sampled; with 1000 ticks of range two instances almost
        // surely start at different ticks.
        let a = SnowflakeGenerator::new(cfg, 1);
        let b = SnowflakeGenerator::new(cfg, 2);
        assert_ne!(
            (a.skew(), a.worker()),
            (b.skew(), b.worker()),
            "distinct seeds should differ in skew or worker"
        );
    }

    #[test]
    fn sequence_overflow_bumps_tick() {
        let cfg = SnowflakeConfig {
            timestamp_bits: 16,
            worker_bits: 4,
            sequence_bits: 2,       // 4 IDs per tick
            requests_per_tick: 100, // logical clock slower than demand
            max_skew_ticks: 0,
        };
        let mut g = SnowflakeGenerator::new(cfg, 3);
        let mut seen = HashSet::new();
        for _ in 0..64 {
            assert!(
                seen.insert(g.next_id().unwrap()),
                "tick bump must avoid reuse"
            );
        }
    }

    #[test]
    fn worker_is_uniform() {
        let cfg = tiny();
        let mut counts = [0u32; 16];
        let trials = 160_000;
        for seed in 0..trials {
            counts[SnowflakeGenerator::new(cfg, seed).worker() as usize] += 1;
        }
        let expected = trials as f64 / 16.0;
        for (w, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "worker {w}: dev {dev:.3}");
        }
    }
}
