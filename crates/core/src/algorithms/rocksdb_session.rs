//! **SessionCounter** — the RocksDB embodiment of Cluster/Bins.
//!
//! RocksDB's "experimental SST unique IDs" (PR #8990) and "new stable,
//! fixed-length cache keys" (PR #9126) — both cited by the paper as the
//! production motivation for Cluster — structure an ID as
//!
//! ```text
//!   [ random session prefix | in-session file counter ]
//! ```
//!
//! A store instance draws a random session prefix at startup and assigns
//! file IDs by incrementing the counter; if the counter field overflows it
//! starts a new session. Structurally this is Bins(2^counter_bits) with
//! one difference: sessions across (and within) restarts are drawn *with*
//! replacement, so the scheme is only "without replacement" per session.
//! We keep within-instance uniqueness by redrawing a session prefix that
//! the instance has already used (the probability is astronomically small
//! at production parameters; the redraw makes the invariant exact).
//!
//! Collision-wise the scheme inherits Cluster/Bins behaviour:
//! `Θ(min(1, n·d/m))` for `d` total files across `n` sessions — the
//! paper's Theorem 2 with `k = 2^counter_bits` and per-instance demand
//! below `k`.

use std::collections::HashSet;

use crate::id::{Id, IdSpace};
use crate::interval::{Arc, IntervalSet};
use crate::rng::{uniform_below, Xoshiro256pp};
use crate::state::GeneratorState;
use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};

/// Factory for [`SessionCounterGenerator`] instances.
#[derive(Debug, Clone)]
pub struct SessionCounter {
    session_bits: u32,
    counter_bits: u32,
}

impl SessionCounter {
    /// A layout with `session_bits` of random prefix and `counter_bits` of
    /// sequential counter; `m = 2^(session_bits + counter_bits)`.
    ///
    /// # Panics
    ///
    /// Panics if the total width exceeds 127 bits or either field is zero.
    pub fn new(session_bits: u32, counter_bits: u32) -> Self {
        assert!(session_bits > 0 && counter_bits > 0, "both fields required");
        assert!(
            session_bits + counter_bits <= 127,
            "layout exceeds 127 bits"
        );
        SessionCounter {
            session_bits,
            counter_bits,
        }
    }

    /// RocksDB-flavored defaults scaled to a 64-bit ID: 40 session bits,
    /// 24 counter bits (the real scheme uses wider fields over 128 bits).
    pub fn rocksdb64() -> Self {
        SessionCounter::new(40, 24)
    }
}

impl Algorithm for SessionCounter {
    fn name(&self) -> String {
        format!("session({}+{})", self.session_bits, self.counter_bits)
    }

    fn space(&self) -> IdSpace {
        IdSpace::with_bits(self.session_bits + self.counter_bits).expect("checked width")
    }

    fn spawn(&self, seed: u64) -> Box<dyn IdGenerator> {
        Box::new(SessionCounterGenerator::new(
            self.session_bits,
            self.counter_bits,
            seed,
        ))
    }
}

/// One store instance assigning session-counter IDs.
#[derive(Debug)]
pub struct SessionCounterGenerator {
    space: IdSpace,
    counter_bits: u32,
    sessions_total: u128,
    seed: u64,
    rng: Xoshiro256pp,
    used_sessions: HashSet<u128>,
    current_session: Option<u128>,
    counter: u128,
    /// Counter position of the open session already folded into `emitted`.
    flushed: u128,
    generated: u128,
    emitted: IntervalSet,
}

impl SessionCounterGenerator {
    /// A fresh instance seeded with `seed`.
    pub fn new(session_bits: u32, counter_bits: u32, seed: u64) -> Self {
        let space = IdSpace::with_bits(session_bits + counter_bits).expect("checked width");
        SessionCounterGenerator {
            space,
            counter_bits,
            sessions_total: 1u128 << session_bits,
            seed,
            rng: Xoshiro256pp::new(seed),
            used_sessions: HashSet::new(),
            current_session: None,
            counter: 0,
            flushed: 0,
            generated: 0,
            emitted: IntervalSet::new(space),
        }
    }

    /// Folds the open session's unflushed ID range into `emitted`.
    fn flush(&mut self) {
        if let Some(session) = self.current_session {
            if self.counter > self.flushed {
                let first = (session << self.counter_bits) | self.flushed;
                self.emitted
                    .insert(Arc::new(self.space, Id(first), self.counter - self.flushed));
                self.flushed = self.counter;
            }
        }
    }

    /// The session prefix currently in use, if any ID has been issued.
    pub fn current_session(&self) -> Option<u128> {
        self.current_session
    }

    /// The session-prefix width in bits (for snapshots).
    fn session_bits(&self) -> u32 {
        128 - self.sessions_total.leading_zeros() - 1
    }

    fn counter_capacity(&self) -> u128 {
        1u128 << self.counter_bits
    }

    fn open_session(&mut self) -> Result<u128, GeneratorError> {
        if self.used_sessions.len() as u128 >= self.sessions_total {
            return Err(GeneratorError::Exhausted {
                generated: self.generated,
            });
        }
        // Redraw on reuse; terminates fast while sessions are sparse.
        loop {
            let s = uniform_below(&mut self.rng, self.sessions_total);
            if self.used_sessions.insert(s) {
                self.flush(); // retire the exhausted session's range
                self.current_session = Some(s);
                self.counter = 0;
                self.flushed = 0;
                return Ok(s);
            }
        }
    }

    /// Emits the next `count` IDs to `sink`, one arc per touched
    /// session, opening sessions as the walk reaches them.
    fn walk(&mut self, mut count: u128, mut sink: impl FnMut(Arc)) -> Result<(), GeneratorError> {
        while count > 0 {
            let session = match self.current_session {
                Some(s) if self.counter < self.counter_capacity() => s,
                _ => self.open_session()?,
            };
            let take = count.min(self.counter_capacity() - self.counter);
            // A literal, as in Cluster★'s walk: the range stays inside
            // the session by construction.
            sink(Arc {
                start: Id((session << self.counter_bits) | self.counter),
                len: take,
            });
            self.counter += take;
            self.generated += take;
            count -= take;
        }
        Ok(())
    }
}

impl IdGenerator for SessionCounterGenerator {
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
        self.used_sessions.clear();
        self.current_session = None;
        self.counter = 0;
        self.flushed = 0;
        self.generated = 0;
        self.emitted.clear();
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        Some(GeneratorState::SessionCounter {
            session_bits: self.session_bits(),
            counter_bits: self.counter_bits,
            seed: self.seed,
            generated: self.generated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_within_a_session() {
        let mut g = SessionCounterGenerator::new(8, 4, 1);
        let ids: Vec<u128> = (0..16).map(|_| g.next_id().unwrap().value()).collect();
        let session = ids[0] >> 4;
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id >> 4, session, "same session for first 16");
            assert_eq!(id & 0xF, i as u128, "counter increments");
        }
        // 17th ID rolls into a fresh session with counter 0.
        let next = g.next_id().unwrap().value();
        assert_ne!(next >> 4, session);
        assert_eq!(next & 0xF, 0);
    }

    #[test]
    fn sessions_never_repeat_within_instance() {
        let mut g = SessionCounterGenerator::new(4, 2, 2); // 16 sessions of 4 IDs
        let mut sessions = HashSet::new();
        for _ in 0..64 {
            let id = g.next_id().unwrap().value();
            sessions.insert(id >> 2);
        }
        assert_eq!(sessions.len(), 16, "all sessions used exactly once");
        assert!(matches!(g.next_id(), Err(GeneratorError::Exhausted { .. })));
    }

    #[test]
    fn no_duplicate_ids() {
        let mut g = SessionCounterGenerator::new(10, 3, 3);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            assert!(seen.insert(g.next_id().unwrap()));
        }
    }

    #[test]
    fn skip_matches_materialized() {
        let mut a = SessionCounterGenerator::new(12, 6, 4);
        let mut b = SessionCounterGenerator::new(12, 6, 4);
        a.skip(300).unwrap();
        for _ in 0..300 {
            b.next_id().unwrap();
        }
        assert_eq!(a.generated(), b.generated());
        match (a.footprint(), b.footprint()) {
            (Footprint::Arcs(sa), Footprint::Arcs(sb)) => {
                assert_eq!(sa.intersection_measure_set(sb), 300);
            }
            _ => panic!(),
        }
        assert_eq!(a.next_id().unwrap(), b.next_id().unwrap());
    }

    #[test]
    fn factory_reports_consistent_space() {
        let alg = SessionCounter::new(20, 10);
        assert_eq!(alg.space().size(), 1 << 30);
        let g = alg.spawn(5);
        assert_eq!(g.space().size(), 1 << 30);
    }
}
