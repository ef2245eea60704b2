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
use crate::state::{check, rng_from, GeneratorState, StateError};
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
        SessionCounterGenerator {
            space: IdSpace::with_bits(session_bits + counter_bits).expect("checked width"),
            counter_bits,
            sessions_total: 1u128 << session_bits,
            rng: Xoshiro256pp::new(seed),
            used_sessions: HashSet::new(),
            current_session: None,
            counter: 0,
            flushed: 0,
            generated: 0,
            emitted: IntervalSet::new(self_space(session_bits, counter_bits)),
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

    /// Rebuilds an instance from a [`GeneratorState::SessionCounter`]
    /// snapshot. The emitted set is reconstructed: closed sessions are
    /// full, the open session holds a counter-length prefix.
    pub fn from_state(space: IdSpace, state: &GeneratorState) -> Result<Self, StateError> {
        let GeneratorState::SessionCounter {
            rng,
            session_bits,
            counter_bits,
            used_sessions,
            current_session,
            counter,
            generated,
        } = state
        else {
            return Err(StateError("not a SessionCounter state".into()));
        };
        check(
            *session_bits > 0 && *counter_bits > 0 && session_bits + counter_bits <= 127,
            "bad bit layout",
        )?;
        check(
            space.size() == 1u128 << (session_bits + counter_bits),
            "layout inconsistent with universe",
        )?;
        let sessions_total = 1u128 << session_bits;
        let cap = 1u128 << counter_bits;
        check(
            used_sessions.iter().all(|&s| s < sessions_total),
            "session out of range",
        )?;
        check(*counter <= cap, "counter exceeds capacity")?;
        let used: HashSet<u128> = used_sessions.iter().copied().collect();
        check(used.len() == used_sessions.len(), "duplicate used sessions")?;
        let mut emitted = IntervalSet::new(space);
        match current_session {
            Some(cur) => {
                check(used.contains(cur), "current session not in used set")?;
                for &s in &used {
                    if s == *cur {
                        if *counter > 0 {
                            emitted.insert(Arc::new(space, Id(s << counter_bits), *counter));
                        }
                    } else {
                        emitted.insert(Arc::new(space, Id(s << counter_bits), cap));
                    }
                }
            }
            None => {
                check(used.is_empty(), "used sessions without a current one")?;
            }
        }
        check(
            emitted.measure() == *generated,
            "emitted measure != generated",
        )?;
        Ok(SessionCounterGenerator {
            space,
            counter_bits: *counter_bits,
            sessions_total,
            rng: rng_from(*rng)?,
            used_sessions: used,
            current_session: *current_session,
            counter: *counter,
            flushed: *counter,
            generated: *generated,
            emitted,
        })
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
}

fn self_space(session_bits: u32, counter_bits: u32) -> IdSpace {
    IdSpace::with_bits(session_bits + counter_bits).expect("checked width")
}

impl IdGenerator for SessionCounterGenerator {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn next_id(&mut self) -> Result<Id, GeneratorError> {
        let session = match self.current_session {
            Some(s) if self.counter < self.counter_capacity() => s,
            _ => self.open_session()?,
        };
        let id = Id((session << self.counter_bits) | self.counter);
        self.counter += 1;
        self.generated += 1;
        Ok(id)
    }

    fn generated(&self) -> u128 {
        self.generated
    }

    fn footprint(&mut self) -> Footprint<'_> {
        self.flush();
        Footprint::Arcs(&self.emitted)
    }

    fn next_ids(
        &mut self,
        mut count: u128,
        sink: &mut dyn FnMut(Arc),
    ) -> Result<(), GeneratorError> {
        while count > 0 {
            let session = match self.current_session {
                Some(s) if self.counter < self.counter_capacity() => s,
                _ => self.open_session()?,
            };
            let take = count.min(self.counter_capacity() - self.counter);
            sink(Arc::new(
                self.space,
                Id((session << self.counter_bits) | self.counter),
                take,
            ));
            self.counter += take;
            self.generated += take;
            count -= take;
        }
        Ok(())
    }

    fn supports_bulk_lease(&self) -> bool {
        // One arc per touched session range: O(count / 2^counter_bits).
        true
    }

    fn skip(&mut self, mut count: u128) -> Result<(), GeneratorError> {
        while count > 0 {
            match self.current_session {
                Some(_) if self.counter < self.counter_capacity() => {}
                _ => {
                    self.open_session()?;
                }
            };
            let take = count.min(self.counter_capacity() - self.counter);
            self.counter += take;
            self.generated += take;
            count -= take;
        }
        Ok(())
    }

    fn reset(&mut self, seed: u64) {
        self.rng = Xoshiro256pp::new(seed);
        self.used_sessions.clear();
        self.current_session = None;
        self.counter = 0;
        self.flushed = 0;
        self.generated = 0;
        self.emitted.clear();
    }

    fn snapshot(&self) -> Option<GeneratorState> {
        let mut used: Vec<u128> = self.used_sessions.iter().copied().collect();
        used.sort_unstable();
        Some(GeneratorState::SessionCounter {
            rng: self.rng.state(),
            session_bits: self.session_bits(),
            counter_bits: self.counter_bits,
            used_sessions: used,
            current_session: self.current_session,
            counter: self.counter,
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
