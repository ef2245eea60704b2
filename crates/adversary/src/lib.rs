//! # uuidp-adversary — demand profiles and adversaries for the UUIDP game
//!
//! The paper evaluates ID-generation algorithms against two adversary
//! classes:
//!
//! * **oblivious** — the demand profile `D = (d₁, …, dₙ)` is fixed before
//!   the game ([`oblivious::Oblivious`], built from a
//!   [`profile::DemandProfile`]);
//! * **adaptive** — the adversary watches every produced ID and decides the
//!   next request on the fly ([`adaptive::AdaptiveAdversary`]).
//!
//! Concrete adaptive strategies:
//!
//! | Strategy | Target | Paper source |
//! |----------|--------|--------------|
//! | [`nearest_pair::NearestPair`] | Cluster | Lemma 7 (`Ω(n²d/m)`) |
//! | [`run_hunter::RunHunter`] | Cluster★ / run-structured | Theorem 8's threat model |
//! | [`flooder::BalancedFlood`], [`flooder::SkewedFlood`] | volume baselines | Corollary 5, §3.4 |
//! | [`semi_adaptive::FollowSequence`] | Bins(k), Bins★ | Theorem 11 (`fol(S)`) |
//!
//! Profile machinery ([`profile`]) covers the families the theorems
//! quantify over: `D1(n, d)`, `D∞(n, h)`, uniform profiles, the rounding
//! `D⁻` with rank distributions (Section 7.2), ε-goodness (Lemma 18), and
//! the hard distribution `Φ` (Theorem 10).
//!
//! [`schedule`] replays that taxonomy against live services: one
//! [`schedule::Scheduler`] drives both the stress driver and the fleet.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptive;
pub mod flooder;
pub mod nearest_pair;
pub mod oblivious;
pub mod profile;
pub mod run_hunter;
pub mod schedule;
pub mod semi_adaptive;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::adaptive::{Action, AdaptiveAdversary, AdversarySpec, GameView};
    pub use crate::flooder::{BalancedFlood, SkewedFlood};
    pub use crate::nearest_pair::NearestPair;
    pub use crate::oblivious::{Oblivious, RequestOrder};
    pub use crate::profile::{power_law, sample_composition, DemandProfile, PhiDistribution};
    pub use crate::run_hunter::RunHunter;
    pub use crate::semi_adaptive::{FollowSequence, Step};
}
