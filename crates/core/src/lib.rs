//! # uuidp-core — Optimal Uncoordinated Unique IDs
//!
//! A from-scratch implementation of every ID-generation algorithm in
//! *Optimal Uncoordinated Unique IDs* (Dillinger, Farach-Colton,
//! Tagliavini, Walzer; PODS 2023).
//!
//! ## The problem
//!
//! In the **Uncoordinated Unique Identifiers Problem** (UUIDP), `n`
//! independent instances of an algorithm `A` generate IDs from a universe
//! `[m]`, with *no communication* between instances — no central authority,
//! no MAC addresses, no clocks. An adversary decides which instance serves
//! each request; the algorithm designer wants to minimize the probability
//! that any ID is ever generated twice (a *collision*). Surrogate-key
//! generation in distributed databases (Cassandra, MongoDB, MySQL,
//! Postgres, RocksDB, …) is this problem.
//!
//! ## The algorithms
//!
//! | Algorithm | Guarantee | Setting |
//! |-----------|-----------|---------|
//! | [`algorithms::Random`] | `Θ(min(1, (‖D‖₁²−‖D‖₂²)/m))` — birthday bound | any |
//! | [`algorithms::Cluster`] | `Θ(min(1, n‖D‖₁/m))` — worst-case optimal | oblivious |
//! | [`algorithms::Bins`]`(k)` | `Θ(…)` (Thm 2); optimal for uniform profiles at `k = h` | oblivious |
//! | [`algorithms::ClusterStar`] | `O((nd/m)·log(1+d/n))` — near-optimal | adaptive |
//! | [`algorithms::BinsStar`] | `O(log m)` competitive ratio — optimal | both |
//!
//! ## Quick start
//!
//! ```
//! use uuidp_core::prelude::*;
//!
//! // A 64-bit ID space, as in RocksDB's cache keys.
//! let space = IdSpace::with_bits(64).unwrap();
//! let algorithm = Cluster::new(space);
//!
//! // Two uncoordinated instances (think: two database nodes).
//! let mut node_a = algorithm.spawn(/* seed = entropy */ 1);
//! let mut node_b = algorithm.spawn(2);
//!
//! let id_a = node_a.next_id().unwrap();
//! let id_b = node_b.next_id().unwrap();
//! assert_ne!(id_a, id_b); // overwhelmingly likely, never guaranteed
//! ```
//!
//! ## Crate layout
//!
//! * [`id`] — the universe `[m]` and modular arithmetic;
//! * [`rng`] — reproducible randomness (SplitMix64, xoshiro256++);
//! * [`interval`] — circular interval sets (run placement, symbolic
//!   footprints);
//! * [`permute`] — a keyed permutation of `[n]` evaluated at a counter
//!   (Random's IDs and Bins(k)'s bins at `m = 2¹²⁷` scale, from
//!   constant state);
//! * [`traits`] — [`traits::IdGenerator`] / [`traits::Algorithm`];
//! * [`lease`] — reusable bulk-lease buffers over
//!   [`traits::IdGenerator::next_ids`] (service/kvstore batching);
//! * [`clock`] — the process-wide monotonic nanosecond clock stamping
//!   observability events;
//! * [`algorithms`] — the five paper algorithms plus practical baselines;
//! * [`state`] — snapshot/restore for exact crash-resume (a snapshot
//!   is parameters, seed and count; restore replays the walk);
//! * [`persist`] — versioned, checksummed on-disk snapshots with the
//!   write-ahead reservation discipline and crash-safe recovery;
//! * [`diagram`] — the paper's illustration diagrams, reproduced.
//!
//! Production note: the simulation-grade PRNG here is deliberate (see
//! [`rng`]); swap in an OS CSPRNG for the seed material when deploying.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod clock;
pub mod codec;
pub mod diagram;
pub mod id;
pub mod interval;
pub mod lease;
pub mod lockorder;
pub mod permute;
pub mod persist;
pub mod rng;
pub mod state;
pub mod traits;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::algorithms::{
        AlgorithmKind, Bins, BinsStar, Cluster, ClusterStar, Random, SessionCounter, SetAside,
        Snowflake, SnowflakeConfig,
    };
    pub use crate::id::{Id, IdSpace};
    pub use crate::interval::{Arc, IntervalSet};
    pub use crate::lease::Lease;
    pub use crate::persist::{recover, PersistError, SnapshotRecord, SnapshotStore};
    pub use crate::state::{restore, GeneratorState, StateError};
    pub use crate::traits::{Algorithm, Footprint, GeneratorError, IdGenerator};
}
