//! # uuidp-bench — the reproduction harness
//!
//! One module per experiment, E1–E15 (`repro --list` prints the index):
//! the paper's results, plus ablations (E14) and the collision-time
//! extension (E15).
//! Each module exposes `run(&Ctx) -> ExperimentReport`: it executes the
//! sweep, prints the paper-shaped rows next to the theory prediction, and
//! records pass/fail *shape checks* (slopes, bounded ratios, orderings).
//!
//! The `repro` binary drives them: `repro all`, `repro e5`, `repro --quick
//! all`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;

pub use experiments::{Ctx, ExperimentReport};
