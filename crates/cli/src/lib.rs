//! # uuidp-cli — library behind the `uuidp` command
//!
//! Thin, testable command implementations; `main.rs` only parses argv.
//! Subcommands:
//!
//! * `generate` — mint IDs with any algorithm from the suite;
//! * `simulate` — Monte-Carlo collision probability for a deployment
//!   shape, next to the paper's prediction;
//! * `plan` — capacity planning (safe demand / required bits);
//! * `diagram` — the paper's §3 layout diagrams for any algorithm.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commands;
pub mod spec;

pub use spec::{parse_algorithm_kind, IdFormat, ParseError};
