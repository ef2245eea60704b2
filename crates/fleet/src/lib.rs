//! # uuidp-fleet — the multi-node cluster harness
//!
//! Everything below `uuidp-fleet` simulates *n uncoordinated instances*
//! inside one process, or serves one node over TCP. This crate
//! exercises the paper's actual deployment shape: **many independent
//! nodes**, a request schedule playing the adversary *across* them
//! through a router, and instances that must survive crash-restarts
//! without ever repeating an ID — the RocksDB motivation (SST unique
//! IDs, PRs #8990/#9126) made literal.
//!
//! ```text
//!           uuidp_adversary::schedule::Scheduler
//!       (uniform / skewed / flood / adaptive hunter)
//!                            │ tenant t, count
//!                            ▼
//!        workers: thread t mod W (hunter: the runner)
//!                            │
//!    ┌──────────────────── Router ────────────────────┐
//!    │  tenant-affine: node = t mod N, lane = t mod W │
//!    │  a lane holds one session per node             │
//!    │  one ledger: global LeaseAudit (survives every │
//!    │  crash), counts, latency, worst-K leases       │
//!    └──┬──────────────────┬──────────────────────┬───┘
//!       ▼ TCP              ▼ TCP                  ▼ TCP
//!   ┌────────┐        ┌────────┐   chaos:    ┌────────┐
//!   │ node 0 │        │ node 1 │ ◄─ crash ─  │ node 2 │ ...
//!   │ shards │        │ shards │   restart   │ shards │
//!   │ audit  │        │ audit  │             │ audit  │
//!   └───┬────┘        └───┬────┘             └───┬────┘
//!       ▼ write-ahead     ▼                      ▼
//!    node-0/           node-1/                node-2/   snapshot dirs
//!                                           (kill runs only)
//! ```
//!
//! * [`cluster`] — booting, crashing, and restarting loopback nodes,
//!   durable ones with a per-node state directory;
//! * [`router`] — tenant-affine placement, one lane of node sessions
//!   per worker, and the crash-surviving **global collision audit**;
//! * [`run`] — the one wire runner, which routes the request schedule
//!   the stress driver walks too (`uuidp_adversary::schedule`) through
//!   `workers` tenant-pinned threads, and [`run::FleetReport`];
//! * [`series`] — per-`(node, incarnation)` time-series aggregation,
//!   the merged cluster windows and their same-seed fingerprint, and
//!   the multi-window burn-rate alert evaluators;
//! * [`stress`] — `uuidp stress --remote`: a one-node fleet run without
//!   restarts, reported in the stress layout.
//!
//! The headline guarantees, pinned by the crate's tests and the
//! repository's integration suite:
//!
//! 1. **Determinism across topology** — for a fixed seed and schedule,
//!    the global audit's `duplicate_ids` is bit-identical for every
//!    `(nodes, shards, audit_threads, workers)` combination.
//! 2. **Cross-node detection** — same-seed twin tenants on *different*
//!    nodes are invisible to every node-local audit and still counted
//!    exactly by the router's global audit.
//! 3. **Crash safety** — with chaos restarts on, recovered nodes
//!    contribute **zero** duplicates: recovery restores the persisted
//!    state and abandons the whole write-ahead reservation window
//!    (see [`uuidp_core::persist`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod router;
pub mod run;
pub mod series;
pub mod stress;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::cluster::{Fleet, FleetNode};
    pub use crate::router::{owner_key, Router};
    pub use crate::run::{run_fleet, FleetConfig, FleetReport, NodeReport};
    pub use crate::series::FleetSeries;
    pub use crate::stress::run_stress_remote;
}
