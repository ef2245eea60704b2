//! # uuidp-service — a sharded, batch-leasing ID-issuing service
//!
//! The repository's other crates *measure* the collision behaviour of
//! uncoordinated ID algorithms; this crate *serves* IDs with them, the
//! way the paper's production motivators (RocksDB SST unique IDs and
//! cache keys, PRs #8990/#9126) consume them under heavy uncoordinated
//! traffic. It is the deployment-shaped layer over the PR 1 engine
//! primitives:
//!
//! * [`service`] — [`service::IdService`]: run-to-completion issuing.
//!   Each shard is a lock over its tenants' recycled [`IdGenerator`]s,
//!   and a lease is served on the thread that asks for it as a **bulk
//!   lease** — one
//!   [`next_ids`](uuidp_core::traits::IdGenerator::next_ids) call emits a
//!   whole run of IDs as `O(1)` amortized interval pushes (Cluster and
//!   the arc-structured algorithms lease thousands of IDs per arc), with
//!   no thread hop between the caller and its shard. Every lease is
//!   routed, stripe by stripe, into a **pool of
//!   audit threads**, each owning a disjoint subset of the striped
//!   *symbolic* [`LeaseAudit`](uuidp_sim::audit::LeaseAudit) — flagging
//!   cross-tenant duplicates and silent aliasing online with
//!   interleaving-invariant totals (bit-identical for every `(shards,
//!   audit_stripes, audit_threads)` combination), and reporting
//!   per-thread lag so a straggling stripe subset is visible.
//! * [`protocol`] — the `uuidp serve` stdin REPL grammar (`lease` /
//!   `reset` / `drain` / `metrics` / `quit`), plus the one projection of
//!   a service report onto the v2 summary frame.
//! * [`net`] — [`net::TcpServer`]: the TCP front-end, speaking **wire
//!   protocol v2 only** to `uuidp_client::Client` callers, with no
//!   per-connection thread at all — one epoll reactor per shard owns the
//!   connections handed to it, serves each lease itself under its
//!   tenant's shard lock, and queues the reply frame on the connection
//!   under the request's correlation id.
//! * [`stress`] — [`stress::run_stress`]: replays the deterministic
//!   request schedule of `uuidp_adversary::schedule` (uniform,
//!   Zipf-skewed, flood, and the adaptive RunHunter playing through the
//!   front door) against an in-process service and reports throughput,
//!   p50/p99 issue latency, and audit lag in the
//!   [`stress::StressReport`] layout. Over the wire the same schedule is
//!   a one-node fleet run (`uuidp_fleet::stress::run_stress_remote`),
//!   printed in the same layout, and must reproduce the in-process audit
//!   totals exactly.
//!
//! The CLI surfaces this as `uuidp serve` (stdin, or `--listen` for
//! TCP) and `uuidp stress` (`--remote` for the one-node fleet); the
//! repository benchmark (`perfbench/`) measures its lease path end to
//! end and per layer.
//!
//! [`IdGenerator`]: uuidp_core::traits::IdGenerator

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod net;
pub mod protocol;
pub mod reactor;
pub mod reassembly;
pub mod service;
pub mod stress;
pub mod sys;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::net::{ServerOptions, TcpServer};
    pub use crate::protocol::Command;
    pub use crate::service::{
        AuditReport, AuditThreadReport, IdService, LeaseReply, ServiceConfig, ServiceReport,
    };
    pub use crate::stress::{run_stress, StressConfig, StressReport};
}
