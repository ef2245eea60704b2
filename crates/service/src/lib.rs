//! # uuidp-service — a sharded, batch-leasing ID-issuing service
//!
//! The repository's other crates *measure* the collision behaviour of
//! uncoordinated ID algorithms; this crate *serves* IDs with them, the
//! way the paper's production motivators (RocksDB SST unique IDs and
//! cache keys, PRs #8990/#9126) consume them under heavy uncoordinated
//! traffic. It is the deployment-shaped layer over the PR 1 engine
//! primitives:
//!
//! * [`service`] — [`service::IdService`]: shard-per-worker issuing over
//!   bounded channels. Each shard owns its tenants' recycled
//!   [`IdGenerator`]s and serves **bulk leases** — one
//!   [`next_ids`](uuidp_core::traits::IdGenerator::next_ids) call emits a
//!   whole run of IDs as `O(1)` amortized interval pushes (Cluster and
//!   the arc-structured algorithms lease thousands of IDs per arc), so
//!   aggregate throughput is bounded by channel hops, not by per-ID
//!   work. Every lease is routed, stripe by stripe, into a **pool of
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
//!   per-connection thread at all — a readiness-driven reactor owns
//!   every connection and a fixed, tenant-keyed worker pool executes
//!   requests by correlation id.
//! * [`stress`] — [`stress::run_stress`]: replays deterministic traffic
//!   mixes (uniform, Zipf-skewed, flood, and the `adversary` crate's
//!   adaptive RunHunter playing through the front door) and reports
//!   throughput, p50/p99 issue latency, and audit lag. The driver is
//!   transport-generic ([`stress::StressTarget`]);
//!   [`stress::run_stress_remote`] replays the same mixes through a
//!   loopback TCP server and must reproduce the in-process audit totals
//!   exactly.
//! * [`metrics`] — the allocation-free latency histogram behind those
//!   quantiles.
//!
//! The CLI surfaces this as `uuidp serve` (stdin, or `--listen` for
//! TCP) and `uuidp stress` (`--remote` for the socket path); `repro
//! bench-json` records the issuance and audit-pipeline numbers in
//! `BENCH_PR<N>.json`.
//!
//! [`IdGenerator`]: uuidp_core::traits::IdGenerator

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod net;
pub mod protocol;
pub mod reactor;
pub mod reassembly;
pub mod service;
pub mod stress;
#[cfg(all(target_os = "linux", not(feature = "poll-fallback")))]
pub mod sys;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::metrics::LatencyHistogram;
    pub use crate::net::{ServerOptions, TcpServer};
    pub use crate::protocol::Command;
    pub use crate::reactor::NetBackend;
    pub use crate::service::{
        AuditReport, AuditThreadReport, IdService, LeaseReply, ServiceConfig, ServiceReport,
    };
    pub use crate::stress::{
        run_stress, run_stress_remote, StressConfig, StressReport, StressTarget, TrafficMix,
    };
}
