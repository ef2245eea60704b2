//! # uuidp-client — the typed, multiplexing service client
//!
//! The transport-owning client API for the `uuidp` ID service, and the
//! home of **wire protocol v2**: length-prefixed binary frames (magic /
//! version / length / payload / FNV-1a checksum, the same codec
//! discipline as `uuidp_core::persist`) with per-request **correlation
//! ids**, so one TCP connection can carry interleaved requests from
//! many threads and tenants at once.
//!
//! ```text
//!   threads            Client (Clone)                    server
//!  ────────┐     ┌────────────────────────┐
//!   lease ─┼──►  │ writer (mutex)         │ ──frames──►  negotiated v2 conn
//!   drain ─┤     │ table: corr → slot     │
//!   lease ─┘     │ read half (the leader) │ ◄──frames──
//!                └────────────────────────┘
//!     one waiting caller leads: it reads the socket, puts each other
//!     caller's reply in that caller's slot, and on its own reply passes
//!     the read half to one caller still waiting
//! ```
//!
//! * [`Client::connect`] dials the server and performs the version
//!   handshake (`Hello`/`HelloOk` — the server also validates that
//!   client and server agree on the ID universe). It starts no thread.
//! * [`Client`] is `Clone + Send + Sync`: clones share one connection.
//!   Each request registers a correlation id in the request table and
//!   writes one frame under the writer lock. Then its caller reads the
//!   socket itself if no other caller is reading (leader/follower
//!   reads), or sleeps until the reader puts its reply in its slot or
//!   passes it the read half. A lone caller reads its own reply, so its
//!   lease crosses no client-side thread boundary. `N` worker threads
//!   need one connection, not `N`.
//! * Typed surface: [`Client::lease`] → [`Lease`], [`Client::summary`] /
//!   [`Client::shutdown`] → [`Summary`], plus [`Client::reset`],
//!   [`Client::drain`], [`Client::metrics`] and [`Client::timeline`].
//! * Failure handling: every error a call returns classifies as
//!   retry-safe, lease-in-doubt or fatal ([`classify`]). A [`Session`]
//!   is the one retry loop over a `Client` — dial, attempt, classify,
//!   drop the connection, back off under a [`RetryPolicy`] — and keeps
//!   a [`FaultCounters`] ledger. The fleet router, the stress pool and
//!   `uuidp top` all reach servers through it.
//!
//! The frame grammar itself lives in [`frame`]; servers reuse it from
//! there. Protocol v2 is the only wire protocol the service speaks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use uuidp_core::interval::Arc;

pub mod frame;

mod client;
mod error;
mod session;

pub use client::{Client, ClientOptions};
pub use error::{
    broken, broken_connection, classify, BrokenConnection, ErrorClass, FaultCounters, RetryPolicy,
};
pub use session::{Session, CHAOS_TIMEOUT};

/// The wire protocol a caller dials with. Protocol v2 is the only one
/// left, so this enum has a single variant; it is kept only because
/// the out-of-workspace benchmark (`perfbench/`) still names it when
/// building a fleet `Router`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoVersion {
    /// Length-prefixed binary frames with correlation ids; one
    /// connection multiplexes any number of in-flight requests.
    V2,
}

/// A served lease, as seen by a client: the typed twin of the service's
/// `LeaseReply`, with the server's generator error carried as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The tenant the lease was served for.
    pub tenant: u64,
    /// Total IDs granted.
    pub granted: u128,
    /// Granted arcs in emission order.
    pub arcs: Vec<Arc>,
    /// Generator error text, if the grant fell short.
    pub error: Option<String>,
}

/// A service summary as it crosses the wire: the aggregate totals of a
/// `ServiceReport`. Per-thread audit detail stays server-side; the wire
/// carries the merged view. Served live by [`Client::summary`] and as
/// the final word by [`Client::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total IDs issued.
    pub issued_ids: u128,
    /// Leases served.
    pub leases: u64,
    /// Leases that hit a generator error.
    pub errors: u64,
    /// Median per-lease issue cost, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile per-lease issue cost, nanoseconds.
    pub p99_ns: f64,
    /// 99.9th-percentile per-lease issue cost, nanoseconds — the tail
    /// the SLO section watches under chaos.
    pub p999_ns: f64,
    /// Mean per-lease issue cost, nanoseconds.
    pub mean_ns: f64,
    /// Cross-owner duplicate IDs found by the audit.
    pub duplicate_ids: u128,
    /// Audit records that overlapped foreign material on arrival.
    pub flagged_records: u64,
    /// Total IDs recorded by the audit.
    pub recorded_ids: u128,
    /// Total segments recorded by the audit.
    pub recorded_arcs: u64,
    /// Routed lease batches the audit processed.
    pub records: u64,
    /// Worst tap-to-audit lag, nanoseconds.
    pub max_lag_ns: u128,
    /// Mean tap-to-audit lag, nanoseconds.
    pub mean_lag_ns: f64,
    /// Audit pipeline threads that produced the merged totals.
    pub audit_threads: usize,
}
