//! # uuidp-netchaos — the adversarial network layer
//!
//! A deterministic, seed-scheduled loopback TCP proxy that sits between
//! any client and a `TcpServer`/fleet node and injects faults from a
//! reproducible schedule:
//!
//! ```text
//!   client ──► ChaosProxy (127.0.0.1:0) ──► server
//!                 │
//!                 └─ per-connection ConnPlan, pure f(spec, seed, conn#):
//!                    refuse · drop request at byte k · truncate reply
//!                    at byte k · corrupt reply (checksum-breaking or
//!                    checksum-preserving) · latency+jitter · throttle
//! ```
//!
//! The contract that makes chaos regressions *replayable*: a
//! [`ConnPlan`] is a pure function of `(spec, seed, connection index)`
//! — never of wall-clock time — and every fault triggers at an exact
//! **byte offset** in one direction of the stream. TCP delivers bytes
//! reliably and in order, so the same seed cuts the same request,
//! truncates the same reply, and flips the same bit, bit-for-bit,
//! on every run ([`schedule_fingerprint`] pins this).
//!
//! What each fault looks like from the client:
//!
//! * **refuse** — the proxy accepts and instantly closes (a partition
//!   window / refused dial): the handshake fails, *retry-safe*.
//! * **drop** — the client→server stream is cut mid-request: the server
//!   sees a torn frame and discards it, so the request was never
//!   processed — *retry-safe* by construction.
//! * **trunc** — the server→client stream is cut mid-reply: the server
//!   *did* process the request — *lease-in-doubt*; a retried lease
//!   yields fresh IDs and the lost grant leaks (never duplicates).
//! * **corrupt** — a reply byte is flipped. Checksum-breaking flips are
//!   caught by the v2 frame checksum (typed connection-fatal error,
//!   *lease-in-doubt*). Checksum-preserving flips ([`Fault`]
//!   `CorruptReplyFrame`) re-seal the frame with a valid FNV-1a — the
//!   transport cannot detect them, which is exactly why the *audit*
//!   exists; they are for tests of that last line of defense and never
//!   appear in the driven presets.
//! * **latency / jitter / throttle** — sleeps and chunked writes; they
//!   shape tail latency but never the byte stream, so audit totals
//!   stay reproducible while p99/p999 feel the pain.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod proxy;
mod schedule;
mod spec;

pub use proxy::{ChaosProxy, FaultCounts};
pub use schedule::{schedule_fingerprint, ChaosReport, ConnPlan, Fault, FINGERPRINT_CONNS};
pub use spec::ChaosSpec;
