//! Typed connection errors and retry classification.
//!
//! Under an adversarial network every failure forces one question on
//! the caller: *may this request be retried?* The answer depends on
//! whether the request can have reached the server:
//!
//! * the write never completed → the server saw at most a torn frame,
//!   which its checksum discipline discards — **retry-safe**;
//! * the write completed but the reply was lost (connection severed,
//!   corrupt reply frame, timeout) → the server may have issued the
//!   lease — **lease-in-doubt**. Retrying is still *correct* for this
//!   service (the generator never re-emits an ID, so a retried lease
//!   yields fresh IDs and the lost ones merely leak — the paper's
//!   discipline is leak-not-duplicate), but the caller must account the
//!   abandoned lease as leaked, never re-derive IDs from it;
//! * the two ends disagree about the protocol itself → **fatal**,
//!   retrying the same bytes cannot help.
//!
//! When a connection dies, every request waiting on it fails
//! lease-in-doubt at once, and every later request on it fails fast,
//! retry-safe. A connection that dies while no request is in flight is
//! found by the next request's own read: its frame went out, so it is
//! lease-in-doubt, unless its write already failed (retry-safe).
//!
//! [`BrokenConnection`] carries that classification inside an
//! `io::Error` (downcast via [`broken_connection`]), so every existing
//! `io::Result` surface stays intact while chaos-aware callers can
//! route on it. [`RetryPolicy`] is the matching deterministic
//! exponential-backoff schedule: jitter is derived from a seed, so a
//! replayed chaos run waits the same nanoseconds in the same places.
//! [`FaultCounters`] is the ledger a [`Session`](crate::Session) keeps
//! of every classified failure and every recovery action.

use std::io;
use std::time::Duration;

use uuidp_core::rng::SplitMix64;

/// How a failed request relates to server-side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The request cannot have been processed; retry freely. The dial
    /// or handshake failed, the frame's write failed, or the connection
    /// was already known dead when the request was made.
    RetrySafe,
    /// The request may have been processed and the reply lost. A lease
    /// retried after this must be treated as *fresh* (the abandoned
    /// grant leaks server-side); never re-derive IDs from the original.
    /// This includes the first request on a connection that died while
    /// idle: nothing reads an idle connection, so that request's own
    /// read, after its write went out, is what finds the death.
    LeaseInDoubt,
    /// Protocol-level disagreement; retrying the same request is
    /// pointless.
    Fatal,
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorClass::RetrySafe => "retry-safe",
            ErrorClass::LeaseInDoubt => "lease-in-doubt",
            ErrorClass::Fatal => "fatal",
        })
    }
}

/// The typed payload of a connection-death `io::Error`: why the
/// connection is gone and whether the in-flight request may have been
/// processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenConnection {
    /// Human-readable cause (the connection's death reason, a write
    /// error, a timeout).
    pub reason: String,
    /// Retry classification for the request that observed this error.
    pub class: ErrorClass,
}

impl std::fmt::Display for BrokenConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "connection broken ({}): {}", self.class, self.reason)
    }
}

impl std::error::Error for BrokenConnection {}

impl BrokenConnection {
    /// Wraps this classification into an `io::Error` that downcasts
    /// back via [`broken_connection`].
    pub fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::UnexpectedEof, self)
    }
}

/// Builds a typed broken-connection error.
pub fn broken(reason: impl Into<String>, class: ErrorClass) -> io::Error {
    BrokenConnection {
        reason: reason.into(),
        class,
    }
    .into_io()
}

/// Recovers the typed [`BrokenConnection`] from an `io::Error`, if it
/// carries one.
pub fn broken_connection(err: &io::Error) -> Option<&BrokenConnection> {
    err.get_ref()?.downcast_ref::<BrokenConnection>()
}

/// Classifies any `io::Error` a client call can return.
///
/// Typed [`BrokenConnection`] errors carry their own class; everything
/// else falls back on the `ErrorKind`: dial-phase failures (refused /
/// unreachable / timed out before a request existed) are retry-safe,
/// data-phase severs are lease-in-doubt (the conservative reading —
/// absent the typed payload we cannot know whether the write landed),
/// and `InvalidData` (protocol violations) is fatal.
pub fn classify(err: &io::Error) -> ErrorClass {
    if let Some(b) = broken_connection(err) {
        return b.class;
    }
    match err.kind() {
        io::ErrorKind::ConnectionRefused
        | io::ErrorKind::AddrNotAvailable
        | io::ErrorKind::AddrInUse
        | io::ErrorKind::NotConnected => ErrorClass::RetrySafe,
        io::ErrorKind::InvalidData | io::ErrorKind::InvalidInput | io::ErrorKind::Unsupported => {
            ErrorClass::Fatal
        }
        _ => ErrorClass::LeaseInDoubt,
    }
}

/// Per-fault-class outcome counters for a chaos-exposed caller: every
/// failed attempt is classified by what it implies about server-side
/// effects (see [`ErrorClass`]) and every recovery action is counted,
/// so a report can say not just *how many* requests suffered but *how*
/// they suffered and what it cost to absorb them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Attempts that failed before the request could have been
    /// processed (refused dials, failed handshakes, torn writes).
    pub retry_safe: u64,
    /// Attempts whose reply was lost after the request may have been
    /// processed — each one is a potential leaked lease.
    pub lease_in_doubt: u64,
    /// Protocol-level failures where retrying the same bytes is
    /// pointless.
    pub fatal: u64,
    /// Retries actually performed (every one a recovered attempt).
    pub retries: u64,
    /// Successful dials by a session that had been connected before:
    /// connections replaced mid-run.
    pub reconnects: u64,
    /// Requests abandoned: a fatal failure, or an exhausted retry
    /// budget.
    pub exhausted: u64,
}

impl FaultCounters {
    /// Classifies `err` and bumps the matching class counter.
    pub fn observe(&mut self, err: &io::Error) {
        match classify(err) {
            ErrorClass::RetrySafe => self.retry_safe += 1,
            ErrorClass::LeaseInDoubt => self.lease_in_doubt += 1,
            ErrorClass::Fatal => self.fatal += 1,
        }
    }

    /// Total failed attempts across all classes.
    pub fn failed_attempts(&self) -> u64 {
        self.retry_safe + self.lease_in_doubt + self.fatal
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.retry_safe += other.retry_safe;
        self.lease_in_doubt += other.lease_in_doubt;
        self.fatal += other.fatal;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.exhausted += other.exhausted;
    }

    /// Renders the SLO / error-budget section shared by the stress and
    /// fleet reports: availability against a 99.9% success objective,
    /// with the per-fault-class breakdown underneath.
    ///
    /// `requests` is the number of *logical* requests the driver
    /// submitted; a request that succeeded on retry still counts as
    /// served — that is the whole point of graceful degradation.
    pub fn render_slo(&self, requests: u64) -> String {
        use std::fmt::Write as _;
        let served = requests.saturating_sub(self.exhausted);
        let success_pm = if requests == 0 {
            1000.0
        } else {
            served as f64 / requests as f64 * 1000.0
        };
        // The 99.9% objective expressed as an error budget of failed
        // requests; consumed = abandoned requests against it.
        let budget = requests as f64 * 0.001;
        let consumed = if budget == 0.0 {
            0.0
        } else {
            self.exhausted as f64 / budget * 100.0
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  slo:         {served}/{requests} served ({:.2}‰), error budget (99.9%) {consumed:.0}% consumed",
            success_pm
        );
        let _ = writeln!(
            out,
            "  fault-class: retry-safe {} | lease-in-doubt {} | fatal {}",
            self.retry_safe, self.lease_in_doubt, self.fatal
        );
        let _ = write!(
            out,
            "  recovery:    {} retries, {} reconnects, {} abandoned",
            self.retries, self.reconnects, self.exhausted
        );
        out
    }
}

/// Deterministic exponential backoff with seeded jitter.
///
/// `delay(attempt)` grows `base · 2^attempt`, capped at `max`, plus a
/// jitter drawn from a [`SplitMix64`] keyed on `(seed, attempt)` — two
/// runs with the same seed back off identically, so a replayed chaos
/// schedule replays its timing decisions too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts after the first try (0 = never retry).
    pub max_retries: u32,
    /// First-retry base delay.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Jitter fraction of the computed delay, in per-mille (0..=1000).
    pub jitter_per_mille: u16,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: Duration::from_millis(2),
            max: Duration::from_millis(250),
            jitter_per_mille: 500,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let base_ns = self.base.as_nanos().max(1) as u64;
        let exp = base_ns.saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX));
        let capped = exp.min(self.max.as_nanos().min(u64::MAX as u128) as u64);
        let jitter_bound = capped / 1000 * self.jitter_per_mille.min(1000) as u64;
        let jitter = if jitter_bound == 0 {
            0
        } else {
            SplitMix64::new(self.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .next_value()
                % jitter_bound
        };
        Duration::from_nanos(capped.saturating_add(jitter))
    }

    /// Whether retry number `attempt` (0-based) is allowed.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broken_connection_round_trips_through_io_error() {
        let err = broken("reply lost", ErrorClass::LeaseInDoubt);
        let b = broken_connection(&err).expect("typed payload");
        assert_eq!(b.class, ErrorClass::LeaseInDoubt);
        assert_eq!(b.reason, "reply lost");
        assert_eq!(classify(&err), ErrorClass::LeaseInDoubt);
        assert!(err.to_string().contains("lease-in-doubt"));
    }

    #[test]
    fn kind_fallback_classification() {
        let refused = io::Error::new(io::ErrorKind::ConnectionRefused, "nope");
        assert_eq!(classify(&refused), ErrorClass::RetrySafe);
        let invalid = io::Error::new(io::ErrorKind::InvalidData, "bad frame");
        assert_eq!(classify(&invalid), ErrorClass::Fatal);
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "rst");
        assert_eq!(classify(&reset), ErrorClass::LeaseInDoubt);
    }

    #[test]
    fn backoff_is_deterministic_and_monotone_to_the_cap() {
        let p = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let q = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        for attempt in 0..8 {
            assert_eq!(p.delay(attempt), q.delay(attempt), "attempt {attempt}");
        }
        // Exponential part dominates: attempt 4 waits longer than 0.
        assert!(p.delay(4) > p.delay(0));
        // Capped: never more than max + max jitter.
        for attempt in 0..40 {
            assert!(p.delay(attempt) <= p.max + p.max);
        }
        let other = RetryPolicy {
            seed: 43,
            ..RetryPolicy::default()
        };
        assert_ne!(p.delay(3), other.delay(3), "jitter must follow the seed");
    }

    #[test]
    fn retry_budget_is_respected() {
        let p = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        assert!(p.allows(0));
        assert!(p.allows(1));
        assert!(!p.allows(2));
        assert!(!RetryPolicy::none().allows(0));
    }

    #[test]
    fn fault_counters_classify_and_merge() {
        let mut c = FaultCounters::default();
        c.observe(&io::Error::new(io::ErrorKind::ConnectionRefused, "refused"));
        c.observe(&broken("reply lost", ErrorClass::LeaseInDoubt));
        c.observe(&io::Error::new(io::ErrorKind::InvalidData, "bad"));
        assert_eq!(c.retry_safe, 1);
        assert_eq!(c.lease_in_doubt, 1);
        assert_eq!(c.fatal, 1);
        assert_eq!(c.failed_attempts(), 3);
        let mut d = FaultCounters {
            retries: 5,
            exhausted: 1,
            ..FaultCounters::default()
        };
        d.merge(&c);
        assert_eq!(d.failed_attempts(), 3);
        assert_eq!(d.retries, 5);
        let slo = d.render_slo(1000);
        assert!(slo.contains("999/1000"), "{slo}");
        assert!(slo.contains("lease-in-doubt 1"), "{slo}");
        assert!(slo.contains("5 retries"), "{slo}");
    }

    #[test]
    fn slo_rendering_survives_zero_request_windows() {
        // `requests == 0` (every connect refused before a single
        // logical request) must not divide by zero.
        let c = FaultCounters {
            retry_safe: 5,
            exhausted: 0,
            ..FaultCounters::default()
        };
        let slo = c.render_slo(0);
        assert!(slo.contains("0/0 served"), "{slo}");
        assert!(!slo.contains("NaN") && !slo.contains("inf"), "{slo}");
        // And an all-abandoned window stays finite too.
        let c = FaultCounters {
            exhausted: 3,
            ..FaultCounters::default()
        };
        let slo = c.render_slo(3);
        assert!(slo.contains("0/3 served"), "{slo}");
        assert!(!slo.contains("NaN") && !slo.contains("inf"), "{slo}");
    }
}
