//! The one retry loop: a [`Session`] owns the dial → attempt → classify
//! → drop → backoff cycle for every caller that retries or redials.
//!
//! A session is pinned to one address. It holds at most one live
//! [`Client`] (dialed lazily, replaced after any failure), the
//! [`RetryPolicy`] that paces its retries, and the [`FaultCounters`]
//! ledger of everything it absorbed. [`Session::call`] runs one request
//! to completion under that policy, with one rule for what may be
//! retried: everything except [`ErrorClass::Fatal`]. Retrying a
//! lease-in-doubt failure is deliberate and correct for this service:
//! the generator never re-emits an ID, so the retried lease yields
//! fresh IDs and the abandoned grant merely leaks — leak, never
//! duplicate.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use uuidp_core::id::IdSpace;

use crate::client::{Client, ClientOptions};
use crate::error::{classify, ErrorClass, FaultCounters, RetryPolicy};

/// The bound on every blocking phase (dial, handshake, each reply) of a
/// connection a chaos proxy may sit on: long enough that a throttled
/// but live peer gets through, short enough that a truncated reply
/// cannot hang the caller.
pub const CHAOS_TIMEOUT: Duration = Duration::from_secs(5);

/// A retrying connection to one server address (see the module docs).
///
/// Cloning a connected session shares its [`Client`], so a pool of
/// clones multiplexes one connection; each clone keeps its own ledger
/// and redials on its own after a failure.
#[derive(Debug, Clone)]
pub struct Session {
    addr: SocketAddr,
    space: IdSpace,
    options: ClientOptions,
    policy: RetryPolicy,
    client: Option<Client>,
    ever_connected: bool,
    streak: u32,
    faults: FaultCounters,
}

impl Session {
    /// A session that dials `addr` on its first call, so even the first
    /// dial runs inside the retry loop.
    pub fn new(
        addr: SocketAddr,
        space: IdSpace,
        options: ClientOptions,
        policy: RetryPolicy,
    ) -> Session {
        Session {
            addr,
            space,
            options,
            policy,
            client: None,
            ever_connected: false,
            streak: 0,
            faults: FaultCounters::default(),
        }
    }

    /// A session whose first dial happens now, failing with the dial's
    /// error instead of retrying it.
    pub fn connect(
        addr: SocketAddr,
        space: IdSpace,
        options: ClientOptions,
        policy: RetryPolicy,
    ) -> io::Result<Session> {
        let mut session = Session::new(addr, space, options, policy);
        session.client()?;
        Ok(session)
    }

    /// Runs `f` against a live connection, dialing first when there is
    /// none. A failed attempt is classified into the ledger and drops
    /// the connection (a timed-out request's late reply must never be
    /// read as the next request's answer). The request is retried after
    /// the policy's backoff unless the failure is
    /// [`ErrorClass::Fatal`] or the budget is spent; then it is counted
    /// as abandoned and the last error is returned.
    pub fn call<T>(&mut self, mut f: impl FnMut(&Client) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let err = match self.client().and_then(&mut f) {
                Ok(value) => {
                    self.streak = 0;
                    return Ok(value);
                }
                Err(err) => err,
            };
            self.faults.observe(&err);
            self.streak += 1;
            self.client = None;
            if classify(&err) == ErrorClass::Fatal || !self.policy.allows(attempt) {
                self.faults.exhausted += 1;
                return Err(err);
            }
            self.faults.retries += 1;
            std::thread::sleep(self.policy.delay(attempt));
            attempt += 1;
        }
    }

    /// The live connection, dialed if there is none. A successful dial
    /// by a session that has been connected before is a reconnect.
    fn client(&mut self) -> io::Result<&Client> {
        if self.client.is_none() {
            let client = Client::connect_with(self.addr, self.space, self.options)?;
            if self.ever_connected {
                self.faults.reconnects += 1;
            }
            self.ever_connected = true;
            self.client = Some(client);
        }
        Ok(self.client.as_ref().expect("dialed above"))
    }

    /// Drops the live connection; the next call redials.
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    /// Replaces the retry schedule for later calls.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Replaces the dial / handshake / reply bounds for later dials.
    pub fn set_options(&mut self, options: ClientOptions) {
        self.options = options;
    }

    /// Failed attempts since the last success.
    pub fn failure_streak(&self) -> u32 {
        self.streak
    }

    /// Everything this session absorbed.
    pub fn faults(&self) -> FaultCounters {
        self.faults
    }
}
