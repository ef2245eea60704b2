//! The multiplexing v2 client (see the crate docs for the picture):
//! one connection shared by every clone, and no thread of its own.
//!
//! Replies reach their callers by the Leader/Followers pattern over one
//! request table keyed by correlation id. A caller that has sent its
//! frame reads the socket itself when no other caller is reading (it
//! *leads*). The leader puts each reply it reads for another caller in
//! that caller's slot and wakes only that caller; on its own reply it
//! passes the read role to one caller still waiting and returns. Every
//! other caller sleeps until its slot holds a reply, the read role, or
//! the connection's death. So a lone caller reads its own reply, and no
//! lease crosses a client-side thread boundary.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc as StdArc, Mutex};
use std::thread::{self, Thread};
use std::time::Duration;

use uuidp_core::clock;
use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;
use uuidp_core::lockorder;

use crate::error::{broken, ErrorClass};
use crate::frame::{decode_frame, read_frame, write_frame, Frame, FrameBody, FrameError, VERSION};
use crate::{Lease, Summary};

/// Connection-shaping knobs for [`Client::connect_with`].
///
/// The defaults wait for each reply as long as it takes but bound the
/// *handshake*: a peer that accepts the TCP connection and then never
/// speaks can stall the dial, and nothing legitimate takes the server
/// 10 s to say hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Bound on establishing the TCP connection (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Bound on the `Hello`/`HelloOk` exchange (`None` = wait forever).
    pub handshake_timeout: Option<Duration>,
    /// Bound on each request's reply (`None` = wait forever). A timed
    /// out lease is **lease-in-doubt**: the server may have issued it.
    pub request_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: None,
            handshake_timeout: Some(Duration::from_secs(10)),
            request_timeout: None,
        }
    }
}

impl ClientOptions {
    /// Every blocking phase — the dial, the handshake, and each reply —
    /// bounded by `timeout`; `None` keeps the defaults. This is the dial
    /// for paths a chaos proxy may sit on, where nothing may hang
    /// forever.
    pub fn bounded(timeout: Option<Duration>) -> ClientOptions {
        let defaults = ClientOptions::default();
        ClientOptions {
            connect_timeout: timeout,
            handshake_timeout: timeout.or(defaults.handshake_timeout),
            request_timeout: timeout,
        }
    }
}

/// A reply as a reader delivers it: the typed body, or the text of a
/// correlated server `Error` frame.
type Reply = Result<FrameBody, String>;

/// The correlation id the next request of any [`Client`] in this
/// process travels under. One sequence for the process, not one per
/// connection, so the connections that lease from one node (router
/// lanes that dial their own, reconnects) never reuse an id there, and
/// the node's trace spans, keyed by id, each hold one lease. `Relaxed`
/// suffices: the counter publishes no other data.
static NEXT_CORR: AtomicU64 = AtomicU64::new(1);

/// The read half's first buffer size; it doubles while one frame
/// outgrows it.
const READ_CHUNK: usize = 16 * 1024;

/// A drained read buffer larger than this shrinks back to
/// [`READ_CHUNK`], so one large reply (a metrics text) does not pin
/// its allocation for the connection's life.
const MAX_RETAINED: usize = 256 * 1024;

/// One request waiting for its reply.
struct Waiter {
    /// The caller's thread once it waits; `None` while it is still
    /// writing its frame.
    thread: Option<Thread>,
    /// The reply, once a reader has put it here.
    reply: Option<Reply>,
    /// The previous reader passed the read role to this caller.
    lead: bool,
}

impl Waiter {
    /// Wakes the caller if it already sleeps; a caller still writing its
    /// frame finds the change when it starts to wait.
    fn wake(&self) {
        if let Some(thread) = &self.thread {
            thread.unpark();
        }
    }
}

/// Who waits, who reads, and whether the connection lives.
#[derive(Default)]
struct Table {
    waiting: HashMap<u64, Waiter>,
    /// A caller reads the socket, or has been passed the role and not
    /// yet taken it.
    reading: bool,
    /// Why the connection died; every later request fails fast with it.
    dead: Option<String>,
}

impl Table {
    /// Passes the read role to one caller still waiting for its reply
    /// and wakes only that one, or frees the role when nobody waits.
    fn pass_read_role(&mut self) {
        let next = self
            .waiting
            .values_mut()
            .find(|w| w.thread.is_some() && w.reply.is_none());
        match next {
            Some(next) => {
                next.lead = true;
                next.wake();
            }
            None => self.reading = false,
        }
    }

    /// Drops `corr`'s slot, passing on the read role if the slot held
    /// it and the connection still lives.
    fn leave(&mut self, corr: u64) {
        let held_role = self.waiting.remove(&corr).is_some_and(|w| w.lead);
        if held_role && self.dead.is_none() {
            self.pass_read_role();
        }
    }

    /// The error a waiter sees once the connection is dead: its frame
    /// went out, so the server may have processed it.
    fn in_doubt(&self) -> io::Error {
        let reason = self.dead.as_deref().unwrap_or("connection closed");
        broken(reason, ErrorClass::LeaseInDoubt)
    }
}

/// Bytes read off the socket and not yet decoded, `buf[start..end]`.
/// It outlives each reader, so a read cut short by `request_timeout`
/// leaves its partial frame here for the next reader.
struct ReadHalf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadHalf {
    fn new() -> ReadHalf {
        ReadHalf {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// Decodes the next whole buffered frame, if there is one.
    fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = self.buf.get(self.start..self.end).unwrap_or_default();
        Ok(decode_frame(pending)?.map(|(frame, used)| {
            self.start += used;
            frame
        }))
    }

    /// Moves the undecoded tail to the front (once per read, never per
    /// frame) and makes room behind it for at least one more byte.
    fn make_room(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > MAX_RETAINED {
                self.buf = vec![0; READ_CHUNK];
            }
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
    }
}

/// One read off the socket into `half` — the leader's blocking call,
/// made while it holds the read half.
fn read_socket(mut stream: &TcpStream, half: &mut ReadHalf) -> io::Result<usize> {
    half.make_room();
    let n = stream.read(&mut half.buf[half.end..])?;
    half.end += n;
    Ok(n)
}

/// What ended a leader's read loop.
enum Led {
    Reply(Reply),
    TimedOut(Duration),
    Dead,
}

struct Inner {
    /// The connection. Reads and writes go through `&TcpStream`, each
    /// under its own role lock below, so [`Inner::die`] can shut the
    /// socket down while a reader or a writer is blocked on it.
    stream: TcpStream,
    /// Held across one whole frame write.
    writer: Mutex<()>,
    /// Held by the leader while it reads; the buffer outlives it.
    reader: Mutex<ReadHalf>,
    table: Mutex<Table>,
    space: IdSpace,
    request_timeout: Option<Duration>,
}

impl Inner {
    /// Marks the connection dead, shuts the socket down (a blocked
    /// reader or writer returns at once) and wakes every waiter, which
    /// fails lease-in-doubt unless its reply is already in its slot.
    fn die(&self, reason: String) {
        let _ = self.stream.shutdown(Shutdown::Both);
        let _order = lockorder::track("client.table");
        let mut table = self.table.lock().expect("client table");
        table.dead.get_or_insert(reason);
        table.waiting.values().for_each(Waiter::wake);
    }

    /// Registers `corr`'s slot. Fails fast, retry-safe, if the
    /// connection already died: the request never left.
    fn register(&self, corr: u64) -> io::Result<()> {
        let _order = lockorder::track("client.table");
        let mut table = self.table.lock().expect("client table");
        if let Some(reason) = &table.dead {
            return Err(broken(reason.clone(), ErrorClass::RetrySafe));
        }
        table.waiting.insert(
            corr,
            Waiter {
                thread: None,
                reply: None,
                lead: false,
            },
        );
        Ok(())
    }

    /// Writes one request frame (whole frame, one `write_all`, under
    /// the writer lock — frames from concurrent clones never interleave
    /// mid-frame).
    fn send(&self, corr: u64, body: &FrameBody) -> io::Result<()> {
        let result = {
            let _writer = self.writer.lock().expect("client writer");
            // lint:allow(lock-blocking): holding the writer lock across this one write_all is the mechanism that keeps concurrent clones' frames from interleaving mid-frame; no other lock is ever taken while it is held
            write_frame(&mut &self.stream, corr, body)
        };
        result.map_err(|e| {
            self.die(format!("write failed: {e}"));
            let _order = lockorder::track("client.table");
            self.table.lock().expect("client table").leave(corr);
            // A failed `write_all` means the frame went out torn at
            // best; the server's checksum discards it unprocessed.
            broken(format!("write failed: {e}"), ErrorClass::RetrySafe)
        })
    }

    /// Waits for `corr`'s reply: sleeps while another caller reads, and
    /// reads the socket itself when the read role is free or passed to
    /// it.
    fn wait(&self, corr: u64) -> io::Result<Reply> {
        let deadline = self.request_timeout.map(|bound| {
            let ns = u64::try_from(bound.as_nanos()).unwrap_or(u64::MAX);
            (bound, clock::monotonic_ns().saturating_add(ns))
        });
        loop {
            let leads = {
                let _order = lockorder::track("client.table");
                let mut guard = self.table.lock().expect("client table");
                let table = &mut *guard;
                let slot = table.waiting.get_mut(&corr).expect("a waiter's slot");
                if let Some(reply) = slot.reply.take() {
                    table.waiting.remove(&corr);
                    return Ok(reply);
                }
                if table.dead.is_some() {
                    table.waiting.remove(&corr);
                    return Err(table.in_doubt());
                }
                let now = clock::monotonic_ns();
                if let Some((bound, _)) = deadline.filter(|&(_, at)| now >= at) {
                    table.leave(corr);
                    return Err(timed_out(bound));
                }
                if slot.lead || !table.reading {
                    slot.lead = false;
                    table.reading = true;
                    true
                } else {
                    slot.thread.get_or_insert_with(thread::current);
                    false
                }
            };
            if leads {
                return self.lead(corr, deadline);
            }
            match deadline {
                None => thread::park(),
                Some((_, at)) => thread::park_timeout(Duration::from_nanos(
                    at.saturating_sub(clock::monotonic_ns()),
                )),
            }
        }
    }

    /// The leader's loop: reads until `corr`'s own reply arrives,
    /// delivering every other reply it decodes to its waiter, then
    /// passes the read role on.
    fn lead(&self, corr: u64, deadline: Option<(Duration, u64)>) -> io::Result<Reply> {
        let _order = lockorder::track("client.reader");
        let mut half = self.reader.lock().expect("client reader");
        let led = loop {
            match self.deliver(&mut half, corr) {
                Ok(Some(reply)) => break Led::Reply(reply),
                Ok(None) => {}
                Err(reason) => {
                    self.die(reason);
                    break Led::Dead;
                }
            }
            if let Some((bound, at)) = deadline {
                let now = clock::monotonic_ns();
                if now >= at {
                    break Led::TimedOut(bound);
                }
                if let Err(e) = self
                    .stream
                    .set_read_timeout(Some(Duration::from_nanos(at - now)))
                {
                    self.die(e.to_string());
                    break Led::Dead;
                }
            }
            // lint:allow(lock-blocking): the leader blocks on the socket holding the read half by design — that lock is the read role itself, followers sleep on the table and never take it, and `die` shuts the socket down without it
            match read_socket(&self.stream, &mut half) {
                Ok(0) => {
                    self.die("server closed the connection".into());
                    break Led::Dead;
                }
                Ok(_) => {}
                // A signal, or the read timeout set to this leader's
                // deadline: the loop checks the deadline again.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => {
                    self.die(e.to_string());
                    break Led::Dead;
                }
            }
        };
        let _order = lockorder::track("client.table");
        let mut table = self.table.lock().expect("client table");
        table.waiting.remove(&corr);
        let result = match led {
            Led::Reply(reply) => Ok(reply),
            Led::TimedOut(bound) => Err(timed_out(bound)),
            Led::Dead => return Err(table.in_doubt()),
        };
        if table.dead.is_none() {
            table.pass_read_role();
        }
        result
    }

    /// Decodes every whole frame in `half`: returns `corr`'s own reply
    /// if it was among them, puts each other reply in its waiter's slot
    /// and wakes that waiter, and drops replies nobody waits for any
    /// more (timed-out requests). `Err` is the connection's death
    /// reason: a corrupt stream or an uncorrelated (connection-level)
    /// frame.
    fn deliver(&self, half: &mut ReadHalf, corr: u64) -> Result<Option<Reply>, String> {
        let mut own = None;
        while let Some(frame) = half.next_frame().map_err(|e| e.to_string())? {
            let reply = match frame.body {
                FrameBody::Error { message } if frame.corr != 0 => Err(message),
                FrameBody::Error { message } => return Err(message),
                other if frame.corr == 0 => {
                    return Err(format!("unexpected uncorrelated {} frame", other.name()))
                }
                body => Ok(body),
            };
            if frame.corr == corr {
                own = Some(reply);
                continue;
            }
            let _order = lockorder::track("client.table");
            let mut table = self.table.lock().expect("client table");
            if let Some(waiter) = table.waiting.get_mut(&frame.corr) {
                waiter.reply = Some(reply);
                waiter.wake();
            }
        }
        Ok(own)
    }
}

/// The request left the building, the reply never arrived in time: the
/// server may have processed it.
fn timed_out(bound: Duration) -> io::Error {
    broken(
        format!("request timed out after {bound:?}"),
        ErrorClass::LeaseInDoubt,
    )
}

/// A connection to a v2-speaking `TcpServer`, shared by cloning.
///
/// Every method is `&self` and thread-safe: clones (and threads) issue
/// requests concurrently over the one underlying connection, each
/// waiting on its own correlation id while one of them reads the
/// socket for all (see the module docs). Dropping the last clone
/// closes the connection (the server sees EOF).
#[derive(Clone)]
pub struct Client {
    inner: StdArc<Inner>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("space", &self.inner.space)
            .finish_non_exhaustive()
    }
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connects to `addr` and performs the v2 handshake. `space` must
    /// match the server's universe — the handshake checks this up front
    /// and fails with a typed error on mismatch.
    pub fn connect<A: ToSocketAddrs>(addr: A, space: IdSpace) -> io::Result<Client> {
        Client::connect_with(addr, space, ClientOptions::default())
    }

    /// [`Client::connect`] with explicit connect / handshake / request
    /// timeouts — the chaos-tolerant dial.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        space: IdSpace,
        options: ClientOptions,
    ) -> io::Result<Client> {
        let mut stream = match options.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(bound) => {
                // `connect_timeout` needs resolved addresses; try each.
                let mut last = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, bound) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match connected {
                    Some(s) => s,
                    None => {
                        return Err(last.unwrap_or_else(|| {
                            io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses")
                        }))
                    }
                }
            }
        };
        // No request exists until the handshake completes, so a hello
        // that is lost, torn, corrupt or late is always safe to retry.
        let hello = handshake(&mut stream, space, options.handshake_timeout)
            .map_err(|e| broken(format!("handshake failed: {e}"), ErrorClass::RetrySafe))?;
        match hello.body {
            FrameBody::HelloOk { version, space: m } => {
                if version != VERSION {
                    return Err(proto_err(format!(
                        "server negotiated unsupported protocol version {version}"
                    )));
                }
                if m != space.size() {
                    return Err(proto_err(format!(
                        "server universe is {m}, client was built for {}",
                        space.size()
                    )));
                }
            }
            FrameBody::Error { message } => {
                return Err(proto_err(format!("server rejected handshake: {message}")))
            }
            other => {
                return Err(proto_err(format!(
                    "expected hello-ok, got {} frame",
                    other.name()
                )))
            }
        }
        Ok(Client {
            inner: StdArc::new(Inner {
                stream,
                writer: Mutex::new(()),
                reader: Mutex::new(ReadHalf::new()),
                table: Mutex::new(Table::default()),
                space,
                request_timeout: options.request_timeout,
            }),
        })
    }

    /// The universe this client types arcs over.
    pub fn space(&self) -> IdSpace {
        self.inner.space
    }

    /// One multiplexed round trip: register, send, wait for this
    /// correlation id's reply.
    fn request(&self, body: FrameBody) -> io::Result<FrameBody> {
        self.request_with_corr(body).map(|(body, _)| body)
    }

    /// [`Client::request`], also surfacing the correlation id the
    /// request traveled under — the handle tail-latency samplers keep
    /// so a slow lease's span can be fetched back later.
    fn request_with_corr(&self, body: FrameBody) -> io::Result<(FrameBody, u64)> {
        let corr = NEXT_CORR.fetch_add(1, Ordering::Relaxed);
        self.inner.register(corr)?;
        self.inner.send(corr, &body)?;
        match self.inner.wait(corr)? {
            Ok(reply) => Ok((reply, corr)),
            Err(message) => Err(proto_err(format!("server error: {message}"))),
        }
    }

    /// Leases `count` IDs for `tenant`.
    pub fn lease(&self, tenant: u64, count: u128) -> io::Result<Lease> {
        self.lease_with_corr(tenant, count).map(|(lease, _)| lease)
    }

    /// [`Client::lease`], also returning the correlation id the lease
    /// traveled under, so a tail sampler can later ask the server for
    /// this exact request's span via [`Client::timeline`].
    pub fn lease_with_corr(&self, tenant: u64, count: u128) -> io::Result<(Lease, u64)> {
        let (reply, corr) = self.request_with_corr(FrameBody::LeaseReq { tenant, count })?;
        match reply {
            FrameBody::LeaseResp {
                tenant,
                granted,
                arcs,
                error,
            } => {
                let space = self.inner.space;
                let mut typed = Vec::with_capacity(arcs.len());
                for (start, len) in arcs {
                    // Validate before constructing: `Arc::new` asserts,
                    // and a server/universe mismatch must surface as an
                    // error, not a panic.
                    if start >= space.size() || len < 1 || len > space.size() {
                        return Err(proto_err(format!(
                            "arc {start}+{len} does not fit universe {space}"
                        )));
                    }
                    typed.push(Arc::new(space, Id(start), len));
                }
                Ok((
                    Lease {
                        tenant,
                        granted,
                        arcs: typed,
                        error,
                    },
                    corr,
                ))
            }
            other => Err(proto_err(format!(
                "expected lease-resp, got {} frame",
                other.name()
            ))),
        }
    }

    /// Recycles `tenant`'s generator into a fresh epoch.
    pub fn reset(&self, tenant: u64) -> io::Result<()> {
        match self.request(FrameBody::ResetReq { tenant })? {
            FrameBody::ResetResp { tenant: echoed } if echoed == tenant => Ok(()),
            other => Err(proto_err(format!(
                "expected reset-resp for tenant {tenant}, got {} frame",
                other.name()
            ))),
        }
    }

    /// Blocks until the server has processed every request submitted
    /// before this one (across all connections and clones).
    pub fn drain(&self) -> io::Result<()> {
        match self.request(FrameBody::DrainReq)? {
            FrameBody::DrainResp => Ok(()),
            other => Err(proto_err(format!(
                "expected drain-resp, got {} frame",
                other.name()
            ))),
        }
    }

    /// A live service summary: totals as of every request processed so
    /// far, without stopping anything.
    pub fn summary(&self) -> io::Result<Summary> {
        match self.request(FrameBody::SummaryReq)? {
            FrameBody::SummaryResp(summary) => Ok(summary),
            other => Err(proto_err(format!(
                "expected summary-resp, got {} frame",
                other.name()
            ))),
        }
    }

    /// A live metrics scrape: the server's observability registry as a
    /// Prometheus-style text exposition (the same families the stdin
    /// REPL's `metrics` command renders). Read it back into a typed
    /// snapshot with `uuidp_obs::Snapshot::parse_prometheus`.
    pub fn metrics(&self) -> io::Result<String> {
        match self.request(FrameBody::MetricsReq)? {
            FrameBody::MetricsResp { text } => Ok(text),
            other => Err(proto_err(format!(
                "expected metrics-resp, got {} frame",
                other.name()
            ))),
        }
    }

    /// The server's retained trace span for one correlation id (a prior
    /// lease's `lease_with_corr` handle), rendered as a causal
    /// timeline. Empty string when the server's trace ring no longer
    /// retains (or never sampled) that span.
    pub fn timeline(&self, corr: u64) -> io::Result<String> {
        match self.request(FrameBody::TimelineReq { corr })? {
            FrameBody::TimelineResp { text } => Ok(text),
            other => Err(proto_err(format!(
                "expected timeline-resp, got {} frame",
                other.name()
            ))),
        }
    }

    /// Stops the whole server and returns its final summary. Sibling
    /// clones and connections are severed.
    pub fn shutdown(self) -> io::Result<Summary> {
        match self.request(FrameBody::ShutdownReq)? {
            FrameBody::SummaryResp(summary) => Ok(summary),
            other => Err(proto_err(format!(
                "expected summary-resp, got {} frame",
                other.name()
            ))),
        }
    }
}

/// Sends `Hello` and reads the server's answer to it, bounding the read
/// by `timeout`.
fn handshake(
    stream: &mut TcpStream,
    space: IdSpace,
    timeout: Option<Duration>,
) -> io::Result<Frame> {
    // Frames are small and latency-bound; never batch them behind
    // Nagle (pairs with the server-side set_nodelay).
    stream.set_nodelay(true)?;
    write_frame(
        stream,
        0,
        &FrameBody::Hello {
            version: VERSION,
            space: space.size(),
        },
    )?;
    // The handshake reads exactly one frame, before any request
    // exists; after it, each read is made by whichever caller leads,
    // bounded by `request_timeout`. A stalled accept/hello must not
    // hang the caller forever, so this read is bounded while the
    // handshake lasts.
    stream.set_read_timeout(timeout)?;
    let hello = read_frame(stream)?;
    stream.set_read_timeout(None)?;
    Ok(hello)
}
