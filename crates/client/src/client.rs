//! The multiplexing v2 client (see the crate docs for the picture):
//! a shared writer handle plus one reader demux thread per connection,
//! with replies routed to callers by correlation id.

use std::collections::HashMap;
use std::io::{self, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc as StdArc, Mutex};
use std::time::Duration;

use uuidp_core::id::{Id, IdSpace};
use uuidp_core::interval::Arc;
use uuidp_core::lockorder;

use crate::error::{broken, ErrorClass};
use crate::frame::{read_frame, write_frame, FrameBody, VERSION};
use crate::{Lease, Summary};

/// Connection-shaping knobs for [`Client::connect_with`].
///
/// The defaults reproduce the historical behavior on the request path
/// (block until the demux answers) but bound the *handshake*: a peer
/// that accepts the TCP connection and then never speaks can stall the
/// dial, and nothing legitimate takes the server 10 s to say hello.
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

/// A reply as the demux delivers it: the typed body, or the text of a
/// correlated server `Error` frame.
type Reply = Result<FrameBody, String>;

/// Either the live map of waiting requests, or the reason the
/// connection died (every later request fails fast with it).
enum Pending {
    Live(HashMap<u64, SyncSender<Reply>>),
    Dead(String),
}

/// The correlation id the next request of any [`Client`] in this
/// process travels under. One sequence for the process, not one per
/// connection, so the connections that lease from one node (router
/// lanes that dial their own, reconnects) never reuse an id there, and
/// the node's trace spans, keyed by id, each hold one lease. `Relaxed`
/// suffices: the counter publishes no other data.
static NEXT_CORR: AtomicU64 = AtomicU64::new(1);

struct Inner {
    writer: Mutex<TcpStream>,
    pending: Mutex<Pending>,
    space: IdSpace,
    request_timeout: Option<Duration>,
}

impl Inner {
    /// Marks the connection dead and wakes every waiting request (their
    /// reply senders are dropped with the map).
    fn die(&self, reason: String) {
        let _order = lockorder::track("client.pending");
        let mut pending = self.pending.lock().expect("pending lock");
        if matches!(*pending, Pending::Live(_)) {
            *pending = Pending::Dead(reason);
        }
    }
}

/// The user-facing ownership layer: the reader thread holds its own
/// `Arc<Inner>`, so `Inner`'s refcount alone can never tell when the
/// *callers* are gone — this wrapper can. When the last [`Client`]
/// clone drops, the socket is shut down, which unblocks the reader and
/// lets the whole connection wind down (the server sees EOF).
struct Handle {
    inner: StdArc<Inner>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        {
            let _order = lockorder::track("client.writer");
            if let Ok(writer) = self.inner.writer.lock() {
                let _ = writer.shutdown(std::net::Shutdown::Both);
            }
        }
        self.inner.die("client dropped".into());
    }
}

/// A connection to a v2-speaking `TcpServer`, shared by cloning.
///
/// Every method is `&self` and thread-safe: clones (and threads) issue
/// requests concurrently over the one underlying connection, each
/// parked on its own correlation id until the reader demux thread
/// delivers its reply. Dropping the last clone closes the connection
/// (the server sees EOF).
#[derive(Clone)]
pub struct Client {
    handle: StdArc<Handle>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("space", &self.handle.inner.space)
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
        let inner = StdArc::new(Inner {
            writer: Mutex::new(stream.try_clone()?),
            pending: Mutex::new(Pending::Live(HashMap::new())),
            space,
            request_timeout: options.request_timeout,
        });
        let reader_inner = StdArc::clone(&inner);
        std::thread::spawn(move || reader_demux(stream, reader_inner));
        Ok(Client {
            handle: StdArc::new(Handle { inner }),
        })
    }

    /// The universe this client types arcs over.
    pub fn space(&self) -> IdSpace {
        self.handle.inner.space
    }

    /// Registers a fresh correlation id and its reply slot. Fails fast
    /// if the connection already died.
    fn register(&self) -> io::Result<(u64, std::sync::mpsc::Receiver<Reply>)> {
        let corr = NEXT_CORR.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        let _order = lockorder::track("client.pending");
        match &mut *self.handle.inner.pending.lock().expect("pending lock") {
            Pending::Live(map) => {
                map.insert(corr, tx);
            }
            // Dead before the request ever left: plainly retry-safe.
            Pending::Dead(reason) => return Err(broken(reason.clone(), ErrorClass::RetrySafe)),
        }
        Ok((corr, rx))
    }

    /// Forgets a registered correlation id (timed-out request): any
    /// late reply is dropped on the floor by the demux.
    fn unregister(&self, corr: u64) {
        let _order = lockorder::track("client.pending");
        if let Pending::Live(map) = &mut *self.handle.inner.pending.lock().expect("pending lock") {
            map.remove(&corr);
        }
    }

    /// Writes one request frame (whole frame, one `write_all`, under
    /// the writer lock — frames from concurrent clones never interleave
    /// mid-frame).
    fn send(&self, corr: u64, body: &FrameBody) -> io::Result<()> {
        let result = {
            let _order = lockorder::track("client.writer");
            let mut writer = self.handle.inner.writer.lock().expect("writer lock");
            // lint:allow(lock-blocking): holding the writer lock across this one write_all is the mechanism that keeps concurrent clones' frames from interleaving mid-frame; the reader demux never takes this lock
            write_frame(&mut *writer, corr, body)
        };
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                self.handle.inner.die(format!("write failed: {e}"));
                // A failed `write_all` means the frame went out torn at
                // best; the server's checksum discards it unprocessed.
                Err(broken(format!("write failed: {e}"), ErrorClass::RetrySafe))
            }
        }
    }

    /// One multiplexed round trip: register, send, park until the demux
    /// delivers this correlation id's reply.
    fn request(&self, body: FrameBody) -> io::Result<FrameBody> {
        self.request_with_corr(body).map(|(body, _)| body)
    }

    /// [`Client::request`], also surfacing the correlation id the
    /// request traveled under — the handle tail-latency samplers keep
    /// so a slow lease's span can be fetched back later.
    fn request_with_corr(&self, body: FrameBody) -> io::Result<(FrameBody, u64)> {
        let (corr, rx) = self.register()?;
        self.send(corr, &body)?;
        let received = match self.handle.inner.request_timeout {
            None => rx.recv().map_err(|_| None),
            Some(bound) => match rx.recv_timeout(bound) {
                Ok(reply) => Ok(reply),
                Err(RecvTimeoutError::Disconnected) => Err(None),
                Err(RecvTimeoutError::Timeout) => {
                    self.unregister(corr);
                    Err(Some(bound))
                }
            },
        };
        match received {
            Ok(Ok(reply)) => Ok((reply, corr)),
            Ok(Err(message)) => Err(proto_err(format!("server error: {message}"))),
            // The request left the building, the reply never arrived:
            // whether it timed out or the reader died (EOF, sever,
            // corrupt stream), the server may have processed it.
            Err(Some(bound)) => Err(broken(
                format!("request timed out after {bound:?}"),
                ErrorClass::LeaseInDoubt,
            )),
            Err(None) => {
                let reason = {
                    let _order = lockorder::track("client.pending");
                    match &*self.handle.inner.pending.lock().expect("pending lock") {
                        Pending::Dead(reason) => reason.clone(),
                        Pending::Live(_) => "reply channel dropped".into(),
                    }
                };
                Err(broken(reason, ErrorClass::LeaseInDoubt))
            }
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
                let space = self.handle.inner.space;
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
) -> io::Result<crate::frame::Frame> {
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
    // The handshake is the one synchronous read on the caller's
    // thread; after it, the reader demux owns the read half. A
    // stalled accept/hello must not hang the caller forever, so
    // the read is bounded while the handshake lasts.
    stream.set_read_timeout(timeout)?;
    let hello = read_frame(stream)?;
    stream.set_read_timeout(None)?;
    Ok(hello)
}

/// The reader demux: decodes frames off the read half and hands each to
/// the request that registered its correlation id. Runs until EOF or a
/// fatal stream error, then wakes everyone with the reason.
fn reader_demux(stream: TcpStream, inner: StdArc<Inner>) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame_reason(&mut reader) {
            Ok(frame) => {
                if frame.corr == 0 {
                    // Connection-level error (or stray chatter): fatal.
                    let reason = match frame.body {
                        FrameBody::Error { message } => message,
                        other => format!("unexpected uncorrelated {} frame", other.name()),
                    };
                    inner.die(reason);
                    return;
                }
                // Scoped so the guard is gone before the reply send: a
                // match-scrutinee temporary would live across the send,
                // and the waiter being woken may touch `pending` itself.
                let slot = {
                    let _order = lockorder::track("client.pending");
                    let mut pending = inner.pending.lock().expect("pending lock");
                    match &mut *pending {
                        Pending::Live(map) => map.remove(&frame.corr),
                        Pending::Dead(_) => return,
                    }
                };
                if let Some(tx) = slot {
                    let reply = match frame.body {
                        FrameBody::Error { message } => Err(message),
                        body => Ok(body),
                    };
                    let _ = tx.send(reply);
                }
                // No waiter: a reply for a request the caller gave up
                // on — dropped on the floor by design.
            }
            Err(reason) => {
                inner.die(reason);
                return;
            }
        }
    }
}

/// [`read_frame`] with the error folded to the demux's reason string.
fn read_frame_reason(r: &mut impl Read) -> Result<crate::frame::Frame, String> {
    read_frame(r).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            "server closed the connection".into()
        } else {
            e.to_string()
        }
    })
}
