//! TCP front-end for the ID service.
//!
//! [`TcpServer`] speaks **wire protocol v2** only — the
//! `uuidp_client` binary framed protocol — and serves it without any
//! per-connection thread at all:
//!
//! ```text
//!   accept ──► reactor thread (epoll; owns every conn)
//!                 │  first byte must be 0x00 (the v2 magic); anything
//!                 │  else gets one `error:` text line, then close
//!                 │  complete frames, dispatched by kind:
//!                 ├── lease/reset ──► shard worker (tenant % shards)
//!                 └── drain/summary/shutdown ──► control thread
//!                        reply frames are *queued* back to the reactor
//!                        (by the shard itself for a lease) and flushed
//!                        with vectored writes on write readiness,
//!                        correlation ids intact
//! ```
//!
//! However many connections are open, the front-end runs one reactor
//! thread and one control thread beside the service's own shards. The
//! reactor ([`crate::reactor`]) takes readiness from epoll (raw
//! syscalls, see [`crate::sys`]), so an idle server costs ~zero CPU
//! regardless of connection count. A lease goes straight from the
//! reactor to its tenant's shard, and the shard queues the reply frame
//! on the reactor: two thread handoffs per wire lease. Shard queues are
//! FIFO, so each tenant's requests stay in order end to end (the
//! determinism the differential tests pin), while different tenants'
//! requests from one multiplexed connection are served concurrently.
//! Drain/summary/shutdown run on the control thread behind the
//! service's own shard barrier, which covers every lease the reactor
//! dispatched before them, so they mean "everything submitted before
//! me". Shards never block on a slow peer: replies queue on the owning
//! connection inside the reactor, and a peer that stops reading is
//! eventually severed (backpressure by disconnect, not by stalling a
//! shared thread).
//!
//! Shutdown is graceful and client-initiated: the summary frame is
//! projected from the final [`ServiceReport`] by [`wire_summary`].
//! [`TcpServer::halt`] is the crash lever: it severs every connection
//! mid-command, and no client sees a report. The durability layer's
//! `halt_after_persists` hook arrives here too: a lease reply flagged
//! `halted` makes the server die *instead of replying* — a crash
//! dropped exactly between the write-ahead persist and the reply, which
//! no external kill can aim that precisely.
//!
//! A lease asks for at most [`frame::MAX_LEASE_COUNT`] IDs: the reactor
//! refuses a larger one with a typed error before any shard sees it, so
//! every reply fits one frame.
//!
//! Clients live in `uuidp_client`: [`Client`](uuidp_client::Client) is
//! the one remote caller type, from the stress driver and fleet router
//! to `uuidp top`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use uuidp_client::frame::{self, FrameBody};
use uuidp_core::clock;
use uuidp_core::id::IdSpace;
use uuidp_core::lockorder;
use uuidp_obs::{Registry, Stage, TraceRecorder};

use crate::protocol::wire_summary;
use crate::reactor::{Poller, Reactor, ReactorCmd, ReactorHandle, ReactorSeed};
use crate::service::{check_tenant, IdService, LeaseReply, ServiceConfig, ServiceReport};

/// Front-end options, beyond the service's own configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Serve metric scrapes (the v2 metrics and timeline frames). Off,
    /// a scrape gets a typed error reply and the connection stays up —
    /// the registry still records either way, this only gates the
    /// *export* surface.
    pub metrics: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { metrics: true }
    }
}

/// Shared state of a running [`TcpServer`].
pub(crate) struct ServerState {
    /// The service; taken (→ `None`) by whichever connection shuts down.
    pub(crate) service: RwLock<Option<IdService>>,
    /// Set before the accept loop is woken for the last time.
    pub(crate) stopping: AtomicBool,
    /// Set by [`crash_server`] before it takes the service: a crashed
    /// node answers nothing more, not even "shutting down".
    crashed: AtomicBool,
    /// Live connections: counted up when the reactor adopts a socket
    /// and down when it disposes of one, so churning clients leave no
    /// trace. The reactor owns and severs the sockets themselves.
    pub(crate) live: AtomicUsize,
    /// Connection id source.
    pub(crate) next_conn: AtomicU64,
    /// The service's universe — validated against every v2 hello.
    pub(crate) space: IdSpace,
    /// The service's metric registry, kept alongside the `RwLock`ed
    /// service so scrapes never contend with the lease path (reading
    /// counters is lock-free; only snapshot assembly walks the map).
    pub(crate) registry: Arc<Registry>,
    /// The service's trace recorder, for the front-end's own lifecycle
    /// stamps (server-demux, reply-sent).
    pub(crate) trace: Arc<TraceRecorder>,
    /// Whether scrapes are served (see [`ServerOptions::metrics`]).
    pub(crate) metrics: bool,
    /// Command surface into the reactor thread (stop paths use it to
    /// bring the reactor down with the sockets).
    pub(crate) reactor: ReactorHandle,
}

impl ServerState {
    /// Counts a newly adopted connection, returning its id — or `None`
    /// (connection severed) when the server is already stopping, so a
    /// socket accepted during shutdown is never served.
    pub(crate) fn register(&self, stream: &TcpStream) -> Option<u64> {
        if self.stopping.load(Ordering::SeqCst) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return None;
        }
        self.live.fetch_add(1, Ordering::SeqCst);
        Some(self.next_conn.fetch_add(1, Ordering::SeqCst))
    }

    /// Uncounts a connection the reactor has disposed of.
    pub(crate) fn deregister(&self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Runs `f` on the service under its read lock; `None` once a stop
    /// path has taken the service.
    fn with_service<R>(&self, f: impl FnOnce(&IdService) -> R) -> Option<R> {
        let _order = lockorder::track("server.service");
        let service = self.service.read().expect("service lock");
        service.as_ref().map(f)
    }

    /// Answers a request that found the service taken: the typed
    /// "shutting down" error after a graceful shutdown, and nothing
    /// after a crash, whose connections are about to be severed.
    fn refuse(&self, conn: &V2Conn, corr: u64) {
        if !self.crashed.load(Ordering::SeqCst) {
            conn.send_error(corr, "shutting down");
        }
    }
}

/// Kills the server from inside: stop accepting, tear the service down,
/// sever every live connection mid-command, and wake the accept loop.
/// This is the shared crash fiction behind [`TcpServer::halt`] and the
/// `halt_after_persists` hook — clients see an
/// abrupt EOF, and what survives is only what the durability layer
/// persisted write-ahead. The service's report goes only to an
/// in-process caller ([`TcpServer::halt`]); `None` means a shutdown or
/// another crash took the service first.
///
/// When the service has a durable state dir, the flight recorder dumps
/// its last events + a registry snapshot there first (`reason` names
/// the crash path, `focus_corr` the in-flight request if known), so a
/// post-mortem can see the causal timeline that led into the crash.
fn crash_server(
    state: &ServerState,
    local_addr: SocketAddr,
    reason: &str,
    focus_corr: Option<u64>,
) -> Option<ServiceReport> {
    state.crashed.store(true, Ordering::SeqCst);
    state.stopping.store(true, Ordering::SeqCst);
    let service = {
        let _order = lockorder::track("server.service");
        state.service.write().expect("service lock").take()
    };
    let report = service.map(|service| {
        service.dump_flight(reason, focus_corr);
        service.shutdown()
    });
    // The reactor owns every socket: stopping it severs them all.
    state.reactor.stop();
    let _ = TcpStream::connect(local_addr);
    report
}

/// A running TCP front-end over one [`IdService`].
pub struct TcpServer {
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    reactor: JoinHandle<()>,
    control: JoinHandle<()>,
    report_rx: Receiver<ServiceReport>,
    state: Arc<ServerState>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), boots
    /// the service, and starts accepting connections with default
    /// [`ServerOptions`] (scrapes served). Beside the service's shard
    /// and audit threads, the server runs three: accept, reactor and
    /// control.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<TcpServer> {
        TcpServer::bind_with(addr, config, ServerOptions::default())
    }

    /// [`bind`](TcpServer::bind) with explicit front-end options.
    pub fn bind_with(
        addr: &str,
        config: ServiceConfig,
        options: ServerOptions,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let (cmd_tx, cmd_rx) = channel::<ReactorCmd>();
        let reactor_handle = ReactorHandle::new(cmd_tx, poller.waker());
        let space = config.space;
        let service = IdService::start(config);
        let registry = service.registry();
        let trace = service.trace();
        let state = Arc::new(ServerState {
            service: RwLock::new(Some(service)),
            stopping: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            space,
            registry,
            trace,
            metrics: options.metrics,
            reactor: reactor_handle.clone(),
        });
        let (report_tx, report_rx) = sync_channel::<ServiceReport>(1);

        // The v2 control lane (drain / summary / shutdown, and the
        // halt-after-persists crash).
        // Unbounded, so a shard handing it a halted lease never waits.
        let (ctrl_tx, ctrl_rx) = channel::<CtrlJob>();
        let control = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || control_worker(state, ctrl_rx, report_tx, local_addr))
        };
        // The reactor: checks every new connection's first byte and owns
        // all connection I/O.
        let reactor = {
            let seed = ReactorSeed {
                state: Arc::clone(&state),
                poller,
                cmd_rx,
                handle: reactor_handle.clone(),
                ctrl_tx,
            };
            // Built on this thread so its metric families are registered
            // before `bind_with` returns — a scraper that races the
            // reactor's first pass still sees `uuidp_net_wakeups_total`.
            let reactor = Reactor::new(seed);
            std::thread::spawn(move || reactor.run())
        };
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(_) => {
                        // EMFILE/ENFILE or a transient accept failure:
                        // retrying instantly pegs a core without
                        // freeing the fds the retry needs.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        continue;
                    }
                };
                // One reply frame per request: Nagle + delayed ACK would
                // add ~40ms to every round trip on loopback.
                let _ = stream.set_nodelay(true);
                // The reactor reads and writes every socket nonblocking.
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                if !reactor_handle.adopt(stream) {
                    break; // reactor is gone; the server is coming down
                }
            }
        });
        Ok(TcpServer {
            local_addr,
            accept,
            reactor,
            control,
            report_rx,
            state,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Currently live connections — departed clients are uncounted by
    /// the reactor, so this does not grow with connection churn.
    pub fn live_connections(&self) -> usize {
        self.state.live.load(Ordering::SeqCst)
    }

    /// The service's metric registry — in-process drivers (stress,
    /// fleet, tests) read counters here without a wire scrape.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.registry)
    }

    /// The service's trace recorder — in-process drivers stamp
    /// client-side lifecycle stages (client-send, client-recv) into the
    /// same ring the server stamps, so assembled timelines span both
    /// halves of the exchange.
    pub fn trace(&self) -> Arc<TraceRecorder> {
        Arc::clone(&self.state.trace)
    }

    /// The reactor's readiness backend, always `"epoll"` (bench
    /// provenance records it).
    pub fn net_backend(&self) -> &'static str {
        "epoll"
    }

    fn join_threads(self) -> Receiver<ServiceReport> {
        let _ = self.accept.join();
        let _ = self.reactor.join();
        let _ = self.control.join();
        self.report_rx
    }

    /// Blocks until a client issues `shutdown`, then returns the server-side [`ServiceReport`] (`None` only if
    /// the accept loop died without a shutdown, which a well-formed run
    /// never does).
    pub fn join(self) -> Option<ServiceReport> {
        self.join_threads().try_recv().ok()
    }

    /// Server-side stop, no client involved: severs every live
    /// connection mid-command, stops the accept loop, and tears the
    /// service down. Clients see an abrupt EOF, exactly as if the
    /// process died.
    ///
    /// This is the crash lever the fleet chaos harness pulls: callers
    /// that *discard* the returned report (and never checkpointed)
    /// keep only what the durability layer's write-ahead records
    /// captured — the fiction of a power cut, at the persistence
    /// boundary where it matters. Returns `None` if a client shutdown
    /// raced this call and won.
    pub fn halt(self) -> Option<ServiceReport> {
        // A halt is a staged crash: it leaves the post-mortem (last
        // trace events + registry snapshot) in the state dir, the same
        // evidence a real power cut would be diagnosed from.
        let report = crash_server(&self.state, self.local_addr, "halt", None);
        let report_rx = self.join_threads();
        report.or_else(|| report_rx.try_recv().ok())
    }
}

// ---------------------------------------------------------------------
// The serving machinery: shards + control, fed by the reactor.
// ---------------------------------------------------------------------

/// The shared half of one v2 connection: its registry id, a handle to
/// the reactor that owns the socket, and the server's control lane. A
/// send *queues* the encoded frame on the connection's reply queue — it
/// never touches the socket and never blocks, so a slow peer
/// backpressures only its own queue (severed at the reactor's cap), not
/// the shard that served it.
pub(crate) struct V2Conn {
    conn_id: u64,
    reactor: ReactorHandle,
    ctrl: Sender<CtrlJob>,
}

impl V2Conn {
    pub(crate) fn new(conn_id: u64, reactor: ReactorHandle, ctrl: Sender<CtrlJob>) -> V2Conn {
        V2Conn {
            conn_id,
            reactor,
            ctrl,
        }
    }

    /// Queues one whole reply frame (flushed by the reactor on write
    /// readiness). Frames are queued whole, so replies from different
    /// shards never interleave mid-frame. Errs only when the reactor is
    /// already gone.
    pub(crate) fn send(&self, corr: u64, body: &FrameBody) -> io::Result<()> {
        self.reactor
            .reply(self.conn_id, frame::encode_frame(corr, body), None)
    }

    /// Like [`send`](V2Conn::send), but blocks (bounded by `timeout`)
    /// until the frame has fully reached the socket. The shutdown path
    /// uses this for its final summary: sockets are severed right
    /// after, and an unflushed summary would turn the graceful protocol
    /// exit into a broken pipe.
    pub(crate) fn send_flushed(
        &self,
        corr: u64,
        body: &FrameBody,
        timeout: Duration,
    ) -> io::Result<()> {
        let (done, rx) = sync_channel::<io::Result<()>>(1);
        self.reactor
            .reply(self.conn_id, frame::encode_frame(corr, body), Some(done))?;
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply flush timed out",
            )),
        }
    }

    pub(crate) fn send_error(&self, corr: u64, message: impl Into<String>) {
        let _ = self.send(
            corr,
            &FrameBody::Error {
                message: message.into(),
            },
        );
    }

    /// Answers a wire lease, on the shard that served it. A lease that
    /// tripped the `halt_after_persists` hook is not answered: the
    /// crash goes to the control lane instead, because tearing the
    /// service down joins the shards and so cannot run on one. The
    /// flight dump stays focused on the lease that was cut off
    /// mid-exchange.
    pub(crate) fn answer_lease(&self, corr: u64, reply: &LeaseReply, trace: &TraceRecorder) {
        if reply.halted {
            self.control(CtrlJob::Halt { corr });
            return;
        }
        let _ = self.send(corr, &lease_resp(reply));
        trace.record(
            corr,
            reply.tenant,
            Stage::ReplySent,
            "lease-resp",
            clock::monotonic_ns(),
        );
    }

    /// Hands one job to the control lane.
    fn control(&self, job: CtrlJob) {
        let _ = self.ctrl.send(job);
    }
}

/// Work routed to the control lane.
pub(crate) enum CtrlJob {
    Drain {
        conn: Arc<V2Conn>,
        corr: u64,
    },
    Summary {
        conn: Arc<V2Conn>,
        corr: u64,
    },
    Shutdown {
        conn: Arc<V2Conn>,
        corr: u64,
    },
    /// Crash the node ([`crash_server`]) for the `halt_after_persists`
    /// hook, focused on the lease `corr` it cut off.
    Halt {
        corr: u64,
    },
}

/// The reply frame for a served lease. It fits one frame: arcs ≤
/// granted ≤ the request's count ≤ [`frame::MAX_LEASE_COUNT`].
fn lease_resp(reply: &LeaseReply) -> FrameBody {
    FrameBody::LeaseResp {
        tenant: reply.tenant,
        granted: reply.granted,
        arcs: reply
            .arcs
            .iter()
            .map(|a| (a.start.value(), a.len))
            .collect(),
        error: reply.error.as_ref().map(|e| e.to_string()),
    }
}

/// The control lane: drain/summary, graceful shutdown, and the crash
/// lever. The service's shard barrier (inside `drain`, `summary` and
/// `shutdown`) covers every lease the reactor dispatched before the
/// control frame: the reactor queues a lease on its shard before it
/// passes any later frame here, shard queues are FIFO, and a shard
/// queues each lease's reply before it acks a later barrier. One
/// thread, so these serializing operations never overlap.
fn control_worker(
    state: Arc<ServerState>,
    rx: Receiver<CtrlJob>,
    report_tx: SyncSender<ServiceReport>,
    local_addr: SocketAddr,
) {
    while let Ok(job) = rx.recv() {
        match job {
            CtrlJob::Drain { conn, corr } => {
                if state.with_service(IdService::drain).is_some() {
                    let _ = conn.send(corr, &FrameBody::DrainResp);
                } else {
                    state.refuse(&conn, corr);
                }
            }
            CtrlJob::Summary { conn, corr } => match state.with_service(IdService::summary) {
                Some(report) => {
                    let _ = conn.send(corr, &FrameBody::SummaryResp(wire_summary(&report)));
                }
                None => state.refuse(&conn, corr),
            },
            CtrlJob::Shutdown { conn, corr } => {
                state.stopping.store(true, Ordering::SeqCst);
                // Take the service (the write lock waits out a reactor
                // mid-dispatch); its shutdown serves and answers every
                // lease its shards already hold before it joins them.
                let service = {
                    let _order = lockorder::track("server.service");
                    state.service.write().expect("service lock").take()
                };
                match service {
                    Some(service) => {
                        let report = service.shutdown();
                        // Wait for the summary to actually reach the
                        // socket: stopping the reactor is about to cut
                        // every connection, and the requester must read
                        // its final summary before the FIN.
                        let _ = conn.send_flushed(
                            corr,
                            &FrameBody::SummaryResp(wire_summary(&report)),
                            Duration::from_secs(5),
                        );
                        let _ = report_tx.send(report);
                        // Sever sibling connections, unblock the accept loop.
                        state.reactor.stop();
                        let _ = TcpStream::connect(local_addr);
                        return;
                    }
                    None => state.refuse(&conn, corr),
                }
            }
            CtrlJob::Halt { corr } => {
                // Over the wire a crash discards the report.
                drop(crash_server(
                    &state,
                    local_addr,
                    "halt-after-persists",
                    Some(corr),
                ));
                return;
            }
        }
    }
}

/// What [`dispatch_frame`] decided about the connection that sent the
/// frame.
pub(crate) enum Disposition {
    /// Keep serving the connection.
    Keep,
    /// Sever it — after best-effort delivery of `farewell` (correlation
    /// id + message, encoded into a fatal error frame by the reactor),
    /// so protocol violations still get their diagnostic before EOF.
    /// Queued replies are forfeit.
    Sever {
        /// The farewell error to write, if any.
        farewell: Option<(u64, String)>,
    },
}

fn sever_with(corr: u64, message: String) -> Disposition {
    Disposition::Sever {
        farewell: Some((corr, message)),
    }
}

/// Routes one decoded frame (called from the reactor's pump).
pub(crate) fn dispatch_frame(
    shared: &Arc<V2Conn>,
    hello_done: &mut bool,
    f: frame::Frame,
    state: &ServerState,
) -> Disposition {
    if !*hello_done {
        // Version negotiation: the first frame must be a hello naming a
        // version and universe this server serves.
        return match f.body {
            FrameBody::Hello { version, space } => {
                if version != frame::VERSION {
                    sever_with(
                        0,
                        format!(
                            "unsupported protocol version {version} (this server speaks {})",
                            frame::VERSION
                        ),
                    )
                } else if space != state.space.size() {
                    sever_with(
                        0,
                        format!(
                            "universe mismatch: server is {}, client asked for {space}",
                            state.space.size()
                        ),
                    )
                } else {
                    *hello_done = true;
                    match shared.send(
                        0,
                        &FrameBody::HelloOk {
                            version: frame::VERSION,
                            space: state.space.size(),
                        },
                    ) {
                        Ok(()) => Disposition::Keep,
                        Err(_) => Disposition::Sever { farewell: None },
                    }
                }
            }
            other => sever_with(0, format!("expected hello, got {} frame", other.name())),
        };
    }
    let corr = f.corr;
    match f.body {
        FrameBody::LeaseReq { tenant, count } => {
            if let Err(message) = check_tenant(tenant) {
                shared.send_error(corr, message);
                return Disposition::Keep;
            }
            if count > frame::MAX_LEASE_COUNT {
                shared.send_error(
                    corr,
                    format!(
                        "lease of {count} IDs is above the v2 cap of {} IDs per lease",
                        frame::MAX_LEASE_COUNT
                    ),
                );
                return Disposition::Keep;
            }
            state.trace.record(
                corr,
                tenant,
                Stage::ServerDemux,
                "lease-req",
                clock::monotonic_ns(),
            );
            // The shard answers the connection itself; a full shard queue
            // blocks the reactor here until that shard catches up.
            let queued =
                state.with_service(|s| s.lease_wire(tenant, count, corr, Arc::clone(shared)));
            if queued.is_none() {
                state.refuse(shared, corr);
            }
            Disposition::Keep
        }
        FrameBody::MetricsReq => {
            // Rendered inline on the reactor thread: a scrape reads the
            // registry lock-free and must never queue behind leases.
            if state.metrics {
                let text = state.registry.snapshot().render_prometheus();
                let _ = shared.send(corr, &FrameBody::MetricsResp { text });
            } else {
                shared.send_error(corr, "metrics are disabled on this listener");
            }
            Disposition::Keep
        }
        FrameBody::TimelineReq { corr: wanted } => {
            // Same inline discipline as a metrics scrape: assembling a
            // span reads the trace ring, never the service, so it must
            // not queue behind leases. An evicted/unsampled span is an
            // empty timeline, not an error — the tail sampler treats
            // it as "story lost to the ring".
            if state.metrics {
                let text = state.trace.timeline(wanted);
                let _ = shared.send(corr, &FrameBody::TimelineResp { text });
            } else {
                shared.send_error(corr, "metrics are disabled on this listener");
            }
            Disposition::Keep
        }
        FrameBody::ResetReq { tenant } => {
            // The reply follows the enqueue; the shard's FIFO queue puts
            // the reset behind the tenant's earlier leases.
            if let Err(message) = check_tenant(tenant) {
                shared.send_error(corr, message);
            } else if state.with_service(|s| s.reset_tenant(tenant)).is_some() {
                let _ = shared.send(corr, &FrameBody::ResetResp { tenant });
            } else {
                state.refuse(shared, corr);
            }
            Disposition::Keep
        }
        FrameBody::DrainReq => {
            shared.control(CtrlJob::Drain {
                conn: Arc::clone(shared),
                corr,
            });
            Disposition::Keep
        }
        FrameBody::SummaryReq => {
            shared.control(CtrlJob::Summary {
                conn: Arc::clone(shared),
                corr,
            });
            Disposition::Keep
        }
        FrameBody::ShutdownReq => {
            shared.control(CtrlJob::Shutdown {
                conn: Arc::clone(shared),
                corr,
            });
            Disposition::Keep
        }
        other => sever_with(
            0,
            format!("unexpected {} frame from a client", other.name()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TENANT_BITS;
    use std::io::{Read, Write};
    use uuidp_client::{Client, ClientOptions};
    use uuidp_core::algorithms::AlgorithmKind;
    use uuidp_obs::{families, Snapshot};

    fn server(bits: u32) -> (TcpServer, IdSpace) {
        let space = IdSpace::with_bits(bits).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        (
            TcpServer::bind("127.0.0.1:0", config).expect("bind loopback"),
            space,
        )
    }

    /// A raw v2 socket past its handshake, for tests that pipeline
    /// frames by hand instead of through a `Client`.
    fn raw_v2_conn(addr: SocketAddr, space: IdSpace) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        frame::write_frame(
            &mut stream,
            0,
            &FrameBody::Hello {
                version: frame::VERSION,
                space: space.size(),
            },
        )
        .unwrap();
        let hello = frame::read_frame(&mut stream).unwrap();
        assert!(matches!(hello.body, FrameBody::HelloOk { .. }));
        stream
    }

    /// Whether `err` is what a severed connection looks like.
    fn is_severed(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
        ) || uuidp_client::broken_connection(err).is_some()
    }

    #[test]
    fn lease_reset_drain_shutdown_over_loopback() {
        // The lifecycle commands act on the service, not on the
        // connection that sends them: a reset and a drain sent on a
        // second connection govern the tenant leased on the first, and
        // the shutdown summary covers both.
        let (server, space) = server(40);
        let addr = server.local_addr();
        let first = Client::connect(addr, space).unwrap();
        let second = Client::connect(addr, space).unwrap();
        let lease = first.lease(3, 100).unwrap();
        assert_eq!(lease.tenant, 3);
        assert_eq!(lease.granted, 100);
        assert_eq!(lease.arcs.iter().map(|a| a.len).sum::<u128>(), 100);
        assert!(lease.error.is_none());
        second.reset(3).unwrap();
        let again = first.lease(3, 50).unwrap();
        assert_eq!(again.granted, 50);
        second.drain().unwrap();
        drop(second);
        let summary = first.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 150);
        assert_eq!(summary.leases, 2);
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.audit_threads, 1);
        // The server-side report agrees with what crossed the wire.
        let report = server.join().expect("server report");
        assert_eq!(report.issued_ids, 150);
        assert_eq!(report.leases, 2);
        assert_eq!(
            report.audit.counts.duplicate_ids, summary.duplicate_ids,
            "wire summary diverged from the server report"
        );
    }

    #[test]
    fn an_out_of_range_tenant_gets_an_error_frame_on_a_live_connection() {
        // A tenant id must fit under the audit owner key's epoch tag. A
        // wider one gets a typed error frame; neither the shard nor the
        // reactor dies, and the connection goes on serving.
        let (server, space) = server(32);
        let mut stream = raw_v2_conn(server.local_addr(), space);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut ask = |corr, body| {
            frame::write_frame(&mut stream, corr, &body).unwrap();
            let reply = frame::read_frame(&mut stream).unwrap();
            assert_eq!(reply.corr, corr);
            reply.body
        };
        let (tenant, count) = (1 << TENANT_BITS, 1);
        let refused = [
            FrameBody::LeaseReq { tenant, count },
            FrameBody::ResetReq { tenant },
        ];
        for (corr, body) in (1..).zip(refused) {
            let reply = ask(corr, body);
            let message = format!("{reply:?}");
            assert!(matches!(reply, FrameBody::Error { .. }), "{message}");
            assert!(message.contains("not below 2^40"), "{message}");
        }
        let reply = ask(
            3,
            FrameBody::LeaseReq {
                tenant: 0,
                count: 16,
            },
        );
        assert!(
            matches!(reply, FrameBody::LeaseResp { granted: 16, .. }),
            "{reply:?}"
        );
        drop(stream);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let summary = client.shutdown().unwrap();
        assert_eq!((summary.leases, summary.issued_ids), (1, 16));
        assert!(server.join().is_some());
    }

    #[test]
    fn v2_client_speaks_the_whole_surface() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let lease = client.lease(3, 100).unwrap();
        assert_eq!(lease.tenant, 3);
        assert_eq!(lease.granted, 100);
        assert_eq!(lease.arcs.iter().map(|a| a.len).sum::<u128>(), 100);
        client.reset(3).unwrap();
        assert_eq!(client.lease(3, 50).unwrap().granted, 50);
        client.drain().unwrap();
        // The live summary sees everything served so far…
        let live = client.summary().unwrap();
        assert_eq!(live.issued_ids, 150);
        assert_eq!(live.leases, 2);
        assert_eq!(
            live.recorded_ids, 150,
            "drained service must have a caught-up audit"
        );
        // …and the shutdown summary is the same story, finalized.
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 150);
        assert_eq!(summary.errors, 0);
        let report = server.join().expect("server report");
        assert_eq!(report.issued_ids, 150);
    }

    #[test]
    fn v2_multiplexes_interleaved_tenants_over_one_connection() {
        let (server, space) = server(44);
        let addr = server.local_addr();
        let client = Client::connect(addr, space).unwrap();
        assert_eq!(server.live_connections(), 1);
        let workers: Vec<_> = (0..6u64)
            .map(|tenant| {
                let client = client.clone();
                std::thread::spawn(move || {
                    let mut total = 0u128;
                    for round in 0..20u128 {
                        total += client.lease(tenant, 16 + round).unwrap().granted;
                    }
                    total
                })
            })
            .collect();
        let issued: u128 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        // Still exactly one connection carried all six tenants.
        assert_eq!(server.live_connections(), 1, "multiplexing leaked conns");
        client.drain().unwrap();
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, issued);
        assert_eq!(summary.leases, 120);
        assert_eq!(summary.duplicate_ids, 0, "independent tenants collided");
        assert!(server.join().is_some());
    }

    #[test]
    fn text_lines_get_one_error_line_then_eof() {
        // The server speaks only v2: a client that opens with a text
        // command gets one plain-text diagnostic naming protocol v2 and
        // an EOF — while a v2 client on the same server keeps leasing.
        let (server, space) = server(40);
        let addr = server.local_addr();
        let client = Client::connect(addr, space).unwrap();
        assert_eq!(client.lease(0, 5).unwrap().granted, 5);
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(b"lease 0 1\n").unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("one line, then EOF");
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines.len(), 1, "{reply:?}");
        assert!(lines[0].starts_with("error:"), "{reply:?}");
        assert!(lines[0].contains("protocol v2"), "{reply:?}");
        assert!(reply.ends_with('\n'), "{reply:?}");
        assert_eq!(client.lease(0, 5).unwrap().granted, 5);
        assert_eq!(client.shutdown().unwrap().issued_ids, 10);
        server.join().unwrap();
    }

    #[test]
    fn v2_handshake_rejects_universe_mismatch_with_a_typed_error() {
        let (server, _space) = server(40);
        let wrong = IdSpace::with_bits(20).unwrap();
        let err = Client::connect(server.local_addr(), wrong).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("universe mismatch"), "got: {err}");
        assert!(server.halt().is_some());
    }

    #[test]
    fn concurrent_connections_share_the_service() {
        let (server, space) = server(44);
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|tenant| {
                std::thread::spawn(move || {
                    let client = Client::connect(addr, space).unwrap();
                    let mut total = 0u128;
                    for round in 0..10u128 {
                        total += client.lease(tenant, 32 + round).unwrap().granted;
                    }
                    total
                })
            })
            .collect();
        let issued: u128 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let closer = Client::connect(addr, space).unwrap();
        closer.drain().unwrap();
        let summary = closer.shutdown().unwrap();
        assert_eq!(summary.issued_ids, issued);
        assert_eq!(summary.leases, 40);
        assert_eq!(summary.duplicate_ids, 0, "independent tenants collided");
        assert!(server.join().is_some());
    }

    #[test]
    fn corrupt_v2_frames_sever_the_connection_not_the_server() {
        let (server, space) = server(32);
        let addr = server.local_addr();
        // A raw socket that leads with the v2 magic then turns to soup.
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut garbage = frame::MAGIC.to_vec();
        garbage.extend_from_slice(&[0xFF; 64]);
        raw.write_all(&garbage).unwrap();
        let mut reply = Vec::new();
        let _ = raw.read_to_end(&mut reply); // server severs after the error frame
                                             // The server is still healthy for well-formed clients.
        let client = Client::connect(addr, space).unwrap();
        assert_eq!(client.lease(0, 5).unwrap().granted, 5);
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn departed_connections_are_deregistered() {
        // Churning clients must not accumulate registry entries: after
        // every client hangs up, the live-connection count drains back
        // to zero.
        let (server, space) = server(32);
        let addr = server.local_addr();
        for tenant in 0..10u64 {
            let client = Client::connect(addr, space).unwrap();
            assert_eq!(client.lease(tenant, 8).unwrap().granted, 8);
            drop(client); // EOF: the reactor reaps it
        }
        // The reactor deregisters asynchronously after the EOF.
        for _ in 0..200 {
            if server.live_connections() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.live_connections(), 0, "connection registry leaked");
        let closer = Client::connect(addr, space).unwrap();
        assert_eq!(closer.shutdown().unwrap().issued_ids, 80);
        server.join().unwrap();
    }

    #[test]
    fn halt_stops_the_server_without_a_client() {
        let (server, space) = server(36);
        let addr = server.local_addr();
        let client = Client::connect(addr, space).unwrap();
        client.lease(0, 25).unwrap();
        // The crash lever: connected clients see EOF, not a summary.
        let report = server.halt().expect("halt yields the report");
        assert_eq!(report.issued_ids, 25);
        let err = client.lease(0, 1).unwrap_err();
        assert!(
            is_severed(&err),
            "halted server should sever the client, got {err:?}"
        );
        // The port is free again: a new server can bind-and-halt cleanly.
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let again = TcpServer::bind(&addr.to_string(), config).expect("rebind after halt");
        assert!(again.halt().is_some());
    }

    #[test]
    fn sibling_connections_are_unblocked_by_shutdown() {
        let (server, space) = server(36);
        let addr = server.local_addr();
        let idle = Client::connect(addr, space).unwrap();
        let idle_too = Client::connect(addr, space).unwrap();
        let active = Client::connect(addr, space).unwrap();
        active.lease(0, 10).unwrap();
        active.shutdown().unwrap();
        // The idle connections were severed server-side; the server
        // joins without waiting on them.
        let report = server.join().expect("report despite idle siblings");
        assert_eq!(report.issued_ids, 10);
        assert!(is_severed(&idle.lease(0, 1).unwrap_err()));
        drop(idle_too);
    }

    #[test]
    fn over_cap_leases_are_refused_before_any_id_is_issued() {
        // Random leases one arc per ID, the widest reply there is.
        let space = IdSpace::with_bits(24).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Random, space);
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let client = Client::connect(server.local_addr(), space).unwrap();
        let err = client.lease(0, frame::MAX_LEASE_COUNT + 1).unwrap_err();
        assert!(err.to_string().contains("above the v2 cap"), "{err}");
        // The refusal answers one request: the connection keeps serving,
        // and a lease at the cap crosses in one frame, one arc per ID.
        let lease = client.lease(0, frame::MAX_LEASE_COUNT).unwrap();
        assert_eq!(lease.granted, frame::MAX_LEASE_COUNT);
        assert_eq!(lease.arcs.len() as u128, frame::MAX_LEASE_COUNT);
        assert_eq!(
            client.shutdown().unwrap().issued_ids,
            frame::MAX_LEASE_COUNT,
            "the refused lease must issue nothing"
        );
        server.join().unwrap();
    }

    #[test]
    fn point_fragmented_random_leases_cross_the_v2_wire() {
        // The Random algorithm leases one arc per ID — the worst-case
        // reply shape for the framed protocol.
        let space = IdSpace::with_bits(24).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Random, space);
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let client = Client::connect(server.local_addr(), space).unwrap();
        let lease = client.lease(0, 3000).unwrap();
        assert_eq!(lease.granted, 3000);
        assert!(
            lease.arcs.len() >= 2900,
            "random leases should fragment per ID, got {} arcs",
            lease.arcs.len()
        );
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn a_bound_server_registers_every_required_family() {
        let (server, space) = server(40);
        assert_eq!(
            families::missing(&server.registry().snapshot()),
            Vec::<&str>::new()
        );
        Client::connect(server.local_addr(), space)
            .unwrap()
            .shutdown()
            .unwrap();
        server.join().unwrap();
    }

    #[test]
    fn metrics_scrape_works_over_the_wire() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        assert_eq!(client.lease(2, 64).unwrap().granted, 64);
        let text = client.metrics().unwrap();
        let snap = Snapshot::parse_prometheus(&text);
        assert_eq!(snap.scalar("uuidp_ids_issued_total"), Some(64.0), "{text}");
        assert_eq!(snap.scalar("uuidp_leases_total"), Some(1.0));
        assert_eq!(
            families::missing(&snap),
            Vec::<&str>::new(),
            "required family missing from scrape:\n{text}"
        );
        // Scrapes are monotone: more work, bigger counters.
        assert_eq!(client.lease(2, 36).unwrap().granted, 36);
        let again = Snapshot::parse_prometheus(&client.metrics().unwrap());
        assert_eq!(again.scalar("uuidp_ids_issued_total"), Some(100.0));
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn timeline_fetch_assembles_a_lease_span_over_v2() {
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let (lease, corr) = client.lease_with_corr(5, 16).unwrap();
        assert_eq!(lease.granted, 16);
        assert_ne!(corr, 0, "v2 leases travel under a real corr id");
        let span = client.timeline(corr).unwrap();
        assert!(span.contains(&format!("span corr={corr}")), "{span}");
        assert!(span.contains("server-demux"), "{span}");
        assert!(span.contains("worker-emit"), "{span}");
        assert!(span.contains("reply-sent"), "{span}");
        // An id nothing ever traced comes back as an empty story.
        assert_eq!(client.timeline(u64::MAX).unwrap(), "");
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn two_clients_on_one_node_never_share_a_corr_id() {
        // The node keys trace spans by corr id alone, so two connections
        // that each numbered their requests from 1 would merge their
        // first leases into one span.
        let (server, space) = server(40);
        let a = Client::connect(server.local_addr(), space).unwrap();
        let b = Client::connect(server.local_addr(), space).unwrap();
        let (_, corr_a) = a.lease_with_corr(3, 16).unwrap();
        let (_, corr_b) = b.lease_with_corr(4, 16).unwrap();
        assert_ne!(corr_a, corr_b);
        for (client, corr, tenant) in [(&a, corr_a, 3), (&b, corr_b, 4)] {
            let span = client.timeline(corr).unwrap();
            assert!(span.contains("worker-emit"), "{span}");
            let events: Vec<&str> = span.lines().skip(1).collect();
            assert!(
                events
                    .iter()
                    .all(|e| e.contains(&format!(" tenant={tenant} "))),
                "{span}"
            );
        }
        drop(b);
        a.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn disabled_metrics_surface_reports_typed_errors() {
        let space = IdSpace::with_bits(40).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        let options = ServerOptions { metrics: false };
        let server = TcpServer::bind_with("127.0.0.1:0", config, options).unwrap();
        let client = Client::connect(server.local_addr(), space).unwrap();
        let err = client.metrics().unwrap_err();
        assert!(err.to_string().contains("disabled"), "got: {err}");
        let err = client.timeline(1).unwrap_err();
        assert!(err.to_string().contains("disabled"), "got: {err}");
        // The connection survived both refusals.
        assert_eq!(client.lease(0, 5).unwrap().granted, 5);
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn flooding_v2_peer_does_not_starve_its_siblings() {
        // Regression: the old pump read one connection until
        // WouldBlock, so a firehosing peer monopolized the demux
        // thread. The reactor caps bytes and frames per connection per
        // pass; a latency probe sharing the reactor with a flooder
        // must still see bounded round trips.
        let (server, space) = server(40);
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        // The flooder: a raw v2 socket blasting pipelined single-ID
        // leases, replies discarded by a second thread so the server
        // never has to apply backpressure.
        let mut flood = raw_v2_conn(addr, space);
        let flood_ctl = flood.try_clone().unwrap();
        let mut sink = flood.try_clone().unwrap();
        let drain_stop = Arc::clone(&stop);
        let drain = std::thread::spawn(move || {
            while !drain_stop.load(Ordering::SeqCst) && frame::read_frame(&mut sink).is_ok() {}
        });
        let write_stop = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut corr = 1u64;
            while !write_stop.load(Ordering::SeqCst) {
                let mut batch = Vec::new();
                for _ in 0..64 {
                    batch.extend_from_slice(&frame::encode_frame(
                        corr,
                        &FrameBody::LeaseReq {
                            tenant: 0,
                            count: 1,
                        },
                    ));
                    corr += 1;
                }
                if flood.write_all(&batch).is_err() {
                    break;
                }
            }
        });
        // The probe: an ordinary v2 client on another tenant (another
        // shard too), timing full round trips under the flood.
        let probe = Client::connect(addr, space).unwrap();
        let mut worst = Duration::ZERO;
        for _ in 0..100 {
            let start = std::time::Instant::now();
            assert_eq!(probe.lease(97, 1).unwrap().granted, 1);
            worst = worst.max(start.elapsed());
        }
        stop.store(true, Ordering::SeqCst);
        let _ = flood_ctl.shutdown(std::net::Shutdown::Both);
        writer.join().unwrap();
        drain.join().unwrap();
        assert!(
            worst < Duration::from_millis(500),
            "probe starved behind the flooder: worst lease took {worst:?}"
        );
        let ctl = Client::connect(addr, space).unwrap();
        ctl.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn pipelined_replies_leave_in_vectored_writes() {
        // A client that keeps 256 leases in flight leaves a queue of
        // replies on its connection; the vectored flush must retire
        // more than one of them per write syscall, and still answer
        // every corr id exactly once.
        const BATCHES: u64 = 64;
        const DEPTH: u64 = 256;
        let (server, space) = server(48);
        let registry = server.registry();
        let mut stream = raw_v2_conn(server.local_addr(), space);
        // Replies per corr id; corr 0 is connection-level and never sent.
        let mut answers = vec![0u32; (BATCHES * DEPTH + 1) as usize];
        for batch_no in 0..BATCHES {
            let mut batch = Vec::new();
            for corr in batch_no * DEPTH + 1..=(batch_no + 1) * DEPTH {
                batch.extend_from_slice(&frame::encode_frame(
                    corr,
                    &FrameBody::LeaseReq {
                        tenant: corr % 8,
                        count: 1,
                    },
                ));
            }
            stream.write_all(&batch).unwrap();
            for _ in 0..DEPTH {
                let reply = frame::read_frame(&mut stream).unwrap();
                assert!(
                    matches!(reply.body, FrameBody::LeaseResp { granted: 1, .. }),
                    "corr {}: {:?}",
                    reply.corr,
                    reply.body
                );
                answers[reply.corr as usize] += 1;
            }
        }
        assert!(
            answers[1..].iter().all(|&n| n == 1),
            "a corr id was not answered exactly once"
        );
        drop(stream);
        Client::connect(server.local_addr(), space)
            .unwrap()
            .shutdown()
            .unwrap();
        // Joined, the reactor has recorded every flush it made.
        server.join().unwrap();
        let per_syscall = registry
            .histogram("uuidp_net_replies_per_syscall")
            .snapshot();
        assert!(
            per_syscall.max_ns() >= 2,
            "every write syscall carried a single reply"
        );
        assert!(
            per_syscall.sum_ns() >= u128::from(BATCHES * DEPTH),
            "flushes retired {} replies, fewer than the {} answered",
            per_syscall.sum_ns(),
            BATCHES * DEPTH
        );
    }

    #[test]
    fn a_pipelined_drain_covers_every_earlier_lease() {
        // Drain and summary barrier the shards, not the connection: the
        // reactor queues each lease on its shard before it hands a later
        // frame to the control lane, shard queues are FIFO, and a shard
        // queues each reply before it acks a later barrier. So a drain
        // pipelined behind leases is answered after all of them, and
        // the summary behind it covers every one.
        const LEASES: u64 = 120;
        let space = IdSpace::with_bits(40).unwrap();
        let mut config = ServiceConfig::new(AlgorithmKind::Cluster, space);
        config.shards = 3;
        config.audit_threads = 2;
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let mut sent_leases = 0u64;
        let mut sent_ids = 0u128;
        for round in 0..20u64 {
            let mut stream = raw_v2_conn(server.local_addr(), space);
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut batch = Vec::new();
            for corr in 1..=LEASES {
                let count = u128::from(1 + (corr * 7 + round) % 64);
                sent_ids += count;
                batch.extend_from_slice(&frame::encode_frame(
                    corr,
                    &FrameBody::LeaseReq {
                        tenant: corr % 12,
                        count,
                    },
                ));
            }
            sent_leases += LEASES;
            batch.extend_from_slice(&frame::encode_frame(LEASES + 1, &FrameBody::DrainReq));
            batch.extend_from_slice(&frame::encode_frame(LEASES + 2, &FrameBody::SummaryReq));
            stream.write_all(&batch).unwrap();
            let mut answered = 0u64;
            let mut drained = false;
            let summary = loop {
                let reply = frame::read_frame(&mut stream).unwrap();
                match reply.body {
                    FrameBody::LeaseResp { error: None, .. } => {
                        assert!(!drained, "round {round}: corr {} after drain", reply.corr);
                        answered += 1;
                    }
                    FrameBody::DrainResp => {
                        assert_eq!(answered, LEASES, "round {round}: drain overtook leases");
                        drained = true;
                    }
                    FrameBody::SummaryResp(summary) => break summary,
                    other => panic!("round {round}: unexpected {other:?}"),
                }
            };
            assert!(drained, "round {round}: summary overtook the drain");
            assert_eq!(summary.leases, sent_leases, "round {round}");
            assert_eq!(summary.issued_ids, sent_ids, "round {round}");
            assert_eq!(summary.recorded_ids, summary.issued_ids, "round {round}");
        }
        Client::connect(server.local_addr(), space)
            .unwrap()
            .shutdown()
            .unwrap();
        server.join().unwrap();
    }

    #[test]
    fn timeout_bounded_clients_work_against_the_reactor() {
        // `ClientOptions::bounded` bounds the dial, the handshake, and
        // every reply read; the reactor's queued replies must land well
        // inside it.
        let (server, space) = server(40);
        let options = ClientOptions::bounded(Some(Duration::from_secs(5)));
        let client = Client::connect_with(server.local_addr(), space, options).unwrap();
        assert_eq!(client.lease(7, 32).unwrap().granted, 32);
        let summary = client.shutdown().unwrap();
        assert_eq!(summary.issued_ids, 32);
        server.join().unwrap();
    }
}
