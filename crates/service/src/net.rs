//! TCP front-end for the ID service.
//!
//! [`TcpServer`] speaks **wire protocol v2** only — the
//! `uuidp_client` binary framed protocol — and serves it without any
//! per-connection thread at all:
//!
//! ```text
//!   accept ──► reactor threads, one per shard (epoll; each owns the
//!              │  connections it was handed, spread round-robin)
//!              │  first byte must be 0x00 (the v2 magic); anything
//!              │  else gets one `error:` text line, then close
//!              │  complete frames, each served right here:
//!              ├── lease/reset: under the tenant's shard lock
//!              ├── drain/summary: one lock sweep over the shards
//!              └── shutdown: takes the service, writes out the
//!                  requester's queue (summary last), stops every reactor
//!              replies join the connection's queue and are flushed with
//!              vectored writes at the end of each pass, correlation ids
//!              intact
//! ```
//!
//! However many connections are open, the front-end runs an accept
//! thread and one reactor thread per service shard, beside the
//! service's audit threads. A reactor ([`crate::reactor`]) takes
//! readiness from epoll (raw syscalls, see [`crate::sys`]), so an idle
//! server costs ~zero CPU regardless of connection count. It serves
//! every frame it reads to completion on its own thread, with no thread
//! handoff: a lease locks the tenant's shard, issues, and encodes the
//! reply onto the connection's queue, flushed in the same pass. Each
//! lease locks its own tenant's shard whichever reactor read it, so
//! connections on different reactors are served concurrently, and a
//! connection's frames are served in the order they arrived (the
//! determinism the differential tests pin). Drain and summary are the
//! service's lock sweep over the shards, which waits out every lease in
//! flight on another reactor, so they mean "everything submitted before
//! me"; a summary then holds its reactor until the audit has recorded
//! those leases. Until a shutdown, the reactor never blocks on a slow
//! peer: replies queue on the owning connection, and a peer that stops
//! reading is eventually severed (backpressure by disconnect, not by
//! stalling a shared thread).
//!
//! Shutdown is graceful and client-initiated: the reactor that reads it
//! takes the service and queues the summary frame, projected from the
//! final [`ServiceReport`] by [`wire_summary`]. It then writes out the
//! requester's queue, blocking for at most 5 s, so that the summary
//! reaches the socket before every reactor stops and every connection
//! is cut. [`TcpServer::halt`] is the crash lever: it severs
//! every connection mid-command, and no client sees a report. The
//! durability layer's `halt_after_persists` hook arrives here too: a
//! lease flagged `halted` makes the reactor that served it crash the
//! node *instead of replying* — a crash dropped exactly between the
//! write-ahead persist and the reply, which no external kill can aim
//! that precisely.
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
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use uuidp_client::frame::{self, FrameBody};
use uuidp_core::clock;
use uuidp_core::id::IdSpace;
use uuidp_core::lockorder;
use uuidp_obs::{Registry, Stage, TraceRecorder};

use crate::protocol::wire_summary;
use crate::reactor::{Outbox, Poller, Reactor, ReactorCmd, ReactorHandle};
use crate::service::{check_tenant, IdService, Served, ServiceConfig, ServiceReport};

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
    /// The graceful shutdown's report, left here for [`TcpServer::join`].
    report: Mutex<Option<ServiceReport>>,
    /// Set before the accept loop is woken for the last time.
    pub(crate) stopping: AtomicBool,
    /// Set once the node starts to crash — by the wire lease that trips
    /// `halt_after_persists`, under its shard's lock, or by
    /// [`crash_server`] before it takes the service: a crashing node
    /// serves and answers nothing more, not even "shutting down".
    crashed: AtomicBool,
    /// Live connections: counted up when a reactor adopts a socket and
    /// down when it disposes of one, so churning clients leave no
    /// trace. The reactors own and sever the sockets themselves.
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
    /// The bound address, dialled once by a stop to wake the accept loop.
    local_addr: SocketAddr,
    /// Command surfaces into the reactor threads: the accept loop hands
    /// them connections, and stop paths bring them down with the sockets.
    reactors: Vec<ReactorHandle>,
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
    /// path has taken the service or the node has started to crash.
    fn with_service<R>(&self, f: impl FnOnce(&IdService) -> R) -> Option<R> {
        if self.crashed.load(Ordering::SeqCst) {
            return None;
        }
        let _order = lockorder::track("server.service");
        let service = self.service.read().expect("service lock");
        service.as_ref().map(f)
    }

    /// Takes the service for a stop path; `None` if another stop took it
    /// first. The write lock waits out every reactor mid-request, so the
    /// service's report covers each lease a reactor has answered. The
    /// caller must hold no read guard of its own.
    fn take_service(&self) -> Option<IdService> {
        let _order = lockorder::track("server.service");
        self.service.write().expect("service lock").take()
    }

    /// The answer to a request that found no service: the typed
    /// "shutting down" error after a graceful shutdown, and none once
    /// the node is crashing, whose connections are about to be severed.
    fn refusal(&self) -> Option<FrameBody> {
        (!self.crashed.load(Ordering::SeqCst)).then(|| FrameBody::Error {
            message: "shutting down".into(),
        })
    }

    /// Stops every reactor, severing every connection, and wakes the
    /// accept loop to see `stopping` and exit.
    pub(crate) fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        for reactor in &self.reactors {
            reactor.stop();
        }
        let _ = TcpStream::connect(self.local_addr);
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
    reason: &str,
    focus_corr: Option<u64>,
) -> Option<ServiceReport> {
    state.crashed.store(true, Ordering::SeqCst);
    state.stopping.store(true, Ordering::SeqCst);
    let report = state.take_service().map(|service| {
        service.dump_flight(reason, focus_corr);
        service.shutdown()
    });
    // The reactors own every socket: stopping them severs them all.
    state.stop();
    report
}

/// A running TCP front-end over one [`IdService`].
pub struct TcpServer {
    accept: JoinHandle<()>,
    reactors: Vec<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), boots
    /// the service, and starts accepting connections with default
    /// [`ServerOptions`] (scrapes served). Beside the service's audit
    /// threads, the server runs an accept thread and one reactor per
    /// shard: four threads with the default two shards and one audit
    /// thread.
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
        // One reactor per shard, each over its own epoll instance.
        let mut seeds = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let poller = Poller::new()?;
            let (cmd_tx, cmd_rx) = channel::<ReactorCmd>();
            handles.push(ReactorHandle::new(cmd_tx, poller.waker()));
            seeds.push((poller, cmd_rx));
        }
        let space = config.space;
        let service = IdService::start(config);
        let registry = service.registry();
        let trace = service.trace();
        let state = Arc::new(ServerState {
            service: RwLock::new(Some(service)),
            report: Mutex::new(None),
            stopping: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            space,
            registry,
            trace,
            metrics: options.metrics,
            local_addr,
            reactors: handles,
        });
        // The reactors: each checks its new connections' first byte,
        // owns all their I/O and serves every frame they send.
        let reactors = seeds
            .into_iter()
            .enumerate()
            .map(|(i, (poller, cmd_rx))| {
                // Built on this thread so its metric families are
                // registered before `bind_with` returns — a scraper that
                // races the reactor's first pass still sees
                // `uuidp_net_wakeups_total`.
                let reactor = Reactor::new(Arc::clone(&state), poller, cmd_rx);
                std::thread::Builder::new()
                    .name(format!("uuidp-react-{i}"))
                    .spawn(move || reactor.run())
            })
            .collect::<io::Result<_>>()?;
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("uuidp-accept".into())
            .spawn(move || {
                let handles = &accept_state.reactors;
                let mut adopted = 0usize;
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
                    // One reply frame per request: Nagle + delayed ACK
                    // would add ~40ms to every round trip on loopback.
                    let _ = stream.set_nodelay(true);
                    // The reactors read and write every socket nonblocking.
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Round-robin: connections spread evenly over reactors.
                    let reactor = &handles[adopted % handles.len()];
                    adopted += 1;
                    if !reactor.adopt(stream) {
                        break; // reactor is gone; the server is coming down
                    }
                }
            })?;
        Ok(TcpServer {
            accept,
            reactors,
            state,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
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

    /// The reactors' readiness backend, always `"epoll"` (bench
    /// provenance records it).
    pub fn net_backend(&self) -> &'static str {
        "epoll"
    }

    /// Blocks until a client issues `shutdown`, then returns the server-side [`ServiceReport`] (`None` only if
    /// the accept loop died without a shutdown, which a well-formed run
    /// never does).
    pub fn join(self) -> Option<ServiceReport> {
        let _ = self.accept.join();
        for reactor in self.reactors {
            let _ = reactor.join();
        }
        self.state.report.lock().expect("report lock").take()
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
        let report = crash_server(&self.state, "halt", None);
        let shut_down = self.join();
        report.or(shut_down)
    }
}

// ---------------------------------------------------------------------
// The serving machinery: the reactors' dispatch.
// ---------------------------------------------------------------------

/// The reply frame for a served lease. It fits one frame: arcs ≤
/// granted ≤ the request's count ≤ [`frame::MAX_LEASE_COUNT`].
fn lease_resp(lease: &Served<'_>) -> FrameBody {
    FrameBody::LeaseResp {
        tenant: lease.tenant,
        granted: lease.granted,
        arcs: lease
            .arcs
            .iter()
            .map(|a| (a.start.value(), a.len))
            .collect(),
        error: lease.error.as_ref().map(|e| e.to_string()),
    }
}

/// What [`dispatch_frame`] decided about the connection that sent the
/// frame.
pub(crate) enum Disposition {
    /// Keep serving the connection.
    Keep,
    /// Sever it — after best-effort delivery of this message in a fatal
    /// connection-level error frame (corr 0), so protocol violations
    /// still get their diagnostic before EOF. Queued replies are forfeit.
    Sever(String),
    /// The frame shut the service down: write out the connection's
    /// queue, the summary last, close it, then stop every reactor.
    Shutdown,
}

/// Queues one reply frame on the connection being pumped.
fn reply(out: &mut Outbox, corr: u64, body: &FrameBody) {
    out.push(frame::encode_frame(corr, body));
}

fn reply_error(out: &mut Outbox, corr: u64, message: impl Into<String>) {
    let message = message.into();
    reply(out, corr, &FrameBody::Error { message });
}

/// Serves one decoded frame (called from the reactor's pump) on the
/// reactor thread, its reply onto `out`.
pub(crate) fn dispatch_frame(
    hello_done: &mut bool,
    out: &mut Outbox,
    f: frame::Frame,
    state: &ServerState,
) -> Disposition {
    if !*hello_done {
        // Version negotiation: the first frame must be a hello naming a
        // version and universe this server serves.
        return match f.body {
            FrameBody::Hello { version, space } => {
                if version != frame::VERSION {
                    Disposition::Sever(format!(
                        "unsupported protocol version {version} (this server speaks {})",
                        frame::VERSION
                    ))
                } else if space != state.space.size() {
                    Disposition::Sever(format!(
                        "universe mismatch: server is {}, client asked for {space}",
                        state.space.size()
                    ))
                } else {
                    *hello_done = true;
                    let hello_ok = FrameBody::HelloOk {
                        version: frame::VERSION,
                        space: state.space.size(),
                    };
                    reply(out, 0, &hello_ok);
                    Disposition::Keep
                }
            }
            other => Disposition::Sever(format!("expected hello, got {} frame", other.name())),
        };
    }
    let corr = f.corr;
    let refuse = |out: &mut Outbox| {
        if let Some(body) = state.refusal() {
            reply(out, corr, &body);
        }
    };
    match f.body {
        FrameBody::LeaseReq { tenant, count } => {
            if let Err(message) = check_tenant(tenant) {
                reply_error(out, corr, message);
                return Disposition::Keep;
            }
            if count > frame::MAX_LEASE_COUNT {
                reply_error(
                    out,
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
            // Served here, under the tenant's shard lock; the reply is
            // queued before the lease's audit tee.
            let halted = state.with_service(|service| {
                service.lease_with(tenant, count, corr, |lease| {
                    if lease.halted {
                        // The node dies instead of answering. Flagged
                        // before this shard's lock is released, so no
                        // reactor answers a later wire lease.
                        state.crashed.store(true, Ordering::SeqCst);
                        return true;
                    }
                    reply(out, corr, &lease_resp(&lease));
                    state.trace.record(
                        corr,
                        tenant,
                        Stage::ReplySent,
                        "lease-resp",
                        clock::monotonic_ns(),
                    );
                    false
                })
            });
            match halted {
                // Tearing the service down waits out every read guard,
                // so the crash runs here, once this lease's guard is
                // released, its flight dump focused on the lease it cut
                // off.
                Some(true) => drop(crash_server(state, "halt-after-persists", Some(corr))),
                Some(false) => {}
                None => refuse(out),
            }
            Disposition::Keep
        }
        FrameBody::MetricsReq => {
            // A scrape reads the registry lock-free and never waits on a
            // shard.
            if state.metrics {
                let text = state.registry.snapshot().render_prometheus();
                reply(out, corr, &FrameBody::MetricsResp { text });
            } else {
                reply_error(out, corr, "metrics are disabled on this listener");
            }
            Disposition::Keep
        }
        FrameBody::TimelineReq { corr: wanted } => {
            // Same discipline as a metrics scrape: assembling a span
            // reads the trace ring, never the service. An
            // evicted/unsampled span is an empty timeline, not an error
            // — the tail sampler treats it as "story lost to the ring".
            if state.metrics {
                let text = state.trace.timeline(wanted);
                reply(out, corr, &FrameBody::TimelineResp { text });
            } else {
                reply_error(out, corr, "metrics are disabled on this listener");
            }
            Disposition::Keep
        }
        FrameBody::ResetReq { tenant } => {
            // Served here too, so it lands after every earlier lease of
            // the tenant this connection sent.
            if let Err(message) = check_tenant(tenant) {
                reply_error(out, corr, message);
            } else if state.with_service(|s| s.reset_tenant(tenant)).is_some() {
                reply(out, corr, &FrameBody::ResetResp { tenant });
            } else {
                refuse(out);
            }
            Disposition::Keep
        }
        // Drain and summary sweep the shards' locks, which waits out
        // every lease in flight on another reactor; this connection's
        // earlier leases were served before the frame was read.
        FrameBody::DrainReq => {
            if state.with_service(IdService::drain).is_some() {
                reply(out, corr, &FrameBody::DrainResp);
            } else {
                refuse(out);
            }
            Disposition::Keep
        }
        FrameBody::SummaryReq => {
            match state.with_service(IdService::summary) {
                Some(report) => reply(out, corr, &FrameBody::SummaryResp(wire_summary(&report))),
                None => refuse(out),
            }
            Disposition::Keep
        }
        FrameBody::ShutdownReq => {
            state.stopping.store(true, Ordering::SeqCst);
            let Some(service) = state.take_service() else {
                refuse(out);
                return Disposition::Keep;
            };
            let report = service.shutdown();
            reply(out, corr, &FrameBody::SummaryResp(wire_summary(&report)));
            *state.report.lock().expect("report lock") = Some(report);
            Disposition::Shutdown
        }
        other => Disposition::Sever(format!("unexpected {} frame from a client", other.name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TENANT_BITS;
    use std::io::{Read, Write};
    use std::time::Duration;
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
        // reactor serves a connection's frames in arrival order, so it
        // has served each lease and queued its reply before it reads the
        // drain behind them, and the drain's sweep over the shard locks
        // waits out leases still in flight on the other reactors. So a
        // drain pipelined behind leases is answered after all of them,
        // and the summary behind it, which waits for the audit, covers
        // every one.
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
    fn a_shutdown_behind_a_reply_backlog_still_delivers_its_summary() {
        // Random leases one 32-byte arc per ID, so 16 leases of 2^15 IDs
        // queue about 16 MiB of replies, more than the loopback socket
        // buffers hold. The shutdown behind them must write that whole
        // queue out, its summary last, before the stop cuts the socket,
        // although the peer starts reading only 1.5 s later.
        const LEASES: u64 = 16;
        const COUNT: u128 = 1 << 15;
        let space = IdSpace::with_bits(64).unwrap();
        let config = ServiceConfig::new(AlgorithmKind::Random, space);
        let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
        let mut stream = raw_v2_conn(server.local_addr(), space);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut batch = Vec::new();
        for corr in 1..=LEASES {
            batch.extend_from_slice(&frame::encode_frame(
                corr,
                &FrameBody::LeaseReq {
                    tenant: corr,
                    count: COUNT,
                },
            ));
        }
        batch.extend_from_slice(&frame::encode_frame(LEASES + 1, &FrameBody::ShutdownReq));
        stream.write_all(&batch).unwrap();
        std::thread::sleep(Duration::from_millis(1500));
        for _ in 0..LEASES {
            let reply = frame::read_frame(&mut stream).unwrap();
            assert!(
                matches!(
                    reply.body,
                    FrameBody::LeaseResp {
                        granted: COUNT,
                        error: None,
                        ..
                    }
                ),
                "corr {}: {}",
                reply.corr,
                reply.body.name()
            );
        }
        let last = frame::read_frame(&mut stream).unwrap();
        match last.body {
            FrameBody::SummaryResp(summary) => {
                assert_eq!(summary.issued_ids, u128::from(LEASES) * COUNT)
            }
            other => panic!("expected the summary, got a {} frame", other.name()),
        }
        let end = frame::read_frame(&mut stream).unwrap_err();
        assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof, "{end:?}");
        assert!(server.join().is_some());
    }

    #[test]
    fn a_lease_costs_one_reactor_pass() {
        // The pass that reads a lease serves it and flushes its reply,
        // so sequential leases wake their reactor once each; a reply
        // queued back from another thread would cost a second pass.
        let (server, space) = server(40);
        let wakeups = server.registry().counter("uuidp_net_wakeups_total");
        let before = wakeups.get();
        let client = Client::connect(server.local_addr(), space).unwrap();
        for _ in 0..500 {
            assert_eq!(client.lease(7, 16).unwrap().granted, 16);
        }
        let grew = wakeups.get() - before;
        assert!(grew <= 500 + 16, "500 leases took {grew} reactor passes");
        client.shutdown().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn lease_timelines_stamp_every_server_stage_before_the_audit() {
        // A lease is stamped worker-emit before its audit tee and
        // reply-sent before it too, so no timeline can list the audit
        // leg above the stages that precede it.
        let (server, space) = server(40);
        let client = Client::connect(server.local_addr(), space).unwrap();
        let corrs: Vec<u64> = (0..1000u64)
            .map(|i| {
                let (lease, corr) = client
                    .lease_with_corr(i % 16, 1 + u128::from(i % 64))
                    .unwrap();
                assert!(lease.error.is_none());
                corr
            })
            .collect();
        // A summary is answered after the audit has recorded, and so
        // stamped, every lease before it.
        client.drain().unwrap();
        client.summary().unwrap();
        let mut checked = 0;
        for corr in corrs {
            let span = client.timeline(corr).unwrap();
            if !span.contains("server-demux") {
                continue; // the ring has moved past this lease
            }
            let events: Vec<(u64, &str)> = span
                .lines()
                .skip(1)
                .map(|line| {
                    let mut fields = line.trim().trim_start_matches('+').split_whitespace();
                    let offset = fields
                        .next()
                        .unwrap()
                        .trim_end_matches("ns")
                        .parse()
                        .unwrap();
                    (offset, fields.next().unwrap())
                })
                .collect();
            assert!(
                events.windows(2).all(|w| w[0].0 <= w[1].0),
                "offsets decrease:\n{span}"
            );
            let at = |stage: &str| events.iter().position(|&(_, s)| s == stage);
            let audit = at("audit-record").unwrap_or_else(|| panic!("no audit leg:\n{span}"));
            for stage in ["server-demux", "worker-emit", "reply-sent"] {
                let before = at(stage).is_some_and(|i| i < audit);
                assert!(before, "{stage} missing or after audit-record:\n{span}");
            }
            checked += 1;
        }
        assert!(checked >= 50, "only {checked} whole spans left in the ring");
        client.shutdown().unwrap();
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
