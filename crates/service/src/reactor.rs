//! The readiness-driven I/O core.
//!
//! A bound server runs one reactor thread per service shard, and the
//! accept thread spreads connections over them. Each reactor owns
//! **all** state of its connections (the single-actor ownership shape
//! of holochain's `kitsune_p2p` event loops): sockets, reassembly
//! buffers, and per-connection reply queues all live on its thread. It
//! serves every frame it reads to completion: a lease or a reset runs
//! on the reactor thread under its tenant's shard lock, whichever
//! reactor read it, a drain or a summary sweeps the shards' locks from
//! here, and the encoded reply goes straight onto the connection's
//! queue. Other threads reach a reactor only through `ReactorCmd`
//! messages — the accept loop adopts new connections, stop paths send
//! `ReactorCmd::Stop`. No locks guard connection state because nothing
//! else can reach it.
//!
//! Readiness comes from level-triggered `epoll_wait` via the
//! raw-syscall [`crate::sys`] module, with an `eventfd` waker so
//! command senders can interrupt an indefinite block. An idle server —
//! however many thousands of connections it holds — makes **zero**
//! wakeups until a socket or command stirs, and a lease costs at most
//! one pass: the pass that reads it serves it and flushes its reply. A
//! non-Linux target would need its own `Poller` behind the same
//! registration and wait surface.
//!
//! Reads are capped per connection per pass (bytes *and* dispatched
//! frames), so a firehosing peer cannot starve its siblings: leftover
//! socket bytes re-report under level-triggered readiness, and
//! leftover *decoded-but-buffered* frames park the connection in the
//! reactor's backlog, which is pumped again on the next pass with a
//! zero timeout. Replies never block the reactor on a peer: they queue
//! on the owning connection and are flushed with **vectored writes** at
//! the end of the pass and on write readiness, so a batch of replies to
//! one multiplexing client retires in one syscall
//! (`uuidp_net_replies_per_syscall` histograms exactly that ratio). A
//! peer that stops reading accumulates queued replies until
//! `MAX_OUT_QUEUE` and is then severed — queued-reply backpressure
//! replaces the old lock-held spin/sleep send. The one blocking write is
//! a shutdown's: its reactor writes out the requester's queue, the
//! summary last, for at most `WRITE_OUT_NS`, and only then stops every
//! reactor.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use uuidp_client::frame;
use uuidp_core::clock;
use uuidp_obs::{AtomicHistogram, Counter, Gauge};

use crate::net::{dispatch_frame, Disposition, ServerState};
use crate::reassembly::{BufPool, ReadBuf};
use crate::sys;

/// Socket bytes one connection may read per pump pass.
const READ_CAP: usize = 64 * 1024;
/// Frames one connection may dispatch per pump pass.
const FRAME_CAP: usize = 128;
/// Queued-reply bytes after which a non-reading peer is severed.
const MAX_OUT_QUEUE: usize = 64 * 1024 * 1024;
/// Reply buffers coalesced into one vectored write.
const MAX_IOV: usize = 64;
/// How long a shutdown's reactor may block writing out the requester's
/// queue before it stops every reactor regardless.
const WRITE_OUT_NS: u64 = 5_000_000_000;
/// The one line a connection whose first byte is not the v2 magic gets
/// before the reactor closes it.
const NOT_V2: &[u8] = b"error: this server speaks only protocol v2 (binary frames, \
see uuidp_client); text commands are served by `uuidp serve` on stdin\n";
/// The poller token reserved for the waker's eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Wakes a possibly blocked reactor from another thread: an eventfd
/// registered with epoll like any other fd.
pub(crate) struct Waker {
    efd: sys::EventFd,
}

impl Waker {
    pub(crate) fn wake(&self) {
        self.efd.signal();
    }
}

/// Commands into the reactor thread. This is the *entire* write surface
/// other threads have over connection state.
pub(crate) enum ReactorCmd {
    /// A freshly accepted (nonblocking, nodelay) socket to own.
    Adopt(TcpStream),
    /// Drop everything and exit (the stop paths' abrupt sever).
    Stop,
}

/// A handle over the reactor's command channel + waker.
pub(crate) struct ReactorHandle {
    tx: Sender<ReactorCmd>,
    waker: Arc<Waker>,
}

impl ReactorHandle {
    pub(crate) fn new(tx: Sender<ReactorCmd>, waker: Arc<Waker>) -> ReactorHandle {
        ReactorHandle { tx, waker }
    }

    /// Hands a new connection to the reactor. `false` when the reactor
    /// is gone (the server is coming down).
    pub(crate) fn adopt(&self, stream: TcpStream) -> bool {
        let ok = self.tx.send(ReactorCmd::Adopt(stream)).is_ok();
        self.waker.wake();
        ok
    }

    /// Tells the reactor to drop everything and exit.
    pub(crate) fn stop(&self) {
        let _ = self.tx.send(ReactorCmd::Stop);
        self.waker.wake();
    }
}

/// One readiness report.
struct Event {
    token: u64,
    readable: bool,
    writable: bool,
}

/// The readiness source: one epoll instance plus its waker.
pub(crate) struct Poller {
    ep: sys::Epoll,
    buf: Vec<sys::EpollEvent>,
    waker: Arc<Waker>,
}

impl Poller {
    /// Builds the epoll instance and registers its waker.
    pub(crate) fn new() -> io::Result<Poller> {
        let ep = sys::Epoll::new()?;
        let efd = sys::EventFd::new()?;
        ep.add(efd.raw(), WAKER_TOKEN, false)?;
        Ok(Poller {
            ep,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
            waker: Arc::new(Waker { efd }),
        })
    }

    pub(crate) fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    fn register(&mut self, stream: &TcpStream, token: u64) -> io::Result<()> {
        self.ep.add(stream.as_raw_fd(), token, false)
    }

    /// Toggles write interest.
    fn set_writable(&mut self, stream: &TcpStream, token: u64, writable: bool) {
        let _ = self.ep.modify(stream.as_raw_fd(), token, writable);
    }

    fn deregister(&mut self, stream: &TcpStream) {
        let _ = self.ep.del(stream.as_raw_fd());
    }

    /// Blocks (bounded by `timeout_ms`; `-1` = forever) for readiness,
    /// filling `out` with the kernel's events. Errors and hangups count
    /// as readable so the pump observes the failure; a waker event is
    /// consumed here and reported as nothing.
    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) {
        out.clear();
        let n = self.ep.wait(&mut self.buf, timeout_ms).unwrap_or(0);
        for ev in self.buf.iter().take(n) {
            let bits = { ev.events };
            let token = { ev.data };
            if token == WAKER_TOKEN {
                self.waker.efd.drain();
                continue;
            }
            out.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & sys::EPOLLOUT != 0,
            });
        }
    }
}

/// One queued reply frame.
struct OutFrame {
    bytes: Vec<u8>,
    at: usize,
}

/// One connection's reply frames awaiting a vectored flush. Frames are
/// queued whole, so replies never interleave mid-frame.
#[derive(Default)]
pub(crate) struct Outbox {
    frames: VecDeque<OutFrame>,
    /// Unwritten bytes across `frames`.
    bytes: usize,
}

impl Outbox {
    /// Queues one encoded frame.
    pub(crate) fn push(&mut self, bytes: Vec<u8>) {
        self.bytes += bytes.len();
        self.frames.push_back(OutFrame { bytes, at: 0 });
    }
}

/// One connection, as the reactor owns it.
struct NetConn {
    stream: TcpStream,
    /// Reassembly buffer; `None` while nothing is pending (the buffer
    /// lives in the pool between partial frames).
    rbuf: Option<ReadBuf>,
    out: Outbox,
    /// First byte seen and found to be the v2 magic.
    magic_seen: bool,
    hello_done: bool,
    /// Write interest currently armed with the poller.
    write_interest: bool,
    /// Pass number this connection was last pumped on (dedupes the
    /// readable-event and backlog pump sources).
    pumped_pass: u64,
    /// Has queued replies not yet flushed this pass.
    dirty: bool,
}

/// What one pump pass decided about a connection.
enum Fate {
    Keep {
        backlog: bool,
    },
    /// Sever — after best-effort writing `farewell` (a pre-encoded
    /// fatal error frame, or the plain-text [`NOT_V2`] line), so
    /// protocol violations still get their diagnostic before EOF.
    Remove {
        farewell: Option<Vec<u8>>,
    },
    /// The connection shut the service down (see
    /// [`Disposition::Shutdown`]).
    Shutdown,
}

/// The reactor: see the module docs for the full shape.
pub(crate) struct Reactor {
    state: Arc<ServerState>,
    poller: Poller,
    cmd_rx: Receiver<ReactorCmd>,
    conns: HashMap<u64, NetConn>,
    /// Connections holding complete-but-undispatched frames (hit the
    /// per-pass frame cap); pumped again next pass with a 0 timeout.
    backlog: Vec<u64>,
    /// Connections with replies queued since their last flush.
    dirty: Vec<u64>,
    pool: BufPool,
    scratch: Vec<u8>,
    pass: u64,
    wakeups: Arc<Counter>,
    replies_per_syscall: Arc<AtomicHistogram>,
    /// Reply bytes queued across all connections, awaiting flush.
    out_queue: Arc<Gauge>,
    /// Connections the reactor severed (backpressure cap, dead write,
    /// protocol violation) — normal EOFs do not count.
    severed: Arc<Counter>,
}

impl Reactor {
    pub(crate) fn new(
        state: Arc<ServerState>,
        poller: Poller,
        cmd_rx: Receiver<ReactorCmd>,
    ) -> Reactor {
        let registry = &state.registry;
        let wakeups = registry.counter("uuidp_net_wakeups_total");
        let replies_per_syscall = registry.histogram("uuidp_net_replies_per_syscall");
        let out_queue = registry.gauge("uuidp_net_out_queue_bytes");
        let severed = registry.counter("uuidp_net_severed_total");
        Reactor {
            state,
            poller,
            cmd_rx,
            conns: HashMap::new(),
            backlog: Vec::new(),
            dirty: Vec::new(),
            pool: BufPool::new(),
            scratch: vec![0u8; 16 * 1024],
            pass: 0,
            wakeups,
            replies_per_syscall,
            out_queue,
            severed,
        }
    }

    /// The reactor thread's main loop.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = if self.backlog.is_empty() {
                -1 // idle: block until a socket or a command stirs
            } else {
                0 // parked frames to dispatch: come straight back
            };
            self.poller.wait(&mut events, timeout);
            self.wakeups.inc();
            self.pass += 1;
            if self.drain_cmds() {
                break;
            }
            // Pump: readiness first, then the parked backlog.
            let parked = std::mem::take(&mut self.backlog);
            for ev in &events {
                if ev.readable {
                    self.pump(ev.token);
                }
            }
            for conn_id in parked {
                let already = self
                    .conns
                    .get(&conn_id)
                    .is_none_or(|c| c.pumped_pass == self.pass);
                if !already {
                    self.pump(conn_id);
                }
            }
            // Flush: write-ready connections, then the ones the pump
            // queued replies on. A stop seen only at the next pass leaves
            // this pass's replies written first.
            for ev in &events {
                if ev.writable {
                    self.flush(ev.token);
                }
            }
            let dirty = std::mem::take(&mut self.dirty);
            for conn_id in dirty {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.dirty = false;
                }
                self.flush(conn_id);
            }
        }
        self.finish();
    }

    /// Applies queued commands; `true` means Stop was seen.
    fn drain_cmds(&mut self) -> bool {
        let mut stop = false;
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            match cmd {
                ReactorCmd::Adopt(stream) => self.adopt(stream),
                ReactorCmd::Stop => stop = true,
            }
        }
        stop
    }

    fn adopt(&mut self, stream: TcpStream) {
        let Some(conn_id) = self.state.register(&stream) else {
            return; // racing a shutdown; already severed
        };
        if self.poller.register(&stream, conn_id).is_err() {
            self.state.deregister();
            return;
        }
        self.conns.insert(
            conn_id,
            NetConn {
                stream,
                rbuf: None,
                out: Outbox::default(),
                magic_seen: false,
                hello_done: false,
                write_interest: false,
                pumped_pass: 0,
                dirty: false,
            },
        );
    }

    /// Accounts `added` bytes just queued on `conn_id`: marks it for the
    /// pass's flush, or severs it past the out-queue cap.
    fn queued(&mut self, conn_id: u64, added: usize) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        self.out_queue.add(added as i64);
        if conn.out.bytes > MAX_OUT_QUEUE {
            self.severed.inc();
            // The peer stopped reading long ago: backpressure by sever,
            // not by blocking the reactor.
            self.remove(conn_id);
            return;
        }
        if added > 0 && !conn.dirty {
            conn.dirty = true;
            self.dirty.push(conn_id);
        }
    }

    fn pump(&mut self, conn_id: u64) {
        let Some(mut conn) = self.conns.remove(&conn_id) else {
            return;
        };
        conn.pumped_pass = self.pass;
        let before = conn.out.bytes;
        let fate = self.pump_inner(&mut conn);
        let added = conn.out.bytes - before;
        match fate {
            Fate::Keep { backlog } => {
                if backlog {
                    self.backlog.push(conn_id);
                }
                self.conns.insert(conn_id, conn);
                self.queued(conn_id, added);
            }
            Fate::Remove { farewell } => {
                // A farewell frame means the reactor is severing the
                // connection over a violation; a bare removal is the
                // peer's own EOF and does not count as a sever. Replies
                // the pump queued are forfeit with the rest.
                self.out_queue.add(added as i64);
                if let Some(bytes) = farewell {
                    self.severed.inc();
                    write_farewell(&conn.stream, &bytes);
                }
                self.dispose(conn);
            }
            Fate::Shutdown => {
                // The requester reads its whole queue, the summary last,
                // before the stop cuts every socket.
                self.conns.insert(conn_id, conn);
                self.queued(conn_id, added);
                self.write_out(conn_id);
                self.remove(conn_id);
                self.state.stop();
            }
        }
    }

    fn pump_inner(&mut self, conn: &mut NetConn) -> Fate {
        let mut read_bytes = 0usize;
        let mut closed = false;
        while read_bytes < READ_CAP {
            let want = (READ_CAP - read_bytes).min(self.scratch.len());
            match (&conn.stream).read(&mut self.scratch[..want]) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    read_bytes += n;
                    if !conn.magic_seen {
                        // First byte ever: only the v2 magic is served.
                        if self.scratch[0] != frame::MAGIC[0] {
                            return Fate::Remove {
                                farewell: Some(NOT_V2.to_vec()),
                            };
                        }
                        conn.magic_seen = true;
                    }
                    let pool = &mut self.pool;
                    let rbuf = conn.rbuf.get_or_insert_with(|| pool.get());
                    rbuf.extend(&self.scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        // Dispatch complete frames, capped per pass — unless the peer
        // is gone, in which case whatever it pipelined before closing
        // still deserves dispatch (nobody is left to starve).
        let mut frames = 0usize;
        if let Some(rbuf) = conn.rbuf.as_mut() {
            while closed || frames < FRAME_CAP {
                match frame::decode_frame(rbuf.pending()) {
                    Ok(None) => break,
                    Ok(Some((f, used))) => {
                        rbuf.consume(used);
                        frames += 1;
                        let disposition =
                            dispatch_frame(&mut conn.hello_done, &mut conn.out, f, &self.state);
                        match disposition {
                            Disposition::Keep => {}
                            Disposition::Sever(message) => {
                                return Fate::Remove {
                                    farewell: Some(error_frame(0, &message)),
                                };
                            }
                            Disposition::Shutdown => return Fate::Shutdown,
                        }
                    }
                    Err(e) => {
                        // Framing errors are connection-fatal: a binary
                        // stream cannot be resynchronized.
                        return Fate::Remove {
                            farewell: Some(error_frame(0, &e.to_string())),
                        };
                    }
                }
            }
            let backlog = !closed && has_complete_frame(rbuf.pending());
            rbuf.compact();
            if rbuf.is_empty() {
                if let Some(rbuf) = conn.rbuf.take() {
                    self.pool.put(rbuf);
                }
            }
            if closed {
                return Fate::Remove { farewell: None };
            }
            return Fate::Keep { backlog };
        }
        if closed {
            Fate::Remove { farewell: None }
        } else {
            Fate::Keep { backlog: false }
        }
    }

    /// Flushes one connection's reply queue with vectored writes.
    fn flush(&mut self, conn_id: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return;
            };
            let out = &mut conn.out;
            while !out.frames.is_empty() {
                let mut iovs: Vec<io::IoSlice<'_>> =
                    Vec::with_capacity(out.frames.len().min(MAX_IOV));
                for (i, frame) in out.frames.iter().take(MAX_IOV).enumerate() {
                    let at = if i == 0 { frame.at } else { 0 };
                    iovs.push(io::IoSlice::new(&frame.bytes[at..]));
                }
                match (&conn.stream).write_vectored(&iovs) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(mut n) => {
                        out.bytes -= n;
                        self.out_queue.add(-(n as i64));
                        let mut retired = 0u64;
                        while n > 0 {
                            let front = out.frames.front_mut().expect("retiring written bytes");
                            let left = front.bytes.len() - front.at;
                            if n >= left {
                                n -= left;
                                out.frames.pop_front();
                                retired += 1;
                            } else {
                                front.at += n;
                                n = 0;
                            }
                        }
                        // How many whole replies this one syscall moved:
                        // the batching ratio the vectored flush exists
                        // for (the old path was one write per reply).
                        self.replies_per_syscall.record_ns(retired);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            // A write to a dead peer is a forced sever, not a clean EOF.
            self.severed.inc();
            self.remove(conn_id);
            return;
        }
        // Arm write interest only while bytes wait (otherwise a mostly
        // idle connection would wake the reactor on every pass).
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let want = !conn.out.frames.is_empty();
        if want != conn.write_interest {
            conn.write_interest = want;
            self.poller.set_writable(&conn.stream, conn_id, want);
        }
    }

    /// Flushes `conn_id`'s whole reply queue, retrying every millisecond
    /// while the socket is full, for at most [`WRITE_OUT_NS`] in all.
    fn write_out(&mut self, conn_id: u64) {
        let deadline = clock::monotonic_ns().saturating_add(WRITE_OUT_NS);
        loop {
            self.flush(conn_id);
            let Some(conn) = self.conns.get(&conn_id) else {
                return; // severed: the peer is gone
            };
            if conn.out.frames.is_empty() || clock::monotonic_ns() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Removes and disposes one connection.
    fn remove(&mut self, conn_id: u64) {
        if let Some(conn) = self.conns.remove(&conn_id) {
            self.dispose(conn);
        }
    }

    fn dispose(&mut self, conn: NetConn) {
        self.out_queue.add(-(conn.out.bytes as i64));
        self.poller.deregister(&conn.stream);
        self.state.deregister();
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        if let Some(rbuf) = conn.rbuf {
            self.pool.put(rbuf);
        }
    }

    /// The abrupt exit every stop path funnels into: every connection is
    /// severed.
    fn finish(mut self) {
        let conns: Vec<NetConn> = self.conns.drain().map(|(_, c)| c).collect();
        for conn in conns {
            self.dispose(conn);
        }
    }
}

fn error_frame(corr: u64, message: &str) -> Vec<u8> {
    frame::encode_frame(
        corr,
        &frame::FrameBody::Error {
            message: message.into(),
        },
    )
}

/// Best-effort synchronous write of a farewell error frame to a
/// connection that is about to be severed (its queue is forfeit, but a
/// protocol-violation diagnostic must still reach the peer). Bounded:
/// error frames are tiny, so a send buffer with no room for one means
/// the peer was not reading anyway.
fn write_farewell(stream: &TcpStream, bytes: &[u8]) {
    let mut at = 0;
    let mut stalls = 0u32;
    while at < bytes.len() && stalls < 500 {
        match (&*stream).write(&bytes[at..]) {
            Ok(0) => return,
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                stalls += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Whether `pending` holds at least one complete frame (or a header so
/// corrupt the decoder will fault it, which also deserves a pump).
/// Header-only peek — no payload decode, no checksum.
fn has_complete_frame(pending: &[u8]) -> bool {
    if pending.len() < frame::HEADER_LEN {
        return false;
    }
    let len = u32::from_le_bytes([pending[13], pending[14], pending[15], pending[16]]);
    if len > frame::MAX_PAYLOAD {
        return true; // decode_frame will sever it
    }
    pending.len() >= frame::HEADER_LEN + len as usize + frame::TRAILER_LEN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_frame_peek_agrees_with_the_decoder() {
        let bytes = frame::encode_frame(9, &frame::FrameBody::DrainReq);
        for cut in 0..bytes.len() {
            let complete = has_complete_frame(&bytes[..cut]);
            assert!(!complete, "prefix of {cut} bytes is not a whole frame");
        }
        assert!(has_complete_frame(&bytes));
        // A corrupt over-cap length still reports pump-worthy.
        let mut corrupt = bytes.clone();
        corrupt[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(has_complete_frame(&corrupt));
    }
}
