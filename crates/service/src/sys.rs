//! Raw Linux syscall surface for the readiness-driven reactor.
//!
//! The build environment has no crate registry, so the usual `mio` /
//! `libc` route is closed — instead this module declares the handful of
//! symbols the reactor needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`) directly against the C library that `std`
//! already links.
//! Everything is wrapped in owned-fd types so a leaked or double-closed
//! descriptor is unrepresentable, and every fallible call reports
//! through `io::Error::last_os_error()` like `std` itself would.
//!
//! The module is Linux-only, and so is the reactor built on it; every
//! consumer goes through [`crate::reactor`].

use std::ffi::{c_int, c_uint};
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// One `struct epoll_event`. Packed on x86 (only) to match the kernel
/// ABI — on every other architecture the natural `repr(C)` layout is
/// the ABI.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// The token registered with the fd (we store connection ids).
    pub data: u64,
}

/// Readiness: there is data to read (or an EOF to observe).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the send buffer has room again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance (level-triggered use only).
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` under `token`, read interest always, write
    /// interest when `writable`.
    pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest(writable), token)
    }

    /// Re-arms `fd`'s interest set (used to toggle write readiness).
    pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest(writable), token)
    }

    /// Removes `fd` from the interest set.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on every kernel ≥2.6.9,
        // but a null pointer is rejected by some older ABIs — pass a
        // dummy.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events`; `timeout_ms < 0` blocks
    /// forever. Returns the number of events filled. `EINTR` retries.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

fn interest(writable: bool) -> u32 {
    let mut events = EPOLLIN | EPOLLRDHUP;
    if writable {
        events |= EPOLLOUT;
    }
    events
}

/// An owned eventfd used to wake a blocked `epoll_wait` from another
/// thread (the reactor registers it like any other readable fd).
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// A nonblocking close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Adds 1 to the counter, making the fd readable. Best-effort: a
    /// full counter (already signalled 2^64−2 times) still wakes.
    pub fn signal(&self) {
        let one: u64 = 1;
        let _ = unsafe { write(self.fd.as_raw_fd(), one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Resets the counter to 0 (consumes the pending wakeups).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = unsafe { read(self.fd.as_raw_fd(), buf.as_mut_ptr(), 8) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn eventfd_wakes_a_blocked_wait() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw(), u64::MAX, false).unwrap();
        // Not yet signalled: a zero-timeout wait sees nothing.
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        efd.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, u64::MAX);
        efd.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drain must reset");
    }

    #[test]
    fn socket_readiness_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), 7, false).unwrap();
        tx.write_all(b"ping").unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);
        // Level-triggered: unread data keeps reporting readiness.
        let n = ep.wait(&mut events, 0).unwrap();
        assert_eq!(n, 1, "level-triggered readiness must persist");
        ep.del(rx.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
