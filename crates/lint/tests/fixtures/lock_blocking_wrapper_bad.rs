//! Violates `lock-blocking` through a wrapper: `read_socket` blocks
//! on the socket, and here it runs while the buffer guard is live, so
//! every thread that wants the buffer waits on the network.

use std::net::TcpStream;
use std::sync::Mutex;

/// A connection and its reassembly buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Mutex<Vec<u8>>,
}

/// One blocking read off `stream` into `buf`.
fn read_socket(stream: &TcpStream, buf: &mut Vec<u8>) -> usize {
    0
}

impl Conn {
    /// Reads more bytes — while holding the buffer lock.
    pub fn pump(&self) {
        let mut buf = self.buf.lock();
        read_socket(&self.stream, &mut buf);
    }
}
