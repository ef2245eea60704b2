//! Conforms to `lock-blocking`: the blocking `read_socket` runs into a
//! local buffer with no lock held, and the guard only appends.

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
    /// Reads with no lock held, then appends under the lock.
    pub fn pump(&self) {
        let mut fresh = Vec::new();
        read_socket(&self.stream, &mut fresh);
        let mut buf = self.buf.lock();
        buf.extend_from_slice(&fresh);
    }
}
