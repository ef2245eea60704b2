//! The workspace's shared little-endian binary codec: the byte-level
//! vocabulary behind every versioned on-disk and on-wire format.
//!
//! [`persist`](crate::persist) (snapshot files) and the `uuidp-client`
//! wire frames both follow the same discipline — magic, version,
//! length, payload, FNV-1a checksum — and this module carries the part
//! they share: primitive writers ([`put_u64`] and friends), a
//! bounded-read [`Cursor`] whose every accessor returns a typed
//! [`CodecError`] instead of panicking, and the [`fnv1a`] integrity
//! hash. Formats own their framing (magic bytes, version rules,
//! checksum placement); the codec owns the bytes in between.
//!
//! All integers are little-endian. Variable-length sequences carry a
//! `u64` count prefix, validated against the remaining payload before
//! any allocation, so a crafted length can never force a huge
//! pre-allocation. `f64`s travel as their IEEE-754 bit patterns, so
//! round-trips are bit-exact.

/// Error decoding a binary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value was complete.
    Truncated,
    /// The payload decoded but described an impossible value.
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a over `bytes` — the formats' integrity check (corruption
/// detection, not an adversarial MAC).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u128`, little-endian.
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a 4-word RNG state.
pub fn put_rng(out: &mut Vec<u8>, rng: &[u64; 4]) {
    for &w in rng {
        put_u64(out, w);
    }
}

/// Appends a count-prefixed sequence of `u128`s.
pub fn put_u128_seq(out: &mut Vec<u8>, seq: &[u128]) {
    put_u64(out, seq.len() as u64);
    for &v in seq {
        put_u128(out, v);
    }
}

/// Appends a count-prefixed sequence of `u128` pairs.
pub fn put_pair_seq(out: &mut Vec<u8>, seq: &[(u128, u128)]) {
    put_u64(out, seq.len() as u64);
    for &(a, b) in seq {
        put_u128(out, a);
        put_u128(out, b);
    }
}

/// Appends an optional `u128` (presence byte + value).
pub fn put_opt_u128(out: &mut Vec<u8>, v: &Option<u128>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u128(out, *v);
        }
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an optional string (presence byte + string).
pub fn put_opt_str(out: &mut Vec<u8>, v: &Option<String>) {
    match v {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// Bounded-read cursor over a decoded payload. Every accessor validates
/// the remaining length first — decoding arbitrary bytes can fail, but
/// never panic or over-allocate.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    /// The cursor's byte offset from the start.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// Takes the next `N` bytes as a fixed array. The typed-error twin
    /// of `take(N)?.try_into().unwrap()`: the length check and the
    /// slice-to-array conversion cannot drift apart.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a 4-word RNG state.
    pub fn rng(&mut self) -> Result<[u64; 4], CodecError> {
        Ok([self.u64()?, self.u64()?, self.u64()?, self.u64()?])
    }

    /// Reads a sequence length prefix. A length prefix can never exceed
    /// the remaining bytes (each element is at least one byte), so
    /// absurd counts are rejected before they become pre-allocations.
    pub fn seq_len(&mut self) -> Result<usize, CodecError> {
        let len = self.u64()?;
        if len as usize > self.bytes.len().saturating_sub(self.at) {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }

    /// Reads a count-prefixed `u128` sequence.
    pub fn u128_seq(&mut self) -> Result<Vec<u128>, CodecError> {
        let len = self.seq_len()?;
        (0..len).map(|_| self.u128()).collect()
    }

    /// Reads a count-prefixed `u128`-pair sequence.
    pub fn pair_seq(&mut self) -> Result<Vec<(u128, u128)>, CodecError> {
        let len = self.seq_len()?;
        (0..len).map(|_| Ok((self.u128()?, self.u128()?))).collect()
    }

    /// Reads an optional `u128`.
    pub fn opt_u128(&mut self) -> Result<Option<u128>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u128()?)),
            t => Err(CodecError::Corrupt(format!("bad option tag {t}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.seq_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Corrupt("string is not UTF-8".into()))
    }

    /// Reads an optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            t => Err(CodecError::Corrupt(format!("bad option tag {t}"))),
        }
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(format!(
                "{} trailing payload bytes",
                self.bytes.len() - self.at
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_u128(&mut out, u128::MAX / 3);
        put_f64(&mut out, -1234.5678e-9);
        put_rng(&mut out, &[1, 2, 3, 4]);
        put_u128_seq(&mut out, &[9, 8, 7]);
        put_pair_seq(&mut out, &[(1, 2), (3, 4)]);
        put_opt_u128(&mut out, &None);
        put_opt_u128(&mut out, &Some(5));
        put_str(&mut out, "héllo");
        put_opt_str(&mut out, &Some("x".into()));
        put_opt_str(&mut out, &None);
        let mut c = Cursor::new(&out);
        assert_eq!(c.u8().unwrap(), 7);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.u128().unwrap(), u128::MAX / 3);
        assert_eq!(c.f64().unwrap().to_bits(), (-1234.5678e-9f64).to_bits());
        assert_eq!(c.rng().unwrap(), [1, 2, 3, 4]);
        assert_eq!(c.u128_seq().unwrap(), vec![9, 8, 7]);
        assert_eq!(c.pair_seq().unwrap(), vec![(1, 2), (3, 4)]);
        assert_eq!(c.opt_u128().unwrap(), None);
        assert_eq!(c.opt_u128().unwrap(), Some(5));
        assert_eq!(c.str().unwrap(), "héllo");
        assert_eq!(c.opt_str().unwrap(), Some("x".into()));
        assert_eq!(c.opt_str().unwrap(), None);
        c.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        assert_eq!(Cursor::new(&out[..5]).u64(), Err(CodecError::Truncated));
        let c = Cursor::new(&out);
        assert!(matches!(c.finish(), Err(CodecError::Corrupt(_))));
        // A crafted near-MAX sequence length must not pre-allocate.
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX - 3);
        assert_eq!(Cursor::new(&huge).u128_seq(), Err(CodecError::Truncated));
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
