//! Wire protocol v2: length-prefixed binary frames.
//!
//! Every v2 message — in either direction — is one frame:
//!
//! ```text
//! magic     4 bytes   [0x00, 'U', 'P', '2']  (the NUL lead byte is what
//!                     the server's first-byte check keys on: no
//!                     text line starts with NUL)
//! kind      u8        frame kind (see the table below)
//! corr      u64 LE    correlation id (0 = uncorrelated/connection-level)
//! length    u32 LE    payload byte count (≤ 16 MiB)
//! payload   ...       kind-specific, shared `uuidp_core::codec` encoding
//! checksum  u64 LE    FNV-1a over magic..payload
//! ```
//!
//! | kind | frame | direction | payload |
//! |------|-------|-----------|---------|
//! | 0 | `Hello` | c→s | protocol version (u32), universe size (u128) |
//! | 1 | `HelloOk` | s→c | negotiated version (u32), universe size (u128) |
//! | 2 | `Error` | s→c | message (string); `corr = 0` is connection-fatal |
//! | 3 | `LeaseReq` | c→s | tenant (u64), count (u128) |
//! | 4 | `LeaseResp` | s→c | tenant, granted, arcs (pair seq), error (opt string) |
//! | 5 | `ResetReq` | c→s | tenant (u64) |
//! | 6 | `ResetResp` | s→c | tenant (u64) |
//! | 7 | `DrainReq` | c→s | — |
//! | 8 | `DrainResp` | s→c | — |
//! | 9 | `SummaryReq` | c→s | — |
//! | 10 | `SummaryResp` | s→c | the 15 [`Summary`] fields (f64s as bit patterns) |
//! | 11 | `ShutdownReq` | c→s | — (reply is a `SummaryResp`, then close) |
//! | 12 | `HaltReq` | c→s | — (no reply: the server dies abruptly) |
//! | 13 | `MetricsReq` | c→s | — |
//! | 14 | `MetricsResp` | s→c | Prometheus-style text exposition (string) |
//! | 15 | `TimelineReq` | c→s | correlation id to look up (u64) |
//! | 16 | `TimelineResp` | s→c | rendered span timeline (string; empty = not retained) |
//!
//! The correlation id is what buys multiplexing: requests carry a
//! client-chosen `corr`, replies echo it, and nothing requires replies
//! to arrive in request order — one connection can have many requests
//! in flight, from many threads, and each reply finds its caller by id.
//!
//! Decoding arbitrary bytes can fail ([`FrameError`], typed) but must
//! never panic or over-allocate: the payload length is capped before
//! allocation, every field read is bounds-checked, and the checksum is
//! verified before the payload is interpreted. A framing error is
//! connection-fatal — there is no reliable way to resynchronize a
//! binary stream after a corrupt length field.

use std::io::{self, Read, Write};

use uuidp_core::codec::{
    fnv1a, put_f64, put_opt_str, put_pair_seq, put_str, put_u128, put_u32, put_u64, put_u8,
    CodecError, Cursor,
};

use crate::Summary;

/// Magic bytes opening every v2 frame. The leading NUL is what the
/// server's first-byte check keys on.
pub const MAGIC: [u8; 4] = [0x00, b'U', b'P', b'2'];

/// The protocol version this codec speaks.
pub const VERSION: u32 = 2;

/// Maximum payload bytes a frame may carry. A lease for the whole
/// 2¹²⁸ universe is a few dozen bytes when it lands in runs, but the
/// Random algorithm fragments a lease into one 32-byte arc per ID, so
/// the cap admits ~500k-arc replies; servers turn anything larger into
/// a typed error rather than an undecodable frame, and decoders reject
/// over-cap lengths before allocating.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// Fixed header bytes before the payload.
pub const HEADER_LEN: usize = 4 + 1 + 8 + 4;

/// Trailing checksum bytes after the payload.
pub const TRAILER_LEN: usize = 8;

/// One decoded frame: its correlation id plus the typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Correlation id (0 = connection-level, not tied to a request).
    pub corr: u64,
    /// The typed payload.
    pub body: FrameBody,
}

/// The typed payload of a v2 frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameBody {
    /// Client hello: the version it speaks and the universe it expects.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
        /// Universe size (`IdSpace::size`) the client was built for.
        space: u128,
    },
    /// Server accept: negotiation succeeded.
    HelloOk {
        /// Protocol version the server will speak.
        version: u32,
        /// The server's universe size.
        space: u128,
    },
    /// Server-side error. With `corr != 0` it answers that request;
    /// with `corr == 0` it is connection-fatal (framing/negotiation).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Lease `count` IDs for `tenant`.
    LeaseReq {
        /// Requesting tenant.
        tenant: u64,
        /// IDs requested.
        count: u128,
    },
    /// A served lease. Arcs travel as raw `(start, len)` pairs; the
    /// client validates them against its universe before typing them.
    LeaseResp {
        /// The tenant the lease was served for.
        tenant: u64,
        /// Total IDs granted.
        granted: u128,
        /// Granted arcs in emission order.
        arcs: Vec<(u128, u128)>,
        /// Generator error text, if the grant fell short.
        error: Option<String>,
    },
    /// Recycle `tenant`'s generator into a fresh epoch.
    ResetReq {
        /// Tenant to recycle.
        tenant: u64,
    },
    /// Reset acknowledgement.
    ResetResp {
        /// The recycled tenant.
        tenant: u64,
    },
    /// Block until every prior request is processed.
    DrainReq,
    /// Drain acknowledgement.
    DrainResp,
    /// Ask for a live service summary without stopping anything.
    SummaryReq,
    /// A service summary (live, or final when answering a shutdown).
    SummaryResp(Summary),
    /// Stop the whole service; the reply is a `SummaryResp`.
    ShutdownReq,
    /// Kill the server abruptly (crash fiction): no reply, the
    /// connection is severed.
    HaltReq,
    /// Ask for a metrics-registry scrape.
    MetricsReq,
    /// A metrics scrape: the Prometheus-style text exposition.
    MetricsResp {
        /// The rendered exposition.
        text: String,
    },
    /// Ask for the retained trace span of one correlation id. The
    /// *frame's* own `corr` is the request/reply correlation as usual;
    /// the queried id travels in the payload.
    TimelineReq {
        /// Correlation id whose span events are wanted.
        corr: u64,
    },
    /// A span timeline: `uuidp_obs::TraceRecorder::timeline` output for the
    /// queried id — empty when the ring no longer retains it.
    TimelineResp {
        /// The rendered causal timeline.
        text: String,
    },
}

impl FrameBody {
    fn kind(&self) -> u8 {
        match self {
            FrameBody::Hello { .. } => 0,
            FrameBody::HelloOk { .. } => 1,
            FrameBody::Error { .. } => 2,
            FrameBody::LeaseReq { .. } => 3,
            FrameBody::LeaseResp { .. } => 4,
            FrameBody::ResetReq { .. } => 5,
            FrameBody::ResetResp { .. } => 6,
            FrameBody::DrainReq => 7,
            FrameBody::DrainResp => 8,
            FrameBody::SummaryReq => 9,
            FrameBody::SummaryResp(_) => 10,
            FrameBody::ShutdownReq => 11,
            FrameBody::HaltReq => 12,
            FrameBody::MetricsReq => 13,
            FrameBody::MetricsResp { .. } => 14,
            FrameBody::TimelineReq { .. } => 15,
            FrameBody::TimelineResp { .. } => 16,
        }
    }

    /// A short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            FrameBody::Hello { .. } => "hello",
            FrameBody::HelloOk { .. } => "hello-ok",
            FrameBody::Error { .. } => "error",
            FrameBody::LeaseReq { .. } => "lease-req",
            FrameBody::LeaseResp { .. } => "lease-resp",
            FrameBody::ResetReq { .. } => "reset-req",
            FrameBody::ResetResp { .. } => "reset-resp",
            FrameBody::DrainReq => "drain-req",
            FrameBody::DrainResp => "drain-resp",
            FrameBody::SummaryReq => "summary-req",
            FrameBody::SummaryResp(_) => "summary-resp",
            FrameBody::ShutdownReq => "shutdown-req",
            FrameBody::HaltReq => "halt-req",
            FrameBody::MetricsReq => "metrics-req",
            FrameBody::MetricsResp { .. } => "metrics-resp",
            FrameBody::TimelineReq { .. } => "timeline-req",
            FrameBody::TimelineResp { .. } => "timeline-resp",
        }
    }
}

/// Error decoding a v2 frame. Every variant is connection-fatal.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The bytes do not start with [`MAGIC`].
    BadMagic,
    /// The header's payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The stored checksum does not match the content.
    ChecksumMismatch,
    /// The frame kind byte is not in the table.
    UnknownKind(u8),
    /// A fixed header/trailer field ran past the available bytes. The
    /// public decoders pre-check lengths, so reaching this means an
    /// internal slicing bug — but it is still a typed error, never a
    /// panic, because these paths decode attacker-controlled bytes.
    Truncated,
    /// The payload failed to decode for its kind.
    Payload(CodecError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a v2 frame (bad magic)"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_PAYLOAD} cap"
                )
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Truncated => write!(f, "frame header field out of bounds"),
            FrameError::Payload(e) => write!(f, "bad frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Payload(e)
    }
}

fn encode_summary(out: &mut Vec<u8>, s: &Summary) {
    put_u128(out, s.issued_ids);
    put_u64(out, s.leases);
    put_u64(out, s.errors);
    put_f64(out, s.p50_ns);
    put_f64(out, s.p99_ns);
    put_f64(out, s.p999_ns);
    put_f64(out, s.mean_ns);
    put_u128(out, s.duplicate_ids);
    put_u64(out, s.flagged_records);
    put_u128(out, s.recorded_ids);
    put_u64(out, s.recorded_arcs);
    put_u64(out, s.records);
    put_u128(out, s.max_lag_ns);
    put_f64(out, s.mean_lag_ns);
    put_u64(out, s.audit_threads as u64);
}

fn decode_summary(c: &mut Cursor<'_>) -> Result<Summary, CodecError> {
    Ok(Summary {
        issued_ids: c.u128()?,
        leases: c.u64()?,
        errors: c.u64()?,
        p50_ns: c.f64()?,
        p99_ns: c.f64()?,
        p999_ns: c.f64()?,
        mean_ns: c.f64()?,
        duplicate_ids: c.u128()?,
        flagged_records: c.u64()?,
        recorded_ids: c.u128()?,
        recorded_arcs: c.u64()?,
        records: c.u64()?,
        max_lag_ns: c.u128()?,
        mean_lag_ns: c.f64()?,
        audit_threads: c.u64()? as usize,
    })
}

fn encode_payload(out: &mut Vec<u8>, body: &FrameBody) {
    match body {
        FrameBody::Hello { version, space } | FrameBody::HelloOk { version, space } => {
            put_u32(out, *version);
            put_u128(out, *space);
        }
        FrameBody::Error { message } => put_str(out, message),
        FrameBody::LeaseReq { tenant, count } => {
            put_u64(out, *tenant);
            put_u128(out, *count);
        }
        FrameBody::LeaseResp {
            tenant,
            granted,
            arcs,
            error,
        } => {
            put_u64(out, *tenant);
            put_u128(out, *granted);
            put_pair_seq(out, arcs);
            put_opt_str(out, error);
        }
        FrameBody::ResetReq { tenant } | FrameBody::ResetResp { tenant } => {
            put_u64(out, *tenant);
        }
        FrameBody::SummaryResp(summary) => encode_summary(out, summary),
        FrameBody::MetricsResp { text } | FrameBody::TimelineResp { text } => put_str(out, text),
        FrameBody::TimelineReq { corr } => put_u64(out, *corr),
        FrameBody::DrainReq
        | FrameBody::DrainResp
        | FrameBody::SummaryReq
        | FrameBody::ShutdownReq
        | FrameBody::HaltReq
        | FrameBody::MetricsReq => {}
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<FrameBody, FrameError> {
    let mut c = Cursor::new(payload);
    let body = match kind {
        0 => FrameBody::Hello {
            version: c.u32()?,
            space: c.u128()?,
        },
        1 => FrameBody::HelloOk {
            version: c.u32()?,
            space: c.u128()?,
        },
        2 => FrameBody::Error { message: c.str()? },
        3 => FrameBody::LeaseReq {
            tenant: c.u64()?,
            count: c.u128()?,
        },
        4 => FrameBody::LeaseResp {
            tenant: c.u64()?,
            granted: c.u128()?,
            arcs: c.pair_seq()?,
            error: c.opt_str()?,
        },
        5 => FrameBody::ResetReq { tenant: c.u64()? },
        6 => FrameBody::ResetResp { tenant: c.u64()? },
        7 => FrameBody::DrainReq,
        8 => FrameBody::DrainResp,
        9 => FrameBody::SummaryReq,
        10 => FrameBody::SummaryResp(decode_summary(&mut c)?),
        11 => FrameBody::ShutdownReq,
        12 => FrameBody::HaltReq,
        13 => FrameBody::MetricsReq,
        14 => FrameBody::MetricsResp { text: c.str()? },
        15 => FrameBody::TimelineReq { corr: c.u64()? },
        16 => FrameBody::TimelineResp { text: c.str()? },
        k => return Err(FrameError::UnknownKind(k)),
    };
    c.finish()?;
    Ok(body)
}

/// Serializes one frame.
pub fn encode_frame(corr: u64, body: &FrameBody) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    encode_payload(&mut payload, body);
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    put_u8(&mut out, body.kind());
    put_u64(&mut out, corr);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// Decodes the first frame in `buf`, if complete.
///
/// * `Ok(Some((frame, consumed)))` — a whole valid frame; the caller
///   should drop the first `consumed` bytes and call again.
/// * `Ok(None)` — the bytes so far are a valid prefix; read more.
/// * `Err(_)` — the stream is corrupt; sever the connection.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < HEADER_LEN {
        // An early magic mismatch is reportable before the full header
        // arrives — and is what the server's first-byte check relies on.
        let probe = buf.len().min(MAGIC.len());
        if buf.get(..probe) != Some(&MAGIC[..probe]) {
            return Err(FrameError::BadMagic);
        }
        return Ok(None);
    }
    if buf.get(..4) != Some(&MAGIC[..]) {
        return Err(FrameError::BadMagic);
    }
    let kind = *buf.get(4).ok_or(FrameError::Truncated)?;
    let corr = u64::from_le_bytes(field(buf, 5)?);
    let payload_len = u32::from_le_bytes(field(buf, 13)?);
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(payload_len));
    }
    let total = HEADER_LEN + payload_len as usize + TRAILER_LEN;
    if buf.len() < total {
        return Ok(None);
    }
    let body_end = HEADER_LEN + payload_len as usize;
    let stored = u64::from_le_bytes(field(buf, body_end)?);
    let checked = buf.get(..body_end).ok_or(FrameError::Truncated)?;
    if fnv1a(checked) != stored {
        return Err(FrameError::ChecksumMismatch);
    }
    let payload = buf.get(HEADER_LEN..body_end).ok_or(FrameError::Truncated)?;
    let body = decode_payload(kind, payload)?;
    Ok(Some((Frame { corr, body }, total)))
}

/// Reads the `N`-byte little-endian field at `at`, as a typed error
/// instead of a `try_into().unwrap()` slice-to-array panic.
fn field<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], FrameError> {
    let slice = at
        .checked_add(N)
        .and_then(|end| buf.get(at..end))
        .ok_or(FrameError::Truncated)?;
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    Ok(out)
}

fn fatal(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Writes one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, corr: u64, body: &FrameBody) -> io::Result<()> {
    w.write_all(&encode_frame(corr, body))
}

/// Reads exactly one frame from a blocking stream (the client side,
/// where a dedicated reader owns the read half).
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    // Validate the fixed part before trusting the length.
    if header.get(..4) != Some(&MAGIC[..]) {
        return Err(fatal(FrameError::BadMagic));
    }
    let payload_len = u32::from_le_bytes(field(&header, 13).map_err(fatal)?);
    if payload_len > MAX_PAYLOAD {
        return Err(fatal(FrameError::Oversized(payload_len)));
    }
    let mut rest = vec![0u8; payload_len as usize + TRAILER_LEN];
    r.read_exact(&mut rest)?;
    let mut whole = Vec::with_capacity(HEADER_LEN + rest.len());
    whole.extend_from_slice(&header);
    whole.extend_from_slice(&rest);
    match decode_frame(&whole) {
        Ok(Some((frame, consumed))) => {
            debug_assert_eq!(consumed, whole.len());
            Ok(frame)
        }
        // The buffer holds exactly header + declared payload + trailer,
        // so a "valid prefix" verdict cannot happen — but a decode path
        // reports that as corruption rather than panicking on it.
        Ok(None) => Err(fatal(FrameError::Truncated)),
        Err(e) => Err(fatal(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies() -> Vec<FrameBody> {
        vec![
            FrameBody::Hello {
                version: 2,
                space: 1 << 64,
            },
            FrameBody::HelloOk {
                version: 2,
                space: 1 << 64,
            },
            FrameBody::Error {
                message: "no such universe".into(),
            },
            FrameBody::LeaseReq {
                tenant: 7,
                count: 1 << 90,
            },
            FrameBody::LeaseResp {
                tenant: 7,
                granted: 57,
                arcs: vec![(100, 50), (4000, 7)],
                error: Some("exhausted".into()),
            },
            FrameBody::ResetReq { tenant: 3 },
            FrameBody::ResetResp { tenant: 3 },
            FrameBody::DrainReq,
            FrameBody::DrainResp,
            FrameBody::SummaryReq,
            FrameBody::SummaryResp(Summary {
                issued_ids: 12345,
                leases: 67,
                errors: 1,
                p50_ns: 1000.5,
                p99_ns: 3000.25,
                p999_ns: 4000.75,
                mean_ns: 1500.125,
                duplicate_ids: 11,
                flagged_records: 2,
                recorded_ids: 12345,
                recorded_arcs: 80,
                records: 70,
                max_lag_ns: 5555,
                mean_lag_ns: 1234.5,
                audit_threads: 3,
            }),
            FrameBody::ShutdownReq,
            FrameBody::HaltReq,
            FrameBody::MetricsReq,
            FrameBody::MetricsResp {
                text: "# TYPE uuidp_leases_total counter\nuuidp_leases_total 5\n".into(),
            },
            FrameBody::TimelineReq { corr: 99 },
            FrameBody::TimelineResp {
                text: "span corr=99\n  +0ns client-send tenant=7 lease\n".into(),
            },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips_exactly() {
        for (i, body) in bodies().into_iter().enumerate() {
            let corr = 1 + i as u64 * 7;
            let bytes = encode_frame(corr, &body);
            let (frame, used) = decode_frame(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", body.name()))
                .expect("complete frame");
            assert_eq!(used, bytes.len(), "{}", body.name());
            assert_eq!(frame.corr, corr);
            assert_eq!(frame.body, body);
            // Streamed form agrees with the buffer form.
            let mut cursor = std::io::Cursor::new(&bytes);
            assert_eq!(read_frame(&mut cursor).unwrap().body, frame.body);
        }
    }

    #[test]
    fn prefixes_ask_for_more_and_corruption_is_fatal() {
        let body = FrameBody::LeaseResp {
            tenant: 1,
            granted: 10,
            arcs: vec![(5, 10)],
            error: None,
        };
        let bytes = encode_frame(9, &body);
        for cut in 1..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes: {other:?}"),
            }
        }
        // Every single-byte flip is rejected (magic, kind, length,
        // payload, or checksum — never a silent wrong decode).
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x41;
            match decode_frame(&bad) {
                Err(_) => {}
                // A flipped length byte may just leave the frame
                // looking incomplete — also safe.
                Ok(None) if (13..17).contains(&at) => {}
                other => panic!("flip at {at} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let a = encode_frame(1, &FrameBody::DrainReq);
        let b = encode_frame(2, &FrameBody::ResetReq { tenant: 4 });
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let (f1, used) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(f1.corr, 1);
        let (f2, used2) = decode_frame(&buf[used..]).unwrap().unwrap();
        assert_eq!(f2.corr, 2);
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn text_bytes_are_rejected_as_bad_magic_immediately() {
        // The first-byte check: a text line must fail fast on its very
        // first byte, not wait for a full header.
        assert_eq!(decode_frame(b"l"), Err(FrameError::BadMagic));
        assert_eq!(decode_frame(b"lease 1 10\n"), Err(FrameError::BadMagic));
        // And a NUL lead byte is (so far) a valid v2 prefix.
        assert_eq!(decode_frame(&[0x00]), Ok(None));
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        let mut bytes = encode_frame(1, &FrameBody::DrainReq);
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized(_))
        ));
    }
}
