//! Protocol robustness, for both grammars the service parses:
//!
//! * the `uuidp serve` stdin REPL's command parser
//!   (`uuidp_service::protocol::Command`) must return typed errors,
//!   never panic, on arbitrary byte soup and on systematically garbled
//!   (truncated / bit-flipped) versions of every valid command line;
//! * the v2 `uuidp_client::frame` codec must round-trip every frame
//!   bit-exactly, report prefixes as incomplete, and reject byte soup,
//!   truncations, and bit flips with typed errors — never a panic and
//!   never a silent wrong decode.

use proptest::prelude::*;

use uuidp::client::frame::{
    decode_frame, encode_frame, read_frame, write_frame, FrameBody, VERSION,
};
use uuidp::client::{Client, ClientOptions, Summary};
use uuidp::core::id::IdSpace;
use uuidp::service::protocol::Command;

fn space() -> IdSpace {
    IdSpace::with_bits(20).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn arbitrary_byte_soup_never_panics_any_parser(
        bytes in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        // Lossy UTF-8 of raw bytes: control characters, invalid
        // sequences, whitespace, and digits all occur. The only
        // acceptable outcomes are `Ok`/`Err` — a panic fails the test
        // by unwinding.
        let raw: Vec<u8> = bytes.iter().flat_map(|w| w.to_le_bytes()).collect();
        let line = String::from_utf8_lossy(&raw);
        let _ = Command::parse(&line);
        // Also with the grammar's own keywords glued on.
        let _ = Command::parse(&format!("lease {line}"));
        let _ = Command::parse(&format!("reset {line}"));
        let _ = Command::parse(&format!("{line} 5"));
    }

    #[test]
    fn truncated_and_flipped_valid_lines_error_not_panic(
        tenant in any::<u64>(),
        count in any::<u128>(),
        cut_raw in any::<u64>(),
        flip_raw in any::<u64>(),
    ) {
        for line in [
            format!("lease {tenant} {count}"),
            format!("{tenant} {count}"),
            format!("reset {tenant}"),
            "metrics".to_string(),
        ] {
            prop_assert!(Command::parse(&line).unwrap().is_some(), "`{}` must parse", line);
            // Truncation at every fuzzed cut point (on a char boundary).
            let cut = (cut_raw as usize) % (line.len() + 1);
            let cut = (0..=cut).rev().find(|&c| line.is_char_boundary(c)).unwrap();
            let _ = Command::parse(&line[..cut]);
            // A one-byte corruption somewhere in the line.
            let mut garbled = line.clone().into_bytes();
            let at = (flip_raw as usize) % garbled.len();
            garbled[at] = garbled[at].wrapping_add(1 + (flip_raw % 96) as u8);
            let _ = Command::parse(&String::from_utf8_lossy(&garbled));
        }
    }
}

/// A v2 frame body built from fuzzed fields, cycling through the
/// request/response kinds that carry payloads.
fn fuzzed_body(pick: u64, tenant: u64, count: u128, arcs: &[(u128, u128)]) -> FrameBody {
    match pick % 8 {
        0 => FrameBody::LeaseReq { tenant, count },
        1 => FrameBody::LeaseResp {
            tenant,
            granted: count,
            arcs: arcs.to_vec(),
            error: tenant
                .is_multiple_of(2)
                .then(|| format!("exhausted after {count}")),
        },
        2 => FrameBody::ResetReq { tenant },
        3 => FrameBody::Error {
            message: format!("tenant {tenant} went missing"),
        },
        4 => FrameBody::Hello {
            version: 2,
            space: count,
        },
        5 => FrameBody::MetricsReq,
        6 => FrameBody::MetricsResp {
            // Multi-line Prometheus-ish text: exposition payloads are
            // free-form on the wire, so newlines and `#` comments must
            // survive the codec bit-exactly.
            text: format!(
                "# TYPE uuidp_leases_total counter\nuuidp_leases_total {tenant}\n\
                 uuidp_ids_issued_total {count}\n# EOF\n"
            ),
        },
        _ => FrameBody::SummaryResp(Summary {
            issued_ids: count,
            leases: tenant,
            errors: tenant / 3,
            p50_ns: count as f64 * 0.5,
            p99_ns: count as f64,
            p999_ns: count as f64 * 1.25,
            mean_ns: count as f64 * 0.75,
            duplicate_ids: count / 7,
            flagged_records: tenant / 5,
            recorded_ids: count,
            recorded_arcs: tenant,
            records: tenant,
            max_lag_ns: count,
            mean_lag_ns: count as f64 / 2.0,
            audit_threads: (tenant % 9) as usize,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn v2_frames_round_trip_bit_exactly(
        pick in any::<u64>(),
        corr in any::<u64>(),
        tenant in any::<u64>(),
        count in any::<u128>(),
        arcs in prop::collection::vec((any::<u128>(), any::<u128>()), 0..8),
    ) {
        let body = fuzzed_body(pick, tenant, count, &arcs);
        let bytes = encode_frame(corr, &body);
        let (frame, used) = decode_frame(&bytes)
            .expect("valid frame must decode")
            .expect("complete frame must not read as a prefix");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(frame.corr, corr);
        prop_assert_eq!(frame.body, body);
    }

    #[test]
    fn v2_decoder_survives_byte_soup_truncation_and_bit_flips(
        words in prop::collection::vec(any::<u64>(), 0..40),
        pick in any::<u64>(),
        corr in any::<u64>(),
        tenant in any::<u64>(),
        count in any::<u128>(),
        cut_raw in any::<u64>(),
        flip_raw in any::<u64>(),
    ) {
        // Raw soup: decode must return, never panic or over-allocate.
        let soup: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _ = decode_frame(&soup);
        // Soup glued behind a valid magic, too.
        let mut magicked = uuidp::client::frame::MAGIC.to_vec();
        magicked.extend_from_slice(&soup);
        let _ = decode_frame(&magicked);

        let bytes = encode_frame(corr, &fuzzed_body(pick, tenant, count, &[(count, tenant as u128)]));
        // Every truncation is "incomplete" or a typed error.
        let cut = (cut_raw as usize) % bytes.len();
        prop_assert!(
            !matches!(decode_frame(&bytes[..cut]), Ok(Some(_))),
            "a truncated frame decoded as complete"
        );
        // A bit flip anywhere must never yield the original frame as a
        // silent wrong decode: the checksum catches payload/header
        // damage, the magic check catches the prefix.
        let at = (flip_raw as usize) % bytes.len();
        let mut garbled = bytes.clone();
        garbled[at] ^= 1 << (flip_raw % 8) as u8;
        if garbled[at] != bytes[at] {
            match decode_frame(&garbled) {
                Err(_) | Ok(None) => {}
                Ok(Some(_)) => prop_assert!(false, "bit flip at {} accepted", at),
            }
        }
    }
}

/// A hostile v2 server for the live-connection property below: speaks a
/// valid handshake, serves `good` complete leases, then injects one
/// mid-stream fault and hangs up. Runs on its own thread; panics here
/// surface as test failures when the listener side misbehaves, but the
/// property under test is the *client's* behavior.
fn hostile_server(
    listener: std::net::TcpListener,
    good: u64,
    fault: u8,
    flip: u64,
) -> std::thread::JoinHandle<()> {
    use std::io::Write as _;
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let hello = read_frame(&mut conn).expect("client hello");
        let FrameBody::Hello { space: m, .. } = hello.body else {
            panic!("first frame must be a hello");
        };
        write_frame(
            &mut conn,
            hello.corr,
            &FrameBody::HelloOk {
                version: VERSION,
                space: m,
            },
        )
        .expect("hello-ok");
        let mut served = 0;
        loop {
            let req = match read_frame(&mut conn) {
                Ok(f) => f,
                Err(_) => return, // client gave up first — fine
            };
            let FrameBody::LeaseReq { tenant, count } = req.body else {
                return;
            };
            let body = FrameBody::LeaseResp {
                tenant,
                granted: count,
                arcs: vec![(0, count)],
                error: None,
            };
            if served < good {
                write_frame(&mut conn, req.corr, &body).expect("good lease");
                served += 1;
                continue;
            }
            // The adversarial move, in place of the awaited reply.
            match fault % 4 {
                0 => {
                    // Non-magic byte soup where a frame should start.
                    let _ = conn.write_all(&[0xDE; 64]);
                }
                1 => {
                    // A valid frame cut mid-payload, then EOF.
                    let bytes = encode_frame(req.corr, &body);
                    let _ = conn.write_all(&bytes[..bytes.len() / 2]);
                }
                2 => {
                    // A checksum-breaking bit flip inside the payload.
                    let mut bytes = encode_frame(req.corr, &body);
                    let at = 17 + (flip as usize) % (bytes.len() - 17 - 8);
                    bytes[at] ^= 1 << (flip % 8) as u8;
                    let _ = conn.write_all(&bytes);
                }
                _ => {} // plain EOF mid-request
            }
            return; // drop the connection
        }
    })
}

/// One case of the live-connection property: every pre-fault lease
/// arrives complete, the faulted request surfaces a typed error (never
/// a panic, never a partially-delivered lease), and every later request
/// fails fast instead of hanging. A plain fn so the `proptest!` body
/// stays within the macro's expansion budget.
fn live_adversary_case(good: u64, fault: u8, flip: u64, tenant: u64, count: u128) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = hostile_server(listener, good, fault, flip);
    let client = Client::connect_with(
        addr,
        space(),
        ClientOptions {
            // Bounds the worst case so a regression hangs the test run
            // for seconds, not forever.
            request_timeout: Some(std::time::Duration::from_secs(10)),
            ..ClientOptions::default()
        },
    )
    .expect("handshake is served cleanly");
    for _ in 0..good {
        let lease = client
            .lease(tenant, count)
            .expect("pre-fault leases are clean");
        assert_eq!(lease.granted, count);
        assert_eq!(lease.arcs.iter().map(|a| a.len).sum::<u128>(), count);
        assert!(lease.error.is_none());
    }
    // The faulted request: an error, never a partial lease.
    let hit = client.lease(tenant, count);
    assert!(hit.is_err(), "mid-stream fault delivered a lease: {hit:?}");
    // The connection is dead; later requests fail fast, not hang.
    let start = std::time::Instant::now();
    assert!(client.lease(tenant, count).is_err());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "post-fault request should fail fast"
    );
    server.join().expect("hostile server exits cleanly");
}

proptest! {
    // Each case stands up a real TCP pair; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Mid-stream adversarial sequences on a LIVE connection.
    #[test]
    fn live_v2_connection_survives_midstream_adversaries(
        good in 0u64..3,
        fault in 0u8..4,
        flip in any::<u64>(),
        tenant in any::<u64>(),
        count in 1u128..512,
    ) {
        live_adversary_case(good, fault, flip, tenant, count);
    }
}

/// The classic attack lines, pinned explicitly (no randomness).
#[test]
fn hostile_classics_get_typed_errors() {
    for line in [
        "lease",                              // missing fields
        "lease 1",                            // still missing
        "lease 99999999999999999999999999 5", // u64 overflow
        "reset -3",                           // sign
        "lease tenant=1 granted=x arcs=",     // a reply line fed back in
        "lease 1 5 6",                        // trailing count
        "7 -5",                               // negative count
        "bye issued=1 leases=2",              // unknown verb
        "shutdown now please",                // trailing junk
    ] {
        assert!(
            Command::parse(line).is_err(),
            "`{line}` should fail the command parser"
        );
    }
}
