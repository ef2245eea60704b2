//! The fault schedule: a pure function from `(spec, seed, conn#)` to a
//! per-connection plan.
//!
//! Nothing here touches a socket or a clock. That is the whole point:
//! two proxies built from the same seed and spec produce bit-identical
//! plans for every connection index, no matter how the runs are timed,
//! which is what makes a chaos regression replayable. The proxy
//! ([`crate::ChaosProxy`]) merely *executes* plans; tests pin the
//! schedule itself via [`schedule_fingerprint`].

use uuidp_core::codec::fnv1a;
use uuidp_core::rng::{uniform_below, SeedDomain, SeedTree, Xoshiro256pp};

use crate::{ChaosSpec, FaultCounts};

/// The at-most-one mid-stream fault a connection draws.
///
/// Every variant triggers at an exact byte offset (or frame index) in
/// one direction, so the damage is identical across reruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Cut the client→server stream once `offset` request bytes have
    /// been forwarded, then sever. The server sees a torn frame and
    /// discards it: the in-flight request was provably never processed
    /// (retry-safe).
    DropRequestAt {
        /// Request-direction byte offset of the cut.
        offset: u64,
    },
    /// Forward only the first `offset` server→client bytes, then
    /// sever. The request *was* processed; its reply is lost mid-frame
    /// (lease-in-doubt).
    TruncateReplyAt {
        /// Reply-direction byte offset of the cut.
        offset: u64,
    },
    /// XOR `mask` into the reply byte at `offset` and keep forwarding.
    /// The frame checksum no longer matches: the client gets a typed
    /// connection-fatal error (lease-in-doubt).
    CorruptReplyAt {
        /// Reply-direction byte offset of the flip.
        offset: u64,
        /// Nonzero XOR mask.
        mask: u8,
    },
    /// Flip a payload byte inside reply frame number `frame` and
    /// re-seal the frame with a recomputed FNV-1a. Undetectable by the
    /// transport — the client decodes a *wrong* frame cleanly. This is
    /// the fault class only the audit can catch; test-only.
    CorruptReplyFrame {
        /// Zero-based reply frame index to damage.
        frame: u64,
        /// Which payload byte to flip (taken modulo the payload size).
        byte: u64,
        /// Nonzero XOR mask.
        mask: u8,
    },
}

/// Everything the proxy will do to one connection, decided before its
/// first byte moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnPlan {
    /// The connection index this plan was derived for.
    pub conn: u64,
    /// Accept-then-close without ever dialing upstream.
    pub refuse: bool,
    /// Sleep this long before each direction's first forward.
    pub latency_ns: u64,
    /// Max bytes forwarded per write (`u32::MAX` = unthrottled).
    pub chunk: u32,
    /// The mid-stream fault, if this connection drew one.
    pub fault: Option<Fault>,
}

impl ConnPlan {
    /// The do-nothing plan (used for passthrough-mode connections).
    pub fn passthrough(conn: u64) -> ConnPlan {
        ConnPlan {
            conn,
            refuse: false,
            latency_ns: 0,
            chunk: u32::MAX,
            fault: None,
        }
    }

    /// Derives connection `conn`'s plan — a pure function of the
    /// arguments, independent of timing and of every other connection.
    pub fn derive(spec: &ChaosSpec, seed: u64, conn: u64) -> ConnPlan {
        if spec.is_passthrough() {
            return ConnPlan::passthrough(conn);
        }
        // One independent, well-mixed stream per connection index.
        let mut rng = SeedTree::new(seed).trial(conn).rng(SeedDomain::Aux(0));
        let roll = |rng: &mut Xoshiro256pp| uniform_below(rng, 1000) as u16;

        let refuse = roll(&mut rng) < spec.refuse_per_mille;
        let jitter_ns = if spec.jitter_us == 0 {
            0
        } else {
            uniform_below(&mut rng, spec.jitter_us as u128 * 1000) as u64
        };
        let latency_ns = spec
            .latency_us
            .saturating_mul(1000)
            .saturating_add(jitter_ns);
        let chunk = if spec.throttle == 0 {
            u32::MAX
        } else {
            spec.throttle.max(1)
        };

        // A single draw against the cumulative per-mille bands picks at
        // most one mid-stream fault.
        let band = roll(&mut rng);
        let drop_hi = spec.drop_per_mille;
        let trunc_hi = drop_hi + spec.trunc_per_mille;
        let corrupt_hi = trunc_hi + spec.corrupt_per_mille;
        let fix_hi = corrupt_hi + spec.fix_per_mille;
        // Offsets land within the first few requests/replies of the
        // connection (v2 frames are tens of bytes), so faults actually
        // fire on short-lived connections too.
        let offset = |rng: &mut Xoshiro256pp| 1 + uniform_below(rng, 2048) as u64;
        let mask = |rng: &mut Xoshiro256pp| 1u8 << uniform_below(rng, 8) as u8;
        let fault = if band < drop_hi {
            Some(Fault::DropRequestAt {
                offset: offset(&mut rng),
            })
        } else if band < trunc_hi {
            Some(Fault::TruncateReplyAt {
                offset: offset(&mut rng),
            })
        } else if band < corrupt_hi {
            Some(Fault::CorruptReplyAt {
                offset: offset(&mut rng),
                mask: mask(&mut rng),
            })
        } else if band < fix_hi {
            Some(Fault::CorruptReplyFrame {
                // Skip frame 0 (the HelloOk): a silently wrong lease is
                // the interesting case, a broken handshake is not.
                frame: 1 + uniform_below(&mut rng, 8) as u64,
                byte: uniform_below(&mut rng, 1 << 16) as u64,
                mask: mask(&mut rng),
            })
        } else {
            None
        };

        ConnPlan {
            conn,
            refuse,
            latency_ns,
            chunk,
            fault,
        }
    }

    fn fingerprint_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.conn.to_le_bytes());
        out.push(self.refuse as u8);
        out.extend_from_slice(&self.latency_ns.to_le_bytes());
        out.extend_from_slice(&self.chunk.to_le_bytes());
        match self.fault {
            None => out.push(0),
            Some(Fault::DropRequestAt { offset }) => {
                out.push(1);
                out.extend_from_slice(&offset.to_le_bytes());
            }
            Some(Fault::TruncateReplyAt { offset }) => {
                out.push(2);
                out.extend_from_slice(&offset.to_le_bytes());
            }
            Some(Fault::CorruptReplyAt { offset, mask }) => {
                out.push(3);
                out.extend_from_slice(&offset.to_le_bytes());
                out.push(mask);
            }
            Some(Fault::CorruptReplyFrame { frame, byte, mask }) => {
                out.push(4);
                out.extend_from_slice(&frame.to_le_bytes());
                out.extend_from_slice(&byte.to_le_bytes());
                out.push(mask);
            }
        }
    }
}

/// FNV-1a over the first `conns` connection plans — the replayability
/// pin: equal seeds and specs hash equal, anything else diverges.
pub fn schedule_fingerprint(spec: &ChaosSpec, seed: u64, conns: u64) -> u64 {
    let mut bytes = Vec::with_capacity(conns as usize * 32);
    for conn in 0..conns {
        ConnPlan::derive(spec, seed, conn).fingerprint_bytes(&mut bytes);
    }
    fnv1a(&bytes)
}

/// Connection plans a [`ChaosReport`]'s fingerprint covers: a fixed
/// count rather than however many connections a run happened to make,
/// so the pin is a pure function of `(spec, seed)` and two runs of one
/// seed print the same fingerprint even when retry timing differs.
pub const FINGERPRINT_CONNS: u64 = 64;

/// What a chaos run did to the wire, stamped into its report.
#[derive(Debug, Clone, Copy)]
pub struct ChaosReport {
    /// The fault intensities every proxy was built from.
    pub spec: ChaosSpec,
    /// The seed the schedules (and retry jitter) were derived from.
    pub seed: u64,
    /// The schedule pin: [`schedule_fingerprint`] over the first
    /// [`FINGERPRINT_CONNS`] plans (a fleet folds its per-node pins with
    /// FNV-1a), so every same-seed rerun prints the same value.
    pub fingerprint: u64,
    /// What the proxies actually injected, summed.
    pub injected: FaultCounts,
}

impl ChaosReport {
    /// The report's `chaos:` and `injected:` lines, each label padded to
    /// `width` columns to line up with the report around it.
    pub fn render(&self, width: usize) -> String {
        let i = &self.injected;
        format!(
            "{:<width$}spec `{}`, seed {}, schedule fingerprint {:016x}\n  {:<width$}\
             {} conns: {} refused, {} req-drops, {} reply-truncs, {} reply-corrupts, \
             {} resealed, {} upstream-failures\n",
            "chaos:",
            self.spec,
            self.seed,
            self.fingerprint,
            "injected:",
            i.connections,
            i.refused,
            i.dropped_requests,
            i.truncated_replies,
            i.corrupted_replies,
            i.resealed_replies,
            i.upstream_failures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_seed_and_index() {
        let spec = ChaosSpec::heavy();
        for conn in 0..64 {
            assert_eq!(
                ConnPlan::derive(&spec, 0xC4A0, conn),
                ConnPlan::derive(&spec, 0xC4A0, conn),
                "conn {conn}"
            );
        }
        assert_eq!(
            schedule_fingerprint(&spec, 0xC4A0, 256),
            schedule_fingerprint(&spec, 0xC4A0, 256)
        );
        assert_ne!(
            schedule_fingerprint(&spec, 0xC4A0, 256),
            schedule_fingerprint(&spec, 0xC4A1, 256),
            "different seeds must schedule differently"
        );
        assert_ne!(
            schedule_fingerprint(&ChaosSpec::small(), 0xC4A0, 256),
            schedule_fingerprint(&spec, 0xC4A0, 256),
            "different specs must schedule differently"
        );
    }

    #[test]
    fn passthrough_spec_never_schedules_a_fault() {
        for conn in 0..128 {
            let plan = ConnPlan::derive(&ChaosSpec::none(), 7, conn);
            assert_eq!(plan, ConnPlan::passthrough(conn));
        }
    }

    #[test]
    fn heavy_spec_actually_exercises_every_fault_class() {
        let spec = ChaosSpec {
            fix_per_mille: 50,
            ..ChaosSpec::heavy()
        };
        let (mut refused, mut drops, mut truncs, mut corrupts, mut fixes) = (0, 0, 0, 0, 0);
        for conn in 0..2000 {
            let plan = ConnPlan::derive(&spec, 99, conn);
            refused += plan.refuse as u32;
            match plan.fault {
                Some(Fault::DropRequestAt { offset }) => {
                    assert!(offset >= 1);
                    drops += 1;
                }
                Some(Fault::TruncateReplyAt { .. }) => truncs += 1,
                Some(Fault::CorruptReplyAt { mask, .. }) => {
                    assert_ne!(mask, 0);
                    corrupts += 1;
                }
                Some(Fault::CorruptReplyFrame { frame, mask, .. }) => {
                    assert!(frame >= 1, "the handshake frame is never re-sealed");
                    assert_ne!(mask, 0);
                    fixes += 1;
                }
                None => {}
            }
        }
        for (name, n) in [
            ("refuse", refused),
            ("drop", drops),
            ("trunc", truncs),
            ("corrupt", corrupts),
            ("fix", fixes),
        ] {
            assert!(n > 0, "{name} never drawn in 2000 plans");
        }
    }
}
