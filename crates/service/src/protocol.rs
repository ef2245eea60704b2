//! The `uuidp serve` stdin REPL grammar: one command per line in, one
//! reply line per command out, UTF-8, newline-framed. Over TCP the
//! service speaks only protocol v2 (`uuidp_client::frame`); this text
//! grammar survives as the local console, so everything here is pure
//! parse/render code for that loop, plus [`wire_summary`], the one
//! projection of a [`ServiceReport`] onto the v2 summary frame.
//!
//! ## Commands
//!
//! | Line | Meaning | Reply |
//! |------|---------|-------|
//! | `<tenant> <count>` or `lease <tenant> <count>` | lease `count` IDs for `tenant` | `lease tenant=T granted=G arcs=S+L,S+L[ error=E]` |
//! | `reset <tenant>` | recycle the tenant's generator into a new epoch | `reset tenant=T` |
//! | `drain` | block until all prior requests are processed | `drained` |
//! | `metrics` | scrape the registry (Prometheus text exposition) | multi-line exposition, terminated by `# EOF` |
//! | `quit` / `exit` / `shutdown` | stop the service (EOF works too) | the shutdown summary block |
//!
//! Malformed lines get `error: <message>` and the loop keeps reading.
//! Lease arcs are rendered `start+len` in emission order, comma-joined
//! (empty after `arcs=` when nothing was granted).

use std::fmt::Write as _;

use crate::service::{LeaseReply, ServiceReport};

/// A parsed protocol command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Lease `count` IDs for `tenant`.
    Lease {
        /// Requesting tenant.
        tenant: u64,
        /// IDs requested.
        count: u128,
    },
    /// Recycle `tenant`'s generator into a fresh epoch.
    Reset {
        /// Tenant to recycle.
        tenant: u64,
    },
    /// Block until every previously submitted request is processed.
    Drain,
    /// Scrape the metric registry: the reply is a multi-line
    /// Prometheus-style text exposition terminated by a `# EOF` line
    /// (the only multi-line reply in the grammar, so the sentinel is
    /// what lets a line-at-a-time reader find the end).
    Metrics,
    /// Stop reading commands (`quit` / `exit`).
    Quit,
    /// Stop the whole service.
    Shutdown,
}

impl Command {
    /// Parses one protocol line. `Ok(None)` is a blank line (no reply
    /// expected); `Err` carries the message for an `error:` reply.
    pub fn parse(line: &str) -> Result<Option<Command>, String> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [] => Ok(None),
            ["quit" | "exit"] => Ok(Some(Command::Quit)),
            ["shutdown"] => Ok(Some(Command::Shutdown)),
            ["drain"] => Ok(Some(Command::Drain)),
            ["metrics"] => Ok(Some(Command::Metrics)),
            ["reset", tenant] => match tenant.parse::<u64>() {
                Ok(tenant) => Ok(Some(Command::Reset { tenant })),
                Err(_) => Err(format!("bad tenant `{tenant}`")),
            },
            ["lease", tenant, count] | [tenant, count] => {
                match (tenant.parse::<u64>(), count.parse::<u128>()) {
                    (Ok(tenant), Ok(count)) => Ok(Some(Command::Lease { tenant, count })),
                    _ => Err("expected `<tenant> <count>`".into()),
                }
            }
            _ => Err(
                "expected `[lease] <tenant> <count>` | `reset <tenant>` | `drain` | `metrics` | `quit` | `shutdown`"
                    .into(),
            ),
        }
    }
}

/// Renders the reply line for a served lease.
pub fn render_lease(reply: &LeaseReply) -> String {
    let mut out = format!(
        "lease tenant={} granted={} arcs=",
        reply.tenant, reply.granted
    );
    for (i, a) in reply.arcs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}+{}", a.start.value(), a.len);
    }
    if let Some(e) = &reply.error {
        let _ = write!(out, " error={e}");
    }
    out
}

/// Projects a [`ServiceReport`] onto the v2 summary frame's aggregate
/// totals — the one place the numbers are chosen, so the live summary
/// and the shutdown summary can never disagree about the same run.
/// Per-thread audit detail stays server-side.
pub fn wire_summary(report: &ServiceReport) -> uuidp_client::Summary {
    uuidp_client::Summary {
        issued_ids: report.issued_ids,
        leases: report.leases,
        errors: report.errors,
        p50_ns: report.latency.quantile_ns(0.50),
        p99_ns: report.latency.quantile_ns(0.99),
        p999_ns: report.latency.quantile_ns(0.999),
        mean_ns: report.latency.mean_ns(),
        duplicate_ids: report.audit.counts.duplicate_ids,
        flagged_records: report.audit.counts.flagged_records,
        recorded_ids: report.audit.counts.recorded_ids,
        recorded_arcs: report.audit.counts.recorded_arcs,
        records: report.audit.records,
        max_lag_ns: report.audit.max_lag.as_nanos(),
        mean_lag_ns: report.audit.mean_lag_ns,
        audit_threads: report.audit.per_thread.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AuditReport;
    use std::time::Duration;
    use uuidp_client::frame::{decode_frame, encode_frame, FrameBody};
    use uuidp_core::id::{Id, IdSpace};
    use uuidp_core::interval::Arc;
    use uuidp_obs::Histogram;
    use uuidp_sim::audit::AuditCounts;

    #[test]
    fn commands_parse_the_whole_grammar() {
        assert_eq!(Command::parse("  ").unwrap(), None);
        assert_eq!(
            Command::parse("7 100").unwrap(),
            Some(Command::Lease {
                tenant: 7,
                count: 100
            })
        );
        assert_eq!(
            Command::parse("lease 7 100").unwrap(),
            Some(Command::Lease {
                tenant: 7,
                count: 100
            })
        );
        assert_eq!(
            Command::parse("reset 3").unwrap(),
            Some(Command::Reset { tenant: 3 })
        );
        assert_eq!(Command::parse("drain").unwrap(), Some(Command::Drain));
        assert_eq!(Command::parse("metrics").unwrap(), Some(Command::Metrics));
        assert_eq!(Command::parse("quit").unwrap(), Some(Command::Quit));
        assert_eq!(Command::parse("exit").unwrap(), Some(Command::Quit));
        assert_eq!(Command::parse("shutdown").unwrap(), Some(Command::Shutdown));
        assert!(Command::parse("reset x").is_err());
        assert!(Command::parse("a b").is_err());
        assert!(Command::parse("one two three four").is_err());
    }

    #[test]
    fn lease_lines_round_trip() {
        // Every granted arc reads back out of the line, in emission
        // order, as `start+len`.
        let s = IdSpace::with_bits(32).unwrap();
        let reply = LeaseReply {
            tenant: 9,
            arcs: vec![Arc::new(s, Id(4000), 7), Arc::new(s, Id(100), 50)],
            granted: 57,
            error: None,
            halted: false,
        };
        let line = render_lease(&reply);
        assert_eq!(line, "lease tenant=9 granted=57 arcs=4000+7,100+50");
        let (_, arcs) = line.split_once("arcs=").unwrap();
        let read_back: Vec<(u128, u128)> = arcs
            .split(',')
            .map(|arc| {
                let (start, len) = arc.split_once('+').unwrap();
                (start.parse().unwrap(), len.parse().unwrap())
            })
            .collect();
        let granted: Vec<(u128, u128)> = reply
            .arcs
            .iter()
            .map(|a| (a.start.value(), a.len))
            .collect();
        assert_eq!(read_back, granted);
    }

    #[test]
    fn lease_lines_carry_errors_and_empty_arcs() {
        let reply = LeaseReply {
            tenant: 1,
            arcs: vec![],
            granted: 0,
            error: Some(uuidp_core::traits::GeneratorError::Exhausted { generated: 16 }),
            halted: false,
        };
        let line = render_lease(&reply);
        assert!(
            line.starts_with("lease tenant=1 granted=0 arcs= error="),
            "{line}"
        );
    }

    #[test]
    fn summaries_round_trip() {
        // The projection picks the report's totals, and they cross the
        // v2 summary frame bit-exactly.
        let mut latency = Histogram::new();
        latency.record_ns(1000);
        latency.record_ns(3000);
        let report = ServiceReport {
            issued_ids: 12345,
            leases: 67,
            errors: 1,
            latency,
            audit: AuditReport {
                counts: AuditCounts {
                    duplicate_ids: 11,
                    flagged_records: 2,
                    recorded_ids: 12345,
                    recorded_arcs: 80,
                },
                max_lag: Duration::from_nanos(5555),
                mean_lag_ns: 1234.5,
                records: 70,
                per_thread: vec![],
            },
            uptime: Duration::from_secs(1),
        };
        let summary = wire_summary(&report);
        let bytes = encode_frame(1, &FrameBody::SummaryResp(summary));
        let Some((frame, _)) = decode_frame(&bytes).unwrap() else {
            panic!("a whole frame must decode");
        };
        let FrameBody::SummaryResp(wire) = frame.body else {
            panic!("expected a summary frame");
        };
        assert_eq!(wire, summary);
        assert_eq!(wire.issued_ids, 12345);
        assert_eq!(wire.leases, 67);
        assert_eq!(wire.errors, 1);
        assert_eq!(wire.duplicate_ids, 11);
        assert_eq!(wire.flagged_records, 2);
        assert_eq!(wire.recorded_arcs, 80);
        assert_eq!(wire.records, 70);
        assert_eq!(wire.max_lag_ns, 5555);
        assert!((wire.mean_lag_ns - 1234.5).abs() < 0.1);
        assert!(wire.p99_ns >= wire.p50_ns);
    }
}
