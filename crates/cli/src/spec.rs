//! Parsing of algorithm specifications and ID formatting for the CLI.
//!
//! Algorithm specs are compact strings:
//!
//! | Spec | Algorithm |
//! |------|-----------|
//! | `random` | Random |
//! | `cluster` | Cluster |
//! | `bins:K` | Bins(K) |
//! | `cluster*` / `cluster-star` | Cluster★ |
//! | `cluster*:G` | Cluster★ with run growth ×G |
//! | `bins*` / `bins-star` | Bins★ (paper chunk formula) |
//! | `bins*:maxfit` | Bins★ (max-fit chunks) |
//! | `session:S,C` | SessionCounter with S session bits, C counter bits |
//!
//! [`parse_algorithm_kind`] is the one parser: it reads a spec into an
//! [`AlgorithmKind`] once and checks it against the universe with
//! [`AlgorithmKind::check`], so every command builds a checked kind and
//! a bad spec is a [`ParseError`], never a constructor's panic.

use std::fmt;

use uuidp_core::algorithms::AlgorithmKind;
use uuidp_core::id::{Id, IdSpace};

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses an algorithm spec into the [`AlgorithmKind`] it names and
/// checks its parameters against `space`.
pub fn parse_algorithm_kind(spec: &str, space: IdSpace) -> Result<AlgorithmKind, ParseError> {
    let lower = spec.to_ascii_lowercase();
    let (head, arg) = match lower.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (lower.as_str(), None),
    };
    let kind = match (head, arg) {
        ("random", None) => AlgorithmKind::Random,
        ("cluster", None) => AlgorithmKind::Cluster,
        ("bins", Some(k)) => AlgorithmKind::Bins {
            k: number(k, "bin size", spec)?,
        },
        ("bins", None) => return Err(ParseError("bins needs a size: bins:K".into())),
        ("cluster*" | "cluster-star", None) => AlgorithmKind::ClusterStar,
        ("cluster*" | "cluster-star", Some(g)) => AlgorithmKind::ClusterStarGrowth {
            growth: number(g, "growth factor", spec)?,
        },
        ("bins*" | "bins-star", None) => AlgorithmKind::BinsStar,
        ("bins*" | "bins-star", Some("maxfit")) => AlgorithmKind::BinsStarMaxFit,
        ("bins*" | "bins-star", Some(other)) => {
            return Err(ParseError(format!("unknown bins* variant `{other}`")))
        }
        ("session", Some(sc)) => {
            let (s, c) = sc
                .split_once(',')
                .ok_or_else(|| ParseError("session needs S,C bit counts".into()))?;
            AlgorithmKind::SessionCounter {
                session_bits: number(s, "session bits", spec)?,
                counter_bits: number(c, "counter bits", spec)?,
            }
        }
        _ => {
            return Err(ParseError(format!(
                "unknown algorithm `{spec}` (try random, cluster, bins:K, cluster*, bins*, session:S,C)"
            )))
        }
    };
    kind.check(space).map_err(ParseError)?;
    Ok(kind)
}

/// Parses the number `text`, a `what` in `spec`.
fn number<T: std::str::FromStr>(text: &str, what: &str, spec: &str) -> Result<T, ParseError> {
    text.parse()
        .map_err(|_| ParseError(format!("bad {what} in `{spec}`")))
}

/// Output encodings for generated IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdFormat {
    /// Decimal.
    #[default]
    Dec,
    /// `0x`-prefixed hexadecimal, zero-padded to the universe width.
    Hex,
    /// RFC 4122 presentation (8-4-4-4-12 hex groups of the low 128 bits).
    Uuid,
}

impl IdFormat {
    /// Parses `dec`, `hex`, or `uuid`.
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        match s.to_ascii_lowercase().as_str() {
            "dec" => Ok(IdFormat::Dec),
            "hex" => Ok(IdFormat::Hex),
            "uuid" => Ok(IdFormat::Uuid),
            other => Err(ParseError(format!("unknown format `{other}`"))),
        }
    }

    /// Renders `id` drawn from `space`.
    pub fn render(self, id: Id, space: IdSpace) -> String {
        match self {
            IdFormat::Dec => id.value().to_string(),
            IdFormat::Hex => {
                let nibbles = (space.log2_ceil() as usize).div_ceil(4).max(1);
                format!("{:#0width$x}", id.value(), width = nibbles + 2)
            }
            IdFormat::Uuid => {
                let v = id.value();
                format!(
                    "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
                    (v >> 96) as u32,
                    (v >> 80) as u16,
                    (v >> 64) as u16,
                    (v >> 48) as u16,
                    v & 0xFFFF_FFFF_FFFF
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uuidp_core::interval::IntervalSet;

    fn space() -> IdSpace {
        IdSpace::with_bits(24).unwrap()
    }

    #[test]
    fn parses_the_whole_menu() {
        use AlgorithmKind::*;
        for (spec, kind) in [
            ("random", Random),
            ("cluster", Cluster),
            ("bins:64", Bins { k: 64 }),
            ("cluster*", ClusterStar),
            ("cluster-star", ClusterStar),
            ("cluster*:4", ClusterStarGrowth { growth: 4 }),
            ("cluster-star:8", ClusterStarGrowth { growth: 8 }),
            ("bins*", BinsStar),
            ("bins-star", BinsStar),
            ("bins*:maxfit", BinsStarMaxFit),
            (
                "session:14,10",
                SessionCounter {
                    session_bits: 14,
                    counter_bits: 10,
                },
            ),
        ] {
            assert_eq!(parse_algorithm_kind(spec, space()), Ok(kind), "{spec}");
        }
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let err = parse_algorithm_kind("bogus", space()).unwrap_err();
        assert!(err.0.contains("unknown algorithm"));
        let err = parse_algorithm_kind("bins:0", space()).unwrap_err();
        assert!(err.0.contains("out of range"));
        let err = parse_algorithm_kind("bins", space()).unwrap_err();
        assert!(err.0.contains("bins:K"));
        let err = parse_algorithm_kind("session:14,12", space()).unwrap_err();
        assert!(err.0.contains("implies m"));
        let err = parse_algorithm_kind("session:4294967295,1", space()).unwrap_err();
        assert!(err.0.contains("exceeds 127 bits"), "{err}");
        let err = parse_algorithm_kind("cluster*:1", space()).unwrap_err();
        assert!(err.0.contains("at least 2"));
    }

    #[test]
    fn registry_specs_round_trip_through_algorithm_kind() {
        // Every servable spec parses to a registry entry whose factory
        // carries the spec's name, so `uuidp serve`/`stress` can select
        // every ablation, growth included.
        for (spec, name) in [
            ("random", "random"),
            ("cluster", "cluster"),
            ("bins:64", "bins(64)"),
            ("cluster*", "cluster*"),
            ("cluster*:2", "cluster*"),
            ("cluster*:4", "cluster*(x4)"),
            ("cluster-star:8", "cluster*(x8)"),
            ("bins*", "bins*"),
            ("bins*:maxfit", "bins*"),
        ] {
            let kind = parse_algorithm_kind(spec, space()).unwrap();
            assert_eq!(kind.build(space()).name(), name, "{spec}");
        }
    }

    #[test]
    fn names_round_trip_sensibly() {
        let alg = parse_algorithm_kind("bins:64", space())
            .unwrap()
            .build(space());
        assert_eq!(alg.name(), "bins(64)");
        let alg = parse_algorithm_kind("cluster*:4", space())
            .unwrap()
            .build(space());
        assert_eq!(alg.name(), "cluster*(x4)");
    }

    /// Leases 64 IDs for each of tenants 0..3 from a durable service
    /// running `spec` over `dir`, and returns them.
    fn durable_run(spec: &str, dir: &std::path::Path) -> IntervalSet {
        use uuidp_service::service::{DurabilityConfig, IdService, ServiceConfig};
        let space = IdSpace::with_bits(48).unwrap();
        let mut config = ServiceConfig::new(parse_algorithm_kind(spec, space).unwrap(), space);
        config.durability = Some(DurabilityConfig::new(dir));
        let service = IdService::start(config);
        let mut issued = IntervalSet::new(space);
        for tenant in 0..3 {
            let reply = service.lease(tenant, 64);
            assert_eq!((reply.granted, reply.error), (64, None), "{spec}");
            reply.arcs.iter().for_each(|&arc| issued.insert(arc));
        }
        drop(service.shutdown());
        issued
    }

    #[test]
    fn spec_table_parses_builds_reboots_and_refuses() {
        use crate::commands::{fleet, generate, stress, FleetOpts, GenerateOpts, StressOpts};
        // The specs of the table above and of `uuidp --help`; every
        // one is snapshot-capable.
        const SPECS: [&str; 11] = [
            "random",
            "cluster",
            "bins:16",
            "cluster*",
            "cluster-star",
            "cluster*:2",
            "cluster*:3",
            "bins*",
            "bins-star",
            "bins*:maxfit",
            "session:40,8",
        ];
        let space = IdSpace::with_bits(48).unwrap();
        let dir = |tag: &str| {
            let dir =
                std::env::temp_dir().join(format!("uuidp-spec-table-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        for spec in SPECS {
            let alg = parse_algorithm_kind(spec, space).unwrap().build(space);
            assert!(alg.spawn(1).next_id().is_ok(), "{spec}");
            // A second boot with the same spec recovers the state dir
            // and continues past everything the first one issued.
            let dir = dir(spec);
            let first = durable_run(spec, &dir);
            let second = durable_run(spec, &dir);
            assert!(
                !first.intersects_set(&second),
                "{spec} re-issued after reboot"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Cluster★ with growth 2 is Cluster★: either spelling boots the
        // other's state dir.
        for (writer, reader) in [("cluster*:2", "cluster*"), ("cluster*", "cluster*:2")] {
            let dir = dir("growth-2");
            let first = durable_run(writer, &dir);
            assert!(
                !first.intersects_set(&durable_run(reader, &dir)),
                "{writer} → {reader}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The two Bins★ chunk rules are different kinds.
        let bins_star = dir("bins-star-rules");
        durable_run("bins*", &bins_star);
        let boot = std::panic::catch_unwind(|| durable_run("bins*:maxfit", &bins_star));
        let message = boot
            .err()
            .and_then(|panic| panic.downcast::<String>().ok())
            .expect("a bins* state dir must refuse a bins*:maxfit boot");
        assert!(
            message.contains("incompatible with configured"),
            "{message}"
        );
        let _ = std::fs::remove_dir_all(&bins_star);

        // Each malformed spec is a ParseError from every command that
        // takes one, before anything runs.
        for (spec, bits) in [
            ("session:0,8", 8),
            ("session:8,0", 8),
            ("session:100,100", 8),
            ("bins*", 0),
            ("session:0,48", 48),
            ("session:48,0", 48),
            ("session:4294967295,1", 48),
            ("bins:0", 48),
            ("cluster*:1", 48),
            ("bins*:foo", 48),
            ("bins", 48),
            ("session:8", 48),
        ] {
            let generated = generate(&GenerateOpts {
                algorithm: spec.into(),
                bits,
                count: 1,
                seed: Some(1),
                format: IdFormat::Dec,
            });
            let stressed = stress(&StressOpts {
                bits,
                ..StressOpts::trials_small(spec)
            });
            let fleeted = fleet(&FleetOpts {
                bits,
                ..FleetOpts::trials_small(spec)
            });
            let expected = parse_algorithm_kind(spec, IdSpace::with_bits(bits).unwrap());
            assert!(expected.is_err(), "{spec} over 2^{bits} parsed");
            for (command, result) in [
                ("generate", generated),
                ("stress", stressed),
                ("fleet", fleeted),
            ] {
                assert_eq!(
                    result.err(),
                    expected.clone().err(),
                    "{command} {spec} over 2^{bits}"
                );
            }
        }
    }

    #[test]
    fn id_formats() {
        let s = IdSpace::with_bits(16).unwrap();
        assert_eq!(IdFormat::Dec.render(Id(255), s), "255");
        assert_eq!(IdFormat::Hex.render(Id(255), s), "0x00ff");
        let s128 = IdSpace::with_bits(127).unwrap();
        let rendered = IdFormat::Uuid.render(Id(0x1234_5678_9abc_def0_1122_3344_5566_7788), s128);
        assert_eq!(rendered, "12345678-9abc-def0-1122-334455667788");
    }

    #[test]
    fn format_parse() {
        assert_eq!(IdFormat::parse("HEX").unwrap(), IdFormat::Hex);
        assert!(IdFormat::parse("base64").is_err());
    }
}
