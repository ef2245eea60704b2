//! The canonical metric-family contract: names every live node must
//! expose.
//!
//! This list used to live in `uuidp-service`'s stress driver, with the
//! fleet runner importing it from there — an observability contract
//! owned by a test harness. It belongs next to the [`Registry`] that
//! implements it: the obs crate defines the names, service nodes
//! register them at bind time, and every consumer checks against this
//! one constant — a scrape through [`missing`] (the stress scrape
//! sidecar and the fleet runner), the source through `uuidp-lint`'s
//! `metrics-family` rule.
//!
//! [`Registry`]: crate::Registry

use crate::registry::Snapshot;

/// Metric families every scrape of a live service must expose — the
/// registry registers them all at service start, so their absence means
/// the export path is broken, not that the counter is still zero.
pub const REQUIRED: &[&str] = &[
    "uuidp_leases_total",
    "uuidp_ids_issued_total",
    "uuidp_lease_errors_total",
    "uuidp_audit_records_total",
    "uuidp_lease_latency_ns",
    "uuidp_net_wakeups_total",
    "uuidp_net_out_queue_bytes",
    "uuidp_net_severed_total",
];

/// The [`REQUIRED`] families `snap` lacks, in list order: empty for a
/// healthy scrape.
pub fn missing(snap: &Snapshot) -> Vec<&'static str> {
    REQUIRED
        .iter()
        .copied()
        .filter(|name| !snap.metrics.contains_key(*name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn required_names_are_well_formed() {
        for name in REQUIRED {
            assert!(name.starts_with("uuidp_"), "{name} lacks the uuidp_ prefix");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{name} is not snake_case"
            );
        }
        let mut sorted: Vec<_> = REQUIRED.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), REQUIRED.len(), "duplicate family in REQUIRED");
    }

    #[test]
    fn missing_names_exactly_the_unregistered_families() {
        let registry = Registry::new();
        assert_eq!(missing(&registry.snapshot()), REQUIRED);
        registry.counter("uuidp_leases_total");
        registry.histogram("uuidp_lease_latency_ns");
        registry.gauge("uuidp_net_out_queue_bytes");
        registry.counter("uuidp_unrelated_total");
        let rest = [
            "uuidp_ids_issued_total",
            "uuidp_lease_errors_total",
            "uuidp_audit_records_total",
            "uuidp_net_wakeups_total",
            "uuidp_net_severed_total",
        ];
        assert_eq!(missing(&registry.snapshot()), rest);
        // The typed reader keeps a histogram under its registered name,
        // so a scrape's text finds it too.
        let text = registry.snapshot().render_prometheus();
        assert_eq!(missing(&Snapshot::parse_prometheus(&text)), rest);
    }
}
