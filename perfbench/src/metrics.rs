//! The metrics the benchmark prints, as `BENCHMARK.json` declares them.
//!
//! End-to-end metrics come from untraced runs; per-layer metrics from
//! traced runs. Each per-layer row names the end-to-end metric it should
//! move and the workload it should move it on; on every other workload
//! the prediction is no change.

/// `(name, unit)` of every end-to-end metric. An *op* is one lease on
/// the lease workloads and one trial on `montecarlo_oblivious`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("ids_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("completed_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// One per-layer metric and its prediction.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metrics it should move.
    pub should_move: &'static str,
    /// The workloads it should move them on.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    should_move: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        should_move,
        on,
    }
}

/// Every per-layer metric, in print order.
pub const PER_LAYER: &[Layer] = &[
    layer(
        "core.next_ids_us.p50",
        "us",
        "ids_per_s, ops_per_s",
        "issue_bulk_inproc, montecarlo_oblivious",
    ),
    layer(
        "sim.audit_record_us.p50",
        "us",
        "ids_per_s",
        "issue_bulk_inproc",
    ),
    layer(
        "sim.audit_segments_per_lease",
        "count",
        "ids_per_s",
        "issue_bulk_inproc",
    ),
    layer(
        "sim.trial_us.p50",
        "us",
        "ops_per_s",
        "montecarlo_oblivious",
    ),
    layer(
        "sim.collide_us.p50",
        "us",
        "ops_per_s",
        "montecarlo_oblivious",
    ),
    layer(
        "sim.thread_scaling",
        "ratio",
        "ops_per_s",
        "montecarlo_oblivious",
    ),
    layer(
        "service.lease_us.p50",
        "us",
        "op_p50_us",
        "lease_small_mux, issue_bulk_inproc",
    ),
    layer(
        "service.lease_us.p99",
        "us",
        "op_p90_us",
        "lease_small_mux, issue_bulk_inproc",
    ),
    layer(
        "service.issue_us.p50",
        "us",
        "op_p50_us",
        "lease_small_mux, issue_bulk_inproc, lease_durable_fleet",
    ),
    layer(
        "service.queue_us.p50",
        "us",
        "op_p50_us, op_p90_us",
        "lease_small_mux",
    ),
    layer(
        "service.audit_lag_us.mean",
        "us",
        "ids_per_s",
        "issue_bulk_inproc",
    ),
    layer(
        "service.audit_lag_us.max",
        "us",
        "ids_per_s",
        "issue_bulk_inproc",
    ),
    layer(
        "service.audit_drain_ms",
        "ms",
        "ids_per_s",
        "issue_bulk_inproc",
    ),
    layer(
        "service.persists_per_lease",
        "count",
        "op_p50_us",
        "lease_durable_fleet",
    ),
    layer(
        "persist.save_us.p50",
        "us",
        "op_p50_us",
        "lease_durable_fleet",
    ),
    layer(
        "persist.save_us.p99",
        "us",
        "op_p90_us",
        "lease_durable_fleet",
    ),
    layer(
        "persist.save_sync_us.p50",
        "us",
        "none today; sizes the fsync default",
        "lease_durable_fleet",
    ),
    layer("client.codec_us.p50", "us", "op_p50_us", "lease_small_mux"),
    layer(
        "client.lease_us.p50",
        "us",
        "none (traced end-to-end figure)",
        "lease_small_mux",
    ),
    layer(
        "client.lease_us.p99",
        "us",
        "none (traced end-to-end figure)",
        "lease_small_mux",
    ),
    layer(
        "net.residual_us.p50",
        "us",
        "op_p50_us, ops_per_s, cpu_us_per_op",
        "lease_small_mux",
    ),
    layer(
        "net.replies_per_syscall",
        "count",
        "ops_per_s, cpu_us_per_op",
        "lease_small_mux",
    ),
    layer(
        "net.wakeups_per_lease",
        "count",
        "cpu_us_per_op",
        "lease_small_mux",
    ),
    layer(
        "fleet.router_lease_us.p50",
        "us",
        "op_p50_us",
        "lease_durable_fleet",
    ),
    layer(
        "fleet.router_lease_us.p99",
        "us",
        "op_p90_us",
        "lease_durable_fleet",
    ),
    layer(
        "fleet.router_self_us.p50",
        "us",
        "op_p50_us",
        "lease_durable_fleet",
    ),
    layer(
        "fleet.global_audit_us.p50",
        "us",
        "op_p50_us",
        "lease_durable_fleet",
    ),
    layer(
        "obs.trace_overhead",
        "ratio",
        "guard only: stays about 1.00",
        "lease_small_mux",
    ),
    layer(
        "bench.op_p50_us.traced",
        "us",
        "none (closure check)",
        "all",
    ),
    layer(
        "bench.trace_overhead",
        "ratio",
        "none (benchmark tracing overhead)",
        "all",
    ),
];

/// Whether `name` uses only the characters a metric name may hold.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// A run's metrics, in print order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Records `name` with the unit the declaration gives it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .or_else(|| PER_LAYER.iter().find(|l| l.name == name).map(|l| l.unit))
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, unit, value));
    }

    /// The recorded names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|(n, _, _)| *n).collect()
    }

    /// Checks that exactly the `declared` names were recorded, each with
    /// a finite value.
    pub fn check_complete(&self, declared: &[&str]) -> Result<(), String> {
        let mut got = self.names();
        let mut want = declared.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "printed metrics {got:?} differ from declared {want:?}"
            ));
        }
        if let Some(bad) = got.iter().find(|n| !valid_name(n)) {
            return Err(format!(
                "metric name {bad} uses characters outside [A-Za-z0-9_.-]"
            ));
        }
        match self.values.iter().find(|(_, _, v)| !v.is_finite()) {
            Some((n, _, v)) => Err(format!("metric {n} is not finite: {v}")),
            None => Ok(()),
        }
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// A human-readable table, with each per-layer row's prediction.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (n, u, v) in &self.values {
            let row = match PER_LAYER.iter().find(|l| l.name == *n) {
                Some(l) => format!("  should move {} on {}", l.should_move, l.on),
                None => String::new(),
            };
            out.push_str(&format!("{n:<32} {v:>16.4} {u:<6}{row}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array in `BENCHMARK.json`
    /// (a minimal scan: the file is flat and generated by hand).
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} section"));
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        for (n, _) in END_TO_END {
            assert!(valid_name(n), "{n}");
        }
        for l in PER_LAYER {
            assert!(valid_name(l.name), "{}", l.name);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
    }

    #[test]
    fn printed_metrics_match_the_declaration() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|l| l.name.to_string()).collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn a_complete_set_passes_and_a_partial_one_fails() {
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let mut m = Metrics::default();
        for n in &names {
            m.set(n, 1.5);
        }
        assert!(m.check_complete(&names).is_ok());
        assert!(m
            .json()
            .contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let mut partial = Metrics::default();
        partial.set("setup_s", 1.0);
        assert!(partial.check_complete(&names).is_err());
        m.set("op_p90_us", f64::INFINITY);
        assert!(m.check_complete(&names).is_err());
    }
}
