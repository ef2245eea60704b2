//! The experiment registry: E1–E13 (one module per paper result) plus
//! E14 (design-choice ablations) and E15 (collision-time extension).

pub mod e01_diagrams;
pub mod e02_cluster_theorem1;
pub mod e03_bins_theorem2;
pub mod e04_dominance;
pub mod e05_worst_case;
pub mod e06_lower_bound;
pub mod e07_adaptive_cluster;
pub mod e08_cluster_star;
pub mod e09_competitive;
pub mod e10_phi_lower_bound;
pub mod e11_adaptive_competitive;
pub mod e12_table1;
pub mod e13_rocksdb;
pub mod e14_ablations;
pub mod e15_collision_time;

/// Shared experiment context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Reduce trial counts ~10× for smoke runs.
    pub quick: bool,
    /// Master seed for all randomness.
    pub seed: u64,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            quick: false,
            seed: 0xC0FFEE,
        }
    }
}

impl Ctx {
    /// Scales a full-run trial count down for quick mode.
    pub fn trials(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(200)
        } else {
            full
        }
    }

    /// Trial count sized so a probability around `expected_p` is measured
    /// with ~10% (full) / ~20% (quick) relative error: targets ~100 (resp.
    /// ~25) expected collisions, clamped to `[1000, cap]`.
    pub fn trials_for(&self, expected_p: f64, cap: u64) -> u64 {
        let target_hits = if self.quick { 25.0 } else { 100.0 };
        let ideal = if expected_p > 0.0 {
            (target_hits / expected_p).ceil()
        } else {
            cap as f64
        };
        (ideal as u64).clamp(1000, cap)
    }
}

/// One shape check: a named boolean with context for the report.
#[derive(Debug, Clone)]
pub struct Check {
    /// What property is being asserted.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable evidence (the numbers behind the verdict).
    pub detail: String,
}

impl Check {
    /// A named check.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// The output of one experiment: rendered markdown sections plus checks.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E5"`.
    pub id: &'static str,
    /// Title, printed in the report's heading.
    pub title: &'static str,
    /// Rendered markdown sections (tables, diagrams, notes).
    pub sections: Vec<String>,
    /// Shape checks.
    pub checks: Vec<Check>,
}

impl ExperimentReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Renders the whole report as markdown.
    pub fn markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        for s in &self.sections {
            out.push_str(s);
            out.push('\n');
        }
        if !self.checks.is_empty() {
            out.push_str("**Shape checks**\n\n");
            for c in &self.checks {
                let mark = if c.passed { "PASS" } else { "FAIL" };
                out.push_str(&format!("- [{mark}] {}: {}\n", c.name, c.detail));
            }
            out.push('\n');
        }
        out
    }
}

/// The signature of an experiment runner.
pub type Runner = fn(&Ctx) -> ExperimentReport;

/// Every experiment, in index order, as `(id, runner)`.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("e1", e01_diagrams::run as Runner),
        ("e2", e02_cluster_theorem1::run),
        ("e3", e03_bins_theorem2::run),
        ("e4", e04_dominance::run),
        ("e5", e05_worst_case::run),
        ("e6", e06_lower_bound::run),
        ("e7", e07_adaptive_cluster::run),
        ("e8", e08_cluster_star::run),
        ("e9", e09_competitive::run),
        ("e10", e10_phi_lower_bound::run),
        ("e11", e11_adaptive_competitive::run),
        ("e12", e12_table1::run),
        ("e13", e13_rocksdb::run),
        ("e14", e14_ablations::run),
        ("e15", e15_collision_time::run),
    ]
}
