//! Every rule exercised against an on-disk fixture pair: the
//! violating fixture yields exactly one diagnostic of its rule, and
//! the conforming twin yields none — so each rule is pinned against
//! both missed-detection and false-positive drift.
//!
//! Fixture *content* lives under `tests/fixtures/`, but it is fed to
//! the analyzer under synthetic production-looking paths: the real
//! location is deliberately both walker-skipped and test-masked, so
//! the violations never leak into a real workspace run.

use uuidp_lint::diag::Rule;
use uuidp_lint::{Analyzer, Config, Report};

/// Runs one Rust fixture through a fresh analyzer as `rel`.
fn analyze_rust(config: Config, rel: &str, source: &str) -> Report {
    let mut analyzer = Analyzer::new(config);
    analyzer.add_rust(rel, source);
    analyzer.finish()
}

/// Runs one manifest fixture through a fresh analyzer as `rel`.
fn analyze_manifest(config: Config, rel: &str, source: &str) -> Report {
    let mut analyzer = Analyzer::new(config);
    analyzer.add_manifest(rel, source);
    analyzer.finish()
}

/// The violating fixture's contract: one finding, the right rule.
fn assert_exactly_one(report: &Report, rule: Rule) {
    assert_eq!(
        report.diagnostics.len(),
        1,
        "expected exactly one finding, got: {:#?}",
        report.diagnostics
    );
    assert_eq!(report.diagnostics[0].rule, rule);
}

/// The conforming fixture's contract: silence.
fn assert_clean(report: &Report) {
    assert!(
        report.diagnostics.is_empty(),
        "expected no findings, got: {:#?}",
        report.diagnostics
    );
}

/// A config that puts the synthetic decode path under the never-panic
/// contract (everything else stays bare).
fn decode_config() -> Config {
    let mut config = Config::bare();
    config.decode_paths.push("crates/x/src/decode.rs".into());
    config
}

#[test]
fn decode_panic_pair() {
    let bad = analyze_rust(
        decode_config(),
        "crates/x/src/decode.rs",
        include_str!("fixtures/decode_panic_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::DecodePanic);
    assert!(bad.diagnostics[0].message.contains("unwrap"));

    let ok = analyze_rust(
        decode_config(),
        "crates/x/src/decode.rs",
        include_str!("fixtures/decode_panic_ok.rs"),
    );
    assert_clean(&ok);
}

#[test]
fn ambient_time_pair() {
    let bad = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/ambient_time_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::AmbientTime);
    assert!(bad.diagnostics[0].message.contains("Instant::now"));

    let ok = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/ambient_time_ok.rs"),
    );
    assert_clean(&ok);
}

#[test]
fn lock_blocking_pair() {
    let bad = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/lock_blocking_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::LockBlocking);
    assert!(bad.diagnostics[0].message.contains("self.state"));

    let ok = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/lock_blocking_ok.rs"),
    );
    assert_clean(&ok);
}

#[test]
fn lock_blocking_wrapper_pair() {
    let bad = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/lock_blocking_wrapper_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::LockBlocking);
    assert!(bad.diagnostics[0].message.contains("read_socket"));
    assert!(bad.diagnostics[0].message.contains("self.buf"));

    let ok = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/lock_blocking_wrapper_ok.rs"),
    );
    assert_clean(&ok);
}

#[test]
fn lock_cycle_pair() {
    let bad = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/lock_cycle_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::LockCycle);
    assert!(bad.diagnostics[0].message.contains("x::self.alpha"));
    assert!(bad.diagnostics[0].message.contains("x::self.beta"));

    let ok = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/lock_cycle_ok.rs"),
    );
    assert_clean(&ok);
}

#[test]
fn metrics_family_pair() {
    let bad = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/metrics_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::MetricsFamily);
    assert!(bad.diagnostics[0].message.contains("uuidp_fixture_totall"));

    let ok = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/metrics_ok.rs"),
    );
    assert_clean(&ok);
}

#[test]
fn shim_dep_pair() {
    let bad = analyze_manifest(
        Config::bare(),
        "crates/x/Cargo.toml",
        include_str!("fixtures/shim_dep_bad.toml"),
    );
    assert_exactly_one(&bad, Rule::ShimDep);

    let ok = analyze_manifest(
        Config::bare(),
        "crates/x/Cargo.toml",
        include_str!("fixtures/shim_dep_ok.toml"),
    );
    assert_clean(&ok);
}

#[test]
fn allow_hygiene_pair() {
    let bad = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/allow_hygiene_bad.rs"),
    );
    assert_exactly_one(&bad, Rule::AllowHygiene);
    assert!(bad.diagnostics[0].message.contains("never-panic"));

    // The conforming twin is a *working* allow: it suppresses a real
    // ambient-time finding and shows up marked used.
    let ok = analyze_rust(
        Config::bare(),
        "crates/x/src/lib.rs",
        include_str!("fixtures/allow_hygiene_ok.rs"),
    );
    assert_clean(&ok);
    assert_eq!(ok.allows.len(), 1);
    assert!(ok.allows[0].used, "the allow must suppress the finding");
}
