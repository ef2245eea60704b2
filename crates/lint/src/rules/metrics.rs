//! `metrics-family`: every `uuidp_*` family literal in non-test code
//! must correspond to a registration site (`registry.counter(..)` /
//! `.gauge(..)` / `.histogram(..)`), and every name on the canonical
//! required list (`obs::families::REQUIRED`) must itself be registered.
//!
//! This kills two drift modes at once: a typo'd family name in a
//! scrape assertion or dashboard query (used but never registered),
//! and a required family whose registration was refactored away (the
//! scrape would only catch it at runtime, on the right code path).
//!
//! A histogram registration also covers the `_count` and `_sum`
//! samples the registry renders under it, for a literal that names one;
//! the required list names the histogram itself.

use std::collections::BTreeSet;

use crate::diag::{Diagnostic, Rule};
use crate::lexer::TokenKind;
use crate::source::RustFile;

/// The registry methods that register (or re-attach to) a family.
const REGISTER_METHODS: &[&str] = &["counter", "gauge", "histogram"];

/// Unlabelled samples a histogram family fans out into in the
/// exposition.
const HISTOGRAM_SUFFIXES: &[&str] = &["_count", "_sum"];

/// One family literal occurrence.
#[derive(Debug, Clone)]
pub struct FamilyUse {
    /// The family name.
    pub name: String,
    /// File it occurred in.
    pub file: String,
    /// Line it occurred on.
    pub line: u32,
    /// The registry method it was passed to, when it was one.
    pub registered_via: Option<&'static str>,
}

/// Is this string literal a metric family name?
fn is_family(text: &str) -> bool {
    text.len() > "uuidp_".len()
        && text.starts_with("uuidp_")
        && text
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Collects every non-test family literal in one file, noting which
/// are registration sites.
pub fn scan(file: &RustFile) -> Vec<FamilyUse> {
    let mut out = Vec::new();
    for i in 0..file.tokens.len() {
        if file.is_test(i) {
            continue;
        }
        let t = &file.tokens[i];
        if t.kind != TokenKind::Str || !is_family(&t.text) {
            continue;
        }
        let registered_via =
            (i >= 3 && file.tokens[i - 1].is_punct('(') && file.tokens[i - 3].is_punct('.'))
                .then(|| {
                    REGISTER_METHODS
                        .iter()
                        .find(|m| file.tokens[i - 2].is_ident(m))
                        .copied()
                })
                .flatten();
        out.push(FamilyUse {
            name: t.text.clone(),
            file: file.rel.clone(),
            line: t.line,
            registered_via,
        });
    }
    out
}

/// The workspace-level check: every use resolves to a registration,
/// and the registered set covers `required` (anchored at
/// `required_file` when it does not).
pub fn finalize(
    uses: &[FamilyUse],
    required: &[String],
    required_file: Option<&str>,
) -> Vec<Diagnostic> {
    let mut registered: BTreeSet<&str> = BTreeSet::new();
    let mut histograms: BTreeSet<&str> = BTreeSet::new();
    for u in uses {
        match u.registered_via {
            Some("histogram") => {
                registered.insert(&u.name);
                histograms.insert(&u.name);
            }
            Some(_) => {
                registered.insert(&u.name);
            }
            None => {}
        }
    }
    let covered = |name: &str| {
        registered.contains(name)
            || HISTOGRAM_SUFFIXES.iter().any(|s| {
                name.strip_suffix(s)
                    .is_some_and(|base| histograms.contains(base))
            })
    };
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for u in uses {
        if u.registered_via.is_none()
            && !covered(&u.name)
            && seen.insert((u.file.clone(), u.line, u.name.clone()))
        {
            out.push(Diagnostic {
                file: u.file.clone(),
                line: u.line,
                rule: Rule::MetricsFamily,
                message: format!("metric family `{}` is never registered", u.name),
                hint: "register it at service start or fix the family-name typo".into(),
            });
        }
    }
    if let Some(required_file) = required_file {
        for req in required {
            if !registered.contains(req.as_str()) {
                out.push(Diagnostic {
                    file: required_file.to_string(),
                    line: 1,
                    rule: Rule::MetricsFamily,
                    message: format!(
                        "required family `{req}` has no registration site in the workspace"
                    ),
                    hint: "REQUIRED must be a subset of what nodes register at bind time".into(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uses(src: &str) -> Vec<FamilyUse> {
        scan(&RustFile::parse("crates/x/src/lib.rs", src))
    }

    #[test]
    fn registration_sites_are_classified() {
        let u = uses("fn f(r: &Registry) { r.counter(\"uuidp_leases_total\"); }");
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].registered_via, Some("counter"));
    }

    #[test]
    fn unregistered_use_fires_and_histogram_suffixes_cover() {
        let u = uses(
            "fn f(r: &Registry) { r.histogram(\"uuidp_lat_ns\"); \
             assert(m.contains(\"uuidp_lat_ns_count\")); \
             assert(m.contains(\"uuidp_bogus_total\")); }",
        );
        let d = finalize(&u, &[], None);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("uuidp_bogus_total"));
    }

    #[test]
    fn required_without_registration_fires() {
        let u = uses("fn f(r: &Registry) { r.counter(\"uuidp_a_total\"); }");
        let d = finalize(
            &u,
            &["uuidp_a_total".into(), "uuidp_missing_total".into()],
            Some("crates/obs/src/families.rs"),
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("uuidp_missing_total"));
    }

    #[test]
    fn required_names_the_registered_histogram_not_a_sample() {
        let u = uses("fn f(r: &Registry) { r.histogram(\"uuidp_lat_ns\"); }");
        let required = ["uuidp_lat_ns".into(), "uuidp_lat_ns_count".into()];
        let d = finalize(&u, &required, Some("crates/obs/src/families.rs"));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("uuidp_lat_ns_count"));
        // A collapsed bucket key is no exposition sample name.
        let u = uses(
            "fn f(r: &Registry) { r.histogram(\"uuidp_lat_ns\"); \
             assert(m.contains(\"uuidp_lat_ns_bucket_le\")); }",
        );
        assert_eq!(finalize(&u, &[], None).len(), 1);
    }
}
