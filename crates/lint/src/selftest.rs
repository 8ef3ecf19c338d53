//! Fixture self-test: each rule has a known-bad and a known-good
//! fixture under `crates/lint/fixtures/{bad,good}/<rule>.rs`. The bad
//! fixture must produce at least one diagnostic *of its own rule* (and
//! none of any other), the good fixture must produce none at all —
//! proving both directions: the rules fire, and they don't cry wolf.

use crate::rules::{self, Diagnostic, Scope};
use crate::source::SourceFile;
use std::path::Path;

/// Rules with fixture pairs. `unsafe-header` is covered by unit tests
/// instead (it is a crate-root policy, not a token pattern).
pub const FIXTURE_RULES: &[&str] = &[
    "panic",
    "capacity",
    "lock-rank",
    "epoch",
    "determinism",
    "obs-doc",
];

/// Further known-bad fixtures, as `(rule, file stem)`: shapes a rule
/// must flag on their own, which its main bad fixture would mask.
const EXTRA_BAD: &[(&str, &str)] = &[("epoch", "epoch_specialized_impl")];

/// Run the fixture suite rooted at `fixtures_dir`. Returns human-readable
/// failure lines; empty means the suite passed.
pub fn run(fixtures_dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for rule in FIXTURE_RULES {
        let stem = rule.replace('-', "_");
        run_one(fixtures_dir, rule, "bad", &stem, &mut failures);
        run_one(fixtures_dir, rule, "good", &stem, &mut failures);
    }
    for (rule, stem) in EXTRA_BAD {
        run_one(fixtures_dir, rule, "bad", stem, &mut failures);
    }
    failures
}

fn run_one(fixtures_dir: &Path, rule: &str, kind: &str, stem: &str, failures: &mut Vec<String>) {
    let path = fixtures_dir.join(kind).join(format!("{stem}.rs"));
    let rel = format!("fixtures/{kind}/{stem}.rs");
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("{rel}: unreadable fixture: {e}"));
            return;
        }
    };
    let f = SourceFile::parse(rel.clone(), &src);
    let mut diags = rules::check_file(&f, Scope { force: true }, false);
    if rule == "epoch" {
        rules::check_epoch(&[&f], &mut diags);
    }
    check_one(rule, &rel, kind == "bad", &diags, failures);
}

fn check_one(
    rule: &str,
    rel: &str,
    expect_hit: bool,
    diags: &[Diagnostic],
    failures: &mut Vec<String>,
) {
    let own: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == rule).collect();
    let foreign: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule != rule).collect();
    if expect_hit && own.is_empty() {
        failures.push(format!("{rel}: expected ≥1 `{rule}` diagnostic, got none"));
    }
    if !expect_hit && !own.is_empty() {
        failures.push(format!(
            "{rel}: good fixture flagged: {}",
            own.iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    if !foreign.is_empty() {
        failures.push(format!(
            "{rel}: fixture tripped other rules: {}",
            foreign
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
}
