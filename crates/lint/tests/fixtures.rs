//! Fixture corpus: every per-file rule fires on its `bad.rs` and stays
//! silent on its `good.rs`, with spans pinned where the rule's value is
//! the exact location.

use gv_lint::rules::all_rules;
use gv_lint::{FileKind, RuleId, SourceFile};

/// Runs the full per-file rule set over one fixture, returning violations
/// of `rule` only (fixtures are single-purpose, but a bad fixture for one
/// rule may legitimately trip another).
fn check(rule: RuleId, rel: &str, krate: &str, kind: FileKind, src: &str) -> Vec<(u32, u32)> {
    let file = SourceFile::analyze(rel, krate, kind, src.to_string());
    let mut out = Vec::new();
    for r in all_rules() {
        r.check(&file, &mut out);
    }
    out.iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.line, v.col))
        .collect()
}

/// One bad/good pair: `bad.rs` fires `expected_bad` times, `good.rs` not
/// at all, under the same classification.
fn fires_and_silences(
    rule: RuleId,
    rel: &str,
    krate: &str,
    kind: FileKind,
    bad: &str,
    good: &str,
    expected_bad: usize,
) {
    let bad_spans = check(rule, rel, krate, kind, bad);
    assert_eq!(
        bad_spans.len(),
        expected_bad,
        "{}: bad fixture should fire {expected_bad}x, got {bad_spans:?}",
        rule.as_str()
    );
    let good_spans = check(rule, rel, krate, kind, good);
    assert!(
        good_spans.is_empty(),
        "{}: good fixture should be silent, got {good_spans:?}",
        rule.as_str()
    );
}

#[test]
fn no_float_eq_fixture() {
    fires_and_silences(
        RuleId::NoFloatEq,
        "crates/sax/src/fixture.rs",
        "sax",
        FileKind::LibSrc,
        include_str!("fixtures/float_eq/bad.rs"),
        include_str!("fixtures/float_eq/good.rs"),
        1,
    );
}

#[test]
fn float_eq_span_anchors_on_the_operator() {
    let spans = check(
        RuleId::NoFloatEq,
        "crates/sax/src/fixture.rs",
        "sax",
        FileKind::LibSrc,
        include_str!("fixtures/float_eq/bad.rs"),
    );
    // `    d == 0.0` — the `==` sits at line 5, column 7.
    assert_eq!(spans, vec![(5, 7)]);
}
