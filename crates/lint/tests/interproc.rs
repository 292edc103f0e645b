//! Interprocedural rule round-trips over checked-in fixture workspaces:
//! each rule's `bad` workspace fires only that rule (the other gv-lint
//! rules are silent on it by construction), and the matching `good`
//! workspace — same call shape, effect removed — is clean. A
//! generated-workspace test pins chain-link suppression: an inline allow
//! on an intermediate hop of the chain, not just the effect site,
//! suppresses the finding.

use std::path::{Path, PathBuf};

use gv_lint::{run, RuleId};

fn fixture_root(rule: &str, variant: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/interproc")
        .join(rule)
        .join(variant)
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("fixture lost its {needle:?} line"))
}

/// Runs the `bad` workspace: exactly `count` findings, all of `rule` —
/// any other rule firing would mean the fixture tests more than one
/// contract.
fn check_bad(rule: RuleId, dir: &str, count: usize) -> gv_lint::LintReport {
    let report = run(&fixture_root(dir, "bad")).expect("bad fixture lints");
    let rules: Vec<RuleId> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec![rule; count], "{}", report_text(&report));
    report
}

fn check_good(dir: &str) {
    let report = run(&fixture_root(dir, "good")).expect("good fixture lints");
    assert!(report.is_clean(), "{}", report_text(&report));
}

fn report_text(report: &gv_lint::LintReport) -> String {
    report
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn panic_reachability_sees_through_two_hops() {
    let src = include_str!("fixtures/interproc/panic_reach/bad/crates/core/src/lib.rs");
    let report = check_bad(RuleId::PanicReachability, "panic_reach", 1);
    let v = &report.violations[0];
    // Anchored at the buried assert, not at the clean public surface.
    assert_eq!(v.line, line_of(src, "    assert!"));
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert!(v.message.contains("`rank`"), "{}", v.message);
    // The chain walks entry -> intermediate -> effect site.
    let chain_lines: Vec<u32> = v.chain.iter().map(|l| l.line).collect();
    assert_eq!(
        chain_lines,
        vec![
            line_of(src, "let best = pick(data);"),
            line_of(src, "narrowest(data)"),
            line_of(src, "    assert!"),
        ]
    );
    check_good("panic_reach");
}

#[test]
fn alloc_reachability_sees_every_depth() {
    let src = include_str!("fixtures/interproc/alloc_reach/bad/crates/core/src/lib.rs");
    let report = check_bad(RuleId::AllocReachability, "alloc_reach", 3);
    let [helper, direct, named_push] = &report.violations[..] else {
        unreachable!("check_bad pinned three findings");
    };
    // Depth 1: anchored at the hot-region call; the chain descends to the
    // helper's push.
    assert_eq!(helper.line, line_of(src, "self.record(x);"));
    assert!(helper.message.contains("`.push()`"), "{}", helper.message);
    assert_eq!(
        helper.chain.last().map(|l| l.line),
        Some(line_of(src, "self.buf.push(x);"))
    );
    // Depth 0: growth written in the region itself, and a hot call to a
    // workspace helper named `push` — each reported where it is written,
    // with no chain.
    assert_eq!(direct.line, line_of(src, "self.log.push(x);"));
    assert_eq!(named_push.line, line_of(src, "self.window.push(x);"));
    for v in [direct, named_push] {
        assert!(v.chain.is_empty(), "{v}");
        assert!(v.message.contains("allocates inside a hot region"), "{v}");
    }
    check_good("alloc_reach");
}

#[test]
fn determinism_taint_follows_the_returned_value() {
    let src = include_str!("fixtures/interproc/determinism_taint/bad/crates/core/src/lib.rs");
    let report = check_bad(RuleId::DeterminismTaint, "determinism_taint", 1);
    let v = &report.violations[0];
    // Anchored where the nondeterministic value is minted and bound.
    assert_eq!(v.line, line_of(src, "thread::current()"));
    assert!(v.message.contains("`rank`"), "{}", v.message);
    check_good("determinism_taint");
}

/// An inline allow on an *intermediate chain link* (the `pick` ->
/// `narrowest` hop) suppresses the finding: the justification can live
/// where the call decision is made, not only at the effect site.
#[test]
fn allow_on_a_chain_link_suppresses() {
    let src = include_str!("fixtures/interproc/panic_reach/bad/crates/core/src/lib.rs");
    let patched = src.replace(
        "    narrowest(data)",
        "    // gv-lint: allow(panic-reachability) callers of pick() pre-check non-emptiness\n    narrowest(data)",
    );
    assert_ne!(patched, src, "fixture lost the narrowest(data) hop");

    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chain_allow_ws");
    let core = root.join("crates/core/src");
    std::fs::create_dir_all(&core).expect("mkdir");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write");
    std::fs::write(core.join("lib.rs"), patched).expect("write");

    let report = run(&root).expect("patched workspace lints");
    assert!(report.is_clean(), "{}", report_text(&report));
    // Suppressed, not silenced: the allow was consumed (so it does not
    // rot into a lint-directive finding) and counted.
    assert_eq!(report.inline_allowed, 1);
}
