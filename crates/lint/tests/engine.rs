//! Engine round-trip over a checked-in mini workspace: surviving
//! violations, inline-allow accounting, and the loud rot of unused
//! allows — all through the same [`gv_lint::run`] entry point CI uses.

use std::path::Path;

use gv_lint::{run, EngineError, RuleId};

fn mini_root() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/mini_workspace"
    ))
}

#[test]
fn mini_workspace_report() {
    let report = run(mini_root()).expect("mini workspace lints");
    assert_eq!(report.files_scanned, 1);

    // One violation survives: the exact comparison in `first()`, anchored
    // on the operator.
    let float_eqs: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::NoFloatEq)
        .collect();
    assert_eq!(float_eqs.len(), 1);
    assert_eq!(float_eqs[0].file, "crates/core/src/lib.rs");
    assert_eq!((float_eqs[0].line, float_eqs[0].col), (6, 7));

    // The inline allow in `second()` suppressed exactly one finding.
    assert_eq!(report.inline_allowed, 1);

    // Suppression rots loudly: the unused allow in `third()` comes back
    // as a lint-directive violation.
    let directives: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::LintDirective)
        .collect();
    assert_eq!(directives.len(), 1, "{directives:?}");
    assert_eq!(
        (directives[0].file.as_str(), directives[0].line),
        ("crates/core/src/lib.rs", 17)
    );

    // The tally carries zeroes for silent rules and exact counts for
    // loud ones.
    assert_eq!(report.tally["no-float-eq"], 1);
    assert_eq!(report.tally["lint-directive"], 1);
    assert_eq!(report.tally["panic-reachability"], 0);
    assert_eq!(report.tally.len(), gv_lint::ALL_RULES.len() + 1);
    assert!(!report.is_clean());
}

#[test]
fn run_rejects_a_non_workspace_root() {
    // A member crate has a Cargo.toml but no `[workspace]` table.
    let member = mini_root().join("crates/core");
    match run(&member) {
        Err(EngineError::NotAWorkspace(p)) => assert!(p.ends_with("crates/core")),
        other => panic!("expected NotAWorkspace, got {other:?}"),
    }
}

/// The linter's own acceptance gate: the real workspace is clean. This is
/// the same invocation CI runs, so a violation introduced anywhere in the
/// repo fails `cargo test -p gv-lint` too.
#[test]
fn real_workspace_is_lint_clean() {
    let root = gv_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let report = run(&root).expect("workspace lints");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
