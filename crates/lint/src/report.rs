//! Human-readable rendering of a [`LintReport`].

use crate::engine::LintReport;
use std::fmt::Write as _;

/// Renders the report the way CI prints it: violations first (file:line:
/// col spans, clickable in most terminals), then the per-rule tally so a
/// regression is diagnosable from the log alone, then the verdict line.
pub fn render(report: &LintReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        let _ = writeln!(out, "{v}");
    }
    if !report.violations.is_empty() {
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "rule tally (violations after allows):");
    for (rule, count) in &report.tally {
        let _ = writeln!(out, "  {rule:<28} {count}");
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned; {} violation(s), {} inline-allowed, {} baselined",
        report.files_scanned,
        report.violations.len(),
        report.inline_allowed,
        report.baselined
    );
    let _ = writeln!(
        out,
        "gv-lint: {}",
        if report.is_clean() { "PASS" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::{LintViolation, RuleId};

    #[test]
    fn clean_report_passes() {
        let mut r = LintReport {
            files_scanned: 3,
            ..LintReport::default()
        };
        r.tally.insert(RuleId::NoFloatEq.as_str(), 0);
        let text = render(&r);
        assert!(text.contains("PASS"));
        assert!(text.contains("no-float-eq"));
        assert!(text.contains("3 file(s) scanned"));
    }

    #[test]
    fn dirty_report_fails_and_lists_spans() {
        let mut r = LintReport::default();
        r.violations.push(LintViolation {
            rule: RuleId::NoUnwrapInLib,
            file: "crates/core/src/rra.rs".into(),
            line: 12,
            col: 5,
            message: "boom".into(),
            chain: Vec::new(),
        });
        r.tally.insert(RuleId::NoUnwrapInLib.as_str(), 1);
        let text = render(&r);
        assert!(text.contains("FAIL"));
        assert!(text.contains("crates/core/src/rra.rs:12:5"));
        assert!(text.contains("no-unwrap-in-lib"));
    }
}
