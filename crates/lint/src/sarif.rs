//! SARIF 2.1.0 rendering of a [`LintReport`] (`gv_lint --format sarif`).
//!
//! The JSON is hand-rolled: this crate stays dependency-free (even of the
//! in-tree serde shim) so the linter can never be broken by the code it
//! lints. Output is fully deterministic — object keys are emitted in a
//! fixed order, results come from the report's already-sorted violation
//! list, and no timestamps or absolute paths appear anywhere.
//!
//! Interprocedural findings carry their call chain as a SARIF `codeFlow`
//! (one `threadFlow` whose locations are the chain links, entry first),
//! so viewers render the path, not just the panic/alloc/taint source.

use crate::engine::LintReport;
use crate::violation::{LintViolation, RuleId, ALL_RULES};
use std::fmt::Write as _;

/// Renders `report` as a single-run SARIF 2.1.0 log.
pub fn render(report: &LintReport) -> String {
    let rules = sarif_rules();
    let mut out = String::new();
    out.push('{');
    field(&mut out, "$schema", |o| {
        string(o, "https://json.schemastore.org/sarif-2.1.0.json");
    });
    out.push(',');
    field(&mut out, "version", |o| string(o, "2.1.0"));
    out.push(',');
    field(&mut out, "runs", |o| {
        o.push('[');
        o.push('{');
        field(o, "tool", |o| {
            o.push('{');
            field(o, "driver", |o| {
                o.push('{');
                field(o, "name", |o| string(o, "gv-lint"));
                o.push(',');
                field(o, "informationUri", |o| {
                    string(o, "https://github.com/grammarviz/grammarviz");
                });
                o.push(',');
                field(o, "rules", |o| {
                    o.push('[');
                    for (i, rule) in rules.iter().enumerate() {
                        if i > 0 {
                            o.push(',');
                        }
                        render_rule(o, *rule);
                    }
                    o.push(']');
                });
                o.push('}');
            });
            o.push('}');
        });
        o.push(',');
        field(o, "results", |o| {
            o.push('[');
            for (i, v) in report.violations.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                render_result(o, v, &rules);
            }
            o.push(']');
        });
        o.push('}');
        o.push(']');
    });
    out.push('}');
    out.push('\n');
    out
}

/// Every rule the driver declares, in report order (the meta rule last).
fn sarif_rules() -> Vec<RuleId> {
    let mut rules: Vec<RuleId> = ALL_RULES.to_vec();
    rules.push(RuleId::LintDirective);
    rules
}

fn render_rule(o: &mut String, rule: RuleId) {
    o.push('{');
    field(o, "id", |o| string(o, rule.as_str()));
    o.push(',');
    field(o, "shortDescription", |o| {
        o.push('{');
        field(o, "text", |o| string(o, rule.summary()));
        o.push('}');
    });
    o.push(',');
    field(o, "defaultConfiguration", |o| {
        o.push('{');
        field(o, "level", |o| string(o, "error"));
        o.push('}');
    });
    o.push('}');
}

fn render_result(o: &mut String, v: &LintViolation, rules: &[RuleId]) {
    let rule_index = rules.iter().position(|&r| r == v.rule).unwrap_or(0);
    o.push('{');
    field(o, "ruleId", |o| string(o, v.rule.as_str()));
    o.push(',');
    field(o, "ruleIndex", |o| {
        let _ = write!(o, "{rule_index}");
    });
    o.push(',');
    field(o, "level", |o| string(o, "error"));
    o.push(',');
    field(o, "message", |o| {
        o.push('{');
        field(o, "text", |o| string(o, &v.message));
        o.push('}');
    });
    o.push(',');
    field(o, "locations", |o| {
        o.push('[');
        o.push('{');
        field(o, "physicalLocation", |o| {
            physical_location(o, &v.file, v.line, v.col);
        });
        o.push('}');
        o.push(']');
    });
    if !v.chain.is_empty() {
        o.push(',');
        field(o, "codeFlows", |o| {
            o.push('[');
            o.push('{');
            field(o, "threadFlows", |o| {
                o.push('[');
                o.push('{');
                field(o, "locations", |o| {
                    o.push('[');
                    for (i, link) in v.chain.iter().enumerate() {
                        if i > 0 {
                            o.push(',');
                        }
                        o.push('{');
                        field(o, "location", |o| {
                            o.push('{');
                            field(o, "physicalLocation", |o| {
                                physical_location(o, &link.file, link.line, 0);
                            });
                            o.push(',');
                            field(o, "message", |o| {
                                o.push('{');
                                field(o, "text", |o| string(o, &link.note));
                                o.push('}');
                            });
                            o.push('}');
                        });
                        o.push('}');
                    }
                    o.push(']');
                });
                o.push('}');
                o.push(']');
            });
            o.push('}');
            o.push(']');
        });
    }
    o.push('}');
}

/// A `physicalLocation`. Column 0 means "line only" (chain links carry
/// no column) — `startColumn` is omitted, as SARIF columns are 1-based.
fn physical_location(o: &mut String, file: &str, line: u32, col: u32) {
    o.push('{');
    field(o, "artifactLocation", |o| {
        o.push('{');
        field(o, "uri", |o| string(o, file));
        o.push('}');
    });
    o.push(',');
    field(o, "region", |o| {
        o.push('{');
        field(o, "startLine", |o| {
            let _ = write!(o, "{line}");
        });
        if col > 0 {
            o.push(',');
            field(o, "startColumn", |o| {
                let _ = write!(o, "{col}");
            });
        }
        o.push('}');
    });
    o.push('}');
}

/// Writes `"key":` then the value via `value`.
fn field(o: &mut String, key: &str, value: impl FnOnce(&mut String)) {
    string(o, key);
    o.push(':');
    value(o);
}

/// Writes `s` as a JSON string literal with full escaping.
fn string(o: &mut String, s: &str) {
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::ChainLink;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut o = String::new();
        string(&mut o, "a\"b\\c\nd\u{1}");
        assert_eq!(o, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn chained_violation_gets_a_code_flow() {
        let mut report = LintReport::default();
        report.violations.push(LintViolation {
            rule: RuleId::PanicReachability,
            file: "crates/core/src/a.rs".into(),
            line: 9,
            col: 5,
            message: "can panic".into(),
            chain: vec![ChainLink {
                file: "crates/core/src/a.rs".into(),
                line: 3,
                note: "`top` calls `mid()`".into(),
            }],
        });
        let sarif = render(&report);
        assert!(sarif.contains("\"codeFlows\""));
        assert!(sarif.contains("\"startLine\":9"));
        assert!(sarif.contains("`top` calls `mid()`"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let report = LintReport::default();
        assert_eq!(render(&report), render(&report));
    }
}
