//! The checked-in baseline (`lint.toml`): file-level allowances for the
//! few legitimate sites where an inline comment is the wrong shape —
//! e.g. a rule that fires on a whole file, or a generated region.
//!
//! The format is a minimal TOML subset, hand-parsed (std-only policy):
//!
//! ```toml
//! [[allow]]
//! rule = "no-nondeterminism"
//! path = "crates/sax/src/dictionary.rs"
//! line = 25            # optional — omit to cover the whole file
//! reason = "lookup-only hash index; never iterated"
//! ```
//!
//! Every entry must carry a non-empty `reason`, and entries that no
//! longer match any finding are reported as stale — a baseline only
//! shrinks.

use crate::violation::{LintViolation, RuleId};
use std::cell::Cell;

/// One `[[allow]]` entry.
#[derive(Debug)]
pub struct BaselineEntry {
    /// Rule being allowed.
    pub rule: RuleId,
    /// Workspace-relative path the entry covers.
    pub path: String,
    /// Specific line, or `None` for the whole file.
    pub line: Option<u32>,
    /// Written justification.
    pub reason: String,
    /// Set when a finding matched this entry (stale detection).
    pub used: Cell<bool>,
}

impl BaselineEntry {
    /// Does this entry suppress `v`?
    pub fn matches(&self, v: &LintViolation) -> bool {
        self.rule == v.rule && self.path == v.file && self.line.is_none_or(|l| l == v.line)
    }
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// All entries, in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parses the `lint.toml` subset described in the module docs.
    ///
    /// # Errors
    /// Returns a message naming the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        /// Fields of the `[[allow]]` entry currently being built.
        #[derive(Default)]
        struct Pending {
            rule: Option<RuleId>,
            path: Option<String>,
            line: Option<u32>,
            reason: Option<String>,
        }

        let mut entries: Vec<BaselineEntry> = Vec::new();
        let mut cur: Option<Pending> = None;

        fn finish(
            cur: &mut Option<Pending>,
            entries: &mut Vec<BaselineEntry>,
        ) -> Result<(), String> {
            if let Some(p) = cur.take() {
                let rule = p.rule.ok_or("baseline entry missing `rule`")?;
                let path = p.path.ok_or("baseline entry missing `path`")?;
                let line = p.line;
                let reason = p.reason.ok_or("baseline entry missing `reason`")?;
                if reason.trim().is_empty() {
                    return Err(format!("baseline entry for {path} has an empty reason"));
                }
                entries.push(BaselineEntry {
                    rule,
                    path,
                    line,
                    reason,
                    used: Cell::new(false),
                });
            }
            Ok(())
        }

        for (n, raw) in text.lines().enumerate() {
            let line_no = n + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                finish(&mut cur, &mut entries)?;
                cur = Some(Pending::default());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{line_no}: expected `key = value`"));
            };
            let Some(entry) = cur.as_mut() else {
                return Err(format!(
                    "lint.toml:{line_no}: field outside an [[allow]] entry"
                ));
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => {
                    let name = unquote(value)
                        .ok_or_else(|| format!("lint.toml:{line_no}: rule must be quoted"))?;
                    entry.rule =
                        Some(RuleId::parse(name).ok_or_else(|| {
                            format!("lint.toml:{line_no}: unknown rule id {name:?}")
                        })?);
                }
                "path" => {
                    entry.path = Some(
                        unquote(value)
                            .ok_or_else(|| format!("lint.toml:{line_no}: path must be quoted"))?
                            .to_string(),
                    );
                }
                "line" => {
                    entry.line =
                        Some(value.parse().map_err(|_| {
                            format!("lint.toml:{line_no}: line must be an integer")
                        })?);
                }
                "reason" => {
                    entry.reason = Some(
                        unquote(value)
                            .ok_or_else(|| format!("lint.toml:{line_no}: reason must be quoted"))?
                            .to_string(),
                    );
                }
                other => {
                    return Err(format!("lint.toml:{line_no}: unknown field {other:?}"));
                }
            }
        }
        finish(&mut cur, &mut entries)?;
        Ok(Baseline { entries })
    }

    /// Renders the baseline back to `lint.toml` text with stale entries
    /// removed (`gv_lint --prune-baseline`).
    ///
    /// The leading comment block of `original` (everything above the
    /// first entry or field) is kept verbatim; surviving entries are
    /// emitted in deterministic `(path, rule, line)` order with their
    /// reasons intact. Per-entry comments are not carried over — the
    /// durable justification belongs in the `reason` field.
    pub fn render_pruned(&self, original: &str) -> String {
        let mut out = String::new();
        for line in original.lines() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                out.push_str(line);
                out.push('\n');
            } else {
                break;
            }
        }
        while out.ends_with("\n\n") {
            out.pop();
        }
        let mut live: Vec<&BaselineEntry> = self.entries.iter().filter(|e| e.used.get()).collect();
        live.sort_by(|a, b| (&a.path, a.rule, a.line).cmp(&(&b.path, b.rule, b.line)));
        for e in live {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str("[[allow]]\n");
            out.push_str(&format!("rule = \"{}\"\n", e.rule.as_str()));
            out.push_str(&format!("path = \"{}\"\n", e.path));
            if let Some(l) = e.line {
                out.push_str(&format!("line = {l}\n"));
            }
            out.push_str(&format!("reason = \"{}\"\n", e.reason));
        }
        out
    }

    /// Stale entries (never matched a finding) as `lint-directive`
    /// violations against the baseline file itself.
    pub fn stale(&self, baseline_path: &str) -> Vec<LintViolation> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| LintViolation {
                rule: RuleId::LintDirective,
                file: baseline_path.to_string(),
                line: 0,
                col: 0,
                message: format!(
                    "stale baseline entry: {} at {}{} no longer fires — remove it",
                    e.rule.as_str(),
                    e.path,
                    e.line.map(|l| format!(":{l}")).unwrap_or_default()
                ),
                chain: Vec::new(),
            })
            .collect()
    }
}

fn unquote(v: &str) -> Option<&str> {
    v.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries() {
        let b = Baseline::parse(
            "# header\n[[allow]]\nrule = \"no-nondeterminism\"\npath = \"a/b.rs\"\nline = 25\nreason = \"lookup only\"\n\n[[allow]]\nrule = \"no-float-eq\"\npath = \"c.rs\"\nreason = \"sentinel\"\n",
        )
        .expect("parse");
        assert_eq!(b.entries.len(), 2);
        assert_eq!(b.entries[0].rule, RuleId::NoNondeterminism);
        assert_eq!(b.entries[0].line, Some(25));
        assert_eq!(b.entries[1].line, None);
    }

    #[test]
    fn missing_reason_rejected() {
        assert!(Baseline::parse("[[allow]]\nrule = \"no-float-eq\"\npath = \"c.rs\"\n").is_err());
    }

    #[test]
    fn unknown_rule_rejected() {
        assert!(
            Baseline::parse("[[allow]]\nrule = \"zzz\"\npath = \"c.rs\"\nreason = \"r\"\n")
                .is_err()
        );
    }

    #[test]
    fn matches_with_and_without_line() {
        let b = Baseline::parse(
            "[[allow]]\nrule = \"no-float-eq\"\npath = \"c.rs\"\nline = 3\nreason = \"r\"\n",
        )
        .expect("parse");
        let mut v = LintViolation {
            rule: RuleId::NoFloatEq,
            file: "c.rs".into(),
            line: 3,
            col: 1,
            message: String::new(),
            chain: Vec::new(),
        };
        assert!(b.entries[0].matches(&v));
        v.line = 4;
        assert!(!b.entries[0].matches(&v));
    }

    #[test]
    fn prune_round_trip_is_lossless_for_live_entries() {
        let original = "# header line one\n# header line two\n\n\
                        [[allow]]\nrule = \"no-nondeterminism\"\npath = \"z/b.rs\"\nline = 25\nreason = \"lookup only\"\n\n\
                        [[allow]]\nrule = \"no-float-eq\"\npath = \"a/c.rs\"\nreason = \"sentinel\"\n";
        let b = Baseline::parse(original).expect("parse");
        for e in &b.entries {
            e.used.set(true);
        }
        let pruned = b.render_pruned(original);
        assert!(pruned.starts_with("# header line one\n# header line two\n"));
        let reparsed = Baseline::parse(&pruned).expect("reparse");
        // Same entries, now in deterministic (path, rule, line) order.
        assert_eq!(reparsed.entries.len(), 2);
        assert_eq!(reparsed.entries[0].path, "a/c.rs");
        assert_eq!(reparsed.entries[0].rule, RuleId::NoFloatEq);
        assert_eq!(reparsed.entries[0].reason, "sentinel");
        assert_eq!(reparsed.entries[1].path, "z/b.rs");
        assert_eq!(reparsed.entries[1].line, Some(25));
        assert_eq!(reparsed.entries[1].reason, "lookup only");
        // Idempotent: pruning again changes nothing.
        for e in &reparsed.entries {
            e.used.set(true);
        }
        assert_eq!(reparsed.render_pruned(&pruned), pruned);
    }

    #[test]
    fn prune_drops_stale_entries() {
        let original = "[[allow]]\nrule = \"no-float-eq\"\npath = \"a.rs\"\nreason = \"r\"\n\n\
                        [[allow]]\nrule = \"no-float-eq\"\npath = \"b.rs\"\nreason = \"s\"\n";
        let b = Baseline::parse(original).expect("parse");
        b.entries[1].used.set(true);
        let pruned = b.render_pruned(original);
        assert!(!pruned.contains("a.rs"));
        assert!(pruned.contains("b.rs"));
    }

    #[test]
    fn stale_reporting() {
        let b =
            Baseline::parse("[[allow]]\nrule = \"no-float-eq\"\npath = \"c.rs\"\nreason = \"r\"\n")
                .expect("parse");
        let stale = b.stale("lint.toml");
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("no longer fires"));
        b.entries[0].used.set(true);
        assert!(b.stale("lint.toml").is_empty());
    }
}
