//! Typed lint findings.

use std::fmt;

/// Every rule the engine knows, plus the meta rule for directive hygiene.
///
/// The string forms (used in `allow(...)` directives and reports) are
/// kebab-case — see [`RuleId::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `==` / `!=` against float operands in non-test library code.
    NoFloatEq,
    /// Interprocedural: a detector/CLI-reachable `pub` library fn can
    /// transitively panic.
    PanicReachability,
    /// Interprocedural: a site inside a `gv-lint: hot` region allocates,
    /// by itself or through the calls it makes.
    AllocReachability,
    /// Interprocedural: a nondeterministic value flows into a function on
    /// a result-producing path.
    DeterminismTaint,
    /// Meta: malformed or unused `gv-lint:` directives.
    LintDirective,
}

/// All checkable rules, in report order (excludes the meta rule — it is
/// emitted by the engine itself, not run over files).
pub const ALL_RULES: &[RuleId] = &[
    RuleId::NoFloatEq,
    RuleId::PanicReachability,
    RuleId::AllocReachability,
    RuleId::DeterminismTaint,
];

impl RuleId {
    /// The kebab-case rule id used in directives and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::NoFloatEq => "no-float-eq",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::AllocReachability => "alloc-reachability",
            RuleId::DeterminismTaint => "determinism-taint",
            RuleId::LintDirective => "lint-directive",
        }
    }

    /// One-line rule summary (SARIF `shortDescription`, docs).
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::NoFloatEq => "No ==/!= against float operands in library code",
            RuleId::PanicReachability => {
                "No transitive panic path from pub library fns on detector/CLI paths"
            }
            RuleId::AllocReachability => "No allocation in hot regions, direct or behind a call",
            RuleId::DeterminismTaint => {
                "No nondeterministic value flow into result-producing paths"
            }
            RuleId::LintDirective => "gv-lint directives must be well-formed and live",
        }
    }

    /// Parses a kebab-case rule id.
    pub fn parse(s: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .chain(std::iter::once(RuleId::LintDirective))
            .find(|r| r.as_str() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One hop of an interprocedural call chain attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// Workspace-relative file path of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: u32,
    /// What happens at this hop (`mid calls leaf`, `leaf calls unwrap`).
    pub note: String,
}

/// One finding: a rule violated at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (bytes).
    pub col: u32,
    /// Human-readable explanation of the finding.
    pub message: String,
    /// Interprocedural call chain (entry → … → source); empty for the
    /// per-file lexical rules and for a hot site that allocates by itself.
    pub chain: Vec<ChainLink>,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        for link in &self.chain {
            write!(f, "\n    via {}:{}: {}", link.file, link.line, link.note)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for &r in ALL_RULES {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("lint-directive"), Some(RuleId::LintDirective));
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn display_includes_span_and_rule() {
        let v = LintViolation {
            rule: RuleId::NoFloatEq,
            file: "crates/core/src/rra.rs".into(),
            line: 7,
            col: 3,
            message: "`==` against a float".into(),
            chain: Vec::new(),
        };
        assert_eq!(
            v.to_string(),
            "crates/core/src/rra.rs:7:3: [no-float-eq] `==` against a float"
        );
    }
}
