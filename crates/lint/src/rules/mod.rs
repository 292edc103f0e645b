//! The rule registry and the applicability tables shared across rules.
//!
//! Each rule is one file, one struct, one [`Rule`] or [`WorkspaceRule`]
//! impl. Rules see the analyzed [`SourceFile`]s (tokens, regions) and
//! push [`LintViolation`]s; allow-directives are applied by the engine
//! afterwards, so rules never need to know about suppression.

use crate::callgraph::{CallKind, CallSite, WorkspaceModel};
use crate::source::SourceFile;
use crate::violation::{ChainLink, LintViolation};

mod alloc_reach;
mod determinism_taint;
mod float_eq;
mod panic_reach;
mod recorder_gate;
mod schema_const;

pub use alloc_reach::AllocReachability;
pub use determinism_taint::DeterminismTaint;
pub use float_eq::NoFloatEq;
pub use panic_reach::PanicReachability;
pub use recorder_gate::RecorderGate;
pub use schema_const::JsonlSchemaConst;

/// A single lint rule.
pub trait Rule {
    /// The rule's id (stable, kebab-case via `RuleId::as_str`).
    fn id(&self) -> crate::violation::RuleId;
    /// Checks one file, pushing findings into `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<LintViolation>);
}

/// An interprocedural rule: sees the whole workspace call graph (pass 2).
pub trait WorkspaceRule {
    /// The rule's id (stable, kebab-case via `RuleId::as_str`).
    fn id(&self) -> crate::violation::RuleId;
    /// Checks the workspace model, pushing findings into `out`.
    fn check(&self, model: &WorkspaceModel<'_>, out: &mut Vec<LintViolation>);
}

/// Every active per-file rule, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoFloatEq),
        Box::new(RecorderGate),
        Box::new(JsonlSchemaConst),
    ]
}

/// Every active interprocedural rule, in report order.
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(PanicReachability),
        Box::new(AllocReachability),
        Box::new(DeterminismTaint),
    ]
}

/// Library crates whose non-test code must not panic: their roots deny
/// clippy's `unwrap_used`, `expect_used` and `panic`, and their `pub` fns
/// are `panic-reachability`'s exposure points. The CLI and bench crates
/// are binaries — they may abort on bad input.
pub const LIB_CRATES: &[&str] = &[
    "timeseries",
    "sax",
    "sequitur",
    "hilbert",
    "datasets",
    "discord",
    "core",
    "obs",
    "check",
    "lint",
    "grammarviz",
];

/// Crates whose outputs feed user-visible results — anomaly reports,
/// grammars, invariants — and must therefore be deterministic
/// (`determinism-taint`).
pub const RESULT_CRATES: &[&str] = &[
    "sax",
    "sequitur",
    "discord",
    "core",
    "check",
    "lint",
    "grammarviz",
];

/// Emits one violation at token index `i` of `file`.
pub(crate) fn violation_at(
    file: &SourceFile,
    rule: crate::violation::RuleId,
    i: usize,
    message: String,
) -> LintViolation {
    let t = file.tokens()[i];
    LintViolation {
        rule,
        file: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        message,
        chain: Vec::new(),
    }
}

/// Is token `i` a method-call receiver position: `.` `name` `(`?
pub(crate) fn is_method_call(file: &SourceFile, i: usize, name: &str) -> bool {
    let tokens = file.tokens();
    file.tok_text(i) == name
        && i > 0
        && file.tok_text(i - 1) == "."
        && i + 1 < tokens.len()
        && matches!(file.tok_text(i + 1), "(" | "::")
}

/// How a call site reads in a diagnostic: `.unwrap()`, `panic!`,
/// `` `[]` indexing ``, `helper()`.
pub(crate) fn describe_site(s: &CallSite) -> String {
    match s.kind {
        CallKind::Index => "`[]` indexing".to_string(),
        CallKind::Macro => format!("`{}!`", s.name),
        CallKind::Method { .. } => format!("`.{}()`", s.name),
        CallKind::Plain | CallKind::Path => format!("`{}()`", s.name),
    }
}

/// Renders a site-index path as displayable chain links.
pub(crate) fn chain_links(m: &WorkspaceModel<'_>, sites: &[usize]) -> Vec<ChainLink> {
    sites
        .iter()
        .map(|&sidx| {
            let s = &m.sites[sidx];
            ChainLink {
                file: m.files[s.file].rel_path.clone(),
                line: s.line,
                note: format!(
                    "`{}` calls {}",
                    m.fns[s.caller].qualified_name(),
                    describe_site(s)
                ),
            }
        })
        .collect()
}
