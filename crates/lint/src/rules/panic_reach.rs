//! `panic-reachability` — interprocedural panic-path detection.
//!
//! Clippy's `unwrap_used`, `expect_used` and `panic`, denied at every
//! library crate root, flag a panic where it is written. This rule
//! closes their blind spot: a `pub` library function that *calls a
//! private helper* that panics is just as much a panic in a user's face,
//! and the rule also sees the panic sites no clippy lint names
//! (`assert!`, `unreachable!`, `println!`, …). Pass 2
//! walks the call graph: every `pub` library fn reachable from a
//! `Detector::detect` impl, `StreamingDetector::push`, or a CLI entry is
//! an exposure point; any hard-panic site (`unwrap`/`expect`/`panic!`
//! family) transitively reachable from one is reported *at the panic
//! source*, with the full call chain attached so the diagnostic reads as
//! a path, not a point.
//!
//! `[]`-indexing panics are modeled in the effect table but deliberately
//! not reported here: bounds-checked slice indexing is the idiom of every
//! numeric kernel in this workspace, and flagging each one would bury the
//! real signal (the hard-panic sites) in hundreds of allows.
//!
//! Suppression: an inline allow for this rule on the source line *or any
//! chain link* (engine-side), plus carry-over — a site already excused by
//! `#[expect(clippy::…, reason = "…")]` keeps that one written reason.
//! The expectation must name the lint for the site's own spelling
//! (`unwrap_used` for `.unwrap()`, `expect_used` for `.expect()`,
//! `panic` for `panic!`), and its item must cover the site's line: an
//! `expect_used` on a statement does not excuse an `unreachable!` in it.

use crate::callgraph::{CallKind, CallSite, WorkspaceModel};
use crate::rules::{chain_links, describe_site, WorkspaceRule, LIB_CRATES};
use crate::source::FileKind;
use crate::violation::{LintViolation, RuleId};

/// See the module docs for the rule's semantics.
pub struct PanicReachability;

impl WorkspaceRule for PanicReachability {
    fn id(&self) -> RuleId {
        RuleId::PanicReachability
    }

    fn check(&self, m: &WorkspaceModel<'_>, out: &mut Vec<LintViolation>) {
        let site_ok = |s: &CallSite| !s.test;
        let from_roots = m.reachable(&m.roots(), &site_ok);
        // Exposure points: pub library fns on a detector/CLI path.
        let entries: Vec<usize> = (0..m.fns.len())
            .filter(|&i| {
                let f = &m.fns[i];
                from_roots[i]
                    && !f.is_test
                    && f.body.is_some()
                    && f.effectively_public()
                    && LIB_CRATES.contains(&m.crate_of(f))
                    && m.files[f.file].kind == FileKind::LibSrc
            })
            .collect();
        let exposed = m.reachable(&entries, &site_ok);
        for (sidx, s) in m.sites.iter().enumerate() {
            if !s.externs.panic || s.test || !exposed[s.caller] {
                continue;
            }
            if expected_by_clippy(m, s) {
                continue;
            }
            let Some(chain) = m.chain_to(&entries, sidx, &site_ok) else {
                continue;
            };
            let entry = m.fns[m.sites[chain[0]].caller].qualified_name();
            out.push(LintViolation {
                rule: self.id(),
                file: m.files[s.file].rel_path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "{} can panic and is reachable from pub `{}` on a detector/CLI path \
                     ({} call(s) deep)",
                    describe_site(s),
                    entry,
                    chain.len()
                ),
                chain: chain_links(m, &chain),
            });
        }
    }
}

/// Is the panic at site `s` already excused by a `#[expect(clippy::…)]`
/// naming the lint for its spelling, on an item that covers its line?
fn expected_by_clippy(m: &WorkspaceModel<'_>, s: &CallSite) -> bool {
    let lint = match (s.kind, s.name.as_str()) {
        (CallKind::Method { .. }, "unwrap") => "unwrap_used",
        (CallKind::Method { .. }, "expect") => "expect_used",
        (CallKind::Macro, "panic") => "panic",
        _ => return false,
    };
    m.files[s.file].expects_clippy(lint, s.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    /// Lines the rule reports in `body`, the body of a `pub fn rank` on
    /// a detector path (line 1 of `body` is line 5 of the file).
    fn reported_lines(body: &str) -> Vec<u32> {
        let src = format!(
            "pub trait Detector {{ fn detect(&self, d: &[u32]) -> u32; }}\n\
             pub struct D;\n\
             impl Detector for D {{ fn detect(&self, d: &[u32]) -> u32 {{ rank(d) }} }}\n\
             pub fn rank(d: &[u32]) -> u32 {{\n{body}}}\n"
        );
        let files = [SourceFile::analyze(
            "crates/core/src/lib.rs",
            "core",
            FileKind::LibSrc,
            src,
        )];
        let mut out = Vec::new();
        PanicReachability.check(&WorkspaceModel::build(&files), &mut out);
        out.iter().map(|v| v.line).collect()
    }

    #[test]
    fn expect_used_does_not_sanction_other_panics_in_its_item() {
        let body = concat!(
            "    let first = match d.first() {\n",
            "        Some(&x) if x > 0 => Some(x).expect(\"positive\"),\n",
            "        Some(_) => panic!(\"zero\"),\n",
            "        None => unreachable!(\"empty\"),\n",
            "    };\n",
            "    first\n",
        );
        // Unsanctioned: the `.expect()`, `panic!` and `unreachable!`.
        assert_eq!(reported_lines(body), vec![6, 7, 8]);
        // An `expect_used` expectation on the statement excuses only the
        // `.expect()`; `panic!` and `unreachable!` need their own reasons.
        let sanctioned =
            format!("    #[expect(clippy::expect_used, reason = \"x > 0 makes Some\")]\n{body}");
        assert_eq!(reported_lines(&sanctioned), vec![8, 9]);
    }
}
