//! `determinism-taint` — nondeterministic values on result paths.
//!
//! The RRA guarantee (PAPER.md §5) is a deterministic, total visit order:
//! the same series and parameters must rank the same discords, bit for
//! bit, on any thread count. Clippy's `disallowed_methods` and
//! `disallowed_types` police the *sources* where they are written — but
//! a wall-clock reading taken where it is sanctioned and *returned* into
//! `core` is invisible to them, and `thread::current` is on neither list.
//! This rule follows the value: a nondeterministic source
//! (`Instant::now`, `thread::current`, armed `HashMap` iteration) whose
//! result is **consumed** (let-bound, assigned, returned, or in tail
//! position), connected through consumed, ungated calls to a function on
//! a result-producing path (a `RESULT_CRATES` library fn reachable from a
//! detector or CLI entry), is reported at the source with the flow chain
//! attached.
//!
//! Gated code is exempt: any site past a recorder gate check
//! (`detail`/`enabled`) in its body is considered observability-only and
//! never taints.

use crate::callgraph::{CallSite, WorkspaceModel};
use crate::rules::{chain_links, describe_site, WorkspaceRule, RESULT_CRATES};
use crate::source::FileKind;
use crate::violation::{LintViolation, RuleId};

/// See the module docs for the rule's semantics.
pub struct DeterminismTaint;

impl WorkspaceRule for DeterminismTaint {
    fn id(&self) -> RuleId {
        RuleId::DeterminismTaint
    }

    fn check(&self, m: &WorkspaceModel<'_>, out: &mut Vec<LintViolation>) {
        let call_ok = |s: &CallSite| !s.test;
        // Taint only flows through calls whose value is used and that sit
        // outside a recorder gate.
        let flow_ok = |s: &CallSite| !s.test && s.consumed && !s.gated;
        let from_roots = m.reachable(&m.roots(), &call_ok);
        // Anchor on the *public* result surface: the diagnostic names the
        // entry point whose output the taint corrupts, not whichever
        // private helper happens to sit closest to the source.
        let result_fns: Vec<usize> = (0..m.fns.len())
            .filter(|&i| {
                let f = &m.fns[i];
                from_roots[i]
                    && !f.is_test
                    && f.effectively_public()
                    && RESULT_CRATES.contains(&m.crate_of(f))
                    && m.files[f.file].kind == FileKind::LibSrc
            })
            .collect();
        for (sidx, s) in m.sites.iter().enumerate() {
            if !s.externs.nondet || s.test || s.gated || !s.consumed {
                continue;
            }
            let Some(chain) = m.chain_to(&result_fns, sidx, &flow_ok) else {
                continue;
            };
            let entry = m.fns[m.sites[chain[0]].caller].qualified_name();
            out.push(LintViolation {
                rule: self.id(),
                file: m.files[s.file].rel_path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "nondeterministic value from {} flows into result-producing `{}` \
                     ({} hop(s))",
                    describe_site(s),
                    entry,
                    chain.len()
                ),
                chain: chain_links(m, &chain),
            });
        }
    }
}
