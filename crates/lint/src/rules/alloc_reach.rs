//! `alloc-reachability` — no allocation in a hot region, direct or
//! behind a call.
//!
//! The steady state is allocation-free (reusable `Workspace` buffers,
//! `capacity_signature()` frozen after warmup); the paper's linear-time
//! claim (§5) depends on the distance kernel, the RRA inner loop and the
//! stream's push path not hitting the allocator per call. Code between
//! `// gv-lint: hot` and `// gv-lint: end-hot` markers is held to that,
//! at every depth:
//!
//! - **Depth 0.** A hot site that allocates by itself, judged by the
//!   effect table ([`crate::effects`]): `vec!`, `format!`, `Box::new`,
//!   `.clone()`, `.collect()`, growth such as `.push()` — including a
//!   call to a workspace method that happens to be named `push`, since
//!   the receiver's type is unknown. The finding has no chain.
//! - **Depth ≥ 1.** A hot call that resolves to a function the backward
//!   effect closure marks as allocating. This is how a per-push `Vec`
//!   growth in the stream once survived review: the hot loop called a
//!   helper, the helper allocated, and the region looked clean. The
//!   finding carries a descent chain down to one concrete allocation
//!   site.
//!
//! Gated sites (behind a `detail`/`enabled` recorder check) are exempt
//! as sources and as hot callers: detailed-mode telemetry buys its
//! allocations knowingly, and the default path never takes the branch.
//! Amortized growth into a retained buffer is sanctioned per site
//! with an inline allow that says why it stays bounded.

use crate::callgraph::{CallSite, WorkspaceModel};
use crate::rules::{chain_links, describe_site, WorkspaceRule};
use crate::violation::{LintViolation, RuleId};
use std::collections::BTreeSet;

/// See the module docs for the rule's semantics.
pub struct AllocReachability;

impl WorkspaceRule for AllocReachability {
    fn id(&self) -> RuleId {
        RuleId::AllocReachability
    }

    fn check(&self, m: &WorkspaceModel<'_>, out: &mut Vec<LintViolation>) {
        let site_ok = |s: &CallSite| !s.test && !s.gated;
        let mut direct = vec![false; m.fns.len()];
        for s in &m.sites {
            if !s.test && !s.gated && s.externs.alloc {
                direct[s.caller] = true;
            }
        }
        let allocy = m.closure(&direct, &site_ok);
        for (sidx, s) in m.sites.iter().enumerate() {
            if !s.hot || s.test || s.gated {
                continue;
            }
            if s.externs.alloc {
                out.push(LintViolation {
                    rule: self.id(),
                    file: m.files[s.file].rel_path.clone(),
                    line: s.line,
                    col: s.col,
                    message: format!("{} allocates inside a hot region", describe_site(s)),
                    chain: Vec::new(),
                });
                continue;
            }
            if !s.callees.iter().any(|&c| allocy[c]) {
                continue;
            }
            let chain = descend_to_alloc(m, sidx, &allocy);
            let sink = chain
                .last()
                .map(|&last| describe_site(&m.sites[last]))
                .unwrap_or_default();
            out.push(LintViolation {
                rule: self.id(),
                file: m.files[s.file].rel_path.clone(),
                line: s.line,
                col: s.col,
                message: format!(
                    "{} inside a hot region transitively allocates (reaches {})",
                    describe_site(s),
                    sink
                ),
                chain: chain_links(m, &chain),
            });
        }
    }
}

/// Walks from the hot site down the alloc closure to one concrete
/// allocation site, first-match at every level so the chain is
/// deterministic. Cycles terminate via the visited set.
fn descend_to_alloc(m: &WorkspaceModel<'_>, start: usize, allocy: &[bool]) -> Vec<usize> {
    let mut chain = vec![start];
    let mut visited = BTreeSet::new();
    let mut cur = match m.sites[start].callees.iter().find(|&&c| allocy[c]) {
        Some(&c) => c,
        None => return chain,
    };
    loop {
        if !visited.insert(cur) {
            break;
        }
        if let Some(&direct) = m.fn_sites[cur]
            .iter()
            .find(|&&x| !m.sites[x].test && !m.sites[x].gated && m.sites[x].externs.alloc)
        {
            chain.push(direct);
            break;
        }
        let mut next = None;
        for &sidx in &m.fn_sites[cur] {
            let s = &m.sites[sidx];
            if s.test || s.gated {
                continue;
            }
            if let Some(&c) = s
                .callees
                .iter()
                .find(|&&c| allocy[c] && !visited.contains(&c))
            {
                chain.push(sidx);
                next = Some(c);
                break;
            }
        }
        match next {
            Some(c) => cur = c,
            None => break,
        }
    }
    chain
}
