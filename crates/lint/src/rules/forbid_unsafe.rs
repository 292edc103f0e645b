//! `forbid-unsafe`: every crate root forbids unsafe code.
//!
//! The workspace is pure safe Rust — even the parallel RRA's shared
//! lower bound is a *safe* `AtomicU64::fetch_max`, so no module currently
//! needs an exception. `#![forbid(unsafe_code)]` at each crate root makes
//! that a compile-time guarantee rather than a habit; this rule makes
//! removing the attribute a CI failure. A root listed in
//! [`DENY_OK_ROOTS`] may carry `#![deny(unsafe_code)]` instead (deny can
//! be overridden item-locally; forbid cannot) — the list is empty today
//! and exists so a future FFI/SIMD module must name itself here.

use super::Rule;
use crate::source::SourceFile;
use crate::violation::{LintViolation, RuleId};

/// Crate roots allowed to downgrade `forbid` to `deny(unsafe_code)`.
pub const DENY_OK_ROOTS: &[&str] = &[];

/// See module docs.
pub struct ForbidUnsafe;

/// Is `rel_path` a crate root the rule applies to?
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || rel_path == "crates/cli/src/main.rs"
        || (rel_path.starts_with("crates/")
            && rel_path.ends_with("/src/lib.rs")
            && rel_path.matches('/').count() == 3)
}

impl Rule for ForbidUnsafe {
    fn id(&self) -> RuleId {
        RuleId::ForbidUnsafe
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<LintViolation>) {
        if !is_crate_root(&file.rel_path) {
            return;
        }
        let tokens = file.tokens();
        let mut found = false;
        for i in 0..tokens.len() {
            let lint = file.tok_text(i);
            let ok_level = lint == "forbid"
                || (lint == "deny" && DENY_OK_ROOTS.contains(&file.rel_path.as_str()));
            if ok_level
                && i + 3 < tokens.len()
                && file.tok_text(i + 1) == "("
                && file.tok_text(i + 2) == "unsafe_code"
                && file.tok_text(i + 3) == ")"
            {
                found = true;
                break;
            }
        }
        if !found {
            out.push(LintViolation {
                rule: self.id(),
                file: file.rel_path.clone(),
                line: 1,
                col: 1,
                message: "crate root lacks `#![forbid(unsafe_code)]` (a safe-code \
                          exception must be named in DENY_OK_ROOTS)"
                    .to_string(),
                chain: Vec::new(),
            });
        }
    }
}
