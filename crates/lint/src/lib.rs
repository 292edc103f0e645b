#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # gv-lint — project-specific static analysis
//!
//! A dependency-free Rust source analyzer that encodes this workspace's
//! *contracts* as machine-checked rules: the determinism guarantees of the
//! parallel RRA search (PR 3), the zero-overhead observability gates
//! (PRs 1–2), the allocation-free steady state behind the paper's
//! linear-time claim (Senin et al., EDBT 2015, §5), and the typed-error
//! discipline of the invariant work (PR 4).
//!
//! The analyzer is lexical by design: a hand-rolled, comment/string/
//! attribute-aware [`lexer`] (no `syn`, per the vendored-shims policy)
//! feeds a [`rules`] engine that walks the workspace and reports typed
//! [`LintViolation`]s with `file:line:col` spans. Suppression is always
//! written down: inline `// gv-lint: allow(rule-id) reason` directives or
//! a checked-in `lint.toml` baseline — and both rot loudly (unused allows
//! and stale baseline entries are themselves violations).
//!
//! Run it as `cargo run -p gv-lint` (the `gv_lint` binary, also the CI
//! gate); `-- --prune-baseline` drops stale `lint.toml` entries. The
//! crate lints itself: `crates/lint` is walked like any other library
//! crate.
//!
//! ```
//! use gv_lint::{FileKind, SourceFile};
//!
//! let src = "fn f(v: &[i32]) -> i32 { *v.first().unwrap() }\n".to_string();
//! let file = SourceFile::analyze("crates/core/src/x.rs", "core", FileKind::LibSrc, src);
//! let mut findings = Vec::new();
//! for rule in gv_lint::rules::all_rules() {
//!     rule.check(&file, &mut findings);
//! }
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.as_str(), "no-unwrap-in-lib");
//! ```

pub mod baseline;
pub mod callgraph;
pub mod effects;
pub mod engine;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod violation;

pub use baseline::Baseline;
pub use engine::{classify, find_workspace_root, run, run_full, EngineError, LintReport};
pub use source::{FileKind, SourceFile};
pub use violation::{ChainLink, LintViolation, RuleId, ALL_RULES};
