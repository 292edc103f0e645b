#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

//! # gv-lint — project-specific static analysis
//!
//! A dependency-free Rust source analyzer for the contracts that rustc
//! and clippy cannot check: the allocation-free steady state behind the
//! paper's linear-time claim (Senin et al., EDBT 2015, §5), the
//! zero-overhead observability gates, the determinism of the parallel
//! RRA search, and the panic-free library surface of the typed-error
//! entry points. What a type-aware lint can do — unsafe code,
//! wall-clock reads, hash containers, `unwrap`/`expect`/`panic!` in
//! library code — is configured in `[workspace.lints]` and `clippy.toml`
//! instead (DESIGN.md §9).
//!
//! It has six rules. Three are per-file and lexical (`no-float-eq`,
//! `recorder-gate`, `jsonl-schema-const`): a hand-rolled, comment/string/
//! attribute-aware [`lexer`] (no `syn`, per the vendored-shims policy)
//! feeds the [`rules`] engine. Three are interprocedural
//! (`panic-reachability`, `alloc-reachability`, `determinism-taint`):
//! they run over a name-resolved [`callgraph`] of the whole workspace.
//! Findings are typed [`LintViolation`]s with `file:line:col` spans.
//! Suppression is always written down, as an inline
//! `// gv-lint: allow(rule-id) reason` directive, and it rots loudly: an
//! allow that suppresses nothing is itself a violation.
//!
//! Run it as `cargo run -p gv-lint` (the `gv_lint` binary, also the CI
//! gate). The crate lints itself: `crates/lint` is walked like any other
//! library crate.
//!
//! ```
//! use gv_lint::{FileKind, SourceFile};
//!
//! let src = "fn f(d: f64) -> bool { d == 0.0 }\n".to_string();
//! let file = SourceFile::analyze("crates/core/src/x.rs", "core", FileKind::LibSrc, src);
//! let mut findings = Vec::new();
//! for rule in gv_lint::rules::all_rules() {
//!     rule.check(&file, &mut findings);
//! }
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.as_str(), "no-float-eq");
//! ```

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

pub use engine::{classify, find_workspace_root, run, EngineError, LintReport};
pub use source::{FileKind, SourceFile};
pub use violation::{ChainLink, LintViolation, RuleId, ALL_RULES};
