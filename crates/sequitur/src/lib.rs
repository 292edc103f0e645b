//! # gv-sequitur
//!
//! Linear-time Sequitur grammar induction (Nevill-Manning & Witten, 1997)
//! over integer token streams — the grammar stage of the EDBT'15 pipeline
//! (paper §3.3–3.5).
//!
//! Sequitur builds a context-free grammar incrementally while maintaining
//! two invariants:
//!
//! * **digram uniqueness** — no pair of adjacent symbols appears more than
//!   once in the grammar; a repeated digram is replaced by a non-terminal;
//! * **rule utility** — every rule (except the start rule `R0`) is used at
//!   least twice; an under-used rule is inlined and deleted.
//!
//! The induced [`Grammar`] exposes rule right-hand sides, expansion to
//! terminals, and the **derivation walk** that locates every occurrence of
//! every rule inside the input — the information the rule-density curve and
//! the RRA discord search consume.
//!
//! ```
//! use gv_sequitur::{Sequitur, Symbol};
//!
//! // abcabc → R0: R1 R1, R1: a b c
//! let grammar = Sequitur::induce([0u32, 1, 2, 0, 1, 2]);
//! assert_eq!(grammar.num_rules(), 2);
//! assert_eq!(grammar.expand_rule(grammar.r0_id()), vec![0, 1, 2, 0, 1, 2]);
//! let r0 = grammar.rule(grammar.r0_id());
//! assert_eq!(r0.rhs.len(), 2);
//! assert!(matches!(r0.rhs[0], Symbol::Rule(_)));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod dot;
mod grammar;
mod induction;

pub use dot::to_dot;
pub use grammar::{
    Grammar, GrammarRule, Invariant, InvariantViolation, RuleId, RuleOccurrence, Symbol,
};
pub use induction::{GrammarEvent, InductionStats, Sequitur};
