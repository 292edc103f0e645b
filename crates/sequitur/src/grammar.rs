//! The immutable grammar produced by Sequitur, with expansion and
//! occurrence mapping.

#[expect(
    clippy::disallowed_types,
    reason = "HashMap is imported only for the lookup-only rule index"
)]
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a grammar rule. `RuleId(0)` is always the start rule `R0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A symbol on a rule's right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Symbol {
    /// A terminal token (a SAX word id in the anomaly pipeline).
    Terminal(u32),
    /// A reference to another rule.
    Rule(RuleId),
}

/// One grammar rule: `id → rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrammarRule {
    /// The rule's identifier (dense; `RuleId(0)` = `R0`).
    pub id: RuleId,
    /// Right-hand side symbols.
    pub rhs: Vec<Symbol>,
    /// How many times the rule is referenced by other rules' right-hand
    /// sides (Sequitur's *utility* guarantees ≥ 2 for every rule but `R0`).
    pub rule_uses: usize,
}

/// One occurrence of a rule inside the input token stream, located by the
/// derivation walk: the rule's expansion covers input tokens
/// `[token_start, token_start + token_len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleOccurrence {
    /// Which rule occurred.
    pub rule: RuleId,
    /// First input-token index covered by this occurrence.
    pub token_start: usize,
    /// Number of input tokens covered (the rule's expansion length).
    pub token_len: usize,
}

/// The Sequitur invariants (paper §3; Nevill-Manning & Witten) that
/// [`Grammar::check_invariants`] verifies mechanically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Invariant {
    /// `R0` must expand exactly to the original input token sequence.
    RoundTrip,
    /// *Rule utility*: every rule but `R0` is referenced at least twice,
    /// and the recorded use count matches a recount of the right-hand
    /// sides.
    RuleUtility,
    /// Every rule body but `R0`'s has at least two symbols (a shorter body
    /// would compress nothing).
    BodyLength,
    /// *Digram uniqueness*: no adjacent symbol pair occurs twice across
    /// all right-hand sides (overlapping runs like `a a a` count once).
    DigramUniqueness,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::RoundTrip => "round-trip",
            Invariant::RuleUtility => "rule utility",
            Invariant::BodyLength => "body length",
            Invariant::DigramUniqueness => "digram uniqueness",
        };
        f.write_str(name)
    }
}

/// One violated invariant: which property failed, the offending rule (when
/// the violation is attributable to one), and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The violated property.
    pub invariant: Invariant,
    /// The offending rule, when attributable.
    pub rule: Option<RuleId>,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rule {
            Some(rule) => write!(f, "{} ({rule}): {}", self.invariant, self.detail),
            None => write!(f, "{}: {}", self.invariant, self.detail),
        }
    }
}

/// An induced context-free grammar: the start rule `R0` plus the hierarchy
/// of reusable rules.
#[derive(Debug, Clone)]
pub struct Grammar {
    rules: Vec<GrammarRule>,
    /// id → dense index into `rules` (ids are dense post-`finish`, but keep
    /// the map so the representation tolerates sparse ids).
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only id->slot index; never iterated"
    )]
    index: HashMap<RuleId, usize>,
    /// Memoized expansion length (in terminals) per rule, same order as
    /// `rules`.
    expansion_len: Vec<usize>,
    input_len: usize,
}

impl Grammar {
    /// Assembles a grammar from extracted rules. Intended for
    /// [`crate::Sequitur::finish`] and for hand-built grammars in tests.
    ///
    /// # Panics
    /// Panics when no rule is supplied, rule ids collide, or a right-hand
    /// side references an unknown rule (these indicate an induction bug,
    /// not a user error).
    pub fn from_rules(rules: Vec<GrammarRule>, input_len: usize) -> Self {
        // gv-lint: allow(panic-reachability) validation is this constructor's contract: a ruleless grammar is an induction bug, not user error
        assert!(!rules.is_empty(), "a grammar needs at least R0");
        #[expect(
            clippy::disallowed_types,
            reason = "populates the lookup-only index above"
        )]
        let mut index = HashMap::with_capacity(rules.len());
        for (i, r) in rules.iter().enumerate() {
            let dup = index.insert(r.id, i);
            // gv-lint: allow(panic-reachability) validation is this constructor's contract: a duplicate rule id is an induction bug, not user error
            assert!(dup.is_none(), "duplicate rule id {}", r.id);
        }
        let mut g = Self {
            rules,
            index,
            expansion_len: Vec::new(),
            input_len,
        };
        g.expansion_len = g.compute_expansion_lens();
        g
    }

    /// The start rule's id.
    pub fn r0_id(&self) -> RuleId {
        self.rules[0].id
    }

    /// Number of rules including `R0`.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of terminals in the original input.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Looks a rule up by id.
    ///
    /// # Panics
    /// Panics on an unknown id (grammar ids are handed out by the grammar
    /// itself, so an unknown id is a caller bug).
    pub fn rule(&self, id: RuleId) -> &GrammarRule {
        &self.rules[self.index[&id]]
    }

    /// Iterates all rules, `R0` first.
    pub fn rules(&self) -> impl Iterator<Item = &GrammarRule> {
        self.rules.iter()
    }

    /// Expansion length (terminal count) of a rule.
    pub fn expansion_len(&self, id: RuleId) -> usize {
        self.expansion_len[self.index[&id]]
    }

    /// Grammar size: total number of symbols on all right-hand sides.
    /// The measure plotted on Figure 10's y-axis.
    pub fn grammar_size(&self) -> usize {
        self.rules.iter().map(|r| r.rhs.len()).sum()
    }

    /// Fully expands a rule to its terminal tokens.
    pub fn expand_rule(&self, id: RuleId) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.expansion_len(id));
        // Explicit stack of (rule index, rhs position) avoids recursion.
        let mut stack: Vec<(usize, usize)> = vec![(self.index[&id], 0)];
        while let Some((ri, pos)) = stack.pop() {
            let rhs = &self.rules[ri].rhs;
            let mut p = pos;
            while p < rhs.len() {
                match rhs[p] {
                    Symbol::Terminal(t) => {
                        out.push(t);
                        p += 1;
                    }
                    Symbol::Rule(r) => {
                        stack.push((ri, p + 1));
                        stack.push((self.index[&r], 0));
                        break;
                    }
                }
            }
        }
        out
    }

    /// Derivation walk (paper §3.4/§4.1): every occurrence of every rule
    /// except `R0` in the input, with its token span. Nested uses are
    /// reported at every level, which is exactly what the rule-density
    /// curve counts.
    ///
    /// Occurrences are emitted in depth-first input order.
    pub fn occurrences(&self) -> Vec<RuleOccurrence> {
        let mut out = Vec::new();
        // (rule index, rhs position, token cursor at rhs position)
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        let mut cursor_stack: Vec<usize> = vec![0];
        while let Some((ri, pos)) = stack.pop() {
            #[expect(
                clippy::expect_used,
                reason = "cursor_stack is pushed/popped in lockstep with stack; desync is a bug, not an input error"
            )]
            let mut cursor = cursor_stack.pop().expect("cursor stack in sync");
            let rhs = &self.rules[ri].rhs;
            let mut p = pos;
            while p < rhs.len() {
                match rhs[p] {
                    Symbol::Terminal(_) => {
                        cursor += 1;
                        p += 1;
                    }
                    Symbol::Rule(r) => {
                        let sub = self.index[&r];
                        let len = self.expansion_len[sub];
                        out.push(RuleOccurrence {
                            rule: r,
                            token_start: cursor,
                            token_len: len,
                        });
                        // Resume parent after the sub-rule's span.
                        stack.push((ri, p + 1));
                        cursor_stack.push(cursor + len);
                        // Descend.
                        stack.push((sub, 0));
                        cursor_stack.push(cursor);
                        break;
                    }
                }
            }
        }
        out
    }

    /// Occurrence counts per rule (index by [`RuleId`] via
    /// [`Grammar::rule`]'s id): how many times each rule's expansion occurs
    /// in the input. `R0` is reported as occurring once.
    pub fn occurrence_counts(&self) -> BTreeMap<RuleId, usize> {
        let mut counts: BTreeMap<RuleId, usize> = BTreeMap::new();
        counts.insert(self.r0_id(), 1);
        for occ in self.occurrences() {
            *counts.entry(occ.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Verifies the Sequitur invariants plus expansion consistency against
    /// the original input. Returns a human-readable violation description,
    /// or `None` when everything holds. Used heavily by tests.
    ///
    /// Checks:
    /// 1. `R0` expands exactly to `input`;
    /// 2. *utility*: every non-`R0` rule is referenced ≥ 2 times, and the
    ///    reference counts match a recount of the right-hand sides;
    /// 3. every non-`R0` rule body has ≥ 2 symbols;
    /// 4. *digram uniqueness*: no adjacent symbol pair occurs twice across
    ///    all right-hand sides (overlapping runs like `a a a` count once).
    pub fn verify(&self, input: &[u32]) -> Option<String> {
        self.check_invariants(input).first().map(|v| v.to_string())
    }

    /// Checks every Sequitur invariant, collecting **all** violations
    /// instead of stopping at the first (the structured sibling of
    /// [`Grammar::verify`], used by the `gv-check` subsystem).
    pub fn check_invariants(&self, input: &[u32]) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        // 1. Round-trip.
        let expanded = self.expand_rule(self.r0_id());
        if expanded != input {
            let detail = match expanded.iter().zip(input).position(|(a, b)| a != b) {
                Some(at) => format!(
                    "R0 expansion differs from input at token {at} \
                     ({} vs {})",
                    expanded[at], input[at]
                ),
                None => format!(
                    "R0 expansion (len {}) differs from input (len {})",
                    expanded.len(),
                    input.len()
                ),
            };
            out.push(InvariantViolation {
                invariant: Invariant::RoundTrip,
                rule: Some(self.r0_id()),
                detail,
            });
        }
        // 2. Utility + recount.
        let mut recount: BTreeMap<RuleId, usize> = BTreeMap::new();
        for r in &self.rules {
            for s in &r.rhs {
                if let Symbol::Rule(id) = s {
                    *recount.entry(*id).or_insert(0) += 1;
                }
            }
        }
        for r in &self.rules {
            if r.id == self.r0_id() {
                continue;
            }
            let actual = recount.get(&r.id).copied().unwrap_or(0);
            if actual != r.rule_uses {
                out.push(InvariantViolation {
                    invariant: Invariant::RuleUtility,
                    rule: Some(r.id),
                    detail: format!("recorded uses {} != recounted {actual}", r.rule_uses),
                });
            } else if actual < 2 {
                out.push(InvariantViolation {
                    invariant: Invariant::RuleUtility,
                    rule: Some(r.id),
                    detail: format!("utility violated (used {actual} time)"),
                });
            }
            // 3. Body length.
            if r.rhs.len() < 2 {
                out.push(InvariantViolation {
                    invariant: Invariant::BodyLength,
                    rule: Some(r.id),
                    detail: format!("body has {} symbol(s)", r.rhs.len()),
                });
            }
        }
        // 4. Digram uniqueness.
        let mut seen: BTreeMap<(Symbol, Symbol), (RuleId, usize)> = BTreeMap::new();
        for r in &self.rules {
            let mut i = 0;
            while i + 1 < r.rhs.len() {
                let key = (r.rhs[i], r.rhs[i + 1]);
                if let Some(&(rid, at)) = seen.get(&key) {
                    // Overlapping occurrence inside a run (e.g. `a a a`)
                    // counts as one digram, mirroring the algorithm.
                    if !(rid == r.id && at + 1 == i) {
                        out.push(InvariantViolation {
                            invariant: Invariant::DigramUniqueness,
                            rule: Some(r.id),
                            detail: format!("digram {key:?} appears in {rid} at {at} and at {i}"),
                        });
                    }
                }
                seen.insert(key, (r.id, i));
                if i + 2 < r.rhs.len() && r.rhs[i] == r.rhs[i + 1] && r.rhs[i + 1] == r.rhs[i + 2] {
                    // Skip the overlapping middle digram of a triple.
                    i += 1;
                }
                i += 1;
            }
        }
        out
    }

    fn compute_expansion_lens(&self) -> Vec<usize> {
        let mut lens = vec![usize::MAX; self.rules.len()];
        // Iterative post-order DFS with a visiting marker to catch cycles.
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            White,
            Gray,
            Black,
        }
        let mut state = vec![State::White; self.rules.len()];
        for root in 0..self.rules.len() {
            if state[root] == State::Black {
                continue;
            }
            let mut stack = vec![(root, false)];
            while let Some((ri, returning)) = stack.pop() {
                if returning {
                    let mut total = 0usize;
                    for s in &self.rules[ri].rhs {
                        total += match s {
                            Symbol::Terminal(_) => 1,
                            Symbol::Rule(r) => lens[self.index[r]],
                        };
                    }
                    lens[ri] = total;
                    state[ri] = State::Black;
                    continue;
                }
                if state[ri] == State::Black {
                    continue;
                }
                // gv-lint: allow(panic-reachability) cycle detection is validation's purpose: a cyclic grammar is an induction bug, not user error
                assert!(
                    state[ri] == State::White,
                    "cycle through rule {}",
                    self.rules[ri].id
                );
                state[ri] = State::Gray;
                stack.push((ri, true));
                for s in &self.rules[ri].rhs {
                    if let Symbol::Rule(r) = s {
                        #[expect(
                            clippy::panic,
                            reason = "validate() exists to panic on malformed grammars; a dangling rule id is exactly what it reports"
                        )]
                        let ci = *self
                            .index
                            .get(r)
                            .unwrap_or_else(|| panic!("rule {r} referenced but not defined"));
                        if state[ci] == State::White {
                            stack.push((ci, false));
                        } else {
                            // gv-lint: allow(panic-reachability) cycle detection is validation's purpose: a cyclic grammar is an induction bug, not user error
                            assert!(
                                state[ci] == State::Black,
                                "cycle through rule {}",
                                self.rules[ci].id
                            );
                        }
                    }
                }
            }
        }
        lens
    }
}

impl fmt::Display for Grammar {
    /// Renders the grammar in the paper's tabular style:
    /// `R1 -> sym sym …` one rule per line, `R0` first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            write!(f, "{} ->", r.id)?;
            for s in &r.rhs {
                match s {
                    Symbol::Terminal(t) => write!(f, " t{t}")?,
                    Symbol::Rule(id) => write!(f, " {id}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// R0 → R1 t2 R1 ; R1 → t0 t0 t1 — the paper's §3 example with
    /// {abc→0, cba→1, xxx→2} (flattened: R1 contains R2 inline here).
    fn paper_grammar() -> Grammar {
        Grammar::from_rules(
            vec![
                GrammarRule {
                    id: RuleId(0),
                    rhs: vec![
                        Symbol::Rule(RuleId(1)),
                        Symbol::Terminal(2),
                        Symbol::Rule(RuleId(1)),
                    ],
                    rule_uses: 0,
                },
                GrammarRule {
                    id: RuleId(1),
                    rhs: vec![
                        Symbol::Terminal(0),
                        Symbol::Terminal(0),
                        Symbol::Terminal(1),
                    ],
                    rule_uses: 2,
                },
            ],
            7,
        )
    }

    #[test]
    fn expansion_and_lengths() {
        let g = paper_grammar();
        assert_eq!(g.expand_rule(RuleId(0)), vec![0, 0, 1, 2, 0, 0, 1]);
        assert_eq!(g.expand_rule(RuleId(1)), vec![0, 0, 1]);
        assert_eq!(g.expansion_len(RuleId(0)), 7);
        assert_eq!(g.expansion_len(RuleId(1)), 3);
        assert_eq!(g.grammar_size(), 6);
        assert_eq!(g.num_rules(), 2);
        assert_eq!(g.input_len(), 7);
    }

    #[test]
    fn occurrences_cover_both_uses() {
        let g = paper_grammar();
        let occs = g.occurrences();
        assert_eq!(occs.len(), 2);
        assert_eq!(
            occs[0],
            RuleOccurrence {
                rule: RuleId(1),
                token_start: 0,
                token_len: 3
            }
        );
        assert_eq!(
            occs[1],
            RuleOccurrence {
                rule: RuleId(1),
                token_start: 4,
                token_len: 3
            }
        );
        let counts = g.occurrence_counts();
        assert_eq!(counts[&RuleId(1)], 2);
        assert_eq!(counts[&RuleId(0)], 1);
    }

    #[test]
    fn nested_occurrences_reported_at_every_level() {
        // R0 → R1 R1 ; R1 → R2 t9 ; R2 → t5 t6.
        let g = Grammar::from_rules(
            vec![
                GrammarRule {
                    id: RuleId(0),
                    rhs: vec![Symbol::Rule(RuleId(1)), Symbol::Rule(RuleId(1))],
                    rule_uses: 0,
                },
                GrammarRule {
                    id: RuleId(1),
                    rhs: vec![Symbol::Rule(RuleId(2)), Symbol::Terminal(9)],
                    rule_uses: 2,
                },
                GrammarRule {
                    id: RuleId(2),
                    rhs: vec![Symbol::Terminal(5), Symbol::Terminal(6)],
                    rule_uses: 2,
                },
            ],
            6,
        );
        assert_eq!(g.expand_rule(RuleId(0)), vec![5, 6, 9, 5, 6, 9]);
        let occs = g.occurrences();
        // R1 at 0 and 3; R2 at 0 and 3 (nested inside each R1).
        assert_eq!(occs.len(), 4);
        let r1: Vec<_> = occs
            .iter()
            .filter(|o| o.rule == RuleId(1))
            .map(|o| o.token_start)
            .collect();
        let r2: Vec<_> = occs
            .iter()
            .filter(|o| o.rule == RuleId(2))
            .map(|o| o.token_start)
            .collect();
        assert_eq!(r1, vec![0, 3]);
        assert_eq!(r2, vec![0, 3]);
        // Depth-first input order: R1@0, R2@0, R1@3, R2@3.
        assert_eq!(occs[0].rule, RuleId(1));
        assert_eq!(occs[1].rule, RuleId(2));
    }

    #[test]
    fn verify_accepts_good_grammar() {
        let g = paper_grammar();
        assert_eq!(g.verify(&[0, 0, 1, 2, 0, 0, 1]), None);
    }

    #[test]
    fn verify_catches_roundtrip_mismatch() {
        let g = paper_grammar();
        assert!(g.verify(&[0, 0, 1, 2, 0, 0, 9]).is_some());
    }

    #[test]
    fn check_invariants_collects_every_violation() {
        // A grammar with an under-used rule AND a duplicate digram: the
        // structured checker reports both, while `verify` reports the
        // first.
        let g = Grammar::from_rules(
            vec![
                GrammarRule {
                    id: RuleId(0),
                    rhs: vec![
                        Symbol::Rule(RuleId(1)),
                        Symbol::Terminal(7),
                        Symbol::Terminal(8),
                        Symbol::Terminal(7),
                        Symbol::Terminal(8),
                    ],
                    rule_uses: 0,
                },
                GrammarRule {
                    id: RuleId(1),
                    rhs: vec![Symbol::Terminal(1), Symbol::Terminal(2)],
                    rule_uses: 1,
                },
            ],
            7,
        );
        let violations = g.check_invariants(&[1, 2, 7, 8, 7, 9]);
        assert!(violations
            .iter()
            .any(|v| v.invariant == Invariant::RoundTrip));
        assert!(violations
            .iter()
            .any(|v| v.invariant == Invariant::RuleUtility && v.rule == Some(RuleId(1))));
        assert!(violations
            .iter()
            .any(|v| v.invariant == Invariant::DigramUniqueness));
        assert!(violations.len() >= 3);
        // Display carries the invariant name and rule.
        let text = violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("rule utility (R1)"), "{text}");
        // `verify` is the first violation, stringified.
        assert_eq!(
            g.verify(&[1, 2, 7, 8, 7, 9]),
            Some(violations[0].to_string())
        );
    }

    #[test]
    fn check_invariants_clean_on_good_grammar() {
        let g = paper_grammar();
        assert!(g.check_invariants(&[0, 0, 1, 2, 0, 0, 1]).is_empty());
    }

    #[test]
    fn verify_catches_utility_violation() {
        let g = Grammar::from_rules(
            vec![
                GrammarRule {
                    id: RuleId(0),
                    rhs: vec![Symbol::Rule(RuleId(1)), Symbol::Terminal(7)],
                    rule_uses: 0,
                },
                GrammarRule {
                    id: RuleId(1),
                    rhs: vec![Symbol::Terminal(1), Symbol::Terminal(2)],
                    rule_uses: 1,
                },
            ],
            3,
        );
        let msg = g.verify(&[1, 2, 7]).unwrap();
        assert!(msg.contains("utility"), "{msg}");
    }

    #[test]
    fn verify_catches_duplicate_digram() {
        let g = Grammar::from_rules(
            vec![GrammarRule {
                id: RuleId(0),
                rhs: vec![
                    Symbol::Terminal(1),
                    Symbol::Terminal(2),
                    Symbol::Terminal(3),
                    Symbol::Terminal(1),
                    Symbol::Terminal(2),
                ],
                rule_uses: 0,
            }],
            5,
        );
        let msg = g.verify(&[1, 2, 3, 1, 2]).unwrap();
        assert!(msg.contains("digram"), "{msg}");
    }

    #[test]
    fn verify_allows_triples_overlap() {
        // `a a a` contains digram (a,a) "twice" but only as overlap.
        let g = Grammar::from_rules(
            vec![GrammarRule {
                id: RuleId(0),
                rhs: vec![
                    Symbol::Terminal(0),
                    Symbol::Terminal(0),
                    Symbol::Terminal(0),
                ],
                rule_uses: 0,
            }],
            3,
        );
        assert_eq!(g.verify(&[0, 0, 0]), None);
    }

    #[test]
    #[should_panic(expected = "duplicate rule id")]
    fn duplicate_ids_panic() {
        Grammar::from_rules(
            vec![
                GrammarRule {
                    id: RuleId(0),
                    rhs: vec![],
                    rule_uses: 0,
                },
                GrammarRule {
                    id: RuleId(0),
                    rhs: vec![],
                    rule_uses: 0,
                },
            ],
            0,
        );
    }

    #[test]
    fn display_format() {
        let g = paper_grammar();
        let text = g.to_string();
        assert!(text.contains("R0 -> R1 t2 R1"));
        assert!(text.contains("R1 -> t0 t0 t1"));
    }
}
