//! The incremental Sequitur algorithm.
//!
//! A faithful arena-based port of the classic doubly-linked-list
//! implementation (Nevill-Manning & Witten's `sequitur` C++): symbols live
//! in a slab with `u32` links, rules are circular lists closed by a *guard*
//! node, and a digram hash table maps each adjacent symbol pair to its
//! single allowed location.
//!
//! On top of the classic forward algorithm, every `R0` symbol carries the
//! **token cursor** of the first terminal it derives, and
//! [`Sequitur::for_each_occurrence`] walks the live derivation from those
//! cursors, reporting every rule occurrence's token span without
//! extracting a [`Grammar`] — what an unbounded stream counts its
//! rule-density curve from (paper §7).

#[expect(
    clippy::disallowed_types,
    reason = "imported for the lookup-only digram table below"
)]
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hash::DefaultHasher;

/// Fixed-seed hasher for the digram table. The default `RandomState`
/// seeds per process, which makes `HashMap::capacity()` — and therefore
/// [`Sequitur::capacity_signature`] — vary across runs (tombstone decay
/// and rehash points depend on the hash values). Results never depend on
/// this table's order, but the capacity regression tests must be
/// reproducible, and a keyed hash buys nothing against internal `(Val,
/// Val)` keys.
type DigramHasher = BuildHasherDefault<DefaultHasher>;

use crate::grammar::{Grammar, GrammarRule, RuleId, Symbol};

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

/// Cursor sentinel for symbols inside rule bodies, whose absolute stream
/// position depends on which occurrence derives them.
const UNKNOWN: u64 = u64::MAX;

/// A symbol value inside the working grammar.
///
/// `Guard(r)` is the sentinel closing rule `r`'s circular list; guards never
/// participate in digrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Val {
    Term(u32),
    Rule(u32),
    Guard(u32),
}

impl Val {
    fn is_guard(self) -> bool {
        matches!(self, Val::Guard(_))
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    val: Val,
    /// Absolute token index of the first terminal this symbol derives.
    /// Known (`!= UNKNOWN`) for every symbol in `R0`; `UNKNOWN` inside rule
    /// bodies, where the position depends on the deriving occurrence.
    cursor: u64,
}

#[derive(Debug, Clone)]
struct RuleSlot {
    /// The guard node closing this rule's circular symbol list.
    guard: u32,
    /// How many non-terminal symbols reference this rule.
    uses: u32,
    /// Terminal expansion length of the body. Fixed at creation: every
    /// later rewrite of a body (substitution, inlining) preserves the
    /// expansion it derives.
    exp_len: u64,
    /// Arena indexes of the non-terminal nodes referencing this rule
    /// (`sites.len() == uses`). Lets the utility drain find the surviving
    /// reference of a rule whose use count dropped to one without scanning
    /// the arena.
    sites: Vec<u32>,
    alive: bool,
}

/// Cheap always-on accounting of one induction run: how much rule churn
/// the input caused and how large the digram index grew. Maintained as
/// plain integers alongside operations that already touch the same
/// structures, so there is no "instrumented" variant of the inducer —
/// callers that don't read the stats pay a handful of integer increments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InductionStats {
    /// Rules created, including `R0` and rules later deleted by utility.
    pub rules_created: u64,
    /// Rules deleted by the rule-utility constraint (inlined away).
    pub rules_deleted: u64,
    /// High-water mark of the digram hash table's entry count.
    pub peak_digram_entries: u64,
}

/// Incremental Sequitur inducer over `u32` terminal tokens.
///
/// Feed tokens with [`Sequitur::push`], then call [`Sequitur::finish`]
/// (or use the [`Sequitur::induce`] convenience) to obtain the final
/// immutable [`Grammar`]. Streaming callers read the live occurrence set
/// with [`Sequitur::for_each_occurrence`].
#[derive(Debug)]
pub struct Sequitur {
    nodes: Vec<Node>,
    free: Vec<u32>,
    rules: Vec<RuleSlot>,
    /// Slots of rules inlined by utility, reused (last freed first) by the
    /// next rules created. Extraction numbers rules in slot order, so the
    /// reuse shows in every extracted grammar's rule ids.
    free_rules: Vec<u32>,
    #[expect(
        clippy::disallowed_types,
        reason = "classic Sequitur digram table: probed and mutated by key, never iterated on a result path; fixed-seed hasher keeps capacities reproducible"
    )]
    digrams: HashMap<(Val, Val), u32, DigramHasher>,
    /// Terminals pushed.
    len: usize,
    stats: InductionStats,
    /// Rules whose use count fell to exactly one mid-cascade; drained
    /// (inlined) before control returns to the caller so the utility
    /// invariant holds between public calls.
    pending_utility: Vec<u32>,
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequitur {
    /// Creates an inducer with an empty start rule `R0`.
    pub fn new() -> Self {
        let mut s = Self {
            nodes: Vec::new(),
            free: Vec::new(),
            rules: Vec::new(),
            free_rules: Vec::new(),
            #[expect(
                clippy::disallowed_types,
                reason = "allocates the lookup-only digram table"
            )]
            digrams: HashMap::default(),
            len: 0,
            stats: InductionStats::default(),
            pending_utility: Vec::new(),
        };
        s.new_rule(); // R0
        s
    }

    /// Induces a grammar from an entire token stream in one call.
    pub fn induce<I: IntoIterator<Item = u32>>(tokens: I) -> Grammar {
        let mut s = Self::new();
        for t in tokens {
            s.push(t);
        }
        s.finish()
    }

    /// Number of terminals pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Accounting for the induction so far (see [`InductionStats`]).
    pub fn stats(&self) -> InductionStats {
        self.stats
    }

    /// `true` until the first terminal is pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacities of every internal buffer, for allocation tests.
    pub fn capacity_signature(&self) -> Vec<usize> {
        vec![
            self.nodes.capacity(),
            self.free.capacity(),
            self.rules.capacity(),
            self.free_rules.capacity(),
            self.digrams.capacity(),
            self.pending_utility.capacity(),
        ]
    }

    /// Appends one terminal token to `R0` and restores the invariants.
    pub fn push(&mut self, token: u32) {
        self.len += 1;
        let node = self.alloc(Val::Term(token));
        self.nodes[node as usize].cursor = self.len as u64 - 1;
        let guard = self.rules[0].guard;
        let last = self.nodes[guard as usize].prev;
        self.insert_after(last, node);
        if self.nodes[node as usize].prev != guard {
            let p = self.nodes[node as usize].prev;
            self.check(p);
            self.drain_utility();
        }
    }

    /// Extracts the current grammar without consuming the inducer —
    /// the streaming/early-detection entry point (paper §7 future work):
    /// push tokens as they arrive, snapshot whenever a decision is needed.
    pub fn snapshot(&self) -> Grammar {
        self.extract()
    }

    /// Finalizes induction and extracts the immutable [`Grammar`].
    pub fn finish(self) -> Grammar {
        self.extract()
    }

    /// Visits every rule occurrence in `R0`'s derivation — nested uses at
    /// every level, `R0` itself excluded — as `f(cursor, len)`: the
    /// absolute cursor of its first terminal and its expansion length.
    /// This is the occurrence set [`Grammar::occurrences`] reports on a
    /// [`snapshot`](Sequitur::snapshot), read off the live arena without
    /// extracting a grammar: `R0` symbols carry their cursors, and
    /// a body symbol's cursor is its occurrence's plus the expansion
    /// lengths before it. O(len() + occurrences) time.
    pub fn for_each_occurrence(&self, mut f: impl FnMut(u64, u64)) {
        let mut stack: Vec<(u32, u64)> = Vec::new();
        let guard0 = self.rules[0].guard;
        let mut top = self.next(guard0);
        while top != guard0 {
            if let Val::Rule(r) = self.val(top) {
                let c = self.nodes[top as usize].cursor;
                debug_assert_ne!(c, UNKNOWN, "R0 symbol without a cursor");
                stack.push((r, c));
            }
            while let Some((r, base)) = stack.pop() {
                f(base, self.rules[r as usize].exp_len);
                let guard = self.rules[r as usize].guard;
                let mut cur = self.next(guard);
                let mut off = base;
                while cur != guard {
                    let v = self.val(cur);
                    if let Val::Rule(q) = v {
                        stack.push((q, off));
                    }
                    off += self.exp_len_of(v);
                    cur = self.next(cur);
                }
            }
            top = self.next(top);
        }
    }

    fn extract(&self) -> Grammar {
        let mut rules: Vec<Option<GrammarRule>> = Vec::with_capacity(self.rules.len());
        // Compact rule ids: map arena rule index → dense grammar id in slot
        // order (R0 first), skipping deleted rules. Slot order is
        // deterministic: it differs from creation order only where a new
        // rule reused a deleted rule's slot, itself a deterministic event.
        let mut id_map: Vec<Option<RuleId>> = vec![None; self.rules.len()];
        let mut next_id = 0u32;
        for (i, slot) in self.rules.iter().enumerate() {
            if slot.alive {
                id_map[i] = Some(RuleId(next_id));
                next_id += 1;
            }
        }
        for (i, slot) in self.rules.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            let mut rhs = Vec::new();
            let guard = slot.guard;
            let mut cur = self.nodes[guard as usize].next;
            while cur != guard {
                let val = self.nodes[cur as usize].val;
                #[expect(
                    clippy::expect_used,
                    reason = "rule_uses bookkeeping guarantees referenced rules stay live until the referencing body is rewritten"
                )]
                rhs.push(match val {
                    Val::Term(t) => Symbol::Terminal(t),
                    Val::Rule(r) => {
                        Symbol::Rule(id_map[r as usize].expect("live rule referenced a dead rule"))
                    }
                    // gv-lint: allow(panic-reachability) guards delimit rule bodies; a guard inside a body is a broken induction invariant
                    Val::Guard(_) => unreachable!("guard inside rule body"),
                });
                cur = self.nodes[cur as usize].next;
            }
            #[expect(
                clippy::unwrap_used,
                reason = "id_map[i] was assigned for every live slot in the numbering pass just above"
            )]
            rules.push(Some(GrammarRule {
                id: id_map[i].unwrap(),
                rhs,
                rule_uses: slot.uses as usize,
            }));
        }
        Grammar::from_rules(rules.into_iter().flatten().collect(), self.len)
    }

    /// Inlines every rule whose use count fell to one during the cascades
    /// since the last drain. The classic algorithm enforces utility inline
    /// (the digram consumed by a substitution reappears as the boundary of
    /// the new rule's body, where it is checked) — but a cascade can also
    /// consume the rule that owed the check. Deferring to a queue drained
    /// between public calls closes the gap without rewriting nodes an
    /// in-flight cascade still holds. Entries are re-validated at pop time:
    /// the rule may have been re-used, inlined, or its slot recycled
    /// meanwhile, and any *live* rule at one use deserves the inline no
    /// matter which generation queued it. Terminates: each productive pop
    /// deletes a rule, and new entries require structural rewrites, which
    /// strictly shrink the grammar.
    fn drain_utility(&mut self) {
        while let Some(r) = self.pending_utility.pop() {
            self.enforce_utility(r);
        }
    }

    /// Inlines rule `r` if it is live at one use: the surviving reference
    /// site (from the slot's site list) is expanded and the adjacencies the
    /// splice exposes are re-checked for digram uniqueness.
    fn enforce_utility(&mut self, r: u32) {
        let slot = &self.rules[r as usize];
        if slot.alive && slot.uses == 1 {
            let site = slot.sites[0];
            let (left, last) = self.expand(site);
            self.check(left);
            // `last` may have been rewritten by the cascade above; a stale
            // or recycled node yields either no digram or a valid one, so
            // the extra check is at worst redundant work.
            self.check(last);
        }
    }

    /// Terminal expansion length of a symbol value.
    fn exp_len_of(&self, v: Val) -> u64 {
        match v {
            Val::Term(_) => 1,
            Val::Rule(r) => self.rules[r as usize].exp_len,
            Val::Guard(_) => 0,
        }
    }

    // ----- arena plumbing -------------------------------------------------

    fn alloc(&mut self, val: Val) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node {
                prev: NIL,
                next: NIL,
                val,
                cursor: UNKNOWN,
            };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                prev: NIL,
                next: NIL,
                val,
                cursor: UNKNOWN,
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize] = Node {
            prev: NIL,
            next: NIL,
            val: Val::Guard(u32::MAX),
            cursor: UNKNOWN,
        };
        self.free.push(idx);
    }

    fn val(&self, idx: u32) -> Val {
        self.nodes[idx as usize].val
    }

    fn next(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].next
    }

    fn prev(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].prev
    }

    fn new_rule(&mut self) -> u32 {
        self.stats.rules_created += 1;
        if let Some(rule_id) = self.free_rules.pop() {
            let guard = self.alloc(Val::Guard(rule_id));
            self.nodes[guard as usize].prev = guard;
            self.nodes[guard as usize].next = guard;
            let slot = &mut self.rules[rule_id as usize];
            slot.guard = guard;
            slot.uses = 0;
            slot.exp_len = 0;
            slot.sites.clear();
            slot.alive = true;
            return rule_id;
        }
        let rule_id = self.rules.len() as u32;
        let guard = self.alloc(Val::Guard(rule_id));
        // Circular: an empty rule's guard points at itself.
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        self.rules.push(RuleSlot {
            guard,
            uses: 0,
            exp_len: 0,
            sites: Vec::new(),
            alive: true,
        });
        rule_id
    }

    /// Points the digram index at `at`, tracking the table's high-water
    /// mark (every insertion funnels through here).
    #[inline]
    fn index_digram(&mut self, key: (Val, Val), at: u32) {
        self.digrams.insert(key, at);
        let entries = self.digrams.len() as u64;
        if entries > self.stats.peak_digram_entries {
            self.stats.peak_digram_entries = entries;
        }
    }

    fn digram_key(&self, first: u32) -> Option<(Val, Val)> {
        let n = self.next(first);
        if n == NIL {
            return None;
        }
        let a = self.val(first);
        let b = self.val(n);
        if a.is_guard() || b.is_guard() {
            return None;
        }
        Some((a, b))
    }

    /// Removes the digram starting at `first` from the index, if the index
    /// currently points at `first`.
    fn delete_digram(&mut self, first: u32) {
        if let Some(key) = self.digram_key(first) {
            if self.digrams.get(&key) == Some(&first) {
                self.digrams.remove(&key);
            }
        }
    }

    /// Links `left` → `right`, maintaining the digram index (including the
    /// classic "triples" adjustment for runs like `aaa`).
    fn join(&mut self, left: u32, right: u32) {
        if self.next(left) != NIL {
            self.delete_digram(left);

            // Triples fix-ups, as in the original implementation: when a
            // symbol sits between two copies of itself, make sure the index
            // points at a digram that still exists after the relink.
            let rp = self.prev(right);
            let rn = self.next(right);
            if rp != NIL
                && rn != NIL
                && self.val(right) == self.val(rp)
                && self.val(right) == self.val(rn)
            {
                if let Some(key) = self.digram_key(right) {
                    self.index_digram(key, right);
                }
            }
            let lp = self.prev(left);
            let ln = self.next(left);
            if lp != NIL
                && ln != NIL
                && self.val(left) == self.val(lp)
                && self.val(left) == self.val(ln)
            {
                if let Some(key) = self.digram_key(lp) {
                    self.index_digram(key, lp);
                }
            }
        }
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].prev = left;
    }

    /// Inserts node `y` right after node `x`.
    fn insert_after(&mut self, x: u32, y: u32) {
        let xn = self.next(x);
        self.join(y, xn);
        self.join(x, y);
    }

    /// Unlinks and frees a symbol node, updating the digram index and rule
    /// use counts (the C++ destructor).
    fn delete_symbol(&mut self, idx: u32) {
        let p = self.prev(idx);
        let n = self.next(idx);
        self.join(p, n);
        if !self.val(idx).is_guard() {
            self.delete_digram(idx);
            if let Val::Rule(r) = self.val(idx) {
                self.rules[r as usize].uses -= 1;
                self.remove_site(r, idx);
                // This is the only place a live rule's use count can reach
                // one; queue it for the utility drain at cascade end. A
                // direct inline here could rewrite nodes the caller still
                // holds, so enforcement is deferred.
                if self.rules[r as usize].uses == 1 && self.rules[r as usize].alive {
                    self.pending_utility.push(r);
                }
            }
        }
        self.release(idx);
    }

    /// Unregisters a reference site of rule `r` (companion of the `uses`
    /// decrement).
    fn remove_site(&mut self, r: u32, node: u32) {
        let sites = &mut self.rules[r as usize].sites;
        if let Some(pos) = sites.iter().position(|&s| s == node) {
            sites.swap_remove(pos);
        } else {
            debug_assert!(false, "site list out of sync for rule {r}");
        }
    }

    /// Enforces digram uniqueness for the digram starting at `first`.
    /// Returns `true` when the grammar changed (or the digram was already
    /// indexed elsewhere).
    fn check(&mut self, first: u32) -> bool {
        let key = match self.digram_key(first) {
            Some(k) => k,
            None => return false,
        };
        match self.digrams.get(&key).copied() {
            None => {
                self.index_digram(key, first);
                false
            }
            Some(existing) => {
                // Overlapping digrams (runs like `aaa`) are not duplicates:
                // a new digram overlaps only the indexed one to its left.
                if existing == first || self.next(existing) == first {
                    return true;
                }
                self.match_digrams(first, existing);
                true
            }
        }
    }

    /// Rule id when the digram starting at `first` spans an entire rule
    /// body (its neighbors are the same guard). `R0` is excluded: reusing
    /// the start rule as a non-terminal would be circular.
    fn whole_body_rule(&self, first: u32) -> Option<u32> {
        match (
            self.val(self.prev(first)),
            self.val(self.next(self.next(first))),
        ) {
            (Val::Guard(a), Val::Guard(b)) if a == b && a != 0 => Some(a),
            _ => None,
        }
    }

    /// Deals with a digram at `new` that duplicates the indexed digram at
    /// `existing`: reuse the rule when `existing` is a complete rule body,
    /// otherwise create a fresh rule for the pair. (A freshly formed digram
    /// is never an old complete body, so only `existing` can be one.)
    fn match_digrams(&mut self, new: u32, existing: u32) {
        if let Some(re) = self.whole_body_rule(existing) {
            self.substitute(new, re);
        } else {
            // Create a new rule holding a copy of the digram.
            let r = self.new_rule();
            let a = self.val(new);
            let b = self.val(self.next(new));
            self.rules[r as usize].exp_len = self.exp_len_of(a) + self.exp_len_of(b);
            let guard = self.rules[r as usize].guard;
            let na = self.alloc(a);
            if let Val::Rule(ra) = a {
                self.rules[ra as usize].uses += 1;
                self.rules[ra as usize].sites.push(na);
            }
            self.insert_after(guard, na);
            let nb = self.alloc(b);
            if let Val::Rule(rb) = b {
                self.rules[rb as usize].uses += 1;
                self.rules[rb as usize].sites.push(nb);
            }
            self.insert_after(na, nb);

            // Both substitutions run *raw*, their seam checks deferred
            // until both are done: a seam node consumed by an earlier
            // cascade yields no digram or a valid one, never a dangling
            // mutation.
            let q1 = self.substitute_raw(existing, r);
            let q2 = self.substitute_raw(new, r);

            // Index the digram that now constitutes the rule body.
            let body_first = self.next(self.rules[r as usize].guard);
            if let Some(key) = self.digram_key(body_first) {
                self.index_digram(key, body_first);
            }

            self.seam_check(q1);
            self.seam_check(q2);
        }
        // Rule utility is NOT enforced here, unlike the classic code, which
        // inlines a boundary symbol of the (re)used rule whose rule just
        // dropped to one use: the cascades above may have consumed that
        // rule itself, and then no boundary check here could run at all.
        // Instead, every drop to one use is queued at the decrement site
        // (see `delete_symbol`) and drained with full seam checks once the
        // whole cascade has settled.
    }

    /// Replaces the two symbols starting at `first` with a reference to
    /// rule `r`, then re-checks the digrams around the new non-terminal.
    /// The occurrence algebra: the two replaced symbols persist positionally
    /// through `r`'s body, so the net change is exactly one new occurrence
    /// of `r`.
    fn substitute(&mut self, first: u32, r: u32) {
        let q = self.substitute_raw(first, r);
        self.seam_check(q);
    }

    /// The structural half of [`Sequitur::substitute`]: performs the
    /// replacement and returns the node preceding the new non-terminal,
    /// leaving the seam digram checks to the caller.
    fn substitute_raw(&mut self, first: u32, r: u32) -> u32 {
        let cursor = self.nodes[first as usize].cursor;
        let q = self.prev(first);
        let second = self.next(first);
        self.delete_symbol(first);
        self.delete_symbol(second);
        let nt = self.alloc(Val::Rule(r));
        self.nodes[nt as usize].cursor = cursor;
        self.rules[r as usize].uses += 1;
        self.rules[r as usize].sites.push(nt);
        self.insert_after(q, nt);
        q
    }

    /// The classic post-substitution check pair: enforce uniqueness for
    /// the digram at `q`, and if that digram was freshly indexed, for the
    /// one after it. Tolerates `q` having been consumed by an earlier
    /// cascade (a released node has no digram and `NIL` links).
    fn seam_check(&mut self, q: u32) {
        if self.next(q) == NIL {
            return;
        }
        if !self.check(q) {
            let qn = self.next(q);
            if qn != NIL {
                self.check(qn);
            }
        }
    }

    /// Inlines the body of the once-used rule referenced by the
    /// non-terminal node `nt`, deleting the rule (utility enforcement).
    /// The boundary digrams the splice creates are left to the caller's
    /// uniqueness checks. Returns `(left, last)` — the nodes around the
    /// splice seams.
    fn expand(&mut self, nt: u32) -> (u32, u32) {
        let left = self.prev(nt);
        let right = self.next(nt);
        let r = match self.val(nt) {
            Val::Rule(r) => r,
            // gv-lint: allow(panic-reachability) expand is only ever called on rule symbols; anything else is a broken induction invariant
            _ => unreachable!("expand called on a non-rule symbol"),
        };
        let base = self.nodes[nt as usize].cursor;
        let guard = self.rules[r as usize].guard;
        let first = self.next(guard);
        let last = self.prev(guard);
        debug_assert_ne!(first, guard, "expanding an empty rule");

        // Spliced body symbols inherit absolute cursors when the site has
        // one (an `R0` splice); inside another body they stay unknown.
        if base != UNKNOWN {
            let mut cur = first;
            let mut off = base;
            loop {
                self.nodes[cur as usize].cursor = off;
                off += self.exp_len_of(self.val(cur));
                if cur == last {
                    break;
                }
                cur = self.next(cur);
            }
        }

        // Remove the digram entries anchored at `nt` and at `left` while
        // `nt` still holds its value — after the release below, `join`
        // would compute `left`'s old key with a guard in it and skip the
        // removal, leaving a stale `(val(left), Rule(r))` entry behind.
        self.delete_digram(nt);
        self.delete_digram(left);
        self.rules[r as usize].uses -= 1;
        self.remove_site(r, nt);
        debug_assert_eq!(self.rules[r as usize].uses, 0);
        self.rules[r as usize].alive = false;
        self.stats.rules_deleted += 1;
        self.free_rules.push(r);
        self.release(nt);
        self.release(guard);

        self.join(left, first);
        self.join(last, right);

        (left, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Symbol;

    fn letters(s: &str) -> Vec<u32> {
        s.bytes().map(|b| (b - b'a') as u32).collect()
    }

    #[test]
    fn empty_input_gives_empty_r0() {
        let g = Sequitur::induce(std::iter::empty());
        assert_eq!(g.num_rules(), 1);
        assert!(g.rule(g.r0_id()).rhs.is_empty());
        assert_eq!(g.input_len(), 0);
    }

    #[test]
    fn single_token() {
        let g = Sequitur::induce([42u32]);
        assert_eq!(g.num_rules(), 1);
        assert_eq!(g.rule(g.r0_id()).rhs, vec![Symbol::Terminal(42)]);
    }

    #[test]
    fn no_repetition_no_rules() {
        let g = Sequitur::induce(letters("abcdefg"));
        assert_eq!(g.num_rules(), 1);
        assert_eq!(g.rule(g.r0_id()).rhs.len(), 7);
    }

    #[test]
    fn abab_creates_one_rule() {
        let g = Sequitur::induce(letters("abab"));
        assert_eq!(g.num_rules(), 2);
        let r0 = g.rule(g.r0_id());
        assert_eq!(r0.rhs.len(), 2);
        // Both R0 symbols are the same rule, used twice.
        match (&r0.rhs[0], &r0.rhs[1]) {
            (Symbol::Rule(a), Symbol::Rule(b)) => {
                assert_eq!(a, b);
                assert_eq!(g.rule(*a).rule_uses, 2);
                assert_eq!(g.expand_rule(*a), letters("ab"));
            }
            other => panic!("unexpected R0 shape: {other:?}"),
        }
    }

    #[test]
    fn paper_motivating_example() {
        // §3: S = abc abc cba xxx abc abc cba, over word-tokens
        // {abc→0, cba→1, xxx→2}: 0 0 1 2 0 0 1.
        let g = Sequitur::induce([0u32, 0, 1, 2, 0, 0, 1]);
        let r0 = g.rule(g.r0_id());
        // Expect R0 → R1 xxx R1 with R1 → 0 0 1 (possibly via nesting).
        assert_eq!(g.expand_rule(g.r0_id()), vec![0, 0, 1, 2, 0, 0, 1]);
        assert_eq!(r0.rhs.len(), 3);
        assert!(matches!(r0.rhs[1], Symbol::Terminal(2)));
        match (&r0.rhs[0], &r0.rhs[2]) {
            (Symbol::Rule(a), Symbol::Rule(b)) => {
                assert_eq!(a, b);
                assert_eq!(g.expand_rule(*a), vec![0, 0, 1]);
            }
            other => panic!("unexpected R0 shape: {other:?}"),
        }
    }

    #[test]
    fn rule_reuse_nested() {
        // Classic: "abcdbcabcdbc" → hierarchy with nested rules.
        let g = Sequitur::induce(letters("abcdbcabcdbc"));
        assert_eq!(
            g.expand_rule(g.r0_id()),
            letters("abcdbc")
                .iter()
                .chain(letters("abcdbc").iter())
                .copied()
                .collect::<Vec<_>>()
        );
        // All rules except R0 used at least twice (utility invariant).
        for rule in g.rules() {
            if rule.id != g.r0_id() {
                assert!(
                    rule.rule_uses >= 2,
                    "rule {:?} used {}",
                    rule.id,
                    rule.rule_uses
                );
            }
        }
    }

    #[test]
    fn triples_run() {
        // Runs of one symbol exercise the overlapping-digram guard.
        for n in 2..=40 {
            let input = vec![7u32; n];
            let g = Sequitur::induce(input.clone());
            assert_eq!(g.expand_rule(g.r0_id()), input, "run length {n}");
        }
    }

    #[test]
    fn alternating_long() {
        let input: Vec<u32> = (0..200).map(|i| i % 2).collect();
        let g = Sequitur::induce(input.clone());
        assert_eq!(g.expand_rule(g.r0_id()), input);
        // Strong compression expected: R0 shrinks well below input length.
        assert!(g.rule(g.r0_id()).rhs.len() < 20);
    }

    #[test]
    fn utility_holds_on_structured_input() {
        let mut input = Vec::new();
        for _ in 0..10 {
            input.extend(letters("abcab"));
            input.extend(letters("xyz"));
        }
        let g = Sequitur::induce(input.clone());
        assert_eq!(g.expand_rule(g.r0_id()), input);
        for rule in g.rules() {
            if rule.id != g.r0_id() {
                assert!(rule.rule_uses >= 2);
                assert!(rule.rhs.len() >= 2, "rules have at least two symbols");
            }
        }
    }

    #[test]
    fn incremental_equals_batch() {
        let input = letters("abcabdabcabdabcabe");
        let mut s = Sequitur::new();
        assert!(s.is_empty());
        for &t in &input {
            s.push(t);
        }
        assert_eq!(s.len(), input.len());
        let g1 = s.finish();
        let g2 = Sequitur::induce(input.clone());
        assert_eq!(g1.expand_rule(g1.r0_id()), g2.expand_rule(g2.r0_id()));
        assert_eq!(g1.num_rules(), g2.num_rules());
    }

    #[test]
    fn snapshot_matches_finish_and_allows_continuation() {
        let input = letters("abcabdabcabdabcab");
        let mut s = Sequitur::new();
        for &t in &input[..10] {
            s.push(t);
        }
        let mid = s.snapshot();
        assert_eq!(mid.expand_rule(mid.r0_id()), input[..10].to_vec());
        // Continue pushing after the snapshot; the final grammar matches a
        // fresh batch run.
        for &t in &input[10..] {
            s.push(t);
        }
        let done = s.finish();
        let batch = Sequitur::induce(input.clone());
        assert_eq!(done.expand_rule(done.r0_id()), input);
        assert_eq!(done.num_rules(), batch.num_rules());
    }

    #[test]
    fn stats_track_rule_churn_and_digram_peak() {
        let mut s = Sequitur::new();
        // Only R0 exists; nothing indexed yet.
        assert_eq!(
            s.stats(),
            InductionStats {
                rules_created: 1,
                ..InductionStats::default()
            }
        );
        for t in letters("abcdbcabcdbcabcdbc") {
            s.push(t);
        }
        let stats = s.stats();
        let g = s.finish();
        // Created = survivors + deleted (R0 counts as created).
        assert_eq!(
            stats.rules_created,
            g.num_rules() as u64 + stats.rules_deleted
        );
        assert!(stats.peak_digram_entries > 0);
        // The peak is a high-water mark over insertions, so it bounds the
        // number of distinct digrams live at any point.
        assert!(stats.peak_digram_entries >= 2);
        // Plain unique input causes no churn beyond R0.
        let mut plain = Sequitur::new();
        for t in letters("abcdefg") {
            plain.push(t);
        }
        assert_eq!(plain.stats().rules_created, 1);
        assert_eq!(plain.stats().rules_deleted, 0);
        assert_eq!(plain.stats().peak_digram_entries, 6);
    }

    #[test]
    fn grammar_is_smaller_than_repetitive_input() {
        let mut input = Vec::new();
        for _ in 0..50 {
            input.extend(letters("abcdefgh"));
        }
        let g = Sequitur::induce(input.clone());
        assert_eq!(g.expand_rule(g.r0_id()), input);
        assert!(
            g.grammar_size() < input.len() / 2,
            "size {}",
            g.grammar_size()
        );
    }
}
