//! The incremental Sequitur algorithm, with windowed eviction.
//!
//! A faithful arena-based port of the classic doubly-linked-list
//! implementation (Nevill-Manning & Witten's `sequitur` C++): symbols live
//! in a slab with `u32` links, rules are circular lists closed by a *guard*
//! node, and a digram hash table maps each adjacent symbol pair to its
//! single allowed location.
//!
//! On top of the classic forward algorithm this module adds the streaming
//! machinery (paper §7 / ROADMAP item 2):
//!
//! * every `R0` symbol carries the **absolute token cursor** of the first
//!   terminal it derives, so the front of the start rule can be mapped back
//!   to stream positions at any time;
//! * [`Sequitur::evict_front`] retires tokens from the front of `R0` as
//!   they fall out of a caller-defined horizon — unlinking digrams,
//!   decrementing rule use-counts, inlining rules whose utility drops below
//!   two, and re-checking digram uniqueness where an unrolled occurrence
//!   exposes new adjacencies (which can *re-learn* rules);
//! * [`Sequitur::for_each_occurrence`] walks the live derivation from those
//!   cursors, reporting every rule occurrence's absolute token span without
//!   extracting a [`Grammar`] — what a streaming caller counts its
//!   rule-density curve from.

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
    /// (`sites.len() == uses`). Lets eviction find the surviving reference
    /// of a rule whose utility dropped to one without scanning the arena.
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
    /// Terminals retired from the front of `R0` by eviction.
    pub tokens_evicted: u64,
    /// Rules deleted *during eviction* (subset of `rules_deleted`).
    pub rules_evicted: u64,
    /// Rules created *during eviction* (subset of `rules_created`): an
    /// unrolled occurrence re-exposed a repeated digram that was
    /// re-compressed into a rule.
    pub rules_relearned: u64,
}

/// Incremental Sequitur inducer over `u32` terminal tokens.
///
/// Feed tokens with [`Sequitur::push`], then call [`Sequitur::finish`]
/// (or use the [`Sequitur::induce`] convenience) to obtain the final
/// immutable [`Grammar`]. Streaming callers bound memory with
/// [`Sequitur::evict_front`] and read the live occurrence set with
/// [`Sequitur::for_each_occurrence`].
#[derive(Debug)]
pub struct Sequitur {
    nodes: Vec<Node>,
    free: Vec<u32>,
    rules: Vec<RuleSlot>,
    /// Dead rule slots available for reuse — without this, streaming rule
    /// churn would grow the `rules` arena linearly with stream length.
    free_rules: Vec<u32>,
    #[expect(
        clippy::disallowed_types,
        reason = "classic Sequitur digram table: probed and mutated by key, never iterated on a result path; fixed-seed hasher keeps capacities reproducible"
    )]
    digrams: HashMap<(Val, Val), u32, DigramHasher>,
    /// Number of *live* (retained) terminals.
    len: usize,
    /// Terminals evicted from the front; `evicted + len` = total pushed.
    evicted: u64,
    /// Monotone count of structural rewrites (substitutions + inlines) —
    /// the progress signal for the eviction repair loop.
    rewrites: u64,
    stats: InductionStats,
    /// Scratch for unrolling a straddling occurrence (reused across calls).
    unroll_buf: Vec<Val>,
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
            evicted: 0,
            rewrites: 0,
            stats: InductionStats::default(),
            unroll_buf: Vec::new(),
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

    /// Number of live (retained) terminals: total pushed minus evicted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Terminals evicted from the front of the stream so far. The live
    /// suffix covers absolute cursors `tokens_evicted()..tokens_evicted()
    /// + len()`.
    pub fn tokens_evicted(&self) -> u64 {
        self.evicted
    }

    /// Accounting for the induction so far (see [`InductionStats`]).
    pub fn stats(&self) -> InductionStats {
        self.stats
    }

    /// `true` when no live terminal remains.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacities of every internal buffer — for bounded-memory tests: on
    /// a horizon-evicted stream the signature must freeze after warmup.
    pub fn capacity_signature(&self) -> Vec<usize> {
        vec![
            self.nodes.capacity(),
            self.free.capacity(),
            self.rules.capacity(),
            self.free_rules.capacity(),
            self.digrams.capacity(),
            self.unroll_buf.capacity(),
            self.pending_utility.capacity(),
        ]
    }

    /// Appends one terminal token to `R0` and restores the invariants.
    pub fn push(&mut self, token: u32) {
        self.len += 1;
        let node = self.alloc(Val::Term(token));
        self.nodes[node as usize].cursor = self.evicted + self.len as u64 - 1;
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
    /// After eviction the grammar describes the retained token suffix
    /// (`input_len == len()`).
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
    /// [`snapshot`](Sequitur::snapshot), shifted by
    /// [`tokens_evicted`](Sequitur::tokens_evicted), read off the live arena
    /// without extracting a grammar: `R0` symbols carry their cursors, and
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
        // deterministic: it differs from creation order only when eviction
        // recycled a slot, which is itself a deterministic event.
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

    // ----- windowed eviction ----------------------------------------------

    /// Retires the first `count` live terminals from the front of `R0`
    /// (clamped to [`Sequitur::len`]). Whole occurrences that fall inside
    /// the evicted prefix are deleted (decrementing rule use-counts and
    /// inlining rules whose utility drops below two); an occurrence
    /// straddling the cut is unrolled — replaced by a copy of its body —
    /// and the adjacencies this exposes are re-checked for digram
    /// uniqueness, which can re-form ("re-learn") rules over the retained
    /// suffix. The digram index is kept consistent throughout.
    pub fn evict_front(&mut self, count: usize) {
        let count = count.min(self.len);
        if count == 0 {
            return;
        }
        let cutoff = self.evicted + count as u64;
        let created_before = self.stats.rules_created;
        let deleted_before = self.stats.rules_deleted;
        let rewrites_before = self.rewrites;
        // Unrolls and rule deaths can leave duplicate digrams pending
        // anywhere their splices touched; a fixpoint repair pass restores
        // uniqueness afterwards. Plain terminal evictions repair locally.
        let mut needs_scan = false;
        loop {
            let guard = self.rules[0].guard;
            let front = self.next(guard);
            if front == guard {
                break;
            }
            let c = self.nodes[front as usize].cursor;
            debug_assert_ne!(c, UNKNOWN, "R0 symbol without a cursor");
            if c >= cutoff {
                break;
            }
            match self.val(front) {
                Val::Term(_) => {
                    self.delete_symbol(front);
                    self.evicted += 1;
                    self.len -= 1;
                    self.stats.tokens_evicted += 1;
                    // If the deleted node anchored the index entry for a
                    // run digram (`333…`), its overlapping twin — exactly
                    // the new front adjacency — is now unindexed.
                    let nf = self.next(guard);
                    if nf != guard {
                        self.check(nf);
                    }
                }
                Val::Rule(r) => {
                    let span = self.rules[r as usize].exp_len;
                    if c + span <= cutoff {
                        // The whole occurrence falls out of the horizon: it
                        // and every occurrence nested under it die.
                        self.delete_symbol(front);
                        self.evicted += span;
                        self.len -= span as usize;
                        self.stats.tokens_evicted += span;
                        self.enforce_utility(r);
                        needs_scan = true;
                    } else {
                        // Straddles the cut: unroll one level. The loop
                        // then continues on the copies, evicting or
                        // unrolling them in turn.
                        self.unroll_front(front, r, c);
                        needs_scan = true;
                    }
                }
                // gv-lint: allow(panic-reachability) guard values never appear in R0; hitting one is a broken induction invariant
                Val::Guard(_) => unreachable!("guard value inside R0"),
            }
        }
        // Unroll/subtree-death splices always need the scan; so does a
        // plain terminal eviction whose front `check` cascaded into a
        // structural rewrite, which can leave several duplicates pending
        // at once. The utility drain runs after uniqueness is restored
        // (its inlines re-check their own seams, so one round suffices).
        if needs_scan || self.rewrites != rewrites_before {
            self.repair_all();
        }
        self.drain_utility();
        self.stats.rules_relearned += self.stats.rules_created - created_before;
        self.stats.rules_evicted += self.stats.rules_deleted - deleted_before;
    }

    /// Inlines every rule whose use count fell to one during the cascades
    /// since the last drain. The classic algorithm enforces utility inline
    /// (the digram consumed by a substitution reappears as the boundary of
    /// the new rule's body, where it is checked) — but a cascade can also
    /// consume the rule that owed the check, and post-eviction grammar
    /// shapes reach that path from a plain `push`. Deferring to a queue
    /// drained between public calls closes the gap without rewriting nodes
    /// an in-flight cascade still holds. Entries are re-validated at pop
    /// time: the rule may have been re-used, inlined, or its slot recycled
    /// meanwhile, and any *live* rule at one use deserves the inline no
    /// matter which generation queued it. Terminates: each productive pop
    /// deletes a rule, and new entries require structural rewrites, which
    /// strictly shrink the grammar.
    fn drain_utility(&mut self) {
        while let Some(r) = self.pending_utility.pop() {
            self.enforce_utility(r);
        }
    }

    /// Replaces the front non-terminal `front` (rule `r`, cursor `c`) with
    /// a fresh copy of `r`'s body, assigning cursors cumulatively. The body
    /// itself is shared with other occurrences and stays untouched. The new
    /// adjacencies are *not* digram-checked here — the caller re-checks
    /// them after the eviction loop ([`Sequitur::repair_all`]).
    fn unroll_front(&mut self, front: u32, r: u32, c: u64) {
        let mut body = std::mem::take(&mut self.unroll_buf);
        body.clear();
        let guard_r = self.rules[r as usize].guard;
        let mut cur = self.next(guard_r);
        while cur != guard_r {
            body.push(self.val(cur));
            cur = self.next(cur);
        }
        // Drop the reference (decrements `uses[r]`, fixes digram entries).
        self.delete_symbol(front);
        // Splice the copies in at the front, tracking cursors.
        let mut tail = self.rules[0].guard;
        let mut off = c;
        for &v in &body {
            let n = self.alloc(v);
            self.nodes[n as usize].cursor = off;
            off += self.exp_len_of(v);
            if let Val::Rule(q) = v {
                self.rules[q as usize].uses += 1;
                self.rules[q as usize].sites.push(n);
            }
            self.insert_after(tail, n);
            tail = n;
        }
        self.unroll_buf = body;
        // The dropped reference may have brought `r` down to one use.
        self.enforce_utility(r);
    }

    /// Inlines rule `r` if its utility dropped below two. At one use the
    /// surviving reference site (from the slot's site list) is expanded and
    /// the adjacencies the splice exposes are re-checked for digram
    /// uniqueness. At zero uses — possible when utility enforcement was
    /// deferred past the eviction of the rule's last reference — the rule
    /// is unreachable: its body is dismantled outright, with inner rules
    /// losing a reference each (re-entering the utility queue as needed).
    fn enforce_utility(&mut self, r: u32) {
        if !self.rules[r as usize].alive {
            return;
        }
        match self.rules[r as usize].uses {
            0 => {
                let guard = self.rules[r as usize].guard;
                let mut cur = self.next(guard);
                while cur != guard {
                    let nx = self.next(cur);
                    self.delete_symbol(cur);
                    cur = nx;
                }
                self.rules[r as usize].alive = false;
                self.stats.rules_deleted += 1;
                self.free_rules.push(r);
                self.release(guard);
            }
            1 => {
                let site = self.rules[r as usize].sites[0];
                let (left, last) = self.expand(site, false);
                self.check(left);
                // `last` may have been rewritten by the cascade above; a
                // stale or recycled node yields either no digram or a valid
                // one, so the extra check is at worst redundant work.
                self.check(last);
            }
            _ => {}
        }
    }

    /// Re-establishes digram uniqueness and full index coverage across the
    /// whole grammar after unroll/inline splices left adjacencies unindexed
    /// or duplicated. Each pass `check`s every adjacency of every live
    /// rule; any rewrite (substitution or inline, including rule
    /// re-learning) restarts the pass. Terminates because rewrites strictly
    /// shrink the grammar by the classic Sequitur argument. Cost is
    /// O(grammar size) — bounded by the horizon, independent of stream
    /// length — and is only paid on evictions with structural events.
    fn repair_all(&mut self) {
        loop {
            let before = self.rewrites;
            'rules: for ri in 0..self.rules.len() {
                if !self.rules[ri].alive {
                    continue;
                }
                let guard = self.rules[ri].guard;
                let mut cur = self.next(guard);
                while cur != guard {
                    let next = self.next(cur);
                    self.check(cur);
                    if self.rewrites != before {
                        break 'rules;
                    }
                    cur = next;
                }
            }
            if self.rewrites == before {
                return;
            }
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

    /// Deep consistency check of the digram index against the arena — the
    /// mid-stream invariant eviction must preserve. Returns sorted
    /// human-readable problems (empty = consistent): every adjacency in a
    /// live rule must be indexed (at itself or at an overlapping twin), and
    /// every index entry must point at a live adjacency with its key.
    pub fn check_index_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for slot in self.rules.iter().filter(|s| s.alive) {
            let guard = slot.guard;
            let mut cur = self.next(guard);
            while cur != guard {
                if let Some(key) = self.digram_key(cur) {
                    match self.digrams.get(&key) {
                        None => problems.push(format!(
                            "adjacency {key:?} at node {cur} is not in the digram index"
                        )),
                        Some(&at) => {
                            if self.digram_key(at) != Some(key) {
                                problems.push(format!(
                                    "digram index for {key:?} points at node {at} which no longer holds it"
                                ));
                            }
                        }
                    }
                }
                cur = self.next(cur);
            }
        }
        for (&key, &at) in self.digrams.iter() {
            if self.digram_key(at) != Some(key) {
                problems.push(format!("digram index entry {key:?} -> node {at} is stale"));
            }
        }
        problems.sort();
        problems
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
                    // gv-lint: allow(alloc-reachability) pending_utility retains its capacity across cascades and is bounded by the live rule count
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
                // Overlapping digrams (runs like `aaa`) are not duplicates.
                // The forward path only ever sees `next(existing) == first`
                // (new digram right of the indexed one, index already at
                // the leftmost), but eviction repair also checks digrams
                // *left* of an indexed twin — re-anchor leftmost then, so a
                // later non-overlapping run digram can match against it.
                if existing == first || self.next(existing) == first {
                    return true;
                }
                if self.next(first) == existing {
                    self.index_digram(key, first);
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
    /// `existing`: reuse the rule when either side is a complete rule body
    /// (merging the rules when both are), otherwise create a fresh rule
    /// for the pair.
    ///
    /// The forward path only ever produces the `existing`-side reuse (a
    /// freshly formed digram can't be an old complete body); the
    /// `new`-side and both-sides cases arise during eviction repair, where
    /// several duplicates can be pending at once. Substituting *inside* a
    /// two-symbol body would shrink it below the minimum rule length, so
    /// those bodies are reused, never rewritten.
    fn match_digrams(&mut self, new: u32, existing: u32) {
        let new_whole = self.whole_body_rule(new);
        let exist_whole = self.whole_body_rule(existing);
        let _rule_id = if let Some(re) = exist_whole {
            if let Some(rn) = new_whole {
                // Two distinct rules with identical bodies: fold `rn`'s
                // references into `re` and dismantle `rn`.
                self.merge_rules(rn, re);
                re
            } else {
                // `existing` spans an entire rule body: reuse that rule.
                self.substitute(new, re);
                re
            }
        } else if let Some(rn) = new_whole {
            // Mirror image: `new` is a complete body, `existing` is not.
            // Compress `existing` with `rn`, then re-anchor the index at
            // the surviving body digram (the raw substitution just removed
            // the entry anchored at `existing`).
            let q = self.substitute_raw(existing, rn);
            if let Some(key) = self.digram_key(new) {
                self.index_digram(key, new);
            }
            self.seam_check(q);
            rn
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

            // Both substitutions run *raw* (no seam checks in between):
            // a seam check after the first substitution can cascade into
            // the region around `new` and rewrite it, leaving the second
            // substitution operating on released nodes. That can't happen
            // in the forward path (only one duplicate exists at a time),
            // but eviction repair fixes several pending duplicates in a
            // row. The deferred seam checks below are safe: a seam node
            // consumed by an earlier cascade yields no digram or a valid
            // one, never a dangling mutation.
            let q1 = self.substitute_raw(existing, r);
            let q2 = self.substitute_raw(new, r);

            // Index the digram that now constitutes the rule body.
            let body_first = self.next(self.rules[r as usize].guard);
            if let Some(key) = self.digram_key(body_first) {
                self.index_digram(key, body_first);
            }

            self.seam_check(q1);
            self.seam_check(q2);
            r
        };

        // Rule utility is NOT enforced here, unlike the classic code, which
        // inlines a boundary symbol of `rule_id` whose rule just dropped to
        // one use. That inline force-indexes its splice seams, assuming at
        // most one duplicate digram is pending — an assumption eviction
        // breaks (an inlined body can re-expose a digram that already lives
        // in some *other* rule, and force-indexing shadows that twin
        // unchecked). And the cascades above may have consumed `rule_id`
        // itself, in which case no boundary check here could run at all.
        // Instead, every drop to one use is queued at the decrement site
        // (see `delete_symbol`) and drained with full seam checks once the
        // whole cascade has settled.
    }

    /// Folds rule `rn` into rule `re`, which hold identical two-symbol
    /// bodies (only possible transiently during eviction repair): every
    /// reference to `rn` is rewritten in place to reference `re`, then
    /// `rn`'s body is dismantled. Occurrence spans are unchanged (equal
    /// expansion lengths at the same positions).
    fn merge_rules(&mut self, rn: u32, re: u32) {
        debug_assert_ne!(rn, re, "a digram cannot duplicate itself");
        debug_assert_eq!(
            self.rules[rn as usize].exp_len,
            self.rules[re as usize].exp_len
        );
        self.rewrites += 1;
        let sites = std::mem::take(&mut self.rules[rn as usize].sites);
        for &s in &sites {
            // Clean the index entries whose keys contain `Rule(rn)` before
            // rewriting the value; both adjacencies re-enter via the seam
            // checks below.
            self.delete_digram(s);
            let p = self.prev(s);
            self.delete_digram(p);
            self.nodes[s as usize].val = Val::Rule(re);
            self.rules[re as usize].uses += 1;
            self.rules[re as usize].sites.push(s);
        }
        self.rules[rn as usize].uses = 0;
        // Dismantle `rn`'s body copy; inner rules lose one reference each
        // (they are still referenced by `re`'s identical body).
        let guard = self.rules[rn as usize].guard;
        let mut inner_rules = [None, None];
        let mut cur = self.next(guard);
        let mut i = 0;
        while cur != guard {
            let nx = self.next(cur);
            if let Val::Rule(x) = self.val(cur) {
                inner_rules[i.min(1)] = Some(x);
            }
            i += 1;
            self.delete_symbol(cur);
            cur = nx;
        }
        self.rules[rn as usize].alive = false;
        self.stats.rules_deleted += 1;
        self.free_rules.push(rn);
        self.release(guard);
        for x in inner_rules.into_iter().flatten() {
            self.enforce_utility(x);
        }
        // Restore uniqueness around every rewritten site.
        for &s in &sites {
            if self.next(s) != NIL {
                let p = self.prev(s);
                self.seam_check(p);
                self.seam_check(s);
            }
        }
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
        self.rewrites += 1;
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
    /// With `reindex` the boundary digrams the splice creates are force-
    /// indexed (the classic behaviour, correct in the forward path);
    /// eviction passes `false` and runs full uniqueness checks instead.
    /// Returns `(left, last)` — the nodes around the splice seams.
    fn expand(&mut self, nt: u32, reindex: bool) -> (u32, u32) {
        self.rewrites += 1;
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

        if reindex {
            // The classic implementation indexes the freshly created
            // trailing digram directly (overwriting any stale entry). We do
            // the same for the leading digram, which arises when expanding a
            // rule's *last* symbol (where `left` is a real symbol, not the
            // guard).
            if let Some(key) = self.digram_key(last) {
                self.index_digram(key, last);
            }
            if let Some(key) = self.digram_key(left) {
                self.index_digram(key, left);
            }
        }
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

    // ----- eviction -------------------------------------------------------

    /// Evicts `k` tokens and asserts the survivor equals the input suffix,
    /// holds all grammar invariants, and keeps the digram index consistent.
    fn assert_evicted_ok(input: &[u32], k: usize) {
        let mut s = Sequitur::new();
        for &t in input {
            s.push(t);
        }
        s.evict_front(k);
        let suffix = &input[k.min(input.len())..];
        assert_eq!(s.len(), suffix.len(), "live length after evicting {k}");
        assert_eq!(s.tokens_evicted(), k.min(input.len()) as u64);
        let problems = s.check_index_consistency();
        assert!(
            problems.is_empty(),
            "digram index inconsistent after evicting {k}: {problems:?}"
        );
        let g = s.snapshot();
        assert_eq!(
            g.verify(suffix),
            None,
            "invariants broken after evicting {k} of {}",
            input.len()
        );
    }

    #[test]
    fn evict_plain_terminals() {
        let input = letters("abcdefg");
        for k in 0..=input.len() {
            assert_evicted_ok(&input, k);
        }
    }

    #[test]
    fn evict_through_rules_and_straddles() {
        let input = letters("abcabdabcabdabcabe");
        for k in 0..=input.len() {
            assert_evicted_ok(&input, k);
        }
    }

    #[test]
    fn evict_deep_hierarchy() {
        let mut input = Vec::new();
        for _ in 0..12 {
            input.extend(letters("abcdbc"));
        }
        for k in 0..=input.len() {
            assert_evicted_ok(&input, k);
        }
    }

    #[test]
    fn evict_triples_runs() {
        for n in [5usize, 17, 40] {
            let input = vec![3u32; n];
            for k in 0..=n {
                assert_evicted_ok(&input, k);
            }
        }
    }

    #[test]
    fn evict_then_continue_pushing() {
        let input = letters("abcabdabcabdabcabdabcabd");
        let mut s = Sequitur::new();
        for &t in &input[..16] {
            s.push(t);
        }
        s.evict_front(7);
        for &t in &input[16..] {
            s.push(t);
        }
        let expected: Vec<u32> = input[7..].to_vec();
        assert_eq!(s.len(), expected.len());
        let g = s.snapshot();
        assert_eq!(g.verify(&expected), None);
        assert!(s.check_index_consistency().is_empty());
    }

    #[test]
    fn eviction_stats_accumulate() {
        let input = letters("abcabdabcabdabcabd");
        let mut s = Sequitur::new();
        for &t in &input {
            s.push(t);
        }
        s.evict_front(10);
        let stats = s.stats();
        assert_eq!(stats.tokens_evicted, 10);
        // Eviction through this hierarchy must delete at least one rule.
        assert!(stats.rules_evicted >= 1, "stats: {stats:?}");
        // Relearned rules are also counted as created.
        assert!(stats.rules_created >= stats.rules_relearned);
    }

    #[test]
    fn rule_slots_are_recycled_under_eviction() {
        // A long alternating stream with continuous eviction must not grow
        // the rule arena without bound.
        let mut s = Sequitur::new();
        let mut pushed = 0usize;
        for i in 0..4000u32 {
            s.push(i % 3);
            pushed += 1;
            if pushed > 64 {
                s.evict_front(pushed - 64);
                pushed = 64;
            }
        }
        let sig = s.capacity_signature();
        // The rules arena (index 2 in the signature) stays small relative
        // to the number of rules ever created.
        assert!(
            sig[2] < 256,
            "rule arena grew unboundedly: {} slots for {} creations",
            sig[2],
            s.stats().rules_created
        );
        assert!(s.stats().rules_created > 100);
        assert!(s.check_index_consistency().is_empty());
    }
}
