//! Property tests for Sequitur: on arbitrary token streams the induced
//! grammar must round-trip to the input and maintain the paper's two
//! invariants (digram uniqueness, rule utility).

use gv_sequitur::Sequitur;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Small alphabets force heavy rule creation/expansion churn.
    #[test]
    fn invariants_hold_small_alphabet(tokens in proptest::collection::vec(0u32..4, 0..400)) {
        let g = Sequitur::induce(tokens.iter().copied());
        prop_assert_eq!(g.verify(&tokens), None);
    }

    /// Mid-size alphabets resemble real SAX token streams.
    #[test]
    fn invariants_hold_mid_alphabet(tokens in proptest::collection::vec(0u32..32, 0..600)) {
        let g = Sequitur::induce(tokens.iter().copied());
        prop_assert_eq!(g.verify(&tokens), None);
    }

    /// Binary streams maximize digram collisions and the triples fix-up.
    #[test]
    fn invariants_hold_binary(tokens in proptest::collection::vec(0u32..2, 0..300)) {
        let g = Sequitur::induce(tokens.iter().copied());
        prop_assert_eq!(g.verify(&tokens), None);
    }

    /// Highly repetitive inputs (tiled patterns) build deep hierarchies.
    #[test]
    fn invariants_hold_tiled(pattern in proptest::collection::vec(0u32..6, 1..12), reps in 1usize..40) {
        let tokens: Vec<u32> =
            std::iter::repeat_n(pattern.iter().copied(), reps).flatten().collect();
        let g = Sequitur::induce(tokens.iter().copied());
        prop_assert_eq!(g.verify(&tokens), None);
    }

    /// Occurrences must tile consistently: every reported occurrence's
    /// expansion matches the input slice it claims to cover.
    #[test]
    fn occurrences_match_input_slices(tokens in proptest::collection::vec(0u32..8, 0..300)) {
        let g = Sequitur::induce(tokens.iter().copied());
        for occ in g.occurrences() {
            let slice = &tokens[occ.token_start..occ.token_start + occ.token_len];
            prop_assert_eq!(g.expand_rule(occ.rule), slice.to_vec());
        }
    }

    /// Every non-R0 rule occurs in the input at least as many times as its
    /// reference count (each reference site is reached at least once from
    /// R0, and reused rules are reached more often).
    #[test]
    fn occurrence_counts_at_least_uses(tokens in proptest::collection::vec(0u32..5, 0..300)) {
        let g = Sequitur::induce(tokens.iter().copied());
        let counts = g.occurrence_counts();
        for rule in g.rules() {
            if rule.id == g.r0_id() {
                continue;
            }
            let occ = counts.get(&rule.id).copied().unwrap_or(0);
            prop_assert!(
                occ >= rule.rule_uses,
                "rule {} occurs {} times but is referenced {} times",
                rule.id, occ, rule.rule_uses
            );
        }
    }

    /// Grammar size never exceeds input length + a small constant: Sequitur
    /// compresses (or at worst stores the input verbatim in R0).
    #[test]
    fn grammar_never_larger_than_input(tokens in proptest::collection::vec(0u32..16, 0..400)) {
        let g = Sequitur::induce(tokens.iter().copied());
        prop_assert!(g.grammar_size() <= tokens.len().max(1));
    }

    /// Windowed eviction: after retiring an arbitrary prefix, the survivor
    /// must hold all grammar invariants, round-trip to the retained token
    /// suffix — the same suffix a from-scratch `Sequitur::induce` over it
    /// reproduces — and keep the digram index consistent mid-stream.
    #[test]
    fn eviction_preserves_invariants_and_suffix(
        tokens in proptest::collection::vec(0u32..6, 1..300),
        evict_frac in 0.0f64..1.0,
    ) {
        let k = ((tokens.len() as f64) * evict_frac) as usize;
        let mut s = Sequitur::new();
        for &t in &tokens {
            s.push(t);
        }
        s.evict_front(k);
        let suffix = &tokens[k..];
        prop_assert_eq!(s.len(), suffix.len());
        prop_assert_eq!(s.tokens_evicted(), k as u64);
        let problems = s.check_index_consistency();
        prop_assert!(problems.is_empty(), "index problems: {:?}", problems);
        let g = s.snapshot();
        prop_assert_eq!(g.verify(suffix), None);
        // A fresh induction over the suffix agrees on the round-trip.
        let fresh = Sequitur::induce(suffix.iter().copied());
        prop_assert_eq!(g.expand_rule(g.r0_id()), fresh.expand_rule(fresh.r0_id()));
    }

    /// Interleaved push/evict (the streaming pattern: bounded horizon per
    /// push) must agree with the retained suffix at every step's end.
    #[test]
    fn interleaved_push_evict_tracks_suffix(
        tokens in proptest::collection::vec(0u32..4, 1..300),
        horizon in 1usize..48,
    ) {
        let mut s = Sequitur::new();
        for &t in &tokens {
            s.push(t);
            if s.len() > horizon {
                let over = s.len() - horizon;
                s.evict_front(over);
            }
        }
        let keep = tokens.len().min(horizon);
        let suffix = &tokens[tokens.len() - keep..];
        prop_assert_eq!(s.len(), suffix.len());
        let problems = s.check_index_consistency();
        prop_assert!(problems.is_empty(), "index problems: {:?}", problems);
        let g = s.snapshot();
        prop_assert_eq!(g.verify(suffix), None);
    }

    /// Tiled (periodic) streams under per-push eviction: straddling
    /// unrolls followed by re-learning are exactly the cascades that once
    /// leaked once-used rules (see `eviction_enforces_rule_utility`), so
    /// hammer that shape with full invariant checks.
    #[test]
    fn interleaved_push_evict_invariants_tiled(
        pattern in proptest::collection::vec(0u32..8, 4..20),
        reps in 2usize..12,
        horizon in 8usize..64,
    ) {
        let tokens: Vec<u32> =
            std::iter::repeat_n(pattern.iter().copied(), reps).flatten().collect();
        let mut s = Sequitur::new();
        for &t in &tokens {
            s.push(t);
            if s.len() > horizon {
                s.evict_front(s.len() - horizon);
            }
        }
        let keep = tokens.len().min(horizon);
        let suffix = &tokens[tokens.len() - keep..];
        let g = s.snapshot();
        let verdict = g.verify(suffix);
        prop_assert!(
            verdict.is_none(),
            "{:?} (pattern {:?}, reps {}, horizon {})",
            verdict, pattern, reps, horizon
        );
    }

    /// The live occurrence walk is the snapshot's derivation walk: under
    /// random push/evict interleavings, the multiset of
    /// `(cursor − tokens_evicted(), len)` pairs it reports equals that of
    /// `snapshot().occurrences()` after every step.
    #[test]
    fn live_occurrence_walk_matches_snapshot(
        steps in proptest::collection::vec((0u32..4, 0usize..8), 1..250),
    ) {
        let mut s = Sequitur::new();
        for &(token, evict) in &steps {
            s.push(token);
            // Three steps in eight retire one to three front tokens, so
            // the grammar grows while its front keeps evicting.
            if evict >= 5 {
                s.evict_front(evict - 4);
            }
            let evicted = s.tokens_evicted();
            let mut live = Vec::new();
            s.for_each_occurrence(|cursor, len| live.push((cursor - evicted, len)));
            let mut snap: Vec<(u64, u64)> = s
                .snapshot()
                .occurrences()
                .iter()
                .map(|o| (o.token_start as u64, o.token_len as u64))
                .collect();
            live.sort_unstable();
            snap.sort_unstable();
            prop_assert_eq!(live, snap);
        }
    }
}

/// Regression: evicting a single token from this two-period tiled stream
/// once left a five-rule chain behind, every link used exactly once — the
/// eviction repair's `match_digrams` utility checks cover only the
/// boundary symbols of the rule it (re)uses, and a seam-check cascade
/// that consumes that rule skipped even those. The post-eviction utility
/// sweep now inlines the chain.
#[test]
fn eviction_enforces_rule_utility() {
    let tokens: Vec<u32> = (0..16).chain(0..16).chain(0..8).collect();
    let mut s = Sequitur::new();
    for &t in &tokens {
        s.push(t);
    }
    s.evict_front(1);
    let g = s.snapshot();
    assert_eq!(g.verify(&tokens[1..]), None);
    assert!(s.check_index_consistency().is_empty());
}
