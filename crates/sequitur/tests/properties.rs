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

    /// The live occurrence walk is the snapshot's derivation walk: after
    /// every push, the multiset of `(cursor, len)` pairs it reports equals
    /// that of `snapshot().occurrences()`.
    #[test]
    fn live_occurrence_walk_matches_snapshot(
        tokens in proptest::collection::vec(0u32..4, 1..250),
    ) {
        let mut s = Sequitur::new();
        for &token in &tokens {
            s.push(token);
            let mut live = Vec::new();
            s.for_each_occurrence(|cursor, len| live.push((cursor, len)));
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
