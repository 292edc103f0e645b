//! Grammar-rule pruning — the GrammarViz 2.0 "Prune rules" feature
//! visible in the paper's Figure 12 toolbar.
//!
//! Sequitur grammars are redundant for *coverage* purposes: nested rules
//! cover the same points as their parents, and many small rules add
//! nothing a larger rule doesn't already span. Pruning greedily keeps the
//! minimal set of rules whose occurrence intervals still cover every
//! point any rule covered — a much smaller, human-readable rule table for
//! exploration, with the density-relevant support intact.

use gv_sequitur::RuleId;
use gv_timeseries::{merge_intervals, Interval};

use crate::model::GrammarModel;

/// One kept rule with its occurrence intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedRule {
    /// The rule.
    pub rule: RuleId,
    /// Its occurrences (series intervals), sorted.
    pub occurrences: Vec<Interval>,
    /// Points this rule newly covered when it was selected (its greedy
    /// marginal contribution).
    pub contribution: usize,
}

/// The pruning result.
#[derive(Debug, Clone)]
pub struct PrunedGrammar {
    /// Kept rules, in selection order (largest contribution first).
    pub rules: Vec<PrunedRule>,
    /// Total points covered by all rules before pruning.
    pub covered_before: usize,
    /// Rules (with ≥ 1 occurrence) before pruning, excluding `R0`.
    pub rules_before: usize,
}

impl PrunedGrammar {
    /// Total points covered after pruning (greedy cover keeps this equal
    /// to [`PrunedGrammar::covered_before`]).
    pub fn covered_after(&self) -> usize {
        let all: Vec<Interval> = self
            .rules
            .iter()
            .flat_map(|r| r.occurrences.iter().copied())
            .collect();
        merge_intervals(all).iter().map(|iv| iv.len()).sum()
    }
}

/// Greedy set-cover pruning over the model's rule occurrences.
pub fn prune(model: &GrammarModel) -> PrunedGrammar {
    use std::collections::BTreeMap;
    let mut per_rule: BTreeMap<RuleId, Vec<Interval>> = BTreeMap::new();
    for occ in model.grammar.occurrences() {
        per_rule
            .entry(occ.rule)
            .or_default()
            .push(model.occurrence_interval(&occ));
    }
    let rules_before = per_rule.len();

    // Coverage target: every point covered by any rule.
    let mut covered = vec![false; model.series_len];
    for ivs in per_rule.values() {
        for iv in ivs {
            for c in covered.iter_mut().take(iv.end).skip(iv.start) {
                *c = true;
            }
        }
    }
    let covered_before = covered.iter().filter(|&&c| c).count();

    // Greedy: repeatedly take the rule covering the most uncovered points.
    let mut remaining: Vec<(RuleId, Vec<Interval>)> = per_rule
        .into_iter()
        .map(|(r, mut ivs)| {
            ivs.sort();
            (r, ivs)
        })
        .collect();
    remaining.sort_by_key(|(r, _)| r.0); // deterministic start order
    let mut uncovered = covered; // true = still needs covering
    let mut kept = Vec::new();
    loop {
        let mut best: Option<(usize, usize)> = None; // (index, gain)
        for (i, (_, ivs)) in remaining.iter().enumerate() {
            // Merge first: a rule's own occurrences can overlap, and a
            // point must count once.
            let gain: usize = merge_intervals(ivs.clone())
                .iter()
                .map(|iv| uncovered[iv.start..iv.end].iter().filter(|&&u| u).count())
                .sum();
            match best {
                Some((_, g)) if gain <= g => {}
                _ if gain > 0 => best = Some((i, gain)),
                _ => {}
            }
        }
        let Some((i, gain)) = best else { break };
        let (rule, occurrences) = remaining.swap_remove(i);
        for iv in &occurrences {
            for u in uncovered.iter_mut().take(iv.end).skip(iv.start) {
                *u = false;
            }
        }
        kept.push(PrunedRule {
            rule,
            occurrences,
            contribution: gain,
        });
    }

    PrunedGrammar {
        rules: kept,
        covered_before,
        rules_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::AnomalyPipeline;
    use gv_obs::NoopRecorder;

    fn model() -> GrammarModel {
        let values: Vec<f64> = (0..2000)
            .map(|i| (i as f64 / 20.0).sin() + 0.3 * (i as f64 / 7.0).sin())
            .collect();
        AnomalyPipeline::new(PipelineConfig::new(80, 4, 4).unwrap())
            .model(&values, &NoopRecorder)
            .unwrap()
    }

    #[test]
    fn pruning_preserves_coverage() {
        let m = model();
        let pruned = prune(&m);
        assert_eq!(
            pruned.covered_after(),
            pruned.covered_before,
            "greedy cover must not lose covered points"
        );
    }

    #[test]
    fn pruning_reduces_rule_count() {
        let m = model();
        let pruned = prune(&m);
        assert!(pruned.rules.len() <= pruned.rules_before);
        assert!(
            pruned.rules.len() < pruned.rules_before,
            "a periodic grammar should have redundant rules \
             ({} before, {} after)",
            pruned.rules_before,
            pruned.rules.len()
        );
    }

    #[test]
    fn contributions_never_exceed_series_length() {
        let m = model();
        let pruned = prune(&m);
        for r in &pruned.rules {
            assert!(
                r.contribution <= m.series_len,
                "{}: contribution {} > series {}",
                r.rule,
                r.contribution,
                m.series_len
            );
        }
        // Contributions sum to exactly the covered point count.
        let sum: usize = pruned.rules.iter().map(|r| r.contribution).sum();
        assert_eq!(sum, pruned.covered_before);
    }

    #[test]
    fn contributions_are_positive_and_ordered_greedily() {
        let m = model();
        let pruned = prune(&m);
        assert!(!pruned.rules.is_empty());
        for r in &pruned.rules {
            assert!(r.contribution > 0);
            assert!(!r.occurrences.is_empty());
        }
        // Greedy property: the first selection has the largest single
        // contribution.
        let max = pruned.rules.iter().map(|r| r.contribution).max().unwrap();
        assert_eq!(pruned.rules[0].contribution, max);
    }

    #[test]
    fn empty_grammar_prunes_to_nothing() {
        // A series whose discretization is a single token: no rules at all.
        let values = vec![1.0; 300];
        let m = AnomalyPipeline::new(PipelineConfig::new(50, 4, 4).unwrap())
            .model(&values, &NoopRecorder)
            .unwrap();
        let pruned = prune(&m);
        assert!(pruned.rules.is_empty());
        assert_eq!(pruned.covered_before, 0);
        assert_eq!(pruned.covered_after(), 0);
    }
}
