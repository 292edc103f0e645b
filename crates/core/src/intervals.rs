//! RRA candidate construction (paper §4.2).
//!
//! "*Intervals* subsequences are those that correspond to the grammar
//! rules plus all continuous subsequences of the discretized time series
//! that do not form any rule" — the latter get frequency 0 and are visited
//! first by the Outer ordering.

use gv_sequitur::{RuleId, Symbol};
use gv_timeseries::Interval;
use serde::{Deserialize, Serialize};

use crate::model::GrammarModel;

/// One RRA candidate: a rule-corresponding subsequence (or an uncovered
/// terminal run) with its rule-usage frequency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleInterval {
    /// The covered raw-series interval.
    pub interval: Interval,
    /// The rule this candidate came from; `None` for an uncovered run of
    /// terminals at the top level (frequency-0 candidates).
    pub rule: Option<RuleId>,
    /// How often the rule's expansion occurs in the input (0 for uncovered
    /// runs) — the Outer ordering key.
    pub frequency: usize,
}

/// Builds the full RRA candidate list from a grammar model: every
/// occurrence of every non-R0 rule, plus every maximal run of bare
/// terminals on R0's right-hand side.
pub fn rule_intervals(model: &GrammarModel) -> Vec<RuleInterval> {
    let mut out = Vec::new();
    rule_intervals_into(model, &mut out);
    out
}

/// The candidate set the RRA search runs on: [`rule_intervals`] minus the
/// frequency-0 runs touching either end of the series. The first and last
/// token runs routinely fall outside every rule simply because the
/// pattern dictionary is still warming up (or the series stops
/// mid-pattern), and their large nearest-neighbour distances would
/// otherwise shadow genuine interior anomalies.
pub fn search_candidates(model: &GrammarModel) -> Vec<RuleInterval> {
    let mut out = rule_intervals(model);
    out.retain(|c| is_search_candidate(c, model.series_len));
    out
}

/// The [`search_candidates`] rule for one candidate of a
/// `series_len`-point series: rule occurrences always stay; an uncovered
/// run stays only when it touches neither end.
pub(crate) fn is_search_candidate(c: &RuleInterval, series_len: usize) -> bool {
    c.rule.is_some() || (c.interval.start > 0 && c.interval.end < series_len)
}

/// [`rule_intervals`] writing into a caller-owned buffer (cleared first),
/// so repeated candidate construction through a reused workspace stops
/// re-allocating once the buffer has warmed up.
pub(crate) fn rule_intervals_into(model: &GrammarModel, out: &mut Vec<RuleInterval>) {
    out.clear();
    let grammar = &model.grammar;
    let counts = grammar.occurrence_counts();

    // 1. Rule occurrences (every nesting level).
    for occ in grammar.occurrences() {
        out.push(RuleInterval {
            interval: model.occurrence_interval(&occ),
            rule: Some(occ.rule),
            frequency: counts.get(&occ.rule).copied().unwrap_or(0),
        });
    }

    // 2. Uncovered terminal runs on R0: token stretches that never made it
    //    into any rule (frequency 0).
    let r0 = grammar.rule(grammar.r0_id());
    let mut cursor = 0usize; // token position
    let mut run_start: Option<usize> = None;
    for sym in &r0.rhs {
        match sym {
            Symbol::Terminal(_) => {
                if run_start.is_none() {
                    run_start = Some(cursor);
                }
                cursor += 1;
            }
            Symbol::Rule(r) => {
                if let Some(s) = run_start.take() {
                    out.push(RuleInterval {
                        interval: model.token_span_to_interval(s, cursor - s),
                        rule: None,
                        frequency: 0,
                    });
                }
                cursor += grammar.expansion_len(*r);
            }
        }
    }
    if let Some(s) = run_start {
        out.push(RuleInterval {
            interval: model.token_span_to_interval(s, cursor - s),
            rule: None,
            frequency: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::AnomalyPipeline;
    use gv_obs::NoopRecorder;

    /// A repetitive sine with a one-off distortion in the middle.
    fn series() -> Vec<f64> {
        let mut v: Vec<f64> = (0..1200).map(|i| (i as f64 / 15.0).sin()).collect();
        for (i, x) in v[600..660].iter_mut().enumerate() {
            *x = 0.2 * (i as f64 / 2.0).sin();
        }
        v
    }

    fn model() -> GrammarModel {
        AnomalyPipeline::new(PipelineConfig::new(60, 4, 4).unwrap())
            .model(&series(), &NoopRecorder)
            .unwrap()
    }

    #[test]
    fn candidates_exist_and_are_consistent() {
        let m = model();
        let cands = rule_intervals(&m);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(!c.interval.is_empty());
            assert!(c.interval.end <= m.series_len);
            match c.rule {
                Some(_) => assert!(c.frequency >= 1, "rule candidates occur at least once"),
                None => assert_eq!(c.frequency, 0, "uncovered runs have frequency 0"),
            }
        }
    }

    #[test]
    fn rule_candidates_match_occurrence_counts() {
        let m = model();
        let cands = rule_intervals(&m);
        let counts = m.grammar.occurrence_counts();
        // Every rule with occurrences contributes exactly that many
        // candidates.
        use std::collections::HashMap;
        let mut per_rule: HashMap<RuleId, usize> = HashMap::new();
        for c in &cands {
            if let Some(r) = c.rule {
                *per_rule.entry(r).or_insert(0) += 1;
            }
        }
        for (rule, n) in &per_rule {
            assert_eq!(counts[rule], *n, "{rule}");
        }
    }

    #[test]
    fn zero_frequency_runs_are_maximal_terminal_stretches() {
        let m = model();
        let cands = rule_intervals(&m);
        let zero: Vec<_> = cands.iter().filter(|c| c.rule.is_none()).collect();
        // The distorted middle should leave at least one uncovered run OR
        // be captured by rare rules; in either case zero-runs, when they
        // exist, must not overlap each other.
        for i in 0..zero.len() {
            for j in i + 1..zero.len() {
                assert!(!zero[i].interval.overlaps(&zero[j].interval));
            }
        }
    }

    #[test]
    fn search_candidates_drop_exactly_the_boundary_runs() {
        use crate::engine::{EngineConfig, RraDetector};
        // One-off shapes at both ends leave uncovered runs touching them.
        let mut v = series();
        for (i, x) in v[..90].iter_mut().enumerate() {
            *x = 0.5 * (i as f64 / 3.0).cos();
        }
        for (i, x) in v[1110..].iter_mut().enumerate() {
            *x = (i as f64 / 30.0).powi(2);
        }
        let config = PipelineConfig::new(60, 4, 4).unwrap();
        let m = AnomalyPipeline::new(config.clone())
            .model(&v, &NoopRecorder)
            .unwrap();
        let at_edge = |c: &RuleInterval| {
            c.frequency == 0 && (c.interval.start == 0 || c.interval.end == m.series_len)
        };
        let all = rule_intervals(&m);
        assert!(all.iter().any(at_edge), "no boundary run to drop");
        let kept = search_candidates(&m);
        assert_eq!(
            kept,
            all.into_iter().filter(|c| !at_edge(c)).collect::<Vec<_>>()
        );
        let report = RraDetector::new(config, 1)
            .with_engine(EngineConfig::sequential())
            .search_model(&v, &m, &mut crate::Workspace::new(), &NoopRecorder)
            .unwrap();
        assert_eq!(report.num_candidates, kept.len());
    }

    #[test]
    fn hand_built_model_with_uncovered_run() {
        use gv_sax::{SaxDictionary, SaxRecord, SaxWord};
        use gv_sequitur::Sequitur;
        // 0 1 0 1 2 3 0 1 — tokens 4,5 ("2 3") occur once: uncovered.
        let tokens = [0u32, 1, 0, 1, 2, 3, 0, 1];
        let grammar = Sequitur::induce(tokens.iter().copied());
        let mut dictionary = SaxDictionary::new();
        let words = ["aa", "ab", "ba", "bb"];
        for w in words {
            dictionary.intern(&SaxWord::from_letters(w).unwrap());
        }
        let records: Vec<SaxRecord> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| SaxRecord {
                word: SaxWord::from_letters(words[t as usize]).unwrap(),
                offset: i * 10,
            })
            .collect();
        let model = GrammarModel {
            grammar,
            records,
            dictionary,
            series_len: 100,
            window: 10,
        };
        let cands = rule_intervals(&model);
        let zero: Vec<_> = cands.iter().filter(|c| c.rule.is_none()).collect();
        assert_eq!(zero.len(), 1, "one uncovered run: {cands:?}");
        // Tokens 4..6 → offsets 40..(50+10).
        assert_eq!(zero[0].interval, Interval::new(40, 60));
        // And the (0 1) rule occurs 3 times.
        let max_freq = cands.iter().map(|c| c.frequency).max().unwrap();
        assert_eq!(max_freq, 3);
    }
}
