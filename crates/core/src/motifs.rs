//! Variable-length motif discovery (paper §3.5).
//!
//! Anomaly detection is the *inverse* of motif discovery: the same grammar
//! whose rarely-used symbols flag anomalies makes its frequently-used
//! rules the recurrent patterns. This module is the GrammarViz motif view
//! ported on top of [`GrammarModel`] — Sequitur's utility constraint
//! guarantees every rule corresponds to a pattern occurring at least
//! twice, and numerosity reduction lets the occurrences differ in length.

use gv_sequitur::RuleId;
use gv_timeseries::Interval;
use serde::{Deserialize, Serialize};

use crate::model::GrammarModel;

/// A recurrent variable-length pattern: one grammar rule and every place
/// its expansion occurs in the series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Motif {
    /// The grammar rule behind the pattern.
    pub rule: RuleId,
    /// All occurrences, in series order (length ≥ 2 by rule utility).
    pub occurrences: Vec<Interval>,
    /// Mean occurrence length in points.
    pub mean_length: f64,
    /// Shortest occurrence length.
    pub min_length: usize,
    /// Longest occurrence length.
    pub max_length: usize,
}

impl Motif {
    /// Number of occurrences (the motif's support).
    pub fn count(&self) -> usize {
        self.occurrences.len()
    }

    /// Occurrence periodicity — the GrammarViz "Rules periodicity" pane:
    /// mean and standard deviation of the gaps between consecutive
    /// occurrence starts. A small relative deviation means the pattern
    /// recurs on a regular schedule (heartbeats, weekly cycles); `None`
    /// for motifs with fewer than two occurrences.
    pub fn periodicity(&self) -> Option<(f64, f64)> {
        if self.occurrences.len() < 2 {
            return None;
        }
        let gaps: Vec<f64> = self
            .occurrences
            .windows(2)
            .map(|w| (w[1].start - w[0].start) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        Some((mean, var.sqrt()))
    }
}

/// Extracts the top-`k` motifs, ordered by descending occurrence count
/// (ties: longer expansions first — "more pattern" wins).
pub fn motifs(model: &GrammarModel, k: usize) -> Vec<Motif> {
    use std::collections::BTreeMap;
    let mut per_rule: BTreeMap<RuleId, Vec<Interval>> = BTreeMap::new();
    for occ in model.grammar.occurrences() {
        per_rule
            .entry(occ.rule)
            .or_default()
            .push(model.occurrence_interval(&occ));
    }
    let mut out: Vec<Motif> = per_rule
        .into_iter()
        .filter(|(_, occs)| occs.len() >= 2)
        .map(|(rule, mut occurrences)| {
            occurrences.sort();
            let lens: Vec<usize> = occurrences.iter().map(|iv| iv.len()).collect();
            let mean_length = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
            Motif {
                rule,
                min_length: lens.iter().copied().min().unwrap_or(0),
                max_length: lens.iter().copied().max().unwrap_or(0),
                mean_length,
                occurrences,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.count()
            .cmp(&a.count())
            .then(b.mean_length.total_cmp(&a.mean_length))
            .then(a.rule.0.cmp(&b.rule.0))
    });
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::AnomalyPipeline;
    use gv_obs::NoopRecorder;

    fn periodic_series() -> Vec<f64> {
        (0..2000)
            .map(|i| (i as f64 / 20.0).sin() + 0.4 * (i as f64 / 5.0).sin())
            .collect()
    }

    #[test]
    fn motifs_found_in_periodic_data() {
        let values = periodic_series();
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(80, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        let found = motifs(&model, 5);
        assert!(!found.is_empty(), "periodic data must contain motifs");
        // Ordered by descending support.
        for w in found.windows(2) {
            assert!(w[0].count() >= w[1].count());
        }
        // Every motif occurs at least twice and its occurrences are sorted
        // and in bounds.
        for m in &found {
            assert!(m.count() >= 2);
            assert!(m.min_length <= m.max_length);
            assert!(m.mean_length >= m.min_length as f64);
            assert!(m.mean_length <= m.max_length as f64);
            for w in m.occurrences.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert!(m.occurrences.iter().all(|iv| iv.end <= values.len()));
        }
    }

    #[test]
    fn top_motif_covers_much_of_a_periodic_series() {
        let values = periodic_series();
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(80, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        let found = motifs(&model, 1);
        let top = &found[0];
        // The most frequent rule in a periodic signal recurs many times.
        assert!(top.count() >= 3, "top motif count {}", top.count());
    }

    #[test]
    fn periodicity_of_regular_motif() {
        // Strictly periodic series: the top motif's occurrence gaps are
        // regular (relative deviation well below the mean).
        let values: Vec<f64> = (0..3000)
            .map(|i| (i as f64 * std::f64::consts::TAU / 100.0).sin())
            .collect();
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(80, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        let found = motifs(&model, 1);
        let (mean, sd) = found[0].periodicity().unwrap();
        assert!(mean > 0.0);
        assert!(
            sd < mean * 0.5,
            "regular pattern should have regular gaps: mean {mean}, sd {sd}"
        );
        // Two-occurrence edge: synthetic motif.
        let m = Motif {
            rule: gv_sequitur::RuleId(1),
            occurrences: vec![Interval::new(0, 10), Interval::new(50, 60)],
            mean_length: 10.0,
            min_length: 10,
            max_length: 10,
        };
        assert_eq!(m.periodicity(), Some((50.0, 0.0)));
        let single = Motif {
            occurrences: vec![Interval::new(0, 10)],
            ..m
        };
        assert_eq!(single.periodicity(), None);
    }

    #[test]
    fn k_truncates() {
        let values = periodic_series();
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(80, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        assert!(motifs(&model, 2).len() <= 2);
        assert!(motifs(&model, 0).is_empty());
    }

    #[test]
    fn variable_length_occurrences() {
        // Jittered repetitions should give at least one motif whose
        // occurrences differ in length (the §3.3 selling point).
        let mut values = Vec::new();
        for rep in 0..24 {
            let len = 90 + (rep % 3) * 8; // varying cycle length
            for i in 0..len {
                values.push((i as f64 / len as f64 * std::f64::consts::TAU).sin());
            }
        }
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(60, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        let found = motifs(&model, 10);
        assert!(
            found.iter().any(|m| m.min_length != m.max_length),
            "expected some variable-length motif, got {found:?}"
        );
    }
}
