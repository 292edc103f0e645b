//! The rule density curve (paper §4.1).
//!
//! For every series point, count how many grammar-rule occurrences span
//! it. Minima mark subsequences the grammar could not compress —
//! algorithmically anomalous by the paper's definition. Built in
//! O(m + occurrences) with a difference array.

use gv_timeseries::{CoverageCounter, Interval};

use crate::model::GrammarModel;

/// A ranked density-minimum interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityAnomaly {
    /// The maximal contiguous run of low-density points.
    pub interval: Interval,
    /// The lowest density inside the run (the ranking key; 0 means no rule
    /// covers the points at all).
    pub min_density: i64,
    /// Mean density across the run (tie-break diagnostics).
    pub mean_density: f64,
    /// Empirical significance: the fraction of *all* series points whose
    /// density is `<= min_density` — the "statistically sound criterion
    /// based on probabilities" §4.1 suggests as an additional ranking
    /// signal. Small values mean the run's depth is rare.
    pub empirical_p: f64,
}

/// The §4.1 detector output: the full curve plus ranked minima.
#[derive(Debug, Clone)]
pub struct DensityReport {
    /// Rule density per series point.
    pub curve: Vec<i64>,
    /// Up to `k` disjoint anomaly intervals, most anomalous (lowest
    /// density) first.
    pub anomalies: Vec<DensityAnomaly>,
}

/// The rule density curve.
#[derive(Debug, Clone)]
pub struct RuleDensity {
    pub(crate) curve: Vec<i64>,
}

impl RuleDensity {
    /// Builds the curve from a grammar model by iterating all rule
    /// occurrences (excluding `R0`, which spans everything).
    pub fn from_model(model: &GrammarModel) -> Self {
        let mut cc = CoverageCounter::new(model.series_len);
        for occ in model.grammar.occurrences() {
            cc.add(model.occurrence_interval(&occ));
        }
        Self { curve: cc.finish() }
    }

    /// Builds directly from a pre-computed curve (tests, replays).
    pub fn from_curve(curve: Vec<i64>) -> Self {
        Self { curve }
    }

    /// The per-point density values.
    pub fn curve(&self) -> &[i64] {
        &self.curve
    }

    /// The lowest density value inside `interval` (`None` when the
    /// interval is empty or out of range) — e.g. the rule-density floor at
    /// a reported discord.
    pub fn min_in(&self, interval: &Interval) -> Option<i64> {
        if interval.is_empty() || interval.end > self.curve.len() {
            return None;
        }
        self.curve[interval.start..interval.end]
            .iter()
            .copied()
            .min()
    }

    /// All maximal runs of points with `density <= threshold` — the
    /// paper's fixed-threshold reporting mode.
    pub fn anomalies_below(&self, threshold: i64) -> Vec<Interval> {
        let mut out = Vec::new();
        let mut run_start: Option<usize> = None;
        for (i, &d) in self.curve.iter().enumerate() {
            if d <= threshold {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else if let Some(s) = run_start.take() {
                out.push(Interval::new(s, i));
            }
        }
        if let Some(s) = run_start {
            out.push(Interval::new(s, self.curve.len()));
        }
        out
    }

    /// Ranked reporting: walks density levels from the global minimum
    /// upward, emitting maximal low-density runs that do not overlap
    /// already-reported ones, until `k` anomalies are found (or levels run
    /// out).
    pub fn report(&self, k: usize) -> DensityReport {
        self.report_trimmed(k, 0)
    }

    /// Like [`RuleDensity::report`], but ignores low-density runs that
    /// touch the series boundary or lie entirely within the first/last
    /// `edge` points.
    ///
    /// Coverage is *structurally* depressed near the boundaries (fewer
    /// windows — hence fewer rule spans — reach them, and the series stops
    /// mid-pattern), so boundary minima are usually discretization
    /// artifacts, not anomalies. The pipeline passes `edge = window`.
    pub fn report_trimmed(&self, k: usize, edge: usize) -> DensityReport {
        let len = self.curve.len();
        let is_edge_artifact = |run: &Interval| {
            edge > 0
                && (run.start == 0
                    || run.end == len
                    || run.end <= edge.min(len)
                    || run.start >= len.saturating_sub(edge))
        };
        let mut anomalies: Vec<DensityAnomaly> = Vec::new();
        if !self.curve.is_empty() && k > 0 {
            let mut levels: Vec<i64> = self.curve.clone();
            levels.sort_unstable();
            levels.dedup();
            'levels: for &level in &levels {
                for run in self.anomalies_below(level) {
                    if is_edge_artifact(&run) {
                        continue;
                    }
                    if anomalies.iter().any(|a| a.interval.overlaps(&run)) {
                        continue;
                    }
                    let slice = &self.curve[run.start..run.end];
                    let min_density = slice.iter().copied().min().unwrap_or(level);
                    let mean_density = slice.iter().sum::<i64>() as f64 / slice.len() as f64;
                    let at_or_below = self.curve.iter().filter(|&&d| d <= min_density).count();
                    let empirical_p = at_or_below as f64 / self.curve.len() as f64;
                    anomalies.push(DensityAnomaly {
                        interval: run,
                        min_density,
                        mean_density,
                        empirical_p,
                    });
                    if anomalies.len() == k {
                        break 'levels;
                    }
                }
            }
            anomalies.sort_by(|a, b| {
                a.min_density
                    .cmp(&b.min_density)
                    .then(a.mean_density.total_cmp(&b.mean_density))
            });
        }
        DensityReport {
            curve: self.curve.clone(),
            anomalies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_runs() {
        let d = RuleDensity::from_curve(vec![3, 3, 1, 0, 0, 2, 3, 1, 1, 3]);
        assert_eq!(d.anomalies_below(0), vec![Interval::new(3, 5)]);
        assert_eq!(
            d.anomalies_below(1),
            vec![Interval::new(2, 5), Interval::new(7, 9)]
        );
        assert!(d.anomalies_below(-1).is_empty());
        // Threshold at the max covers everything.
        assert_eq!(d.anomalies_below(3), vec![Interval::new(0, 10)]);
    }

    #[test]
    fn min_in_interval() {
        let d = RuleDensity::from_curve(vec![3, 3, 1, 0, 2, 5]);
        assert_eq!(d.min_in(&Interval::new(0, 2)), Some(3));
        assert_eq!(d.min_in(&Interval::new(1, 5)), Some(0));
        assert_eq!(d.min_in(&Interval::new(5, 6)), Some(5));
        assert_eq!(d.min_in(&Interval::new(2, 2)), None);
        assert_eq!(d.min_in(&Interval::new(4, 9)), None);
    }

    #[test]
    fn run_extending_to_series_end() {
        let d = RuleDensity::from_curve(vec![2, 2, 0, 0]);
        assert_eq!(d.anomalies_below(0), vec![Interval::new(2, 4)]);
    }

    #[test]
    fn ranked_report_orders_by_min_density() {
        let d = RuleDensity::from_curve(vec![5, 5, 0, 0, 5, 5, 1, 5, 5, 2, 2, 5]);
        let r = d.report(3);
        assert_eq!(r.anomalies.len(), 3);
        assert_eq!(r.anomalies[0].interval, Interval::new(2, 4));
        assert_eq!(r.anomalies[0].min_density, 0);
        assert_eq!(r.anomalies[1].interval, Interval::new(6, 7));
        assert_eq!(r.anomalies[1].min_density, 1);
        assert_eq!(r.anomalies[2].interval, Interval::new(9, 11));
        assert_eq!(r.anomalies[2].min_density, 2);
    }

    #[test]
    fn ranked_report_skips_overlapping_higher_levels() {
        // At level 1 the run [1,5) contains the level-0 run [2,3): only the
        // level-0 core is reported first; the widened run overlaps and is
        // skipped, so the next distinct anomaly is [7,8).
        let d = RuleDensity::from_curve(vec![9, 1, 0, 1, 1, 9, 9, 1, 9]);
        let r = d.report(2);
        assert_eq!(r.anomalies[0].interval, Interval::new(2, 3));
        assert_eq!(r.anomalies[1].interval, Interval::new(7, 8));
    }

    #[test]
    fn k_zero_and_empty_curve() {
        let d = RuleDensity::from_curve(vec![1, 2, 3]);
        assert!(d.report(0).anomalies.is_empty());
        let e = RuleDensity::from_curve(vec![]);
        assert!(e.report(3).anomalies.is_empty());
        assert!(e.curve().is_empty());
    }

    #[test]
    fn fewer_levels_than_k() {
        let d = RuleDensity::from_curve(vec![1, 1, 1, 1]);
        let r = d.report(5);
        // One flat run → one anomaly.
        assert_eq!(r.anomalies.len(), 1);
        assert_eq!(r.anomalies[0].interval, Interval::new(0, 4));
    }

    #[test]
    fn trimmed_report_skips_boundary_runs() {
        // Minima at both edges plus one interior minimum: trimming reports
        // only the interior one.
        let mut curve = vec![5i64; 30];
        curve[0] = 0;
        curve[1] = 0;
        curve[28] = 0;
        curve[29] = 0;
        curve[15] = 1;
        let d = RuleDensity::from_curve(curve);
        let trimmed = d.report_trimmed(3, 5);
        assert_eq!(trimmed.anomalies.len(), 1);
        assert_eq!(trimmed.anomalies[0].interval, Interval::new(15, 16));
        // Untrimmed reporting still sees the edge runs first.
        let raw = d.report(3);
        assert_eq!(raw.anomalies[0].min_density, 0);
        assert_eq!(raw.anomalies.len(), 3);
        // A run crossing the edge boundary is NOT trimmed.
        let mut curve2 = vec![5i64; 30];
        for c in curve2.iter_mut().take(8).skip(3) {
            *c = 0; // run [3, 8) extends past edge=5
        }
        let d2 = RuleDensity::from_curve(curve2);
        let r2 = d2.report_trimmed(1, 5);
        assert_eq!(r2.anomalies[0].interval, Interval::new(3, 8));
    }

    #[test]
    fn mean_density_computed() {
        let d = RuleDensity::from_curve(vec![4, 0, 2, 4]);
        let r = d.report(1);
        // Level 0 run is just [1,2).
        assert_eq!(r.anomalies[0].interval, Interval::new(1, 2));
        assert!((r.anomalies[0].mean_density - 0.0).abs() < 1e-12);
    }
}
