//! Detector evaluation against labelled ground truth.
//!
//! Shared scoring used by the benchmark harness and the integration
//! tests: given a set of reported intervals and a set of planted truth
//! intervals, compute hit/miss/false-alarm counts and precision/recall.
//! "Hit" is overlap-based (with optional slack), matching how the paper
//! assesses localisation (a discord overlapping the annotated event
//! counts, exact boundaries are not expected).

use gv_timeseries::Interval;

/// Evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Truth intervals overlapped by at least one report.
    pub truths_found: usize,
    /// Truth intervals nothing overlapped.
    pub truths_missed: usize,
    /// Reports that overlap at least one truth interval.
    pub reports_correct: usize,
    /// Reports overlapping nothing (false alarms).
    pub reports_spurious: usize,
}

impl Evaluation {
    /// `reports_correct / total reports` (1.0 when nothing was reported).
    pub fn precision(&self) -> f64 {
        let total = self.reports_correct + self.reports_spurious;
        if total == 0 {
            1.0
        } else {
            self.reports_correct as f64 / total as f64
        }
    }

    /// `truths_found / total truths` (1.0 when nothing was planted).
    pub fn recall(&self) -> f64 {
        let total = self.truths_found + self.truths_missed;
        if total == 0 {
            1.0
        } else {
            self.truths_found as f64 / total as f64
        }
    }

    /// Harmonic mean of precision and recall (0.0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // gv-lint: allow(no-float-eq) guard against 0/0: precision and recall are exact 0.0 when their counts are zero
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Scores `reports` against `truths`, widening each truth by `slack`
/// points on both sides (clamped to `series_len`).
pub fn evaluate(
    reports: &[Interval],
    truths: &[Interval],
    slack: usize,
    series_len: usize,
) -> Evaluation {
    let widened: Vec<Interval> = truths
        .iter()
        .map(|t| {
            Interval::new(
                t.start.saturating_sub(slack),
                (t.end + slack).min(series_len),
            )
        })
        .collect();
    let truths_found = widened
        .iter()
        .filter(|t| reports.iter().any(|r| r.overlaps(t)))
        .count();
    let reports_correct = reports
        .iter()
        .filter(|r| widened.iter().any(|t| t.overlaps(r)))
        .count();
    Evaluation {
        truths_found,
        truths_missed: truths.len() - truths_found,
        reports_correct,
        reports_spurious: reports.len() - reports_correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_detection() {
        let truths = [Interval::new(100, 150), Interval::new(300, 350)];
        let reports = [Interval::new(110, 140), Interval::new(290, 320)];
        let e = evaluate(&reports, &truths, 0, 1000);
        assert_eq!(e.truths_found, 2);
        assert_eq!(e.truths_missed, 0);
        assert_eq!(e.reports_spurious, 0);
        assert_eq!(e.precision(), 1.0);
        assert_eq!(e.recall(), 1.0);
        assert_eq!(e.f1(), 1.0);
    }

    #[test]
    fn partial_detection() {
        let truths = [Interval::new(100, 150), Interval::new(300, 350)];
        let reports = [Interval::new(110, 140), Interval::new(600, 650)];
        let e = evaluate(&reports, &truths, 0, 1000);
        assert_eq!(e.truths_found, 1);
        assert_eq!(e.truths_missed, 1);
        assert_eq!(e.reports_correct, 1);
        assert_eq!(e.reports_spurious, 1);
        assert!((e.precision() - 0.5).abs() < 1e-12);
        assert!((e.recall() - 0.5).abs() < 1e-12);
        assert!((e.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slack_turns_near_miss_into_hit() {
        let truths = [Interval::new(100, 150)];
        let reports = [Interval::new(160, 200)];
        assert_eq!(evaluate(&reports, &truths, 0, 1000).truths_found, 0);
        assert_eq!(evaluate(&reports, &truths, 20, 1000).truths_found, 1);
    }

    #[test]
    fn empty_edges() {
        let e = evaluate(&[], &[], 0, 100);
        assert_eq!(e.precision(), 1.0);
        assert_eq!(e.recall(), 1.0);
        let e2 = evaluate(&[], &[Interval::new(0, 10)], 0, 100);
        assert_eq!(e2.recall(), 0.0);
        assert_eq!(e2.precision(), 1.0); // nothing reported, nothing wrong
        let e3 = evaluate(&[Interval::new(50, 60)], &[], 0, 100);
        assert_eq!(e3.precision(), 0.0);
        assert_eq!(e3.f1(), 0.0);
    }

    #[test]
    fn slack_clamps_at_series_end() {
        let truths = [Interval::new(90, 95)];
        let e = evaluate(&[Interval::new(97, 99)], &truths, 10, 100);
        assert_eq!(e.truths_found, 1);
    }
}
