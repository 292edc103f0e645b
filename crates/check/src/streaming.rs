//! Check 6 — the streaming differential: a stream's reads must be
//! indistinguishable from a from-scratch batch run on the slice it
//! retains, whether it keeps the whole stream or a bounded horizon.
//!
//! Every claim is checked bit-for-bit against a batch model built
//! independently over [`StreamingDetector::values`]:
//!
//! * **Density**: the stream curve must equal a naive point-by-point
//!   recount over the batch model. Unbounded, the curve is counted from
//!   the live grammar's occurrence walk, so any drift between the online
//!   grammar, its records and the batch pipeline shows up here. Bounded,
//!   it comes from the model the read built over the horizon; the stream
//!   is read once mid-way first, so a read that reused a model built at an
//!   earlier point fails too;
//! * **Alerts**: the stream's alerts must be the maximal low-density runs
//!   of that curve that lie in the mature region, as
//!   [`StreamingDetector::alerts`] documents;
//! * **Discords**: [`StreamingDetector::detect`] over the horizon view
//!   must match a fresh batch detector on the same raw slice, interval
//!   and distance bits included (workspace reuse must be invisible);
//! * **Structure**: the stream's own model satisfies every Sequitur
//!   invariant, `R0` round-trips its tokens, and every occurrence maps
//!   into bounds.
//!
//! On a bounded stream every read at a new stream length builds a model
//! over the horizon, so these checks cost a few batch runs of the slice.

use gv_obs::NoopRecorder;
use gv_timeseries::Interval;
use gva_core::{
    AnomalyPipeline, Detector, EngineConfig, PipelineConfig, RraDetector, SeriesView,
    StreamingDetector, Workspace,
};

use crate::{
    check_density_recount, check_grammar_invariants, check_occurrence_mapping,
    check_token_reconstruction, CheckReport, CheckResult,
};

/// Streams `values` through a [`StreamingDetector`] bounded to `horizon`
/// points (`0`: unbounded), reading its alerts once half-way, and runs
/// every streaming-differential check on the final state. `k` and
/// `threads` parameterize the discord search exactly as in
/// [`check_series`](crate::check_series).
///
/// # Errors
/// Whatever [`StreamingDetector::push`] rejects — non-finite input is the
/// only case, and a *valid* outcome for degenerate series (the fuzz
/// driver asserts that path separately).
pub fn check_streaming(
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    threads: usize,
    horizon: usize,
) -> gva_core::Result<CheckReport> {
    let mut det = StreamingDetector::new(config.clone()).with_horizon(horizon);
    for (i, &v) in values.iter().enumerate() {
        det.push(v)?;
        if i + 1 == values.len() / 2 {
            // The checks below must not see what this read built.
            det.alerts(0, config.window());
        }
    }

    let mut report = CheckReport::default();
    report.results.push(check_retained_values(&det, values));
    let curve = det.density_curve();
    report
        .results
        .push(check_streaming_density(&det, config, &curve));
    report
        .results
        .push(check_streaming_alerts(&mut det, &curve));

    let model = det.model();
    report.results.push(check_grammar_invariants(&model));
    report.results.push(check_token_reconstruction(&model));
    report.results.push(check_occurrence_mapping(&model));

    report
        .results
        .push(check_streaming_detect(&mut det, config, k, threads));
    Ok(report)
}

/// The retained window of raw points must be exactly the stream's suffix
/// — `SlidingBuf` compaction is not allowed to disturb a single bit.
fn check_retained_values(det: &StreamingDetector, values: &[f64]) -> CheckResult {
    let mut result = CheckResult::pass("retained values equal the stream suffix");
    let retained = det.values();
    let suffix = &values[det.horizon_start()..];
    if retained.len() != suffix.len() {
        result.violations.push(format!(
            "engine retains {} points, the suffix has {}",
            retained.len(),
            suffix.len()
        ));
        return result;
    }
    for (i, (&a, &b)) in retained.iter().zip(suffix).enumerate() {
        if a.to_bits() != b.to_bits() {
            result.violations.push(format!(
                "retained point {} (absolute {}): engine holds {a}, stream said {b}",
                i,
                det.horizon_start() + i
            ));
            if result.violations.len() >= 8 {
                result
                    .violations
                    .push("… (further mismatches elided)".into());
                break;
            }
        }
    }
    result
}

/// The stream curve must equal a naive recount over a batch model built
/// from scratch on the retained slice ([`check_density_recount`]); below
/// one window, where no model exists, it must be all zeros.
fn check_streaming_density(
    det: &StreamingDetector,
    config: &PipelineConfig,
    curve: &[i64],
) -> CheckResult {
    let mut result = match AnomalyPipeline::new(config.clone()).model(det.values(), &NoopRecorder) {
        Ok(batch) => check_density_recount(&batch, curve),
        Err(e) => {
            let mut result = CheckResult::pass("");
            if det.values().len() >= config.window() {
                result
                    .violations
                    .push(format!("batch refused the slice: {e}"));
            } else if curve.len() != det.values().len() || curve.iter().any(|&d| d != 0) {
                result
                    .violations
                    .push(format!("below one window the curve reads {curve:?}"));
            }
            result
        }
    };
    result.name = "stream density curve equals a recount over the batch model";
    result
}

/// The stream's alerts at threshold `min(curve)` and maturity one window
/// must be exactly the maximal runs of `curve` at or below the threshold
/// that start a window past the retained front and end a window before
/// the stream head, in absolute positions.
fn check_streaming_alerts(det: &mut StreamingDetector, curve: &[i64]) -> CheckResult {
    let mut result = CheckResult::pass("stream alerts are the mature low-density runs");
    let Some(&threshold) = curve.iter().min() else {
        return result;
    };
    let window = det.config().window();
    let (tail, seen) = (det.horizon_start(), det.len());
    let mut want = Vec::new();
    let mut run_start = None;
    for (i, &d) in curve.iter().chain([&i64::MAX]).enumerate() {
        match (d <= threshold, run_start) {
            (true, None) => run_start = Some(tail + i),
            (false, Some(start)) => {
                run_start = None;
                if start >= tail + window && tail + i + window <= seen {
                    want.push(Interval::new(start, tail + i));
                }
            }
            _ => {}
        }
    }
    let got = det.alerts(threshold, window);
    if got != want {
        result.violations.push(format!(
            "at threshold {threshold}: stream alerts {got:?}, expected {want:?}"
        ));
    }
    result
}

/// Discords through the streaming engine's horizon view vs a from-scratch
/// batch run on the identical raw slice: the outcomes must agree — same
/// refusal on degenerate slices, otherwise the same ranked intervals with
/// bit-identical distances.
fn check_streaming_detect(
    det: &mut StreamingDetector,
    config: &PipelineConfig,
    k: usize,
    threads: usize,
) -> CheckResult {
    let mut result =
        CheckResult::pass("streaming detect is bit-identical to batch on the horizon slice");
    let engine = EngineConfig::sequential().with_threads(threads);
    let streamed = det.detect(&RraDetector::new(config.clone(), k).with_engine(engine));
    let mut ws = Workspace::new();
    let batch = RraDetector::new(config.clone(), k)
        .with_engine(engine)
        .detect(&SeriesView::new(det.values()), &mut ws, &NoopRecorder);
    match (streamed, batch) {
        (Ok(s), Ok(b)) => {
            let (s, b) = (s.to_rra(), b.to_rra());
            if s.discords.len() != b.discords.len() {
                result.violations.push(format!(
                    "streaming found {} discord(s), batch {}",
                    s.discords.len(),
                    b.discords.len()
                ));
                return result;
            }
            for (a, b) in s.discords.iter().zip(&b.discords) {
                if a.position != b.position
                    || a.length != b.length
                    || a.distance.to_bits() != b.distance.to_bits()
                {
                    result.violations.push(format!(
                        "rank {}: streaming {} at {}, batch {} at {}",
                        a.rank,
                        a.distance,
                        a.interval(),
                        b.distance,
                        b.interval()
                    ));
                }
            }
        }
        (Err(s), Err(b)) => {
            if s.to_string() != b.to_string() {
                result.violations.push(format!(
                    "streaming refused with \"{s}\", batch with \"{b}\""
                ));
            }
        }
        (Ok(_), Err(e)) => result
            .violations
            .push(format!("batch refused where streaming ran: {e}")),
        (Err(e), Ok(_)) => result
            .violations
            .push(format!("streaming refused where batch ran: {e}")),
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_with_anomaly(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if (2500..2560).contains(&i) {
                    0.05 * (i as f64)
                } else {
                    (i as f64 / 12.0).sin() + 0.3 * (i as f64 / 70.0).sin()
                }
            })
            .collect()
    }

    #[test]
    fn bounded_horizon_passes_every_check() {
        let values = sine_with_anomaly(4000);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 2, 1, 900).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn bounded_horizon_passes_with_parallel_search() {
        let values = sine_with_anomaly(4000);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 2, 4, 1200).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn unbounded_horizon_passes_every_check() {
        let values = sine_with_anomaly(1500);
        let config = PipelineConfig::new(32, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 2, 1, 0).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn degenerate_slice_counts_as_agreement() {
        // Constant input: both sides must refuse identically.
        let values = vec![3.25; 800];
        let config = PipelineConfig::new(30, 4, 4).unwrap();
        let report = check_streaming(&values, &config, 1, 1, 400).unwrap();
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn non_finite_input_propagates() {
        let mut values = sine_with_anomaly(600);
        values[300] = f64::NAN;
        let config = PipelineConfig::new(30, 4, 4).unwrap();
        assert!(check_streaming(&values, &config, 1, 1, 200).is_err());
    }
}
