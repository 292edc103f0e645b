//! End-to-end paper-invariant verification across the workspace: the
//! `gv-check` verifiers must hold on the bundled realistic datasets (not
//! just the synthetic fuzz families), and the edge-case error contracts
//! must bubble unchanged through the top-level `AnomalyPipeline` facade.

use gv_check::{check_sax_symbols, check_series, CheckReport};
use gv_sax::{NumerosityReduction, SaxScratch};
use gva_core::obs::{Counter, LocalRecorder, NoopRecorder};
use gva_core::{search_candidates, AnomalyPipeline, Error, PipelineConfig, Workspace};

fn assert_clean(report: &CheckReport, label: &str) {
    assert!(
        report.passed(),
        "{label}: invariant violations\n{}",
        report.render()
    );
}

/// A power-demand analogue lifted to a 1e8 level, where the two-pass
/// window kernel's own rounding (its sums carry the level) reaches ~1e-6:
/// the batch pass's certificate must cover that kernel's error as well as
/// its own, or a window whose PAA value sits 7.9e-8 from a breakpoint
/// takes a symbol the kernel does not.
#[test]
fn block_symbols_match_the_kernel_on_power_demand_at_1e8() {
    let data = gv_datasets::power::generate(gv_datasets::power::PowerParams {
        seed: 0x9076,
        ..Default::default()
    });
    let values: Vec<f64> = data.series.values().iter().map(|v| v + 1e8).collect();
    let config = PipelineConfig::new(750, 6, 3)
        .unwrap()
        .with_numerosity_reduction(NumerosityReduction::None);
    let rec = LocalRecorder::new();
    let mut records = Vec::new();
    config
        .sax()
        .discretize_into(
            &values,
            NumerosityReduction::None,
            &rec,
            &mut records,
            &mut SaxScratch::new(),
        )
        .unwrap();
    assert_eq!(records.len(), values.len() - 750 + 1);
    let check = check_sax_symbols(&values, &config, &records);
    assert!(check.passed(), "{:?}", check.violations);
    // The level pushes some windows back to the kernel, but few.
    let fallback = rec.counter(Counter::WindowsFallback);
    assert!(fallback > 0 && fallback < 1000, "{fallback} fallbacks");
}

#[test]
fn invariants_hold_on_realistic_datasets() {
    // The demo parameterizations from the paper's experimental section.
    let cases = [
        (
            gv_datasets::ecg::ecg0606(Default::default()),
            "ecg0606",
            (120, 4, 4),
        ),
        (gv_datasets::video::video_gun(), "video", (150, 5, 3)),
        (gv_datasets::telemetry::tek14(), "tek14", (128, 4, 4)),
    ];
    for (data, label, (w, p, a)) in cases {
        let config = PipelineConfig::new(w, p, a).unwrap();
        for threads in [1, 4] {
            let report = check_series(data.series.values(), &config, 2, threads)
                .unwrap_or_else(|e| panic!("{label}: pipeline failed: {e}"));
            assert_clean(&report, label);
            // 6 model/search checks, +1 parallel-determinism check.
            let expected = if threads > 1 { 7 } else { 6 };
            assert_eq!(report.results.len(), expected, "{label}");
        }
    }
}

#[test]
fn engine_candidate_set_is_nonempty_on_real_data() {
    let data = gv_datasets::ecg::ecg0606(Default::default());
    let config = PipelineConfig::new(120, 4, 4).unwrap();
    let model = Workspace::new()
        .build_model(&config, data.series.values(), &NoopRecorder)
        .unwrap();
    let candidates = search_candidates(&model);
    assert!(!candidates.is_empty());
    // The boundary filter only ever removes frequency-0 edge runs.
    for c in &candidates {
        assert!(c.rule.is_some() || (c.interval.start > 0 && c.interval.end < model.series_len));
    }
}

#[test]
fn edge_case_errors_bubble_through_the_pipeline_facade() {
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
    let mut values: Vec<f64> = (0..500).map(|i| (i as f64 / 16.0).sin()).collect();

    // k = 0 is a typed parameter error from both entry points.
    assert!(matches!(
        pipeline.rra_discords(&values, 0, &NoopRecorder),
        Err(Error::InvalidParameter(_))
    ));
    assert!(matches!(
        pipeline.density_anomalies(&values, 0, &NoopRecorder),
        Err(Error::InvalidParameter(_))
    ));

    // Non-finite input is rejected with the offending index.
    values[321] = f64::NAN;
    assert_eq!(
        pipeline
            .rra_discords(&values, 1, &NoopRecorder)
            .unwrap_err(),
        Error::NonFiniteInput { index: 321 }
    );
    assert_eq!(
        pipeline
            .density_anomalies(&values, 1, &NoopRecorder)
            .unwrap_err(),
        Error::NonFiniteInput { index: 321 }
    );

    // A window longer than the series is an error, never a panic.
    let short: Vec<f64> = (0..40).map(|i| i as f64).collect();
    assert!(pipeline.rra_discords(&short, 1, &NoopRecorder).is_err());
    assert!(pipeline
        .density_anomalies(&short, 1, &NoopRecorder)
        .is_err());
}
