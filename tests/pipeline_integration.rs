//! End-to-end integration: on every (laptop-sized) evaluation dataset the
//! pipeline must recover the planted ground-truth anomaly with the
//! paper's own discretization parameters.

use grammarviz::core::{AnomalyPipeline, PipelineConfig};
use grammarviz::datasets::{ecg, power, respiration, telemetry, trajectory, video, Dataset};
use grammarviz::obs::NoopRecorder;
use grammarviz::timeseries::Interval;

/// Runs both detectors and asserts the ground truth is recovered.
///
/// * RRA: some top-3 discord overlaps a planted anomaly (top-1 on most
///   datasets, but ties happen);
/// * density: some top-3 minimum overlaps a planted anomaly.
fn assert_recovers(data: &Dataset, window: usize, paa: usize, alphabet: usize) {
    let values = data.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(window, paa, alphabet).unwrap());
    let slack = window;

    let rra = pipeline.rra_discords(values, 3, &NoopRecorder).unwrap();
    assert!(
        rra.discords
            .iter()
            .any(|d| data.is_hit_with_slack(&d.interval(), slack)),
        "{}: no RRA top-3 discord hits the truth (got {:?})",
        data.series.name(),
        rra.discords
            .iter()
            .map(|d| d.interval())
            .collect::<Vec<_>>()
    );

    let density = pipeline
        .density_anomalies(values, 3, &NoopRecorder)
        .unwrap();
    assert!(
        density
            .anomalies
            .iter()
            .any(|a| data.is_hit_with_slack(&a.interval, slack)),
        "{}: no density top-3 minimum hits the truth (got {:?})",
        data.series.name(),
        density
            .anomalies
            .iter()
            .map(|a| a.interval)
            .collect::<Vec<_>>()
    );
}

#[test]
fn ecg0606_recovers_the_st_anomaly() {
    let data = ecg::ecg0606(ecg::EcgParams::default());
    assert_recovers(&data, 120, 4, 4);
}

#[test]
fn ecg308_recovers_the_pvc() {
    let data = ecg::ecg_record("ECG 308 (synthetic)", 5_400, 300, 1, 0x308);
    assert_recovers(&data, 300, 4, 4);
}

#[test]
fn respiration_recovers_the_apnea() {
    assert_recovers(&respiration::nprs43(), 128, 5, 4);
}

#[test]
fn video_recovers_both_gestures() {
    let data = video::video_gun();
    assert_recovers(&data, 150, 5, 3);
    // Stronger claim: the top-2 RRA discords are exactly the two planted
    // anomalous repetitions.
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(150, 5, 3).unwrap());
    let rra = pipeline
        .rra_discords(data.series.values(), 2, &NoopRecorder)
        .unwrap();
    let found: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
    for anomaly in &data.anomalies {
        assert!(
            found.iter().any(|f| f.overlaps(&anomaly.interval)),
            "missing {}",
            anomaly.label
        );
    }
}

#[test]
fn telemetry_tek_variants_recover() {
    assert_recovers(&telemetry::tek14(), 128, 4, 4);
    assert_recovers(&telemetry::tek16(), 128, 4, 4);
    assert_recovers(&telemetry::tek17(), 128, 4, 4);
}

#[test]
fn power_demand_top_discords_are_holiday_weeks() {
    let data = power::power_demand();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(750, 6, 3).unwrap());
    let rra = pipeline
        .rra_discords(data.series.values(), 3, &NoopRecorder)
        .unwrap();
    assert_eq!(rra.discords.len(), 3);
    for d in &rra.discords {
        assert!(
            data.hit(&d.interval()).is_some(),
            "rank {} discord {} is not a holiday week",
            d.rank,
            d.interval()
        );
    }
}

#[test]
fn trajectory_detour_and_gps_loss() {
    let commute = trajectory::daily_commute();
    let values = commute.dataset.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(350, 15, 4).unwrap());

    let detour = commute
        .dataset
        .anomalies
        .iter()
        .find(|a| a.label.contains("detour"))
        .unwrap();
    let gps = commute
        .dataset
        .anomalies
        .iter()
        .find(|a| a.label.contains("GPS"))
        .unwrap();

    // Density's global minimum is the one-off detour (Fig. 7).
    let density = pipeline
        .density_anomalies(values, 1, &NoopRecorder)
        .unwrap();
    assert!(
        density.anomalies[0].interval.overlaps(&detour.interval),
        "density minimum {} is not the detour {}",
        density.anomalies[0].interval,
        detour.interval
    );

    // RRA's best discord is the partial-GPS-fix segment (Fig. 7).
    let rra = pipeline.rra_discords(values, 1, &NoopRecorder).unwrap();
    assert!(
        rra.discords[0].interval().overlaps(&gps.interval),
        "RRA best {} is not the GPS-loss segment {}",
        rra.discords[0].interval(),
        gps.interval
    );
}

/// The two ~550k-point MIT-BIH records, scaled for CI. Slow in debug —
/// run with `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: run with --release -- --ignored"]
fn large_ecg_records_recover() {
    for (name, seed) in [("ECG 300", 0x300u64), ("ECG 318", 0x318)] {
        let data = ecg::ecg_record(name, 60_000, 300, 3, seed);
        assert_recovers(&data, 300, 4, 4);
    }
}
