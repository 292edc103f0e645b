//! Regenerates **Figure 2**: anomaly discovery in the ECG qtdb 0606
//! excerpt — the rule density curve identifies the anomalous heartbeat by
//! its global minimum, and the RRA nearest-neighbour profile confirms the
//! discord has the largest distance to its nearest non-self match.
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig02_ecg_density
//! ```

use gv_datasets::ecg::{ecg0606, EcgParams};
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{nn_distance_profile, rule_intervals, viz, AnomalyPipeline, PipelineConfig};

fn main() {
    let data = ecg0606(EcgParams::default());
    let values = data.series.values();
    let truth = data.anomalies[0].interval;
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(120, 4, 4).expect("valid params"));
    let model = pipeline
        .model(values, &NoopRecorder)
        .expect("pipeline runs");
    let report = pipeline
        .density_anomalies(values, 1, &NoopRecorder)
        .expect("pipeline runs");

    let width = 110;
    println!("Figure 2: anomaly discovery in the ECG dataset (W=120, P=4, A=4)\n");
    println!("signal : {}", viz::sparkline(values, width));
    println!("density: {}", viz::density_strip(&report.curve, width));
    println!(
        "truth  : {}",
        viz::marker_row(values.len(), &[truth], width)
    );

    // Middle panel: where is the density global minimum (edge-trimmed)?
    let best = &report.anomalies[0];
    println!(
        "\ndensity global minimum at {} (min density {}), true anomaly at {} — {}",
        best.interval,
        best.min_density,
        truth,
        if best.interval.overlaps(&Interval::new(
            truth.start.saturating_sub(120),
            truth.end + 120
        )) {
            "ALIGNED (paper: 'in perfect alignment with the ground truth')"
        } else {
            "NOT aligned"
        }
    );

    // Bottom panel: exact NN distance per rule-corresponding subsequence.
    let candidates = rule_intervals(&model);
    let profile = nn_distance_profile(values, &candidates);
    let (max_iv, max_d) = profile
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("profile non-empty");
    println!(
        "\nNN-distance profile over {} rule subsequences: max {:.4} at {}",
        profile.len(),
        max_d,
        max_iv
    );
    println!(
        "max-NN subsequence overlaps truth: {} (paper: the RRA-reported discord has \
         the largest distance to its nearest non-self match)",
        max_iv.overlaps(&truth)
    );

    // Sketch the profile as a sparkline over positions.
    let mut prof_curve = vec![0.0f64; values.len()];
    for (iv, d) in &profile {
        prof_curve[iv.start] = prof_curve[iv.start].max(*d);
    }
    println!("profile: {}", viz::sparkline(&prof_curve, width));
}
