//! ECG anomaly discovery — the paper's Figure 2 scenario as an
//! application: locate one subtle anomalous heartbeat in an ECG record
//! without knowing the anomaly's length.
//!
//! ```text
//! cargo run --release --example ecg_anomaly
//! ```

use grammarviz::core::{viz, AnomalyPipeline, PipelineConfig};
use grammarviz::datasets::ecg::{ecg0606, EcgParams};
use grammarviz::obs::NoopRecorder;
use grammarviz::timeseries::Interval;

fn main() {
    let data = ecg0606(EcgParams::default());
    let values = data.series.values();
    println!(
        "{}: {} samples, ground truth {} ({})",
        data.series.name(),
        values.len(),
        data.anomalies[0].interval,
        data.anomalies[0].label
    );

    // The paper picks the window from context: roughly one heartbeat.
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(120, 4, 4).unwrap());

    let density = pipeline
        .density_anomalies(values, 1, &NoopRecorder)
        .unwrap();
    let rra = pipeline.rra_discords(values, 1, &NoopRecorder).unwrap();

    let width = 100;
    println!("\nsignal : {}", viz::sparkline(values, width));
    println!("density: {}", viz::density_strip(&density.curve, width));
    let truth: Vec<Interval> = data.anomalies.iter().map(|a| a.interval).collect();
    println!("truth  : {}", viz::marker_row(values.len(), &truth, width));

    let d_iv = density.anomalies[0].interval;
    let r_iv = rra.discords[0].interval();
    println!(
        "\ndensity minimum : {d_iv} (min coverage {})",
        density.anomalies[0].min_density
    );
    println!(
        "best RRA discord: {r_iv} (length {}, NN distance {:.4})",
        r_iv.len(),
        rra.discords[0].distance
    );

    // Both detectors should land on (or next to) the anomalous beat.
    let hit = |iv: &Interval| data.is_hit_with_slack(iv, 120);
    println!(
        "\ndensity hits ground truth: {}   RRA hits ground truth: {}",
        hit(&d_iv),
        hit(&r_iv)
    );
    println!(
        "RRA cost: {} distance calls ({} abandoned early) over {} candidates",
        rra.stats.distance_calls, rra.stats.early_abandoned, rra.num_candidates
    );
}
