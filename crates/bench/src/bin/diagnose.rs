//! Internal diagnostic: for every Table 1 row, does each method's top
//! discord hit the planted ground truth? Not part of the paper's tables;
//! used to validate the synthetic datasets and algorithm wiring.

use gv_datasets::table1;
use gv_discord::HotSaxConfig;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{AnomalyPipeline, Detector, HotSaxDetector, PipelineConfig, SeriesView, Workspace};

fn main() {
    let scale = Some(20_000);
    println!(
        "{:<28} {:>7} {:>7} {:>7}   rra top-3 (len) / truth",
        "dataset", "hs-hit", "rra-hit", "den-hit"
    );
    let mut ws = Workspace::new();
    for row in table1::rows(scale) {
        let values = row.dataset.series.values();
        let slack = row.window;

        let hs_cfg = HotSaxConfig::new(row.window, row.paa.min(row.window), row.alphabet).unwrap();
        let hs = HotSaxDetector::new(hs_cfg, 1)
            .detect(&SeriesView::new(values), &mut ws, &NoopRecorder)
            .unwrap();
        let hs_hit = hs
            .anomalies
            .first()
            .map(|a| row.dataset.is_hit_with_slack(&a.interval, slack))
            .unwrap_or(false);

        let pipeline =
            AnomalyPipeline::new(PipelineConfig::new(row.window, row.paa, row.alphabet).unwrap());
        let rra = pipeline.rra_discords(values, 3, &NoopRecorder).unwrap();
        let rra_hit = rra
            .discords
            .first()
            .map(|d| row.dataset.is_hit_with_slack(&d.interval(), slack))
            .unwrap_or(false);
        let density = pipeline
            .density_anomalies(values, 3, &NoopRecorder)
            .unwrap();
        let den_hit = density
            .anomalies
            .first()
            .map(|a| row.dataset.is_hit_with_slack(&a.interval, slack))
            .unwrap_or(false);

        let tops: Vec<String> = rra
            .discords
            .iter()
            .map(|d| format!("{}+{} d={:.3}", d.position, d.length, d.distance))
            .collect();
        let truth: Vec<String> = row
            .dataset
            .anomalies
            .iter()
            .map(|a| a.interval.to_string())
            .collect();
        println!(
            "{:<28} {:>7} {:>7} {:>7}   {} / {}",
            row.name,
            hs_hit,
            rra_hit,
            den_hit,
            tops.join(", "),
            truth.join(", ")
        );
        let _ = Interval::new(0, 1);
    }
}
