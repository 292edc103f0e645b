//! Regenerates **Figure 1**: the recorded-video time series with its rule
//! density curve, whose minima pinpoint multiple anomalous events at once.
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig01_video_density
//! ```
//!
//! Expected shape (paper): the density curve, built in linear time and
//! space, dips to its minima exactly at the anomalous gesture repetitions.

use gv_datasets::video::video_gun;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{viz, AnomalyPipeline, PipelineConfig};

fn main() {
    let data = video_gun();
    let values = data.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(150, 5, 3).expect("valid params"));
    let report = pipeline
        .density_anomalies(values, 4, &NoopRecorder)
        .expect("pipeline runs");

    let width = 110;
    println!("Figure 1: multiple anomalous events in the video dataset\n");
    println!("signal : {}", viz::sparkline(values, width));
    println!("density: {}", viz::density_strip(&report.curve, width));
    let truth: Vec<Interval> = data.anomalies.iter().map(|a| a.interval).collect();
    println!("truth  : {}", viz::marker_row(values.len(), &truth, width));
    let found: Vec<Interval> = report.anomalies.iter().map(|a| a.interval).collect();
    println!("minima : {}", viz::marker_row(values.len(), &found, width));
    println!("\nranked density minima:");
    print!("{}", viz::density_table(&report));
    println!("\nground truth:");
    for a in &data.anomalies {
        println!("  {} — {}", a.interval, a.label);
    }
    let hits = data
        .anomalies
        .iter()
        .filter(|a| found.iter().any(|f| f.overlaps(&a.interval)))
        .count();
    println!(
        "\n{hits}/{} planted anomalies overlapped by reported minima \
         (paper: the curve pinpoints anomalous locations precisely)",
        data.anomalies.len()
    );
}
