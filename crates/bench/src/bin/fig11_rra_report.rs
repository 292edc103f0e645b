//! Regenerates **Figure 11**: the GrammarViz 2.0 RRA pane on the recorded
//! video dataset — a ranked table of variable-length discords (the paper's
//! screenshot shows lengths varying from 11 to 189 under a window of 150).
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig11_rra_report
//! ```

use gv_datasets::video::video_gun;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{viz, AnomalyPipeline, PipelineConfig};

fn main() {
    let data = video_gun();
    let values = data.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(150, 5, 3).expect("valid params"));
    let rra = pipeline
        .rra_discords(values, 6, &NoopRecorder)
        .expect("pipeline runs");

    let width = 110;
    println!("Figure 11: RRA in GrammarViz (text mode) — video dataset, W=150 P=5 A=3\n");
    println!("signal : {}", viz::sparkline(values, width));
    let found: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
    println!("discord: {}", viz::marker_row(values.len(), &found, width));
    println!("\nGrammarViz anomalies pane:");
    println!("Rank  Position  Length  NN Distance  Hits ground truth");
    for d in &rra.discords {
        let hit = data
            .hit(&d.interval())
            .map(|a| a.label.as_str())
            .unwrap_or("-");
        println!(
            "{:<5} {:<9} {:<7} {:<12.5} {hit}",
            d.rank, d.position, d.length, d.distance
        );
    }
    let lens: Vec<usize> = rra.discords.iter().map(|d| d.length).collect();
    let min = lens.iter().min().copied().unwrap_or(0);
    let max = lens.iter().max().copied().unwrap_or(0);
    println!(
        "\ndiscord lengths range {min}..{max} under a seed window of 150 \
         (paper: 'RRA was able to detect multiple discords whose lengths vary')"
    );
}
