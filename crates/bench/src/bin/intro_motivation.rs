//! The introduction's motivating cost argument, measured: discovering
//! discords *without knowing their length* via repeated fixed-length
//! HOTSAX is "extremely cost prohibitive", while one RRA run explores all
//! lengths at once.
//!
//! ```text
//! cargo run -p gv-bench --release --bin intro_motivation
//! ```

use gv_bench::report::thousands;
use gv_datasets::video::video_gun;
use gv_discord::multi_length_hotsax;
use gva_core::obs::NoopRecorder;
use gva_core::{AnomalyPipeline, PipelineConfig};

fn main() {
    let data = video_gun();
    let values = data.series.values();
    println!(
        "Intro claim: variable-length discovery by length sweep vs one RRA run\n\
         (video dataset, {} points; true anomaly lengths differ: {} and {})\n",
        values.len(),
        data.anomalies[0].interval.len(),
        data.anomalies[1].interval.len()
    );

    // The sweep: every length from 50 to 300 in steps of 25.
    let lengths: Vec<usize> = (50..=300).step_by(25).collect();
    let sweep =
        multi_length_hotsax(values, lengths.iter().copied(), 5, 3).expect("valid parameters");
    println!(
        "HOTSAX length sweep over {} lengths ({:?}):",
        sweep.lengths_searched, lengths
    );
    println!(
        "  total distance calls: {}",
        thousands(sweep.stats.distance_calls as u128)
    );
    let sweep_hits = data
        .anomalies
        .iter()
        .filter(|a| {
            sweep
                .discords
                .iter()
                .take(3)
                .any(|d| d.interval().overlaps(&a.interval))
        })
        .count();
    println!("  top-3 of the sweep hits {sweep_hits}/2 planted anomalies");

    let pipeline = AnomalyPipeline::new(PipelineConfig::new(150, 5, 3).expect("valid"));
    let rra = pipeline
        .rra_discords(values, 3, &NoopRecorder)
        .expect("pipeline runs");
    println!("\nRRA, single run (seed window 150):");
    println!(
        "  total distance calls: {}",
        thousands(rra.stats.distance_calls as u128)
    );
    let rra_hits = data
        .anomalies
        .iter()
        .filter(|a| {
            rra.discords
                .iter()
                .any(|d| d.interval().overlaps(&a.interval))
        })
        .count();
    println!("  top-3 hits {rra_hits}/2 planted anomalies");
    println!(
        "  discord lengths: {:?} (no length assumption needed)",
        rra.discords.iter().map(|d| d.length).collect::<Vec<_>>()
    );

    let factor = sweep.stats.distance_calls as f64 / rra.stats.distance_calls.max(1) as f64;
    println!(
        "\nsweep / RRA cost ratio: {factor:.0}x — the intro's 'cost prohibitive'\n\
         argument, quantified."
    );
}
