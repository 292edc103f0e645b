//! Regenerates **Figure 3**: multiple discord discovery in the Dutch
//! power demand data — the density curve finds the best discord but has
//! trouble discriminating the others; the RRA nearest-neighbour distances
//! rank all three.
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig03_power_discords
//! ```

use gv_datasets::power::power_demand;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{viz, AnomalyPipeline, PipelineConfig};

fn main() {
    let data = power_demand();
    let values = data.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(750, 6, 3).expect("valid params"));

    let width = 110;
    println!("Figure 3: multiple discord discovery in Dutch power demand (W=750, P=6, A=3)\n");
    println!("signal : {}", viz::sparkline(values, width));

    let density = pipeline
        .density_anomalies(values, 3, &NoopRecorder)
        .expect("pipeline runs");
    println!("density: {}", viz::density_strip(&density.curve, width));
    let truth: Vec<Interval> = data.anomalies.iter().map(|a| a.interval).collect();
    println!("truth  : {}", viz::marker_row(values.len(), &truth, width));

    let rra = pipeline
        .rra_discords(values, 3, &NoopRecorder)
        .expect("pipeline runs");
    let found: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
    println!("rra    : {}", viz::marker_row(values.len(), &found, width));

    println!("\ndensity minima (approximate, linear time):");
    print!("{}", viz::density_table(&density));
    println!("\nRRA ranked discords (exact, variable length):");
    print!("{}", viz::rra_table(&rra));

    println!("\nground truth (planted weekday holidays):");
    for a in &data.anomalies {
        let day = a.interval.start / 96;
        println!("  {} (day {day}) — {}", a.interval, a.label);
    }

    let rra_hits = data
        .anomalies
        .iter()
        .filter(|a| found.iter().any(|f| f.overlaps(&a.interval)))
        .count();
    println!(
        "\nRRA top-3 covers {rra_hits}/3 planted holidays (paper: RRA ranks all three \
         discords; the density curve alone finds the best one but discriminates the \
         others poorly)"
    );
}
