//! Regenerates **Figures 7–9**: anomaly discovery in the Hilbert-SFC
//! transformed GPS commute track.
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig07_trajectory
//! ```
//!
//! Expected shape (paper): the rule-density curve's global minimum lands
//! on the one-off *detour* (a short anomaly other methods miss), while the
//! best RRA discord lands on the *partial-GPS-fix* segment; lower-ranked
//! RRA discords highlight other uniquely-travelled segments (Figures 8–9).

use gv_datasets::trajectory::daily_commute;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{viz, AnomalyPipeline, PipelineConfig};

fn main() {
    let t = daily_commute();
    let values = t.dataset.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(350, 15, 4).expect("valid params"));

    let width = 110;
    println!("Figures 7-9: anomalies in the Hilbert-transformed GPS commute");
    println!(
        "({} samples, Hilbert order 8, W=350 P=15 A=4)\n",
        values.len()
    );
    println!("signal : {}", viz::sparkline(values, width));

    let density = pipeline
        .density_anomalies(values, 2, &NoopRecorder)
        .expect("pipeline runs");
    println!("density: {}", viz::density_strip(&density.curve, width));
    let truth: Vec<Interval> = t.dataset.anomalies.iter().map(|a| a.interval).collect();
    println!("truth  : {}", viz::marker_row(values.len(), &truth, width));

    let rra = pipeline
        .rra_discords(values, 3, &NoopRecorder)
        .expect("pipeline runs");
    let found: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
    println!("rra    : {}", viz::marker_row(values.len(), &found, width));

    println!("\nground truth:");
    for a in &t.dataset.anomalies {
        println!("  {} — {}", a.interval, a.label);
    }

    println!("\ndensity minima:");
    print!("{}", viz::density_table(&density));

    let detour = t
        .dataset
        .anomalies
        .iter()
        .find(|a| a.label.contains("detour"))
        .expect("detour planted");
    let gps = t
        .dataset
        .anomalies
        .iter()
        .find(|a| a.label.contains("GPS"))
        .expect("gps loss planted");

    let density_found_detour = density
        .anomalies
        .iter()
        .any(|a| a.interval.overlaps(&detour.interval));
    println!(
        "density finds the one-off detour: {density_found_detour} \
         (paper: 'the rule density curve pinpoints an unusual detour')"
    );

    println!("\nRRA ranked discords (Figures 7-9):");
    for d in &rra.discords {
        let iv = d.interval();
        let label = match (iv.overlaps(&gps.interval), iv.overlaps(&detour.interval)) {
            (true, _) => "partial GPS fix segment (Fig. 7 best discord)",
            (_, true) => "the detour",
            _ => "uniquely travelled segment (Figs. 8-9)",
        };
        println!(
            "  rank {} {} len={} d={:.4} — {label}",
            d.rank,
            iv,
            iv.len(),
            d.distance
        );
    }
    let rra_found_gps = rra
        .discords
        .iter()
        .any(|d| d.interval().overlaps(&gps.interval));
    println!(
        "\nRRA finds the partial-GPS-fix segment: {rra_found_gps} \
         (paper: the best RRA discord is the path travelled with a partial GPS fix)"
    );
}
