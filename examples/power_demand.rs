//! Holiday discovery in a year of facility power demand — the paper's
//! Figures 3–4 scenario: the three most unusual weeks of the year are the
//! weeks interrupted by state holidays, discovered without specifying any
//! anomaly length.
//!
//! ```text
//! cargo run --release --example power_demand
//! ```

use grammarviz::core::{viz, AnomalyPipeline, PipelineConfig};
use grammarviz::datasets::power::{power_demand, SAMPLES_PER_DAY};
use grammarviz::obs::NoopRecorder;

fn main() {
    let data = power_demand();
    let values = data.series.values();
    println!(
        "{}: {} samples (one year at 15-minute resolution)",
        data.series.name(),
        values.len()
    );
    println!("planted holidays:");
    for a in &data.anomalies {
        println!(
            "  day {:>3} — {}",
            a.interval.start / SAMPLES_PER_DAY,
            a.label
        );
    }

    // Window ≈ one week: the paper's context-driven choice.
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(750, 6, 3).unwrap());
    let rra = pipeline.rra_discords(values, 3, &NoopRecorder).unwrap();

    println!("\nsignal : {}", viz::sparkline(values, 110));

    println!("\nthe three most unusual weeks of the year:");
    for d in &rra.discords {
        let iv = d.interval();
        let covered: Vec<&str> = data
            .anomalies
            .iter()
            .filter(|a| a.interval.overlaps(&iv))
            .map(|a| a.label.as_str())
            .collect();
        println!(
            "  rank {}: {} (len {}, NN distance {:.4}) — {}",
            d.rank,
            iv,
            iv.len(),
            d.distance,
            if covered.is_empty() {
                "?".to_string()
            } else {
                covered.join(", ")
            }
        );
        println!(
            "           {}",
            viz::sparkline(&values[iv.start..iv.end], 80)
        );
    }

    let all_holiday_weeks = rra
        .discords
        .iter()
        .all(|d| data.hit(&d.interval()).is_some());
    println!("\nall ranked discords are holiday weeks: {all_holiday_weeks}");
}
