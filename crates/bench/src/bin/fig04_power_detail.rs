//! Regenerates **Figure 4**: the detailed view of the RRA-ranked
//! variable-length discords in the Dutch power demand data — every
//! discord is a week interrupted by a state holiday.
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig04_power_detail
//! ```

use gv_datasets::power::{power_demand, SAMPLES_PER_DAY};
use gva_core::obs::NoopRecorder;
use gva_core::{viz, AnomalyPipeline, PipelineConfig};

const WEEKDAYS: [&str; 7] = [
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
];

fn main() {
    let data = power_demand();
    let values = data.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(750, 6, 3).expect("valid params"));
    let rra = pipeline
        .rra_discords(values, 3, &NoopRecorder)
        .expect("pipeline runs");

    println!("Figure 4: detailed view of RRA-ranked variable-length discords");
    println!("in the Dutch power demand dataset\n");

    // A typical week for reference (week 10 is free of holidays).
    let week = &values[10 * 7 * SAMPLES_PER_DAY..11 * 7 * SAMPLES_PER_DAY];
    println!("typical week      : {}", viz::sparkline(week, 70));

    for d in &rra.discords {
        let iv = d.interval();
        // All planted holidays this discord covers (adjacent holidays can
        // share a discord week, exactly as in the paper's Figure 4).
        let covered: Vec<String> = data
            .anomalies
            .iter()
            .filter(|a| a.interval.overlaps(&iv))
            .map(|a| {
                let day = a.interval.start / SAMPLES_PER_DAY;
                format!("{} ({}, day {day})", a.label, WEEKDAYS[(2 + day) % 7])
            })
            .collect();
        let label = if covered.is_empty() {
            "(no planted holiday)".to_string()
        } else {
            covered.join(" + ")
        };
        let ordinal = match d.rank {
            0 => "best discord     ",
            1 => "second discord   ",
            _ => "third discord    ",
        };
        println!(
            "{ordinal}: {}",
            viz::sparkline(&values[iv.start..iv.end.min(values.len())], 70)
        );
        println!(
            "    {} len={} dist={:.4} — {label}",
            iv,
            iv.len(),
            d.distance
        );
    }

    let all_holidays = rra
        .discords
        .iter()
        .all(|d| data.hit(&d.interval()).is_some());
    println!(
        "\nall ranked discords land on planted holidays: {all_holidays} \
         (paper: 'All of them highlight time intervals where typical weekly \
         patterns are interrupted by state holidays')"
    );
}
