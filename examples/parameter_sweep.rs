//! Discretization-parameter robustness — a compact version of the
//! paper's Figure 10 study: sweep (window, PAA, alphabet) combinations
//! and count how often each detector recovers a known anomaly.
//!
//! ```text
//! cargo run --release --example parameter_sweep
//! ```

use grammarviz::core::sweep::{run, success_counts, SweepGrid};
use grammarviz::datasets::ecg::{ecg0606, EcgParams};
use grammarviz::obs::NoopRecorder;

fn main() {
    let data = ecg0606(EcgParams::default());
    let truth = data.anomalies[0].interval;

    // A small grid around the paper's ranges (full Figure 10 sweep lives in
    // `cargo run -p gv-bench --release --bin fig10_param_sweep`).
    let grid = SweepGrid {
        windows: vec![60, 90, 120, 180, 240, 300],
        paas: vec![3, 4, 6, 8],
        alphabets: vec![3, 4, 6],
    };
    println!(
        "sweeping {} parameter combinations on {}",
        grid.len(),
        data.series.name()
    );

    let points = run(data.series.values(), truth, 120, &grid, 1, &NoopRecorder);
    let (density_hits, rra_hits) = success_counts(&points);
    println!("\nevaluated : {}", points.len());
    println!("density OK: {density_hits}");
    println!("RRA OK    : {rra_hits}");

    println!("\nper-combination detail (W, P, A → density / rra, grammar size):");
    for p in &points {
        println!(
            "  ({:>3},{:>2},{:>2}) → {} / {}   size {:>4}  approx-dist {:.2}",
            p.window,
            p.paa,
            p.alphabet,
            if p.density_hit { "ok " } else { "-- " },
            if p.rra_hit { "ok " } else { "-- " },
            p.grammar_size,
            p.approximation_distance
        );
    }

    assert!(
        rra_hits >= density_hits,
        "RRA should be at least as robust as density"
    );
    println!("\nRRA's success region is at least as large as the density curve's ✓");
}
