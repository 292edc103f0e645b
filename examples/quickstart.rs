//! Quickstart: find a variable-length anomaly in a synthetic signal.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a repetitive signal with one planted distortion, then runs both
//! detectors from the paper: the linear-time rule-density curve and the
//! exact RRA discord search.

use grammarviz::core::{viz, AnomalyPipeline, PipelineConfig};
use grammarviz::obs::NoopRecorder;

fn main() {
    // A repetitive sine with a planted flat distortion at 1500..1600.
    let mut values: Vec<f64> = (0..3000).map(|i| (i as f64 / 25.0).sin()).collect();
    for (i, v) in values[1500..1600].iter_mut().enumerate() {
        *v = 0.3 * (i as f64 / 6.0).cos();
    }

    // The only configuration is the SAX triple (window, PAA, alphabet).
    // The window is just a "seed" size — reported anomalies can be shorter
    // or longer.
    let config = PipelineConfig::new(100, 5, 4).expect("valid SAX parameters");
    let pipeline = AnomalyPipeline::new(config);

    // 1. Approximate, linear-time: the rule density curve.
    let density = pipeline
        .density_anomalies(&values, 2, &NoopRecorder)
        .expect("series long enough");
    println!("signal : {}", viz::sparkline(&values, 100));
    println!("density: {}", viz::density_strip(&density.curve, 100));
    println!("\nrule-density anomalies (lowest coverage first):");
    print!("{}", viz::density_table(&density));

    // 2. Exact, variable length: RRA discords.
    let rra = pipeline
        .rra_discords(&values, 2, &NoopRecorder)
        .expect("series long enough");
    println!("\nRRA discords (largest NN distance first):");
    print!("{}", viz::rra_table(&rra));
    println!(
        "\nsearch cost: {} distance calls over {} grammar candidates",
        rra.stats.distance_calls, rra.num_candidates
    );

    let top = &rra.discords[0];
    assert!(
        top.position < 1650 && top.position + top.length > 1450,
        "expected the discord to land on the planted distortion"
    );
    println!("\ntop discord overlaps the planted distortion at 1500..1600 ✓");
}
