//! Ablation: the numerosity-reduction strategy (paper §3.2).
//!
//! ```text
//! cargo run -p gv-bench --release --bin ablation_nr
//! ```
//!
//! Numerosity reduction is what makes grammar rules map to
//! *variable-length* subsequences and keeps the token stream (and hence
//! the grammar and RRA candidate set) small. This report quantifies all
//! of that across the three strategies.

use gv_datasets::ecg::{ecg0606, EcgParams};
use gv_sax::NumerosityReduction;
use gva_core::obs::NoopRecorder;
use gva_core::{rule_intervals, AnomalyPipeline, PipelineConfig};

fn main() {
    let data = ecg0606(EcgParams::default());
    let values = data.series.values();
    println!("numerosity-reduction ablation on ECG 0606 (W=120, P=4, A=4)\n");
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>12} {:>10} {:>9}",
        "strategy", "tokens", "rules", "grammar-size", "candidates", "rra-calls", "truth-hit"
    );
    println!("{}", "-".repeat(76));

    for (name, nr) in [
        ("none", NumerosityReduction::None),
        ("exact", NumerosityReduction::Exact),
        ("mindist", NumerosityReduction::MinDist),
    ] {
        let config = PipelineConfig::new(120, 4, 4)
            .unwrap()
            .with_numerosity_reduction(nr);
        let pipeline = AnomalyPipeline::new(config);
        let model = pipeline.model(values, &NoopRecorder).unwrap();
        let candidates = rule_intervals(&model);
        let rra = pipeline.rra_discords(values, 1, &NoopRecorder).unwrap();
        let hit = rra
            .discords
            .first()
            .map(|d| data.is_hit_with_slack(&d.interval(), 120))
            .unwrap_or(false);
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>12} {:>10} {:>9}",
            name,
            model.num_tokens(),
            model.grammar.num_rules(),
            model.grammar.grammar_size(),
            candidates.len(),
            rra.stats.distance_calls,
            hit
        );
    }
    println!(
        "\nwithout reduction every window becomes a token: the grammar bloats, the\n\
         candidate set explodes, and rules lose the variable-length property\n\
         (every rule interval spans near-identical windows)."
    );
}
