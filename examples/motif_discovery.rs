//! Variable-length motif discovery — the inverse of anomaly detection
//! (paper §3.5): the same grammar whose rare symbols flag anomalies makes
//! its frequent rules the recurrent patterns.
//!
//! ```text
//! cargo run --release --example motif_discovery
//! ```

use grammarviz::core::{motifs, prune::prune, viz, AnomalyPipeline, PipelineConfig};
use grammarviz::datasets::power::power_demand;
use grammarviz::obs::NoopRecorder;

fn main() {
    let data = power_demand();
    let values = data.series.values();
    println!("{}: {} points", data.series.name(), values.len());

    let pipeline = AnomalyPipeline::new(PipelineConfig::new(750, 6, 3).unwrap());
    let model = pipeline
        .model(values, &NoopRecorder)
        .expect("pipeline runs");
    println!(
        "grammar: {} rules over {} tokens (size {})\n",
        model.grammar.num_rules(),
        model.num_tokens(),
        model.grammar.grammar_size()
    );

    // Top recurring patterns: in a year of office power demand these are,
    // unsurprisingly, weeks and week fragments.
    let found = motifs(&model, 5);
    println!("top-5 motifs (most frequent variable-length patterns):");
    for (i, m) in found.iter().enumerate() {
        println!(
            "  #{i}: {} occurrences, length {}..{} (mean {:.0})",
            m.count(),
            m.min_length,
            m.max_length,
            m.mean_length
        );
        let first = m.occurrences[0];
        println!(
            "      first at {}: {}",
            first,
            viz::sparkline(&values[first.start..first.end], 60)
        );
    }

    // Rule pruning (the GrammarViz 2.0 "Prune rules" feature): a minimal
    // rule subset with the same coverage, for human consumption.
    let pruned = prune(&model);
    println!(
        "\nrule pruning: {} rules → {} rules with identical point coverage ({} pts)",
        pruned.rules_before,
        pruned.rules.len(),
        pruned.covered_after()
    );
    for r in pruned.rules.iter().take(5) {
        println!(
            "  {} contributes {} new points over {} occurrences",
            r.rule,
            r.contribution,
            r.occurrences.len()
        );
    }
}
