//! Regenerates **Figure 12**: the GrammarViz 2.0 rule-density pane on the
//! video dataset — the density shading where lighter regions (low rule
//! coverage) pinpoint potential anomalies, plus the grammar-rule listing.
//!
//! ```text
//! cargo run -p gv-bench --release --bin fig12_density_report
//! ```

use gv_datasets::video::video_gun;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{viz, AnomalyPipeline, PipelineConfig};

fn main() {
    let data = video_gun();
    let values = data.series.values();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(150, 5, 3).expect("valid params"));
    let model = pipeline
        .model(values, &NoopRecorder)
        .expect("pipeline runs");
    let report = pipeline
        .density_anomalies(values, 3, &NoopRecorder)
        .expect("pipeline runs");

    let width = 110;
    println!("Figure 12: rule-density shading in GrammarViz (text mode) — video dataset\n");
    println!("signal : {}", viz::sparkline(values, width));
    println!("density: {}", viz::density_strip(&report.curve, width));
    let truth: Vec<Interval> = data.anomalies.iter().map(|a| a.interval).collect();
    println!("truth  : {}", viz::marker_row(values.len(), &truth, width));
    println!(
        "\n(lighter shading = lower rule coverage = more anomalous; blank = zero \
         coverage — the figure's 'non-shaded intervals pinpoint true anomalies')"
    );

    println!("\nranked density minima:");
    print!("{}", viz::density_table(&report));

    // The grammar-rules pane (top rows by use count).
    let counts = model.grammar.occurrence_counts();
    let mut rules: Vec<_> = model
        .grammar
        .rules()
        .filter(|r| r.id != model.grammar.r0_id())
        .collect();
    rules.sort_by_key(|r| std::cmp::Reverse(counts.get(&r.id).copied().unwrap_or(0)));
    println!("\ngrammar rules pane (top 8 by occurrence):");
    println!("Rule   Occurrences  Uses  Expansion length");
    for r in rules.iter().take(8) {
        println!(
            "{:<6} {:<12} {:<5} {}",
            r.id.to_string(),
            counts.get(&r.id).copied().unwrap_or(0),
            r.rule_uses,
            model.grammar.expansion_len(r.id)
        );
    }
    println!(
        "\ngrammar: {} rules over {} tokens (size {})",
        model.grammar.num_rules(),
        model.num_tokens(),
        model.grammar.grammar_size()
    );
}
