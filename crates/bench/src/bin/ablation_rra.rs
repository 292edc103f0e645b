//! Ablation: what does each grammar-derived heuristic in RRA buy?
//!
//! ```text
//! cargo run -p gv-bench --release --bin ablation_rra
//! ```
//!
//! Runs the Algorithm 1 search with each heuristic disabled in turn. Every
//! variant returns the *same* discord (the heuristics only reorder and
//! prune); the distance-call counts differ — the DESIGN.md ablation for
//! the paper's Outer/Inner ordering claims (§4.2).

use gv_bench::report::thousands;
use gv_datasets::ecg::{ecg0606, EcgParams};
use gv_datasets::telemetry::tek14;
use gv_datasets::video::video_gun;
use gva_core::obs::NoopRecorder;
use gva_core::{
    AnomalyPipeline, EngineConfig, PipelineConfig, RraDetector, SearchOptions, Workspace,
};

fn main() {
    let cases = [
        (
            "ECG 0606",
            ecg0606(EcgParams::default()),
            (120usize, 4usize, 4usize),
        ),
        ("Video (gun)", video_gun(), (150, 5, 3)),
        ("TEK14", tek14(), (128, 4, 4)),
    ];
    let variants: [(&str, SearchOptions); 5] = [
        ("full RRA (paper)", SearchOptions::default()),
        (
            "- outer ordering",
            SearchOptions {
                outer_by_frequency: false,
                ..Default::default()
            },
        ),
        (
            "- sibling-first inner",
            SearchOptions {
                siblings_first: false,
                ..Default::default()
            },
        ),
        (
            "- early abandoning",
            SearchOptions {
                early_abandon: false,
                ..Default::default()
            },
        ),
        (
            "naive (all off)",
            SearchOptions {
                outer_by_frequency: false,
                siblings_first: false,
                early_abandon: false,
            },
        ),
    ];

    println!("RRA heuristic ablation (distance calls for the top-1 discord)\n");
    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "variant", "ECG 0606", "Video (gun)", "TEK14"
    );
    println!("{}", "-".repeat(70));

    // Pre-compute the grammar model per dataset (seed 7 for every variant).
    let prepared: Vec<_> = cases
        .iter()
        .map(|(_, data, (w, p, a))| {
            let config = PipelineConfig::new(*w, *p, *a).unwrap().with_seed(7);
            let values = data.series.values();
            let model = AnomalyPipeline::new(config.clone()).model(values, &NoopRecorder);
            (values, config, model.unwrap())
        })
        .collect();
    let mut ws = Workspace::new();

    let mut baseline_pos: Vec<Option<usize>> = vec![None; cases.len()];
    for (vi, (name, options)) in variants.iter().enumerate() {
        let mut cells = Vec::new();
        for (ci, (values, config, model)) in prepared.iter().enumerate() {
            let r = RraDetector::new(config.clone(), 1)
                .with_engine(EngineConfig::sequential())
                .with_options(*options)
                .search_model(values, model, &mut ws, &NoopRecorder)
                .unwrap();
            let pos = r.discords.first().map(|d| d.position);
            if vi == 0 {
                baseline_pos[ci] = pos;
            } else {
                assert_eq!(
                    pos, baseline_pos[ci],
                    "exactness violated: variant {name} changed the discord"
                );
            }
            cells.push(thousands(r.stats.distance_calls as u128));
        }
        println!(
            "{:<24} {:>14} {:>14} {:>14}",
            name, cells[0], cells[1], cells[2]
        );
    }
    println!(
        "\nall variants return the identical discord — the heuristics are pure\n\
         cost optimizations, as the paper argues."
    );
}
