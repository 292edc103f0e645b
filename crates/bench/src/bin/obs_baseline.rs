//! Records the observability trajectory points: both detectors run
//! instrumented on the synthetic sine fixture from `gva_core`'s crate doc
//! example, and the stage-level snapshots are written to
//! `BENCH_obs_baseline.json` (one JSONL record per detector, the same
//! schema as the CLI's `--metrics` output). The level-2 decision stream —
//! the RRA trace with its latency/length histograms, per-discord
//! provenance rows, every search event, and the explain summary — goes to
//! `BENCH_obs_events.json`.
//!
//! ```text
//! cargo run -p gv-bench --release --bin obs_baseline [-- OUT.json [EVENTS.json]]
//! ```

use gv_bench::report;
use gva_core::obs::CollectingRecorder;
use gva_core::{AnomalyPipeline, PipelineConfig};

/// The `gva_core` doc-example fixture: a sine with a planted distortion.
fn fixture() -> Vec<f64> {
    let mut values: Vec<f64> = (0..2000).map(|i| (i as f64 / 20.0).sin()).collect();
    for (i, v) in values[1000..1060].iter_mut().enumerate() {
        *v = (i as f64 / 4.0).sin() * 0.3;
    }
    values
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let out = argv
        .next()
        .unwrap_or_else(|| "BENCH_obs_baseline.json".to_string());
    let events_out = argv
        .next()
        .unwrap_or_else(|| "BENCH_obs_events.json".to_string());
    let values = fixture();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).expect("valid params"));
    let params = |trace: gva_core::obs::PipelineTrace| {
        trace
            .with_param("points", values.len() as u64)
            .with_param("window", 100)
            .with_param("paa", 5)
            .with_param("alphabet", 4)
            .with_param("top", 1)
    };

    let density_rec = CollectingRecorder::new();
    let density = pipeline
        .density_anomalies(&values, 1, &density_rec)
        .expect("pipeline runs");
    assert!(
        !density.anomalies.is_empty(),
        "fixture must yield a density anomaly"
    );

    // The RRA run goes through `explain`: same search, same counters
    // (single counting path), plus the joined per-discord provenance.
    let rra_rec = CollectingRecorder::new();
    let explain = pipeline
        .explain(&values, 1, &rra_rec)
        .expect("pipeline runs");
    assert!(!explain.rows.is_empty(), "fixture must yield a discord");
    assert_eq!(
        explain.distance_calls_from_events(),
        explain.stats.distance_calls,
        "event books must balance"
    );

    let traces = [
        params(density_rec.snapshot("obs_baseline:density")),
        params(rra_rec.snapshot("obs_baseline:rra")),
    ];

    println!("Observability baseline — sine fixture (2000 pts, plant at 1000..1060)\n");
    print!("{}", report::trace_section(&traces));
    print!("{}", explain.render_table());
    let top = &explain.rows[0];
    println!(
        "\ndensity top anomaly: {}  |  rra top discord: {}..{} (d={:.4}, {} distance calls)",
        density.anomalies[0].interval,
        top.position,
        top.position + top.length,
        top.distance,
        report::thousands(explain.stats.distance_calls as u128),
    );

    report::write_traces(std::path::Path::new(&out), &traces).expect("write baseline");
    println!("\nwrote {} trace(s) to {out}", traces.len());

    // The decision stream: the instrumented trace first (histogram
    // percentiles ride in its "histograms" object), then provenance rows,
    // then the raw events, then the summary.
    let lines: Vec<String> = std::iter::once(traces[1].to_jsonl())
        .chain(explain.rows.iter().map(|r| r.to_jsonl()))
        .chain(explain.events.iter().map(|e| e.to_jsonl()))
        .chain(std::iter::once(explain.summary_jsonl()))
        .collect();
    report::write_lines(std::path::Path::new(&events_out), &lines).expect("write events");
    println!("wrote {} JSONL lines to {events_out}", lines.len());
}
