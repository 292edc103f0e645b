//! Regenerates **Table 1**: distance-call counts for brute force, HOTSAX
//! and RRA on all 14 evaluation datasets, the RRA-vs-HOTSAX reduction, and
//! the discord length/overlap agreement.
//!
//! ```text
//! cargo run -p gv-bench --release --bin table1 [-- <scale>]
//! ```
//!
//! `<scale>` (default 60000) is the substitute length for the two
//! ~550k-point MIT-BIH records; pass `full` for paper-sized runs (slow).
//! Both searches report their top-1 discord, and RRA runs on one thread,
//! so every cell is independent of `GV_THREADS`.
//!
//! Expected shape (paper): RRA uses far fewer distance calls than HOTSAX
//! (50–97% reduction), both are orders of magnitude below brute force, and
//! the RRA discord overlaps the HOTSAX discord heavily while differing
//! slightly in length.

use gv_bench::report::{hr, reduction_pct, thousands};
use gv_datasets::table1;
use gv_discord::{brute_force_call_count, HotSaxConfig};
use gva_core::obs::NoopRecorder;
use gva_core::{
    AnomalyPipeline, Detector, EngineConfig, HotSaxDetector, PipelineConfig, SeriesView, Workspace,
};

fn main() {
    let arg = std::env::args().nth(1);
    let scale = match arg.as_deref() {
        Some("full") => None,
        Some(s) => Some(s.parse().expect("scale must be an integer or 'full'")),
        None => Some(60_000),
    };

    println!("Table 1: performance comparison for brute-force, HOTSAX and RRA");
    let size = match scale {
        Some(points) => format!("scaled to {points} points"),
        None => "at full size".to_string(),
    };
    println!("(synthetic analogues; large ECGs {size})\n");
    println!(
        "{:<34} {:>8}  {:>16} {:>14} {:>12}  {:>9}  {:>11}  {:>8}",
        "Dataset (window,PAA,alpha)",
        "Length",
        "Brute-force",
        "HOTSAX",
        "RRA",
        "Reduction",
        "HS/RRA len",
        "Overlap"
    );
    println!("{}", hr(126));

    let mut ws = Workspace::new();
    for row in table1::rows(scale) {
        let values = row.dataset.series.values();
        let m = values.len();
        let n = row.window;

        // Brute force: analytic exact call count.
        let brute = brute_force_call_count(m, n);

        // HOTSAX (top-1 discord), word shape (paa, alphabet) from the row.
        let hs_cfg =
            HotSaxConfig::new(n, row.paa.min(n), row.alphabet).expect("row parameters are valid");
        let hs_report = HotSaxDetector::new(hs_cfg, 1)
            .detect(&SeriesView::new(values), &mut ws, &NoopRecorder)
            .expect("series fits the window");
        let (hs_discords, hs_stats) = (hs_report.to_rra().discords, hs_report.stats);

        // RRA (top-1, like for like with HOTSAX).
        let config = PipelineConfig::new(n, row.paa, row.alphabet).expect("valid");
        let pipeline = AnomalyPipeline::new(config).with_engine(EngineConfig::sequential());
        let rra = pipeline
            .rra_discords(values, 1, &NoopRecorder)
            .expect("pipeline runs");

        let hs_best = hs_discords.first();
        let rra_best = rra.discords.first();
        // Overlap of the two discords, as a share of the shorter one.
        let overlap = match (hs_best, rra_best) {
            (Some(hs), Some(rra)) => 100.0 * hs.interval().overlap_fraction(&rra.interval()),
            _ => 0.0,
        };

        println!(
            "{:<34} {:>8}  {:>16} {:>14} {:>12}  {:>8.1}%  {:>5} / {:<5}  {:>7.1}%",
            format!("{} ({},{},{})", row.name, row.window, row.paa, row.alphabet),
            thousands(m as u128),
            thousands(brute),
            thousands(hs_stats.distance_calls as u128),
            thousands(rra.stats.distance_calls as u128),
            reduction_pct(
                hs_stats.distance_calls as u128,
                rra.stats.distance_calls as u128
            ),
            hs_best.map(|d| d.length).unwrap_or(0),
            rra_best.map(|d| d.length).unwrap_or(0),
            overlap,
        );
    }

    println!("{}", hr(126));
    println!(
        "paper shape: RRA reduces HOTSAX distance calls by 49–97%; both are orders of\n\
         magnitude below brute force; RRA discord lengths deviate slightly from the\n\
         window while overlapping the HOTSAX discord location."
    );
}
