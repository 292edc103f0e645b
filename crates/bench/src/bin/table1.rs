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
//!
//! Expected shape (paper): RRA uses far fewer distance calls than HOTSAX
//! (50–97% reduction), both are orders of magnitude below brute force, and
//! the RRA discords overlap the HOTSAX discords heavily while differing
//! slightly in length.

use gv_bench::report::{best_overlap_pct, hr, reduction_pct, thousands};
use gv_datasets::table1;
use gv_discord::{brute_force_call_count, HotSaxConfig};
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{AnomalyPipeline, Detector, HotSaxDetector, PipelineConfig, SeriesView, Workspace};

fn main() {
    let arg = std::env::args().nth(1);
    let scale = match arg.as_deref() {
        Some("full") => None,
        Some(s) => Some(s.parse().expect("scale must be an integer or 'full'")),
        None => Some(60_000),
    };

    println!("Table 1: performance comparison for brute-force, HOTSAX and RRA");
    println!(
        "(synthetic analogues; large ECGs scaled to {:?} points)\n",
        scale
    );
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

        // RRA (top-3, matching the paper's ranked output).
        let config = PipelineConfig::new(n, row.paa, row.alphabet).expect("valid");
        let pipeline = AnomalyPipeline::new(config);
        let rra = pipeline
            .rra_discords(values, 3, &NoopRecorder)
            .expect("pipeline runs");

        let hs_best = hs_discords.first();
        let rra_best = rra.discords.first();
        let overlap = match hs_best {
            Some(hs) => {
                let rra_ivs: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
                best_overlap_pct(hs.interval(), &rra_ivs)
            }
            None => 0.0,
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
