//! Ground-truth localisation check across every evaluation dataset:
//! precision/recall of each detector's top-3 reports against the planted
//! anomalies. This is the accuracy side of Table 1 (which only reports
//! cost): "orders of magnitude more efficient than current state of the
//! art **without a loss in accuracy**" (paper §7).
//!
//! ```text
//! cargo run -p gv-bench --release --bin ground_truth [-- <scale>]
//! ```

use gv_datasets::table1;
use gv_discord::HotSaxConfig;
use gv_timeseries::Interval;
use gva_core::evaluation::evaluate;
use gva_core::obs::NoopRecorder;
use gva_core::{AnomalyPipeline, Detector, HotSaxDetector, PipelineConfig, SeriesView, Workspace};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    println!("Ground-truth localisation (top-3 reports, slack = window; large ECGs at {scale})\n");
    println!(
        "{:<28} {:>14} {:>14} {:>14}",
        "dataset", "HOTSAX R/P", "RRA R/P", "density R/P"
    );
    println!("{}", "-".repeat(74));

    let mut totals = [(0usize, 0usize); 3]; // (truths found, truths total)
    let mut ws = Workspace::new();
    for row in table1::rows(Some(scale)) {
        let values = row.dataset.series.values();
        let truths: Vec<Interval> = row.dataset.anomalies.iter().map(|a| a.interval).collect();
        let slack = row.window;

        let hs_cfg = HotSaxConfig::new(row.window, row.paa.min(row.window), row.alphabet).unwrap();
        let hs = HotSaxDetector::new(hs_cfg, 3)
            .detect(&SeriesView::new(values), &mut ws, &NoopRecorder)
            .unwrap();
        let hs_iv: Vec<Interval> = hs.anomalies.iter().map(|a| a.interval).collect();

        let pipeline =
            AnomalyPipeline::new(PipelineConfig::new(row.window, row.paa, row.alphabet).unwrap());
        let rra = pipeline.rra_discords(values, 3, &NoopRecorder).unwrap();
        let rra_iv: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
        let density = pipeline
            .density_anomalies(values, 3, &NoopRecorder)
            .unwrap();
        let den_iv: Vec<Interval> = density.anomalies.iter().map(|a| a.interval).collect();

        let evals = [
            evaluate(&hs_iv, &truths, slack, values.len()),
            evaluate(&rra_iv, &truths, slack, values.len()),
            evaluate(&den_iv, &truths, slack, values.len()),
        ];
        for (t, e) in totals.iter_mut().zip(&evals) {
            t.0 += e.truths_found;
            t.1 += truths.len();
        }
        println!(
            "{:<28} {:>6.2}/{:<6.2} {:>6.2}/{:<6.2} {:>6.2}/{:<6.2}",
            row.name,
            evals[0].recall(),
            evals[0].precision(),
            evals[1].recall(),
            evals[1].precision(),
            evals[2].recall(),
            evals[2].precision(),
        );
    }
    println!("{}", "-".repeat(74));
    let pct = |(found, total): (usize, usize)| 100.0 * found as f64 / total.max(1) as f64;
    println!(
        "overall truth recovery: HOTSAX {:.0}%  RRA {:.0}%  density {:.0}%",
        pct(totals[0]),
        pct(totals[1]),
        pct(totals[2])
    );
    println!(
        "\npaper shape: RRA matches HOTSAX accuracy (no loss) while density, used\n\
         alone, recovers most anomalies but ranks subtle ones less reliably (§5)."
    );
}
