//! Spatial-trajectory anomaly discovery via the Hilbert space-filling
//! curve — the paper's §5.1 case study: a GPS commute track is reduced to
//! a scalar series, then mined for route anomalies of unknown kind.
//!
//! ```text
//! cargo run --release --example trajectory_hilbert
//! ```

use grammarviz::core::{viz, AnomalyPipeline, PipelineConfig};
use grammarviz::datasets::trajectory::daily_commute;
use grammarviz::obs::NoopRecorder;

fn main() {
    let commute = daily_commute();
    let values = commute.dataset.series.values();
    let bbox = commute.mapper.bbox();
    println!(
        "commute track: {} GPS points over [{:.0},{:.0}]x[{:.0},{:.0}], \
         Hilbert order {} ({} cells)",
        commute.points.len(),
        bbox.min_x,
        bbox.max_x,
        bbox.min_y,
        bbox.max_y,
        commute.mapper.curve().order(),
        commute.mapper.curve().cells()
    );
    println!("transformed series: {}", viz::sparkline(values, 110));

    let pipeline = AnomalyPipeline::new(PipelineConfig::new(350, 15, 4).unwrap());

    // The density curve excels at *short* anomalies (the one-off detour).
    let density = pipeline
        .density_anomalies(values, 1, &NoopRecorder)
        .unwrap();
    let detour = density.anomalies[0].interval;
    println!(
        "\ndensity minimum {} (coverage {}) — candidate detour",
        detour, density.anomalies[0].min_density
    );

    // RRA excels at subtler shape anomalies (the partial-GPS-fix segment).
    let rra = pipeline.rra_discords(values, 2, &NoopRecorder).unwrap();
    for d in &rra.discords {
        let iv = d.interval();
        // Map the discord back to map coordinates through the point list.
        let pts = &commute.points[iv.start..iv.end.min(commute.points.len())];
        let (mut cx, mut cy) = (0.0, 0.0);
        for &(x, y) in pts {
            cx += x;
            cy += y;
        }
        let n = pts.len().max(1) as f64;
        println!(
            "RRA rank {}: {} (len {}, d={:.4}) — segment centred near ({:.1}, {:.1})",
            d.rank,
            iv,
            iv.len(),
            d.distance,
            cx / n,
            cy / n
        );
    }

    println!("\nground truth:");
    for a in &commute.dataset.anomalies {
        println!("  {} — {}", a.interval, a.label);
    }
    let gps = commute
        .dataset
        .anomalies
        .iter()
        .find(|a| a.label.contains("GPS"))
        .unwrap();
    let det = commute
        .dataset
        .anomalies
        .iter()
        .find(|a| a.label.contains("detour"))
        .unwrap();
    println!(
        "\ndensity found the detour: {}   RRA found the GPS-fix segment: {}",
        detour.overlaps(&det.interval),
        rra.discords
            .iter()
            .any(|d| d.interval().overlaps(&gps.interval))
    );
}
