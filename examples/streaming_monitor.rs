//! Online anomaly monitoring — the paper's §7 future-work direction in
//! action: points arrive one at a time, the detector raises an alert as
//! soon as an incompressible region matures, and the live-telemetry stack
//! turns periodic metric snapshots into per-interval `window` records and
//! SLO `health` verdicts (the library equivalent of `gv monitor`).
//!
//! ```text
//! cargo run --release --example streaming_monitor
//! ```

use grammarviz::core::obs::{HealthEngine, HealthRule, LedgerRecord, WindowedAggregator};
use grammarviz::core::{PipelineConfig, StreamingDetector};
use grammarviz::timeseries::Interval;

fn main() {
    // A telemetry-like stream: regular cycles with a fault at t=6200.
    let fault = Interval::new(6200, 6320);
    let signal = |t: usize| -> f64 {
        if fault.contains(t) {
            0.1 * ((t - fault.start) as f64 / 8.0).sin() // flat-ish fault
        } else {
            let phase = (t % 200) as f64 / 200.0;
            if phase < 0.5 {
                1.0 + 0.05 * (phase * 40.0).sin()
            } else {
                0.05 * (phase * 30.0).sin()
            }
        }
    };

    let config = PipelineConfig::new(100, 4, 4).expect("valid parameters");
    let mut detector = StreamingDetector::new(config);

    // The monitoring stack: difference every cumulative snapshot into a
    // per-interval window, and grade each window against two SLOs. The
    // tight discord budget breaches when the fault alerts.
    let mut aggregator = WindowedAggregator::new();
    let mut health = HealthEngine::new(vec![
        HealthRule::MaxDiscordRate(0.0001),
        HealthRule::StaleStream(3),
    ]);

    println!("streaming 10,000 points; fault injected at {fault}\n");
    let mut reported: Vec<Interval> = Vec::new();
    let mut snapshots = Vec::new();
    let mut first_alert: Option<(usize, Interval)> = None;
    for t in 0..10_000usize {
        detector.push(signal(t)).expect("finite signal");
        // Check periodically, like a monitoring loop would.
        if t % 250 == 0 && t > 0 {
            for alert in detector.alerts(0, 150) {
                if !reported.iter().any(|r| r.overlaps(&alert)) {
                    reported.push(alert);
                }
                if first_alert.is_none() && alert.overlaps(&fault) {
                    first_alert = Some((t, alert));
                    println!("t={t:>6}: ALERT {alert} — fault detected");
                }
            }
        }
        if (t + 1) % 2000 == 0 {
            snapshots.push(detector.snapshot());
        }
        if t % 2000 == 0 && t > 0 {
            println!(
                "t={t:>6}: {} tokens, grammar over {} points so far",
                detector.num_tokens(),
                detector.len()
            );
        }
    }
    match first_alert {
        Some((t, alert)) => {
            let delay = t.saturating_sub(fault.end);
            println!(
                "\nfault {fault} alerted at t={t} (≈{delay} points after it ended — \
                 maturity horizon + check period)"
            );
            println!(
                "alert interval {alert} overlaps the fault: {}",
                alert.overlaps(&fault)
            );
        }
        None => println!("\nno alert raised — unexpected for this stream"),
    }

    // Replay the cumulative snapshot trajectory through the aggregator:
    // one deterministic `window` record per snapshot interval, plus a
    // `health` record whenever the SLO verdict changes (the CLI
    // equivalent is `gv monitor --interval N --rules FILE`).
    println!("\nwindow + health records:");
    for snapshot in &snapshots {
        let seen = snapshot.params.iter().find(|(k, _)| k == "seen");
        let points = seen.map(|(_, v)| *v).unwrap_or(0);
        let discords = reported.iter().filter(|r| (r.end as u64) <= points).count() as u64;
        let window = aggregator.observe(snapshot, points, discords, 0);
        println!("  {}", window.to_jsonl());
        let (report, transition) = health.evaluate(&window);
        if transition {
            println!("  {}", report.to_jsonl());
        }
    }

    // One run-ledger line captures the session's provenance: config and
    // input digests plus a digest over what was found — `gv check
    // --ledger` compares these across git SHAs to catch result drift.
    let mut config_fp = grammarviz::core::obs::Fingerprint::new();
    config_fp.write_str("streaming_monitor").write_u64(100);
    let mut result_fp = grammarviz::core::obs::Fingerprint::new();
    for alert in &reported {
        result_fp
            .write_u64(alert.start as u64)
            .write_u64(alert.len() as u64);
    }
    let ledger = LedgerRecord {
        label: "streaming_monitor".to_string(),
        git_sha: grammarviz::core::obs::git_sha(),
        config_fp: config_fp.finish(),
        input_digest: grammarviz::core::obs::digest_series(detector.values()),
        points: detector.len() as u64,
        wall_ns: 0,
        k: reported.len() as u64,
        result_digest: result_fp.finish(),
    };
    println!("\nledger record:\n  {}", ledger.to_jsonl());
}
