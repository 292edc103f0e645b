//! Streaming throughput flatness gates for the bounded-horizon
//! [`StreamingDetector`]:
//!
//! * **History.** ECG records (window 150) of 10k and 100k points at a
//!   4,096-point horizon: push every point and, every 2,500, run an exact
//!   RRA re-detection and an alert scan (which reads the density curve).
//!   Per-point cost must stay within 1.5x between the two sizes: with the
//!   horizon fixed, the work per push and per read is bounded by the
//!   retained window, never by how long the stream has been running.
//! * **Horizon.** One 100k-point noisy two-tone series (window 128, PAA 5,
//!   alphabet 4: many distinct words, so the grammar over a horizon stays
//!   large) at horizons 1,024, 4,096 and 16,384, with an alert scan every
//!   horizon/2 points. A read costs O(horizon), so at that cadence each
//!   point pays for about two points of reads at every horizon, and
//!   per-point cost at 16,384 must stay within 1.5x of 1,024. Push work
//!   that grows with the horizon breaks it.
//!
//! ```text
//! cargo run -p gv-bench --release --bin streaming_throughput
//! ```
//!
//! Wall-clock figures are machine-dependent; the machine-independent
//! guarantee is the *ratio* — the runs each gate compares do the same
//! per-point work, so any ratio above the gate is algorithmic, not noise.
//! The binary exits non-zero when either gate breaches.

use std::time::Instant;

use gv_bench::report;
use gv_datasets::ecg::ecg_record;
use gva_core::{EngineConfig, PipelineConfig, RraDetector, StreamingDetector};

/// History sizes whose per-point cost must agree.
const HISTORY: [usize; 2] = [10_000, 100_000];
/// Retained horizon of the history gate: identical for both sizes, so
/// per-push work matches.
const HORIZON: usize = 4_096;
/// Exact-detection cadence (same per-point amortization at both sizes).
const DETECT_EVERY: usize = 2_500;
/// Horizons of the horizon gate, smallest first.
const SWEEP: [usize; 3] = [1_024, 4_096, 16_384];
/// Best-of rounds per run.
const REPS: usize = 5;
/// Per-point cost ratio (last run vs first) above which a gate fails.
const MAX_RATIO: f64 = 1.5;

/// History pass: push every point through a fresh bounded stream, run
/// the exact discord search and scan for alerts every `DETECT_EVERY`
/// points, and both once more at the end. Returns the number of points
/// streamed.
fn history_pass(values: &[f64], config: &PipelineConfig) -> usize {
    let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
    let mut det = StreamingDetector::new(config.clone()).with_horizon(HORIZON);
    for (i, &v) in values.iter().enumerate() {
        det.push(v).expect("stream push");
        if (i + 1) % DETECT_EVERY == 0 {
            det.detect(&rra).expect("periodic detect");
            let _ = det.alerts(0, 2 * config.window());
        }
    }
    det.detect(&rra).expect("final detect");
    let _ = det.alerts(0, 2 * config.window());
    det.len()
}

/// The horizon gate's series: CI's generated 24k input without its
/// planted stretch — two tones plus a deterministic hash noise.
fn noisy_tones(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let i = i as f64;
            let h = (i * 12.9898).sin() * 43758.5453;
            (i / 12.0).sin() + 0.3 * (i / 37.0).sin() + 0.1 * (h - h.trunc())
        })
        .collect()
}

/// Horizon pass: push every point through a fresh stream bounded to
/// `horizon`, scanning for alerts every `horizon / 2` points. Returns the
/// number of points streamed.
fn horizon_pass(values: &[f64], config: &PipelineConfig, horizon: usize) -> usize {
    let mut det = StreamingDetector::new(config.clone()).with_horizon(horizon);
    for (i, &v) in values.iter().enumerate() {
        det.push(v).expect("stream push");
        if (i + 1) % (horizon / 2) == 0 {
            let _ = det.alerts(0, 2 * config.window());
        }
    }
    det.len()
}

/// One timed run: its row label and a pass returning the points streamed.
type Run<'a> = (String, Box<dyn Fn() -> usize + 'a>);

/// Times each of a gate's runs after one warm-up pass (allocator, lazy
/// init) as the best of `REPS` rounds, one pass of every run per round,
/// so drift in the host's speed reaches all of them alike. Prints a row
/// per run and returns each run's nanoseconds per point.
fn measure(runs: &[Run<'_>]) -> Vec<f64> {
    let points: Vec<usize> = runs.iter().map(|(_, pass)| pass()).collect();
    let mut best_ns = vec![u64::MAX; runs.len()];
    for _ in 0..REPS {
        for (((_, pass), best), &points) in runs.iter().zip(&mut best_ns).zip(&points) {
            #[expect(
                clippy::disallowed_methods,
                reason = "bench binaries exist to measure wall time"
            )]
            let t0 = Instant::now();
            assert_eq!(pass(), points);
            *best = (*best).min(t0.elapsed().as_nanos() as u64);
        }
    }
    runs.iter()
        .zip(best_ns)
        .zip(points)
        .map(|(((label, _), best_ns), points)| {
            let ns_per_point = best_ns as f64 / points as f64;
            println!(
                "{label:<18} {points:>8} {:>12.2} {:>12.1} {:>12}",
                best_ns as f64 / 1e6,
                ns_per_point,
                report::thousands((1e9 / ns_per_point) as u128),
            );
            ns_per_point
        })
        .collect()
}

/// Prints a gate's ratio and returns whether it holds.
fn gate(name: &str, first: f64, last: f64) -> bool {
    let ratio = last / first;
    println!("{name} per-point cost ratio: {ratio:.3}x (gate: <= {MAX_RATIO}x)");
    if ratio > MAX_RATIO {
        eprintln!(
            "streaming_throughput: FAIL — {name} per-point cost grew {ratio:.3}x \
             (gate {MAX_RATIO}x); the bounded horizon should make this flat"
        );
    }
    ratio <= MAX_RATIO
}

fn main() {
    let config = PipelineConfig::new(150, 4, 4).expect("valid params");
    println!(
        "Streaming throughput — history runs: ECG, window 150, horizon {HORIZON}, \
         exact detect and alert scan every {DETECT_EVERY} points; horizon runs: \
         two tones, window 128, alert scan every horizon/2 points\n"
    );
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>12}",
        "run", "points", "wall (ms)", "ns/point", "pts/sec"
    );

    let records: Vec<_> = HISTORY
        .iter()
        .map(|&points| ecg_record("bench streaming throughput", points, 150, 2, 0x150))
        .collect();
    let history = measure(
        &records
            .iter()
            .map(|data| {
                let pass: Box<dyn Fn() -> usize> =
                    Box::new(|| history_pass(data.series.values(), &config));
                (format!("history {}k", data.series.len() / 1000), pass)
            })
            .collect::<Vec<_>>(),
    );
    let tones = noisy_tones(HISTORY[1]);
    let tones_config = PipelineConfig::new(128, 5, 4).expect("valid params");
    let (tones, tones_config) = (&tones, &tones_config);
    let sweep = measure(
        &SWEEP
            .iter()
            .map(|&horizon| {
                let pass: Box<dyn Fn() -> usize> =
                    Box::new(move || horizon_pass(tones, tones_config, horizon));
                (format!("horizon {horizon}"), pass)
            })
            .collect::<Vec<_>>(),
    );

    println!();
    let flat_history = gate(
        &format!("history ({}k vs {}k)", HISTORY[1] / 1000, HISTORY[0] / 1000),
        history[0],
        history[1],
    );
    let flat_horizon = gate(
        &format!("horizon ({} vs {})", SWEEP[2], SWEEP[0]),
        sweep[0],
        sweep[2],
    );
    if !(flat_history && flat_horizon) {
        std::process::exit(1);
    }
}
