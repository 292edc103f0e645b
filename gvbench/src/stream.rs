//! `stream-ecg`: an open loop at a fixed 100,000 points/s (about 40 % of
//! the detector's capacity on a 2-core Xeon) into a bounded-horizon
//! `StreamingDetector`, with an exact top-2 RRA detect every 2,500 points.
//! Each round feeds one 25,000-point ECG record through a fresh detector;
//! rounds cycle through a set of records generated from the seed, so the
//! run averages over records as the batch workloads average over inputs.
//! The op is the periodic detect.
//!
//! It runs the same SAX and Sequitur code as the batch workloads, but
//! differently: incremental push and evict (writes) beside periodic
//! re-detection over the horizon (reads). Moving work between the two
//! shows as a trade between `points_per_s` and point latency.

use std::time::Instant;

use gv_datasets::ecg::ecg_record;
use gv_datasets::Dataset;
use gv_timeseries::Interval;
use gva_core::obs::NoopRecorder;
use gva_core::{Detector, PipelineConfig, SeriesView, StreamingDetector, Workspace};

use crate::closed::{layer_metrics, p90_or_zero, trace_coverage};
use crate::layers::{self, Layers};
use crate::openloop::OpenLoop;
use crate::stats::{balanced, median, percentile};
use crate::{host, input_seed, print_hits, Outcome, Run, SETUPS};

/// Feed rate, points per second.
const RATE: u64 = 100_000;
/// Points per record, i.e. per round.
const POINTS: usize = 25_000;
/// Records per run.
const RECORDS: usize = 40;
/// A detect runs after every this many points.
const EVERY: usize = 2_500;
const HORIZON: usize = 4_096;
const WINDOW: usize = 150;
const K: usize = 2;

/// Record `input` of `seed` (seed 0, record 0 is the preset).
pub fn dataset(seed: u64, input: usize) -> Dataset {
    ecg_record(
        "stream feed",
        POINTS,
        WINDOW,
        2,
        input_seed(0x150, seed, input),
    )
}

fn config() -> PipelineConfig {
    PipelineConfig::new(WINDOW, 4, 4).expect("preset SAX parameters are valid")
}

/// One pass of a record through a fresh detector.
struct Round {
    ol: OpenLoop,
    detect_ms: Vec<f64>,
    /// Result digest of every detect, in order.
    digests: Vec<u64>,
    /// Top-ranked interval of every detect, in absolute stream positions.
    tops: Vec<Interval>,
    /// `(detect index, retained values)` for the detect asked for.
    captured: Option<(usize, Vec<f64>)>,
    /// The retained values at the last detect.
    final_values: Vec<f64>,
}

/// Feeds `feed` through a fresh detector. Paced, point `i` is due at
/// `i / RATE` s and the loop spins until then; unpaced, points go in as
/// fast as the detector takes them. Detect number `capture`, if given,
/// keeps a copy of the values it ran on.
fn round(feed: &[f64], paced: bool, capture: Option<usize>) -> Result<Round, String> {
    let config = config();
    let rra = layers::rra_detector(&config, K);
    let mut det = StreamingDetector::new(config).with_horizon(HORIZON);
    let mut r = Round {
        ol: OpenLoop::new(RATE),
        detect_ms: Vec::new(),
        digests: Vec::new(),
        tops: Vec::new(),
        captured: None,
        final_values: Vec::new(),
    };
    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    for (i, &v) in feed.iter().enumerate() {
        let due = r.ol.due_ns(i as u64);
        let mut start = now();
        let waited = paced && start < due;
        while paced && start < due {
            start = now();
        }
        det.push(v).map_err(|e| e.to_string())?;
        let done = now();
        r.ol.point(i as u64, start, done, waited);
        if (i + 1) % EVERY == 0 {
            let report = det.detect(&rra).map_err(|e| e.to_string())?;
            let end = now();
            r.ol.work(end - done, end);
            r.detect_ms.push((end - done) as f64 / 1e6);
            r.digests.push(layers::digest_report(&report));
            let base = det.horizon_start();
            if let Some(a) = report.anomalies.first() {
                r.tops.push(Interval::new(
                    a.interval.start + base,
                    a.interval.end + base,
                ));
            }
            if capture == Some(r.digests.len() - 1) {
                r.captured = Some((r.digests.len() - 1, det.values().to_vec()));
            }
        }
    }
    r.final_values = det.values().to_vec();
    Ok(r)
}

/// Digest of a from-scratch batch RRA over `values`.
fn batch_digest(values: &[f64]) -> Result<u64, String> {
    layers::rra_detector(&config(), K)
        .detect(
            &SeriesView::new(values),
            &mut Workspace::new(),
            &NoopRecorder,
        )
        .map(|r| layers::digest_report(&r))
        .map_err(|e| e.to_string())
}

/// The child side of the RSS probe: one unpaced round of record `input`.
pub fn probe(seed: u64, input: usize) -> Result<(), String> {
    round(dataset(seed, input).series.values(), false, None)?;
    host::print_own_peak_rss()
}

/// Runs paced rounds for `run.seconds`.
pub fn run(run: &Run) -> Result<Outcome, String> {
    // Set-up: generate the records, build the detectors, and run the first
    // detect (on the first EVERY points of record 0, unpaced).
    let mut setup_s = Vec::new();
    let mut records = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        records = (0..RECORDS)
            .map(|i| dataset(run.seed, i))
            .collect::<Vec<_>>();
        round(&records[0].series.values()[..EVERY], false, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let detects_per_round = POINTS / EVERY;
    let mut rounds: Vec<(usize, OpenLoop)> = Vec::new();
    let mut detect_ms: Vec<(usize, f64)> = Vec::new();
    let mut decomposed: Vec<(usize, Layers)> = Vec::new();
    let mut decomposed_ms: Vec<(usize, f64)> = Vec::new();
    let mut first: Vec<Option<Vec<u64>>> = vec![None; RECORDS];
    let mut last_values = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ws = Workspace::new();
    let wait0 = host::wait_ns("thread-self");
    let t0 = Instant::now();
    for (n, input) in (0..RECORDS).cycle().enumerate() {
        if t0.elapsed() >= run.seconds {
            break;
        }
        // Traced runs decompose one full-horizon detect per round, a
        // different one each round.
        let capture = run.trace.then_some(1 + n % (detects_per_round - 1));
        let r = round(records[input].series.values(), true, capture)?;

        // Oracles, outside the paced loop: every detect matches the same
        // record's first round, and the last one matches batch RRA over
        // the same values.
        attempted += r.digests.len() as u64;
        let expected = first[input].get_or_insert_with(|| r.digests.clone());
        failed += r
            .digests
            .iter()
            .zip(expected.iter())
            .filter(|(a, b)| a != b)
            .count() as u64;
        if r.digests.last() != Some(&batch_digest(&r.final_values)?) {
            eprintln!("oracle failed: the final detect differs from batch RRA");
            failed += 1;
        }
        if n == 0 {
            print_hits(&records[0], r.tops.iter().copied());
        }
        if let Some((idx, values)) = &r.captured {
            let mut l = Layers::default();
            let t = Instant::now();
            let report = layers::rra(values, &config(), K, &mut ws, &mut l)?;
            decomposed_ms.push((input, t.elapsed().as_secs_f64() * 1e3));
            decomposed.push((input, l));
            attempted += 1;
            if layers::digest_rra(&report) != r.digests[*idx] {
                eprintln!("oracle failed: decomposed detect {idx} differs from the stream's");
                failed += 1;
            }
        }
        detect_ms.extend(r.detect_ms.iter().map(|&ms| (input, ms)));
        rounds.push((input, r.ol));
        last_values = r.final_values;
    }
    let wait_share = host::wait_share(wait0, 0, t0.elapsed().as_nanos() as f64);

    // A per-round statistic, input-balanced over the records.
    let per_round = |f: &dyn Fn(&OpenLoop) -> f64| {
        balanced(&rounds.iter().map(|(i, ol)| (*i, f(ol))).collect::<Vec<_>>())
    };
    let detect_p50 = balanced(&detect_ms);
    let metrics = if run.trace {
        let model = ws
            .build_model(&config(), &last_values, &NoopRecorder)
            .map_err(|e| e.to_string())?;
        let candidates = layers::search_candidates(&model);
        let kernel = layers::kernel_probe(&last_values, &candidates, WINDOW);
        let pooled: Vec<f64> = detect_ms.iter().map(|s| s.1).collect();
        let detect_p90 = p90_or_zero(&pooled);
        let p99 = |v: &[f64]| percentile(v, 0.99).unwrap_or(0.0);
        let mut m = layer_metrics(&decomposed, Some(kernel));
        m.extend([
            (
                "streaming.push_us_p50",
                per_round(&|ol| median(&ol.push_ns) / 1e3),
            ),
            (
                "streaming.push_us_p99",
                per_round(&|ol| p99(&ol.push_ns) / 1e3),
            ),
            ("streaming.busy_share", per_round(&|ol| ol.busy_share())),
            (
                "streaming.backlog_max",
                rounds.iter().map(|r| r.1.backlog_max()).max().unwrap_or(0) as f64,
            ),
            ("streaming.detect_ms_p90", detect_p90),
            (
                "streaming.point_latency_ms_p99",
                per_round(&|ol| p99(&ol.latency_ns) / 1e6),
            ),
            ("run.op_ms_p90", detect_p90),
            ("run.ops", detect_ms.len() as f64),
            ("run.wait_share", wait_share),
            (
                "run.trace_coverage",
                trace_coverage(&decomposed, detect_p50),
            ),
            (
                "run.trace_overhead_share",
                balanced(&decomposed_ms) / detect_p50 - 1.0,
            ),
            (
                "run.generator_lag_us_p99",
                per_round(&|ol| p99(&ol.lag_ns) / 1e3),
            ),
        ]);
        m
    } else {
        vec![
            ("op_ms_p50", detect_p50),
            (
                "points_per_s",
                POINTS as f64 / (per_round(&|ol| ol.busy_ns() as f64) / 1e9),
            ),
            ("peak_rss_mb", host::probe_rss_mb("stream-ecg", run.seed)?),
            ("setup_s", median(&setup_s)),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_preset() {
        let preset = ecg_record("stream feed", POINTS, WINDOW, 2, 0x150);
        assert_eq!(dataset(0, 0).series.values(), preset.series.values());
        assert_ne!(dataset(0, 1).series.values(), preset.series.values());
    }

    /// A shortened unpaced round: the last detect matches batch RRA over
    /// the values it ran on, and the decomposed detect matches the
    /// stream's.
    #[test]
    fn stream_round_passes_its_oracles() {
        let data = dataset(0, 0);
        let feed = &data.series.values()[..4 * EVERY];
        let r = round(feed, false, Some(2)).unwrap();
        assert_eq!(r.digests.len(), 4);
        assert_eq!(r.final_values.len(), HORIZON);
        assert_eq!(
            r.digests.last(),
            Some(&batch_digest(&r.final_values).unwrap())
        );
        let (idx, values) = r.captured.unwrap();
        let mut l = Layers::default();
        let report = layers::rra(&values, &config(), K, &mut Workspace::new(), &mut l).unwrap();
        assert_eq!(layers::digest_rra(&report), r.digests[idx]);
    }
}
