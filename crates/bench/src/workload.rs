//! Deterministic workload registry for the `gv bench` harness.
//!
//! Each workload is a fixed, seeded scenario — same data, same
//! parameters, same thread count on every machine — so two runs of the
//! same tree differ only by measurement noise and a run on a changed tree
//! isolates the change:
//!
//! - `standard` — the 20k-point / window-300 / top-3 ECG run through the
//!   *full* pipeline (RRA **and** the density detector), the workload the
//!   per-stage numbers in the paper reproduction are quoted against.
//!   Every pipeline stage reports a nonzero duration here (the density
//!   stage used to read 0 ns in RRA-only exports).
//! - `streaming` — 12k points replayed through the online detector plus a
//!   density-curve pass and an alert scan.
//! - `streaming-throughput` — the same 12k points through the
//!   *bounded-horizon* online detector (horizon 2048, so roughly five
//!   eviction-driven relearn cycles) with a periodic exact re-detection —
//!   the steady-state cost of the incremental engine that
//!   `streaming_throughput` (the standalone flatness gate behind
//!   `BENCH_stream.json`) checks stays constant per point.
//! - `sweep` — a 12-combination discretization-parameter sweep (both
//!   detectors per combination) on a 5k-point record.
//! - `kernel` — the distance-kernel microbench: z-normalize a window
//!   population once through the prefix-sum statistics layer, then drive
//!   the chunked Euclidean kernel through all-pairs nearest-neighbor
//!   loops over the input shapes the searches actually produce (the
//!   standard 300-point window with its 4-point tail, an 8-aligned
//!   304-point window, and a short 37-point resampled candidate). Gates
//!   kernel + statistics throughput in isolation, where a regression
//!   cannot hide behind pipeline stages.
//!
//! A run times a tagged warmup iteration first (cold caches, allocator,
//! lazy stdlib init), then `reps` uninstrumented steady-state iterations
//! (wall time = the minimum), then one instrumented iteration for span
//! self-times and counters — so instrumentation overhead never lands in
//! the wall figure and first-call effects never land in the steady state.

use std::time::Instant;

use gv_datasets::ecg::ecg_record;
use gv_discord::distance::euclidean_early;
use gv_obs::PipelineTrace;
use gv_timeseries::{SeriesStats, DEFAULT_ZNORM_THRESHOLD};
use gva_core::obs::{CollectingRecorder, NoopRecorder, Recorder};
use gva_core::sweep::{self, SweepGrid};
use gva_core::{
    DensityDetector, Detector, EngineConfig, PipelineConfig, RraDetector, SeriesView,
    StreamingDetector, Workspace,
};

use crate::history::BenchRecord;

/// Registered workload names, in registry order.
pub const WORKLOADS: &[&str] = &[
    "standard",
    "streaming",
    "streaming-throughput",
    "sweep",
    "kernel",
];

/// Default steady-state repetitions per workload.
pub const DEFAULT_REPS: usize = 3;

/// One finished workload run: the tagged warmup, the steady-state wall
/// time, and the instrumented trace.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Registry name.
    pub workload: &'static str,
    /// Wall time of the tagged warmup iteration, nanoseconds.
    pub warmup_ns: u64,
    /// Minimum wall time over the steady-state repetitions, nanoseconds.
    pub wall_ns: u64,
    /// Steady-state repetition count.
    pub reps: usize,
    /// Trace of one instrumented steady-state iteration (spans, counters).
    pub trace: PipelineTrace,
    /// Per-span self time as the element-wise minimum over `reps`
    /// instrumented iterations — the same noise-robust min estimator as
    /// `wall_ns`, so one jittery iteration cannot fake a span regression.
    pub span_self_min: Vec<(String, u64)>,
}

impl WorkloadRun {
    /// Converts the run into its two history records: the tagged warmup
    /// iteration and the steady-state aggregate.
    pub fn to_records(&self, git_sha: &str, run: u64) -> [BenchRecord; 2] {
        let steady = BenchRecord {
            workload: self.workload.to_string(),
            git_sha: git_sha.to_string(),
            run,
            warmup: false,
            reps: self.reps as u64,
            wall_ns: self.wall_ns,
            spans: self.span_self_min.clone(),
            counters: gv_obs::Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), self.trace.counter(c)))
                .filter(|&(_, v)| v > 0)
                .collect(),
        };
        let warmup = BenchRecord {
            warmup: true,
            reps: 1,
            wall_ns: self.warmup_ns,
            spans: Vec::new(),
            counters: Vec::new(),
            ..steady.clone()
        };
        [warmup, steady]
    }
}

/// Runs a registered workload: warmup, `reps` timed iterations, one
/// instrumented iteration.
///
/// # Errors
/// Unknown workload name, or a pipeline failure inside the workload.
pub fn run_workload(name: &str, reps: usize) -> Result<WorkloadRun, String> {
    match name {
        "standard" => run_generic("standard", reps, standard_iteration),
        "streaming" => run_generic("streaming", reps, streaming_iteration),
        "streaming-throughput" => {
            run_generic("streaming-throughput", reps, streaming_throughput_iteration)
        }
        "sweep" => run_generic("sweep", reps, sweep_iteration),
        "kernel" => run_generic("kernel", reps, kernel_iteration),
        other => Err(format!(
            "unknown workload {other:?} (registry: {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn run_generic(
    workload: &'static str,
    reps: usize,
    iteration: fn(&dyn Recorder) -> Result<(), String>,
) -> Result<WorkloadRun, String> {
    let reps = reps.max(1);
    let t0 = Instant::now();
    iteration(&NoopRecorder)?;
    let warmup_ns = t0.elapsed().as_nanos() as u64;

    let mut wall_ns = u64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        iteration(&NoopRecorder)?;
        wall_ns = wall_ns.min(t0.elapsed().as_nanos() as u64);
    }

    // Instrumented iterations: one per rep, each into a fresh recorder so
    // the per-span self times can be min-reduced across reps (a single
    // instrumented run is too jittery to diff against).
    let mut span_self_min: Vec<(String, u64)> = Vec::new();
    let mut trace = None;
    for rep in 0..reps {
        let recorder = CollectingRecorder::new();
        iteration(&recorder)?;
        let snap = recorder.snapshot(workload);
        for span in snap.spans.spans() {
            match span_self_min.iter_mut().find(|(p, _)| *p == span.path) {
                Some((_, ns)) => *ns = (*ns).min(span.self_ns),
                None => span_self_min.push((span.path.clone(), span.self_ns)),
            }
        }
        if rep == 0 {
            trace = Some(snap);
        }
    }
    Ok(WorkloadRun {
        workload,
        warmup_ns,
        wall_ns,
        reps,
        trace: trace.expect("reps >= 1"),
        span_self_min,
    })
}

/// The 20k/300/top-3 full-pipeline run: RRA then density on the same
/// model parameters, sequential engine for machine-independent counters.
fn standard_iteration(recorder: &dyn Recorder) -> Result<(), String> {
    let data = ecg_record("bench standard", 20_000, 300, 3, 0x300);
    let series = SeriesView::new(data.series.values());
    let config = PipelineConfig::new(300, 4, 4).map_err(|e| e.to_string())?;
    let mut ws = Workspace::new();
    let rra = RraDetector::new(config.clone(), 3).with_engine(EngineConfig::sequential());
    rra.detect(&series, &mut ws, recorder)
        .map_err(|e| e.to_string())?;
    let density = DensityDetector::new(config, 3);
    density
        .detect(&series, &mut ws, recorder)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// 12k points through the online detector, then the density curve and an
/// alert scan over the stream.
fn streaming_iteration(recorder: &dyn Recorder) -> Result<(), String> {
    let data = ecg_record("bench streaming", 12_000, 150, 2, 0x150);
    let config = PipelineConfig::new(150, 4, 4).map_err(|e| e.to_string())?;
    let mut det = StreamingDetector::with_recorder(config, recorder);
    for &v in data.series.values() {
        det.push(v).map_err(|e| e.to_string())?;
    }
    let curve = det.density_curve();
    if curve.len() != det.len() {
        return Err("density curve length mismatch".to_string());
    }
    let _ = det.alerts(0, 100);
    Ok(())
}

/// The bounded-horizon twin of `streaming`: 12k points through a
/// horizon-2048 online detector (every push past the horizon evicts the
/// oldest token and repairs the grammar), with the exact discord search
/// re-run every 2500 points and a final alert scan.
fn streaming_throughput_iteration(recorder: &dyn Recorder) -> Result<(), String> {
    let data = ecg_record("bench streaming", 12_000, 150, 2, 0x150);
    let config = PipelineConfig::new(150, 4, 4).map_err(|e| e.to_string())?;
    let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
    let mut det = StreamingDetector::with_recorder(config, recorder).with_horizon(2_048);
    for (i, &v) in data.series.values().iter().enumerate() {
        det.push(v).map_err(|e| e.to_string())?;
        if (i + 1) % 2_500 == 0 {
            det.detect(&rra).map_err(|e| e.to_string())?;
        }
    }
    det.detect(&rra).map_err(|e| e.to_string())?;
    if det.len() != 12_000 {
        return Err("streaming-throughput: stream lost points".to_string());
    }
    let _ = det.alerts(0, 300);
    Ok(())
}

/// The kernel microbench's window shapes: the standard 300-point window
/// (4-point tail past the last full 8-point chunk), an 8-aligned
/// 304-point window (no tail), and a short 37-point resampled candidate.
pub const KERNEL_SHAPES: [usize; 3] = [300, 304, 37];

/// Windows per shape in the kernel microbench (all-pairs nearest-neighbor
/// → `KERNEL_WINDOWS * (KERNEL_WINDOWS - 1)` distance calls per shape).
pub const KERNEL_WINDOWS: usize = 64;

/// Distance-kernel microbench: pre-z-normalizes a deterministic window
/// population once via the prefix-sum statistics layer ([`SeriesStats`]),
/// then runs an all-pairs nearest-neighbor loop per shape in
/// [`KERNEL_SHAPES`] so both the completed and early-abandoned kernel
/// paths stay hot. Counters (distance calls, abandons) are deterministic;
/// the wall time isolates statistics + kernel throughput.
fn kernel_iteration(recorder: &dyn Recorder) -> Result<(), String> {
    let data = ecg_record("bench kernel", 8_192, 256, 2, 0x256);
    let values = data.series.values();
    let stats = SeriesStats::new(values);
    for len in KERNEL_SHAPES {
        kernel_shape_pass(recorder, values, &stats, len)?;
    }
    Ok(())
}

/// One shape of the kernel microbench: z-norm [`KERNEL_WINDOWS`] evenly
/// spaced windows of `len` points, then find each window's nearest
/// neighbor among the others with the early-abandoning kernel.
pub fn kernel_shape_pass(
    recorder: &dyn Recorder,
    values: &[f64],
    stats: &SeriesStats,
    len: usize,
) -> Result<(), String> {
    let count = KERNEL_WINDOWS;
    let step = (values.len() - len) / (count - 1);
    let mut normed = vec![0.0; count * len];
    for w in 0..count {
        let start = w * step;
        stats.znorm_window_into(
            values,
            start,
            start + len,
            DEFAULT_ZNORM_THRESHOLD,
            &mut normed[w * len..(w + 1) * len],
        );
    }
    for p in 0..count {
        let mut nearest = f64::INFINITY;
        for q in 0..count {
            if p == q {
                continue;
            }
            if let Some(d) = euclidean_early(
                &recorder,
                &normed[p * len..(p + 1) * len],
                &normed[q * len..(q + 1) * len],
                nearest,
            ) {
                nearest = d;
            }
        }
        if !nearest.is_finite() {
            return Err(format!("kernel shape {len}: window {p} found no neighbor"));
        }
    }
    Ok(())
}

/// A small discretization-parameter sweep running both detectors per grid
/// point — the cost shape of `fig10` at smoke-test scale.
fn sweep_iteration(recorder: &dyn Recorder) -> Result<(), String> {
    let data = ecg_record("bench sweep", 5_000, 150, 2, 0x150);
    let truth = data.anomalies[0].interval;
    let grid = SweepGrid {
        windows: vec![100, 200, 300],
        paas: vec![3, 5],
        alphabets: vec![3, 5],
    };
    let points = sweep::run(data.series.values(), truth, 120, &grid, 1, recorder);
    if points.is_empty() {
        return Err("sweep produced no grid points".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::Stage;

    #[test]
    fn registry_rejects_unknown_names() {
        let err = run_workload("nope", 1).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert!(err.contains("standard"), "{err}");
    }

    /// The satellite contract: on the standard workload every pipeline
    /// stage — including density, which an RRA-only run leaves at 0 —
    /// reports a nonzero duration, and the span tree covers the detect
    /// root with nonzero self time.
    #[test]
    fn standard_workload_times_every_stage() {
        let run = run_workload("standard", 1).unwrap();
        for stage in Stage::ALL {
            assert!(
                run.trace.stage_nanos(stage) > 0,
                "stage {} reported 0 ns on the standard workload",
                stage.name()
            );
        }
        assert!(!run.trace.spans.is_empty());
        assert!(run.trace.spans.get("detect").is_some());
        assert!(run.trace.spans.get("detect;density").is_some());
        assert!(run.trace.spans.get("detect;rra-outer;rra-inner").is_some());
    }

    /// The warmup iteration is tagged and kept out of the steady record.
    #[test]
    fn warmup_is_tagged_separately() {
        let run = run_workload("streaming", 2).unwrap();
        let [warmup, steady] = run.to_records("deadbee", 4);
        assert!(warmup.warmup);
        assert_eq!(warmup.reps, 1);
        assert!(warmup.spans.is_empty() && warmup.counters.is_empty());
        assert!(!steady.warmup);
        assert_eq!(steady.reps, 2);
        assert_eq!(steady.run, 4);
        assert_eq!(steady.git_sha, "deadbee");
        assert!(!steady.counters.is_empty());
        assert!(steady.wall_ns > 0 && warmup.wall_ns > 0);
    }

    /// The bounded workload must actually exercise eviction: 12k points
    /// through a 2048-point horizon retires 9952 tokens' worth of
    /// history, and that shows up in the instrumented counters.
    #[test]
    fn streaming_throughput_workload_evicts() {
        let run = run_workload("streaming-throughput", 1).unwrap();
        assert!(
            run.trace.counter(gv_obs::Counter::TokensEvicted) > 0,
            "bounded-horizon workload reported no evicted tokens"
        );
        assert!(run.wall_ns > 0);
    }

    /// The kernel microbench is deterministic in its counters (seeded
    /// data, fixed shapes, sequential loop) and must exercise both the
    /// completed and the early-abandoned kernel paths — the two code
    /// paths whose throughput `gv bench diff` gates.
    #[test]
    fn kernel_workload_counts_deterministically() {
        let a = run_workload("kernel", 1).unwrap();
        let b = run_workload("kernel", 1).unwrap();
        let calls = a.trace.counter(gv_obs::Counter::DistanceCalls);
        let abandons = a.trace.counter(gv_obs::Counter::EarlyAbandons);
        // All-pairs over KERNEL_WINDOWS windows, once per shape.
        let expect = (KERNEL_SHAPES.len() * KERNEL_WINDOWS * (KERNEL_WINDOWS - 1)) as u64;
        assert_eq!(calls, expect);
        assert!(abandons > 0, "no early abandons — the abandon path is cold");
        assert!(abandons < calls);
        assert_eq!(calls, b.trace.counter(gv_obs::Counter::DistanceCalls));
        assert_eq!(abandons, b.trace.counter(gv_obs::Counter::EarlyAbandons));
        assert!(a.wall_ns > 0);
    }

    #[test]
    fn sweep_workload_runs_and_records() {
        let run = run_workload("sweep", 1).unwrap();
        assert!(run.trace.counter(gv_obs::Counter::DistanceCalls) > 0);
        assert!(run.wall_ns > 0);
    }
}
