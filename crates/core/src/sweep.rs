//! Discretization-parameter sweep (paper §5.2, Figure 10).
//!
//! The paper samples the `(window, PAA, alphabet)` space on the ECG0606
//! dataset, recording for each combination whether the rule-density
//! detector and RRA recover the known anomaly, and plots success regions
//! against the *approximation distance* (how much signal detail SAX
//! retains) and the *grammar size* (how compressible the discretized
//! series was). RRA's success region is roughly twice the density
//! detector's.

use gv_obs::{LocalRecorder, NoopRecorder, Recorder};
use gv_sax::reconstruction_error;
use gv_timeseries::Interval;
use serde::{Deserialize, Serialize};

use crate::config::PipelineConfig;
use crate::engine::{DensityDetector, EngineConfig, RraDetector};
use crate::error::Result;
use crate::workspace::Workspace;

/// One grid point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Sliding-window length.
    pub window: usize,
    /// PAA size.
    pub paa: usize,
    /// Alphabet size.
    pub alphabet: usize,
    /// Mean PAA reconstruction error over all windows (Figure 10 x-axis).
    pub approximation_distance: f64,
    /// Total grammar size (Figure 10 y-axis).
    pub grammar_size: usize,
    /// Did the top density anomaly overlap the truth?
    pub density_hit: bool,
    /// Did the top RRA discord overlap the truth?
    pub rra_hit: bool,
}

/// Grid specification for the sweep.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Window lengths to try.
    pub windows: Vec<usize>,
    /// PAA sizes to try.
    pub paas: Vec<usize>,
    /// Alphabet sizes to try.
    pub alphabets: Vec<usize>,
}

impl SweepGrid {
    /// The paper's Figure 10 ranges — window `[10, 500]`, PAA `[3, 20]`,
    /// alphabet `[3, 12]` — subsampled with the given strides so the sweep
    /// stays laptop-sized.
    pub fn paper_ranges(window_stride: usize, paa_stride: usize, alpha_stride: usize) -> Self {
        Self {
            windows: (10..=500).step_by(window_stride.max(1)).collect(),
            paas: (3..=20).step_by(paa_stride.max(1)).collect(),
            alphabets: (3..=12).step_by(alpha_stride.max(1)).collect(),
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.windows.len() * self.paas.len() * self.alphabets.len()
    }

    /// `true` when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs both detectors over the grid. Invalid combinations (window longer
/// than the series, PAA larger than window, …) are skipped. `truth` is the
/// ground-truth anomaly interval; a detector "hits" when its top report
/// overlaps the truth widened by `slack` points.
///
/// Grid points are striped over `threads` scoped workers (at least one);
/// points come back in the serial `(window, paa, alphabet)` order
/// whatever the thread count. Every point's pipeline stages and search
/// counters accumulate into `recorder`: workers record into worker-local
/// recorders that are merged into it after the join, in worker order, so
/// counter totals and the span-tree shape do not depend on `threads`
/// (span *times* are summed across workers and so exceed wall-clock time
/// under parallelism).
pub fn run(
    values: &[f64],
    truth: Interval,
    slack: usize,
    grid: &SweepGrid,
    threads: usize,
    recorder: &dyn Recorder,
) -> Vec<SweepPoint> {
    let wide_truth = Interval::new(
        truth.start.saturating_sub(slack),
        (truth.end + slack).min(values.len()),
    );
    let mut combos = Vec::new();
    for &w in &grid.windows {
        for &p in &grid.paas {
            if p > w {
                continue;
            }
            for &a in &grid.alphabets {
                combos.push((w, p, a));
            }
        }
    }
    let threads = threads.clamp(1, combos.len().max(1));
    // Workers never touch `recorder` (it need not be `Sync`), and a
    // disabled sink gets no worker recorder at all, so the clock stays
    // unread.
    let (enabled, detailed) = (recorder.enabled(), recorder.detailed());
    let mut out = Vec::with_capacity(combos.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let combos = &combos;
                scope.spawn(move || {
                    let local = enabled.then(|| {
                        if detailed {
                            LocalRecorder::new()
                        } else {
                            LocalRecorder::counters_only()
                        }
                    });
                    let sink: &dyn Recorder = match &local {
                        Some(local) => local,
                        None => &NoopRecorder,
                    };
                    // One workspace per worker: buffers warm up once and
                    // are reused across every grid point this worker owns.
                    let mut ws = Workspace::new();
                    let mut mine = Vec::new();
                    for (i, &(w, p, a)) in combos.iter().enumerate().skip(t).step_by(threads) {
                        if let Ok(point) = evaluate_one(values, wide_truth, w, p, a, &mut ws, sink)
                        {
                            mine.push((i, point));
                        }
                    }
                    (local, mine)
                })
            })
            .collect();
        for handle in handles {
            let (local, mine) = handle.join().expect("sweep worker panicked");
            if let Some(local) = local {
                local.merge_into(&recorder);
            }
            out.extend(mine);
        }
    });
    // Restore the serial ordering so callers see deterministic output.
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, point)| point).collect()
}

fn evaluate_one(
    values: &[f64],
    wide_truth: Interval,
    w: usize,
    p: usize,
    a: usize,
    ws: &mut Workspace,
    recorder: &dyn Recorder,
) -> Result<SweepPoint> {
    // Fixed seed 0 and a sequential engine per grid point: sweep results
    // (and counter totals) stay identical whatever the worker count and
    // whatever `GV_THREADS` says, and workers never nest thread pools.
    let config = PipelineConfig::new(w, p, a)?.with_seed(0);
    let model = ws.build_model(&config, values, &recorder)?;

    // Edge trim 0: the sweep scores raw hits, boundary minima included.
    let density_detector = DensityDetector::new(config.clone(), 1).with_trim_edge(0);
    let density_hit = density_detector
        .report_model(&model, recorder)
        .anomalies
        .first()
        .is_some_and(|an| an.interval.overlaps(&wide_truth));

    let rra_detector = RraDetector::new(config, 1).with_engine(EngineConfig::sequential());
    let rra_hit = match rra_detector.search_model(values, &model, ws, recorder) {
        Ok(report) => report
            .discords
            .first()
            .is_some_and(|d| d.interval().overlaps(&wide_truth)),
        Err(_) => false,
    };

    let grammar_size = model.grammar.grammar_size();
    ws.recycle_model(model);
    Ok(SweepPoint {
        window: w,
        paa: p,
        alphabet: a,
        approximation_distance: reconstruction_error(values, w, p),
        grammar_size,
        density_hit,
        rra_hit,
    })
}

/// Aggregates sweep results into the Figure 10 headline numbers: how many
/// parameter combinations each detector succeeded on.
pub fn success_counts(points: &[SweepPoint]) -> (usize, usize) {
    let density = points.iter().filter(|p| p.density_hit).count();
    let rra = points.iter().filter(|p| p.rra_hit).count();
    (density, rra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> (Vec<f64>, Interval) {
        let mut v: Vec<f64> = (0..1500).map(|i| (i as f64 / 15.0).sin()).collect();
        for (i, x) in v[700..760].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 4.0).cos();
        }
        (v, Interval::new(700, 760))
    }

    #[test]
    fn grid_ranges() {
        let g = SweepGrid::paper_ranges(50, 5, 3);
        assert!(g.windows.contains(&10));
        assert!(g.windows.iter().all(|&w| (10..=500).contains(&w)));
        assert!(g.paas.iter().all(|&p| (3..=20).contains(&p)));
        assert!(g.alphabets.iter().all(|&a| (3..=12).contains(&a)));
        assert!(!g.is_empty());
        assert_eq!(g.len(), g.windows.len() * g.paas.len() * g.alphabets.len());
    }

    #[test]
    fn sweep_produces_points_and_hits() {
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![60, 100, 150],
            paas: vec![4, 6],
            alphabets: vec![3, 4],
        };
        let points = run(&v, truth, 100, &grid, 1, &NoopRecorder);
        assert!(!points.is_empty());
        let (density_hits, rra_hits) = success_counts(&points);
        // On this easy plant both detectors succeed on most combinations,
        // and RRA is at least as robust as density (the Figure 10 claim).
        assert!(
            rra_hits >= density_hits,
            "rra {rra_hits} < density {density_hits}"
        );
        assert!(rra_hits > 0);
    }

    #[test]
    fn invalid_combinations_skipped() {
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![5000], // longer than the series
            paas: vec![4],
            alphabets: vec![4],
        };
        assert!(run(&v, truth, 0, &grid, 1, &NoopRecorder).is_empty());
        let grid2 = SweepGrid {
            windows: vec![10],
            paas: vec![15], // PAA > window
            alphabets: vec![4],
        };
        assert!(run(&v, truth, 0, &grid2, 1, &NoopRecorder).is_empty());
    }

    #[test]
    fn parallel_equals_serial() {
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![60, 100, 150],
            paas: vec![4, 6],
            alphabets: vec![3, 4],
        };
        let serial = run(&v, truth, 100, &grid, 1, &NoopRecorder);
        for threads in [0, 1, 2, 3, 7] {
            let parallel = run(&v, truth, 100, &grid, threads, &NoopRecorder);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn recorded_sweep_counters_are_thread_count_invariant() {
        use gv_obs::Counter;
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![60, 100],
            paas: vec![4],
            alphabets: vec![3, 4],
        };
        // A non-`Sync` sink at both thread counts: parallel workers tally
        // locally and merge after the join.
        let serial_rec = LocalRecorder::new();
        let serial = run(&v, truth, 100, &grid, 1, &serial_rec);
        let parallel_rec = LocalRecorder::new();
        let parallel = run(&v, truth, 100, &grid, 3, &parallel_rec);
        assert_eq!(serial, parallel);
        assert!(serial_rec.counter(Counter::DistanceCalls) > 0);
        // Deterministic work → identical counter totals whatever the
        // thread count (timings differ; counters must not).
        for c in Counter::ALL {
            assert_eq!(
                serial_rec.counter(c),
                parallel_rec.counter(c),
                "counter {} diverged under parallelism",
                c.name()
            );
        }
        // And the same span tree: paths and completion counts.
        let shape = |rec: &LocalRecorder| -> Vec<(String, u64)> {
            rec.span_tree()
                .spans()
                .iter()
                .map(|s| (s.path.clone(), s.count))
                .collect()
        };
        let serial_shape = shape(&serial_rec);
        assert!(
            serial_shape.iter().any(|(p, _)| p == "rra-outer;rra-inner"),
            "{serial_shape:?}"
        );
        assert_eq!(serial_shape, shape(&parallel_rec));
    }

    #[test]
    fn approximation_distance_monotone_in_paa() {
        // More PAA segments → better approximation → smaller error.
        let (v, truth) = planted();
        let grid = SweepGrid {
            windows: vec![100],
            paas: vec![4, 10],
            alphabets: vec![4],
        };
        let points = run(&v, truth, 100, &grid, 1, &NoopRecorder);
        assert_eq!(points.len(), 2);
        let coarse = points.iter().find(|p| p.paa == 4).unwrap();
        let fine = points.iter().find(|p| p.paa == 10).unwrap();
        assert!(fine.approximation_distance <= coarse.approximation_distance);
    }
}
