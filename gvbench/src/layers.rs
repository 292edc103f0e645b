//! One detection decomposed into the layers' public calls, each timed from
//! outside: `SaxConfig::discretize`, `SaxDictionary::intern`,
//! `Sequitur::induce`, then either `RuleDensity::report_trimmed` or
//! `RraDetector::search_model` on a `GrammarModel` assembled from those
//! parts. Nothing inside the program is instrumented; the decomposition
//! must reproduce the undecomposed detect bit for bit, which the workloads
//! check.

use std::hint::black_box;
use std::time::Instant;

use gv_discord::distance::{euclidean_early, euclidean_early_resampled};
use gv_sax::SaxDictionary;
use gv_sequitur::Sequitur;
use gv_timeseries::{Interval, Resampled, SeriesStats, DEFAULT_ZNORM_THRESHOLD};
use gva_core::obs::NoopRecorder;
use gva_core::{
    rule_intervals, DensityReport, EngineConfig, GrammarModel, PipelineConfig, Report, RraDetector,
    RraReport, RuleDensity, RuleInterval, Workspace,
};

use crate::stats::{balanced, median};

/// Per-layer times (ns) and work counts of one decomposed op. Layers a
/// workload does not exercise stay 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub discretize_ns: u64,
    pub intern_ns: u64,
    pub induce_ns: u64,
    pub density_ns: u64,
    pub search_ns: u64,
    /// CSV parse (CLI only).
    pub parse_ns: u64,
    /// Text rendering (CLI only).
    pub render_ns: u64,
    /// Process start and exit of a `gv` that does no work (CLI only).
    pub exec_ns: u64,
    /// Sliding windows discretized.
    pub windows: u64,
    /// Words kept by numerosity reduction (= grammar input tokens).
    pub words: u64,
    pub rules: u64,
    pub distance_calls: u64,
    pub early_abandoned: u64,
}

impl Layers {
    /// Every timed layer, in a fixed order.
    fn times(&self) -> [u64; 8] {
        [
            self.discretize_ns,
            self.intern_ns,
            self.induce_ns,
            self.density_ns,
            self.search_ns,
            self.parse_ns,
            self.render_ns,
            self.exec_ns,
        ]
    }
}

/// The input-balanced median of one field over decomposed ops tagged with
/// their input.
pub fn balanced_of(samples: &[(usize, Layers)], field: impl Fn(&Layers) -> u64) -> f64 {
    let v: Vec<(usize, f64)> = samples.iter().map(|(i, l)| (*i, field(l) as f64)).collect();
    balanced(&v)
}

/// Σ over layers of each layer's balanced median time, in ns — what the
/// layers explain of an op's balanced median wall time.
pub fn sum_of_layers_ns(samples: &[(usize, Layers)]) -> f64 {
    (0..8).map(|i| balanced_of(samples, |l| l.times()[i])).sum()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Discretize, intern and induce, each timed, into a model.
pub fn build_model(
    values: &[f64],
    config: &PipelineConfig,
    layers: &mut Layers,
) -> Result<GrammarModel, String> {
    let t = Instant::now();
    let records = config
        .sax()
        .discretize(values, config.numerosity_reduction())
        .map_err(|e| e.to_string())?;
    layers.discretize_ns = elapsed_ns(t);

    let t = Instant::now();
    let mut dictionary = SaxDictionary::new();
    let tokens: Vec<u32> = records.iter().map(|r| dictionary.intern(&r.word)).collect();
    layers.intern_ns = elapsed_ns(t);

    let t = Instant::now();
    let grammar = Sequitur::induce(tokens.iter().copied());
    layers.induce_ns = elapsed_ns(t);

    layers.windows = (values.len() + 1).saturating_sub(config.window()) as u64;
    layers.words = records.len() as u64;
    layers.rules = grammar.num_rules() as u64;
    Ok(GrammarModel {
        grammar,
        records,
        dictionary,
        series_len: values.len(),
        window: config.window(),
    })
}

/// The RRA detector every workload runs: top-`k`, sequential engine.
pub fn rra_detector(config: &PipelineConfig, k: usize) -> RraDetector {
    RraDetector::new(config.clone(), k).with_engine(EngineConfig::sequential())
}

/// RRA, decomposed.
pub fn rra(
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    ws: &mut Workspace,
    layers: &mut Layers,
) -> Result<RraReport, String> {
    let model = build_model(values, config, layers)?;
    let t = Instant::now();
    let report = rra_detector(config, k)
        .search_model(values, &model, ws, &NoopRecorder)
        .map_err(|e| e.to_string())?;
    layers.search_ns = elapsed_ns(t);
    layers.distance_calls = report.stats.distance_calls;
    layers.early_abandoned = report.stats.early_abandoned;
    Ok(report)
}

/// Rule density, decomposed (edges trimmed by one window, as the detector
/// does).
pub fn density(
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    layers: &mut Layers,
) -> Result<DensityReport, String> {
    let model = build_model(values, config, layers)?;
    let t = Instant::now();
    let report = RuleDensity::from_model(&model).report_trimmed(k, config.window());
    layers.density_ns = elapsed_ns(t);
    Ok(report)
}

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of ranked results: interval bounds and score bits.
pub fn digest(results: impl Iterator<Item = (Interval, f64)>) -> u64 {
    fnv1a(results.flat_map(|(iv, score)| {
        [iv.start as u64, iv.len() as u64, score.to_bits()]
            .into_iter()
            .flat_map(u64::to_le_bytes)
    }))
}

/// Digest of a detector report.
pub fn digest_report(report: &Report) -> u64 {
    digest(report.anomalies.iter().map(|a| (a.interval, a.score)))
}

/// Digest of an RRA report (equal to [`digest_report`] of the same run).
pub fn digest_rra(report: &RraReport) -> u64 {
    digest(report.discords.iter().map(|d| (d.interval(), d.distance)))
}

/// Digest of a density report (equal to [`digest_report`] of the same
/// run).
pub fn digest_density(report: &DensityReport) -> u64 {
    digest(
        report
            .anomalies
            .iter()
            .map(|a| (a.interval, a.min_density as f64)),
    )
}

/// The candidate list `RraDetector::search_model` searches: every rule
/// interval, minus uncovered runs touching the series ends.
pub fn search_candidates(model: &GrammarModel) -> Vec<RuleInterval> {
    let len = model.series_len;
    let mut c = rule_intervals(model);
    c.retain(|c| c.rule.is_some() || (c.interval.start > 0 && c.interval.end < len));
    c
}

/// Distance-kernel cost on one workload's own shapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelProbe {
    /// `euclidean_early` on two window-length (W) subsequences, ns per
    /// full comparison.
    pub aligned_ns: f64,
    /// `euclidean_early_resampled`: a median-length candidate against a
    /// W-length match resampled onto it, ns per full comparison.
    pub resampled_ns: f64,
    /// Share of admissible candidate pairs whose lengths differ, i.e. that
    /// take the resampled kernel.
    pub len_mismatch_share: f64,
}

/// Subsequences per shape in the kernel probe.
const PROBE_WINDOWS: usize = 32;
/// Timed repetitions of the all-pairs pass per shape.
const PROBE_REPS: usize = 7;

/// Times both kernels on the workload's window `W` and median candidate
/// length, and measures how many candidate pairs differ in length.
pub fn kernel_probe(values: &[f64], candidates: &[RuleInterval], window: usize) -> KernelProbe {
    let mut lens: Vec<usize> = candidates.iter().map(|c| c.interval.len()).collect();
    lens.sort_unstable();
    let p50 = lens.get(lens.len() / 2).copied().unwrap_or(window).max(1);
    let stats = SeriesStats::new(values);
    let normed = |len: usize| -> Vec<Vec<f64>> {
        let step = (values.len() - len) / PROBE_WINDOWS;
        (0..PROBE_WINDOWS)
            .map(|w| {
                let mut out = vec![0.0; len];
                let s = w * step;
                stats.znorm_window_into(values, s, s + len, DEFAULT_ZNORM_THRESHOLD, &mut out);
                out
            })
            .collect()
    };
    let at_w = normed(window);
    let at_p50 = normed(p50);
    let aligned_ns =
        per_comparison_ns(|p, q| euclidean_early(&NoopRecorder, &at_w[p], &at_w[q], f64::INFINITY));
    let resampled_ns = per_comparison_ns(|p, q| {
        let view = Resampled::new(&at_w[q], p50);
        euclidean_early_resampled(&NoopRecorder, &at_p50[p], &view, f64::INFINITY)
    });

    let (mut pairs, mut mismatched) = (0u64, 0u64);
    for p in candidates {
        for q in candidates {
            // The search's non-self-match rule (Algorithm 1 line 7).
            if p.interval.start.abs_diff(q.interval.start) < p.interval.len() {
                continue;
            }
            pairs += 1;
            mismatched += u64::from(p.interval.len() != q.interval.len());
        }
    }
    KernelProbe {
        aligned_ns,
        resampled_ns,
        len_mismatch_share: mismatched as f64 / pairs.max(1) as f64,
    }
}

/// Median over [`PROBE_REPS`] all-pairs passes of ns per comparison.
fn per_comparison_ns(mut compare: impl FnMut(usize, usize) -> Option<f64>) -> f64 {
    let per_pass = (PROBE_WINDOWS * (PROBE_WINDOWS - 1)) as f64;
    let reps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            for p in 0..PROBE_WINDOWS {
                for q in (0..PROBE_WINDOWS).filter(|&q| q != p) {
                    black_box(compare(black_box(p), black_box(q)));
                }
            }
            elapsed_ns(t) as f64 / per_pass
        })
        .collect();
    median(&reps)
}
