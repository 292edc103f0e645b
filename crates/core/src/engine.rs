//! The execution-engine layer: one [`Detector`] interface over all four
//! detection algorithms (RRA, rule-density, brute force, HOTSAX), plus the
//! [`EngineConfig`] threading knob.
//!
//! Everything downstream — `AnomalyPipeline`, `StreamingDetector`, the
//! parameter sweep, the CLI, and the bench binaries — dispatches detection
//! through this trait instead of four ad-hoc call paths. A detector is a
//! small config-carrying value; the mutable state lives in the caller's
//! [`Workspace`], so repeated detection reuses scratch buffers, and the
//! same detector value can run on many workspaces concurrently.
//!
//! ## Threading and determinism
//!
//! [`EngineConfig::threads`] stripes each RRA rank across workers that
//! `fan_out` starts — the one place gv-core spawns threads, shared with
//! the parameter sweep: worker 0 runs on the calling thread, the rest on
//! `std::thread::scope` threads (no extra dependencies). The ranked
//! discords are **bit-identical for any thread count** — see the `rra`
//! module docs for the argument; only the reported cost counters vary.
//! `EngineConfig::default()` reads the `GV_THREADS` environment variable
//! (missing or invalid → 1), which is how CI runs the whole suite both
//! sequentially and parallel.

use gv_discord::{brute_force_discords, hotsax_discords, DiscordRecord, HotSaxConfig, SearchStats};
use gv_obs::{Recorder, SpanId, SpanTimer, Stage};
use gv_timeseries::Interval;

use crate::config::PipelineConfig;
use crate::density::{DensityReport, RuleDensity};
use crate::error::{Error, Result};
use crate::intervals::{is_search_candidate, rule_intervals_into};
use crate::model::GrammarModel;
use crate::rra::{self, RraReport, SearchOptions};
use crate::workspace::Workspace;

/// Environment variable consulted by [`EngineConfig::default`] for the
/// worker-thread count.
pub const THREADS_ENV: &str = "GV_THREADS";

/// Execution knobs shared by every detector dispatched through the
/// engine: currently the RRA worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    threads: usize,
}

impl EngineConfig {
    /// A sequential engine (one thread), ignoring the environment.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Reads the thread count from [`THREADS_ENV`]; missing, empty, or
    /// unparsable values mean sequential.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1);
        Self { threads }
    }

    /// Overrides the worker-thread count (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Runs `work(t)` for every worker `t` in `0..workers` (at least one) and
/// returns the results in worker order. Worker 0 runs on the calling
/// thread, the rest on scoped threads; a panicking worker propagates its
/// panic to the caller, since the other workers' results are unusable
/// without its share.
pub(crate) fn fan_out<T: Send>(workers: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|t| scope.spawn(move || work(t))).collect();
        let mut results = vec![work(0)];
        for handle in handles {
            #[expect(
                clippy::expect_used,
                reason = "scoped-thread join in fan_out, the one place gv-core spawns threads (RRA ranks and the parameter sweep): propagating a worker panic is the only sound behavior; a rank or sweep missing one worker's share would be silently wrong"
            )]
            results.push(handle.join().expect("worker thread panicked"));
        }
        results
    })
}

/// An immutable view of the series under analysis — the shared input every
/// detector reads and none may mutate.
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    values: &'a [f64],
}

impl<'a> SeriesView<'a> {
    /// Wraps a raw series.
    ///
    /// No validation is performed here (the constructor is infallible for
    /// ergonomics); every detector validates finiteness on entry. Use
    /// [`SeriesView::try_new`] to surface the error at construction time.
    pub fn new(values: &'a [f64]) -> Self {
        Self { values }
    }

    /// Wraps a raw series, rejecting NaN/±∞ values up front.
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] naming the first offending index.
    pub fn try_new(values: &'a [f64]) -> Result<Self> {
        check_finite(values)?;
        Ok(Self { values })
    }

    /// The underlying values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Series length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` for an empty series.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl<'a> From<&'a [f64]> for SeriesView<'a> {
    fn from(values: &'a [f64]) -> Self {
        Self::new(values)
    }
}

/// Rejects series containing NaN/±∞ with [`Error::NonFiniteInput`].
///
/// Called on every detection entry point: non-finite values would
/// otherwise poison z-normalization, every distance, and RRA's shared
/// AtomicU64 ranking bound (where NaN bit patterns compare as ordinary
/// integers).
pub(crate) fn check_finite(values: &[f64]) -> Result<()> {
    match gv_timeseries::find_non_finite(values) {
        Some(index) => Err(Error::NonFiniteInput { index }),
        None => Ok(()),
    }
}

/// Rejects `k = 0` discord requests with [`Error::InvalidParameter`] —
/// "top zero anomalies" is a caller bug, not an empty result.
pub(crate) fn check_k(k: usize) -> Result<()> {
    if k == 0 {
        return Err(Error::InvalidParameter(
            "k = 0: at least one discord must be requested".into(),
        ));
    }
    Ok(())
}

/// One detected anomaly in the unified report: the covered interval, the
/// detector's score (NN distance for the discord searches, minimum rule
/// density for the density detector), and the rank (0 = strongest).
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The anomalous subsequence.
    pub interval: Interval,
    /// Detector-specific strength (higher = more anomalous for distance
    /// scores; for density the score is the density floor — lower is more
    /// anomalous — kept as reported).
    pub score: f64,
    /// 0-based rank, strongest first.
    pub rank: usize,
}

/// Detector-specific payload a [`Report`] may carry beyond the unified
/// anomaly list.
#[derive(Debug, Clone, Default)]
pub enum Detail {
    /// Nothing beyond the unified fields.
    #[default]
    None,
    /// The full rule-density report (curve + ranked minima).
    Density(DensityReport),
}

/// The unified detection result every [`Detector`] returns.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which detector produced this ([`Detector::name`]).
    pub detector: &'static str,
    /// Ranked anomalies, strongest first.
    pub anomalies: Vec<Anomaly>,
    /// Distance-call accounting (all-zero for the density detector,
    /// which performs no distance computation).
    pub stats: SearchStats,
    /// How many candidates the detector considered.
    pub num_candidates: usize,
    /// Grammar size of the induced model (0 for the grammar-free
    /// baselines).
    pub grammar_size: usize,
    /// Detector-specific payload.
    pub detail: Detail,
}

impl Report {
    /// Re-views the unified anomalies as the RRA-shaped report (discord
    /// records), for callers and renderers built around [`RraReport`].
    pub fn to_rra(&self) -> RraReport {
        RraReport {
            discords: self
                .anomalies
                .iter()
                .map(|a| DiscordRecord {
                    position: a.interval.start,
                    length: a.interval.len(),
                    distance: a.score,
                    rank: a.rank,
                })
                .collect(),
            stats: self.stats,
            num_candidates: self.num_candidates,
        }
    }

    /// The density payload, when this report came from the density
    /// detector.
    pub fn density(&self) -> Option<&DensityReport> {
        match &self.detail {
            Detail::Density(report) => Some(report),
            Detail::None => None,
        }
    }
}

/// The unified detection interface: read-only series in, workspace for
/// scratch, recorder for instrumentation, unified [`Report`] out.
///
/// Object-safe on purpose — call sites that pick a detector at runtime
/// (the CLI, agreement tests, ensembles) hold `Box<dyn Detector>` /
/// `&dyn Detector` values.
pub trait Detector {
    /// Stable detector name (used in reports, traces, and JSONL labels).
    fn name(&self) -> &'static str;

    /// Runs detection on `series` using `ws` for every scratch buffer,
    /// publishing instrumentation to `recorder`.
    ///
    /// # Errors
    /// Detector-specific: discretization errors, no candidates, invalid
    /// baseline parameters.
    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report>;
}

/// The paper's §4.2 Rare Rule Anomaly detector behind the [`Detector`]
/// interface: grammar induction + the (optionally parallel) Algorithm 1
/// search.
#[derive(Debug, Clone)]
pub struct RraDetector {
    config: PipelineConfig,
    k: usize,
    options: SearchOptions,
    engine: EngineConfig,
}

impl RraDetector {
    /// RRA with the default search options and engine (thread count from
    /// the environment).
    pub fn new(config: PipelineConfig, k: usize) -> Self {
        Self {
            config,
            k,
            options: SearchOptions::default(),
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the engine (thread count).
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the ablation switches.
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the search stage against an already-built model (the explain
    /// path and the sweep build the model once and keep it). Searches
    /// [`search_candidates`](crate::search_candidates), filtered in the
    /// workspace's candidate buffer.
    ///
    /// # Errors
    /// [`crate::Error::NoCandidates`] when the grammar yields fewer than
    /// two candidates.
    pub fn search_model(
        &self,
        values: &[f64],
        model: &GrammarModel,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<RraReport> {
        self.search_model_under(values, model, ws, recorder, None)
    }

    /// [`RraDetector::search_model`] with the search spans grafted under
    /// `parent` in the recorder's span tree; `None` leaves `rra-outer` as
    /// a root span.
    pub(crate) fn search_model_under(
        &self,
        values: &[f64],
        model: &GrammarModel,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
        parent: Option<SpanId>,
    ) -> Result<RraReport> {
        let Workspace {
            candidates, rra, ..
        } = ws;
        rule_intervals_into(model, candidates);
        candidates.retain(|c| is_search_candidate(c, model.series_len));
        rra::search_in(
            values,
            candidates,
            self.k,
            self.config.seed(),
            self.options,
            self.engine.threads(),
            rra,
            &recorder,
            parent,
        )
    }
}

impl Detector for RraDetector {
    fn name(&self) -> &'static str {
        "rra"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let model = ws.build_model_under(&self.config, series.values(), &recorder, root.span())?;
        let searched = self.search_model_under(series.values(), &model, ws, recorder, root.span());
        let grammar_size = model.grammar.grammar_size();
        ws.recycle_model(model);
        root.finish(&recorder);
        let report = searched?;
        Ok(Report {
            detector: self.name(),
            anomalies: discords_to_anomalies(&report.discords),
            stats: report.stats,
            num_candidates: report.num_candidates,
            grammar_size,
            detail: Detail::None,
        })
    }
}

/// The paper's §4.1 rule-density detector behind the [`Detector`]
/// interface: grammar induction + the linear density-curve walk. Performs
/// no distance computation at all.
#[derive(Debug, Clone)]
pub struct DensityDetector {
    config: PipelineConfig,
    k: usize,
    trim_edge: Option<usize>,
}

impl DensityDetector {
    /// Density detection trimming boundary minima within one window of the
    /// series edges (the pipeline default).
    pub fn new(config: PipelineConfig, k: usize) -> Self {
        Self {
            config,
            k,
            trim_edge: None,
        }
    }

    /// Overrides the edge-trim margin (`0` keeps boundary minima — the
    /// sweep uses this to score raw hits).
    pub fn with_trim_edge(mut self, edge: usize) -> Self {
        self.trim_edge = Some(edge);
        self
    }

    /// Runs the density stage against an already-built model (the sweep
    /// builds one model and runs both detectors on it).
    pub fn report_model(&self, model: &GrammarModel, recorder: &dyn Recorder) -> DensityReport {
        self.report_model_under(model, recorder, None)
    }

    /// [`DensityDetector::report_model`] with the density span grafted
    /// under `parent` in the recorder's span tree.
    pub(crate) fn report_model_under(
        &self,
        model: &GrammarModel,
        recorder: &dyn Recorder,
        parent: Option<SpanId>,
    ) -> DensityReport {
        let edge = self.trim_edge.unwrap_or_else(|| self.config.window());
        let timer = SpanTimer::start(&recorder, parent, Stage::Density);
        let report = RuleDensity::from_model(model).report_trimmed(self.k, edge);
        timer.finish(&recorder);
        report
    }

    /// The whole detection as [`Detector::detect`] runs it, returning the
    /// density report itself plus the induced grammar's size.
    pub(crate) fn detect_density(
        &self,
        values: &[f64],
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<(DensityReport, usize)> {
        check_k(self.k)?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let model = ws.build_model_under(&self.config, values, &recorder, root.span())?;
        let report = self.report_model_under(&model, recorder, root.span());
        let grammar_size = model.grammar.grammar_size();
        ws.recycle_model(model);
        root.finish(&recorder);
        Ok((report, grammar_size))
    }
}

impl Detector for DensityDetector {
    fn name(&self) -> &'static str {
        "density"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        let (report, grammar_size) = self.detect_density(series.values(), ws, recorder)?;
        let anomalies = report
            .anomalies
            .iter()
            .enumerate()
            .map(|(rank, a)| Anomaly {
                interval: a.interval,
                score: a.min_density as f64,
                rank,
            })
            .collect();
        Ok(Report {
            detector: self.name(),
            anomalies,
            stats: SearchStats::default(),
            num_candidates: series.len(),
            grammar_size,
            detail: Detail::Density(report),
        })
    }
}

/// The §6 brute-force fixed-length baseline behind the [`Detector`]
/// interface.
#[derive(Debug, Clone)]
pub struct BruteForceDetector {
    discord_len: usize,
    k: usize,
}

impl BruteForceDetector {
    /// Exhaustive search for `k` discords of length `discord_len`.
    pub fn new(discord_len: usize, k: usize) -> Self {
        Self { discord_len, k }
    }
}

impl Detector for BruteForceDetector {
    fn name(&self) -> &'static str {
        "brute"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        check_finite(series.values())?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let (discords, stats) = brute_force_discords(
            series.values(),
            self.discord_len,
            self.k,
            &mut ws.normed,
            recorder,
        )?;
        root.finish(&recorder);
        Ok(Report {
            detector: self.name(),
            anomalies: discords_to_anomalies(&discords),
            stats,
            num_candidates: series.len() + 1 - self.discord_len,
            grammar_size: 0,
            detail: Detail::None,
        })
    }
}

/// The HOTSAX fixed-length baseline (Keogh, Lin & Fu, ICDM'05) behind the
/// [`Detector`] interface.
#[derive(Debug, Clone)]
pub struct HotSaxDetector {
    config: HotSaxConfig,
    k: usize,
}

impl HotSaxDetector {
    /// HOTSAX search for `k` discords with the given configuration.
    pub fn new(config: HotSaxConfig, k: usize) -> Self {
        Self { config, k }
    }
}

impl Detector for HotSaxDetector {
    fn name(&self) -> &'static str {
        "hotsax"
    }

    fn detect(
        &self,
        series: &SeriesView<'_>,
        ws: &mut Workspace,
        recorder: &dyn Recorder,
    ) -> Result<Report> {
        check_k(self.k)?;
        check_finite(series.values())?;
        let root = SpanTimer::start(&recorder, None, Stage::Detect);
        let (discords, stats) = hotsax_discords(
            series.values(),
            &self.config,
            self.k,
            &mut ws.hotsax,
            recorder,
        )?;
        root.finish(&recorder);
        Ok(Report {
            detector: self.name(),
            anomalies: discords_to_anomalies(&discords),
            stats,
            num_candidates: series.len() + 1 - self.config.discord_len(),
            grammar_size: 0,
            detail: Detail::None,
        })
    }
}

fn discords_to_anomalies(discords: &[DiscordRecord]) -> Vec<Anomaly> {
    discords
        .iter()
        .map(|d| Anomaly {
            interval: d.interval(),
            score: d.distance,
            rank: d.rank,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::NoopRecorder;

    fn planted() -> Vec<f64> {
        let mut v: Vec<f64> = (0..2000).map(|i| (i as f64 / 16.0).sin()).collect();
        for (i, x) in v[900..980].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 5.0).cos();
        }
        v
    }

    #[test]
    fn fan_out_returns_results_in_worker_order() {
        // Worker 0 runs on the calling thread (so one worker spawns
        // nothing); every other worker runs on a thread of its own.
        let caller = std::thread::current().id();
        for workers in [1, 2, 7] {
            let ran = fan_out(workers, |t| (t, std::thread::current().id() == caller));
            let expected: Vec<_> = (0..workers).map(|t| (t, t == 0)).collect();
            assert_eq!(ran, expected);
        }
    }

    #[test]
    fn engine_config_env_and_overrides() {
        assert_eq!(EngineConfig::sequential().threads(), 1);
        assert_eq!(EngineConfig::sequential().with_threads(4).threads(), 4);
        assert_eq!(EngineConfig::sequential().with_threads(0).threads(), 1);
    }

    #[test]
    fn every_detector_finds_the_plant_through_the_trait() {
        let v = planted();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 1)),
            Box::new(BruteForceDetector::new(100, 1)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                1,
            )),
        ];
        let mut ws = Workspace::new();
        let plant = Interval::new(850, 1030);
        for det in &detectors {
            let report = det.detect(&series, &mut ws, &NoopRecorder).unwrap();
            assert_eq!(report.detector, det.name());
            assert!(!report.anomalies.is_empty(), "{} found nothing", det.name());
            assert!(
                report.anomalies[0].interval.overlaps(&plant),
                "{} reported {} missing the plant",
                det.name(),
                report.anomalies[0].interval
            );
        }
    }

    #[test]
    fn non_finite_input_is_rejected_by_every_detector() {
        let mut v = planted();
        v[1234] = f64::NAN;
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 1)),
            Box::new(BruteForceDetector::new(100, 1)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                1,
            )),
        ];
        let mut ws = Workspace::new();
        for det in &detectors {
            let err = det.detect(&series, &mut ws, &NoopRecorder).unwrap_err();
            assert_eq!(
                err,
                crate::Error::NonFiniteInput { index: 1234 },
                "{} accepted a NaN series",
                det.name()
            );
        }
        // ±infinity is rejected just as firmly.
        v[1234] = f64::INFINITY;
        let series = SeriesView::new(&v);
        for det in &detectors {
            assert!(det.detect(&series, &mut ws, &NoopRecorder).is_err());
        }
        assert!(SeriesView::try_new(&v).is_err());
        v[1234] = 0.5;
        assert!(SeriesView::try_new(&v).is_ok());
    }

    #[test]
    fn k_zero_is_rejected_by_every_detector() {
        let v = planted();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 0).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 0)),
            Box::new(BruteForceDetector::new(100, 0)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                0,
            )),
        ];
        let mut ws = Workspace::new();
        for det in &detectors {
            let err = det.detect(&series, &mut ws, &NoopRecorder).unwrap_err();
            assert!(
                matches!(err, crate::Error::InvalidParameter(_)),
                "{}: expected InvalidParameter for k = 0, got {err:?}",
                det.name()
            );
        }
    }

    #[test]
    fn window_longer_than_series_is_an_error_not_a_panic() {
        let v: Vec<f64> = (0..50).map(|i| (i as f64 / 4.0).sin()).collect();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential())),
            Box::new(DensityDetector::new(config, 1)),
            Box::new(BruteForceDetector::new(100, 1)),
            Box::new(HotSaxDetector::new(
                HotSaxConfig::new(100, 4, 4).unwrap(),
                1,
            )),
        ];
        let mut ws = Workspace::new();
        for det in &detectors {
            assert!(
                det.detect(&series, &mut ws, &NoopRecorder).is_err(),
                "{} should reject window > series length",
                det.name()
            );
        }
    }

    #[test]
    fn report_round_trips_to_rra_shape() {
        let v = planted();
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let det = RraDetector::new(config, 2).with_engine(EngineConfig::sequential());
        let mut ws = Workspace::new();
        let report = det
            .detect(&SeriesView::new(&v), &mut ws, &NoopRecorder)
            .unwrap();
        assert!(report.grammar_size > 0);
        let rra = report.to_rra();
        assert_eq!(rra.discords.len(), report.anomalies.len());
        for (d, a) in rra.discords.iter().zip(&report.anomalies) {
            assert_eq!(d.interval(), a.interval);
            assert_eq!(d.distance.to_bits(), a.score.to_bits());
        }
        assert!(report.density().is_none());
    }

    #[test]
    fn density_detail_carries_the_full_report() {
        let v = planted();
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let det = DensityDetector::new(config, 2);
        let mut ws = Workspace::new();
        let report = det
            .detect(&SeriesView::new(&v), &mut ws, &NoopRecorder)
            .unwrap();
        let density = report.density().expect("density payload");
        assert_eq!(density.curve.len(), v.len());
        assert_eq!(density.anomalies.len(), report.anomalies.len());
    }

    #[test]
    fn workspace_reuse_across_detectors_is_stable() {
        let v = planted();
        let series = SeriesView::new(&v);
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let rra = RraDetector::new(config.clone(), 1).with_engine(EngineConfig::sequential());
        let hotsax = HotSaxDetector::new(HotSaxConfig::new(100, 4, 4).unwrap(), 1);
        let mut ws = Workspace::new();
        // Warm-up round of both detectors, then capacities must freeze.
        let first = rra.detect(&series, &mut ws, &NoopRecorder).unwrap();
        hotsax.detect(&series, &mut ws, &NoopRecorder).unwrap();
        let sig = ws.capacity_signature();
        for _ in 0..3 {
            let again = rra.detect(&series, &mut ws, &NoopRecorder).unwrap();
            hotsax.detect(&series, &mut ws, &NoopRecorder).unwrap();
            assert_eq!(
                first.anomalies[0].score.to_bits(),
                again.anomalies[0].score.to_bits()
            );
            assert_eq!(sig, ws.capacity_signature(), "workspace buffers grew");
        }
    }
}
