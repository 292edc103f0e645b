//! Streaming / early anomaly detection — the paper's §7 future-work
//! direction, made concrete.
//!
//! Both pipeline stages process the input left to right (SAX's sliding
//! window and Sequitur's incremental induction), so the whole detector can
//! run online: feed points as they arrive, and at any moment ask *"how
//! compressible is the data I have seen so far — and where isn't it?"*.
//!
//! # Two engines
//!
//! * **Unbounded** (the default): each push discretizes the window ending
//!   at the new point and grows the grammar with any kept word, so stream
//!   words are batch words. A read counts the rule-density curve by one
//!   walk over the live grammar's rule occurrences
//!   ([`Sequitur::for_each_occurrence`]) into a difference array —
//!   O(stream + occurrences), the batch curve to the bit.
//! * **Bounded** ([`with_horizon`](StreamingDetector::with_horizon)): only
//!   the most recent `horizon` points are kept, in a ring, and a push does
//!   nothing else. The first read at each stream length builds one model
//!   over the retained slice through the stream's [`Workspace`] (SAX,
//!   dictionary and Sequitur in batch, linear in the horizon), and later
//!   reads at the same length share it. A bounded stream's curve, alerts
//!   and model are therefore those of a batch run over its retained slice,
//!   bit for bit, and its memory scales with the horizon, not the stream.
//!
//! In both, [`detect`](StreamingDetector::detect) runs any batch detector
//! over the retained slice, so its discords are a from-scratch batch run's.
//!
//! A caveat the batch pipeline doesn't have: the most recent points are
//! always under-covered (rules that will eventually span them haven't had
//! a chance to form), so alerts are only raised for regions older than a
//! configurable *maturity horizon*. With a bounded horizon the mirror
//! effect exists at the retained front — the slice starts mid-pattern —
//! so the first window past the horizon start is masked symmetrically.

use gv_obs::{Counter, LocalRecorder, NoopRecorder, PipelineTrace};
use gv_sax::{SaxDictionary, SaxRecord, SaxScratch, SaxWord};
use gv_sequitur::Sequitur;
use gv_timeseries::{CoverageCounter, Interval};

use crate::config::PipelineConfig;
use crate::density::RuleDensity;
use crate::engine::{Detector, Report, SeriesView};
use crate::error::Result;
use crate::model::GrammarModel;
use crate::workspace::Workspace;

/// A growable buffer that keeps only the last `bound` elements (`0`:
/// unbounded). The dead prefix is compacted with `copy_within` once it
/// reaches `bound`, so the backing capacity freezes at roughly `2×bound`
/// and pushes stay amortized O(1) with no per-push allocation.
#[derive(Debug)]
struct SlidingBuf<T: Copy> {
    buf: Vec<T>,
    start: usize,
    bound: usize,
}

impl<T: Copy> SlidingBuf<T> {
    fn new(bound: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            bound,
        }
    }

    fn push(&mut self, v: T) {
        self.buf.push(v);
        if self.bound > 0 {
            if self.len() > self.bound {
                self.start += self.len() - self.bound;
            }
            if self.start >= self.bound {
                self.buf.copy_within(self.start.., 0);
                self.buf.truncate(self.buf.len() - self.start);
                self.start = 0;
            }
        }
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn as_slice(&self) -> &[T] {
        &self.buf[self.start..]
    }

    fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// What a stream keeps beside its values (see the module docs).
#[derive(Debug)]
enum Engine {
    Online(Online),
    Rebuilt(Rebuilt),
}

/// The unbounded engine: grown by every push.
#[derive(Debug, Default)]
struct Online {
    /// The SAX discretizer's state — kernel scratch plus the last kept
    /// word — fed the window ending at each point, so stream words are
    /// batch words.
    sax: SaxScratch,
    dictionary: SaxDictionary,
    sequitur: Sequitur,
    /// Kept words, oldest first; record `i` is grammar token `i`.
    records: Vec<SaxRecord>,
}

impl Online {
    /// Discretizes the window ending at the last of `values` (the whole
    /// stream so far) and feeds a kept word to the grammar.
    fn push(&mut self, config: &PipelineConfig, values: &[f64]) {
        let Some(offset) = values.len().checked_sub(config.window()) else {
            return;
        };
        if let Some(symbols) = config.sax().next_word(
            &values[offset..],
            config.numerosity_reduction(),
            &mut self.sax,
        ) {
            let word = SaxWord::new(symbols);
            self.sequitur.push(self.dictionary.intern(&word));
            self.records.push(SaxRecord { word, offset });
        }
    }
}

/// The bounded engine: touched only by reads.
#[derive(Debug, Default)]
struct Rebuilt {
    /// The model over the retained slice, with the stream length it was
    /// built at.
    built: Option<(usize, GrammarModel)>,
    /// Absolute offset of the first window no build has counted yet.
    counted: usize,
    /// Cumulative over every build: the kept and dropped words among the
    /// windows it counted first, the rules each induction created and
    /// deleted, and the largest digram table any reached.
    counters: [u64; Counter::COUNT],
}

/// An online grammar-based anomaly detector.
///
/// ```
/// use gva_core::{PipelineConfig, StreamingDetector};
///
/// let config = PipelineConfig::new(50, 4, 4).unwrap();
/// let mut det = StreamingDetector::new(config);
/// for i in 0..2000 {
///     let v = (i as f64 / 12.0).sin();
///     det.push(if (900..960).contains(&i) { 0.0 } else { v }).unwrap();
/// }
/// let alerts = det.alerts(0, 100);
/// assert!(alerts.iter().any(|iv| iv.start >= 800 && iv.end <= 1100));
/// ```
#[derive(Debug)]
pub struct StreamingDetector {
    config: PipelineConfig,
    /// Retained points: `0` keeps the whole stream, otherwise the last
    /// `horizon` points (never less than one window).
    horizon: usize,
    /// The retained raw values (the whole stream when unbounded).
    values: SlidingBuf<f64>,
    /// Total points consumed.
    seen: usize,
    engine: Engine,
    /// Reused by every bounded-read build and every
    /// [`detect`](StreamingDetector::detect), so periodic reads and
    /// re-detection stop growing buffers once warmed up.
    workspace: Workspace,
}

impl StreamingDetector {
    /// Creates a detector; no data is required up front. Its counters are
    /// read through [`snapshot`](StreamingDetector::snapshot), which
    /// derives them from its own state.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            horizon: 0,
            values: SlidingBuf::new(0),
            seen: 0,
            engine: Engine::Online(Online::default()),
            workspace: Workspace::new(),
        }
    }

    /// Builder-style: bound the engine to the last `horizon` points (`0`,
    /// the default, retains the whole stream). A non-zero horizon is
    /// clamped up to one window — anything shorter could never hold a
    /// window to discretize. Must be configured before the first push.
    ///
    /// # Panics
    /// Panics when points have already been consumed.
    #[must_use]
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        // gv-lint: allow(panic-reachability) documented `# Panics` precondition: builder misuse, fires before any point streams
        assert_eq!(self.seen, 0, "set the horizon before streaming");
        self.horizon = if horizon == 0 {
            0
        } else {
            horizon.max(self.config.window())
        };
        self.values = SlidingBuf::new(self.horizon);
        self.engine = if self.horizon == 0 {
            Engine::Online(Online::default())
        } else {
            Engine::Rebuilt(Rebuilt::default())
        };
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The configured horizon in points (`0`: unbounded).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Absolute stream index of the first retained point (`0` until the
    /// horizon fills). [`values`](StreamingDetector::values),
    /// [`density_curve`](StreamingDetector::density_curve),
    /// [`model`](StreamingDetector::model) offsets, and
    /// [`detect`](StreamingDetector::detect) reports are all relative to
    /// this origin.
    pub fn horizon_start(&self) -> usize {
        self.seen - self.values.len()
    }

    /// Number of points consumed so far.
    pub fn len(&self) -> usize {
        self.seen
    }

    /// `true` until the first point arrives.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Number of retained tokens: the words that survived numerosity
    /// reduction, over the retained points.
    pub fn num_tokens(&mut self) -> usize {
        if let Some(model) = self.built() {
            return model.num_tokens();
        }
        match &self.engine {
            Engine::Online(o) => o.records.len(),
            Engine::Rebuilt(_) => 0,
        }
    }

    /// Capacities of every internal buffer. On a bounded engine this
    /// freezes after warmup — the long-run memory guarantee: unbounded
    /// streaming within a fixed horizon stops growing its buffers.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![self.values.capacity()];
        match &self.engine {
            Engine::Online(o) => {
                sig.extend([o.records.capacity(), o.dictionary.capacity()]);
                sig.extend(o.sax.capacities());
                sig.extend(o.sequitur.capacity_signature());
            }
            Engine::Rebuilt(r) => sig.extend(r.built.as_ref().map_or([0, 0], |(_, m)| {
                [m.records.capacity(), m.dictionary.capacity()]
            })),
        }
        sig.extend(self.workspace.capacity_signature());
        sig
    }

    /// Consumes one observation. With a horizon set, that is all a push
    /// does: the value joins the retained ring, and reads build from it.
    /// Unbounded, once `window` points have arrived, each push also
    /// discretizes the window *ending* at this point and feeds the grammar
    /// (subject to numerosity reduction).
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] for a NaN/±∞ observation; the
    /// value is *not* consumed (the stream state is unchanged), so a
    /// caller may drop or repair the sample and continue.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(crate::Error::NonFiniteInput { index: self.seen });
        }
        // gv-lint: hot
        // gv-lint: allow(alloc-reachability) amortized SlidingBuf growth: with a horizon, compaction freezes the capacity at about 2x the horizon (capacity_signature_freezes_on_long_stream); unbounded mode keeps the whole stream by design
        self.values.push(value);
        self.seen += 1;
        if let Engine::Online(online) = &mut self.engine {
            // gv-lint: allow(alloc-reachability) unbounded engine only: each kept word's record, dictionary entry and grammar symbols are kept for the stream's lifetime by design
            online.push(&self.config, self.values.as_slice());
        }
        // gv-lint: end-hot
        Ok(())
    }

    /// The bounded engine's model at the current point: the one a read
    /// already built at this stream length, else a fresh build over the
    /// retained slice (counted into the snapshot counters). `None` on an
    /// unbounded stream and before the first full window.
    fn built(&mut self) -> Option<&GrammarModel> {
        let Engine::Rebuilt(r) = &mut self.engine else {
            return None;
        };
        if r.built.as_ref().is_none_or(|(at, _)| *at != self.seen) {
            if let Some((_, stale)) = r.built.take() {
                self.workspace.recycle_model(stale);
            }
            let values = self.values.as_slice();
            let window = self.config.window();
            if values.len() < window {
                return None;
            }
            // From one window on the build cannot fail: every retained
            // value passed `push`'s finiteness check.
            let recorder = LocalRecorder::with_detail(false);
            let model = self
                .workspace
                .build_model(&self.config, values, &recorder)
                .ok()?;
            // Count the windows past the last counted one; the model's
            // offsets are relative to the retained slice. The build keeps
            // the slice's first window whatever its word, while the online
            // stream keeps it only when it differs from the window before;
            // when no build counted that window, the first one is counted
            // in neither (else a flat-lined stream would emit a word per
            // read and hide from `stale_windows`).
            let tail = self.seen - values.len();
            let first = if tail > 0 && r.counted <= tail {
                tail + 1
            } else {
                r.counted
            };
            let kept = model.records.len()
                - model
                    .records
                    .partition_point(|rec| tail + rec.offset < first);
            let c = &mut r.counters;
            c[Counter::WordsEmitted.index()] += kept as u64;
            let next = self.seen + 1 - window;
            c[Counter::WordsDropped.index()] += (next - first - kept) as u64;
            for counter in [Counter::RulesCreated, Counter::RulesDeleted] {
                c[counter.index()] += recorder.counter(counter);
            }
            let peak = &mut c[Counter::PeakDigramEntries.index()];
            *peak = (*peak).max(recorder.counter(Counter::PeakDigramEntries));
            r.counted = next;
            r.built = Some((self.seen, model));
        }
        r.built.as_ref().map(|(_, model)| model)
    }

    /// The stream's metrics so far, read from its own state — the
    /// detector's one counting path. A [`PipelineTrace`] labelled
    /// `"stream"` with the stream length, the retained tokens and the
    /// horizon as params, and the cumulative pipeline and grammar
    /// counters: what `WindowedAggregator::observe` differences per
    /// interval. `windows_processed` counts every window the stream has
    /// passed.
    ///
    /// Unbounded, the word and rule counters are the online grammar's,
    /// and a read costs O(1). Bounded, a read builds the model (shared
    /// with every other read at this point), and the counters accumulate
    /// over the builds: each build adds the kept and dropped words of the
    /// windows it is the first to see, and its induction's created and
    /// deleted rules; `peak_digram_entries` is the largest build's. With
    /// exact numerosity reduction the word counts equal the unbounded
    /// stream's whenever reads are at most `horizon − window` points apart.
    /// Further apart, the windows that left the horizon before any read
    /// are counted in neither, and so is the slice's first window, whose
    /// word no build could compare with the one before it.
    pub fn snapshot(&mut self) -> PipelineTrace {
        let tokens = self.num_tokens() as u64;
        let windows_processed = (self.seen + 1).saturating_sub(self.config.window()) as u64;
        let mut trace = PipelineTrace::new("stream")
            .with_param("seen", self.seen as u64)
            .with_param("tokens", tokens)
            .with_param("horizon", self.horizon as u64);
        match &self.engine {
            Engine::Online(o) => {
                let stats = o.sequitur.stats();
                let c = &mut trace.counters;
                c[Counter::WordsEmitted.index()] = tokens;
                c[Counter::WordsDropped.index()] = windows_processed.saturating_sub(tokens);
                c[Counter::RulesCreated.index()] = stats.rules_created;
                c[Counter::RulesDeleted.index()] = stats.rules_deleted;
                c[Counter::PeakDigramEntries.index()] = stats.peak_digram_entries;
            }
            Engine::Rebuilt(r) => trace.counters = r.counters,
        }
        trace.counters[Counter::WindowsProcessed.index()] = windows_processed;
        trace
    }

    /// The grammar model over the retained region (the whole stream when
    /// unbounded), offsets relative to
    /// [`horizon_start`](StreamingDetector::horizon_start). Bounded, it is
    /// the batch model of the retained slice.
    pub fn model(&mut self) -> GrammarModel {
        if let Some(model) = self.built() {
            return model.clone();
        }
        let (grammar, records, dictionary) = match &self.engine {
            Engine::Online(o) => (
                o.sequitur.snapshot(),
                o.records.clone(),
                o.dictionary.clone(),
            ),
            Engine::Rebuilt(_) => (Sequitur::new().finish(), Vec::new(), SaxDictionary::new()),
        };
        GrammarModel {
            grammar,
            records,
            dictionary,
            series_len: self.values.len(),
            window: self.config.window(),
        }
    }

    /// The rule-density curve over the retained region, oldest point
    /// first (`curve[i]` describes absolute point `horizon_start() + i`).
    /// Bounded, it is [`RuleDensity::from_model`] over the read's model.
    /// Unbounded, it is counted from the live grammar: each rule occurrence
    /// covers its first word's offset up to its last word's offset plus the
    /// window — the batch mapping, so the curve is the batch curve to the
    /// bit, in O(stream + occurrences).
    pub fn density_curve(&mut self) -> Vec<i64> {
        if let Some(model) = self.built() {
            return RuleDensity::from_model(model).curve;
        }
        let mut cc = CoverageCounter::new(self.values.len());
        if let Engine::Online(o) = &self.engine {
            let (window, seen) = (self.config.window(), self.seen);
            o.sequitur.for_each_occurrence(|cursor, len| {
                let start = o.records[cursor as usize].offset;
                let end = (o.records[(cursor + len) as usize - 1].offset + window).min(seen);
                cc.add(Interval::new(start, end));
            });
        }
        cc.finish()
    }

    /// The retained points, oldest first (the whole stream when
    /// unbounded); the first element is absolute index
    /// [`horizon_start`](StreamingDetector::horizon_start).
    pub fn values(&self) -> &[f64] {
        self.values.as_slice()
    }

    /// Runs any [`Detector`] over the retained horizon (the whole stream
    /// when unbounded), through the detector's unified interface. Reported
    /// intervals are relative to
    /// [`horizon_start`](StreamingDetector::horizon_start) — identical to
    /// a from-scratch batch run over the same slice, to the bit. The
    /// internal [`Workspace`] is reused across calls, so periodic
    /// re-detection stops growing buffers once they have warmed up. The
    /// detector runs under a [`NoopRecorder`]: the stream's counters are
    /// its [`snapshot`](StreamingDetector::snapshot).
    ///
    /// This is the §7 "online RRA" shape: the grammar answers the cheap
    /// density question ([`alerts`](StreamingDetector::alerts)), and this
    /// method runs the exact (and parallelizable) discord search on demand
    /// — over the horizon, so its cost is bounded no matter how long the
    /// stream runs.
    ///
    /// # Errors
    /// Whatever the detector reports (series still shorter than the
    /// window, no candidates, …).
    pub fn detect(&mut self, detector: &dyn Detector) -> Result<Report> {
        detector.detect(
            &SeriesView::new(self.values.as_slice()),
            &mut self.workspace,
            &NoopRecorder,
        )
    }

    /// Early-detection alerts: maximal runs of points whose density is
    /// `<= threshold`, restricted to the *mature* region — at least
    /// `maturity` points older than the stream head (and past the first
    /// window on both flanks: the head's rules haven't formed yet, and the
    /// retained slice starts mid-pattern). Intervals are in absolute
    /// stream positions.
    pub fn alerts(&mut self, threshold: i64, maturity: usize) -> Vec<Interval> {
        let curve = self.density_curve();
        if curve.is_empty() {
            return Vec::new();
        }
        let tail = self.horizon_start();
        let mature_end = self.seen.saturating_sub(maturity.max(self.config.window()));
        let density = RuleDensity::from_curve(curve);
        density
            .anomalies_below(threshold)
            .into_iter()
            .map(|iv| Interval::new(iv.start + tail, iv.end + tail))
            .filter(|iv| iv.start >= tail + self.config.window() && iv.end <= mature_end)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut StreamingDetector, values: impl IntoIterator<Item = f64>) {
        for v in values {
            det.push(v).unwrap();
        }
    }

    #[test]
    fn empty_and_warmup() {
        for horizon in [0, 64] {
            let config = PipelineConfig::new(32, 4, 4).unwrap();
            let mut det = StreamingDetector::new(config).with_horizon(horizon);
            assert!(det.is_empty());
            assert_eq!(det.num_tokens(), 0);
            assert!(det.density_curve().is_empty());
            feed(&mut det, (0..10).map(|i| i as f64));
            // Below one window: no tokens, no coverage, no alerts yet.
            assert_eq!(det.num_tokens(), 0);
            assert_eq!(det.len(), 10);
            assert_eq!(det.density_curve(), vec![0; 10]);
            assert!(det.alerts(0, 0).is_empty());
            assert_eq!(det.model().num_tokens(), 0);
        }
    }

    #[test]
    fn streaming_matches_batch_pipeline() {
        let values: Vec<f64> = (0..1500).map(|i| (i as f64 / 18.0).sin()).collect();
        let config = PipelineConfig::new(60, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone());
        feed(&mut det, values.iter().copied());

        let streaming_model = det.model();
        let batch_model = crate::pipeline::AnomalyPipeline::new(config)
            .model(&values, &NoopRecorder)
            .unwrap();
        // Identical token streams and offsets.
        assert_eq!(streaming_model.records, batch_model.records);
        // Identical density curves.
        assert_eq!(
            det.density_curve(),
            RuleDensity::from_model(&batch_model).curve().to_vec()
        );
    }

    /// Deterministic pseudo-random walk (no RNG dependency).
    fn lcg_walk(n: usize) -> Vec<f64> {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut level = 0.0f64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                level += ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                level
            })
            .collect()
    }

    #[test]
    fn stream_words_equal_batch_words_for_every_strategy() {
        use gv_sax::NumerosityReduction;
        let sine: Vec<f64> = (0..600).map(|i| (i as f64 / 17.0).sin()).collect();
        let cosine: Vec<f64> = (0..400)
            .map(|i| (i as f64 / 9.0).cos() * 3.0 + 1.0)
            .collect();
        let walk = lcg_walk(800);
        let flat = vec![2.5; 40];
        let ramp: Vec<f64> = (0..40).map(|i| i as f64).collect();
        // (series, W, P, A): divisible and fractional PAA, wide and
        // narrow alphabets, constant windows, and one- and two-point
        // windows.
        let cases: [(&[f64], usize, usize, usize); 9] = [
            (&sine, 60, 4, 4),
            (&sine, 16, 4, 6),
            (&cosine, 10, 3, 5),
            (&cosine, 23, 7, 4),
            (&walk, 50, 5, 8),
            (&walk, 31, 4, 3),
            (&flat, 8, 4, 4),
            (&ramp, 1, 1, 4),
            (&ramp, 2, 1, 4),
        ];
        for (values, w, p, a) in cases {
            for nr in [
                NumerosityReduction::None,
                NumerosityReduction::Exact,
                NumerosityReduction::MinDist,
            ] {
                let config = PipelineConfig::new(w, p, a)
                    .unwrap()
                    .with_numerosity_reduction(nr);
                let mut det = StreamingDetector::new(config.clone());
                feed(&mut det, values.iter().copied());
                let batch = config.sax().discretize(values, nr).unwrap();
                assert_eq!(det.model().records, batch, "W={w} P={p} A={a} {nr:?}");
            }
        }
    }

    #[test]
    fn detects_planted_anomaly_online() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..2500usize {
            let v = if (1200..1270).contains(&i) {
                0.05 * (i as f64)
            } else {
                (i as f64 / 12.0).sin()
            };
            det.push(v).unwrap();
        }
        let alerts = det.alerts(0, 100);
        assert!(
            alerts
                .iter()
                .any(|iv| iv.overlaps(&Interval::new(1150, 1330))),
            "no alert near the plant: {alerts:?}"
        );
    }

    #[test]
    fn immature_region_not_alerted() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        // Regular data, then an anomaly right at the stream head.
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        for i in 0..30usize {
            det.push(5.0 + i as f64).unwrap(); // fresh anomaly, too young to alert
        }
        let alerts = det.alerts(0, 200);
        assert!(
            alerts.iter().all(|iv| iv.end <= 1030 - 200),
            "immature alerts: {alerts:?}"
        );
    }

    #[test]
    fn incremental_alert_appears_after_maturity() {
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        let signal = |i: usize| {
            if (800..860).contains(&i) {
                0.0
            } else {
                (i as f64 / 10.0).sin()
            }
        };
        for i in 0..900usize {
            det.push(signal(i)).unwrap();
        }
        let early = det.alerts(0, 100);
        // Keep streaming regular data past the maturity horizon.
        for i in 900..1400usize {
            det.push(signal(i)).unwrap();
        }
        let later = det.alerts(0, 100);
        let hit = |alerts: &[Interval]| {
            alerts
                .iter()
                .any(|iv| iv.overlaps(&Interval::new(760, 940)))
        };
        assert!(
            !hit(&early) || hit(&later),
            "alert must not vanish as the stream grows"
        );
        assert!(hit(&later), "mature anomaly must be alerted: {later:?}");
    }

    #[test]
    fn non_finite_push_is_rejected_without_consuming() {
        let config = PipelineConfig::new(32, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..100usize {
            det.push((i as f64 / 8.0).sin()).unwrap();
        }
        let tokens = det.num_tokens();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = det.push(bad).unwrap_err();
            assert_eq!(err, crate::Error::NonFiniteInput { index: 100 });
        }
        // Stream state unchanged: the caller can repair and continue.
        assert_eq!(det.len(), 100);
        assert_eq!(det.num_tokens(), tokens);
        det.push(0.5).unwrap();
        assert_eq!(det.len(), 101);
    }

    #[test]
    fn clean_periodic_tail_is_not_alerted() {
        // Satellite regression: on a perfectly clean periodic stream the
        // structurally under-covered tail (rules spanning it haven't formed
        // yet) must be masked by the maturity horizon, not reported.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..2000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        let maturity = 150;
        let curve = det.density_curve();
        let horizon = det.len() - maturity;
        // The tail *is* structurally under-covered: its density dips below
        // the mature region's floor because rules spanning it haven't had a
        // chance to form yet.
        let tail_min = *curve[horizon..].iter().min().unwrap();
        let mature_min = *curve[det.config().window()..horizon].iter().min().unwrap();
        assert!(
            tail_min < mature_min,
            "expected the tail (min {tail_min}) below the mature floor ({mature_min})"
        );
        // At a threshold that catches the tail dip, the raw curve reports
        // it (non-vacuous)...
        let density = RuleDensity::from_curve(curve);
        assert!(
            density
                .anomalies_below(tail_min)
                .iter()
                .any(|iv| iv.end > horizon),
            "expected a raw under-coverage run past the horizon"
        );
        // ...but the maturity horizon must mask it from the alerts.
        let alerts = det.alerts(tail_min, maturity);
        assert!(
            alerts.iter().all(|iv| iv.end <= horizon),
            "immature tail leaked into alerts: {alerts:?}"
        );
        // And at the default threshold the clean stream raises nothing.
        assert!(
            det.alerts(0, maturity).is_empty(),
            "clean periodic stream raised alerts"
        );
    }

    #[test]
    fn snapshot_reads_the_stream_state() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone());
        let mut snapshots = Vec::new();
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
            if (i + 1) % 200 == 0 {
                snapshots.push(det.snapshot());
            }
        }
        let param =
            |snap: &PipelineTrace, key: &str| snap.params.iter().find(|(k, _)| k == key).unwrap().1;
        for (i, snap) in snapshots.iter().enumerate() {
            assert_eq!(snap.label, "stream");
            assert_eq!(param(snap, "seen"), 200 * (i as u64 + 1));
            assert!(snap
                .to_jsonl()
                .starts_with(&format!("{{\"schema\":{},", gv_obs::SCHEMA_VERSION)));
        }
        // Monotone token counts across reads.
        let tokens: Vec<u64> = snapshots.iter().map(|s| param(s, "tokens")).collect();
        assert!(tokens.windows(2).all(|w| w[0] <= w[1]));
        // Reading twice without a push reads the same thing.
        assert_eq!(det.snapshot(), det.snapshot());
        assert_eq!(det.snapshot(), snapshots[4]);
        // An empty stream reads zeros.
        let empty = StreamingDetector::new(config).snapshot();
        assert_eq!(param(&empty, "seen"), 0);
        assert_eq!(empty.counter(Counter::WindowsProcessed), 0);
    }

    #[test]
    fn snapshot_carries_cumulative_pipeline_counters() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config);
        for i in 0..800usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        let last = det.snapshot();
        // Every window is processed once, and each either becomes a
        // retained token or is dropped by numerosity reduction.
        let windows = last.counter(Counter::WindowsProcessed);
        assert_eq!(windows, 800 - 50 + 1);
        assert_eq!(last.counter(Counter::WordsEmitted), det.num_tokens() as u64);
        assert_eq!(
            last.counter(Counter::WordsEmitted) + last.counter(Counter::WordsDropped),
            windows
        );
    }

    #[test]
    fn detect_through_trait_matches_batch_pipeline() {
        use crate::engine::{EngineConfig, RraDetector};
        let mut v: Vec<f64> = (0..2000).map(|i| (i as f64 / 16.0).sin()).collect();
        for (i, x) in v[900..980].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 5.0).cos();
        }
        let config = PipelineConfig::new(100, 5, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone());
        feed(&mut det, v.iter().copied());
        assert_eq!(det.values(), &v[..]);

        let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
        let online = det.detect(&rra).unwrap();
        let batch = crate::pipeline::AnomalyPipeline::new(config)
            .with_engine(EngineConfig::sequential())
            .rra_discords(&v, 2, &NoopRecorder)
            .unwrap();
        assert_eq!(online.anomalies.len(), batch.discords.len());
        for (a, b) in online.anomalies.iter().zip(&batch.discords) {
            assert_eq!(a.interval, b.interval());
            assert_eq!(a.score.to_bits(), b.distance.to_bits());
        }

        // Re-detection reuses the workspace: results stable, buffers frozen.
        let sig = det.workspace.capacity_signature();
        let again = det.detect(&rra).unwrap();
        assert_eq!(again.anomalies.len(), online.anomalies.len());
        assert_eq!(sig, det.workspace.capacity_signature());
    }

    // ------------------------------------------------------------------
    // Bounded-horizon engine
    // ------------------------------------------------------------------

    /// The planted-anomaly series used across the horizon tests.
    fn planted(n: usize, at: std::ops::Range<usize>) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if at.contains(&i) {
                    0.05 * (i as f64)
                } else {
                    (i as f64 / 12.0).sin()
                }
            })
            .collect()
    }

    /// The density curve of a from-scratch batch run over `values`: what a
    /// stream's curve must equal to the bit (all zeros below one window).
    fn batch_curve(config: &PipelineConfig, values: &[f64]) -> Vec<i64> {
        if values.len() < config.window() {
            return vec![0; values.len()];
        }
        let model = crate::pipeline::AnomalyPipeline::new(config.clone())
            .model(values, &NoopRecorder)
            .unwrap();
        RuleDensity::from_model(&model).curve
    }

    #[test]
    fn horizon_covering_stream_matches_unbounded_engine() {
        // With a horizon larger than the stream nothing evicts, so the
        // bounded engine must agree with the unbounded one (and therefore
        // with the batch pipeline) bit for bit.
        let values = planted(1500, 700..760);
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut unbounded = StreamingDetector::new(config.clone());
        let mut bounded = StreamingDetector::new(config).with_horizon(100_000);
        feed(&mut unbounded, values.iter().copied());
        feed(&mut bounded, values.iter().copied());
        assert_eq!(bounded.horizon_start(), 0);
        assert_eq!(bounded.values(), unbounded.values());
        assert_eq!(bounded.density_curve(), unbounded.density_curve());
        assert_eq!(bounded.alerts(0, 100), unbounded.alerts(0, 100));
        assert_eq!(bounded.model().records, unbounded.model().records);
    }

    #[test]
    fn horizon_density_curve_matches_batch_after_every_push() {
        // The stream-vs-batch differential, curve half: through warmup and
        // the first full turn of the horizon after every push, then every
        // 7th push, the curve equals a from-scratch batch run over the
        // retained slice, bit for bit.
        let values = planted(4000, 2500..2560);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        for horizon in [250, 900] {
            let mut det = StreamingDetector::new(config.clone()).with_horizon(horizon);
            for (i, &v) in values.iter().enumerate() {
                det.push(v).unwrap();
                if i < 2 * horizon || i % 7 == 0 {
                    assert_eq!(
                        det.density_curve(),
                        batch_curve(&config, det.values()),
                        "curve differs from batch at point {i}, horizon {horizon}"
                    );
                }
            }
            assert_eq!(det.values().len(), horizon);
            assert_eq!(det.horizon_start(), 4000 - horizon);
        }
    }

    #[test]
    fn bounded_reads_rebuild_after_a_push_and_share_a_point() {
        // A read caches the model it builds for the current point: a push
        // must retire it, and reads at one point must share it.
        let values = planted(1500, 900..960);
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone()).with_horizon(600);
        feed(&mut det, values[..1000].iter().copied());
        let before = det.density_curve();
        assert_eq!(before, batch_curve(&config, det.values()));
        let snap = det.snapshot();
        assert_eq!(
            det.snapshot(),
            snap,
            "a second read at one point counted again"
        );
        det.push(values[1000]).unwrap();
        let after = det.density_curve();
        assert_eq!(after, batch_curve(&config, det.values()));
        assert_ne!(
            after, before,
            "the read after a push returned the old curve"
        );
        assert_eq!(det.model().records.len(), det.num_tokens());
        assert_ne!(det.snapshot(), snap);
    }

    #[test]
    fn bounded_word_counts_match_unbounded_when_reads_are_close() {
        // With exact numerosity reduction, counting each build's new
        // windows reproduces the online count while reads stay at most
        // `horizon - window` points apart; the rule counters sum the builds.
        let values = planted(6000, 3000..3060);
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut unbounded = StreamingDetector::new(config.clone());
        let mut bounded = StreamingDetector::new(config).with_horizon(800);
        let mut created = 0;
        for (i, &v) in values.iter().enumerate() {
            unbounded.push(v).unwrap();
            bounded.push(v).unwrap();
            if (i + 1) % 750 == 0 {
                let (a, b) = (unbounded.snapshot(), bounded.snapshot());
                for c in [
                    Counter::WindowsProcessed,
                    Counter::WordsEmitted,
                    Counter::WordsDropped,
                ] {
                    assert_eq!(a.counter(c), b.counter(c), "{} at {}", c.name(), i + 1);
                }
                assert!(b.counter(Counter::RulesCreated) > created);
                created = b.counter(Counter::RulesCreated);
            }
        }
    }

    #[test]
    fn bounded_flat_line_stops_emitting_words_between_distant_reads() {
        // Reads 1,000 points apart on an 800-point horizon: each build sees
        // a slice whose first window no build compared with the one before
        // it. Once the slice is flat no read may count a word, so
        // `words_emitted` stands still as it does unbounded, and the
        // `stale_windows` health rule can fire.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut unbounded = StreamingDetector::new(config.clone());
        let mut bounded = StreamingDetector::new(config).with_horizon(800);
        let (mut online, mut rebuilt) = (Vec::new(), Vec::new());
        for i in 0..8000usize {
            let v = if i < 2000 {
                (i as f64 / 12.0).sin()
            } else {
                1.5
            };
            unbounded.push(v).unwrap();
            bounded.push(v).unwrap();
            if (i + 1) % 1000 == 0 {
                online.push(unbounded.snapshot().counter(Counter::WordsEmitted));
                rebuilt.push(bounded.snapshot().counter(Counter::WordsEmitted));
            }
        }
        for emitted in [&online, &rebuilt] {
            assert!(emitted[0] > 0 && emitted[1] > emitted[0], "{emitted:?}");
            assert!(
                emitted[2..].windows(2).all(|w| w[0] == w[1]),
                "a flat slice emitted words: {emitted:?}"
            );
        }
    }

    #[test]
    fn horizon_detect_matches_batch_on_retained_slice() {
        use crate::engine::{EngineConfig, RraDetector};
        let values = planted(3000, 2100..2170);
        let config = PipelineConfig::new(60, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone()).with_horizon(1500);
        feed(&mut det, values.iter().copied());
        let tail = det.horizon_start();
        assert_eq!(tail, 1500);
        assert_eq!(det.values(), &values[tail..]);

        let rra = RraDetector::new(config.clone(), 2).with_engine(EngineConfig::sequential());
        let online = det.detect(&rra).unwrap();
        let batch = crate::pipeline::AnomalyPipeline::new(config)
            .with_engine(EngineConfig::sequential())
            .rra_discords(&values[tail..], 2, &NoopRecorder)
            .unwrap();
        assert_eq!(online.anomalies.len(), batch.discords.len());
        for (a, b) in online.anomalies.iter().zip(&batch.discords) {
            assert_eq!(a.interval, b.interval());
            assert_eq!(a.score.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn planted_anomaly_enters_and_leaves_horizon() {
        // Satellite regression: an anomaly raises alerts while inside the
        // horizon and clears once it has left it.
        let plant = 5000..5060;
        let values = planted(10_000, plant.clone());
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).with_horizon(3000);
        let plant_region = Interval::new(4950, 5130);
        for (i, &v) in values.iter().enumerate() {
            det.push(v).unwrap();
            if i + 1 == 6000 {
                let alerts = det.alerts(0, 100);
                assert!(
                    alerts.iter().any(|iv| iv.overlaps(&plant_region)),
                    "anomaly inside the horizon must alert: {alerts:?}"
                );
            }
        }
        // The plant has left the horizon.
        assert!(det.horizon_start() > plant.end);
        let alerts = det.alerts(0, 100);
        assert!(
            alerts.iter().all(|iv| !iv.overlaps(&plant_region)),
            "an anomaly past the horizon must no longer alert: {alerts:?}"
        );
    }

    #[test]
    fn capacity_signature_freezes_on_long_stream() {
        // Unbounded streaming within a fixed horizon must stop growing its
        // buffers: with an alert read every 1,000 points, every internal
        // buffer's capacity freezes after warmup, across 100k points.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).with_horizon(2048);
        let signal = |i: usize| (i as f64 / 12.0).sin() + 0.2 * (i as f64 / 71.0).cos();
        let stream = |det: &mut StreamingDetector, points: std::ops::Range<usize>| {
            for i in points {
                det.push(signal(i)).unwrap();
                if (i + 1) % 1000 == 0 {
                    det.alerts(0, 100);
                }
            }
        };
        stream(&mut det, 0..30_000);
        let sig = det.capacity_signature();
        stream(&mut det, 30_000..100_000);
        assert_eq!(
            sig,
            det.capacity_signature(),
            "buffer capacities grew after warmup"
        );
        assert_eq!(det.len(), 100_000);
        assert_eq!(det.values().len(), 2048);
        // The read's model covers the horizon only.
        assert!(det.num_tokens() < 2048);
    }

    #[test]
    fn horizon_shorter_than_window_is_clamped() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let det = StreamingDetector::new(config).with_horizon(10);
        assert_eq!(det.horizon(), 50);
    }
}
