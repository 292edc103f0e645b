//! Streaming / early anomaly detection — the paper's §7 future-work
//! direction, made concrete.
//!
//! Both pipeline stages process the input left to right (SAX's sliding
//! window and Sequitur's incremental induction), so the whole detector can
//! run online: feed points as they arrive, and at any moment snapshot the
//! grammar to ask *"how compressible is the data I have seen so far —
//! and where isn't it?"*.
//!
//! # Bounded horizon
//!
//! By default the detector retains the entire stream. With
//! [`with_horizon`](StreamingDetector::with_horizon) it becomes a bounded
//! engine: only the most recent `horizon` points are kept, and everything
//! scales with the horizon rather than the stream —
//!
//! * raw values and SAX records live in ring-style buffers that evict in
//!   lockstep with the grammar;
//! * the grammar itself retires front tokens via
//!   [`Sequitur::evict_front`] as they age out;
//! * the rule-density curve is maintained *incrementally*: the grammar's
//!   structural journal reports each rule-occurrence birth/death, which
//!   becomes a ±1 delta over the covered points instead of a full recount
//!   (a journal event without a resolvable position forces one recount,
//!   counted by [`Counter::DensityRecounts`]);
//! * [`detect`](StreamingDetector::detect) dispatches over the horizon
//!   view only, so a from-scratch batch run over the same slice produces
//!   bit-identical discords.
//!
//! A caveat the batch pipeline doesn't have: the most recent points are
//! always under-covered (rules that will eventually span them haven't had
//! a chance to form), so alerts are only raised for regions older than a
//! configurable *maturity horizon*. With a bounded horizon the mirror
//! effect exists at the retained front — rules that covered it may have
//! been evicted — so the first window past the horizon start is masked
//! symmetrically.

use std::collections::VecDeque;

use gv_obs::{Counter, NoopRecorder, PipelineTrace};
use gv_sax::{SaxDictionary, SaxRecord, SaxScratch, SaxWord};
use gv_sequitur::{GrammarEvent, Sequitur};
use gv_timeseries::Interval;

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

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.start..]
    }

    fn capacity(&self) -> usize {
        self.buf.capacity()
    }
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
    /// The SAX discretizer's state — kernel scratch plus the last kept
    /// word — fed the window ending at each point, so stream words are
    /// batch words.
    sax: SaxScratch,
    /// The retained raw values (the whole stream when unbounded).
    values: SlidingBuf<f64>,
    /// Incrementally-maintained rule-density curve, aligned with `values`
    /// (only maintained when a horizon is set).
    curve: SlidingBuf<i64>,
    /// Total points consumed.
    seen: usize,
    dictionary: SaxDictionary,
    sequitur: Sequitur,
    /// Surviving records (post numerosity reduction) over the horizon;
    /// record `i` is retained grammar token `i`.
    records: VecDeque<SaxRecord>,
    /// Absolute token index of `records.front()` (tokens popped so far).
    tokens_dropped: u64,
    /// Recycled word storage: boxes from evicted records are reused for
    /// new words, so steady-state pushes stop allocating.
    word_pool: Vec<Box<[u8]>>,
    /// Cumulative kept words (monotone even under eviction).
    words_emitted: u64,
    /// Scratch for draining the grammar's structural journal.
    journal: Vec<GrammarEvent>,
    /// A journal event without a resolvable position invalidated the
    /// incremental curve; a recount runs at the end of the push.
    curve_dirty: bool,
    /// Cumulative full curve recounts (the snapshots'
    /// [`Counter::DensityRecounts`]).
    density_recounts: u64,
    /// Reused across [`detect`](StreamingDetector::detect) calls, so
    /// periodic re-detection stops allocating once warmed up.
    workspace: Workspace,
    /// Emit a metrics snapshot every this many points (`0`: never).
    metrics_every: usize,
    /// Stream length at the last flush — lets
    /// [`flush_now`](StreamingDetector::flush_now) emit a terminal
    /// snapshot only when the tail holds unflushed points.
    last_flush_seen: usize,
    /// The periodic snapshots, oldest first.
    snapshots: Vec<PipelineTrace>,
}

impl StreamingDetector {
    /// Creates a detector; no data is required up front. Its counters are
    /// read through [`snapshots`](StreamingDetector::snapshots), which it
    /// derives from its own state.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            horizon: 0,
            sax: SaxScratch::new(),
            values: SlidingBuf::new(0),
            curve: SlidingBuf::new(0),
            seen: 0,
            dictionary: SaxDictionary::new(),
            sequitur: Sequitur::new(),
            records: VecDeque::new(),
            tokens_dropped: 0,
            word_pool: Vec::new(),
            words_emitted: 0,
            journal: Vec::new(),
            curve_dirty: false,
            density_recounts: 0,
            workspace: Workspace::new(),
            metrics_every: 0,
            last_flush_seen: 0,
            snapshots: Vec::new(),
        }
    }

    /// Builder-style: bound the engine to the last `horizon` points (`0`,
    /// the default, retains the whole stream). A non-zero horizon is
    /// clamped up to one window — anything shorter cannot hold the window
    /// each push discretizes. Must be configured before the first push.
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
        self.curve = SlidingBuf::new(self.horizon);
        if self.horizon > 0 {
            self.sequitur.enable_journal();
            // The pool never outgrows the peak retained-record count (one
            // box per kept word in flight), so reserving that up front
            // freezes its capacity for the lifetime of the stream.
            self.word_pool = Vec::with_capacity(self.horizon - self.config.window() + 2);
        }
        self
    }

    /// Builder-style: emit a metrics snapshot every `n` pushed points
    /// (`0` disables, the default). Each flush appends a [`PipelineTrace`]
    /// labelled `"stream"` — stream length, surviving tokens, and grammar
    /// churn so far — to [`snapshots`](StreamingDetector::snapshots), so a
    /// long-running monitor produces a time-resolved metric trajectory
    /// instead of one final record.
    #[must_use]
    pub fn metrics_every(mut self, n: usize) -> Self {
        self.metrics_every = n;
        self
    }

    /// The periodic metrics snapshots accumulated so far, oldest first
    /// (empty unless [`metrics_every`](StreamingDetector::metrics_every)
    /// was configured).
    pub fn snapshots(&self) -> &[PipelineTrace] {
        &self.snapshots
    }

    /// Drains the accumulated snapshots (e.g. after exporting them).
    pub fn take_snapshots(&mut self) -> Vec<PipelineTrace> {
        std::mem::take(&mut self.snapshots)
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
    /// [`density_curve`](StreamingDetector::density_curve), and
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

    /// Number of retained tokens (words that survived numerosity reduction
    /// and still lie inside the horizon).
    pub fn num_tokens(&self) -> usize {
        self.records.len()
    }

    /// Capacities of every internal buffer. On a bounded engine this
    /// freezes after warmup — the long-run memory guarantee: unbounded
    /// streaming within a fixed horizon stops allocating.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.values.capacity(),
            self.curve.capacity(),
            self.records.capacity(),
            self.word_pool.capacity(),
            self.journal.capacity(),
            self.dictionary.capacity(),
        ];
        sig.extend(self.sax.capacities());
        sig.extend(self.sequitur.capacity_signature());
        sig.extend(self.workspace.capacity_signature());
        sig
    }

    /// Consumes one observation. Once `window` points have arrived, each
    /// push discretizes the window *ending* at this point and feeds the
    /// grammar (subject to numerosity reduction); with a horizon set, it
    /// then retires everything that fell out of the horizon.
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] for a NaN/±∞ observation; the
    /// value is *not* consumed (the stream state is unchanged), so a
    /// caller may drop or repair the sample and continue.
    pub fn push(&mut self, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(crate::Error::NonFiniteInput { index: self.seen });
        }
        let window = self.config.window();
        // gv-lint: hot
        // gv-lint: allow(alloc-reachability) amortized SlidingBuf growth: with a horizon, compaction freezes the capacity at about 2x the horizon (capacity_signature_freezes_on_long_stream); unbounded mode keeps the whole stream by design
        self.values.push(value);
        if self.horizon > 0 {
            // gv-lint: allow(alloc-reachability) amortized SlidingBuf growth: compaction freezes the capacity at about 2x the horizon (capacity_signature_freezes_on_long_stream)
            self.curve.push(0);
        }
        self.seen += 1;
        // The horizon holds at least one window, so the window ending at
        // this point is retained and contiguous.
        let retained = self.values.as_slice();
        if retained.len() >= window {
            if let Some(symbols) = self.config.sax().next_word(
                &retained[retained.len() - window..],
                self.config.numerosity_reduction(),
                &mut self.sax,
            ) {
                let mut storage = match self.word_pool.pop() {
                    Some(b) => b,
                    // gv-lint: allow(alloc-reachability) cold: only until eviction feeds the pool (or forever-growing unbounded mode, which allocated per push before too)
                    None => vec![0u8; self.config.paa()].into_boxed_slice(),
                };
                storage.copy_from_slice(symbols);
                let word = SaxWord::new(storage);
                let token = self.dictionary.intern(&word);
                // gv-lint: allow(alloc-reachability) Sequitur reuses evicted node and rule slots, so with a horizon its arena and digram table stop growing after warmup (capacity_signature_freezes_on_long_stream); unbounded mode keeps the whole grammar by design
                self.sequitur.push(token);
                self.records.push_back(SaxRecord {
                    word,
                    offset: self.seen - window,
                });
                self.words_emitted += 1;
            }
        }
        if self.horizon > 0 {
            // Rule births from this push become +1 curve deltas.
            self.apply_journal();
            // Retire records whose window slid out of the horizon; the
            // grammar evicts the same tokens, journaling every occurrence
            // death (applied while the records can still resolve offsets).
            let boundary = self.seen.saturating_sub(self.horizon);
            let mut evict = 0usize;
            while let Some(rec) = self.records.get(evict) {
                if rec.offset < boundary {
                    evict += 1;
                } else {
                    break;
                }
            }
            if evict > 0 {
                self.sequitur.evict_front(evict);
                self.apply_journal();
                for _ in 0..evict {
                    if let Some(rec) = self.records.pop_front() {
                        // gv-lint: allow(alloc-reachability) bounded pool: a buffer is minted only when the pool is empty, so pool plus retained records never exceed the peak record count and the pool stops growing after warmup
                        self.word_pool.push(rec.word.into_bytes());
                    }
                }
                self.tokens_dropped += evict as u64;
            }
            if self.curve_dirty {
                // gv-lint: allow(alloc-reachability) fallback, not cold: recount_curve runs whenever the journal emits Dirty, on 5,688 of 7,849 kept words at horizon 800 (ROADMAP item 6 removes it)
                self.recount_curve();
            }
        }
        // gv-lint: end-hot
        if self.metrics_every > 0 && self.seen.is_multiple_of(self.metrics_every) {
            self.flush_metrics();
        }
        Ok(())
    }

    /// Drains the grammar journal and folds each positioned occurrence
    /// birth/death into the curve as a ±1 interval delta. An event whose
    /// position the grammar could not track marks the curve dirty (one
    /// recount at the end of the push).
    fn apply_journal(&mut self) {
        let mut events = std::mem::take(&mut self.journal);
        self.sequitur.drain_journal(&mut events);
        for e in events.drain(..) {
            match e {
                GrammarEvent::Born {
                    token_start,
                    token_len,
                } => self.apply_span(token_start, token_len, 1),
                GrammarEvent::Died {
                    token_start,
                    token_len,
                } => self.apply_span(token_start, token_len, -1),
                GrammarEvent::Dirty => self.curve_dirty = true,
            }
        }
        self.journal = events;
    }

    /// Adds `delta` over the points covered by the token span
    /// `[token_start, token_start + token_len)` (absolute token indexes),
    /// clipped to the retained region.
    fn apply_span(&mut self, token_start: u64, token_len: u64, delta: i64) {
        if self.curve_dirty {
            return; // a recount will rebuild everything anyway
        }
        debug_assert!(token_start >= self.tokens_dropped, "span below the front");
        let rel = (token_start - self.tokens_dropped) as usize;
        let last = rel + token_len as usize - 1;
        debug_assert!(last < self.records.len(), "span beyond retained tokens");
        let start_pt = self.records[rel].offset;
        let end_pt = self.records[last].offset + self.config.window();
        let tail = self.horizon_start();
        if end_pt <= tail {
            return;
        }
        let lo = start_pt.max(tail) - tail;
        let hi = end_pt.min(self.seen) - tail;
        for c in &mut self.curve.as_mut_slice()[lo..hi] {
            *c += delta;
        }
    }

    /// Rebuilds the curve over the retained region from a fresh grammar
    /// snapshot — the fallback when a journal event had no resolvable
    /// position. Each occurrence goes through `apply_span`, the one
    /// clipping rule. O(horizon + occurrences), never O(stream).
    fn recount_curve(&mut self) {
        self.curve_dirty = false;
        self.density_recounts += 1;
        for c in self.curve.as_mut_slice() {
            *c = 0;
        }
        let grammar = self.sequitur.snapshot();
        for occ in grammar.occurrences() {
            let token_start = self.tokens_dropped + occ.token_start as u64;
            self.apply_span(token_start, occ.token_len as u64, 1);
        }
    }

    /// Flushes a terminal metrics snapshot covering the tail of the
    /// stream, if any points arrived since the last periodic flush.
    /// Without this, a stream whose length is not a multiple of
    /// `metrics_every` silently drops its final partial window's metrics.
    /// Returns whether a snapshot was emitted. Callable regardless of the
    /// `metrics_every` setting — a monitor that never configured periodic
    /// flushes can still snapshot at end of stream.
    pub fn flush_now(&mut self) -> bool {
        if self.seen == 0 || self.seen == self.last_flush_seen {
            return false;
        }
        self.flush_metrics();
        true
    }

    /// Builds one periodic snapshot from the detector's own state — the
    /// detector's one counting path.
    fn flush_metrics(&mut self) {
        let stats = self.sequitur.stats();
        let window = self.config.window();
        let windows_processed = (self.seen + 1).saturating_sub(window) as u64;
        let mut trace = PipelineTrace::new("stream")
            .with_param("seen", self.seen as u64)
            .with_param("tokens", self.records.len() as u64)
            .with_param("horizon", self.horizon as u64)
            .with_param("flush", self.snapshots.len() as u64 + 1);
        // Cumulative pipeline counters, derived from detector state — this
        // is what `WindowedAggregator::observe` differences per interval.
        trace.counters[Counter::WindowsProcessed.index()] = windows_processed;
        trace.counters[Counter::WordsEmitted.index()] = self.words_emitted;
        trace.counters[Counter::WordsDropped.index()] =
            windows_processed.saturating_sub(self.words_emitted);
        trace.counters[Counter::RulesCreated.index()] = stats.rules_created;
        trace.counters[Counter::RulesDeleted.index()] = stats.rules_deleted;
        trace.counters[Counter::PeakDigramEntries.index()] = stats.peak_digram_entries;
        trace.counters[Counter::TokensEvicted.index()] = stats.tokens_evicted;
        trace.counters[Counter::RulesEvicted.index()] = stats.rules_evicted;
        trace.counters[Counter::RulesRelearned.index()] = stats.rules_relearned;
        trace.counters[Counter::DensityRecounts.index()] = self.density_recounts;
        self.last_flush_seen = self.seen;
        self.snapshots.push(trace);
    }

    /// Snapshots the current grammar model over the retained region (the
    /// whole stream when unbounded). Record offsets stay absolute.
    pub fn model(&self) -> GrammarModel {
        GrammarModel {
            grammar: self.sequitur.snapshot(),
            records: self.records.iter().cloned().collect(),
            dictionary: self.dictionary.clone(),
            series_len: self.seen,
            window: self.config.window(),
        }
    }

    /// The rule-density curve over the retained region, oldest point
    /// first (`curve[i]` describes absolute point `horizon_start() + i`).
    /// Unbounded engines recount from a snapshot; bounded engines return
    /// the incrementally-maintained curve — the differential tests assert
    /// the two are bit-identical.
    pub fn density_curve(&self) -> Vec<i64> {
        if self.horizon > 0 {
            debug_assert!(!self.curve_dirty, "push always settles the curve");
            self.curve.as_slice().to_vec()
        } else {
            RuleDensity::from_model(&self.model()).curve
        }
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
    /// re-detection stops allocating once the buffers have warmed up. The
    /// detector runs under a [`NoopRecorder`]: the stream's counters are
    /// its [`snapshots`](StreamingDetector::snapshots).
    ///
    /// This is the §7 "online RRA" shape: the incremental grammar answers
    /// the cheap density question continuously
    /// ([`alerts`](StreamingDetector::alerts)), and this method runs the
    /// exact (and parallelizable) discord search on demand — over the
    /// horizon, so its cost is bounded no matter how long the stream runs.
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
    /// horizon front's rules may have been evicted). Intervals are in
    /// absolute stream positions.
    pub fn alerts(&self, threshold: i64, maturity: usize) -> Vec<Interval> {
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
        let det = StreamingDetector::new(PipelineConfig::new(32, 4, 4).unwrap());
        assert!(det.is_empty());
        assert_eq!(det.num_tokens(), 0);
        let mut det = det;
        feed(&mut det, (0..10).map(|i| i as f64));
        // Below one window: no tokens yet.
        assert_eq!(det.num_tokens(), 0);
        assert_eq!(det.len(), 10);
        assert!(det.alerts(0, 0).is_empty());
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
    fn metrics_every_emits_periodic_snapshots() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone()).metrics_every(200);
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(det.snapshots().len(), 5);
        for (i, snap) in det.snapshots().iter().enumerate() {
            assert_eq!(snap.label, "stream");
            let seen = snap.params.iter().find(|(k, _)| k == "seen").unwrap().1;
            assert_eq!(seen, 200 * (i as u64 + 1));
            assert!(snap.to_jsonl().starts_with("{\"schema\":4,"));
        }
        // Monotone token counts across flushes.
        let tokens: Vec<u64> = det
            .snapshots()
            .iter()
            .map(|s| s.params.iter().find(|(k, _)| k == "tokens").unwrap().1)
            .collect();
        assert!(tokens.windows(2).all(|w| w[0] <= w[1]));
        // Snapshots must not perturb the model: same tokens as a plain run.
        let mut plain = StreamingDetector::new(config);
        for i in 0..1000usize {
            plain.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(plain.num_tokens(), det.num_tokens());
        assert_eq!(det.take_snapshots().len(), 5);
        assert!(det.snapshots().is_empty());
    }

    #[test]
    fn terminal_flush_covers_partial_tail() {
        // Satellite regression: 1000 points at metrics-every 300 used to
        // leave the last 100 points invisible in the snapshot trajectory.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config.clone()).metrics_every(300);
        for i in 0..1000usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(det.snapshots().len(), 3); // 300, 600, 900
        assert!(det.flush_now(), "tail points must force a snapshot");
        assert_eq!(det.snapshots().len(), 4);
        let tail = det.snapshots().last().unwrap();
        let seen = tail.params.iter().find(|(k, _)| k == "seen").unwrap().1;
        assert_eq!(seen, 1000);
        // Idempotent: nothing new arrived, so no second terminal flush.
        assert!(!det.flush_now());
        assert_eq!(det.snapshots().len(), 4);
        // After more points, flush_now works again.
        det.push(0.0).unwrap();
        assert!(det.flush_now());

        // Exact-multiple stream: the periodic flush already covered the
        // tail, so the terminal flush must not duplicate it.
        let mut exact = StreamingDetector::new(config.clone()).metrics_every(500);
        for i in 0..1000usize {
            exact.push((i as f64 / 12.0).sin()).unwrap();
        }
        assert_eq!(exact.snapshots().len(), 2);
        assert!(!exact.flush_now());
        assert_eq!(exact.snapshots().len(), 2);

        // An empty detector has nothing to flush.
        let mut empty = StreamingDetector::new(config);
        assert!(!empty.flush_now());
    }

    #[test]
    fn flush_snapshots_carry_cumulative_pipeline_counters() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).metrics_every(200);
        for i in 0..800usize {
            det.push((i as f64 / 12.0).sin()).unwrap();
        }
        let last = det.snapshots().last().unwrap();
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

    /// A from-first-principles recount of the retained density curve from
    /// the engine's own model — what the incremental ±1 deltas must equal
    /// to the bit.
    fn recount_from_model(det: &StreamingDetector) -> Vec<i64> {
        let model = det.model();
        let tail = det.horizon_start();
        let mut curve = vec![0i64; det.values().len()];
        for occ in model.grammar.occurrences() {
            let iv = model.occurrence_interval(&occ);
            let lo = iv.start.max(tail) - tail;
            let hi = iv.end.min(det.len()) - tail;
            for c in &mut curve[lo..hi] {
                *c += 1;
            }
        }
        curve
    }

    #[test]
    fn horizon_covering_stream_matches_unbounded_engine() {
        // With a horizon larger than the stream nothing evicts, but the
        // incremental curve path is active — it must agree with the
        // unbounded recount (and therefore with the batch pipeline) bit
        // for bit.
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
    fn horizon_density_curve_matches_recount_from_own_model() {
        // The incremental-vs-batch differential, curve half: after heavy
        // eviction the delta-maintained curve equals a from-scratch
        // recount over the engine's own grammar, bit for bit.
        let values = planted(4000, 2500..2560);
        let config = PipelineConfig::new(40, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).with_horizon(900);
        for (i, &v) in values.iter().enumerate() {
            det.push(v).unwrap();
            if i % 397 == 0 || i + 1 == values.len() {
                assert_eq!(
                    det.density_curve(),
                    recount_from_model(&det),
                    "curve deltas drifted at point {i}"
                );
            }
        }
        assert_eq!(det.values().len(), 900);
        assert_eq!(det.horizon_start(), 4000 - 900);
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
        // horizon and clears once it has been evicted.
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
        // The plant has been evicted (horizon start is past it).
        assert!(det.horizon_start() > plant.end);
        let alerts = det.alerts(0, 100);
        assert!(
            alerts.iter().all(|iv| !iv.overlaps(&plant_region)),
            "evicted anomaly must no longer alert: {alerts:?}"
        );
    }

    #[test]
    fn capacity_signature_freezes_on_long_stream() {
        // Satellite regression: unbounded streaming within a fixed horizon
        // must stop allocating — every internal buffer's capacity freezes
        // after warmup, across 100k points.
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let mut det = StreamingDetector::new(config).with_horizon(2048);
        let signal = |i: usize| (i as f64 / 12.0).sin() + 0.2 * (i as f64 / 71.0).cos();
        let warmup = 30_000usize;
        for i in 0..warmup {
            det.push(signal(i)).unwrap();
        }
        let sig = det.capacity_signature();
        for i in warmup..100_000 {
            det.push(signal(i)).unwrap();
        }
        assert_eq!(
            sig,
            det.capacity_signature(),
            "buffer capacities grew after warmup"
        );
        assert_eq!(det.len(), 100_000);
        assert_eq!(det.values().len(), 2048);
        // The grammar really did evict: far more tokens retired than
        // retained.
        assert!(det.sequitur.tokens_evicted() > det.num_tokens() as u64 * 10);
    }

    #[test]
    fn horizon_shorter_than_window_is_clamped() {
        let config = PipelineConfig::new(50, 4, 4).unwrap();
        let det = StreamingDetector::new(config).with_horizon(10);
        assert_eq!(det.horizon(), 50);
    }
}
