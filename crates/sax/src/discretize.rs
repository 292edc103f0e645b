//! The SAX discretizer (paper §3.1–3.2): one window kernel — z-normalize
//! → PAA → symbols — plus the numerosity-reduction state, shared by the
//! batch pass, the streaming detector, HOTSAX and chunked SAX. The batch
//! pass reads most windows from block prefix sums instead, in O(P), and
//! keeps a window's fast symbols only where a rounding bound proves them
//! equal to the kernel's (see `block.rs`).

use gv_obs::{Counter, NoopRecorder, Recorder};
use gv_timeseries::{znorm_into, DEFAULT_ZNORM_THRESHOLD};

use crate::alphabet::Alphabet;
use crate::block::BlockStats;
use crate::error::{Error, Result};
use crate::mindist::mindist_is_zero;
use crate::paa::paa_into;
use crate::word::SaxWord;

/// Numerosity-reduction strategy applied to the stream of sliding-window
/// SAX words (paper §3.2).
///
/// Neighbouring windows usually discretize to the same word; recording only
/// the first of a run both speeds the grammar stage up and — crucially —
/// makes grammar rules map to *variable-length* subsequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumerosityReduction {
    /// Keep every window's word.
    None,
    /// Drop a word when identical to the previously kept one (the paper's
    /// strategy, GrammarViz's `EXACT`).
    #[default]
    Exact,
    /// Drop a word when its MINDIST to the previously kept one is zero
    /// (all symbols identical or adjacent) — a more aggressive smoother.
    MinDist,
}

impl NumerosityReduction {
    /// `true` when the word `current` should be dropped given the symbols
    /// of the previously kept word.
    fn drops(self, prev: &[u8], current: &[u8]) -> bool {
        match self {
            NumerosityReduction::None => false,
            NumerosityReduction::Exact => prev == current,
            NumerosityReduction::MinDist => mindist_is_zero(prev, current),
        }
    }
}

/// One discretization record: a SAX word plus the start offset of the
/// sliding window it came from.
///
/// The offsets are what lets grammar rules map back to raw subsequences
/// (paper §3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaxRecord {
    /// The SAX word.
    pub word: SaxWord,
    /// Start index of the source window in the original series.
    pub offset: usize,
}

/// The discretizer's state: z-norm, PAA and symbol scratch for one window,
/// the batch pass's block prefix sums (O(W)), and the symbols of the last
/// kept word (the numerosity-reduction state). A batch pass resets it on
/// entry; a stream keeps one for its whole life. Stream and batch words
/// agree by certificate: a batch window keeps its block symbols only when
/// they provably equal the window kernel's.
#[derive(Debug, Clone, Default)]
pub struct SaxScratch {
    zbuf: Vec<f64>,
    pbuf: Vec<f64>,
    symbols: Vec<u8>,
    /// Empty until a word is kept (a word has at least one symbol).
    last: Vec<u8>,
    block: BlockStats,
}

impl SaxScratch {
    /// Fresh state: the next window is kept whatever the strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacities of the seven buffers, for allocation-stability
    /// assertions.
    pub fn capacities(&self) -> [usize; 7] {
        let [bounds, sum, sum_sq] = self.block.capacities();
        [
            self.zbuf.capacity(),
            self.pbuf.capacity(),
            self.symbols.capacity(),
            self.last.capacity(),
            bounds,
            sum,
            sum_sq,
        ]
    }

    /// Applies numerosity reduction to the word in `symbols` against the
    /// last kept word: `Some` (and the word becomes the reference) when
    /// kept, `None` when `nr` drops it.
    fn keep(&mut self, nr: NumerosityReduction) -> Option<&[u8]> {
        if !self.last.is_empty() && nr.drops(&self.last, &self.symbols) {
            return None;
        }
        self.last.clear();
        self.last.extend_from_slice(&self.symbols);
        Some(&self.last)
    }
}

/// SAX discretization parameters: sliding-window length, PAA size, and
/// alphabet size — the triple `(W, P, A)` printed throughout the paper.
#[derive(Debug, Clone)]
pub struct SaxConfig {
    window: usize,
    paa_size: usize,
    alphabet: Alphabet,
    znorm_threshold: f64,
}

impl SaxConfig {
    /// Builds a configuration.
    ///
    /// # Errors
    /// * [`Error::PaaSize`] when `paa_size` is zero or exceeds `window`;
    /// * [`Error::AlphabetSize`] via [`Alphabet::new`];
    /// * [`Error::Window`] when `window` is zero.
    pub fn new(window: usize, paa_size: usize, alphabet_size: usize) -> Result<Self> {
        if window == 0 {
            return Err(Error::Window {
                window,
                series_len: 0,
            });
        }
        if paa_size == 0 || paa_size > window {
            return Err(Error::PaaSize {
                paa: paa_size,
                window,
            });
        }
        Ok(Self {
            window,
            paa_size,
            alphabet: Alphabet::new(alphabet_size)?,
            znorm_threshold: DEFAULT_ZNORM_THRESHOLD,
        })
    }

    /// Overrides the z-normalization σ threshold (default
    /// [`DEFAULT_ZNORM_THRESHOLD`]).
    pub fn with_znorm_threshold(mut self, threshold: f64) -> Self {
        self.znorm_threshold = threshold;
        self
    }

    /// Sliding-window length `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// PAA size `P` (word length).
    pub fn paa_size(&self) -> usize {
        self.paa_size
    }

    /// Alphabet size `A`.
    pub fn alphabet_size(&self) -> usize {
        self.alphabet.size()
    }

    /// The alphabet in use.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The z-normalization σ threshold in effect.
    pub fn znorm_threshold(&self) -> f64 {
        self.znorm_threshold
    }

    /// The window kernel: z-normalize → PAA → symbols into `state`'s
    /// scratch. Allocation-free once the buffers fit the window.
    fn symbolize<'s>(&self, window: &[f64], state: &'s mut SaxScratch) -> &'s [u8] {
        state.zbuf.resize(window.len(), 0.0);
        state.pbuf.resize(self.paa_size, 0.0);
        state.symbols.resize(self.paa_size, 0);
        znorm_into(window, self.znorm_threshold, &mut state.zbuf);
        paa_into(&state.zbuf, &mut state.pbuf);
        for (s, &p) in state.symbols.iter_mut().zip(&state.pbuf) {
            *s = self.alphabet.symbol(p);
        }
        &state.symbols
    }

    /// Discretizes one window and applies numerosity reduction against the
    /// last word `state` kept. Returns the word's symbols when it is kept
    /// (it becomes the new reference), `None` when `nr` drops it. A fresh
    /// state keeps its first window; [`SaxConfig::discretize_into`] resets
    /// the kept word on entry, so each batch pass keeps its first window.
    pub fn next_word<'s>(
        &self,
        window: &[f64],
        nr: NumerosityReduction,
        state: &'s mut SaxScratch,
    ) -> Option<&'s [u8]> {
        self.symbolize(window, state);
        state.keep(nr)
    }

    /// Discretizes a single subsequence (of any length ≥ PAA size) into a
    /// SAX word. Used by tests and exploratory callers; the sliding-window
    /// path is [`SaxConfig::discretize`].
    pub fn word(&self, subsequence: &[f64]) -> Result<SaxWord> {
        if subsequence.is_empty() {
            return Err(Error::EmptyInput);
        }
        Ok(SaxWord::new(
            self.symbolize(subsequence, &mut SaxScratch::new()),
        ))
    }

    /// Runs the full sliding-window discretization with the given
    /// numerosity-reduction strategy (paper §3.1–3.2), producing the ordered
    /// list of `(word, offset)` records.
    ///
    /// # Errors
    /// [`Error::Window`] when the series is shorter than the window;
    /// [`Error::EmptyInput`] for an empty series.
    pub fn discretize(&self, values: &[f64], nr: NumerosityReduction) -> Result<Vec<SaxRecord>> {
        let mut records = Vec::new();
        self.discretize_into(
            values,
            nr,
            &NoopRecorder,
            &mut records,
            &mut SaxScratch::new(),
        )?;
        Ok(records)
    }

    /// [`SaxConfig::discretize`] writing into caller-owned buffers, with
    /// the window/word counters published to `recorder` in one bulk update
    /// after the loop. `records` is cleared and refilled; `state` is reset
    /// on entry, so the first window is always kept. Repeated calls
    /// through the same buffers (e.g. a detection workspace) allocate
    /// nothing once warm except one `SaxWord` per *kept* window, owned by
    /// its record. Timing is the caller's: the detection workspace wraps
    /// this call in its `discretize` span.
    ///
    /// Each window costs O(P): its mean, σ and segment sums come from
    /// prefix sums over a block of `W` windows, rebuilt in `state` around
    /// a block-local shift. A window whose symbols a written rounding
    /// bound cannot certify equal to [`SaxConfig::next_word`]'s runs that
    /// kernel instead and counts in [`Counter::WindowsFallback`], so every
    /// word is the one `next_word` would produce.
    ///
    /// # Errors
    /// Same as [`SaxConfig::discretize`].
    pub fn discretize_into<R: Recorder>(
        &self,
        values: &[f64],
        nr: NumerosityReduction,
        recorder: &R,
        records: &mut Vec<SaxRecord>,
        state: &mut SaxScratch,
    ) -> Result<()> {
        records.clear();
        if values.is_empty() {
            return Err(Error::EmptyInput);
        }
        if self.window > values.len() {
            return Err(Error::Window {
                window: self.window,
                series_len: values.len(),
            });
        }
        state.last.clear();
        state.symbols.resize(self.paa_size, 0);
        state.block.prepare(self.window, self.paa_size);
        let windows = values.len() - self.window + 1;
        let mut fallback = 0u64;
        for start in (0..windows).step_by(self.window) {
            let count = self.window.min(windows - start);
            state.block.rebuild(values, start, count + self.window - 1);
            for a in 0..count {
                let offset = start + a;
                if !state.block.symbols(
                    values,
                    a,
                    &self.alphabet,
                    self.znorm_threshold,
                    &mut state.symbols,
                ) {
                    fallback += 1;
                    self.symbolize(&values[offset..offset + self.window], state);
                }
                if let Some(symbols) = state.keep(nr) {
                    records.push(SaxRecord {
                        word: SaxWord::new(symbols),
                        offset,
                    });
                }
            }
        }
        let windows_processed = windows as u64;
        let words_emitted = records.len() as u64;
        recorder.add(Counter::WindowsProcessed, windows_processed);
        recorder.add(Counter::WordsEmitted, words_emitted);
        recorder.add(Counter::WordsDropped, windows_processed - words_emitted);
        recorder.add(Counter::WindowsFallback, fallback);
        Ok(())
    }
}

/// Whole-series SAX "by chunking": splits the series into
/// `values.len() / chunk` contiguous chunks and discretizes each into one
/// word. Not used by the anomaly pipeline (which needs sliding windows) but
/// part of the classic SAX toolkit and handy for exploratory summaries.
pub fn sax_by_chunking(
    values: &[f64],
    chunk: usize,
    paa_size: usize,
    alphabet_size: usize,
) -> Result<Vec<SaxRecord>> {
    if values.is_empty() {
        return Err(Error::EmptyInput);
    }
    if chunk == 0 || chunk > values.len() {
        return Err(Error::Window {
            window: chunk,
            series_len: values.len(),
        });
    }
    let cfg = SaxConfig::new(chunk, paa_size, alphabet_size)?;
    let mut state = SaxScratch::new();
    Ok(values
        .chunks_exact(chunk)
        .enumerate()
        .map(|(i, c)| SaxRecord {
            word: SaxWord::new(cfg.symbolize(c, &mut state)),
            offset: i * chunk,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn config_validation() {
        assert!(SaxConfig::new(0, 1, 3).is_err());
        assert!(SaxConfig::new(10, 0, 3).is_err());
        assert!(SaxConfig::new(10, 11, 3).is_err());
        assert!(SaxConfig::new(10, 5, 1).is_err());
        let cfg = SaxConfig::new(10, 5, 4).unwrap();
        assert_eq!(
            (cfg.window(), cfg.paa_size(), cfg.alphabet_size()),
            (10, 5, 4)
        );
    }

    #[test]
    fn word_of_monotone_ramp_is_sorted() {
        let cfg = SaxConfig::new(16, 4, 4).unwrap();
        let w = cfg.word(&ramp(16)).unwrap();
        // A rising ramp must produce non-decreasing symbols spanning the
        // alphabet: "abcd" for α=4, w=4.
        assert_eq!(w.to_letters(), "abcd");
    }

    #[test]
    fn constant_series_single_word_after_reduction() {
        let cfg = SaxConfig::new(8, 4, 4).unwrap();
        let values = vec![5.0; 64];
        let recs = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        assert_eq!(recs.len(), 1, "constant series collapses to one record");
        assert_eq!(recs[0].offset, 0);
        let no_nr = cfg.discretize(&values, NumerosityReduction::None).unwrap();
        assert_eq!(no_nr.len(), 64 - 8 + 1);
    }

    #[test]
    fn offsets_are_strictly_increasing_and_first_is_zero() {
        let values: Vec<f64> = (0..200).map(|i| (i as f64 / 7.0).sin()).collect();
        let cfg = SaxConfig::new(20, 5, 4).unwrap();
        for nr in [
            NumerosityReduction::None,
            NumerosityReduction::Exact,
            NumerosityReduction::MinDist,
        ] {
            let recs = cfg.discretize(&values, nr).unwrap();
            assert_eq!(recs[0].offset, 0);
            assert!(recs.windows(2).all(|p| p[0].offset < p[1].offset));
        }
    }

    #[test]
    fn exact_reduction_never_keeps_equal_neighbors() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 / 11.0).sin()).collect();
        let cfg = SaxConfig::new(30, 4, 3).unwrap();
        let recs = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        assert!(recs.windows(2).all(|p| p[0].word != p[1].word));
    }

    #[test]
    fn mindist_reduction_is_at_least_as_aggressive_as_exact() {
        let values: Vec<f64> = (0..500)
            .map(|i| (i as f64 / 13.0).sin() * (1.0 + i as f64 / 500.0))
            .collect();
        let cfg = SaxConfig::new(40, 6, 5).unwrap();
        let exact = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        let mdist = cfg
            .discretize(&values, NumerosityReduction::MinDist)
            .unwrap();
        let none = cfg.discretize(&values, NumerosityReduction::None).unwrap();
        assert!(mdist.len() <= exact.len());
        assert!(exact.len() <= none.len());
        assert_eq!(none.len(), values.len() - 40 + 1);
    }

    #[test]
    fn series_shorter_than_window_rejected() {
        let cfg = SaxConfig::new(100, 4, 4).unwrap();
        assert!(matches!(
            cfg.discretize(&ramp(50), NumerosityReduction::Exact),
            Err(Error::Window { .. })
        ));
        assert!(matches!(
            cfg.discretize(&[], NumerosityReduction::Exact),
            Err(Error::EmptyInput)
        ));
    }

    #[test]
    fn window_equal_series_gives_one_record() {
        let cfg = SaxConfig::new(32, 4, 4).unwrap();
        let recs = cfg
            .discretize(&ramp(32), NumerosityReduction::None)
            .unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn chunking_basic() {
        let recs = sax_by_chunking(&ramp(100), 10, 5, 4).unwrap();
        assert_eq!(recs.len(), 10);
        assert_eq!(recs[3].offset, 30);
        // Within each z-normalized rising chunk, symbols rise.
        assert_eq!(recs[0].word.to_letters(), recs[9].word.to_letters());
    }

    #[test]
    fn chunking_validation() {
        assert!(sax_by_chunking(&[], 4, 2, 3).is_err());
        assert!(sax_by_chunking(&ramp(10), 0, 2, 3).is_err());
        assert!(sax_by_chunking(&ramp(10), 11, 2, 3).is_err());
    }

    #[test]
    fn instrumented_discretize_matches_plain_and_counts() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 / 9.0).sin()).collect();
        let cfg = SaxConfig::new(24, 4, 4).unwrap();
        let (mut instrumented, mut state) = (Vec::new(), SaxScratch::new());
        for nr in [
            NumerosityReduction::None,
            NumerosityReduction::Exact,
            NumerosityReduction::MinDist,
        ] {
            let rec = gv_obs::LocalRecorder::new();
            let plain = cfg.discretize(&values, nr).unwrap();
            cfg.discretize_into(&values, nr, &rec, &mut instrumented, &mut state)
                .unwrap();
            assert_eq!(plain, instrumented);
            let windows = (300 - 24 + 1) as u64;
            assert_eq!(rec.counter(Counter::WindowsProcessed), windows);
            assert_eq!(rec.counter(Counter::WordsEmitted), plain.len() as u64);
            assert_eq!(
                rec.counter(Counter::WordsEmitted) + rec.counter(Counter::WordsDropped),
                windows
            );
            // Timing belongs to the caller's span, not the discretizer.
            assert!(rec.span_tree().is_empty());
        }
    }

    /// Runs `discretize_into` and a window-by-window `next_word` replay
    /// with no numerosity reduction; asserts they agree on every window
    /// and returns how many windows fell back to the two-pass kernel.
    fn fallbacks_matching_replay(cfg: &SaxConfig, values: &[f64]) -> u64 {
        let rec = gv_obs::LocalRecorder::new();
        let (mut batch, mut state) = (Vec::new(), SaxScratch::new());
        cfg.discretize_into(
            values,
            NumerosityReduction::None,
            &rec,
            &mut batch,
            &mut state,
        )
        .unwrap();
        let mut replay = SaxScratch::new();
        for (offset, window) in values.windows(cfg.window()).enumerate() {
            let kernel = cfg
                .next_word(window, NumerosityReduction::None, &mut replay)
                .unwrap();
            assert_eq!(batch[offset].word.symbols(), kernel, "window {offset}");
        }
        rec.counter(Counter::WindowsFallback)
    }

    #[test]
    fn knife_edge_windows_fall_back_and_match_the_kernel() {
        // Every PAA value exactly on the breakpoint 0 (α = 4): each
        // two-point segment of the ±1 alternation averages to the window
        // mean, on both branches of the σ threshold.
        let alternating: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let cfg = SaxConfig::new(8, 4, 4).unwrap();
        assert_eq!(fallbacks_matching_replay(&cfg, &alternating), 64 - 8 + 1);
        let tiny: Vec<f64> = alternating.iter().map(|x| 1e-3 * x).collect();
        assert_eq!(fallbacks_matching_replay(&cfg, &tiny), 64 - 8 + 1);

        // A PAA value on, one ulp above and one ulp below a breakpoint:
        // with every window unscaled (threshold 1e9) and one point per
        // segment, window [2p, 0] has the exact PAA value p.
        for alphabet in [3, 5, 8] {
            let cfg = SaxConfig::new(2, 2, alphabet)
                .unwrap()
                .with_znorm_threshold(1e9);
            let b = cfg.alphabet().breakpoints()[0];
            let mut values = Vec::new();
            for p in [b, b.next_up(), b.next_down()] {
                values.extend([2.0 * p, 0.0]);
            }
            // Windows [2p, 0] (offsets 0, 2, 4) sit on the knife edge;
            // the straddling windows [0, 2p'] do not.
            let fallbacks = fallbacks_matching_replay(&cfg, &values);
            assert!(fallbacks >= 3, "α = {alphabet}: {fallbacks} fallbacks");
        }

        // σ at the threshold: a window whose two-pass σ is exactly τ, and
        // τ one ulp either side of it.
        let values: Vec<f64> = (0..40).map(|i| (i as f64 / 3.0).sin()).collect();
        let sd = gv_timeseries::mean_std(&values[5..15]).1;
        for threshold in [sd, sd.next_up(), sd.next_down()] {
            let cfg = SaxConfig::new(10, 5, 3)
                .unwrap()
                .with_znorm_threshold(threshold);
            assert!(
                fallbacks_matching_replay(&cfg, &values) >= 1,
                "τ = {threshold}"
            );
        }
    }

    #[test]
    fn magnitudes_outside_the_rounding_model_fall_back() {
        // The rounding bound assumes every operation errs relatively:
        // near underflow the error of a product is absolute, and near
        // overflow sums and squares saturate. Neither range is certified.
        let cfg = SaxConfig::new(200, 5, 4).unwrap();
        let wave = |i: usize| (i as f64 / 7.0).sin();
        for scale in [1e300, 1e-310] {
            let values: Vec<f64> = (0..600).map(|i| scale * wave(i)).collect();
            assert_eq!(fallbacks_matching_replay(&cfg, &values), 401, "{scale:e}");
        }
    }

    #[test]
    fn well_conditioned_windows_take_the_block_path() {
        let values: Vec<f64> = (0..3000).map(|i| (i as f64 / 25.0).sin()).collect();
        let cfg = SaxConfig::new(100, 5, 4).unwrap();
        assert_eq!(fallbacks_matching_replay(&cfg, &values), 0);
        // The block path's scratch is O(W): it does not grow with the
        // series.
        let mut state = SaxScratch::new();
        let mut records = Vec::new();
        cfg.discretize_into(
            &values,
            NumerosityReduction::Exact,
            &NoopRecorder,
            &mut records,
            &mut state,
        )
        .unwrap();
        let [.., sum, sum_sq] = state.capacities();
        assert!(sum <= 2 * 100 && sum_sq <= 2 * 100, "{sum} {sum_sq}");
    }

    #[test]
    fn word_rejects_empty() {
        let cfg = SaxConfig::new(4, 2, 3).unwrap();
        assert!(matches!(cfg.word(&[]), Err(Error::EmptyInput)));
    }

    #[test]
    fn znorm_threshold_override() {
        // With a huge threshold the window is only mean-centered, not
        // scaled: the ramp's halves average to ∓2, landing in the outermost
        // α=4 regions (beyond ±0.67) → "ad". With normal scaling the PAA
        // values would be ±~0.87σ-normalized, giving the same letters here,
        // so also check a shallow ramp where scaling matters.
        let cfg = SaxConfig::new(8, 2, 4).unwrap().with_znorm_threshold(1e9);
        let w = cfg.word(&ramp(8)).unwrap();
        assert_eq!(w.to_letters(), "ad");
        // Shallow ramp 0..0.8: centered halves average ∓0.2 → inner regions.
        let shallow: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
        let w2 = cfg.word(&shallow).unwrap();
        assert_eq!(w2.to_letters(), "bc");
    }
}
