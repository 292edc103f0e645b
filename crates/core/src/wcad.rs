//! WCAD — Window Comparison Anomaly Detection (Keogh, Lonardi &
//! Ratanamahatana, KDD'04), the compression-based prior work the paper
//! positions itself against (§6).
//!
//! WCAD slides a window across the (discretized) series and scores each
//! window by its *Compression Dissimilarity Measure* against the whole
//! sequence: `CDM(w, S) = C(wS) / (C(w) + C(S))`, where `C(·)` is the
//! size of a compressed representation. A window that compresses poorly
//! together with the rest of the data is anomalous.
//!
//! We use Sequitur's grammar size as the compressor — the same estimator
//! of Kolmogorov complexity the main pipeline relies on — which gives a
//! faithful, dependency-free reimplementation. The paper's critique is
//! visible in the API: WCAD re-runs the compressor once per window
//! (expensive) and needs the window size to be the anomaly size, whereas
//! the rule-density curve gets the same signal from *one* compression
//! pass and no length assumption.

use gv_sax::{sax_by_chunking, SaxDictionary};
use gv_sequitur::Sequitur;
use gv_timeseries::Interval;

use crate::error::{Error, Result};

/// One scored window.
#[derive(Debug, Clone, PartialEq)]
pub struct WcadScore {
    /// The window.
    pub interval: Interval,
    /// The CDM score (higher = more anomalous).
    pub cdm: f64,
}

/// WCAD parameters.
#[derive(Debug, Clone)]
pub struct WcadConfig {
    /// Window length — unlike the grammar detectors, this must match the
    /// anomaly length for good results (the paper's point).
    pub window: usize,
    /// SAX chunk size used to tokenize data before compression.
    pub chunk: usize,
    /// PAA size per chunk.
    pub paa: usize,
    /// Alphabet size.
    pub alphabet: usize,
}

impl WcadConfig {
    /// A reasonable default tokenizer for the given window.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            chunk: (window / 8).max(4),
            paa: 4,
            alphabet: 4,
        }
    }
}

/// Grammar size of a token stream (our `C(·)`), with a +1 floor so empty
/// streams don't divide by zero.
fn compressed_size(tokens: &[u32]) -> f64 {
    let g = Sequitur::induce(tokens.iter().copied());
    g.grammar_size().max(1) as f64
}

/// Scores every non-overlapping window of the series by CDM against the
/// whole sequence, highest score first.
///
/// # Errors
/// [`Error::NonFiniteInput`] for NaN/±∞ values;
/// [`Error::Sax`] for bad tokenizer parameters;
/// [`Error::SeriesTooShort`] when not even one window fits.
pub fn wcad_scores(values: &[f64], config: &WcadConfig) -> Result<Vec<WcadScore>> {
    crate::engine::check_finite(values)?;
    if values.len() < config.window || config.window == 0 {
        return Err(Error::SeriesTooShort {
            window: config.window,
            series_len: values.len(),
        });
    }
    // Tokenize the whole series once (chunked SAX, as WCAD tokenizes its
    // input before running the off-the-shelf compressor).
    let records = sax_by_chunking(values, config.chunk, config.paa, config.alphabet)?;
    let mut dict = SaxDictionary::new();
    let tokens: Vec<u32> = records.iter().map(|r| dict.intern(&r.word)).collect();
    let chunks_per_window = (config.window / config.chunk).max(1);

    let mut scores = Vec::new();
    let mut start_chunk = 0;
    while start_chunk + chunks_per_window <= tokens.len() {
        let end_chunk = start_chunk + chunks_per_window;
        let w = &tokens[start_chunk..end_chunk];
        // Compare the window against the series *without* it: a normal
        // window shares structure with the rest (C(w·rest) ≪ C(w)+C(rest)),
        // an anomalous one doesn't.
        let mut rest = Vec::with_capacity(tokens.len() - w.len());
        rest.extend_from_slice(&tokens[..start_chunk]);
        rest.extend_from_slice(&tokens[end_chunk..]);
        let mut concat = Vec::with_capacity(tokens.len());
        concat.extend_from_slice(w);
        concat.extend_from_slice(&rest);
        let cdm = compressed_size(&concat) / (compressed_size(w) + compressed_size(&rest));
        scores.push(WcadScore {
            interval: Interval::with_len(start_chunk * config.chunk, config.window),
            cdm,
        });
        start_chunk += chunks_per_window;
    }
    scores.sort_by(|a, b| b.cdm.total_cmp(&a.cdm));
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted() -> (Vec<f64>, Interval) {
        // Period 64 = 4 chunks of 16: the tokenized stream is periodic, so
        // normal windows compress against the rest. (WCAD's chunked
        // tokenization needs phase-aligned repetition — one of the
        // sensitivities the grammar pipeline's sliding window avoids.)
        let mut v: Vec<f64> = (0..4000)
            .map(|i| (i as f64 * std::f64::consts::TAU / 64.0).sin())
            .collect();
        for (i, x) in v[2048..2176].iter_mut().enumerate() {
            *x = ((i / 10) % 2) as f64 - 0.5; // square-ish interruption
        }
        (v, Interval::new(2048, 2176))
    }

    #[test]
    fn finds_planted_anomaly_with_matching_window() {
        let (v, truth) = planted();
        let scores = wcad_scores(&v, &WcadConfig::new(128)).unwrap();
        assert!(!scores.is_empty());
        // Highest-CDM window overlaps the plant (allow the runner-up: CDM
        // is a coarse measure).
        let top2_hit = scores.iter().take(2).any(|s| s.interval.overlaps(&truth));
        assert!(
            top2_hit,
            "top windows: {:?}",
            &scores[..3.min(scores.len())]
        );
    }

    #[test]
    fn scores_sorted_descending_and_cover_series() {
        let (v, _) = planted();
        let cfg = WcadConfig::new(128);
        let scores = wcad_scores(&v, &cfg).unwrap();
        for w in scores.windows(2) {
            assert!(w[0].cdm >= w[1].cdm);
        }
        for s in &scores {
            assert_eq!(s.interval.len(), cfg.window);
            assert!(s.interval.end <= v.len());
        }
    }

    #[test]
    fn non_finite_input_rejected() {
        let mut v: Vec<f64> = (0..2000).map(|i| (i as f64 / 16.0).sin()).collect();
        v[1000] = f64::NAN;
        assert_eq!(
            wcad_scores(&v, &WcadConfig::new(128)),
            Err(Error::NonFiniteInput { index: 1000 })
        );
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(matches!(
            wcad_scores(&[1.0; 10], &WcadConfig::new(128)),
            Err(Error::SeriesTooShort { .. })
        ));
    }

    #[test]
    fn anomalous_window_scores_higher_than_regular() {
        let (v, truth) = planted();
        let scores = wcad_scores(&v, &WcadConfig::new(128)).unwrap();
        let hit_score = scores
            .iter()
            .filter(|s| s.interval.overlaps(&truth))
            .map(|s| s.cdm)
            .fold(f64::NEG_INFINITY, f64::max);
        let median = {
            let mut all: Vec<f64> = scores.iter().map(|s| s.cdm).collect();
            all.sort_by(f64::total_cmp);
            all[all.len() / 2]
        };
        assert!(
            hit_score > median,
            "anomalous window CDM {hit_score} not above median {median}"
        );
    }
}
