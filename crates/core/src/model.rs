//! The grammar model: discretization records + induced grammar + the
//! token ↔ series mapping (paper §3.4).

use gv_sax::{SaxDictionary, SaxRecord};
use gv_sequitur::{Grammar, RuleOccurrence};
use gv_timeseries::Interval;

/// Everything the two detection algorithms need: the induced grammar, the
/// surviving (post numerosity reduction) SAX records with their offsets,
/// and the word dictionary.
#[derive(Debug, Clone)]
pub struct GrammarModel {
    /// The induced grammar (R0 spans all surviving tokens).
    pub grammar: Grammar,
    /// Surviving discretization records, in order; record `i` is input
    /// token `i` of the grammar.
    pub records: Vec<SaxRecord>,
    /// Word ↔ token dictionary.
    pub dictionary: SaxDictionary,
    /// Original series length.
    pub series_len: usize,
    /// Sliding-window length used for discretization.
    pub window: usize,
}

impl GrammarModel {
    /// Number of surviving tokens (the grammar's input length).
    pub fn num_tokens(&self) -> usize {
        self.records.len()
    }

    /// Maps a token span `[token_start, token_start + token_len)` to the
    /// raw-series interval it covers: from the first word's offset to the
    /// last word's offset plus the window (clamped to the series end).
    ///
    /// This is the paper's §3.4 rule-to-subsequence mapping, which is what
    /// makes discovered anomalies variable-length.
    ///
    /// # Panics
    /// Panics on an empty span or out-of-range tokens.
    pub fn token_span_to_interval(&self, token_start: usize, token_len: usize) -> Interval {
        // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an empty token span is a caller bug
        assert!(token_len > 0, "empty token span");
        let start = self.records[token_start].offset;
        let last = self.records[token_start + token_len - 1].offset;
        Interval::new(start, (last + self.window).min(self.series_len))
    }

    /// The series interval covered by one rule occurrence.
    pub fn occurrence_interval(&self, occ: &RuleOccurrence) -> Interval {
        self.token_span_to_interval(occ.token_start, occ.token_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_sax::SaxWord;
    use gv_sequitur::Sequitur;

    fn model() -> GrammarModel {
        // Tokens 0 1 0 1 at offsets 0, 7, 20, 27 of a series of length 40,
        // window 10.
        let mut dictionary = SaxDictionary::new();
        let wa = SaxWord::from_letters("ab").unwrap();
        let wb = SaxWord::from_letters("ba").unwrap();
        dictionary.intern(&wa);
        dictionary.intern(&wb);
        let records = vec![
            SaxRecord {
                word: wa.clone(),
                offset: 0,
            },
            SaxRecord {
                word: wb.clone(),
                offset: 7,
            },
            SaxRecord {
                word: wa,
                offset: 20,
            },
            SaxRecord {
                word: wb,
                offset: 27,
            },
        ];
        let grammar = Sequitur::induce([0u32, 1, 0, 1]);
        GrammarModel {
            grammar,
            records,
            dictionary,
            series_len: 40,
            window: 10,
        }
    }

    #[test]
    fn span_mapping() {
        let m = model();
        // Tokens 0..2 → [0, 7 + 10) = [0, 17).
        assert_eq!(m.token_span_to_interval(0, 2), Interval::new(0, 17));
        // Single token 2 → [20, 30).
        assert_eq!(m.token_span_to_interval(2, 1), Interval::new(20, 30));
        // Span reaching the series end clamps.
        assert_eq!(m.token_span_to_interval(2, 2), Interval::new(20, 37));
    }

    #[test]
    fn occurrence_intervals_from_real_grammar() {
        let m = model();
        let occs = m.grammar.occurrences();
        // abab → R1 R1 with R1 = (0 1): occurrences at tokens 0 and 2.
        assert_eq!(occs.len(), 2);
        assert_eq!(m.occurrence_interval(&occs[0]), Interval::new(0, 17));
        assert_eq!(m.occurrence_interval(&occs[1]), Interval::new(20, 37));
    }

    #[test]
    #[should_panic(expected = "empty token span")]
    fn empty_span_panics() {
        model().token_span_to_interval(0, 0);
    }
}
