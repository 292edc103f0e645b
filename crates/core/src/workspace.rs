//! Reusable scratch state for the execution engine.
//!
//! A [`Workspace`] owns every buffer the detectors need between calls —
//! SAX discretizer state, the SAX record list, the interning dictionary, the
//! token stream, the RRA candidate list and search buffers, and the
//! baseline detectors' scratch. Repeated detection through one workspace
//! (streaming re-detection, sweep grids, ensemble-style multi-config
//! runs) stops re-allocating once the buffers have warmed up to the
//! largest series seen; [`Workspace::capacity_signature`] exposes the
//! buffer capacities so tests can assert that stability.
//!
//! Outputs (the [`GrammarModel`], reports, discord lists) still allocate —
//! they outlive the call by design. Model building *round-trips* its two
//! big buffers through the workspace: [`Workspace::build_model`] moves the
//! record list and dictionary into the returned model, and
//! [`Workspace::recycle_model`] takes them back (cleared, capacity
//! retained) when a detector is done with the model.

use gv_discord::HotSaxScratch;
use gv_obs::{Counter, Recorder, SpanTimer, Stage};
use gv_sax::{SaxDictionary, SaxRecord, SaxScratch};
use gv_sequitur::Sequitur;

use crate::config::PipelineConfig;
use crate::error::Result;
use crate::intervals::RuleInterval;
use crate::model::GrammarModel;
use crate::rra::RraScratch;

/// Reusable scratch buffers for every detector (see the module docs).
#[derive(Debug, Default)]
pub struct Workspace {
    // Model building.
    pub(crate) sax: SaxScratch,
    pub(crate) records: Vec<SaxRecord>,
    pub(crate) tokens: Vec<u32>,
    pub(crate) dictionary: SaxDictionary,
    // RRA.
    pub(crate) candidates: Vec<RuleInterval>,
    pub(crate) rra: RraScratch,
    // Baselines.
    pub(crate) normed: Vec<f64>,
    pub(crate) hotsax: HotSaxScratch,
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs discretization and grammar induction through the workspace
    /// buffers, producing the [`GrammarModel`] the detectors consume. The
    /// record list and dictionary move into the model; hand the model back
    /// via [`Workspace::recycle_model`] when done to keep their capacity.
    ///
    /// # Errors
    /// [`crate::Error::NonFiniteInput`] for NaN/±∞ values; discretization
    /// errors (window too long, etc.).
    pub fn build_model<R: Recorder>(
        &mut self,
        config: &PipelineConfig,
        values: &[f64],
        recorder: &R,
    ) -> Result<GrammarModel> {
        crate::engine::check_finite(values)?;
        let disc = SpanTimer::start(recorder, Stage::Discretize);
        config.sax().discretize_into(
            values,
            config.numerosity_reduction(),
            recorder,
            &mut self.records,
            &mut self.sax,
        )?;
        disc.finish(recorder);
        let records = std::mem::take(&mut self.records);
        let mut dictionary = std::mem::take(&mut self.dictionary);
        let tokens = &mut self.tokens;
        tokens.clear();
        let intern = SpanTimer::start(recorder, Stage::Intern);
        tokens.extend(records.iter().map(|rec| dictionary.intern(&rec.word)));
        intern.finish(recorder);
        let induce = SpanTimer::start(recorder, Stage::Induce);
        let grammar = {
            let mut seq = Sequitur::new();
            for &tok in tokens.iter() {
                seq.push(tok);
            }
            let stats = seq.stats();
            recorder.add(Counter::RulesCreated, stats.rules_created);
            recorder.add(Counter::RulesDeleted, stats.rules_deleted);
            recorder.update_max(Counter::PeakDigramEntries, stats.peak_digram_entries);
            seq.finish()
        };
        induce.finish(recorder);
        Ok(GrammarModel {
            grammar,
            records,
            dictionary,
            series_len: values.len(),
            window: config.window(),
        })
    }

    /// Takes a model's record list and dictionary back into the workspace
    /// (cleared, capacity retained) so the next [`Workspace::build_model`]
    /// call does not re-allocate them.
    pub fn recycle_model(&mut self, model: GrammarModel) {
        self.records = model.records;
        self.records.clear();
        self.dictionary = model.dictionary;
        self.dictionary.clear();
    }

    /// Capacities of every workspace-owned buffer, in a fixed order, for
    /// allocation-stability assertions: after a warm-up call, repeated
    /// detection on same-shaped input must leave this signature unchanged.
    pub fn capacity_signature(&self) -> Vec<usize> {
        let mut sig = vec![
            self.records.capacity(),
            self.tokens.capacity(),
            self.dictionary.capacity(),
            self.candidates.capacity(),
            self.normed.capacity(),
        ];
        sig.extend(self.sax.capacities());
        sig.extend(self.rra.capacity_signature());
        sig.extend(self.hotsax.capacities());
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::NoopRecorder;

    fn series() -> Vec<f64> {
        let mut v: Vec<f64> = (0..1500).map(|i| (i as f64 / 18.0).sin()).collect();
        for (i, x) in v[700..760].iter_mut().enumerate() {
            *x = 0.3 * (i as f64 / 4.0).cos();
        }
        v
    }

    #[test]
    fn build_model_matches_pipeline_model() {
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let v = series();
        let mut ws = Workspace::new();
        let a = ws.build_model(&config, &v, &NoopRecorder).unwrap();
        let b = crate::pipeline::AnomalyPipeline::new(config.clone())
            .model(&v, &NoopRecorder)
            .unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.grammar.grammar_size(), b.grammar.grammar_size());
        assert_eq!(a.dictionary.len(), b.dictionary.len());
        assert_eq!((a.series_len, a.window), (b.series_len, b.window));
    }

    #[test]
    fn build_model_rejects_non_finite_values() {
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let mut v = series();
        v[42] = f64::NEG_INFINITY;
        let mut ws = Workspace::new();
        let err = ws.build_model(&config, &v, &NoopRecorder).unwrap_err();
        assert_eq!(err, crate::Error::NonFiniteInput { index: 42 });
    }

    #[test]
    fn model_round_trip_keeps_buffer_capacity() {
        let config = PipelineConfig::new(80, 4, 4).unwrap();
        let v = series();
        let mut ws = Workspace::new();
        // Warm up.
        let m = ws.build_model(&config, &v, &NoopRecorder).unwrap();
        ws.recycle_model(m);
        let sig = ws.capacity_signature();
        for _ in 0..3 {
            let m = ws.build_model(&config, &v, &NoopRecorder).unwrap();
            ws.recycle_model(m);
            assert_eq!(sig, ws.capacity_signature(), "workspace buffers grew");
        }
    }
}
