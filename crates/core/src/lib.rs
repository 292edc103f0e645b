//! # gv-core (`gva_core`)
//!
//! The EDBT'15 paper's contribution: grammar-driven, variable-length time
//! series anomaly discovery.
//!
//! The pipeline (paper §3–4):
//!
//! 1. **Discretize** the series with sliding-window SAX + numerosity
//!    reduction (`gv-sax`), keeping each word's offset;
//! 2. **Induce** a context-free grammar over the word stream with Sequitur
//!    (`gv-sequitur`); rules map back to variable-length raw subsequences
//!    through the saved offsets ([`GrammarModel`]);
//! 3. Detect anomalies two ways:
//!    * [`RuleDensity`] (§4.1) — count rule occurrences spanning each
//!      point; minima are algorithmically incompressible → anomalous.
//!      Linear time/space, no distance computation at all.
//!    * [`rra`] (§4.2) — the **Rare Rule Anomaly** algorithm: an exact,
//!      HOTSAX-style discord search over the grammar's rule intervals,
//!      outer loop ordered by ascending rule frequency, inner loop visiting
//!      same-rule siblings first, distances length-normalized (Eq. 1).
//!
//! Companion modules extend the paper: [`mod@motifs`] (the inverse problem —
//! recurrent variable-length patterns), [`StreamingDetector`] (the §7
//! future-work online mode), [`sweep`] (the Figure 10 parameter-robustness
//! study, with a parallel runner), [`prune`] (GrammarViz 2.0 rule
//! pruning), [`wcad`] (the §6 compression-dissimilarity baseline),
//! [`evaluation`] (precision/recall against labelled ground truth), and
//! [`viz`] (text-mode rendering of the GUI panes).
//!
//! The [`engine`] module is the execution layer on top of all of this:
//! every algorithm (RRA, density, brute force, HOTSAX) implements the
//! object-safe [`Detector`] trait, scratch buffers live in a reusable
//! [`Workspace`], and [`EngineConfig`] selects the worker-thread count
//! for RRA's parallel outer loop — whose ranked discords are
//! bit-identical for any thread count.
//!
//! ```
//! use gva_core::obs::NoopRecorder;
//! use gva_core::{AnomalyPipeline, PipelineConfig};
//!
//! // A sine with a planted distortion.
//! let mut values: Vec<f64> = (0..2000).map(|i| (i as f64 / 20.0).sin()).collect();
//! for (i, v) in values[1000..1060].iter_mut().enumerate() { *v = (i as f64 / 4.0).sin() * 0.3; }
//!
//! let pipeline = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
//! let density = pipeline.density_anomalies(&values, 1, &NoopRecorder).unwrap();
//! assert!(!density.anomalies.is_empty());
//! let rra = pipeline.rra_discords(&values, 1, &NoopRecorder).unwrap();
//! assert!(!rra.discords.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod density;
pub mod engine;
mod error;
pub mod evaluation;
mod explain;
mod intervals;
mod model;
pub mod motifs;
mod pipeline;
pub mod prune;
pub mod rra;
mod streaming;
pub mod sweep;
pub mod viz;
pub mod wcad;
mod workspace;

pub use config::PipelineConfig;
pub use density::{DensityAnomaly, DensityReport, RuleDensity};
pub use engine::{
    Anomaly, BruteForceDetector, DensityDetector, Detail, Detector, EngineConfig, HotSaxDetector,
    Report, RraDetector, SeriesView,
};
pub use error::{Error, Result};
pub use explain::{DiscordProvenance, ExplainReport};
pub use intervals::{rule_intervals, search_candidates, RuleInterval};
pub use model::GrammarModel;
pub use motifs::{motifs, Motif};
pub use pipeline::AnomalyPipeline;
pub use rra::{nn_distance_profile, reference_nn, reference_rank, RraReport, SearchOptions};
pub use streaming::StreamingDetector;
pub use workspace::Workspace;

/// Re-export of the observability crate, so downstream users can build
/// recorders and traces without naming `gv-obs` directly.
pub use gv_obs as obs;
