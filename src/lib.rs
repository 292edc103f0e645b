//! # grammarviz
//!
//! Facade crate for the grammarviz-rs workspace — a Rust reproduction of
//! *"Time series anomaly discovery with grammar-based compression"*
//! (Senin et al., EDBT 2015).
//!
//! Re-exports every workspace crate under one roof so applications can
//! depend on a single crate:
//!
//! ```
//! use grammarviz::core::{AnomalyPipeline, PipelineConfig};
//! use grammarviz::datasets;
//! use grammarviz::obs::NoopRecorder;
//!
//! let data = datasets::ecg::ecg0606(Default::default());
//! let pipeline = AnomalyPipeline::new(PipelineConfig::new(120, 4, 4).unwrap());
//! let values = data.series.values();
//! let report = pipeline.density_anomalies(values, 3, &NoopRecorder).unwrap();
//! assert!(!report.anomalies.is_empty());
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

/// Time-series substrate (series type, z-norm, windows, intervals, IO).
pub use gv_timeseries as timeseries;

/// SAX symbolic discretization.
pub use gv_sax as sax;

/// Sequitur grammar induction.
pub use gv_sequitur as sequitur;

/// Hilbert space-filling curve and trajectory transforms.
pub use gv_hilbert as hilbert;

/// Synthetic evaluation datasets with planted ground truth.
pub use gv_datasets as datasets;

/// Discord discovery substrate (brute force, HOTSAX, counted distances).
pub use gv_discord as discord;

/// The paper's contribution: rule-density and RRA anomaly discovery.
pub use gva_core as core;

/// Zero-overhead pipeline instrumentation (stage timers, counters, JSONL).
pub use gv_obs as obs;

/// Paper-invariant verification (Sequitur constraints, density recount,
/// RRA-vs-brute-force differential).
pub use gv_check as check;
