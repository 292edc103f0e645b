//! # gv-datasets
//!
//! Seeded synthetic analogues of the evaluation datasets from the EDBT'15
//! paper, each with *planted, labelled ground-truth anomalies*.
//!
//! The paper evaluates on proprietary/archival recordings (PhysioNet ECG,
//! Dutch power demand, NASA shuttle telemetry, a surveillance video trace,
//! respiration records, and a private GPS trail). This crate substitutes
//! generators that reproduce each dataset's *structure* — the regularities
//! Sequitur must learn and the kind of irregularity each anomaly
//! introduces — so every experiment exercises the same code paths as the
//! originals (see DESIGN.md §4 for the substitution table).
//!
//! All generators take a seed and are fully deterministic.
//!
//! ```
//! use gv_datasets::ecg::{ecg0606, EcgParams};
//!
//! let data = ecg0606(EcgParams::default());
//! assert_eq!(data.series.len(), 2300);
//! assert_eq!(data.anomalies.len(), 1); // one premature beat
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod dataset;
mod noise;

pub mod ecg;
pub mod power;
pub mod respiration;
pub mod table1;
pub mod telemetry;
pub mod trajectory;
pub mod video;

pub use dataset::{Dataset, LabeledAnomaly};
pub use noise::Gaussian;
