//! # gv-timeseries
//!
//! Time-series substrate for the grammarviz-rs workspace: the [`TimeSeries`]
//! container, z-normalization, subsequence extraction, interval algebra,
//! descriptive statistics, linear resampling, and CSV input/output.
//!
//! Everything in the EDBT'15 reproduction builds on this crate: SAX
//! discretization z-normalizes sliding windows, grammar rules map back to
//! [`Interval`]s of the raw series, and the rule-density curve is assembled
//! with [`CoverageCounter`].
//!
//! ## Quick example
//!
//! ```
//! use gv_timeseries::{TimeSeries, znorm};
//!
//! let ts = TimeSeries::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
//! assert_eq!(ts.len(), 5);
//! let z = znorm(ts.values(), 1e-8);
//! assert!(z.iter().sum::<f64>().abs() < 1e-9); // zero mean
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod coverage;
mod error;
mod interval;
mod io;
mod period;
mod resample;
mod series;
mod series_stats;
mod stats;
mod window;
mod znorm;

pub use coverage::CoverageCounter;
pub use error::{Error, Result};
pub use interval::{merge_intervals, Interval};
pub use io::{read_csv_column, read_csv_column_reader, write_csv_column, write_csv_columns};
pub use period::{autocorrelation, dominant_period, suggest_window};
pub use resample::{resample_to, Resampled};
pub use series::{find_non_finite, TimeSeries};
pub use series_stats::SeriesStats;
pub use stats::{mean, mean_std, std_dev};
pub use window::subsequence;
pub use znorm::{znorm, znorm_into, DEFAULT_ZNORM_THRESHOLD};
