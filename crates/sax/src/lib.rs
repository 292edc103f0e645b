//! # gv-sax
//!
//! Symbolic Aggregate approXimation (SAX, Lin et al. 2002/2007) — the
//! discretization front-end of the EDBT'15 grammar-based anomaly pipeline
//! (paper §3.1–3.2).
//!
//! The crate provides:
//!
//! * Gaussian equiprobable **breakpoints** for any alphabet size
//!   ([`Alphabet`], computed from the exact normal quantile function rather
//!   than a hard-coded table);
//! * **PAA** (Piecewise Aggregate Approximation), including the fractional
//!   scheme for window lengths not divisible by the PAA size ([`paa`]);
//! * [`SaxWord`] encoding plus the lower-bounding **MINDIST** between words;
//! * one **discretizer**: a window kernel plus the paper's *numerosity
//!   reduction* state ([`SaxScratch`], [`NumerosityReduction`]), driven
//!   over a whole series by [`SaxConfig::discretize`] (`(word, offset)`
//!   records) or one window at a time by [`SaxConfig::next_word`] — the
//!   streaming detector's path. The whole-series pass reads each window
//!   in O(P) from prefix sums over a block of `W` windows and keeps those
//!   symbols only where a written rounding bound certifies them equal to
//!   the window kernel's; any other window runs the kernel and counts in
//!   `windows_fallback`. Stream and batch words therefore agree bit for
//!   bit;
//! * a [`SaxDictionary`] interning words into dense `u32` tokens for the
//!   grammar-induction stage.
//!
//! ```
//! use gv_sax::{NumerosityReduction, SaxConfig};
//!
//! let values: Vec<f64> = (0..64).map(|i| (i as f64 / 8.0).sin()).collect();
//! let cfg = SaxConfig::new(16, 4, 4).unwrap();
//! let records = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
//! assert!(!records.is_empty());
//! assert_eq!(records[0].offset, 0);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

mod alphabet;
mod block;
mod dictionary;
mod discretize;
mod error;
mod mindist;
mod paa;
mod word;

pub use alphabet::{Alphabet, MAX_ALPHABET, MIN_ALPHABET};
pub use dictionary::SaxDictionary;
pub use discretize::{sax_by_chunking, NumerosityReduction, SaxConfig, SaxRecord, SaxScratch};
pub use error::{Error, Result};
pub use mindist::{mindist, mindist_is_zero};
pub use paa::{paa, reconstruction_error};
pub use word::SaxWord;
