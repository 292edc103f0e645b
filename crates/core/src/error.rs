//! Error type for the anomaly pipeline.

use std::fmt;

/// Convenience alias used throughout `gva_core`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the grammar-driven anomaly pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A SAX/discretization parameter was invalid.
    Sax(String),
    /// The series is too short for the configured window.
    SeriesTooShort {
        /// Configured sliding-window length.
        window: usize,
        /// Actual series length.
        series_len: usize,
    },
    /// The grammar produced no usable anomaly candidates (e.g. the whole
    /// series collapsed to a single token).
    NoCandidates,
    /// A fixed-length baseline detector (brute force / HOTSAX) rejected its
    /// parameters.
    Discord(String),
    /// The input contains a NaN or infinite value. Non-finite inputs poison
    /// z-normalization, every distance, and the parallel ranking bound, so
    /// they are rejected before the pipeline runs.
    NonFiniteInput {
        /// Index of the first non-finite value.
        index: usize,
    },
    /// A configuration parameter was outside its documented domain (e.g.
    /// `k = 0` discords requested).
    InvalidParameter(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sax(msg) => write!(f, "discretization error: {msg}"),
            Error::SeriesTooShort { window, series_len } => write!(
                f,
                "series of length {series_len} is too short for window {window}"
            ),
            Error::NoCandidates => {
                write!(
                    f,
                    "the grammar yielded no anomaly candidates (series too regular \
                           or parameters too coarse)"
                )
            }
            Error::Discord(msg) => write!(f, "discord search error: {msg}"),
            Error::NonFiniteInput { index } => {
                write!(f, "non-finite value (NaN or infinity) at index {index}")
            }
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<gv_discord::Error> for Error {
    fn from(e: gv_discord::Error) -> Self {
        Error::Discord(e.to_string())
    }
}

impl From<gv_sax::Error> for Error {
    fn from(e: gv_sax::Error) -> Self {
        match e {
            // A zero window is a bad parameter, not a short series.
            gv_sax::Error::Window { window: 0, .. } => {
                Error::InvalidParameter("window must be at least 1".into())
            }
            gv_sax::Error::Window { window, series_len } => {
                Error::SeriesTooShort { window, series_len }
            }
            other => Error::Sax(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_messages() {
        let e: Error = gv_sax::Error::Window {
            window: 10,
            series_len: 5,
        }
        .into();
        assert_eq!(
            e,
            Error::SeriesTooShort {
                window: 10,
                series_len: 5
            }
        );
        assert!(e.to_string().contains("too short"));
        let zero: Error = gv_sax::Error::Window {
            window: 0,
            series_len: 0,
        }
        .into();
        assert!(zero.to_string().contains("window must be at least 1"));
        let s: Error = gv_sax::Error::AlphabetSize(1).into();
        assert!(matches!(s, Error::Sax(_)));
        assert!(Error::NoCandidates
            .to_string()
            .contains("no anomaly candidates"));
        let nf = Error::NonFiniteInput { index: 3 };
        assert!(nf.to_string().contains("non-finite"));
        assert!(nf.to_string().contains('3'));
        assert!(Error::InvalidParameter("k = 0".into())
            .to_string()
            .contains("k = 0"));
    }
}
