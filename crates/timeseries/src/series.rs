//! The [`TimeSeries`] container.

use crate::error::{Error, Result};
use crate::stats;

/// Index of the first non-finite (NaN or ±∞) value, if any.
///
/// Non-finite observations poison z-normalization (the window mean becomes
/// NaN) and every distance computed downstream, so loaders and detectors
/// reject them up front with [`Error::NonFiniteInput`].
pub fn find_non_finite(values: &[f64]) -> Option<usize> {
    values.iter().position(|v| !v.is_finite())
}

/// An immutable-by-convention univariate time series: scalar observations
/// ordered by time (paper §2, *Time series*).
///
/// The container is a thin, well-typed wrapper over `Vec<f64>` that carries
/// an optional name (used by dataset generators and reports) and offers the
/// subsequence/statistics operations the rest of the workspace relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from raw values with an empty name.
    pub fn new(values: Vec<f64>) -> Self {
        Self {
            name: String::new(),
            values,
        }
    }

    /// Creates a named series (dataset generators use the paper's names).
    pub fn named(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Creates a series from raw values, rejecting NaN/±∞ observations.
    ///
    /// # Errors
    /// [`Error::NonFiniteInput`] naming the first offending index.
    pub fn try_new(values: Vec<f64>) -> Result<Self> {
        match find_non_finite(&values) {
            Some(index) => Err(Error::NonFiniteInput { index }),
            None => Ok(Self::new(values)),
        }
    }

    /// The series name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the series name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw observations.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consume the series, returning the raw observations.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The subsequence `[start, start + len)` (paper §2, *Subsequence*).
    ///
    /// # Errors
    /// [`Error::WindowOutOfBounds`] when the requested range does not fit.
    pub fn subsequence(&self, start: usize, len: usize) -> Result<&[f64]> {
        crate::window::subsequence(&self.values, start, len)
    }

    /// Arithmetic mean of the whole series.
    ///
    /// # Errors
    /// [`Error::EmptySeries`] for an empty series.
    pub fn mean(&self) -> Result<f64> {
        if self.values.is_empty() {
            return Err(Error::EmptySeries);
        }
        Ok(stats::mean(&self.values))
    }

    /// Population standard deviation of the whole series.
    ///
    /// # Errors
    /// [`Error::EmptySeries`] for an empty series.
    pub fn std_dev(&self) -> Result<f64> {
        if self.values.is_empty() {
            return Err(Error::EmptySeries);
        }
        Ok(stats::std_dev(&self.values))
    }

    /// Iterator over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        TimeSeries::new(values)
    }
}

impl From<&[f64]> for TimeSeries {
    fn from(values: &[f64]) -> Self {
        TimeSeries::new(values.to_vec())
    }
}

impl std::ops::Index<usize> for TimeSeries {
    type Output = f64;
    fn index(&self, idx: usize) -> &f64 {
        &self.values[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let ts = TimeSeries::named("ecg", vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.name(), "ecg");
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts[1], 2.0);
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn statistics() {
        let ts = TimeSeries::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((ts.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((ts.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_errors() {
        let ts = TimeSeries::new(vec![]);
        assert!(ts.is_empty());
        assert!(matches!(ts.mean(), Err(Error::EmptySeries)));
        assert!(matches!(ts.std_dev(), Err(Error::EmptySeries)));
    }

    #[test]
    fn subsequence_bounds() {
        let ts = TimeSeries::new(vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(ts.subsequence(1, 2).unwrap(), &[1.0, 2.0]);
        assert!(ts.subsequence(3, 2).is_err());
        assert_eq!(ts.subsequence(0, 4).unwrap().len(), 4);
    }

    #[test]
    fn conversions_and_iter() {
        let ts: TimeSeries = vec![1.0, 2.0].into();
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs, vec![(0, 1.0), (1, 2.0)]);
        let ts2: TimeSeries = (&[3.0, 4.0][..]).into();
        assert_eq!(ts2.into_values(), vec![3.0, 4.0]);
    }

    #[test]
    fn non_finite_detection() {
        assert_eq!(find_non_finite(&[1.0, 2.0, 3.0]), None);
        assert_eq!(find_non_finite(&[1.0, f64::NAN, f64::INFINITY]), Some(1));
        assert_eq!(find_non_finite(&[f64::NEG_INFINITY]), Some(0));
        assert!(TimeSeries::try_new(vec![1.0, 2.0]).is_ok());
        assert!(matches!(
            TimeSeries::try_new(vec![1.0, f64::NAN]),
            Err(Error::NonFiniteInput { index: 1 })
        ));
    }

    #[test]
    fn rename() {
        let mut ts = TimeSeries::new(vec![1.0]);
        ts.set_name("power");
        assert_eq!(ts.name(), "power");
    }
}
