//! Z-normalization (paper §2).
//!
//! Brings a subsequence to zero mean and unit standard deviation. Following
//! the SAX literature (and the original GrammarViz implementation), when the
//! standard deviation falls below a small threshold the subsequence is
//! treated as constant: only the mean is subtracted. Dividing by a
//! near-zero σ would amplify quantization noise into spurious shape.

use crate::stats::mean_std;

/// Default σ threshold below which a subsequence is considered constant.
///
/// Matches the `0.01` normalization threshold used by GrammarViz/jmotif.
pub const DEFAULT_ZNORM_THRESHOLD: f64 = 0.01;

/// Z-normalizes `values` into a fresh vector.
///
/// When the population standard deviation is `< threshold`, only the mean is
/// subtracted (the result is all-zeros for a truly constant input).
///
/// ```
/// use gv_timeseries::znorm;
/// let z = znorm(&[1.0, 2.0, 3.0], 1e-8);
/// assert!(z.iter().sum::<f64>().abs() < 1e-12);
/// ```
pub fn znorm(values: &[f64], threshold: f64) -> Vec<f64> {
    let mut out = vec![0.0; values.len()];
    znorm_into(values, threshold, &mut out);
    out
}

/// Z-normalizes `values` into the caller-provided buffer `out`.
///
/// Allocation-free variant for hot paths (sliding-window discretization and
/// distance computation z-normalize millions of windows).
///
/// # Panics
/// Panics when `out.len() != values.len()`.
pub fn znorm_into(values: &[f64], threshold: f64, out: &mut [f64]) {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: a mismatched output buffer is a caller bug
    assert_eq!(
        values.len(),
        out.len(),
        "znorm_into: buffer length mismatch"
    );
    if values.is_empty() {
        return;
    }
    let (m, sd) = mean_std(values);
    znorm_with_into(values, m, sd, threshold, out);
}

/// Z-normalizes `values` into `out` using caller-supplied statistics.
///
/// The arithmetic is bit-identical to [`znorm_into`] given the same
/// `(mean, std_dev)` pair — this is the seam that lets
/// [`crate::SeriesStats`] (O(1) prefix-sum window statistics) and the
/// two-pass [`mean_std`] share one normalization kernel, so every
/// distance path in the system z-normalizes the same way regardless of
/// where the statistics came from.
///
/// # Panics
/// Panics when `out.len() != values.len()`.
pub(crate) fn znorm_with_into(
    values: &[f64],
    mean: f64,
    std_dev: f64,
    threshold: f64,
    out: &mut [f64],
) {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: a mismatched output buffer is a caller bug
    assert_eq!(
        values.len(),
        out.len(),
        "znorm_with_into: buffer length mismatch"
    );
    if std_dev < threshold {
        for (o, &v) in out.iter_mut().zip(values) {
            *o = v - mean;
        }
    } else {
        let inv = 1.0 / std_dev;
        for (o, &v) in out.iter_mut().zip(values) {
            *o = (v - mean) * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    #[test]
    fn znorm_zero_mean_unit_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let z = znorm(&v, DEFAULT_ZNORM_THRESHOLD);
        assert!(mean(&z).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_input_becomes_zeros() {
        let v = [5.0; 10];
        let z = znorm(&v, DEFAULT_ZNORM_THRESHOLD);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn near_constant_input_is_centered_not_scaled() {
        // σ ≈ 0.001 < 0.01 threshold: subtract mean only.
        let v = [1.0, 1.002, 0.998, 1.0];
        let z = znorm(&v, DEFAULT_ZNORM_THRESHOLD);
        assert!(mean(&z).abs() < 1e-12);
        // Values stay tiny rather than exploding to ±1-ish.
        assert!(z.iter().all(|&x| x.abs() < 0.01));
    }

    #[test]
    fn empty_input_ok() {
        assert!(znorm(&[], DEFAULT_ZNORM_THRESHOLD).is_empty());
    }

    #[test]
    fn preserves_shape_ordering() {
        let v = [1.0, 3.0, 2.0, 5.0];
        let z = znorm(&v, DEFAULT_ZNORM_THRESHOLD);
        assert!(z[0] < z[2] && z[2] < z[1] && z[1] < z[3]);
    }

    #[test]
    fn with_into_matches_into_bit_for_bit() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let z = znorm(&v, DEFAULT_ZNORM_THRESHOLD);
        let (m, sd) = crate::stats::mean_std(&v);
        let mut z2 = vec![0.0; v.len()];
        znorm_with_into(&v, m, sd, DEFAULT_ZNORM_THRESHOLD, &mut z2);
        assert!(z.iter().zip(&z2).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn into_buffer_length_checked() {
        let mut out = vec![0.0; 3];
        znorm_into(&[1.0, 2.0], 0.01, &mut out);
    }
}
