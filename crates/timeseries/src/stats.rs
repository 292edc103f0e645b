//! Descriptive statistics over `&[f64]` slices.
//!
//! These free functions are deliberately allocation-free and panic-free for
//! non-empty input; callers guard emptiness (the [`crate::TimeSeries`]
//! methods turn it into [`crate::Error::EmptySeries`]).

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation. Returns `NaN` for an empty slice.
pub fn std_dev(values: &[f64]) -> f64 {
    let (_, sd) = mean_std(values);
    sd
}

/// Mean and population standard deviation, shifted two-pass form.
///
/// The first pass computes the mean; the second accumulates squared
/// deviations *from that mean*. The naive one-pass
/// `var = E[x^2] - E[x]^2` form it replaces cancels catastrophically when
/// the mean dwarfs the spread (a series riding a 1e8 baseline with
/// unit-scale shape reports zero variance, and z-normalization silently
/// degrades to mean subtraction). Shifting first keeps every squared term
/// at the scale of the spread, so the variance survives arbitrary
/// baseline offsets. The zero clamp guards the residual rounding that can
/// still leave a tiny negative variance on constant data.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mut sum = 0.0;
    for &v in values {
        sum += v;
    }
    let m = sum / n;
    let mut sum_sq = 0.0;
    for &v in values {
        let d = v - m;
        sum_sq += d * d;
    }
    let var = (sum_sq / n).max(0.0);
    (m, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.0).abs() < 1e-12);
        let (m, s) = mean_std(&v);
        assert!((m - 5.0).abs() < 1e-12 && (s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices() {
        assert!(mean(&[]).is_nan());
        assert!(std_dev(&[]).is_nan());
    }

    #[test]
    fn constant_slice_has_zero_std() {
        let v = [3.0; 100];
        assert_eq!(std_dev(&v), 0.0);
    }

    /// The catastrophic-cancellation regression: a unit-scale shape on a
    /// 1e8 baseline. The old `E[x^2] - E[x]^2` form cancels below ulp and
    /// reports σ = 0; the shifted two-pass form must recover the same σ
    /// as the baseline-0 series to high relative accuracy.
    #[test]
    fn large_offset_preserves_std() {
        let base: Vec<f64> = (0..128).map(|i| (i as f64 * 0.37).sin()).collect();
        let offset: Vec<f64> = base.iter().map(|v| v + 1e8).collect();
        let (_, sd0) = mean_std(&base);
        let (m1, sd1) = mean_std(&offset);
        assert!(sd0 > 0.5, "baseline series should have unit-scale spread");
        assert!(
            sd1 > 0.0,
            "1e8-offset series reported zero std (cancellation regression)"
        );
        assert!(
            (sd1 - sd0).abs() / sd0 < 1e-6,
            "offset std {sd1} diverged from baseline std {sd0}"
        );
        assert!((m1 - 1e8).abs() < 1.0);
    }
}
