//! Linear resampling between subsequence lengths.
//!
//! RRA compares candidate subsequences of *different* lengths (paper §4.2):
//! before taking the length-normalized Euclidean distance of Eq. (1), the
//! match is linearly resampled onto the candidate's length so the
//! point-wise differences are defined.

/// Linearly interpolates `values` at fractional position `pos`
/// (`0.0 ..= values.len()-1`). Positions are clamped to the valid range.
fn lerp_at(values: &[f64], pos: f64) -> f64 {
    debug_assert!(!values.is_empty());
    if pos <= 0.0 {
        return values[0];
    }
    let last = (values.len() - 1) as f64;
    if pos >= last {
        return values[values.len() - 1];
    }
    // `pos` is strictly positive here, so the truncating cast IS the
    // floor — and unlike `f64::floor` it cannot fall back to a libm
    // call on baseline x86-64 (no SSE4.1 `roundsd`), which profiling
    // showed dominating the fused-kernel lerp.
    let i = pos as usize;
    let frac = pos - i as f64;
    values[i] * (1.0 - frac) + values[i + 1] * frac
}

/// A lazily resampled view of `values` at `target_len` points:
/// [`get`](Resampled::get) returns exactly the value [`resample_to`]
/// would have written at that output index — same formula, same
/// degenerate-case semantics, bit-identical — without materializing the
/// output. The distance kernel interpolates through this view chunk by
/// chunk, so an early-abandoned comparison only pays for the points it
/// actually consumed (DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
pub struct Resampled<'a> {
    values: &'a [f64],
    target_len: usize,
    scale: f64,
}

impl<'a> Resampled<'a> {
    /// A view of `values` resampled to `target_len` points.
    pub fn new(values: &'a [f64], target_len: usize) -> Self {
        let scale = if target_len > 1 && values.len() > 1 {
            (values.len() - 1) as f64 / (target_len - 1) as f64
        } else {
            0.0
        };
        Self {
            values,
            target_len,
            scale,
        }
    }

    /// The view's (output) length.
    pub fn len(&self) -> usize {
        self.target_len
    }

    /// Whether the view is zero-length.
    pub fn is_empty(&self) -> bool {
        self.target_len == 0
    }

    /// The value at output index `j` — bitwise what `resample_to` puts
    /// at `out[j]`, including the degenerate cases (empty input → 0.0,
    /// single-point input replicated, single-point target anchored at
    /// the first sample).
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        debug_assert!(j < self.target_len, "index {j} out of {}", self.target_len);
        if self.values.len() <= 1 || self.target_len == 1 {
            return self.values.first().copied().unwrap_or(0.0);
        }
        lerp_at(self.values, j as f64 * self.scale)
    }
}

/// Resamples `values` onto `out` by linear interpolation; `out.len()` is
/// the target length. For a target of two or more points the first and
/// last samples are preserved exactly.
///
/// An empty `out` is left alone, and an empty input fills `out` with
/// zeros. A single-point input is replicated. A single-point *target*
/// takes the **first** sample of the input: the output grid for
/// `out.len()` points anchors position 0 at the input's first sample, and
/// with one point the grid never advances. (The degenerate case cannot
/// honor both endpoints; anchoring at the first sample keeps the n→n
/// identity exact down to n = 1 and is pinned by test.)
///
/// ```
/// use gv_timeseries::resample_to;
/// let mut out = [0.0; 3];
/// resample_to(&[0.0, 2.0], &mut out);
/// assert_eq!(out, [0.0, 1.0, 2.0]);
/// ```
pub fn resample_to(values: &[f64], out: &mut [f64]) {
    if out.is_empty() {
        return;
    }
    if values.is_empty() {
        out.fill(0.0);
        return;
    }
    if values.len() == 1 {
        out.fill(values[0]);
        return;
    }
    if out.len() == 1 {
        // Pinned single-point-target semantics: the first sample (see
        // the docs above).
        out[0] = values[0];
        return;
    }
    // The general case shares its per-index formula with `Resampled`, so
    // the view and the materialized output agree to the bit.
    let view = Resampled::new(values, out.len());
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = lerp_at(values, j as f64 * view.scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `values` resampled into a fresh `target_len`-point vector.
    fn resampled(values: &[f64], target_len: usize) -> Vec<f64> {
        let mut out = vec![0.0; target_len];
        resample_to(values, &mut out);
        out
    }

    #[test]
    fn identity_when_lengths_match() {
        let v = [1.0, 5.0, -2.0, 0.5];
        assert_eq!(resampled(&v, 4), v.to_vec());
    }

    #[test]
    fn upsample_is_linear() {
        let out = resampled(&[0.0, 4.0], 5);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = resampled(&v, 10);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[9], 99.0);
        // Monotone input stays monotone under linear resampling.
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn degenerate_lengths() {
        assert!(resampled(&[1.0, 2.0], 0).is_empty());
        assert_eq!(resampled(&[], 3), vec![0.0; 3]);
        assert_eq!(resampled(&[7.0], 4), vec![7.0; 4]);
        assert_eq!(resampled(&[3.0, 9.0], 1), vec![3.0]);
    }

    /// Pins the documented single-point-target choice: the output is the
    /// input's *first* sample (not the midpoint, not the mean), for every
    /// input length — consistent with the n→n identity anchoring the
    /// output grid at position 0.
    #[test]
    fn single_point_target_takes_first_sample() {
        assert_eq!(resampled(&[3.0, 9.0], 1), vec![3.0]);
        assert_eq!(resampled(&[-1.5, 0.0, 8.0, 4.0], 1), vec![-1.5]);
        assert_eq!(resampled(&[7.0], 1), vec![7.0]);
        let long: Vec<f64> = (0..100).map(|i| i as f64 + 10.0).collect();
        assert_eq!(resampled(&long, 1), vec![10.0]);
    }

    /// The n→n identity is bit-exact (scale = 1.0, every fractional
    /// position lands on an integer), which lets distance paths skip the
    /// resample copy entirely when lengths already match.
    #[test]
    fn identity_is_bit_exact() {
        let v: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin() * 1e8).collect();
        let out = resampled(&v, 50);
        assert!(v.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// The lazy view is bitwise the materialized resample at every index,
    /// across upsampling, downsampling, identity, and every degenerate
    /// case `resample_to` defines.
    #[test]
    fn view_matches_resample_to_bitwise() {
        let src: Vec<f64> = (0..97).map(|i| (i as f64 * 0.31).sin() * 3.7).collect();
        for &(n, m) in &[
            (97usize, 300usize),
            (97, 97),
            (97, 13),
            (97, 1),
            (1, 5),
            (0, 4),
            (2, 2),
        ] {
            let input = &src[..n];
            let mut out = vec![0.0; m];
            resample_to(input, &mut out);
            let view = Resampled::new(input, m);
            assert_eq!(view.len(), m);
            for (j, &expect) in out.iter().enumerate() {
                assert_eq!(
                    view.get(j).to_bits(),
                    expect.to_bits(),
                    "({n} -> {m})[{j}]: view {} vs materialized {expect}",
                    view.get(j)
                );
            }
        }
        assert!(Resampled::new(&src, 0).is_empty());
    }

    #[test]
    fn roundtrip_preserves_linear_signal() {
        let v: Vec<f64> = (0..20).map(|i| 2.0 * i as f64 + 1.0).collect();
        let up = resampled(&v, 57);
        let back = resampled(&up, 20);
        for (a, b) in v.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
