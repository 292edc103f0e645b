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

/// 2^52: adding it to a float in `[0, 2^52)` rounds that float to an
/// integer, which then sits in the low mantissa bits of the sum.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// [`lerp_at`] at an interior position, `0 < pos < values.len() - 1`,
/// where neither clamp can fire. (At `pos = 0` it would blend in
/// `values[1]`, where `lerp_at` returns `values[0]`.) `⌊pos⌋` comes from
/// float arithmetic alone instead of the saturating `as usize`: `r` is
/// `pos` rounded to the nearest integer, `floor` is one less when that
/// rounded up, and the index is read from the mantissa of
/// `floor + 2^52`. `floor` equals the truncating cast exactly, so the
/// weight and the formula — and hence the bits — are `lerp_at`'s. An
/// index outside `values`, which only a position past the interior
/// gives, falls back to `lerp_at`: it neither panics nor skips.
#[inline]
fn lerp_interior(values: &[f64], pos: f64) -> f64 {
    let r = (pos + TWO_POW_52) - TWO_POW_52;
    let floor = r - f64::from(r > pos);
    let i = ((floor + TWO_POW_52).to_bits() & ((1u64 << 52) - 1)) as usize;
    let frac = pos - floor;
    match values.get(i..i + 2) {
        Some(&[a, b]) => a * (1.0 - frac) + b * frac,
        _ => lerp_at(values, pos),
    }
}

/// A resampled view of `values` at `target_len` points that writes its
/// output a chunk at a time ([`fill`](Resampled::fill)): the distance
/// kernel interpolates through it chunk by chunk, so an early-abandoned
/// comparison only pays for the points it actually consumed, and
/// [`resample_to`] materializes through the same writer (DESIGN.md §12).
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

    /// Writes output points `start..start + out.len()` into `out`: at
    /// output index `j`, the linear interpolation of `values` at position
    /// `j × (values.len() − 1) / (len − 1)`, clamped to the input's range,
    /// with [`resample_to`]'s degenerate cases (empty input → 0.0,
    /// single-point input replicated, single-point target anchored at the
    /// first sample) settled once per call.
    ///
    /// Only the two end points can meet a clamp: for `0 < j < len − 1`
    /// the position sits at least one step above 0 and a relative
    /// `1 / (len − 1)` below the last input index, far beyond the two
    /// roundings it carries. So the end points are peeled off to the
    /// clamping interpolation, and every other point takes the clamp-free
    /// one, bit for bit the same value.
    #[inline]
    pub fn fill(&self, start: usize, out: &mut [f64]) {
        let v = self.values;
        if v.len() <= 1 || self.target_len <= 1 {
            out.fill(v.first().copied().unwrap_or(0.0));
            return;
        }
        debug_assert!(start + out.len() <= self.target_len);
        let last = self.target_len - 1;
        let mut body = out;
        let mut j = start;
        if j == 0 {
            if let Some((first, rest)) = std::mem::take(&mut body).split_first_mut() {
                *first = lerp_at(v, 0.0);
                body = rest;
                j = 1;
            }
        }
        if j + body.len() > last {
            if let Some((end, rest)) = std::mem::take(&mut body).split_last_mut() {
                *end = lerp_at(v, (j + rest.len()) as f64 * self.scale);
                body = rest;
            }
        }
        for (t, slot) in body.iter_mut().enumerate() {
            *slot = lerp_interior(v, (j + t) as f64 * self.scale);
        }
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
    Resampled::new(values, out.len()).fill(0, out);
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

    /// The per-point resample, written as the obvious scalar loop:
    /// the degenerate cases, then `lerp_at(values, j × scale)` at every
    /// output index `j` in order.
    fn scalar_lerp_loop(values: &[f64], target_len: usize) -> Vec<f64> {
        if values.len() <= 1 || target_len <= 1 {
            return vec![values.first().copied().unwrap_or(0.0); target_len];
        }
        let scale = (values.len() - 1) as f64 / (target_len - 1) as f64;
        (0..target_len)
            .map(|j| lerp_at(values, j as f64 * scale))
            .collect()
    }

    /// A `len`-point source whose end samples are −0.0 with a NaN next to
    /// each: an end point computed without its clamp would blend in the
    /// NaN, or turn −0.0 into +0.0.
    fn fenced_source(len: usize, state: &mut u64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            })
            .collect();
        if len >= 3 {
            v[1] = f64::NAN;
            v[len - 2] = f64::NAN;
        }
        if let Some(first) = v.first_mut() {
            *first = -0.0;
        }
        if let Some(last) = v.last_mut() {
            *last = -0.0;
        }
        v
    }

    /// The chunk writer is bitwise the scalar `lerp_at` loop for every
    /// source and target length in 0..=260 plus 511, 700 and 1000, chunk
    /// by chunk as the distance kernel asks for it (8 points from every
    /// multiple of 8) and for the whole output at once (`resample_to`).
    #[test]
    fn chunk_fill_matches_scalar_lerp_loop_bitwise() {
        let lens: Vec<usize> = (0..=260).chain([511, 700, 1000]).collect();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut chunk = [0.0f64; 8];
        for &src in &lens {
            let values = fenced_source(src, &mut state);
            for &dst in &lens {
                let expect = scalar_lerp_loop(&values, dst);
                let view = Resampled::new(&values, dst);
                assert_eq!((view.len(), view.is_empty()), (dst, dst == 0));
                for start in (0..dst).step_by(8) {
                    let out = &mut chunk[..(dst - start).min(8)];
                    view.fill(start, out);
                    for (t, got) in out.iter().enumerate() {
                        let want = expect[start + t];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "({src} -> {dst}) chunk at {start}, point {}: {got} vs {want}",
                            start + t
                        );
                    }
                }
                let whole = resampled(&values, dst);
                for (j, (got, want)) in whole.iter().zip(&expect).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "({src} -> {dst})[{j}]");
                }
            }
        }
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
