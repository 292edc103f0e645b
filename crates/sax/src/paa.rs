//! Piecewise Aggregate Approximation (PAA).
//!
//! PAA reduces a subsequence of length `n` to `w` segment means
//! (paper §3.1: "dividing z-normalized subsequence into w equal-sized
//! segments ... computes a mean value for each"). When `w` does not divide
//! `n`, boundary points contribute fractionally to the two segments they
//! straddle — equivalent to conceptually repeating every point `w` times
//! (the classic jmotif scheme) but computed in O(n).

/// Computes the PAA of `values` with `segments` segments.
///
/// Returns an empty vector when `segments == 0`; when
/// `segments >= values.len()` every input point becomes its own segment
/// (identity, possibly padded semantics are avoided by the discretizer's
/// validation).
///
/// ```
/// use gv_sax::paa;
/// assert_eq!(paa(&[1.0, 2.0, 3.0, 4.0], 2), vec![1.5, 3.5]);
/// ```
pub fn paa(values: &[f64], segments: usize) -> Vec<f64> {
    let mut out = vec![0.0; segments];
    paa_into(values, &mut out);
    out
}

/// Allocation-free PAA: `out.len()` is the number of segments.
pub(crate) fn paa_into(values: &[f64], out: &mut [f64]) {
    let n = values.len();
    let w = out.len();
    if w == 0 {
        return;
    }
    if n == 0 {
        out.fill(0.0);
        return;
    }
    if n == w {
        out.copy_from_slice(values);
        return;
    }
    if n.is_multiple_of(w) {
        // Fast path: exact segments.
        let seg = n / w;
        for (j, slot) in out.iter_mut().enumerate() {
            let sum: f64 = values[j * seg..(j + 1) * seg].iter().sum();
            *slot = sum / seg as f64;
        }
        return;
    }
    // General fractional path. Segment j covers the real interval
    // [j*n/w, (j+1)*n/w); point i covers [i, i+1). Accumulate overlaps.
    let seg_len = n as f64 / w as f64;
    for (j, slot) in out.iter_mut().enumerate() {
        let lo = j as f64 * seg_len;
        let hi = lo + seg_len;
        let first = lo.floor() as usize;
        let last = (hi.ceil() as usize).min(n);
        let mut acc = 0.0;
        for (i, &v) in values.iter().enumerate().take(last).skip(first) {
            let o_lo = lo.max(i as f64);
            let o_hi = hi.min(i as f64 + 1.0);
            if o_hi > o_lo {
                acc += v * (o_hi - o_lo);
            }
        }
        *slot = acc / seg_len;
    }
}

/// Mean PAA approximation error over a series: windows are z-normalized,
/// reduced to `segments` PAA means, expanded back to step functions, and
/// compared to the original in Euclidean distance. Windows are sampled
/// with stride `window` (adjacent windows carry near-identical
/// information). This is the "approximation distance" axis of the paper's
/// Figure 10.
///
/// Returns 0.0 when no full window fits.
pub fn reconstruction_error(values: &[f64], window: usize, segments: usize) -> f64 {
    if window == 0 || segments == 0 || values.len() < window {
        return 0.0;
    }
    let mut zbuf = vec![0.0; window];
    let mut pbuf = vec![0.0; segments];
    let mut total = 0.0;
    let mut count = 0usize;
    let mut start = 0;
    while start + window <= values.len() {
        gv_timeseries::znorm_into(
            &values[start..start + window],
            gv_timeseries::DEFAULT_ZNORM_THRESHOLD,
            &mut zbuf,
        );
        paa_into(&zbuf, &mut pbuf);
        // Step-function expansion: point i belongs to segment
        // floor(i * segments / window).
        let mut sum_sq = 0.0;
        for (i, &z) in zbuf.iter().enumerate() {
            let seg = (i * segments) / window;
            let d = z - pbuf[seg.min(segments - 1)];
            sum_sq += d * d;
        }
        total += sum_sq.sqrt();
        count += 1;
        start += window;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        assert_eq!(paa(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3), vec![1.5, 3.5, 5.5]);
        assert_eq!(paa(&[1.0, 2.0, 3.0, 4.0], 1), vec![2.5]);
    }

    #[test]
    fn identity_when_segments_equal_len() {
        let v = [3.0, -1.0, 2.0];
        assert_eq!(paa(&v, 3), v.to_vec());
    }

    #[test]
    fn fractional_division_weights_overlap() {
        // n=3, w=2: segment 0 = [0,1.5) -> v0 + 0.5*v1; segment 1 = v1*0.5 + v2.
        let out = paa(&[2.0, 4.0, 6.0], 2);
        assert!((out[0] - (2.0 + 0.5 * 4.0) / 1.5).abs() < 1e-12);
        assert!((out[1] - (0.5 * 4.0 + 6.0) / 1.5).abs() < 1e-12);
    }

    #[test]
    fn fractional_matches_point_repetition_scheme() {
        // The classic definition repeats each point w times then averages
        // consecutive runs of n points. Check equivalence on a small case.
        let v = [1.0, 5.0, 2.0, 8.0, 3.0];
        let w = 3;
        let n = v.len();
        let mut expanded = Vec::with_capacity(n * w);
        for &x in &v {
            expanded.extend(std::iter::repeat_n(x, w));
        }
        let expected: Vec<f64> = (0..w)
            .map(|j| expanded[j * n..(j + 1) * n].iter().sum::<f64>() / n as f64)
            .collect();
        let got = paa(&v, w);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    fn mean_is_preserved() {
        // The weighted segment means, averaged with equal weights, equal the
        // overall mean (each segment covers n/w points' worth of mass).
        let v: Vec<f64> = (0..17)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + 1.0)
            .collect();
        for w in [1, 2, 3, 5, 8, 13] {
            let p = paa(&v, w);
            let paa_mean = p.iter().sum::<f64>() / w as f64;
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            assert!(
                (paa_mean - mean).abs() < 1e-9,
                "w={w}: {paa_mean} vs {mean}"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(paa(&[1.0, 2.0], 0).is_empty());
        assert_eq!(paa(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn constant_input_stays_constant() {
        let p = paa(&[4.0; 11], 4);
        assert!(p.iter().all(|&x| (x - 4.0).abs() < 1e-12));
    }
}
