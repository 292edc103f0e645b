//! Prefix-sum subsequence statistics (the HOTSAX / matrix-profile trick).
//!
//! [`SeriesStats`] precomputes cumulative sums and sums of squares over
//! the whole series once, after which the mean and population standard
//! deviation of **any** subsequence `[start, end)` are O(1) — two prefix
//! lookups and a handful of arithmetic ops instead of a pass over the
//! window. A discord search that z-normalizes millions of overlapping
//! windows pays one O(n) build instead of O(n·w) repeated scans.
//!
//! ## Why the values are shifted first
//!
//! Raw prefix sums inherit the cancellation bug the naive
//! `E[x^2] - E[x]^2` variance form has: on a series riding a large
//! baseline (say sensor counts near 1e8 with unit-scale shape), the
//! squared prefix terms grow like `n · 1e16` while the window variance
//! lives sixteen orders of magnitude below — the subtraction cancels to
//! rounding noise and every window looks constant. `SeriesStats` instead
//! subtracts the *global series mean* from every value before
//! accumulating, so prefix magnitudes stay at the scale of the series'
//! spread and the window variance survives arbitrary baseline offsets.
//! The shift is exact for the mean (added back on query) and affects the
//! variance only through ordinary rounding, which the zero clamp and the
//! 1e-9 agreement property test (against two-pass [`mean_std`]) bound.

use crate::stats::mean;
#[cfg(doc)]
use crate::stats::mean_std;

/// O(1) mean/std queries over subsequences of one fixed series.
///
/// Build once per series (or [`rebuild`](Self::rebuild) in place to reuse
/// capacity), then query any window. The prefix arrays are one entry
/// longer than the series (`prefix[0] == 0`), so a window sum is always a
/// single subtraction.
#[derive(Debug, Clone, Default)]
pub struct SeriesStats {
    /// Global series mean subtracted from every value before summing.
    shift: f64,
    /// `prefix[i]` = Σ (values[..i] - shift).
    prefix: Vec<f64>,
    /// `prefix_sq[i]` = Σ (values[..i] - shift)².
    prefix_sq: Vec<f64>,
}

impl SeriesStats {
    /// Builds prefix statistics for `values`.
    pub fn new(values: &[f64]) -> Self {
        let mut s = Self::default();
        s.rebuild(values);
        s
    }

    /// Rebuilds in place for a (possibly different) series, reusing the
    /// prefix buffers' capacity. Scratch owners call this once per search
    /// so steady-state runs stop allocating.
    pub fn rebuild(&mut self, values: &[f64]) {
        self.shift = if values.is_empty() { 0.0 } else { mean(values) };
        self.prefix.clear();
        self.prefix_sq.clear();
        self.prefix.reserve(values.len() + 1);
        self.prefix_sq.reserve(values.len() + 1);
        self.prefix.push(0.0);
        self.prefix_sq.push(0.0);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for &v in values {
            let d = v - self.shift;
            sum += d;
            sum_sq += d * d;
            self.prefix.push(sum);
            self.prefix_sq.push(sum_sq);
        }
    }

    /// Length of the series these statistics describe.
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Is the underlying series empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current prefix-buffer capacity (for allocation-stability checks).
    pub fn capacity(&self) -> usize {
        self.prefix.capacity().max(self.prefix_sq.capacity())
    }

    // gv-lint: hot
    /// Mean and population standard deviation of `values[start..end)` in
    /// O(1). Returns `(NaN, NaN)` for an empty window, mirroring
    /// [`mean_std`].
    ///
    /// # Panics
    /// Panics when `end > len()` or `start > end`.
    pub fn mean_std(&self, start: usize, end: usize) -> (f64, f64) {
        // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an inverted window is a caller bug
        assert!(start <= end, "SeriesStats::mean_std: start > end");
        if start == end {
            return (f64::NAN, f64::NAN);
        }
        if end - start == 1 {
            // A single point has σ = 0 by definition; the prefix
            // difference would only report its own rounding noise.
            return (self.shift + (self.prefix[end] - self.prefix[start]), 0.0);
        }
        let n = (end - start) as f64;
        let sum = self.prefix[end] - self.prefix[start];
        let sum_sq = self.prefix_sq[end] - self.prefix_sq[start];
        let m = sum / n;
        let var = (sum_sq / n - m * m).max(0.0);
        (self.shift + m, var.sqrt())
    }

    /// Mean of `values[start..end)` in O(1). `NaN` for an empty window.
    ///
    /// # Panics
    /// Panics when `end > len()` or `start > end`.
    pub fn mean(&self, start: usize, end: usize) -> f64 {
        assert!(start <= end, "SeriesStats::mean: start > end");
        if start == end {
            return f64::NAN;
        }
        let n = (end - start) as f64;
        self.shift + (self.prefix[end] - self.prefix[start]) / n
    }

    /// Z-normalizes the window `values[start..end)` into `out` using the
    /// O(1) window statistics, with the exact same normalization kernel
    /// as [`crate::znorm_into`] and every other path.
    ///
    /// `values` must be the series the statistics were built from.
    ///
    /// # Panics
    /// Panics when `out.len() != end - start`, when the window is out of
    /// bounds, or (debug only) when `values` has a different length than
    /// the series the statistics describe.
    pub fn znorm_window_into(
        &self,
        values: &[f64],
        start: usize,
        end: usize,
        threshold: f64,
        out: &mut [f64],
    ) {
        debug_assert_eq!(
            values.len(),
            self.len(),
            "SeriesStats::znorm_window_into: series length mismatch"
        );
        if start == end {
            // gv-lint: allow(panic-reachability) documented `# Panics` precondition: a mismatched output buffer is a caller bug
            assert!(out.is_empty(), "znorm_window_into: buffer length mismatch");
            return;
        }
        let (m, sd) = self.mean_std(start, end);
        crate::znorm::znorm_with_into(&values[start..end], m, sd, threshold, out);
    }
    // gv-lint: end-hot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::mean_std;

    fn families(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        // Mirrors the seven invariant_fuzz series families (minus the
        // rejected nan/inf and shorter-than-window shapes, which never
        // reach statistics): deterministic stand-ins with the same
        // numeric character.
        let mut walk = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i as f64 * 2654435761.0).sin() * 0.5).clamp(-0.5, 0.5);
            walk.push(acc);
        }
        vec![
            ("random-walk", walk),
            (
                "sine+noise",
                (0..n)
                    .map(|i| (i as f64 * 0.17).sin() + (i as f64 * 97.3).sin() * 0.05)
                    .collect(),
            ),
            ("constant", vec![42.5; n]),
            (
                "near-constant",
                (0..n)
                    .map(|i| 7.0 + (i as f64 * 1.7).sin() * 1e-12)
                    .collect(),
            ),
            (
                "spike-train",
                (0..n)
                    .map(|i| if i % 37 == 0 { 25.0 } else { 0.1 })
                    .collect(),
            ),
            (
                "large-offset",
                (0..n).map(|i| 1e8 + (i as f64 * 0.37).sin()).collect(),
            ),
            (
                "negative-offset",
                (0..n)
                    .map(|i| -5e7 + (i as f64 * 0.11).cos() * 3.0)
                    .collect(),
            ),
        ]
    }

    /// Property test: prefix-sum window statistics agree with the
    /// two-pass reference within 1e-9 for every family and a sweep of
    /// window placements/lengths — 1e-9 on the mean (relative to its
    /// magnitude) and on σ wherever σ is meaningful (≥ 1e-3, the regime
    /// the znorm scale factor lives in). Below that, σ sits inside the
    /// O(1)-query noise floor `√eps · |v − shift|` (the square root
    /// amplifies prefix rounding when the true variance is ~0), so the
    /// test instead pins variance-level 1e-9 agreement plus a floor
    /// orders of magnitude under the 0.01 znorm threshold — the branch
    /// `sd < threshold` can never flip on query noise.
    #[test]
    fn window_stats_match_two_pass_reference() {
        for (name, series) in families(256) {
            let stats = SeriesStats::new(&series);
            for &len in &[1usize, 2, 3, 7, 16, 50, 128, 256] {
                for start in (0..=series.len() - len).step_by(13) {
                    let end = start + len;
                    let (m_ref, sd_ref) = mean_std(&series[start..end]);
                    let (m, sd) = stats.mean_std(start, end);
                    let m_scale = m_ref.abs().max(1.0);
                    assert!(
                        (m - m_ref).abs() / m_scale < 1e-9,
                        "{name}[{start}..{end}]: mean {m} vs two-pass {m_ref}"
                    );
                    let dev = series[start..end]
                        .iter()
                        .map(|v| (v - m_ref).abs())
                        .fold(0.0f64, f64::max)
                        .max(1.0);
                    assert!(
                        (sd * sd - sd_ref * sd_ref).abs() < 1e-9 * dev * dev,
                        "{name}[{start}..{end}]: var {} vs two-pass {}",
                        sd * sd,
                        sd_ref * sd_ref
                    );
                    if sd_ref >= 1e-3 {
                        assert!(
                            (sd - sd_ref).abs() < 1e-9 * sd_ref.max(1.0),
                            "{name}[{start}..{end}]: std {sd} vs two-pass {sd_ref}"
                        );
                    } else {
                        // Noise floor: far below the 0.01 znorm threshold.
                        assert!(
                            (sd - sd_ref).abs() < 1e-4,
                            "{name}[{start}..{end}]: degenerate-window σ {sd} vs \
                             {sd_ref} escaped the noise floor"
                        );
                    }
                }
            }
        }
    }

    /// The large-offset regression case: windows of a 1e8-baseline series
    /// must report the same (unit-scale) σ as the baseline-0 twin.
    #[test]
    fn large_offset_windows_keep_their_spread() {
        let n = 300;
        let base: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let offset: Vec<f64> = base.iter().map(|v| v + 1e8).collect();
        let s0 = SeriesStats::new(&base);
        let s1 = SeriesStats::new(&offset);
        for start in (0..n - 50).step_by(17) {
            let (_, sd0) = s0.mean_std(start, start + 50);
            let (_, sd1) = s1.mean_std(start, start + 50);
            assert!(sd1 > 0.0, "offset window [{start}..) lost its spread");
            assert!(
                (sd1 - sd0).abs() < 1e-6,
                "window [{start}..): offset σ {sd1} vs baseline σ {sd0}"
            );
        }
    }

    #[test]
    fn empty_and_degenerate_windows() {
        let stats = SeriesStats::new(&[1.0, 2.0, 3.0]);
        assert_eq!(stats.len(), 3);
        assert!(!stats.is_empty());
        let (m, sd) = stats.mean_std(1, 1);
        assert!(m.is_nan() && sd.is_nan());
        let (m, sd) = stats.mean_std(2, 3);
        assert_eq!(m, 3.0);
        assert_eq!(sd, 0.0);
        let empty = SeriesStats::new(&[]);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn rebuild_reuses_capacity() {
        let big: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let mut stats = SeriesStats::new(&big);
        let cap = stats.capacity();
        stats.rebuild(&big[..100]);
        assert_eq!(stats.len(), 100);
        assert_eq!(stats.capacity(), cap, "rebuild reallocated");
        let (m, _) = stats.mean_std(0, 100);
        assert!((m - 49.5).abs() < 1e-9);
    }

    #[test]
    fn znorm_window_matches_full_znorm_values() {
        let series: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() * 2.0 + 1.0)
            .collect();
        let stats = SeriesStats::new(&series);
        let mut out = vec![0.0; 20];
        stats.znorm_window_into(&series, 10, 30, 0.01, &mut out);
        // Same normalization semantics: zero mean, unit std.
        let (m, sd) = mean_std(&out);
        assert!(m.abs() < 1e-9);
        assert!((sd - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "start > end")]
    fn inverted_window_panics() {
        SeriesStats::new(&[1.0, 2.0]).mean_std(2, 1);
    }
}
