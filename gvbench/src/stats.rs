//! Order statistics over timing samples.
//!
//! A tail percentile computed from too few samples is one or two outliers
//! in disguise, so [`percentile`] refuses to report a percentile unless at
//! least [`MIN_BEYOND`] samples lie strictly beyond it.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The input-balanced median of samples tagged with the input they were
/// measured on: each input's median, averaged over the inputs. Every input
/// weighs the same however many ops it got, and the per-input median keeps
/// one slow op from moving the result.
pub fn balanced(samples: &[(usize, f64)]) -> f64 {
    let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(input, v) in samples {
        by_input.entry(input).or_default().push(v);
    }
    if by_input.is_empty() {
        return 0.0;
    }
    by_input.values().map(|v| median(v)).sum::<f64>() / by_input.len() as f64
}

/// The median (mean of the two middle values for an even count); `0.0` for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it; everything after that rank lies beyond the percentile.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn balanced_weighs_inputs_equally() {
        assert_eq!(balanced(&[]), 0.0);
        // Input 0: median 10 over three ops (one outlier); input 1: 20.
        let s = [(0, 9.0), (0, 10.0), (0, 90.0), (1, 20.0)];
        assert_eq!(balanced(&s), 15.0);
    }

    /// The percentile rule: a percentile is reported only with at least
    /// ten samples strictly beyond its rank.
    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with exactly 10 samples (91..=100) beyond.
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        // 99 samples leave only 9 beyond the p90 rank.
        assert_eq!(percentile(&hundred[..99], 0.90), None);
        // p99 needs 1000 samples, p50 needs 20.
        assert_eq!(percentile(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&hundred[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
