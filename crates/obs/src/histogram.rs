//! [`Histogram`]: a fixed-size log-linear value histogram for hot-path
//! telemetry (per-call distance cost, candidate lengths, abandon
//! positions, rule-use counts).
//!
//! The bucket layout is HDR-style log-linear: four linear sub-buckets per
//! power of two, so the relative quantile error is bounded by 12.5%
//! everywhere while the whole structure stays a flat `[u64; 128]` — no
//! allocation, mergeable by element-wise addition, and cheap enough to
//! live inside a recorder that hot loops write into.

use std::fmt::Write as _;

/// Linear sub-buckets per octave (power of two), as a bit shift.
const SUB_BITS: u32 = 2;
/// Sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of `u64` samples.
///
/// Values up to 2³³ (≈ 8.5 seconds in nanoseconds) are resolved with
/// ≤ 12.5% relative error; larger values clamp into the last bucket, so
/// `max()` is tracked exactly on the side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; Histogram::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of buckets (array dimension).
    pub const BUCKETS: usize = 128;

    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into. Monotone in `value`; values
    /// beyond the representable range clamp into the last bucket.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let sub = ((value >> (msb - SUB_BITS)) - SUB) as usize;
        let idx = SUB as usize + (msb - SUB_BITS) as usize * SUB as usize + sub;
        idx.min(Histogram::BUCKETS - 1)
    }

    /// The smallest value that maps to bucket `idx`.
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx < SUB as usize {
            return idx as u64;
        }
        let b = (idx - SUB as usize) as u64;
        let msb = b / SUB + SUB_BITS as u64;
        let sub = b % SUB;
        (1u64 << msb) + sub * (1u64 << (msb - SUB_BITS as u64))
    }

    /// The midpoint of bucket `idx` — the quantile estimator's reported
    /// value. With four sub-buckets per octave the bucket spans ≤ 25% of
    /// its floor, so reporting the midpoint bounds the relative error by
    /// 12.5%. The first four buckets (one per sub-bucket) hold a single
    /// value each and are exact.
    pub fn bucket_mid(idx: usize) -> u64 {
        if idx < SUB as usize {
            return idx as u64;
        }
        let b = (idx - SUB as usize) as u64;
        let msb = b / SUB + SUB_BITS as u64;
        Self::bucket_floor(idx) + (1u64 << (msb - SUB_BITS as u64)) / 2
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, tracked outside the buckets).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// containing the `ceil(q * count)`-th sample (0 when empty), clamped
    /// to the exact tracked maximum so the top quantile never overshoots.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_mid(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Encodes the summary as a JSON object token:
    /// `{"count":n,"mean":m,"p50":a,"p90":b,"p99":c,"max":d}`.
    ///
    /// Bucket contents are deliberately not exported — the summary is the
    /// stable cross-PR schema; the buckets are an implementation detail.
    pub fn summary_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            self.count,
            crate::trace::format_json_f64(self.mean()),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let b = Histogram::bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            prev = b;
        }
        // Every bucket floor maps back into its own bucket.
        for idx in 0..Histogram::BUCKETS {
            let floor = Histogram::bucket_floor(idx);
            assert_eq!(Histogram::bucket_of(floor), idx, "floor of bucket {idx}");
        }
        // Huge values clamp into the last bucket.
        assert_eq!(Histogram::bucket_of(u64::MAX), Histogram::BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), 0);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 3);
        assert_eq!(h.max(), 3);
        assert!((h.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err <= 0.125, "q{q}: got {got}, expect {expect}, err {err}");
        }
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(
            h.summary_json(),
            "{\"count\":0,\"mean\":0.0,\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}"
        );
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..700u64 {
            b.record(v * 7);
            whole.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantile_error_bounded_at_bucket_boundaries() {
        // Adversarial inputs sitting exactly on bucket edges: floors,
        // floors-minus-one (the previous bucket's ceiling), and midpoints.
        // The documented ≤ 12.5% relative bound must hold at p50 and p95
        // for point masses at every such edge.
        for idx in 4..Histogram::BUCKETS - 1 {
            let floor = Histogram::bucket_floor(idx);
            for v in [floor, floor.saturating_sub(1), Histogram::bucket_mid(idx)] {
                if v == 0 {
                    continue;
                }
                let mut h = Histogram::new();
                for _ in 0..1000 {
                    h.record(v);
                }
                for q in [0.50, 0.95] {
                    let got = h.quantile(q) as f64;
                    let err = (got - v as f64).abs() / v as f64;
                    assert!(
                        err <= 0.125,
                        "point mass at {v} (bucket {idx}): q{q} -> {got}, err {err}"
                    );
                }
            }
        }
        // A two-sided adversary: half the mass one unit below a floor,
        // half exactly on it — p50 lands in the lower bucket, p95 in the
        // upper, and both must stay within the bound of their true value.
        let idx = 40;
        let floor = Histogram::bucket_floor(idx);
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(floor - 1);
            h.record(floor);
        }
        let p50 = h.quantile(0.50) as f64;
        let p95 = h.quantile(0.95) as f64;
        let lo = (floor - 1) as f64;
        let hi = floor as f64;
        assert!((p50 - lo).abs() / lo <= 0.125, "p50 {p50} vs {lo}");
        assert!((p95 - hi).abs() / hi <= 0.125, "p95 {p95} vs {hi}");
    }

    #[test]
    fn summary_json_is_flat_object() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(1_000);
        let json = h.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in ["count", "mean", "p50", "p90", "p99", "max"] {
            assert!(json.contains(&format!("\"{key}\":")), "{key}");
        }
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"max\":1000"));
    }
}
