//! Point-coverage counting via a difference array.
//!
//! The paper's *rule density curve* (§4.1) is "an empty array of length m …
//! by iterating over all grammar rules the algorithm increments a counter
//! for each of the time series points that the rule spans". Incrementing
//! point-by-point is O(Σ interval length); the difference-array form here is
//! O(m + #intervals) and yields exactly the same curve.

use crate::interval::Interval;

/// Accumulates how many intervals cover each point of `0..len`.
///
/// ```
/// use gv_timeseries::{CoverageCounter, Interval};
/// let mut cc = CoverageCounter::new(6);
/// cc.add(Interval::new(1, 4));
/// cc.add(Interval::new(2, 6));
/// assert_eq!(cc.finish(), vec![0, 1, 2, 2, 1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CoverageCounter {
    /// diff[i] += 1 at interval start, diff[end] -= 1; one extra slot for
    /// intervals ending exactly at `len`.
    diff: Vec<i64>,
    len: usize,
}

impl CoverageCounter {
    /// A counter over points `0..len`.
    pub fn new(len: usize) -> Self {
        Self {
            diff: vec![0; len + 1],
            len,
        }
    }

    /// Number of points tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when tracking zero points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Registers one covering interval. Portions outside `0..len` are
    /// clipped; fully-outside or empty intervals are ignored.
    pub fn add(&mut self, iv: Interval) {
        let start = iv.start.min(self.len);
        let end = iv.end.min(self.len);
        if start >= end {
            return;
        }
        self.diff[start] += 1;
        self.diff[end] -= 1;
    }

    /// Materializes the per-point coverage counts.
    pub fn finish(self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        let mut acc = 0i64;
        for d in &self.diff[..self.len] {
            acc += d;
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: increment every covered point.
    fn naive(len: usize, intervals: &[Interval]) -> Vec<i64> {
        let mut out = vec![0i64; len];
        for iv in intervals {
            for slot in out.iter_mut().take(iv.end.min(len)).skip(iv.start.min(len)) {
                *slot += 1;
            }
        }
        out
    }

    #[test]
    fn matches_naive_counting() {
        let intervals = vec![
            Interval::new(0, 3),
            Interval::new(2, 7),
            Interval::new(2, 7),
            Interval::new(6, 10),
            Interval::new(9, 10),
        ];
        let mut cc = CoverageCounter::new(10);
        for &iv in &intervals {
            cc.add(iv);
        }
        assert_eq!(cc.finish(), naive(10, &intervals));
    }

    #[test]
    fn clips_out_of_range() {
        let mut cc = CoverageCounter::new(4);
        cc.add(Interval::new(2, 100));
        cc.add(Interval::new(50, 60));
        assert_eq!(cc.finish(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn empty_counter() {
        let mut cc = CoverageCounter::new(0);
        assert!(cc.is_empty());
        cc.add(Interval::new(0, 5));
        assert!(cc.finish().is_empty());
    }

    #[test]
    fn interval_ending_at_len() {
        let mut cc = CoverageCounter::new(5);
        cc.add(Interval::new(3, 5));
        assert_eq!(cc.finish(), vec![0, 0, 0, 1, 1]);
    }
}
