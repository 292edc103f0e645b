//! Half-open index intervals `[start, end)` over a time series.
//!
//! Grammar rules, discords, and ground-truth anomalies are all located by
//! intervals; the overlap arithmetic here implements the paper's non-self
//! match check (§2) and the Table 1 "discord overlap" column.

/// A half-open interval of series indexes: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// First index covered.
    pub start: usize,
    /// One past the last index covered.
    pub end: usize,
}

impl Interval {
    /// Builds `[start, end)`.
    ///
    /// # Panics
    /// Panics when `end < start`.
    pub fn new(start: usize, end: usize) -> Self {
        // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an inverted interval is a caller bug
        assert!(end >= start, "interval end {end} < start {start}");
        Self { start, end }
    }

    /// Builds `[start, start + len)`.
    pub fn with_len(start: usize, len: usize) -> Self {
        Self {
            start,
            end: start + len,
        }
    }

    /// Number of indexes covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the interval covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` when `idx` lies inside the interval.
    pub fn contains(&self, idx: usize) -> bool {
        idx >= self.start && idx < self.end
    }

    /// Number of indexes the two intervals share.
    pub fn overlap(&self, other: &Interval) -> usize {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        hi.saturating_sub(lo)
    }

    /// Overlap as a fraction of the *shorter* interval's length, in `[0, 1]`.
    ///
    /// This is the recall-style measure used in Table 1's last column to
    /// compare HOTSAX and RRA discord locations.
    pub fn overlap_fraction(&self, other: &Interval) -> f64 {
        let shorter = self.len().min(other.len());
        if shorter == 0 {
            return 0.0;
        }
        self.overlap(other) as f64 / shorter as f64
    }

    /// `true` when the two intervals share at least one index.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.overlap(other) > 0
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Merges overlapping or touching intervals into a minimal sorted cover.
///
/// Used to consolidate density-minima runs and ground-truth regions.
pub fn merge_intervals(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|iv| !iv.is_empty());
    intervals.sort();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for iv in intervals {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let iv = Interval::new(3, 7);
        assert_eq!(iv.len(), 4);
        assert!(!iv.is_empty());
        assert_eq!(Interval::with_len(3, 4), iv);
        assert!(Interval::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "interval end")]
    fn backwards_interval_panics() {
        Interval::new(5, 3);
    }

    #[test]
    fn contains_and_overlap() {
        let a = Interval::new(2, 6);
        assert!(a.contains(2) && a.contains(5));
        assert!(!a.contains(6) && !a.contains(1));
        let b = Interval::new(4, 9);
        assert_eq!(a.overlap(&b), 2);
        assert!(a.overlaps(&b));
        let c = Interval::new(6, 8);
        assert_eq!(a.overlap(&c), 0);
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn overlap_fraction_of_shorter() {
        let short = Interval::new(10, 14); // len 4
        let long = Interval::new(12, 30); // len 18
        assert!((short.overlap_fraction(&long) - 0.5).abs() < 1e-12);
        assert_eq!(short.overlap_fraction(&Interval::new(0, 0)), 0.0);
        // Full containment → 1.0.
        assert_eq!(short.overlap_fraction(&Interval::new(0, 100)), 1.0);
    }

    #[test]
    fn merge_basic() {
        let merged = merge_intervals(vec![
            Interval::new(5, 8),
            Interval::new(0, 3),
            Interval::new(2, 4),
            Interval::new(8, 10),  // touching [5,8) → merges
            Interval::new(20, 20), // empty → dropped
        ]);
        assert_eq!(merged, vec![Interval::new(0, 4), Interval::new(5, 10)]);
    }

    #[test]
    fn merge_empty_input() {
        assert!(merge_intervals(vec![]).is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Interval::new(1, 4).to_string(), "[1, 4)");
    }
}
