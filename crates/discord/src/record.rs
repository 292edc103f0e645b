//! Discord results and search statistics.

use gv_obs::{Counter, LocalRecorder};
use gv_timeseries::Interval;

/// One discovered discord.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscordRecord {
    /// Start index in the series.
    pub position: usize,
    /// Subsequence length (fixed for brute force/HOTSAX; variable for RRA).
    pub length: usize,
    /// Distance to the nearest non-self match (plain Euclidean for the
    /// fixed-length searches, Eq. (1)-normalized for RRA).
    pub distance: f64,
    /// Rank (0 = best discord).
    pub rank: usize,
}

impl DiscordRecord {
    /// The covered interval `[position, position + length)`.
    pub fn interval(&self) -> Interval {
        Interval::with_len(self.position, self.length)
    }
}

/// Cost accounting for a discord search (the paper's Table 1 metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Calls into the distance function, including early-abandoned ones.
    pub distance_calls: u64,
    /// How many of those calls were abandoned early.
    pub early_abandoned: u64,
    /// Outer-loop candidates that were disqualified without exhausting the
    /// inner loop (a match closer than `best_so_far` was found).
    pub candidates_pruned: u64,
    /// Outer-loop candidates fully evaluated.
    pub candidates_completed: u64,
}

impl SearchStats {
    /// The search counters `recorder` has tallied. Every search counts
    /// into a search-local recorder and reads its stats back here, so the
    /// reported stats and the counters merged into the caller's sink are
    /// one tally, never two.
    pub fn from_recorder(recorder: &LocalRecorder) -> Self {
        Self {
            distance_calls: recorder.counter(Counter::DistanceCalls),
            early_abandoned: recorder.counter(Counter::EarlyAbandons),
            candidates_pruned: recorder.counter(Counter::CandidatesPruned),
            candidates_completed: recorder.counter(Counter::CandidatesCompleted),
        }
    }

    /// Accumulates another search's counters (useful when discords are
    /// extracted iteratively).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.distance_calls += other.distance_calls;
        self.early_abandoned += other.early_abandoned;
        self.candidates_pruned += other.candidates_pruned;
        self.candidates_completed += other.candidates_completed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_interval() {
        let r = DiscordRecord {
            position: 10,
            length: 5,
            distance: 1.5,
            rank: 0,
        };
        assert_eq!(r.interval(), Interval::new(10, 15));
    }

    #[test]
    fn stats_read_the_recorder_counters() {
        use gv_obs::Recorder;
        let rec = LocalRecorder::new();
        rec.add(Counter::DistanceCalls, 7);
        rec.add(Counter::EarlyAbandons, 3);
        rec.incr(Counter::CandidatesPruned);
        rec.add(Counter::CandidatesCompleted, 2);
        rec.incr(Counter::RraCandidates);
        assert_eq!(
            SearchStats::from_recorder(&rec),
            SearchStats {
                distance_calls: 7,
                early_abandoned: 3,
                candidates_pruned: 1,
                candidates_completed: 2,
            }
        );
    }

    #[test]
    fn stats_absorb() {
        let mut a = SearchStats {
            distance_calls: 10,
            early_abandoned: 2,
            candidates_pruned: 1,
            candidates_completed: 3,
        };
        let b = SearchStats {
            distance_calls: 5,
            early_abandoned: 1,
            candidates_pruned: 0,
            candidates_completed: 2,
        };
        a.absorb(&b);
        assert_eq!(a.distance_calls, 15);
        assert_eq!(a.early_abandoned, 3);
        assert_eq!(a.candidates_pruned, 1);
        assert_eq!(a.candidates_completed, 5);
    }
}
