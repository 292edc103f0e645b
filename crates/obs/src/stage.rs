//! The fixed vocabulary of pipeline stages and hot-path counters.
//!
//! Both enums are dense `usize` indexes so recorders can back them with
//! flat arrays — no hashing, no allocation, no string handling anywhere
//! near the hot path.

/// A timed phase of the anomaly pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// A whole detector run (the root every other stage nests under).
    Detect,
    /// SAX sliding-window discretization + numerosity reduction.
    Discretize,
    /// Word interning (SAX word → dense token id).
    Intern,
    /// Sequitur grammar induction over the token stream.
    Induce,
    /// Rule-density curve construction and minima extraction (§4.1).
    Density,
    /// RRA outer loop over candidate intervals (§4.2).
    RraOuter,
    /// RRA inner nearest-neighbor loop (nested inside [`Stage::RraOuter`]).
    RraInner,
}

impl Stage {
    /// Number of stages (array dimension for recorders).
    pub const COUNT: usize = 7;

    /// All stages, in pipeline order — a depth-first order of the
    /// [`Stage::parent`] tree, which span snapshots walk.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Detect,
        Stage::Discretize,
        Stage::Intern,
        Stage::Induce,
        Stage::Density,
        Stage::RraOuter,
        Stage::RraInner,
    ];

    /// Dense index (0-based).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stage this one runs inside, the one place the nesting is
    /// written: [`Stage::RraInner`] under [`Stage::RraOuter`], every other
    /// stage under [`Stage::Detect`], the root (`None`).
    pub const fn parent(self) -> Option<Stage> {
        match self {
            Stage::Detect => None,
            Stage::RraInner => Some(Stage::RraOuter),
            _ => Some(Stage::Detect),
        }
    }

    /// The stable machine-readable name (used as the JSONL key).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Detect => "detect",
            Stage::Discretize => "discretize",
            Stage::Intern => "intern",
            Stage::Induce => "induce",
            Stage::Density => "density",
            Stage::RraOuter => "rra-outer",
            Stage::RraInner => "rra-inner",
        }
    }
}

/// A named hot-path counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Sliding windows visited by the discretizer.
    WindowsProcessed,
    /// SAX words kept after numerosity reduction.
    WordsEmitted,
    /// SAX words dropped by numerosity reduction.
    WordsDropped,
    /// Batch windows whose O(P) block symbols the rounding certificate
    /// could not clear, so the two-pass window kernel ran instead.
    WindowsFallback,
    /// Sequitur rules created during induction.
    RulesCreated,
    /// Sequitur rules deleted (rule utility) during induction.
    RulesDeleted,
    /// Peak size of the Sequitur digram table (max-merged, not summed).
    PeakDigramEntries,
    /// RRA candidate intervals visited by the outer loop.
    RraCandidates,
    /// Calls into a distance kernel (the paper's Table 1 metric).
    DistanceCalls,
    /// Those calls that compared against a match resampled onto the
    /// candidate's length; the rest compared equal lengths directly.
    ResampledCalls,
    /// Distance calls cut short by early abandoning.
    EarlyAbandons,
    /// Outer candidates disqualified before the inner loop finished.
    CandidatesPruned,
    /// Outer candidates fully evaluated.
    CandidatesCompleted,
    /// RRA outer-loop visits settled from what earlier ranks of the same
    /// search found, at no distance call: an exact distance reused, or a
    /// bound already below the best-so-far.
    CandidatesReused,
}

impl Counter {
    /// Number of counters (array dimension for recorders).
    pub const COUNT: usize = 14;

    /// All counters, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::WindowsProcessed,
        Counter::WordsEmitted,
        Counter::WordsDropped,
        Counter::WindowsFallback,
        Counter::RulesCreated,
        Counter::RulesDeleted,
        Counter::PeakDigramEntries,
        Counter::RraCandidates,
        Counter::DistanceCalls,
        Counter::ResampledCalls,
        Counter::EarlyAbandons,
        Counter::CandidatesPruned,
        Counter::CandidatesCompleted,
        Counter::CandidatesReused,
    ];

    /// Dense index (0-based).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stable machine-readable name (used as the JSONL key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::WindowsProcessed => "windows_processed",
            Counter::WordsEmitted => "words_emitted",
            Counter::WordsDropped => "words_dropped",
            Counter::WindowsFallback => "windows_fallback",
            Counter::RulesCreated => "rules_created",
            Counter::RulesDeleted => "rules_deleted",
            Counter::PeakDigramEntries => "peak_digram_entries",
            Counter::RraCandidates => "rra_candidates",
            Counter::DistanceCalls => "distance_calls",
            Counter::ResampledCalls => "resampled_calls",
            Counter::EarlyAbandons => "early_abandons",
            Counter::CandidatesPruned => "candidates_pruned",
            Counter::CandidatesCompleted => "candidates_completed",
            Counter::CandidatesReused => "candidates_reused",
        }
    }

    /// Whether merging two recordings of this counter takes the maximum
    /// (high-water marks) rather than the sum.
    pub const fn merges_by_max(self) -> bool {
        matches!(self, Counter::PeakDigramEntries)
    }
}

/// A named value distribution tracked as a [`Histogram`](crate::Histogram)
/// — the decision-level metrics counters can't express (tails, not
/// totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Wall-clock nanoseconds of one distance-kernel call (completed or
    /// abandoned). Only measured when the recorder asks for detail — the
    /// uninstrumented path never reads the clock.
    DistanceNanos,
    /// Length (in points) of each RRA outer candidate visited.
    CandidateLen,
    /// Rule-usage frequency of each RRA outer candidate visited (the
    /// outer-ordering key; 0 for uncovered runs).
    RuleUses,
    /// Prefix index at which an early-abandoned distance call proved its
    /// bound.
    AbandonPos,
}

impl Metric {
    /// Number of metrics (array dimension for recorders).
    pub const COUNT: usize = 4;

    /// All metrics, in declaration order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::DistanceNanos,
        Metric::CandidateLen,
        Metric::RuleUses,
        Metric::AbandonPos,
    ];

    /// Dense index (0-based).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The stable machine-readable name (used as the JSONL key).
    pub const fn name(self) -> &'static str {
        match self {
            Metric::DistanceNanos => "distance_ns",
            Metric::CandidateLen => "candidate_len",
            Metric::RuleUses => "rule_uses",
            Metric::AbandonPos => "abandon_pos",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_dense_and_match_all() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut stage_names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        stage_names.sort_unstable();
        stage_names.dedup();
        assert_eq!(stage_names.len(), Stage::COUNT);
        let mut counter_names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        counter_names.sort_unstable();
        counter_names.dedup();
        assert_eq!(counter_names.len(), Counter::COUNT);
        let mut metric_names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        metric_names.sort_unstable();
        metric_names.dedup();
        assert_eq!(metric_names.len(), Metric::COUNT);
    }
}
