//! Brute-force discord discovery (the paper's §6 baseline).
//!
//! Considers every ordered pair of non-self-matching subsequences and
//! computes the full distance — `O(m²)` distance calls, "simply untenable
//! for large data sets". Runs are practical only on small series (tests,
//! small Table 1 rows); for the large rows the call count is available
//! analytically via [`brute_force_call_count`].

use gv_obs::{Counter, LocalRecorder, Recorder};
use gv_timeseries::{Interval, SeriesStats, DEFAULT_ZNORM_THRESHOLD};

use crate::distance::euclidean_early;
use crate::error::{Error, Result};
use crate::record::{DiscordRecord, SearchStats};

/// The exact number of distance calls the brute-force search performs on a
/// series of length `m` with discord length `n`: one call per ordered pair
/// of non-self-matching subsequence positions.
pub fn brute_force_call_count(m: usize, n: usize) -> u128 {
    if n == 0 || m < n {
        return 0;
    }
    let count = (m - n + 1) as u128; // number of subsequences
    let mut total = 0u128;
    for p in 0..count {
        // q admissible when |p - q| >= n.
        let lo_excluded = p.saturating_sub(n as u128 - 1);
        let hi_excluded = (p + n as u128 - 1).min(count - 1);
        let excluded = hi_excluded - lo_excluded + 1;
        total += count - excluded;
    }
    total
}

/// Finds the top-`k` discords of length `n` by exhaustive search.
///
/// Discord `i+1` is the best discord whose interval does not overlap
/// discords `0..=i`. Distances are Euclidean between z-normalized
/// subsequences. Returns the discords (best first) and the search cost.
///
/// `normed` is caller-owned scratch for the pre-normalized windows
/// (`O(count * n)` floats): repeated searches through the same buffer stop
/// re-allocating once it has warmed up to the largest `count * n` seen.
/// Distance calls and candidates are counted into a search-local
/// [`LocalRecorder`] that keeps decision-level detail only when
/// `recorder` is [`detailed`](Recorder::detailed); the returned
/// [`SearchStats`] are read back from it, and it is merged into
/// `recorder` at the end.
///
/// # Errors
/// [`Error::ZeroLength`] / [`Error::LengthTooLarge`] when `n == 0` or
/// `2 * n > values.len()` (no non-self match could exist).
pub fn brute_force_discords(
    values: &[f64],
    n: usize,
    k: usize,
    normed: &mut Vec<f64>,
    recorder: &dyn Recorder,
) -> Result<(Vec<DiscordRecord>, SearchStats)> {
    if n == 0 {
        return Err(Error::ZeroLength);
    }
    if 2 * n > values.len() {
        return Err(Error::LengthTooLarge {
            len: n,
            series_len: values.len(),
        });
    }
    let count = values.len() - n + 1;
    let local = LocalRecorder::with_detail(recorder.detailed());
    let mut found: Vec<DiscordRecord> = Vec::new();

    // Pre-normalize every window once via prefix-sum statistics — the
    // same cancellation-safe source the RRA and HOTSAX paths use, so the
    // gv-check differentials stay bit-identical. O(count * n) memory
    // would be heavy for large inputs, but brute force is only run on
    // small series anyway.
    let wstats = SeriesStats::new(values);
    normed.resize(count * n, 0.0);
    for p in 0..count {
        wstats.znorm_window_into(
            values,
            p,
            p + n,
            DEFAULT_ZNORM_THRESHOLD,
            &mut normed[p * n..(p + 1) * n],
        );
    }
    let window = |p: usize| &normed[p * n..(p + 1) * n];

    for rank in 0..k {
        let mut best_dist = -1.0;
        let mut best_pos = None;
        for p in 0..count {
            let p_iv = Interval::with_len(p, n);
            if found.iter().any(|d| d.interval().overlaps(&p_iv)) {
                continue;
            }
            let mut nearest = f64::INFINITY;
            for q in 0..count {
                if p.abs_diff(q) < n {
                    continue;
                }
                // Early abandoning against the current nearest does not
                // change the call count (each pair is still one call) —
                // it only shortens the per-call work.
                if let Some(d) = euclidean_early(&local, window(p), window(q), nearest) {
                    nearest = d;
                }
            }
            local.incr(Counter::CandidatesCompleted);
            if nearest.is_finite() && nearest > best_dist {
                best_dist = nearest;
                best_pos = Some(p);
            }
        }
        match best_pos {
            Some(position) => found.push(DiscordRecord {
                position,
                length: n,
                distance: best_dist,
                rank,
            }),
            None => break, // no non-overlapping candidate left
        }
    }
    let stats = SearchStats::from_recorder(&local);
    local.merge_into(&recorder);
    Ok((found, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::NoopRecorder;

    fn brute(values: &[f64], n: usize, k: usize) -> Result<(Vec<DiscordRecord>, SearchStats)> {
        brute_force_discords(values, n, k, &mut Vec::new(), &NoopRecorder)
    }

    /// A sine with a planted bump at `at..at+len`.
    fn sine_with_bump(m: usize, at: usize, len: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..m).map(|i| (i as f64 / 8.0).sin()).collect();
        for i in 0..len {
            v[at + i] += 1.5 * (std::f64::consts::PI * i as f64 / len as f64).sin();
        }
        v
    }

    #[test]
    fn call_count_formula_small_case() {
        // m=10, n=3 → 8 subsequences. Count by hand:
        // p=0: q∈{3..7} → 5; p=1: {4..7} → 4; p=2: {5..7} → 3;
        // p=3: {0,6,7} → 3; p=4: {0,1,7} → 3; p=5: {0,1,2} → 3;
        // p=6: {0..3} → 4; p=7: {0..4} → 5.  Total = 30.
        assert_eq!(brute_force_call_count(10, 3), 30);
    }

    #[test]
    fn call_count_matches_actual_run() {
        let v = sine_with_bump(120, 60, 10);
        let (_, stats) = brute(&v, 16, 1).unwrap();
        assert_eq!(
            stats.distance_calls as u128,
            brute_force_call_count(120, 16)
        );
    }

    #[test]
    fn call_count_degenerate() {
        assert_eq!(brute_force_call_count(10, 0), 0);
        assert_eq!(brute_force_call_count(3, 5), 0);
        // n = m: one subsequence, no non-self match.
        assert_eq!(brute_force_call_count(5, 5), 0);
    }

    #[test]
    fn call_count_is_quadratic_scale() {
        // Paper's ECG0606 row: length 2300, window 120 → ~4.24M calls.
        let calls = brute_force_call_count(2300, 120);
        assert!(calls > 4_000_000 && calls < 4_500_000, "{calls}");
    }

    #[test]
    fn finds_planted_bump() {
        let v = sine_with_bump(160, 100, 12);
        let (discords, _) = brute(&v, 16, 1).unwrap();
        assert_eq!(discords.len(), 1);
        let d = &discords[0];
        assert_eq!(d.rank, 0);
        // The discord window should overlap the planted bump.
        assert!(
            d.interval().overlaps(&Interval::new(100, 112)),
            "discord at {} misses bump at 100..112",
            d.position
        );
        assert!(d.distance > 0.0);
    }

    #[test]
    fn second_discord_does_not_overlap_first() {
        let mut v = sine_with_bump(240, 60, 12);
        // Second, different bump.
        for i in 0..12 {
            v[180 + i] -= 1.2 * (std::f64::consts::PI * i as f64 / 12.0).sin();
        }
        let (discords, _) = brute(&v, 16, 2).unwrap();
        assert_eq!(discords.len(), 2);
        assert!(!discords[0].interval().overlaps(&discords[1].interval()));
        assert!(discords[0].distance >= discords[1].distance);
        assert_eq!(discords[1].rank, 1);
    }

    #[test]
    fn k_larger_than_available_discords() {
        let v = sine_with_bump(64, 30, 8);
        // n=16 → at most a few non-overlapping discords fit.
        let (discords, _) = brute(&v, 16, 100).unwrap();
        assert!(discords.len() < 100);
        assert!(!discords.is_empty());
        // All pairwise non-overlapping.
        for i in 0..discords.len() {
            for j in i + 1..discords.len() {
                assert!(!discords[i].interval().overlaps(&discords[j].interval()));
            }
        }
    }

    #[test]
    fn parameter_validation() {
        assert!(matches!(brute(&[1.0; 10], 0, 1), Err(Error::ZeroLength)));
        assert!(matches!(
            brute(&[1.0; 10], 6, 1),
            Err(Error::LengthTooLarge { .. })
        ));
    }
}
