//! RRA — the Rare Rule Anomaly algorithm (paper §4.2, Algorithm 1).
//!
//! An exact variable-length discord search over the grammar's rule
//! intervals. The grammar supplies both the candidate set and the two
//! orderings that make the HOTSAX-style pruning effective:
//!
//! * **Outer** — candidates in ascending rule-usage frequency (uncovered
//!   runs have frequency 0 and go first): rare rules are likely anomalous,
//!   so `best_so_far` grows early;
//! * **Inner** — same-rule sibling subsequences first (they are likely
//!   near-identical, driving `nearest` below `best_so_far` fast), then the
//!   rest in random order.
//!
//! Because candidates vary in length, distances use the paper's Eq. (1):
//! Euclidean between z-normalized subsequences, the match linearly
//! resampled onto the candidate's length, normalized by that length.
//!
//! ## One rank loop at every thread count
//!
//! Each rank stripes its eligible candidates, in outer order, across
//! `threads` workers (the [`EngineConfig`](crate::EngineConfig) of an
//! [`RraDetector`](crate::RraDetector), the one public way into the
//! search) through `engine::fan_out`, which runs a single worker on the
//! calling thread. Workers share one best-so-far, read after every
//! evaluation: f64 bits in an `AtomicU64`, raised by `fetch_max` on the
//! bits. `Relaxed` ordering suffices, as the bound publishes no other
//! data and a stale read only prunes less. It starts at `+0.0` and only
//! completed distances enter it; those are finite and at least `+0.0`
//! (the square root of a sum of squares, over a length), a range on
//! which bit order is numeric order. Starting at `+0.0` rather than
//! below every distance prunes nothing more, since `nearest < +0.0` is
//! false for every such `nearest`.
//!
//! Each worker keeps its first-found best `(active_index, nearest)`; the
//! merge takes the larger nearest, ties to the lower active index. With
//! one worker this is Algorithm 1's sequential loop: the same order, the
//! same running bound, the same strict-`>` first-wins rule. With more,
//! the ranked discords stay **bit-identical**: a completed candidate's
//! nearest is its exact minimum (abandoning never lowers it), and a
//! pruned one fell strictly below some completed distance, so it can
//! neither win nor tie. The winners therefore complete under any
//! schedule, and the tie rule is the first-wins rule over the outer
//! order. Only the *cost* (distance calls, prune counts, events) varies
//! with worker count and timing.

use std::sync::atomic::{AtomicU64, Ordering};

use gv_discord::{distance, DiscordRecord, SearchStats};
use gv_obs::{
    Counter, Event, EventKind, LocalRecorder, Metric, NoopRecorder, Recorder, SpanId, SpanTimer,
    Stage,
};
use gv_sequitur::RuleId;
use gv_timeseries::{Interval, Resampled, SeriesStats, DEFAULT_ZNORM_THRESHOLD};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::engine::fan_out;
use crate::error::{Error, Result};
use crate::intervals::RuleInterval;

/// The RRA output: ranked variable-length discords plus the search cost.
#[derive(Debug, Clone)]
pub struct RraReport {
    /// Discords, best (largest normalized NN distance) first.
    pub discords: Vec<DiscordRecord>,
    /// Distance-call accounting (the Table 1 metric).
    pub stats: SearchStats,
    /// How many candidate intervals the grammar supplied.
    pub num_candidates: usize,
}

/// Ablation switches for the Algorithm 1 search. The defaults are the
/// paper's algorithm; turning pieces off quantifies what each grammar-
/// derived heuristic buys (see the `ablation_rra` bench binary).
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Order the outer loop by ascending rule frequency (`false`: random).
    pub outer_by_frequency: bool,
    /// Visit same-rule siblings first in the inner loop (`false`: one
    /// random order for everything).
    pub siblings_first: bool,
    /// Abandon distance computations early against the current nearest.
    pub early_abandon: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            outer_by_frequency: true,
            siblings_first: true,
            early_abandon: true,
        }
    }
}

/// Reusable z-normalization scratch for the *reference* paths
/// ([`reference_nn`], [`reference_rank`], [`nn_distance_profile`]),
/// which normalize candidate windows on the fly instead of building the
/// search-wide cache. The search itself no longer needs per-evaluation
/// buffers: normal forms come from the cache, and length-mismatched
/// matches are resampled lazily inside the fused kernel
/// ([`distance::euclidean_early_resampled`]) — nothing is materialized.
#[derive(Debug, Default)]
pub(crate) struct EvalBufs {
    p_z: Vec<f64>,
    q_z: Vec<f64>,
}

/// Reusable scratch state for the Algorithm 1 search: visit orders, the
/// sibling index, the per-rank active list, the prefix-sum statistics,
/// and the per-candidate normal-form cache. Held inside an engine
/// `Workspace` so repeated searches stop re-allocating after warm-up.
#[derive(Debug, Default)]
pub(crate) struct RraScratch {
    outer: Vec<usize>,
    inner: Vec<usize>,
    /// Candidates surviving the per-rank eligibility filter, in outer
    /// order.
    active: Vec<u32>,
    /// Sorted `(rule, candidate_index)` pairs — a flat, thread-shareable
    /// replacement for the per-rule sibling hash map. Within one rule the
    /// pairs stay in ascending candidate order, so sibling iteration
    /// matches the original insertion-order lists exactly.
    sib_pairs: Vec<(RuleId, u32)>,
    /// Prefix-sum statistics over the searched series: O(1),
    /// cancellation-safe window mean/std shared by every z-normalization
    /// in the search (DESIGN.md §12).
    stats: SeriesStats,
    /// Flat per-candidate z-normalized normal forms, computed **once per
    /// search** instead of once per comparison. Candidate `i` occupies
    /// `norms[norm_off[i] as usize..norm_off[i + 1] as usize]`. Rebuilt
    /// at the top of every `search_in` call (the cache is valid only for
    /// that call's `(values, candidates)` pair — invalidation is simply
    /// the rebuild), then shared read-only by every rank and worker.
    norms: Vec<f64>,
    norm_off: Vec<u32>,
}

impl RraScratch {
    /// Capacities of every reusable buffer, for allocation-stability
    /// assertions on a warmed-up workspace.
    pub(crate) fn capacity_signature(&self) -> [usize; 6] {
        [
            self.outer.capacity(),
            self.inner.capacity(),
            self.active.capacity(),
            self.sib_pairs.capacity(),
            self.stats.capacity(),
            self.norms.capacity().max(self.norm_off.capacity()),
        ]
    }
}

/// Builds the per-candidate normal-form cache: each candidate window
/// z-normalized via the prefix-sum statistics, laid out back to back in
/// `norms` with `norm_off` offsets (one more entry than candidates).
fn build_norm_cache(
    values: &[f64],
    candidates: &[RuleInterval],
    stats: &SeriesStats,
    norms: &mut Vec<f64>,
    norm_off: &mut Vec<u32>,
) {
    norms.clear();
    norm_off.clear();
    norm_off.reserve(candidates.len() + 1);
    norm_off.push(0);
    for c in candidates {
        let lo = norms.len();
        norms.resize(lo + c.interval.len(), 0.0);
        stats.znorm_window_into(
            values,
            c.interval.start,
            c.interval.end,
            DEFAULT_ZNORM_THRESHOLD,
            &mut norms[lo..],
        );
        norm_off.push(norms.len() as u32);
    }
}

/// Candidate `i`'s cached z-normalized form.
#[inline]
fn cached_norm<'a>(norms: &'a [f64], norm_off: &[u32], i: usize) -> &'a [f64] {
    &norms[norm_off[i] as usize..norm_off[i + 1] as usize]
}

/// Rebuilds the sibling index (see [`RraScratch`]) into `pairs`.
fn build_sibling_pairs(candidates: &[RuleInterval], pairs: &mut Vec<(RuleId, u32)>) {
    pairs.clear();
    for (i, c) in candidates.iter().enumerate() {
        if let Some(r) = c.rule {
            pairs.push((r, i as u32));
        }
    }
    pairs.sort_unstable();
}

/// The sorted-pairs sibling lookup: all candidates of `rule`, ascending.
fn sibling_range(pairs: &[(RuleId, u32)], rule: RuleId) -> &[(RuleId, u32)] {
    let lo = pairs.partition_point(|&(r, _)| r < rule);
    let hi = pairs.partition_point(|&(r, _)| r <= rule);
    &pairs[lo..hi]
}

/// Rank-constant eligibility: a candidate is searched when it does not
/// overlap an already-found discord, is non-empty, and passes the
/// tandem-repeat guard — a rule candidate whose every same-rule sibling is
/// a self-match (the rule's occurrences are adjacent repeats of each
/// other) demonstrably recurs — the grammar compressed it — so it is not
/// algorithmically random. The non-self constraint would orphan it onto
/// unrelated matches and inflate its NN distance; skip it as an outer
/// candidate (it still serves as an inner match for others).
fn eligible(
    candidates: &[RuleInterval],
    pi: usize,
    sib_pairs: &[(RuleId, u32)],
    found: &[DiscordRecord],
) -> bool {
    let p = &candidates[pi];
    if found.iter().any(|d| d.interval().overlaps(&p.interval)) {
        return false;
    }
    if p.interval.is_empty() {
        return false;
    }
    if let Some(r) = p.rule {
        let has_admissible_sibling = sibling_range(sib_pairs, r)
            .iter()
            .any(|&(_, qi)| qi as usize != pi && admissible(p, &candidates[qi as usize]));
        if !has_admissible_sibling {
            return false;
        }
    }
    true
}

/// One outer candidate's full inner search: records the Visited event,
/// runs the siblings-first then shared-random-order phases with pruning
/// against the rank's shared best-so-far `bound`, and records the outcome
/// event plus the pruned/completed counter. Returns `(nearest, pruned)`.
///
/// `bound` is read after every evaluation, so workers prune against each
/// other's completed candidates as soon as they land. `inner_span` is the
/// worker's `rra-inner` node, `None` when the search is untimed.
#[allow(clippy::too_many_arguments)]
fn scan_candidate(
    candidates: &[RuleInterval],
    norms: &[f64],
    norm_off: &[u32],
    pi: usize,
    sib_pairs: &[(RuleId, u32)],
    inner: &[usize],
    options: SearchOptions,
    bound: &AtomicU64,
    local: &LocalRecorder,
    inner_span: Option<SpanId>,
) -> (f64, bool) {
    let p = &candidates[pi];
    let p_len = p.interval.len();
    let detail = local.detailed();
    let best_so_far = || f64::from_bits(bound.load(Ordering::Relaxed));
    local.incr(Counter::RraCandidates);
    let calls_before = local.counter(Counter::DistanceCalls);
    if detail {
        local.record_value(Metric::CandidateLen, p_len as u64);
        local.record_value(Metric::RuleUses, p.frequency as u64);
        local.record_event(Event {
            position: p.interval.start as u64,
            length: p_len as u64,
            rule: p.rule.map(|r| r.0),
            frequency: p.frequency as u64,
            ..Event::new(EventKind::Visited)
        });
    }
    let p_z = cached_norm(norms, norm_off, pi);

    let mut nearest = f64::INFINITY;
    let mut pruned = false;
    let inner_timer = SpanTimer::start_at(inner_span.is_some(), inner_span);

    // Inner phase 1: same-rule siblings.
    if options.siblings_first {
        if let Some(r) = p.rule {
            for &(_, qi32) in sibling_range(sib_pairs, r) {
                let qi = qi32 as usize;
                if qi == pi {
                    continue;
                }
                let q = &candidates[qi];
                if !admissible(p, q) {
                    continue;
                }
                evaluate(
                    p_z,
                    cached_norm(norms, norm_off, qi),
                    local,
                    &mut nearest,
                    options.early_abandon,
                );
                if nearest < best_so_far() {
                    pruned = true;
                    break;
                }
            }
        }
    }

    // Inner phase 2: everything else, in random order.
    if !pruned {
        for &qi in inner {
            if qi == pi {
                continue;
            }
            let q = &candidates[qi];
            // Skip phase-1 siblings (when phase 1 ran).
            if options.siblings_first && p.rule.is_some() && q.rule == p.rule {
                continue;
            }
            if !admissible(p, q) {
                continue;
            }
            evaluate(
                p_z,
                cached_norm(norms, norm_off, qi),
                local,
                &mut nearest,
                options.early_abandon,
            );
            if nearest < best_so_far() {
                pruned = true;
                break;
            }
        }
    }

    inner_timer.finish(local);
    if detail {
        // A pruned candidate's `nearest` is finite by construction
        // (it dropped below `best_so_far`); a completed one may
        // have found no admissible match at all — encode that as
        // -1.0 so the JSON stays finite.
        let outcome = if pruned {
            EventKind::Pruned
        } else {
            EventKind::Completed
        };
        local.record_event(Event {
            position: p.interval.start as u64,
            length: p_len as u64,
            rule: p.rule.map(|r| r.0),
            frequency: p.frequency as u64,
            calls: local.counter(Counter::DistanceCalls) - calls_before,
            value: if nearest.is_finite() { nearest } else { -1.0 },
            ..Event::new(outcome)
        });
    }
    if pruned {
        local.incr(Counter::CandidatesPruned);
    } else {
        local.incr(Counter::CandidatesCompleted);
    }
    (nearest, pruned)
}

/// The search engine behind every public RRA entry point: explicit
/// candidates, options, thread count, and reusable scratch.
///
/// Counting happens once, in a search-local [`LocalRecorder`] the distance
/// kernels increment directly; [`SearchStats`] is derived from it and it
/// is merged into `recorder` under `parent` at the end. Spans are only
/// timed when `recorder` is enabled, so a [`NoopRecorder`] never reads the
/// clock.
///
/// # Errors
/// [`Error::NoCandidates`] when fewer than two candidates are supplied.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_in<R: Recorder>(
    values: &[f64],
    candidates: &[RuleInterval],
    k: usize,
    seed: u64,
    options: SearchOptions,
    threads: usize,
    scratch: &mut RraScratch,
    recorder: &R,
    parent: Option<SpanId>,
) -> Result<RraReport> {
    if candidates.len() < 2 {
        return Err(Error::NoCandidates);
    }
    // The search-local tally only keeps decision-level detail (events,
    // histograms, per-call timings) when the caller's sink wants it;
    // otherwise it only counts — no clock reads on the distance path.
    let local = LocalRecorder::with_detail(recorder.detailed());
    let timing = recorder.enabled();
    // Spans accumulate in `local` (rooted at rra-outer) and are grafted
    // under the caller's `parent` at the final merge. The inner node is
    // resolved up front so the tree's *shape* is the same for every
    // thread count, even when a rank scans zero candidates.
    let outer_timer = SpanTimer::start_if(timing, &local, None, Stage::RraOuter);
    let outer_span = outer_timer.span();
    if timing {
        local.span_id(outer_span, Stage::RraInner);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = candidates.len();

    let RraScratch {
        outer,
        inner,
        active,
        sib_pairs,
        stats,
        norms,
        norm_off,
    } = scratch;

    // Prefix-sum statistics + per-candidate normal forms, once per
    // search. Every rank, worker, and reference replay below reads these
    // same cached bits, so pruning order and thread count cannot change
    // any distance.
    stats.rebuild(values);
    build_norm_cache(values, candidates, stats, norms, norm_off);

    // Outer: ascending frequency, random within ties.
    outer.clear();
    outer.extend(0..n);
    outer.shuffle(&mut rng);
    if options.outer_by_frequency {
        outer.sort_by_key(|&i| candidates[i].frequency);
    }

    build_sibling_pairs(candidates, sib_pairs);

    // Shared random order for the "rest" phase of the inner loop.
    inner.clear();
    inner.extend(0..n);
    inner.shuffle(&mut rng);

    let mut found: Vec<DiscordRecord> = Vec::new();

    for rank in 0..k {
        let selected = search_rank(
            candidates, norms, norm_off, outer, inner, active, sib_pairs, &found, options, threads,
            &local, outer_span,
        );
        match selected {
            Some((pi, distance)) => found.push(DiscordRecord {
                position: candidates[pi].interval.start,
                length: candidates[pi].interval.len(),
                distance,
                rank,
            }),
            None => break,
        }
    }

    // The full search time; RraInner nests inside it, and the trace's
    // total skips nested stages so nothing double-counts. Under a
    // parallel search the merged RraInner sum can exceed this
    // wall-clock figure — workers overlap.
    outer_timer.finish(&local);
    let stats = SearchStats::from_recorder(&local);
    local.merge_into_under(recorder, parent);
    Ok(RraReport {
        discords: found,
        stats,
        num_candidates: n,
    })
}

/// One rank of Algorithm 1 at any thread count (see the module docs).
/// Each worker counts into its own recorder, merged into `local` under
/// `outer_span` in worker order. Returns the winning candidate index and
/// its NN distance.
#[allow(clippy::too_many_arguments)]
fn search_rank(
    candidates: &[RuleInterval],
    norms: &[f64],
    norm_off: &[u32],
    outer: &[usize],
    inner: &[usize],
    active: &mut Vec<u32>,
    sib_pairs: &[(RuleId, u32)],
    found: &[DiscordRecord],
    options: SearchOptions,
    threads: usize,
    local: &LocalRecorder,
    outer_span: Option<SpanId>,
) -> Option<(usize, f64)> {
    active.clear();
    active.extend(
        outer
            .iter()
            .copied()
            .filter(|&pi| eligible(candidates, pi, sib_pairs, found))
            .map(|pi| pi as u32),
    );
    if active.is_empty() {
        return None;
    }
    let workers = threads.clamp(1, active.len());
    let active: &[u32] = active;
    let bound = AtomicU64::new(0.0f64.to_bits());
    let detail = local.detailed();

    let results = fan_out(workers, |t| {
        let wlocal = LocalRecorder::with_detail(detail);
        // SpanIds are per-recorder: each worker roots its own rra-inner
        // node in `wlocal` (only when the search is timed), and the merge
        // under rra-outer folds them into the node `search_in` resolved.
        let wspan = outer_span.and_then(|_| wlocal.span_id(None, Stage::RraInner));
        let mut best: Option<(u32, f64)> = None;
        for (ai, &pi) in active.iter().enumerate().skip(t).step_by(workers) {
            let pi = pi as usize;
            let (nearest, pruned) = scan_candidate(
                candidates, norms, norm_off, pi, sib_pairs, inner, options, &bound, &wlocal, wspan,
            );
            // Only finite, fully-searched distances may enter the bound or
            // win: a candidate with no admissible match has an infinite
            // nearest.
            if !pruned && nearest.is_finite() {
                if best.is_none_or(|(_, bn)| nearest > bn) {
                    best = Some((ai as u32, nearest));
                }
                bound.fetch_max(nearest.to_bits(), Ordering::Relaxed);
            }
        }
        (wlocal, best)
    });

    // Larger nearest wins; ties go to the lower active index, i.e. the
    // earlier outer position.
    let mut best: Option<(u32, f64)> = None;
    for (wlocal, wbest) in results {
        wlocal.merge_into_under(local, outer_span);
        if let Some((ai, nearest)) = wbest {
            if best.is_none_or(|(bai, bn)| nearest > bn || (nearest == bn && ai < bai)) {
                best = Some((ai, nearest));
            }
        }
    }
    best.map(|(ai, d)| (active[ai as usize] as usize, d))
}

/// Algorithm 1 line 7: `q` is a non-self match of `p` when their start
/// offsets differ by at least `p`'s length.
fn admissible(p: &RuleInterval, q: &RuleInterval) -> bool {
    p.interval.start.abs_diff(q.interval.start) >= p.interval.len()
}

// gv-lint: hot
/// One inner-loop distance evaluation over **precomputed** z-normalized
/// forms. Equal lengths go straight through the chunked kernel (the n→n
/// resample is a bit-exact identity, so nothing is lost by skipping it);
/// differing lengths take the **fused** kernel, which interpolates the
/// match through a lazy [`Resampled`] view chunk by chunk — bitwise the
/// materialize-then-compare result, but an early-abandoned comparison
/// only pays for the points it actually consumed, and the innermost call
/// allocates nothing at all (DESIGN.md §12).
fn evaluate<R: Recorder>(
    p_z: &[f64],
    q_z: &[f64],
    recorder: &R,
    nearest: &mut f64,
    early_abandon: bool,
) {
    if q_z.is_empty() {
        return;
    }
    let abandon_at = if early_abandon {
        *nearest
    } else {
        f64::INFINITY
    };
    let d = if q_z.len() == p_z.len() {
        distance::normalized_euclidean_early(recorder, p_z, q_z, abandon_at)
    } else {
        let q = Resampled::new(q_z, p_z.len());
        distance::normalized_euclidean_early_resampled(recorder, p_z, &q, abandon_at)
    };
    if let Some(d) = d {
        if d < *nearest {
            *nearest = d;
        }
    }
}
// gv-lint: end-hot

/// Exact nearest-non-self-match distance of candidate `pi`, evaluated over
/// every admissible candidate with **no pruning against a best-so-far
/// bound** — the heuristic-free reference the `gv-check` differential
/// verification compares the search against. Returns `f64::INFINITY` when
/// the candidate has no admissible match.
///
/// The distances go through the exact same statistics source
/// ([`SeriesStats`] prefix sums) and `znorm → resample → Eq. (1)` kernel
/// as the search, and a completed candidate's running minimum is
/// order-independent, so the result is **bit-identical** to the nearest
/// distance Algorithm 1 reports for a completed candidate.
pub fn reference_nn(values: &[f64], candidates: &[RuleInterval], pi: usize) -> f64 {
    let stats = SeriesStats::new(values);
    reference_nn_with(values, candidates, pi, &stats, &mut EvalBufs::default())
}

/// [`reference_nn`] against caller-built statistics and buffers, so the
/// per-candidate replays of [`reference_rank`] and the profile share one
/// prefix build.
fn reference_nn_with(
    values: &[f64],
    candidates: &[RuleInterval],
    pi: usize,
    stats: &SeriesStats,
    bufs: &mut EvalBufs,
) -> f64 {
    let p = &candidates[pi];
    if p.interval.is_empty() {
        return f64::INFINITY;
    }
    let EvalBufs { p_z, q_z } = bufs;
    p_z.resize(p.interval.len(), 0.0);
    stats.znorm_window_into(
        values,
        p.interval.start,
        p.interval.end,
        DEFAULT_ZNORM_THRESHOLD,
        p_z,
    );
    let mut nearest = f64::INFINITY;
    for (qi, q) in candidates.iter().enumerate() {
        if qi == pi || !admissible(p, q) {
            continue;
        }
        if q.interval.is_empty() {
            continue;
        }
        q_z.resize(q.interval.len(), 0.0);
        stats.znorm_window_into(
            values,
            q.interval.start,
            q.interval.end,
            DEFAULT_ZNORM_THRESHOLD,
            q_z,
        );
        evaluate(p_z, q_z, &NoopRecorder, &mut nearest, true);
    }
    nearest
}

/// Heuristic-free replay of one rank of Algorithm 1: given the discords
/// already `found`, scans every still-eligible candidate (same overlap and
/// tandem-repeat rules as the search), computes each one's exact
/// nearest-neighbour distance via [`reference_nn`], and returns the
/// maximum. Quadratic in the candidate count — this is the brute-force
/// oracle the `gv-check` differential test holds the (pruned, parallel)
/// search to, not a fast path.
///
/// The winning *distance* is bit-identical to the search's: pruned
/// candidates are strictly below the rank's final maximum so they can
/// never win, and a completed candidate's nearest is its exact minimum.
/// The winning *interval* may differ only when two candidates tie exactly
/// in distance bits (the search breaks ties by its frequency-sorted outer
/// order, the reference by candidate index).
pub fn reference_rank(
    values: &[f64],
    candidates: &[RuleInterval],
    found: &[DiscordRecord],
) -> Option<(Interval, f64)> {
    let mut sib_pairs = Vec::new();
    build_sibling_pairs(candidates, &mut sib_pairs);
    let stats = SeriesStats::new(values);
    let mut bufs = EvalBufs::default();
    let mut best: Option<(usize, f64)> = None;
    for pi in 0..candidates.len() {
        if !eligible(candidates, pi, &sib_pairs, found) {
            continue;
        }
        let nearest = reference_nn_with(values, candidates, pi, &stats, &mut bufs);
        if nearest.is_finite() && best.is_none_or(|(_, bn)| nearest > bn) {
            best = Some((pi, nearest));
        }
    }
    best.map(|(pi, d)| (candidates[pi].interval, d))
}

/// Exact nearest-non-self-match distance for every searchable candidate —
/// the vertical-line profiles in the bottom panels of Figures 2, 3 and 7.
/// Quadratic in the candidate count; intended for figure-sized inputs.
///
/// Applies the same tandem-repeat guard as the Algorithm 1 search: a rule
/// candidate whose every same-rule sibling is a self-match is excluded
/// (the search never considers it an outer candidate, so including it here
/// would make the profile's maximum disagree with the search's result).
pub fn nn_distance_profile(values: &[f64], candidates: &[RuleInterval]) -> Vec<(Interval, f64)> {
    // One prefix build and one reusable buffer set for the whole profile
    // — the same statistics source as the search, so profile maxima and
    // search results agree bit for bit.
    let mut sib_pairs = Vec::new();
    build_sibling_pairs(candidates, &mut sib_pairs);
    let stats = SeriesStats::new(values);
    let mut bufs = EvalBufs::default();
    let mut out = Vec::with_capacity(candidates.len());
    for pi in 0..candidates.len() {
        if !eligible(candidates, pi, &sib_pairs, &[]) {
            continue;
        }
        let nearest = reference_nn_with(values, candidates, pi, &stats, &mut bufs);
        if nearest.is_finite() {
            out.push((candidates[pi].interval, nearest));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::intervals::rule_intervals;
    use crate::pipeline::AnomalyPipeline;

    fn candidates_from(values: &[f64], w: usize, p: usize, a: usize) -> Vec<RuleInterval> {
        let model = AnomalyPipeline::new(PipelineConfig::new(w, p, a).unwrap())
            .model(values, &NoopRecorder)
            .unwrap();
        rule_intervals(&model)
    }

    /// The sequential search over an explicit candidate list, with fresh
    /// scratch and no recorder.
    fn search(
        values: &[f64],
        candidates: &[RuleInterval],
        k: usize,
        seed: u64,
        options: SearchOptions,
    ) -> Result<RraReport> {
        search_in(
            values,
            candidates,
            k,
            seed,
            options,
            1,
            &mut RraScratch::default(),
            &NoopRecorder,
            None,
        )
    }

    fn planted() -> Vec<f64> {
        let mut v: Vec<f64> = (0..2400).map(|i| (i as f64 / 20.0).sin()).collect();
        for (i, x) in v[1200..1280].iter_mut().enumerate() {
            *x = 0.25 * (i as f64 / 5.0).cos();
        }
        v
    }

    #[test]
    fn too_few_candidates_is_an_error() {
        let c: Vec<RuleInterval> = vec![];
        assert!(matches!(
            search(&[0.0; 10], &c, 1, 0, SearchOptions::default()),
            Err(Error::NoCandidates)
        ));
    }

    #[test]
    fn finds_the_planted_discord() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let report = search(&v, &cands, 1, 0, SearchOptions::default()).unwrap();
        assert_eq!(report.discords.len(), 1);
        let d = &report.discords[0];
        assert!(
            d.interval().overlaps(&Interval::new(1150, 1330)),
            "discord {} misses plant",
            d.interval()
        );
        assert_eq!(report.num_candidates, cands.len());
    }

    #[test]
    fn discord_is_exact_nearest_neighbor_maximum() {
        // The reported discord must have the maximal NN distance among all
        // candidates, as computed by the exhaustive profile.
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let report = search(&v, &cands, 1, 42, SearchOptions::default()).unwrap();
        let d = &report.discords[0];
        let profile = nn_distance_profile(&v, &cands);
        let max = profile
            .iter()
            .map(|(_, nn)| *nn)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (d.distance - max).abs() < 1e-9,
            "reported {} vs exhaustive max {max}",
            d.distance
        );
    }

    /// Satellite regression for the catastrophic-cancellation bug: the
    /// full pipeline (SAX discretization → grammar → RRA search) on a
    /// series riding a 1e8 baseline must produce nonzero per-window σ
    /// and find the same discord (position, length, rank) as the
    /// baseline-0 twin. Under the old `E[x²]−E[x]²` statistics every
    /// window's variance cancelled below ulp at this offset, z-norm
    /// degraded to mean subtraction, SAX words collapsed, and the
    /// planted anomaly was silently missed.
    #[test]
    fn large_baseline_offset_finds_the_same_discord() {
        let v0 = planted();
        let v1: Vec<f64> = v0.iter().map(|x| x + 1e8).collect();

        // Every window keeps its spread at the offset.
        let stats = SeriesStats::new(&v1);
        for start in (0..v1.len() - 100).step_by(50) {
            let (_, sd) = stats.mean_std(start, start + 100);
            assert!(sd > 0.1, "window [{start}..) lost its σ at 1e8 baseline");
        }

        // Identical discretization → identical candidate intervals.
        let c0 = candidates_from(&v0, 100, 5, 4);
        let c1 = candidates_from(&v1, 100, 5, 4);
        assert_eq!(
            c0.iter().map(|c| c.interval).collect::<Vec<_>>(),
            c1.iter().map(|c| c.interval).collect::<Vec<_>>(),
            "candidate intervals diverged at 1e8 baseline"
        );

        // Same discord, same rank (distances may differ in the last bits
        // — the offset costs ~1e-8 absolute precision in the z-normed
        // values — so the assertion is on identity, not bits).
        let r0 = search(&v0, &c0, 1, 0, SearchOptions::default()).unwrap();
        let r1 = search(&v1, &c1, 1, 0, SearchOptions::default()).unwrap();
        assert_eq!(r0.discords.len(), 1);
        assert_eq!(r1.discords.len(), 1);
        let (d0, d1) = (&r0.discords[0], &r1.discords[0]);
        assert_eq!(
            (d0.position, d0.length, d0.rank),
            (d1.position, d1.length, d1.rank),
            "discord diverged at 1e8 baseline"
        );
        assert!((d0.distance - d1.distance).abs() < 1e-6);
    }

    #[test]
    fn seed_does_not_change_the_result() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let a = search(&v, &cands, 1, 1, SearchOptions::default()).unwrap();
        let b = search(&v, &cands, 1, 999, SearchOptions::default()).unwrap();
        assert_eq!(a.discords[0].position, b.discords[0].position);
        assert!((a.discords[0].distance - b.discords[0].distance).abs() < 1e-9);
    }

    #[test]
    fn multiple_discords_disjoint_and_ordered() {
        let mut v = planted();
        for (i, x) in v[400..460].iter_mut().enumerate() {
            *x += 0.8 * (std::f64::consts::PI * i as f64 / 60.0).sin();
        }
        let cands = candidates_from(&v, 100, 5, 4);
        let report = search(&v, &cands, 3, 0, SearchOptions::default()).unwrap();
        assert!(report.discords.len() >= 2);
        for w in report.discords.windows(2) {
            assert!(w[0].distance >= w[1].distance);
            assert!(!w[0].interval().overlaps(&w[1].interval()));
        }
        for (i, d) in report.discords.iter().enumerate() {
            assert_eq!(d.rank, i);
        }
    }

    #[test]
    fn discord_lengths_vary() {
        // Variable-length output is the point of RRA: candidate lengths in
        // the report should not all equal the window.
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let lens: std::collections::BTreeSet<usize> =
            cands.iter().map(|c| c.interval.len()).collect();
        assert!(lens.len() > 3, "only lengths {lens:?}");
    }

    #[test]
    fn options_change_cost_not_result() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let full = search(&v, &cands, 1, 3, SearchOptions::default()).unwrap();
        for options in [
            SearchOptions {
                outer_by_frequency: false,
                ..Default::default()
            },
            SearchOptions {
                siblings_first: false,
                ..Default::default()
            },
            SearchOptions {
                early_abandon: false,
                ..Default::default()
            },
            SearchOptions {
                outer_by_frequency: false,
                siblings_first: false,
                early_abandon: false,
            },
        ] {
            let r = search(&v, &cands, 1, 3, options).unwrap();
            assert_eq!(
                r.discords[0].position, full.discords[0].position,
                "{options:?}"
            );
            assert!(
                (r.discords[0].distance - full.discords[0].distance).abs() < 1e-9,
                "{options:?}"
            );
        }
        // The full heuristics must not be more expensive than the fully
        // ablated search.
        let naive = search(
            &v,
            &cands,
            1,
            3,
            SearchOptions {
                outer_by_frequency: false,
                siblings_first: false,
                early_abandon: false,
            },
        )
        .unwrap();
        assert!(full.stats.distance_calls <= naive.stats.distance_calls);
    }

    #[test]
    fn events_account_for_every_distance_call() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let rec = LocalRecorder::new();
        let report = search_in(
            &v,
            &cands,
            2,
            0,
            SearchOptions::default(),
            1,
            &mut RraScratch::default(),
            &rec,
            None,
        )
        .unwrap();
        let events = rec.events_vec();
        // Every distance call happens inside exactly one outer candidate's
        // inner loop, so the per-outcome deltas must sum to the total.
        let outcome_calls: u64 = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Pruned | EventKind::Completed))
            .map(|e| e.calls)
            .sum();
        assert_eq!(outcome_calls, report.stats.distance_calls);
        let visited = events
            .iter()
            .filter(|e| e.kind == EventKind::Visited)
            .count() as u64;
        assert_eq!(visited, rec.counter(Counter::RraCandidates));
        let abandoned = events
            .iter()
            .filter(|e| e.kind == EventKind::Abandoned)
            .count() as u64;
        assert_eq!(abandoned, report.stats.early_abandoned);
        // Histograms fill alongside the events.
        assert_eq!(rec.histogram(Metric::CandidateLen).count(), visited);
        assert_eq!(rec.histogram(Metric::RuleUses).count(), visited);
        assert_eq!(
            rec.histogram(Metric::DistanceNanos).count(),
            report.stats.distance_calls
        );
        assert_eq!(rec.histogram(Metric::AbandonPos).count(), abandoned);
        // Decision telemetry must not change the result.
        let plain = search(&v, &cands, 2, 0, SearchOptions::default()).unwrap();
        assert_eq!(plain.discords.len(), report.discords.len());
        for (a, b) in plain.discords.iter().zip(&report.discords) {
            assert_eq!(a.position, b.position);
            assert_eq!(a.length, b.length);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    #[test]
    fn parallel_search_matches_sequential_bit_for_bit() {
        let mut v = planted();
        for (i, x) in v[400..460].iter_mut().enumerate() {
            *x += 0.8 * (std::f64::consts::PI * i as f64 / 60.0).sin();
        }
        let cands = candidates_from(&v, 100, 5, 4);
        let run = |threads| {
            search_in(
                &v,
                &cands,
                3,
                0,
                SearchOptions::default(),
                threads,
                &mut RraScratch::default(),
                &NoopRecorder,
                None,
            )
            .unwrap()
        };
        let sequential = run(1);
        for threads in [2, 3, 4, 8] {
            let parallel = run(threads);
            assert_eq!(sequential.discords.len(), parallel.discords.len());
            for (a, b) in sequential.discords.iter().zip(&parallel.discords) {
                assert_eq!(a.position, b.position, "threads={threads}");
                assert_eq!(a.length, b.length, "threads={threads}");
                assert_eq!(a.rank, b.rank, "threads={threads}");
                assert_eq!(
                    a.distance.to_bits(),
                    b.distance.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn reference_rank_matches_search_rank_by_rank() {
        let mut v = planted();
        for (i, x) in v[400..460].iter_mut().enumerate() {
            *x += 0.8 * (std::f64::consts::PI * i as f64 / 60.0).sin();
        }
        let cands = candidates_from(&v, 100, 5, 4);
        let report = search(&v, &cands, 3, 0, SearchOptions::default()).unwrap();
        // Replay each rank with the already-reported discords as the
        // found-list: the reference maximum must equal the reported
        // distance bit-for-bit, and the reported interval's own exact NN
        // must equal its reported distance.
        for (r, d) in report.discords.iter().enumerate() {
            let (_, ref_dist) =
                reference_rank(&v, &cands, &report.discords[..r]).expect("reference finds a rank");
            assert_eq!(
                ref_dist.to_bits(),
                d.distance.to_bits(),
                "rank {r}: reference {ref_dist} vs reported {}",
                d.distance
            );
            let pi = cands
                .iter()
                .position(|c| c.interval == d.interval())
                .expect("reported interval is a candidate");
            assert_eq!(reference_nn(&v, &cands, pi).to_bits(), d.distance.to_bits());
        }
        // Past the last reported rank the reference agrees there is more
        // (or not) exactly when the search stopped early.
        if report.discords.len() == 3 {
            // Search filled k; nothing to assert about rank 3.
        } else {
            assert!(reference_rank(&v, &cands, &report.discords).is_none());
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_and_stops_allocating() {
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let fresh = search(&v, &cands, 2, 0, SearchOptions::default()).unwrap();
        let mut scratch = RraScratch::default();
        // The first call warms the scratch up; its capacities then freeze.
        let mut sig = None;
        for _ in 0..4 {
            let again = search_in(
                &v,
                &cands,
                2,
                0,
                SearchOptions::default(),
                1,
                &mut scratch,
                &NoopRecorder,
                None,
            )
            .unwrap();
            assert_eq!(fresh.discords.len(), again.discords.len());
            for (a, b) in fresh.discords.iter().zip(&again.discords) {
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            let now = scratch.capacity_signature();
            assert_eq!(*sig.get_or_insert(now), now, "scratch buffers grew");
        }
    }

    #[test]
    fn profile_is_symmetric_in_scale() {
        // Scaling the whole series must not change z-normalized distances.
        let v = planted();
        let cands = candidates_from(&v, 100, 5, 4);
        let scaled: Vec<f64> = v.iter().map(|x| x * 100.0 + 5.0).collect();
        let p1 = nn_distance_profile(&v, &cands);
        let p2 = nn_distance_profile(&scaled, &cands);
        assert_eq!(p1.len(), p2.len());
        for ((i1, d1), (i2, d2)) in p1.iter().zip(&p2) {
            assert_eq!(i1, i2);
            assert!((d1 - d2).abs() < 1e-9);
        }
    }
}
