//! Counted, early-abandoning distance computation.
//!
//! Every entry into a distance routine — even one abandoned after a few
//! points — increments [`Counter::DistanceCalls`] on the supplied
//! recorder, reproducing the paper's cost metric ("number of calls to the
//! distance function", Table 1). The kernels are free functions generic
//! over [`Recorder`]; every search passes its search-local
//! [`LocalRecorder`](gv_obs::LocalRecorder), so the kernels' increments
//! are the only count there is.

use gv_obs::{Counter, DetailTimer, Event, EventKind, Metric, Recorder};
use gv_timeseries::Resampled;

/// Independent accumulator lanes in the chunked kernels. Four partial
/// sums break the loop-carried dependence of a single `sum += d*d`, so
/// the compiler can keep the adds in flight (and autovectorize) without
/// `unsafe` or target intrinsics.
const LANES: usize = 4;

/// Points consumed between abandon checks — two lane-widths per chunk.
const STRIDE: usize = 2 * LANES;

/// Horizontal reduction over the lanes in the canonical order
/// `(l0 + l1) + (l2 + l3)`. Every caller — including the per-chunk
/// abandon check — reduces this way, so completed kernels and the
/// order-explicit scalar reference in the tests agree bit for bit.
#[inline]
fn lane_sum(acc: &[f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Accumulates the squared differences of one chunk (`a.len() == b.len()
/// <= STRIDE`, chunk start aligned to a STRIDE boundary) into the lanes.
///
/// Canonical reduction order: the element at chunk offset `t` lands in
/// lane `t % LANES`, one rounded add per element, in increasing `t` —
/// which for aligned chunks means lane `j` always sees global indices
/// `j, j+4, j+8, …` in order, regardless of chunk width.
#[inline]
fn accumulate_chunk(acc: &mut [f64; LANES], a: &[f64], b: &[f64]) {
    if a.len() == STRIDE && b.len() == STRIDE {
        // Full chunk: two 4-wide passes the optimizer can turn into
        // vector ops (lengths are known, bounds checks fold away).
        for j in 0..LANES {
            let d = a[j] - b[j];
            acc[j] += d * d;
        }
        for j in 0..LANES {
            let d = a[j + LANES] - b[j + LANES];
            acc[j] += d * d;
        }
    } else {
        // Tail chunk: same lane assignment, scalar.
        for (t, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = x - y;
            acc[t % LANES] += d * d;
        }
    }
}

// gv-lint: hot
/// Early-abandoning Euclidean distance: returns `None` as soon as the
/// running sum of squares proves the distance is `>= abandon_at`
/// (the caller's current pruning threshold). Still counts as one call;
/// abandoned calls additionally increment [`Counter::EarlyAbandons`].
///
/// With `abandon_at = f64::INFINITY` this never abandons and returns
/// the full distance.
///
/// Per-call timing gates on `Recorder::detail()` via [`DetailTimer`]
/// (a compile-time `None` on `NoopRecorder`), so the uninstrumented
/// kernel never reads the clock.
///
/// # Panics
/// Panics on length mismatch.
pub fn euclidean_early<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &[f64],
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: mismatched subsequence lengths are a caller bug
    assert_eq!(a.len(), b.len(), "euclidean_early: length mismatch");
    recorder.incr(Counter::DistanceCalls);
    let timer = DetailTimer::start(recorder, Metric::DistanceNanos);
    let limit_sq = if abandon_at.is_finite() {
        abandon_at * abandon_at
    } else {
        f64::INFINITY
    };
    let n = a.len();
    let mut acc = [0.0; LANES];
    // Check the bound once per chunk: branch less in the hot loop.
    let mut i = 0;
    while i < n {
        let hi = (i + STRIDE).min(n);
        accumulate_chunk(&mut acc, &a[i..hi], &b[i..hi]);
        i = hi;
        if lane_sum(&acc) >= limit_sq {
            abandon_exit(recorder, timer, i, n, abandon_at);
            return None;
        }
    }
    timer.finish(recorder);
    Some(lane_sum(&acc).sqrt())
}

/// The shared abandon exit of the early-abandoning kernels: counts the
/// abandon and finishes the per-call timer — symmetric with the
/// completion path, a no-op when unarmed. Decision-level detail (the
/// abandon-position histogram and the structured event) goes through
/// `Recorder::detail()`, the same gate the timer armed on.
#[inline]
fn abandon_exit<R: Recorder>(
    recorder: &R,
    timer: DetailTimer,
    pos: usize,
    len: usize,
    abandon_at: f64,
) {
    recorder.incr(Counter::EarlyAbandons);
    timer.finish(recorder);
    if let Some(detail) = recorder.detail() {
        detail.record_value(Metric::AbandonPos, pos as u64);
        detail.record_event(Event {
            position: pos as u64,
            length: len as u64,
            value: abandon_at,
            ..Event::new(EventKind::Abandoned)
        });
    }
}

/// Early-abandoning Euclidean distance between `a` and the *virtually
/// resampled* view `b` (`b.len() == a.len()`): bit-identical to
/// materializing `resample_to` into a buffer and calling
/// [`euclidean_early`] — same interpolation per point (both go through
/// [`Resampled::fill`]), same chunk boundaries, same abandon positions,
/// same events — but the interpolation runs fused into the kernel, each
/// 8-point chunk written into a stack buffer just before it is summed,
/// so an abandoned call only pays for the points it actually consumed
/// instead of resampling the whole subsequence up front. Counts one
/// [`Counter::DistanceCalls`] like every kernel, and one
/// [`Counter::ResampledCalls`] besides.
///
/// # Panics
/// Panics on length mismatch.
pub fn euclidean_early_resampled<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &Resampled<'_>,
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: mismatched subsequence lengths are a caller bug
    assert_eq!(
        a.len(),
        b.len(),
        "euclidean_early_resampled: length mismatch"
    );
    recorder.incr(Counter::DistanceCalls);
    recorder.incr(Counter::ResampledCalls);
    let timer = DetailTimer::start(recorder, Metric::DistanceNanos);
    let limit_sq = if abandon_at.is_finite() {
        abandon_at * abandon_at
    } else {
        f64::INFINITY
    };
    let n = a.len();
    let mut acc = [0.0; LANES];
    let mut qbuf = [0.0f64; STRIDE];
    let mut i = 0;
    while i < n {
        let hi = (i + STRIDE).min(n);
        let q = &mut qbuf[..hi - i];
        b.fill(i, q);
        accumulate_chunk(&mut acc, &a[i..hi], q);
        i = hi;
        if lane_sum(&acc) >= limit_sq {
            abandon_exit(recorder, timer, i, n, abandon_at);
            return None;
        }
    }
    timer.finish(recorder);
    Some(lane_sum(&acc).sqrt())
}

/// [`normalized_euclidean_early`] over a virtually resampled match —
/// the Eq. (1) distance the RRA inner loop takes when candidate lengths
/// differ, with the resample fused into the abandoning kernel.
///
/// # Panics
/// Panics on length mismatch or an empty candidate.
pub fn normalized_euclidean_early_resampled<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &Resampled<'_>,
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an empty subsequence is a caller bug
    assert!(!a.is_empty(), "normalized distance of empty subsequence");
    let len = a.len() as f64;
    let raw_limit = if abandon_at.is_finite() {
        abandon_at * len
    } else {
        f64::INFINITY
    };
    euclidean_early_resampled(recorder, a, b, raw_limit).map(|d| d / len)
}

/// Early-abandoning **length-normalized** Euclidean distance — the
/// paper's Eq. (1): `sqrt(Σ (p_i − q_i)²) / len(p)`, which "favors
/// shorter subsequences for the same distance value". Abandons (and
/// returns `None`) once the normalized distance provably reaches
/// `abandon_at`.
///
/// # Panics
/// Panics on length mismatch or empty slices.
pub fn normalized_euclidean_early<R: Recorder>(
    recorder: &R,
    a: &[f64],
    b: &[f64],
    abandon_at: f64,
) -> Option<f64> {
    // gv-lint: allow(panic-reachability) documented `# Panics` precondition: an empty subsequence is a caller bug
    assert!(!a.is_empty(), "normalized distance of empty subsequence");
    let len = a.len() as f64;
    let raw_limit = if abandon_at.is_finite() {
        abandon_at * len
    } else {
        f64::INFINITY
    };
    euclidean_early(recorder, a, b, raw_limit).map(|d| d / len)
}
// gv-lint: end-hot

#[cfg(test)]
mod tests {
    use super::*;
    use gv_obs::{LocalRecorder, NoopRecorder};

    #[test]
    fn early_abandon_triggers_and_counts() {
        let rec = LocalRecorder::new();
        let a = vec![0.0; 100];
        let mut b = vec![0.0; 100];
        b[0] = 10.0; // contributes 100 to the sum immediately
        let r = euclidean_early(&rec, &a, &b, 5.0); // 5² = 25 < 100
        assert_eq!(r, None);
        assert_eq!(rec.counter(Counter::DistanceCalls), 1);
        assert_eq!(rec.counter(Counter::EarlyAbandons), 1);
        // Full computation when the threshold is high enough.
        let r2 = euclidean_early(&rec, &a, &b, 50.0);
        assert_eq!(r2, Some(10.0));
        assert_eq!(rec.counter(Counter::DistanceCalls), 2);
        assert_eq!(rec.counter(Counter::EarlyAbandons), 1);
    }

    #[test]
    fn abandon_exactly_at_threshold() {
        // Distance is exactly 5.0 → abandoning at 5.0 must reject (>=).
        assert_eq!(euclidean_early(&NoopRecorder, &[0.0], &[5.0], 5.0), None);
        assert!(euclidean_early(&NoopRecorder, &[0.0], &[5.0], 5.0001).is_some());
    }

    #[test]
    fn normalized_distance_favors_shorter() {
        // Same raw distance, different lengths → shorter wins (larger value).
        let short =
            normalized_euclidean_early(&NoopRecorder, &[0.0, 0.0], &[3.0, 4.0], f64::INFINITY)
                .unwrap();
        let long = normalized_euclidean_early(
            &NoopRecorder,
            &[0.0, 0.0, 0.0, 0.0],
            &[3.0, 4.0, 0.0, 0.0],
            f64::INFINITY,
        )
        .unwrap();
        assert!((short - 2.5).abs() < 1e-12);
        assert!((long - 1.25).abs() < 1e-12);
        assert!(short > long);
    }

    #[test]
    fn normalized_abandon_threshold_scales_with_length() {
        // Raw distance 5 over length 4 → normalized 1.25.
        let a = [0.0, 0.0, 0.0, 0.0];
        let b = [3.0, 4.0, 0.0, 0.0];
        assert_eq!(
            normalized_euclidean_early(&NoopRecorder, &a, &b, 1.25),
            None
        );
        let d = normalized_euclidean_early(&NoopRecorder, &a, &b, 1.26).unwrap();
        assert!((d - 1.25).abs() < 1e-12);
    }

    #[test]
    fn kernels_work_against_any_recorder() {
        // Noop: result identical, nothing counted anywhere.
        let d = euclidean_early(&NoopRecorder, &[0.0, 0.0], &[3.0, 4.0], f64::INFINITY);
        assert!((d.unwrap() - 5.0).abs() < 1e-12);
        // Local: one call per entry, abandoned or not.
        let rec = LocalRecorder::new();
        assert!(euclidean_early(&rec, &[0.0], &[5.0], 1.0).is_none());
        assert!(euclidean_early(&rec, &[0.0], &[5.0], 100.0).is_some());
        assert_eq!(rec.counter(Counter::DistanceCalls), 2);
        assert_eq!(rec.counter(Counter::EarlyAbandons), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        euclidean_early(&NoopRecorder, &[1.0], &[1.0, 2.0], f64::INFINITY);
    }

    #[test]
    fn detailed_recorder_gets_timings_and_abandon_events() {
        let rec = LocalRecorder::new();
        let a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        b[0] = 10.0;
        assert!(euclidean_early(&rec, &a, &b, 5.0).is_none());
        assert!(euclidean_early(&rec, &a, &b, 50.0).is_some());
        assert!(euclidean_early(&rec, &a, &b, f64::INFINITY).is_some());
        // Three calls, three per-call timings.
        assert_eq!(rec.histogram(Metric::DistanceNanos).count(), 3);
        // One abandon: prefix position recorded and a structured event.
        assert_eq!(rec.histogram(Metric::AbandonPos).count(), 1);
        let events = rec.events_vec();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Abandoned);
        assert_eq!(events[0].length, 64);
        assert!(events[0].position >= 1 && events[0].position <= 64);
        assert!((events[0].value - 5.0).abs() < 1e-12);
    }

    /// The canonical reduction order of the chunked kernel, written as
    /// the obvious sequential loop: element `i` lands in lane `i % 4`,
    /// one rounded add per element, lanes combined `(l0+l1)+(l2+l3)`.
    fn reference_lane_sum(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = [0.0f64; 4];
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let d = x - y;
            acc[i % 4] += d * d;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// Property test over every length 0..=512 (covering all
    /// non-multiple-of-stride tails): the chunked production kernel, run
    /// to completion, is bit-identical to the order-explicit sequential
    /// reference loop, and within float tolerance of the pre-chunking
    /// single-accumulator sum (whose last bits legitimately differ — see
    /// EXPERIMENTS.md).
    #[test]
    fn chunked_kernel_matches_sequential_reference_bitwise() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            // xorshift*-style deterministic doubles in [-1e4, 1e4).
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2e4 - 1e4
        };
        for len in 0..=512usize {
            let a: Vec<f64> = (0..len).map(|_| next()).collect();
            let b: Vec<f64> = (0..len).map(|_| next()).collect();
            let expect = reference_lane_sum(&a, &b).sqrt();
            let full = euclidean_early(&NoopRecorder, &a, &b, f64::INFINITY)
                .expect("no abandon at infinity");
            assert_eq!(
                full.to_bits(),
                expect.to_bits(),
                "len {len}: euclidean_early {full} vs reference {expect}"
            );
            // Against the old single-accumulator ordering: equal to
            // rounding, not to the bit.
            let naive: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            assert!(
                (full - naive).abs() <= 1e-9 * naive.max(1.0),
                "len {len}: chunked {full} drifted from naive {naive}"
            );
        }
    }

    /// The fused resample+kernel path is observationally identical to
    /// materializing the resample first: same distance bits on
    /// completion, same abandon decisions and positions, same counters
    /// (besides its own `resampled_calls`) and events — across
    /// upsampling, downsampling, identity, and degenerate source lengths,
    /// at abandoning and non-abandoning thresholds.
    #[test]
    fn fused_resample_kernel_matches_materialized_bitwise() {
        let mut state = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        for &(src_len, dst_len) in &[
            (300usize, 320usize),
            (320, 300),
            (37, 300),
            (300, 37),
            (300, 300),
            (1, 64),
            (64, 1),
            (2, 511),
        ] {
            let a: Vec<f64> = (0..dst_len).map(|_| next()).collect();
            let b: Vec<f64> = (0..src_len).map(|_| next()).collect();
            let mut b_rs = vec![0.0; dst_len];
            gv_timeseries::resample_to(&b, &mut b_rs);
            let view = Resampled::new(&b, dst_len);
            for abandon_at in [f64::INFINITY, 1.0, 0.25, 0.0] {
                let mat_rec = LocalRecorder::new();
                let fus_rec = LocalRecorder::new();
                let mat = euclidean_early(&mat_rec, &a, &b_rs, abandon_at);
                let fus = euclidean_early_resampled(&fus_rec, &a, &view, abandon_at);
                assert_eq!(
                    mat.map(f64::to_bits),
                    fus.map(f64::to_bits),
                    "({src_len} -> {dst_len}) @ {abandon_at}: {mat:?} vs {fus:?}"
                );
                // The fused call also counts itself as resampled.
                assert_eq!(mat_rec.counter(Counter::ResampledCalls), 0);
                assert_eq!(fus_rec.counter(Counter::ResampledCalls), 1);
                for c in Counter::ALL {
                    if c == Counter::ResampledCalls {
                        continue;
                    }
                    assert_eq!(
                        mat_rec.counter(c),
                        fus_rec.counter(c),
                        "counter {}",
                        c.name()
                    );
                }
                assert_eq!(
                    mat_rec.histogram(Metric::AbandonPos).count(),
                    fus_rec.histogram(Metric::AbandonPos).count()
                );
                let (me, fe) = (mat_rec.events_vec(), fus_rec.events_vec());
                assert_eq!(me.len(), fe.len());
                for (m, f) in me.iter().zip(&fe) {
                    assert_eq!(
                        (m.kind, m.position, m.length),
                        (f.kind, f.position, f.length)
                    );
                }
                // Normalized variants agree the same way.
                let mat = normalized_euclidean_early(&NoopRecorder, &a, &b_rs, abandon_at);
                let fus =
                    normalized_euclidean_early_resampled(&NoopRecorder, &a, &view, abandon_at);
                assert_eq!(mat.map(f64::to_bits), fus.map(f64::to_bits));
            }
        }
    }

    /// An abandon under a detailed (armed) recorder and under a
    /// counters-only (unarmed) recorder leave identical *counter* state —
    /// the armed/unarmed asymmetry is confined to decision-level detail
    /// (histograms + events).
    #[test]
    fn armed_and_unarmed_abandons_count_identically() {
        let a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        b[0] = 10.0;
        let armed = LocalRecorder::new();
        let unarmed = LocalRecorder::with_detail(false);
        assert!(armed.detail().is_some() && unarmed.detail().is_none());
        for rec in [&armed, &unarmed] {
            assert!(euclidean_early(rec, &a, &b, 5.0).is_none());
            assert!(euclidean_early(rec, &a, &b, 50.0).is_some());
        }
        for c in Counter::ALL {
            assert_eq!(
                armed.counter(c),
                unarmed.counter(c),
                "counter {} diverged between armed and unarmed abandons",
                c.name()
            );
        }
        assert_eq!(armed.counter(Counter::DistanceCalls), 2);
        assert_eq!(armed.counter(Counter::EarlyAbandons), 1);
        // Detail stays gated: the armed recorder timed both calls and
        // logged the abandon, the unarmed one recorded nothing extra.
        assert_eq!(armed.histogram(Metric::DistanceNanos).count(), 2);
        assert_eq!(armed.histogram(Metric::AbandonPos).count(), 1);
        assert!(unarmed.histogram(Metric::DistanceNanos).is_empty());
        assert!(unarmed.histogram(Metric::AbandonPos).is_empty());
        assert!(unarmed.events().is_none());
    }
}
