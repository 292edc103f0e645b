//! Gate-carrying timers: the only way non-obs code reads the clock.
//!
//! Each timer carries its own gate, so library crates never see
//! `Instant` (clippy's `disallowed_methods`, configured in `clippy.toml`,
//! rejects `Instant::now` anywhere but here and the bench binary that
//! measures stream throughput):
//!
//! - [`SpanTimer`] — a stage measurement landing on a node of the
//!   recorder's span tree, the one stored timing of a pipeline run. It
//!   may gate on one recorder while recording into another, which is how
//!   the RRA search times its loops into a search-local recorder while
//!   gating on the *caller's* sink.
//! - [`DetailTimer`] — a *per-call* measurement gated on
//!   [`Recorder::detail`]: armed only when someone wants decision-level
//!   histograms, so the distance kernel's uninstrumented path never reads
//!   the clock.
//! - [`Stopwatch`] — plain wall time for coarse measurements outside the
//!   pipeline (CLI ledger and monitor timing).

#![expect(
    clippy::disallowed_methods,
    reason = "the obs layer owns timing: every clock read in the workspace goes through these timers"
)]

use crate::recorder::Recorder;
use crate::span::SpanId;
use crate::stage::{Metric, Stage};
use std::time::Instant;

/// An in-flight span measurement; finish with [`SpanTimer::finish`].
///
/// The span node is resolved (find-or-create) at start so deep loops can
/// pre-resolve once with [`Recorder::span_id`] and use
/// [`SpanTimer::start_at`] per iteration without re-walking the tree.
/// Unarmed timers (disabled recorder) never touch the clock, so a
/// `NoopRecorder` pipeline pays nothing for being timeable.
#[derive(Debug)]
#[must_use = "a started SpanTimer should be finished into a recorder"]
pub struct SpanTimer {
    span: Option<SpanId>,
    started: Option<Instant>,
}

impl SpanTimer {
    /// Starts timing `stage` as a child of `parent` if `recorder` is
    /// enabled.
    #[inline]
    pub fn start<R: Recorder>(recorder: &R, parent: Option<SpanId>, stage: Stage) -> Self {
        Self::start_if(recorder.enabled(), recorder, parent, stage)
    }

    /// Starts timing if `armed`, resolving the span node on `recorder` —
    /// which may be a different sink than the gate, preserving the RRA
    /// pattern of gating on the caller's recorder while recording into a
    /// search-local one.
    #[inline]
    pub fn start_if<R: Recorder>(
        armed: bool,
        recorder: &R,
        parent: Option<SpanId>,
        stage: Stage,
    ) -> Self {
        let span = if armed {
            recorder.span_id(parent, stage)
        } else {
            None
        };
        Self::start_at(armed, span)
    }

    /// Starts timing against a pre-resolved span node if `armed` — for
    /// per-iteration timers whose node was resolved once outside the
    /// loop.
    #[inline]
    pub fn start_at(armed: bool, span: Option<SpanId>) -> Self {
        SpanTimer {
            span,
            started: armed.then(Instant::now),
        }
    }

    /// The span node this timer will record into (`None` when unarmed or
    /// the recorder does not track spans).
    #[inline]
    pub fn span(&self) -> Option<SpanId> {
        self.span
    }

    /// Records the elapsed nanoseconds on the span node; a no-op when
    /// unarmed or when the recorder does not track spans.
    #[inline]
    pub fn finish<R: Recorder>(self, recorder: &R) {
        if let (Some(t0), Some(id)) = (self.started, self.span) {
            recorder.record_span(id, t0.elapsed().as_nanos() as u64, 1);
        }
    }
}

/// A plain wall-clock stopwatch for coarse, *non-hot-path* measurements:
/// monitor interval timing, run-ledger wall time. It lives in gv-obs
/// because clippy's `disallowed_methods` keeps `Instant::now` out of
/// every other crate — callers elsewhere hold a `Stopwatch` instead of
/// an `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A per-call value timer gated on [`Recorder::detail`]; finish with
/// [`DetailTimer::finish`] to record the elapsed nanoseconds into a
/// value histogram.
#[derive(Debug)]
#[must_use = "a started DetailTimer should be finished into a recorder"]
pub struct DetailTimer {
    metric: Metric,
    started: Option<Instant>,
}

impl DetailTimer {
    /// Starts timing into `metric` if `recorder` wants decision-level
    /// detail. `NoopRecorder::detail()` is a compile-time `None`, so
    /// uninstrumented kernels never read the clock.
    #[inline]
    pub fn start<R: Recorder>(recorder: &R, metric: Metric) -> Self {
        DetailTimer {
            metric,
            started: recorder.detail().is_some().then(Instant::now),
        }
    }

    /// Records one sample of elapsed nanoseconds into the metric's
    /// histogram; a no-op when unarmed.
    #[inline]
    pub fn finish<R: Recorder>(self, recorder: &R) {
        if let (Some(t0), Some(detail)) = (self.started, recorder.detail()) {
            detail.record_value(self.metric, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalRecorder, NoopRecorder};

    #[test]
    fn span_timer_lands_on_its_span() {
        let rec = LocalRecorder::new();
        let root = SpanTimer::start(&rec, None, Stage::Detect);
        let parent = root.span();
        assert!(parent.is_some());
        let child = SpanTimer::start(&rec, parent, Stage::Density);
        std::thread::sleep(std::time::Duration::from_millis(1));
        child.finish(&rec);
        root.finish(&rec);
        let tree = rec.span_tree();
        assert_eq!(tree.get("detect").unwrap().count, 1);
        let child = tree.get("detect;density").unwrap();
        assert_eq!(child.count, 1);
        assert!(child.total_ns > 0);
    }

    #[test]
    fn span_timer_noop_when_disabled() {
        let t = SpanTimer::start(&NoopRecorder, None, Stage::Detect);
        assert_eq!(t.span(), None);
        t.finish(&NoopRecorder);
    }

    #[test]
    fn span_timer_start_at_uses_preresolved_node() {
        let rec = LocalRecorder::new();
        let outer = rec.span_id(None, Stage::RraOuter);
        let inner = rec.span_id(outer, Stage::RraInner);
        for _ in 0..3 {
            SpanTimer::start_at(true, inner).finish(&rec);
        }
        assert_eq!(rec.span_tree().get("rra-outer;rra-inner").unwrap().count, 3);
    }

    #[test]
    fn span_timer_can_finish_into_a_different_recorder() {
        // The RRA pattern: gate on the caller's sink, record locally.
        let gate = LocalRecorder::new();
        let local = LocalRecorder::new();
        let t = SpanTimer::start_if(gate.enabled(), &local, None, Stage::RraInner);
        t.finish(&local);
        assert_eq!(local.span_tree().get("rra-inner").unwrap().count, 1);
        assert!(gate.span_tree().is_empty());
    }

    #[test]
    fn detail_timer_gates_on_detail() {
        let full = LocalRecorder::new();
        DetailTimer::start(&full, Metric::DistanceNanos).finish(&full);
        assert_eq!(full.histogram(Metric::DistanceNanos).count(), 1);

        let coarse = LocalRecorder::with_detail(false);
        DetailTimer::start(&coarse, Metric::DistanceNanos).finish(&coarse);
        assert!(coarse.histogram(Metric::DistanceNanos).is_empty());
    }
}
