//! Gate-carrying timers: the only way non-obs code reads the clock.
//!
//! Each timer carries its own gate, so library crates never see
//! `Instant` (clippy's `disallowed_methods`, configured in `clippy.toml`,
//! rejects `Instant::now` anywhere but here and the bench binary that
//! measures stream throughput):
//!
//! - [`SpanTimer`] — a stage measurement landing on the recorder's
//!   per-stage span tally, the one stored timing of a pipeline run. It
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
use crate::stage::{Metric, Stage};
use std::time::Instant;

/// An in-flight span measurement; finish with [`SpanTimer::finish`].
///
/// The timer carries only its stage and start time; where the span sits
/// in the tree follows from [`Stage::parent`]. Unarmed timers (disabled
/// recorder) never touch the clock, so a `NoopRecorder` pipeline pays
/// nothing for being timeable.
#[derive(Debug)]
#[must_use = "a started SpanTimer should be finished into a recorder"]
pub struct SpanTimer {
    stage: Stage,
    started: Option<Instant>,
}

impl SpanTimer {
    /// Starts timing `stage` if `recorder` is enabled.
    #[inline]
    pub fn start<R: Recorder>(recorder: &R, stage: Stage) -> Self {
        Self::start_if(recorder.enabled(), stage)
    }

    /// Starts timing `stage` if `armed` — for a timer gated on one
    /// recorder and finished into another, the RRA pattern of gating on
    /// the caller's sink while recording into a search-local one.
    #[inline]
    pub fn start_if(armed: bool, stage: Stage) -> Self {
        SpanTimer {
            stage,
            started: armed.then(Instant::now),
        }
    }

    /// Records the elapsed nanoseconds on the stage's span; a no-op when
    /// unarmed or when the recorder does not track spans.
    #[inline]
    pub fn finish<R: Recorder>(self, recorder: &R) {
        if let Some(t0) = self.started {
            recorder.record_span(self.stage, t0.elapsed().as_nanos() as u64, 1);
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
        let root = SpanTimer::start(&rec, Stage::Detect);
        let child = SpanTimer::start(&rec, Stage::Density);
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
        SpanTimer::start(&NoopRecorder, Stage::Detect).finish(&NoopRecorder);
        let rec = LocalRecorder::new();
        SpanTimer::start(&NoopRecorder, Stage::Detect).finish(&rec);
        assert!(rec.span_tree().is_empty());
    }

    #[test]
    fn span_timer_can_finish_into_a_different_recorder() {
        // The RRA pattern: gate on the caller's sink, record locally.
        let gate = LocalRecorder::new();
        let local = LocalRecorder::new();
        let t = SpanTimer::start_if(gate.enabled(), Stage::RraInner);
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
