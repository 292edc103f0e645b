//! The [`Recorder`] trait and the zero-cost [`NoopRecorder`].

use crate::event::Event;
use crate::histogram::Histogram;
use crate::span::{SpanId, SpanSet};
use crate::stage::{Counter, Metric, Stage};

/// A sink for pipeline instrumentation events.
///
/// Instrumented code takes `&R` where `R: Recorder`, so the choice of
/// recorder monomorphizes away: with [`NoopRecorder`] every method body is
/// empty and `enabled()` is a compile-time `false`, letting the optimizer
/// delete the instrumentation entirely.
///
/// Methods take `&self` (not `&mut self`) so one recorder can be shared
/// across call layers with a plain borrow.
pub trait Recorder {
    /// Whether this recorder actually stores anything. Timing helpers
    /// consult this before touching the clock; hot loops may consult it
    /// before maintaining aggregate state.
    fn enabled(&self) -> bool;

    /// Adds `n` to a counter.
    fn add(&self, counter: Counter, n: u64);

    /// Raises a high-water-mark counter to at least `value`.
    fn update_max(&self, counter: Counter, value: u64);

    /// Whether decision-level detail (value histograms and events) should
    /// be recorded. Per-call timing on the distance hot path gates on
    /// this, so a recorder can collect aggregate counters without paying
    /// for a clock read per distance call. Defaults to [`enabled`]
    /// (enabled recorders want everything).
    ///
    /// [`enabled`]: Recorder::enabled
    #[inline]
    fn detailed(&self) -> bool {
        self.enabled()
    }

    /// Records one sample into a value histogram.
    fn record_value(&self, metric: Metric, value: u64);

    /// Records one structured decision event.
    fn record_event(&self, event: Event);

    /// Merges a whole pre-aggregated histogram into a value histogram
    /// (used when a loop-local recorder publishes to a caller's sink).
    fn record_histogram(&self, metric: Metric, histogram: &Histogram);

    /// Finds or creates the span-tree node for `stage` under `parent`
    /// (`None` = a root span) and returns its handle, or `None` when this
    /// recorder does not track spans. Nodes are keyed by
    /// `(parent, stage)`, so asking twice returns the same node and
    /// repeated timings accumulate — the tree's shape depends only on the
    /// code path taken, never on iteration counts or thread schedules.
    #[inline]
    fn span_id(&self, parent: Option<SpanId>, stage: Stage) -> Option<SpanId> {
        let _ = (parent, stage);
        None
    }

    /// Accumulates `nanos` of wall-clock time and `count` completions
    /// into a span node previously issued by [`Recorder::span_id`].
    /// [`SpanTimer`](crate::SpanTimer) passes `count = 1` per finish;
    /// merges pass a whole node's tally at once.
    #[inline]
    fn record_span(&self, id: SpanId, nanos: u64, count: u64) {
        let _ = (id, nanos, count);
    }

    /// Grafts a whole [`SpanSet`] into this recorder's span tree,
    /// attaching the set's roots under `under` (`None` keeps them roots).
    /// Used when a loop-local recorder publishes its subtree to the
    /// caller's sink at the loop boundary.
    #[inline]
    fn merge_spans(&self, spans: &SpanSet, under: Option<SpanId>) {
        let _ = (spans, under);
    }

    /// Adds 1 to a counter.
    #[inline]
    fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }
}

impl<R: Recorder + ?Sized> Recorder for &R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        (**self).add(counter, n);
    }

    #[inline]
    fn update_max(&self, counter: Counter, value: u64) {
        (**self).update_max(counter, value);
    }

    #[inline]
    fn detailed(&self) -> bool {
        (**self).detailed()
    }

    #[inline]
    fn record_value(&self, metric: Metric, value: u64) {
        (**self).record_value(metric, value);
    }

    #[inline]
    fn record_event(&self, event: Event) {
        (**self).record_event(event);
    }

    #[inline]
    fn record_histogram(&self, metric: Metric, histogram: &Histogram) {
        (**self).record_histogram(metric, histogram);
    }

    #[inline]
    fn span_id(&self, parent: Option<SpanId>, stage: Stage) -> Option<SpanId> {
        (**self).span_id(parent, stage)
    }

    #[inline]
    fn record_span(&self, id: SpanId, nanos: u64, count: u64) {
        (**self).record_span(id, nanos, count);
    }

    #[inline]
    fn merge_spans(&self, spans: &SpanSet, under: Option<SpanId>) {
        (**self).merge_spans(spans, under);
    }
}

/// The default recorder: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn add(&self, _counter: Counter, _n: u64) {}

    #[inline(always)]
    fn update_max(&self, _counter: Counter, _value: u64) {}

    #[inline(always)]
    fn detailed(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record_value(&self, _metric: Metric, _value: u64) {}

    #[inline(always)]
    fn record_event(&self, _event: Event) {}

    #[inline(always)]
    fn record_histogram(&self, _metric: Metric, _histogram: &Histogram) {}

    #[inline(always)]
    fn span_id(&self, _parent: Option<SpanId>, _stage: Stage) -> Option<SpanId> {
        None
    }

    #[inline(always)]
    fn record_span(&self, _id: SpanId, _nanos: u64, _count: u64) {}

    #[inline(always)]
    fn merge_spans(&self, _spans: &SpanSet, _under: Option<SpanId>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalRecorder;

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        assert!(!rec.detailed());
        rec.add(Counter::DistanceCalls, 5);
        rec.incr(Counter::DistanceCalls);
        rec.update_max(Counter::PeakDigramEntries, 10);
        rec.record_value(crate::Metric::CandidateLen, 7);
        rec.record_event(crate::Event::new(crate::EventKind::Visited));
        rec.record_histogram(crate::Metric::AbandonPos, &crate::Histogram::new());
        assert_eq!(rec.span_id(None, Stage::Detect), None);
    }

    #[test]
    fn recorder_works_through_references() {
        let rec = LocalRecorder::new();
        fn takes_recorder<R: Recorder>(r: &R) {
            r.add(Counter::DistanceCalls, 3);
            assert!(r.enabled());
        }
        takes_recorder(&&rec);
        assert_eq!(rec.counter(Counter::DistanceCalls), 3);
    }
}
