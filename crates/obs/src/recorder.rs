//! The [`Recorder`] trait, the zero-cost [`NoopRecorder`], and the
//! [`Detail`] handle that carries decision-level telemetry.

use crate::event::{Event, EventRing};
use crate::histogram::Histogram;
use crate::stage::{Counter, Metric, Stage};
use std::cell::RefCell;

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

    /// The decision-level sink (value histograms and events), or `None`
    /// when this recorder does not want them. The emits live on
    /// [`Detail`], so they are reachable only through this gate: per-call
    /// timing on the distance hot path, event construction and histogram
    /// samples all sit behind one `Option`, which is a compile-time
    /// `None` on [`NoopRecorder`].
    ///
    /// ```
    /// use gv_obs::{Event, EventKind, LocalRecorder, Recorder};
    ///
    /// let rec = LocalRecorder::new();
    /// if let Some(detail) = rec.detail() {
    ///     detail.record_event(Event::new(EventKind::Visited));
    /// }
    /// assert_eq!(rec.events_vec().len(), 1);
    /// ```
    ///
    /// An ungated emit does not compile:
    ///
    /// ```compile_fail,E0599
    /// use gv_obs::{Event, EventKind, LocalRecorder, Recorder};
    ///
    /// LocalRecorder::new().record_event(Event::new(EventKind::Visited));
    /// ```
    #[inline]
    fn detail(&self) -> Option<&Detail> {
        None
    }

    /// Accumulates `nanos` of wall-clock time and `count` completions
    /// into `stage`'s span tally. [`SpanTimer`](crate::SpanTimer) passes
    /// `count = 1` per finish; merges pass a whole tally at once. The
    /// span's place in the tree follows from [`Stage::parent`] when the
    /// recorder is snapshotted.
    #[inline]
    fn record_span(&self, stage: Stage, nanos: u64, count: u64) {
        let _ = (stage, nanos, count);
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
    fn detail(&self) -> Option<&Detail> {
        (**self).detail()
    }

    #[inline]
    fn record_span(&self, stage: Stage, nanos: u64, count: u64) {
        (**self).record_span(stage, nanos, count);
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
    fn record_span(&self, _stage: Stage, _nanos: u64, _count: u64) {}
}

/// Decision-level telemetry: one value [`Histogram`] per [`Metric`] and
/// a bounded [`EventRing`] of structured [`Event`]s. Code outside gv-obs
/// gets one only from [`Recorder::detail`], so every emit is gated by
/// construction; a [`LocalRecorder`](crate::LocalRecorder) owns one
/// unless it was built `with_detail(false)`.
#[derive(Debug, Clone)]
pub struct Detail {
    pub(crate) histograms: RefCell<[Histogram; Metric::COUNT]>,
    pub(crate) events: RefCell<EventRing>,
}

impl Detail {
    pub(crate) fn new() -> Self {
        Self {
            histograms: RefCell::new(std::array::from_fn(|_| Histogram::new())),
            events: RefCell::new(EventRing::new()),
        }
    }

    /// Records one sample into a value histogram.
    #[inline]
    pub fn record_value(&self, metric: Metric, value: u64) {
        self.histograms.borrow_mut()[metric.index()].record(value);
    }

    /// Records one structured decision event.
    #[inline]
    pub fn record_event(&self, event: Event) {
        self.events.borrow_mut().push(event);
    }

    /// Merges `other`'s histograms and its whole event ring — held events
    /// and drop count ([`EventRing::absorb`]) — into this detail.
    pub(crate) fn absorb(&self, other: &Detail) {
        let others = other.histograms.borrow();
        for (mine, theirs) in self.histograms.borrow_mut().iter_mut().zip(others.iter()) {
            mine.merge(theirs);
        }
        self.events.borrow_mut().absorb(&other.events.borrow());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalRecorder;

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        assert!(rec.detail().is_none());
        rec.add(Counter::DistanceCalls, 5);
        rec.incr(Counter::DistanceCalls);
        rec.update_max(Counter::PeakDigramEntries, 10);
        rec.record_span(Stage::Detect, 10, 1);
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
