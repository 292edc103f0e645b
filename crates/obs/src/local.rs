//! [`LocalRecorder`]: the single-threaded recorder for hot loops.

use crate::event::{Event, EventRing};
use crate::histogram::Histogram;
use crate::recorder::Recorder;
use crate::span::{SpanId, SpanSet, SpanTree};
use crate::stage::{Counter, Metric, Stage};
use crate::trace::PipelineTrace;
use std::cell::{Cell, Ref, RefCell};

/// A `Cell`-backed recorder: increments are plain loads and stores, so
/// counting inside a tight loop costs the same as maintaining an ad-hoc
/// `u64` — which is exactly what the distance kernels did before this
/// crate existed.
///
/// Histograms and events live behind `RefCell`s, borrowed only for the
/// duration of one `record_*` call; [`LocalRecorder::with_detail`]`(false)`
/// builds a recorder with `detailed() == false` so a search-local tally
/// skips the detail work — and the per-call clock reads gated on it —
/// when nobody upstream wants it.
///
/// Not `Sync`: a parallel search gives each worker thread its own
/// recorder and merges them at the join.
#[derive(Debug, Clone)]
pub struct LocalRecorder {
    counters: [Cell<u64>; Counter::COUNT],
    histograms: RefCell<[Histogram; Metric::COUNT]>,
    events: RefCell<EventRing>,
    spans: RefCell<SpanSet>,
    detailed: bool,
}

impl Default for LocalRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalRecorder {
    /// A recorder with all counters at zero, no spans, and decision-level
    /// detail (histograms, events) enabled.
    pub fn new() -> Self {
        Self::with_detail(true)
    }

    /// A recorder whose `detailed()` is `detailed`. Counters and spans are
    /// always kept; with `false`, histograms and events are ignored, so hot
    /// paths skip per-call clock reads and event construction. A
    /// search-local tally passes its sink's `detailed()` here.
    pub fn with_detail(detailed: bool) -> Self {
        Self {
            counters: std::array::from_fn(|_| Cell::new(0)),
            histograms: RefCell::new(std::array::from_fn(|_| Histogram::new())),
            events: RefCell::new(EventRing::new()),
            spans: RefCell::new(SpanSet::new()),
            detailed,
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].get()
    }

    /// A clone of one metric's histogram.
    pub fn histogram(&self, metric: Metric) -> Histogram {
        self.histograms.borrow()[metric.index()].clone()
    }

    /// The recorded events (shared borrow of the ring; release it before
    /// recording more).
    pub fn events(&self) -> Ref<'_, EventRing> {
        self.events.borrow()
    }

    /// The recorded events as an owned vector, oldest first.
    pub fn events_vec(&self) -> Vec<Event> {
        self.events.borrow().to_vec()
    }

    /// A deterministic snapshot of the recorded span tree.
    pub fn span_tree(&self) -> SpanTree {
        self.spans.borrow().snapshot()
    }

    /// Resets every counter, histogram, event, and span to zero.
    pub fn reset(&self) {
        for c in &self.counters {
            c.set(0);
        }
        for h in self.histograms.borrow_mut().iter_mut() {
            *h = Histogram::new();
        }
        self.events.borrow_mut().clear();
        self.spans.borrow_mut().clear();
    }

    /// Folds this recorder's totals into another recorder — sums for
    /// ordinary counters, max for high-water marks, grafted spans, merges
    /// for histograms, replayed pushes for events. Used to publish a hot
    /// loop's local tallies to the caller's sink once, at the loop
    /// boundary.
    pub fn merge_into<R: Recorder>(&self, target: &R) {
        self.merge_into_under(target, None);
    }

    /// Like [`LocalRecorder::merge_into`], but grafts this recorder's
    /// *root* spans under an existing span of the target (`None` keeps
    /// them as roots). This is how a search-local span subtree ends up
    /// below the caller's `detect` span, and how per-worker subtrees land
    /// under one stable `rra-outer` node regardless of thread count.
    pub fn merge_into_under<R: Recorder>(&self, target: &R, under: Option<SpanId>) {
        for c in Counter::ALL {
            let v = self.counter(c);
            if v == 0 {
                continue;
            }
            if c.merges_by_max() {
                target.update_max(c, v);
            } else {
                target.add(c, v);
            }
        }
        target.merge_spans(&self.spans.borrow(), under);
        if target.detailed() {
            let histograms = self.histograms.borrow();
            for m in Metric::ALL {
                let h = &histograms[m.index()];
                if !h.is_empty() {
                    target.record_histogram(m, h);
                }
            }
            for event in self.events.borrow().iter() {
                target.record_event(*event);
            }
        }
    }

    /// Snapshots the current state into a labelled [`PipelineTrace`].
    pub fn snapshot(&self, label: impl Into<String>) -> PipelineTrace {
        let histograms = self.histograms.borrow();
        PipelineTrace {
            label: label.into(),
            params: Vec::new(),
            counters: std::array::from_fn(|i| self.counters[i].get()),
            histograms: std::array::from_fn(|i| histograms[i].clone()),
            spans: self.span_tree(),
        }
    }
}

impl Recorder for LocalRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        let cell = &self.counters[counter.index()];
        cell.set(cell.get() + n);
    }

    #[inline]
    fn update_max(&self, counter: Counter, value: u64) {
        let cell = &self.counters[counter.index()];
        cell.set(cell.get().max(value));
    }

    #[inline]
    fn detailed(&self) -> bool {
        self.detailed
    }

    #[inline]
    fn record_value(&self, metric: Metric, value: u64) {
        if self.detailed {
            self.histograms.borrow_mut()[metric.index()].record(value);
        }
    }

    #[inline]
    fn record_event(&self, event: Event) {
        if self.detailed {
            self.events.borrow_mut().push(event);
        }
    }

    #[inline]
    fn record_histogram(&self, metric: Metric, histogram: &Histogram) {
        if self.detailed {
            self.histograms.borrow_mut()[metric.index()].merge(histogram);
        }
    }

    #[inline]
    fn span_id(&self, parent: Option<SpanId>, stage: Stage) -> Option<SpanId> {
        Some(self.spans.borrow_mut().span_id(parent, stage))
    }

    #[inline]
    fn record_span(&self, id: SpanId, nanos: u64, count: u64) {
        self.spans.borrow_mut().record(id, nanos, count);
    }

    #[inline]
    fn merge_spans(&self, spans: &SpanSet, under: Option<SpanId>) {
        self.spans.borrow_mut().merge_from(spans, under);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn counts_and_maxes() {
        let rec = LocalRecorder::new();
        rec.add(Counter::DistanceCalls, 2);
        rec.incr(Counter::DistanceCalls);
        rec.update_max(Counter::PeakDigramEntries, 5);
        rec.update_max(Counter::PeakDigramEntries, 3);
        assert_eq!(rec.counter(Counter::DistanceCalls), 3);
        assert_eq!(rec.counter(Counter::PeakDigramEntries), 5);
        rec.reset();
        assert_eq!(rec.counter(Counter::DistanceCalls), 0);
    }

    #[test]
    fn merge_sums_counts_and_maxes_peaks() {
        let a = LocalRecorder::new();
        a.add(Counter::DistanceCalls, 10);
        a.update_max(Counter::PeakDigramEntries, 7);
        let inner = a.span_id(None, Stage::RraInner).unwrap();
        a.record_span(inner, 500, 1);
        let b = LocalRecorder::new();
        b.add(Counter::DistanceCalls, 5);
        b.update_max(Counter::PeakDigramEntries, 9);
        a.merge_into(&b);
        assert_eq!(b.counter(Counter::DistanceCalls), 15);
        assert_eq!(b.counter(Counter::PeakDigramEntries), 9);
        assert_eq!(b.span_tree().get("rra-inner").unwrap().total_ns, 500);
    }

    #[test]
    fn records_histograms_and_events() {
        let rec = LocalRecorder::new();
        assert!(rec.detailed());
        rec.record_value(Metric::CandidateLen, 120);
        rec.record_value(Metric::CandidateLen, 80);
        rec.record_event(Event {
            position: 42,
            ..Event::new(EventKind::Visited)
        });
        assert_eq!(rec.histogram(Metric::CandidateLen).count(), 2);
        assert_eq!(rec.histogram(Metric::CandidateLen).max(), 120);
        assert_eq!(rec.events_vec().len(), 1);
        assert_eq!(rec.events_vec()[0].position, 42);
        let trace = rec.snapshot("t");
        assert_eq!(trace.histogram(Metric::CandidateLen).count(), 2);
        rec.reset();
        assert!(rec.histogram(Metric::CandidateLen).is_empty());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn without_detail_skips_detail() {
        let rec = LocalRecorder::with_detail(false);
        assert!(rec.enabled());
        assert!(!rec.detailed());
        rec.record_value(Metric::DistanceNanos, 99);
        rec.record_event(Event::new(EventKind::Abandoned));
        rec.record_histogram(Metric::DistanceNanos, &{
            let mut h = Histogram::new();
            h.record(1);
            h
        });
        assert!(rec.histogram(Metric::DistanceNanos).is_empty());
        assert!(rec.events().is_empty());
        // Counters still work.
        rec.incr(Counter::DistanceCalls);
        assert_eq!(rec.counter(Counter::DistanceCalls), 1);
    }

    #[test]
    fn merge_carries_detail_to_detailed_targets_only() {
        let src = LocalRecorder::new();
        src.record_value(Metric::RuleUses, 3);
        src.record_event(Event::new(EventKind::Completed));
        let detailed = LocalRecorder::new();
        src.merge_into(&detailed);
        assert_eq!(detailed.histogram(Metric::RuleUses).count(), 1);
        assert_eq!(detailed.events_vec().len(), 1);
        let coarse = LocalRecorder::with_detail(false);
        src.merge_into(&coarse);
        assert!(coarse.histogram(Metric::RuleUses).is_empty());
        assert!(coarse.events().is_empty());
    }
}
