//! [`LocalRecorder`]: the single-threaded recorder for hot loops.

use crate::event::{Event, EventRing};
use crate::histogram::Histogram;
use crate::recorder::{Detail, Recorder};
use crate::span::SpanTree;
use crate::stage::{Counter, Metric, Stage};
use crate::trace::PipelineTrace;
use std::cell::{Cell, Ref};

/// A `Cell`-backed recorder: increments are plain loads and stores, so
/// counting inside a tight loop costs the same as maintaining an ad-hoc
/// `u64` — which is exactly what the distance kernels did before this
/// crate existed.
///
/// Histograms and events live in its [`Detail`], borrowed only for the
/// duration of one emit; [`LocalRecorder::with_detail`]`(false)` builds a
/// recorder with no `Detail` at all, so a search-local tally skips the
/// detail work — and the per-call clock reads gated on it — when nobody
/// upstream wants it.
///
/// Not `Sync`: a parallel search gives each worker thread its own
/// recorder and merges them at the join.
#[derive(Debug, Clone)]
pub struct LocalRecorder {
    counters: [Cell<u64>; Counter::COUNT],
    spans: [Cell<(u64, u64)>; Stage::COUNT],
    detail: Option<Detail>,
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

    /// A recorder whose [`Recorder::detail`] is `Some` exactly when
    /// `detail` is true. Counters and spans are always kept; without
    /// detail, hot paths skip per-call clock reads and event construction.
    /// A search-local tally passes `sink.detail().is_some()` here.
    pub fn with_detail(detail: bool) -> Self {
        Self {
            counters: std::array::from_fn(|_| Cell::new(0)),
            spans: std::array::from_fn(|_| Cell::new((0, 0))),
            detail: detail.then(Detail::new),
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].get()
    }

    /// A clone of one metric's histogram (empty without detail).
    pub fn histogram(&self, metric: Metric) -> Histogram {
        self.detail.as_ref().map_or_else(Histogram::new, |d| {
            d.histograms.borrow()[metric.index()].clone()
        })
    }

    /// The recorded events (shared borrow of the ring; release it before
    /// recording more), or `None` when built without detail.
    pub fn events(&self) -> Option<Ref<'_, EventRing>> {
        self.detail.as_ref().map(|d| d.events.borrow())
    }

    /// The recorded events as an owned vector, oldest first (empty
    /// without detail).
    pub fn events_vec(&self) -> Vec<Event> {
        self.events().map_or_else(Vec::new, |ring| ring.to_vec())
    }

    /// A deterministic snapshot of the span tree, built from one
    /// `(total_ns, count)` tally per stage: one span per stage that ran,
    /// nested by [`Stage::parent`].
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::from_tallies(&self.spans.each_ref().map(Cell::get))
    }

    /// Folds this recorder's totals into another recorder — sums for
    /// ordinary counters and span tallies, max for high-water marks, and,
    /// when both sides carry a [`Detail`], merged histograms and the
    /// whole event ring with its drop count. Used to publish a hot loop's
    /// local tallies to the caller's sink once, at the loop boundary;
    /// since spans merge by sum, per-worker recorders fold into the same
    /// tree at any thread count.
    pub fn merge_into<R: Recorder>(&self, target: &R) {
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
        for stage in Stage::ALL {
            let (nanos, count) = self.spans[stage.index()].get();
            if count > 0 {
                target.record_span(stage, nanos, count);
            }
        }
        if let (Some(mine), Some(theirs)) = (&self.detail, target.detail()) {
            theirs.absorb(mine);
        }
    }

    /// Snapshots the current state into a labelled [`PipelineTrace`].
    pub fn snapshot(&self, label: impl Into<String>) -> PipelineTrace {
        PipelineTrace {
            label: label.into(),
            params: Vec::new(),
            counters: std::array::from_fn(|i| self.counters[i].get()),
            histograms: Metric::ALL.map(|m| self.histogram(m)),
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
    fn detail(&self) -> Option<&Detail> {
        self.detail.as_ref()
    }

    #[inline]
    fn record_span(&self, stage: Stage, nanos: u64, count: u64) {
        let cell = &self.spans[stage.index()];
        let (total, n) = cell.get();
        cell.set((total + nanos, n + count));
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
    }

    #[test]
    fn merge_sums_counts_and_maxes_peaks() {
        let a = LocalRecorder::new();
        a.add(Counter::DistanceCalls, 10);
        a.update_max(Counter::PeakDigramEntries, 7);
        a.record_span(Stage::RraInner, 500, 1);
        let b = LocalRecorder::new();
        b.add(Counter::DistanceCalls, 5);
        b.update_max(Counter::PeakDigramEntries, 9);
        a.merge_into(&b);
        assert_eq!(b.counter(Counter::DistanceCalls), 15);
        assert_eq!(b.counter(Counter::PeakDigramEntries), 9);
        assert_eq!(b.span_tree().get("rra-inner").unwrap().total_ns, 500);
    }

    #[test]
    fn merge_sums_worker_span_tallies() {
        // Two workers' inner loops merged into a search that timed its
        // outer loop read as one recording of all five scans.
        let search = LocalRecorder::new();
        search.record_span(Stage::RraOuter, 1_000, 1);
        for (nanos, scans) in [(300, 3), (200, 2)] {
            let worker = LocalRecorder::new();
            worker.record_span(Stage::RraInner, nanos, scans);
            worker.merge_into(&search);
        }
        let tree = search.span_tree();
        let inner = tree.get("rra-outer;rra-inner").unwrap();
        assert_eq!((inner.total_ns, inner.count), (500, 5));
    }

    #[test]
    fn a_stage_timed_in_and_out_of_detect_is_one_span() {
        // Nesting comes from `Stage::parent`, not from where the timer ran.
        let rec = LocalRecorder::new();
        rec.record_span(Stage::Density, 40, 1);
        rec.record_span(Stage::Detect, 100, 1);
        rec.record_span(Stage::Density, 30, 1);
        let tree = rec.span_tree();
        assert_eq!(tree.spans().len(), 2);
        assert_eq!(tree.get("detect;density").unwrap().count, 2);
    }

    #[test]
    fn records_histograms_and_events() {
        let rec = LocalRecorder::new();
        let detail = rec.detail().unwrap();
        detail.record_value(Metric::CandidateLen, 120);
        detail.record_value(Metric::CandidateLen, 80);
        detail.record_event(Event {
            position: 42,
            ..Event::new(EventKind::Visited)
        });
        assert_eq!(rec.histogram(Metric::CandidateLen).count(), 2);
        assert_eq!(rec.histogram(Metric::CandidateLen).max(), 120);
        assert_eq!(rec.events_vec().len(), 1);
        assert_eq!(rec.events_vec()[0].position, 42);
        let trace = rec.snapshot("t");
        assert_eq!(trace.histogram(Metric::CandidateLen).count(), 2);
    }

    #[test]
    fn without_detail_hands_out_no_detail() {
        let rec = LocalRecorder::with_detail(false);
        assert!(rec.enabled());
        assert!(rec.detail().is_none());
        assert!(rec.histogram(Metric::DistanceNanos).is_empty());
        assert!(rec.events().is_none());
        // Counters still work.
        rec.incr(Counter::DistanceCalls);
        assert_eq!(rec.counter(Counter::DistanceCalls), 1);
    }

    #[test]
    fn merge_carries_the_event_ring_drop_count() {
        let capacity = EventRing::DEFAULT_CAPACITY;
        let src = LocalRecorder::new();
        let detail = src.detail().unwrap();
        for i in 0..capacity + 10 {
            detail.record_event(Event {
                position: i as u64,
                ..Event::new(EventKind::Abandoned)
            });
        }
        let dst = LocalRecorder::new();
        src.merge_into(&dst);
        let events = dst.events().unwrap();
        assert_eq!(events.recorded(), capacity as u64 + 10);
        assert_eq!(events.dropped(), 10);
        // The ring keeps the newest events.
        assert_eq!(events.iter().next().map(|e| e.position), Some(10));
    }

    #[test]
    fn merge_carries_detail_to_detailed_targets_only() {
        let src = LocalRecorder::new();
        let detail = src.detail().unwrap();
        detail.record_value(Metric::RuleUses, 3);
        detail.record_event(Event::new(EventKind::Completed));
        let detailed = LocalRecorder::new();
        src.merge_into(&detailed);
        assert_eq!(detailed.histogram(Metric::RuleUses).count(), 1);
        assert_eq!(detailed.events_vec().len(), 1);
        let coarse = LocalRecorder::with_detail(false);
        src.merge_into(&coarse);
        assert!(coarse.histogram(Metric::RuleUses).is_empty());
        assert!(coarse.events().is_none());
    }
}
