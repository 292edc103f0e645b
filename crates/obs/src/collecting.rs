//! [`CollectingRecorder`]: the shareable, thread-safe recorder.

use crate::event::{Event, EventRing};
use crate::histogram::Histogram;
use crate::recorder::Recorder;
use crate::span::{SpanId, SpanSet, SpanTree};
use crate::stage::{Counter, Metric, Stage};
use crate::trace::PipelineTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
///
/// Every mutation under these locks is a single append or slot assign
/// that leaves the structure valid, so a poisoned lock can only mean a
/// panicking thread was mid-telemetry — the data itself is never torn
/// and dropping it would lose real measurements.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An atomics-backed recorder behind an `Arc`: `Clone` hands out another
/// handle to the same tallies, so the parallel sweep's worker threads (and
/// any future async runners) can all feed one sink. All counter
/// operations use relaxed ordering — counters are statistics, not
/// synchronization.
///
/// Histograms and the event ring sit behind `Mutex`es. That is fine
/// because hot loops tally into a [`LocalRecorder`](crate::LocalRecorder)
/// and publish here once at the loop boundary (one whole-histogram merge,
/// one event replay), so the locks are taken a handful of times per run,
/// not per distance call.
#[derive(Debug, Clone, Default)]
pub struct CollectingRecorder {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    counters: [AtomicU64; Counter::COUNT],
    histograms: Mutex<[Histogram; Metric::COUNT]>,
    events: Mutex<EventRing>,
    spans: Mutex<SpanSet>,
}

impl Default for Inner {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: Mutex::new(std::array::from_fn(|_| Histogram::new())),
            events: Mutex::new(EventRing::new()),
            spans: Mutex::new(SpanSet::new()),
        }
    }
}

impl CollectingRecorder {
    /// A recorder with all counters at zero and no spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// A clone of one metric's histogram.
    pub fn histogram(&self, metric: Metric) -> Histogram {
        relock(&self.inner.histograms)[metric.index()].clone()
    }

    /// The recorded events as an owned vector, oldest first.
    pub fn events_vec(&self) -> Vec<Event> {
        relock(&self.inner.events).to_vec()
    }

    /// Total events recorded and events lost to ring overwrites.
    pub fn events_recorded_dropped(&self) -> (u64, u64) {
        let ring = relock(&self.inner.events);
        (ring.recorded(), ring.dropped())
    }

    /// A deterministic snapshot of the recorded span tree.
    pub fn span_tree(&self) -> SpanTree {
        relock(&self.inner.spans).snapshot()
    }

    /// Resets every counter, histogram, event, and span to zero.
    pub fn reset(&self) {
        for c in &self.inner.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in relock(&self.inner.histograms).iter_mut() {
            *h = Histogram::new();
        }
        relock(&self.inner.events).clear();
        relock(&self.inner.spans).clear();
    }

    /// Snapshots the current state into a labelled [`PipelineTrace`].
    pub fn snapshot(&self, label: impl Into<String>) -> PipelineTrace {
        let histograms = relock(&self.inner.histograms);
        PipelineTrace {
            label: label.into(),
            params: Vec::new(),
            counters: std::array::from_fn(|i| self.inner.counters[i].load(Ordering::Relaxed)),
            histograms: std::array::from_fn(|i| histograms[i].clone()),
            spans: self.span_tree(),
        }
    }
}

impl Recorder for CollectingRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        self.inner.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn update_max(&self, counter: Counter, value: u64) {
        self.inner.counters[counter.index()].fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    fn record_value(&self, metric: Metric, value: u64) {
        relock(&self.inner.histograms)[metric.index()].record(value);
    }

    #[inline]
    fn record_event(&self, event: Event) {
        relock(&self.inner.events).push(event);
    }

    #[inline]
    fn record_histogram(&self, metric: Metric, histogram: &Histogram) {
        relock(&self.inner.histograms)[metric.index()].merge(histogram);
    }

    #[inline]
    fn span_id(&self, parent: Option<SpanId>, stage: Stage) -> Option<SpanId> {
        Some(relock(&self.inner.spans).span_id(parent, stage))
    }

    #[inline]
    fn record_span(&self, id: SpanId, nanos: u64, count: u64) {
        relock(&self.inner.spans).record(id, nanos, count);
    }

    #[inline]
    fn merge_spans(&self, spans: &SpanSet, under: Option<SpanId>) {
        relock(&self.inner.spans).merge_from(spans, under);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn clones_share_tallies() {
        let rec = CollectingRecorder::new();
        let other = rec.clone();
        rec.add(Counter::DistanceCalls, 2);
        other.add(Counter::DistanceCalls, 3);
        assert_eq!(rec.counter(Counter::DistanceCalls), 5);
        rec.update_max(Counter::PeakDigramEntries, 4);
        other.update_max(Counter::PeakDigramEntries, 2);
        assert_eq!(other.counter(Counter::PeakDigramEntries), 4);
        other.record_value(Metric::CandidateLen, 64);
        assert_eq!(rec.histogram(Metric::CandidateLen).count(), 1);
        other.record_event(Event::new(EventKind::Flush));
        assert_eq!(rec.events_vec().len(), 1);
    }

    #[test]
    fn concurrent_adds_do_not_lose_counts() {
        let rec = CollectingRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = rec.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        handle.incr(Counter::RraCandidates);
                        if i < 100 {
                            handle.record_value(Metric::RuleUses, i);
                            handle.record_event(Event::new(EventKind::Visited));
                        }
                    }
                });
            }
        });
        assert_eq!(rec.counter(Counter::RraCandidates), 40_000);
        assert_eq!(rec.histogram(Metric::RuleUses).count(), 400);
        assert_eq!(rec.events_vec().len(), 400);
        let (recorded, dropped) = rec.events_recorded_dropped();
        assert_eq!(recorded, 400);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn snapshot_captures_spans_and_histograms() {
        let rec = CollectingRecorder::new();
        let disc = rec.span_id(None, Stage::Discretize).unwrap();
        rec.record_span(disc, 1_000, 1);
        rec.record_span(disc, 500, 1);
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        rec.record_histogram(Metric::DistanceNanos, &h);
        let trace = rec.snapshot("t");
        assert_eq!(trace.stage_nanos(Stage::Discretize), 1_500);
        assert_eq!(trace.histogram(Metric::DistanceNanos).count(), 2);
        rec.reset();
        assert!(rec.span_tree().is_empty());
        assert!(rec.histogram(Metric::DistanceNanos).is_empty());
    }
}
