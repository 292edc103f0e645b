//! Windowed aggregation of cumulative recorder snapshots — the level-4
//! primitive live monitoring is built on.
//!
//! A [`PipelineTrace`] snapshot is *cumulative*: counters, histograms, and
//! span times only grow as a stream is processed. A fleet monitor needs
//! the opposite view — "what happened in the last interval, and is that
//! within budget?" — so [`WindowedAggregator`] consumes the periodic
//! snapshots the streaming detector already emits (the `stream
//! --metrics-every` flush path) and differences consecutive ones into a
//! bounded ring of per-window [`WindowStats`] deltas: counter rates,
//! histogram-derived latency quantiles, span self-time shares, and the
//! discord-emission rate.
//!
//! ## Determinism contract
//!
//! Window *contents* are a pure function of the snapshot sequence: counter
//! deltas, token rates, and discord rates are bit-identical across runs
//! and thread counts (the same contract the span merge honors). Wall-clock
//! fields — `wall_ns`, the latency quantiles, span shares, and throughput
//! — are inherently run-dependent, so they are gated behind
//! [`WindowedAggregator::with_timing`] and default **off**: a default
//! aggregator emits them as zeros/empty, which keeps `gv monitor` output
//! byte-identical for `GV_THREADS=1` vs `4` and lets CI diff it.

use crate::histogram::Histogram;
use crate::stage::{Counter, Metric};
use crate::trace::{format_json_f64, write_json_string, PipelineTrace, SCHEMA_VERSION};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One interval's worth of activity, differenced from two consecutive
/// cumulative snapshots. All counter fields are exact; the latency fields
/// inherit the histogram's documented ≤ 12.5% relative error.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// 0-based window sequence number (monotone, survives ring eviction).
    pub seq: u64,
    /// Stream position (points) at the start of the window.
    pub start: u64,
    /// Stream position (points) at the end of the window (exclusive).
    pub end: u64,
    /// Wall-clock nanoseconds spent in this window (0 in deterministic
    /// mode — see the module docs).
    pub wall_ns: u64,
    /// Per-window counter deltas, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Discords/alerts emitted during this window.
    pub discords: u64,
    /// p50 of per-call distance nanoseconds within the window (0 without
    /// timing).
    pub latency_p50: u64,
    /// p95 of per-call distance nanoseconds within the window.
    pub latency_p95: u64,
    /// Approximate max of per-call distance nanoseconds within the window
    /// (highest delta bucket's ceiling, clamped to the cumulative max).
    pub latency_max: u64,
    /// Per-span share of the window's total self time, as `(path, share)`
    /// in the trace's deterministic depth-first order. Empty without
    /// timing.
    pub span_shares: Vec<(String, f64)>,
}

impl WindowStats {
    /// Points consumed by this window.
    pub fn points(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// One counter's delta.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// SAX words that survived numerosity reduction in this window, per
    /// point (0 when the window is empty).
    pub fn tokens_per_point(&self) -> f64 {
        ratio(self.counter(Counter::WordsEmitted), self.points())
    }

    /// Fraction of this window's processed sliding windows that
    /// numerosity reduction dropped.
    pub fn drop_ratio(&self) -> f64 {
        ratio(
            self.counter(Counter::WordsDropped),
            self.counter(Counter::WindowsProcessed),
        )
    }

    /// Distance-kernel calls per point in this window — the paper's cost
    /// metric as a live rate.
    pub fn distance_calls_per_point(&self) -> f64 {
        ratio(self.counter(Counter::DistanceCalls), self.points())
    }

    /// Discords/alerts emitted per point in this window.
    pub fn discords_per_point(&self) -> f64 {
        ratio(self.discords, self.points())
    }

    /// Points per second (0 when no wall time was measured, i.e. in
    /// deterministic mode).
    pub fn throughput_pps(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.points() as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Encodes this window as one JSON line (no trailing newline).
    ///
    /// Schema 4 `window` record: `{"schema":4,"type":"window","seq":int,
    /// "start":int,"end":int,"points":int,"wall_ns":int,
    /// "counters":{counter:int,...},"discords":int,
    /// "latency_ns":{"p50":int,"p95":int,"max":int},
    /// "span_shares":{path:float,...},"derived":{"tokens_per_point":float,
    /// "drop_ratio":float,"distance_calls_per_point":float,
    /// "discords_per_point":float,"throughput_pps":float}}` — every
    /// counter and derived key always present.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":{SCHEMA_VERSION},\"type\":\"window\",\"seq\":{},\"start\":{},\"end\":{},\"points\":{},\"wall_ns\":{}",
            self.seq,
            self.start,
            self.end,
            self.points(),
            self.wall_ns
        );
        out.push_str(",\"counters\":{");
        for (i, counter) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", counter.name(), self.counter(*counter));
        }
        let _ = write!(
            out,
            "}},\"discords\":{},\"latency_ns\":{{\"p50\":{},\"p95\":{},\"max\":{}}}",
            self.discords, self.latency_p50, self.latency_p95, self.latency_max
        );
        out.push_str(",\"span_shares\":{");
        for (i, (path, share)) in self.span_shares.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(path, &mut out);
            let _ = write!(out, ":{}", format_json_f64(*share));
        }
        let _ = write!(
            out,
            "}},\"derived\":{{\"tokens_per_point\":{},\"drop_ratio\":{},\"distance_calls_per_point\":{},\"discords_per_point\":{},\"throughput_pps\":{}}}}}",
            format_json_f64(self.tokens_per_point()),
            format_json_f64(self.drop_ratio()),
            format_json_f64(self.distance_calls_per_point()),
            format_json_f64(self.discords_per_point()),
            format_json_f64(self.throughput_pps()),
        );
        out
    }
}

/// Differences a sequence of cumulative [`PipelineTrace`] snapshots into a
/// bounded ring of per-window [`WindowStats`] (see the module docs for the
/// determinism contract).
#[derive(Debug, Clone)]
pub struct WindowedAggregator {
    capacity: usize,
    timing: bool,
    windows: VecDeque<WindowStats>,
    evicted: u64,
    seq: u64,
    prev_points: u64,
    prev_discords: u64,
    prev_wall: u64,
    prev_counters: [u64; Counter::COUNT],
    prev_latency: Histogram,
    prev_spans: Vec<(String, u64)>,
}

impl WindowedAggregator {
    /// Default ring capacity — hours of monitoring at typical intervals,
    /// bounded enough to never grow without limit.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty aggregator with the default capacity, timing off.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty aggregator keeping at most `capacity` windows (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            timing: false,
            windows: VecDeque::new(),
            evicted: 0,
            seq: 0,
            prev_points: 0,
            prev_discords: 0,
            prev_wall: 0,
            prev_counters: [0; Counter::COUNT],
            prev_latency: Histogram::new(),
            prev_spans: Vec::new(),
        }
    }

    /// Builder-style: enables (or disables) the wall-clock-derived window
    /// fields — latency quantiles, span shares, throughput. Off by
    /// default so window records are deterministic.
    #[must_use]
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Whether wall-clock-derived fields are populated.
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// Ingests the next cumulative snapshot and appends one window.
    ///
    /// `points` is the cumulative stream position, `discords` the
    /// cumulative discord/alert count, and `wall_ns` the cumulative
    /// wall-clock time (ignored unless timing is enabled). All three must
    /// be monotone across calls — like the snapshot itself, they describe
    /// the whole run so far, and the aggregator does the differencing.
    #[expect(
        clippy::expect_used,
        reason = "the element was pushed on the previous line, so the deque is non-empty"
    )]
    pub fn observe(
        &mut self,
        trace: &PipelineTrace,
        points: u64,
        discords: u64,
        wall_ns: u64,
    ) -> &WindowStats {
        let mut counters = [0u64; Counter::COUNT];
        for (slot, (cur, old)) in counters
            .iter_mut()
            .zip(trace.counters.iter().zip(&self.prev_counters))
        {
            *slot = cur.saturating_sub(*old);
        }

        let (latency_p50, latency_p95, latency_max) = if self.timing {
            let delta = trace
                .histogram(Metric::DistanceNanos)
                .delta_since(&self.prev_latency);
            (delta.p50(), delta.quantile(0.95), delta.max())
        } else {
            (0, 0, 0)
        };

        let span_shares = if self.timing {
            span_share_deltas(trace, &self.prev_spans)
        } else {
            Vec::new()
        };

        let window = WindowStats {
            seq: self.seq,
            start: self.prev_points,
            end: points.max(self.prev_points),
            wall_ns: if self.timing {
                wall_ns.saturating_sub(self.prev_wall)
            } else {
                0
            },
            counters,
            discords: discords.saturating_sub(self.prev_discords),
            latency_p50,
            latency_p95,
            latency_max,
            span_shares,
        };

        self.seq += 1;
        self.prev_points = points.max(self.prev_points);
        self.prev_discords = discords.max(self.prev_discords);
        self.prev_counters = trace.counters;
        if self.timing {
            self.prev_latency = trace.histogram(Metric::DistanceNanos).clone();
            self.prev_spans = trace
                .spans
                .spans()
                .iter()
                .map(|s| (s.path.clone(), s.self_ns))
                .collect();
            self.prev_wall = wall_ns.max(self.prev_wall);
        }

        if self.windows.len() == self.capacity {
            self.windows.pop_front();
            self.evicted += 1;
        }
        self.windows.push_back(window);
        self.windows.back().expect("just pushed")
    }

    /// The held windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowStats> {
        self.windows.iter()
    }

    /// The most recent window, if any.
    pub fn latest(&self) -> Option<&WindowStats> {
        self.windows.back()
    }

    /// Number of windows currently held.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` when no window has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl Default for WindowedAggregator {
    fn default() -> Self {
        Self::new()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-span self-time deltas against the previous snapshot, normalized to
/// shares of the window's total self time. Order follows the current
/// trace's deterministic depth-first span order.
fn span_share_deltas(trace: &PipelineTrace, prev: &[(String, u64)]) -> Vec<(String, f64)> {
    let deltas: Vec<(String, u64)> = trace
        .spans
        .spans()
        .iter()
        .map(|s| {
            let old = prev
                .iter()
                .find(|(p, _)| p == &s.path)
                .map(|(_, ns)| *ns)
                .unwrap_or(0);
            (s.path.clone(), s.self_ns.saturating_sub(old))
        })
        .collect();
    let total: u64 = deltas.iter().map(|(_, d)| d).sum();
    if total == 0 {
        return Vec::new();
    }
    deltas
        .into_iter()
        .map(|(path, d)| (path, d as f64 / total as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(windows: u64, emitted: u64, dropped: u64) -> PipelineTrace {
        let mut t = PipelineTrace::new("stream");
        t.counters[Counter::WindowsProcessed.index()] = windows;
        t.counters[Counter::WordsEmitted.index()] = emitted;
        t.counters[Counter::WordsDropped.index()] = dropped;
        t
    }

    #[test]
    fn observe_differences_consecutive_snapshots() {
        let mut agg = WindowedAggregator::new();
        let w0 = agg.observe(&snapshot(100, 40, 60), 200, 1, 0).clone();
        assert_eq!(w0.seq, 0);
        assert_eq!((w0.start, w0.end), (0, 200));
        assert_eq!(w0.counter(Counter::WindowsProcessed), 100);
        assert_eq!(w0.discords, 1);
        let w1 = agg.observe(&snapshot(250, 90, 160), 500, 1, 0).clone();
        assert_eq!(w1.seq, 1);
        assert_eq!((w1.start, w1.end), (200, 500));
        assert_eq!(w1.counter(Counter::WindowsProcessed), 150);
        assert_eq!(w1.counter(Counter::WordsEmitted), 50);
        assert_eq!(w1.discords, 0);
        assert!((w1.tokens_per_point() - 50.0 / 300.0).abs() < 1e-12);
        assert!((w1.drop_ratio() - 100.0 / 150.0).abs() < 1e-12);
        assert_eq!(agg.len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_seq_survives_eviction() {
        let mut agg = WindowedAggregator::with_capacity(3);
        for i in 1..=5u64 {
            agg.observe(&snapshot(i * 10, i * 4, i * 6), i * 100, 0, 0);
        }
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.evicted(), 2);
        let seqs: Vec<u64> = agg.windows().map(|w| w.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(agg.latest().map(|w| w.end), Some(500));
    }

    #[test]
    fn deterministic_mode_zeroes_wall_derived_fields() {
        let mut t = snapshot(100, 40, 60);
        t.histograms[Metric::DistanceNanos.index()].record(5_000);
        let mut agg = WindowedAggregator::new();
        let w = agg.observe(&t, 100, 0, 123_456).clone();
        assert_eq!(w.wall_ns, 0);
        assert_eq!((w.latency_p50, w.latency_p95, w.latency_max), (0, 0, 0));
        assert!(w.span_shares.is_empty());
        assert_eq!(w.throughput_pps(), 0.0);
        let json = w.to_jsonl();
        assert!(json.contains("\"wall_ns\":0"));
        assert!(json.contains("\"span_shares\":{}"));
        assert!(json.contains("\"throughput_pps\":0.0"));
    }

    #[test]
    fn timing_mode_populates_latency_from_histogram_delta() {
        let mut t = snapshot(10, 5, 5);
        t.histograms[Metric::DistanceNanos.index()].record(1_000);
        let mut agg = WindowedAggregator::new().with_timing(true);
        agg.observe(&t, 100, 0, 1_000_000);
        // Second interval adds two slower calls; the window should see
        // only those.
        t.histograms[Metric::DistanceNanos.index()].record(8_000);
        t.histograms[Metric::DistanceNanos.index()].record(8_000);
        let w = agg.observe(&t, 200, 0, 3_000_000).clone();
        assert_eq!(w.wall_ns, 2_000_000);
        let err = (w.latency_p50 as f64 - 8_000.0).abs() / 8_000.0;
        assert!(err <= 0.125, "p50 {} vs 8000", w.latency_p50);
        assert!(w.throughput_pps() > 0.0);
    }

    #[test]
    fn identical_snapshot_sequences_produce_identical_jsonl() {
        let feed = |agg: &mut WindowedAggregator| -> Vec<String> {
            let mut out = Vec::new();
            for i in 1..=4u64 {
                let t = snapshot(i * 100, i * 37, i * 63);
                out.push(agg.observe(&t, i * 250, i / 2, 0).to_jsonl());
            }
            out
        };
        let mut a = WindowedAggregator::new();
        let mut b = WindowedAggregator::new();
        assert_eq!(feed(&mut a), feed(&mut b));
    }

    #[test]
    fn window_jsonl_has_every_key() {
        let mut agg = WindowedAggregator::new();
        let json = agg.observe(&snapshot(10, 4, 6), 50, 2, 0).to_jsonl();
        assert!(json.starts_with("{\"schema\":4,\"type\":\"window\""));
        for key in [
            "seq",
            "start",
            "end",
            "points",
            "wall_ns",
            "counters",
            "discords",
            "latency_ns",
            "span_shares",
            "derived",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} in {json}");
        }
        for counter in Counter::ALL {
            assert!(json.contains(&format!("\"{}\":", counter.name())));
        }
        assert!(json.contains("\"discords\":2"));
        assert!(!json.contains('\n'));
    }
}
