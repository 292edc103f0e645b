//! Windowed aggregation of cumulative snapshots — the level-4 primitive
//! live monitoring is built on.
//!
//! A [`PipelineTrace`] snapshot is *cumulative*: its counters only grow as
//! a stream is processed. A fleet monitor needs the opposite view — "what
//! happened in the last interval, and is that within budget?" — so
//! [`WindowedAggregator`] keeps the previous totals and differences each
//! new snapshot (the one `StreamingDetector::snapshot` reads) against
//! them into one [`WindowStats`]: counter deltas, token and discord
//! rates, and throughput. A high-water mark (`peak_digram_entries`) is not
//! a total, so it is carried as it stands: the peak so far.
//!
//! ## Determinism contract
//!
//! Window contents are a pure function of the snapshot sequence: counter
//! deltas, token rates and discord rates are bit-identical across runs
//! and thread counts. The one wall-clock input is the caller's `wall_ns`;
//! an untimed caller passes 0, so `wall_ns` and `throughput_pps` read 0
//! and `gv monitor` output stays byte-identical for `GV_THREADS=1` vs `4`.
//!
//! A `window` record writes only the counters a stream snapshot can
//! move. A stream runs no discord search and discretizes through the
//! window kernel alone, so the search counters and `windows_fallback`
//! would read 0 in every window; schema 5 leaves them out.

use crate::stage::Counter;
use crate::trace::{format_json_f64, PipelineTrace, SCHEMA_VERSION};
use std::fmt::Write as _;

/// The counters a `window` record writes: the ones a stream snapshot
/// moves, in [`Counter::ALL`] order.
const WINDOW_COUNTERS: [Counter; 6] = [
    Counter::WindowsProcessed,
    Counter::WordsEmitted,
    Counter::WordsDropped,
    Counter::RulesCreated,
    Counter::RulesDeleted,
    Counter::PeakDigramEntries,
];

/// One interval's worth of activity, differenced from two consecutive
/// cumulative snapshots. Every counter field is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// 0-based window sequence number.
    pub seq: u64,
    /// Stream position (points) at the start of the window.
    pub start: u64,
    /// Stream position (points) at the end of the window (exclusive).
    pub end: u64,
    /// Wall-clock nanoseconds spent in this window (0 when untimed — see
    /// the module docs).
    pub wall_ns: u64,
    /// Per-window counter deltas, indexed by [`Counter::index`]; a
    /// high-water mark ([`Counter::merges_by_max`]) holds the peak so far.
    pub counters: [u64; Counter::COUNT],
    /// Discords/alerts emitted during this window.
    pub discords: u64,
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

    /// Fraction of this window's counted sliding windows that numerosity
    /// reduction dropped. A stream counts every window it processes
    /// unless it is bounded and read less often than its horizon turns
    /// over; the windows no read saw are then counted in neither.
    pub fn drop_ratio(&self) -> f64 {
        let dropped = self.counter(Counter::WordsDropped);
        ratio(dropped, self.counter(Counter::WordsEmitted) + dropped)
    }

    /// Discords/alerts emitted per point in this window.
    pub fn discords_per_point(&self) -> f64 {
        ratio(self.discords, self.points())
    }

    /// Points per second (0 when no wall time was measured, i.e. when
    /// untimed).
    pub fn throughput_pps(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.points() as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Encodes this window as one JSON line (no trailing newline).
    ///
    /// Schema 7 `window` record: `{"schema":7,"type":"window","seq":int,
    /// "start":int,"end":int,"points":int,"wall_ns":int,
    /// "counters":{counter:int,...},"discords":int,
    /// "derived":{"tokens_per_point":float,"drop_ratio":float,
    /// "discords_per_point":float,"throughput_pps":float}}` — the six
    /// counters a stream snapshot moves and every derived key, always
    /// present.
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
        for (i, counter) in WINDOW_COUNTERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", counter.name(), self.counter(*counter));
        }
        let _ = write!(
            out,
            "}},\"discords\":{},\
             \"derived\":{{\"tokens_per_point\":{},\"drop_ratio\":{},\"discords_per_point\":{},\"throughput_pps\":{}}}}}",
            self.discords,
            format_json_f64(self.tokens_per_point()),
            format_json_f64(self.drop_ratio()),
            format_json_f64(self.discords_per_point()),
            format_json_f64(self.throughput_pps()),
        );
        out
    }
}

/// Differences a sequence of cumulative [`PipelineTrace`] snapshots into
/// per-window [`WindowStats`], keeping only the previous totals (see the
/// module docs for the determinism contract).
#[derive(Debug, Clone, Default)]
pub struct WindowedAggregator {
    seq: u64,
    prev_points: u64,
    prev_discords: u64,
    prev_wall: u64,
    prev_counters: [u64; Counter::COUNT],
}

impl WindowedAggregator {
    /// An aggregator that has observed nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests the next cumulative snapshot and returns its window: each
    /// counter's growth since the previous snapshot, except a high-water
    /// mark, which is copied as the peak so far.
    ///
    /// `points` is the cumulative stream position, `discords` the
    /// cumulative discord/alert count, and `wall_ns` the cumulative
    /// wall-clock time (0 when untimed). All three must be monotone across
    /// calls — like the snapshot itself, they describe the whole run so
    /// far, and the aggregator does the differencing.
    pub fn observe(
        &mut self,
        trace: &PipelineTrace,
        points: u64,
        discords: u64,
        wall_ns: u64,
    ) -> WindowStats {
        let mut counters = [0u64; Counter::COUNT];
        for (counter, (cur, old)) in Counter::ALL
            .iter()
            .zip(trace.counters.iter().zip(&self.prev_counters))
        {
            counters[counter.index()] = if counter.merges_by_max() {
                *cur
            } else {
                cur.saturating_sub(*old)
            };
        }
        let window = WindowStats {
            seq: self.seq,
            start: self.prev_points,
            end: points.max(self.prev_points),
            wall_ns: wall_ns.saturating_sub(self.prev_wall),
            counters,
            discords: discords.saturating_sub(self.prev_discords),
        };
        self.seq += 1;
        self.prev_points = window.end;
        self.prev_discords = discords.max(self.prev_discords);
        self.prev_wall = wall_ns.max(self.prev_wall);
        self.prev_counters = trace.counters;
        window
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
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
        let w0 = agg.observe(&snapshot(100, 40, 60), 200, 1, 0);
        assert_eq!(w0.seq, 0);
        assert_eq!((w0.start, w0.end), (0, 200));
        assert_eq!(w0.counter(Counter::WindowsProcessed), 100);
        assert_eq!(w0.discords, 1);
        let w1 = agg.observe(&snapshot(250, 90, 160), 500, 1, 0);
        assert_eq!(w1.seq, 1);
        assert_eq!((w1.start, w1.end), (200, 500));
        assert_eq!(w1.counter(Counter::WindowsProcessed), 150);
        assert_eq!(w1.counter(Counter::WordsEmitted), 50);
        assert_eq!(w1.discords, 0);
        assert!((w1.tokens_per_point() - 50.0 / 300.0).abs() < 1e-12);
        assert!((w1.drop_ratio() - 100.0 / 150.0).abs() < 1e-12);
        // Windows counted in neither word counter leave the ratio alone.
        let w2 = agg.observe(&snapshot(550, 100, 180), 800, 0, 0);
        assert_eq!(w2.counter(Counter::WindowsProcessed), 300);
        assert!((w2.drop_ratio() - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn untimed_windows_write_zero_wall_fields() {
        let w = WindowedAggregator::new().observe(&snapshot(100, 40, 60), 100, 0, 0);
        assert_eq!(w.wall_ns, 0);
        assert_eq!(w.throughput_pps(), 0.0);
        let json = w.to_jsonl();
        assert!(json.contains("\"wall_ns\":0"));
        assert!(json.contains("\"throughput_pps\":0.0"));
    }

    #[test]
    fn a_window_carries_the_peak_so_far_not_its_growth() {
        let mut t = snapshot(100, 40, 60);
        t.counters[Counter::PeakDigramEntries.index()] = 148;
        let mut agg = WindowedAggregator::new();
        assert_eq!(
            agg.observe(&t, 200, 0, 0)
                .counter(Counter::PeakDigramEntries),
            148
        );
        // The next snapshot sits at the same peak: the window still
        // reports it, where a difference would read 0.
        t.counters[Counter::WindowsProcessed.index()] = 300;
        let w = agg.observe(&t, 400, 0, 0);
        assert_eq!(w.counter(Counter::PeakDigramEntries), 148);
        assert_eq!(w.counter(Counter::WindowsProcessed), 200);
        assert!(w.to_jsonl().contains("\"peak_digram_entries\":148"));
    }

    #[test]
    fn timed_windows_difference_wall_time() {
        let t = snapshot(10, 5, 5);
        let mut agg = WindowedAggregator::new();
        let w0 = agg.observe(&t, 100, 0, 1_000_000);
        assert_eq!(w0.wall_ns, 1_000_000);
        let w1 = agg.observe(&t, 200, 0, 3_000_000);
        assert_eq!(w1.wall_ns, 2_000_000);
        // 100 points in 2 ms.
        assert!((w1.throughput_pps() - 50_000.0).abs() < 1e-6);
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
        assert!(json.starts_with(&format!(
            "{{\"schema\":{SCHEMA_VERSION},\"type\":\"window\""
        )));
        for key in [
            "seq", "start", "end", "points", "wall_ns", "counters", "discords", "derived",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} in {json}");
        }
        for counter in Counter::ALL {
            let written = json.contains(&format!("\"{}\":", counter.name()));
            assert_eq!(written, WINDOW_COUNTERS.contains(&counter), "{counter:?}");
        }
        for retired in [
            "latency_ns",
            "span_shares",
            "distance_calls_per_point",
            "tokens_evicted",
        ] {
            assert!(!json.contains(retired), "{retired} in {json}");
        }
        assert!(json.contains("\"discords\":2"));
        assert!(!json.contains('\n'));
    }
}
