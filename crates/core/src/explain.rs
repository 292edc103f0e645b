//! Per-discord provenance: *why* each reported discord won.
//!
//! The RRA search already tells us *what* the discords are; the level-2
//! event stream tells us *how the search treated each candidate*. An
//! [`ExplainReport`] joins the two with the [`GrammarModel`]: for every
//! reported discord it recovers the backing grammar rule, the SAX word at
//! the discord's start, the rule's occurrence frequency (and hence the
//! sibling count the inner loop visited first), the distance calls the
//! search spent on that candidate across all ranking rounds, and the
//! rule-density floor at the discord — the §4.1 signal the §4.2 search is
//! supposed to agree with.
//!
//! Join semantics: RRA emits a `Visited` event each time the outer loop
//! takes up a candidate, and exactly one `Pruned`/`Completed` outcome
//! event per visit, keyed by the candidate's `(position, length)` — which
//! is unique in the candidate list. A discord's per-candidate cost is the
//! sum of its outcome events' `calls` deltas; the report-wide total over
//! *all* outcome events must equal [`SearchStats::distance_calls`], which
//! [`ExplainReport::distance_calls_from_events`] exposes so tests can
//! assert the books balance.

use std::fmt::Write as _;

use gv_discord::SearchStats;
use gv_obs::{Event, EventKind, Histogram, LocalRecorder, Metric};
use gv_sequitur::RuleId;
use gv_timeseries::Interval;

use crate::density::RuleDensity;
use crate::model::GrammarModel;
use crate::rra::RraReport;

/// Provenance for one reported discord.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscordProvenance {
    /// Discord rank (0 = largest nearest-neighbor distance).
    pub rank: usize,
    /// Start offset in the raw series.
    pub position: usize,
    /// Length in points.
    pub length: usize,
    /// Length-normalized nearest-neighbor distance (Eq. 1).
    pub distance: f64,
    /// The grammar rule backing the candidate (`None`: uncovered run).
    pub rule: Option<RuleId>,
    /// The SAX word at the discord's start offset.
    pub word: Option<String>,
    /// The rule's occurrence frequency (the outer ordering key; 0 for
    /// uncovered runs).
    pub frequency: u64,
    /// Same-rule occurrence siblings the inner loop tried first.
    pub siblings: u64,
    /// Times the outer loop took this candidate up (once per rank round
    /// it stayed unpruned and non-overlapping).
    pub visits: u64,
    /// Distance calls the search spent on this candidate, summed across
    /// all its visits.
    pub distance_calls: u64,
    /// Lowest rule-density value inside the discord interval (§4.1's
    /// signal at the same location; `-1` when the curve doesn't cover it).
    pub min_density: i64,
}

impl DiscordProvenance {
    /// The discord's series interval.
    pub fn interval(&self) -> Interval {
        Interval::new(self.position, self.position + self.length)
    }

    /// Encodes the row as one JSON line (no trailing newline), at the current schema version.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(224);
        let _ = write!(
            out,
            "{{\"schema\":{},\"type\":\"explain\",\"rank\":{},\"position\":{},\"length\":{},\"distance\":{}",
            gv_obs::SCHEMA_VERSION,
            self.rank,
            self.position,
            self.length,
            gv_obs::format_json_f64(self.distance)
        );
        match self.rule {
            Some(r) => {
                let _ = write!(out, ",\"rule\":{}", r.0);
            }
            None => out.push_str(",\"rule\":null"),
        }
        match &self.word {
            Some(w) => {
                let _ = write!(out, ",\"word\":\"{w}\"");
            }
            None => out.push_str(",\"word\":null"),
        }
        let _ = write!(
            out,
            ",\"frequency\":{},\"siblings\":{},\"visits\":{},\"calls\":{},\"min_density\":{}}}",
            self.frequency, self.siblings, self.visits, self.distance_calls, self.min_density
        );
        out
    }
}

/// The joined provenance report for one RRA run.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// One row per reported discord, rank order.
    pub rows: Vec<DiscordProvenance>,
    /// The search's own cost accounting (the single counting path).
    pub stats: SearchStats,
    /// Candidate intervals the grammar supplied.
    pub num_candidates: usize,
    /// Raw decision events from the run, oldest first (bounded by the
    /// recorder's ring; see `events_dropped`).
    pub events: Vec<Event>,
    /// Total events the run recorded, including any the ring overwrote.
    pub events_recorded: u64,
    /// Events lost to ring overwrites (0 on figure-sized runs).
    pub events_dropped: u64,
    /// Per-call distance-kernel latency distribution (nanoseconds).
    pub distance_ns: Histogram,
    /// Early-abandon prefix-position distribution.
    pub abandon_pos: Histogram,
}

impl ExplainReport {
    /// Joins a finished RRA run with its model and the recorder that
    /// observed it. `recorder` must be the same [`LocalRecorder`] passed
    /// to the search (a detailed one — [`LocalRecorder::new`]).
    pub fn from_run(model: &GrammarModel, report: &RraReport, recorder: &LocalRecorder) -> Self {
        let events = recorder.events_vec();
        let (events_recorded, events_dropped) = {
            let ring = recorder.events();
            (ring.recorded(), ring.dropped())
        };
        let density = RuleDensity::from_model(model);
        let rows = report
            .discords
            .iter()
            .map(|d| {
                let key = (d.position as u64, d.length as u64);
                let mut rule = None;
                let mut frequency = 0u64;
                let mut visits = 0u64;
                let mut distance_calls = 0u64;
                for e in &events {
                    if (e.position, e.length) != key {
                        continue;
                    }
                    match e.kind {
                        EventKind::Visited => {
                            visits += 1;
                            rule = e.rule;
                            frequency = e.frequency;
                        }
                        EventKind::Pruned | EventKind::Completed => distance_calls += e.calls,
                        _ => {}
                    }
                }
                let word = model
                    .records
                    .binary_search_by_key(&d.position, |r| r.offset)
                    .ok()
                    .map(|i| model.records[i].word.to_string());
                DiscordProvenance {
                    rank: d.rank,
                    position: d.position,
                    length: d.length,
                    distance: d.distance,
                    rule: rule.map(RuleId),
                    word,
                    frequency,
                    siblings: frequency.saturating_sub(1),
                    visits,
                    distance_calls,
                    min_density: density.min_in(&d.interval()).unwrap_or(-1),
                }
            })
            .collect();
        Self {
            rows,
            stats: report.stats,
            num_candidates: report.num_candidates,
            events,
            events_recorded,
            events_dropped,
            distance_ns: recorder.histogram(Metric::DistanceNanos),
            abandon_pos: recorder.histogram(Metric::AbandonPos),
        }
    }

    /// Independent reconstruction of the run's distance-call total from
    /// the outcome events. Equals [`SearchStats::distance_calls`] whenever
    /// the event ring kept every event (`events_dropped == 0`).
    pub fn distance_calls_from_events(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Pruned | EventKind::Completed))
            .map(|e| e.calls)
            .sum()
    }

    /// Encodes the report summary as one JSON line (no trailing newline),
    /// the current schema version.
    pub fn summary_jsonl(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":{},\"type\":\"explain_summary\",\"discords\":{},\"candidates\":{},\
             \"distance_calls\":{},\"early_abandoned\":{},\"candidates_pruned\":{},\
             \"candidates_completed\":{},\"events_recorded\":{},\"events_dropped\":{},\
             \"distance_ns\":{},\"abandon_pos\":{}}}",
            gv_obs::SCHEMA_VERSION,
            self.rows.len(),
            self.num_candidates,
            self.stats.distance_calls,
            self.stats.early_abandoned,
            self.stats.candidates_pruned,
            self.stats.candidates_completed,
            self.events_recorded,
            self.events_dropped,
            self.distance_ns.summary_json(),
            self.abandon_pos.summary_json()
        );
        out
    }

    /// Renders the human-readable provenance table — the CLI's `explain`
    /// output. Every number in it is a pure function of the input, so the
    /// bytes are deterministic; the wall-clock distance timings stay in
    /// [`ExplainReport::summary_jsonl`] (`distance_ns`).
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "explain: {} discords from {} candidates ({} distance calls, {} abandoned)",
            self.rows.len(),
            self.num_candidates,
            self.stats.distance_calls,
            self.stats.early_abandoned
        );
        let _ = writeln!(
            out,
            "  {:<4} {:<14} {:>6} {:>9} {:>6} {:>5} {:>5} {:>6} {:>6} {:>8}  word",
            "rank",
            "interval",
            "len",
            "distance",
            "rule",
            "freq",
            "sibs",
            "visits",
            "calls",
            "density"
        );
        let _ = writeln!(
            out,
            "  {:-<4} {:-<14} {:->6} {:->9} {:->6} {:->5} {:->5} {:->6} {:->6} {:->8}  {:-<8}",
            "", "", "", "", "", "", "", "", "", "", ""
        );
        for row in &self.rows {
            let rule = match row.rule {
                Some(r) => r.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<4} {:<14} {:>6} {:>9.4} {:>6} {:>5} {:>5} {:>6} {:>6} {:>8}  {}",
                row.rank,
                format!("{}..{}", row.position, row.position + row.length),
                row.length,
                row.distance,
                rule,
                row.frequency,
                row.siblings,
                row.visits,
                row.distance_calls,
                row.min_density,
                row.word.as_deref().unwrap_or("-")
            );
        }
        if !self.abandon_pos.is_empty() {
            let _ = writeln!(
                out,
                "  abandon position: p50 {}  p90 {}  p99 {}  max {} ({} abandons)",
                self.abandon_pos.p50(),
                self.abandon_pos.p90(),
                self.abandon_pos.p99(),
                self.abandon_pos.max(),
                self.abandon_pos.count()
            );
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "  warning: event ring dropped {} of {} events; per-discord calls are lower bounds",
                self.events_dropped, self.events_recorded
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::engine::{EngineConfig, RraDetector};
    use crate::pipeline::AnomalyPipeline;
    use crate::workspace::Workspace;
    use gv_obs::NoopRecorder;

    fn planted() -> Vec<f64> {
        let mut v: Vec<f64> = (0..2400).map(|i| (i as f64 / 20.0).sin()).collect();
        for (i, x) in v[1200..1280].iter_mut().enumerate() {
            *x = 0.25 * (i as f64 / 5.0).cos();
        }
        v
    }

    fn explained(k: usize) -> (ExplainReport, RraReport) {
        let v = planted();
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
        let recorder = LocalRecorder::new();
        let model = pipeline.model(&v, &NoopRecorder).unwrap();
        let report = RraDetector::new(pipeline.config().clone(), k)
            .with_engine(EngineConfig::sequential())
            .search_model(&v, &model, &mut Workspace::new(), &recorder)
            .unwrap();
        (ExplainReport::from_run(&model, &report, &recorder), report)
    }

    #[test]
    fn explain_rows_mirror_discords() {
        let (explain, report) = explained(2);
        assert_eq!(explain.rows.len(), report.discords.len());
        for (row, d) in explain.rows.iter().zip(&report.discords) {
            assert_eq!(row.rank, d.rank);
            assert_eq!(row.position, d.position);
            assert_eq!(row.length, d.length);
            assert!(row.visits >= 1, "discord was never visited?");
            assert!(row.distance_calls > 0, "no calls attributed");
            assert!(row.word.is_some(), "start offset must map to a word");
            assert!(row.min_density >= 0, "curve covers the discord");
        }
    }

    #[test]
    fn event_books_balance() {
        let (explain, report) = explained(2);
        assert_eq!(explain.events_dropped, 0);
        assert_eq!(
            explain.distance_calls_from_events(),
            report.stats.distance_calls
        );
        assert_eq!(explain.stats, report.stats);
        assert_eq!(explain.distance_ns.count(), report.stats.distance_calls);
        assert_eq!(explain.abandon_pos.count(), report.stats.early_abandoned);
    }

    #[test]
    fn renders_and_serializes() {
        let (explain, _) = explained(1);
        let table = explain.render_table();
        assert!(table.contains("rank"));
        assert!(table.contains("density"));
        assert!(table.contains("abandon position"));
        let row = explain.rows[0].to_jsonl();
        assert!(row.starts_with("{\"schema\":4,\"type\":\"explain\""));
        for key in [
            "rank",
            "position",
            "length",
            "distance",
            "rule",
            "word",
            "frequency",
            "siblings",
            "visits",
            "calls",
            "min_density",
        ] {
            assert!(row.contains(&format!("\"{key}\":")), "{key} in {row}");
        }
        let summary = explain.summary_jsonl();
        assert!(summary.starts_with("{\"schema\":4,\"type\":\"explain_summary\""));
        assert!(summary.contains("\"distance_ns\":{\"count\":"));
        assert!(summary.contains("\"abandon_pos\":{\"count\":"));
    }

    #[test]
    fn table_does_not_print_wall_clock_timings() {
        // Two runs on one input read different distance-call nanoseconds;
        // the table must not change with them, or default stdout is not
        // deterministic. The `--events` summary keeps the histogram.
        let (mut explain, _) = explained(1);
        let table = explain.render_table();
        let summary = explain.summary_jsonl();
        let mut slower = Histogram::default();
        for _ in 0..explain.distance_ns.count() {
            slower.record(1_000_000);
        }
        explain.distance_ns = slower;
        assert_eq!(explain.render_table(), table);
        assert_ne!(explain.summary_jsonl(), summary);
    }
}
