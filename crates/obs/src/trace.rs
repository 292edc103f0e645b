//! [`PipelineTrace`]: a finished run's instrumentation snapshot, with a
//! hand-rolled JSONL encoding and a text table rendering.

use crate::histogram::Histogram;
use crate::span::SpanTree;
use crate::stage::{Counter, Metric, Stage};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Version number stamped into every JSONL record this crate emits (trace
/// lines and [`Event`](crate::Event) lines alike). Bump it whenever the
/// record shape changes so `BENCH_*.json` trajectory files stay comparable
/// across PRs: 1 = PR-1 counters-only records, 2 = adds `schema` itself
/// plus the `histograms` object and event records, 3 = adds the `spans`
/// array (hierarchical span tree with derived self-time), the `detect`
/// root stage, and the bench harness's run-history records, 4 = adds the
/// live-monitoring record types (`window` per-interval aggregates,
/// `health` SLO verdict transitions, `ledger` run-provenance records).
pub const SCHEMA_VERSION: u64 = 4;

/// Everything one instrumented run measured: the span tree (its only
/// timing), the hot-path counters, and the value histograms, plus a
/// free-form label and optional numeric parameters (window size, series
/// length, …).
///
/// The JSON encoding is hand-rolled because `gv-obs` must stay
/// dependency-free (see the crate docs); the schema is documented in the
/// README's Observability section and versioned via [`SCHEMA_VERSION`] so
/// `BENCH_*.json` trajectory files remain comparable across PRs.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineTrace {
    /// What ran (e.g. `"density"`, `"rra"`, a bench fixture name).
    pub label: String,
    /// Named run parameters, in insertion order.
    pub params: Vec<(String, u64)>,
    /// Counter values, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Value histograms, indexed by [`Metric::index`].
    pub histograms: [Histogram; Metric::COUNT],
    /// The hierarchical span tree (empty when the run recorded no spans).
    pub spans: SpanTree,
}

impl PipelineTrace {
    /// An empty trace with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            params: Vec::new(),
            counters: [0; Counter::COUNT],
            histograms: std::array::from_fn(|_| Histogram::new()),
            spans: SpanTree::default(),
        }
    }

    /// Builder-style: records a named run parameter.
    #[must_use]
    pub fn with_param(mut self, name: impl Into<String>, value: u64) -> Self {
        self.params.push((name.into(), value));
        self
    }

    /// Accumulated nanoseconds for one stage, derived from the span tree
    /// ([`SpanTree::stage_total_ns`]).
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.spans.stage_total_ns(stage)
    }

    /// Value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The histogram behind one metric.
    pub fn histogram(&self, metric: Metric) -> &Histogram {
        &self.histograms[metric.index()]
    }

    /// Total measured wall-clock time: the sum of the root spans' totals
    /// (nested spans already count inside their parent).
    pub fn total_nanos(&self) -> u64 {
        self.spans
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.total_ns)
            .sum()
    }

    /// Fraction of sliding windows numerosity reduction dropped
    /// (`words_dropped / windows_processed`; 0 when nothing was processed).
    pub fn nr_drop_ratio(&self) -> f64 {
        ratio(
            self.counter(Counter::WordsDropped),
            self.counter(Counter::WindowsProcessed),
        )
    }

    /// Fraction of distance calls cut short by early abandoning.
    pub fn early_abandon_ratio(&self) -> f64 {
        ratio(
            self.counter(Counter::EarlyAbandons),
            self.counter(Counter::DistanceCalls),
        )
    }

    /// Encodes the trace as one JSON line (no trailing newline).
    ///
    /// Schema 4: `{"schema": 4, "label": str, "params": {name: int, ...},
    /// "stages_ns": {stage: int, ...}, "counters": {counter: int, ...},
    /// "histograms": {metric: {"count","mean","p50","p90","p99","max"}, ...},
    /// "spans": [{"path": str, "total_ns": int, "self_ns": int,
    /// "count": int}, ...], "derived": {"total_ns": int,
    /// "nr_drop_ratio": float, "early_abandon_ratio": float}}` — every
    /// stage, counter, and metric key is always present so downstream
    /// tooling never needs missing-key logic; `spans` is depth-first in
    /// deterministic stage order and may be empty. `stages_ns` and
    /// `derived.total_ns` are derived from `spans` (per-stage sums and the
    /// root total), so the three always reconcile.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"schema\":{SCHEMA_VERSION},\"label\":");
        write_json_string(&self.label, &mut out);
        out.push_str(",\"params\":{");
        for (i, (name, value)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"stages_ns\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", stage.name(), self.stage_nanos(*stage));
        }
        out.push_str("},\"counters\":{");
        for (i, counter) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", counter.name(), self.counter(*counter));
        }
        out.push_str("},\"histograms\":{");
        for (i, metric) in Metric::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                metric.name(),
                self.histogram(*metric).summary_json()
            );
        }
        out.push_str("},\"spans\":");
        out.push_str(&self.spans.to_json_array());
        let _ = write!(
            out,
            ",\"derived\":{{\"total_ns\":{},\"nr_drop_ratio\":{},\"early_abandon_ratio\":{}}}}}",
            self.total_nanos(),
            format_json_f64(self.nr_drop_ratio()),
            format_json_f64(self.early_abandon_ratio()),
        );
        out
    }

    /// Appends this trace as one line to a JSONL file, creating it if
    /// needed.
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", self.to_jsonl())
    }

    /// Renders a human-readable span timing table with the counter block
    /// underneath — the CLI's `--trace` output.
    pub fn render_table(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "trace: {}", self.label);
        if !self.params.is_empty() {
            let rendered: Vec<String> = self
                .params
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            let _ = writeln!(out, "  {}", rendered.join("  "));
        }
        if !self.spans.is_empty() {
            let rule = format!("  {:-<30} {:->10} {:->10} {:->8}", "", "", "", "");
            let _ = writeln!(
                out,
                "  {:<30} {:>10} {:>10} {:>8}",
                "span", "total", "self", "count"
            );
            let _ = writeln!(out, "{rule}");
            for span in self.spans.spans() {
                let indented = format!("{}{}", "  ".repeat(span.depth), span.stage.name());
                let _ = writeln!(
                    out,
                    "  {:<30} {:>10} {:>10} {:>8}",
                    indented,
                    format_nanos(span.total_ns),
                    format_nanos(span.self_ns),
                    group_thousands(span.count)
                );
            }
            let _ = writeln!(out, "{rule}");
            let _ = writeln!(
                out,
                "  {:<30} {:>10}",
                "total",
                format_nanos(self.total_nanos())
            );
        }
        let _ = writeln!(out, "  counters");
        for counter in Counter::ALL {
            let _ = writeln!(
                out,
                "    {:<22} {:>12}",
                counter.name(),
                group_thousands(self.counter(counter))
            );
        }
        let _ = writeln!(
            out,
            "    {:<22} {:>11.1}%",
            "nr_drop_ratio",
            100.0 * self.nr_drop_ratio()
        );
        let _ = writeln!(
            out,
            "    {:<22} {:>11.1}%",
            "early_abandon_ratio",
            100.0 * self.early_abandon_ratio()
        );
        if Metric::ALL.iter().any(|m| !self.histogram(*m).is_empty()) {
            let _ = writeln!(out, "  histograms");
            let _ = writeln!(
                out,
                "    {:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "metric", "count", "p50", "p90", "p99", "max"
            );
            for metric in Metric::ALL {
                let h = self.histogram(metric);
                if h.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "    {:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    metric.name(),
                    group_thousands(h.count()),
                    group_thousands(h.p50()),
                    group_thousands(h.p90()),
                    group_thousands(h.p99()),
                    group_thousands(h.max())
                );
            }
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Formats a finite float as a JSON number token (floats here are ratios
/// and means, so `{}`'s shortest round-trip form is always a valid token,
/// modulo an integer-looking `0`/`1`). JSON has no NaN/Infinity tokens, so
/// non-finite inputs — which only a misusing caller can produce — are
/// coerced to `0.0`, loudly in debug builds.
pub(crate) fn format_json_f64(x: f64) -> String {
    if !x.is_finite() {
        debug_assert!(x.is_finite(), "non-finite value {x} fed to JSON encoder");
        return "0.0".to_string();
    }
    let s = x.to_string();
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

pub(crate) fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `1.23 ms`-style human duration.
fn format_nanos(nanos: u64) -> String {
    let ns = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} us", ns / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// `1234567` → `1,234,567` (matches the bench report's formatting).
fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanSet;

    fn sample() -> PipelineTrace {
        let mut t = PipelineTrace::new("density").with_param("window", 100);
        let mut spans = SpanSet::new();
        for (stage, ns) in [
            (Stage::Discretize, 2_000_000),
            (Stage::Induce, 1_000_000),
            (Stage::RraOuter, 4_000_000),
        ] {
            let id = spans.span_id(None, stage);
            spans.record(id, ns, 1);
        }
        let outer = spans.span_id(None, Stage::RraOuter);
        let inner = spans.span_id(Some(outer), Stage::RraInner);
        spans.record(inner, 3_500_000, 10);
        t.spans = spans.snapshot();
        t.counters[Counter::WindowsProcessed.index()] = 1000;
        t.counters[Counter::WordsDropped.index()] = 400;
        t.counters[Counter::DistanceCalls.index()] = 5000;
        t.counters[Counter::EarlyAbandons.index()] = 1250;
        t.histograms[Metric::CandidateLen.index()].record(100);
        t.histograms[Metric::CandidateLen.index()].record(250);
        t
    }

    #[test]
    fn totals_are_derived_from_spans() {
        let t = sample();
        assert_eq!(t.total_nanos(), 7_000_000);
        assert_eq!(t.stage_nanos(Stage::RraInner), 3_500_000);
        assert_eq!(t.stage_nanos(Stage::Density), 0);
        assert_eq!(PipelineTrace::new("empty").total_nanos(), 0);
    }

    #[test]
    fn derived_ratios() {
        let t = sample();
        assert!((t.nr_drop_ratio() - 0.4).abs() < 1e-12);
        assert!((t.early_abandon_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(PipelineTrace::new("empty").nr_drop_ratio(), 0.0);
    }

    #[test]
    fn jsonl_contains_all_keys_once() {
        let json = sample().to_jsonl();
        for stage in Stage::ALL {
            assert_eq!(
                json.matches(&format!("\"{}\":", stage.name())).count(),
                1,
                "{}",
                stage.name()
            );
        }
        for counter in Counter::ALL {
            assert_eq!(
                json.matches(&format!("\"{}\":", counter.name())).count(),
                1,
                "{}",
                counter.name()
            );
        }
        for metric in Metric::ALL {
            assert_eq!(
                json.matches(&format!("\"{}\":", metric.name())).count(),
                1,
                "{}",
                metric.name()
            );
        }
        assert!(json.starts_with("{\"schema\":4,"));
        assert!(json.ends_with('}'));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"spans\":[{\"path\":\"discretize\","));
        assert!(json.contains("\"rra-inner\":3500000"));
        assert!(json.contains("\"window\":100"));
        assert!(json.contains("\"total_ns\":7000000"));
        assert!(json.contains("\"nr_drop_ratio\":0.4"));
        assert!(json.contains("\"candidate_len\":{\"count\":2,"));
        // Empty histograms still serialize with every summary key present.
        assert!(json.contains("\"distance_ns\":{\"count\":0,"));
    }

    #[test]
    fn label_is_escaped() {
        let t = PipelineTrace::new("a\"b\\c\nd");
        let json = t.to_jsonl();
        assert!(json.contains("\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn table_mentions_every_span_and_counter() {
        let table = sample().render_table();
        for span in sample().spans.spans() {
            assert!(table.contains(span.stage.name()), "{}", span.path);
        }
        // Only recorded spans are listed.
        assert!(!table.contains("detect"));
        assert!(!table.contains("intern"));
        for counter in Counter::ALL {
            assert!(table.contains(counter.name()), "{}", counter.name());
        }
        assert!(table.contains("window=100"));
        assert!(table.contains("total"));
        assert!(table.contains("7.00 ms"));
        assert!(table.contains("5,000"));
        // Only occupied histograms are listed.
        assert!(table.contains("histograms"));
        assert!(table.contains("candidate_len"));
        assert!(!table.contains("abandon_pos"));
    }

    #[test]
    fn json_floats_are_valid_tokens() {
        assert_eq!(format_json_f64(0.25), "0.25");
        assert_eq!(format_json_f64(3.0), "3.0");
        assert_eq!(format_json_f64(1e-9), "0.000000001");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_finite_floats_coerce_to_zero() {
        assert_eq!(format_json_f64(f64::NAN), "0.0");
        assert_eq!(format_json_f64(f64::INFINITY), "0.0");
        assert_eq!(format_json_f64(f64::NEG_INFINITY), "0.0");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_assert_in_debug() {
        let _ = format_json_f64(f64::NAN);
    }

    #[test]
    fn append_jsonl_appends_lines() {
        let dir = std::env::temp_dir().join("gv_obs_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        sample().append_jsonl(&path).unwrap();
        sample().append_jsonl(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn humanized_durations() {
        assert_eq!(format_nanos(999), "999 ns");
        assert_eq!(format_nanos(1_500), "1.50 us");
        assert_eq!(format_nanos(2_250_000), "2.25 ms");
        assert_eq!(format_nanos(3_000_000_000), "3.00 s");
        assert_eq!(group_thousands(1_234_567), "1,234,567");
        assert_eq!(group_thousands(42), "42");
    }
}
