//! Validates observability JSONL exports against the current schema
//! version (`gv_obs::SCHEMA_VERSION`).
//!
//! Every line must parse as a JSON object carrying the current schema
//! number, and each record shape (trace, event, explain row, explain
//! summary, monitor window, health verdict, ledger) must carry its
//! required keys, and a trace's or window's `counters` object exactly the
//! counter keys its record type writes. Trace records must also reconcile
//! with their own span tree: each `stages_ns` entry equals the summed `total_ns` of the spans
//! of that stage, `derived.total_ns` equals the summed root spans, and
//! (sequential runs only) no span's children outlast it. An explain
//! summary's `events_recorded` must equal the events its counters imply,
//! and an explain row's `visits` must be its `rank + 1` (the discord found
//! at rank r was visited once at each rank 0..=r). A trace's counters
//! must nest: `resampled_calls` are some of its `distance_calls`, and
//! `candidates_reused` some of its `rra_candidates` visits.
//! CI runs this over the CLI's `--metrics`, `--events`, `gv monitor` and
//! ledger output so a schema drift fails the build instead of silently
//! producing unparseable metrics.
//!
//! ```text
//! cargo run -p gv-bench --release --bin validate_jsonl -- FILE...
//! ```
//!
//! Exits non-zero on the first malformed file; prints a per-file line
//! count on success.

use serde::Value;

/// The record shapes the pipeline exports, keyed by how they self-identify.
/// Typed records (`"type":...`) are classified first; only untyped records
/// carrying a `label` are treated as `PipelineTrace` exports — ledger
/// records also carry a `label`, but self-identify via their type.
fn required_keys(record: &Value) -> Result<&'static [&'static str], String> {
    let kind = match record.field("type") {
        Ok(Value::Str(s)) => s.as_str(),
        Ok(_) => return Err("\"type\" is not a string".to_string()),
        Err(_) if record.field("label").is_ok() => {
            // A `PipelineTrace` (CLI `--metrics`, stream snapshots).
            return Ok(&[
                "schema",
                "label",
                "params",
                "stages_ns",
                "spans",
                "counters",
                "histograms",
                "derived",
            ]);
        }
        Err(_) => return Err("record has neither \"label\" nor a string \"type\"".to_string()),
    };
    match kind {
        "event" => Ok(&[
            "schema",
            "kind",
            "position",
            "length",
            "rule",
            "frequency",
            "calls",
            "value",
        ]),
        "explain" => Ok(&[
            "schema",
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
        ]),
        "explain_summary" => Ok(&[
            "schema",
            "discords",
            "candidates",
            "distance_calls",
            "early_abandoned",
            "candidates_pruned",
            "candidates_completed",
            "events_recorded",
            "events_dropped",
            "distance_ns",
            "abandon_pos",
        ]),
        // Live-monitoring records (`gv monitor`, run ledger).
        "window" => Ok(&[
            "schema", "seq", "start", "end", "points", "wall_ns", "counters", "discords", "derived",
        ]),
        "health" => Ok(&["schema", "seq", "verdict", "rules"]),
        "ledger" => Ok(&[
            "schema",
            "label",
            "git_sha",
            "config_fp",
            "input_digest",
            "points",
            "wall_ns",
            "k",
            "result_digest",
        ]),
        other => Err(format!("unknown record type {other:?}")),
    }
}

fn validate_line(line: &str) -> Result<(), String> {
    let record: Value = serde_json::from_str(line).map_err(|e| format!("parse error: {e}"))?;
    let want = gv_obs::SCHEMA_VERSION;
    match record.field("schema") {
        Ok(Value::U64(v)) if *v == want => {}
        Ok(v) => return Err(format!("\"schema\" is {v:?}, expected {want}")),
        Err(e) => return Err(e.to_string()),
    }
    for key in required_keys(&record)? {
        record
            .field(key)
            .map_err(|_| format!("missing required key {key:?}"))?;
    }
    match record.field("type") {
        Err(_) => {
            let all: Vec<&str> = gv_obs::Counter::ALL.iter().map(|c| c.name()).collect();
            check_counter_keys(&record, &all)?;
            check_counter_nesting(&record)?;
            reconcile_trace(&record)?;
        }
        Ok(Value::Str(kind)) if kind == "explain" => check_explain_visits(&record)?,
        Ok(Value::Str(kind)) if kind == "explain_summary" => reconcile_explain_summary(&record)?,
        Ok(Value::Str(kind)) if kind == "window" => check_counter_keys(&record, &WINDOW_COUNTERS)?,
        Ok(_) => {}
    }
    Ok(())
}

/// The counters a schema-7 `window` record writes: the ones a stream
/// snapshot moves. A stream runs no discord search, so the search
/// counters and `windows_fallback` are absent.
const WINDOW_COUNTERS: [&str; 6] = [
    "windows_processed",
    "words_emitted",
    "words_dropped",
    "rules_created",
    "rules_deleted",
    "peak_digram_entries",
];

/// Checks that a record's `counters` object has exactly the `want` keys,
/// in order.
fn check_counter_keys(record: &Value, want: &[&str]) -> Result<(), String> {
    let got: Vec<&str> = entries(field(record, "counters")?, "\"counters\"")?
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    if got != want {
        return Err(format!("\"counters\" has keys {got:?}, expected {want:?}"));
    }
    Ok(())
}

/// Checks that each subset counter of a trace stays within its whole:
/// resampled calls are distance calls, and a reused visit is a visit.
fn check_counter_nesting(record: &Value) -> Result<(), String> {
    let counters = field(record, "counters")?;
    let count = |key: &str| as_u64(field(counters, key)?, key);
    for (part, whole) in [
        ("resampled_calls", "distance_calls"),
        ("candidates_reused", "rra_candidates"),
    ] {
        let (p, w) = (count(part)?, count(whole)?);
        if p > w {
            return Err(format!("{part} is {p} but {whole} is only {w}"));
        }
    }
    Ok(())
}

/// Checks an explain summary's event count against its counters: one
/// `visited` and one outcome event per outer-loop visit (a visit settled
/// from the memo too), one `abandoned` event per early abandon. The count includes events a full ring
/// dropped, so the identity holds for any run size.
fn reconcile_explain_summary(record: &Value) -> Result<(), String> {
    let count = |key: &str| as_u64(field(record, key)?, key);
    let recorded = count("events_recorded")?;
    let scanned = count("candidates_pruned")? + count("candidates_completed")?;
    let implied = count("early_abandoned")? + 2 * scanned;
    if recorded != implied {
        return Err(format!(
            "events_recorded is {recorded} but its counters imply {implied}"
        ));
    }
    Ok(())
}

/// Checks an explain row's visits against its rank: a candidate only
/// loses eligibility as discords are found, and every eligible candidate
/// is visited once per rank, so the rank-`r` discord was visited `r + 1`
/// times, however many events the ring kept.
fn check_explain_visits(record: &Value) -> Result<(), String> {
    let rank = as_u64(field(record, "rank")?, "rank")?;
    let visits = as_u64(field(record, "visits")?, "visits")?;
    if visits.checked_sub(1) != Some(rank) {
        return Err(format!("explain visits {visits} != rank {rank} + 1"));
    }
    Ok(())
}

fn as_u64(value: &Value, what: &str) -> Result<u64, String> {
    match value {
        Value::U64(v) => Ok(*v),
        other => Err(format!("{what} is {other:?}, expected an unsigned integer")),
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.field(key).map_err(|e| e.to_string())
}

fn entries<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match value {
        Value::Object(entries) => Ok(entries),
        other => Err(format!("{what} is {other:?}, expected an object")),
    }
}

/// Checks a trace record's timings against its span tree — the one timing
/// source every other number is derived from.
fn reconcile_trace(record: &Value) -> Result<(), String> {
    let mut spans: Vec<(&str, u64)> = Vec::new();
    for span in field(record, "spans")?
        .as_array()
        .map_err(|e| e.to_string())?
    {
        let Value::Str(path) = field(span, "path")? else {
            return Err("span \"path\" is not a string".to_string());
        };
        spans.push((path, as_u64(field(span, "total_ns")?, "span total_ns")?));
    }
    // (a) Every per-stage total is the sum over that stage's spans.
    for (stage, value) in entries(field(record, "stages_ns")?, "\"stages_ns\"")? {
        let recorded = as_u64(value, stage)?;
        let from_spans: u64 = spans
            .iter()
            .filter(|(path, _)| path.rsplit(';').next() == Some(stage.as_str()))
            .map(|(_, ns)| ns)
            .sum();
        if recorded != from_spans {
            return Err(format!(
                "stages_ns.{stage} is {recorded} but its spans sum to {from_spans}"
            ));
        }
    }
    // (b) The derived total is the sum over root spans.
    let total = as_u64(
        field(field(record, "derived")?, "total_ns")?,
        "derived.total_ns",
    )?;
    let roots: u64 = spans
        .iter()
        .filter(|(path, _)| !path.contains(';'))
        .map(|(_, ns)| ns)
        .sum();
    if total != roots {
        return Err(format!(
            "derived.total_ns is {total} but the root spans sum to {roots}"
        ));
    }
    // (c) Children fit inside their parent. Parallel workers' time is
    // summed across threads, so only sequential runs are held to it.
    let threads = match field(record, "params")?.field("threads") {
        Ok(v) => as_u64(v, "params.threads")?,
        Err(_) => 1,
    };
    if threads <= 1 {
        for (parent, parent_ns) in &spans {
            let children: u64 = spans
                .iter()
                .filter(|(path, _)| {
                    path.strip_prefix(parent)
                        .and_then(|rest| rest.strip_prefix(';'))
                        .is_some_and(|rest| !rest.contains(';'))
                })
                .map(|(_, ns)| ns)
                .sum();
            if children > *parent_ns {
                return Err(format!(
                    "span {parent:?} totals {parent_ns} ns but its children sum to {children}"
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: validate_jsonl FILE...");
        std::process::exit(2);
    }
    for path in &files {
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        };
        let mut n = 0;
        for (i, line) in body.lines().enumerate() {
            if let Err(e) = validate_line(line) {
                eprintln!("{path}:{}: {e}\n  {line}", i + 1);
                std::process::exit(1);
            }
            n += 1;
        }
        if n == 0 {
            eprintln!("{path}: empty file");
            std::process::exit(1);
        }
        println!(
            "{path}: {n} valid schema-{} record(s)",
            gv_obs::SCHEMA_VERSION
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_real_records() {
        use gva_core::obs::{Event, EventKind, LocalRecorder, NoopRecorder, PipelineTrace};
        let trace = PipelineTrace::new("t").with_param("points", 10);
        validate_line(&trace.to_jsonl()).unwrap();
        let values: Vec<f64> = (0..600).map(|i| (i as f64 / 9.0).sin()).collect();
        let config = gva_core::PipelineConfig::new(40, 4, 4).unwrap();
        // Sequential, like a trace without a `threads` param claims to be:
        // check (c) holds its children to the parent's wall time, which a
        // `GV_THREADS` engine's summed worker time may exceed.
        let pipeline = gva_core::AnomalyPipeline::new(config)
            .with_engine(gva_core::EngineConfig::sequential());
        let rec = LocalRecorder::new();
        pipeline.rra_discords(&values, 1, &rec).unwrap();
        validate_line(&rec.snapshot("rra").to_jsonl()).unwrap();
        let explain = pipeline.explain(&values, 2, &NoopRecorder).unwrap();
        validate_line(&explain.summary_jsonl()).unwrap();
        for row in &explain.rows {
            validate_line(&row.to_jsonl()).unwrap();
        }
        let event = Event::new(EventKind::Visited);
        validate_line(&event.to_jsonl()).unwrap();
    }

    #[test]
    fn accepts_monitoring_records() {
        use gva_core::obs::{
            HealthEngine, HealthRule, LedgerRecord, PipelineTrace, WindowedAggregator,
        };
        let window = WindowedAggregator::new().observe(&PipelineTrace::new("stream"), 100, 0, 0);
        validate_line(&window.to_jsonl()).unwrap();
        let mut engine = HealthEngine::new(vec![HealthRule::MaxDiscordRate(0.1)]);
        let (report, _) = engine.evaluate(&window);
        validate_line(&report.to_jsonl()).unwrap();
        let ledger = LedgerRecord {
            label: "monitor".to_string(),
            git_sha: "deadbee".to_string(),
            config_fp: 1,
            input_digest: 2,
            points: 100,
            wall_ns: 0,
            k: 0,
            result_digest: 3,
        };
        validate_line(&ledger.to_jsonl()).unwrap();
    }

    /// Every counter key at 0, as a trace writes them.
    fn zero_counters() -> String {
        let keys: Vec<String> = gv_obs::Counter::ALL
            .iter()
            .map(|c| format!("\"{}\":0", c.name()))
            .collect();
        keys.join(",")
    }

    /// A trace line with the given params, stage totals, spans, and root
    /// total (counter values and histograms are irrelevant to
    /// reconciliation).
    fn trace_line(params: &str, stages: &str, spans: &[(&str, u64)], total: u64) -> String {
        let spans: Vec<String> = spans
            .iter()
            .map(|(path, ns)| {
                format!("{{\"path\":\"{path}\",\"total_ns\":{ns},\"self_ns\":0,\"count\":1}}")
            })
            .collect();
        format!(
            "{{\"schema\":{},\"label\":\"x\",\"params\":{{{params}}},\"stages_ns\":{{{stages}}},\
             \"counters\":{{{}}},\"histograms\":{{}},\"spans\":[{}],\"derived\":{{\"total_ns\":{total}}}}}",
            gv_obs::SCHEMA_VERSION,
            zero_counters(),
            spans.join(",")
        )
    }

    #[test]
    fn rejects_counter_keys_of_another_schema() {
        let line = trace_line("", "\"detect\":100,\"density\":40", SPANS, 100);
        validate_line(&line).unwrap();
        // A schema-4 counter set: `density_recounts`, no `windows_fallback`.
        let old = line.replace("\"windows_fallback\":0,", "").replace(
            "\"candidates_reused\":0",
            "\"candidates_reused\":0,\"density_recounts\":0",
        );
        let err = validate_line(&old).unwrap_err();
        assert!(err.contains("density_recounts"), "{err}");
        // A schema-6 counter set: the three grammar-eviction counters.
        let evicting = line.replace(
            "\"candidates_reused\":0",
            "\"candidates_reused\":0,\"tokens_evicted\":0,\"rules_evicted\":0,\"rules_relearned\":0",
        );
        let err = validate_line(&evicting).unwrap_err();
        assert!(err.contains("tokens_evicted"), "{err}");
        // A window record that writes a search counter no stream moves.
        let mut agg = gv_obs::WindowedAggregator::new();
        let window = agg
            .observe(&gv_obs::PipelineTrace::new("stream"), 100, 0, 0)
            .to_jsonl();
        validate_line(&window).unwrap();
        let forged = window.replace(
            "\"peak_digram_entries\":0",
            "\"peak_digram_entries\":0,\"distance_calls\":0",
        );
        assert!(validate_line(&forged)
            .unwrap_err()
            .contains("distance_calls"));
    }

    const SPANS: &[(&str, u64)] = &[("detect", 100), ("detect;density", 40)];

    /// `trace_line` with `part` and `whole` set to the given counts.
    fn counted_trace(part: &str, p: u64, whole: &str, w: u64) -> String {
        trace_line("", "\"detect\":100,\"density\":40", SPANS, 100)
            .replace(&format!("\"{part}\":0"), &format!("\"{part}\":{p}"))
            .replace(&format!("\"{whole}\":0"), &format!("\"{whole}\":{w}"))
    }

    #[test]
    fn rejects_more_resampled_calls_than_distance_calls() {
        validate_line(&counted_trace("resampled_calls", 7, "distance_calls", 7)).unwrap();
        let err =
            validate_line(&counted_trace("resampled_calls", 8, "distance_calls", 7)).unwrap_err();
        assert!(
            err.contains("resampled_calls is 8 but distance_calls is only 7"),
            "{err}"
        );
    }

    #[test]
    fn rejects_more_reused_visits_than_visits() {
        validate_line(&counted_trace("candidates_reused", 3, "rra_candidates", 5)).unwrap();
        let err =
            validate_line(&counted_trace("candidates_reused", 6, "rra_candidates", 5)).unwrap_err();
        assert!(
            err.contains("candidates_reused is 6 but rra_candidates is only 5"),
            "{err}"
        );
    }

    #[test]
    fn rejects_stage_total_that_disagrees_with_spans() {
        let line = trace_line("", "\"detect\":100,\"density\":41", SPANS, 100);
        let err = validate_line(&line).unwrap_err();
        assert!(err.contains("stages_ns.density is 41"), "{err}");
    }

    #[test]
    fn rejects_total_that_disagrees_with_root_spans() {
        let line = trace_line("", "\"detect\":100,\"density\":40", SPANS, 99);
        let err = validate_line(&line).unwrap_err();
        assert!(err.contains("root spans sum to 100"), "{err}");
    }

    #[test]
    fn rejects_children_outlasting_parent_in_sequential_runs() {
        let spans = [("detect", 100), ("detect;density", 140)];
        let stages = "\"detect\":100,\"density\":140";
        let err = validate_line(&trace_line("", stages, &spans, 100)).unwrap_err();
        assert!(err.contains("children sum to 140"), "{err}");
        let err = validate_line(&trace_line("\"threads\":1", stages, &spans, 100)).unwrap_err();
        assert!(err.contains("children sum to 140"), "{err}");
        // Parallel workers' time sums across threads: not a violation.
        validate_line(&trace_line("\"threads\":4", stages, &spans, 100)).unwrap();
    }

    #[test]
    fn rejects_explain_rows_whose_visits_are_not_rank_plus_one() {
        // Visits read off the surviving events of an overflowed ring.
        let row = |visits: u64| {
            format!(
                "{{\"schema\":{},\"type\":\"explain\",\"rank\":2,\"position\":10,\"length\":5,\
                 \"distance\":0.5,\"rule\":null,\"word\":null,\"frequency\":0,\"siblings\":0,\
                 \"visits\":{visits},\"calls\":7,\"min_density\":1}}",
                gv_obs::SCHEMA_VERSION
            )
        };
        validate_line(&row(3)).unwrap();
        let err = validate_line(&row(1)).unwrap_err();
        assert!(err.contains("explain visits 1 != rank 2 + 1"), "{err}");
        assert!(validate_line(&row(0)).is_err());
    }

    #[test]
    fn rejects_bad_records() {
        let v = gv_obs::SCHEMA_VERSION;
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{\"schema\":1,\"label\":\"x\"}").is_err());
        assert!(validate_line("{\"label\":\"x\"}").is_err());
        assert!(validate_line(&format!("{{\"schema\":{v},\"type\":\"mystery\"}}")).is_err());
        // An explain summary whose event count (7 + 2 x 6 = 19 implied)
        // disagrees with its counters.
        let err = validate_line(&format!(
            "{{\"schema\":{v},\"type\":\"explain_summary\",\"discords\":1,\"candidates\":9,\
             \"distance_calls\":20,\"early_abandoned\":7,\"candidates_pruned\":4,\
             \"candidates_completed\":2,\"events_recorded\":18,\"events_dropped\":0,\
             \"distance_ns\":{{}},\"abandon_pos\":{{}}}}"
        ))
        .unwrap_err();
        assert!(err.contains("events_recorded is 18"), "{err}");
        // A trace missing its histograms object.
        assert!(validate_line(&format!(
            "{{\"schema\":{v},\"label\":\"x\",\"params\":{{}},\"stages_ns\":{{}},\"spans\":[],\"counters\":{{}},\"derived\":{{}}}}"
        ))
        .is_err());
    }
}
