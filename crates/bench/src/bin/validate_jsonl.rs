//! Validates observability JSONL exports against the current schema
//! version (`gv_obs::SCHEMA_VERSION`).
//!
//! Every line must parse as a JSON object carrying the current schema
//! number, and each record shape (trace, event, explain row, explain
//! summary, monitor window, health verdict, ledger) must carry its
//! required keys. Trace records must also reconcile with their own span
//! tree: each `stages_ns` entry equals the summed `total_ns` of the spans
//! of that stage, `derived.total_ns` equals the summed root spans, and
//! (sequential runs only) no span's children outlast it. CI runs this
//! over the CLI's `--metrics`, `--events`, `gv monitor` and ledger output
//! so a schema drift fails the build instead of silently producing
//! unparseable metrics.
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
            "events_recorded",
            "events_dropped",
            "distance_ns",
            "abandon_pos",
        ]),
        // Schema-4 live-monitoring records (`gv monitor`, run ledger).
        "window" => Ok(&[
            "schema",
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
    if record.field("type").is_err() {
        reconcile_trace(&record)?;
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
        use gva_core::obs::{Event, EventKind, LocalRecorder, PipelineTrace};
        let trace = PipelineTrace::new("t").with_param("points", 10);
        validate_line(&trace.to_jsonl()).unwrap();
        let values: Vec<f64> = (0..600).map(|i| (i as f64 / 9.0).sin()).collect();
        let config = gva_core::PipelineConfig::new(40, 4, 4).unwrap();
        let rec = LocalRecorder::new();
        gva_core::AnomalyPipeline::new(config)
            .rra_discords(&values, 1, &rec)
            .unwrap();
        validate_line(&rec.snapshot("rra").to_jsonl()).unwrap();
        let event = Event::new(EventKind::Visited);
        validate_line(&event.to_jsonl()).unwrap();
    }

    #[test]
    fn accepts_monitoring_records() {
        use gva_core::obs::{
            HealthEngine, HealthRule, LedgerRecord, PipelineTrace, WindowedAggregator,
        };
        let mut agg = WindowedAggregator::new();
        let window = agg
            .observe(&PipelineTrace::new("stream"), 100, 0, 0)
            .clone();
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

    /// A trace line with the given params, stage totals, spans, and root
    /// total (counters and histograms are irrelevant to reconciliation).
    fn trace_line(params: &str, stages: &str, spans: &[(&str, u64)], total: u64) -> String {
        let spans: Vec<String> = spans
            .iter()
            .map(|(path, ns)| {
                format!("{{\"path\":\"{path}\",\"total_ns\":{ns},\"self_ns\":0,\"count\":1}}")
            })
            .collect();
        format!(
            "{{\"schema\":{},\"label\":\"x\",\"params\":{{{params}}},\"stages_ns\":{{{stages}}},\
             \"counters\":{{}},\"histograms\":{{}},\"spans\":[{}],\"derived\":{{\"total_ns\":{total}}}}}",
            gv_obs::SCHEMA_VERSION,
            spans.join(",")
        )
    }

    const SPANS: &[(&str, u64)] = &[("detect", 100), ("detect;density", 40)];

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
    fn rejects_bad_records() {
        let v = gv_obs::SCHEMA_VERSION;
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{\"schema\":1,\"label\":\"x\"}").is_err());
        assert!(validate_line("{\"label\":\"x\"}").is_err());
        assert!(validate_line(&format!("{{\"schema\":{v},\"type\":\"mystery\"}}")).is_err());
        // A trace missing its histograms object.
        assert!(validate_line(&format!(
            "{{\"schema\":{v},\"label\":\"x\",\"params\":{{}},\"stages_ns\":{{}},\"spans\":[],\"counters\":{{}},\"derived\":{{}}}}"
        ))
        .is_err());
    }
}
