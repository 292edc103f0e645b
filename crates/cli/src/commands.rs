//! Subcommand implementations.

use gv_discord::HotSaxConfig;
use gv_timeseries::{read_csv_column, Interval, TimeSeries};
use gva_core::obs::{LocalRecorder, NoopRecorder, PipelineTrace, Recorder};
use gva_core::{
    viz, AnomalyPipeline, Detector, EngineConfig, HotSaxDetector, PipelineConfig, SeriesView,
    Workspace,
};

use crate::args::Args;

const USAGE: &str = "\
usage: gv <command> [options]

commands:
  density   rule-density anomaly discovery (approximate, linear time)
  rra       Rare Rule Anomaly exact variable-length discord discovery
  explain   RRA plus per-discord provenance (rule, frequency, cost, density)
  hotsax    fixed-length HOTSAX discord discovery (baseline)
  wcad      compression-dissimilarity baseline (Keogh et al. 2004)
  motifs    variable-length recurrent pattern discovery
  grammar   print the induced grammar's rules
  dot       write the grammar hierarchy as GraphViz DOT (--out FILE)
  export    write the series and its rule-density curve as CSV
  stream    replay a file through the online detector (early detection)
  monitor   drive the online detector emitting per-interval `window` JSONL
            aggregates and SLO `health` verdicts (--interval N points,
            --rules FILE loads `key = value` SLO thresholds, --out PATH
            appends JSONL instead of stdout, --fail-on-breach exits
            non-zero on a breached verdict, --timing adds wall-clock
            fields at the cost of run-to-run determinism, --file - reads
            stdin)
  check     verify the paper invariants on a series (PASS/FAIL report),
            or scan a run ledger for result drift (--ledger PATH)
  demo      run density + RRA on a built-in synthetic dataset

common options:
  --file PATH        single-column CSV input (for density/rra/hotsax/grammar)
  --column N         CSV column to read (default 0)
  --window W         sliding window length (omit: dominant-period suggestion)
  --paa P            PAA word size (default 4)
  --alphabet A       alphabet size (default 4)
  --top K            how many anomalies/discords to report (default 3)
  --width N          plot width in characters (default 100)
  --trace            print the span timing/counter table to stderr
                     (density/rra/explain/demo)
  --metrics PATH     append the run's trace as one JSONL record to PATH
  --events PATH      append per-decision search events as JSONL to PATH
                     (rra/explain)
  --metrics-every N  stream: append a metrics snapshot to --metrics every
                     N points (a time-resolved trajectory, not one record)
  --horizon N        stream/monitor: retain only the last N points — the
                     online detector evicts older tokens from its grammar
                     and runs in bounded memory (0 or omitted: unbounded)
  --threads N        RRA search worker threads (rra/explain/demo; default
                     from GV_THREADS, else 1) — ranked discords are
                     bit-identical for any thread count
  --dataset NAME     demo dataset: ecg0606 | power | video | tek14 | tek16 |
                     tek17 | nprs43 | nprs44 | commute
  --ledger PATH      append one run-provenance record (config fingerprint,
                     input digest, git SHA, result digest) to an
                     append-only JSONL ledger (density/rra/monitor);
                     `gv check --ledger PATH` scans it for result drift

unknown options are rejected per subcommand, with a nearest-flag hint";

/// Per-subcommand option allowlists — `Args::validate` rejects anything
/// else with a nearest-flag suggestion. `None` for unknown commands (the
/// dispatcher reports those itself).
fn allowed_options(command: &str) -> Option<&'static [&'static str]> {
    // "file", "column", "window", "paa", "alphabet" are the shared
    // pipeline options; each arm appends its own.
    match command {
        "density" => Some(&[
            "file", "column", "window", "paa", "alphabet", "top", "width", "trace", "metrics",
            "ledger",
        ]),
        "rra" => Some(&[
            "file", "column", "window", "paa", "alphabet", "top", "width", "trace", "metrics",
            "events", "threads", "ledger",
        ]),
        "explain" => Some(&[
            "file", "column", "window", "paa", "alphabet", "top", "trace", "metrics", "events",
            "threads",
        ]),
        "hotsax" | "motifs" => Some(&["file", "column", "window", "paa", "alphabet", "top"]),
        "wcad" => Some(&["file", "column", "window", "top"]),
        "grammar" => Some(&["file", "column", "window", "paa", "alphabet", "limit"]),
        "dot" => Some(&["file", "column", "window", "paa", "alphabet", "out"]),
        "export" => Some(&["file", "column", "window", "paa", "alphabet", "top", "out"]),
        "stream" => Some(&[
            "file",
            "column",
            "window",
            "paa",
            "alphabet",
            "threshold",
            "maturity",
            "check-every",
            "metrics-every",
            "metrics",
            "horizon",
        ]),
        "monitor" => Some(&[
            "file",
            "column",
            "window",
            "paa",
            "alphabet",
            "threshold",
            "maturity",
            "interval",
            "rules",
            "out",
            "ledger",
            "label",
            "fail-on-breach",
            "timing",
            "horizon",
        ]),
        "check" => Some(&[
            "file", "column", "window", "paa", "alphabet", "top", "threads", "ledger",
        ]),
        "demo" => Some(&["dataset", "top", "width", "trace", "metrics", "threads"]),
        "help" => Some(&[]),
        _ => None,
    }
}

/// Entry point shared with `main`.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv)?;
    if let Some(allowed) = args.command.as_deref().and_then(allowed_options) {
        args.validate(args.command.as_deref().unwrap_or(""), allowed)?;
    }
    match args.command.as_deref() {
        Some("density") => density(&args),
        Some("rra") => rra(&args),
        Some("explain") => explain(&args),
        Some("hotsax") => hotsax(&args),
        Some("wcad") => wcad(&args),
        Some("motifs") => motifs_cmd(&args),
        Some("grammar") => grammar(&args),
        Some("dot") => dot(&args),
        Some("export") => export(&args),
        Some("stream") => stream(&args),
        Some("monitor") => monitor(&args),
        Some("check") => check(&args),
        Some("demo") => demo(&args),
        Some("help") | None => {
            outln!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// All diagnostic chatter goes through here so it lands on stderr with one
/// consistent `gv:` prefix (stdout stays parseable output only).
fn warn(message: impl std::fmt::Display) {
    eprintln!("gv: {message}");
}

/// An instrumentation sink when `--trace`, `--metrics`, or `--events` was
/// given; `None` keeps the zero-overhead uninstrumented path.
fn recorder_for(args: &Args) -> Option<LocalRecorder> {
    (args.flag("trace") || args.get("metrics").is_some() || args.get("events").is_some())
        .then(LocalRecorder::new)
}

/// The sink a facade call records into: the [`recorder_for`] recorder, or
/// a [`NoopRecorder`] when none was asked for.
fn sink(recorder: &Option<LocalRecorder>) -> &dyn Recorder {
    match recorder {
        Some(rec) => rec,
        None => &NoopRecorder,
    }
}

/// Appends JSONL lines (one per element) to `path`, creating it if needed.
fn append_jsonl_lines(
    path: &str,
    lines: impl IntoIterator<Item = String>,
) -> Result<usize, String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("--events {path}: {e}"))?;
    let mut n = 0;
    for line in lines {
        writeln!(file, "{line}").map_err(|e| format!("--events {path}: {e}"))?;
        n += 1;
    }
    Ok(n)
}

/// Delivers a finished trace: table to stderr under `--trace`, one JSONL
/// record appended to the `--metrics` file.
fn emit_trace(args: &Args, trace: &PipelineTrace) -> Result<(), String> {
    if args.flag("trace") {
        eprint!("{}", trace.render_table());
    }
    if let Some(path) = args.get("metrics") {
        trace
            .append_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("--metrics {path}: {e}"))?;
    }
    Ok(())
}

/// Labels a snapshot with the standard pipeline parameters. Parallel runs
/// also record `threads`: their workers' `rra-inner` time is summed across
/// threads and may exceed `rra-outer`'s wall time, which `validate_jsonl`
/// only forgives when the record says so.
fn pipeline_trace(
    rec: &LocalRecorder,
    label: &str,
    p: &AnomalyPipeline,
    points: usize,
    k: usize,
) -> PipelineTrace {
    let trace = rec
        .snapshot(label)
        .with_param("points", points as u64)
        .with_param("window", p.config().window() as u64)
        .with_param("paa", p.config().paa() as u64)
        .with_param("alphabet", p.config().alphabet() as u64)
        .with_param("top", k as u64);
    match p.engine().threads() {
        1 => trace,
        threads => trace.with_param("threads", threads as u64),
    }
}

/// The ledger fingerprint parameters shared by the batch detectors.
fn pipeline_params(p: &AnomalyPipeline, k: usize) -> [u64; 4] {
    [
        p.config().window() as u64,
        p.config().paa() as u64,
        p.config().alphabet() as u64,
        k as u64,
    ]
}

fn load_series(args: &Args) -> Result<TimeSeries, String> {
    let path = args.required("file")?;
    let col = args.usize_or("column", 0)?;
    if path == "-" {
        let stdin = std::io::stdin();
        return gv_timeseries::read_csv_column_reader(stdin.lock(), col)
            .map(|s| TimeSeries::named("stdin", s.values().to_vec()))
            .map_err(|e| format!("stdin: {e}"));
    }
    read_csv_column(path, col).map_err(|e| e.to_string())
}

/// Appends one run-provenance record to the `--ledger` file: the config
/// fingerprint, a bit-exact input digest, the producing git SHA, and a
/// digest over the ranked results — the raw material `gv check --ledger`
/// scans for cross-run result drift.
fn append_run_ledger(
    path: &str,
    label: &str,
    params: &[u64],
    series: &TimeSeries,
    results: impl Iterator<Item = (Interval, f64)>,
    wall_ns: u64,
) -> Result<(), String> {
    use gva_core::obs::{digest_series, git_sha, Fingerprint, LedgerRecord};
    let mut config_fp = Fingerprint::new();
    config_fp.write_str(label);
    for &p in params {
        config_fp.write_u64(p);
    }
    let mut result_fp = Fingerprint::new();
    let mut k = 0u64;
    for (interval, score) in results {
        result_fp
            .write_u64(interval.start as u64)
            .write_u64(interval.len() as u64)
            .write_f64(score);
        k += 1;
    }
    result_fp.write_u64(k);
    let record = LedgerRecord {
        label: label.to_string(),
        git_sha: git_sha(),
        config_fp: config_fp.finish(),
        input_digest: digest_series(series.values()),
        points: series.len() as u64,
        wall_ns,
        k,
        result_digest: result_fp.finish(),
    };
    record
        .append(std::path::Path::new(path))
        .map_err(|e| format!("--ledger {path}: {e}"))?;
    warn(format_args!("appended ledger record ({label}) to {path}"));
    Ok(())
}

/// `--window` if given; otherwise the autocorrelation-based suggestion
/// (the paper's "context-driven" parameter choice, automated).
fn window_for(args: &Args, series: &TimeSeries) -> Result<usize, String> {
    match args.get("window") {
        Some(w) => w
            .parse()
            .map_err(|_| "--window expects an integer".to_string()),
        None => {
            let w = gv_timeseries::suggest_window(series.values());
            warn(format_args!(
                "no --window given; using dominant-period suggestion {w}"
            ));
            Ok(w)
        }
    }
}

/// `--threads` if given; otherwise the environment default (`GV_THREADS`,
/// else sequential).
fn engine_for(args: &Args) -> Result<EngineConfig, String> {
    match args.get("threads") {
        None => Ok(EngineConfig::default()),
        Some(raw) => {
            let threads: usize = raw
                .parse()
                .map_err(|_| "--threads expects an integer".to_string())?;
            if threads == 0 {
                return Err("--threads must be at least 1".to_string());
            }
            Ok(EngineConfig::sequential().with_threads(threads))
        }
    }
}

fn pipeline_for(args: &Args, series: &TimeSeries) -> Result<AnomalyPipeline, String> {
    let window = window_for(args, series)?;
    let paa = args.usize_or("paa", 4)?;
    let alphabet = args.usize_or("alphabet", 4)?;
    let config = PipelineConfig::new(window, paa, alphabet).map_err(|e| e.to_string())?;
    Ok(AnomalyPipeline::new(config).with_engine(engine_for(args)?))
}

fn density(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let k = args.usize_or("top", 3)?;
    let width = args.usize_or("width", 100)?;
    let recorder = recorder_for(args);
    let watch = args
        .get("ledger")
        .map(|_| gva_core::obs::Stopwatch::start());
    let report = p
        .density_anomalies(series.values(), k, sink(&recorder))
        .map_err(|e| e.to_string())?;
    if let Some(rec) = &recorder {
        emit_trace(args, &pipeline_trace(rec, "density", &p, series.len(), k))?;
    }
    if let Some(path) = args.get("ledger") {
        append_run_ledger(
            path,
            "density",
            &pipeline_params(&p, k),
            &series,
            report
                .anomalies
                .iter()
                .map(|a| (a.interval, a.min_density as f64)),
            watch.map(|w| w.elapsed_ns()).unwrap_or(0),
        )?;
    }
    outln!("series: {} ({} points)", series.name(), series.len());
    outln!("signal : {}", viz::sparkline(series.values(), width));
    outln!("density: {}", viz::density_strip(&report.curve, width));
    let intervals: Vec<Interval> = report.anomalies.iter().map(|a| a.interval).collect();
    outln!(
        "anomaly: {}",
        viz::marker_row(series.len(), &intervals, width)
    );
    outln!();
    out!("{}", viz::density_table(&report));
    Ok(())
}

fn rra(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let k = args.usize_or("top", 3)?;
    let width = args.usize_or("width", 100)?;
    let recorder = recorder_for(args);
    let watch = args
        .get("ledger")
        .map(|_| gva_core::obs::Stopwatch::start());
    let report = p
        .rra_discords(series.values(), k, sink(&recorder))
        .map_err(|e| e.to_string())?;
    if let Some(path) = args.get("ledger") {
        append_run_ledger(
            path,
            "rra",
            &pipeline_params(&p, k),
            &series,
            report.discords.iter().map(|d| (d.interval(), d.distance)),
            watch.map(|w| w.elapsed_ns()).unwrap_or(0),
        )?;
    }
    if let Some(rec) = &recorder {
        emit_trace(args, &pipeline_trace(rec, "rra", &p, series.len(), k))?;
        if let Some(path) = args.get("events") {
            let events = rec.events();
            let (recorded, dropped) = (events.recorded(), events.dropped());
            let n = append_jsonl_lines(path, events.iter().map(|e| e.to_jsonl()))?;
            warn(format_args!(
                "appended {n} event lines to {path} ({recorded} recorded, {dropped} dropped)"
            ));
        }
    }
    outln!("series: {} ({} points)", series.name(), series.len());
    outln!("signal : {}", viz::sparkline(series.values(), width));
    let intervals: Vec<Interval> = report.discords.iter().map(|d| d.interval()).collect();
    outln!(
        "discord: {}",
        viz::marker_row(series.len(), &intervals, width)
    );
    outln!();
    out!("{}", viz::rra_table(&report));
    outln!(
        "\n{} candidates, {} distance calls ({} abandoned early)",
        report.num_candidates,
        report.stats.distance_calls,
        report.stats.early_abandoned
    );
    Ok(())
}

fn explain(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let k = args.usize_or("top", 3)?;
    let recorder = recorder_for(args);
    let report = p
        .explain(series.values(), k, sink(&recorder))
        .map_err(|e| e.to_string())?;
    if let Some(rec) = &recorder {
        emit_trace(args, &pipeline_trace(rec, "explain", &p, series.len(), k))?;
    }
    if let Some(path) = args.get("events") {
        let lines = report
            .rows
            .iter()
            .map(|r| r.to_jsonl())
            .chain(report.events.iter().map(|e| e.to_jsonl()))
            .chain(std::iter::once(report.summary_jsonl()));
        let n = append_jsonl_lines(path, lines)?;
        warn(format_args!("appended {n} JSONL lines to {path}"));
    }
    outln!("series: {} ({} points)", series.name(), series.len());
    out!("{}", report.render_table());
    Ok(())
}

fn hotsax(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let window = args.required_usize("window")?;
    let paa = args.usize_or("paa", 3)?;
    let alphabet = args.usize_or("alphabet", 3)?;
    let k = args.usize_or("top", 3)?;
    let cfg = HotSaxConfig::new(window, paa, alphabet).map_err(|e| e.to_string())?;
    let detector = HotSaxDetector::new(cfg, k);
    let report = detector
        .detect(
            &SeriesView::new(series.values()),
            &mut Workspace::new(),
            &NoopRecorder,
        )
        .map_err(|e| e.to_string())?;
    outln!("series: {} ({} points)", series.name(), series.len());
    outln!("rank  position  length  nn-distance");
    for a in &report.anomalies {
        outln!(
            "{:<5} {:<9} {:<7} {:.5}",
            a.rank,
            a.interval.start,
            a.interval.len(),
            a.score
        );
    }
    outln!(
        "\n{} distance calls ({} abandoned early)",
        report.stats.distance_calls,
        report.stats.early_abandoned
    );
    Ok(())
}

fn wcad(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let window = args.required_usize("window")?;
    let k = args.usize_or("top", 3)?;
    let cfg = gva_core::wcad::WcadConfig::new(window);
    let scores = gva_core::wcad::wcad_scores(series.values(), &cfg).map_err(|e| e.to_string())?;
    outln!("series: {} ({} points)", series.name(), series.len());
    outln!("rank  interval            cdm");
    for (i, s) in scores.iter().take(k).enumerate() {
        outln!("{:<5} {:<19} {:.4}", i, s.interval.to_string(), s.cdm);
    }
    outln!(
        "\nnote: WCAD re-runs the compressor once per window and needs the window\n\
         to match the anomaly length — the limitations §6 of the paper discusses."
    );
    Ok(())
}

fn motifs_cmd(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let k = args.usize_or("top", 5)?;
    let model = p
        .model(series.values(), &NoopRecorder)
        .map_err(|e| e.to_string())?;
    let motifs = gva_core::motifs(&model, k);
    outln!("series: {} ({} points)", series.name(), series.len());
    outln!("rank  rule   count  mean-len  min..max   period(sd)  first occurrences");
    for (i, m) in motifs.iter().enumerate() {
        let first: Vec<String> = m
            .occurrences
            .iter()
            .take(3)
            .map(|iv| iv.to_string())
            .collect();
        let period = m
            .periodicity()
            .map(|(mean, sd)| format!("{mean:.0}({sd:.0})"))
            .unwrap_or_else(|| "-".into());
        outln!(
            "{:<5} {:<6} {:<6} {:<9.1} {:>4}..{:<5} {:<11} {}",
            i,
            m.rule.to_string(),
            m.count(),
            m.mean_length,
            m.min_length,
            m.max_length,
            period,
            first.join(" ")
        );
    }
    Ok(())
}

fn dot(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let out = args.required("out")?;
    let model = p
        .model(series.values(), &NoopRecorder)
        .map_err(|e| e.to_string())?;
    let dot = gv_sequitur::to_dot(&model.grammar);
    std::fs::write(out, &dot).map_err(|e| e.to_string())?;
    outln!(
        "wrote {} rules to {out} (render with `dot -Tsvg {out} -o grammar.svg`)",
        model.grammar.num_rules()
    );
    Ok(())
}

fn export(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let out = args.required("out")?;
    let report = p
        .density_anomalies(series.values(), args.usize_or("top", 3)?, &NoopRecorder)
        .map_err(|e| e.to_string())?;
    let density: Vec<f64> = report.curve.iter().map(|&d| d as f64).collect();
    gv_timeseries::write_csv_columns(out, &["value", "density"], &[series.values(), &density])
        .map_err(|e| e.to_string())?;
    outln!("wrote {} rows to {out}", series.len());
    Ok(())
}

fn grammar(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let p = pipeline_for(args, &series)?;
    let limit = args.usize_or("limit", 20)?;
    let model = p
        .model(series.values(), &NoopRecorder)
        .map_err(|e| e.to_string())?;
    let counts = model.grammar.occurrence_counts();
    outln!(
        "{} tokens, {} rules, grammar size {}",
        model.num_tokens(),
        model.grammar.num_rules(),
        model.grammar.grammar_size()
    );
    outln!("rule   uses  occurrences  expansion-len");
    for rule in model.grammar.rules().take(limit + 1) {
        outln!(
            "{:<6} {:<5} {:<12} {}",
            rule.id.to_string(),
            rule.rule_uses,
            counts.get(&rule.id).copied().unwrap_or(0),
            model.grammar.expansion_len(rule.id)
        );
    }
    Ok(())
}

fn stream(args: &Args) -> Result<(), String> {
    let series = load_series(args)?;
    let window = window_for(args, &series)?;
    let paa = args.usize_or("paa", 4)?;
    let alphabet = args.usize_or("alphabet", 4)?;
    let threshold = args.usize_or("threshold", 0)? as i64;
    let maturity = args.usize_or("maturity", window)?;
    let check_every = args.usize_or("check-every", (series.len() / 20).max(100))?;
    let metrics_every = args.usize_or("metrics-every", 0)?;
    let horizon = args.usize_or("horizon", 0)?;

    let config = PipelineConfig::new(window, paa, alphabet).map_err(|e| e.to_string())?;
    let mut det = gva_core::StreamingDetector::new(config)
        .with_horizon(horizon)
        .metrics_every(metrics_every);
    outln!(
        "streaming {} points (W={window} P={paa} A={alphabet}, \
         alert threshold {threshold}, maturity {maturity}{})",
        series.len(),
        if horizon > 0 {
            format!(", horizon {horizon}")
        } else {
            String::new()
        }
    );
    let mut reported: Vec<Interval> = Vec::new();
    for (i, v) in series.iter() {
        det.push(v).map_err(|e| format!("point {}: {e}", i + 1))?;
        if (i + 1) % check_every == 0 || i + 1 == series.len() {
            for alert in det.alerts(threshold, maturity) {
                if !reported.iter().any(|r| r.overlaps(&alert)) {
                    outln!("  t={:<8} ALERT {} (len {})", i + 1, alert, alert.len());
                    reported.push(alert);
                }
            }
        }
    }
    if reported.is_empty() {
        outln!("  no alerts (threshold {threshold})");
    } else {
        outln!("{} alert region(s) in total", reported.len());
    }
    if metrics_every > 0 || args.get("metrics").is_some() {
        // Terminal flush: without it the final partial window (up to
        // `metrics_every - 1` points) would silently vanish from the
        // trajectory, and `--metrics` alone would write nothing.
        det.flush_now();
        let snapshots = det.take_snapshots();
        if let Some(path) = args.get("metrics") {
            let n = append_jsonl_lines(path, snapshots.iter().map(|s| s.to_jsonl()))?;
            warn(format_args!("appended {n} metric snapshots to {path}"));
        } else {
            warn(format_args!(
                "{} metric snapshots collected (pass --metrics PATH to export them)",
                snapshots.len()
            ));
        }
    }
    Ok(())
}

/// `gv monitor` — live telemetry over the online detector: replays a CSV
/// (or stdin with `--file -`) through [`gva_core::StreamingDetector`],
/// flushing a cumulative snapshot every `--interval` points. A
/// [`WindowedAggregator`](gva_core::obs::WindowedAggregator) differences
/// consecutive snapshots into per-interval `window` JSONL records; a
/// [`HealthEngine`](gva_core::obs::HealthEngine) loaded from `--rules`
/// grades each window and emits a `health` record whenever the overall
/// verdict changes. Output is deterministic (byte-identical across runs
/// and thread counts) unless `--timing` enables the wall-clock-derived
/// fields. `--fail-on-breach` turns a breached verdict into a non-zero
/// exit — the CI health gate.
fn monitor(args: &Args) -> Result<(), String> {
    use gva_core::obs::{HealthEngine, Stopwatch, Verdict, WindowedAggregator};
    let series = load_series(args)?;
    let window = window_for(args, &series)?;
    let paa = args.usize_or("paa", 4)?;
    let alphabet = args.usize_or("alphabet", 4)?;
    let threshold = args.usize_or("threshold", 0)? as i64;
    let maturity = args.usize_or("maturity", window)?;
    let interval = args.usize_or("interval", (series.len() / 10).max(window))?;
    if interval == 0 {
        return Err("--interval must be at least 1".to_string());
    }
    let horizon = args.usize_or("horizon", 0)?;
    let timing = args.flag("timing");
    let label = args.get("label").unwrap_or("monitor");
    let mut engine = match args.get("rules") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("--rules {path}: {e}"))?;
            Some(HealthEngine::from_config(&text).map_err(|e| format!("--rules {path}: {e}"))?)
        }
        None => None,
    };
    if args.flag("fail-on-breach") && engine.is_none() {
        return Err("--fail-on-breach needs --rules (no SLOs to breach)".to_string());
    }

    let config = PipelineConfig::new(window, paa, alphabet).map_err(|e| e.to_string())?;
    let mut det = gva_core::StreamingDetector::new(config).with_horizon(horizon);
    let mut agg = WindowedAggregator::new().with_timing(timing);
    let watch = timing.then(Stopwatch::start);
    let mut lines: Vec<String> = Vec::new();
    let mut reported: Vec<Interval> = Vec::new();
    let mut breached = false;
    for (i, v) in series.iter() {
        det.push(v).map_err(|e| format!("point {}: {e}", i + 1))?;
        if (i + 1) % interval != 0 && i + 1 != series.len() {
            continue;
        }
        if !det.flush_now() {
            continue; // end-of-stream landed exactly on an interval boundary
        }
        let Some(snapshot) = det.take_snapshots().pop() else {
            continue;
        };
        for alert in det.alerts(threshold, maturity) {
            if !reported.iter().any(|r| r.overlaps(&alert)) {
                reported.push(alert);
            }
        }
        let wall_ns = watch.as_ref().map(|w| w.elapsed_ns()).unwrap_or(0);
        let stats = agg.observe(&snapshot, (i + 1) as u64, reported.len() as u64, wall_ns);
        lines.push(stats.to_jsonl());
        if let Some(engine) = engine.as_mut() {
            let (report, transition) = engine.evaluate(stats);
            breached |= report.verdict == Verdict::Breached;
            if transition {
                lines.push(report.to_jsonl());
            }
        }
    }

    let windows = agg.len() as u64 + agg.evicted();
    match args.get("out") {
        Some(path) => {
            let n = append_jsonl_lines(path, lines)?;
            warn(format_args!("appended {n} monitoring records to {path}"));
        }
        None => {
            for line in &lines {
                outln!("{line}");
            }
        }
    }
    if let Some(path) = args.get("ledger") {
        append_run_ledger(
            path,
            label,
            &[
                window as u64,
                paa as u64,
                alphabet as u64,
                threshold as u64,
                maturity as u64,
                interval as u64,
                horizon as u64,
            ],
            &series,
            reported.iter().map(|iv| (*iv, 0.0)),
            watch.map(|w| w.elapsed_ns()).unwrap_or(0),
        )?;
    }
    let verdict = engine
        .as_ref()
        .and_then(|e| e.last_verdict())
        .map(|v| v.name())
        .unwrap_or("unmonitored");
    warn(format_args!(
        "{windows} window(s), {} alert region(s), final verdict: {verdict}",
        reported.len()
    ));
    if breached && args.flag("fail-on-breach") {
        return Err("SLO breached (see health records)".to_string());
    }
    Ok(())
}

/// `gv check`: run every `gv-check` invariant verifier on the series —
/// Sequitur digram uniqueness / rule utility, R0 reconstruction,
/// occurrence mapping, density recount, and the RRA-vs-brute-force
/// differential — and print the PASS/FAIL report. Fails (non-zero exit
/// through `main`) if any invariant is violated.
fn check(args: &Args) -> Result<(), String> {
    // Ledger mode: scan an append-only run ledger for cross-run result
    // drift (same config + input, different result digest) instead of
    // verifying a series.
    if let Some(path) = args.get("ledger") {
        let report = gv_check::ledger::verify_ledger(std::path::Path::new(path))?;
        out!("{}", report.render());
        return if report.passed() {
            Ok(())
        } else {
            Err(format!(
                "{} result-drift issue(s) in {path}",
                report.issues.len()
            ))
        };
    }
    let series = load_series(args)?;
    let window = window_for(args, &series)?;
    let paa = args.usize_or("paa", 4)?;
    let alphabet = args.usize_or("alphabet", 4)?;
    let k = args.usize_or("top", 3)?;
    let threads = engine_for(args)?.threads();
    let config = PipelineConfig::new(window, paa, alphabet).map_err(|e| e.to_string())?;
    let report =
        gv_check::check_series(series.values(), &config, k, threads).map_err(|e| e.to_string())?;
    outln!(
        "series: {} ({} points, W={window} P={paa} A={alphabet}, top {k}, {threads} thread(s))",
        series.name(),
        series.len()
    );
    out!("{}", report.render());
    if report.passed() {
        outln!("all invariants hold");
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s) — this is a bug in the pipeline, please report it",
            report.num_violations()
        ))
    }
}

fn demo(args: &Args) -> Result<(), String> {
    let name = args.get("dataset").unwrap_or("ecg0606");
    let (data, window, paa, alphabet) = match name {
        "ecg0606" => (gv_datasets::ecg::ecg0606(Default::default()), 120, 4, 4),
        "power" => (gv_datasets::power::power_demand(), 750, 6, 3),
        "video" => (gv_datasets::video::video_gun(), 150, 5, 3),
        "tek14" => (gv_datasets::telemetry::tek14(), 128, 4, 4),
        "tek16" => (gv_datasets::telemetry::tek16(), 128, 4, 4),
        "tek17" => (gv_datasets::telemetry::tek17(), 128, 4, 4),
        "nprs43" => (gv_datasets::respiration::nprs43(), 128, 5, 4),
        "nprs44" => (gv_datasets::respiration::nprs44(), 128, 5, 4),
        "commute" => (gv_datasets::trajectory::daily_commute().dataset, 350, 15, 4),
        other => return Err(format!("unknown demo dataset {other:?}")),
    };
    let width = args.usize_or("width", 100)?;
    let k = args.usize_or("top", 3)?;
    let config = PipelineConfig::new(window, paa, alphabet).map_err(|e| e.to_string())?;
    let p = AnomalyPipeline::new(config).with_engine(engine_for(args)?);
    let values = data.series.values();

    outln!(
        "dataset: {} ({} points, W={window} P={paa} A={alphabet})",
        data.series.name(),
        values.len()
    );
    let truth: Vec<Interval> = data.anomalies.iter().map(|a| a.interval).collect();
    outln!("signal : {}", viz::sparkline(values, width));
    outln!("truth  : {}", viz::marker_row(values.len(), &truth, width));

    let recorder = recorder_for(args);
    let density = p
        .density_anomalies(values, k, sink(&recorder))
        .map_err(|e| e.to_string())?;
    outln!("density: {}", viz::density_strip(&density.curve, width));
    let d_iv: Vec<Interval> = density.anomalies.iter().map(|a| a.interval).collect();
    outln!("d-hits : {}", viz::marker_row(values.len(), &d_iv, width));

    let rra = p
        .rra_discords(values, k, sink(&recorder))
        .map_err(|e| e.to_string())?;
    if let Some(rec) = &recorder {
        let label = format!("demo:{name}");
        emit_trace(args, &pipeline_trace(rec, &label, &p, values.len(), k))?;
    }
    let r_iv: Vec<Interval> = rra.discords.iter().map(|d| d.interval()).collect();
    outln!("rra    : {}", viz::marker_row(values.len(), &r_iv, width));
    outln!();
    outln!("ground truth:");
    for a in &data.anomalies {
        outln!("  {} — {}", a.interval, a.label);
    }
    outln!("\ndensity anomalies:\n{}", viz::density_table(&density));
    outln!("RRA discords:\n{}", viz::rra_table(&rra));
    outln!(
        "RRA cost: {} distance calls over {} candidates",
        rra.stats.distance_calls,
        rra.num_candidates
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_runs() {
        assert!(run(&argv("help")).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&argv("frobnicate")).is_err());
    }

    #[test]
    fn unknown_option_fails_with_suggestion() {
        let err = run(&argv("density --file x.csv --windw 100")).unwrap_err();
        assert!(err.contains("unknown option --windw"), "{err}");
        assert!(err.contains("did you mean --window?"), "{err}");
        // --events is rra/explain-only; density rejects it.
        let err = run(&argv("density --file x.csv --events e.jsonl")).unwrap_err();
        assert!(err.contains("unknown option --events"), "{err}");
        // --metrics-every is stream-only.
        let err = run(&argv("rra --file x.csv --metrics-every 100")).unwrap_err();
        assert!(err.contains("unknown option --metrics-every"), "{err}");
    }

    #[test]
    fn demo_unknown_dataset_fails() {
        assert!(run(&argv("demo --dataset nope")).is_err());
    }

    #[test]
    fn demo_ecg_runs() {
        assert!(run(&argv("demo --dataset ecg0606 --top 1 --width 60")).is_ok());
    }

    #[test]
    fn file_commands_on_generated_csv() {
        // Round-trip through a real CSV file.
        let data = gv_datasets::ecg::ecg0606(Default::default());
        let dir = std::env::temp_dir().join("gv_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ecg.csv");
        gv_timeseries::write_csv_column(&path, &data.series).unwrap();
        let core = format!(
            "--file {} --window 120 --paa 4 --alphabet 4",
            path.display()
        );
        let base = format!("{core} --top 1 --width 50");
        assert!(run(&argv(&format!("density {base}"))).is_ok());
        assert!(run(&argv(&format!("rra {base}"))).is_ok());
        assert!(run(&argv(&format!("grammar {core}"))).is_ok());
        assert!(run(&argv(&format!("motifs {core} --top 1"))).is_ok());
        assert!(run(&argv(&format!(
            "wcad --file {} --window 120",
            path.display()
        )))
        .is_ok());
        assert!(run(&argv(&format!(
            "hotsax --file {} --window 120 --top 1",
            path.display()
        )))
        .is_ok());
        // Parallel RRA search: same command, more worker threads.
        assert!(run(&argv(&format!("rra {base} --threads 2"))).is_ok());
        assert!(run(&argv(&format!("explain {core} --top 1 --threads 3"))).is_ok());
        // --threads is for the RRA-search commands only, and must be >= 1.
        let err = run(&argv(&format!("density {base} --threads 2"))).unwrap_err();
        assert!(err.contains("unknown option --threads"), "{err}");
        let err = run(&argv(&format!("rra {base} --threads 0"))).unwrap_err();
        assert!(err.contains("--threads must be at least 1"), "{err}");
        let err = run(&argv(&format!("rra {base} --threads two"))).unwrap_err();
        assert!(err.contains("--threads expects an integer"), "{err}");
        let out = dir.join("export.csv");
        assert!(run(&argv(&format!(
            "export {core} --top 1 --out {}",
            out.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("value,density"));
        assert_eq!(text.lines().count(), 2301); // header + 2300 rows
        assert!(run(&argv(&format!(
            "stream --file {} --window 120 --threshold 0 --maturity 200",
            path.display()
        )))
        .is_ok());
        // Auto-window path (no --window given).
        assert!(run(&argv(&format!(
            "density --file {} --top 1 --width 40",
            path.display()
        )))
        .is_ok());
        let dot_out = dir.join("grammar.dot");
        assert!(run(&argv(&format!("dot {core} --out {}", dot_out.display()))).is_ok());
        let dot_text = std::fs::read_to_string(&dot_out).unwrap();
        assert!(dot_text.starts_with("digraph grammar {"));
        // Instrumented runs: --trace is stderr-only; --metrics appends one
        // JSONL record per run.
        let metrics = dir.join("metrics.jsonl");
        let _ = std::fs::remove_file(&metrics);
        assert!(run(&argv(&format!(
            "density {base} --trace --metrics {}",
            metrics.display()
        )))
        .is_ok());
        assert!(run(&argv(&format!(
            "rra {base} --metrics {}",
            metrics.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"label\":\"density\""));
        assert!(text.contains("\"label\":\"rra\""));
        assert!(text.lines().all(|l| {
            l.starts_with("{\"schema\":4,") && l.ends_with('}') && l.contains("\"distance_calls\":")
        }));
        // explain: provenance table on stdout, full JSONL stream to --events.
        let events = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&events);
        assert!(run(&argv(&format!(
            "explain {core} --top 1 --events {}",
            events.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&events).unwrap();
        assert!(text.lines().count() > 2);
        assert!(text.contains("\"type\":\"explain\""));
        assert!(text.contains("\"type\":\"event\""));
        assert!(text.contains("\"type\":\"explain_summary\""));
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"schema\":4,") && l.ends_with('}')));
        // rra --events appends raw event lines too.
        let rra_events = dir.join("rra_events.jsonl");
        let _ = std::fs::remove_file(&rra_events);
        assert!(run(&argv(&format!(
            "rra {base} --events {}",
            rra_events.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&rra_events).unwrap();
        assert!(!text.is_empty());
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"schema\":4,\"type\":\"event\"") && l.ends_with('}')));
        // stream --metrics-every exports a snapshot trajectory.
        let stream_metrics = dir.join("stream_metrics.jsonl");
        let _ = std::fs::remove_file(&stream_metrics);
        assert!(run(&argv(&format!(
            "stream --file {} --window 120 --metrics-every 500 --metrics {}",
            path.display(),
            stream_metrics.display()
        )))
        .is_ok());
        // 4 periodic snapshots plus the terminal flush covering the final
        // partial window (2300 % 500 = 300 points).
        let text = std::fs::read_to_string(&stream_metrics).unwrap();
        assert_eq!(text.lines().count(), 2300 / 500 + 1);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"schema\":4,\"label\":\"stream\"")));
        assert!(text.lines().last().unwrap().contains("\"seen\":2300"));
        // --metrics alone appends the one terminal snapshot.
        let stream_final = dir.join("stream_final.jsonl");
        let _ = std::fs::remove_file(&stream_final);
        assert!(run(&argv(&format!(
            "stream --file {} --window 120 --metrics {}",
            path.display(),
            stream_final.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&stream_final).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"schema\":4,\"label\":\"stream\""));
        assert!(text.contains("\"seen\":2300"));
    }

    #[test]
    fn missing_file_reports_error() {
        assert!(run(&argv("density --file /nonexistent.csv --window 10")).is_err());
    }

    fn fixture(name: &str) -> String {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name)
            .display()
            .to_string()
    }

    #[test]
    fn monitor_emits_windows_and_health_transitions() {
        let dir = std::env::temp_dir().join("gv_cli_monitor_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("monitor.jsonl");
        let _ = std::fs::remove_file(&out);
        let base = format!(
            "monitor --file {} --window 100 --interval 400 --threshold 1 --maturity 400",
            fixture("monitor_sine.csv")
        );
        // Clean SLOs pass even with --fail-on-breach.
        assert!(run(&argv(&format!(
            "{base} --rules {} --fail-on-breach --out {}",
            fixture("slo_clean.conf"),
            out.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let windows = text
            .lines()
            .filter(|l| l.contains("\"type\":\"window\""))
            .count();
        assert_eq!(windows, 5, "2000 points / 400 interval");
        // Steady verdict: only the initial health transition is emitted.
        let health: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"health\""))
            .collect();
        assert_eq!(health.len(), 1, "{text}");
        assert!(health[0].contains("\"verdict\":\"healthy\""));
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"schema\":4,") && l.ends_with('}')));
        // Deterministic mode: no wall-clock-derived fields populated.
        assert!(text.contains("\"wall_ns\":0"));
        assert!(text.contains("\"span_shares\":{}"));

        // The tight SLO breaches on the planted anomaly's alert: non-zero
        // exit under --fail-on-breach, and the health stream records the
        // healthy -> breached -> healthy transitions.
        let out2 = dir.join("monitor_breached.jsonl");
        let _ = std::fs::remove_file(&out2);
        let breached = format!(
            "{base} --rules {} --fail-on-breach --out {}",
            fixture("slo_breached.conf"),
            out2.display()
        );
        let err = run(&argv(&breached)).unwrap_err();
        assert!(err.contains("SLO breached"), "{err}");
        let text = std::fs::read_to_string(&out2).unwrap();
        let verdicts: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"health\""))
            .collect();
        assert_eq!(verdicts.len(), 3, "{text}");
        assert!(verdicts[0].contains("\"verdict\":\"healthy\""));
        assert!(verdicts[1].contains("\"verdict\":\"breached\""));
        assert!(verdicts[1].contains("\"rule\":\"max_discord_rate\""));
        assert!(verdicts[2].contains("\"verdict\":\"healthy\""));
        // Without --fail-on-breach the same run exits cleanly.
        assert!(run(&argv(&format!(
            "{base} --rules {} --out {}",
            fixture("slo_breached.conf"),
            out2.display()
        )))
        .is_ok());
    }

    #[test]
    fn monitor_output_is_deterministic_across_runs() {
        let dir = std::env::temp_dir().join("gv_cli_monitor_det_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bodies = Vec::new();
        for run_i in 0..2 {
            let out = dir.join(format!("det_{run_i}.jsonl"));
            let _ = std::fs::remove_file(&out);
            assert!(run(&argv(&format!(
                "monitor --file {} --window 100 --interval 300 --threshold 1 \
                 --maturity 400 --out {}",
                fixture("monitor_sine.csv"),
                out.display()
            )))
            .is_ok());
            bodies.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(bodies[0], bodies[1]);
        assert!(!bodies[0].is_empty());
    }

    #[test]
    fn stream_and_monitor_accept_horizon() {
        let dir = std::env::temp_dir().join("gv_cli_horizon_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = fixture("monitor_sine.csv");
        // Bounded stream: the grammar evicts old tokens; the metrics
        // trajectory reports the churn and the final snapshot still covers
        // every point seen.
        let metrics = dir.join("stream_horizon.jsonl");
        let _ = std::fs::remove_file(&metrics);
        assert!(run(&argv(&format!(
            "stream --file {file} --window 100 --horizon 800 \
             --metrics-every 1000 --metrics {}",
            metrics.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("\"horizon\":800"), "{text}");
        assert!(text.contains("\"tokens_evicted\":"), "{text}");
        // Bounded monitor runs are as deterministic as unbounded ones.
        let mut bodies = Vec::new();
        for run_i in 0..2 {
            let out = dir.join(format!("horizon_{run_i}.jsonl"));
            let _ = std::fs::remove_file(&out);
            assert!(run(&argv(&format!(
                "monitor --file {file} --window 100 --interval 300 --threshold 1 \
                 --maturity 400 --horizon 700 --out {}",
                out.display()
            )))
            .is_ok());
            bodies.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(bodies[0], bodies[1]);
        assert!(!bodies[0].is_empty());
        // --horizon belongs to the streaming commands only.
        let err = run(&argv(&format!(
            "density --file {file} --window 100 --horizon 500"
        )))
        .unwrap_err();
        assert!(err.contains("unknown option --horizon"), "{err}");
        let err = run(&argv(&format!(
            "stream --file {file} --window 100 --horizon many"
        )))
        .unwrap_err();
        assert!(err.contains("--horizon expects an integer"), "{err}");
    }

    #[test]
    fn monitor_rejects_bad_configs() {
        let file = format!("--file {}", fixture("monitor_sine.csv"));
        // --fail-on-breach without rules is a configuration error.
        let err = run(&argv(&format!(
            "monitor {file} --window 100 --fail-on-breach"
        )))
        .unwrap_err();
        assert!(err.contains("--fail-on-breach needs --rules"), "{err}");
        // A rules file with a typo'd key errors up front.
        let dir = std::env::temp_dir().join("gv_cli_monitor_bad_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.conf");
        std::fs::write(&bad, "max_latency = 5\n").unwrap();
        let err = run(&argv(&format!(
            "monitor {file} --window 100 --rules {}",
            bad.display()
        )))
        .unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        let err = run(&argv(&format!("monitor {file} --window 100 --interval 0"))).unwrap_err();
        assert!(err.contains("--interval"), "{err}");
    }

    #[test]
    fn ledger_records_flow_into_check() {
        let data = gv_datasets::ecg::ecg0606(Default::default());
        let dir = std::env::temp_dir().join("gv_cli_ledger_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ecg.csv");
        gv_timeseries::write_csv_column(&path, &data.series).unwrap();
        let ledger = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&ledger);
        let core = format!(
            "--file {} --window 120 --paa 4 --alphabet 4 --top 2 --ledger {}",
            path.display(),
            ledger.display()
        );
        // Two identical rra runs, one density run, one monitor session.
        assert!(run(&argv(&format!("rra {core}"))).is_ok());
        assert!(run(&argv(&format!("rra {core}"))).is_ok());
        assert!(run(&argv(&format!("density {core}"))).is_ok());
        assert!(run(&argv(&format!(
            "monitor --file {} --window 100 --interval 500 --threshold 1 \
             --maturity 400 --out {} --ledger {}",
            fixture("monitor_sine.csv"),
            dir.join("mon.jsonl").display(),
            ledger.display()
        )))
        .is_ok());
        let text = std::fs::read_to_string(&ledger).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"schema\":4,\"type\":\"ledger\"")));
        assert!(text.contains("\"label\":\"rra\""));
        assert!(text.contains("\"label\":\"density\""));
        assert!(text.contains("\"label\":\"monitor\""));
        // The identical rra runs agree, so the drift scan passes.
        assert!(run(&argv(&format!("check --ledger {}", ledger.display()))).is_ok());
        // Forge a drifting record (same config + input, different result
        // digest): the scan must fail.
        let rra_line = text
            .lines()
            .find(|l| l.contains("\"label\":\"rra\""))
            .unwrap();
        let digest_start = rra_line.find("\"result_digest\":").unwrap();
        let forged = format!("{}\"result_digest\":1}}", &rra_line[..digest_start]);
        let drifted = dir.join("drifted.jsonl");
        std::fs::write(&drifted, format!("{text}{forged}\n")).unwrap();
        let err = run(&argv(&format!("check --ledger {}", drifted.display()))).unwrap_err();
        assert!(err.contains("drift"), "{err}");
    }

    #[test]
    fn check_command_verifies_invariants() {
        let data = gv_datasets::ecg::ecg0606(Default::default());
        let dir = std::env::temp_dir().join("gv_cli_check_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ecg.csv");
        gv_timeseries::write_csv_column(&path, &data.series).unwrap();
        let core = format!(
            "--file {} --window 120 --paa 4 --alphabet 4",
            path.display()
        );
        assert!(run(&argv(&format!("check {core} --top 2"))).is_ok());
        // The differential holds for the parallel search too.
        assert!(run(&argv(&format!("check {core} --top 2 --threads 3"))).is_ok());
        // check is a pipeline command: it rejects foreign options.
        let err = run(&argv(&format!("check {core} --width 50"))).unwrap_err();
        assert!(err.contains("unknown option --width"), "{err}");
    }

    #[test]
    fn degenerate_configs_are_errors_not_panics() {
        let data = gv_datasets::ecg::ecg0606(Default::default());
        let dir = std::env::temp_dir().join("gv_cli_degenerate_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ecg.csv");
        gv_timeseries::write_csv_column(&path, &data.series).unwrap();
        let file = format!("--file {}", path.display());
        // Window longer than the series (2300 points).
        let err = run(&argv(&format!("rra {file} --window 99999"))).unwrap_err();
        assert!(err.contains("window"), "{err}");
        // PAA size larger than the window.
        let err = run(&argv(&format!("rra {file} --window 30 --paa 40"))).unwrap_err();
        assert!(err.to_lowercase().contains("paa"), "{err}");
        // One-letter alphabet cannot discretize anything.
        let err = run(&argv(&format!("rra {file} --window 120 --alphabet 1"))).unwrap_err();
        assert!(err.to_lowercase().contains("alphabet"), "{err}");
        // Asking for zero discords is a parameter error for every detector.
        for cmd in ["rra", "density", "hotsax"] {
            let err = run(&argv(&format!("{cmd} {file} --window 120 --top 0"))).unwrap_err();
            assert!(err.contains("at least one"), "{cmd}: {err}");
        }
    }

    #[test]
    fn non_finite_csv_is_rejected_at_load() {
        let dir = std::env::temp_dir().join("gv_cli_nan_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "1.0\n2.0\nNaN\n3.0\n").unwrap();
        for cmd in ["density", "rra", "check", "stream"] {
            let err = run(&argv(&format!(
                "{cmd} --file {} --window 2",
                path.display()
            )))
            .unwrap_err();
            assert!(err.contains("non-finite"), "{cmd}: {err}");
            assert!(err.contains("index 2"), "{cmd}: {err}");
        }
    }
}
