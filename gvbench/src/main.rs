//! `gvbench` — the repository benchmark.
//!
//! ```text
//! gvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` from a single-threaded process and
//! prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (name → value and unit). With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! decomposition; with `--trace 1` they are the per-layer ones, from ops
//! decomposed into the layers' public calls and timed from outside. The
//! line before it carries host facts. Each run cycles through a set of
//! inputs generated from `--seed` (seed 0, input 0 is each workload's
//! preset dataset), and every output is checked by an oracle. The exit code
//! is non-zero when any op failed or an oracle disagreed.
//!
//! See README.md beside this file for the workloads, metrics, and how to
//! compare two commits.

mod batch;
mod cli;
mod closed;
mod host;
mod layers;
mod openloop;
mod stats;
mod stream;

use std::process::ExitCode;
use std::time::Duration;

use gv_datasets::Dataset;
use gv_timeseries::Interval;
use serde::Value;

use batch::{Batch, Kind};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rra-nprs44", "density-power", "cli-rra-ecg", "stream-ecg"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms_p50", "ms"),
    ("points_per_s", "pts/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload reports 0
/// for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("sax.discretize_ms", "ms"),
    ("sax.ns_per_window", "ns"),
    ("sax.windows", "count"),
    ("sax.words_kept_ratio", "ratio"),
    ("sax.intern_ms", "ms"),
    ("sequitur.induce_ms", "ms"),
    ("sequitur.ns_per_token", "ns"),
    ("sequitur.rules", "count"),
    ("density.curve_ms", "ms"),
    ("rra.search_ms", "ms"),
    ("rra.distance_calls", "count"),
    ("rra.ns_per_call", "ns"),
    ("rra.early_abandon_ratio", "ratio"),
    ("rra.len_mismatch_share", "ratio"),
    ("discord.aligned_ns_per_cmp", "ns"),
    ("discord.resampled_ns_per_cmp", "ns"),
    ("streaming.push_us_p50", "us"),
    ("streaming.push_us_p99", "us"),
    ("streaming.busy_share", "ratio"),
    ("streaming.backlog_max", "count"),
    ("streaming.detect_ms_p90", "ms"),
    ("streaming.point_latency_ms_p99", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("cli.exec_overhead_ms", "ms"),
    ("run.op_ms_p90", "ms"),
    ("run.ops", "count"),
    ("run.wait_share", "ratio"),
    ("run.trace_coverage", "ratio"),
    ("run.trace_overhead_share", "ratio"),
    ("run.generator_lag_us_p99", "us"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one invocation measured.
pub struct Outcome {
    /// Ops run (traced ones included).
    pub attempted: u64,
    /// Ops that errored or whose result an oracle rejected.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The generator seed of input `input` of a run with benchmark seed
/// `seed`: the preset's seed with both mixed in, so seed 0, input 0 is the
/// preset itself and no two `(seed, input)` pairs share a series.
pub fn input_seed(preset: u64, seed: u64, input: usize) -> u64 {
    preset ^ (seed << 16) ^ input as u64
}

/// Prints how many reported intervals hit a planted anomaly. Information
/// only: another seed may legitimately rank something else first.
pub fn print_hits(data: &Dataset, found: impl Iterator<Item = Interval>) {
    let (mut hits, mut total) = (0, 0);
    for iv in found {
        total += 1;
        hits += usize::from(data.is_hit(&iv));
    }
    eprintln!(
        "info: {hits} of {total} reported intervals hit one of {} planted anomalies",
        data.anomalies.len()
    );
}

fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "rra-nprs44" => closed::drive(run, || Batch::setup(Kind::Rra, run.seed)),
        "density-power" => closed::drive(run, || Batch::setup(Kind::Density, run.seed)),
        "cli-rra-ecg" => {
            let gv = host::gv_binary().ok_or("no gv binary beside gvbench; build gv-cli")?;
            closed::drive(run, || cli::Cli::setup(&gv, run.seed))
        }
        "stream-ecg" => stream::run(run),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Child mode: one op of `name` on `input` in a fresh process, then print
/// the peak RSS in kB.
fn rss_probe(name: &str, seed: u64, input: usize) -> Result<(), String> {
    match name {
        "rra-nprs44" => batch::probe(Kind::Rra, seed, input),
        "density-power" => batch::probe(Kind::Density, seed, input),
        "stream-ecg" => stream::probe(seed, input),
        other => Err(format!("no in-process RSS probe for {other:?}")),
    }
}

/// The result line: every catalogued metric of the run's kind, in
/// catalogue order.
fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|m| m.1);
        // A layer the workload never touches reads 0; an end-to-end
        // metric must always be measured.
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ if trace => 0.0,
            _ => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::U64(outcome.attempted)),
        ("failed".into(), Value::U64(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

const USAGE: &str =
    "usage: gvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:";

/// Parsed command line: the run, or a probe request.
enum Args {
    Run {
        workload: String,
        run: Run,
    },
    Probe {
        workload: String,
        seed: u64,
        input: usize,
    },
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let num = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} expects a whole number")),
            None => default.ok_or(format!("missing {key}")),
        }
    };
    let seed = num("--seed", Some(0))?;
    if let Some(workload) = get("--rss-probe") {
        return Ok(Args::Probe {
            workload: workload.into(),
            seed,
            input: num("--input", Some(0))? as usize,
        });
    }
    let workload = get("--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match num("--trace", Some(0))? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args::Run {
        workload: workload.into(),
        run: Run {
            seed,
            seconds: Duration::from_secs(num("--seconds", None)?),
            trace,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse_args(&args) {
        Ok(Args::Run { workload, run }) => (workload, run),
        Ok(Args::Probe {
            workload,
            seed,
            input,
        }) => {
            return match rss_probe(&workload, seed, input) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gvbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("gvbench: {e}\n{USAGE} {}", WORKLOADS.join(", "));
            return ExitCode::from(2);
        }
    };
    let line =
        run_workload(&workload, &run).and_then(|o| Ok((o.failed, result_json(&o, run.trace)?)));
    match line {
        Ok((failed, json)) => {
            let host = Value::Object(vec![("host".into(), host::facts())]);
            println!("{}", serde_json::to_string(&host).unwrap_or_default());
            println!("{json}");
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gvbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, Option<String>)> {
        let str_of = |v: &Value| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        };
        v.field(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|e| {
                (
                    str_of(e.field("name").expect("name")).expect("string name"),
                    e.field("unit").ok().and_then(str_of),
                )
            })
            .collect()
    }

    fn catalogue(c: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    /// The names the benchmark prints are exactly those BENCHMARK.json
    /// declares, with the same units.
    #[test]
    fn printed_names_match_benchmark_json() {
        let spec = benchmark_json();
        let workloads: Vec<String> = names(&spec, "workloads").into_iter().map(|n| n.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names(&spec, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), catalogue(&PER_LAYER));

        for (trace, cat) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = Outcome {
                attempted: 1,
                failed: 0,
                metrics: cat.iter().map(|(n, _)| (*n, 1.5)).collect(),
            };
            let line: Value = serde_json::from_str(&result_json(&outcome, trace).unwrap()).unwrap();
            let Value::Object(printed) = line.field("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, Option<String>)> = printed
                .iter()
                .map(|(n, m)| match m.field("unit").unwrap() {
                    Value::Str(u) => (n.clone(), Some(u.clone())),
                    _ => panic!("unit is not a string"),
                })
                .collect();
            assert_eq!(printed, catalogue(cat));
        }
    }

    #[test]
    fn every_measured_metric_is_catalogued() {
        let layers = closed::layer_metrics(&[(0, layers::Layers::default())], None);
        for (name, _) in layers {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_an_error() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![("op_ms_p50", 1.0)],
        };
        assert!(result_json(&outcome, false).is_err());
        assert!(result_json(&outcome, true).is_ok());
    }

    #[test]
    fn seed_derivation_keeps_the_preset_at_zero() {
        assert_eq!(input_seed(0x4E6, 0, 0), 0x4E6);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            for input in 0..64 {
                assert!(
                    seen.insert(input_seed(0x4E6, seed, input)),
                    "{seed}/{input}"
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Args::Run { workload, run }) = parse_args(&args(
            "--workload stream-ecg --seed 7 --seconds 3 --trace 1",
        )) else {
            panic!("valid arguments rejected");
        };
        assert_eq!(workload, "stream-ecg");
        assert_eq!((run.seed, run.seconds.as_secs(), run.trace), (7, 3, true));
        assert!(parse_args(&args("--workload nope --seconds 1")).is_err());
        assert!(parse_args(&args("--workload stream-ecg")).is_err());
        assert!(parse_args(&args("--workload stream-ecg --seconds 1 --trace 2")).is_err());
        assert!(matches!(
            parse_args(&args("--rss-probe rra-nprs44 --seed 3 --input 5")),
            Ok(Args::Probe {
                seed: 3,
                input: 5,
                ..
            })
        ));
    }
}
