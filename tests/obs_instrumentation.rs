//! Cross-crate instrumentation invariants: recording must never change
//! results, the recorder and `SearchStats` must agree (one counting path),
//! and the JSONL export must round-trip.

use grammarviz::core::obs::{
    CollectingRecorder, Counter, EventKind, LocalRecorder, Metric, NoopRecorder, PipelineTrace,
    Recorder, Stage,
};
use grammarviz::core::{
    rule_intervals, AnomalyPipeline, EngineConfig, PipelineConfig, RraDetector, StreamingDetector,
    Workspace,
};

fn fixture() -> Vec<f64> {
    let mut values: Vec<f64> = (0..2000).map(|i| (i as f64 / 20.0).sin()).collect();
    for (i, v) in values[1000..1060].iter_mut().enumerate() {
        *v = (i as f64 / 4.0).sin() * 0.3;
    }
    values
}

fn pipeline() -> AnomalyPipeline {
    // Pinned to one thread: these tests compare cost counters across runs,
    // which is only exact sequentially. The parallel counterpart of the
    // ledger invariant lives in `tests/parallel_determinism.rs`.
    AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap())
        .with_engine(EngineConfig::sequential())
}

#[test]
fn noop_recorder_leaves_rra_results_identical() {
    let values = fixture();
    let p = pipeline();
    let model = p.model(&values, &NoopRecorder).unwrap();
    let search = |recorder: &dyn Recorder| {
        RraDetector::new(p.config().clone(), 3)
            .with_engine(p.engine())
            .search_model(&values, &model, &mut Workspace::new(), recorder)
            .unwrap()
    };
    let plain = p.rra_discords(&values, 3, &NoopRecorder).unwrap();
    let noop = search(&NoopRecorder);
    let recorded = search(&CollectingRecorder::new());

    for other in [&noop, &recorded] {
        assert_eq!(plain.discords.len(), other.discords.len());
        for (a, b) in plain.discords.iter().zip(&other.discords) {
            assert_eq!(
                (a.position, a.length, a.rank),
                (b.position, b.length, b.rank)
            );
            assert!((a.distance - b.distance).abs() < 1e-12);
        }
        assert_eq!(plain.stats, other.stats);
        assert_eq!(plain.num_candidates, other.num_candidates);
    }
}

#[test]
fn recorder_and_search_stats_are_one_counting_path() {
    let values = fixture();
    let p = pipeline();
    let rec = CollectingRecorder::new();
    let report = p.rra_discords(&values, 2, &rec).unwrap();
    assert!(report.stats.distance_calls > 0);
    assert_eq!(
        rec.counter(Counter::DistanceCalls),
        report.stats.distance_calls
    );
    assert_eq!(
        rec.counter(Counter::EarlyAbandons),
        report.stats.early_abandoned
    );
    assert_eq!(
        rec.counter(Counter::CandidatesPruned),
        report.stats.candidates_pruned
    );
    assert_eq!(
        rec.counter(Counter::CandidatesCompleted),
        report.stats.candidates_completed
    );
    // Same seed, same fixture: a second instrumented run reproduces the
    // counts exactly (the search is deterministic given the seed).
    let rec2 = CollectingRecorder::new();
    let report2 = p.rra_discords(&values, 2, &rec2).unwrap();
    assert_eq!(report.stats, report2.stats);
    for c in Counter::ALL {
        assert_eq!(rec.counter(c), rec2.counter(c), "{}", c.name());
    }
}

#[test]
fn candidate_accounting_is_closed() {
    let values = fixture();
    let p = pipeline();
    let rec = CollectingRecorder::new();
    let model = p.model(&values, &rec).unwrap();
    RraDetector::new(p.config().clone(), 1)
        .with_engine(p.engine())
        .search_model(&values, &model, &mut Workspace::new(), &rec)
        .unwrap();
    assert!(rec.counter(Counter::RraCandidates) as usize <= rule_intervals(&model).len());
    // Every outer candidate that reached the inner loop either completed
    // or was pruned.
    assert_eq!(
        rec.counter(Counter::RraCandidates),
        rec.counter(Counter::CandidatesPruned) + rec.counter(Counter::CandidatesCompleted)
    );
    // Discretization accounting closes too.
    assert_eq!(rec.counter(Counter::WindowsProcessed), 2000 - 100 + 1);
    assert_eq!(
        rec.counter(Counter::WordsEmitted) + rec.counter(Counter::WordsDropped),
        rec.counter(Counter::WindowsProcessed)
    );
}

/// A tiny flat-JSON parser sufficient for the trace schema (no nested
/// arrays, no escapes in the keys we probe): extracts `"key":value`
/// number fields from anywhere in the line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn jsonl_snapshot_round_trips() {
    let values = fixture();
    let p = pipeline();
    let rec = CollectingRecorder::new();
    let report = p.rra_discords(&values, 1, &rec).unwrap();
    let trace = rec
        .snapshot("roundtrip")
        .with_param("window", 100)
        .with_param("points", values.len() as u64);

    let dir = std::env::temp_dir().join("gv_obs_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("rt_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    trace.append_jsonl(&path).unwrap();
    trace.append_jsonl(&path).unwrap();

    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in lines {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(json_u64(line, "window"), Some(100));
        assert_eq!(json_u64(line, "points"), Some(2000));
        assert_eq!(
            json_u64(line, "distance_calls"),
            Some(report.stats.distance_calls)
        );
        assert_eq!(
            json_u64(line, "windows_processed"),
            Some(trace.counter(Counter::WindowsProcessed))
        );
        assert_eq!(json_u64(line, "total_ns"), Some(trace.total_nanos()));
        // Every stage key is present even when zero.
        for stage in Stage::ALL {
            assert_eq!(
                json_u64(line, stage.name()),
                Some(trace.stage_nanos(stage)),
                "{}",
                stage.name()
            );
        }
    }
    std::fs::remove_file(&path).unwrap();

    // And the parsed record matches an in-memory re-encode.
    assert_eq!(
        trace.to_jsonl(),
        PipelineTrace { ..trace.clone() }.to_jsonl()
    );
}

#[test]
fn jsonl_exports_carry_schema_version() {
    let values = fixture();
    let p = pipeline();
    let rec = CollectingRecorder::new();
    p.rra_discords(&values, 1, &rec).unwrap();
    let trace_line = rec.snapshot("schema").to_jsonl();
    assert!(trace_line.starts_with("{\"schema\":4,"), "{trace_line}");
    assert!(trace_line.contains("\"histograms\":{"), "{trace_line}");
    assert_eq!(json_u64(&trace_line, "schema"), Some(4));

    let explain = p.explain(&values, 1, &NoopRecorder).unwrap();
    assert_eq!(json_u64(&explain.rows[0].to_jsonl(), "schema"), Some(4));
    assert_eq!(json_u64(&explain.summary_jsonl(), "schema"), Some(4));
    assert!(!explain.events.is_empty());
    for event in &explain.events {
        assert_eq!(json_u64(&event.to_jsonl(), "schema"), Some(4));
    }
}

/// The level-2 acceptance invariant: the per-decision event stream is a
/// complete, independent ledger of the search's distance-call spend.
#[test]
fn explain_event_ledger_matches_search_stats() {
    let values = fixture();
    let p = pipeline();
    let rec = CollectingRecorder::new();
    let report = p.rra_discords(&values, 2, &rec).unwrap();
    let explain = p.explain(&values, 2, &CollectingRecorder::new()).unwrap();

    // Same deterministic search → identical stats; outcome-event deltas
    // reconstruct the total exactly.
    assert_eq!(explain.stats, report.stats);
    assert_eq!(explain.events_dropped, 0);
    assert_eq!(
        explain.distance_calls_from_events(),
        report.stats.distance_calls
    );
    // Histogram mass agrees with the counters too.
    assert_eq!(explain.distance_ns.count(), report.stats.distance_calls);
    assert_eq!(explain.abandon_pos.count(), report.stats.early_abandoned);
    // One Visited event per outer candidate take-up, one outcome each.
    let visited = explain
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Visited)
        .count() as u64;
    let outcomes = explain
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Pruned | EventKind::Completed))
        .count() as u64;
    assert_eq!(visited, outcomes);
    assert_eq!(visited, rec.counter(Counter::RraCandidates));
}

/// Streaming detector results must be byte-identical across recorder
/// choices, and the Noop path must never see the per-call clock.
#[test]
fn streaming_detector_is_recorder_neutral() {
    let signal = |i: usize| {
        if (900..960).contains(&i) {
            0.0
        } else {
            (i as f64 / 12.0).sin()
        }
    };
    let config = PipelineConfig::new(50, 4, 4).unwrap();

    let mut noop = StreamingDetector::new(config.clone());
    let mut local = StreamingDetector::with_recorder(config.clone(), LocalRecorder::new());
    let shared = CollectingRecorder::new();
    let mut collecting = StreamingDetector::with_recorder(config.clone(), shared.clone());
    for i in 0..1500usize {
        let v = signal(i);
        noop.push(v).unwrap();
        local.push(v).unwrap();
        collecting.push(v).unwrap();
    }

    // Byte-identical curves and alert rankings across all three recorders.
    let reference = noop.density_curve();
    assert_eq!(reference, local.density_curve());
    assert_eq!(reference, collecting.density_curve());
    let ref_alerts = noop.alerts(0, 100);
    assert!(!ref_alerts.is_empty());
    assert_eq!(ref_alerts, local.alerts(0, 100));
    assert_eq!(ref_alerts, collecting.alerts(0, 100));

    // Noop is statically detail-free: no clock reads on the value path.
    assert!(!NoopRecorder.detailed());
    assert!(!LocalRecorder::counters_only().detailed());

    // A Collecting sink shared across threads tallies both streams.
    let shared = CollectingRecorder::new();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let sink = shared.clone();
            let config = config.clone();
            scope.spawn(move || {
                let mut det = StreamingDetector::with_recorder(config, sink).metrics_every(500);
                for i in 0..1500usize {
                    det.push(signal(i)).unwrap();
                }
                assert_eq!(det.snapshots().len(), 3);
            });
        }
    });
    assert_eq!(
        shared.counter(Counter::WindowsProcessed),
        2 * (1500 - 50 + 1)
    );
    assert_eq!(
        shared.counter(Counter::WordsEmitted) + shared.counter(Counter::WordsDropped),
        shared.counter(Counter::WindowsProcessed)
    );
    // Each thread flushed 3 periodic snapshots → 6 Flush events.
    let flushes = shared
        .events_vec()
        .iter()
        .filter(|e| e.kind == EventKind::Flush)
        .count();
    assert_eq!(flushes, 6);
}

/// Detailed recorders get the per-call latency histogram; plain counters
/// recorders stay histogram-free (the zero-overhead contract, level 2).
#[test]
fn detail_gating_controls_histograms() {
    let values = fixture();
    let p = pipeline();

    let detailed = LocalRecorder::new();
    p.rra_discords(&values, 1, &detailed).unwrap();
    assert!(detailed.histogram(Metric::DistanceNanos).count() > 0);
    assert!(detailed.histogram(Metric::CandidateLen).count() > 0);

    let counters_only = LocalRecorder::counters_only();
    p.rra_discords(&values, 1, &counters_only).unwrap();
    assert_eq!(counters_only.histogram(Metric::DistanceNanos).count(), 0);
    assert!(counters_only.events().is_empty());
    // But the aggregate counters still flowed.
    assert!(counters_only.counter(Counter::DistanceCalls) > 0);
    assert_eq!(
        counters_only.counter(Counter::DistanceCalls),
        detailed.counter(Counter::DistanceCalls)
    );
}
