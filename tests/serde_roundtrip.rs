//! Serde round-trips for the public result types: downstream tooling can
//! persist experiment outputs and read them back losslessly.

use grammarviz::core::{motifs, AnomalyPipeline, PipelineConfig, RuleInterval};
use grammarviz::discord::{DiscordRecord, SearchStats};
use grammarviz::obs::NoopRecorder;
use grammarviz::sax::SaxWord;
use grammarviz::sequitur::{RuleId, RuleOccurrence, Symbol};
use grammarviz::timeseries::Interval;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn interval_roundtrip() {
    let iv = Interval::new(12, 345);
    assert_eq!(roundtrip(&iv), iv);
}

#[test]
fn discord_record_roundtrip() {
    let d = DiscordRecord {
        position: 42,
        length: 100,
        distance: 1.2345,
        rank: 2,
    };
    assert_eq!(roundtrip(&d), d);
    let s = SearchStats {
        distance_calls: 10,
        early_abandoned: 3,
        candidates_pruned: 2,
        candidates_completed: 5,
    };
    assert_eq!(roundtrip(&s), s);
}

#[test]
fn grammar_types_roundtrip() {
    let occ = RuleOccurrence {
        rule: RuleId(3),
        token_start: 7,
        token_len: 4,
    };
    assert_eq!(roundtrip(&occ), occ);
    let sym = Symbol::Rule(RuleId(9));
    assert_eq!(roundtrip(&sym), sym);
    let word = SaxWord::from_letters("acbd").unwrap();
    assert_eq!(roundtrip(&word), word);
}

#[test]
fn pipeline_outputs_roundtrip() {
    let mut values: Vec<f64> = (0..1500).map(|i| (i as f64 / 18.0).sin()).collect();
    for (i, v) in values[700..760].iter_mut().enumerate() {
        *v = 0.2 * (i as f64 / 4.0).cos();
    }
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(80, 4, 4).unwrap());

    let density = pipeline
        .density_anomalies(&values, 2, &NoopRecorder)
        .unwrap();
    for a in &density.anomalies {
        assert_eq!(&roundtrip(a), a);
    }

    let model = pipeline.model(&values, &NoopRecorder).unwrap();
    for m in motifs(&model, 3) {
        assert_eq!(roundtrip(&m), m);
    }
    for c in grammarviz::core::rule_intervals(&model).into_iter().take(5) {
        let back: RuleInterval = roundtrip(&c);
        assert_eq!(back, c);
    }
}

#[test]
fn evaluation_roundtrip() {
    let e = grammarviz::core::evaluation::evaluate(
        &[Interval::new(10, 20)],
        &[Interval::new(12, 30)],
        0,
        100,
    );
    assert_eq!(roundtrip(&e), e);
}
