//! Criterion bench: end-to-end detector comparison — the rule-density
//! curve (linear, approximate) vs RRA (exact) vs HOTSAX (fixed-length
//! baseline) on the ECG 0606 and TEK14 datasets.
//!
//! Expected shape (paper §5): density ≪ RRA ≪ HOTSAX in wall-clock, with
//! RRA and HOTSAX both exact.

use criterion::{criterion_group, criterion_main, Criterion};
use gv_datasets::ecg::{ecg0606, EcgParams};
use gv_datasets::telemetry::tek14;
use gv_discord::HotSaxConfig;
use gva_core::obs::NoopRecorder;
use gva_core::{AnomalyPipeline, Detector, HotSaxDetector, PipelineConfig, SeriesView, Workspace};

fn bench_ecg(c: &mut Criterion) {
    let data = ecg0606(EcgParams::default());
    let values = data.series.values().to_vec();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(120, 4, 4).unwrap());
    let hs_cfg = HotSaxConfig::new(120, 4, 4).unwrap();

    let mut group = c.benchmark_group("ecg0606_w120");
    group.sample_size(10);
    group.bench_function("density", |b| {
        b.iter(|| {
            pipeline
                .density_anomalies(&values, 1, &NoopRecorder)
                .unwrap()
        })
    });
    group.bench_function("rra", |b| {
        b.iter(|| pipeline.rra_discords(&values, 1, &NoopRecorder).unwrap())
    });
    let hotsax = HotSaxDetector::new(hs_cfg, 1);
    let mut ws = Workspace::new();
    group.bench_function("hotsax", |b| {
        b.iter(|| {
            hotsax
                .detect(&SeriesView::new(&values), &mut ws, &NoopRecorder)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    let data = tek14();
    let values = data.series.values().to_vec();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(128, 4, 4).unwrap());
    let hs_cfg = HotSaxConfig::new(128, 4, 4).unwrap();

    let mut group = c.benchmark_group("tek14_w128");
    group.sample_size(10);
    group.bench_function("density", |b| {
        b.iter(|| {
            pipeline
                .density_anomalies(&values, 1, &NoopRecorder)
                .unwrap()
        })
    });
    group.bench_function("rra", |b| {
        b.iter(|| pipeline.rra_discords(&values, 1, &NoopRecorder).unwrap())
    });
    let hotsax = HotSaxDetector::new(hs_cfg, 1);
    let mut ws = Workspace::new();
    group.bench_function("hotsax", |b| {
        b.iter(|| {
            hotsax
                .detect(&SeriesView::new(&values), &mut ws, &NoopRecorder)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_density_scaling(c: &mut Criterion) {
    // Linear-time claim for the full density pipeline (SAX + Sequitur +
    // coverage counting) on growing inputs.
    let mut group = c.benchmark_group("density_pipeline_scaling");
    group.sample_size(10);
    for &n in &[10_000usize, 20_000, 40_000] {
        let values: Vec<f64> = (0..n).map(|i| (i as f64 / 25.0).sin()).collect();
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(100, 5, 4).unwrap());
        group.bench_with_input(
            criterion::BenchmarkId::from_parameter(n),
            &values,
            |b, v| b.iter(|| pipeline.density_anomalies(v, 1, &NoopRecorder).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ecg, bench_telemetry, bench_density_scaling);
criterion_main!(benches);
