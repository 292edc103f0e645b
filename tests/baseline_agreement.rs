//! Exactness guarantees: HOTSAX must agree with brute force, and RRA's
//! pruned search must agree with the exhaustive nearest-neighbour profile
//! over the same candidate set.

use grammarviz::core::{
    nn_distance_profile, search_candidates, AnomalyPipeline, PipelineConfig, RraDetector, Workspace,
};
use grammarviz::discord::{brute_force_discords, hotsax_discords, HotSaxConfig};
use grammarviz::obs::NoopRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A noisy periodic series with one randomized planted bump.
fn random_series(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let period = rng.gen_range(12.0..40.0);
    let mut v: Vec<f64> = (0..len)
        .map(|i| (i as f64 / period).sin() + 0.05 * ((i * 7919 + seed as usize) % 97) as f64 / 97.0)
        .collect();
    let at = rng.gen_range(len / 4..3 * len / 4);
    let blen = rng.gen_range(8..24);
    for i in 0..blen.min(len - at) {
        v[at + i] +=
            rng.gen_range(0.5..1.5) * (std::f64::consts::PI * i as f64 / blen as f64).sin();
    }
    v
}

#[test]
fn hotsax_matches_brute_force_across_seeds() {
    for seed in 0..8u64 {
        let v = random_series(seed, 400);
        let n = 24;
        let (bf, bf_stats) = brute_force_discords(&v, n, 1).unwrap();
        let cfg = HotSaxConfig::new(n, 4, 3).unwrap().with_seed(seed);
        let (hs, hs_stats) = hotsax_discords(&v, &cfg, 1).unwrap();
        assert_eq!(bf[0].position, hs[0].position, "seed {seed}");
        assert!(
            (bf[0].distance - hs[0].distance).abs() < 1e-9,
            "seed {seed}"
        );
        assert!(
            hs_stats.distance_calls <= bf_stats.distance_calls,
            "seed {seed}: HOTSAX may never cost more than brute force"
        );
    }
}

#[test]
fn hotsax_top2_matches_brute_force() {
    let v = random_series(99, 500);
    let (bf, _) = brute_force_discords(&v, 20, 2).unwrap();
    let cfg = HotSaxConfig::new(20, 4, 3).unwrap();
    let (hs, _) = hotsax_discords(&v, &cfg, 2).unwrap();
    assert_eq!(bf.len(), hs.len());
    for (b, h) in bf.iter().zip(&hs) {
        assert_eq!(b.position, h.position);
        assert!((b.distance - h.distance).abs() < 1e-9);
    }
}

#[test]
fn rra_matches_exhaustive_profile_across_seeds() {
    for seed in 0..6u64 {
        let v = random_series(seed + 100, 1200);
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(60, 4, 4).unwrap().with_seed(seed));
        let model = pipeline.model(&v, &NoopRecorder).unwrap();
        let candidates = search_candidates(&model);
        let report = RraDetector::new(pipeline.config().clone(), 1)
            .search_model(&v, &model, &mut Workspace::new(), &NoopRecorder)
            .unwrap();
        let profile = nn_distance_profile(&v, &candidates);
        let max = profile
            .iter()
            .map(|(_, d)| *d)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (report.discords[0].distance - max).abs() < 1e-9,
            "seed {seed}: pruned search {} vs exhaustive {max}",
            report.discords[0].distance
        );
    }
}

#[test]
fn detectors_agree_through_the_trait() {
    // The same agreement claims, but dispatched through `dyn Detector` —
    // the way the CLI and benches now drive every algorithm.
    use grammarviz::core::{
        BruteForceDetector, Detector, EngineConfig, HotSaxDetector, PipelineConfig, RraDetector,
        SeriesView, Workspace,
    };
    use grammarviz::obs::NoopRecorder;
    let v: Vec<f64> = {
        let mut v: Vec<f64> = (0..3000).map(|i| (i as f64 / 20.0).sin()).collect();
        for (i, x) in v[1500..1580].iter_mut().enumerate() {
            *x = 0.2 * (i as f64 / 5.0).cos();
        }
        v
    };
    let series = SeriesView::new(&v);
    let config = PipelineConfig::new(100, 4, 4).unwrap();
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(BruteForceDetector::new(100, 1)),
        Box::new(HotSaxDetector::new(
            HotSaxConfig::new(100, 4, 4).unwrap(),
            1,
        )),
        Box::new(RraDetector::new(config, 1).with_engine(EngineConfig::sequential())),
    ];
    let mut ws = Workspace::new();
    let reports: Vec<_> = detectors
        .iter()
        .map(|d| d.detect(&series, &mut ws, &NoopRecorder).unwrap())
        .collect();
    // Brute force and HOTSAX agree exactly (same fixed-length problem).
    let (bf, hs) = (&reports[0].anomalies[0], &reports[1].anomalies[0]);
    assert_eq!(bf.interval.start, hs.interval.start);
    assert!((bf.score - hs.score).abs() < 1e-9);
    // All three locate the plant (RRA's length varies; slack one window).
    let plant = grammarviz::timeseries::Interval::new(1400, 1680);
    for (det, report) in detectors.iter().zip(&reports) {
        assert_eq!(report.detector, det.name());
        assert!(
            report.anomalies[0].interval.overlaps(&plant),
            "{} reported {} missing the plant",
            det.name(),
            report.anomalies[0].interval
        );
    }
    // Cost ordering survives the unified interface (the Table 1 claim).
    assert!(reports[2].stats.distance_calls < reports[1].stats.distance_calls);
    assert!(reports[0].stats.distance_calls > reports[1].stats.distance_calls);
}

#[test]
fn rra_cheaper_than_hotsax_on_regular_data() {
    // The headline Table 1 claim, as a regression test.
    let v: Vec<f64> = {
        let mut v: Vec<f64> = (0..4000).map(|i| (i as f64 / 20.0).sin()).collect();
        for (i, x) in v[2000..2080].iter_mut().enumerate() {
            *x = 0.2 * (i as f64 / 5.0).cos();
        }
        v
    };
    let cfg = HotSaxConfig::new(100, 4, 4).unwrap();
    let (_, hs_stats) = hotsax_discords(&v, &cfg, 1).unwrap();
    let pipeline = AnomalyPipeline::new(PipelineConfig::new(100, 4, 4).unwrap());
    let rra = pipeline.rra_discords(&v, 1, &NoopRecorder).unwrap();
    assert!(
        rra.stats.distance_calls < hs_stats.distance_calls / 2,
        "RRA {} vs HOTSAX {}",
        rra.stats.distance_calls,
        hs_stats.distance_calls
    );
}
