//! Cross-crate property tests: invariants that must hold for the whole
//! SAX → Sequitur → detection stack on arbitrary inputs.

use grammarviz::core::{rule_intervals, AnomalyPipeline, PipelineConfig, RuleDensity};
use grammarviz::obs::NoopRecorder;
use grammarviz::sax::{mindist, NumerosityReduction, SaxConfig};
use grammarviz::timeseries::{znorm, CoverageCounter, DEFAULT_ZNORM_THRESHOLD};
use proptest::prelude::*;

/// Random-walk series generator: realistic smooth inputs for SAX.
fn random_walk(steps: Vec<f64>) -> Vec<f64> {
    let mut acc = 0.0;
    steps
        .into_iter()
        .map(|s| {
            acc += s;
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grammar induced over any discretized random walk satisfies the
    /// Sequitur invariants and round-trips to the token stream.
    #[test]
    fn grammar_invariants_over_pipeline(
        steps in proptest::collection::vec(-1.0f64..1.0, 300..800),
        window in 20usize..60,
        paa in 3usize..6,
        alphabet in 3usize..6,
    ) {
        let values = random_walk(steps);
        prop_assume!(values.len() >= 2 * window);
        let pipeline = AnomalyPipeline::new(
            PipelineConfig::new(window, paa, alphabet).unwrap(),
        );
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        let tokens: Vec<u32> = model
            .records
            .iter()
            .map(|r| model.dictionary.token_of(&r.word).unwrap())
            .collect();
        prop_assert_eq!(model.grammar.verify(&tokens), None);
    }

    /// The density curve from the model equals naive per-point counting
    /// over the same occurrence intervals.
    #[test]
    fn density_curve_matches_naive_counting(
        steps in proptest::collection::vec(-1.0f64..1.0, 300..700),
        window in 20usize..50,
    ) {
        let values = random_walk(steps);
        prop_assume!(values.len() >= 2 * window);
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(window, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        let curve = RuleDensity::from_model(&model);

        let mut naive = vec![0i64; values.len()];
        for occ in model.grammar.occurrences() {
            let iv = model.occurrence_interval(&occ);
            for slot in naive.iter_mut().take(iv.end).skip(iv.start) {
                *slot += 1;
            }
        }
        prop_assert_eq!(curve.curve(), &naive[..]);
        // Sanity: a CoverageCounter over the same intervals agrees too.
        let mut cc = CoverageCounter::new(values.len());
        for occ in model.grammar.occurrences() {
            cc.add(model.occurrence_interval(&occ));
        }
        prop_assert_eq!(cc.finish(), naive);
    }

    /// MINDIST lower-bounds the true Euclidean distance between the
    /// z-normalized subsequences it symbolizes (the SAX guarantee).
    #[test]
    fn mindist_lower_bounds_euclidean(
        steps in proptest::collection::vec(-1.0f64..1.0, 160..320),
        paa in 3usize..8,
        alphabet in 3usize..8,
        split in 0.25f64..0.75,
    ) {
        let values = random_walk(steps);
        let n = 64usize;
        prop_assume!(values.len() >= 2 * n);
        let p = 0;
        let q = ((values.len() - n) as f64 * split) as usize;
        let a_raw = &values[p..p + n];
        let b_raw = &values[q..q + n];
        let cfg = SaxConfig::new(n, paa, alphabet).unwrap();
        let wa = cfg.word(a_raw).unwrap();
        let wb = cfg.word(b_raw).unwrap();
        let lower = mindist(&wa, &wb, cfg.alphabet(), n);

        let az = znorm(a_raw, DEFAULT_ZNORM_THRESHOLD);
        let bz = znorm(b_raw, DEFAULT_ZNORM_THRESHOLD);
        let true_dist: f64 = az
            .iter()
            .zip(&bz)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        // Tiny epsilon absorbs floating-point noise in the breakpoints.
        prop_assert!(
            lower <= true_dist + 1e-9,
            "MINDIST {lower} > Euclidean {true_dist}"
        );
    }

    /// Every RRA candidate interval is in bounds, non-empty, and its
    /// frequency is consistent with its provenance.
    #[test]
    fn rra_candidates_well_formed(
        steps in proptest::collection::vec(-1.0f64..1.0, 300..700),
        window in 20usize..50,
    ) {
        let values = random_walk(steps);
        prop_assume!(values.len() >= 2 * window);
        let pipeline = AnomalyPipeline::new(PipelineConfig::new(window, 4, 4).unwrap());
        let model = pipeline.model(&values, &NoopRecorder).unwrap();
        for c in rule_intervals(&model) {
            prop_assert!(!c.interval.is_empty());
            prop_assert!(c.interval.end <= values.len());
            match c.rule {
                Some(_) => prop_assert!(c.frequency >= 1),
                None => prop_assert_eq!(c.frequency, 0),
            }
        }
    }

    /// Numerosity reduction never changes the *first* record and always
    /// yields a subsequence of the unreduced stream.
    #[test]
    fn numerosity_reduction_is_a_subsequence(
        steps in proptest::collection::vec(-1.0f64..1.0, 200..500),
        window in 16usize..48,
    ) {
        let values = random_walk(steps);
        prop_assume!(values.len() >= window + 10);
        let cfg = SaxConfig::new(window, 4, 4).unwrap();
        let full = cfg.discretize(&values, NumerosityReduction::None).unwrap();
        let reduced = cfg.discretize(&values, NumerosityReduction::Exact).unwrap();
        prop_assert_eq!(&reduced[0], &full[0]);
        // Two-pointer subsequence check on (word, offset) pairs.
        let mut it = full.iter();
        for r in &reduced {
            prop_assert!(
                it.any(|f| f == r),
                "reduced record missing from the full stream"
            );
        }
    }
}
