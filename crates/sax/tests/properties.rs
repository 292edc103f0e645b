//! Property tests for the SAX stage.

use gv_obs::{Counter, LocalRecorder};
use gv_sax::{paa, Alphabet, NumerosityReduction, SaxConfig, SaxScratch};
use proptest::prelude::*;

const STRATEGIES: [NumerosityReduction; 3] = [
    NumerosityReduction::None,
    NumerosityReduction::Exact,
    NumerosityReduction::MinDist,
];

/// The `(offset, symbols)` of every word a window-by-window replay through
/// the two-pass window kernel keeps.
fn replay(cfg: &SaxConfig, values: &[f64], nr: NumerosityReduction) -> Vec<(usize, Vec<u8>)> {
    let mut state = SaxScratch::new();
    values
        .windows(cfg.window())
        .enumerate()
        .filter_map(|(offset, w)| {
            cfg.next_word(w, nr, &mut state)
                .map(|s| (offset, s.to_vec()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PAA is linear: paa(a + b) == paa(a) + paa(b), pointwise.
    #[test]
    fn paa_is_linear(
        a in proptest::collection::vec(-10.0f64..10.0, 8..64),
        scale in -3.0f64..3.0,
        w in 1usize..8,
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * scale + 1.0).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let pa = paa(&a, w);
        let pb = paa(&b, w);
        let ps = paa(&sum, w);
        for ((x, y), s) in pa.iter().zip(&pb).zip(&ps) {
            prop_assert!((x + y - s).abs() < 1e-9, "{x} + {y} != {s}");
        }
    }

    /// PAA values always lie within the input's [min, max].
    #[test]
    fn paa_within_input_range(
        v in proptest::collection::vec(-10.0f64..10.0, 4..64),
        w in 1usize..10,
    ) {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for p in paa(&v, w) {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    /// Mass conservation under fractional boundaries (§3.1): every segment
    /// covers exactly n/w points' worth of mass — boundary points
    /// contribute fractionally to the two segments they straddle — so the
    /// equal-weight average of the segment means reproduces the global
    /// mean for *arbitrary* (n, w), not just when w divides n.
    #[test]
    fn paa_segment_means_preserve_global_mean(
        v in proptest::collection::vec(-100.0f64..100.0, 1..96),
        w in 1usize..32,
    ) {
        let p = paa(&v, w);
        prop_assert_eq!(p.len(), w);
        let paa_mean = p.iter().sum::<f64>() / w as f64;
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let scale = v.iter().fold(1.0f64, |m, x| m.max(x.abs()));
        prop_assert!(
            (paa_mean - mean).abs() <= 1e-9 * scale,
            "n={} w={}: paa mean {} vs global mean {}", v.len(), w, paa_mean, mean
        );
    }

    /// Alphabet symbols are monotone in the value: larger values never get
    /// smaller symbols.
    #[test]
    fn symbols_monotone(size in 2usize..=20, x in -4.0f64..4.0, y in -4.0f64..4.0) {
        let a = Alphabet::new(size).unwrap();
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(a.symbol(lo) <= a.symbol(hi));
    }

    /// Breakpoints are strictly ascending and symmetric about zero.
    #[test]
    fn breakpoints_ascending_symmetric(size in 2usize..=20) {
        let a = Alphabet::new(size).unwrap();
        let b = a.breakpoints();
        for w in b.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for (lo, hi) in b.iter().zip(b.iter().rev()) {
            prop_assert!((lo + hi).abs() < 1e-6, "{lo} vs {hi}");
        }
    }

    /// Discretization is shift- and scale-invariant (z-normalization eats
    /// affine transforms with positive scale).
    #[test]
    fn discretize_affine_invariant(
        steps in proptest::collection::vec(-1.0f64..1.0, 100..240),
        shift in -100.0f64..100.0,
        scale in 0.5f64..50.0,
    ) {
        let mut acc = 0.0;
        let v: Vec<f64> = steps.iter().map(|s| { acc += s; acc }).collect();
        let t: Vec<f64> = v.iter().map(|x| x * scale + shift).collect();
        let cfg = SaxConfig::new(32, 4, 4).unwrap();
        prop_assume!(v.len() >= 32);
        let rv = cfg.discretize(&v, NumerosityReduction::Exact).unwrap();
        let rt = cfg.discretize(&t, NumerosityReduction::Exact).unwrap();
        prop_assert_eq!(rv, rt);
    }

    /// The batch discretizer reads windows from block prefix sums under a
    /// rounding certificate; whatever it certifies or sends back to the
    /// two-pass kernel, it keeps exactly the words a window-by-window
    /// `next_word` replay keeps, under every numerosity-reduction
    /// strategy — on a random walk at levels 0, 1e4 and 1e8, across a 1e8
    /// level step, and across a constant plateau (whose windows put PAA
    /// values exactly on the breakpoint 0 at even alphabets, forcing the
    /// fallback).
    #[test]
    fn discretize_into_equals_a_next_word_replay(
        steps in proptest::collection::vec(-1.0f64..1.0, 80..360),
        window in 2usize..40,
        paa in 1usize..9,
        alphabet in 2usize..9,
        level in 0usize..3,
        shape in 0usize..3,
    ) {
        let paa = paa.min(window);
        let offset = [0.0, 1e4, 1e8][level];
        let n = steps.len();
        let mut acc = 0.0;
        let mut values: Vec<f64> = steps.iter().map(|s| { acc += s; acc + offset }).collect();
        match shape {
            // A 1e8 level step halfway.
            1 => values[n / 2..].iter_mut().for_each(|v| *v += 1e8),
            // A constant plateau over the middle third.
            2 => values[n / 3..2 * n / 3].iter_mut().for_each(|v| *v = offset),
            _ => {}
        }
        let cfg = SaxConfig::new(window, paa, alphabet).unwrap();
        let (mut batch, mut state) = (Vec::new(), SaxScratch::new());
        for nr in STRATEGIES {
            let rec = LocalRecorder::new();
            cfg.discretize_into(&values, nr, &rec, &mut batch, &mut state).unwrap();
            let got: Vec<(usize, Vec<u8>)> =
                batch.iter().map(|r| (r.offset, r.word.symbols().to_vec())).collect();
            prop_assert_eq!(got, replay(&cfg, &values, nr), "{:?}", nr);
            if shape == 2 && alphabet % 2 == 0 && n / 3 >= window {
                prop_assert!(rec.counter(Counter::WindowsFallback) > 0);
            }
        }
    }

    /// A word's symbols always fit the configured alphabet.
    #[test]
    fn words_within_alphabet(
        steps in proptest::collection::vec(-1.0f64..1.0, 64..128),
        alpha in 2usize..=12,
        w in 2usize..8,
    ) {
        let mut acc = 0.0;
        let v: Vec<f64> = steps.iter().map(|s| { acc += s; acc }).collect();
        let cfg = SaxConfig::new(32, w, alpha).unwrap();
        let word = cfg.word(&v[..32]).unwrap();
        prop_assert_eq!(word.len(), w);
        prop_assert!(word.symbols().iter().all(|&s| (s as usize) < alpha));
    }
}
