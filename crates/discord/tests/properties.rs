//! Property tests: HOTSAX is exact (agrees with brute force) on arbitrary
//! series, and the counted distance machinery behaves.

use gv_discord::distance::euclidean_early;
use gv_discord::{
    brute_force_call_count, brute_force_discords, hotsax_discords, HotSaxConfig, HotSaxScratch,
};
use gv_obs::NoopRecorder;
use proptest::prelude::*;

/// Builds a series from random step sizes (random walk keeps neighbours
/// correlated, like real data).
fn walk(steps: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    steps
        .iter()
        .map(|s| {
            acc += s;
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hotsax_equals_brute_force(
        steps in proptest::collection::vec(-1.0f64..1.0, 120..260),
        n in 12usize..24,
        seed in 0u64..100,
    ) {
        let v = walk(&steps);
        prop_assume!(v.len() >= 2 * n);
        let (bf, bf_stats) = brute_force_discords(&v, n, 1, &mut Vec::new(), &NoopRecorder).unwrap();
        let cfg = HotSaxConfig::new(n, 4, 3).unwrap().with_seed(seed);
        let (hs, hs_stats) =
            hotsax_discords(&v, &cfg, 1, &mut HotSaxScratch::new(), &NoopRecorder).unwrap();
        prop_assert_eq!(bf.len(), hs.len());
        if let (Some(b), Some(h)) = (bf.first(), hs.first()) {
            // Distances must agree exactly; positions may differ only if
            // tied (rare with floats, but tolerate it via distance check).
            prop_assert!((b.distance - h.distance).abs() < 1e-9,
                "bf {} vs hs {}", b.distance, h.distance);
        }
        prop_assert!(hs_stats.distance_calls <= bf_stats.distance_calls);
    }

    #[test]
    fn brute_force_call_count_matches_runs(
        steps in proptest::collection::vec(-1.0f64..1.0, 60..140),
        n in 8usize..20,
    ) {
        let v = walk(&steps);
        prop_assume!(v.len() >= 2 * n);
        let (_, stats) = brute_force_discords(&v, n, 1, &mut Vec::new(), &NoopRecorder).unwrap();
        prop_assert_eq!(stats.distance_calls as u128, brute_force_call_count(v.len(), n));
    }

    #[test]
    fn early_abandon_never_changes_a_completed_distance(
        a in proptest::collection::vec(-5.0f64..5.0, 16..64),
        bseed in proptest::collection::vec(-5.0f64..5.0, 16..64),
    ) {
        let n = a.len().min(bseed.len());
        let (a, b) = (&a[..n], &bseed[..n]);
        let full = euclidean_early(&NoopRecorder, a, b, f64::INFINITY).unwrap();
        // Any threshold above the distance must return exactly `full`.
        let early = euclidean_early(&NoopRecorder, a, b, full * (1.0 + 1e-9) + 1e-9).unwrap();
        prop_assert!((early - full).abs() < 1e-12);
        // Any threshold strictly below must abandon. (Exactly-at-threshold
        // is left unspecified: `(sqrt(s))²` can round either side of `s`.)
        prop_assume!(full > 1e-6);
        prop_assert_eq!(euclidean_early(&NoopRecorder, a, b, full * (1.0 - 1e-9)), None);
    }
}
