//! HOTSAX discord discovery (Keogh, Lin & Fu, ICDM'05) — the
//! state-of-the-art fixed-length baseline the paper compares RRA against.
//!
//! HOTSAX keeps the brute-force outer/inner structure but *reorders* both
//! loops using SAX word statistics:
//!
//! * **outer** — candidates whose SAX word is rare come first (a true
//!   discord almost certainly has a rare word), so `best_so_far` grows
//!   early and prunes later candidates;
//! * **inner** — for a candidate, subsequences sharing its SAX word are
//!   visited first (they are likely close, driving `nearest` down fast),
//!   then the rest in random order.
//!
//! A candidate is disqualified the moment a match closer than
//! `best_so_far` appears, and individual distance computations abandon
//! early against the current `nearest`.

use gv_obs::{Counter, LocalRecorder, NoopRecorder, Recorder};
use gv_sax::{NumerosityReduction, SaxConfig, SaxScratch};
use gv_timeseries::{Interval, SeriesStats, DEFAULT_ZNORM_THRESHOLD};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::distance::euclidean_early;
use crate::error::{Error, Result};
use crate::record::{DiscordRecord, SearchStats};

/// HOTSAX parameters: discord length plus the SAX word shape used for the
/// loop-ordering heuristics.
#[derive(Debug, Clone)]
pub struct HotSaxConfig {
    discord_len: usize,
    sax: SaxConfig,
    seed: u64,
}

impl HotSaxConfig {
    /// Builds a configuration: discords of length `discord_len`, ordering
    /// words of `paa_size` symbols over an `alphabet_size`-letter alphabet
    /// (the classic choice is 3–4 symbols over 3–4 letters).
    ///
    /// # Errors
    /// Propagates invalid SAX parameters; rejects `discord_len == 0`.
    pub fn new(discord_len: usize, paa_size: usize, alphabet_size: usize) -> Result<Self> {
        if discord_len == 0 {
            return Err(Error::ZeroLength);
        }
        let sax = SaxConfig::new(discord_len, paa_size, alphabet_size)?;
        Ok(Self {
            discord_len,
            sax,
            seed: DEFAULT_SEED,
        })
    }

    /// Overrides the RNG seed used for the randomized portions of the
    /// visit orders (default: a fixed seed for reproducibility).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The discord length `n`.
    pub fn discord_len(&self) -> usize {
        self.discord_len
    }
}

/// Default RNG seed: fixed so runs are reproducible unless the caller
/// opts into a different seed.
const DEFAULT_SEED: u64 = 0x5EED;

/// Reusable scratch state for [`hotsax_discords`]: discretization
/// records and state, visit orders, bucket index, and the z-norm pair.
/// Repeated searches through one scratch stop re-allocating after warm-up
/// (only the per-word `SaxWord` boxes and the per-bucket lists are fresh
/// each call).
#[derive(Debug, Default)]
pub struct HotSaxScratch {
    records: Vec<gv_sax::SaxRecord>,
    sax: SaxScratch,
    bucket_of: Vec<u32>,
    outer: Vec<u32>,
    inner: Vec<u32>,
    buf_p: Vec<f64>,
    buf_q: Vec<f64>,
    /// Prefix-sum window statistics over the searched series — the same
    /// cancellation-safe statistics source as the RRA and brute-force
    /// paths, rebuilt per search.
    stats: SeriesStats,
}

impl HotSaxScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacities of the reusable buffers, for allocation-stability
    /// assertions.
    pub fn capacities(&self) -> [usize; 10] {
        let [zbuf, pbuf, symbols, last] = self.sax.capacities();
        [
            self.records.capacity(),
            zbuf,
            pbuf,
            symbols,
            last,
            self.bucket_of.capacity(),
            self.outer.capacity(),
            self.inner.capacity(),
            self.buf_p.capacity().max(self.buf_q.capacity()),
            self.stats.capacity(),
        ]
    }
}

/// Finds the top-`k` fixed-length discords with the HOTSAX heuristics.
///
/// Returns discords best-first plus the search cost. Results are exact:
/// identical discord positions/distances to brute force, only cheaper.
///
/// The working state lives in the caller's [`HotSaxScratch`], so repeated
/// searches stop re-allocating. Distance calls and candidate outcomes are
/// counted into a search-local [`LocalRecorder`] that keeps
/// decision-level detail only when `recorder` is
/// [`detailed`](Recorder::detailed); the returned [`SearchStats`] are
/// read back from it, and it is merged into `recorder` at the end.
///
/// # Errors
/// [`Error::LengthTooLarge`] when `2 * discord_len > values.len()`.
pub fn hotsax_discords(
    values: &[f64],
    config: &HotSaxConfig,
    k: usize,
    scratch: &mut HotSaxScratch,
    recorder: &dyn Recorder,
) -> Result<(Vec<DiscordRecord>, SearchStats)> {
    let n = config.discord_len;
    if 2 * n > values.len() {
        return Err(Error::LengthTooLarge {
            len: n,
            series_len: values.len(),
        });
    }
    let count = values.len() - n + 1;

    // SAX word per position (no numerosity reduction: every position keeps
    // its word so the buckets index all candidates).
    config.sax.discretize_into(
        values,
        NumerosityReduction::None,
        &NoopRecorder,
        &mut scratch.records,
        &mut scratch.sax,
    )?;
    let records = &scratch.records;
    debug_assert_eq!(records.len(), count);

    // Bucket positions by word; remember each position's bucket.
    let bucket_of = &mut scratch.bucket_of;
    bucket_of.clear();
    bucket_of.resize(count, 0);
    let mut buckets: Vec<Vec<u32>> = Vec::new();
    {
        #[expect(
            clippy::disallowed_types,
            reason = "bucket ids are assigned in record order and the map is never iterated"
        )]
        let mut index: std::collections::HashMap<&gv_sax::SaxWord, u32> =
            std::collections::HashMap::new();
        for rec in records {
            let id = *index.entry(&rec.word).or_insert_with(|| {
                buckets.push(Vec::new());
                (buckets.len() - 1) as u32
            });
            buckets[id as usize].push(rec.offset as u32);
            bucket_of[rec.offset] = id;
        }
    }

    let mut rng = StdRng::seed_from_u64(config.seed);

    // Outer order: ascending bucket size, random within ties.
    let outer = &mut scratch.outer;
    outer.clear();
    outer.extend(0..count as u32);
    outer.shuffle(&mut rng);
    outer.sort_by_key(|&p| buckets[bucket_of[p as usize] as usize].len());

    // Inner order for the "rest" phase: one shared random permutation.
    let inner = &mut scratch.inner;
    inner.clear();
    inner.extend(0..count as u32);
    inner.shuffle(&mut rng);

    let local = LocalRecorder::with_detail(recorder.detailed());
    let mut found: Vec<DiscordRecord> = Vec::new();
    scratch.stats.rebuild(values);
    let wstats = &scratch.stats;
    let buf_p = &mut scratch.buf_p;
    let buf_q = &mut scratch.buf_q;
    buf_p.resize(n, 0.0);
    buf_q.resize(n, 0.0);

    for rank in 0..k {
        let mut best_dist = -1.0f64;
        let mut best_pos: Option<usize> = None;

        for &p32 in outer.iter() {
            let p = p32 as usize;
            let p_iv = Interval::with_len(p, n);
            if found.iter().any(|d| d.interval().overlaps(&p_iv)) {
                continue;
            }
            wstats.znorm_window_into(values, p, p + n, DEFAULT_ZNORM_THRESHOLD, buf_p);
            let mut nearest = f64::INFINITY;
            let mut pruned = false;

            // Phase 1: same-word bucket.
            let same_bucket = &buckets[bucket_of[p] as usize];
            for &q32 in same_bucket {
                let q = q32 as usize;
                if p.abs_diff(q) < n {
                    continue;
                }
                wstats.znorm_window_into(values, q, q + n, DEFAULT_ZNORM_THRESHOLD, buf_q);
                if let Some(d) = euclidean_early(&local, buf_p, buf_q, nearest) {
                    if d < nearest {
                        nearest = d;
                    }
                }
                if nearest < best_dist {
                    pruned = true;
                    break;
                }
            }

            // Phase 2: everything else in random order.
            if !pruned {
                for &q32 in inner.iter() {
                    let q = q32 as usize;
                    if bucket_of[q] == bucket_of[p] || p.abs_diff(q) < n {
                        continue;
                    }
                    wstats.znorm_window_into(values, q, q + n, DEFAULT_ZNORM_THRESHOLD, buf_q);
                    if let Some(d) = euclidean_early(&local, buf_p, buf_q, nearest) {
                        if d < nearest {
                            nearest = d;
                        }
                    }
                    if nearest < best_dist {
                        pruned = true;
                        break;
                    }
                }
            }

            if pruned {
                local.incr(Counter::CandidatesPruned);
                continue;
            }
            local.incr(Counter::CandidatesCompleted);
            if nearest.is_finite() && nearest > best_dist {
                best_dist = nearest;
                best_pos = Some(p);
            }
        }

        match best_pos {
            Some(position) => found.push(DiscordRecord {
                position,
                length: n,
                distance: best_dist,
                rank,
            }),
            None => break,
        }
    }

    let stats = SearchStats::from_recorder(&local);
    local.merge_into(&recorder);
    Ok((found, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_call_count, brute_force_discords};

    fn hotsax(
        values: &[f64],
        config: &HotSaxConfig,
        k: usize,
    ) -> Result<(Vec<DiscordRecord>, SearchStats)> {
        hotsax_discords(values, config, k, &mut HotSaxScratch::new(), &NoopRecorder)
    }

    fn sine_with_bump(m: usize, at: usize, len: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..m).map(|i| (i as f64 / 8.0).sin()).collect();
        for i in 0..len {
            v[at + i] += 1.5 * (std::f64::consts::PI * i as f64 / len as f64).sin();
        }
        v
    }

    #[test]
    fn config_validation() {
        assert!(HotSaxConfig::new(0, 3, 3).is_err());
        assert!(HotSaxConfig::new(16, 0, 3).is_err());
        assert!(HotSaxConfig::new(16, 3, 1).is_err());
        let c = HotSaxConfig::new(16, 3, 3).unwrap();
        assert_eq!(c.discord_len(), 16);
    }

    #[test]
    fn series_too_short_rejected() {
        let cfg = HotSaxConfig::new(16, 3, 3).unwrap();
        assert!(matches!(
            hotsax(&[0.0; 20], &cfg, 1),
            Err(Error::LengthTooLarge { .. })
        ));
    }

    #[test]
    fn matches_brute_force_position_and_distance() {
        let v = sine_with_bump(300, 150, 16);
        let (bf, bf_stats) =
            brute_force_discords(&v, 24, 1, &mut Vec::new(), &NoopRecorder).unwrap();
        let cfg = HotSaxConfig::new(24, 4, 3).unwrap();
        let (hs, hs_stats) = hotsax(&v, &cfg, 1).unwrap();
        assert_eq!(bf[0].position, hs[0].position);
        assert!((bf[0].distance - hs[0].distance).abs() < 1e-9);
        // The heuristic must not cost more than brute force.
        assert!(hs_stats.distance_calls <= bf_stats.distance_calls);
    }

    #[test]
    fn prunes_substantially_on_regular_data() {
        let v = sine_with_bump(600, 300, 20);
        let cfg = HotSaxConfig::new(32, 4, 3).unwrap();
        let (_, stats) = hotsax(&v, &cfg, 1).unwrap();
        let brute = brute_force_call_count(600, 32);
        assert!(
            (stats.distance_calls as u128) < brute / 4,
            "HOTSAX {} vs brute {brute}",
            stats.distance_calls
        );
    }

    #[test]
    fn multiple_discords_are_disjoint_and_ranked() {
        let mut v = sine_with_bump(400, 100, 16);
        for i in 0..16 {
            v[300 + i] -= 1.2 * (std::f64::consts::PI * i as f64 / 16.0).sin();
        }
        let cfg = HotSaxConfig::new(24, 4, 3).unwrap();
        let (ds, _) = hotsax(&v, &cfg, 2).unwrap();
        assert_eq!(ds.len(), 2);
        assert!(!ds[0].interval().overlaps(&ds[1].interval()));
        assert!(ds[0].distance >= ds[1].distance);
        assert_eq!((ds[0].rank, ds[1].rank), (0, 1));
    }

    #[test]
    fn deterministic_given_seed() {
        let v = sine_with_bump(300, 120, 16);
        let cfg = HotSaxConfig::new(24, 4, 3).unwrap().with_seed(7);
        let (a, sa) = hotsax(&v, &cfg, 1).unwrap();
        let (b, sb) = hotsax(&v, &cfg, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_same_discord() {
        let v = sine_with_bump(300, 120, 16);
        let c1 = HotSaxConfig::new(24, 4, 3).unwrap().with_seed(1);
        let c2 = HotSaxConfig::new(24, 4, 3).unwrap().with_seed(2);
        let (a, _) = hotsax(&v, &c1, 1).unwrap();
        let (b, _) = hotsax(&v, &c2, 1).unwrap();
        // Exactness is independent of the randomized visit order.
        assert_eq!(a[0].position, b[0].position);
    }
}
