//! Multi-length discord search by repeated HOTSAX — the strawman the
//! paper's introduction argues against: "determining all possible lengths
//! to discover the best discords would be extremely cost prohibitive".
//!
//! Runs HOTSAX once per candidate length and aggregates results and
//! costs, providing the baseline for the `intro_motivation` experiment
//! (one RRA run vs. a whole sweep of fixed-length searches).

use gv_obs::NoopRecorder;

use crate::error::Result;
use crate::hotsax::{hotsax_discords, HotSaxConfig, HotSaxScratch};
use crate::record::{DiscordRecord, SearchStats};

/// The outcome of a multi-length sweep.
#[derive(Debug, Clone)]
pub struct MultiLengthReport {
    /// Best discord per length, best overall first (ranked by the
    /// *length-normalized* distance so different lengths are comparable).
    pub discords: Vec<DiscordRecord>,
    /// Total cost across every per-length run.
    pub stats: SearchStats,
    /// How many lengths were searched.
    pub lengths_searched: usize,
}

/// Runs HOTSAX for every length in `lengths`, ranking the per-length
/// winners by normalized distance (`distance / length`, Eq. (1)'s
/// comparison rule).
///
/// Lengths that don't fit the series are skipped silently (the sweep is
/// exploratory by nature). One [`HotSaxScratch`] serves every length.
///
/// # Errors
/// Propagates SAX configuration errors.
pub fn multi_length_hotsax(
    values: &[f64],
    lengths: impl IntoIterator<Item = usize>,
    paa: usize,
    alphabet: usize,
) -> Result<MultiLengthReport> {
    let mut discords = Vec::new();
    let mut stats = SearchStats::default();
    let mut searched = 0usize;
    let mut scratch = HotSaxScratch::new();
    for n in lengths {
        if n == 0 || 2 * n > values.len() || paa > n {
            continue;
        }
        let cfg = HotSaxConfig::new(n, paa, alphabet)?;
        let (found, s) = hotsax_discords(values, &cfg, 1, &mut scratch, &NoopRecorder)?;
        stats.absorb(&s);
        searched += 1;
        discords.extend(found);
    }
    discords.sort_by(|a, b| {
        let na = a.distance / a.length as f64;
        let nb = b.distance / b.length as f64;
        nb.total_cmp(&na)
    });
    for (i, d) in discords.iter_mut().enumerate() {
        d.rank = i;
    }
    Ok(MultiLengthReport {
        discords,
        stats,
        lengths_searched: searched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_with_bump(m: usize, at: usize, len: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..m).map(|i| (i as f64 / 8.0).sin()).collect();
        for i in 0..len {
            v[at + i] += 1.5 * (std::f64::consts::PI * i as f64 / len as f64).sin();
        }
        v
    }

    #[test]
    fn sweep_finds_the_anomaly_at_every_length() {
        let v = sine_with_bump(600, 300, 20);
        let report = multi_length_hotsax(&v, [16, 24, 32, 48], 4, 3).unwrap();
        assert_eq!(report.lengths_searched, 4);
        assert_eq!(report.discords.len(), 4);
        // Each per-length winner overlaps the planted bump.
        for d in &report.discords {
            assert!(
                d.position < 330 && d.position + d.length > 290,
                "length {} discord at {}",
                d.length,
                d.position
            );
        }
        // Ranks reassigned by normalized distance.
        for (i, d) in report.discords.iter().enumerate() {
            assert_eq!(d.rank, i);
        }
    }

    #[test]
    fn cost_accumulates_across_lengths() {
        let v = sine_with_bump(500, 250, 16);
        let single = multi_length_hotsax(&v, [24], 4, 3).unwrap();
        let sweep = multi_length_hotsax(&v, [16, 24, 32], 4, 3).unwrap();
        assert!(sweep.stats.distance_calls > single.stats.distance_calls);
    }

    #[test]
    fn unfit_lengths_skipped() {
        let v = sine_with_bump(200, 100, 10);
        let report = multi_length_hotsax(&v, [0, 3, 16, 150, 500], 4, 3).unwrap();
        // 0 (zero), 3 (< paa), 150 (2n > len), 500 (too long) skipped.
        assert_eq!(report.lengths_searched, 1);
        assert_eq!(report.discords.len(), 1);
        assert_eq!(report.discords[0].length, 16);
    }
}
