//! Incremental sliding-window discretization for streaming (paper §7).
//!
//! The batch path ([`SaxConfig::discretize`]) re-extracts and re-normalizes
//! every window from a slice it already holds. A streaming caller has
//! neither the slice nor the time: it sees one point per push and must not
//! allocate. [`IncrementalDiscretizer`] keeps the window in a fixed ring
//! and emits the SAX word for the window *ending* at each pushed point
//! into a reused scratch buffer.
//!
//! Each word is recomputed over the ring with the exact batch kernels
//! ([`znorm_into`] → [`paa_into`] → symbols), in window order, so the
//! output is **bit-identical** to [`SaxConfig::word`] on the same window.
//! O(W) per push, zero allocation. The streaming detector relies on this:
//! the incremental-vs-batch differential downstream compares density
//! curves and discord scores to the bit, which only holds if the token
//! streams agree to the bit.

use gv_timeseries::znorm_into;

use crate::alphabet::Alphabet;
use crate::discretize::SaxConfig;
use crate::paa::paa_into;

/// Streaming SAX discretizer over a fixed-length sliding window.
///
/// ```
/// use gv_sax::{IncrementalDiscretizer, SaxConfig};
///
/// let cfg = SaxConfig::new(8, 4, 4).unwrap();
/// let mut inc = IncrementalDiscretizer::new(&cfg);
/// let values: Vec<f64> = (0..20).map(|i| (i as f64 / 3.0).sin()).collect();
/// for (i, &v) in values.iter().enumerate() {
///     match inc.push(v) {
///         None => assert!(i + 1 < 8, "warmup only before the first window"),
///         Some(symbols) => {
///             let batch = cfg.word(&values[i + 1 - 8..=i]).unwrap();
///             assert_eq!(symbols, batch.symbols()); // bit-identical
///         }
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDiscretizer {
    window: usize,
    alphabet: Alphabet,
    threshold: f64,
    /// The last `window` points. Before warmup completes this holds the
    /// stream prefix in order; afterwards `head` indexes the oldest point.
    ring: Vec<f64>,
    head: usize,
    /// Scratch: window linearized in order / z-normalized / PAA means.
    lin: Vec<f64>,
    zbuf: Vec<f64>,
    pbuf: Vec<f64>,
    /// The emitted word, reused across pushes.
    symbols: Vec<u8>,
}

impl IncrementalDiscretizer {
    /// A discretizer whose every emitted word is bit-identical to
    /// [`SaxConfig::word`] over the same window.
    pub fn new(config: &SaxConfig) -> Self {
        let window = config.window();
        let paa = config.paa_size();
        Self {
            window,
            alphabet: config.alphabet().clone(),
            threshold: config.znorm_threshold(),
            ring: Vec::with_capacity(window),
            head: 0,
            lin: vec![0.0; window],
            zbuf: vec![0.0; window],
            pbuf: vec![0.0; paa],
            symbols: vec![0; paa],
        }
    }

    /// Capacities of every internal buffer — all fixed at construction, so
    /// long-run memory tests can assert this never changes after warmup.
    pub fn capacity_signature(&self) -> Vec<usize> {
        vec![
            self.ring.capacity(),
            self.lin.capacity(),
            self.zbuf.capacity(),
            self.pbuf.capacity(),
            self.symbols.capacity(),
        ]
    }

    /// Consumes one observation. Returns the SAX word (as raw symbol
    /// indexes, valid until the next push) for the window *ending* at this
    /// point, or `None` during warmup. The caller copies the slice if it
    /// needs to keep it.
    // gv-lint: hot
    pub fn push(&mut self, value: f64) -> Option<&[u8]> {
        if self.ring.len() < self.window {
            // Warmup: fill the ring in stream order (head stays 0).
            self.ring.push(value);
            if self.ring.len() < self.window {
                return None;
            }
        } else {
            // Slide: overwrite the oldest point with the new one.
            self.ring[self.head] = value;
            self.head = (self.head + 1) % self.window;
        }
        Some(self.emit())
    }

    /// Exact batch-kernel recomputation over the linearized ring:
    /// bit-identical to [`SaxConfig::word`], allocation-free.
    fn emit(&mut self) -> &[u8] {
        for k in 0..self.window {
            self.lin[k] = self.ring[(self.head + k) % self.window];
        }
        znorm_into(&self.lin, self.threshold, &mut self.zbuf);
        paa_into(&self.zbuf, &mut self.pbuf);
        for (s, &p) in self.symbols.iter_mut().zip(self.pbuf.iter()) {
            *s = self.alphabet.symbol(p);
        }
        &self.symbols
    }
    // gv-lint: end-hot
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random walk (no RNG dependency).
    fn lcg_walk(n: usize) -> Vec<f64> {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut level = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let step = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            level += step;
            out.push(level);
        }
        out
    }

    fn assert_strict_matches_batch(values: &[f64], w: usize, p: usize, a: usize) {
        let cfg = SaxConfig::new(w, p, a).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        for (i, &v) in values.iter().enumerate() {
            match inc.push(v) {
                None => assert!(i + 1 < w, "no word at point {i}"),
                Some(symbols) => {
                    let batch = cfg.word(&values[i + 1 - w..=i]).unwrap();
                    assert_eq!(
                        symbols,
                        batch.symbols(),
                        "window ending at {i} diverged from batch"
                    );
                }
            }
        }
    }

    #[test]
    fn strict_is_bit_identical_to_batch_divisible() {
        let values: Vec<f64> = (0..600).map(|i| (i as f64 / 17.0).sin()).collect();
        assert_strict_matches_batch(&values, 60, 4, 4);
        assert_strict_matches_batch(&values, 16, 4, 6);
    }

    #[test]
    fn strict_is_bit_identical_to_batch_non_divisible() {
        let values: Vec<f64> = (0..400)
            .map(|i| (i as f64 / 9.0).cos() * 3.0 + 1.0)
            .collect();
        assert_strict_matches_batch(&values, 10, 3, 5);
        assert_strict_matches_batch(&values, 23, 7, 4);
    }

    #[test]
    fn strict_is_bit_identical_on_random_walk() {
        let values = lcg_walk(800);
        assert_strict_matches_batch(&values, 50, 5, 8);
        assert_strict_matches_batch(&values, 31, 4, 3);
    }

    #[test]
    fn strict_handles_flat_and_tiny_windows() {
        let flat = vec![2.5; 40];
        assert_strict_matches_batch(&flat, 8, 4, 4);
        let values: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_strict_matches_batch(&values, 1, 1, 4);
        assert_strict_matches_batch(&values, 2, 1, 4);
    }

    #[test]
    fn warmup_emits_nothing_then_every_push() {
        let cfg = SaxConfig::new(12, 3, 4).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        for i in 0..11 {
            assert!(inc.push(i as f64).is_none());
        }
        for i in 11..40 {
            assert!(inc.push(i as f64).is_some());
        }
    }

    #[test]
    fn capacity_signature_freezes_after_construction() {
        let cfg = SaxConfig::new(32, 4, 4).unwrap();
        let mut inc = IncrementalDiscretizer::new(&cfg);
        let sig = inc.capacity_signature();
        for i in 0..10_000 {
            inc.push((i as f64 / 7.0).sin());
        }
        assert_eq!(sig, inc.capacity_signature());
    }
}
