//! Pipeline configuration.

use gv_sax::{NumerosityReduction, SaxConfig};

use crate::error::Result;

/// Configuration for the grammar-driven anomaly pipeline: the paper's
/// discretization triple `(W, P, A)` plus the numerosity-reduction
/// strategy and RNG seed for the randomized visit orders.
///
/// Per §4, these discretization parameters are the *only* configuration
/// the algorithms need — no anomaly length, shape, or frequency.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    sax: SaxConfig,
    nr: NumerosityReduction,
    seed: u64,
}

impl PipelineConfig {
    /// Builds a configuration from the paper's `(window, paa, alphabet)`
    /// triple with the default (exact) numerosity reduction.
    ///
    /// # Errors
    /// [`crate::Error::InvalidParameter`] for a zero window; other invalid
    /// SAX parameters as [`crate::Error::Sax`].
    pub fn new(window: usize, paa: usize, alphabet: usize) -> Result<Self> {
        Ok(Self {
            sax: SaxConfig::new(window, paa, alphabet)?,
            nr: NumerosityReduction::Exact,
            seed: 0x6AA,
        })
    }

    /// Overrides the numerosity-reduction strategy.
    pub fn with_numerosity_reduction(mut self, nr: NumerosityReduction) -> Self {
        self.nr = nr;
        self
    }

    /// Overrides the RNG seed used by RRA's randomized inner ordering.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The SAX configuration.
    pub fn sax(&self) -> &SaxConfig {
        &self.sax
    }

    /// The numerosity-reduction strategy.
    pub fn numerosity_reduction(&self) -> NumerosityReduction {
        self.nr
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sliding-window length `W`.
    pub fn window(&self) -> usize {
        self.sax.window()
    }

    /// PAA size `P`.
    pub fn paa(&self) -> usize {
        self.sax.paa_size()
    }

    /// Alphabet size `A`.
    pub fn alphabet(&self) -> usize {
        self.sax.alphabet_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let c = PipelineConfig::new(100, 5, 4).unwrap();
        assert_eq!((c.window(), c.paa(), c.alphabet()), (100, 5, 4));
        assert_eq!(c.numerosity_reduction(), NumerosityReduction::Exact);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            PipelineConfig::new(0, 5, 4),
            Err(crate::Error::InvalidParameter(_))
        ));
        assert!(PipelineConfig::new(100, 0, 4).is_err());
        assert!(PipelineConfig::new(100, 101, 4).is_err());
        assert!(PipelineConfig::new(100, 5, 1).is_err());
    }

    #[test]
    fn builders() {
        let c = PipelineConfig::new(64, 4, 3)
            .unwrap()
            .with_numerosity_reduction(NumerosityReduction::MinDist)
            .with_seed(99);
        assert_eq!(c.numerosity_reduction(), NumerosityReduction::MinDist);
        assert_eq!(c.seed(), 99);
    }
}
