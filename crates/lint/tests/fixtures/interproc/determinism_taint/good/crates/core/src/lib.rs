//! Good: the same call shape, but the tie-break is a pure function of
//! the input — every run on every thread ranks identically.

/// The detector trait the engine roots on.
pub trait Detector {
    fn detect(&self, data: &[f64]) -> Vec<usize>;
}

pub struct GrammarDetector;

impl Detector for GrammarDetector {
    fn detect(&self, data: &[f64]) -> Vec<usize> {
        rank(data)
    }
}

/// Result-producing entry point.
pub fn rank(data: &[f64]) -> Vec<usize> {
    let bias = tie_break(data);
    vec![bias % data.len().max(1)]
}

/// Deterministic tie-break derived from the data itself.
fn tie_break(data: &[f64]) -> usize {
    data.len()
}
