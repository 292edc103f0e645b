//! Good: the same three-hop call chain, but the deepest helper degrades
//! gracefully instead of asserting — no panic is reachable from the
//! public surface.

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

/// Public entry point.
pub fn rank(data: &[f64]) -> Vec<usize> {
    let best = pick(data);
    vec![best]
}

/// Intermediate hop.
fn pick(data: &[f64]) -> usize {
    narrowest(data)
}

/// Empty input degrades to index 0 instead of panicking.
fn narrowest(data: &[f64]) -> usize {
    data.len().saturating_sub(1)
}
