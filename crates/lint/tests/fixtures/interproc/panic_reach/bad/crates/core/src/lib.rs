//! Bad: the public API panics two calls deep through an `assert!` that no
//! clippy lint names — `unwrap_used`, `expect_used` and `panic` match only
//! `unwrap`/`expect`/`panic!` — and every function here is locally clean.

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

/// Public entry point — no panic in sight at this level.
pub fn rank(data: &[f64]) -> Vec<usize> {
    let best = pick(data);
    vec![best]
}

/// Intermediate hop: still lexically clean.
fn pick(data: &[f64]) -> usize {
    narrowest(data)
}

/// The buried panic path: an `assert!` on caller input.
fn narrowest(data: &[f64]) -> usize {
    assert!(!data.is_empty(), "no candidates");
    data.len() - 1
}
