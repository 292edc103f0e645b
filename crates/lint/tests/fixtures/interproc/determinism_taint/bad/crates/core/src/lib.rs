//! Bad: a nondeterministic value (the current thread's handle) is minted
//! in a private helper and flows through a return into the ranking that
//! the detector's results depend on. No clippy lint sees it:
//! `disallowed_methods` bans only `Instant::now`/`SystemTime::now`, and
//! `disallowed_types` only the hash containers.

use std::thread;

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
    let bias = tie_break();
    vec![bias % data.len().max(1)]
}

/// Mints the taint: which thread runs this changes the result.
fn tie_break() -> usize {
    let handle = thread::current();
    format!("{:?}", handle.id()).len()
}
