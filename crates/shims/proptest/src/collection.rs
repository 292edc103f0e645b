//! Collection strategies (the subset of `proptest::collection` used here).

use crate::{Strategy, TestRng};
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Acceptable size specifications for [`vec()`].
pub trait SizeRange {
    /// Draws a concrete length.
    fn sample_len(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn sample_len(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn sample_len(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// A strategy producing `Vec`s whose elements come from `element` and whose
/// length is drawn from `size`.
pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
    VecStrategy { element, size }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S, Z> {
    element: S,
    size: Z,
}

impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.sample_len(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
