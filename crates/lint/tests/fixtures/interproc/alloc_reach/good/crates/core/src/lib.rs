//! Good: the same hot region with the same call shapes, but nothing on
//! any path allocates — the helper and the region write into fixed-size
//! state, and the `push`-named helper overwrites a preallocated ring.

pub struct StreamingDetector {
    last: f64,
    count: u64,
    window: Window,
}

/// A fixed-capacity ring of samples.
pub struct Window {
    samples: [f64; 8],
    head: usize,
}

impl Window {
    /// Overwrites the oldest sample; never grows.
    pub fn push(&mut self, x: f64) {
        self.samples[self.head] = x;
        self.head = (self.head + 1) % self.samples.len();
    }
}

impl StreamingDetector {
    pub fn push(&mut self, x: f64) {
        // gv-lint: hot
        self.record(x);
        self.count += 1;
        // gv-lint: allow(alloc-reachability) Window::push overwrites a fixed ring; only the name matches std growth
        self.window.push(x);
        // gv-lint: end-hot
    }

    /// Fixed-size state only; no growth on any push.
    fn record(&mut self, x: f64) {
        self.last = x;
    }
}
