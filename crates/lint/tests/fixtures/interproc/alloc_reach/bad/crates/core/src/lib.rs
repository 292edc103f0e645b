//! Bad: three ways a hot region grows a buffer on every push.
//!
//! - The region only makes a method call, but the callee pushes into a
//!   `Vec` — allocation one call deep.
//! - The region pushes into its own `Vec` directly.
//! - The region calls a workspace helper that happens to be named `push`,
//!   and that helper grows a `Vec`.

pub struct StreamingDetector {
    buf: Vec<f64>,
    log: Vec<f64>,
    window: Window,
}

/// A growing sample window.
pub struct Window {
    samples: Vec<f64>,
}

impl Window {
    /// Grows on every call.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }
}

impl StreamingDetector {
    pub fn push(&mut self, x: f64) {
        // gv-lint: hot
        self.record(x);
        self.log.push(x);
        self.window.push(x);
        // gv-lint: end-hot
    }

    /// Lexically innocent helper hiding the per-push growth.
    fn record(&mut self, x: f64) {
        self.buf.push(x);
    }
}
