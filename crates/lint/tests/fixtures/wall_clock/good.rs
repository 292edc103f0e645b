//! Fixture: timing flows through the obs layer's gate-carrying timers.

use gv_obs::{Recorder, SpanTimer, Stage};

/// Times one call through the recorder.
pub fn timed<R: Recorder, T>(recorder: &R, f: impl FnOnce() -> T) -> T {
    let timer = SpanTimer::start(recorder, None, Stage::Density);
    let out = f();
    timer.finish(recorder);
    out
}
