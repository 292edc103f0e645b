//! Mini fixture crate: one surviving violation, one inline allow, one
//! unused allow.

/// Survives: an exact float comparison with no allow.
pub fn first(d: f64) -> bool {
    d == 0.0
}

/// Suppressed by the inline allow on the next line.
pub fn second(d: f64) -> bool {
    // gv-lint: allow(no-float-eq) fixture: inline allow round-trip
    d != 1.0
}

/// Carries an allow that excuses nothing.
pub fn third() -> u32 {
    // gv-lint: allow(no-float-eq) fixture: unused allow that must rot loudly
    1 + 1
}
