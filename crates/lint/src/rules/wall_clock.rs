//! `no-wall-clock-outside-obs`: timing flows through the `Recorder`.
//!
//! PR 1's zero-overhead contract holds because the obs layer owns every
//! clock read — `SpanTimer` and `DetailTimer` gate on
//! `Recorder::enabled`/`detailed`, so a `NoopRecorder` pipeline never
//! touches `Instant::now()`. A direct `Instant`/`SystemTime` use in a
//! library crate bypasses that gate and silently re-times the hot path.
//! Bench binaries are exempt (they exist to measure wall time), as is
//! the obs crate itself.

use super::{violation_at, Rule, CLOCK_CRATES};
use crate::lexer::TokenKind;
use crate::source::{FileKind, SourceFile};
use crate::violation::{LintViolation, RuleId};

/// See module docs.
pub struct NoWallClockOutsideObs;

impl Rule for NoWallClockOutsideObs {
    fn id(&self) -> RuleId {
        RuleId::NoWallClockOutsideObs
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<LintViolation>) {
        if CLOCK_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        if !matches!(file.kind, FileKind::LibSrc | FileKind::BinSrc) {
            return;
        }
        for (i, t) in file.tokens().iter().enumerate() {
            if t.kind != TokenKind::Ident || file.is_test_line(t.line) {
                continue;
            }
            let text = file.tok_text(i);
            if text == "Instant" || text == "SystemTime" {
                out.push(violation_at(
                    file,
                    self.id(),
                    i,
                    format!(
                        "`{text}` outside the obs layer — route timing through \
                         `Recorder` (`SpanTimer`, `DetailTimer`)"
                    ),
                ));
            }
        }
    }
}
