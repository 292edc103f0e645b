//! `recorder-gate`: decision-level emits sit behind `detailed()`.
//!
//! PR 2's level-2 telemetry (histograms, event rings) is free only
//! because every emit is gated on `Recorder::detailed()` — a
//! compile-time `false` for `NoopRecorder`. An ungated `record_event` /
//! `record_value` / `record_histogram` / `record_events` call in a
//! library crate pays for event construction even when nobody is
//! listening, and on the distance path that is a per-call cost.
//!
//! The check is lexical: an emit call must have an enclosing `fn` whose
//! body mentions the gate before the call site — `detailed` (a direct
//! check), `detail` (the cached `let detail = recorder.detailed()`
//! pattern in the RRA search), or `armed` (the obs timer-carried gate,
//! `DetailTimer::armed`). Fixture tests pin this contract.

use super::{violation_at, Rule};
use crate::source::{enclosing_fn_start, FileKind, SourceFile};
use crate::violation::{LintViolation, RuleId};

/// Emit methods that are only meaningful under `detailed()`.
const GATED_METHODS: &[&str] = &[
    "record_value",
    "record_event",
    "record_histogram",
    "record_events",
];

/// Idents accepted as evidence of the gate within the enclosing fn.
const GATE_IDENTS: &[&str] = &["detailed", "detail", "armed"];

/// See module docs.
pub struct RecorderGate;

impl Rule for RecorderGate {
    fn id(&self) -> RuleId {
        RuleId::RecorderGate
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<LintViolation>) {
        if file.kind != FileKind::LibSrc || file.crate_name == "obs" {
            return;
        }
        let tokens = file.tokens();
        for (i, t) in tokens.iter().enumerate() {
            let line = t.line;
            if file.is_test_line(line) {
                continue;
            }
            let is_emit = GATED_METHODS
                .iter()
                .any(|name| super::is_method_call(file, i, name));
            if !is_emit {
                continue;
            }
            let gated = match enclosing_fn_start(file, i) {
                Some(fn_idx) => (fn_idx..i).any(|k| GATE_IDENTS.contains(&file.tok_text(k))),
                None => false,
            };
            if !gated {
                out.push(violation_at(
                    file,
                    self.id(),
                    i,
                    format!(
                        "`.{}()` without a visible `detailed()` gate in the enclosing \
                         function — detailed-only emits must be guarded",
                        file.tok_text(i)
                    ),
                ));
            }
        }
    }
}
