//! # gv-obs — zero-overhead pipeline instrumentation
//!
//! Span timers, hot-path counters, and JSONL trace export for the
//! SAX → Sequitur → density/RRA anomaly pipeline.
//!
//! The crate is deliberately **std-only and dependency-free**: it sits
//! under every other crate in the workspace, including the innermost
//! distance kernels, and must never drag a serialization or logging stack
//! into those builds (the build environment also resolves crates offline,
//! so the JSON encoding is hand-rolled in [`trace`]).
//!
//! ## Design
//!
//! Instrumented code is generic over a [`Recorder`]. The default
//! [`NoopRecorder`] has empty `#[inline]` methods and reports
//! `enabled() == false`, so after monomorphization an uninstrumented call
//! compiles to exactly the uninstrumented code — no branches, no
//! `Instant::now()`, no atomic traffic on the hot path. Two real
//! recorders cover the two sharing patterns in the workspace:
//!
//! - [`LocalRecorder`] — `Cell`-based, for single-threaded hot loops
//!   (plain register arithmetic, same cost as an ad-hoc `u64` counter);
//! - [`CollectingRecorder`] — atomics behind an `Arc`, cloneable across
//!   the parallel sweep's worker threads.
//!
//! A finished run is snapshotted into a [`PipelineTrace`], which renders
//! either as a text table (CLI `--trace`) or as a single JSONL line
//! (CLI `--metrics`, bench trajectory files).
//!
//! ```
//! use gv_obs::{Counter, LocalRecorder, Recorder, SpanTimer, Stage};
//!
//! let rec = LocalRecorder::new();
//! let timer = SpanTimer::start(&rec, None, Stage::Density);
//! let sum: u64 = (0..10u64).sum();
//! timer.finish(&rec);
//! rec.add(Counter::DistanceCalls, sum);
//! let trace = rec.snapshot("example");
//! assert_eq!(trace.counter(Counter::DistanceCalls), 45);
//! assert_eq!(trace.spans.get("density").unwrap().count, 1);
//! assert_eq!(trace.stage_nanos(Stage::Density), trace.total_nanos());
//! assert!(trace.to_jsonl().contains("\"distance_calls\":45"));
//! ```

//! ## Level 2: decision-level telemetry
//!
//! On top of the PR-1 counters, recorders can capture *distributions* and
//! *decisions*: a log-linear [`Histogram`] per [`Metric`] (per-call
//! distance nanoseconds, candidate lengths, rule-use counts, abandon
//! positions) and a bounded [`EventRing`] of structured [`Event`]s from
//! the RRA loops and streaming flushes. Both gate on
//! [`Recorder::detailed`], which is `false` on [`NoopRecorder`], so the
//! uninstrumented hot path still never reads the clock.

//! ## Level 3: hierarchical spans
//!
//! [`Span`]s are the one stored timing. They answer *how long* (per-stage
//! sums and the root total are derived from the tree at export) and
//! *where*: stages form an explicit parent/child tree rooted at
//! [`Stage::Detect`], with self-time derived structurally (parent total
//! minus children totals). Nodes are keyed by `(parent, stage)` so the tree's shape is a
//! function of the code path — per-worker subtrees merged under a stable
//! key yield a [`SpanTree`] that is bit-identical across thread counts,
//! the same contract the parallel RRA search honors for its ranks. The
//! tree exports as a schema-3 JSONL array and as collapsed-stack text for
//! standard flamegraph tooling ([`SpanTree::collapsed`]). All span
//! methods default to no-ops and return `None` on [`NoopRecorder`], so
//! the zero-overhead contract is untouched.

//! ## Level 4: live monitoring, SLOs, and the run ledger
//!
//! One-shot traces answer "what did this run do"; a fleet needs "how is
//! this stream behaving *over time*, is that within budget, and did an
//! upgrade change the results?" Three pieces, all schema-4 JSONL:
//!
//! - [`WindowedAggregator`] differences periodic cumulative snapshots
//!   into a bounded ring of per-window [`WindowStats`] deltas (counter
//!   rates, latency quantiles, span shares, discord rate) — contents
//!   deterministic and thread-count-invariant unless wall-clock timing is
//!   explicitly enabled;
//! - [`HealthEngine`] grades each window against typed SLO
//!   [`HealthRule`]s into `Healthy`/`Degraded`/`Breached` [`Verdict`]s,
//!   loadable from a flat `key = value` config file;
//! - [`LedgerRecord`] appends per-run provenance (config fingerprint,
//!   input digest, git SHA, result digest) so cross-run result drift is
//!   detectable, not just timing drift.
//!
//! The CLI's `gv monitor` subcommand drives all three over a live stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collecting;
mod event;
mod health;
mod histogram;
mod ledger;
mod local;
mod recorder;
mod span;
mod stage;
mod timer;
mod trace;
mod window;

pub use collecting::CollectingRecorder;
pub use event::{Event, EventKind, EventRing};
pub use health::{HealthEngine, HealthReport, HealthRule, RuleOutcome, Verdict};
pub use histogram::Histogram;
pub use ledger::{digest_series, git_sha, Fingerprint, LedgerRecord};
pub use local::LocalRecorder;
pub use recorder::{NoopRecorder, Recorder};
pub use span::{Span, SpanId, SpanSet, SpanTree};
pub use stage::{Counter, Metric, Stage};
pub use timer::{DetailTimer, SpanTimer, Stopwatch};
pub use trace::{PipelineTrace, SCHEMA_VERSION};
pub use window::{WindowStats, WindowedAggregator};
