//! # gv-obs — zero-overhead pipeline instrumentation
//!
//! Span timers, hot-path counters, and JSONL trace export for the
//! SAX → Sequitur → density/RRA anomaly pipeline.
//!
//! The crate is deliberately **std-only and dependency-free**: it sits
//! under every other crate in the workspace, including the innermost
//! distance kernels, and must never drag a serialization or logging stack
//! into those builds (the build environment also resolves crates offline,
//! so the JSON encoding is hand-rolled; see [`PipelineTrace::to_jsonl`]).
//!
//! ## Design
//!
//! Instrumented code is generic over a [`Recorder`]. The default
//! [`NoopRecorder`] has empty `#[inline]` methods and reports
//! `enabled() == false`, so after monomorphization an uninstrumented call
//! compiles to exactly the uninstrumented code — no branches, no
//! `Instant::now()`, no atomic traffic on the hot path. The one real
//! recorder, [`LocalRecorder`], is `Cell`-based: plain register
//! arithmetic, the same cost as an ad-hoc `u64` counter. Every search
//! tallies into a search-local `LocalRecorder` (one per worker thread
//! when the search runs in parallel), derives its `SearchStats` from it,
//! and merges it into the caller's sink once, at the loop boundary.
//!
//! A finished run is snapshotted into a [`PipelineTrace`], which renders
//! either as a text table (CLI `--trace`) or as a single JSONL line
//! (CLI `--metrics`).
//!
//! ```
//! use gv_obs::{Counter, LocalRecorder, Recorder, SpanTimer, Stage};
//!
//! let rec = LocalRecorder::new();
//! let timer = SpanTimer::start(&rec, Stage::Density);
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
//! the RRA loops and the distance kernels. Both live on [`Detail`], which
//! code outside this crate reaches only through [`Recorder::detail`]: an
//! ungated emit does not compile, and the gate is a compile-time `None`
//! on [`NoopRecorder`], so the uninstrumented hot path still never reads
//! the clock.

//! ## Level 3: hierarchical spans
//!
//! [`Span`]s are the one stored timing. They answer *how long* (per-stage
//! sums and the root total are derived from the tree at export) and
//! *where*: a recorder keeps one `(total_ns, count)` tally per [`Stage`],
//! and a snapshot lays the stages that ran out on the pipeline's fixed
//! tree, written once as [`Stage::parent`] — each under its nearest
//! ancestor that ran, rooted at [`Stage::Detect`] when a detector ran,
//! with self-time derived structurally (parent total minus children
//! totals). Merging recorders sums the tallies, so per-worker recorders
//! yield a [`SpanTree`] that is bit-identical across thread counts — the
//! same contract the parallel RRA search honors for its ranks. The tree
//! exports as a schema-3 JSONL array. [`Recorder::record_span`] defaults
//! to a no-op, and [`NoopRecorder`] never arms a [`SpanTimer`], so the
//! zero-overhead contract is untouched.

//! ## Level 4: live monitoring, SLOs, and the run ledger
//!
//! One-shot traces answer "what did this run do"; a fleet needs "how is
//! this stream behaving *over time*, is that within budget, and did an
//! upgrade change the results?" Three pieces, all schema-5 JSONL:
//!
//! - [`WindowedAggregator`] keeps the previous cumulative totals and
//!   differences each new snapshot against them into one [`WindowStats`]
//!   (counter deltas, token and discord rates, throughput) — contents
//!   deterministic and thread-count-invariant unless the caller passes
//!   measured wall time;
//! - [`HealthEngine`] grades each window against typed SLO
//!   [`HealthRule`]s into `Healthy`/`Degraded`/`Breached` [`Verdict`]s,
//!   loadable from a flat `key = value` config file;
//! - [`LedgerRecord`] appends per-run provenance (config fingerprint,
//!   input digest, git SHA, result digest) so cross-run result drift is
//!   detectable, not just timing drift.
//!
//! The CLI's `gv monitor` subcommand drives all three over a live stream.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

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

pub use event::{Event, EventKind, EventRing};
pub use health::{HealthEngine, HealthReport, HealthRule, RuleOutcome, Verdict};
pub use histogram::Histogram;
pub use ledger::{digest_series, git_sha, Fingerprint, LedgerRecord};
pub use local::LocalRecorder;
pub use recorder::{Detail, NoopRecorder, Recorder};
pub use span::{Span, SpanTree};
pub use stage::{Counter, Metric, Stage};
pub use timer::{DetailTimer, SpanTimer, Stopwatch};
pub use trace::{format_json_f64, PipelineTrace, SCHEMA_VERSION};
pub use window::{WindowStats, WindowedAggregator};
