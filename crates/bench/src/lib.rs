//! # gv-bench
//!
//! Report binaries regenerating every table and figure of the EDBT'15
//! paper (one `bin/` per table/figure), the ablations, and two gates: the
//! `streaming_throughput` flatness check and the `validate_jsonl` schema
//! check. Performance is measured by the repository benchmark in
//! `gvbench/`, not here.

#![warn(missing_docs)]

pub mod report;
