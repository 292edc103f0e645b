//! Check 6 — run-ledger digest verification: cross-run result drift.
//!
//! The obs-side [`gv_obs::LedgerRecord`] appends one provenance line per
//! detector run (config fingerprint, input digest, git SHA, top-k result
//! digest). This module reads a ledger back and scans it for the failure
//! the record exists to catch: **two runs over the same config and the
//! same input whose results differ** — a detector whose output drifted
//! between commits with nobody noticing. `gv check --ledger PATH` runs
//! the scan from the CLI.

use gv_obs::LedgerRecord;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome of a ledger drift scan.
#[derive(Debug, Clone, Default)]
pub struct LedgerReport {
    /// Total records scanned.
    pub records: usize,
    /// Distinct `(label, config_fp, input_digest, points, k)` run groups.
    pub groups: usize,
    /// Human-readable drift descriptions; empty means no drift.
    pub issues: Vec<String>,
}

impl LedgerReport {
    /// `true` when every group's result digests agree.
    pub fn passed(&self) -> bool {
        self.issues.is_empty()
    }

    /// Renders the pass/fail summary the CLI prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "{verdict}  ledger-drift ({} records, {} run groups)",
            self.records, self.groups
        );
        for issue in &self.issues {
            let _ = writeln!(out, "      {issue}");
        }
        out
    }
}

/// Scans ledger records for result drift: within each
/// `(label, config_fp, input_digest, points, k)` group, every
/// `result_digest` must agree. A disagreement names the group and each
/// digest with the git SHAs that produced it, so the offending commit
/// range is immediately visible.
pub fn scan_records(records: &[LedgerRecord]) -> LedgerReport {
    /// The drift-scan grouping key: `(label, config_fp, input_digest, points, k)`.
    type RunKey = (String, u64, u64, u64, u64);
    /// Result digests seen within one group, each with its producing SHAs.
    type DigestShas = BTreeMap<u64, Vec<String>>;
    // BTreeMap: deterministic group and issue order.
    let mut groups: BTreeMap<RunKey, DigestShas> = BTreeMap::new();
    for r in records {
        groups
            .entry((r.label.clone(), r.config_fp, r.input_digest, r.points, r.k))
            .or_default()
            .entry(r.result_digest)
            .or_default()
            .push(r.git_sha.clone());
    }
    let mut issues = Vec::new();
    for ((label, config_fp, input_digest, points, k), digests) in &groups {
        if digests.len() <= 1 {
            continue;
        }
        let variants: Vec<String> = digests
            .iter()
            .map(|(digest, shas)| format!("{digest} (git {})", shas.join(", ")))
            .collect();
        issues.push(format!(
            "result drift for label {label:?} config_fp {config_fp} input_digest {input_digest} \
             points {points} k {k}: {} distinct result digests: {}",
            digests.len(),
            variants.join(" vs ")
        ));
    }
    LedgerReport {
        records: records.len(),
        groups: groups.len(),
        issues,
    }
}

/// Loads every ledger record from a JSONL file, in file order.
///
/// # Errors
/// I/O failure or the first malformed line (with its line number).
pub fn load_ledger(path: &Path) -> Result<Vec<LedgerRecord>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    body.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_line(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// Parses one ledger JSONL line back into the record that wrote it.
///
/// # Errors
/// A message naming the missing or mistyped field, a non-`ledger`
/// record type, or a schema mismatch.
fn parse_line(line: &str) -> Result<LedgerRecord, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let kind = str_field(&v, "type")?;
    if kind != "ledger" {
        return Err(format!("not a ledger record (type {kind:?})"));
    }
    let schema = u64_field(&v, "schema")?;
    if schema != gv_obs::SCHEMA_VERSION {
        return Err(format!(
            "schema {schema}, expected {}",
            gv_obs::SCHEMA_VERSION
        ));
    }
    Ok(LedgerRecord {
        label: str_field(&v, "label")?.to_string(),
        git_sha: str_field(&v, "git_sha")?.to_string(),
        config_fp: u64_field(&v, "config_fp")?,
        input_digest: u64_field(&v, "input_digest")?,
        points: u64_field(&v, "points")?,
        wall_ns: u64_field(&v, "wall_ns")?,
        k: u64_field(&v, "k")?,
        result_digest: u64_field(&v, "result_digest")?,
    })
}

/// Loads a ledger file and scans it for drift — the `gv check --ledger`
/// entry point.
///
/// # Errors
/// I/O failure or a malformed line; drift itself is reported in the
/// returned [`LedgerReport`], not as an `Err`.
pub fn verify_ledger(path: &Path) -> Result<LedgerReport, String> {
    Ok(scan_records(&load_ledger(path)?))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    match v.field(key) {
        Ok(Value::Str(s)) => Ok(s),
        _ => Err(format!("missing or non-string field {key:?}")),
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    match v.field(key) {
        Ok(Value::U64(n)) => Ok(*n),
        _ => Err(format!("missing or non-integer field {key:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, sha: &str, result_digest: u64) -> LedgerRecord {
        LedgerRecord {
            label: label.to_string(),
            git_sha: sha.to_string(),
            config_fp: 11,
            input_digest: 22,
            points: 1000,
            wall_ns: 0,
            k: 3,
            result_digest,
        }
    }

    #[test]
    fn obs_record_round_trips_through_parser() {
        let r = record("rra", "abc1234", 99);
        assert_eq!(parse_line(&r.to_jsonl()).unwrap(), r);
    }

    #[test]
    fn parser_rejects_foreign_and_stale_records() {
        assert!(parse_line("{\"type\":\"bench\"}").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line(&"[".repeat(100_000)).is_err());
        // Not JSON: a signed `\u` escape, a leading zero, a raw tab.
        let line = record("rra", "abc", 1).to_jsonl();
        for lenient in [
            line.replacen(r#""label":"rra""#, r#""label":"\u+041x""#, 1),
            line.replacen(r#""config_fp":11"#, r#""config_fp":01"#, 1),
            line.replacen(r#""label":"rra""#, "\"label\":\"r\ta\"", 1),
        ] {
            assert_ne!(lenient, line);
            assert!(parse_line(&lenient).is_err(), "{lenient}");
        }
        let stale = record("rra", "abc", 1).to_jsonl().replacen(
            &format!("\"schema\":{}", gv_obs::SCHEMA_VERSION),
            "\"schema\":1",
            1,
        );
        assert!(parse_line(&stale).unwrap_err().contains("schema"));
    }

    #[test]
    fn agreeing_runs_pass_drifting_runs_fail() {
        // Same group, same digest, different SHAs: fine.
        let ok = scan_records(&[record("rra", "aaa1111", 7), record("rra", "bbb2222", 7)]);
        assert!(ok.passed());
        assert_eq!((ok.records, ok.groups), (2, 1));

        // Same group, different digests: drift, naming both SHAs.
        let drift = scan_records(&[record("rra", "aaa1111", 7), record("rra", "bbb2222", 8)]);
        assert!(!drift.passed());
        assert_eq!(drift.issues.len(), 1);
        assert!(drift.issues[0].contains("aaa1111"), "{}", drift.issues[0]);
        assert!(drift.issues[0].contains("bbb2222"));
        assert!(drift.render().starts_with("FAIL"));

        // Different labels are different groups — no cross-contamination.
        let separate =
            scan_records(&[record("rra", "aaa1111", 7), record("density", "aaa1111", 8)]);
        assert!(separate.passed());
        assert_eq!(separate.groups, 2);
    }

    #[test]
    fn load_and_verify_round_trip() {
        let dir = std::env::temp_dir().join("gv_check_ledger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ledger_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        record("rra", "aaa1111", 7).append(&path).unwrap();
        record("rra", "bbb2222", 9).append(&path).unwrap();
        let report = verify_ledger(&path).unwrap();
        assert!(!report.passed());
        assert_eq!(report.records, 2);
        std::fs::remove_file(&path).unwrap();

        assert!(verify_ledger(Path::new("/nonexistent/ledger.jsonl")).is_err());
    }
}
