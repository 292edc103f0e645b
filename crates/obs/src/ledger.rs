//! Append-only run ledger: cross-run drift detection for *results*.
//!
//! The benchmark (`gvbench/`) catches timing regressions; nothing catches
//! the quieter failure where a refactor changes *what the detector
//! finds*. The ledger closes that gap: every `Detector::detect` invocation and monitor
//! session can append one `ledger` record to a JSONL file carrying
//!
//! - a **config fingerprint** (window/paa/alphabet/top-k and the detector
//!   label, FNV-1a-hashed),
//! - an **input digest** over the raw series values (bit-exact —
//!   `f64::to_bits`, so `-0.0` vs `0.0` and NaN payloads all count),
//! - the short **git SHA** of the producing tree,
//! - wall time and the **top-k result digest** (ranked positions, lengths,
//!   and distance bits).
//!
//! Two records with the same config fingerprint and input digest but
//! different result digests mean the detector's output drifted between
//! those SHAs — exactly the regression the gv-check differential can then
//! be pointed at. `gv check --ledger` performs that scan (see
//! `gv_check::ledger`).
//!
//! Digests are 64-bit FNV-1a: collision-safe enough for drift *detection*
//! (a miss needs a 1-in-2⁶⁴ collision on identical inputs), dependency-free,
//! and deterministic across platforms.

use crate::trace::{write_json_string, SCHEMA_VERSION};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher for ledger digests. Deterministic
/// across platforms and runs — no `DefaultHasher` random keys.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write_bytes(&value.to_le_bytes())
    }

    /// Absorbs an `f64` bit-exactly (`to_bits`, so every NaN payload and
    /// signed zero is distinguished — drift detection must not normalize).
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        self.write_u64(value.to_bits())
    }

    /// Absorbs a string (UTF-8 bytes plus a length terminator so
    /// `("ab","c")` and `("a","bc")` hash differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes());
        self.write_u64(s.len() as u64)
    }

    /// The digest so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Digest of a raw series — the ledger's input identity.
pub fn digest_series(values: &[f64]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_u64(values.len() as u64);
    for &v in values {
        fp.write_f64(v);
    }
    fp.finish()
}

/// The short SHA of the current git HEAD, or `"unknown"` when git or the
/// repository is unavailable (ledgers must still append from a tarball).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run's provenance line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRecord {
    /// What ran (`"rra"`, `"density"`, `"monitor"`, …).
    pub label: String,
    /// Short git SHA of the producing tree (see [`git_sha`]).
    pub git_sha: String,
    /// Fingerprint over the run's parameters.
    pub config_fp: u64,
    /// Digest over the input series (see [`digest_series`]).
    pub input_digest: u64,
    /// Input length in points.
    pub points: u64,
    /// Wall-clock nanoseconds of the run (0 when not measured).
    pub wall_ns: u64,
    /// How many results the digest covers (top-k; alert count for
    /// monitor sessions).
    pub k: u64,
    /// Digest over the ranked results.
    pub result_digest: u64,
}

impl LedgerRecord {
    /// Encodes the record as one JSON line (no trailing newline).
    ///
    /// Schema 7 `ledger` record: `{"schema":7,"type":"ledger","label":str,
    /// "git_sha":str,"config_fp":int,"input_digest":int,"points":int,
    /// "wall_ns":int,"k":int,"result_digest":int}` — every key always
    /// present; digests are decimal `u64`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(224);
        let _ = write!(
            out,
            "{{\"schema\":{SCHEMA_VERSION},\"type\":\"ledger\",\"label\":"
        );
        write_json_string(&self.label, &mut out);
        out.push_str(",\"git_sha\":");
        write_json_string(&self.git_sha, &mut out);
        let _ = write!(
            out,
            ",\"config_fp\":{},\"input_digest\":{},\"points\":{},\"wall_ns\":{},\"k\":{},\"result_digest\":{}}}",
            self.config_fp, self.input_digest, self.points, self.wall_ns, self.k, self.result_digest
        );
        out
    }

    /// Appends this record as one line to `path`, creating the file if
    /// needed. Append-only by design — the ledger is a history, not a
    /// state file.
    ///
    /// # Errors
    /// I/O failure opening or writing the file.
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_deterministic_and_order_sensitive() {
        let mut a = Fingerprint::new();
        a.write_str("rra").write_u64(300).write_f64(1.5);
        let mut b = Fingerprint::new();
        b.write_str("rra").write_u64(300).write_f64(1.5);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write_u64(300).write_str("rra").write_f64(1.5);
        assert_ne!(a.finish(), c.finish());
        // Length framing keeps string boundaries distinct.
        let mut ab_c = Fingerprint::new();
        ab_c.write_str("ab").write_str("c");
        let mut a_bc = Fingerprint::new();
        a_bc.write_str("a").write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn series_digest_is_bit_exact() {
        let base = vec![1.0, 2.0, 3.0];
        assert_eq!(digest_series(&base), digest_series(&[1.0, 2.0, 3.0]));
        assert_ne!(
            digest_series(&base),
            digest_series(&[1.0, 2.0, 3.0 + 1e-15])
        );
        assert_ne!(digest_series(&[0.0]), digest_series(&[-0.0]));
        assert_ne!(digest_series(&[]), digest_series(&[0.0]));
    }

    #[test]
    fn record_jsonl_has_every_key() {
        let r = LedgerRecord {
            label: "rra".to_string(),
            git_sha: "abc1234".to_string(),
            config_fp: 17,
            input_digest: u64::MAX,
            points: 20_000,
            wall_ns: 84_000_000,
            k: 3,
            result_digest: 42,
        };
        let json = r.to_jsonl();
        assert!(json.starts_with(&format!(
            "{{\"schema\":{SCHEMA_VERSION},\"type\":\"ledger\""
        )));
        for key in [
            "label",
            "git_sha",
            "config_fp",
            "input_digest",
            "points",
            "wall_ns",
            "k",
            "result_digest",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} in {json}");
        }
        assert!(json.contains("\"input_digest\":18446744073709551615"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join("gv_obs_ledger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("l_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let r = LedgerRecord {
            label: "monitor".to_string(),
            git_sha: git_sha(),
            config_fp: 1,
            input_digest: 2,
            points: 3,
            wall_ns: 0,
            k: 0,
            result_digest: 4,
        };
        r.append(&path).unwrap();
        r.append(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
