//! The lint engine: walks the workspace, runs every rule over every
//! analyzed file, applies inline allows and the baseline, and produces a
//! [`LintReport`] with a per-rule tally.

use crate::baseline::Baseline;
use crate::callgraph::WorkspaceModel;
use crate::rules::{all_rules, workspace_rules, Rule};
use crate::source::{FileKind, SourceFile};
use crate::violation::{LintViolation, RuleId, ALL_RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Directories never descended into. `fixtures` holds known-bad lint
/// corpus files; `shims` is vendored third-party API surface.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "shims", ".claude"];

/// The outcome of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Surviving violations (not allowed, not baselined), sorted by
    /// file, line, then rule.
    pub violations: Vec<LintViolation>,
    /// Per-rule surviving-violation tally; every active rule has an
    /// entry, including zeroes, so regressions diff cleanly in CI logs.
    pub tally: BTreeMap<&'static str, usize>,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Findings suppressed by inline `allow` directives.
    pub inline_allowed: usize,
    /// Findings suppressed by the checked-in baseline.
    pub baselined: usize,
}

impl LintReport {
    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint engine errors (I/O and configuration).
#[derive(Debug)]
pub enum EngineError {
    /// A filesystem read failed.
    Io {
        /// Path being read.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The baseline file exists but does not parse.
    Baseline(String),
    /// `root` does not look like the workspace root.
    NotAWorkspace(PathBuf),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            EngineError::Baseline(msg) => write!(f, "baseline: {msg}"),
            EngineError::NotAWorkspace(p) => write!(
                f,
                "{}: not a workspace root (no Cargo.toml with [workspace])",
                p.display()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Classifies a workspace-relative path into crate name and file role.
///
/// Returns `None` for files the linter does not police (non-Rust files
/// are filtered earlier; this only rejects unrecognized layouts).
pub fn classify(rel: &str) -> Option<(String, FileKind)> {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["src", ..] => Some(("grammarviz".into(), FileKind::LibSrc)),
        ["tests", ..] => Some(("grammarviz".into(), FileKind::TestSrc)),
        ["examples", ..] => Some(("grammarviz".into(), FileKind::Example)),
        ["crates", krate, "src", "bin", ..] => Some((
            (*krate).into(),
            if *krate == "bench" {
                FileKind::BenchSrc
            } else {
                FileKind::BinSrc
            },
        )),
        ["crates", krate, "src", ..] => Some((
            (*krate).into(),
            match *krate {
                "cli" => FileKind::BinSrc,
                "bench" => FileKind::BenchSrc,
                _ => FileKind::LibSrc,
            },
        )),
        ["crates", krate, "tests", ..] => Some(((*krate).into(), FileKind::TestSrc)),
        ["crates", krate, "examples", ..] => Some(((*krate).into(), FileKind::Example)),
        _ => None,
    }
}

/// Runs the full rule set over the workspace at `root`.
///
/// Reads `lint.toml` at the root when present. Violations suppressed by
/// inline allows or baseline entries are counted, not listed; unused
/// allows and stale baseline entries are themselves `lint-directive`
/// violations, so suppression can only ever be deliberate and current.
///
/// # Errors
/// I/O failures, a malformed baseline, or a `root` that is not the
/// workspace root.
pub fn run(root: &Path) -> Result<LintReport, EngineError> {
    run_full(root).map(|(report, _)| report)
}

/// Like [`run`], but also returns the parsed baseline with its per-entry
/// usage marks populated — `--prune-baseline` rewrites `lint.toml` from
/// exactly this state, so what it keeps is what a lint run still needs.
pub fn run_full(root: &Path) -> Result<(LintReport, Baseline), EngineError> {
    let manifest = root.join("Cargo.toml");
    let manifest_text = std::fs::read_to_string(&manifest).map_err(|source| EngineError::Io {
        path: manifest.clone(),
        source,
    })?;
    if !manifest_text.contains("[workspace]") {
        return Err(EngineError::NotAWorkspace(root.to_path_buf()));
    }

    let baseline_path = root.join("lint.toml");
    let baseline = if baseline_path.exists() {
        let text = std::fs::read_to_string(&baseline_path).map_err(|source| EngineError::Io {
            path: baseline_path.clone(),
            source,
        })?;
        Baseline::parse(&text).map_err(EngineError::Baseline)?
    } else {
        Baseline::default()
    };

    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    // Pass 1: load and analyze every file up front — the workspace rules
    // need all of them at once to build the call graph.
    let mut sources: Vec<SourceFile> = Vec::new();
    for path in &files {
        let rel = relative_slash_path(root, path);
        let Some((crate_name, kind)) = classify(&rel) else {
            continue;
        };
        let text = std::fs::read_to_string(path).map_err(|source| EngineError::Io {
            path: path.clone(),
            source,
        })?;
        sources.push(SourceFile::analyze(&rel, &crate_name, kind, text));
    }

    let mut report = LintReport {
        files_scanned: sources.len(),
        ..Default::default()
    };
    for rule in ALL_RULES {
        report.tally.insert(rule.as_str(), 0);
    }
    report.tally.insert(RuleId::LintDirective.as_str(), 0);

    // Per-file lexical rules, then the interprocedural pass 2.
    let rules = all_rules();
    let mut raw: Vec<LintViolation> = Vec::new();
    for file in &sources {
        for rule in &rules {
            rule.check(file, &mut raw);
        }
    }
    let model = WorkspaceModel::build(&sources);
    for rule in workspace_rules() {
        rule.check(&model, &baseline, &mut raw);
    }

    // One unified suppression pass. An inline allow suppresses a finding
    // of its rule on its target line — or, for chained (interprocedural)
    // findings, on any link of the chain. Baseline entries match the
    // primary site. Allows that suppress nothing are themselves findings.
    let file_index: BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel_path.as_str(), i))
        .collect();
    let mut allow_used: Vec<Vec<bool>> = sources
        .iter()
        .map(|f| vec![false; f.allows.len()])
        .collect();
    let find_allow = |rule: RuleId, file: &str, line: u32| -> Option<(usize, usize)> {
        let &fi = file_index.get(file)?;
        sources[fi]
            .allows
            .iter()
            .position(|a| a.rule == rule && a.target_line == line)
            .map(|ai| (fi, ai))
    };
    let mut surviving = Vec::new();
    for v in raw {
        let hit = find_allow(v.rule, &v.file, v.line).or_else(|| {
            v.chain
                .iter()
                .find_map(|link| find_allow(v.rule, &link.file, link.line))
        });
        if let Some((fi, ai)) = hit {
            allow_used[fi][ai] = true;
            report.inline_allowed += 1;
            continue;
        }
        if let Some(entry) = baseline.entries.iter().find(|e| e.matches(&v)) {
            entry.used.set(true);
            report.baselined += 1;
            continue;
        }
        surviving.push(v);
    }
    for (fi, file) in sources.iter().enumerate() {
        for (ai, a) in file.allows.iter().enumerate() {
            if !allow_used[fi][ai] {
                surviving.push(unused_allow_violation(file, a));
            }
        }
        surviving.extend(file.directive_errors.iter().cloned());
    }

    surviving.extend(baseline.stale(&relative_slash_path(root, &baseline_path)));
    surviving
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    for v in &surviving {
        *report.tally.entry(v.rule.as_str()).or_insert(0) += 1;
    }
    report.violations = surviving;
    Ok((report, baseline))
}

/// The `lint-directive` finding for an allow that suppressed nothing.
fn unused_allow_violation(file: &SourceFile, a: &crate::source::AllowDirective) -> LintViolation {
    LintViolation {
        rule: RuleId::LintDirective,
        file: file.rel_path.clone(),
        line: a.line,
        col: 1,
        message: format!(
            "unused allow({}) — nothing on line {} fires this rule; remove it",
            a.rule.as_str(),
            a.target_line
        ),
        chain: Vec::new(),
    }
}

/// Runs every rule over one analyzed file, applying its inline allows.
/// Exposed for fixture tests; `run` drives it across the workspace.
pub fn check_file(
    file: &SourceFile,
    rules: &[Box<dyn Rule>],
    baseline: &Baseline,
    report: &mut LintReport,
) -> Vec<LintViolation> {
    let mut raw = Vec::new();
    for rule in rules {
        rule.check(file, &mut raw);
    }

    // Inline allows: each directive may suppress findings of its rule on
    // its target line; a directive that suppresses nothing is itself a
    // finding (so allows can't outlive the code they excused).
    let mut used = vec![false; file.allows.len()];
    let mut surviving = Vec::new();
    for v in raw {
        let allow = file
            .allows
            .iter()
            .position(|a| a.rule == v.rule && a.target_line == v.line);
        match allow {
            Some(idx) => {
                used[idx] = true;
                report.inline_allowed += 1;
            }
            None => {
                if let Some(entry) = baseline.entries.iter().find(|e| e.matches(&v)) {
                    entry.used.set(true);
                    report.baselined += 1;
                } else {
                    surviving.push(v);
                }
            }
        }
    }
    for (idx, was_used) in used.iter().enumerate() {
        if !was_used {
            surviving.push(unused_allow_violation(file, &file.allows[idx]));
        }
    }
    surviving.extend(file.directive_errors.iter().cloned());
    surviving
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`], in sorted
/// order (deterministic reports on every platform).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), EngineError> {
    let entries = std::fs::read_dir(dir).map_err(|source| EngineError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| EngineError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, slash-separated regardless of platform.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_table() {
        assert_eq!(
            classify("crates/core/src/rra.rs"),
            Some(("core".into(), FileKind::LibSrc))
        );
        assert_eq!(
            classify("crates/cli/src/main.rs"),
            Some(("cli".into(), FileKind::BinSrc))
        );
        assert_eq!(
            classify("crates/bench/src/bin/table1.rs"),
            Some(("bench".into(), FileKind::BenchSrc))
        );
        assert_eq!(
            classify("crates/check/src/bin/invariant_fuzz.rs"),
            Some(("check".into(), FileKind::BinSrc))
        );
        assert_eq!(
            classify("src/lib.rs"),
            Some(("grammarviz".into(), FileKind::LibSrc))
        );
        assert_eq!(
            classify("tests/parallel_determinism.rs"),
            Some(("grammarviz".into(), FileKind::TestSrc))
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some(("grammarviz".into(), FileKind::Example))
        );
        assert_eq!(
            classify("crates/sax/tests/properties.rs"),
            Some(("sax".into(), FileKind::TestSrc))
        );
        assert_eq!(classify("README.md"), None);
    }
}
