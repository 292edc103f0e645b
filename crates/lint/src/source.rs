//! Per-file analysis: token stream plus the *regions* lint rules need —
//! `#[cfg(test)]` / `#[test]` spans, `#[expect(clippy::…)]` spans,
//! `// gv-lint: hot` regions, and inline `// gv-lint: allow(rule) reason`
//! directives.

use crate::lexer::{lex, LexOutput, Token, TokenKind};
use crate::violation::{LintViolation, RuleId};

/// How a file participates in the workspace; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/<c>/src/**`, root `src/**`).
    LibSrc,
    /// Binary source (`src/bin/**`, the CLI and bench crates).
    BinSrc,
    /// Integration tests (`tests/**`).
    TestSrc,
    /// Examples (`examples/**`).
    Example,
}

/// One inline allow directive: `// gv-lint: allow(rule-id) reason`.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The rule being allowed.
    pub rule: RuleId,
    /// The written justification (required, non-empty).
    pub reason: String,
    /// Line the directive itself sits on.
    pub line: u32,
    /// Line whose findings it suppresses (same line for trailing
    /// comments, the next code line for standalone ones).
    pub target_line: u32,
}

/// A `#[expect(clippy::…)]` attribute and the lines of the item it covers.
#[derive(Debug, Clone)]
pub struct ClippyExpect {
    /// The clippy lint names it expects (`unwrap_used`, `panic`, …).
    pub lints: Vec<String>,
    /// Inclusive 1-based line range, from the attribute to the end of its
    /// item (to the end of the file for an inner `#![expect(…)]`).
    pub lines: (u32, u32),
}

/// A lexed and region-analyzed source file, ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (slash-separated).
    pub rel_path: String,
    /// The crate this file belongs to (`core`, `obs`, …; `grammarviz`
    /// for the workspace-root crate).
    pub crate_name: String,
    /// Coarse role of the file.
    pub kind: FileKind,
    /// Full source text.
    pub text: String,
    /// Lexer output over `text`.
    pub lex: LexOutput,
    /// Inclusive 1-based line ranges lexically inside test-only code.
    pub test_ranges: Vec<(u32, u32)>,
    /// `#[expect(clippy::…)]` attributes, in source order.
    pub clippy_expects: Vec<ClippyExpect>,
    /// Inclusive 1-based line ranges between `gv-lint: hot` markers.
    pub hot_ranges: Vec<(u32, u32)>,
    /// Inline allow directives, in source order.
    pub allows: Vec<AllowDirective>,
    /// Problems with the directives themselves (bad rule id, missing
    /// reason, unclosed hot region) — reported as `lint-directive`.
    pub directive_errors: Vec<LintViolation>,
}

impl SourceFile {
    /// Lexes and analyzes `text` as the file at `rel_path`.
    pub fn analyze(rel_path: &str, crate_name: &str, kind: FileKind, text: String) -> SourceFile {
        let lex = lex(&text);
        let (test_ranges, clippy_expects) = find_marked_items(&lex.tokens, &text);
        let mut file = SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            text,
            lex,
            test_ranges,
            clippy_expects,
            hot_ranges: Vec::new(),
            allows: Vec::new(),
            directive_errors: Vec::new(),
        };
        file.scan_directives();
        file
    }

    /// Is the 1-based `line` inside test-only code (or a test file)?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.kind == FileKind::TestSrc
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Does an `#[expect(clippy::<lint>)]` cover the 1-based `line`?
    pub fn expects_clippy(&self, lint: &str, line: u32) -> bool {
        self.clippy_expects
            .iter()
            .any(|e| e.lines.0 <= line && line <= e.lines.1 && e.lints.iter().any(|l| l == lint))
    }

    /// Is the 1-based `line` inside a declared hot region?
    pub fn is_hot_line(&self, line: u32) -> bool {
        self.hot_ranges
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// The token stream.
    pub fn tokens(&self) -> &[Token] {
        &self.lex.tokens
    }

    /// Source text of token `i`.
    pub fn tok_text(&self, i: usize) -> &str {
        self.lex.tokens[i].text(&self.text)
    }

    /// Source text of token `i`, or `""` when `i` is past the end — for
    /// lookahead that must not panic at EOF.
    pub fn tok_text_at(&self, i: usize) -> &str {
        self.lex
            .tokens
            .get(i)
            .map(|t| t.text(&self.text))
            .unwrap_or("")
    }

    /// Parses `gv-lint:` comment directives into hot ranges, allows, and
    /// directive errors.
    fn scan_directives(&mut self) {
        let mut open_hot: Option<u32> = None;
        // Collect first to avoid borrowing `self` across mutation.
        struct RawDirective {
            line: u32,
            col: u32,
            start: usize,
            body: String,
            trailing: bool,
        }
        let mut raw = Vec::new();
        for c in &self.lex.comments {
            let text = c.text(&self.text);
            let stripped = text
                .trim_start_matches('/')
                .trim_start_matches('*')
                .trim_start_matches('!')
                .trim();
            let Some(rest) = stripped.strip_prefix("gv-lint:") else {
                continue;
            };
            // Trailing = some token precedes the comment on its own line.
            // Tokens are ordered by start offset, so the candidate is
            // exactly the last token before the comment — binary search,
            // not a scan (directives are rechecked on every lint run).
            let before = self.lex.tokens.partition_point(|t| t.start < c.start);
            let trailing = before > 0 && self.lex.tokens[before - 1].line == c.line;
            raw.push(RawDirective {
                line: c.line,
                col: c.col,
                start: c.start,
                body: rest.trim().to_string(),
                trailing,
            });
        }
        for d in raw {
            if d.body == "hot" {
                if let Some(open) = open_hot {
                    self.directive_errors.push(self.directive_error(
                        d.line,
                        d.col,
                        format!("nested `gv-lint: hot` (previous opened on line {open})"),
                    ));
                }
                open_hot = Some(d.line);
            } else if d.body == "end-hot" {
                match open_hot.take() {
                    Some(open) => self.hot_ranges.push((open, d.line)),
                    None => self.directive_errors.push(self.directive_error(
                        d.line,
                        d.col,
                        "`gv-lint: end-hot` without an open hot region".to_string(),
                    )),
                }
            } else if let Some(args) = d.body.strip_prefix("allow(") {
                match args.split_once(')') {
                    Some((rule_name, reason)) => {
                        let reason = reason.trim();
                        match RuleId::parse(rule_name.trim()) {
                            Some(rule) if !reason.is_empty() => {
                                let target_line = if d.trailing {
                                    d.line
                                } else {
                                    self.next_code_line(d.start).unwrap_or(d.line)
                                };
                                self.allows.push(AllowDirective {
                                    rule,
                                    reason: reason.to_string(),
                                    line: d.line,
                                    target_line,
                                });
                            }
                            Some(rule) => self.directive_errors.push(self.directive_error(
                                d.line,
                                d.col,
                                format!(
                                    "allow({id}) needs a written reason after the parenthesis",
                                    id = rule.as_str()
                                ),
                            )),
                            None => self.directive_errors.push(self.directive_error(
                                d.line,
                                d.col,
                                format!(
                                    "unknown rule id {:?} in allow directive",
                                    rule_name.trim()
                                ),
                            )),
                        }
                    }
                    None => self.directive_errors.push(self.directive_error(
                        d.line,
                        d.col,
                        "malformed allow directive: expected `allow(rule-id) reason`".to_string(),
                    )),
                }
            } else {
                self.directive_errors.push(self.directive_error(
                    d.line,
                    d.col,
                    format!("unknown gv-lint directive {:?}", d.body),
                ));
            }
        }
        if let Some(open) = open_hot {
            // An unclosed region extends to EOF — still flagged so the
            // marker can't silently rot.
            let last_line = self.lex.line_starts.len() as u32;
            self.hot_ranges.push((open, last_line));
            self.directive_errors.push(self.directive_error(
                open,
                1,
                "`gv-lint: hot` region never closed with `end-hot`".to_string(),
            ));
        }
    }

    /// The line of the first token after byte offset `after`. Tokens are
    /// ordered by start offset, so this is a binary search — O(log n)
    /// per standalone directive instead of a front-to-back scan.
    fn next_code_line(&self, after: usize) -> Option<u32> {
        let idx = self.lex.tokens.partition_point(|t| t.start <= after);
        self.lex.tokens.get(idx).map(|t| t.line)
    }

    fn directive_error(&self, line: u32, col: u32, message: String) -> LintViolation {
        LintViolation {
            rule: RuleId::LintDirective,
            file: self.rel_path.clone(),
            line,
            col,
            message,
            chain: Vec::new(),
        }
    }
}

/// Finds the line ranges of the items under two kinds of attribute:
/// `#[cfg(test)]` / `#[test]` (test-only code) and `#[expect(clippy::…)]`
/// (sanctioned sites, returned with their lint names).
///
/// The scan is purely lexical: an attribute whose bracket group mentions
/// both `cfg` and `test` (or is exactly `test`), or that starts with
/// `expect` and names `clippy::` lints, marks the *next item* —
/// attributes are skipped, then either a `{ … }` block is brace-matched
/// or a `;`-terminated item is consumed. An inner `#![…]` marks the rest
/// of the file.
fn find_marked_items(tokens: &[Token], src: &str) -> (Vec<(u32, u32)>, Vec<ClippyExpect>) {
    let mut test_ranges = Vec::new();
    let mut expects = Vec::new();
    let last_line = tokens.last().map_or(1, |t| t.line);
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct && tokens[i].text(src) == "#" {
            let attr_line = tokens[i].line;
            // `#[…]` or `#![…]`.
            let mut j = i + 1;
            let inner = j < tokens.len() && tokens[j].text(src) == "!";
            if inner {
                j += 1;
            }
            if j < tokens.len() && tokens[j].text(src) == "[" {
                let close = match match_bracket(tokens, src, j, "[", "]") {
                    Some(c) => c,
                    None => break,
                };
                let body = &tokens[j + 1..close];
                let idents: Vec<&str> = body
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text(src))
                    .collect();
                let is_test_attr =
                    idents == ["test"] || (idents.contains(&"cfg") && idents.contains(&"test"));
                let lints: Vec<String> = if idents.first() == Some(&"expect") {
                    body.windows(3)
                        .filter(|w| w[0].text(src) == "clippy" && w[1].text(src) == "::")
                        .map(|w| w[2].text(src).to_string())
                        .collect()
                } else {
                    Vec::new()
                };
                if is_test_attr || !lints.is_empty() {
                    let end_line = if inner {
                        Some(last_line)
                    } else {
                        item_end_line(tokens, src, close + 1)
                    };
                    if let Some(end_line) = end_line {
                        if is_test_attr {
                            test_ranges.push((attr_line, end_line));
                        }
                        if !lints.is_empty() {
                            expects.push(ClippyExpect {
                                lints,
                                lines: (attr_line, end_line),
                            });
                        }
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    (test_ranges, expects)
}

/// Given the token index just past a marking attribute, finds the last
/// line of the item it annotates (skipping further attributes).
fn item_end_line(tokens: &[Token], src: &str, mut i: usize) -> Option<u32> {
    // Skip any further attributes between the cfg and the item.
    while i < tokens.len() && tokens[i].text(src) == "#" {
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].text(src) == "!" {
            j += 1;
        }
        if j < tokens.len() && tokens[j].text(src) == "[" {
            i = match_bracket(tokens, src, j, "[", "]")? + 1;
        } else {
            break;
        }
    }
    // Consume until the item's body `{…}` closes or a `;` ends it.
    while i < tokens.len() {
        let t = tokens[i].text(src);
        if t == ";" {
            return Some(tokens[i].line);
        }
        if t == "{" {
            let close = match_bracket(tokens, src, i, "{", "}")?;
            return Some(tokens[close].line);
        }
        i += 1;
    }
    None
}

/// Index of the bracket matching the one at `open_idx`.
fn match_bracket(
    tokens: &[Token],
    src: &str,
    open_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        let txt = t.text(src);
        if txt == open {
            depth += 1;
        } else if txt == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> SourceFile {
        SourceFile::analyze(
            "crates/core/src/x.rs",
            "core",
            FileKind::LibSrc,
            src.to_string(),
        )
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let f = analyze(
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n",
        );
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_attr_fn_is_a_test_range() {
        let f = analyze("#[test]\nfn t() {\n  boom();\n}\nfn real() {}\n");
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn cfg_all_test_counts() {
        let f = analyze("#[cfg(all(test, feature = \"x\"))]\nmod m { fn z() {} }\nfn w() {}\n");
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn clippy_expect_covers_its_item() {
        let f = analyze(
            "fn a() {\n    #[expect(\n        clippy::expect_used,\n        reason = \"why\"\n    )]\n    \
             let x = o\n        .expect(\"x\");\n    y.unwrap();\n}\n",
        );
        assert_eq!(f.clippy_expects.len(), 1);
        assert_eq!(f.clippy_expects[0].lints, ["expect_used"]);
        assert!(f.expects_clippy("expect_used", 7));
        assert!(!f.expects_clippy("unwrap_used", 7));
        assert!(!f.expects_clippy("expect_used", 8));
        assert!(f.test_ranges.is_empty());
    }

    #[test]
    fn hot_region_markers() {
        let f =
            analyze("fn a() {}\n// gv-lint: hot\nfn kernel() {}\n// gv-lint: end-hot\nfn b() {}\n");
        assert!(!f.is_hot_line(1));
        assert!(f.is_hot_line(3));
        assert!(!f.is_hot_line(5));
        assert!(f.directive_errors.is_empty());
    }

    #[test]
    fn unclosed_hot_region_is_flagged() {
        let f = analyze("// gv-lint: hot\nfn kernel() {}\n");
        assert_eq!(f.directive_errors.len(), 1);
        assert!(f.is_hot_line(2));
    }

    #[test]
    fn allow_directive_standalone_targets_next_line() {
        let f = analyze(
            "// gv-lint: allow(panic-reachability) length checked above\nlet x = v.first().unwrap();\n",
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, RuleId::PanicReachability);
        assert_eq!(f.allows[0].target_line, 2);
        assert!(f.directive_errors.is_empty());
    }

    #[test]
    fn allow_directive_trailing_targets_same_line() {
        let f = analyze("let x = v.first().unwrap(); // gv-lint: allow(panic-reachability) non-empty by construction\n");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].target_line, 1);
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let f = analyze("// gv-lint: allow(panic-reachability)\nlet x = 1;\n");
        assert!(f.allows.is_empty());
        assert_eq!(f.directive_errors.len(), 1);
        assert!(f.directive_errors[0].message.contains("reason"));
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let f = analyze("// gv-lint: allow(no-such-rule) whatever\nlet x = 1;\n");
        assert!(f.allows.is_empty());
        assert_eq!(f.directive_errors.len(), 1);
    }
}
