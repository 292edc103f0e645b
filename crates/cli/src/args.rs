//! A tiny `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Options that are switches, not `--key value` pairs: their presence
/// alone means "on", so the parser must not consume the next token.
pub(crate) const BOOL_FLAGS: &[&str] = &["trace", "timing", "fail-on-breach"];

/// Parsed command line: the subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// Every option must be of the form `--key value` — except the known
    /// boolean switches ([`BOOL_FLAGS`]), which take no value. A bare
    /// valued `--key` at the end of the line or followed by another flag
    /// is an error.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    out.options.insert(key.to_string(), "true".to_string());
                    continue;
                }
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("option --{key} needs a value"))?;
                out.options.insert(key.to_string(), value.clone());
            } else if out.command.is_none() {
                out.command = Some(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(out)
    }

    /// `true` when a boolean switch was present on the command line.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required numeric option.
    pub fn required_usize(&self, key: &str) -> Result<usize, String> {
        self.required(key)?
            .parse()
            .map_err(|_| format!("--{key} expects an integer"))
    }

    /// An optional numeric option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer")),
        }
    }

    /// Checks every given option against a per-subcommand allowlist.
    ///
    /// An unknown option is an error; when a known flag is close in edit
    /// distance, the message suggests it ("did you mean --window?"), so a
    /// typo doesn't silently fall back to a default value.
    pub fn validate(&self, command: &str, allowed: &[&str]) -> Result<(), String> {
        // Sorted key order keeps the first reported unknown option deterministic.
        for key in self.options.keys().map(String::as_str) {
            if allowed.contains(&key) {
                continue;
            }
            let mut msg = format!("unknown option --{key} for {command}");
            if let Some(near) = nearest_flag(key, allowed) {
                msg.push_str(&format!(" (did you mean --{near}?)"));
            }
            return Err(msg);
        }
        Ok(())
    }
}

/// The closest allowed flag by edit distance, when close enough to be a
/// plausible typo (within 2 edits, or a third of the flag's length for
/// long flags like `--metrics-every`).
fn nearest_flag<'a>(key: &str, allowed: &[&'a str]) -> Option<&'a str> {
    allowed
        .iter()
        .map(|&cand| (levenshtein(key, cand), cand))
        .min()
        .filter(|&(d, cand)| d <= (cand.len() / 3).max(2))
        .map(|(_, cand)| cand)
}

/// Classic two-row Levenshtein edit distance.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(&argv("density --file x.csv --window 150")).unwrap();
        assert_eq!(a.command.as_deref(), Some("density"));
        assert_eq!(a.required("file").unwrap(), "x.csv");
        assert_eq!(a.required_usize("window").unwrap(), 150);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv("rra --file")).is_err());
        assert!(Args::parse(&argv("rra --file --window 10")).is_err());
    }

    #[test]
    fn unexpected_positional_rejected() {
        assert!(Args::parse(&argv("rra extra")).is_err());
    }

    #[test]
    fn defaults_and_missing() {
        let a = Args::parse(&argv("x")).unwrap();
        assert_eq!(a.usize_or("top", 3).unwrap(), 3);
        assert!(a.required("file").is_err());
        assert!(a.get("nothing").is_none());
    }

    #[test]
    fn boolean_flag_takes_no_value() {
        let a = Args::parse(&argv("density --trace --file x.csv")).unwrap();
        assert!(a.flag("trace"));
        assert_eq!(a.required("file").unwrap(), "x.csv");
        // Absent flag is simply false; valued options never read as flags
        // they weren't given.
        let b = Args::parse(&argv("density --file x.csv")).unwrap();
        assert!(!b.flag("trace"));
        // Last position works too — nothing to consume.
        assert!(Args::parse(&argv("rra --trace")).unwrap().flag("trace"));
    }

    #[test]
    fn bad_integer() {
        let a = Args::parse(&argv("x --top abc")).unwrap();
        assert!(a.usize_or("top", 1).is_err());
        assert!(a.required_usize("top").is_err());
    }

    #[test]
    fn edit_distance() {
        assert_eq!(levenshtein("window", "window"), 0);
        assert_eq!(levenshtein("widow", "window"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn validate_accepts_allowed_and_rejects_unknown() {
        let allowed = &["file", "window", "metrics-every"];
        let a = Args::parse(&argv("x --file f.csv --window 10")).unwrap();
        assert!(a.validate("x", allowed).is_ok());

        // A near-miss suggests the intended flag.
        let b = Args::parse(&argv("x --widow 10")).unwrap();
        let err = b.validate("x", allowed).unwrap_err();
        assert!(err.contains("--widow"), "{err}");
        assert!(err.contains("did you mean --window?"), "{err}");
        let c = Args::parse(&argv("x --metrics-evry 100")).unwrap();
        let err = c.validate("x", allowed).unwrap_err();
        assert!(err.contains("did you mean --metrics-every?"), "{err}");

        // A far-off option errors without a bogus suggestion.
        let d = Args::parse(&argv("x --zzzzzzzz 1")).unwrap();
        let err = d.validate("x", allowed).unwrap_err();
        assert!(err.contains("unknown option --zzzzzzzz"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }
}
