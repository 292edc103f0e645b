//! Declarative health/SLO rules evaluated per monitoring window.
//!
//! A [`HealthEngine`] holds a set of typed [`HealthRule`]s and grades each
//! [`WindowStats`](crate::WindowStats) into a [`Verdict`] —
//! `Healthy`/`Degraded`/`Breached` — with the offending observed value and
//! threshold attached, so an on-call reading a `health` JSONL record never
//! has to re-derive *why* a stream went red.
//!
//! Rules load from a flat config file: one `key = value` per line, `#`
//! starts a comment anywhere on a line, and each key may appear once:
//!
//! ```text
//! # SLOs for the payments fleet
//! max_discord_rate = 0.002
//! min_throughput = 100000.0
//! stale_windows = 3
//! degraded_ratio = 0.8
//! ```
//!
//! Grading: [`HealthRule::MaxDiscordRate`] breaches when the observed
//! value exceeds its threshold and degrades past `degraded_ratio ×
//! threshold`; [`HealthRule::MinThroughput`] mirrors that below the
//! threshold. [`HealthRule::StaleStream`] counts *consecutive* windows
//! in which numerosity reduction emitted no words at all (a flat-lined
//! input): one such window degrades, `stale_windows` in a row breach.
//! [`HealthRule::MinThroughput`] needs measured wall time — in
//! deterministic (timing-off) monitoring it reports `Healthy` with an
//! observed value of 0, documented in DESIGN.md §10.

use crate::trace::format_json_f64;
use crate::window::WindowStats;
use std::fmt::Write as _;

/// A per-window health grade, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// Every rule within budget.
    Healthy,
    /// At least one rule past its degradation band, none breached.
    Degraded,
    /// At least one rule past its threshold.
    Breached,
}

impl Verdict {
    /// The stable machine-readable name (the JSONL `verdict` value).
    pub const fn name(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Breached => "breached",
        }
    }
}

/// One typed SLO rule. The variant payload is the threshold; the config
/// key spelling is [`HealthRule::name`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthRule {
    /// Throughput must stay at or above this many points per second
    /// (requires timing; unmeasured windows grade Healthy).
    MinThroughput(f64),
    /// Discords/alerts per point must stay at or under this rate.
    MaxDiscordRate(f64),
    /// No more than this many *consecutive* windows may pass without a
    /// single SAX word surviving numerosity reduction.
    StaleStream(u64),
}

impl HealthRule {
    /// The stable machine-readable name — also the config-file key.
    pub const fn name(&self) -> &'static str {
        match self {
            HealthRule::MinThroughput(_) => "min_throughput",
            HealthRule::MaxDiscordRate(_) => "max_discord_rate",
            HealthRule::StaleStream(_) => "stale_windows",
        }
    }

    /// The threshold as a float (what the JSONL record reports).
    pub fn threshold(&self) -> f64 {
        match *self {
            HealthRule::MinThroughput(t) => t,
            HealthRule::MaxDiscordRate(t) => t,
            HealthRule::StaleStream(t) => t as f64,
        }
    }
}

/// One rule's grade for one window: the observed value vs. the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// The rule's machine-readable name.
    pub rule: &'static str,
    /// This rule's grade for the window.
    pub verdict: Verdict,
    /// The value the rule measured.
    pub observed: f64,
    /// The configured threshold.
    pub threshold: f64,
}

/// One window's full health evaluation: the worst per-rule verdict plus
/// every rule's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The window's sequence number.
    pub seq: u64,
    /// The overall verdict (worst of the outcomes; Healthy with no rules).
    pub verdict: Verdict,
    /// Per-rule outcomes, in engine rule order.
    pub outcomes: Vec<RuleOutcome>,
}

impl HealthReport {
    /// Encodes the report as one JSON line (no trailing newline).
    ///
    /// Schema 7 `health` record: `{"schema":7,"type":"health","seq":int,
    /// "verdict":str,"rules":[{"rule":str,"verdict":str,"observed":float,
    /// "threshold":float},...]}` — one entry per configured rule, every
    /// key always present.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":{},\"type\":\"health\",\"seq\":{},\"verdict\":\"{}\",\"rules\":[",
            crate::trace::SCHEMA_VERSION,
            self.seq,
            self.verdict.name()
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":\"{}\",\"verdict\":\"{}\",\"observed\":{},\"threshold\":{}}}",
                o.rule,
                o.verdict.name(),
                format_json_f64(o.observed),
                format_json_f64(o.threshold)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Evaluates a rule set against successive windows, tracking the state
/// the stale-stream rule and transition detection need.
#[derive(Debug, Clone)]
pub struct HealthEngine {
    rules: Vec<HealthRule>,
    degraded_ratio: f64,
    stale_run: u64,
    last: Option<Verdict>,
}

impl HealthEngine {
    /// The default degradation band: degraded past 80% of a threshold.
    pub const DEFAULT_DEGRADED_RATIO: f64 = 0.8;

    /// An engine over the given rules with the default degradation band.
    pub fn new(rules: Vec<HealthRule>) -> Self {
        Self {
            rules,
            degraded_ratio: Self::DEFAULT_DEGRADED_RATIO,
            stale_run: 0,
            last: None,
        }
    }

    /// Builder-style: sets the degradation band (clamped into
    /// `(0, 1]`). A ratio of 1.0 disables the Degraded band entirely.
    #[must_use]
    pub fn with_degraded_ratio(mut self, ratio: f64) -> Self {
        self.degraded_ratio = ratio.clamp(f64::MIN_POSITIVE, 1.0);
        self
    }

    /// Parses a `key = value` rule file (see the module docs). Unknown or
    /// duplicate keys, unparsable values, and a file configuring no rules
    /// at all are errors — a typo'd SLO file must not silently monitor
    /// nothing.
    pub fn from_config(text: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        let mut ratio: Option<f64> = None;
        let mut seen: Vec<String> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            if seen.iter().any(|s| s == key) {
                return Err(format!("line {}: duplicate key `{key}`", lineno + 1));
            }
            seen.push(key.to_string());
            let parse_f64 = |v: &str| -> Result<f64, String> {
                let x: f64 = v
                    .parse()
                    .map_err(|_| format!("line {}: invalid number `{v}`", lineno + 1))?;
                if !x.is_finite() || x < 0.0 {
                    return Err(format!(
                        "line {}: `{key}` must be finite and non-negative",
                        lineno + 1
                    ));
                }
                Ok(x)
            };
            let parse_u64 = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("line {}: invalid integer `{v}`", lineno + 1))
            };
            match key {
                "min_throughput" => rules.push(HealthRule::MinThroughput(parse_f64(value)?)),
                "max_discord_rate" => rules.push(HealthRule::MaxDiscordRate(parse_f64(value)?)),
                "stale_windows" => {
                    let n = parse_u64(value)?;
                    if n == 0 {
                        return Err(format!(
                            "line {}: `stale_windows` must be at least 1",
                            lineno + 1
                        ));
                    }
                    rules.push(HealthRule::StaleStream(n));
                }
                "degraded_ratio" => {
                    let r = parse_f64(value)?;
                    if r <= 0.0 || r > 1.0 {
                        return Err(format!(
                            "line {}: `degraded_ratio` must be in (0, 1]",
                            lineno + 1
                        ));
                    }
                    ratio = Some(r);
                }
                other => {
                    return Err(format!(
                        "line {}: unknown rule `{other}` (expected one of min_throughput, \
                         max_discord_rate, stale_windows, degraded_ratio)",
                        lineno + 1
                    ))
                }
            }
        }
        if rules.is_empty() {
            return Err("config defines no rules".to_string());
        }
        let mut engine = Self::new(rules);
        if let Some(r) = ratio {
            engine = engine.with_degraded_ratio(r);
        }
        Ok(engine)
    }

    /// The configured rules, in evaluation order.
    pub fn rules(&self) -> &[HealthRule] {
        &self.rules
    }

    /// `true` when no rules are configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The most recent overall verdict, if any window was evaluated.
    pub fn last_verdict(&self) -> Option<Verdict> {
        self.last
    }

    /// Grades one window. Returns the report and whether the overall
    /// verdict *changed* from the previous window (the first evaluation
    /// always counts as a transition — monitors emit a `health` record on
    /// transitions only, and the initial state must be visible).
    pub fn evaluate(&mut self, window: &WindowStats) -> (HealthReport, bool) {
        use crate::stage::Counter;
        if window.points() > 0 && window.counter(Counter::WordsEmitted) == 0 {
            self.stale_run += 1;
        } else {
            self.stale_run = 0;
        }
        let ratio = self.degraded_ratio;
        let mut outcomes = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            let (verdict, observed) = match *rule {
                HealthRule::MinThroughput(t) => {
                    let observed = window.throughput_pps();
                    if window.wall_ns == 0 {
                        (Verdict::Healthy, observed)
                    } else {
                        (grade_min(observed, t, ratio), observed)
                    }
                }
                HealthRule::MaxDiscordRate(t) => {
                    let observed = window.discords_per_point();
                    (grade_max(observed, t, ratio), observed)
                }
                HealthRule::StaleStream(n) => {
                    let verdict = if self.stale_run >= n {
                        Verdict::Breached
                    } else if self.stale_run >= 1 {
                        Verdict::Degraded
                    } else {
                        Verdict::Healthy
                    };
                    (verdict, self.stale_run as f64)
                }
            };
            outcomes.push(RuleOutcome {
                rule: rule.name(),
                verdict,
                observed,
                threshold: rule.threshold(),
            });
        }
        let verdict = outcomes
            .iter()
            .map(|o| o.verdict)
            .max()
            .unwrap_or(Verdict::Healthy);
        let transition = self.last != Some(verdict);
        self.last = Some(verdict);
        (
            HealthReport {
                seq: window.seq,
                verdict,
                outcomes,
            },
            transition,
        )
    }
}

/// Budget semantics: at the threshold is still within budget; strictly
/// above breaches, strictly above the degradation band degrades.
fn grade_max(observed: f64, threshold: f64, ratio: f64) -> Verdict {
    if observed > threshold {
        Verdict::Breached
    } else if observed > threshold * ratio {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    }
}

/// Mirror of [`grade_max`] for floors: strictly below the threshold
/// breaches, strictly below `threshold / ratio` degrades.
fn grade_min(observed: f64, threshold: f64, ratio: f64) -> Verdict {
    if observed < threshold {
        Verdict::Breached
    } else if observed < threshold / ratio {
        Verdict::Degraded
    } else {
        Verdict::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Counter;
    use crate::window::WindowStats;

    fn window(seq: u64, points: u64, emitted: u64, discords: u64) -> WindowStats {
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::WordsEmitted.index()] = emitted;
        WindowStats {
            seq,
            start: seq * points,
            end: (seq + 1) * points,
            wall_ns: 0,
            counters,
            discords,
        }
    }

    #[test]
    fn verdict_ordering_and_names() {
        assert!(Verdict::Healthy < Verdict::Degraded);
        assert!(Verdict::Degraded < Verdict::Breached);
        assert_eq!(Verdict::Breached.name(), "breached");
    }

    #[test]
    fn max_rule_grades_healthy_degraded_breached() {
        let mut engine = HealthEngine::new(vec![HealthRule::MaxDiscordRate(0.1)]);
        // 0.05 discords/point: healthy.
        let (r, first) = engine.evaluate(&window(0, 100, 50, 5));
        assert_eq!(r.verdict, Verdict::Healthy);
        assert!(first, "first evaluation is a transition");
        // 0.09 discords/point: past 80% of 0.1 -> degraded.
        let (r, t) = engine.evaluate(&window(1, 100, 50, 9));
        assert_eq!(r.verdict, Verdict::Degraded);
        assert!(t);
        assert_eq!(r.outcomes[0].rule, "max_discord_rate");
        assert!((r.outcomes[0].observed - 0.09).abs() < 1e-12);
        assert!((r.outcomes[0].threshold - 0.1).abs() < 1e-12);
        // 0.2 discords/point: breached.
        let (r, t) = engine.evaluate(&window(2, 100, 50, 20));
        assert_eq!(r.verdict, Verdict::Breached);
        assert!(t);
        // Same again: no transition.
        let (_, t) = engine.evaluate(&window(3, 100, 50, 20));
        assert!(!t);
    }

    #[test]
    fn stale_stream_counts_consecutive_empty_windows() {
        let mut engine = HealthEngine::new(vec![HealthRule::StaleStream(3)]);
        let (r, _) = engine.evaluate(&window(0, 100, 0, 0));
        assert_eq!(r.verdict, Verdict::Degraded);
        let (r, _) = engine.evaluate(&window(1, 100, 0, 0));
        assert_eq!(r.verdict, Verdict::Degraded);
        let (r, _) = engine.evaluate(&window(2, 100, 0, 0));
        assert_eq!(r.verdict, Verdict::Breached);
        // Words flowing again resets the run.
        let (r, _) = engine.evaluate(&window(3, 100, 5, 0));
        assert_eq!(r.verdict, Verdict::Healthy);
        assert_eq!(r.outcomes[0].observed, 0.0);
    }

    #[test]
    fn throughput_rule_passes_when_unmeasured() {
        let mut engine = HealthEngine::new(vec![HealthRule::MinThroughput(1e12)]);
        // wall_ns == 0: the rule would fail if graded, but deterministic
        // monitoring never measures it.
        let (r, _) = engine.evaluate(&window(0, 100, 10, 0));
        assert_eq!(r.verdict, Verdict::Healthy);
        // With wall time measured, the impossible throughput floor trips.
        let mut w = window(1, 100, 10, 0);
        w.wall_ns = 1_000_000;
        let (r, _) = engine.evaluate(&w);
        assert_eq!(r.verdict, Verdict::Breached);
        assert_eq!(r.outcomes[0].rule, "min_throughput");
        assert!((r.outcomes[0].observed - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn config_round_trip_and_errors() {
        let engine = HealthEngine::from_config(
            "# fleet SLOs\nmin_throughput = 500000\nmax_discord_rate = 0.002 # tight\nstale_windows = 3\ndegraded_ratio = 0.9\n",
        )
        .unwrap();
        assert_eq!(engine.rules().len(), 3);
        assert_eq!(engine.rules()[0], HealthRule::MinThroughput(500_000.0));
        assert_eq!(engine.rules()[2], HealthRule::StaleStream(3));

        for (bad, needle) in [
            ("max_latency = 5", "unknown rule"),
            // Retired: no stream window measures latency or distance calls.
            ("max_latency_ns = 500000", "unknown rule `max_latency_ns`"),
            (
                "max_distance_calls_per_point = 8.0",
                "unknown rule `max_distance_calls_per_point`",
            ),
            ("stale_windows = abc", "invalid integer"),
            ("max_discord_rate = -1", "non-negative"),
            ("max_discord_rate = 1\nmax_discord_rate = 2", "duplicate"),
            ("degraded_ratio = 1.5", "(0, 1]"),
            ("stale_windows = 0", "at least 1"),
            ("# only comments\n", "no rules"),
            ("degraded_ratio = 0.5", "no rules"),
            ("just words", "expected `key = value`"),
        ] {
            let err = HealthEngine::from_config(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn health_jsonl_has_every_key() {
        let mut engine = HealthEngine::new(vec![
            HealthRule::MaxDiscordRate(0.01),
            HealthRule::StaleStream(2),
        ]);
        let (r, _) = engine.evaluate(&window(7, 100, 10, 5));
        let json = r.to_jsonl();
        assert!(json.starts_with(&format!(
            "{{\"schema\":{},\"type\":\"health\"",
            crate::trace::SCHEMA_VERSION
        )));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"verdict\":\"breached\""));
        assert!(json.contains("\"rule\":\"max_discord_rate\""));
        assert!(json.contains("\"observed\":0.05"));
        assert!(json.contains("\"threshold\":0.01"));
        assert!(json.contains("\"rule\":\"stale_windows\""));
        assert!(!json.contains('\n'));
    }
}
