//! Deterministic differential fuzzer for the paper invariants.
//!
//! Drives `--count` seeded random and adversarial series through the full
//! pipeline and every `gv-check` checker, plus a brute-force-vs-HOTSAX
//! differential, the streaming differential (an unbounded stream and one
//! bounded to a randomized horizon, some shorter than the series and some
//! longer, each vs a from-scratch batch run on its retained slice),
//! and the error-path contracts (non-finite rejection,
//! shorter-than-window rejection, streaming push rejection). Every family
//! also replays its series window by window through the SAX window kernel
//! against the batch discretizer (check 7), whatever the detectors make of
//! it: the constant and near-constant families put PAA values exactly on
//! the breakpoint 0 at even alphabets, where the batch pass must fall
//! back, and the NaN/Inf family gives it non-finite blocks. The PRNG is
//! the vendored xoshiro256++, so a given `--seed` reproduces the exact
//! same series on every machine.
//!
//! The RRA thread count is taken from `GV_THREADS`, read as
//! `EngineConfig::from_env` reads it, so CI can gate both the sequential
//! and the parallel search:
//!
//! ```text
//! GV_THREADS=1 cargo run -p gv-check --release --bin invariant_fuzz -- --seed 42 --count 1000
//! GV_THREADS=4 cargo run -p gv-check --release --bin invariant_fuzz -- --seed 42 --count 1000
//! ```
//!
//! Exits non-zero on the first report of any violation (after finishing
//! the run and printing the per-family table). A reader that closes
//! stdout early (`invariant_fuzz | head -1`) ends the run with status 0.

use std::process::ExitCode;

use gv_check::{check_sax_symbols, check_series, check_streaming};
use gv_discord::HotSaxConfig;
use gv_obs::NoopRecorder;
use gva_core::{
    BruteForceDetector, Detector, EngineConfig, Error, HotSaxDetector, PipelineConfig, SeriesView,
    StreamingDetector, Workspace,
};
use rand::{Rng, SeedableRng, StdRng};

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one stdout writer the fuzzer prints through. A reader that closed
/// the pipe early has all it asked for, so `BrokenPipe` ends the process
/// quietly with status 0; any other write error exits 1 with one line on
/// stderr instead of panicking like `println!`.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("invariant_fuzz: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// One adversarial input family per fuzz slot, cycled round-robin.
const FAMILIES: [&str; 7] = [
    "random-walk",
    "sine+noise",
    "constant",
    "near-constant",
    "spike-train",
    "nan/inf-injected",
    "shorter-than-window",
];

#[derive(Default)]
struct FamilyTally {
    runs: usize,
    passed: usize,
    /// Benign pipeline refusals (no candidates on degenerate series).
    benign: usize,
    violations: Vec<String>,
}

fn main() -> ExitCode {
    let (seed, count) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("invariant_fuzz: {msg}");
            eprintln!("usage: invariant_fuzz [--seed S] [--count N]");
            return ExitCode::FAILURE;
        }
    };
    let threads = EngineConfig::from_env().threads();

    outln!("invariant_fuzz: seed {seed}, {count} series, {threads} RRA thread(s)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tallies: Vec<FamilyTally> = FAMILIES.iter().map(|_| FamilyTally::default()).collect();
    let mut ws = Workspace::new();

    for i in 0..count {
        let family = i % FAMILIES.len();
        let tally = &mut tallies[family];
        tally.runs += 1;

        let window = rng.gen_range(20..=60usize);
        let paa = rng.gen_range(3..=6usize);
        let alphabet = rng.gen_range(3..=6usize);
        let k = rng.gen_range(1..=3usize);
        let config = match PipelineConfig::new(window, paa, alphabet) {
            Ok(c) => c,
            Err(e) => {
                tally.violations.push(format!(
                    "series {i}: config ({window},{paa},{alphabet}): {e}"
                ));
                continue;
            }
        };

        match family {
            5 => fuzz_non_finite(i, &mut rng, &config, k, &mut ws, tally),
            6 => fuzz_short(i, &mut rng, &config, k, window, threads, &mut ws, tally),
            _ => {
                let values = gen_valid(family, &mut rng);
                // Sometimes shorter than the series (the horizon rolls),
                // sometimes longer (it never fills).
                let horizon = rng.gen_range(window * 3..=800usize);
                fuzz_valid(i, &values, &config, k, threads, horizon, &mut ws, tally);
            }
        }
    }

    outln!();
    outln!(
        "{:<22} {:>6} {:>8} {:>8} {:>11}",
        "family",
        "runs",
        "passed",
        "benign",
        "violations"
    );
    let mut total_violations = 0;
    for (name, tally) in FAMILIES.iter().zip(&tallies) {
        outln!(
            "{name:<22} {:>6} {:>8} {:>8} {:>11}",
            tally.runs,
            tally.passed,
            tally.benign,
            tally.violations.len()
        );
        total_violations += tally.violations.len();
    }
    outln!();
    if total_violations == 0 {
        outln!("OK: every invariant held across {count} series");
        ExitCode::SUCCESS
    } else {
        for (name, tally) in FAMILIES.iter().zip(&tallies) {
            for v in &tally.violations {
                eprintln!("VIOLATION [{name}] {v}");
            }
        }
        eprintln!("FAILED: {total_violations} violation(s)");
        ExitCode::FAILURE
    }
}

fn parse_args() -> Result<(u64, usize), String> {
    let mut seed = 42u64;
    let mut count = 250usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--count" => {
                count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((seed, count))
}

/// A series from one of the five structurally valid families.
fn gen_valid(family: usize, rng: &mut StdRng) -> Vec<f64> {
    let n = rng.gen_range(300..700usize);
    match family {
        // Random walk: the classic fuzz substrate — no structure at all.
        0 => {
            let mut level = 0.0f64;
            (0..n)
                .map(|_| {
                    level += rng.gen_range(-1.0..1.0);
                    level
                })
                .collect()
        }
        // Periodic signal with noise and (sometimes) a planted distortion.
        1 => {
            let period = rng.gen_range(10.0..40.0f64);
            let noise = rng.gen_range(0.0..0.2f64);
            let mut v: Vec<f64> = (0..n)
                .map(|t| (t as f64 / period).sin() + noise * rng.gen_range(-1.0..1.0))
                .collect();
            if rng.gen_bool(0.5) {
                let at = rng.gen_range(0..n - 50);
                for x in &mut v[at..at + 50] {
                    *x *= rng.gen_range(-0.5..0.5);
                }
            }
            v
        }
        // Constant: z-normalization degenerates, SAX collapses to one word.
        2 => vec![rng.gen_range(-100.0..100.0); n],
        // Near-constant: jitter below any reasonable znorm threshold.
        3 => {
            let level = rng.gen_range(-10.0..10.0f64);
            (0..n)
                .map(|_| level + 1e-12 * rng.gen_range(-1.0..1.0))
                .collect()
        }
        // Spike train: flat baseline with rare large spikes.
        4 => {
            let mut v = vec![0.0f64; n];
            for x in &mut v {
                if rng.gen_bool(0.02) {
                    *x = rng.gen_range(5.0..50.0);
                }
            }
            v
        }
        _ => unreachable!("valid families are 0..=4"),
    }
}

/// Valid series: every checker must pass; the only benign refusal is a
/// candidate-free grammar on degenerate (constant-like) input. Also runs
/// the brute-force-vs-HOTSAX differential and the streaming differential
/// (incremental engine at `horizon` vs batch on the retained slice) on
/// the same series.
#[allow(clippy::too_many_arguments)]
fn fuzz_valid(
    i: usize,
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    threads: usize,
    horizon: usize,
    ws: &mut Workspace,
    tally: &mut FamilyTally,
) {
    if !sax_replay(i, values, config, tally) {
        return;
    }
    match check_series(values, config, k, threads) {
        Ok(report) => {
            if report.passed() {
                tally.passed += 1;
            } else {
                tally.violations.push(format!(
                    "series {i} (len {}, window {}, k {k}):\n{}",
                    values.len(),
                    config.window(),
                    report.render()
                ));
            }
        }
        Err(Error::NoCandidates) => tally.benign += 1,
        Err(e) => tally
            .violations
            .push(format!("series {i}: pipeline refused a valid series: {e}")),
    }
    if let Some(v) = baseline_differential(values, config, k, ws) {
        tally.violations.push(format!("series {i}: {v}"));
    }
    for horizon in [horizon, 0] {
        match check_streaming(values, config, k, threads, horizon) {
            Ok(report) => {
                if !report.passed() {
                    tally.violations.push(format!(
                        "series {i} (len {}, window {}, k {k}, horizon {horizon}):\n{}",
                        values.len(),
                        config.window(),
                        report.render()
                    ));
                }
            }
            Err(e) => tally.violations.push(format!(
                "series {i}: streaming engine refused a valid series at horizon {horizon}: {e}"
            )),
        }
    }
}

/// Check 7 on any series, valid or not: the batch discretizer's records
/// (none when it refuses the series) against a window-kernel replay.
/// Records a violation and returns `false` on a mismatch.
fn sax_replay(i: usize, values: &[f64], config: &PipelineConfig, tally: &mut FamilyTally) -> bool {
    let records = config
        .sax()
        .discretize(values, config.numerosity_reduction())
        .unwrap_or_default();
    let result = check_sax_symbols(values, config, &records);
    if !result.passed() {
        tally.violations.push(format!(
            "series {i} (len {}, window {}, paa {}, alphabet {}): {}",
            values.len(),
            config.window(),
            config.paa(),
            config.alphabet(),
            result.violations.join("; ")
        ));
    }
    result.passed()
}

/// Brute force and HOTSAX are both exact fixed-length searches, so given
/// the same found-prefix every rank's discord *distance* is unique (the
/// chosen interval may differ on exact ties, after which the exclusion
/// zones — and so later ranks — legitimately diverge). Compare distance
/// bits rank by rank and stop at the first positional tie-break.
fn baseline_differential(
    values: &[f64],
    config: &PipelineConfig,
    k: usize,
    ws: &mut Workspace,
) -> Option<String> {
    let window = config.window();
    let hotsax_config = match HotSaxConfig::new(window, config.paa(), config.alphabet()) {
        Ok(c) => c,
        Err(e) => return Some(format!("HOTSAX refused config: {e}")),
    };
    let series = SeriesView::new(values);
    let brute = BruteForceDetector::new(window, k).detect(&series, ws, &NoopRecorder);
    let hotsax = HotSaxDetector::new(hotsax_config, k).detect(&series, ws, &NoopRecorder);
    let (brute, hotsax) = match (brute, hotsax) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(b), Err(_)) => {
            // Both refused (e.g. too short for any neighbour) — agreement.
            let _ = b;
            return None;
        }
        (Ok(_), Err(e)) => return Some(format!("HOTSAX refused where brute force ran: {e}")),
        (Err(e), Ok(_)) => return Some(format!("brute force refused where HOTSAX ran: {e}")),
    };
    if brute.anomalies.len() != hotsax.anomalies.len() {
        return Some(format!(
            "brute force found {} discord(s), HOTSAX {}",
            brute.anomalies.len(),
            hotsax.anomalies.len()
        ));
    }
    for (b, h) in brute.anomalies.iter().zip(&hotsax.anomalies) {
        if b.score.to_bits() != h.score.to_bits() {
            return Some(format!(
                "rank {}: brute force distance {} at {}, HOTSAX {} at {}",
                b.rank, b.score, b.interval, h.score, h.interval
            ));
        }
        if b.interval != h.interval {
            return None; // exact-tie interval divergence: later ranks incomparable
        }
    }
    None
}

/// Non-finite family: inject NaN / ±Inf into an otherwise valid walk and
/// demand `Error::NonFiniteInput` naming the first bad index from every
/// detector and from the streaming push path.
fn fuzz_non_finite(
    i: usize,
    rng: &mut StdRng,
    config: &PipelineConfig,
    k: usize,
    ws: &mut Workspace,
    tally: &mut FamilyTally,
) {
    let mut values = gen_valid(0, rng);
    let n_bad = rng.gen_range(1..=3usize);
    for _ in 0..n_bad {
        let at = rng.gen_range(0..values.len());
        values[at] = match rng.gen_range(0..3u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
    }
    let first_bad = values.iter().position(|v| !v.is_finite()).unwrap();
    let expected = Error::NonFiniteInput { index: first_bad };
    let mut ok = sax_replay(i, &values, config, tally);

    let series = SeriesView::new(&values);
    let detectors: [Box<dyn Detector>; 4] = [
        Box::new(gva_core::RraDetector::new(config.clone(), k)),
        Box::new(gva_core::DensityDetector::new(config.clone(), k)),
        Box::new(BruteForceDetector::new(config.window(), k)),
        Box::new(HotSaxDetector::new(
            HotSaxConfig::new(config.window(), config.paa(), config.alphabet()).unwrap(),
            k,
        )),
    ];
    for det in &detectors {
        match det.detect(&series, ws, &NoopRecorder) {
            Err(ref e) if *e == expected => {}
            other => {
                ok = false;
                tally.violations.push(format!(
                    "series {i}: {} on NaN/Inf input returned {:?}, expected {expected:?}",
                    det.name(),
                    other.map(|r| r.detector)
                ));
            }
        }
    }

    // Streaming: every point before the bad one is accepted, the bad one
    // is rejected without being consumed.
    let mut stream = StreamingDetector::new(config.clone());
    for (at, &v) in values[..=first_bad].iter().enumerate() {
        match stream.push(v) {
            Ok(()) if at < first_bad => {}
            Err(gva_core::Error::NonFiniteInput { index }) if at == first_bad => {
                if index != first_bad {
                    ok = false;
                    tally.violations.push(format!(
                        "series {i}: streaming rejected index {index}, expected {first_bad}"
                    ));
                }
            }
            other => {
                ok = false;
                tally.violations.push(format!(
                    "series {i}: streaming push({at}) returned {other:?} unexpectedly"
                ));
            }
        }
    }
    if ok {
        tally.passed += 1;
    }
}

/// Shorter-than-window family: every detector must refuse with a typed
/// error — never panic, never return a report.
#[allow(clippy::too_many_arguments)]
fn fuzz_short(
    i: usize,
    rng: &mut StdRng,
    config: &PipelineConfig,
    k: usize,
    window: usize,
    threads: usize,
    ws: &mut Workspace,
    tally: &mut FamilyTally,
) {
    let n = rng.gen_range(2..window);
    let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ok = sax_replay(i, &values, config, tally);

    if let Ok(report) = check_series(&values, config, k, threads) {
        ok = false;
        tally.violations.push(format!(
            "series {i}: pipeline accepted {n} points with window {window}:\n{}",
            report.render()
        ));
    }
    let series = SeriesView::new(&values);
    let brute = BruteForceDetector::new(window, k).detect(&series, ws, &NoopRecorder);
    if brute.is_ok() {
        ok = false;
        tally.violations.push(format!(
            "series {i}: brute force accepted {n} points with discord length {window}"
        ));
    }
    let hotsax = HotSaxDetector::new(
        HotSaxConfig::new(window, config.paa(), config.alphabet()).unwrap(),
        k,
    )
    .detect(&series, ws, &NoopRecorder);
    if hotsax.is_ok() {
        ok = false;
        tally.violations.push(format!(
            "series {i}: HOTSAX accepted {n} points with discord length {window}"
        ));
    }
    if ok {
        tally.passed += 1;
    }
}
