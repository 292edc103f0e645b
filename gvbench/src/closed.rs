//! The closed-loop driver shared by the in-process and CLI workloads: one
//! caller issues the next op only when the previous one has returned.
//!
//! A run cycles round-robin through a fixed set of inputs generated from
//! the seed, and every timing is input-balanced (each input's median,
//! averaged over inputs). Op cost varies by tens of percent from one
//! generated series to the next, so a run over one input would measure
//! the seed more than the code.
//!
//! End-to-end runs (`--trace 0`) time untraced ops only. Traced runs
//! (`--trace 1`) follow each untraced op with the same op decomposed into
//! timed layer calls on the same input, so both see the same host
//! conditions and the difference between them is the tracing overhead.

use std::time::Instant;

use crate::layers::{balanced_of, sum_of_layers_ns, KernelProbe, Layers};
use crate::stats::{balanced, percentile};
use crate::{host, Outcome, Run, SETUPS};

/// A workload the closed-loop driver can run.
pub trait ClosedLoop {
    /// How many inputs the run cycles through.
    fn inputs(&self) -> usize;
    /// Points in input `input`.
    fn points(&self, input: usize) -> usize;
    /// One op on `input`; returns a digest of its result.
    fn op(&mut self, input: usize) -> Result<u64, String>;
    /// The same op decomposed into timed layer calls; returns a digest of
    /// its result.
    fn traced_op(&mut self, input: usize, layers: &mut Layers) -> Result<u64, String>;
    /// Runqueue wait (ns) of processes the last op started, which this
    /// thread's schedstat does not see.
    fn child_wait_ns(&self) -> u64 {
        0
    }
    /// Oracles run once per input, outside every timed region, on the
    /// digests of its first op and (in traced runs) its first traced op.
    fn verify(&mut self, input: usize, op: u64, traced: Option<u64>) -> Result<(), String>;
    /// Peak RSS (MB) of ops in a process of their own.
    fn peak_rss_mb(&mut self) -> Result<f64, String>;
    /// Kernel cost on the workload's own shapes; `None` when the workload
    /// computes no distance.
    fn kernel_probe(&mut self) -> Result<Option<KernelProbe>, String>;
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Sets up [`SETUPS`] times (each set-up ends with the first op), then
/// cycles ops through the inputs for `run.seconds`, checking every result
/// against the first one on the same input.
pub fn drive<W: ClosedLoop>(
    run: &Run,
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut w = setup()?;
        let first = w.op(0)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((w, first));
    }
    let (mut w, first) = ready.ok_or("no set-up ran")?;
    let inputs = w.inputs();
    let mut first_op: Vec<Option<u64>> = vec![None; inputs];
    let mut first_traced: Vec<Option<u64>> = vec![None; inputs];
    first_op[0] = Some(first);

    let mut op_ms: Vec<(usize, f64)> = Vec::new();
    let mut traced_ms: Vec<(usize, f64)> = Vec::new();
    let mut layers: Vec<(usize, Layers)> = Vec::new();
    let mut failed = 0u64;
    let mut child_wait = 0u64;
    let mut tally = |result: Result<u64, String>, first: &mut Option<u64>| match result {
        Ok(d) if *first.get_or_insert(d) == d => {}
        Ok(_) => failed += 1,
        Err(e) => {
            eprintln!("op failed: {e}");
            failed += 1;
        }
    };
    let wait0 = host::wait_ns("thread-self");
    let t0 = Instant::now();
    for input in (0..inputs).cycle() {
        if t0.elapsed() >= run.seconds {
            break;
        }
        let t = Instant::now();
        let digest = w.op(input);
        op_ms.push((input, ms_since(t)));
        child_wait += w.child_wait_ns();
        tally(digest, &mut first_op[input]);
        if run.trace {
            let mut l = Layers::default();
            let t = Instant::now();
            let digest = w.traced_op(input, &mut l);
            traced_ms.push((input, ms_since(t)));
            child_wait += w.child_wait_ns();
            layers.push((input, l));
            tally(digest, &mut first_traced[input]);
        }
    }
    let wait_share = host::wait_share(wait0, child_wait, t0.elapsed().as_nanos() as f64);
    let attempted = (op_ms.len() + traced_ms.len()) as u64;
    for input in 0..inputs {
        let Some(op) = first_op[input] else { continue };
        if let Err(e) = w.verify(input, op, first_traced[input]) {
            eprintln!("oracle failed on input {input}: {e}");
            failed = attempted;
        }
    }

    let op_p50 = balanced(&op_ms);
    let metrics = if run.trace {
        let pooled: Vec<f64> = op_ms.iter().map(|s| s.1).collect();
        let mut m = layer_metrics(&layers, w.kernel_probe()?);
        m.extend([
            ("run.op_ms_p90", p90_or_zero(&pooled)),
            ("run.ops", traced_ms.len() as f64),
            ("run.wait_share", wait_share),
            ("run.trace_coverage", trace_coverage(&layers, op_p50)),
            (
                "run.trace_overhead_share",
                balanced(&traced_ms) / op_p50 - 1.0,
            ),
        ]);
        m
    } else {
        // Points per second of the balanced op: every input counts once.
        let covered: Vec<usize> = (0..inputs).filter(|&i| first_op[i].is_some()).collect();
        let points: usize = covered.iter().map(|&i| w.points(i)).sum();
        vec![
            ("op_ms_p50", op_p50),
            (
                "points_per_s",
                points as f64 / (op_p50 / 1e3 * covered.len() as f64),
            ),
            ("peak_rss_mb", w.peak_rss_mb()?),
            ("setup_s", crate::stats::median(&setup_s)),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// The p90 of pooled op times, or 0 (with a note) when fewer than ten
/// samples lie beyond it.
pub fn p90_or_zero(samples: &[f64]) -> f64 {
    percentile(samples, 0.90).unwrap_or_else(|| {
        eprintln!(
            "info: {} ops are too few for a p90; reported as 0",
            samples.len()
        );
        0.0
    })
}

/// Σ layer / op (both balanced), with a finding printed when the layers
/// explain less than 90 % or more than 110 % of the op.
pub fn trace_coverage(layers: &[(usize, Layers)], op_ms_p50: f64) -> f64 {
    let coverage = sum_of_layers_ns(layers) / 1e6 / op_ms_p50;
    if !(0.9..=1.1).contains(&coverage) {
        eprintln!("finding: the timed layers explain {coverage:.3} of the median op");
    }
    coverage
}

/// The per-layer metrics of a set of decomposed ops.
pub fn layer_metrics(
    layers: &[(usize, Layers)],
    kernel: Option<KernelProbe>,
) -> Vec<(&'static str, f64)> {
    let ms = |f: fn(&Layers) -> u64| balanced_of(layers, f) / 1e6;
    let count = |f: fn(&Layers) -> u64| balanced_of(layers, f);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let windows = count(|l| l.windows);
    let words = count(|l| l.words);
    let calls = count(|l| l.distance_calls);
    let kernel = kernel.unwrap_or_default();
    vec![
        ("sax.discretize_ms", ms(|l| l.discretize_ns)),
        (
            "sax.ns_per_window",
            per(ms(|l| l.discretize_ns) * 1e6, windows),
        ),
        ("sax.windows", windows),
        ("sax.words_kept_ratio", per(words, windows)),
        ("sax.intern_ms", ms(|l| l.intern_ns)),
        ("sequitur.induce_ms", ms(|l| l.induce_ns)),
        (
            "sequitur.ns_per_token",
            per(ms(|l| l.induce_ns) * 1e6, words),
        ),
        ("sequitur.rules", count(|l| l.rules)),
        ("density.curve_ms", ms(|l| l.density_ns)),
        ("rra.search_ms", ms(|l| l.search_ns)),
        ("rra.distance_calls", calls),
        ("rra.ns_per_call", per(ms(|l| l.search_ns) * 1e6, calls)),
        (
            "rra.early_abandon_ratio",
            per(count(|l| l.early_abandoned), calls),
        ),
        ("rra.len_mismatch_share", kernel.len_mismatch_share),
        ("discord.aligned_ns_per_cmp", kernel.aligned_ns),
        ("discord.resampled_ns_per_cmp", kernel.resampled_ns),
        ("cli.parse_ms", ms(|l| l.parse_ns)),
        ("cli.render_ms", ms(|l| l.render_ns)),
        ("cli.exec_overhead_ms", ms(|l| l.exec_ns)),
    ]
}
