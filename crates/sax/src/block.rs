//! The O(P) window kernel behind [`SaxConfig::discretize_into`]: block
//! prefix sums, and a certificate that decides, window by window, whether
//! their symbols may stand in for the two-pass kernel's.
//!
//! [`SaxConfig::discretize_into`]: crate::SaxConfig::discretize_into
//!
//! # The fast path
//!
//! The two-pass kernel (`SaxConfig::symbolize`: `mean_std`, `znorm_into`,
//! `paa_into`, `Alphabet::symbol`) makes four O(W) passes per window. The
//! batch pass instead cuts the series into blocks of `W` consecutive
//! windows (`2W − 1` points) and, per block, subtracts a block-local shift
//! `c` (the block mean) and takes prefix sums `Ŝ_k = Σ_{i<k} d̂_i` and
//! `Q̂_k = Σ_{i<k} d̂_i²` of `d̂_i = fl(y_i − c)`. A window starting `a`
//! points into the block then reads its mean and σ from `Ŝ` and `Q̂` at
//! `a` and `a + W`, and segment `j` of its PAA from the two boundaries
//! `a + jW/P` and `a + (j+1)W/P`: with `(q, r) = divmod(jW, P)`, the
//! weighted cumulative sum up to boundary `j`, times `P`, is
//! `P·Ŝ_{a+q} + r·d̂_{a+q}`. That is O(P) per window plus O(1) amortized
//! for the block. The scratch is O(W), and the rounding depends on the
//! block's own magnitudes, not on the series length or its global level.
//!
//! # The certificate
//!
//! Write `u = 2⁻⁵³` and `γ_k = ku / (1 − ku)` (Higham, *Accuracy and
//! Stability of Numerical Algorithms*, 2nd ed., §3.1). In exact
//! arithmetic a window has mean `μ`, σ, segment means `Ā_j` (fractional
//! boundary points weighted by their overlap), PAA values
//! `p_j = (Ā_j − μ)/σ` when `σ ≥ τ` (`p_j = Ā_j − μ` otherwise) and symbols
//! `#{k : b_k ≤ p_j}` over the breakpoints `b_k`. Both kernels compute
//! rounded versions of these. If the fast value is within `Δᶠ` of the
//! exact one, the two-pass value within `Δᵗ`, and the fast value lies more
//! than `Δᶠ + Δᵗ` from every breakpoint, then both values lie strictly on
//! the exact value's side of every breakpoint, so both symbols equal the
//! exact symbol and each other. The same argument on `σ` against `τ`
//! shows that both kernels take the exact branch. A window is certified
//! when its `σ` and every PAA value clear their margin and every
//! quantity is finite; any other window re-runs the two-pass kernel.
//! The bounds below are first order in `u`; the margin actually tested is
//! `K = 2` times their sum, which absorbs the dropped `O(u²)` terms, the
//! rounding of evaluating the bound, and the rounding of the comparisons.
//! The model `fl(a ∘ b) = (a ∘ b)(1 + δ)` holds only away from underflow
//! and overflow, so a block whose largest magnitude `M` lies outside
//! `(1e-120, 1e100)` is not certified at all. Inside that range no sum
//! of `W` squares of `2M` overflows, and an operation that underflows
//! errs by at most `2⁻¹⁰⁷⁴` absolutely, far below the bound's smallest
//! term: a block that is not constant has `M_d` of at least about `u·M`,
//! so `ε_Q ≥ 3u·M_d²` and `η ≥ u·M` stay above 1e-290.
//!
//! **Block.** Each `fl(a + b)` equals `(a + b)/(1 + δ)` with `|δ| ≤ u`, so
//! it errs by at most `u` times its *result*: summed over the running
//! prefix, `|Ŝ_k − Σ_{i<k} d̂_i| ≤ u Σ_i |Ŝ_i|`. With `|d̂_i − d_i| ≤ u|d̂_i|`,
//! every prefix is within `ε_S = u(Σ|Ŝ_i| + Σ|d̂_i|)` of the exact shifted
//! sum. For squares, one more `u·d̂²` for the product and `2u·d̂²` for
//! `d̂²` against `d²` give `ε_Q = u(ΣQ̂_i + 3Q̂_N)`. Also kept: `M = max|y|`
//! (raw), `M_d = max|d̂|`.
//!
//! **Fast statistics.** `ŝ = fl(Ŝ_{a+W} − Ŝ_a)` and `m̂ = fl(ŝ/W)` give
//! `Δm = (2ε_S + u|ŝ|)/W + u|m̂|` on the shifted mean `m = μ − c`. The
//! variance `v̂ = fl(fl(q̂/W) − fl(m̂²))` errs by
//! `Δv = (2ε_Q + 2u q̂)/W + Δm(2|m̂| + Δm) + u m̂² + u|v̂|`, and since
//! `|√a − √b| ≤ min(√|a − b|, |a − b|/√a)`, `σ̂ᶠ = fl(√max(v̂, 0))` errs
//! by `Δσᶠ = min(√Δv, Δv/σ̂ᶠ) + u σ̂ᶠ`.
//!
//! **Fast PAA.** A boundary value `fl(fl(P·Ŝ_q) + fl(r·d̂_q))` errs by
//! `Pε_S` from the prefix, `u·P·M_d` from `d̂_q`, and `u·P(2|Ŝ_q| + 2M_d)`
//! from its three roundings: at most `4Pε_S`, since `ε_S ≥ u(|Ŝ_q| + M_d)`.
//! A segment `Â_j = fl(fl(B_{j+1} − B_j)/W)` then errs by
//! `ΔA = 8Pε_S/W + 2u M_d`. With `σ_f = σ̂ᶠ − Δσᶠ > 0` and
//! `p̂ = fl(fl(Â − m̂)·fl(1/σ̂ᶠ))`:
//! `|p̂ − p| ≤ (ΔA + Δm)/σ_f + |p̂|(Δσᶠ/σ_f + γ_3)`, or
//! `ΔA + Δm + u|p̂|` on the unscaled branch.
//!
//! **Two-pass kernel.** Its recursive window sum errs by `γ_{W−1}·W·M`, so
//! its mean by `γ_W M`, and each residual `fl(x_i − m̂ᵗ)` by at most
//! `η = γ_{W+3} M`. The residual vector is within `√W·η` of the exact one
//! in 2-norm, so `√(Σr̂²/W)` is within `η` of `σ`; the sum of squares, the
//! division and the square root add a relative `γ_{W+2}`:
//! `Δσᵗ = η + γ_{W+2}(σ̂ᶠ + Δσᶠ + η)`. Its PAA (`paa_into`) sums at most
//! `⌈L⌉ + 1` products (`L = W/P`), divides once by the rounded `fl(W/P)`,
//! and on the fractional path weights at most four points per segment by
//! overlaps computed from boundaries that are off by at most `4uW`: a
//! relative error `ρ = γ_{⌈L⌉+4} + 32uP` of `max|z_i|`. The points satisfy
//! `|x_i − μ| ≤ D = M_d + |m̂| + Δm`. With `σ_t = σ_f − Δσᵗ > 0`:
//! `|p̂ᵗ − p| ≤ ((|p̂| + Δpᶠ)Δσᵗ + η + (ρ + γ_3)(D + η))/σ_t` on the scaled
//! branch and `η + ρ(D + η)` on the unscaled one.
//!
//! The two-pass terms carry the raw magnitude `M`, not `M_d`: on a series
//! at a 1e8 level they dominate `E`, and there the two-pass kernel is the
//! less accurate of the two.

use crate::alphabet::Alphabet;

/// Unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// Safety factor on the first-order bound (see the module docs).
const K: f64 = 2.0;

/// The block magnitudes `M` the rounding model covers, exclusive (see
/// the module docs).
const MAGNITUDES: (f64, f64) = (1e-120, 1e100);

/// `margin > bound`, and `false` when either is NaN: a bound that cannot
/// be evaluated certifies nothing.
fn clears(margin: f64, bound: f64) -> bool {
    margin > bound
}

/// Higham's `γ_k = ku / (1 − ku)`.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * U;
    ku / (1.0 - ku)
}

/// Prefix sums over one block of `W` consecutive windows, plus the
/// per-`(W, P)` constants of the certificate. Rebuilt in place, so its
/// buffers hold `2W` entries at most.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockStats {
    window: usize,
    paa: usize,
    /// `(jW div P, jW mod P)` for the PAA boundaries `j = 1..=P` (boundary
    /// 0 is the window start).
    bounds: Vec<(usize, usize)>,
    /// `γ_{W+3}`: the two-pass residual error per unit of `M`.
    gamma_resid: f64,
    /// `γ_{W+2}`: the two-pass σ's relative error.
    gamma_sd: f64,
    /// `ρ`: the two-pass PAA's relative error.
    rho: f64,
    /// First series index of the block.
    start: usize,
    /// The block-local shift `c`.
    shift: f64,
    /// `Ŝ_k`, `k = 0..=N`.
    sum: Vec<f64>,
    /// `Q̂_k`, `k = 0..=N`.
    sum_sq: Vec<f64>,
    /// `ε_S`.
    err_sum: f64,
    /// `ε_Q`.
    err_sq: f64,
    /// `M = max|y|` over the block.
    max_abs: f64,
    /// `M_d = max|d̂|` over the block.
    max_dev: f64,
}

impl BlockStats {
    /// Sizes the buffers for windows of `window` points and `paa`
    /// segments (`1 ≤ paa ≤ window`). The only place this kernel grows a
    /// buffer: a batch pass calls it once, before its first block.
    pub(crate) fn prepare(&mut self, window: usize, paa: usize) {
        self.window = window;
        self.paa = paa;
        self.bounds.clear();
        self.bounds
            .extend((1..=paa).map(|j| (j * window / paa, j * window % paa)));
        self.gamma_resid = gamma(window + 3);
        self.gamma_sd = gamma(window + 2);
        self.rho = gamma(window.div_ceil(paa) + 4) + 32.0 * U * paa as f64;
        self.sum.resize(2 * window, 0.0);
        self.sum_sq.resize(2 * window, 0.0);
    }

    /// Buffer capacities, for allocation-stability assertions.
    pub(crate) fn capacities(&self) -> [usize; 3] {
        [
            self.bounds.capacity(),
            self.sum.capacity(),
            self.sum_sq.capacity(),
        ]
    }

    // gv-lint: hot
    /// Rebuilds the block over `values[start..start + len]`, where
    /// `len < 2W` (at most `W` windows). Two passes: the shift and `M`,
    /// then the prefix sums and the certificate's block terms.
    pub(crate) fn rebuild(&mut self, values: &[f64], start: usize, len: usize) {
        let block = &values[start..start + len];
        self.start = start;
        self.shift = block.iter().sum::<f64>() / len as f64;
        self.max_abs = block.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
        let (mut s, mut q) = (0.0, 0.0);
        let (mut abs_s, mut abs_d, mut tot_q, mut max_d) = (0.0, 0.0, 0.0, 0.0f64);
        self.sum[0] = 0.0;
        self.sum_sq[0] = 0.0;
        for (k, &y) in block.iter().enumerate() {
            let d = y - self.shift;
            s += d;
            q += d * d;
            self.sum[k + 1] = s;
            self.sum_sq[k + 1] = q;
            abs_s += s.abs();
            abs_d += d.abs();
            tot_q += q;
            max_d = max_d.max(d.abs());
        }
        self.err_sum = U * (abs_s + abs_d);
        self.err_sq = U * (tot_q + 3.0 * q);
        self.max_dev = max_d;
    }

    /// Writes the symbols of the window starting `a` points into the block
    /// to `out` (`P` slots) and returns `true` when the certificate clears
    /// them; `false` means `out` is unusable and the caller must run the
    /// two-pass kernel. `values` is the series the block was built from.
    pub(crate) fn symbols(
        &self,
        values: &[f64],
        a: usize,
        alphabet: &Alphabet,
        threshold: f64,
        out: &mut [u8],
    ) -> bool {
        if !(clears(self.max_abs, MAGNITUDES.0) && clears(MAGNITUDES.1, self.max_abs)) {
            return false;
        }
        let w = self.window as f64;
        let pw = self.paa as f64;
        // Fast statistics and their error.
        let s_hat = self.sum[a + self.window] - self.sum[a];
        let q_hat = self.sum_sq[a + self.window] - self.sum_sq[a];
        let mean = s_hat / w;
        let var = q_hat / w - mean * mean;
        let sd = var.max(0.0).sqrt();
        let d_mean = (2.0 * self.err_sum + U * s_hat.abs()) / w + U * mean.abs();
        let d_var = (2.0 * self.err_sq + 2.0 * U * q_hat.abs()) / w
            + d_mean * (2.0 * mean.abs() + d_mean)
            + U * (mean * mean + var.abs());
        let d_sd = d_var.sqrt().min(d_var / sd) + U * sd;
        // The two-pass kernel's error.
        let eta = self.gamma_resid * self.max_abs;
        let d_sd_two = eta + self.gamma_sd * (sd + d_sd + eta);
        // Both kernels take the branch exact arithmetic takes.
        if !clears((sd - threshold).abs(), K * (d_sd + d_sd_two)) {
            return false;
        }
        let scaled = sd >= threshold;
        let dev = self.max_dev + mean.abs() + d_mean;
        let d_seg = 8.0 * pw * self.err_sum / w + 2.0 * U * self.max_dev;
        let g3 = gamma(3);
        // E(p) = e0 + e1·|p| bounds |fast − exact| + |two-pass − exact|.
        let (e0, e1, inv) = if scaled {
            let lo_fast = sd - d_sd;
            let lo_two = lo_fast - d_sd_two;
            if !clears(lo_two, 0.0) {
                return false;
            }
            let f0 = (d_seg + d_mean) / lo_fast;
            let f1 = d_sd / lo_fast + g3;
            let t0 = (f0 * d_sd_two + eta + (self.rho + g3) * (dev + eta)) / lo_two;
            let t1 = d_sd_two * (1.0 + f1) / lo_two;
            (K * (f0 + t0), K * (f1 + t1), 1.0 / sd)
        } else {
            let f0 = d_seg + d_mean;
            let t0 = eta + self.rho * (dev + eta);
            (K * (f0 + t0), K * U, 1.0)
        };
        if !(e0.is_finite() && e1.is_finite()) {
            return false;
        }
        let breakpoints = alphabet.breakpoints();
        let mut prev = pw * self.sum[a];
        for (slot, &(q, r)) in out.iter_mut().zip(&self.bounds) {
            let at = a + q;
            let next = if r == 0 {
                pw * self.sum[at]
            } else {
                pw * self.sum[at] + r as f64 * (values[self.start + at] - self.shift)
            };
            let centered = (next - prev) / w - mean;
            prev = next;
            let p = if scaled { centered * inv } else { centered };
            if !p.is_finite() {
                return false;
            }
            let s = alphabet.symbol(p);
            let e = e0 + e1 * p.abs();
            let below = s
                .checked_sub(1)
                .map_or(f64::INFINITY, |i| p - breakpoints[i as usize]);
            let above = breakpoints
                .get(s as usize)
                .map_or(f64::INFINITY, |&b| b - p);
            if !(clears(below, e) && clears(above, e)) {
                return false;
            }
            *slot = s;
        }
        true
    }
    // gv-lint: end-hot
}
