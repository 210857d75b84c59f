//! Nonlinear kernels shared by the transformer layers: softmax, GELU, and
//! layer normalization, each with its exact backward.
//!
//! # Determinism of the elementwise nonlinearities
//!
//! Softmax and GELU use no libm transcendental. They are built on the
//! crate-private [`exp`], which, like everything around it, uses only
//! exactly-rounded IEEE operations (`+ − × ÷`, `mul_add`, clamping and bit
//! casts). So their results are the same bits on any CPU and with any libm,
//! and they need no runtime SIMD dispatch: the loops are plain branch-free
//! Rust that LLVM vectorizes, and a vectorized lane computes exactly what the
//! scalar remainder computes.

use crate::tensor::Tensor;

/// Inputs at or below this make [`exp`] return exactly `+0.0`: they round
/// to `n = −127`, whose bit-cast scale `2ⁿ` is the all-zero word.
const EXP_LO: f32 = -88.0;
/// Inputs are clamped to this from above, so [`exp`] stays finite
/// (`e⁸⁸ ≈ 1.65e38`) and quotients like `v / (1 + e)` never see `∞ / ∞`.
const EXP_HI: f32 = 88.0;
/// `1.5·2²³`: adding it to `|t| < 2²²` rounds `t` to an integer held in the
/// low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split for Cody–Waite reduction; `LN2_HI` has trailing zero bits so
/// `n·LN2_HI` is exact for every `n` that survives the clamp.
const LN2_HI: f32 = 0.693_145_75;
const LN2_LO: f32 = 1.428_606_8e-6;
/// Minimax coefficients of `eʳ − 1 ≈ r·(C1 + r·(C2 + … + r·C5))` on
/// `|r| ≤ ln2/2`.
const EXP_C1: f32 = 0.999_999_4;
const EXP_C2: f32 = 0.499_991_27;
const EXP_C3: f32 = 0.166_683_96;
const EXP_C4: f32 = 0.041_899_767;
const EXP_C5: f32 = 0.008_247_39;

/// Branch-free `eˣ` from exactly-rounded ops only.
///
/// `x = n·ln2 + r` with `n = round(x·log2 e)`, then `eˣ = 2ⁿ·(1 + p(r))`
/// with `2ⁿ` built by writing `n + 127` into the exponent field. Relative
/// error is under `2⁻²²` on `[−87, 88]`; results are exactly `+0.0` at or
/// below [`EXP_LO`], saturate at `e⁸⁸` above [`EXP_HI`], and NaN propagates.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    let t = x.mul_add(std::f32::consts::LOG2_E, ROUND_MAGIC);
    let n = t - ROUND_MAGIC;
    let r = (-n).mul_add(LN2_LO, (-n).mul_add(LN2_HI, x));
    // `t`'s low mantissa bits hold `n` (offset by the magic's own bits,
    // which vanish in the shift): shifting `n + 127` into place is `2ⁿ`.
    let scale = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    let r2 = r * r;
    let hi = EXP_C5.mul_add(r, EXP_C4);
    let lo = EXP_C3.mul_add(r, EXP_C2);
    let p = hi.mul_add(r2, lo).mul_add(r2, EXP_C1 * r);
    p.mul_add(scale, scale)
}

/// Row-wise softmax (numerically stabilized).
///
/// Probabilities whose logit sits 88 or more below the row maximum are
/// exactly `0.0`, so causally masked entries (`−1e30`) stay exactly zero.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v = exp(*v - max);
        }
        let sum: f32 = row.iter().sum();
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Backward of row-wise softmax: given `y = softmax(x)` and `dy`, returns
/// `dx = y ⊙ (dy - (y·dy))` per row.
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!((y.rows(), y.cols()), (dy.rows(), dy.cols()));
    let mut out = Tensor::zeros(y.rows(), y.cols());
    for r in 0..y.rows() {
        let yr = y.row(r);
        let dyr = dy.row(r);
        let dot: f32 = yr.iter().zip(dyr).map(|(&a, &b)| a * b).sum();
        for (o, (&yv, &dyv)) in out.row_mut(r).iter_mut().zip(yr.iter().zip(dyr)) {
            *o = yv * (dyv - dot);
        }
    }
    out
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/π)
const GELU_A: f32 = 0.044715;
/// `z = −2u = v·(Z1 + Z3·v²)` for GELU's tanh argument
/// `u = √(2/π)·(v + 0.044715·v³)`.
const GELU_Z1: f32 = -2.0 * GELU_C;
const GELU_Z3: f32 = -2.0 * GELU_C * GELU_A;
/// `2u′ = D1 + D3·v²`.
const GELU_D1: f32 = 2.0 * GELU_C;
const GELU_D3: f32 = 6.0 * GELU_C * GELU_A;
/// The backward evaluates its derivative at `v` clamped to `±GELU_SAT`.
/// Beyond it `gelu′` is `0` or `1` to within `1e−30`, and the clamp keeps
/// `v = ±∞` from meeting a zero factor (`∞·0 = NaN`).
const GELU_SAT: f32 = 10.0;

/// GELU activation (tanh approximation).
///
/// Uses `0.5·v·(1 + tanh u) = v / (1 + e^(−2u))`: one [`exp`] and one
/// division per element, in one pass into a pool buffer.
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(|v| v / (1.0 + exp(v * GELU_Z3.mul_add(v * v, GELU_Z1))))
}

/// Backward of [`gelu`]: `dx = dy * gelu'(x)`, fused into one pass.
///
/// With `s = 1 / (1 + e^(−2u))`, `gelu = v·s` and
/// `gelu′ = s + 2·v·s·(1 − s)·u′`, where `1 − s` is formed as `e^(−2u)·s`
/// to avoid cancellation.
pub fn gelu_backward(x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip_map(dy, |v, g| {
        let v = v.clamp(-GELU_SAT, GELU_SAT);
        let v2 = v * v;
        let e = exp(v * GELU_Z3.mul_add(v2, GELU_Z1));
        let s = 1.0 / (1.0 + e);
        g * (v * s * (e * s)).mul_add(GELU_D3.mul_add(v2, GELU_D1), s)
    })
}

/// Stash produced by [`layernorm`] for its backward.
#[derive(Debug, Clone)]
pub struct LayerNormStash {
    /// Normalized input `x̂`.
    pub xhat: Tensor,
    /// Per-row `1/σ`.
    pub inv_std: Vec<f32>,
}

impl LayerNormStash {
    /// Total `f32` elements held by this stash.
    pub fn elements(&self) -> usize {
        self.xhat.len() + self.inv_std.len()
    }

    /// Visit each pool-backed buffer's length (the `inv_std` vector is a
    /// plain allocation and is not pooled).
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        f(self.xhat.len());
    }
}

const LN_EPS: f32 = 1e-5;

/// Layer normalization over each row: `y = γ ⊙ x̂ + β`.
pub fn layernorm(x: &Tensor, gamma: &[f32], beta: &[f32]) -> (Tensor, LayerNormStash) {
    let n = x.cols();
    assert_eq!(gamma.len(), n);
    assert_eq!(beta.len(), n);
    let mut xhat = x.clone();
    let mut inv_std = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let row = xhat.row_mut(r);
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        for v in row.iter_mut() {
            *v = (*v - mean) * inv;
        }
        inv_std.push(inv);
    }
    let mut y = xhat.clone();
    for r in 0..y.rows() {
        for (c, v) in y.row_mut(r).iter_mut().enumerate() {
            *v = *v * gamma[c] + beta[c];
        }
    }
    (y, LayerNormStash { xhat, inv_std })
}

/// Backward of [`layernorm`]: returns `(dx, dγ, dβ)`.
pub fn layernorm_backward(
    stash: &LayerNormStash,
    gamma: &[f32],
    dy: &Tensor,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let n = dy.cols();
    let mut dgamma = vec![0.0f32; n];
    let mut dbeta = vec![0.0f32; n];
    let mut dx = Tensor::zeros(dy.rows(), n);
    for r in 0..dy.rows() {
        let xhat = stash.xhat.row(r);
        let dyr = dy.row(r);
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        // dxhat = dy * gamma
        for c in 0..n {
            let dxhat = dyr[c] * gamma[c];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat[c];
            dgamma[c] += dyr[c] * xhat[c];
            dbeta[c] += dyr[c];
        }
        let inv = stash.inv_std[r];
        let nf = n as f32;
        for c in 0..n {
            let dxhat = dyr[c] * gamma[c];
            dx.set(
                r,
                c,
                inv / nf * (nf * dxhat - sum_dxhat - xhat[c] * sum_dxhat_xhat),
            );
        }
    }
    (dx, dgamma, dbeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Central-difference numerical gradient check for a scalar loss
    /// `L = Σ y ⊙ w` of a tensor op.
    fn num_grad(x: &Tensor, weights: &Tensor, f: impl Fn(&Tensor) -> Tensor) -> Tensor {
        let eps = 1e-3f32;
        let mut g = Tensor::zeros(x.rows(), x.cols());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = f(&xp).hadamard(weights).data().iter().sum();
            let lm: f32 = f(&xm).hadamard(weights).data().iter().sum();
            g.data_mut()[i] = (lp - lm) / (2.0 * eps);
        }
        g
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(1);
        let x = Tensor::normal(4, 7, 2.0, &mut rng);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_masked_entries_are_exactly_zero() {
        let mut rng = Rng::new(7);
        for len in 1..=67 {
            let mut x = Tensor::normal(len, len, 8.0, &mut rng);
            for i in 0..len {
                for j in (i + 1)..len {
                    x.set(i, j, -1e30);
                }
            }
            let y = softmax_rows(&x);
            for i in 0..len {
                let s: f32 = y.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "row {i} of {len} sums to {s}");
                for j in (i + 1)..len {
                    assert_eq!(y.get(i, j).to_bits(), 0.0f32.to_bits());
                }
            }
        }
    }

    #[test]
    fn softmax_backward_matches_numeric() {
        let mut rng = Rng::new(2);
        let x = Tensor::normal(3, 5, 1.0, &mut rng);
        let w = Tensor::normal(3, 5, 1.0, &mut rng);
        let y = softmax_rows(&x);
        let analytic = softmax_rows_backward(&y, &w);
        let numeric = num_grad(&x, &w, softmax_rows);
        assert!(
            analytic.max_abs_diff(&numeric) < 2e-3,
            "diff {}",
            analytic.max_abs_diff(&numeric)
        );
    }

    #[test]
    fn gelu_values_and_backward() {
        let x = Tensor::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        let y = gelu(&x);
        assert!((y.get(0, 1)).abs() < 1e-6);
        assert!(y.get(0, 2) > 1.9 && y.get(0, 2) < 2.0);
        assert!(y.get(0, 0) > -0.1 && y.get(0, 0) < 0.0);

        let mut rng = Rng::new(3);
        let x = Tensor::normal(2, 6, 1.0, &mut rng);
        let w = Tensor::normal(2, 6, 1.0, &mut rng);
        let analytic = gelu_backward(&x, &w);
        let numeric = num_grad(&x, &w, gelu);
        assert!(analytic.max_abs_diff(&numeric) < 2e-3);
    }

    /// f64 reference of the tanh-form GELU and its derivative.
    fn gelu_ref(v: f64) -> (f64, f64) {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let a = 0.044715;
        let t = (c * (v + a * v * v * v)).tanh();
        let y = 0.5 * v * (1.0 + t);
        let dy = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * a * v * v);
        (y, dy)
    }

    /// Error measured absolutely, or relatively where `|reference| > 1`.
    fn scaled_err(got: f32, want: f64) -> f64 {
        (f64::from(got) - want).abs() / want.abs().max(1.0)
    }

    #[test]
    fn gelu_matches_f64_reference_on_dense_grid() {
        let xs: Vec<f32> = (-120_000..=120_000).map(|i| i as f32 * 1e-4).collect();
        let x = Tensor::from_vec(1, xs.len(), xs.clone());
        let ones = Tensor::from_vec(1, xs.len(), vec![1.0; xs.len()]);
        let y = gelu(&x);
        let dx = gelu_backward(&x, &ones);
        let (mut fwd, mut bwd) = (0.0f64, 0.0f64);
        for (i, &v) in xs.iter().enumerate() {
            let (ry, rd) = gelu_ref(f64::from(v));
            fwd = fwd.max(scaled_err(y.data()[i], ry));
            bwd = bwd.max(scaled_err(dx.data()[i], rd));
        }
        assert!(fwd <= 2e-7, "forward max error {fwd:e}");
        assert!(bwd <= 4e-6, "backward max error {bwd:e}");
    }

    #[test]
    fn gelu_special_values() {
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            1e4,
            -1e4,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let x = Tensor::from_vec(1, specials.len(), specials.to_vec());
        let ones = Tensor::from_vec(1, specials.len(), vec![1.0; specials.len()]);
        let y = gelu(&x);
        let dx = gelu_backward(&x, &ones);
        for (i, &v) in specials.iter().enumerate() {
            assert!(!y.data()[i].is_nan(), "gelu({v:e}) is NaN");
            assert!(!dx.data()[i].is_nan(), "gelu'({v:e}) is NaN");
        }
        // Signed zeros map to themselves; the slope there is exactly 1/2.
        assert_eq!(y.data()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(y.data()[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(dx.data()[0], 0.5);
        assert_eq!(y.data()[6], 1e4);
        assert_eq!(y.data()[8], f32::INFINITY);
        assert_eq!(dx.data()[6], 1.0);
        assert!(dx.data()[7].abs() < 1e-30);

        let nan = Tensor::from_vec(1, 1, vec![f32::NAN]);
        let one = Tensor::from_vec(1, 1, vec![1.0]);
        assert!(gelu(&nan).data()[0].is_nan());
        assert!(gelu_backward(&nan, &one).data()[0].is_nan());
        assert!(gelu_backward(&one, &nan).data()[0].is_nan());
    }

    #[test]
    fn gelu_vector_body_bit_equals_scalar_tail() {
        let mut rng = Rng::new(6);
        for len in 1..=67 {
            let x = Tensor::normal(1, len, 4.0, &mut rng);
            let dy = Tensor::normal(1, len, 1.0, &mut rng);
            let y = gelu(&x);
            let dx = gelu_backward(&x, &dy);
            for i in 0..len {
                let xi = Tensor::from_vec(1, 1, vec![x.data()[i]]);
                let dyi = Tensor::from_vec(1, 1, vec![dy.data()[i]]);
                assert_eq!(
                    y.data()[i].to_bits(),
                    gelu(&xi).data()[0].to_bits(),
                    "gelu len {len} elem {i}"
                );
                assert_eq!(
                    dx.data()[i].to_bits(),
                    gelu_backward(&xi, &dyi).data()[0].to_bits(),
                    "gelu_backward len {len} elem {i}"
                );
            }
        }
    }

    #[test]
    fn exp_accuracy_monotonicity_and_underflow() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        let mut worst = 0.0f64;
        let mut prev = 0.0f32;
        for i in -870_000..=880_000 {
            let x = i as f32 * 1e-4;
            let got = exp(x);
            let want = f64::from(x).exp();
            worst = worst.max((f64::from(got) - want).abs() / want);
            assert!(got >= prev, "exp not monotone at {x}: {got:e} < {prev:e}");
            prev = got;
        }
        assert!(worst <= 2f64.powi(-22), "exp max relative error {worst:e}");
        for x in [-88.0f32, -88.5, -100.0, -1e30, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0.0f32.to_bits(), "exp({x:e})");
        }
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(f32::INFINITY).is_finite());
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Rng::new(4);
        let x = Tensor::normal(3, 64, 5.0, &mut rng);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        let (y, _) = layernorm(&x, &gamma, &beta);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 64.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_backward_matches_numeric() {
        let mut rng = Rng::new(5);
        let x = Tensor::normal(2, 8, 1.5, &mut rng);
        let gamma: Vec<f32> = (0..8).map(|i| 0.5 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..8).map(|i| 0.05 * i as f32).collect();
        let w = Tensor::normal(2, 8, 1.0, &mut rng);
        let (_, stash) = layernorm(&x, &gamma, &beta);
        let (dx, dgamma, dbeta) = layernorm_backward(&stash, &gamma, &w);
        let numeric = num_grad(&x, &w, |t| layernorm(t, &gamma, &beta).0);
        assert!(
            dx.max_abs_diff(&numeric) < 3e-3,
            "{}",
            dx.max_abs_diff(&numeric)
        );
        // dβ = column sums of dy.
        for (c, &db) in dbeta.iter().enumerate() {
            let expect: f32 = (0..2).map(|r| w.get(r, c)).sum();
            assert!((db - expect).abs() < 1e-5);
        }
        // dγ numeric check on one coordinate.
        let eps = 1e-3;
        let mut gp = gamma.clone();
        gp[3] += eps;
        let mut gm = gamma.clone();
        gm[3] -= eps;
        let lp: f32 = layernorm(&x, &gp, &beta).0.hadamard(&w).data().iter().sum();
        let lm: f32 = layernorm(&x, &gm, &beta).0.hadamard(&w).data().iter().sum();
        assert!((dgamma[3] - (lp - lm) / (2.0 * eps)).abs() < 3e-3);
    }
}
