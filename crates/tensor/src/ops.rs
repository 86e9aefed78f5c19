//! Nonlinear neural-network building blocks.
//!
//! These are the reference (digital, fp64) implementations of every
//! nonlinearity that appears in the paper's two accelerators:
//!
//! * softmax — computed digitally via LUTs in both TRON and GHOST;
//! * layer normalization — implemented optically by a single
//!   parameter-tuned MR in TRON (§V.C);
//! * ReLU / sigmoid / tanh — implemented optically by SOAs in GHOST's
//!   update units (§V.D);
//! * GELU — used by the feed-forward blocks of modern transformer
//!   configurations.

use crate::{Matrix, TensorError};

/// Row-wise numerically-stable softmax.
///
/// A row whose entries are all `-inf` (a fully-masked attention row —
/// every position disallowed) produces an all-zero output row rather
/// than NaN: the naive `exp(v - max)` would compute `-inf - -inf`.
/// Zero weights mean "attend to nothing", which composes cleanly with
/// the context product downstream.
///
/// # Example
///
/// ```
/// use phox_tensor::{Matrix, ops};
///
/// # fn main() -> Result<(), phox_tensor::TensorError> {
/// let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0]])?;
/// let p = ops::softmax_rows(&logits);
/// assert!((p.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        softmax_in_place(out.row_mut(r));
    }
    out
}

/// The row body of [`softmax_rows`], applied in place to one row: every
/// output bit equals the corresponding row of `softmax_rows`, including
/// the all-zero result for a fully-masked (all `-inf`) or empty row.
/// The fused decode attention kernel
/// ([`crate::gemm::simd::attend`]) normalises its scores through it.
pub fn softmax_in_place(row: &mut [f64]) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        // Fully-masked (or empty) row: exp(v - max) would be NaN.
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Matrix product with a strictly sequential accumulation order over the
/// inner dimension: `out[i][j] = ((a[i][0]·b[0][j] + a[i][1]·b[1][j]) +
/// …)`, one accumulator, ascending `k`.
///
/// Unlike the blocked/multi-lane [`Matrix::matmul`], this order is
/// *prefix-invariant*: extending the inner dimension with rows whose
/// contribution is exactly `±0.0` leaves every output bit unchanged
/// (adding a zero term to a running f64 sum is an exact no-op). The
/// attention context product `softmax(scores)·V` keeps this order, so a
/// KV-cached decode step over `t` context rows is bit-identical to row
/// `t-1` of the full causal forward over `L ≥ t` rows, where the masked
/// tail carries exact-zero weights. No model path calls this function:
/// the heads run [`crate::gemm::simd::context`] and a decode step
/// [`crate::gemm::simd::attend`], each bit for bit in this order. It and
/// [`softmax_rows`] serve as the oracle those kernels are pinned against
/// (the `heads_oracle` and `simd_prop` suites) and in the bench digest.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_seq(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        // SIMD over the output columns only: each output element keeps
        // its own single accumulator advancing in ascending `k`, so the
        // prefix-invariance contract above is bitwise unchanged.
        for (p, &av) in arow.iter().enumerate().take(k) {
            let brow = &b.as_slice()[p * n..(p + 1) * n];
            crate::gemm::simd::axpy(orow, av, brow);
        }
    }
    Ok(out)
}

/// Row-wise layer normalization with learnable per-column `gamma`/`beta`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `gamma`/`beta` length does not
/// equal the column count.
pub fn layer_norm(
    x: &Matrix,
    gamma: &[f64],
    beta: &[f64],
    eps: f64,
) -> Result<Matrix, TensorError> {
    if gamma.len() != x.cols() || beta.len() != x.cols() {
        return Err(TensorError::ShapeMismatch {
            lhs: x.shape(),
            rhs: (gamma.len(), beta.len()),
        });
    }
    let mut out = x.clone();
    let cols = x.cols();
    for r in 0..x.rows() {
        let row = out.row_mut(r);
        let mean = row.iter().sum::<f64>() / cols as f64;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / cols as f64;
        let inv = 1.0 / (var + eps).sqrt();
        for (c, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv * gamma[c] + beta[c];
        }
    }
    Ok(out)
}

/// Element-wise ReLU.
pub fn relu(x: &Matrix) -> Matrix {
    x.map(|v| v.max(0.0))
}

/// Element-wise logistic sigmoid.
pub fn sigmoid(x: &Matrix) -> Matrix {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// Element-wise hyperbolic tangent.
pub fn tanh(x: &Matrix) -> Matrix {
    x.map(f64::tanh)
}

/// Element-wise GELU (tanh approximation, as used by BERT/GPT).
pub fn gelu(x: &Matrix) -> Matrix {
    x.map(gelu_scalar)
}

/// Scalar GELU (tanh approximation).
pub fn gelu_scalar(v: f64) -> f64 {
    const C: f64 = 0.797_884_560_802_865_4; // sqrt(2/pi)
    0.5 * v * (1.0 + (C * (v + 0.044_715 * v.powi(3))).tanh())
}

/// Scalar LeakyReLU with slope `alpha` for negative inputs (used by GAT).
pub fn leaky_relu_scalar(v: f64, alpha: f64) -> f64 {
    if v >= 0.0 {
        v
    } else {
        alpha * v
    }
}

/// Row-wise argmax (ties resolved to the lowest index). Used by accuracy
/// evaluation of classification heads.
pub fn argmax_rows(x: &Matrix) -> Vec<usize> {
    (0..x.rows())
        .map(|r| {
            let row = x.row(r);
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).unwrap();
        let p = softmax_rows(&x);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[&[101.0, 102.0, 103.0]]).unwrap();
        assert!(softmax_rows(&a).approx_eq(&softmax_rows(&b), 1e-12));
    }

    #[test]
    fn softmax_handles_large_magnitudes() {
        let x = Matrix::from_rows(&[&[1e6, 1e6 + 1.0]]).unwrap();
        let p = softmax_rows(&x);
        assert!(p.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_fully_masked_row_is_all_zero() {
        // Regression: an all-(-inf) row used to poison itself with NaN
        // (max = -inf, so v - max = NaN). Defined behavior: all zeros.
        let x = Matrix::from_rows(&[
            &[f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY],
            &[0.0, f64::NEG_INFINITY, f64::NEG_INFINITY],
        ])
        .unwrap();
        let p = softmax_rows(&x);
        assert_eq!(p.row(0), &[0.0, 0.0, 0.0]);
        // Partially-masked rows are unaffected by the guard.
        assert_eq!(p.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn matmul_seq_matches_blocked_matmul() {
        let a = crate::Prng::new(11).fill_normal(5, 17, 0.0, 1.0);
        let b = crate::Prng::new(12).fill_normal(17, 7, 0.0, 1.0);
        let seq = matmul_seq(&a, &b).unwrap();
        let blocked = a.matmul(&b).unwrap();
        assert!(seq.approx_eq(&blocked, 1e-12));
    }

    #[test]
    fn matmul_seq_is_prefix_invariant_under_zero_weights() {
        // Appending context rows with exactly-zero weights must leave
        // every output bit unchanged — the KV-decode oracle property.
        let t = 6;
        let full = 10;
        let w_short = crate::Prng::new(13).fill_normal(1, t, 0.0, 1.0);
        let v_full = crate::Prng::new(14).fill_normal(full, 4, 0.0, 1.0);
        let mut padded = vec![0.0; full];
        padded[..t].copy_from_slice(w_short.row(0));
        let w_full = Matrix::from_vec(1, full, padded).unwrap();
        let v_short = Matrix::from_vec(t, 4, v_full.as_slice()[..t * 4].to_vec()).unwrap();
        let a = matmul_seq(&w_short, &v_short).unwrap();
        let b = matmul_seq(&w_full, &v_full).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn matmul_seq_shape_mismatch() {
        assert!(matmul_seq(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        let g = vec![1.0; 4];
        let b = vec![0.0; 4];
        let y = layer_norm(&x, &g, &b, 1e-9).unwrap();
        let mean: f64 = y.row(0).iter().sum::<f64>() / 4.0;
        let var: f64 = y.row(0).iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_applies_gamma_beta() {
        let x = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let y = layer_norm(&x, &[2.0, 2.0], &[1.0, 1.0], 1e-12).unwrap();
        // normalized row is [1, -1]; gamma*v+beta => [3, -1]
        assert!((y.get(0, 0) - 3.0).abs() < 1e-6);
        assert!((y.get(0, 1) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_shape_mismatch() {
        let x = Matrix::zeros(1, 4);
        assert!(layer_norm(&x, &[1.0; 3], &[0.0; 4], 1e-9).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
        assert_eq!(relu(&x).row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_and_tanh_bounds() {
        let x = Matrix::from_rows(&[&[-50.0, 0.0, 50.0]]).unwrap();
        let s = sigmoid(&x);
        assert!(
            s.row(0)[0] < 1e-9 && (s.row(0)[1] - 0.5).abs() < 1e-12 && s.row(0)[2] > 1.0 - 1e-9
        );
        let t = tanh(&x);
        assert!(t.min() >= -1.0 && t.max() <= 1.0);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values for the tanh approximation.
        assert!((gelu_scalar(0.0)).abs() < 1e-12);
        assert!((gelu_scalar(1.0) - 0.841_192).abs() < 1e-4);
        assert!((gelu_scalar(-1.0) + 0.158_808).abs() < 1e-4);
    }

    #[test]
    fn leaky_relu_slope() {
        assert_eq!(leaky_relu_scalar(2.0, 0.2), 2.0);
        assert_eq!(leaky_relu_scalar(-2.0, 0.2), -0.4);
    }

    #[test]
    fn argmax_rows_ties_to_lowest() {
        let x = Matrix::from_rows(&[&[1.0, 3.0, 3.0], &[5.0, 2.0, 1.0]]).unwrap();
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }
}
