//! The digital attention heads against the composition they replaced.
//!
//! `oracle_heads` is the heads of the f64 reference as they were first
//! written: per head a copy of its Q, K and V columns, the score GEMM
//! over `K_hᵀ`, a scaled copy with the future masked to `-∞`, a
//! softmaxed copy, the context through `ops::matmul_seq` and the heads
//! concatenated in order. It lives here, and only here, so that the
//! production heads and the KV-cached decode step, which share one
//! context kernel, are both pinned against an independent oracle.
//! `Precision::F64.heads` must equal it bit for bit (two NaNs match,
//! nothing else that differs does) on every shape below, causal or not,
//! at 1, 2 and 8 threads.

use phox_nn::int8::Precision;
use phox_nn::transformer::TransformerDatapath;
use phox_tensor::{ops, parallel, Matrix, Prng, TensorError};

/// Head `h` of `n`: its query columns, its key columns transposed, and
/// its value columns.
fn head_operands(qkv: [&Matrix; 3], n: usize, h: usize) -> Result<[Matrix; 3], TensorError> {
    let dh = qkv[0].cols() / n;
    let [q, k, v] = qkv.map(|m| m.col_slice(h * dh, (h + 1) * dh));
    Ok([q?, k?.transpose(), v?])
}

/// A head's scores scaled by `1/√d_h`, every future position set to
/// `-∞` when `causal`.
fn mask_scores(scores: Matrix, dh: usize, causal: bool) -> Matrix {
    let mut scores = scores.scale(1.0 / (dh as f64).sqrt());
    if causal {
        for r in 0..scores.rows() {
            for c in (r + 1)..scores.cols() {
                scores.set(r, c, f64::NEG_INFINITY);
            }
        }
    }
    scores
}

/// The heads' contexts side by side, in head order.
fn concat_heads(
    (rows, d): (usize, usize),
    contexts: impl IntoIterator<Item = Result<Matrix, TensorError>>,
) -> Result<Matrix, TensorError> {
    let mut concat = Matrix::zeros(rows, d);
    for (h, ctx) in contexts.into_iter().enumerate() {
        let ctx = ctx?;
        for r in 0..rows {
            concat.row_mut(r)[h * ctx.cols()..][..ctx.cols()].copy_from_slice(ctx.row(r));
        }
    }
    Ok(concat)
}

/// The oracle: `head_operands` → `matmul` → `mask_scores` →
/// `softmax_rows` → `matmul_seq` → `concat_heads`.
fn oracle_heads(qkv: [&Matrix; 3], n: usize, causal: bool) -> Matrix {
    let contexts = (0..n).map(|h| {
        let [qh, kt, vh] = head_operands(qkv, n, h)?;
        let scores = mask_scores(qh.matmul(&kt)?, vh.cols(), causal);
        ops::matmul_seq(&ops::softmax_rows(&scores), &vh)
    });
    concat_heads(qkv[0].shape(), contexts).unwrap()
}

/// Same bits, or both NaN (a NaN's payload may follow operand order).
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Q (`l_q × d`), K and V (`l_kv × d`) for one case. Q and K carry exact
/// `±0`, V `-0.0` and subnormals; `loud` stretches Q so the logits run
/// into the hundreds and the softmax saturates. A causal case with more
/// than one key puts `+∞`, `-∞` and NaN into V's last row, which every
/// query row but the last masks out.
fn operands(l_q: usize, l_kv: usize, d: usize, causal: bool, seed: u64) -> [Matrix; 3] {
    let mut rng = Prng::new(seed);
    let loud = seed.is_multiple_of(3);
    let mut q = rng.fill_normal(l_q, d, 0.0, if loud { 30.0 } else { 1.0 });
    let mut k = rng.fill_normal(l_kv, d, 0.0, 1.0);
    let mut v = rng.fill_normal(l_kv, d, 0.0, 1.0);
    for (i, x) in q.as_mut_slice().iter_mut().enumerate().step_by(11) {
        *x = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    for x in k.as_mut_slice().iter_mut().skip(5).step_by(13) {
        *x = -0.0;
    }
    for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
        if i % 7 == 3 {
            *x = -0.0;
        } else if i % 17 == 4 {
            *x = f64::MIN_POSITIVE * if i % 2 == 0 { 0.25 } else { -0.75 };
        }
    }
    if causal && l_kv > 1 {
        let last = v.row_mut(l_kv - 1);
        last[0] = f64::INFINITY;
        last[d / 2] = f64::NEG_INFINITY;
        last[d - 1] = f64::NAN;
    }
    [q, k, v]
}

const LENS: [usize; 6] = [1, 2, 5, 17, 64, 256];
const WIDTHS: [usize; 9] = [1, 3, 7, 8, 14, 16, 17, 25, 64];

/// Checks one case at 1, 2 and 8 threads.
fn check(l_q: usize, l_kv: usize, dh: usize, n: usize, causal: bool, seed: u64) {
    let d = n * dh;
    let [q, k, v] = operands(l_q, l_kv, d, causal, seed);
    let want = oracle_heads([&q, &k, &v], n, causal);
    for threads in [1, 2, 8] {
        let got = parallel::with_threads(threads, || {
            Precision::F64.heads([&q, &k, &v], n, causal).unwrap()
        });
        assert!(
            same_bits(&got, &want),
            "L_q {l_q}, L_kv {l_kv}, d_h {dh}, {n} heads, causal {causal}, seed {seed}, \
             {threads} threads"
        );
    }
}

#[test]
fn heads_equal_the_composition_at_every_short_shape() {
    // Every width at every pair of lengths up to 64, L_q ≠ L_kv included.
    let mut seed = 1;
    for &l_q in &LENS[..5] {
        for &l_kv in &LENS[..5] {
            for &dh in &WIDTHS {
                for causal in [false, true] {
                    check(l_q, l_kv, dh, 1 + (seed as usize) % 3, causal, seed);
                    seed += 1;
                }
            }
        }
    }
}

#[test]
fn heads_equal_the_composition_at_long_shapes() {
    // Every pair that involves 256 rows, one rotating width each, then
    // `llm_prefill`'s heads (256 × 256, four heads of 64) and a
    // decode-sized causal prefix (511 × 511, four heads of 16).
    let mut seed = 1000;
    for (i, &l_q) in LENS.iter().enumerate() {
        for (j, &l_kv) in LENS.iter().enumerate() {
            if l_q.max(l_kv) < 256 {
                continue;
            }
            for causal in [false, true] {
                check(
                    l_q,
                    l_kv,
                    WIDTHS[(i + j + seed as usize) % 9],
                    2,
                    causal,
                    seed,
                );
                seed += 1;
            }
        }
    }
    for causal in [false, true] {
        check(256, 256, 64, 4, causal, 2000 + u64::from(causal));
    }
    check(511, 511, 16, 4, true, 2002);
}
