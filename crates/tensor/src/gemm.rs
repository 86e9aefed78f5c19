//! Cache-blocked, parallel GEMM and transpose kernels.
//!
//! The digital reference executors and the analog datapath simulators all
//! funnel their dense products through [`Matrix::matmul`], which in turn
//! calls [`matmul`] here. The kernel strategy:
//!
//! * **Pack once, stream contiguously.** `B` is transposed into a
//!   row-major `Bᵀ` panel first (a blocked transpose, [`transpose_blocked`]),
//!   so every output element is a dot product of two *contiguous* slices.
//!   The textbook i-j-k loop ([`matmul_naive`], kept as the benchmark and
//!   property-test reference) instead walks a column of `B` with an
//!   `n`-element stride and misses cache on every step at large sizes.
//! * **Panel blocking.** Output columns are processed in panels of
//!   [`NC`] so the active `Bᵀ` rows stay resident in L2 while each `A`
//!   row (L1-resident) is reused across the whole panel.
//! * **SIMD accumulation with a pinned lane order.** The inner dot
//!   product lives in [`simd`]: an AVX2+FMA kernel (four `vfmadd231pd`
//!   accumulators per 16-element step) whose scalar fallback replays the
//!   *identical* operation schedule with [`f64::mul_add`], so scalar and
//!   SIMD dispatch agree bit-for-bit. The lane split is fixed, so
//!   results are deterministic — but they are *not* bit-identical to the
//!   naive single-accumulator order (the equivalence suite bounds the
//!   difference at `1e-12` per element on unit-scale inputs).
//! * **Single rows skip the pack.** At `m = 1` (a KV-cached decode step)
//!   packing `Bᵀ` costs as much as the product, so [`matmul`] hands the
//!   row to [`simd::gemv`], which reads row-major `B` in place and
//!   vectorizes across output columns. It runs the same 16-lane schedule
//!   per output — lane `p % 16` fuses `a[p]·B[p][j]`, the same fold,
//!   the same in-order tail — so every output equals
//!   [`matmul_blocked`]'s bit for bit. The trace counters still fire
//!   first, so a traced m = 1 call is counted like any other.
//! * **Row-band parallelism.** Above [`PAR_ELEMS_MIN`] multiply-adds the
//!   output is split into row bands handed to scoped threads
//!   (see [`crate::parallel`]); each band is computed identically
//!   regardless of which thread runs it, so the product is independent of
//!   the thread count.

use crate::matrix::{Matrix, TensorError};
use crate::parallel;

pub mod simd;

/// Output-column panel width: `NC` rows of `Bᵀ` (each `k` elements long)
/// are kept hot in L2 while `A` rows stream against them.
pub const NC: usize = 64;

/// Square tile edge for the blocked transpose; 32×32 `f64` tiles (8 KiB)
/// keep both the source and destination footprints L1-resident.
pub const TRANSPOSE_TILE: usize = 32;

/// Minimum `m·k·n` volume before the kernel spawns worker threads;
/// below this the scope/join overhead outweighs the work.
pub const PAR_ELEMS_MIN: usize = 1 << 18;

/// Dot product in the pinned 16-lane FMA accumulation order of
/// [`simd::dot`] (deterministic and bitwise dispatch-independent, but a
/// different FP order than a single-accumulator loop).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    simd::dot(a, b)
}

fn check_shapes(a: &Matrix, b: &Matrix) -> Result<(), TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Textbook i-j-k matrix product, walking `B` column-wise with an
/// `n`-element stride. Kept as the performance baseline and the
/// property-test reference for the blocked kernels.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    check_shapes(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0;
            for p in 0..k {
                sum += av[i * k + p] * bv[p * n + j];
            }
            ov[i * n + j] = sum;
        }
    }
    Ok(out)
}

/// Blocked (tiled) transpose: copies 32×32 tiles so both the read and
/// write sides stay cache-resident, instead of striding the destination
/// by `rows` on every element.
pub fn transpose_blocked(src: &Matrix) -> Matrix {
    let (rows, cols) = src.shape();
    let mut out = Matrix::zeros(cols, rows);
    let sv = src.as_slice();
    let ov = out.as_mut_slice();
    let t = TRANSPOSE_TILE;
    for r0 in (0..rows).step_by(t) {
        let r1 = (r0 + t).min(rows);
        for c0 in (0..cols).step_by(t) {
            let c1 = (c0 + t).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    ov[c * rows + r] = sv[r * cols + c];
                }
            }
        }
    }
    out
}

/// Computes output rows `[row0, row0 + band_rows)` into `band`
/// (a `band_rows × n` row-major slice of the output).
fn gemm_band(band: &mut [f64], row0: usize, av: &[f64], bt: &[f64], k: usize, n: usize) {
    let band_rows = band.len().checked_div(n).unwrap_or(0);
    for jc in (0..n).step_by(NC) {
        let jh = (jc + NC).min(n);
        for bi in 0..band_rows {
            let arow = &av[(row0 + bi) * k..(row0 + bi + 1) * k];
            let orow = &mut band[bi * n..(bi + 1) * n];
            for j in jc..jh {
                orow[j] = dot(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    }
}

/// Serial cache-blocked product: packed `Bᵀ`, panel blocking, unrolled
/// dot-product kernel. Single-threaded regardless of the thread setting.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    check_shapes(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let bt = transpose_blocked(b);
    let mut out = Matrix::zeros(m, n);
    gemm_band(out.as_mut_slice(), 0, a.as_slice(), bt.as_slice(), k, n);
    Ok(out)
}

/// The production kernel behind [`Matrix::matmul`]: the blocked kernel of
/// [`matmul_blocked`], parallelised over output row bands once the
/// problem volume clears [`PAR_ELEMS_MIN`]. A single-row `a` takes the
/// transpose-free [`simd::gemv`] instead.
///
/// Every band, and the GEMV, computes each output in the same
/// deterministic order, so the result equals [`matmul_blocked`]'s bit
/// for bit for any thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    check_shapes(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    if phox_trace::enabled() {
        // Only thread-count-independent quantities are recorded (problem
        // and block geometry, not the worker split), so a fixed-seed trace
        // stays byte-identical across `PHOX_NUM_THREADS`.
        let tr = phox_trace::active();
        tr.count("gemm", "calls", 1);
        tr.count("gemm", "macs", (m * k * n) as i64);
        tr.instant(
            "gemm",
            "kernel",
            vec![
                ("m", phox_trace::Value::UInt(m as u64)),
                ("k", phox_trace::Value::UInt(k as u64)),
                ("n", phox_trace::Value::UInt(n as u64)),
                ("panel_nc", phox_trace::Value::UInt(NC as u64)),
                (
                    "transpose_tile",
                    phox_trace::Value::UInt(TRANSPOSE_TILE as u64),
                ),
                (
                    "simd",
                    phox_trace::Value::UInt(u64::from(simd::simd_active())),
                ),
            ],
        );
    }
    if m == 1 {
        // Single-row shape (one decode token): read B in place instead of
        // packing Bᵀ, which would cost as much as the product itself.
        let mut out = Matrix::zeros(1, n);
        simd::gemv(a.as_slice(), b.as_slice(), out.as_mut_slice());
        return Ok(out);
    }
    let threads = parallel::max_threads();
    if threads <= 1 || m * k * n < PAR_ELEMS_MIN {
        return matmul_blocked(a, b);
    }
    let bt = transpose_blocked(b);
    let mut out = Matrix::zeros(m, n);
    // Two bands per thread lets the round-robin distribution absorb any
    // band finishing early; band boundaries don't affect the values.
    let band_rows = m.div_ceil(threads * 2).max(1);
    let (av, btv) = (a.as_slice(), bt.as_slice());
    parallel::par_chunks_mut(out.as_mut_slice(), band_rows * n, |band_idx, band| {
        gemm_band(band, band_idx * band_rows, av, btv, k, n);
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        Prng::new(seed).fill_uniform(rows, cols, -1.0, 1.0)
    }

    #[test]
    fn blocked_matches_naive_small() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 7, 3), (33, 65, 17)] {
            let a = random(m, k, 1);
            let b = random(k, n, 2);
            let naive = matmul_naive(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            assert!(blocked.approx_eq(&naive, 1e-12), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matches_blocked_above_threshold() {
        // 96^3 = 884736 clears PAR_ELEMS_MIN, so threads actually spawn.
        let a = random(96, 96, 3);
        let b = random(96, 96, 4);
        let serial = matmul_blocked(&a, &b).unwrap();
        for threads in [1, 2, 8] {
            let par = parallel::with_threads(threads, || matmul(&a, &b).unwrap());
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn matmul_routes_single_row_through_gemv() {
        // m == 1 takes the GEMV path inside matmul; pin bit-identity with
        // the GEMV itself and with the blocked reference.
        let (k, n) = (96, 33);
        let a = random(1, k, 23);
        let b = random(k, n, 24);
        let mut gemv = vec![0.0; n];
        simd::gemv(a.as_slice(), b.as_slice(), &mut gemv);
        let routed = matmul(&a, &b).unwrap();
        assert_eq!(routed.as_slice(), &gemv[..]);
        assert_eq!(routed, matmul_blocked(&a, &b).unwrap());
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn zero_inner_dimension() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_blocked(&a, &b).is_err());
        assert!(matmul_naive(&a, &b).is_err());
    }

    #[test]
    fn transpose_blocked_matches_definition() {
        for (r, c) in [(1, 1), (3, 5), (31, 33), (64, 64), (70, 41)] {
            let m = random(r, c, 9);
            let t = transpose_blocked(&m);
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), m.get(i, j));
                }
            }
        }
    }

    #[test]
    fn dot_handles_tails() {
        for n in 0..10 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let expected: f64 = a.iter().map(|v| v * v).sum();
            assert_eq!(dot(&a, &a), expected, "n={n}");
        }
    }
}
