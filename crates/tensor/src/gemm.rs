//! Cache-blocked, parallel GEMM and transpose kernels.
//!
//! The digital reference executors and the analog datapath simulators all
//! funnel their dense products through [`Matrix::matmul`], which in turn
//! calls [`matmul`] here. The kernel strategy:
//!
//! * **Pack once, in lane order.** The microkernel reads `B` as
//!   [`simd::Panels`]: column panels of [`simd::GEMM_NR`] columns whose
//!   rows sit lane-major (`p = l + 16·s` for the 16-lane body, the
//!   `k % 16` tail after), so each accumulation lane of every output
//!   reads one contiguous run. The pack is as large as the `Bᵀ` transpose
//!   it replaced. [`matmul`] packs a row-major `B` on every call; a model
//!   weight is stored as panels from the start and multiplied in place by
//!   [`matmul_packed`], so its products never pack, the way the
//!   accelerator programs a weight into its banks once. The textbook
//!   i-j-k loop ([`matmul_naive`], kept as the benchmark and
//!   property-test reference) instead walks a column of `B` with an
//!   `n`-element stride and misses cache on every step at large sizes.
//! * **Register blocking.** The microkernel ([`simd::gemm`]) computes a
//!   [`simd::GEMM_MR`] × [`simd::GEMM_NR`] output tile at once: per lane
//!   step, six broadcasts of `A` and two vector loads of the panel feed
//!   twelve fused multiply-adds held in registers, where the per-output
//!   dot product it replaced made two loads per FMA. Lane chains run in
//!   k-blocks of [`simd::GEMM_KC`] values, resuming from their stored
//!   partials, so a block's slices of `A` and the panel stay in L1 even
//!   at `k = 1024`. Row tiles pass over a group of panels that fits in
//!   L1 together, so a skinny `B` (the GCN's `k = 16, 32`) is read
//!   against each row of `A` once.
//! * **SIMD accumulation with a pinned lane order.** Every output keeps
//!   [`simd::dot`]'s exact operation sequence: lane `l` fuses
//!   `a[p]·B[p][j]` for ascending `p ≡ l (mod 16)`, the lanes fold as
//!   `(s[g] + s[g+4]) + (s[g+8] + s[g+12])` then `(w0 + w2) + (w1 +
//!   w3)`, and the `k % 16` tail is added with in-order fused
//!   multiply-adds. The AVX2+FMA microkernel and its scalar twin
//!   ([`simd::gemm_scalar`], which unpacks each panel and calls
//!   [`simd::dot_scalar`] per output) agree bit for bit, and so does the
//!   per-output dot kernel the microkernel replaced. The lane split is
//!   fixed, so results are deterministic — but they are *not*
//!   bit-identical to the naive single-accumulator order (the
//!   equivalence suite bounds the difference at `1e-12` per element on
//!   unit-scale inputs).
//! * **Single rows skip the pack.** At `m = 1` (a KV-cached decode step)
//!   packing `B` costs as much as the product, so [`matmul`] hands the
//!   row to [`simd::gemv`], which reads row-major `B` in place and
//!   vectorizes across output columns. It runs the same 16-lane schedule
//!   per output — lane `p % 16` fuses `a[p]·B[p][j]`, the same fold,
//!   the same in-order tail — so every output equals
//!   [`matmul_blocked`]'s bit for bit. Over a resident weight,
//!   [`matmul_packed`] runs the same GEMV body over the panels instead,
//!   where each lane reads one contiguous run rather than a row-strided
//!   column. The trace counters still fire first, so a traced m = 1
//!   call is counted like any other (its instant names the microkernel's
//!   tile, as every f64 product's does).
//! * **Row-band parallelism.** Above [`PAR_ELEMS_MIN`] multiply-adds the
//!   output is split into row bands of whole tiles handed to scoped
//!   threads (see [`crate::parallel`]). One routine serves the serial and
//!   the banded path: every band reads the same panels, packed before
//!   any band runs or resident, and computes each output identically
//!   regardless of which thread runs it, so the product is independent
//!   of the thread count.

use crate::matrix::{Matrix, TensorError};
use crate::parallel;

pub mod simd;

/// Square tile edge for the blocked transpose; 32×32 `f64` tiles (8 KiB)
/// keep both the source and destination footprints L1-resident.
pub const TRANSPOSE_TILE: usize = 32;

/// Minimum `m·k·n` volume before the kernel spawns worker threads;
/// below this the scope/join overhead outweighs the work.
pub const PAR_ELEMS_MIN: usize = 1 << 18;

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

/// The one routine behind [`matmul_blocked`], [`matmul`] and
/// [`matmul_packed`]: runs the microkernel over the whole output, or, when
/// `banded` and the problem volume clears [`PAR_ELEMS_MIN`], over row
/// bands on up to [`parallel::max_threads`] workers. The thread setting
/// is read only then, so a single decode row never consults it. Every
/// band reads the same panels and computes each output in the same
/// order, so the result is independent of the thread count.
fn gemm(a: &Matrix, panels: &simd::Panels, banded: bool) -> Matrix {
    let (m, k) = a.shape();
    let n = panels.n();
    let mut out = Matrix::zeros(m, n);
    let av = a.as_slice();
    let threads = if banded && m * k * n >= PAR_ELEMS_MIN {
        parallel::max_threads()
    } else {
        1
    };
    if threads <= 1 {
        simd::gemm(av, panels, out.as_mut_slice());
        return out;
    }
    // Two bands per thread lets the round-robin distribution absorb any
    // band finishing early; whole tiles per band keep every tile full but
    // the last. Band boundaries don't affect the values.
    let band_rows = m.div_ceil(threads * 2).next_multiple_of(simd::GEMM_MR);
    parallel::par_chunks_mut(out.as_mut_slice(), band_rows * n, |band_idx, band| {
        let row0 = band_idx * band_rows;
        let rows = band.len() / n;
        simd::gemm(&av[row0 * k..(row0 + rows) * k], panels, band);
    });
    out
}

/// `B` packed for [`gemm`].
fn pack(b: &Matrix) -> simd::Panels {
    simd::Panels::pack(b.as_slice(), b.rows(), b.cols())
}

/// Serial cache-blocked product: `B` packed into lane-major column
/// panels, register-blocked [`simd::gemm`] microkernel. Single-threaded
/// regardless of the thread setting.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    check_shapes(a, b)?;
    Ok(gemm(a, &pack(b), false))
}

/// Rows, columns and k-block of the tile the dispatched kernel computes
/// at once, for an inner dimension `k`: [`simd::GEMM_MR`] ×
/// [`simd::GEMM_NR`] in k-blocks of [`simd::GEMM_KC`] on AVX2+FMA, one
/// output over the whole of `k` in [`simd::gemm_scalar`].
fn dispatched_tile(k: usize) -> (usize, usize, usize) {
    if simd::simd_active() {
        (simd::GEMM_MR, simd::GEMM_NR, simd::GEMM_KC)
    } else {
        (1, 1, k)
    }
}

/// The production kernel behind [`Matrix::matmul`]: the blocked kernel of
/// [`matmul_blocked`], parallelised over output row bands once the
/// problem volume clears [`PAR_ELEMS_MIN`]. A single-row `a` takes the
/// transpose-free [`simd::gemv`] instead.
///
/// Every band, and the GEMV, computes each output in the same
/// deterministic order — [`simd::dot`]'s over `a`'s row and `B`'s
/// column — so the result equals [`matmul_blocked`]'s bit for bit for
/// any thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    check_shapes(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    record_call(m, k, n);
    if m == 1 {
        // Single-row shape (one decode token): read B in place instead of
        // packing it, which would cost as much as the product itself.
        let mut out = Matrix::zeros(1, n);
        simd::gemv(a.as_slice(), b.as_slice(), out.as_mut_slice());
        return Ok(out);
    }
    Ok(gemm(a, &pack(b), true))
}

/// `a · B` for `B` already packed as [`simd::Panels`] (a resident weight):
/// [`matmul`] without the pack. Rows run through the banded microkernel
/// (a single row through the GEMV body of [`simd::gemv`] over the
/// panels), every output in [`simd::dot`]'s order, so the product equals
/// [`matmul`] of the unpacked `B` bit for bit for any thread count, and
/// the trace records it as [`matmul`] records that call.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.k()`.
pub fn matmul_packed(a: &Matrix, b: &simd::Panels) -> Result<Matrix, TensorError> {
    let (m, k) = a.shape();
    if k != b.k() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: (b.k(), b.n()),
        });
    }
    record_call(m, k, b.n());
    Ok(gemm(a, b, true))
}

/// The trace record of one `m × k × n` product: the `gemm/calls` and
/// `gemm/macs` counters and a `gemm/kernel` instant with the dispatched
/// tile. Only thread-count-independent quantities are recorded (problem
/// and tile geometry, not the worker split), so a fixed-seed trace stays
/// byte-identical across `PHOX_NUM_THREADS`.
fn record_call(m: usize, k: usize, n: usize) {
    if !phox_trace::enabled() {
        return;
    }
    let tr = phox_trace::active();
    let (tile_mr, tile_nr, tile_kc) = dispatched_tile(k);
    tr.count("gemm", "calls", 1);
    tr.count("gemm", "macs", (m * k * n) as i64);
    tr.instant(
        "gemm",
        "kernel",
        vec![
            ("m", phox_trace::Value::UInt(m as u64)),
            ("k", phox_trace::Value::UInt(k as u64)),
            ("n", phox_trace::Value::UInt(n as u64)),
            ("tile_mr", phox_trace::Value::UInt(tile_mr as u64)),
            ("tile_nr", phox_trace::Value::UInt(tile_nr as u64)),
            ("tile_kc", phox_trace::Value::UInt(tile_kc as u64)),
            (
                "simd",
                phox_trace::Value::UInt(u64::from(simd::simd_active())),
            ),
        ],
    );
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
    fn matmul_packed_is_traced_as_matmul() {
        // The same counters and the same instant, the single row's
        // microkernel tile included.
        for (m, k, n) in [(1, 40, 9), (7, 33, 20)] {
            let (a, b) = (random(m, k, 27), random(k, n, 28));
            let panels = simd::Panels::pack(b.as_slice(), k, n);
            let [plain, packed] = [false, true].map(|resident| {
                let trace = phox_trace::Trace::new();
                let out = phox_trace::with_installed(trace.clone(), || {
                    if resident {
                        matmul_packed(&a, &panels).unwrap()
                    } else {
                        matmul(&a, &b).unwrap()
                    }
                });
                (out, trace.export_jsonl())
            });
            assert_eq!(plain, packed, "{m}x{k}x{n}");
        }
        let short = simd::Panels::pack(&[0.0; 6], 2, 3);
        assert!(matmul_packed(&Matrix::zeros(2, 3), &short).is_err());
    }

    #[test]
    fn trace_records_the_dispatched_tile() {
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || {
            matmul(&random(2, 3, 25), &random(3, 2, 26)).unwrap()
        });
        let events = trace.events();
        let instant = events
            .iter()
            .find(|e| e.track == "gemm" && e.name == "kernel")
            .expect("gemm kernel instant");
        let arg = |key| instant.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        let (mr, nr, kc) = dispatched_tile(3);
        assert_eq!(arg("tile_mr"), Some(&phox_trace::Value::UInt(mr as u64)));
        assert_eq!(arg("tile_nr"), Some(&phox_trace::Value::UInt(nr as u64)));
        assert_eq!(arg("tile_kc"), Some(&phox_trace::Value::UInt(kc as u64)));
        let microkernel = (simd::GEMM_MR, simd::GEMM_NR, simd::GEMM_KC);
        assert_eq!(simd::simd_active(), (mr, nr, kc) == microkernel);
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
            assert_eq!(simd::dot(&a, &a), expected, "n={n}");
        }
    }
}
