//! Cache-blocked int8 GEMM with `i32` accumulation.
//!
//! §VI of the paper fixes both accelerators at 8-bit operand precision;
//! this module is the digital model of that MAC array: `i8 × i8`
//! products accumulated in `i32`, dequantized once at the output. The
//! structure mirrors the f64 kernel in [`crate::gemm`] — packed `Bᵀ`,
//! [`NC`]-column output panels, row-band parallelism — with two
//! int8-specific twists:
//!
//! * **Exact accumulation.** Integer addition is associative (mod 2³²),
//!   so *every* execution order — the scalar loop, the AVX2 lane split,
//!   any thread count — produces bit-identical `i32` sums. The f64
//!   kernel can only promise determinism per lane layout; here
//!   bit-identity across SIMD/scalar/threads is free, and the test
//!   suites pin it.
//! * **4× bandwidth relief.** Operand panels are `i8`, so four times as
//!   many values fit in each cache line as in the f64 kernel — the
//!   memory-bandwidth argument behind the paper's 8-bit datapath.
//!
//! All accumulation uses wrapping arithmetic. A single `i8 × i8` product
//! is at most `127 × 127 = 16129`, so a plain `i32` accumulator is exact
//! for inner dimensions up to `k ≈ 1.3 × 10⁵`; beyond that every path
//! wraps mod 2³² *identically* (the equality guarantees still hold, the
//! dequantized value becomes meaningless). Workloads in this repo keep
//! `k` well under the bound.
//!
//! The AVX2 path widens `i8 → i16` with `cvtepi8_epi16` and uses
//! `madd_epi16` (16 products fused into 8 pairwise `i32` sums per
//! instruction); it is selected once per process via cached runtime
//! feature detection and falls back to the autovectorizable scalar loop
//! everywhere else.

use crate::matrix::TensorError;
use crate::parallel;

/// Output-column panel width (in `Bᵀ` rows, each `k` bytes): int8 panels
/// are 8× smaller than f64 ones, so a wider panel than [`crate::gemm::NC`]
/// still fits L2 comfortably.
pub const NC: usize = 128;

/// Square tile edge for the blocked int8 transpose; 64×64 `i8` tiles
/// (4 KiB) keep both sides L1-resident.
pub const TRANSPOSE_TILE: usize = 64;

/// Minimum `m·k·n` MAC volume before the driver spawns worker threads.
/// Int8 MACs are ~4× cheaper than f64 ones, so the break-even point sits
/// higher than the f64 kernel's.
pub const PAR_ELEMS_MIN: usize = 1 << 20;

fn check_len(len: usize, expected: usize) -> Result<(), TensorError> {
    if len != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: len,
        });
    }
    Ok(())
}

/// Scalar dot product over contiguous `i8` panels with wrapping `i32`
/// accumulation. The iterator form compiles to a bounds-check-free loop
/// that LLVM lifts to SIMD on its own (integer reductions are associative,
/// so no `-ffast-math` analogue is needed); the AVX2 path below only has
/// to beat *this*, not a naive loop.
#[inline]
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut s = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        s = s.wrapping_add((x as i32).wrapping_mul(y as i32));
    }
    s
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16,
        _mm256_extracti128_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32,
    };

    /// AVX2 dot product: 16 `i8` lanes widened to `i16`, `madd_epi16`
    /// fusing each pair of products into an `i32`, accumulated across
    /// eight `i32` lanes. Wrapping `i32` addition is associative, so the
    /// horizontal sum equals the scalar loop bit-for-bit.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_si256();
        let mut k = 0usize;
        while k + 32 <= n {
            let a0 = _mm_loadu_si128(ap.add(k) as *const __m128i);
            let b0 = _mm_loadu_si128(bp.add(k) as *const __m128i);
            let a1 = _mm_loadu_si128(ap.add(k + 16) as *const __m128i);
            let b1 = _mm_loadu_si128(bp.add(k + 16) as *const __m128i);
            let p0 = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a0), _mm256_cvtepi8_epi16(b0));
            let p1 = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a1), _mm256_cvtepi8_epi16(b1));
            acc = _mm256_add_epi32(acc, _mm256_add_epi32(p0, p1));
            k += 32;
        }
        if k + 16 <= n {
            let a0 = _mm_loadu_si128(ap.add(k) as *const __m128i);
            let b0 = _mm_loadu_si128(bp.add(k) as *const __m128i);
            let p0 = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a0), _mm256_cvtepi8_epi16(b0));
            acc = _mm256_add_epi32(acc, p0);
            k += 16;
        }
        let quad = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        let pair = _mm_add_epi32(quad, _mm_shuffle_epi32::<0b00_00_11_10>(quad));
        let one: __m128i = _mm_add_epi32(pair, _mm_shuffle_epi32::<0b00_00_00_01>(pair));
        let mut s = _mm_cvtsi128_si32(one);
        while k < n {
            s = s.wrapping_add((*ap.add(k) as i32).wrapping_mul(*bp.add(k) as i32));
            k += 1;
        }
        s
    }

    /// Cached once-per-process AVX2 detection.
    pub fn avx2_available() -> bool {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
}

/// Whether the `core::arch` SIMD dot kernel is in use on this host.
/// Informational only: scalar and SIMD paths are bit-identical.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::avx2_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dot product over contiguous `i8` panels, dispatching to the SIMD
/// kernel when the host supports it. All paths agree bit-for-bit.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: AVX2 availability was just checked; slices are equal
        // length per the debug assertion and every call site below.
        return unsafe { x86::dot_i8_avx2(a, b) };
    }
    dot_i8_scalar(a, b)
}

/// Blocked (tiled) int8 transpose of a row-major `rows × cols` slice.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `src.len() != rows * cols`.
pub fn transpose_i8(src: &[i8], rows: usize, cols: usize) -> Result<Vec<i8>, TensorError> {
    check_len(src.len(), rows * cols)?;
    let mut out = vec![0i8; cols * rows];
    let t = TRANSPOSE_TILE;
    for r0 in (0..rows).step_by(t) {
        let r1 = (r0 + t).min(rows);
        for c0 in (0..cols).step_by(t) {
            let c1 = (c0 + t).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    out[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
    Ok(out)
}

/// Int8 GEMV: `1 × k` row vector times row-major `k × n` matrix, raw
/// wrapping-`i32` sums. This is the decode-step shape (one new token per
/// step), where packing `Bᵀ` first would cost as much as the product
/// itself: instead the axpy loop streams each `B` row once, skipping
/// zero activations like [`matmul_i32_naive`]. Wrapping `i32` addition
/// is associative, so the result is bit-identical to every GEMM path.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length disagrees
/// with its stated shape.
pub fn gemv_i32(a: &[i8], b: &[i8], k: usize, n: usize) -> Result<Vec<i32>, TensorError> {
    check_len(a.len(), k)?;
    check_len(b.len(), k * n)?;
    let mut out = vec![0i32; n];
    for (p, &av) in a.iter().enumerate() {
        if av == 0 {
            continue;
        }
        let av = av as i32;
        let brow = &b[p * n..(p + 1) * n];
        for (acc, &bv) in out.iter_mut().zip(brow) {
            *acc = acc.wrapping_add(av.wrapping_mul(bv as i32));
        }
    }
    Ok(out)
}

/// Int8 GEMV over a *pre-transposed* `B` (`bt` is row-major `n × k`,
/// i.e. the packed `Bᵀ` panel layout the GEMM kernels use): one SIMD
/// [`dot_i8`] per output element. The fast path when the caller keeps
/// `Bᵀ` resident across decode steps — each dot reads two contiguous
/// `k`-byte panels. Bit-identical to [`gemv_i32`], and traced exactly as
/// [`matmul_i32`] traces an `m = 1` product.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length disagrees
/// with its stated shape.
pub fn gemv_i32_bt(a: &[i8], bt: &[i8], k: usize, n: usize) -> Result<Vec<i32>, TensorError> {
    check_len(a.len(), k)?;
    check_len(bt.len(), n * k)?;
    trace_product(1, k, n);
    Ok((0..n).map(|j| dot_i8(a, &bt[j * k..(j + 1) * k])).collect())
}

/// Records one `m × k × n` int8 product on the "int8" trace track,
/// mirroring the f64 kernel's "gemm" track: only geometry-derived
/// quantities, so traces stay byte-identical across thread counts.
fn trace_product(m: usize, k: usize, n: usize) {
    if phox_trace::enabled() {
        let tr = phox_trace::active();
        tr.count("int8", "gemm_calls", 1);
        if m == 1 {
            tr.count("int8", "gemv_calls", 1);
        }
        tr.count("int8", "macs", (m * k * n) as i64);
        tr.instant(
            "int8",
            "gemm_kernel",
            vec![
                ("m", phox_trace::Value::UInt(m as u64)),
                ("k", phox_trace::Value::UInt(k as u64)),
                ("n", phox_trace::Value::UInt(n as u64)),
                ("panel_nc", phox_trace::Value::UInt(NC as u64)),
                ("simd", phox_trace::Value::UInt(u64::from(simd_active()))),
            ],
        );
    }
}

/// Computes output rows `[row0, row0 + band_rows)` into `band`
/// (a `band_rows × n` row-major `i32` slice of the output).
fn gemm_band_i8(band: &mut [i32], row0: usize, av: &[i8], bt: &[i8], k: usize, n: usize) {
    let band_rows = band.len().checked_div(n).unwrap_or(0);
    for jc in (0..n).step_by(NC) {
        let jh = (jc + NC).min(n);
        for bi in 0..band_rows {
            let arow = &av[(row0 + bi) * k..(row0 + bi + 1) * k];
            let orow = &mut band[bi * n..(bi + 1) * n];
            for j in jc..jh {
                orow[j] = dot_i8(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    }
}

/// Textbook int8 product with a plain `i32` row accumulator — the naive
/// oracle every fast path is required to match *exactly* (not within a
/// tolerance: integer sums have one value).
///
/// `a` is row-major `m × k`, `b` is row-major `k × n`; the result is
/// row-major `m × n` raw `i32` sums.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length disagrees
/// with its stated shape.
pub fn matmul_i32_naive(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Result<Vec<i32>, TensorError> {
    check_len(a.len(), m * k)?;
    check_len(b.len(), k * n)?;
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a[i * k + p] as i32;
            if av == 0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (acc, &bv) in row.iter_mut().zip(brow) {
                *acc = acc.wrapping_add(av.wrapping_mul(bv as i32));
            }
        }
    }
    Ok(out)
}

/// Serial blocked int8 product: packed `Bᵀ`, panel blocking, SIMD or
/// autovectorized dot kernel. Single-threaded regardless of the thread
/// setting; bit-identical to [`matmul_i32_naive`].
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length disagrees
/// with its stated shape.
pub fn matmul_i32_blocked(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Result<Vec<i32>, TensorError> {
    check_len(a.len(), m * k)?;
    check_len(b.len(), k * n)?;
    let mut out = vec![0i32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return Ok(out);
    }
    let bt = transpose_i8(b, k, n)?;
    gemm_band_i8(&mut out, 0, a, &bt, k, n);
    Ok(out)
}

/// The production int8 kernel: blocked as [`matmul_i32_blocked`],
/// parallelised over output row bands once the MAC volume clears
/// [`PAR_ELEMS_MIN`]. Because `i32` accumulation is exact, the result is
/// bit-identical to the naive oracle for every thread count.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a slice length disagrees
/// with its stated shape.
pub fn matmul_i32(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
) -> Result<Vec<i32>, TensorError> {
    check_len(a.len(), m * k)?;
    check_len(b.len(), k * n)?;
    trace_product(m, k, n);
    let mut out = vec![0i32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return Ok(out);
    }
    if m == 1 {
        // Decode-step shape: skip the O(k·n) Bᵀ pack entirely. Wrapping
        // i32 accumulation makes this bit-identical to the GEMM path.
        return gemv_i32(a, b, k, n);
    }
    let threads = parallel::max_threads();
    if threads <= 1 || m <= 1 || m * k * n < PAR_ELEMS_MIN {
        let bt = transpose_i8(b, k, n)?;
        gemm_band_i8(&mut out, 0, a, &bt, k, n);
        return Ok(out);
    }
    let bt = transpose_i8(b, k, n)?;
    // Two bands per thread, as in the f64 kernel: round-robin absorbs
    // uneven band completion; band boundaries never affect values.
    let band_rows = m.div_ceil(threads * 2).max(1);
    parallel::par_chunks_mut(&mut out, band_rows * n, |band_idx, band| {
        gemm_band_i8(band, band_idx * band_rows, a, &bt, k, n);
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn random_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = Prng::new(seed);
        (0..len)
            .map(|_| ((rng.next_u64() % 255) as i64 - 127) as i8)
            .collect()
    }

    #[test]
    fn blocked_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (5, 7, 3), (33, 65, 17), (64, 128, 64)] {
            let a = random_i8(m * k, 1);
            let b = random_i8(k * n, 2);
            let naive = matmul_i32_naive(&a, &b, m, k, n).unwrap();
            let blocked = matmul_i32_blocked(&a, &b, m, k, n).unwrap();
            assert_eq!(blocked, naive, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matches_naive_above_threshold() {
        // 128^3 = 2097152 clears PAR_ELEMS_MIN, so threads actually spawn.
        let (m, k, n) = (128, 128, 128);
        let a = random_i8(m * k, 3);
        let b = random_i8(k * n, 4);
        let naive = matmul_i32_naive(&a, &b, m, k, n).unwrap();
        for threads in [1, 2, 8] {
            let par = parallel::with_threads(threads, || matmul_i32(&a, &b, m, k, n).unwrap());
            assert_eq!(par, naive, "threads={threads}");
        }
    }

    #[test]
    fn saturated_operands_are_exact() {
        // All-(±127) operands stress the widest products.
        let (m, k, n) = (4, 33, 5);
        let a = vec![127i8; m * k];
        let b = vec![-127i8; k * n];
        let out = matmul_i32(&a, &b, m, k, n).unwrap();
        assert!(out.iter().all(|&v| v == -(127 * 127 * k as i32)));
        assert_eq!(out, matmul_i32_naive(&a, &b, m, k, n).unwrap());
    }

    #[test]
    fn degenerate_dimensions() {
        assert_eq!(
            matmul_i32(&[], &[0; 20], 0, 5, 4).unwrap(),
            Vec::<i32>::new()
        );
        assert_eq!(matmul_i32(&[], &[], 3, 0, 4).unwrap(), vec![0; 12]);
        assert_eq!(
            matmul_i32(&[1, 2, 3], &[], 3, 1, 0).unwrap(),
            Vec::<i32>::new()
        );
        // k = 1: product is the outer product.
        let out = matmul_i32(&[2, -3], &[5, 7], 2, 1, 2).unwrap();
        assert_eq!(out, vec![10, 14, -15, -21]);
    }

    #[test]
    fn length_mismatch_is_reported() {
        assert!(matmul_i32(&[1, 2], &[1, 2], 2, 2, 1).is_err());
        assert!(matmul_i32_naive(&[1, 2], &[3, 4], 1, 2, 1).is_ok());
        assert!(matmul_i32_naive(&[1, 2], &[1], 1, 2, 2).is_err());
        assert!(transpose_i8(&[1, 2, 3], 2, 2).is_err());
    }

    #[test]
    fn transpose_matches_definition() {
        for (r, c) in [(1, 1), (3, 5), (63, 65), (64, 64), (70, 41)] {
            let m = random_i8(r * c, 9);
            let t = transpose_i8(&m, r, c).unwrap();
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], m[i * c + j]);
                }
            }
        }
    }

    #[test]
    fn dot_dispatch_matches_scalar() {
        // Exercise every tail length around the 16/32-lane boundaries.
        for len in (0..70).chain([127, 128, 129, 1000]) {
            let a = random_i8(len, 11);
            let b = random_i8(len, 12);
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b), "len={len}");
        }
    }

    #[test]
    fn gemv_matches_naive_gemm_row() {
        // Exercise tail lengths around the SIMD lane boundaries, as the
        // dot dispatch test does.
        for k in (1..40).chain([64, 65, 127, 128, 129, 300]) {
            let n = 17;
            let a = random_i8(k, 21);
            let b = random_i8(k * n, 22);
            let naive = matmul_i32_naive(&a, &b, 1, k, n).unwrap();
            let gemv = gemv_i32(&a, &b, k, n).unwrap();
            assert_eq!(gemv, naive, "k={k}");
            let bt = transpose_i8(&b, k, n).unwrap();
            assert_eq!(gemv_i32_bt(&a, &bt, k, n).unwrap(), naive, "bt k={k}");
        }
    }

    #[test]
    fn matmul_routes_single_row_through_gemv() {
        // m == 1 takes the GEMV path inside matmul_i32; pin bit-identity.
        let (k, n) = (96, 33);
        let a = random_i8(k, 23);
        let b = random_i8(k * n, 24);
        assert_eq!(
            matmul_i32(&a, &b, 1, k, n).unwrap(),
            gemv_i32(&a, &b, k, n).unwrap()
        );
    }

    #[test]
    fn gemv_wrapping_matches_gemm() {
        let k = 200_000;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        assert_eq!(
            gemv_i32(&a, &b, k, 1).unwrap(),
            matmul_i32_naive(&a, &b, 1, k, 1).unwrap()
        );
    }

    #[test]
    fn gemv_length_mismatch_is_reported() {
        assert!(gemv_i32(&[1, 2], &[1, 2, 3], 2, 2).is_err());
        assert!(gemv_i32(&[1], &[1, 2], 2, 1).is_err());
        assert!(gemv_i32_bt(&[1, 2], &[1, 2, 3], 2, 2).is_err());
    }

    #[test]
    fn wrapping_accumulation_is_order_independent() {
        // Large k with saturated operands overflows i32 by design; all
        // paths must wrap identically.
        let k = 200_000;
        let a = vec![127i8; k];
        let b = vec![127i8; k];
        let naive = matmul_i32_naive(&a, &b, 1, k, 1).unwrap();
        let fast = matmul_i32(&a, &b, 1, k, 1).unwrap();
        assert_eq!(naive, fast);
        assert_eq!(naive[0], (127i64 * 127 * k as i64) as i32);
    }
}
