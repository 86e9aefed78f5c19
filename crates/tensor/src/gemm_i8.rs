//! Register-blocked int8 GEMM with `i32` accumulation.
//!
//! §VI of the paper fixes both accelerators at 8-bit operand precision;
//! this module is the digital model of that MAC array: `i8 × i8`
//! products accumulated in `i32`, dequantized once at the output. Every
//! integer product in the workspace runs on its one microkernel
//! ([`gemm`]): the int8 GEMM behind [`matmul_i32`], the reference
//! models' int8 products over packed weights ([`matmul_packed_dequant`],
//! one row high on every KV-cached decode step), and every output tile
//! of the analog engine in `phox-photonics`.
//!
//! * **Pack once, in pair order.** `B` is packed once into [`Panels`]:
//!   column panels of [`TILE_NR`] columns (the last one 8 or 16 wide,
//!   zero-padded) whose rows sit two at a time, k-pair-interleaved, as
//!   the `i8` codes themselves, so one 16-byte load holds eight columns'
//!   pairs `(B[2q][j], B[2q+1][j])`; widened to `i16` in a register
//!   (`vpmovsxbw`), they are the operand of one `vpmaddwd`. An odd `k`
//!   pads its last pair with a zero row. A pack holds one byte per code,
//!   half what codes stored widened would take, so a model can keep
//!   every weight packed.
//! * **Register blocking.** The AVX2 kernel computes a [`TILE_MR`] ×
//!   [`TILE_NR`] tile at once: `A`'s rows are widened to `i16` one tile
//!   of rows at a time, into a stack block of [`TILE_KC`]-value
//!   k-blocks; per pair of `k`, two panel loads and one `vpbroadcastd`
//!   of each row's pair feed two `vpmaddwd` per row (16 products each,
//!   summed pairwise into 8 `i32` lanes) and two `vpaddd` into twelve
//!   accumulators held in registers. Rows left over past the last full
//!   tile run as one tile of their own height, so a single row (a
//!   decode step) runs the same loop one row high and a 32-row analog
//!   tile ends in a two-row one.
//! * **Exact accumulation.** Integer addition is associative (mod 2³²),
//!   so *every* blocking — any tile shape, any `k`-block split, the
//!   baseline twin, any thread count — produces the naive oracle's
//!   ([`matmul_i32_naive`]) bits; there is no schedule to pin. A
//!   `vpmaddwd` pair sum is at most `2 · 128² = 32768`, so the pairwise
//!   step is exact too (the saturating `vpmaddubsw` would not be).
//! * **Row bands.** One driver runs every product in bands of at most
//!   1,026 rows; above [`PAR_ELEMS_MIN`] MACs it first splits the rows
//!   into shares of whole tiles on scoped threads (see
//!   [`crate::parallel`]). Every band reads the same panels. The `i32`
//!   products store each band straight into their output;
//!   [`matmul_packed_dequant`] stores it into a band-sized scratch
//!   buffer and dequantizes it into the f64 output at once, so the int8
//!   datapath's read-out is one pass with no `m × n` `i32` buffer.
//!
//! All accumulation wraps. A single `i8 × i8` product is at most
//! `128 × 128 = 16384`, so a plain `i32` accumulator is exact for inner
//! dimensions up to `k ≈ 1.3 × 10⁵`; beyond that every path wraps mod
//! 2³² *identically* (the equality guarantees still hold, the
//! dequantized value becomes meaningless). Workloads in this repo keep
//! `k` well under the bound.
//!
//! Dispatch is cached once per process: the AVX2 kernel when the host
//! has AVX2 and `PHOX_FORCE_SCALAR` (shared with [`crate::gemm::simd`])
//! does not ask for the baseline path, otherwise the baseline twin
//! ([`gemm_baseline`]): the same driver at SSE2 width on x86-64, whose
//! baseline includes SSE2, and a plain per-output loop elsewhere.

use std::ops::Range;

use crate::gemm::simd::{padded_cols, panel_spans};
use crate::matrix::{Matrix, TensorError};
use crate::parallel;

/// Output rows of one microkernel tile.
pub const TILE_MR: usize = 6;

/// Columns of a full [`Panels`] panel: two 8-lane `i32` vectors, so a
/// [`TILE_MR`] × `TILE_NR` tile holds twelve accumulators.
pub const TILE_NR: usize = 16;

/// Values of `k` per k-block of the AVX2 kernel (even). The widened rows
/// of one tile of `A` live on the stack one k-block at a time; a later
/// block adds to the sums the earlier ones stored.
pub const TILE_KC: usize = 1024;

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

/// `B` (`k × n`, row-major `i8`) packed once for [`gemm`]: column
/// panels of [`TILE_NR`] (the last one 8 or 16 wide, zero-padded). A
/// panel of width `w` starting at column `j0` holds `B`'s rows in pairs:
/// `B[p][j]` sits at `j0·k₂ + (p / 2)·2w + 2(j − j0) + p % 2`, with
/// `k₂ = k` rounded up to even and a zero row padding an odd `k`. The
/// codes stay `i8`; the kernels widen them to `i16` as they load them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Panels {
    data: Vec<i8>,
    k: usize,
    n: usize,
}

impl Panels {
    /// Packs row-major `b` (`k × n`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[i8], k: usize, n: usize) -> Panels {
        let mut panels = Panels::default();
        panels.repack(b, k, n);
        panels
    }

    /// Packs row-major `b` (`k × n`) into this pack's buffer, replacing
    /// what it held. Returns whether the buffer was already large enough,
    /// so a caller that keeps one pack as scratch can count reuse.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn repack(&mut self, b: &[i8], k: usize, n: usize) -> bool {
        assert_eq!(Some(b.len()), k.checked_mul(n), "gemm operand is not k × n");
        let len = padded_cols(n, TILE_NR) * padded_k(k);
        let reused = self.data.capacity() >= len;
        self.data.clear();
        self.data.resize(len, 0);
        (self.k, self.n) = (k, n);
        for (p, brow) in b.chunks_exact(n.max(1)).enumerate() {
            for (j0, width) in panel_spans(n, 0, TILE_NR) {
                let at = self.at(p, j0);
                let dst = self.data[at..].iter_mut().step_by(2);
                for (d, &v) in dst.zip(&brow[j0..n.min(j0 + width)]) {
                    *d = v;
                }
            }
        }
        reused
    }

    /// Copies `src` into this pack's buffer (`Vec::clone_from`, which
    /// keeps the allocation when it is large enough), so a caller can
    /// patch a resident pack's codes without touching the original.
    /// Returns whether the buffer was already large enough, as
    /// [`Panels::repack`] does.
    pub fn copy_from(&mut self, src: &Panels) -> bool {
        let reused = self.data.capacity() >= src.data.len();
        self.data.clone_from(&src.data);
        (self.k, self.n) = (src.k, src.n);
        reused
    }

    /// Rows of the packed `B`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed `B`, padding excluded.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The code `B[p][j]`.
    ///
    /// # Panics
    ///
    /// Panics unless `p < k` and `j < n`.
    pub fn code(&self, p: usize, j: usize) -> i8 {
        self.data[self.checked_at(p, j)]
    }

    /// Overwrites the code `B[p][j]`, as a fault model forces a stuck
    /// weight cell.
    ///
    /// # Panics
    ///
    /// Panics unless `p < k` and `j < n`.
    pub fn set_code(&mut self, p: usize, j: usize, v: i8) {
        let at = self.checked_at(p, j);
        self.data[at] = v;
    }

    fn checked_at(&self, p: usize, j: usize) -> usize {
        assert!(p < self.k && j < self.n, "panel index out of bounds");
        self.at(p, j)
    }

    /// Position of `B[p][j]`: every panel before column `j`'s is full
    /// width, so its panel starts at `j0 = j − j % TILE_NR`.
    fn at(&self, p: usize, j: usize) -> usize {
        let j0 = j - j % TILE_NR;
        let width = if self.n - j0 > TILE_NR / 2 {
            TILE_NR
        } else {
            TILE_NR / 2
        };
        j0 * padded_k(self.k) + (p - p % 2) * width + 2 * (j - j0) + p % 2
    }
}

/// `k` rounded up to whole pairs.
fn padded_k(k: usize) -> usize {
    k + k % 2
}

/// Checks the operands of [`gemm`] and returns the row count: `out`
/// holds whole rows `ld` apart, `a` as many rows of `b.k` values, the
/// columns start a panel (or are empty) and fit both `B` and a row of
/// `out`, and the panels hold their packed length. The AVX2 kernel's
/// pointer arithmetic relies on exactly these bounds.
fn check_gemm(a: &[i8], b: &Panels, cols: &Range<usize>, out: &[i32], ld: usize) -> usize {
    assert_eq!(
        b.data.len(),
        padded_cols(b.n, TILE_NR) * padded_k(b.k),
        "gemm panels are not packed for k × n"
    );
    assert!(
        cols.start <= cols.end && cols.end <= b.n,
        "gemm columns lie outside B"
    );
    assert!(
        cols.is_empty() || cols.start.is_multiple_of(TILE_NR),
        "gemm columns do not start a panel"
    );
    assert!(
        ld > 0 && ld >= cols.len(),
        "gemm output rows are narrower than its columns"
    );
    assert_eq!(out.len() % ld, 0, "gemm output is not rows × ld");
    let rows = out.len() / ld;
    assert_eq!(
        Some(a.len()),
        rows.checked_mul(b.k),
        "gemm operand is not rows × k"
    );
    rows
}

/// The plain per-output loop over checked operands, the baseline twin
/// off x86-64: every output one wrapping `i32` sum over the pairs of its
/// panel column, a panel at a time so the panel stays in cache across
/// the rows.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn gemm_plain(a: &[i8], b: &Panels, cols: Range<usize>, out: &mut [i32], ld: usize, rows: usize) {
    let (k, kp) = (b.k, padded_k(b.k));
    let spans = panel_spans(b.n, cols.start, TILE_NR).take_while(|&(j0, _)| j0 < cols.end);
    for (j0, width) in spans {
        let panel = &b.data[j0 * kp..(j0 + width) * kp];
        let cnt = width.min(cols.end - j0);
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            let dst = &mut out[i * ld + j0 - cols.start..][..cnt];
            for (c, d) in dst.iter_mut().enumerate() {
                let column = panel
                    .chunks_exact(2 * width)
                    .map(|prow| &prow[2 * c..2 * c + 2]);
                *d = arow.chunks(2).zip(column).fold(0i32, |s, (x, y)| {
                    let hi = x.get(1).map_or(0, |&v| i32::from(v) * i32::from(y[1]));
                    s.wrapping_add(i32::from(x[0]) * i32::from(y[0]) + hi)
                });
            }
        }
    }
}

/// Runs the baseline twin over checked operands.
fn gemm_baseline_checked(
    a: &[i8],
    b: &Panels,
    cols: Range<usize>,
    out: &mut [i32],
    ld: usize,
    rows: usize,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline, and `check_gemm`
    // verified every length the kernel's pointer offsets rely on.
    unsafe {
        x86::gemm_sse2(a, b, cols, out, ld, rows);
    }
    #[cfg(not(target_arch = "x86_64"))]
    gemm_plain(a, b, cols, out, ld, rows);
}

/// The baseline twin of [`gemm`]: the same operands and outputs on the
/// kernel a host without AVX2 runs, and the one `PHOX_FORCE_SCALAR`
/// selects — on x86-64 the microkernel's driver at SSE2 width (`pmaddwd`
/// on 128-bit registers, part of every x86-64 CPU, as it was of the
/// autovectorised per-output loop this kernel replaced), elsewhere a
/// plain per-output loop. Integer sums have one value, so it agrees with
/// the AVX2 kernel bit for bit. Public so equivalence suites can pin the
/// dispatched kernel against it regardless of which path dispatch
/// selected.
///
/// # Panics
///
/// Panics on the operand shapes [`gemm`] rejects.
pub fn gemm_baseline(a: &[i8], b: &Panels, cols: Range<usize>, out: &mut [i32], ld: usize) {
    let rows = check_gemm(a, b, &cols, out, ld);
    gemm_baseline_checked(a, b, cols, out, ld, rows);
}

/// The microkernel: `out[i·ld + (j − cols.start)] = Σ_p a[i·k + p] ·
/// B[p][j]` (wrapping `i32`) for every row `i` of `a` (`rows × k`, with
/// `rows = out.len() / ld`) and every column `j` in `cols`, against `B`
/// packed as [`Panels`]. Other positions of `out` are left untouched.
/// Dispatches to the AVX2 register-blocked kernel when it is usable,
/// otherwise runs [`gemm_baseline`]; both give the naive oracle's bits.
///
/// # Panics
///
/// Panics unless `out` holds whole rows of `ld ≥ cols.len()` values, `a`
/// as many rows of `k` values, and `cols` lies inside `0..n` starting at
/// a multiple of [`TILE_NR`] (or is empty).
pub fn gemm(a: &[i8], b: &Panels, cols: Range<usize>, out: &mut [i32], ld: usize) {
    let rows = check_gemm(a, b, &cols, out, ld);
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_usable() {
        // SAFETY: AVX2 availability was just checked, and `check_gemm`
        // verified every length the kernel's pointer offsets rely on.
        unsafe { x86::gemm_avx2(a, b, cols, out, ld, rows) };
        return;
    }
    gemm_baseline_checked(a, b, cols, out, ld, rows);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_madd_epi16,
        _mm256_set1_epi32, _mm256_setzero_si256, _mm256_storeu_si256, _mm_add_epi32,
        _mm_loadl_epi64, _mm_loadu_si128, _mm_madd_epi16, _mm_set1_epi32, _mm_setzero_si128,
        _mm_srai_epi16, _mm_storeu_si128, _mm_unpacklo_epi8,
    };
    use core::mem::MaybeUninit;
    use std::ops::Range;

    use super::{padded_k, Panels, TILE_KC, TILE_MR, TILE_NR};

    /// One register of `i32` sums and the operations the microkernel runs
    /// on it, so one driver serves both register widths.
    trait Lanes: Copy {
        /// `i32` sums per register, and `i16` pairs per panel load.
        const SUMS: usize;
        /// All-zero sums.
        unsafe fn zero() -> Self;
        /// `SUMS` pairs of `i8` codes from `p`, each widened to `i16`.
        unsafe fn load(p: *const i8) -> Self;
        /// The `i16` pair at `p` in every 32-bit lane.
        unsafe fn splat_pair(p: *const i16) -> Self;
        /// `acc + pmaddwd(x, b)`: per lane, `acc + x₀b₀ + x₁b₁`.
        unsafe fn madd_add(acc: Self, x: Self, b: Self) -> Self;
        /// Stores the `SUMS` sums to `p`.
        unsafe fn store(p: *mut i32, v: Self);
    }

    /// A 256-bit AVX2 register of eight sums.
    #[derive(Clone, Copy)]
    struct Avx2(__m256i);

    impl Lanes for Avx2 {
        const SUMS: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Avx2(_mm256_setzero_si256())
        }
        /// Sixteen codes, sign-extended by `vpmovsxbw`.
        #[inline(always)]
        unsafe fn load(p: *const i8) -> Self {
            Avx2(_mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast())))
        }
        #[inline(always)]
        unsafe fn splat_pair(p: *const i16) -> Self {
            Avx2(_mm256_set1_epi32(p.cast::<i32>().read_unaligned()))
        }
        #[inline(always)]
        unsafe fn madd_add(acc: Self, x: Self, b: Self) -> Self {
            Avx2(_mm256_add_epi32(acc.0, _mm256_madd_epi16(x.0, b.0)))
        }
        #[inline(always)]
        unsafe fn store(p: *mut i32, v: Self) {
            _mm256_storeu_si256(p.cast(), v.0);
        }
    }

    /// A 128-bit SSE2 register of four sums.
    #[derive(Clone, Copy)]
    struct Sse2(__m128i);

    impl Lanes for Sse2 {
        const SUMS: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            Sse2(_mm_setzero_si128())
        }
        /// Eight codes, each unpacked into both bytes of a lane, then
        /// shifted right arithmetically: SSE2 has no sign-extending load.
        #[inline(always)]
        unsafe fn load(p: *const i8) -> Self {
            let codes = _mm_loadl_epi64(p.cast());
            Sse2(_mm_srai_epi16::<8>(_mm_unpacklo_epi8(codes, codes)))
        }
        #[inline(always)]
        unsafe fn splat_pair(p: *const i16) -> Self {
            Sse2(_mm_set1_epi32(p.cast::<i32>().read_unaligned()))
        }
        #[inline(always)]
        unsafe fn madd_add(acc: Self, x: Self, b: Self) -> Self {
            Sse2(_mm_add_epi32(acc.0, _mm_madd_epi16(x.0, b.0)))
        }
        #[inline(always)]
        unsafe fn store(p: *mut i32, v: Self) {
            _mm_storeu_si128(p.cast(), v.0);
        }
    }

    /// One k-block of up to [`TILE_MR`] rows of `A`, widened to `i16`:
    /// row `t` at `t·TILE_KC`, an odd `k` padded with a zero. Left
    /// uninitialised (a full zero fill would cost a small product as much
    /// as its arithmetic): every value a tile reads is written first.
    #[repr(C, align(32))]
    struct Wide([MaybeUninit<i16>; TILE_MR * TILE_KC]);

    /// Cached once-per-process dispatch: AVX2 present and
    /// `PHOX_FORCE_SCALAR` not set.
    pub fn avx2_usable() -> bool {
        use std::sync::OnceLock;
        static USABLE: OnceLock<bool> = OnceLock::new();
        *USABLE.get_or_init(|| {
            !crate::gemm::simd::force_scalar() && std::arch::is_x86_feature_detected!("avx2")
        })
    }

    /// AVX2 [`super::gemm`]: [`drive`] with [`TILE_MR`]-row tiles of two
    /// 8-sum registers per row of a full panel.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and that the operands pass
    /// [`super::check_gemm`], which returned `rows`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_avx2(
        a: &[i8],
        b: &Panels,
        cols: Range<usize>,
        out: &mut [i32],
        ld: usize,
        rows: usize,
    ) {
        drive::<Avx2, TILE_MR, 2, 1>(a, b, cols, out, ld, rows);
    }

    /// Output rows of one SSE2 tile.
    pub const SSE2_MR: usize = 2;

    /// SSE2 [`super::gemm_baseline`]: [`drive`] with [`SSE2_MR`]-row
    /// tiles of four 4-sum registers per row of a full panel; with the
    /// four panel loads and two broadcasts they fit the sixteen SSE
    /// registers.
    ///
    /// # Safety
    ///
    /// Caller must ensure the operands pass [`super::check_gemm`], which
    /// returned `rows`.
    pub unsafe fn gemm_sse2(
        a: &[i8],
        b: &Panels,
        cols: Range<usize>,
        out: &mut [i32],
        ld: usize,
        rows: usize,
    ) {
        drive::<Sse2, SSE2_MR, 4, 2>(a, b, cols, out, ld, rows);
    }

    /// The register-blocked driver at width `L`: [`rows_tile`] over tiles
    /// of `MR` rows, then the remainder as one tile of its own height.
    /// Measured against the alternatives at the 32-row analog tiles
    /// (five 6-row tiles and two rows) and the 256-row products (four
    /// rows): a full tile that repeats the last row wastes its extra
    /// rows' arithmetic, and one-row tiles re-read the panels per row.
    ///
    /// # Safety
    ///
    /// Caller must ensure `L`'s instructions are available, that
    /// `VF·L::SUMS == TILE_NR == 2·VH·L::SUMS` and `MR <= TILE_MR`, and
    /// that the operands pass [`super::check_gemm`], which returned
    /// `rows`.
    #[inline(always)]
    unsafe fn drive<L: Lanes, const MR: usize, const VF: usize, const VH: usize>(
        a: &[i8],
        b: &Panels,
        cols: Range<usize>,
        out: &mut [i32],
        ld: usize,
        rows: usize,
    ) {
        let mut wide = Wide([MaybeUninit::uninit(); TILE_MR * TILE_KC]);
        let (k, body) = (b.k, rows - rows % MR);
        // SAFETY (every `rows_tile` call): the checked operands hold
        // `rows` rows, and each call gets its own rows of `a` and `out`
        // through bounds-checked slices, as many as its tile height.
        for i in (0..body).step_by(MR) {
            let (a, out) = (&a[i * k..(i + MR) * k], &mut out[i * ld..(i + MR) * ld]);
            rows_tile::<L, MR, VF, VH>(&mut wide, a, b, &cols, out, ld);
        }
        let (a, out, w) = (&a[body * k..], &mut out[body * ld..], &mut wide);
        // `MR <= TILE_MR`, so fewer than six rows remain.
        match rows - body {
            0 => {}
            1 => rows_tile::<L, 1, VF, VH>(w, a, b, &cols, out, ld),
            2 => rows_tile::<L, 2, VF, VH>(w, a, b, &cols, out, ld),
            3 => rows_tile::<L, 3, VF, VH>(w, a, b, &cols, out, ld),
            4 => rows_tile::<L, 4, VF, VH>(w, a, b, &cols, out, ld),
            _ => rows_tile::<L, 5, VF, VH>(w, a, b, &cols, out, ld),
        }
    }

    /// The `R` rows of `a` against every panel of `cols` into the `R`
    /// rows of `out`: per k-block the rows are widened once, then every
    /// panel runs through [`tile`], `VF` registers per row of a full
    /// panel and `VH` of a half one. The first k-block stores its sums,
    /// later ones add to them.
    ///
    /// # Safety
    ///
    /// Caller must ensure `L`'s instructions are available, that
    /// `VF·L::SUMS == TILE_NR == 2·VH·L::SUMS` and `R <= TILE_MR`, and
    /// that `a` holds `R` rows of `b.k` values and `out` `R` rows `ld`
    /// apart, of operands that pass [`super::check_gemm`].
    #[inline(always)]
    unsafe fn rows_tile<L: Lanes, const R: usize, const VF: usize, const VH: usize>(
        wide: &mut Wide,
        a: &[i8],
        b: &Panels,
        cols: &Range<usize>,
        out: &mut [i32],
        ld: usize,
    ) {
        let (k, kp) = (b.k, padded_k(b.k));
        let mut k0 = 0;
        loop {
            let kb = (kp - k0).min(TILE_KC);
            for (t, dst) in wide.0.chunks_exact_mut(TILE_KC).take(R).enumerate() {
                let src = &a[t * k..(t + 1) * k][k0..k.min(k0 + kb)];
                for (d, &s) in dst.iter_mut().zip(src) {
                    d.write(i16::from(s));
                }
                // An odd k pads its last pair with a zero.
                if src.len() < kb {
                    dst[src.len()].write(0);
                }
            }
            let (w, q, add) = (wide.0.as_ptr().cast::<i16>(), kb / 2, k0 > 0);
            let spans =
                super::panel_spans(b.n, cols.start, TILE_NR).take_while(|&(j0, _)| j0 < cols.end);
            for (j0, width) in spans {
                let cnt = width.min(cols.end - j0);
                // SAFETY: the checked panel length covers pairs
                // k0/2..k0/2 + q of the `width`-wide panel at j0, and
                // columns j0 - cols.start + cnt of each of the R rows of
                // `out` lie inside its `R × ld` length.
                let (panel, dst) = (
                    b.data.as_ptr().add(j0 * kp + k0 * width),
                    out.as_mut_ptr().add(j0 - cols.start),
                );
                // SAFETY: `wide` holds R rows of 2q written values
                // TILE_KC apart, the panel q pair rows of `width` columns,
                // and `dst` R rows of cnt writable outputs ld apart.
                if width == TILE_NR {
                    store(&tile::<L, R, VF>(w, panel, q), dst, ld, cnt, add);
                } else {
                    store(&tile::<L, R, VH>(w, panel, q), dst, ld, cnt, add);
                }
            }
            k0 += kb;
            if k0 >= kp {
                break;
            }
        }
    }

    /// `R` widened rows against one panel `V` registers wide over `count`
    /// pairs of `k`: per pair, `V` panel loads and one broadcast of each
    /// row's pair feed `R·V` `pmaddwd` + `paddd` into the accumulators.
    ///
    /// # Safety
    ///
    /// Caller must ensure `L`'s instructions are available, `wide` points
    /// to `R` rows of `2·count` values [`TILE_KC`] apart, and `panel` to
    /// `count` pair rows of `2·V·L::SUMS` values.
    #[inline(always)]
    unsafe fn tile<L: Lanes, const R: usize, const V: usize>(
        wide: *const i16,
        panel: *const i8,
        count: usize,
    ) -> [[L; V]; R] {
        let step = 2 * L::SUMS;
        let mut acc = [[L::zero(); V]; R];
        for q in 0..count {
            let row = panel.add(q * step * V);
            let bv: [L; V] = core::array::from_fn(|v| L::load(row.add(step * v)));
            for (t, acc_t) in acc.iter_mut().enumerate() {
                let x = L::splat_pair(wide.add(t * TILE_KC + 2 * q));
                for (s, &bvv) in acc_t.iter_mut().zip(&bv) {
                    *s = L::madd_add(*s, x, bvv);
                }
            }
        }
        acc
    }

    /// Writes the `R` rows and first `cols` columns of `acc` to `dst`,
    /// whose rows are `ld` apart, adding to what is there when `add`.
    ///
    /// # Safety
    ///
    /// Caller must ensure `L`'s instructions are available, that
    /// `V·L::SUMS <= TILE_NR`, and that `dst + t·ld` points to `cols`
    /// writable elements for every `t < R`.
    #[inline(always)]
    unsafe fn store<L: Lanes, const R: usize, const V: usize>(
        acc: &[[L; V]; R],
        dst: *mut i32,
        ld: usize,
        cols: usize,
        add: bool,
    ) {
        for (t, acc_t) in acc.iter().enumerate() {
            let row = dst.add(t * ld);
            if cols == V * L::SUMS && !add {
                for (v, &x) in acc_t.iter().enumerate() {
                    L::store(row.add(v * L::SUMS), x);
                }
                continue;
            }
            let mut sums = [0i32; TILE_NR];
            for (v, &x) in acc_t.iter().enumerate() {
                L::store(sums.as_mut_ptr().add(v * L::SUMS), x);
            }
            // A fixed trip count with a guarded store, not a copy of
            // `cols` values: LLVM would turn that into a `memcpy` call,
            // which costs a skinny product more than its arithmetic.
            for (c, &s) in sums.iter().enumerate().take(V * L::SUMS) {
                if c < cols {
                    let d = row.add(c);
                    *d = if add { (*d).wrapping_add(s) } else { s };
                }
            }
        }
    }
}

/// Whether the `core::arch` int8 kernels — the microkernel and the
/// vectorised quantizer of [`crate::quant`] — are in use on this host.
/// Informational only: scalar and SIMD paths are bit-identical, and
/// `PHOX_FORCE_SCALAR=1` makes this return `false`.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::avx2_usable()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Int8 GEMV: `1 × k` row vector times row-major `k × n` matrix, raw
/// wrapping-`i32` sums. This is the single-row shape of
/// [`matmul_i32`], where packing `B` first would cost as much as the
/// product itself: instead the axpy loop streams each `B` row once,
/// skipping zero activations like [`matmul_i32_naive`]. A caller that
/// multiplies one row by the same `B` on every step keeps it packed and
/// calls [`matmul_packed`] or [`matmul_packed_dequant`] instead.
/// Wrapping `i32` addition is associative, so the result is
/// bit-identical to every GEMM path.
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

/// Rows and columns of the tile the dispatched kernel computes at once:
/// [`TILE_MR`] × [`TILE_NR`] on AVX2, two rows of a panel on the SSE2
/// twin, one output in the plain loop.
fn dispatched_tile() -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if x86::avx2_usable() {
            (TILE_MR, TILE_NR)
        } else {
            (x86::SSE2_MR, TILE_NR)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (1, 1)
    }
}

/// Records one `m × k × n` int8 product on the "int8" trace track,
/// mirroring the f64 kernel's "gemm" track: only geometry-derived
/// quantities and the dispatched tile, so traces stay byte-identical
/// across thread counts.
fn trace_product(m: usize, k: usize, n: usize) {
    if phox_trace::enabled() {
        let tr = phox_trace::active();
        let (tile_mr, tile_nr) = dispatched_tile();
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
                ("tile_mr", phox_trace::Value::UInt(tile_mr as u64)),
                ("tile_nr", phox_trace::Value::UInt(tile_nr as u64)),
                ("simd", phox_trace::Value::UInt(u64::from(simd_active()))),
            ],
        );
    }
}

/// Rows per band of [`drive`]: 1,026, the whole [`TILE_MR`]-row tiles
/// nearest 1,024. A dequantizing product ([`matmul_packed_dequant`])
/// holds one band's `i32` sums in a scratch buffer, 64 KiB at the GCN's
/// 16 columns, so they are still in L2 when they are dequantized; each
/// band re-reads the `k × n` panels. Timed at the workloads' products
/// (one thread on a 2-vCPU Xeon VM, bands of 48 rows to unbounded), the
/// band height moved nothing beyond the run-to-run noise, and 1,026
/// rows keep every `llm_prefill` product (m = 256) and decode step in
/// one band: the exact kernel calls of an unbanded product.
const BAND_ROWS: usize = 1024usize.next_multiple_of(TILE_MR);

/// The one driver behind [`matmul_i32`], [`matmul_packed`] and
/// [`matmul_packed_dequant`]: calls `band(rows, out_rows, scratch)` for
/// every band of at most [`BAND_ROWS`] rows of the `m`-row product,
/// serially or — once the MAC volume clears [`PAR_ELEMS_MIN`] — in row
/// shares of whole tiles on scoped workers, the bands of one share
/// sharing one `scratch` buffer. Every band reads the same panels, and
/// integer sums have one value, so the result is independent of the
/// thread count and the band height.
fn drive<T: Send>(
    m: usize,
    b: &Panels,
    out: &mut [T],
    band: impl Fn(Range<usize>, &mut [T], &mut Vec<i32>) + Sync,
) {
    let (k, n) = (b.k, b.n);
    let share = |row0: usize, rows: &mut [T]| {
        let mut scratch = Vec::new();
        for (i, band_rows) in rows.chunks_mut(BAND_ROWS * n).enumerate() {
            let r0 = row0 + i * BAND_ROWS;
            band(r0..r0 + band_rows.len() / n, band_rows, &mut scratch);
        }
    };
    // Small products (every decode step) never look the thread count up.
    let threads = if m * k * n < PAR_ELEMS_MIN {
        1
    } else {
        parallel::max_threads()
    };
    if threads <= 1 {
        share(0, out);
        return;
    }
    // Two shares per thread, as in the f64 kernel: round-robin absorbs
    // uneven share completion; share boundaries never affect values.
    let share_rows = m.div_ceil(threads * 2).next_multiple_of(TILE_MR);
    parallel::par_chunks_mut(out, share_rows * n, |i, rows| {
        share(i * share_rows, rows);
    });
}

/// [`drive`] with every band's sums stored by [`gemm`] straight into
/// its rows of `out`.
fn drive_i32(a: &[i8], b: &Panels, out: &mut [i32]) {
    let (k, n) = (b.k, b.n);
    drive(out.len() / n, b, out, |rows, sums, _| {
        gemm(&a[rows.start * k..rows.end * k], b, 0..n, sums, n);
    });
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

/// The production int8 kernel: `B` packed once into [`Panels`], then the
/// register-blocked microkernel over row bands (see the module docs); a
/// single row takes the pack-free [`gemv_i32`]. Because `i32`
/// accumulation is exact, the result is bit-identical to the naive
/// oracle for every thread count.
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
    if m == 1 {
        // Decode-step shape: skip the O(k·n) pack entirely.
        return gemv_i32(a, b, k, n);
    }
    let mut out = vec![0i32; m * n];
    if m > 0 && n > 0 && k > 0 {
        drive_i32(a, &Panels::pack(b, k, n), &mut out);
    }
    Ok(out)
}

/// `a` (row-major `m × k`) times a `B` the caller keeps packed: the
/// same driver and the same bits as [`matmul_i32`], without the pack.
/// Traced exactly as [`matmul_i32`] traces the same product.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `a.len() != m · k`.
pub fn matmul_packed(a: &[i8], b: &Panels, m: usize) -> Result<Vec<i32>, TensorError> {
    check_len(a.len(), m * b.k)?;
    trace_product(m, b.k, b.n);
    let mut out = vec![0i32; m * b.n];
    if m > 0 && b.n > 0 {
        drive_i32(a, b, &mut out);
    }
    Ok(out)
}

/// [`matmul_packed`] dequantized as it is stored: `a` holds one row of
/// `b.k()` codes per entry of `row_scales`, and output `(i, j)` is the
/// product's `i32` sum times `row_scales[i] · b_scale` (that product
/// rounded once per row). Each band's sums go from the microkernel to a
/// band-sized scratch buffer and on into the f64 output at once, so no
/// `m × n` `i32` buffer exists. The same driver, the same bits as the
/// `i32` product dequantized afterwards, and the same trace.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `a.len() != m · k` for
/// `m = row_scales.len()`.
pub fn matmul_packed_dequant(
    a: &[i8],
    row_scales: &[f64],
    b: &Panels,
    b_scale: f64,
) -> Result<Matrix, TensorError> {
    let (m, k, n) = (row_scales.len(), b.k, b.n);
    check_len(a.len(), m * k)?;
    trace_product(m, k, n);
    let mut out = Matrix::zeros(m, n);
    if m > 0 && n > 0 {
        drive(m, b, out.as_mut_slice(), |rows, dst, sums| {
            sums.resize(dst.len(), 0);
            gemm(&a[rows.start * k..rows.end * k], b, 0..n, sums, n);
            let band = dst.chunks_exact_mut(n).zip(sums.chunks_exact(n));
            for ((dst, sums), &row_scale) in band.zip(&row_scales[rows]) {
                let scale = row_scale * b_scale;
                for (d, &s) in dst.iter_mut().zip(sums.iter()) {
                    *d = f64::from(s) * scale;
                }
            }
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn random_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = Prng::new(seed);
        (0..len).map(|_| rng.next_u64() as i8).collect()
    }

    #[test]
    fn serial_kernel_and_baseline_twins_match_naive() {
        for (m, k, n) in [
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 3),
            (33, 65, 17),
            (64, 128, 64),
            (6, 1100, 40),
        ] {
            let a = random_i8(m * k, 1);
            let b = random_i8(k * n, 2);
            let naive = matmul_i32_naive(&a, &b, m, k, n).unwrap();
            let panels = Panels::pack(&b, k, n);
            let mut fast = vec![0; m * n];
            gemm(&a, &panels, 0..n, &mut fast, n);
            assert_eq!(fast, naive, "{m}x{k}x{n}");
            let mut twin = vec![0; m * n];
            gemm_baseline(&a, &panels, 0..n, &mut twin, n);
            assert_eq!(twin, naive, "baseline {m}x{k}x{n}");
            // The plain loop is the baseline twin off x86-64 only; pin it
            // on every host.
            let mut plain = vec![0; m * n];
            gemm_plain(&a, &panels, 0..n, &mut plain, n, m);
            assert_eq!(plain, naive, "plain {m}x{k}x{n}");
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
        // All-(-128) operands give the widest products and pair sums.
        let (m, k, n) = (4, 33, 5);
        let a = vec![-128i8; m * k];
        let b = vec![-128i8; k * n];
        let out = matmul_i32(&a, &b, m, k, n).unwrap();
        assert!(out.iter().all(|&v| v == 128 * 128 * k as i32));
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
        // A k = 0 pack stores zeros over the columns asked for.
        let mut out = vec![7; 6];
        gemm(&[], &Panels::pack(&[], 0, 3), 0..3, &mut out, 3);
        assert_eq!(out, vec![0; 6]);
    }

    #[test]
    fn length_mismatch_is_reported() {
        assert!(matmul_i32(&[1, 2], &[1, 2], 2, 2, 1).is_err());
        assert!(matmul_i32_naive(&[1, 2], &[3, 4], 1, 2, 1).is_ok());
        assert!(matmul_i32_naive(&[1, 2], &[1], 1, 2, 2).is_err());
        assert!(matmul_packed(&[1, 2, 3], &Panels::pack(&[1, 2], 2, 1), 1).is_err());
    }

    #[test]
    fn trace_records_the_dispatched_tile() {
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || {
            matmul_i32(&[1; 6], &[1; 6], 2, 3, 2).unwrap()
        });
        let events = trace.events();
        let instant = events
            .iter()
            .find(|e| e.track == "int8" && e.name == "gemm_kernel")
            .expect("gemm_kernel instant");
        let arg = |key| instant.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        let (mr, nr) = dispatched_tile();
        assert_eq!(arg("tile_mr"), Some(&phox_trace::Value::UInt(mr as u64)));
        assert_eq!(arg("tile_nr"), Some(&phox_trace::Value::UInt(nr as u64)));
        assert_eq!(simd_active(), (mr, nr) == (TILE_MR, TILE_NR));
    }

    #[test]
    #[should_panic(expected = "gemm columns do not start a panel")]
    fn columns_must_start_a_panel() {
        let panels = Panels::pack(&[0; 40], 2, 20);
        gemm(&[0; 2], &panels, 4..20, &mut [0; 16], 16);
    }

    #[test]
    fn panel_codes_round_trip_and_repack_reuses() {
        let (k, n) = (5, 21);
        let b = random_i8(k * n, 5);
        let mut panels = Panels::pack(&b, k, n);
        for p in 0..k {
            for j in 0..n {
                assert_eq!(panels.code(p, j), b[p * n + j], "({p}, {j})");
            }
        }
        panels.set_code(4, 20, -128);
        assert_eq!(panels.code(4, 20), -128);
        assert!(panels.repack(&b[..2 * 3], 2, 3));
        assert!(!panels.repack(&random_i8(64 * 64, 6), 64, 64));
        assert_eq!((panels.k(), panels.n()), (64, 64));
    }

    #[test]
    fn single_rows_match_naive_gemm_row() {
        // Exercise tail lengths around the pair and k-block boundaries,
        // through the pack-free GEMV and through resident panels.
        for k in (0..40).chain([64, 65, 127, 128, 129, 300, 1025]) {
            let n = 17;
            let a = random_i8(k, 21);
            let b = random_i8(k * n, 22);
            let naive = matmul_i32_naive(&a, &b, 1, k, n).unwrap();
            assert_eq!(gemv_i32(&a, &b, k, n).unwrap(), naive, "k={k}");
            assert_eq!(matmul_i32(&a, &b, 1, k, n).unwrap(), naive, "k={k}");
            let packed = matmul_packed(&a, &Panels::pack(&b, k, n), 1).unwrap();
            assert_eq!(packed, naive, "packed k={k}");
        }
    }

    #[test]
    fn gemv_length_mismatch_is_reported() {
        assert!(gemv_i32(&[1, 2], &[1, 2, 3], 2, 2).is_err());
        assert!(gemv_i32(&[1], &[1, 2], 2, 1).is_err());
    }

    #[test]
    fn wrapping_accumulation_is_order_independent() {
        // Large k with saturated operands overflows i32 by design; all
        // paths must wrap identically.
        let k = 200_000;
        let a = vec![127i8; 2 * k];
        let b = vec![127i8; k];
        let naive = matmul_i32_naive(&a, &b, 2, k, 1).unwrap();
        assert_eq!(matmul_i32(&a, &b, 2, k, 1).unwrap(), naive);
        assert_eq!(matmul_i32(&a[..k], &b, 1, k, 1).unwrap()[0], naive[0]);
        assert_eq!(naive[0], (127i64 * 127 * k as i64) as i32);
    }
}
