//! Runtime-dispatched f64 SIMD dot/GEMM/axpy microkernels with a pinned
//! lane-accumulation order.
//!
//! Floating-point addition is not associative, so an AVX2 kernel that
//! accumulates in four 4-wide vector registers produces different bits
//! than a scalar single-accumulator loop. The int8 kernel
//! ([`crate::gemm_i8`]) sidesteps this because wrapping-`i32` addition
//! *is* associative; here we get the same guarantee a different way:
//! **the scalar kernel is restructured to the exact lane-accumulation
//! order of the vector kernel**, fused-multiply-add included.
//!
//! * [`dot`] accumulates in **16 fixed lanes** (four 4-lane `f64`
//!   vectors); lane `l` owns indices `i ≡ l (mod 16)`. The AVX2 path
//!   issues one `vfmadd231pd` per vector per 16-element step; the
//!   scalar path replays the identical schedule with [`f64::mul_add`],
//!   which is the same correctly-rounded IEEE-754 fusedMultiplyAdd
//!   operation. The reduction order is fixed on both paths:
//!   `w[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12])` (vector adds
//!   `(acc0 + acc1) + (acc2 + acc3)`), then horizontally
//!   `(w[0] + w[2]) + (w[1] + w[3])` (low-128 + high-128, then the
//!   final pairwise add), then a sequential fused tail for `k % 16`.
//!   Result: scalar and AVX2 agree **bit-for-bit** on every input,
//!   subnormals and signed zeros included.
//! * [`gemv`] computes `a · B` for row-major `B` with every output in the
//!   schedule of [`dot`] over the corresponding column: lane `p % 16` of
//!   column `j` accumulates `fma(a[p], B[p][j])` over the 16-lane body,
//!   the lanes fold in the order above, and the `k % 16` tail is added
//!   with in-order fused multiply-adds. It vectorizes *across* columns
//!   (one `__m256d` holds lane `l` of four adjacent columns) instead of
//!   along `k`, so it reads `B` in place: each output equals `dot(a,
//!   Bᵀ[j])` bit for bit without packing `Bᵀ`. The AVX2 kernel runs the
//!   lanes in four groups, `{g, g+4, g+8, g+12}`, each folding as soon as
//!   its lanes finish; lanes are independent until the fold, so the
//!   grouping moves no bit.
//! * [`gemm`] is the register-blocked microkernel behind
//!   [`crate::gemm::matmul`] for `m ≥ 2`. `B` is packed once into
//!   [`Panels`]: [`GEMM_NR`]-column panels (the last one 4 or 8 wide,
//!   zero-padded) whose rows sit lane-major, `p = l + 16·s` for the
//!   16-lane body and the `k % 16` tail after. The AVX2 kernel computes a
//!   [`GEMM_MR`] × [`GEMM_NR`] tile at once — one lane chain at a time,
//!   twelve `__m256d` accumulators advanced by six broadcasts of `a` and
//!   two panel loads per lane step — in k-blocks of [`GEMM_KC`] values
//!   that resume from each lane's stored partial. Each partial is stored
//!   only by its own chain, never zero-filled first. The sixteen lane
//!   partials then fold in straight-line adds,
//!   `(s[g] + s[g+4]) + (s[g+8] + s[g+12])`, then `(w0 + w2) + (w1 + w3)`,
//!   and the tail is added with in-order fused multiply-adds, every fma
//!   and add with [`dot`]'s operands in [`dot`]'s order: each output
//!   equals `dot(a_i, Bᵀ[j])` bit for bit. A last tile with fewer rows
//!   repeats its last row and stores only its own. Rows run in blocks of
//!   [`gemm_block_rows`] (whole tiles whose rows of `a` and of the output
//!   fit [`GEMM_BLOCK_BYTES`]), and every group of panels passes over one
//!   block before the next block starts, so the block's rows of `a` stay
//!   in L2 across all of `B`. A single row runs the GEMV body of
//!   [`gemv`] over the panels instead, in either dispatch mode: lane `l`
//!   of a panel is one contiguous run, so each of a group's four lanes
//!   streams its own run, and a panel's padded columns are computed and
//!   dropped, with no scalar column tail. The scalar twin
//!   [`gemm_scalar`] unpacks each panel back into `Bᵀ` rows and calls
//!   [`dot_scalar`] per output, at any row count; the dispatched kernel
//!   runs it for two rows or more where AVX2+FMA is missing.
//! * [`axpy`] vectorizes over the *output* dimension (`o[j] += a ·
//!   b[j]`), where each element has its own accumulator — no
//!   reassociation happens, so plain vector multiply + add is
//!   bitwise-equal to the scalar loop by construction. It runs inside
//!   [`crate::ops::matmul_seq`], whose sequential-in-`k` accumulation
//!   order is a documented invariant (prefix invariance) that must not
//!   change. Neither serves a model path any more: the heads run
//!   [`context`] and a decode step [`attend`], and `matmul_seq` and
//!   [`crate::ops::softmax_rows`] remain as the oracle those kernels are
//!   pinned against (the `heads_oracle` and `simd_prop` suites) and in
//!   the bench digest. The [`crate::sparse`] kernels keep the same
//!   per-element order in their own register-resident row kernel,
//!   dispatched on [`simd_active`].
//! * [`context`] is an attention head's context product for a block of
//!   query rows: each output starts from what `out` holds and adds
//!   `w[i][j] · V[j][c]` for every key row `j`, ascending, the product
//!   rounded before the add, as [`axpy`] does and as
//!   [`crate::ops::matmul_seq`] does from `+0.0`. The AVX2 kernel keeps
//!   a block of six query rows by eight columns in registers across all
//!   key rows, so `V` is read once per block; its scalar twin
//!   [`context_scalar`] is the textbook loop.
//! * [`attend`] fuses one head of a KV-cached decode step: scores in the
//!   [`dot`] schedule (four cached rows at a time, whose horizontal folds
//!   share one 4×4 transpose), softmax in place through
//!   [`crate::ops::softmax_in_place`], and the context of its one query
//!   row through [`context`]'s register blocks. Every output bit equals
//!   the per-row `dot` → `softmax_rows` → `axpy` composition, which its
//!   scalar twin [`attend_scalar`] spells out.
//!
//! Dispatch follows the [`crate::gemm_i8`] idiom: cached once-per-process
//! feature detection (`avx2` **and** `fma` here), with a
//! `PHOX_FORCE_SCALAR=1` environment override — read once, same cache —
//! so CI can run the whole suite on the scalar path and byte-diff the
//! results against the SIMD run.

use std::ops::Range;

/// Number of independent accumulation lanes in [`dot`]: four 4-lane
/// `f64` vectors. Both the scalar and AVX2 kernels are written against
/// this constant; changing it changes result bits.
pub const DOT_LANES: usize = 16;

/// Scalar [`dot`] kernel replaying the AVX2 lane schedule with
/// [`f64::mul_add`] (the same correctly-rounded fusedMultiplyAdd the
/// `vfmadd231pd` instruction performs). Bit-identical to the AVX2 path
/// on every input; public so equivalence suites can pin the dispatched
/// kernel against it regardless of which path dispatch selected.
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let mut s = [0.0f64; DOT_LANES];
    let mut k = 0usize;
    while k + DOT_LANES <= n {
        // One fused multiply-add per lane, in lane order — the exact
        // operation sequence of the four vfmadd231pd issues per step.
        for (l, acc) in s.iter_mut().enumerate() {
            *acc = a[k + l].mul_add(b[k + l], *acc);
        }
        k += DOT_LANES;
    }
    // Vector reduction order: (acc0 + acc1) + (acc2 + acc3), lane-wise.
    let mut w = [0.0f64; 4];
    for (l, wl) in w.iter_mut().enumerate() {
        *wl = (s[l] + s[l + 4]) + (s[l + 8] + s[l + 12]);
    }
    // Horizontal order: low 128 + high 128, then the final pairwise add.
    let mut acc = (w[0] + w[2]) + (w[1] + w[3]);
    while k < n {
        acc = a[k].mul_add(b[k], acc);
        k += 1;
    }
    acc
}

/// Columns per block of the scalar [`gemv`] kernel. Blocking never
/// changes a value, only which outputs share a pass over `B`.
const GEMV_COLS: usize = 4;

/// Scalar [`gemv`] kernel for output columns `j0..out.len()`: the
/// [`dot_scalar`] schedule per column, in blocks of [`GEMV_COLS`] columns
/// so each pass streams short contiguous runs of the `B` rows. Also the
/// AVX2 kernel's column tail.
fn gemv_scalar_from(a: &[f64], b: &[f64], out: &mut [f64], j0: usize) {
    let n = out.len();
    for jc in (j0..n).step_by(GEMV_COLS) {
        let w = (n - jc).min(GEMV_COLS);
        gemv_scalar_cols(a, |p| &b[p * n + jc..p * n + jc + w], &mut out[jc..jc + w]);
    }
}

/// Scalar GEMV over packed `b` (`a` is one row): each panel's columns
/// in blocks of [`GEMV_COLS`], every row read where the panel holds it,
/// so a single row over resident panels unpacks nothing.
fn gemv_panels_scalar(a: &[f64], b: &Panels, out: &mut [f64]) {
    let k = b.k;
    for (j0, width) in panel_spans(b.n, 0, GEMM_NR) {
        let panel = &b.data[j0 * k..(j0 + width) * k];
        let cols = width.min(b.n - j0);
        for c0 in (0..cols).step_by(GEMV_COLS) {
            let w = (cols - c0).min(GEMV_COLS);
            let at = |p| packed_row(p, k) * width + c0;
            let out = &mut out[j0 + c0..j0 + c0 + w];
            gemv_scalar_cols(a, |p| &panel[at(p)..at(p) + w], out);
        }
    }
}

/// The scalar GEMV body, shared by row-major `B` and packed panels: the
/// [`dot_scalar`] schedule for `out.len()` (at most [`GEMV_COLS`])
/// adjacent columns, whose values in row `p` of `B` `row(p)` returns.
/// Lane `p % 16` of each column fuses `a[p]·B[p][j]`, then `dot`'s fold
/// and its in-order fused tail.
fn gemv_scalar_cols<'b>(a: &[f64], row: impl Fn(usize) -> &'b [f64], out: &mut [f64]) {
    let body = a.len() - a.len() % DOT_LANES;
    let mut s = [[0.0f64; GEMV_COLS]; DOT_LANES];
    for (p, &ap) in a[..body].iter().enumerate() {
        for (acc, &bv) in s[p % DOT_LANES].iter_mut().zip(row(p)) {
            *acc = ap.mul_add(bv, *acc);
        }
    }
    for (c, o) in out.iter_mut().enumerate() {
        let mut wl = [0.0f64; 4];
        for (l, v) in wl.iter_mut().enumerate() {
            *v = (s[l][c] + s[l + 4][c]) + (s[l + 8][c] + s[l + 12][c]);
        }
        let mut acc = (wl[0] + wl[2]) + (wl[1] + wl[3]);
        for (p, &ap) in a.iter().enumerate().skip(body) {
            acc = ap.mul_add(row(p)[c], acc);
        }
        *o = acc;
    }
}

/// Scalar [`gemv`] kernel with [`f64::mul_add`]: bit-identical to the
/// AVX2 path on every input. Public so equivalence suites can pin the
/// dispatched kernel against it regardless of which path dispatch
/// selected.
///
/// # Panics
///
/// Panics if `b.len() != a.len() * out.len()`.
pub fn gemv_scalar(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(
        Some(b.len()),
        a.len().checked_mul(out.len()),
        "gemv operand is not k × n"
    );
    gemv_scalar_from(a, b, out, 0);
}

/// Output rows of one [`gemm`] microkernel tile.
pub const GEMM_MR: usize = 6;

/// Values of `k` per k-block of the AVX2 [`gemm`] microkernel (a
/// multiple of [`DOT_LANES`]). Blocking never changes a value: each lane
/// chain resumes from its stored partial.
pub const GEMM_KC: usize = 256;

/// Columns of a full [`Panels`] panel: two 4-lane vectors, so an
/// [`GEMM_MR`] × `GEMM_NR` tile holds twelve accumulators.
pub const GEMM_NR: usize = 8;

/// Bytes of `a` and `out` per row block of the AVX2 [`gemm`] kernel:
/// every group of column panels passes over one block's rows before the
/// next block starts, so the block's rows of `a` stay in L2 across all of
/// `B` instead of streaming from L3 once per group. The output rows
/// count because their stores share L2 with `a`: timed at
/// `llm_prefill`'s products (one thread, 2-vCPU Xeon VM), a budget on `a`
/// alone that suited `k = 1024` left the 256×256×1024 product 1.2–1.4×
/// slower than blocks of 48 rows; budgets of 512 to 768 KiB on both read
/// the same, and 384 KiB ran 1–15 % slower.
pub const GEMM_BLOCK_BYTES: usize = 512 << 10;

/// Rows per row block of the AVX2 [`gemm`] kernel over `k × n` panels:
/// the whole [`GEMM_MR`]-row tiles whose rows of `a` (`k` values each)
/// and of `out` (`n` each) fit [`GEMM_BLOCK_BYTES`], at least one tile.
/// Blocking never changes a value, only which rows share a pass over
/// `B`.
pub fn gemm_block_rows(k: usize, n: usize) -> usize {
    let row_bytes = (k + n).max(1) * std::mem::size_of::<f64>();
    GEMM_MR * (GEMM_BLOCK_BYTES / (row_bytes * GEMM_MR)).max(1)
}

/// `(j0, width)` of every column panel over `n` columns from panel
/// start `from` on: `nr` wide while more than half a panel remains, then
/// one panel half as wide. The last panel may reach past `n`; its extra
/// columns are zero. Shared with the int8 panels of [`crate::gemm_i8`].
pub(crate) fn panel_spans(
    n: usize,
    from: usize,
    nr: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let width = move |j0: usize| if n - j0 > nr / 2 { nr } else { nr / 2 };
    std::iter::successors((from < n).then(|| (from, width(from))), move |&(j0, w)| {
        let next = j0 + w;
        (next < n).then(|| (next, width(next)))
    })
}

/// `B` (`k × n`, row-major) packed for [`gemm`]: column panels of
/// [`GEMM_NR`] (the last one 4 or 8 wide, zero-padded), each holding its
/// `k` rows lane-major. Row `p < body = k - k % 16` of the panel sits at
/// position `(p % 16) · (body / 16) + p / 16`, so lane `l` of the
/// [`dot`] schedule reads one contiguous run; the `k % 16` tail rows
/// follow in order. The pack is as large as the `Bᵀ` it replaces, plus
/// at most three padding columns. Equality compares the values, so two
/// packs are equal exactly when the matrices they hold are.
#[derive(Debug, Clone, PartialEq)]
pub struct Panels {
    data: Vec<f64>,
    k: usize,
    n: usize,
}

impl Panels {
    /// Packs row-major `b` (`k × n`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f64], k: usize, n: usize) -> Panels {
        assert_eq!(Some(b.len()), k.checked_mul(n), "gemm operand is not k × n");
        let mut panels = Panels::zeroed(k, n);
        for (p, brow) in b.chunks_exact(n.max(1)).enumerate() {
            panels.set_row(p, brow);
        }
        panels
    }

    /// Packs a `k × n` operand whose rows `fill_row` writes, row 0
    /// first, into one reused row buffer: how a weight is drawn straight
    /// into its resident layout, without a row-major copy of it. Each
    /// value is stored once, into storage that is never zeroed first.
    ///
    /// # Panics
    ///
    /// Panics if `k · n` overflows.
    pub fn from_rows(k: usize, n: usize, mut fill_row: impl FnMut(&mut [f64])) -> Panels {
        let len = packed_len(k, n);
        let mut data = Vec::with_capacity(len);
        let slots = &mut data.spare_capacity_mut()[..len];
        let mut row = vec![0.0; n];
        for p in 0..k {
            fill_row(&mut row);
            for (cols, at) in row_runs(k, n, p) {
                for (slot, &v) in slots[at].iter_mut().zip(&row[cols]) {
                    slot.write(v);
                }
            }
        }
        // A half-width or padded last panel: its columns past `n`.
        if let Some((j0, width)) = panel_spans(n, 0, GEMM_NR).last() {
            for panel_row in slots[j0 * k..].chunks_exact_mut(width) {
                for slot in &mut panel_row[n - j0..] {
                    slot.write(0.0);
                }
            }
        }
        // SAFETY: every slot below `len` was written: row `p` of every
        // panel at `packed_row(p, k)`, a bijection on `0..k`, in its real
        // columns by the loop over `row_runs`, and in the last panel's
        // padding columns just above.
        unsafe { data.set_len(len) };
        Panels { data, k, n }
    }

    /// The row-major `k × n` values the panels hold.
    pub fn unpack(&self) -> Vec<f64> {
        self.unpack_rows(0..self.k)
    }

    /// Rows `rows` of the packed `B`, row-major (`rows.len() × n`).
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past `k`.
    pub fn unpack_rows(&self, rows: Range<usize>) -> Vec<f64> {
        assert!(rows.end <= self.k, "rows past the packed operand");
        let (k, n) = (self.k, self.n);
        let mut b = vec![0.0; rows.len() * n];
        for (p, brow) in rows.zip(b.chunks_exact_mut(n.max(1))) {
            for (cols, at) in row_runs(k, n, p) {
                copy_run(&mut brow[cols], &self.data[at]);
            }
        }
        b
    }

    /// The largest magnitude of the packed values, as
    /// [`Matrix::abs_max`](crate::Matrix::abs_max) of the unpacked matrix
    /// (NaNs ignored; the zero padding never exceeds it).
    pub fn abs_max(&self) -> f64 {
        crate::matrix::abs_max::<16>(&self.data)
    }

    /// Rows of the packed `B` (the inner dimension of a product).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of the packed `B`, padding excluded.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All-zero panels for a `k × n` operand.
    fn zeroed(k: usize, n: usize) -> Panels {
        Panels {
            data: vec![0.0; packed_len(k, n)],
            k,
            n,
        }
    }

    /// Writes row `p` of `B` (`n` values) into its panel rows.
    fn set_row(&mut self, p: usize, brow: &[f64]) {
        for (cols, at) in row_runs(self.k, self.n, p) {
            copy_run(&mut self.data[at], &brow[cols]);
        }
    }
}

/// Values a pack of a `k × n` operand stores, padding included.
///
/// # Panics
///
/// Panics if the count overflows `usize`.
fn packed_len(k: usize, n: usize) -> usize {
    let Some(len) = k.checked_mul(padded_cols(n, GEMM_NR)) else {
        panic!("gemm operand is not k × n");
    };
    len
}

/// Where row `p` of a packed `k × n` operand lies: per panel, its
/// columns `cols` sit at `data[at]`.
fn row_runs(k: usize, n: usize, p: usize) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    let row = packed_row(p, k);
    panel_spans(n, 0, GEMM_NR).map(move |(j0, width)| {
        let (cols, at) = (width.min(n - j0), j0 * k + row * width);
        (j0..j0 + cols, at..at + cols)
    })
}

/// `dst.copy_from_slice(src)`, with a full panel row copied as one
/// fixed-size block rather than through a `memcpy` call.
#[inline]
fn copy_run(dst: &mut [f64], src: &[f64]) {
    match (
        <&mut [f64; GEMM_NR]>::try_from(&mut *dst),
        <&[f64; GEMM_NR]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// The panel row holding row `p` of `B` (`k` rows): lane-major below
/// `body = k - k % 16`, in order after it.
fn packed_row(p: usize, k: usize) -> usize {
    let body = k - k % DOT_LANES;
    if p < body {
        (p % DOT_LANES) * (body / DOT_LANES) + p / DOT_LANES
    } else {
        p
    }
}

/// Columns a pack of `nr`-wide [`panel_spans`] stores for `n` output
/// columns, padding included.
pub(crate) fn padded_cols(n: usize, nr: usize) -> usize {
    match n % nr {
        0 => n,
        rem if rem <= nr / 2 => n - rem + nr / 2,
        rem => n - rem + nr,
    }
}

/// Checks the operands of [`gemm`] and returns the row count: `out`
/// holds whole rows of `b.n` outputs, `a` as many rows of `b.k` values,
/// and the panels their packed length. `None` when there are no columns
/// to compute. The AVX2 kernel's pointer arithmetic relies on exactly
/// these bounds.
fn check_gemm(a: &[f64], b: &Panels, out: &[f64]) -> Option<usize> {
    assert_eq!(
        b.data.len(),
        padded_cols(b.n, GEMM_NR) * b.k,
        "gemm panels are not packed for k × n"
    );
    if b.n == 0 {
        assert!(out.is_empty(), "gemm output is not rows × n");
        return None;
    }
    let rows = out.len() / b.n;
    assert_eq!(out.len(), rows * b.n, "gemm output is not rows × n");
    assert_eq!(
        Some(a.len()),
        rows.checked_mul(b.k),
        "gemm operand is not rows × k"
    );
    Some(rows)
}

/// Scalar [`gemm`] kernel: unpacks each panel's columns back into `Bᵀ`
/// rows and computes every output as [`dot_scalar`] over `a`'s row and
/// that column — the schedule the AVX2 kernel reproduces bit for bit.
/// Public so equivalence suites can pin the dispatched kernel against it
/// regardless of which path dispatch selected.
///
/// # Panics
///
/// Panics on the operand shapes [`gemm`] rejects.
pub fn gemm_scalar(a: &[f64], b: &Panels, out: &mut [f64]) {
    let Some(rows) = check_gemm(a, b, out) else {
        return;
    };
    let (k, n) = (b.k, b.n);
    let mut bt = vec![0.0f64; GEMM_NR * k];
    for (j0, width) in panel_spans(n, 0, GEMM_NR) {
        let cols = width.min(n - j0);
        let panel = &b.data[j0 * k..(j0 + width) * k];
        for p in 0..k {
            let row = &panel[packed_row(p, k) * width..][..cols];
            for (c, &v) in row.iter().enumerate() {
                bt[c * k + p] = v;
            }
        }
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            for c in 0..cols {
                out[i * n + j0 + c] = dot_scalar(arow, &bt[c * k..(c + 1) * k]);
            }
        }
    }
}

/// Scalar `o[j] += x · b[j]` loop. Each output element is its own
/// accumulator, so the vector path is bitwise-equal by construction.
/// Public as the equivalence-suite reference for [`axpy`].
#[inline]
pub fn axpy_scalar(out: &mut [f64], x: f64, b: &[f64]) {
    for (o, &v) in out.iter_mut().zip(b) {
        *o += x * v;
    }
}

/// Checks the operands of [`attend`]: `t = scores.len()` cached rows of
/// `stride` values in `keys` and in `values`, a head slice
/// `lo..lo + q.len()` inside each row, and one output per head column.
/// The AVX2 kernel's pointer arithmetic relies on exactly these bounds.
fn check_attend(
    q: &[f64],
    keys: &[f64],
    values: &[f64],
    stride: usize,
    lo: usize,
    scores: &[f64],
    out: &[f64],
) {
    assert!(stride > 0, "attend row stride is zero");
    assert_eq!(keys.len(), values.len(), "attend K and V caches differ");
    assert_eq!(keys.len() % stride, 0, "attend cache is not t × stride");
    assert_eq!(
        scores.len(),
        keys.len() / stride,
        "attend needs one score per cached row"
    );
    assert!(
        lo.checked_add(q.len()).is_some_and(|hi| hi <= stride),
        "attend head slice overruns the row"
    );
    assert_eq!(out.len(), q.len(), "attend output is not one head wide");
}

/// Scalar [`attend`] kernel: [`dot_scalar`] per cached row,
/// [`crate::ops::softmax_in_place`], then [`axpy_scalar`] per cached
/// row, ascending — the composition the AVX2 kernel reproduces bit for
/// bit. Public so equivalence suites can pin the dispatched kernel
/// against it regardless of which path dispatch selected.
///
/// # Panics
///
/// Panics on the operand shapes [`attend`] rejects.
pub fn attend_scalar(
    q: &[f64],
    keys: &[f64],
    values: &[f64],
    stride: usize,
    lo: usize,
    scores: &mut [f64],
    out: &mut [f64],
) {
    check_attend(q, keys, values, stride, lo, scores, out);
    let (hi, scale) = (lo + q.len(), attention_scale(q.len()));
    for (s, krow) in scores.iter_mut().zip(keys.chunks_exact(stride)) {
        *s = dot_scalar(q, &krow[lo..hi]) * scale;
    }
    crate::ops::softmax_in_place(scores);
    for (&w, vrow) in scores.iter().zip(values.chunks_exact(stride)) {
        axpy_scalar(out, w, &vrow[lo..hi]);
    }
}

/// The score scale `1/√d_h` of scaled dot-product attention.
fn attention_scale(dh: usize) -> f64 {
    1.0 / (dh as f64).sqrt()
}

/// Query rows per register block of the AVX2 [`context`] kernel. A
/// block holds its rows' outputs for eight columns in twelve registers,
/// enough independent adds to hide their latency, and reads each row of
/// `V` once for all of them. Timed at `llm_prefill`'s heads (one thread,
/// 2-vCPU Xeon VM), six rows ran the context ~1.2× faster than four, and
/// the blocks of twelve or sixteen columns tried (two to four rows) were
/// no faster.
const CONTEXT_ROWS: usize = 6;

/// Checks the operands of [`context`] and returns `(t, rows)`: `values`
/// holds `t` rows and `out` `rows` rows of a nonzero `stride`, `cols`
/// lies inside a row, and `w` holds `rows × t` weights. The AVX2
/// kernel's pointer arithmetic relies on exactly these bounds.
fn check_context(
    w: &[f64],
    values: &[f64],
    stride: usize,
    cols: &Range<usize>,
    out: &[f64],
) -> (usize, usize) {
    assert!(stride > 0, "context row stride is zero");
    assert_eq!(values.len() % stride, 0, "context V is not t × stride");
    assert_eq!(out.len() % stride, 0, "context output is not rows × stride");
    assert!(
        cols.start <= cols.end && cols.end <= stride,
        "context columns overrun the row"
    );
    let (t, rows) = (values.len() / stride, out.len() / stride);
    assert_eq!(
        Some(w.len()),
        rows.checked_mul(t),
        "context needs one weight per query and key row"
    );
    (t, rows)
}

/// Scalar [`context`] kernel: the textbook loop, one output at a time,
/// `out[i·stride + c] += w[i·t + j] · values[j·stride + c]` for `j`
/// ascending. Public so equivalence suites can pin the dispatched kernel
/// against it regardless of which path dispatch selected.
///
/// # Panics
///
/// Panics on the operand shapes [`context`] rejects.
pub fn context_scalar(
    w: &[f64],
    values: &[f64],
    stride: usize,
    cols: Range<usize>,
    out: &mut [f64],
) {
    let (t, _) = check_context(w, values, stride, &cols, out);
    if t == 0 {
        return;
    }
    for (wrow, orow) in w.chunks_exact(t).zip(out.chunks_exact_mut(stride)) {
        for c in cols.clone() {
            for (j, &wj) in wrow.iter().enumerate() {
                orow[c] += wj * values[j * stride + c];
            }
        }
    }
}

/// The context product of one attention head for a block of query rows:
/// `values` holds `t` key rows and `out` `rows` query rows, both
/// `stride` values apart, with the head in columns `cols` of each; `w`
/// holds each query row's `t` weights, row-major. For every query row
/// `i` and column `c` in `cols`,
///
/// * `out[i·stride + c] += w[i·t + j] · values[j·stride + c]` for every
///   `j`, ascending, each product rounded before its add;
///
/// zero weights included, so a `±∞` or NaN in `V` reaches the output
/// whatever its weight. From an `out` of `+0.0` this is
/// [`crate::ops::matmul_seq`]'s order, and every output bit equals it.
/// Dispatches to AVX2 when available; otherwise runs [`context_scalar`].
///
/// # Panics
///
/// Panics unless `values.len()` and `out.len()` are multiples of a
/// nonzero `stride`, `cols.end <= stride`, and `w.len()` is the product
/// of their row counts.
#[inline]
pub fn context(w: &[f64], values: &[f64], stride: usize, cols: Range<usize>, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        let (t, rows) = check_context(w, values, stride, &cols, out);
        // SAFETY: AVX2 availability was just checked, and so were the
        // operand shapes every pointer offset in the kernel relies on.
        unsafe { x86::context_avx2(w, values, stride, cols, out, t, rows) };
        return;
    }
    context_scalar(w, values, stride, cols, out);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128d, __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
        _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd,
        _mm256_set_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
        _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };
    use core::mem::MaybeUninit;
    use std::ops::Range;

    /// AVX2+FMA dot product: the 16-lane body of [`dot_lanes`], reduced
    /// in the fixed order documented at module level, then the in-order
    /// fused tail. Bit-identical to the scalar kernel, which replays the
    /// same schedule with `f64::mul_add`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut k = n - n % super::DOT_LANES;
        // w[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12]) per lane.
        let w = dot_lanes(ap, bp, k);
        // (w0 + w2, w1 + w3): low 128 bits + high 128 bits.
        let lo: __m128d = _mm256_castpd256_pd128(w);
        let hi: __m128d = _mm256_extractf128_pd::<1>(w);
        let pair = _mm_add_pd(lo, hi);
        // (w0 + w2) + (w1 + w3).
        let one = _mm_add_sd(pair, _mm_unpackhi_pd(pair, pair));
        let mut acc = _mm_cvtsd_f64(one);
        while k < n {
            acc = (*ap.add(k)).mul_add(*bp.add(k), acc);
            k += 1;
        }
        acc
    }

    /// AVX2+FMA GEMV over row-major `b` (`a.len() × out.len()`): blocks
    /// of eight, then four, adjacent columns through [`gemv_block`],
    /// where one `__m256d` holds lane `l` of the [`dot_avx2`] schedule for
    /// four columns. The last `n % 4` columns run the scalar kernel,
    /// which replays the same schedule.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available and
    /// `b.len() == a.len() * out.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemv_avx2(a: &[f64], b: &[f64], out: &mut [f64]) {
        let n = out.len();
        let (bp, op) = (b.as_ptr(), out.as_mut_ptr());
        // Row p = l + 16·s lies p·n values past the block's first column.
        let rows = Rows {
            lane: n,
            step: super::DOT_LANES * n,
            tail: n,
        };
        let mut j = 0usize;
        while j + 8 <= n {
            store_cols(&gemv_block::<2>(a, bp.add(j), rows), op.add(j), 8);
            j += 8;
        }
        if j + 4 <= n {
            store_cols(&gemv_block::<1>(a, bp.add(j), rows), op.add(j), 4);
            j += 4;
        }
        super::gemv_scalar_from(a, b, out, j);
    }

    /// AVX2+FMA GEMV over packed `b`: each column panel through
    /// [`gemv_block`], whose lanes then read the panel's contiguous lane
    /// runs. A half-width panel runs one vector wide, and a padded panel
    /// stores only its real columns, so no column takes a scalar tail.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available and that the
    /// operands pass [`super::check_gemm`] with one row.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemv_panels_avx2(a: &[f64], b: &super::Panels, out: &mut [f64]) {
        use super::{DOT_LANES, GEMM_NR};
        let (k, n) = (b.k, b.n);
        for (j0, width) in super::panel_spans(n, 0, GEMM_NR) {
            // Panel row l·(k / 16) + s holds row p = l + 16·s; the tail
            // rows p ≥ k - k % 16 sit at panel row p.
            let rows = Rows {
                lane: k / DOT_LANES * width,
                step: width,
                tail: width,
            };
            let cols = width.min(n - j0);
            // SAFETY: the checked panel length covers columns j0..j0 +
            // width of all k packed rows, and columns j0..j0 + cols lie
            // inside the one-row `out`.
            let (panel, dst) = (b.data.as_ptr().add(j0 * k), out.as_mut_ptr().add(j0));
            if width == GEMM_NR {
                store_cols(&gemv_block::<2>(a, panel, rows), dst, cols);
            } else {
                store_cols(&gemv_block::<1>(a, panel, rows), dst, cols);
            }
        }
    }

    /// Where the rows of `B` lie for [`gemv_block`], in elements from the
    /// block's first column: body row `p = l + 16·s` (lane `l`, step `s`)
    /// at `l·lane + s·step`, tail row `p ≥ k - k % 16` at `p·tail`.
    #[derive(Clone, Copy)]
    struct Rows {
        lane: usize,
        step: usize,
        tail: usize,
    }

    /// The `4·V` columns of `a · B` from `b`, every output in the
    /// [`dot_avx2`] schedule, for row-major `B` and for packed panels
    /// alike (`rows` says where each row of `B` lies). The lanes run in
    /// four groups, `{g, g+4, g+8, g+12}` for `g` in `0..4`: each group
    /// advances four accumulators per vector by one `vfmadd231pd` per row
    /// of `B`, each lane reading its rows in ascending order, and folds at
    /// once into `w[g] = (s[g] + s[g+4]) + (s[g+8] + s[g+12])`, so at
    /// `V = 2` every accumulator stays in a register. Then `(w0 + w2) +
    /// (w1 + w3)` and the in-order fused tail.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available and that `rows`
    /// puts `4·V` readable elements of every row of `B` (`a.len()` rows)
    /// at its offset from `b`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemv_block<const V: usize>(a: &[f64], b: *const f64, rows: Rows) -> [__m256d; V] {
        use super::DOT_LANES;
        let k = a.len();
        let body = k - k % DOT_LANES;
        let ap = a.as_ptr();
        let mut w = [[_mm256_setzero_pd(); V]; 4];
        for (g, wg) in w.iter_mut().enumerate() {
            // Wrapping: without a 16-lane body these rows need not exist,
            // and the loop below reads none of them.
            let lanes: [*const f64; 4] =
                core::array::from_fn(|q| b.wrapping_add((g + 4 * q) * rows.lane));
            let mut s = [[_mm256_setzero_pd(); V]; 4];
            let (mut p, mut at) = (g, 0usize);
            while p < body {
                for (q, sq) in s.iter_mut().enumerate() {
                    let x = _mm256_set1_pd(*ap.add(p + 4 * q));
                    let brow = lanes[q].add(at);
                    for (v, acc) in sq.iter_mut().enumerate() {
                        *acc = _mm256_fmadd_pd(x, _mm256_loadu_pd(brow.add(4 * v)), *acc);
                    }
                }
                p += DOT_LANES;
                at += rows.step;
            }
            for (v, wv) in wg.iter_mut().enumerate() {
                *wv = _mm256_add_pd(
                    _mm256_add_pd(s[0][v], s[1][v]),
                    _mm256_add_pd(s[2][v], s[3][v]),
                );
            }
        }
        // (w0 + w2) + (w1 + w3), then the in-order fused tail.
        let mut acc = [_mm256_setzero_pd(); V];
        for (v, av) in acc.iter_mut().enumerate() {
            *av = _mm256_add_pd(
                _mm256_add_pd(w[0][v], w[2][v]),
                _mm256_add_pd(w[1][v], w[3][v]),
            );
        }
        for p in body..k {
            let x = _mm256_set1_pd(*ap.add(p));
            let brow = b.add(p * rows.tail);
            for (v, av) in acc.iter_mut().enumerate() {
                *av = _mm256_fmadd_pd(x, _mm256_loadu_pd(brow.add(4 * v)), *av);
            }
        }
        acc
    }

    /// One [`GEMM_MR`](super::GEMM_MR) × `4·V` tile of accumulators.
    type Tile<const V: usize> = [[__m256d; V]; super::GEMM_MR];

    /// Packed bytes of the panels one pass of row tiles runs against: a
    /// pass keeps each tile's rows of `a` in L1 across all its panels, so
    /// a skinny `B` is read against each row of `a` once.
    const GEMM_GROUP_BYTES: usize = 16 << 10;

    /// AVX2+FMA [`super::gemm`]: rows in blocks of whole
    /// [`GEMM_MR`](super::GEMM_MR)-row tiles
    /// ([`gemm_block_rows`](super::gemm_block_rows)); per block, column
    /// panels in groups of at most [`GEMM_GROUP_BYTES`] packed bytes; for
    /// each group, the block's tiles run through [`gemm_tile`] against
    /// every panel of the group, the group staying hot in L1 while the
    /// block's rows stream past it from L2. A last tile with fewer rows
    /// repeats its last row and stores only its own rows; a padded panel
    /// stores only the real columns.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available and that the
    /// operands pass [`super::check_gemm`] with `b.n > 0`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_avx2(a: &[f64], b: &super::Panels, out: &mut [f64]) {
        use super::{GEMM_MR, GEMM_NR};
        let (k, n) = (b.k, b.n);
        let rows = out.len() / n;
        // Whole full panels per group, so every group starts a panel, and
        // whole tiles per block, so only the last tile is short.
        let group = GEMM_NR * (GEMM_GROUP_BYTES / (k * GEMM_NR * 8).max(1)).max(1);
        let block = super::gemm_block_rows(k, n);
        for r0 in (0..rows).step_by(block) {
            let r1 = rows.min(r0 + block);
            for g0 in (0..n).step_by(group) {
                for i in (r0..r1).step_by(GEMM_MR) {
                    let r = (r1 - i).min(GEMM_MR);
                    let arows: [*const f64; GEMM_MR] =
                        core::array::from_fn(|t| a[(i + t.min(r - 1)) * k..].as_ptr());
                    let spans =
                        super::panel_spans(n, g0, GEMM_NR).take_while(|&(j0, _)| j0 < g0 + group);
                    for (j0, width) in spans {
                        let cols = width.min(n - j0);
                        // SAFETY: the checked panel length covers columns
                        // j0..j0 + width of all k packed rows, and row i <
                        // rows, column j0 < n lie inside `out`.
                        let (panel, dst) = (
                            b.data.as_ptr().add(j0 * k),
                            out.as_mut_ptr().add(i * n + j0),
                        );
                        // SAFETY: each of `arows` starts a k-long row of
                        // `a`, the panel is `width` wide, and the tile
                        // stores r rows and cols columns of `out`, all
                        // inside the checked operands.
                        if width == GEMM_NR {
                            store_tile(&gemm_tile::<2>(&arows, panel, k), dst, n, r, cols);
                        } else {
                            store_tile(&gemm_tile::<1>(&arows, panel, k), dst, n, r, cols);
                        }
                    }
                }
            }
        }
    }

    /// The outputs of `a` rows against one `4·V`-wide packed panel, each
    /// in the [`dot_avx2`] schedule. Lane `l` runs as one chain over its
    /// contiguous run of panel rows, in k-blocks of
    /// [`GEMM_KC`](super::GEMM_KC) values: every lane's chain over one
    /// block, then every lane's over the next, each resuming from its
    /// stored partial, so the block's slices of `a` and the panel stay in
    /// L1 across all sixteen lanes. A lane's partial is stored only by its
    /// chain: the first k-block's chain starts from `+0` in registers and
    /// writes it, so the partials are never zero-filled. The lanes then
    /// fold in straight-line adds, per accumulator, into
    /// `w[g] = (s[g] + s[g+4]) + (s[g+8] + s[g+12])`, then
    /// `(w0 + w2) + (w1 + w3)`, and the in-order fused tail follows. With
    /// no 16-lane body the fold of zero lanes is `+0`, the starting value,
    /// so it is skipped.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available, each of `a` points
    /// to `k` elements and `panel` to `k · 4·V` packed elements.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_tile<const V: usize>(
        a: &[*const f64; super::GEMM_MR],
        panel: *const f64,
        k: usize,
    ) -> Tile<V> {
        use super::{DOT_LANES, GEMM_KC};
        let body = k - k % DOT_LANES;
        let steps = body / DOT_LANES;
        let mut acc = [[_mm256_setzero_pd(); V]; super::GEMM_MR];
        if steps > 0 {
            let mut s = [MaybeUninit::<Tile<V>>::uninit(); DOT_LANES];
            let mut s0 = 0usize;
            while s0 < steps {
                let s1 = steps.min(s0 + GEMM_KC / DOT_LANES);
                for (l, sl) in s.iter_mut().enumerate() {
                    // SAFETY: past the first k-block, whose chains wrote
                    // every lane, each lane holds its partial.
                    let start = if s0 == 0 { acc } else { sl.assume_init_read() };
                    let (rows, p0) = (panel.add((l * steps + s0) * 4 * V), l + s0 * DOT_LANES);
                    sl.write(fma_rows(a, rows, p0, DOT_LANES, s1 - s0, start));
                }
                s0 = s1;
            }
            // SAFETY: the first k-block wrote every lane, and a
            // `MaybeUninit<T>` has the layout of `T`.
            let s = &*s.as_ptr().cast::<[Tile<V>; DOT_LANES]>();
            for (i, acc_i) in acc.iter_mut().enumerate() {
                for (v, av) in acc_i.iter_mut().enumerate() {
                    let mut w = [_mm256_setzero_pd(); 4];
                    for (g, wg) in w.iter_mut().enumerate() {
                        *wg = _mm256_add_pd(
                            _mm256_add_pd(s[g][i][v], s[g + 4][i][v]),
                            _mm256_add_pd(s[g + 8][i][v], s[g + 12][i][v]),
                        );
                    }
                    *av = _mm256_add_pd(_mm256_add_pd(w[0], w[2]), _mm256_add_pd(w[1], w[3]));
                }
            }
        }
        fma_rows(a, panel.add(body * 4 * V), body, 1, k - body, acc)
    }

    /// `count` fused steps over consecutive `4·V`-wide panel rows from
    /// `rows`, resuming from `start`: step `t` takes `s = fma(a[p],
    /// row_t, s)` with `p = p0 + t·stride` — one lane chain (stride 16)
    /// or the in-order tail (stride 1).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available, `rows` points to
    /// `count · 4·V` elements, and each of `a` to more than
    /// `p0 + (count - 1)·stride` elements when `count > 0`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn fma_rows<const V: usize>(
        a: &[*const f64; super::GEMM_MR],
        rows: *const f64,
        p0: usize,
        stride: usize,
        count: usize,
        start: Tile<V>,
    ) -> Tile<V> {
        let mut s = start;
        for t in 0..count {
            let brow = rows.add(t * 4 * V);
            let bv: [__m256d; V] = core::array::from_fn(|v| _mm256_loadu_pd(brow.add(4 * v)));
            let p = p0 + t * stride;
            for (ai, si) in a.iter().zip(s.iter_mut()) {
                let x = _mm256_set1_pd(*ai.add(p));
                for (sv, &bvv) in si.iter_mut().zip(&bv) {
                    *sv = _mm256_fmadd_pd(x, bvv, *sv);
                }
            }
        }
        s
    }

    /// Stores the first `rows` rows and `cols` columns of `acc` to `dst`,
    /// whose rows are `n` apart.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and that `dst + i·n` points to
    /// `cols` writable elements for every `i < rows`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_tile<const V: usize>(
        acc: &Tile<V>,
        dst: *mut f64,
        n: usize,
        rows: usize,
        cols: usize,
    ) {
        for (i, acc_i) in acc.iter().enumerate().take(rows) {
            store_cols(acc_i, dst.add(i * n), cols);
        }
    }

    /// Stores the first `cols` of the `4·V` columns of `acc` to `dst`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `cols <= 4·V` and that
    /// `dst` points to `cols` writable elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_cols<const V: usize>(acc: &[__m256d; V], dst: *mut f64, cols: usize) {
        if cols == 4 * V {
            for (v, &x) in acc.iter().enumerate() {
                _mm256_storeu_pd(dst.add(4 * v), x);
            }
        } else {
            let mut tmp = [0.0f64; super::GEMM_NR];
            for (v, &x) in acc.iter().enumerate() {
                _mm256_storeu_pd(tmp.as_mut_ptr().add(4 * v), x);
            }
            core::ptr::copy_nonoverlapping(tmp.as_ptr(), dst, cols);
        }
    }

    /// AVX2 `o[j] += x · b[j]`: broadcast `x`, then vector multiply and
    /// add per 4-lane group (deliberately *not* fused — the scalar loop
    /// this must match bitwise computes `o + x*v` with a rounded
    /// product). Element accumulators are independent, so ordering is
    /// untouched.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(out: &mut [f64], x: f64, b: &[f64]) {
        let n = out.len().min(b.len());
        let op = out.as_mut_ptr();
        let bp = b.as_ptr();
        let xv = _mm256_set1_pd(x);
        let mut j = 0usize;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(op.add(j));
            let v = _mm256_loadu_pd(bp.add(j));
            _mm256_storeu_pd(op.add(j), _mm256_add_pd(o, _mm256_mul_pd(xv, v)));
            j += 4;
        }
        while j < n {
            *op.add(j) += x * *bp.add(j);
            j += 1;
        }
    }

    /// AVX2+FMA [`super::attend`]. Scores run four cached rows at a time:
    /// each row's head slice advances four accumulators through the 16-lane
    /// body of [`dot_avx2`] and folds them to `w = (acc0 + acc1) + (acc2 +
    /// acc3)`; one 4×4 transpose then turns the four rows' `w` into lane
    /// columns `c0..c3`, so `(c0 + c2) + (c1 + c3)` is every row's
    /// horizontal fold at once, and the in-order fused tail runs on all
    /// four rows in one vector. Leftover rows call [`dot_avx2`]. The
    /// context keeps up to sixteen output columns in registers across all
    /// cached rows with [`axpy_avx2`]'s unfused `o + w·v`, rows ascending;
    /// the last `q.len() % 4` columns do the same in scalar code.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available and that the
    /// operands pass [`super::check_attend`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn attend_avx2(
        q: &[f64],
        keys: &[f64],
        values: &[f64],
        stride: usize,
        lo: usize,
        scores: &mut [f64],
        out: &mut [f64],
    ) {
        use super::DOT_LANES;
        let (dh, t) = (q.len(), scores.len());
        let body = dh - dh % DOT_LANES;
        let scale = super::attention_scale(dh);
        let (qp, kp) = (q.as_ptr(), keys.as_ptr());
        let mut j = 0usize;
        while j + 4 <= t {
            let mut rows = [kp; 4];
            let mut w = [_mm256_setzero_pd(); 4];
            for (r, (row, wr)) in rows.iter_mut().zip(&mut w).enumerate() {
                // SAFETY: row j + r is below t, and the checked operands
                // put its head slice lo..lo + dh inside `keys`.
                *row = kp.add((j + r) * stride + lo);
                *wr = dot_lanes(qp, *row, body);
            }
            let (t0, t1) = (
                _mm256_unpacklo_pd(w[0], w[1]),
                _mm256_unpackhi_pd(w[0], w[1]),
            );
            let (t2, t3) = (
                _mm256_unpacklo_pd(w[2], w[3]),
                _mm256_unpackhi_pd(w[2], w[3]),
            );
            // Lane r of c_l is lane l of w[r].
            let c0 = _mm256_permute2f128_pd::<0x20>(t0, t2);
            let c1 = _mm256_permute2f128_pd::<0x20>(t1, t3);
            let c2 = _mm256_permute2f128_pd::<0x31>(t0, t2);
            let c3 = _mm256_permute2f128_pd::<0x31>(t1, t3);
            let mut acc = _mm256_add_pd(_mm256_add_pd(c0, c2), _mm256_add_pd(c1, c3));
            for k in body..dh {
                // SAFETY: k < dh, inside `q` and inside each head slice.
                let kv = _mm256_set_pd(
                    *rows[3].add(k),
                    *rows[2].add(k),
                    *rows[1].add(k),
                    *rows[0].add(k),
                );
                acc = _mm256_fmadd_pd(_mm256_set1_pd(*qp.add(k)), kv, acc);
            }
            // SAFETY: j + 4 <= t = scores.len().
            _mm256_storeu_pd(
                scores.as_mut_ptr().add(j),
                _mm256_mul_pd(acc, _mm256_set1_pd(scale)),
            );
            j += 4;
        }
        for (s, krow) in scores.iter_mut().zip(keys.chunks_exact(stride)).skip(j) {
            *s = dot_avx2(q, &krow[lo..lo + dh]) * scale;
        }
        crate::ops::softmax_in_place(scores);

        // SAFETY: the checked operands put columns lo..lo + dh of every
        // cached row inside `values`, and `out` is dh wide.
        context_rows::<1, 4>(
            scores.as_ptr(),
            t,
            values.as_ptr().add(lo),
            stride,
            dh,
            out.as_mut_ptr(),
            dh,
        );
    }

    /// AVX2 [`super::context`]: blocks of `CONTEXT_ROWS` query rows by
    /// eight columns through [`context_rows`], then the rows left over
    /// one at a time, sixteen columns wide.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and that the operands pass
    /// [`super::check_context`], which returned `(t, rows)`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn context_avx2(
        w: &[f64],
        values: &[f64],
        stride: usize,
        cols: Range<usize>,
        out: &mut [f64],
        t: usize,
        rows: usize,
    ) {
        use super::CONTEXT_ROWS;
        let (vp, dh) = (values.as_ptr().add(cols.start), cols.len());
        let (wp, op) = (w.as_ptr(), out.as_mut_ptr().add(cols.start));
        let body = rows - rows % CONTEXT_ROWS;
        // SAFETY (both loops): the checked operands put `t` weights per
        // query row in `w`, columns cols of t key rows in `values`, and
        // columns cols of `rows` query rows in `out`.
        for i in (0..body).step_by(CONTEXT_ROWS) {
            let (w, out) = (wp.add(i * t), op.add(i * stride));
            context_rows::<CONTEXT_ROWS, 2>(w, t, vp, stride, dh, out, stride);
        }
        for i in body..rows {
            context_rows::<1, 4>(wp.add(i * t), t, vp, stride, dh, op.add(i * stride), stride);
        }
    }

    /// The context of `R` query rows over `dh` columns: `out[r·ld + c] +=
    /// w[r·t + j] · v[j·stride + c]` for `j < t` ascending. Columns run
    /// in blocks of `4·V`, then of four, through [`context_block`]; the
    /// last `dh % 4` in scalar code with the same operations.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `w` points to `R` rows of
    /// `t` weights, `v + j·stride` to `dh` elements for every `j < t`,
    /// and `out + r·ld` to `dh` writable elements for every `r < R`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn context_rows<const R: usize, const V: usize>(
        w: *const f64,
        t: usize,
        v: *const f64,
        stride: usize,
        dh: usize,
        out: *mut f64,
        ld: usize,
    ) {
        let mut c = 0usize;
        while c + 4 * V <= dh {
            context_block::<R, V>(w, t, v.add(c), stride, out.add(c), ld);
            c += 4 * V;
        }
        while c + 4 <= dh {
            context_block::<R, 1>(w, t, v.add(c), stride, out.add(c), ld);
            c += 4;
        }
        for r in 0..R {
            for col in c..dh {
                let o = out.add(r * ld + col);
                for j in 0..t {
                    *o += *w.add(r * t + j) * *v.add(j * stride + col);
                }
            }
        }
    }

    /// The 16-lane body of [`dot_avx2`] over `body` (a multiple of 16)
    /// elements: four 4-lane accumulators advanced by one `vfmadd231pd`
    /// each per 16-element step, folded lane-wise to `(acc0 + acc1) +
    /// (acc2 + acc3)`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 and FMA are available and that `a` and `b`
    /// each point to at least `body` elements.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_lanes(a: *const f64, b: *const f64, body: usize) -> __m256d {
        let mut acc = [_mm256_setzero_pd(); 4];
        let mut k = 0usize;
        while k < body {
            for (v, av) in acc.iter_mut().enumerate() {
                let i = k + 4 * v;
                *av = _mm256_fmadd_pd(_mm256_loadu_pd(a.add(i)), _mm256_loadu_pd(b.add(i)), *av);
            }
            k += super::DOT_LANES;
        }
        _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]))
    }

    /// `out[r·ld + i] += w[r·t + j] · v[j·stride + i]` for `r < R`,
    /// `i < 4·V` and every `j < t` ascending: the `R·V` output vectors
    /// held in registers across all rows of `v`, each row loaded once for
    /// all `R` query rows, and each term added as [`axpy_avx2`] adds it:
    /// product rounded, then added.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `w` points to `R` rows of
    /// `t` weights, `out + r·ld` to `4·V` elements for every `r < R`,
    /// and `v + j·stride` to `4·V` elements for every `j < t`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn context_block<const R: usize, const V: usize>(
        w: *const f64,
        t: usize,
        v: *const f64,
        stride: usize,
        out: *mut f64,
        ld: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); V]; R];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            for (i, a) in acc_r.iter_mut().enumerate() {
                *a = _mm256_loadu_pd(out.add(r * ld + 4 * i));
            }
        }
        for j in 0..t {
            let row = v.add(j * stride);
            let mut vj = [_mm256_setzero_pd(); V];
            for (i, x) in vj.iter_mut().enumerate() {
                *x = _mm256_loadu_pd(row.add(4 * i));
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let x = _mm256_set1_pd(*w.add(r * t + j));
                for (a, &y) in acc_r.iter_mut().zip(&vj) {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(x, y));
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (i, a) in acc_r.iter().enumerate() {
                _mm256_storeu_pd(out.add(r * ld + 4 * i), *a);
            }
        }
    }

    /// The f64 kernels need both AVX2 (4-lane f64 vectors) and FMA
    /// (`vfmadd231pd`); detection is cached once per process together
    /// with the `PHOX_FORCE_SCALAR` override so a flipped environment
    /// variable mid-run cannot produce mixed-path results.
    pub fn simd_usable() -> bool {
        use std::sync::OnceLock;
        static USABLE: OnceLock<bool> = OnceLock::new();
        *USABLE.get_or_init(|| {
            !super::force_scalar()
                && std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
}

/// Whether `PHOX_FORCE_SCALAR` requests the scalar path. `1`, `true`,
/// `yes`, and `on` (any case) force scalar; anything else (including
/// unset) leaves dispatch to feature detection. Read once per process
/// and shared with the int8 kernels of [`crate::gemm_i8`], so every
/// dispatched kernel takes the same side of the override.
pub(crate) fn force_scalar() -> bool {
    use std::sync::OnceLock;
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| match std::env::var("PHOX_FORCE_SCALAR") {
        Ok(v) => matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "yes" | "on"
        ),
        Err(_) => false,
    })
}

/// Whether the f64 `core::arch` kernels are in use on this host.
/// Informational only — scalar and SIMD paths are bit-identical — but
/// the bench snapshot records it so a perf figure is attributable to a
/// path, and `PHOX_FORCE_SCALAR=1` makes this return `false`.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::simd_usable()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dot product over contiguous `f64` panels in the pinned 16-lane FMA
/// order, dispatching to AVX2+FMA when available. All paths agree
/// bit-for-bit; see the module docs for the exact operation schedule.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY: AVX2+FMA availability was just checked.
        return unsafe { x86::dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

/// `out = a · B` for row-major `b` (`a.len() × out.len()`), every output
/// in the pinned [`dot`] schedule over its column, dispatching to
/// AVX2+FMA when available. Bit-identical to `dot(a, Bᵀ[j])` for every
/// `j`, without packing `Bᵀ`; see the module docs.
///
/// # Panics
///
/// Panics if `b.len() != a.len() * out.len()`.
#[inline]
pub fn gemv(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(
        Some(b.len()),
        a.len().checked_mul(out.len()),
        "gemv operand is not k × n"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY: AVX2+FMA availability was just checked and the operand
        // length was asserted above.
        unsafe { x86::gemv_avx2(a, b, out) };
        return;
    }
    gemv_scalar_from(a, b, out, 0);
}

/// `out = a · B` for the rows of row-major `a` (`rows × k`) against `B`
/// packed as [`Panels`] (`k × n`), `rows = out.len() / n`: every output
/// in the pinned [`dot`] schedule over its column, so each equals
/// `dot(a_i, Bᵀ[j])` bit for bit. A single row runs the GEMV body of
/// [`gemv`] over the panels; more rows run the AVX2+FMA register-blocked
/// microkernel where it is available, and otherwise [`gemm_scalar`]. See
/// the module docs.
///
/// # Panics
///
/// Panics unless `out` holds whole rows of `n` values and `a` the same
/// number of rows of `k` values.
#[inline]
pub fn gemm(a: &[f64], b: &Panels, out: &mut [f64]) {
    let rows = check_gemm(a, b, out);
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY (both arms): AVX2+FMA availability was just checked, and
        // so were the operand lengths every pointer offset relies on.
        match rows {
            Some(1) => unsafe { x86::gemv_panels_avx2(a, b, out) },
            Some(_) => unsafe { x86::gemm_avx2(a, b, out) },
            None => {}
        }
        return;
    }
    match rows {
        Some(1) => gemv_panels_scalar(a, b, out),
        Some(_) => gemm_scalar(a, b, out),
        None => {}
    }
}

/// `out[j] += x · b[j]` over `min(out.len(), b.len())` elements,
/// dispatching to the AVX2 kernel when available. Per-element
/// accumulation order is untouched, so this is bitwise-equal to the
/// scalar loop it replaces — safe for order-sensitive callers like
/// [`crate::ops::matmul_seq`].
#[inline]
pub fn axpy(out: &mut [f64], x: f64, b: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        // SAFETY: AVX2 availability was just checked.
        unsafe { x86::axpy_avx2(out, x, b) };
        return;
    }
    axpy_scalar(out, x, b);
}

/// One head of scaled dot-product attention for a single query over a
/// row-major K/V cache: `keys` and `values` hold `t = scores.len()` rows
/// of `stride` values, the head occupies columns `lo..lo + q.len()` of
/// each row, and
///
/// * `scores[j] = dot(q, K_j[lo..lo + d_h]) · (1/√d_h)`,
/// * `scores` is then softmax-normalised in place,
/// * `out[c] += scores[j] · V_j[lo + c]` for every `j`, ascending.
///
/// Every output bit equals that per-row `dot` →
/// [`crate::ops::softmax_rows`] → [`axpy`] composition — and therefore
/// the full causal forward's `ops::matmul_seq` context row when `out`
/// starts at zero. Dispatches to AVX2+FMA when available; otherwise runs
/// [`attend_scalar`]. With `t = 0` nothing is written.
///
/// # Panics
///
/// Panics unless `keys.len() == values.len()` is a multiple of a nonzero
/// `stride` with `keys.len() / stride == scores.len()`,
/// `lo + q.len() <= stride`, and `out.len() == q.len()`.
#[inline]
pub fn attend(
    q: &[f64],
    keys: &[f64],
    values: &[f64],
    stride: usize,
    lo: usize,
    scores: &mut [f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if x86::simd_usable() {
        check_attend(q, keys, values, stride, lo, scores, out);
        // SAFETY: AVX2+FMA availability was just checked, and so were
        // the operand shapes every pointer offset in the kernel relies on.
        unsafe { x86::attend_avx2(q, keys, values, stride, lo, scores, out) };
        return;
    }
    attend_scalar(q, keys, values, stride, lo, scores, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::new(seed);
        (0..len).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    #[test]
    fn scalar_dot_matches_simd_dot_bitwise() {
        // Every tail length around the 16-lane boundary, plus larger
        // panels; the assertion is exact bit equality, not a tolerance.
        for len in (0..40).chain([63, 64, 65, 127, 128, 129, 1000]) {
            let a = random(len, 11);
            let b = random(len, 12);
            let scalar = dot_scalar(&a, &b);
            let dispatched = dot(&a, &b);
            assert_eq!(
                scalar.to_bits(),
                dispatched.to_bits(),
                "len={len} scalar={scalar:e} dispatched={dispatched:e}"
            );
        }
    }

    #[test]
    fn scalar_dot_matches_simd_on_subnormals() {
        // Products of subnormals exercise gradual underflow, where a
        // non-fused path would differ from FMA in the last bits.
        let a: Vec<f64> = (0..100)
            .map(|i| f64::MIN_POSITIVE * (i as f64 + 0.5) * 1e-3)
            .collect();
        let b: Vec<f64> = (0..100)
            .map(|i| f64::MIN_POSITIVE * (100.0 - i as f64))
            .collect();
        assert_eq!(dot_scalar(&a, &b).to_bits(), dot(&a, &b).to_bits());
    }

    #[test]
    fn dot_is_a_fused_schedule() {
        // With k < 16 the kernel is the sequential fused tail, so the
        // value is exactly the chained mul_add.
        let a: [f64; 3] = [1.0 + 1e-16, 3.0, -2.5];
        let b: [f64; 3] = [1.0 + 1e-16, -1.0, 0.5];
        let mut expect = 0.0f64;
        for (&x, &y) in a.iter().zip(b.iter()) {
            expect = x.mul_add(y, expect);
        }
        assert_eq!(dot(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn gemv_matches_dot_over_columns_bitwise() {
        // Every lane tail, and column counts that reach the eight- and
        // four-column blocks and the scalar column tail.
        for k in (0..40).chain([63, 64, 65, 300]) {
            for n in [1usize, 3, 4, 5, 8, 13] {
                let a = random(k, 31);
                let b = random(k * n, 32);
                let mut fast = vec![f64::NAN; n];
                let mut slow = vec![f64::NAN; n];
                gemv(&a, &b, &mut fast);
                gemv_scalar(&a, &b, &mut slow);
                for j in 0..n {
                    let col: Vec<f64> = (0..k).map(|p| b[p * n + j]).collect();
                    let expect = dot_scalar(&a, &col).to_bits();
                    assert_eq!(fast[j].to_bits(), expect, "k={k} n={n} j={j}");
                    assert_eq!(slow[j].to_bits(), expect, "scalar k={k} n={n} j={j}");
                }
            }
        }
    }

    #[test]
    fn panels_unpack_to_what_they_packed() {
        for (k, n) in [(0, 0), (0, 5), (5, 0), (1, 1), (17, 3), (33, 13), (64, 17)] {
            let b = random(k * n, 33);
            let panels = Panels::pack(&b, k, n);
            assert_eq!((panels.k(), panels.n()), (k, n));
            assert_eq!(panels.unpack(), b, "{k}x{n}");
            // Filled row by row, every value and every padding zero lands
            // where the pack puts it, bit for bit.
            let mut filled = 0;
            let drawn = Panels::from_rows(k, n, |row| {
                row.copy_from_slice(&b[filled * n..(filled + 1) * n]);
                filled += 1;
            });
            let bits = |p: &Panels| p.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&drawn), bits(&panels), "{k}x{n}");
            assert_eq!(filled, k, "{k}x{n} filled every row once");
        }
    }

    #[test]
    fn padded_cols_ends_the_last_panel_span() {
        for nr in [GEMM_NR, 16] {
            for n in 0..100 {
                let end = panel_spans(n, 0, nr).last().map_or(0, |(j0, w)| j0 + w);
                assert_eq!(padded_cols(n, nr), end, "n={n} nr={nr}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemv operand is not k × n")]
    fn gemv_rejects_a_misshapen_operand() {
        gemv(&[1.0, 2.0], &[1.0, 2.0, 3.0], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "attend head slice overruns the row")]
    fn attend_rejects_a_head_past_the_row() {
        // Two rows of stride 4; a 3-wide head at offset 2 would read
        // past each row.
        attend(
            &[1.0; 3],
            &[0.0; 8],
            &[0.0; 8],
            4,
            2,
            &mut [0.0; 2],
            &mut [0.0; 3],
        );
    }

    #[test]
    #[should_panic(expected = "context columns overrun the row")]
    fn context_rejects_a_head_past_the_row() {
        context(&[1.0; 2], &[0.0; 8], 4, 2..5, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "context needs one weight per query and key row")]
    fn context_rejects_a_short_weight_block() {
        // Two query rows over two key rows need four weights.
        context(&[1.0; 3], &[0.0; 8], 4, 0..4, &mut [0.0; 8]);
    }

    #[test]
    fn context_without_keys_leaves_the_output() {
        let mut out = [1.5, -0.0, 2.0];
        context(&[], &[], 3, 0..3, &mut out);
        assert_eq!(out.map(f64::to_bits), [1.5, -0.0, 2.0].map(f64::to_bits));
    }

    #[test]
    fn empty_and_length_mismatch_use_shorter_len() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0]), 3.0);
        let mut out = [1.0, 1.0];
        axpy(&mut out, 2.0, &[10.0]);
        assert_eq!(out, [21.0, 1.0]);
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for len in (0..20).chain([64, 65, 127, 1000]) {
            let b = random(len, 21);
            let mut fast = random(len, 22);
            let mut slow = fast.clone();
            axpy(&mut fast, 0.37, &b);
            axpy_scalar(&mut slow, 0.37, &b);
            assert!(
                fast.iter()
                    .zip(&slow)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "len={len}"
            );
        }
    }
}
