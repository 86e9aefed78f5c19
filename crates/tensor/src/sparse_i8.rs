//! Int8 CSR kernels: SpMM and neighbourhood aggregation with `i32`
//! accumulation, on the degree-bucketed schedule of [`crate::sparse`].
//!
//! GHOST's datapath is 8-bit end to end (§VI), so the graph kernels get
//! the same treatment as the dense GEMM in [`crate::gemm_i8`]: `i8`
//! operands, wrapping `i32` sums, exact arithmetic. Scheduling reuses
//! [`DegreeBuckets`] — tiles are ordered heaviest degree class
//! first and pulled by the work-stealing loop in
//! [`parallel::par_map_indexed`] — and because the schedule lists every
//! row exactly once, each tile writes its rows straight into the output.
//! Because integer sums are exact, the schedule affects wall-time only;
//! outputs are bit-identical for any thread count, which the test
//! suites pin.
//!
//! The structural (pattern-only) sum — unweighted SpMM, and sum
//! aggregation, which ignores stored values — is the hot kernel of both
//! GNN aggregations: the digital int8 reference's and GHOST's coherent
//! summation. Where the int8 kernels are dispatched
//! ([`crate::gemm_i8::simd_active`]) it runs an AVX2 body: per row,
//! columns in blocks of 32, 16 and 8, each block's `i32` sums held in
//! registers across all of the row's members (`vpmovsxbd` + `vpaddd` per
//! eight levels), then stored once. `PHOX_FORCE_SCALAR` and hosts
//! without AVX2 run the member-major loop. Integer sums are exact in any
//! order, so both give the same bits. Weighted SpMM and max aggregation
//! run the member-major loop everywhere.
//!
//! Every row loop hands each finished row to a store step: the `i32`
//! kernels reduce the row in place, and [`aggregate_dequant_into`], the
//! digital int8 reference's GNN aggregate, reduces it into a row of
//! scratch and dequantizes it into its f64 output row at once (the mean
//! dividing there), so no `i32` output buffer or second pass exists.
//!
//! All sums wrap in `i32`, as in [`crate::gemm_i8`]. A row of `m`
//! members of levels within ±127 stays exact while `127 · m < 2³¹`;
//! callers that need the true sum past that bound (GHOST's reduce units)
//! check it themselves.

use crate::sparse::{DegreeBuckets, SparseReduce, ROW_TILE};
use crate::{gemm_i8, parallel, Matrix, QuantMatrix, TensorError};

/// A borrowed compressed-sparse-row matrix with `i8` values.
///
/// Same layout contract as [`crate::sparse::CsrView`]: `offsets` has
/// `rows + 1` entries spanning each row's slice of `indices` and, when
/// present, `values`. A `None` values slice means every stored entry is
/// level `1` (an unweighted adjacency matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrI8View<'a> {
    rows: usize,
    cols: usize,
    offsets: &'a [usize],
    indices: &'a [u32],
    values: Option<&'a [i8]>,
}

impl<'a> CsrI8View<'a> {
    /// Builds a validated view over borrowed CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the offsets are not
    /// a monotone `rows + 1` prefix-sum of `indices` or a column id is out
    /// of range, and [`TensorError::LengthMismatch`] when `values`
    /// disagrees with `indices` in length.
    pub fn new(
        rows: usize,
        cols: usize,
        offsets: &'a [usize],
        indices: &'a [u32],
        values: Option<&'a [i8]>,
    ) -> Result<Self, TensorError> {
        if offsets.len() != rows + 1 || offsets.first() != Some(&0) {
            return Err(TensorError::InvalidDimension {
                what: "CSR offsets must have rows + 1 entries starting at 0",
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) || offsets[rows] != indices.len() {
            return Err(TensorError::InvalidDimension {
                what: "CSR offsets must be a monotone prefix-sum of the index array",
            });
        }
        if indices.iter().any(|&c| c as usize >= cols) {
            return Err(TensorError::InvalidDimension {
                what: "CSR column index out of range",
            });
        }
        if let Some(v) = values {
            if v.len() != indices.len() {
                return Err(TensorError::LengthMismatch {
                    expected: indices.len(),
                    actual: v.len(),
                });
            }
        }
        Ok(CsrI8View {
            rows,
            cols,
            offsets,
            indices,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The row-offset array (`rows + 1` entries).
    pub fn offsets(&self) -> &'a [usize] {
        self.offsets
    }

    /// Column ids of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_indices(&self, r: usize) -> &'a [u32] {
        &self.indices[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Values of row `r`, if the matrix is weighted.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_values(&self, r: usize) -> Option<&'a [i8]> {
        self.values
            .map(|v| &v[self.offsets[r]..self.offsets[r + 1]])
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.offsets[r + 1] - self.offsets[r]
    }

    /// Densifies into a row-major `rows × cols` level matrix. Test and
    /// oracle helper: the product `densify · x` through
    /// [`crate::gemm_i8::matmul_i32`] must equal [`spmm_i8`] exactly.
    pub fn densify(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.rows * self.cols];
        for r in 0..self.rows {
            let idx = self.row_indices(r);
            match self.row_values(r) {
                Some(vals) => {
                    for (&c, &v) in idx.iter().zip(vals) {
                        out[r * self.cols + c as usize] = v;
                    }
                }
                None => {
                    for &c in idx {
                        out[r * self.cols + c as usize] = 1;
                    }
                }
            }
        }
        out
    }
}

/// Reduction applied by [`aggregate_i8_into`]. Mean is not offered at the
/// integer layer: exact `i32` sums divide cleanly in f64 *after* the
/// kernel, so callers implement mean as `Sum` plus a per-row divide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum I8Reduce {
    /// Element-wise sum of member levels (wrapping `i32`).
    Sum,
    /// Element-wise maximum of member levels; empty rows reduce to 0.
    Max,
}

fn check_operands(
    a: &CsrI8View<'_>,
    x_len: usize,
    f: usize,
    out_len: usize,
) -> Result<(), TensorError> {
    if f == 0 {
        if x_len != 0 || out_len != 0 {
            return Err(TensorError::LengthMismatch {
                expected: 0,
                actual: x_len.max(out_len),
            });
        }
        return Ok(());
    }
    if x_len != a.cols() * f {
        return Err(TensorError::LengthMismatch {
            expected: a.cols() * f,
            actual: x_len,
        });
    }
    if out_len != a.rows() * f {
        return Err(TensorError::LengthMismatch {
            expected: a.rows() * f,
            actual: out_len,
        });
    }
    Ok(())
}

fn trace_kernel(rows: usize, nnz: usize, f: usize) {
    if phox_trace::enabled() {
        let tr = phox_trace::active();
        tr.count("int8", "spmm_calls", 1);
        tr.count("int8", "macs", (nnz * f) as i64);
        tr.instant(
            "int8",
            "spmm_kernel",
            vec![
                ("rows", phox_trace::Value::UInt(rows as u64)),
                ("nnz", phox_trace::Value::UInt(nnz as u64)),
                ("features", phox_trace::Value::UInt(f as u64)),
                ("row_tile", phox_trace::Value::UInt(ROW_TILE as u64)),
            ],
        );
    }
}

/// The output rows of one kernel call, writable from the tile loop's
/// worker threads. A [`DegreeBuckets`] schedule lists every row of
/// `0..rows` exactly once, so its tiles write disjoint rows and each row
/// is written once — straight into the output, with no per-tile scratch
/// or scatter pass.
#[derive(Clone, Copy)]
struct RowSink<T> {
    ptr: *mut T,
    rows: usize,
    f: usize,
}

// SAFETY: `ptr` is the start of the output slice the kernel call holds
// mutably borrowed until its scoped tile loop has joined, and `rows` and
// `f` are plain lengths; the sink hands out only disjoint rows (see
// `RowSink::row`), so no two threads ever touch the same element.
unsafe impl<T: Send> Send for RowSink<T> {}
// SAFETY: as for `Send`: shared sinks write only disjoint rows.
unsafe impl<T: Send> Sync for RowSink<T> {}

impl<T> RowSink<T> {
    fn new(out: &mut [T], f: usize) -> RowSink<T> {
        RowSink {
            ptr: out.as_mut_ptr(),
            rows: out.len() / f,
            f,
        }
    }

    /// Row `r` of the output.
    ///
    /// # Safety
    ///
    /// Caller must ensure no other reference to row `r` is live while
    /// the returned one is, and that the output outlives `'a`: each row
    /// is taken once per kernel call, which the schedule's
    /// one-entry-per-row guarantee provides.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    unsafe fn row<'a>(self, r: usize) -> &'a mut [T] {
        assert!(r < self.rows, "row outside the output");
        std::slice::from_raw_parts_mut(self.ptr.add(r * self.f), self.f)
    }
}

/// Where a kernel call's finished rows go: every reduction sums (or
/// maxes) a row into the `i32` row [`RowStore::sums`] hands it, then
/// calls [`RowStore::finish`] once that row is final. One row loop per
/// reduction serves both outputs.
trait RowStore: Copy + Send + Sync {
    /// Scratch for one tile's rows, when they are not reduced in place.
    fn scratch(self) -> Vec<i32>;

    /// The `i32` row that row `r` reduces into: its output row, or
    /// `scratch`.
    ///
    /// # Safety
    ///
    /// As [`RowSink::row`].
    unsafe fn sums(self, r: usize, scratch: &mut [i32]) -> &mut [i32];

    /// Stores row `r` once `sums` is final; `operands` counts the rows
    /// reduced into it, the row's own included.
    ///
    /// # Safety
    ///
    /// As [`RowSink::row`].
    unsafe fn finish(self, r: usize, operands: usize, sums: &[i32]);
}

/// The `i32` output: each row is reduced in place.
impl RowStore for RowSink<i32> {
    fn scratch(self) -> Vec<i32> {
        Vec::new()
    }

    #[inline(always)]
    unsafe fn sums(self, r: usize, _: &mut [i32]) -> &mut [i32] {
        self.row(r)
    }

    #[inline(always)]
    unsafe fn finish(self, _: usize, _: usize, _: &[i32]) {}
}

/// An f64 output that each row dequantizes into as soon as its sums are
/// final: `f64::from(s) * scale / denom`, with `denom` the row's operand
/// count (at least 1) for a mean and 1 otherwise.
#[derive(Clone, Copy)]
struct Dequant {
    rows: RowSink<f64>,
    scale: f64,
    mean: bool,
}

impl RowStore for Dequant {
    fn scratch(self) -> Vec<i32> {
        vec![0; self.rows.f]
    }

    #[inline(always)]
    unsafe fn sums(self, _: usize, scratch: &mut [i32]) -> &mut [i32] {
        scratch
    }

    #[inline(always)]
    unsafe fn finish(self, r: usize, operands: usize, sums: &[i32]) {
        let denom = if self.mean {
            operands.max(1) as f64
        } else {
            1.0
        };
        for (o, &s) in self.rows.row(r).iter_mut().zip(sums) {
            *o = f64::from(s) * self.scale / denom;
        }
    }
}

/// The tile body shared by SpMM and aggregation: reduces the given rows
/// into `store`.
///
/// # Safety
///
/// Caller must ensure no other reference to these rows of `store` is
/// live.
unsafe fn reduce_tile<S: RowStore>(
    a: &CsrI8View<'_>,
    x: &[i8],
    f: usize,
    rows: &[u32],
    reduce: I8Reduce,
    include_self: bool,
    store: S,
) {
    if reduce == I8Reduce::Sum && a.values.is_none() {
        structural_sum(a, x, f, rows, include_self, store);
        return;
    }
    let mut scratch = store.scratch();
    for &r in rows {
        let r = r as usize;
        let slot = store.sums(r, &mut scratch);
        let idx = a.row_indices(r);
        match reduce {
            I8Reduce::Sum => {
                slot.fill(0);
                if include_self {
                    for (s, &v) in slot.iter_mut().zip(&x[r * f..(r + 1) * f]) {
                        *s = s.wrapping_add(v as i32);
                    }
                }
                // Weighted rows: the structural sum returned above.
                for (&u, &w) in idx.iter().zip(a.row_values(r).unwrap_or_default()) {
                    let src = &x[u as usize * f..(u as usize + 1) * f];
                    for (s, &v) in slot.iter_mut().zip(src) {
                        *s = s.wrapping_add((w as i32).wrapping_mul(v as i32));
                    }
                }
            }
            I8Reduce::Max => {
                slot.fill(i32::MIN);
                if include_self {
                    for (s, &v) in slot.iter_mut().zip(&x[r * f..(r + 1) * f]) {
                        *s = (*s).max(v as i32);
                    }
                }
                for &u in idx {
                    let src = &x[u as usize * f..(u as usize + 1) * f];
                    for (s, &v) in slot.iter_mut().zip(src) {
                        *s = (*s).max(v as i32);
                    }
                }
                for s in slot.iter_mut() {
                    if *s == i32::MIN {
                        *s = 0;
                    }
                }
            }
        }
        store.finish(r, idx.len() + usize::from(include_self), slot);
    }
}

/// The structural (pattern-only) sum of the given rows into `store`:
/// each row is the wrapping `i32` sum of its members' levels, the row's
/// own levels included when `include_self` is set. Dispatches to the
/// AVX2 kernel where the int8 kernels are ([`gemm_i8::simd_active`]),
/// otherwise runs the member-major loop; integer sums have one value, so
/// both give the same bits.
///
/// # Safety
///
/// Caller must ensure no other reference to these rows of `store` is
/// live, and the operand contract [`check_operands`] and
/// [`CsrI8View::new`] verify: `x` holds `a.cols()` rows of `f` levels,
/// every member id is below `a.cols()`, and `include_self` implies a
/// square pattern.
unsafe fn structural_sum<S: RowStore>(
    a: &CsrI8View<'_>,
    x: &[i8],
    f: usize,
    rows: &[u32],
    include_self: bool,
    store: S,
) {
    let mut scratch = store.scratch();
    #[cfg(target_arch = "x86_64")]
    if gemm_i8::simd_active() {
        // SAFETY: `simd_active` is true only where AVX2 is available; the
        // caller guarantees the rest.
        x86::structural_sum_avx2(a, x, f, rows, include_self, store, &mut scratch);
        return;
    }
    for &r in rows {
        let r = r as usize;
        let (own, members) = (include_self.then_some(r), a.row_indices(r));
        let slot = store.sums(r, &mut scratch);
        sum_columns(x, f, 0, own, members, slot);
        store.finish(r, members.len() + usize::from(include_self), slot);
    }
}

/// Columns `c..f` of one row's structural sum into `dst`, member-major:
/// the row's own levels (`own`) and then each member's, added to a
/// zeroed `dst` with wrapping `i32` arithmetic.
fn sum_columns(x: &[i8], f: usize, c: usize, own: Option<usize>, members: &[u32], dst: &mut [i32]) {
    dst.fill(0);
    let mut add = |u: usize| {
        for (s, &v) in dst.iter_mut().zip(&x[u * f + c..(u + 1) * f]) {
            *s = s.wrapping_add(i32::from(v));
        }
    };
    if let Some(r) = own {
        add(r);
    }
    for &u in members {
        add(u as usize);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi32, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm_loadl_epi64,
    };

    use super::{CsrI8View, RowStore};

    /// AVX2 [`super::structural_sum`]: per row, columns in blocks of 32,
    /// 16 and 8 (four, two and one register of eight `i32` sums), each
    /// block's sums held in registers across all of the row's members —
    /// one `vpmovsxbd` of eight levels and one `vpaddd` per register and
    /// member — then stored once. The last `f % 8` columns run a scalar
    /// loop. Each finished row goes to `store` at once (its f64
    /// dequantization compiled for AVX2 too).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and the contract of
    /// [`super::structural_sum`]: every load reads eight levels at
    /// `x[u·f + c..]` with `c + 8 ≤ f` and `u < a.cols()`, and `scratch`
    /// comes from `store.scratch()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn structural_sum_avx2<S: RowStore>(
        a: &CsrI8View<'_>,
        x: &[i8],
        f: usize,
        rows: &[u32],
        include_self: bool,
        store: S,
        scratch: &mut [i32],
    ) {
        for &r in rows {
            let r = r as usize;
            let slot = store.sums(r, scratch);
            let (own, members) = (include_self.then_some(r), a.row_indices(r));
            let mut c = 0;
            while c + 32 <= f {
                block::<4>(x, f, c, own, members, slot);
                c += 32;
            }
            if c + 16 <= f {
                block::<2>(x, f, c, own, members, slot);
                c += 16;
            }
            if c + 8 <= f {
                block::<1>(x, f, c, own, members, slot);
                c += 8;
            }
            if c < f {
                super::sum_columns(x, f, c, own, members, &mut slot[c..]);
            }
            store.finish(r, members.len() + usize::from(include_self), slot);
        }
    }

    /// Columns `c..c + 8·V` of one row's sum into `slot`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available, `c + 8·V ≤ f ≤ slot.len()`,
    /// and that `x` holds `f` levels at `u·f` for `own` and every member.
    #[inline(always)]
    unsafe fn block<const V: usize>(
        x: &[i8],
        f: usize,
        c: usize,
        own: Option<usize>,
        members: &[u32],
        slot: &mut [i32],
    ) {
        let base = x.as_ptr().add(c);
        let mut acc = [_mm256_setzero_si256(); V];
        if let Some(r) = own {
            add_levels(&mut acc, base.add(r * f));
        }
        for &u in members {
            add_levels(&mut acc, base.add(u as usize * f));
        }
        for (v, &sums) in acc.iter().enumerate() {
            _mm256_storeu_si256(slot.as_mut_ptr().add(c + 8 * v).cast(), sums);
        }
    }

    /// `acc[v] += sign-extended src[8v..8v + 8]` for every register.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `src` points to `8·V`
    /// readable levels.
    #[inline(always)]
    unsafe fn add_levels<const V: usize>(acc: &mut [__m256i; V], src: *const i8) {
        for (v, sums) in acc.iter_mut().enumerate() {
            let levels = _mm256_cvtepi8_epi32(_mm_loadl_epi64(src.add(8 * v).cast()));
            *sums = _mm256_add_epi32(*sums, levels);
        }
    }
}

/// Runs the degree-bucketed tile loop, each row reduced straight into
/// `store` (deterministic for any thread count).
fn run_scheduled<S: RowStore>(
    a: &CsrI8View<'_>,
    x: &[i8],
    f: usize,
    schedule: &DegreeBuckets,
    reduce: I8Reduce,
    include_self: bool,
    store: S,
) -> Result<(), TensorError> {
    if schedule.rows() != a.rows() {
        return Err(TensorError::LengthMismatch {
            expected: a.rows(),
            actual: schedule.rows(),
        });
    }
    // Heaviest tiles are scheduled first and pulled by the work-stealing
    // loop; each writes its rows straight into the output.
    parallel::par_map_indexed(schedule.num_tiles(), |t| {
        // SAFETY: the schedule lists each of the `a.rows()` rows of the
        // output once, so tiles take disjoint rows, and `check_operands`
        // and the view's validation give the operand contract.
        unsafe { reduce_tile(a, x, f, schedule.tile_rows(t), reduce, include_self, store) }
    });
    Ok(())
}

/// Int8 sparse-times-dense product `out = a · x` with exact `i32` sums,
/// using a caller-provided [`DegreeBuckets`] schedule (build it once per
/// graph and reuse it across layers/epochs).
///
/// `x` is row-major `a.cols() × f`; `out` is row-major `a.rows() × f`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when operand lengths disagree
/// with the view's shape or the schedule covers a different row count.
pub fn spmm_i8_scheduled(
    a: &CsrI8View<'_>,
    x: &[i8],
    f: usize,
    schedule: &DegreeBuckets,
    out: &mut [i32],
) -> Result<(), TensorError> {
    check_operands(a, x.len(), f, out.len())?;
    if f == 0 || a.rows() == 0 {
        return Ok(());
    }
    let sink = RowSink::new(out, f);
    run_scheduled(a, x, f, schedule, I8Reduce::Sum, false, sink)?;
    trace_kernel(a.rows(), a.nnz(), f);
    Ok(())
}

/// Int8 sparse-times-dense product `a · x` into a fresh `i32` buffer,
/// building the degree-bucketed schedule internally.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `x.len() != a.cols() * f`.
pub fn spmm_i8(a: &CsrI8View<'_>, x: &[i8], f: usize) -> Result<Vec<i32>, TensorError> {
    let mut out = vec![0i32; a.rows() * f];
    if f == 0 || a.rows() == 0 {
        check_operands(a, x.len(), f, out.len())?;
        return Ok(out);
    }
    let schedule = DegreeBuckets::new(a.offsets());
    spmm_i8_scheduled(a, x, f, &schedule, &mut out)?;
    Ok(out)
}

/// Int8 neighbourhood aggregation `out[r] = reduce(x[members of r])`,
/// with the row itself prepended when `include_self` is set. Stored
/// values are ignored — like [`crate::sparse::aggregate_into`], this is a
/// structural reduction over the adjacency pattern.
///
/// Sum results are exact `i32` level sums (mean = divide in f64 after);
/// max results are the member level maxima widened to `i32`, with empty
/// rows reducing to 0.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on operand length disagreement
/// and [`TensorError::InvalidDimension`] when `include_self` is requested
/// for a non-square pattern.
pub fn aggregate_i8_into(
    a: &CsrI8View<'_>,
    x: &[i8],
    f: usize,
    reduce: I8Reduce,
    include_self: bool,
    out: &mut [i32],
) -> Result<(), TensorError> {
    let schedule = DegreeBuckets::new(a.offsets());
    aggregate_i8_scheduled(a, x, f, &schedule, reduce, include_self, out)?;
    if f > 0 && a.rows() > 0 {
        trace_kernel(a.rows(), a.nnz(), f);
    }
    Ok(())
}

/// [`aggregate_i8_into`] on a caller-provided [`DegreeBuckets`] schedule,
/// recording no trace counters: the entry for a caller that builds the
/// graph's schedule once and counts its own work, as GHOST's reduce
/// units do.
///
/// # Errors
///
/// As [`aggregate_i8_into`], plus [`TensorError::LengthMismatch`] when
/// the schedule covers a different row count.
pub fn aggregate_i8_scheduled(
    a: &CsrI8View<'_>,
    x: &[i8],
    f: usize,
    schedule: &DegreeBuckets,
    reduce: I8Reduce,
    include_self: bool,
    out: &mut [i32],
) -> Result<(), TensorError> {
    if check_aggregate(a, x.len(), f, out.len(), include_self)? {
        let unweighted = CsrI8View { values: None, ..*a };
        let sink = RowSink::new(out, f);
        run_scheduled(&unweighted, x, f, schedule, reduce, include_self, sink)?;
    }
    Ok(())
}

/// [`aggregate_i8_into`] dequantized as it is stored: the levels of `x`
/// (one row per column of `a`, quantized per tensor) reduce exactly in
/// `i32` on the same row loop, and each output row is written as soon
/// as its sums or maxima are final, as `f64::from(s) * x.scale()`,
/// divided by the row's operand count (at least 1) for
/// [`SparseReduce::Mean`]. No `i32` output buffer exists; the bits and
/// the trace are those of [`aggregate_i8_into`] dequantized afterwards.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `out` is not `a.rows() ×
/// x.cols()`, and the errors of [`aggregate_i8_into`].
pub fn aggregate_dequant_into(
    a: &CsrI8View<'_>,
    x: &QuantMatrix,
    reduce: SparseReduce,
    include_self: bool,
    out: &mut Matrix,
) -> Result<(), TensorError> {
    let f = x.cols();
    if out.shape() != (a.rows(), f) {
        return Err(TensorError::ShapeMismatch {
            lhs: (a.rows(), f),
            rhs: out.shape(),
        });
    }
    let codes = x.as_i8_slice();
    if check_aggregate(a, codes.len(), f, out.len(), include_self)? {
        let view = CsrI8View { values: None, ..*a };
        let schedule = DegreeBuckets::new(a.offsets());
        let store = Dequant {
            rows: RowSink::new(out.as_mut_slice(), f),
            scale: x.scale(),
            mean: reduce == SparseReduce::Mean,
        };
        let reduce = match reduce {
            SparseReduce::Sum | SparseReduce::Mean => I8Reduce::Sum,
            SparseReduce::Max => I8Reduce::Max,
        };
        run_scheduled(&view, codes, f, &schedule, reduce, include_self, store)?;
        trace_kernel(a.rows(), a.nnz(), f);
    }
    Ok(())
}

/// Checks an aggregation's operands and reports whether there is work:
/// the lengths [`check_operands`] checks, and a square pattern for
/// `include_self`.
fn check_aggregate(
    a: &CsrI8View<'_>,
    x_len: usize,
    f: usize,
    out_len: usize,
    include_self: bool,
) -> Result<bool, TensorError> {
    check_operands(a, x_len, f, out_len)?;
    if include_self && a.rows() != a.cols() {
        return Err(TensorError::InvalidDimension {
            what: "include_self aggregation needs a square adjacency pattern",
        });
    }
    Ok(f > 0 && a.rows() > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_i8;
    use crate::Prng;

    struct Owned {
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<i8>,
    }

    impl Owned {
        fn view(&self, weighted: bool) -> CsrI8View<'_> {
            CsrI8View::new(
                self.rows,
                self.cols,
                &self.offsets,
                &self.indices,
                weighted.then_some(self.values.as_slice()),
            )
            .unwrap()
        }
    }

    /// 4x4 pattern: row 0 <- {1, 2}, row 2 <- {0}, rows 1/3 empty.
    fn small() -> Owned {
        Owned {
            rows: 4,
            cols: 4,
            offsets: vec![0, 2, 2, 3, 3],
            indices: vec![1, 2, 0],
            values: vec![2, -1, 3],
        }
    }

    fn random_graph(rows: usize, cols: usize, deg: usize, seed: u64) -> Owned {
        let mut rng = Prng::new(seed);
        let mut offsets = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for _ in 0..rows {
            let d = (rng.next_u64() as usize) % (deg + 1);
            let mut cols_in_row: Vec<u32> = (0..d)
                .map(|_| (rng.next_u64() % cols as u64) as u32)
                .collect();
            cols_in_row.sort_unstable();
            cols_in_row.dedup();
            for &c in &cols_in_row {
                indices.push(c);
                values.push(((rng.next_u64() % 255) as i64 - 127) as i8);
            }
            offsets.push(indices.len());
        }
        Owned {
            rows,
            cols,
            offsets,
            indices,
            values,
        }
    }

    fn random_x(len: usize, seed: u64) -> Vec<i8> {
        let mut rng = Prng::new(seed);
        (0..len)
            .map(|_| ((rng.next_u64() % 255) as i64 - 127) as i8)
            .collect()
    }

    #[test]
    fn view_validation() {
        assert!(CsrI8View::new(2, 2, &[0, 1, 1], &[0], None).is_ok());
        assert!(CsrI8View::new(2, 2, &[0, 1], &[0], None).is_err());
        assert!(CsrI8View::new(2, 2, &[0, 2, 1], &[0, 1, 0], None).is_err());
        assert!(CsrI8View::new(2, 2, &[0, 1, 2], &[0, 5], None).is_err());
        assert!(CsrI8View::new(2, 2, &[0, 1, 2], &[0, 1], Some(&[1])).is_err());
    }

    #[test]
    fn spmm_matches_densified_gemm() {
        for weighted in [false, true] {
            let g = random_graph(37, 29, 6, 5);
            let f = 9;
            let x = random_x(29 * f, 6);
            let v = g.view(weighted);
            let sparse = spmm_i8(&v, &x, f).unwrap();
            let dense = gemm_i8::matmul_i32_naive(&v.densify(), &x, 37, 29, f).unwrap();
            assert_eq!(sparse, dense, "weighted={weighted}");
        }
    }

    #[test]
    fn spmm_known_values() {
        let g = small();
        // f = 1, x = [10, 20, 30, 40]^T.
        let x = [10i8, 20, 30, 40];
        let y = spmm_i8(&g.view(true), &x, 1).unwrap();
        assert_eq!(y, vec![2 * 20 - 30, 0, 3 * 10, 0]);
        let y = spmm_i8(&g.view(false), &x, 1).unwrap();
        assert_eq!(y, vec![50, 0, 10, 0]);
    }

    #[test]
    fn aggregate_reductions() {
        let g = small();
        let x = [10i8, 20, 30, 40];
        let mut out = vec![0i32; 4];
        // Values are ignored even on the weighted view.
        aggregate_i8_into(&g.view(true), &x, 1, I8Reduce::Sum, false, &mut out).unwrap();
        assert_eq!(out, vec![50, 0, 10, 0]);
        aggregate_i8_into(&g.view(true), &x, 1, I8Reduce::Sum, true, &mut out).unwrap();
        assert_eq!(out, vec![60, 20, 40, 40]);
        aggregate_i8_into(&g.view(true), &x, 1, I8Reduce::Max, false, &mut out).unwrap();
        assert_eq!(out, vec![30, 0, 10, 0]);
        aggregate_i8_into(&g.view(true), &x, 1, I8Reduce::Max, true, &mut out).unwrap();
        assert_eq!(out, vec![30, 20, 30, 40]);
    }

    #[test]
    fn max_of_negative_members_stays_negative() {
        // Row with only negative members must not report 0.
        let offsets = vec![0usize, 1];
        let indices = vec![0u32];
        let v = CsrI8View::new(1, 1, &offsets, &indices, None).unwrap();
        let mut out = vec![0i32; 1];
        aggregate_i8_into(&v, &[-5], 1, I8Reduce::Max, false, &mut out).unwrap();
        assert_eq!(out, vec![-5]);
    }

    #[test]
    fn thread_count_invariance() {
        let g = random_graph(700, 700, 12, 7);
        let f = 13;
        let x = random_x(700 * f, 8);
        let v = g.view(true);
        let reference = parallel::with_threads(1, || spmm_i8(&v, &x, f).unwrap());
        for threads in [2, 4, 8] {
            let y = parallel::with_threads(threads, || spmm_i8(&v, &x, f).unwrap());
            assert_eq!(y, reference, "threads={threads}");
        }
    }

    #[test]
    fn scheduled_variant_reuses_schedule() {
        let g = random_graph(200, 200, 5, 9);
        let f = 4;
        let x = random_x(200 * f, 10);
        let v = g.view(true);
        let schedule = DegreeBuckets::new(v.offsets());
        let mut out = vec![0i32; 200 * f];
        spmm_i8_scheduled(&v, &x, f, &schedule, &mut out).unwrap();
        assert_eq!(out, spmm_i8(&v, &x, f).unwrap());
        // Schedule for the wrong row count is rejected.
        let wrong = DegreeBuckets::new(&[0, 0]);
        assert!(spmm_i8_scheduled(&v, &x, f, &wrong, &mut out).is_err());
    }

    #[test]
    fn shape_validation() {
        let g = small();
        let v = g.view(true);
        assert!(spmm_i8(&v, &[0; 3], 1).is_err());
        let mut short = vec![0i32; 3];
        assert!(
            spmm_i8_scheduled(&v, &[0; 4], 1, &DegreeBuckets::new(v.offsets()), &mut short)
                .is_err()
        );
        // include_self on a non-square pattern.
        let rect = CsrI8View::new(2, 3, &[0, 1, 1], &[2], None).unwrap();
        let mut out = vec![0i32; 2];
        assert!(aggregate_i8_into(&rect, &[0; 3], 1, I8Reduce::Sum, true, &mut out).is_err());
    }

    #[test]
    fn empty_feature_width_is_a_no_op() {
        let g = small();
        let mut out = vec![0i32; 0];
        assert!(spmm_i8(&g.view(false), &[], 0).is_ok());
        assert!(aggregate_i8_into(&g.view(false), &[], 0, I8Reduce::Sum, true, &mut out).is_ok());
    }

    #[test]
    fn dequantizing_aggregate_equals_sums_dequantized_afterwards() {
        // Every reduction, with and without the row itself, at a width
        // through the 32-, 16- and 8-column blocks and the tail; the
        // weighted view's values are ignored, as by `aggregate_i8_into`.
        let (n, f) = (300, 61);
        let g = random_graph(n, n, 9, 11);
        let v = g.view(true);
        let q = QuantMatrix::from_levels(n, f, 0.037, random_x(n * f, 12)).unwrap();
        for (reduce, i8_reduce) in [
            (SparseReduce::Sum, I8Reduce::Sum),
            (SparseReduce::Mean, I8Reduce::Sum),
            (SparseReduce::Max, I8Reduce::Max),
        ] {
            for include_self in [false, true] {
                let mut sums = vec![0i32; n * f];
                aggregate_i8_into(&v, q.as_i8_slice(), f, i8_reduce, include_self, &mut sums)
                    .unwrap();
                let want: Vec<u64> = sums
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let operands = v.row_nnz(i / f) + usize::from(include_self);
                        let denom = if reduce == SparseReduce::Mean {
                            operands.max(1) as f64
                        } else {
                            1.0
                        };
                        (f64::from(s) * q.scale() / denom).to_bits()
                    })
                    .collect();
                let mut out = Matrix::zeros(n, f);
                aggregate_dequant_into(&v, &q, reduce, include_self, &mut out).unwrap();
                let got: Vec<u64> = out.as_slice().iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{reduce:?} include_self={include_self}");
            }
        }
        // The output must be rows × f, not merely as long.
        let mut transposed = Matrix::zeros(f, n);
        assert!(aggregate_dequant_into(&v, &q, SparseReduce::Sum, false, &mut transposed).is_err());
    }
}
