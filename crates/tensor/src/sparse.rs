//! Sparse (CSR) kernels for graph compute: SpMM, neighbourhood
//! aggregation, and degree-bucketed scheduling.
//!
//! GNN aggregation is a bandwidth-bound sparse operation: for every
//! vertex, a handful of scattered feature rows are reduced into one
//! output row. The dense path the simulators used previously stacked
//! each vertex's neighbour rows into a freshly allocated matrix and
//! reduced the stack column-major — an allocation per vertex and a
//! cache-hostile stride-`f` walk per element.
//!
//! [`spmm_into`] and [`aggregate_into`] share one row kernel instead. It
//! takes an output row in column blocks of 32, 16, 8 and 4, then single
//! columns. For each block it holds the block's accumulators in a local
//! `[f64; W]` (registers), walks the row's members once in CSR order,
//! and stores the block once, so the output row is never re-read. One
//! `#[inline(always)]` body is compiled twice: for AVX2 where
//! [`simd::simd_active`] holds, and at the baseline otherwise (which is
//! also what `PHOX_FORCE_SCALAR=1` runs; there the widest block is 16,
//! since 32 accumulators would fill all sixteen SSE2 registers and
//! spill). Blocking changes no value: each element keeps the same
//! sequence of operations on both:
//!
//! * sum and mean start at `+0.0`, add the row itself (`include_self`),
//!   then each member in CSR order; a mean divides once, by the member
//!   count (at least 1);
//! * max folds `f64::max(acc, x)` from `-∞` in the same order and
//!   stores a non-finite result as 0;
//! * SpMM computes `acc + w · x` from `+0.0`, the product rounded before
//!   the add (Rust never contracts it into a fused multiply-add), or
//!   `acc + x` for an unweighted matrix.
//!
//! Determinism: every kernel reduces each row's members in CSR order,
//! so results are bit-identical for any thread count and either
//! compilation — the same guarantee (and the same scheme) as the blocked
//! GEMM in [`crate::gemm`].
//! Consumers that need per-row noise streams (the photonic functional
//! simulators) key a [`crate::Prng::stream`] on `(operation key, row)`
//! exactly like the analog matmul keys `(operation key, tile)`.
//!
//! # Example
//!
//! ```
//! use phox_tensor::sparse::{CsrMatrix, spmm};
//! use phox_tensor::Matrix;
//!
//! # fn main() -> Result<(), phox_tensor::TensorError> {
//! // A 2x3 sparse matrix with two entries, times a dense 3x2.
//! let a = CsrMatrix::from_coo(2, 3, &[(0, 1, 2.0), (1, 2, -1.0)])?;
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
//! let y = spmm(&a.view(), &x)?;
//! assert_eq!(y.get(0, 0), 6.0);
//! assert_eq!(y.get(1, 1), -6.0);
//! # Ok(())
//! # }
//! ```

use crate::gemm::simd;
use crate::{parallel, Matrix, TensorError};

/// Rows per parallel work item: one tile is the scheduling granule of
/// every sparse kernel, and the unit over which scratch buffers are
/// reused (tile allocation is amortised over `ROW_TILE` rows).
pub const ROW_TILE: usize = 64;

/// A borrowed compressed-sparse-row matrix.
///
/// `offsets` has `rows + 1` entries with `offsets[r]..offsets[r + 1]`
/// spanning row `r`'s slice of `indices` (column ids) and, when present,
/// `values`. A `None` values slice means every stored entry is `1.0`
/// (an unweighted adjacency matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrView<'a> {
    rows: usize,
    cols: usize,
    offsets: &'a [usize],
    indices: &'a [u32],
    values: Option<&'a [f64]>,
}

impl<'a> CsrView<'a> {
    /// Builds a validated view over borrowed CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the offsets are not
    /// a monotone `rows + 1` prefix-sum of `indices`, when a column id is
    /// out of range, or when `values` disagrees with `indices` in length.
    pub fn new(
        rows: usize,
        cols: usize,
        offsets: &'a [usize],
        indices: &'a [u32],
        values: Option<&'a [f64]>,
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
        Ok(CsrView {
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
    pub fn row_values(&self, r: usize) -> Option<&'a [f64]> {
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
}

/// An owned compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Entries are
    /// sorted by `(row, col)`; duplicate coordinates are summed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for zero dimensions or an
    /// out-of-range coordinate.
    pub fn from_coo(
        rows: usize,
        cols: usize,
        entries: &[(u32, u32, f64)],
    ) -> Result<Self, TensorError> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidDimension {
                what: "CSR matrix dimensions must be non-zero",
            });
        }
        let mut sorted: Vec<(u32, u32, f64)> = Vec::with_capacity(entries.len());
        for &(r, c, v) in entries {
            if r as usize >= rows || c as usize >= cols {
                return Err(TensorError::InvalidDimension {
                    what: "CSR coordinate out of range",
                });
            }
            sorted.push((r, c, v));
        }
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut offsets = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut last: Option<(u32, u32)> = None;
        for (r, c, v) in sorted {
            if last == Some((r, c)) {
                if let Some(lv) = values.last_mut() {
                    *lv += v;
                }
            } else {
                indices.push(c);
                values.push(v);
                offsets[r as usize + 1] += 1;
                last = Some((r, c));
            }
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        Ok(CsrMatrix {
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

    /// A borrowed view of this matrix.
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            rows: self.rows,
            cols: self.cols,
            offsets: &self.offsets,
            indices: &self.indices,
            values: Some(&self.values),
        }
    }
}

/// Reduction applied across a row's members by [`aggregate_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparseReduce {
    /// Element-wise sum.
    Sum,
    /// Element-wise mean over the member count.
    Mean,
    /// Element-wise maximum (empty rows reduce to zero).
    Max,
}

fn check_operand_shapes(a: &CsrView<'_>, x: &Matrix, out: &Matrix) -> Result<(), TensorError> {
    if x.rows() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            lhs: (a.rows(), a.cols()),
            rhs: x.shape(),
        });
    }
    if out.shape() != (a.rows(), x.cols()) {
        return Err(TensorError::ShapeMismatch {
            lhs: (a.rows(), x.cols()),
            rhs: out.shape(),
        });
    }
    Ok(())
}

fn trace_kernel(kernel: &'static str, rows: usize, nnz: usize) {
    if phox_trace::enabled() {
        let tr = phox_trace::active();
        tr.count("sparse", kernel, 1);
        tr.count("sparse", "rows", rows as i64);
        tr.count("sparse", "nnz", nnz as i64);
        // Every row after the first within a tile reuses the tile's
        // scratch/output buffer instead of allocating its own — the
        // quantity the dense-stack path paid per node.
        let tiles = rows.div_ceil(ROW_TILE);
        tr.count(
            "sparse",
            "scratch_reuse_hits",
            (rows - tiles.min(rows)) as i64,
        );
    }
}

/// Sparse-times-dense product `out = a · x`, written into `out`.
///
/// Row-range parallel: output rows are processed in [`ROW_TILE`]-row
/// tiles, each tile touched by exactly one thread, and every row reduces
/// its stored entries in CSR order on the module's row kernel — the
/// result is bit-identical for any thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x` or `out` disagrees
/// with `a`'s shape.
pub fn spmm_into(a: &CsrView<'_>, x: &Matrix, out: &mut Matrix) -> Result<(), TensorError> {
    check_operand_shapes(a, x, out)?;
    if x.cols() == 0 || a.rows() == 0 {
        return Ok(());
    }
    let fold = if a.values.is_some() {
        RowFold::Weighted
    } else {
        RowFold::Sum
    };
    RowKernel::new(a, x, fold, false).run(out);
    trace_kernel("spmm_calls", a.rows(), a.nnz());
    Ok(())
}

/// Sparse-times-dense product `a · x` into a fresh matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the inner dimensions
/// disagree.
pub fn spmm(a: &CsrView<'_>, x: &Matrix) -> Result<Matrix, TensorError> {
    let mut out = Matrix::zeros(a.rows(), x.cols());
    spmm_into(a, x, &mut out)?;
    Ok(out)
}

/// Neighbourhood aggregation `out[r] = reduce(x[members of r])`, with the
/// row itself prepended to the members when `include_self` is set.
///
/// This is the digital reference kernel behind GNN aggregation, on the
/// module's row kernel: sum and mean add member rows in CSR order from
/// `+0.0` (no scratch, no allocation); max folds `f64::max` with empty
/// rows reducing to zero. Stored values are ignored — aggregation is a
/// structural operation on the adjacency pattern.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on operand disagreement and
/// [`TensorError::InvalidDimension`] when `include_self` is requested for
/// a non-square pattern.
pub fn aggregate_into(
    a: &CsrView<'_>,
    x: &Matrix,
    reduce: SparseReduce,
    include_self: bool,
    out: &mut Matrix,
) -> Result<(), TensorError> {
    check_operand_shapes(a, x, out)?;
    if include_self && a.rows() != a.cols() {
        return Err(TensorError::InvalidDimension {
            what: "include_self aggregation needs a square adjacency pattern",
        });
    }
    if x.cols() == 0 || a.rows() == 0 {
        return Ok(());
    }
    let fold = match reduce {
        SparseReduce::Sum => RowFold::Sum,
        SparseReduce::Mean => RowFold::Mean,
        SparseReduce::Max => RowFold::Max,
    };
    RowKernel::new(a, x, fold, include_self).run(out);
    trace_kernel("aggregate_calls", a.rows(), a.nnz());
    Ok(())
}

/// What the row kernel folds over an output row's members. Every output
/// element keeps its own accumulator, so holding a block of them in
/// registers changes no bit.
#[derive(Debug, Clone, Copy)]
enum RowFold {
    /// `acc + x` from `+0.0`: sums and unweighted SpMM.
    Sum,
    /// [`RowFold::Sum`], then one division by the member count (at
    /// least 1).
    Mean,
    /// `acc + w · x` from `+0.0`, the product rounded before the add:
    /// weighted SpMM.
    Weighted,
    /// `f64::max(acc, x)` from `-∞`; a non-finite result stores as 0.
    Max,
}

/// One output row's operands: the row itself when `include_self` is
/// set, its members in CSR order, and their weights (empty unless the
/// fold is [`RowFold::Weighted`]).
struct Row<'a> {
    own: Option<usize>,
    members: &'a [u32],
    weights: &'a [f64],
}

/// The row kernel behind [`spmm_into`] and [`aggregate_into`]; see the
/// module docs. Operands are checked by the callers: `x` has `a.cols()`
/// rows of `f` values, and `include_self` implies a square `a`.
#[derive(Clone, Copy)]
struct RowKernel<'a> {
    a: CsrView<'a>,
    x: &'a [f64],
    f: usize,
    fold: RowFold,
    include_self: bool,
}

impl<'a> RowKernel<'a> {
    fn new(a: &CsrView<'a>, x: &'a Matrix, fold: RowFold, include_self: bool) -> Self {
        RowKernel {
            a: *a,
            x: x.as_slice(),
            f: x.cols(),
            fold,
            include_self,
        }
    }

    /// Writes every row of `out` (`a.rows() × f`, `f > 0`), each
    /// [`ROW_TILE`]-row tile on one thread.
    fn run(self, out: &mut Matrix) {
        parallel::par_chunks_mut(out.as_mut_slice(), ROW_TILE * self.f, |tile, chunk| {
            #[cfg(target_arch = "x86_64")]
            if simd::simd_active() {
                // SAFETY: `simd_active` is true only where AVX2 is available.
                unsafe { self.rows_avx2(tile * ROW_TILE, chunk) };
                return;
            }
            self.rows(tile * ROW_TILE, chunk, false);
        });
    }

    /// [`RowKernel::rows`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn rows_avx2(&self, r0: usize, chunk: &mut [f64]) {
        self.rows(r0, chunk, true);
    }

    /// Rows `r0..` into `chunk`, whole rows of `f` values: column blocks
    /// of 32 (when `wide`), 16, 8 and 4, then single columns. A 32-wide
    /// block fills eight AVX2 registers but all sixteen SSE2 ones, whose
    /// spills cost more than the extra member walks of 16-wide blocks.
    #[inline(always)]
    fn rows(&self, r0: usize, chunk: &mut [f64], wide: bool) {
        let f = self.f;
        for (r, slot) in (r0..).zip(chunk.chunks_exact_mut(f)) {
            let row = Row {
                own: self.include_self.then_some(r),
                members: self.a.row_indices(r),
                weights: self.a.row_values(r).unwrap_or_default(),
            };
            let mut c = 0;
            while wide && c + 32 <= f {
                self.block::<32>(&row, c, slot);
                c += 32;
            }
            while c + 16 <= f {
                self.block::<16>(&row, c, slot);
                c += 16;
            }
            if c + 8 <= f {
                self.block::<8>(&row, c, slot);
                c += 8;
            }
            if c + 4 <= f {
                self.block::<4>(&row, c, slot);
                c += 4;
            }
            while c < f {
                self.block::<1>(&row, c, slot);
                c += 1;
            }
        }
    }

    /// Columns `c..c + W` of `row`: accumulated in registers over one
    /// CSR-order walk of the members, then stored into `slot` once.
    #[inline(always)]
    fn block<const W: usize>(&self, row: &Row<'_>, c: usize, slot: &mut [f64]) {
        let out = &mut slot[c..c + W];
        match self.fold {
            RowFold::Sum => out.copy_from_slice(&self.fold_row::<W>(row, c, 0.0, |s, v| s + v)),
            RowFold::Mean => {
                let acc = self.fold_row::<W>(row, c, 0.0, |s, v| s + v);
                let denom = (row.members.len() + usize::from(row.own.is_some())).max(1) as f64;
                for (o, s) in out.iter_mut().zip(acc) {
                    *o = s / denom;
                }
            }
            RowFold::Weighted => {
                let mut acc = [0.0f64; W];
                for (&u, &w) in row.members.iter().zip(row.weights) {
                    fold_block(&mut acc, self.cols::<W>(u as usize, c), |s, v| s + w * v);
                }
                out.copy_from_slice(&acc);
            }
            RowFold::Max => {
                let acc = self.fold_row::<W>(row, c, f64::NEG_INFINITY, f64::max);
                for (o, s) in out.iter_mut().zip(acc) {
                    *o = if s.is_finite() { s } else { 0.0 };
                }
            }
        }
    }

    /// Columns `c..c + W` folded with `op` from `start`: the row itself
    /// first when it is included, then each member in CSR order.
    #[inline(always)]
    fn fold_row<const W: usize>(
        &self,
        row: &Row<'_>,
        c: usize,
        start: f64,
        op: impl Fn(f64, f64) -> f64 + Copy,
    ) -> [f64; W] {
        let mut acc = [start; W];
        if let Some(r) = row.own {
            fold_block(&mut acc, self.cols::<W>(r, c), op);
        }
        for &u in row.members {
            fold_block(&mut acc, self.cols::<W>(u as usize, c), op);
        }
        acc
    }

    /// Columns `c..c + W` of row `u` of `x`.
    #[inline(always)]
    fn cols<const W: usize>(&self, u: usize, c: usize) -> &[f64] {
        let at = u * self.f + c;
        &self.x[at..at + W]
    }
}

/// `acc[j] = op(acc[j], src[j])` for every column of a block.
#[inline(always)]
fn fold_block<const W: usize>(acc: &mut [f64; W], src: &[f64], op: impl Fn(f64, f64) -> f64) {
    for (s, &v) in acc.iter_mut().zip(src) {
        *s = op(*s, v);
    }
}

/// A degree-bucketed row schedule for load-balanced sparse kernels.
///
/// Power-law graphs concentrate most of the work in a few hub rows; a
/// naive contiguous row split leaves the tile holding the hubs running
/// long after every other worker has drained. The schedule groups rows
/// into logarithmic degree classes and orders them heaviest class first,
/// so the work-stealing loop in [`parallel::par_map_indexed`] picks up
/// the expensive tiles before the cheap tail. Within a class rows stay in
/// ascending id order, and results are keyed by row id — the schedule
/// affects wall-time only, never values.
///
/// Every row id of `0..rows` appears in the schedule exactly once; the
/// int8 kernels of [`crate::sparse_i8`] rely on that to write each row
/// in place from whichever thread runs its tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeBuckets {
    /// All row ids, heaviest degree class first.
    schedule: Vec<u32>,
    /// `(class minimum degree, row count)` pairs, heaviest class first.
    histogram: Vec<(usize, usize)>,
    /// Total stored entries across all rows.
    nnz: usize,
}

impl DegreeBuckets {
    /// Buckets the rows of a CSR offset array (`rows + 1` entries) into
    /// power-of-four degree classes.
    pub fn new(offsets: &[usize]) -> Self {
        let rows = offsets.len().saturating_sub(1);
        // Class index: 0 -> degree 0, k -> degree in [4^(k-1), 4^k).
        let class_of = |deg: usize| -> usize {
            if deg == 0 {
                0
            } else {
                let mut c = 1usize;
                let mut bound = 4usize;
                while deg >= bound {
                    c += 1;
                    bound = bound.saturating_mul(4);
                }
                c
            }
        };
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for r in 0..rows {
            let deg = offsets[r + 1] - offsets[r];
            let c = class_of(deg);
            if classes.len() <= c {
                classes.resize_with(c + 1, Vec::new);
            }
            #[allow(clippy::cast_possible_truncation)]
            classes[c].push(r as u32);
        }
        let mut schedule = Vec::with_capacity(rows);
        let mut histogram = Vec::new();
        for (c, rows_in_class) in classes.iter().enumerate().rev() {
            if rows_in_class.is_empty() {
                continue;
            }
            let min_degree = if c == 0 { 0 } else { 4usize.pow(c as u32 - 1) };
            histogram.push((min_degree, rows_in_class.len()));
            schedule.extend_from_slice(rows_in_class);
        }
        DegreeBuckets {
            schedule,
            histogram,
            nnz: offsets.last().copied().unwrap_or(0),
        }
    }

    /// Total rows in the schedule.
    pub fn rows(&self) -> usize {
        self.schedule.len()
    }

    /// Total stored entries across all rows.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// All row ids in execution order (heaviest degree class first).
    pub fn schedule(&self) -> &[u32] {
        &self.schedule
    }

    /// Number of [`ROW_TILE`]-row work items.
    pub fn num_tiles(&self) -> usize {
        self.schedule.len().div_ceil(ROW_TILE)
    }

    /// Row ids of work item `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.num_tiles()`.
    pub fn tile_rows(&self, t: usize) -> &[u32] {
        let lo = t * ROW_TILE;
        let hi = (lo + ROW_TILE).min(self.schedule.len());
        &self.schedule[lo..hi]
    }

    /// `(class minimum degree, row count)` pairs, heaviest class first.
    pub fn histogram(&self) -> &[(usize, usize)] {
        &self.histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn small_graph() -> CsrMatrix {
        // 4x4 adjacency: row 0 <- {1, 2}, row 2 <- {0}, row 3 <- {}.
        CsrMatrix::from_coo(4, 4, &[(0, 1, 1.0), (0, 2, 1.0), (2, 0, 1.0)]).unwrap()
    }

    #[test]
    fn view_validation() {
        assert!(CsrView::new(2, 2, &[0, 1, 1], &[0], None).is_ok());
        assert!(CsrView::new(2, 2, &[0, 1], &[0], None).is_err());
        assert!(CsrView::new(2, 2, &[1, 1, 1], &[], None).is_err());
        assert!(CsrView::new(2, 2, &[0, 2, 1], &[0, 1, 0], None).is_err());
        assert!(CsrView::new(2, 2, &[0, 1, 2], &[0, 5], None).is_err());
        assert!(CsrView::new(2, 2, &[0, 1, 2], &[0, 1], Some(&[1.0])).is_err());
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let m = CsrMatrix::from_coo(2, 3, &[(1, 2, 1.0), (0, 1, 2.0), (1, 2, 0.5)]).unwrap();
        assert_eq!(m.nnz(), 2);
        let v = m.view();
        assert_eq!(v.row_indices(0), &[1]);
        assert_eq!(v.row_indices(1), &[2]);
        assert_eq!(v.row_values(1).unwrap(), &[1.5]);
        assert!(CsrMatrix::from_coo(2, 2, &[(5, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_coo(0, 2, &[]).is_err());
    }

    #[test]
    fn spmm_matches_dense_product() {
        let a = small_graph();
        let x = Prng::new(1).fill_normal(4, 5, 0.0, 1.0);
        let y = spmm(&a.view(), &x).unwrap();
        for c in 0..5 {
            assert!((y.get(0, c) - (x.get(1, c) + x.get(2, c))).abs() < 1e-12);
            assert_eq!(y.get(1, c), 0.0);
            assert!((y.get(2, c) - x.get(0, c)).abs() < 1e-12);
            assert_eq!(y.get(3, c), 0.0);
        }
    }

    #[test]
    fn spmm_applies_weights() {
        let a = CsrMatrix::from_coo(2, 2, &[(0, 0, 2.0), (0, 1, -1.0)]).unwrap();
        let x = Matrix::from_rows(&[&[1.0], &[3.0]]).unwrap();
        let y = spmm(&a.view(), &x).unwrap();
        assert!((y.get(0, 0) - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn spmm_shape_validation() {
        let a = small_graph();
        let mut bad = Matrix::zeros(3, 5);
        assert!(spmm(&a.view(), &Matrix::zeros(3, 5)).is_err());
        assert!(spmm_into(&a.view(), &Matrix::zeros(4, 5), &mut bad).is_err());
    }

    #[test]
    fn aggregate_reductions() {
        let a = small_graph();
        let mut x = Matrix::zeros(4, 2);
        x.set(0, 0, 1.0);
        x.set(1, 0, 5.0);
        x.set(2, 0, 3.0);
        let mut out = Matrix::zeros(4, 2);

        aggregate_into(&a.view(), &x, SparseReduce::Sum, false, &mut out).unwrap();
        assert_eq!(out.get(0, 0), 8.0);
        aggregate_into(&a.view(), &x, SparseReduce::Mean, false, &mut out).unwrap();
        assert_eq!(out.get(0, 0), 4.0);
        aggregate_into(&a.view(), &x, SparseReduce::Max, false, &mut out).unwrap();
        assert_eq!(out.get(0, 0), 5.0);
        // Empty rows: sum/mean and max all reduce to zero.
        assert_eq!(out.get(3, 0), 0.0);
        // include_self folds the row's own features in.
        aggregate_into(&a.view(), &x, SparseReduce::Sum, true, &mut out).unwrap();
        assert_eq!(out.get(0, 0), 9.0);
        assert_eq!(out.get(3, 0), 0.0);
    }

    #[test]
    fn aggregate_include_self_needs_square() {
        let a = CsrMatrix::from_coo(2, 3, &[(0, 2, 1.0)]).unwrap();
        let x = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(2, 2);
        assert!(aggregate_into(&a.view(), &x, SparseReduce::Sum, true, &mut out).is_err());
        assert!(aggregate_into(&a.view(), &x, SparseReduce::Sum, false, &mut out).is_ok());
    }

    #[test]
    fn kernels_are_thread_count_invariant() {
        let n = 300;
        let mut rng = Prng::new(7);
        let entries: Vec<(u32, u32, f64)> = (0..2_000)
            .map(|_| {
                (
                    (rng.next_u64() % n as u64) as u32,
                    (rng.next_u64() % n as u64) as u32,
                    rng.uniform(-1.0, 1.0),
                )
            })
            .collect();
        let a = CsrMatrix::from_coo(n, n, &entries).unwrap();
        let x = Prng::new(8).fill_normal(n, 17, 0.0, 1.0);
        let reference = parallel::with_threads(1, || spmm(&a.view(), &x).unwrap());
        let ref_agg = parallel::with_threads(1, || {
            let mut out = Matrix::zeros(n, 17);
            aggregate_into(&a.view(), &x, SparseReduce::Mean, true, &mut out).unwrap();
            out
        });
        for threads in [2, 4, 8] {
            let y = parallel::with_threads(threads, || spmm(&a.view(), &x).unwrap());
            assert_eq!(y, reference, "spmm threads={threads}");
            let agg = parallel::with_threads(threads, || {
                let mut out = Matrix::zeros(n, 17);
                aggregate_into(&a.view(), &x, SparseReduce::Mean, true, &mut out).unwrap();
                out
            });
            assert_eq!(agg, ref_agg, "aggregate threads={threads}");
        }
    }

    #[test]
    fn degree_buckets_cover_every_row_once() {
        let a = small_graph();
        let b = DegreeBuckets::new(a.view().offsets());
        assert_eq!(b.rows(), 4);
        assert_eq!(b.nnz(), 3);
        let mut seen: Vec<u32> = b.schedule().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let total: usize = b.histogram().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        // Heaviest class first: row 0 (degree 2) precedes the empty rows.
        assert_eq!(b.schedule()[0], 0);
    }

    #[test]
    fn degree_buckets_tiles_partition_schedule() {
        let offsets: Vec<usize> = (0..=200).collect(); // degree 1 everywhere
        let b = DegreeBuckets::new(&offsets);
        assert_eq!(b.num_tiles(), 200usize.div_ceil(ROW_TILE));
        let mut rows = Vec::new();
        for t in 0..b.num_tiles() {
            rows.extend_from_slice(b.tile_rows(t));
        }
        assert_eq!(rows.len(), 200);
    }

    #[test]
    fn empty_feature_width_is_a_no_op() {
        let a = small_graph();
        let x = Matrix::zeros(4, 0);
        let mut out = Matrix::zeros(4, 0);
        assert!(spmm_into(&a.view(), &x, &mut out).is_ok());
        assert!(aggregate_into(&a.view(), &x, SparseReduce::Sum, true, &mut out).is_ok());
    }
}
