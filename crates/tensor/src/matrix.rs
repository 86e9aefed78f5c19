//! Row-major dense `f64` matrix.
//!
//! [`Matrix`] is deliberately small: the reference executors in `phox-nn`
//! and the analog forward passes in `phox-tron`/`phox-ghost` only need
//! construction, element access, matmul, transpose, and element-wise
//! arithmetic. All fallible operations return [`TensorError`] rather than
//! panicking so that workload sweeps can skip infeasible shapes gracefully.

use std::error::Error;
use std::fmt;

/// Error type for shape and argument validation in `phox-tensor`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes. Holds `(lhs, rhs)` as
    /// `(rows, cols)` pairs.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// A dimension argument was zero or otherwise invalid.
    InvalidDimension {
        /// Human-readable description of which dimension was invalid.
        what: &'static str,
    },
    /// The provided buffer length did not match `rows * cols`.
    LengthMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Actual number of elements provided.
        actual: usize,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending `(row, col)` index.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
    /// A numeric routine failed to converge (e.g. Jacobi eigensolver).
    NoConvergence {
        /// Which routine failed.
        what: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The matrix was expected to be symmetric but was not.
    NotSymmetric,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs } => write!(
                f,
                "shape mismatch: {}x{} is incompatible with {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimension { what } => {
                write!(f, "invalid dimension: {what}")
            }
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer length mismatch: expected {expected} elements, got {actual}"
            ),
            TensorError::IndexOutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
            TensorError::NoConvergence { what, iterations } => {
                write!(f, "{what} did not converge after {iterations} iterations")
            }
            TensorError::NotSymmetric => write!(f, "matrix is not symmetric"),
        }
    }
}

impl Error for TensorError {}

/// A row-major dense matrix of `f64` values.
///
/// # Example
///
/// ```
/// use phox_tensor::Matrix;
///
/// # fn main() -> Result<(), phox_tensor::TensorError> {
/// let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.transpose().shape(), (3, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// A zero-sized matrix (0 rows or 0 cols) is permitted and behaves as
    /// an empty operand.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `rows` is empty and
    /// [`TensorError::LengthMismatch`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, TensorError> {
        if rows.is_empty() {
            return Err(TensorError::InvalidDimension {
                what: "from_rows requires at least one row",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::LengthMismatch {
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a column vector (`n x 1`) from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a row vector (`1 x n`) from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds; use [`Matrix::try_get`] for a
    /// fallible accessor.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Fallible element access.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn try_get(&self, row: usize, col: usize) -> Result<f64, TensorError> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            });
        }
        Ok(self.data[row * self.cols + col])
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies column `col` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column {col} out of bounds");
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// Underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Underlying row-major data as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// Delegates to [`crate::gemm::matmul`]: a register-blocked microkernel
    /// over `rhs` packed once into lane-major panels, split into row bands
    /// across threads for large products, or a transpose-free GEMV when
    /// `self` is a single row. Every output follows
    /// [`crate::gemm::simd::dot`]'s pinned 16-lane schedule, so the result
    /// is deterministic, dispatch-independent and independent of the
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        crate::gemm::matmul(self, rhs)
    }

    /// Returns the transpose (blocked copy, see
    /// [`crate::gemm::transpose_blocked`]).
    pub fn transpose(&self) -> Matrix {
        crate::gemm::transpose_blocked(self)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Combines two equal-shaped matrices element by element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with<F>(&self, rhs: &Matrix, mut f: F) -> Result<Matrix, TensorError>
    where
        F: FnMut(f64, f64) -> f64,
    {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F>(&self, mut f: F) -> Matrix
    where
        F: FnMut(f64) -> f64,
    {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F>(&mut self, mut f: F)
    where
        F: FnMut(f64) -> f64,
    {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Largest element (−∞ for an empty matrix).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element (+∞ for an empty matrix).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest absolute element value (0 for an empty matrix); NaN
    /// elements are ignored, as [`f64::max`] ignores them.
    pub fn abs_max(&self) -> f64 {
        abs_max::<16>(&self.data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `true` if `self` and `other` agree element-wise within `tol`
    /// (absolute difference).
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Horizontally concatenates `self` with `rhs` (same row count).
    ///
    /// Models the "buffer & concatenate" block of the MHA unit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the row counts differ.
    pub fn hconcat(&self, rhs: &Matrix) -> Result<Matrix, TensorError> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.data[r * out.cols..r * out.cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * out.cols + self.cols..(r + 1) * out.cols].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Extracts the column block `[col_start, col_end)` as a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the range is empty or
    /// exceeds the matrix width.
    pub fn col_slice(&self, col_start: usize, col_end: usize) -> Result<Matrix, TensorError> {
        if col_start >= col_end || col_end > self.cols {
            return Err(TensorError::InvalidDimension {
                what: "column slice range out of bounds",
            });
        }
        let w = col_end - col_start;
        let mut out = Matrix::zeros(self.rows, w);
        for r in 0..self.rows {
            out.data[r * w..(r + 1) * w]
                .copy_from_slice(&self.data[r * self.cols + col_start..r * self.cols + col_end]);
        }
        Ok(out)
    }

    /// `true` if the matrix is square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Largest absolute value of `values` (0 when empty), NaNs ignored:
/// `LANES` independent lanes, then one fold over the lanes and the tail.
/// `max` is exact and, with NaNs ignored, order-free, so this equals the
/// serial fold bit for bit at any lane count; the lanes let it
/// vectorize. A whole matrix folds 16 lanes; a short row (the per-row
/// quantizer's) 8, two AVX2 registers.
#[inline(always)]
pub(crate) fn abs_max<const LANES: usize>(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            // `f64::max` for a lane that is never NaN: a NaN `|v|`
            // compares false and keeps the lane. This form is one `maxpd`.
            let a = v.abs();
            *lane = if a > *lane { a } else { *lane };
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    lanes.into_iter().fold(tail, f64::max)
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let c = a.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 5.0);
        assert_eq!(t.get(1, 0), 2.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        let s = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(s.approx_eq(&a, 1e-12));
    }

    #[test]
    fn hconcat_widths_add() {
        let a = Matrix::filled(2, 3, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.get(0, 2), 1.0);
        assert_eq!(c.get(0, 3), 2.0);
    }

    #[test]
    fn hconcat_row_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        assert!(a.hconcat(&b).is_err());
    }

    #[test]
    fn col_slice_extracts_block() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]).unwrap();
        let s = a.col_slice(1, 3).unwrap();
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 3.0], &[6.0, 7.0]]).unwrap());
    }

    #[test]
    fn col_slice_bad_range_errors() {
        let a = Matrix::zeros(2, 4);
        assert!(a.col_slice(3, 3).is_err());
        assert!(a.col_slice(2, 5).is_err());
    }

    #[test]
    fn from_vec_length_mismatch() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn from_rows_ragged_errors() {
        let r0: &[f64] = &[1.0, 2.0];
        let r1: &[f64] = &[3.0];
        assert!(Matrix::from_rows(&[r0, r1]).is_err());
    }

    #[test]
    fn symmetry_detection() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn norms_and_reductions() {
        let a = Matrix::from_vec(1, 3, vec![3.0, -4.0, 0.0]).unwrap();
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.abs_max(), 4.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert_eq!(a.sum(), -1.0);
    }

    #[test]
    fn abs_max_lanes_equal_the_serial_fold_and_ignore_nan() {
        // Random bit patterns include NaNs, infinities and subnormals.
        let mut rng = crate::Prng::new(5);
        for len in [0, 1, 7, 31, 32, 33, 64, 100, 1001] {
            let v: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.next_u64())).collect();
            let serial = v.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            assert_eq!(abs_max::<16>(&v).to_bits(), serial.to_bits(), "len={len}");
            assert_eq!(abs_max::<8>(&v).to_bits(), serial.to_bits(), "len={len}");
        }
        assert_eq!(abs_max::<16>(&[f64::NAN, -2.0, f64::NAN]), 2.0);
        assert_eq!(abs_max::<16>(&[f64::NAN; 9]).to_bits(), 0.0f64.to_bits());
        assert_eq!(abs_max::<8>(&[f64::NAN; 9]).to_bits(), 0.0f64.to_bits());
        assert_eq!(abs_max::<16>(&[-0.0; 11]).to_bits(), 0.0f64.to_bits());
        assert_eq!(abs_max::<16>(&[-0.0, f64::NEG_INFINITY]), f64::INFINITY);
    }

    #[test]
    fn try_get_bounds() {
        let a = Matrix::zeros(2, 2);
        assert!(a.try_get(1, 1).is_ok());
        assert!(matches!(
            a.try_get(2, 0),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(10, 10);
        let s = format!("{a}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains('…'));
    }
}
