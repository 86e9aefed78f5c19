//! Symmetric int8 post-training quantization.
//!
//! §VI of the paper: *"employing 8-bit model quantization yields algorithmic
//! accuracy comparable to models utilizing full (32-bit) precision.
//! Consequently, we focused on the acceleration of Transformer and GNN
//! models with 8-bit precision."*
//!
//! Both accelerators therefore operate on 8-bit operands: DACs drive MR
//! tuning circuits with 8-bit resolution and the photodetector/ADC chain
//! must sustain ≥ 8 effective bits (see `phox-photonics::noise`). This
//! module provides the digital reference against which the analog photonic
//! datapath is validated.

use crate::{gemm_i8, Matrix, TensorError};

/// A symmetric linear quantizer mapping `f64` values to `i8`.
///
/// `q = clamp(round(x / scale), -127, 127)`, `x̂ = q * scale`.
/// The symmetric scheme (no zero-point) matches what an amplitude-encoded
/// photonic datapath can represent: magnitudes on the optical signal with
/// sign handled by the balanced-photodetector positive/negative arms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    scale: f64,
}

impl Quantizer {
    /// Creates a quantizer with an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `scale` is not a
    /// positive finite number.
    pub fn with_scale(scale: f64) -> Result<Self, TensorError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TensorError::InvalidDimension {
                what: "quantizer scale must be positive and finite",
            });
        }
        Ok(Quantizer { scale })
    }

    /// Calibrates a quantizer to cover `[-absmax, absmax]` of the given
    /// tensor (per-tensor symmetric calibration).
    ///
    /// A tensor that is entirely zero gets scale 1.0 so that quantization
    /// remains the identity on it.
    pub fn calibrate(m: &Matrix) -> Self {
        Quantizer::from_abs_max(m.abs_max())
    }

    /// The quantizer [`Quantizer::calibrate`] returns for a tensor whose
    /// largest magnitude is `absmax`.
    pub fn from_abs_max(absmax: f64) -> Self {
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        Quantizer { scale }
    }

    /// The quantization step size.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantizes a single value.
    #[inline]
    pub fn quantize_value(&self, x: f64) -> i8 {
        /// `1.5 · 2⁵²`: adding it to an integer of magnitude below 2⁵¹
        /// is exact and leaves the integer's two's complement in the low
        /// bits of the sum.
        const LOW_BITS: f64 = 6_755_399_441_055_744.0;
        let q = (x / self.scale).round();
        // `q.clamp(-127.0, 127.0) as i8`, in a form whose loop
        // vectorizes (the saturating cast's does not): a NaN level
        // becomes 0, as the cast makes it.
        let q = if q.is_nan() {
            0.0
        } else {
            q.clamp(-127.0, 127.0)
        };
        (q + LOW_BITS).to_bits() as i8
    }

    /// Dequantizes a single level.
    pub fn dequantize_value(&self, q: i8) -> f64 {
        q as f64 * self.scale
    }

    /// Quantizes a whole matrix.
    pub fn quantize(&self, m: &Matrix) -> QuantMatrix {
        let mut data = Vec::with_capacity(m.len());
        self.quantize_into(m.as_slice(), &mut data);
        QuantMatrix {
            rows: m.rows(),
            cols: m.cols(),
            scale: self.scale,
            data,
        }
    }

    /// Appends the codes of `values` to `out`, each exactly
    /// [`Quantizer::quantize_value`]. Where the int8 kernels are
    /// dispatched ([`gemm_i8::simd_active`]) the loop is compiled for
    /// AVX2, so LLVM inlines `round` as `trunc(x + copysign(pred(0.5),
    /// x))` — exact for every input, NaN and ±∞ included — and
    /// vectorizes it; otherwise each element makes an out-of-line call
    /// to the `round` linked statically into the binary.
    fn quantize_into(&self, values: &[f64], out: &mut Vec<i8>) {
        #[cfg(target_arch = "x86_64")]
        if gemm_i8::simd_active() {
            // SAFETY: `simd_active` is true only where AVX2 is available.
            unsafe { self.quantize_into_avx2(values, out) };
            return;
        }
        self.quantize_loop(values, out);
    }

    #[inline(always)]
    fn quantize_loop(&self, values: &[f64], out: &mut Vec<i8>) {
        out.extend(values.iter().map(|&v| self.quantize_value(v)));
    }

    /// [`Quantizer::quantize_loop`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_into_avx2(&self, values: &[f64], out: &mut Vec<i8>) {
        self.quantize_loop(values, out);
    }
}

/// An int8 matrix with its quantization scale.
///
/// # Example
///
/// ```
/// use phox_tensor::{Matrix, Quantizer};
///
/// # fn main() -> Result<(), phox_tensor::TensorError> {
/// let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25]])?;
/// let q = Quantizer::calibrate(&x).quantize(&x);
/// let back = q.dequantize();
/// assert!(back.approx_eq(&x, q.scale()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    scale: f64,
    data: Vec<i8>,
}

impl QuantMatrix {
    /// Builds a quantized matrix from raw levels and an explicit scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` is not
    /// `rows * cols` and [`TensorError::InvalidDimension`] when `scale` is
    /// not a positive finite number.
    pub fn from_levels(
        rows: usize,
        cols: usize,
        scale: f64,
        data: Vec<i8>,
    ) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        let q = Quantizer::with_scale(scale)?;
        Ok(QuantMatrix {
            rows,
            cols,
            scale: q.scale(),
            data,
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

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Quantization step size.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Raw int8 data (row-major).
    pub fn as_i8_slice(&self) -> &[i8] {
        &self.data
    }

    /// Level at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn level(&self, row: usize, col: usize) -> i8 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Reconstructs the floating-point matrix.
    pub fn dequantize(&self) -> Matrix {
        let data = self.data.iter().map(|&q| q as f64 * self.scale).collect();
        Matrix::from_vec(self.rows, self.cols, data)
            .unwrap_or_else(|_| unreachable!("length is rows*cols by construction"))
    }

    fn check_inner(&self, rhs: &QuantMatrix) -> Result<(), TensorError> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(())
    }

    /// Integer matmul with `i32` accumulation, dequantized with the
    /// product of the two scales — exactly the arithmetic an 8-bit MAC
    /// array performs. Runs on the blocked SIMD kernel of
    /// [`crate::gemm_i8`]; bit-identical to [`QuantMatrix::matmul_naive`]
    /// for every thread count because integer sums are exact.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, rhs: &QuantMatrix) -> Result<Matrix, TensorError> {
        Ok(self.matmul_i32(rhs)?.dequantize(self.scale * rhs.scale))
    }

    /// The raw `i32` accumulator matrix of the integer product, before
    /// dequantization — what the MAC array hands to the ADC/requant stage.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul_i32(&self, rhs: &QuantMatrix) -> Result<I32Matrix, TensorError> {
        self.check_inner(rhs)?;
        let data = gemm_i8::matmul_i32(&self.data, &rhs.data, self.rows, self.cols, rhs.cols)?;
        Ok(I32Matrix {
            rows: self.rows,
            cols: rhs.cols,
            data,
        })
    }

    /// Naive integer matmul with a plain `i32` row accumulator — the
    /// oracle [`QuantMatrix::matmul`] is property-tested against. Exactly
    /// equal (not approximately) to the fast path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul_naive(&self, rhs: &QuantMatrix) -> Result<Matrix, TensorError> {
        self.check_inner(rhs)?;
        let data =
            gemm_i8::matmul_i32_naive(&self.data, &rhs.data, self.rows, self.cols, rhs.cols)?;
        let out = I32Matrix {
            rows: self.rows,
            cols: rhs.cols,
            data,
        };
        Ok(out.dequantize(self.scale * rhs.scale))
    }
}

/// Raw `i32` accumulator sums of an int8 matrix product, with the shape
/// they describe. Dequantized with the product of the operand scales.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct I32Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl I32Matrix {
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

    /// Raw accumulator data (row-major).
    pub fn as_i32_slice(&self) -> &[i32] {
        &self.data
    }

    /// Converts the integer sums to f64 with the given combined scale.
    pub fn dequantize(&self, scale: f64) -> Matrix {
        let data = self.data.iter().map(|&v| v as f64 * scale).collect();
        Matrix::from_vec(self.rows, self.cols, data)
            .unwrap_or_else(|_| unreachable!("length is rows*cols by construction"))
    }
}

/// An int8 activation matrix with *per-row* (per-token, dynamic)
/// quantization scales.
///
/// Per-tensor calibration makes every row's scale depend on the absmax
/// over the whole batch, so the quantized value of one token changes
/// when other tokens are present — which breaks the KV-decode
/// equivalence oracle (a one-row decode step could never reproduce the
/// full forward bit-for-bit). Per-row calibration makes each row
/// self-contained: its levels and scale are functions of that row
/// alone, so a row's int8 product is independent of batch composition.
/// This is the standard per-token dynamic activation scheme; weights
/// stay per-tensor ([`QuantMatrix`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RowQuantMatrix {
    scales: Vec<f64>,
    data: Vec<i8>,
}

impl RowQuantMatrix {
    /// Calibrates and quantizes each row of `m` independently
    /// (symmetric; an all-zero row gets scale 1.0, like
    /// [`Quantizer::calibrate`]), each code exactly
    /// [`Quantizer::quantize_value`] at its row's scale. One pass
    /// computes every row's scale and a second every code, so the scale
    /// divides of neighbouring rows overlap. Where the int8 kernels are
    /// dispatched ([`gemm_i8::simd_active`]) both passes run in one body
    /// compiled for AVX2, dispatched once per matrix, as
    /// [`Quantizer::quantize`]'s loop is.
    pub fn quantize_rows(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        if cols == 0 {
            return RowQuantMatrix {
                scales: vec![1.0; rows],
                data: Vec::new(),
            };
        }
        #[cfg(target_arch = "x86_64")]
        if gemm_i8::simd_active() {
            // SAFETY: `simd_active` is true only where AVX2 is available.
            return unsafe { Self::quantize_rows_avx2(m.as_slice(), cols) };
        }
        Self::quantize_rows_loop(m.as_slice(), cols)
    }

    /// The two passes of [`RowQuantMatrix::quantize_rows`] over rows of
    /// `cols > 0` values.
    #[inline(always)]
    fn quantize_rows_loop(values: &[f64], cols: usize) -> Self {
        // Plain loops over preallocated buffers, not `collect`: an
        // iterator adapter's out-of-line fold would not be compiled for
        // AVX2 with the rest of the body.
        let mut scales = vec![0.0; values.len() / cols];
        for (scale, row) in scales.iter_mut().zip(values.chunks_exact(cols)) {
            let absmax = crate::matrix::abs_max::<8>(row);
            *scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        }
        let mut data = vec![0i8; values.len()];
        let rows = values.chunks_exact(cols).zip(data.chunks_exact_mut(cols));
        for ((row, codes), &scale) in rows.zip(&scales) {
            let q = Quantizer { scale };
            for (code, &v) in codes.iter_mut().zip(row) {
                *code = q.quantize_value(v);
            }
        }
        RowQuantMatrix { scales, data }
    }

    /// [`RowQuantMatrix::quantize_rows_loop`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_rows_avx2(values: &[f64], cols: usize) -> Self {
        Self::quantize_rows_loop(values, cols)
    }

    /// Per-row quantization step sizes.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// Raw int8 data (row-major).
    pub fn as_i8_slice(&self) -> &[i8] {
        &self.data
    }
}

/// Quantizes with per-tensor calibration and immediately dequantizes —
/// the "fake quantization" used to evaluate 8-bit accuracy in fp64
/// reference models.
pub fn fake_quantize(m: &Matrix) -> Matrix {
    Quantizer::calibrate(m).quantize(m).dequantize()
}

/// Maximum absolute quantization error for a calibrated quantizer over a
/// tensor: at most half a step.
pub fn max_quant_error(m: &Matrix) -> f64 {
    let fq = fake_quantize(m);
    m.sub(&fq)
        .unwrap_or_else(|_| unreachable!("fake-quantized copy shares the shape"))
        .abs_max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let m = Matrix::from_rows(&[&[0.3, -0.7, 1.0, -1.0, 0.0]]).unwrap();
        let q = Quantizer::calibrate(&m);
        assert!(max_quant_error(&m) <= q.scale() / 2.0 + 1e-15);
    }

    #[test]
    fn calibrate_covers_absmax_exactly() {
        let m = Matrix::from_rows(&[&[-2.54, 1.0]]).unwrap();
        let q = Quantizer::calibrate(&m);
        assert_eq!(q.quantize_value(-2.54), -127);
        assert_eq!(q.quantize_value(2.54), 127);
    }

    #[test]
    fn zero_tensor_is_identity() {
        let m = Matrix::zeros(3, 3);
        assert!(fake_quantize(&m).approx_eq(&m, 0.0));
    }

    #[test]
    fn with_scale_rejects_bad_scale() {
        assert!(Quantizer::with_scale(0.0).is_err());
        assert!(Quantizer::with_scale(-1.0).is_err());
        assert!(Quantizer::with_scale(f64::NAN).is_err());
        assert!(Quantizer::with_scale(1e-3).is_ok());
    }

    #[test]
    fn clamping_to_127() {
        let q = Quantizer::with_scale(0.1).unwrap();
        assert_eq!(q.quantize_value(1e9), 127);
        assert_eq!(q.quantize_value(-1e9), -127);
    }

    #[test]
    fn int_matmul_matches_float_matmul_within_quant_error() {
        let a = Matrix::from_rows(&[&[0.5, -0.25], &[1.0, 0.75]]).unwrap();
        let b = Matrix::from_rows(&[&[0.1, 0.2], &[-0.3, 0.4]]).unwrap();
        let qa = Quantizer::calibrate(&a).quantize(&a);
        let qb = Quantizer::calibrate(&b).quantize(&b);
        let approx = qa.matmul(&qb).unwrap();
        let exact = a.matmul(&b).unwrap();
        // Error bound: k * (sa*|b|max + sb*|a|max) / 2-ish; loose check.
        assert!(approx.approx_eq(&exact, 0.02), "{approx} vs {exact}");
    }

    #[test]
    fn fast_matmul_equals_naive_oracle_exactly() {
        let mut rng = crate::Prng::new(42);
        for (m, k, n) in [(1, 1, 1), (3, 5, 4), (17, 33, 9)] {
            let a = rng.fill_uniform(m, k, -2.0, 2.0);
            let b = rng.fill_uniform(k, n, -1.0, 1.0);
            let qa = Quantizer::calibrate(&a).quantize(&a);
            let qb = Quantizer::calibrate(&b).quantize(&b);
            let fast = qa.matmul(&qb).unwrap();
            let naive = qa.matmul_naive(&qb).unwrap();
            // Integer sums are exact: bitwise equality, not a tolerance.
            assert_eq!(fast, naive, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn from_levels_roundtrip_and_validation() {
        let q = QuantMatrix::from_levels(2, 2, 0.5, vec![1, -2, 3, 127]).unwrap();
        assert_eq!(q.level(1, 1), 127);
        assert_eq!(q.dequantize().get(0, 1), -1.0);
        assert!(QuantMatrix::from_levels(2, 2, 0.5, vec![1]).is_err());
        assert!(QuantMatrix::from_levels(1, 1, 0.0, vec![1]).is_err());
        assert!(QuantMatrix::from_levels(1, 1, f64::NAN, vec![1]).is_err());
    }

    #[test]
    fn dispatched_quantizer_equals_libm_round_per_element() {
        // Exact halves and their neighbours, ±0, ±∞, NaN, subnormals,
        // huge integers and random bit patterns, at unit scale and two
        // awkward ones; the reference calls libm `round` per element
        // and casts with saturation. A row holding ±∞ gets an infinite
        // scale.
        let mut values = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 3.0,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            4_503_599_627_370_497.0,
            -9_007_199_254_740_993.0,
        ];
        for h in -140..140 {
            let x = f64::from(h) + 0.5;
            values.extend([
                x,
                f64::from_bits(x.to_bits() + 1),
                f64::from_bits(x.to_bits() - 1),
            ]);
        }
        let mut rng = crate::Prng::new(9);
        values.extend((0..4096).map(|_| f64::from_bits(rng.next_u64())));
        let m =
            Matrix::from_vec(4, values.len() / 4, values[..values.len() / 4 * 4].to_vec()).unwrap();
        // The textbook form of `quantize_value`, saturating cast and all.
        let code = |v: f64, scale: f64| (v / scale).round().clamp(-127.0, 127.0) as i8;
        for scale in [1.0, 0.1, 3.7e-3] {
            let q = Quantizer::with_scale(scale).unwrap();
            let want: Vec<i8> = m.as_slice().iter().map(|&v| code(v, scale)).collect();
            let single: Vec<i8> = m.as_slice().iter().map(|&v| q.quantize_value(v)).collect();
            assert_eq!(single, want, "scale={scale}");
            assert_eq!(q.quantize(&m).as_i8_slice(), &want[..], "scale={scale}");
        }
        // Per-row calibration gives each row's codes at its own scale.
        let rows = RowQuantMatrix::quantize_rows(&m);
        for (r, &scale) in rows.scales().iter().enumerate() {
            let absmax = m.row(r).iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
            assert_eq!(scale, if absmax > 0.0 { absmax / 127.0 } else { 1.0 });
            let want: Vec<i8> = m.row(r).iter().map(|&v| code(v, scale)).collect();
            assert_eq!(
                &rows.as_i8_slice()[r * m.cols()..(r + 1) * m.cols()],
                &want[..]
            );
        }
    }

    #[test]
    fn matmul_i32_exposes_raw_sums() {
        let a = QuantMatrix::from_levels(1, 2, 1.0, vec![3, -4]).unwrap();
        let b = QuantMatrix::from_levels(2, 1, 1.0, vec![5, 6]).unwrap();
        let s = a.matmul_i32(&b).unwrap();
        assert_eq!(s.shape(), (1, 1));
        assert_eq!(s.as_i32_slice(), &[3 * 5 - 4 * 6]);
        assert_eq!(s.dequantize(2.0).get(0, 0), -18.0);
    }

    #[test]
    fn int_matmul_shape_mismatch() {
        let a = Quantizer::with_scale(1.0)
            .unwrap()
            .quantize(&Matrix::zeros(2, 3));
        let b = Quantizer::with_scale(1.0)
            .unwrap()
            .quantize(&Matrix::zeros(2, 3));
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn dequantize_shape_preserved() {
        let m = Matrix::zeros(4, 5);
        let q = Quantizer::calibrate(&m).quantize(&m);
        assert_eq!(q.dequantize().shape(), (4, 5));
        assert_eq!(q.shape(), (4, 5));
    }

    #[test]
    fn row_quant_rows_are_batch_independent() {
        // The decode-oracle property: quantizing a row alone gives the
        // same levels and scale as quantizing it inside a larger batch.
        let mut rng = crate::Prng::new(44);
        let batch = rng.fill_uniform(5, 8, -3.0, 3.0);
        let q_batch = RowQuantMatrix::quantize_rows(&batch);
        for r in 0..5 {
            let alone = Matrix::from_vec(1, 8, batch.row(r).to_vec()).unwrap();
            let q_alone = RowQuantMatrix::quantize_rows(&alone);
            assert_eq!(q_alone.scales()[0], q_batch.scales()[r]);
            assert_eq!(
                q_alone.as_i8_slice(),
                &q_batch.as_i8_slice()[r * 8..(r + 1) * 8]
            );
        }
    }

    #[test]
    fn row_quant_zero_row_is_identity_scale() {
        let x = Matrix::zeros(2, 3);
        let q = RowQuantMatrix::quantize_rows(&x);
        assert_eq!(q.scales(), &[1.0, 1.0]);
        assert!(q.as_i8_slice().iter().all(|&v| v == 0));
    }

    #[test]
    fn levels_are_symmetric() {
        let m = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let q = Quantizer::calibrate(&m).quantize(&m);
        assert_eq!(q.level(0, 0), 127);
        assert_eq!(q.level(0, 1), -127);
    }
}

/// A symmetric linear quantizer with configurable bit width, used by the
/// precision-sensitivity analyses (the heterogeneous-quantization
/// direction of the CrossLight/SONIC line of work the paper builds on).
///
/// `levels = 2^(bits−1) − 1`; `q = clamp(round(x/scale), −levels, levels)`.
/// [`Quantizer`] is the fixed 8-bit special case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitQuantizer {
    scale: f64,
    bits: u32,
}

impl BitQuantizer {
    /// Calibrates a `bits`-wide quantizer to cover `[-absmax, absmax]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for `bits` outside
    /// `2..=16`.
    pub fn calibrate(m: &Matrix, bits: u32) -> Result<Self, TensorError> {
        if !(2..=16).contains(&bits) {
            return Err(TensorError::InvalidDimension {
                what: "bit width must be in 2..=16",
            });
        }
        let absmax = m.abs_max();
        let levels = Self::levels_for(bits) as f64;
        let scale = if absmax > 0.0 { absmax / levels } else { 1.0 };
        Ok(BitQuantizer { scale, bits })
    }

    fn levels_for(bits: u32) -> i64 {
        (1i64 << (bits - 1)) - 1
    }

    /// The quantization step size.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of positive levels.
    pub fn levels(&self) -> i64 {
        Self::levels_for(self.bits)
    }

    /// Quantizes a single value to its level index.
    pub fn quantize_value(&self, x: f64) -> i64 {
        let levels = self.levels() as f64;
        (x / self.scale).round().clamp(-levels, levels) as i64
    }

    /// Dequantizes a level index.
    pub fn dequantize_value(&self, q: i64) -> f64 {
        q as f64 * self.scale
    }

    /// Quantize-then-dequantize a whole matrix ("fake quantization").
    pub fn fake_quantize(&self, m: &Matrix) -> Matrix {
        m.map(|v| self.dequantize_value(self.quantize_value(v)))
    }
}

/// Fake quantization at an arbitrary bit width with per-tensor
/// calibration.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] for `bits` outside `2..=16`.
pub fn fake_quantize_bits(m: &Matrix, bits: u32) -> Result<Matrix, TensorError> {
    Ok(BitQuantizer::calibrate(m, bits)?.fake_quantize(m))
}

#[cfg(test)]
mod bit_tests {
    use super::*;

    #[test]
    fn eight_bit_matches_fixed_quantizer() {
        // Bit for bit, not within a tolerance: fake quantization at 8
        // bits stands in for the fixed 8-bit quantizer. Random matrices
        // at three scales, exact half-steps of a 127-level grid, ±0,
        // ±∞, NaN and an all-zero matrix.
        let mut rng = crate::Prng::new(11);
        let mut cases: Vec<Matrix> = [1e-3, 1.0, 1e3]
            .iter()
            .map(|&s| rng.fill_normal(7, 9, 0.0, s))
            .collect();
        // absmax 127 makes the step exactly 1.
        let mut halves: Vec<f64> = (-127..127).map(|h| f64::from(h) + 0.5).collect();
        halves.push(127.0);
        cases.push(Matrix::from_vec(3, 85, halves).unwrap());
        cases.push(Matrix::from_rows(&[&[0.0, -0.0, 0.3, -0.7, 1.0, -1.0, 0.05]]).unwrap());
        cases.push(Matrix::from_rows(&[&[f64::INFINITY, 1.0, f64::NEG_INFINITY, -0.0]]).unwrap());
        cases.push(Matrix::from_rows(&[&[f64::NAN, 0.5, -2.0, 0.0]]).unwrap());
        cases.push(Matrix::zeros(3, 4));
        for m in &cases {
            let generic = fake_quantize_bits(m, 8).unwrap();
            let fixed = fake_quantize(m);
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&generic), bits(&fixed), "{m:?}");
        }
    }

    #[test]
    fn error_halves_per_extra_bit() {
        let mut rng = crate::Prng::new(1);
        let m = rng.fill_uniform(8, 8, -1.0, 1.0);
        let mut last = f64::INFINITY;
        for bits in [2u32, 4, 6, 8, 10] {
            let fq = fake_quantize_bits(&m, bits).unwrap();
            let err = m.sub(&fq).unwrap().abs_max();
            assert!(err < last, "error should shrink with bits");
            // Bound: half a step.
            let q = BitQuantizer::calibrate(&m, bits).unwrap();
            assert!(err <= q.scale() / 2.0 + 1e-12);
            last = err;
        }
    }

    #[test]
    fn level_bounds_respected() {
        let m = Matrix::from_rows(&[&[5.0, -5.0]]).unwrap();
        let q = BitQuantizer::calibrate(&m, 4).unwrap();
        assert_eq!(q.levels(), 7);
        assert_eq!(q.quantize_value(5.0), 7);
        assert_eq!(q.quantize_value(-9.0), -7);
    }

    #[test]
    fn invalid_bit_widths_rejected() {
        let m = Matrix::zeros(2, 2);
        assert!(fake_quantize_bits(&m, 1).is_err());
        assert!(fake_quantize_bits(&m, 17).is_err());
        assert!(fake_quantize_bits(&m, 2).is_ok());
    }

    #[test]
    fn zero_matrix_identity() {
        let m = Matrix::zeros(3, 3);
        assert!(fake_quantize_bits(&m, 4).unwrap().approx_eq(&m, 0.0));
    }
}
