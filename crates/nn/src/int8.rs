//! True int8 execution for the reference models.
//!
//! The fake-quantization paths (`forward_quantized`) inject 8-bit
//! rounding error into an otherwise f64 forward pass — the right tool
//! for *accuracy* analysis, but every product still runs through the
//! f64 GEMM. This module executes the matmuls the way the 8-bit
//! photonic MAC array does: operands quantized to `i8`, products
//! accumulated exactly in `i32` on the [`phox_tensor::gemm_i8`] kernel,
//! one dequantization at the output ([`QuantLinear`]).
//!
//! Attention softmax, LayerNorm, residual adds and GAT attention
//! coefficients stay in f64: on the accelerator those live in the
//! digital/LUT periphery, not on the optical MAC array, so the int8
//! forward quantizes exactly the operands the photonic datapath sees.
//!
//! The [`MatmulEngine`] trait is the seam the model forwards are written
//! against: [`F64Engine`] multiplies the operands where they lie,
//! [`PreEngine`] reproduces the fake-quant semantics bit-for-bit
//! (including which operand sites the fake-quant reference treats), and
//! [`Int8Engine`] routes every projection through the integer kernel,
//! quantizing the weight on every call.
//!
//! A KV-cached decode step multiplies one activation row by the same
//! weights on every token, so [`crate::decode::Int8Decoder`] quantizes
//! each weight once, when it is built, and keeps it as a [`PackedLinear`]:
//! codes packed as the int8 microkernel's panels plus a scale, multiplied
//! one row high by [`phox_tensor::gemm_i8::matmul_packed`]. Weight
//! quantization is deterministic and integer sums are exact, so the
//! packed product is bit-identical to [`Int8Engine`]'s.

use phox_tensor::{gemm_i8, Matrix, QuantMatrix, Quantizer, RowQuantMatrix, TensorError};

/// A linear layer with a pre-quantized int8 weight: quantizes the
/// incoming activation, multiplies on the int8 kernel with `i32`
/// accumulation, and dequantizes with the product of the two scales.
///
/// # Example
///
/// ```
/// use phox_nn::int8::QuantLinear;
/// use phox_tensor::Prng;
///
/// # fn main() -> Result<(), phox_tensor::TensorError> {
/// let w = Prng::new(1).xavier(16, 8);
/// let x = Prng::new(2).fill_normal(4, 16, 0.0, 1.0);
/// let layer = QuantLinear::from_weight(&w);
/// let y = layer.forward(&x)?;
/// let exact = x.matmul(&w)?;
/// assert!(phox_tensor::stats::relative_error(&exact, &y) < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLinear {
    qw: QuantMatrix,
}

impl QuantLinear {
    /// Quantizes `w` once (per-tensor symmetric calibration); the weight
    /// stays resident in int8 form, as on the accelerator.
    pub fn from_weight(w: &Matrix) -> Self {
        QuantLinear {
            qw: Quantizer::calibrate(w).quantize(w),
        }
    }

    /// The stored int8 weight.
    pub fn weight(&self) -> &QuantMatrix {
        &self.qw
    }

    /// `x · W` on the int8 kernel: `x` is quantized per call (activations
    /// change every step; weights were quantized once).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols()` differs
    /// from the weight's row count.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        let qx = Quantizer::calibrate(x).quantize(x);
        qx.matmul(&self.qw)
    }

    /// `x · W` with *per-row* (per-token, dynamic) activation
    /// calibration: each row of `x` is quantized against its own absmax,
    /// so a row's result is independent of which other rows share the
    /// batch. This is what makes a one-token KV-cached decode step
    /// reproduce the full-sequence int8 forward bit-for-bit; see
    /// [`phox_tensor::RowQuantMatrix`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols()` differs
    /// from the weight's row count.
    pub fn forward_rowwise(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        RowQuantMatrix::quantize_rows(x).matmul(&self.qw)
    }
}

/// How a model forward pass executes its weight products. The two
/// methods distinguish the operand sites of the legacy fake-quant
/// reference: `mm` covers projections where *both* operands are treated
/// (Q/K/V, cross-attention, GNN combine), `mm_weight_only` the sites
/// where the reference only treats the weight (attention output
/// projection and the feed-forward block, whose activations come out of
/// LayerNorm/softmax already conditioned).
pub(crate) trait MatmulEngine {
    /// Product with both operands through the engine's precision model.
    fn mm(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError>;

    /// Product where the legacy reference treats only the weight.
    fn mm_weight_only(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError>;

    /// Whether GNN aggregation should run on the int8 sparse kernel.
    fn int8_aggregation(&self) -> bool {
        false
    }
}

/// Full precision: both sites are a plain f64 product over the operands
/// as they lie — no copy, so a single-row product reads each weight in
/// place through the GEMV of [`phox_tensor::gemm::matmul`].
pub(crate) struct F64Engine;

impl MatmulEngine for F64Engine {
    fn mm(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        a.matmul(w)
    }

    fn mm_weight_only(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        a.matmul(w)
    }
}

/// The fake-quant engine: applies a `pre` map
/// ([`phox_tensor::quant::fake_quantize`] or a bit-width variant of it
/// for the accuracy references) to operands, preserving the historical
/// call-site semantics exactly.
pub(crate) struct PreEngine<'a> {
    pub pre: &'a dyn Fn(&Matrix) -> Matrix,
}

impl MatmulEngine for PreEngine<'_> {
    fn mm(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        (self.pre)(a).matmul(&(self.pre)(w))
    }

    fn mm_weight_only(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        a.matmul(&(self.pre)(w))
    }
}

/// True int8 execution: every weight product runs through
/// [`QuantLinear`] — both operands quantized, exact `i32` accumulation —
/// and GNN aggregation uses the int8 sparse kernel. The hardware model
/// has no "weight-only" sites: everything entering the MAC array is
/// 8-bit.
///
/// Activations are calibrated *per row* (per-token dynamic
/// quantization): each token's levels depend only on that token, so a
/// one-row decode step through this engine is bit-identical to the
/// corresponding row of a full-sequence forward — the property the
/// KV-cache equivalence oracle in `phox_nn::decode` pins. Weights stay
/// per-tensor.
pub(crate) struct Int8Engine;

impl MatmulEngine for Int8Engine {
    fn mm(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        QuantLinear::from_weight(w).forward_rowwise(a)
    }

    fn mm_weight_only(&self, a: &Matrix, w: &Matrix) -> Result<Matrix, TensorError> {
        self.mm(a, w)
    }

    fn int8_aggregation(&self) -> bool {
        true
    }
}

/// A weight quantized once, per tensor as [`QuantLinear::from_weight`]
/// quantizes it, and kept as its codes packed into the int8
/// microkernel's [`gemm_i8::Panels`] plus its scale, for the single-row
/// products of a KV-cached decode step. One row through it is
/// bit-identical to the same row through [`Int8Engine`]: the same
/// levels, the same exact `i32` sums, and the same
/// `row_scale × weight_scale` dequantization.
pub(crate) struct PackedLinear {
    panels: gemm_i8::Panels,
    scale: f64,
}

impl PackedLinear {
    /// Quantizes the `k × n` weight `w` and packs its codes as panels.
    pub fn new(w: &Matrix) -> Self {
        let (k, n) = w.shape();
        let qw = Quantizer::calibrate(w).quantize(w);
        PackedLinear {
            panels: gemm_i8::Panels::pack(qw.as_i8_slice(), k, n),
            scale: qw.scale(),
        }
    }

    /// `x · W` for a single activation row `x` (`1 × k`), calibrated per
    /// row as [`QuantLinear::forward_rowwise`] calibrates it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `x` is `1 × k`.
    pub fn forward_row(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        let (k, n) = (self.panels.k(), self.panels.n());
        if x.rows() != 1 || x.cols() != k {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: (k, n),
            });
        }
        let qx = RowQuantMatrix::quantize_rows(x);
        let sums = gemm_i8::matmul_packed(qx.as_i8_slice(), &self.panels, 1)?;
        let scale = qx.scales()[0] * self.scale;
        Matrix::from_vec(1, n, sums.iter().map(|&s| s as f64 * scale).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::{quant, stats, Prng};

    #[test]
    fn quant_linear_matches_raw_kernel_exactly() {
        let w = Prng::new(1).xavier(16, 8);
        let x = Prng::new(2).fill_normal(4, 16, 0.0, 1.0);
        let layer = QuantLinear::from_weight(&w);
        let y = layer.forward(&x).unwrap();

        let qx = Quantizer::calibrate(&x).quantize(&x);
        let sums =
            gemm_i8::matmul_i32_naive(qx.as_i8_slice(), layer.weight().as_i8_slice(), 4, 16, 8)
                .unwrap();
        let scale = qx.scale() * layer.weight().scale();
        for (i, &s) in sums.iter().enumerate() {
            assert_eq!(y.get(i / 8, i % 8), s as f64 * scale);
        }
    }

    #[test]
    fn quant_linear_shape_mismatch() {
        let layer = QuantLinear::from_weight(&Matrix::zeros(3, 2));
        assert!(layer.forward(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn int8_engine_tracks_f64_product() {
        let a = Prng::new(3).fill_normal(6, 12, 0.0, 1.0);
        let w = Prng::new(4).xavier(12, 5);
        let exact = a.matmul(&w).unwrap();
        let int8 = Int8Engine.mm(&a, &w).unwrap();
        assert!(stats::relative_error(&exact, &int8) < 0.1);
        assert_eq!(int8, Int8Engine.mm_weight_only(&a, &w).unwrap());
    }

    #[test]
    fn forward_rowwise_rows_are_batch_independent() {
        // The decode-oracle property at the layer level: a row pushed
        // through alone equals the same row inside a batch, bit for bit.
        let w = Prng::new(7).xavier(12, 6);
        let x = Prng::new(8).fill_normal(5, 12, 0.0, 1.0);
        let layer = QuantLinear::from_weight(&w);
        let batch = layer.forward_rowwise(&x).unwrap();
        for r in 0..x.rows() {
            let alone = Matrix::from_vec(1, 12, x.row(r).to_vec()).unwrap();
            let solo = layer.forward_rowwise(&alone).unwrap();
            assert_eq!(solo.row(0), batch.row(r), "row {r}");
        }
    }

    #[test]
    fn packed_linear_matches_stateless_engine_bitwise() {
        // Inner dimensions around the 16/32-byte SIMD steps of the i8
        // dot, and a zero row (scale 1.0, all-zero codes).
        for (k, n) in [(10usize, 4usize), (16, 3), (33, 7), (64, 64)] {
            let w = Prng::new(9 + k as u64).xavier(k, n);
            let packed = PackedLinear::new(&w);
            for x in [
                Prng::new(11).fill_normal(1, k, 0.0, 1.0),
                Matrix::zeros(1, k),
            ] {
                let y = packed.forward_row(&x).unwrap();
                assert_eq!(y, Int8Engine.mm(&x, &w).unwrap(), "k={k} n={n}");
            }
        }
        let packed = PackedLinear::new(&Prng::new(12).xavier(10, 4));
        assert!(packed.forward_row(&Matrix::zeros(2, 10)).is_err());
        assert!(packed.forward_row(&Matrix::zeros(1, 9)).is_err());
    }

    #[test]
    fn pre_engine_reproduces_legacy_semantics() {
        let a = Prng::new(5).fill_normal(4, 8, 0.0, 1.0);
        let w = Prng::new(6).xavier(8, 3);
        let eng = PreEngine {
            pre: &quant::fake_quantize,
        };
        let expected_both = quant::fake_quantize(&a)
            .matmul(&quant::fake_quantize(&w))
            .unwrap();
        assert_eq!(eng.mm(&a, &w).unwrap(), expected_both);
        let expected_weight_only = a.matmul(&quant::fake_quantize(&w)).unwrap();
        assert_eq!(eng.mm_weight_only(&a, &w).unwrap(), expected_weight_only);
        assert!(!eng.int8_aggregation());
    }
}
