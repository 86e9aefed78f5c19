//! The precision of the reference models' weight products, and true int8
//! execution.
//!
//! [`Precision`] is the digital implementation of both layer-walk seams
//! ([`crate::transformer::TransformerDatapath`],
//! [`crate::gnn::GnnDatapath`]); every weight product of a digital
//! forward runs at one precision:
//!
//! * [`Precision::F64`] multiplies the operands where they lie — no
//!   copy, so a single-row product reads each weight in place through the
//!   GEMV of [`phox_tensor::gemm::matmul`];
//! * [`Precision::FakeQuant`] rounds operands to a `bits`-wide grid
//!   ([`phox_tensor::quant::fake_quantize_bits`]) inside an f64 product,
//!   the tool for *accuracy* analysis. It treats both operands at Q/K/V,
//!   cross-attention and the GNN combine, and only the weight at the
//!   attention output projection and the feed-forward block, whose
//!   activations come out of LayerNorm/softmax already conditioned;
//! * [`Precision::Int8`] runs every product the way the 8-bit photonic
//!   MAC array does, through [`QuantLinear`]: operands quantized to
//!   `i8`, exact `i32` accumulation on the [`phox_tensor::gemm_i8`]
//!   kernel, one dequantization at the output. GNN aggregation runs on
//!   the int8 sparse kernel.
//!
//! Softmax, LayerNorm, residual adds and GAT attention coefficients stay
//! in f64 at every precision: on the accelerator they live in the
//! digital/LUT periphery, not on the optical MAC array.
//!
//! [`QuantLinear`] quantizes its weight once, per tensor, into the int8
//! microkernel's [`gemm_i8::Panels`] plus a scale, and calibrates
//! activations *per row*, so a row's result never depends on which
//! other rows share the batch: a one-row KV-cached decode step
//! reproduces the matching row of a full forward bit for bit.
//!
//! Every model weight is a [`Weight`]: the f64 matrix plus the
//! [`QuantLinear`] built from it on its first int8 product and kept with
//! it from then on, so [`Precision::Int8`], the KV-cached int8 decoder
//! and the int8 GNN combine quantize and pack each weight once per
//! model, the way the accelerator keeps a weight resident in its banks.

use std::ops::Deref;
use std::sync::OnceLock;

use phox_tensor::{gemm_i8, Matrix, Quantizer, RowQuantMatrix, TensorError};

/// How a model forward executes its weight products; see the module
/// docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full precision: a plain f64 product.
    F64,
    /// Fake quantization: operands rounded to a symmetric `bits`-wide
    /// grid (per-tensor calibration, `bits` in `2..=16`) inside an f64
    /// product.
    FakeQuant {
        /// Operand bit width.
        bits: u32,
    },
    /// True int8 execution on the `i8 × i8 → i32` kernels.
    Int8,
}

/// A linear layer on the int8 datapath: the weight quantized once, per
/// tensor, and kept as its codes packed into the int8 microkernel's
/// [`gemm_i8::Panels`] plus its scale.
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
    panels: gemm_i8::Panels,
    scale: f64,
}

impl QuantLinear {
    /// Quantizes the `k × n` weight `w` once (per-tensor symmetric
    /// calibration) and packs its codes; the weight stays resident in
    /// int8 form, as on the accelerator.
    pub fn from_weight(w: &Matrix) -> Self {
        let (k, n) = w.shape();
        let qw = Quantizer::calibrate(w).quantize(w);
        QuantLinear {
            panels: gemm_i8::Panels::pack(qw.as_i8_slice(), k, n),
            scale: qw.scale(),
        }
    }

    /// `x · W` on the int8 kernel, for any number of rows: each row of
    /// `x` is quantized against its own absmax
    /// ([`RowQuantMatrix::quantize_rows`]) and multiplied through
    /// [`gemm_i8::matmul_packed_dequant`], which dequantizes each band of
    /// the product with `row_scale × weight_scale` as the microkernel
    /// stores it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `x.cols()` differs
    /// from the weight's row count.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        let (k, n) = (self.panels.k(), self.panels.n());
        if x.cols() != k {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: (k, n),
            });
        }
        let qx = RowQuantMatrix::quantize_rows(x);
        gemm_i8::matmul_packed_dequant(qx.as_i8_slice(), qx.scales(), &self.panels, self.scale)
    }

    /// The weight's codes, packed for the int8 microkernel: what an
    /// analog engine multiplies a resident weight by.
    pub fn panels(&self) -> &gemm_i8::Panels {
        &self.panels
    }

    /// The weight's quantization scale (one per tensor).
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A model weight: the f64 matrix, and its int8 [`QuantLinear`] once an
/// int8 product has asked for it ([`Weight::quantized`]). The pack is
/// built lazily, so a model that only runs in f64 never pays for it, and
/// at most once, even when several threads ask at the same time. The
/// matrix is read through `Deref` and never handed out mutably, so the
/// pack cannot go stale. Equality and `Debug` see the matrix alone: a
/// weight that has packed equals, and prints as, one that has not.
#[derive(Clone)]
pub struct Weight {
    matrix: Matrix,
    quantized: OnceLock<QuantLinear>,
}

impl Weight {
    /// The int8 form of the weight: [`QuantLinear::from_weight`] of the
    /// matrix, built on the first call and kept.
    pub fn quantized(&self) -> &QuantLinear {
        self.quantized
            .get_or_init(|| QuantLinear::from_weight(&self.matrix))
    }
}

impl From<Matrix> for Weight {
    /// The weight `matrix`, not yet packed.
    fn from(matrix: Matrix) -> Self {
        Weight {
            matrix,
            quantized: OnceLock::new(),
        }
    }
}

impl Deref for Weight {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        &self.matrix
    }
}

impl PartialEq for Weight {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
    }
}

impl std::fmt::Debug for Weight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.matrix.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::sbm;
    use crate::gnn::{GnnConfig, GnnKind, GnnModel};
    use crate::transformer::{TransformerConfig, TransformerDatapath, TransformerModel};
    use phox_tensor::{quant, stats, Prng};

    #[test]
    fn quant_linear_rows_are_batch_independent() {
        // The decode-oracle property at the layer level: a row pushed
        // through alone equals the same row inside a batch, bit for bit.
        let mut rng = Prng::new(45);
        for (x, w) in [
            (rng.fill_normal(5, 12, 0.0, 1.0), rng.xavier(12, 6)),
            (
                rng.fill_uniform(4, 6, -2.0, 2.0),
                rng.fill_uniform(6, 3, -1.0, 1.0),
            ),
        ] {
            let layer = QuantLinear::from_weight(&w);
            let batch = layer.forward(&x).unwrap();
            for r in 0..x.rows() {
                let solo = layer.forward(&Matrix::row_vector(x.row(r))).unwrap();
                assert_eq!(solo.row(0), batch.row(r), "row {r}");
            }
        }
    }

    #[test]
    fn quant_linear_tracks_exact_product() {
        let mut rng = Prng::new(46);
        let x = rng.fill_uniform(6, 16, -1.0, 1.0);
        let w = rng.fill_uniform(16, 5, -1.0, 1.0);
        let int8 = QuantLinear::from_weight(&w).forward(&x).unwrap();
        assert!(int8.approx_eq(&x.matmul(&w).unwrap(), 0.1));
    }

    #[test]
    fn quant_linear_shapes() {
        // No output columns, no rows, then inner-dimension mismatches.
        let forward = |w: Matrix, x: Matrix| QuantLinear::from_weight(&w).forward(&x);
        let y = forward(Matrix::zeros(3, 0), Matrix::filled(2, 3, 0.5)).unwrap();
        assert_eq!(y.shape(), (2, 0));
        let y = forward(Matrix::filled(3, 4, 0.5), Matrix::zeros(0, 3)).unwrap();
        assert_eq!(y.shape(), (0, 4));
        assert!(forward(Matrix::zeros(2, 2), Matrix::zeros(2, 3)).is_err());
        assert!(forward(Matrix::zeros(3, 2), Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn every_precision_arm_matches_its_definition() {
        let a = Prng::new(5).fill_normal(4, 8, 0.0, 1.0);
        let w = Weight::from(Prng::new(6).xavier(8, 3));
        let fq = |m: &Matrix, bits| quant::fake_quantize_bits(m, bits).unwrap();
        let exact = a.matmul(&w).unwrap();
        let int8 = QuantLinear::from_weight(&w).forward(&a).unwrap();
        // (arm, product at a both-operand site, at a weight-only site)
        let table = [
            (Precision::F64, exact.clone(), exact.clone()),
            (
                Precision::FakeQuant { bits: 4 },
                fq(&a, 4).matmul(&fq(&w, 4)).unwrap(),
                a.matmul(&fq(&w, 4)).unwrap(),
            ),
            (
                Precision::FakeQuant { bits: 8 },
                quant::fake_quantize(&a)
                    .matmul(&quant::fake_quantize(&w))
                    .unwrap(),
                a.matmul(&quant::fake_quantize(&w)).unwrap(),
            ),
            (Precision::Int8, int8.clone(), int8),
        ];
        for (mut p, both, weight_only) in table {
            assert_eq!(p.mm(&a, &w).unwrap(), both, "{p:?}");
            assert_eq!(p.mm_weight_only(&a, &w).unwrap(), weight_only, "{p:?}");
            if p != (Precision::FakeQuant { bits: 4 }) {
                assert!(stats::relative_error(&exact, &both) < 0.1, "{p:?}");
            }
        }

        // A width outside 2..=16 is a returned error at every level.
        let tf = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Prng::new(2).fill_normal(8, 32, 0.0, 1.0);
        let task = sbm(2, 4, 8, 0.5, 0.1, 3).unwrap();
        let gnn = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 8, 8, 2), 4).unwrap();
        let bad_width =
            |r: Result<Matrix, TensorError>| matches!(r, Err(TensorError::InvalidDimension { .. }));
        for bits in [1, 17] {
            let mut p = Precision::FakeQuant { bits };
            assert!(bad_width(p.mm(&a, &w)), "{p:?}");
            assert!(bad_width(p.mm_weight_only(&a, &w)), "{p:?}");
            assert!(bad_width(tf.forward_with(&x, p)), "{p:?}");
            assert!(
                bad_width(gnn.forward_with(&task.graph, &task.features, p)),
                "{p:?}"
            );
        }
    }
}
