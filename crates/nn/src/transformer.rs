//! Transformer reference models (§II of the paper).
//!
//! Provides the model configurations the paper evaluates TRON on
//! (BERT-base/large, GPT-2, ViT-B/16), a static operation census for the
//! performance model, and an executable fp64 reference implementation of
//! the encoder/decoder stack used to validate the photonic functional
//! simulation and the 8-bit quantization claim.

use phox_tensor::gemm::simd;
use phox_tensor::{ops, quant, Matrix, Prng, TensorError};

use crate::census::OpCensus;
use crate::int8::{Precision, Weight};

/// Which parts of the original transformer a model keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformerKind {
    /// Encoder-only (BERT-style).
    EncoderOnly,
    /// Decoder-only with causal masking (GPT-style).
    DecoderOnly,
    /// Vision transformer: encoder stack over patch embeddings.
    Vision,
    /// The full original architecture of Fig. 1: an encoder stack feeding
    /// a decoder stack through cross-attention.
    EncoderDecoder,
}

impl std::fmt::Display for TransformerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformerKind::EncoderOnly => write!(f, "encoder-only"),
            TransformerKind::DecoderOnly => write!(f, "decoder-only"),
            TransformerKind::Vision => write!(f, "vision"),
            TransformerKind::EncoderDecoder => write!(f, "encoder-decoder"),
        }
    }
}

/// Nonlinearity of the feed-forward block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfActivation {
    /// ReLU, as in the original transformer ("two dense layers with a RELU
    /// activation in between", §II).
    Relu,
    /// GELU, as in BERT/GPT-2.
    Gelu,
}

impl FfActivation {
    /// Applies the nonlinearity element-wise.
    pub(crate) fn apply(self, m: &Matrix) -> Matrix {
        match self {
            FfActivation::Relu => ops::relu(m),
            FfActivation::Gelu => ops::gelu(m),
        }
    }
}

/// Hyper-parameters of a transformer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Human-readable model name.
    pub name: String,
    /// Encoder/decoder/vision.
    pub kind: TransformerKind,
    /// Number of stacked layers (`N` in Fig. 1).
    pub layers: usize,
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// Number of attention heads (`H`).
    pub heads: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Sequence length the workload runs at.
    pub seq_len: usize,
    /// Feed-forward nonlinearity.
    pub ff_activation: FfActivation,
}

impl TransformerConfig {
    /// BERT-base: 12 layers, d=768, 12 heads, d_ff=3072.
    pub fn bert_base(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("BERT-base/s{seq_len}"),
            kind: TransformerKind::EncoderOnly,
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            seq_len,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// BERT-large: 24 layers, d=1024, 16 heads, d_ff=4096.
    pub fn bert_large(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("BERT-large/s{seq_len}"),
            kind: TransformerKind::EncoderOnly,
            layers: 24,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
            seq_len,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// GPT-2 (117M): 12 decoder layers, d=768, 12 heads, d_ff=3072.
    pub fn gpt2(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("GPT-2/s{seq_len}"),
            kind: TransformerKind::DecoderOnly,
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            seq_len,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// ViT-B/16: 12 encoder layers over 196 patches + class token.
    pub fn vit_b16() -> Self {
        TransformerConfig {
            name: "ViT-B/16".to_owned(),
            kind: TransformerKind::Vision,
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            seq_len: 197,
            ff_activation: FfActivation::Gelu,
        }
    }

    /// The original "Attention is All You Need" base model: 6 encoder +
    /// 6 decoder layers, d=512, 8 heads, d_ff=2048, ReLU.
    pub fn transformer_base(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("Transformer-base/s{seq_len}"),
            kind: TransformerKind::EncoderDecoder,
            layers: 6,
            d_model: 512,
            heads: 8,
            d_ff: 2048,
            seq_len,
            ff_activation: FfActivation::Relu,
        }
    }

    /// A small configuration for functional (value-level) simulation and
    /// tests — same structure, laptop-friendly size.
    pub fn tiny(seq_len: usize) -> Self {
        TransformerConfig {
            name: format!("tiny/s{seq_len}"),
            kind: TransformerKind::EncoderOnly,
            layers: 2,
            d_model: 32,
            heads: 4,
            d_ff: 64,
            seq_len,
            ff_activation: FfActivation::Relu,
        }
    }

    /// Validates divisibility and non-zero dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when a dimension is zero
    /// or `d_model` is not divisible by `heads`.
    pub fn validated(self) -> Result<Self, TensorError> {
        if self.layers == 0
            || self.d_model == 0
            || self.heads == 0
            || self.d_ff == 0
            || self.seq_len == 0
        {
            return Err(TensorError::InvalidDimension {
                what: "transformer dimensions must be non-zero",
            });
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(TensorError::InvalidDimension {
                what: "d_model must be divisible by the head count",
            });
        }
        Ok(self)
    }

    /// Per-head dimension `d_k = d_model / heads`.
    pub fn d_head(&self) -> usize {
        self.d_model / self.heads
    }

    /// Parameter count of the stack (attention + FF + LN weights).
    pub fn parameter_count(&self) -> u64 {
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;
        // Q,K,V,O projections + two FF mats + 2 LN (gamma,beta).
        let per_layer = 4 * d * d + 2 * d * ff + 4 * d;
        match self.kind {
            TransformerKind::EncoderDecoder => {
                // Encoder layers plus decoder layers, each decoder layer
                // adding a cross-attention block (4 more projections and
                // one more LN).
                let per_decoder = per_layer + 4 * d * d + 2 * d;
                (per_layer + per_decoder) * self.layers as u64
            }
            _ => per_layer * self.layers as u64,
        }
    }

    /// Static operation census of one inference at `seq_len`.
    pub fn census(&self) -> OpCensus {
        let s = self.seq_len as u64;
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;

        // Per layer:
        // QKV projections: 3·s·d·d MACs; output projection: s·d·d.
        let proj_macs = 4 * s * d * d;
        // Attention scores Q·Kᵀ: s·s·d; attention × V: s·s·d.
        let attn_macs = 2 * s * s * d;
        // Feed-forward: s·d·ff + s·ff·d.
        let ff_macs = 2 * s * d * ff;
        // Softmax over H per-head score matrices of s×s each.
        let softmax_elements = self.heads as u64 * s * s;
        // Two LayerNorms of s×d each; two residual adds of s×d each.
        let layernorm_elements = 2 * s * d;
        let adds = 2 * s * d;
        // FF activation on s×ff.
        let activation_elements = s * ff;

        let per_layer = OpCensus {
            macs: proj_macs + attn_macs + ff_macs,
            adds,
            softmax_elements,
            layernorm_elements,
            activation_elements,
            weight_bytes: 4 * d * d + 2 * d * ff + 4 * d,
            activation_bytes: s * d.max(ff),
            // Weights stream in once per layer; activations stay on chip.
            offchip_bytes: 4 * d * d + 2 * d * ff + 4 * d,
        };
        match self.kind {
            TransformerKind::EncoderDecoder => {
                // A decoder layer adds a cross-attention block: Q from
                // the target, K/V from the encoder memory, plus the
                // output projection, per-head softmax and a third
                // residual + LayerNorm.
                let cross = OpCensus {
                    macs: 4 * s * d * d + 2 * s * s * d,
                    adds: s * d,
                    softmax_elements: self.heads as u64 * s * s,
                    layernorm_elements: s * d,
                    activation_elements: 0,
                    weight_bytes: 4 * d * d + 2 * d,
                    activation_bytes: s * d,
                    offchip_bytes: 4 * d * d + 2 * d,
                };
                let decoder_layer = per_layer.combine(&cross);
                per_layer
                    .repeat(self.layers as u64)
                    .combine(&decoder_layer.repeat(self.layers as u64))
            }
            _ => per_layer.repeat(self.layers as u64),
        }
    }
}

/// Weights of one transformer layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Query projection, `d_model x d_model`.
    pub w_q: Weight,
    /// Key projection, `d_model x d_model`.
    pub w_k: Weight,
    /// Value projection, `d_model x d_model`.
    pub w_v: Weight,
    /// Output projection, `d_model x d_model`.
    pub w_o: Weight,
    /// First feed-forward matrix, `d_model x d_ff`.
    pub w_ff1: Weight,
    /// Second feed-forward matrix, `d_ff x d_model`.
    pub w_ff2: Weight,
    /// Post-attention LayerNorm gain.
    pub ln1_gamma: Vec<f64>,
    /// Post-attention LayerNorm bias.
    pub ln1_beta: Vec<f64>,
    /// Post-FF LayerNorm gain.
    pub ln2_gamma: Vec<f64>,
    /// Post-FF LayerNorm bias.
    pub ln2_beta: Vec<f64>,
}

/// Weights of one decoder layer: a full self-attention layer plus the
/// cross-attention block that reads the encoder memory.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderLayerWeights {
    /// The self-attention + feed-forward half (identical structure to an
    /// encoder layer; self-attention is causally masked).
    pub base: LayerWeights,
    /// Cross-attention query projection (from the decoder state).
    pub w_cq: Weight,
    /// Cross-attention key projection (from the encoder memory).
    pub w_ck: Weight,
    /// Cross-attention value projection (from the encoder memory).
    pub w_cv: Weight,
    /// Cross-attention output projection.
    pub w_co: Weight,
    /// Post-cross-attention LayerNorm gain.
    pub ln_cross_gamma: Vec<f64>,
    /// Post-cross-attention LayerNorm bias.
    pub ln_cross_beta: Vec<f64>,
}

/// An executable transformer with materialized weights.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: TransformerConfig,
    layers: Vec<LayerWeights>,
    decoder_layers: Vec<DecoderLayerWeights>,
}

impl TransformerModel {
    /// Materializes a model with Xavier-initialised random weights. No
    /// weight is packed for the int8 kernels yet: each packs on its first
    /// int8 product ([`Weight::quantized`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    ///
    /// # Example
    ///
    /// ```
    /// use phox_nn::transformer::{TransformerConfig, TransformerModel};
    ///
    /// # fn main() -> Result<(), phox_tensor::TensorError> {
    /// let model = TransformerModel::random(TransformerConfig::tiny(8), 42)?;
    /// let x = phox_tensor::Prng::new(1).fill_normal(8, 32, 0.0, 1.0);
    /// let y = model.forward(&x)?;
    /// assert_eq!(y.shape(), (8, 32));
    /// # Ok(())
    /// # }
    /// ```
    pub fn random(config: TransformerConfig, seed: u64) -> Result<Self, TensorError> {
        let config = config.validated()?;
        let mut rng = Prng::new(seed);
        let d = config.d_model;
        let ff = config.d_ff;
        let weight = |rng: &mut Prng, rows, cols| Weight::from(rng.xavier(rows, cols));
        let mk_layer = |rng: &mut Prng| LayerWeights {
            w_q: weight(rng, d, d),
            w_k: weight(rng, d, d),
            w_v: weight(rng, d, d),
            w_o: weight(rng, d, d),
            w_ff1: weight(rng, d, ff),
            w_ff2: weight(rng, ff, d),
            ln1_gamma: vec![1.0; d],
            ln1_beta: vec![0.0; d],
            ln2_gamma: vec![1.0; d],
            ln2_beta: vec![0.0; d],
        };
        let layers = (0..config.layers).map(|_| mk_layer(&mut rng)).collect();
        let decoder_layers = if config.kind == TransformerKind::EncoderDecoder {
            (0..config.layers)
                .map(|_| DecoderLayerWeights {
                    base: mk_layer(&mut rng),
                    w_cq: weight(&mut rng, d, d),
                    w_ck: weight(&mut rng, d, d),
                    w_cv: weight(&mut rng, d, d),
                    w_co: weight(&mut rng, d, d),
                    ln_cross_gamma: vec![1.0; d],
                    ln_cross_beta: vec![0.0; d],
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(TransformerModel {
            config,
            layers,
            decoder_layers,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// The encoder (or single-stack) layer weights.
    pub fn layers(&self) -> &[LayerWeights] {
        &self.layers
    }

    /// The decoder layer weights (empty unless the model is
    /// [`TransformerKind::EncoderDecoder`]).
    pub fn decoder_layers(&self) -> &[DecoderLayerWeights] {
        &self.decoder_layers
    }

    /// Full-precision reference forward pass over `x`
    /// (`seq_len x d_model`); [`TransformerModel::forward_with`] at
    /// [`Precision::F64`].
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(x, Precision::F64)
    }

    /// Forward pass on the true int8 datapath
    /// ([`TransformerModel::forward_with`] at [`Precision::Int8`]):
    /// projections execute on the `i8 x i8 -> i32` GEMM kernel, while
    /// softmax, LayerNorm and residual adds stay in f64 — matching the
    /// digital/LUT periphery of the accelerator.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration.
    pub fn forward_int8(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.forward_with(x, Precision::Int8)
    }

    /// Forward pass over `x` (`seq_len x d_model`) on datapath `dp`: a
    /// [`Precision`] for the digital reference, or a photonic
    /// simulator's analog datapath. For an encoder-decoder model this
    /// runs the full pipeline with `x` as both source and target (the
    /// standard structure-validation setting); use
    /// [`TransformerModel::forward_seq2seq`] for distinct sequences.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the configuration,
    /// and any error of the datapath's ops ([`TensorError::InvalidDimension`]
    /// for a [`Precision::FakeQuant`] width outside `2..=16`).
    pub fn forward_with<D: TransformerDatapath>(
        &self,
        x: &Matrix,
        mut dp: D,
    ) -> Result<Matrix, D::Error> {
        self.check_input(x)?;
        if self.config.kind == TransformerKind::EncoderDecoder {
            return self.forward_seq2seq(x, x, dp);
        }
        self.encode(x, &mut dp)
    }

    /// Sequence-to-sequence pass on datapath `dp`: encodes `src`, then
    /// decodes `tgt` against the encoder memory through the
    /// cross-attention blocks (Fig. 1).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for non-encoder-decoder
    /// models, shape errors for mismatched inputs, and any error of the
    /// datapath's ops.
    pub fn forward_seq2seq<D: TransformerDatapath>(
        &self,
        src: &Matrix,
        tgt: &Matrix,
        mut dp: D,
    ) -> Result<Matrix, D::Error> {
        if self.config.kind != TransformerKind::EncoderDecoder {
            return Err(TensorError::InvalidDimension {
                what: "seq2seq forward requires an encoder-decoder model",
            }
            .into());
        }
        self.check_input(src)?;
        self.check_input(tgt)?;
        // Encode (bidirectional self-attention).
        let memory = self.encode(src, &mut dp)?;
        // Decode: causal self-attention, cross-attention with queries
        // from the decoder state and keys/values from the encoder memory,
        // then the feed-forward block.
        let mut h = tgt.clone();
        for dw in &self.decoder_layers {
            let norm1 = self.attention(&mut dp, (&h, &h), dw.base.self_attention(), true)?;
            let cross = [&dw.w_cq, &dw.w_ck, &dw.w_cv, &dw.w_co];
            let ln = (&dw.ln_cross_gamma[..], &dw.ln_cross_beta[..]);
            let norm2 = self.attention(&mut dp, (&norm1, &memory), (cross, ln), false)?;
            h = self.feed_forward(&mut dp, &norm2, &dw.base)?;
        }
        Ok(h)
    }

    /// A shape error unless `x` is `seq_len x d_model`.
    fn check_input(&self, x: &Matrix) -> Result<(), TensorError> {
        let want = (self.config.seq_len, self.config.d_model);
        if x.shape() != want {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: want,
            });
        }
        Ok(())
    }

    /// Full-precision causal forward over an arbitrary-length prefix of
    /// a decoder-only model: like [`TransformerModel::forward`] but
    /// accepting any row count `>= 1` instead of exactly `seq_len` (the
    /// reference stack has no positional encodings, so nothing pins the
    /// length). This is the oracle the KV-cached incremental decode in
    /// [`crate::decode`] is validated against, prefix by prefix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for models that are not
    /// decoder-only and shape errors for mismatched inputs.
    pub fn forward_prefix(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.prefix_with(x, Precision::F64)
    }

    /// [`TransformerModel::forward_prefix`] on the true int8 datapath
    /// (per-row activation quantization — see
    /// [`crate::int8::QuantLinear::forward`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::forward_prefix`].
    pub fn forward_prefix_int8(&self, x: &Matrix) -> Result<Matrix, TensorError> {
        self.prefix_with(x, Precision::Int8)
    }

    /// Shared prefix-forward implementation over `x` (`t × d_model`,
    /// any `t >= 1`), causal by construction (decoder-only).
    fn prefix_with(&self, x: &Matrix, mut p: Precision) -> Result<Matrix, TensorError> {
        if self.config.kind != TransformerKind::DecoderOnly {
            return Err(TensorError::InvalidDimension {
                what: "prefix forward requires a decoder-only model",
            });
        }
        if x.rows() == 0 || x.cols() != self.config.d_model {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: (1, self.config.d_model),
            });
        }
        self.encode(x, &mut p)
    }

    /// Runs `x` through the encoder (or single-stack) layers: each one
    /// self-attention (causal in a decoder-only model), then the
    /// feed-forward block.
    fn encode<D: TransformerDatapath>(&self, x: &Matrix, dp: &mut D) -> Result<Matrix, D::Error> {
        let causal = self.config.kind == TransformerKind::DecoderOnly;
        let mut h = x.clone();
        for lw in &self.layers {
            let norm1 = self.attention(dp, (&h, &h), lw.self_attention(), causal)?;
            h = self.feed_forward(dp, &norm1, lw)?;
        }
        Ok(h)
    }

    /// One attention block: queries from `x`, keys and values from `kv`
    /// (`x` itself, or the encoder memory for cross-attention), the
    /// heads, the output projection `w[3]`, then the residual onto `x`
    /// and the LayerNorm `ln`.
    fn attention<D: TransformerDatapath>(
        &self,
        dp: &mut D,
        (x, kv): (&Matrix, &Matrix),
        ([w_q, w_k, w_v, w_o], ln): ([&Weight; 4], (&[f64], &[f64])),
        causal: bool,
    ) -> Result<Matrix, D::Error> {
        let (q, k, v) = (dp.mm(x, w_q)?, dp.mm(kv, w_k)?, dp.mm(kv, w_v)?);
        let heads = dp.heads([&q, &k, &v], self.config.heads, causal)?;
        let mha = dp.mm_weight_only(&heads, w_o)?;
        let res = dp.residual(x, &mha)?;
        dp.layer_norm(&res, ln)
    }

    /// The feed-forward block over `x` with its residual connection and
    /// LayerNorm.
    fn feed_forward<D: TransformerDatapath>(
        &self,
        dp: &mut D,
        x: &Matrix,
        lw: &LayerWeights,
    ) -> Result<Matrix, D::Error> {
        let inner = dp.mm_weight_only(x, &lw.w_ff1)?;
        let activated = dp.activate(self.config.ff_activation, &inner);
        let ffo = dp.mm_weight_only(&activated, &lw.w_ff2)?;
        let res = dp.residual(x, &ffo)?;
        dp.layer_norm(&res, (&lw.ln2_gamma, &lw.ln2_beta))
    }
}

impl LayerWeights {
    /// The self-attention block's projections and LayerNorm.
    fn self_attention(&self) -> ([&Weight; 4], (&[f64], &[f64])) {
        (
            [&self.w_q, &self.w_k, &self.w_v, &self.w_o],
            (&self.ln1_gamma, &self.ln1_beta),
        )
    }
}

/// The ops of the transformer layer walk
/// ([`TransformerModel::forward_with`]) that differ between datapaths.
/// Two implement it: [`Precision`], the digital reference, and the TRON
/// functional simulator's analog datapath. Per attention block the walk
/// issues Q, K, V, the heads, the output projection, the residual and
/// the LayerNorm; per feed-forward block the first product, the
/// activation, the second product, the residual and the LayerNorm. An
/// analog datapath keys its noise streams on that order.
pub trait TransformerDatapath {
    /// The ops' error; tensor errors convert into it.
    type Error: From<TensorError>;
    /// A product where both operands meet the precision model (Q/K/V,
    /// cross-attention).
    fn mm(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, Self::Error>;
    /// A product where fake quantization treats only the weight (output
    /// projection, feed-forward block).
    fn mm_weight_only(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, Self::Error>;
    /// The `n` attention heads over `[q, k, v]`: each head's
    /// `softmax(q_h·k_hᵀ/√d_h)·v_h`, the future masked when `causal`,
    /// concatenated in head order.
    fn heads(&mut self, qkv: [&Matrix; 3], n: usize, causal: bool) -> Result<Matrix, Self::Error>;
    /// The residual add `x + y`.
    fn residual(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, Self::Error>;
    /// LayerNorm with `(gain, bias)`.
    fn layer_norm(&mut self, x: &Matrix, ln: (&[f64], &[f64])) -> Result<Matrix, Self::Error>;
    /// The feed-forward nonlinearity.
    fn activate(&mut self, f: FfActivation, x: &Matrix) -> Matrix;
}

/// The digital reference: products at the precision (at
/// [`Precision::Int8`] on the weight's resident pack), the heads one
/// after another in f64, softmax, LayerNorm and residual adds in f64.
impl TransformerDatapath for Precision {
    type Error = TensorError;

    fn mm(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        match *self {
            Precision::F64 => a.matmul(w),
            Precision::FakeQuant { bits } => {
                quant::fake_quantize_bits(a, bits)?.matmul(&quant::fake_quantize_bits(w, bits)?)
            }
            Precision::Int8 => w.quantized().forward(a),
        }
    }

    fn mm_weight_only(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        match *self {
            Precision::FakeQuant { bits } => a.matmul(&quant::fake_quantize_bits(w, bits)?),
            Precision::F64 | Precision::Int8 => self.mm(a, w),
        }
    }

    /// Per head: the scores `q_h·k_hᵀ` from one traced GEMM
    /// ([`Matrix::matmul`]) over copies of the head's query columns and
    /// transposed key columns; each score row scaled by `1/√d_h` and
    /// softmaxed in place ([`ops::softmax_in_place`]); then the context
    /// accumulated from `v` where it lies straight into the head's
    /// columns of the output ([`simd::context`]). A causal row `r`
    /// scales and softmaxes only its past `row[..=r]` and sets its future
    /// to `+0.0`: the softmax of the row with that future at `-∞` would
    /// take the same maximum, add `exp(-∞) = +0.0` to its sum for each
    /// masked score (exact) and write `+0.0` there, so every bit is the
    /// same without those `exp` calls. Each context output sums every
    /// key row in ascending order from `+0.0`, masked zero weights
    /// included, so a KV-cached decode step over context `t` (no masked
    /// tail) reproduces row `t-1` bit for bit.
    fn heads(
        &mut self,
        [q, k, v]: [&Matrix; 3],
        n: usize,
        causal: bool,
    ) -> Result<Matrix, TensorError> {
        let (rows, d) = q.shape();
        if k.shape() != v.shape() || k.cols() != d {
            return Err(TensorError::ShapeMismatch {
                lhs: k.shape(),
                rhs: v.shape(),
            });
        }
        let dh = d / n;
        let scale = 1.0 / (dh as f64).sqrt();
        let mut out = Matrix::zeros(rows, d);
        for h in 0..n {
            let cols = h * dh..(h + 1) * dh;
            let kt = k.col_slice(cols.start, cols.end)?.transpose();
            let mut scores = q.col_slice(cols.start, cols.end)?.matmul(&kt)?;
            for r in 0..rows {
                let row = scores.row_mut(r);
                let past = if causal {
                    (r + 1).min(row.len())
                } else {
                    row.len()
                };
                let (past, future) = row.split_at_mut(past);
                for s in past.iter_mut() {
                    *s *= scale;
                }
                ops::softmax_in_place(past);
                future.fill(0.0);
            }
            simd::context(scores.as_slice(), v.as_slice(), d, cols, out.as_mut_slice());
        }
        Ok(out)
    }

    fn residual(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, TensorError> {
        x.add(y)
    }

    fn layer_norm(&mut self, x: &Matrix, (g, b): (&[f64], &[f64])) -> Result<Matrix, TensorError> {
        ops::layer_norm(x, g, b, 1e-9)
    }

    fn activate(&mut self, f: FfActivation, x: &Matrix) -> Matrix {
        f.apply(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::stats;

    #[test]
    fn presets_have_published_shapes() {
        let b = TransformerConfig::bert_base(128);
        assert_eq!((b.layers, b.d_model, b.heads, b.d_ff), (12, 768, 12, 3072));
        let l = TransformerConfig::bert_large(128);
        assert_eq!((l.layers, l.d_model, l.heads, l.d_ff), (24, 1024, 16, 4096));
        let g = TransformerConfig::gpt2(128);
        assert_eq!(g.kind, TransformerKind::DecoderOnly);
        let v = TransformerConfig::vit_b16();
        assert_eq!(v.seq_len, 197);
    }

    #[test]
    fn bert_base_parameter_count_near_published() {
        // BERT-base encoder stack ≈ 85M parameters (the 110M figure
        // includes embeddings, which the accelerator does not compute).
        let p = TransformerConfig::bert_base(128).parameter_count();
        assert!((8.0e7..9.0e7).contains(&(p as f64)), "params = {p}");
    }

    #[test]
    fn census_macs_match_hand_count() {
        let c = TransformerConfig::tiny(8).validated().unwrap();
        let census = c.census();
        let (s, d, ff) = (8u64, 32u64, 64u64);
        let per_layer = 4 * s * d * d + 2 * s * s * d + 2 * s * d * ff;
        assert_eq!(census.macs, per_layer * 2);
    }

    #[test]
    fn census_scales_quadratically_with_seq_for_attention() {
        let short = TransformerConfig::bert_base(128).census();
        let long = TransformerConfig::bert_base(512).census();
        // Attention term grows 16x, projections 4x: total must grow
        // between 4x and 16x.
        let ratio = long.macs as f64 / short.macs as f64;
        assert!(ratio > 4.0 && ratio < 16.0, "ratio = {ratio}");
    }

    #[test]
    fn validation_rejects_bad_heads() {
        let bad = TransformerConfig {
            heads: 5,
            ..TransformerConfig::tiny(8)
        };
        assert!(bad.validated().is_err());
        let zero = TransformerConfig {
            layers: 0,
            ..TransformerConfig::tiny(8)
        };
        assert!(zero.validated().is_err());
    }

    #[test]
    fn forward_output_shape() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Prng::new(2).fill_normal(8, 32, 0.0, 1.0);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.shape(), (8, 32));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_rejects_wrong_shape() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Matrix::zeros(4, 32);
        assert!(m.forward(&x).is_err());
    }

    #[test]
    fn forward_is_deterministic() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 7).unwrap();
        let x = Prng::new(3).fill_normal(8, 32, 0.0, 1.0);
        assert_eq!(m.forward(&x).unwrap(), m.forward(&x).unwrap());
    }

    #[test]
    fn layer_norm_keeps_rows_normalized() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 7).unwrap();
        let x = Prng::new(4).fill_normal(8, 32, 0.0, 1.0);
        let y = m.forward(&x).unwrap();
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean: f64 = row.iter().sum::<f64>() / row.len() as f64;
            assert!(mean.abs() < 1e-6, "row {r} mean {mean}");
        }
    }

    #[test]
    fn causal_mask_blocks_future_tokens() {
        // In a decoder, changing the *last* token must not affect the
        // *first* token's output.
        let cfg = TransformerConfig {
            kind: TransformerKind::DecoderOnly,
            ..TransformerConfig::tiny(8)
        };
        let m = TransformerModel::random(cfg, 9).unwrap();
        let x1 = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
        let mut x2 = x1.clone();
        for c in 0..32 {
            x2.set(7, c, x2.get(7, c) + 1.0);
        }
        let y1 = m.forward(&x1).unwrap();
        let y2 = m.forward(&x2).unwrap();
        for c in 0..32 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-9);
        }
        // But the last token's output does change.
        let mut changed = false;
        for c in 0..32 {
            if (y1.get(7, c) - y2.get(7, c)).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn encoder_has_no_causal_mask() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 9).unwrap();
        let x1 = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
        let mut x2 = x1.clone();
        for c in 0..32 {
            x2.set(7, c, x2.get(7, c) + 1.0);
        }
        let y1 = m.forward(&x1).unwrap();
        let y2 = m.forward(&x2).unwrap();
        let mut changed = false;
        for c in 0..32 {
            if (y1.get(0, c) - y2.get(0, c)).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed, "encoder token 0 should see token 7");
    }

    #[test]
    fn quantized_forward_tracks_full_precision() {
        let m = TransformerModel::random(TransformerConfig::tiny(16), 11).unwrap();
        let x = Prng::new(6).fill_normal(16, 32, 0.0, 1.0);
        let y = m.forward(&x).unwrap();
        let yq = m
            .forward_with(&x, Precision::FakeQuant { bits: 8 })
            .unwrap();
        let err = stats::relative_error(&y, &yq);
        assert!(err < 0.15, "int8 relative error {err}");
    }
}

#[cfg(test)]
mod encoder_decoder_tests {
    use super::*;

    fn tiny_encdec(seed: u64) -> TransformerModel {
        let cfg = TransformerConfig {
            kind: TransformerKind::EncoderDecoder,
            ..TransformerConfig::tiny(8)
        };
        TransformerModel::random(cfg, seed).unwrap()
    }

    #[test]
    fn transformer_base_preset_shapes() {
        let c = TransformerConfig::transformer_base(64);
        assert_eq!(c.kind, TransformerKind::EncoderDecoder);
        assert_eq!((c.layers, c.d_model, c.heads, c.d_ff), (6, 512, 8, 2048));
        // "Attention is All You Need" base: ~44M attention/FF parameters
        // in the 6+6 stack (the 65M figure includes embeddings).
        let p = c.parameter_count();
        assert!((4.0e7..6.0e7).contains(&(p as f64)), "params {p}");
    }

    #[test]
    fn encdec_census_exceeds_encoder_only() {
        let enc = TransformerConfig::tiny(8);
        let encdec = TransformerConfig {
            kind: TransformerKind::EncoderDecoder,
            ..TransformerConfig::tiny(8)
        };
        // Decoder stack roughly doubles the MACs and adds cross-attention.
        assert!(encdec.census().macs > 2 * enc.census().macs);
        assert!(encdec.census().softmax_elements > 2 * enc.census().softmax_elements);
    }

    #[test]
    fn seq2seq_forward_shapes_and_determinism() {
        let m = tiny_encdec(7);
        let src = Prng::new(8).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(9).fill_normal(8, 32, 0.0, 1.0);
        let y = m.forward_seq2seq(&src, &tgt, Precision::F64).unwrap();
        assert_eq!(y.shape(), (8, 32));
        assert_eq!(y, m.forward_seq2seq(&src, &tgt, Precision::F64).unwrap());
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_on_encdec_uses_x_as_both_sequences() {
        let m = tiny_encdec(11);
        let x = Prng::new(12).fill_normal(8, 32, 0.0, 1.0);
        assert_eq!(
            m.forward(&x).unwrap(),
            m.forward_seq2seq(&x, &x, Precision::F64).unwrap()
        );
    }

    #[test]
    fn decoder_self_attention_is_causal_cross_is_not() {
        let m = tiny_encdec(13);
        let src = Prng::new(14).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(15).fill_normal(8, 32, 0.0, 1.0);
        let y1 = m.forward_seq2seq(&src, &tgt, Precision::F64).unwrap();
        // Perturb the last target token: earlier target outputs must not
        // change (causal self-attention).
        let mut tgt2 = tgt.clone();
        for c in 0..32 {
            tgt2.set(7, c, tgt2.get(7, c) + 1.0);
        }
        let y2 = m.forward_seq2seq(&src, &tgt2, Precision::F64).unwrap();
        for c in 0..32 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-9);
        }
        // Perturb the last *source* token: every target output may change
        // (cross-attention is bidirectional over the memory).
        let mut src2 = src.clone();
        for c in 0..32 {
            src2.set(7, c, src2.get(7, c) + 1.0);
        }
        let y3 = m.forward_seq2seq(&src2, &tgt, Precision::F64).unwrap();
        let mut changed = false;
        for c in 0..32 {
            if (y1.get(0, c) - y3.get(0, c)).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed, "cross-attention should expose source changes");
    }

    #[test]
    fn seq2seq_rejects_non_encdec_models() {
        let m = TransformerModel::random(TransformerConfig::tiny(8), 1).unwrap();
        let x = Matrix::zeros(8, 32);
        assert!(m.forward_seq2seq(&x, &x, Precision::F64).is_err());
        assert!(m.decoder_layers().is_empty());
    }

    #[test]
    fn seq2seq_quantized_tracks_full_precision() {
        let m = tiny_encdec(17);
        let src = Prng::new(18).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(19).fill_normal(8, 32, 0.0, 1.0);
        let fp = m.forward_seq2seq(&src, &tgt, Precision::F64).unwrap();
        let q = m
            .forward_seq2seq(&src, &tgt, Precision::FakeQuant { bits: 8 })
            .unwrap();
        assert!(phox_tensor::stats::relative_error(&fp, &q) < 0.2);
    }

    #[test]
    fn decoder_layer_count_matches_config() {
        let m = tiny_encdec(21);
        assert_eq!(m.decoder_layers().len(), 2);
        assert_eq!(m.layers().len(), 2);
    }
}

/// The context lengths the decode steps of an autoregressive generation
/// actually see: step `i` (producing generated token `i + 1`) attends
/// over `prompt + i` rows, so the contexts are exactly
/// `prompt..prompt + gen_tokens` (mean `prompt + (gen_tokens - 1) / 2`,
/// *not* `prompt + gen_tokens / 2`). Both the static
/// [`TransformerConfig::generation_census`] and TRON's
/// `simulate_generation` iterate this one range so their context
/// arithmetic cannot drift apart — and both are pinned against the MACs
/// the functional decode path in [`crate::decode`] executes.
pub fn decode_context_lengths(prompt: usize, gen_tokens: usize) -> std::ops::Range<usize> {
    prompt..prompt + gen_tokens
}

/// Total context rows summed over every decode step:
/// `Σ_{i=0}^{g-1} (p + i) = g·p + g·(g−1)/2` (exact — `g·(g−1)` is
/// always even, so no integer truncation). The closed form of summing
/// [`decode_context_lengths`]; zero when `gen_tokens` is zero.
pub fn decode_context_rows(prompt: u64, gen_tokens: u64) -> u64 {
    gen_tokens * prompt + gen_tokens * gen_tokens.saturating_sub(1) / 2
}

impl TransformerConfig {
    /// Operation census for autoregressive *generation*: a prefill pass
    /// over the `seq_len`-token prompt followed by `gen_tokens`
    /// incremental decode steps with a KV cache (each step recomputes
    /// only the new token's projections and attends over the grown
    /// context). The LLM-serving workload the paper's motivation points
    /// at, beyond the single forward pass its figures measure.
    ///
    /// Context-dependent terms are summed *exactly* over the per-step
    /// contexts `seq_len..seq_len + gen_tokens`
    /// ([`decode_context_rows`]); the decode MAC total equals the MAC
    /// count the functional KV-cache path reports (pinned by the
    /// `decode_equiv` suite).
    pub fn generation_census(&self, gen_tokens: usize) -> OpCensus {
        let prefill = self.census();
        if gen_tokens == 0 {
            return prefill;
        }
        let p = self.seq_len as u64;
        let g = gen_tokens as u64;
        let d = self.d_model as u64;
        let ff = self.d_ff as u64;
        // Exact total context rows over all decode steps (replaces the
        // old per-step integer mean `p + g/2`, which was off by one on
        // average and truncated).
        let ctx_rows = decode_context_rows(p, g);

        // Per layer, summed over the g decode steps (m = 1 row each):
        let proj_macs = g * 4 * d * d; // Q,K,V of the new token + out proj
        let attn_macs = 2 * d * ctx_rows; // scores + context over the cache
        let ff_macs = g * 2 * d * ff;
        let per_layer = OpCensus {
            macs: proj_macs + attn_macs + ff_macs,
            adds: g * 2 * d,
            softmax_elements: self.heads as u64 * ctx_rows,
            layernorm_elements: g * 2 * d,
            activation_elements: g * ff,
            // Weights re-streamed every step (the decode memory wall);
            // KV-cache reads grow with the context.
            weight_bytes: g * (4 * d * d + 2 * d * ff + 4 * d),
            // Peak resident activation: the cache at its final size.
            activation_bytes: (p + g - 1) * d,
            offchip_bytes: g * (4 * d * d + 2 * d * ff + 4 * d) + 2 * ctx_rows * d,
        };
        let decode = per_layer.repeat(self.layers as u64);
        prefill.combine(&decode)
    }
}
