//! Functional KV-cache autoregressive decode.
//!
//! The paper evaluates transformer inference as one-shot full-sequence
//! passes, but LLM serving runs *autoregressive decode*: one new token
//! per step, attending over a growing cache of per-layer K/V rows, with
//! every GEMM collapsed to a GEMV (ROADMAP item 5a — the decode memory
//! wall). TRON carries an analytical estimate of this regime
//! (`simulate_generation`); this module is the functional substrate that
//! estimate is validated against.
//!
//! ## Equivalence oracle
//!
//! The whole module is pinned by one property: an incremental decode
//! step over context `t` must reproduce row `t-1` of the full-sequence
//! causal forward ([`TransformerModel::forward_prefix`]) bit for bit, in
//! f64 and on the int8 datapath. Three design choices make that hold:
//!
//! * the attention context product uses a sequential accumulation order
//!   (one [`phox_tensor::gemm::simd::context`] kernel in both paths: a
//!   block of query rows in the full path, one row here), so the masked
//!   tail's exact-zero weights contribute nothing;
//! * per-element f64 dot products are independent of the operand's row
//!   and column counts, so every fixed-`k` projection of one row equals
//!   the corresponding row of the batched product — the single-row GEMV
//!   that `gemm::matmul` runs at `m = 1` keeps the blocked kernel's
//!   16-lane schedule per output, and the per-head scores run the same
//!   `simd::dot` schedule the full path's score product runs per element;
//! * the int8 datapath calibrates activations *per row*
//!   ([`crate::int8::QuantLinear::forward`]), so a token's quantized
//!   levels never depend on which other tokens share the batch, and
//!   integer accumulation is exact in any order.
//!
//! ## Reading operands in place
//!
//! An f64 step copies no weight and no cached row. It multiplies each
//! weight where it lies, and the `m = 1` product reads row-major `W`
//! directly instead of packing `Wᵀ`
//! ([`phox_tensor::gemm::simd::gemv`]). At either precision each head runs
//! one fused [`phox_tensor::gemm::simd::attend`] call over the cached K/V
//! rows in place: scores four rows at a time in `simd::dot`'s schedule,
//! softmax in one scores buffer shared by every head of the step, and the
//! context accumulated in registers in the sequential order above, so
//! attention reads the cache once per step and layer and allocates once
//! per step.
//!
//! ## Resident int8 weights
//!
//! Each weight of the model keeps its int8 pack once built
//! ([`crate::int8::Weight`]): its codes packed as the int8 microkernel's
//! panels plus a scale ([`crate::int8::QuantLinear`]).
//! [`TransformerModel::int8_decoder`] builds every pack the steps read
//! and hands out a view of the model; every step multiplies through the
//! register-blocked kernel one row high and dequantizes with
//! `row_scale × weight_scale`, computed once per row, as the kernel
//! stores the row ([`phox_tensor::gemm_i8::matmul_packed_dequant`]).
//! [`TransformerModel::forward_prefix_int8`] and
//! [`TransformerModel::generate_int8`] read the same packs, so a step
//! reproduces the full forward bit for bit.
//!
//! ## Trace instrumentation
//!
//! With tracing enabled, each step emits `decode/steps` (+1),
//! `decode/cached_rows` (+layers: K/V rows appended), and
//! `decode/gemv_calls` (+6·layers: the m = 1 weight products — Q/K/V,
//! output projection, both feed-forward layers). The int8 products
//! record the `int8/*` counters of `gemm_i8::matmul_packed_dequant` at
//! `m = 1`.

use phox_tensor::gemm::simd;
use phox_tensor::{Matrix, TensorError};

use crate::int8::Precision;
use crate::transformer::{
    decode_context_lengths, TransformerConfig, TransformerDatapath, TransformerKind,
    TransformerModel,
};

/// Per-layer K/V rows of one layer.
#[derive(Debug, Clone, PartialEq)]
struct LayerKv {
    /// Cached key rows, row-major `rows × d_model`.
    k: Vec<f64>,
    /// Cached value rows, row-major `rows × d_model`.
    v: Vec<f64>,
    rows: usize,
}

/// Append-only per-layer K/V cache for autoregressive decode.
///
/// One `K` and one `V` row per layer per decoded token, preallocated to
/// `capacity` rows. The cache stores *post-projection* rows (what the
/// attention heads read), so a decode step touches each cached row once
/// per head slice instead of recomputing the projections — the O(t·d)
/// per-step cost that replaces the O(t²·d) full recompute.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    d_model: usize,
    capacity: usize,
    layers: Vec<LayerKv>,
}

impl KvCache {
    /// An empty cache for `config` with room for `capacity` context
    /// rows per layer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when `config` fails its
    /// own validation or `capacity` is zero.
    pub fn new(config: &TransformerConfig, capacity: usize) -> Result<Self, TensorError> {
        let config = config.clone().validated()?;
        if capacity == 0 {
            return Err(TensorError::InvalidDimension {
                what: "kv-cache capacity must be nonzero",
            });
        }
        let d = config.d_model;
        let layers = (0..config.layers)
            .map(|_| LayerKv {
                k: Vec::with_capacity(capacity * d),
                v: Vec::with_capacity(capacity * d),
                rows: 0,
            })
            .collect();
        Ok(KvCache {
            d_model: d,
            capacity,
            layers,
        })
    }

    /// Context rows currently cached (identical across layers).
    pub fn rows(&self) -> usize {
        self.layers.first().map_or(0, |l| l.rows)
    }

    /// Maximum context rows per layer.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of layers the cache was built for.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Model dimension of the cached rows.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Context rows cached for one layer.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    pub fn layer_rows(&self, layer: usize) -> usize {
        self.layers[layer].rows
    }

    /// Drops every cached row, keeping the allocation.
    pub fn reset(&mut self) {
        for l in &mut self.layers {
            l.k.clear();
            l.v.clear();
            l.rows = 0;
        }
    }

    /// Truncates every layer back to `rows` context rows (no-op when
    /// already at or below `rows`). Lets a caller re-run a step from the
    /// same context repeatedly, e.g. when timing per-token latency.
    pub fn truncate(&mut self, rows: usize) {
        for l in &mut self.layers {
            if l.rows > rows {
                l.k.truncate(rows * self.d_model);
                l.v.truncate(rows * self.d_model);
                l.rows = rows;
            }
        }
    }

    /// Appends one K row and one V row to `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when a row length is not
    /// `d_model`, [`TensorError::IndexOutOfBounds`] for a bad layer
    /// index, and [`TensorError::InvalidDimension`] when the layer is
    /// already at capacity.
    pub fn append(
        &mut self,
        layer: usize,
        k_row: &[f64],
        v_row: &[f64],
    ) -> Result<(), TensorError> {
        let d = self.d_model;
        for row in [k_row, v_row] {
            if row.len() != d {
                return Err(TensorError::LengthMismatch {
                    expected: d,
                    actual: row.len(),
                });
            }
        }
        let capacity = self.capacity;
        let num_layers = self.layers.len();
        let l = self
            .layers
            .get_mut(layer)
            .ok_or(TensorError::IndexOutOfBounds {
                index: (layer, 0),
                shape: (num_layers, d),
            })?;
        if l.rows >= capacity {
            return Err(TensorError::InvalidDimension {
                what: "kv-cache is at capacity",
            });
        }
        l.k.extend_from_slice(k_row);
        l.v.extend_from_slice(v_row);
        l.rows += 1;
        Ok(())
    }

    /// Ledger-style invariant check: every layer holds the same number
    /// of rows, each buffer length is `rows × d_model`, and no layer
    /// exceeds capacity.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] naming the violated
    /// invariant.
    pub fn validate(&self) -> Result<(), TensorError> {
        let rows = self.rows();
        for l in &self.layers {
            if l.rows != rows {
                return Err(TensorError::InvalidDimension {
                    what: "kv-cache layers hold differing row counts",
                });
            }
            if l.k.len() != rows * self.d_model || l.v.len() != rows * self.d_model {
                return Err(TensorError::InvalidDimension {
                    what: "kv-cache buffer length disagrees with its row count",
                });
            }
            if l.rows > self.capacity {
                return Err(TensorError::InvalidDimension {
                    what: "kv-cache exceeds its capacity",
                });
            }
        }
        Ok(())
    }
}

/// Per-generation bookkeeping returned by [`TransformerModel::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeStats {
    /// Incremental steps spent consuming prompt rows before the first
    /// token came out (`prompt_len - 1`).
    pub prefill_steps: usize,
    /// Steps that produced generated tokens (`gen_tokens`).
    pub decode_steps: usize,
    /// Context length of the first decode step (`prompt_len`).
    pub first_context: usize,
    /// Context length of the last decode step
    /// (`prompt_len + gen_tokens - 1`).
    pub last_context: usize,
    /// MACs executed by the prefill steps.
    pub prefill_macs: u64,
    /// MACs executed by the decode steps — the functional ground truth
    /// [`TransformerConfig::generation_census`] is pinned against.
    pub decode_macs: u64,
}

/// The output of an autoregressive generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Generation {
    /// One row per generated token (`gen_tokens × d_model`): the decode
    /// step outputs, i.e. rows `prompt_len-1 ..` of the equivalent
    /// full-sequence causal forward.
    pub tokens: Matrix,
    /// Step/MAC bookkeeping.
    pub stats: DecodeStats,
}

/// A weight-resident int8 decoder: [`TransformerModel::decode_step`] on
/// the int8 datapath, reading the packs the model keeps with its weights
/// across steps — how the accelerator holds weights during decode.
pub struct Int8Decoder<'m> {
    model: &'m TransformerModel,
}

impl Int8Decoder<'_> {
    /// One int8 decode step; see [`TransformerModel::decode_step`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::decode_step`].
    pub fn step(&self, cache: &mut KvCache, x: &Matrix) -> Result<Matrix, TensorError> {
        self.model
            .decode_step_with(cache, x, Precision::Int8)
            .map(|(y, _)| y)
    }
}

impl TransformerModel {
    /// A weight-resident int8 decode handle borrowing this model. Builds
    /// every pack a step reads that the model has not built yet: one
    /// quantization and panel pack per weight, kept by the model.
    pub fn int8_decoder(&self) -> Int8Decoder<'_> {
        for lw in self.layers() {
            for w in [&lw.w_q, &lw.w_k, &lw.w_v, &lw.w_o, &lw.w_ff1, &lw.w_ff2] {
                w.quantized();
            }
        }
        Int8Decoder { model: self }
    }

    /// One full-precision KV-cached decode step: runs the single row `x`
    /// (`1 × d_model`) through every layer, appending this step's K/V
    /// rows to `cache` and attending over the grown context. The output
    /// row equals row `t-1` of [`TransformerModel::forward_prefix`] over
    /// the same `t` tokens (the equivalence oracle pinned by the
    /// `decode_equiv` suite).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for models that are not
    /// decoder-only, for a cache built for a different configuration, or
    /// for a cache at capacity; shape errors for a malformed `x`.
    pub fn decode_step(&self, cache: &mut KvCache, x: &Matrix) -> Result<Matrix, TensorError> {
        self.decode_step_with(cache, x, Precision::F64)
            .map(|(y, _)| y)
    }

    /// Shared decode-step implementation: the weight products run at
    /// precision `p` ([`Precision::F64`] or [`Precision::Int8`], whose
    /// products read each weight's resident pack). Returns the output row
    /// and the MACs this step executed.
    fn decode_step_with(
        &self,
        cache: &mut KvCache,
        x: &Matrix,
        mut p: Precision,
    ) -> Result<(Matrix, u64), TensorError> {
        let cfg = self.config();
        if cfg.kind != TransformerKind::DecoderOnly {
            return Err(TensorError::InvalidDimension {
                what: "kv-cache decode requires a decoder-only model",
            });
        }
        if x.rows() != 1 || x.cols() != cfg.d_model {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape(),
                rhs: (1, cfg.d_model),
            });
        }
        if cache.num_layers() != cfg.layers || cache.d_model() != cfg.d_model {
            return Err(TensorError::InvalidDimension {
                what: "kv-cache was built for a different configuration",
            });
        }
        cache.validate()?;

        let d = cfg.d_model;
        let dh = cfg.d_head();
        let heads = cfg.heads;
        let (d_u64, ff_u64) = (d as u64, cfg.d_ff as u64);
        let mut macs = 0u64;
        let mut h = x.clone();
        // One scores buffer for every head of every layer: each layer
        // attends over the same number of cached rows.
        let mut scores = Vec::new();
        for (layer, lw) in self.layers().iter().enumerate() {
            let q = p.mm(&h, &lw.w_q)?;
            let k = p.mm(&h, &lw.w_k)?;
            let v = p.mm(&h, &lw.w_v)?;
            cache.append(layer, k.row(0), v.row(0))?;
            let t = cache.layer_rows(layer);
            scores.resize(t, 0.0);

            let LayerKv {
                k: kbuf, v: vbuf, ..
            } = &cache.layers[layer];
            let mut concat = Matrix::zeros(1, d);
            for head in 0..heads {
                let (lo, hi) = (head * dh, (head + 1) * dh);
                // Score j equals element (t-1, j) of the full path's
                // `qh.matmul(&kh.transpose())` scaled, bit for bit: both
                // run `simd::dot`'s schedule over the fixed inner
                // dimension dh. The context runs the full path's
                // `simd::context` kernel one row high: one accumulator
                // per output, context index ascending (the
                // prefix-invariance oracle).
                simd::attend(
                    &q.row(0)[lo..hi],
                    kbuf,
                    vbuf,
                    d,
                    lo,
                    &mut scores,
                    &mut concat.as_mut_slice()[lo..hi],
                );
            }
            let mha = p.mm_weight_only(&concat, &lw.w_o)?;
            let res1 = h.add(&mha)?;
            let norm1 = phox_tensor::ops::layer_norm(&res1, &lw.ln1_gamma, &lw.ln1_beta, 1e-9)?;

            let inner = p.mm_weight_only(&norm1, &lw.w_ff1)?;
            let activated = cfg.ff_activation.apply(&inner);
            let ffo = p.mm_weight_only(&activated, &lw.w_ff2)?;
            let res2 = norm1.add(&ffo)?;
            h = phox_tensor::ops::layer_norm(&res2, &lw.ln2_gamma, &lw.ln2_beta, 1e-9)?;

            macs += 4 * d_u64 * d_u64 + 2 * d_u64 * t as u64 + 2 * d_u64 * ff_u64;
        }
        cache.validate()?;

        if phox_trace::enabled() {
            let tr = phox_trace::active();
            let layers = self.layers().len();
            tr.count("decode", "steps", 1);
            tr.count("decode", "cached_rows", layers as i64);
            // The m = 1 weight products: Q/K/V, out proj, FF1, FF2.
            tr.count("decode", "gemv_calls", (6 * layers) as i64);
            tr.instant(
                "decode",
                "decode_step",
                vec![
                    ("context", phox_trace::Value::UInt(cache.rows() as u64)),
                    ("layers", phox_trace::Value::UInt(layers as u64)),
                    ("d_model", phox_trace::Value::UInt(d as u64)),
                ],
            );
        }
        Ok((h, macs))
    }

    /// Autoregressive generation: consumes the prompt one row at a time
    /// (building the KV cache), then feeds each output row back as the
    /// next input, for `gen_tokens` generated rows. The step over the
    /// *last* prompt row is the first decode step (context
    /// `prompt.rows()`), so decode-step contexts are exactly
    /// [`decode_context_lengths`]`(prompt.rows(), gen_tokens)` — the
    /// range [`TransformerConfig::generation_census`] and TRON's
    /// `simulate_generation` integrate over.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] for models that are not
    /// decoder-only or `gen_tokens == 0`; shape errors for a malformed
    /// prompt.
    pub fn generate(&self, prompt: &Matrix, gen_tokens: usize) -> Result<Generation, TensorError> {
        self.generate_with(prompt, gen_tokens, Precision::F64)
    }

    /// [`TransformerModel::generate`] on the true int8 datapath, each
    /// step an [`Int8Decoder`] step: weights quantized and packed once,
    /// held resident across steps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::generate`].
    pub fn generate_int8(
        &self,
        prompt: &Matrix,
        gen_tokens: usize,
    ) -> Result<Generation, TensorError> {
        self.generate_with(prompt, gen_tokens, Precision::Int8)
    }

    fn generate_with(
        &self,
        prompt: &Matrix,
        gen_tokens: usize,
        precision: Precision,
    ) -> Result<Generation, TensorError> {
        let cfg = self.config();
        if cfg.kind != TransformerKind::DecoderOnly {
            return Err(TensorError::InvalidDimension {
                what: "generation requires a decoder-only model",
            });
        }
        if gen_tokens == 0 {
            return Err(TensorError::InvalidDimension {
                what: "generation needs at least one token",
            });
        }
        let p = prompt.rows();
        if p == 0 || prompt.cols() != cfg.d_model {
            return Err(TensorError::ShapeMismatch {
                lhs: prompt.shape(),
                rhs: (1, cfg.d_model),
            });
        }
        let contexts = decode_context_lengths(p, gen_tokens);
        let mut cache = KvCache::new(cfg, contexts.end - 1)?;
        let mut prefill_macs = 0u64;
        let mut decode_macs = 0u64;
        let mut tokens = Matrix::zeros(gen_tokens, cfg.d_model);

        // Prefill: prompt rows 0..p-1 build the cache (contexts 1..p-1).
        for r in 0..p - 1 {
            let row = Matrix::row_vector(prompt.row(r));
            let (_, m) = self.decode_step_with(&mut cache, &row, precision)?;
            prefill_macs += m;
        }
        // Decode: the last prompt row produces generated token 1
        // (context p); each output feeds the next step.
        let mut next = Matrix::row_vector(prompt.row(p - 1));
        for i in 0..gen_tokens {
            let (out, m) = self.decode_step_with(&mut cache, &next, precision)?;
            decode_macs += m;
            for c in 0..cfg.d_model {
                tokens.set(i, c, out.get(0, c));
            }
            next = out;
        }

        Ok(Generation {
            tokens,
            stats: DecodeStats {
                prefill_steps: p - 1,
                decode_steps: gen_tokens,
                first_context: contexts.start,
                last_context: contexts.end - 1,
                prefill_macs,
                decode_macs,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::Prng;

    fn tiny_decoder(seed: u64, seq_len: usize) -> TransformerModel {
        let cfg = TransformerConfig {
            kind: TransformerKind::DecoderOnly,
            ..TransformerConfig::tiny(seq_len)
        };
        TransformerModel::random(cfg, seed).unwrap()
    }

    #[test]
    fn cache_append_and_invariants() {
        let m = tiny_decoder(1, 8);
        let mut cache = KvCache::new(m.config(), 3).unwrap();
        assert_eq!(cache.rows(), 0);
        assert_eq!(cache.num_layers(), 2);
        cache.append(0, &[0.0; 32], &[0.0; 32]).unwrap();
        // Layers now disagree on row counts: validate must fail.
        assert!(cache.validate().is_err());
        cache.append(1, &[0.0; 32], &[0.0; 32]).unwrap();
        cache.validate().unwrap();
        assert_eq!(cache.rows(), 1);
        // Wrong row length and bad layer index are rejected.
        assert!(cache.append(0, &[0.0; 31], &[0.0; 32]).is_err());
        assert!(cache.append(5, &[0.0; 32], &[0.0; 32]).is_err());
    }

    #[test]
    fn cache_capacity_exhaustion() {
        let m = tiny_decoder(2, 8);
        let mut cache = KvCache::new(m.config(), 2).unwrap();
        let x = Matrix::zeros(1, 32);
        m.decode_step(&mut cache, &x).unwrap();
        m.decode_step(&mut cache, &x).unwrap();
        assert!(m.decode_step(&mut cache, &x).is_err());
        cache.truncate(1);
        assert_eq!(cache.rows(), 1);
        cache.validate().unwrap();
        m.decode_step(&mut cache, &x).unwrap();
        cache.reset();
        assert_eq!(cache.rows(), 0);
        assert!(KvCache::new(m.config(), 0).is_err());
    }

    #[test]
    fn decode_step_rejects_bad_inputs() {
        let m = tiny_decoder(3, 8);
        let mut cache = KvCache::new(m.config(), 4).unwrap();
        // Wrong input shape.
        assert!(m.decode_step(&mut cache, &Matrix::zeros(2, 32)).is_err());
        assert!(m.decode_step(&mut cache, &Matrix::zeros(1, 16)).is_err());
        // Non-decoder-only model.
        let enc = TransformerModel::random(TransformerConfig::tiny(8), 4).unwrap();
        let mut enc_cache = KvCache::new(enc.config(), 4).unwrap();
        assert!(enc
            .decode_step(&mut enc_cache, &Matrix::zeros(1, 32))
            .is_err());
        // Cache built for a different configuration.
        let other = TransformerConfig {
            kind: TransformerKind::DecoderOnly,
            d_model: 16,
            heads: 2,
            ..TransformerConfig::tiny(8)
        };
        let mut wrong = KvCache::new(&other, 4).unwrap();
        assert!(m.decode_step(&mut wrong, &Matrix::zeros(1, 32)).is_err());
    }

    #[test]
    fn generate_rejects_bad_requests() {
        let m = tiny_decoder(5, 8);
        let prompt = Prng::new(6).fill_normal(4, 32, 0.0, 1.0);
        assert!(m.generate(&prompt, 0).is_err());
        assert!(m.generate(&Matrix::zeros(4, 16), 2).is_err());
        let enc = TransformerModel::random(TransformerConfig::tiny(8), 7).unwrap();
        assert!(enc.generate(&prompt, 2).is_err());
    }

    #[test]
    fn generate_bookkeeping() {
        let m = tiny_decoder(8, 8);
        let prompt = Prng::new(9).fill_normal(4, 32, 0.0, 1.0);
        let gen = m.generate(&prompt, 3).unwrap();
        assert_eq!(gen.tokens.shape(), (3, 32));
        assert_eq!(gen.stats.prefill_steps, 3);
        assert_eq!(gen.stats.decode_steps, 3);
        assert_eq!(gen.stats.first_context, 4);
        assert_eq!(gen.stats.last_context, 6);
        // Per-step MACs: layers * (4d² + 2d·t + 2d·ff), t = 4,5,6.
        let (d, ff) = (32u64, 64u64);
        let expected: u64 = (4u64..=6)
            .map(|t| 2 * (4 * d * d + 2 * d * t + 2 * d * ff))
            .sum();
        assert_eq!(gen.stats.decode_macs, expected);
    }
}
