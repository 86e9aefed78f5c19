//! Functional (value-level) simulation of the TRON analog datapath.
//!
//! Runs an actual transformer forward pass through the modelled photonic
//! pipeline: int8 DAC quantization of every operand, signed arithmetic
//! via the balanced-photodetector positive/negative arms (§V.C), analog
//! noise injection at the receiver, 8-bit ADC read-back ranged over each
//! product, LUT softmax, optical LayerNorm and coherent-summation
//! residuals. Used to validate that the accelerator computes the same
//! results as the digital int8 reference within noise tolerance.
//!
//! The signal-chain arithmetic lives in
//! [`phox_photonics::analog::AnalogEngine`]; this module wires a
//! transformer's dataflow (Fig. 5) through it.

use phox_nn::transformer::{
    DecoderLayerWeights, FfActivation, LayerWeights, TransformerKind, TransformerModel,
};
use phox_photonics::analog::AnalogEngine;
use phox_photonics::devices::OpticalActivation;
use phox_photonics::fault::{FaultPlan, FaultSchedule};
use phox_photonics::mr::MrConfig;
use phox_photonics::noise::NoiseBudget;
use phox_photonics::tuning::HybridTuning;
use phox_photonics::{Ctx, PhotonicError};
use phox_tensor::{parallel, Matrix};

use crate::config::TronConfig;

/// Mid-run fault-schedule state: the model-time fault timeline plus the
/// device models needed to re-resolve the active plan as time advances.
#[derive(Debug, Clone, PartialEq)]
struct FaultRuntime {
    schedule: FaultSchedule,
    mr: MrConfig,
    tuning: HybridTuning,
    noise: NoiseBudget,
    bits: u32,
    current: FaultPlan,
}

/// Functional TRON simulator: executes a [`TransformerModel`] through the
/// analog engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TronFunctional {
    engine: AnalogEngine,
    fault_runtime: Option<FaultRuntime>,
}

impl TronFunctional {
    /// Builds the functional simulator with receiver noise derived from
    /// the configuration's provisioned 8-bit optical budget.
    ///
    /// # Errors
    ///
    /// Propagates noise-budget failures.
    pub fn new(config: &TronConfig, seed: u64) -> Result<Self, PhotonicError> {
        Ok(TronFunctional {
            engine: AnalogEngine::from_noise_budget(&config.noise, config.adc.bits, seed)?,
            fault_runtime: None,
        })
    }

    /// Builds a noiseless functional simulator (quantization effects
    /// only).
    pub fn ideal(config: &TronConfig, seed: u64) -> Self {
        TronFunctional {
            engine: AnalogEngine::ideal(config.adc.bits, config.dac.bits, seed),
            fault_runtime: None,
        }
    }

    /// Builds a functional simulator with an explicit receiver noise
    /// level — used by robustness sweeps that stress the datapath beyond
    /// its provisioned operating point.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn with_noise(
        config: &TronConfig,
        relative_sigma: f64,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        Ok(TronFunctional {
            engine: AnalogEngine::new(relative_sigma, config.adc.bits, config.dac.bits, seed)?,
            fault_runtime: None,
        })
    }

    /// Builds a functional simulator with injected device faults.
    ///
    /// The plan is validated against the configuration's bank-array
    /// geometry and resolved against its device models
    /// ([`phox_photonics::fault::FaultPlan::impact`]); the resulting
    /// degradation (stuck weights, drift gain error, dead ADC lanes,
    /// droop-inflated noise) applies to every analog operation, including
    /// the per-head child engines.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the plan is out of geometry
    /// or the fault is uncompensatable (drift beyond the tuning range,
    /// droop below the noise floor).
    pub fn with_faults(
        config: &TronConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        if plan.array_rows != config.array_rows || plan.array_channels != config.array_channels {
            return Err(PhotonicError::InvalidConfig {
                what: "fault plan geometry must match the accelerator's bank arrays",
            }
            .ctx("injecting device faults into TRON"));
        }
        let plan = plan.validated().ctx("injecting device faults into TRON")?;
        let impact = plan
            .impact(&config.mr, &config.tuning, &config.noise, config.adc.bits)
            .ctx("injecting device faults into TRON")?;
        let mut engine = AnalogEngine::from_noise_budget(&config.noise, config.adc.bits, seed)?;
        engine
            .inject_faults(&impact, config.array_rows, config.array_channels)
            .ctx("injecting device faults into TRON")?;
        Ok(TronFunctional {
            engine,
            fault_runtime: None,
        })
    }

    /// Builds a functional simulator driven by a model-time
    /// [`FaultSchedule`]: call [`TronFunctional::advance_to`] before each
    /// forward pass and the simulator re-resolves the faults active at
    /// that instant. An empty schedule is a strict no-op — the simulator
    /// behaves byte-identically to [`TronFunctional::new`].
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the schedule geometry does
    /// not match the accelerator, or a fault active at `t = 0` is
    /// uncompensatable.
    pub fn with_fault_schedule(
        config: &TronConfig,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        if schedule.array_rows != config.array_rows
            || schedule.array_channels != config.array_channels
        {
            return Err(PhotonicError::InvalidConfig {
                what: "fault schedule geometry must match the accelerator's bank arrays",
            }
            .ctx("attaching fault schedule to TRON"));
        }
        let mut sim = TronFunctional::new(config, seed)?;
        sim.fault_runtime = Some(FaultRuntime {
            schedule,
            mr: config.mr,
            tuning: config.tuning,
            noise: config.noise,
            bits: config.adc.bits,
            current: FaultPlan::new(config.array_rows, config.array_channels),
        });
        sim.advance_to(0.0)?;
        Ok(sim)
    }

    /// Advances the fault schedule to model time `t_s`, re-resolving the
    /// active [`FaultPlan`] into the analog engine. Cheap when the plan
    /// has not changed since the last call; a no-op without a schedule.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when a newly active fault is
    /// uncompensatable (drift beyond the tuning range, droop below the
    /// noise floor, all receiver lanes dead) — the accelerator is down,
    /// not silently wrong.
    pub fn advance_to(&mut self, t_s: f64) -> Result<(), PhotonicError> {
        let Some(rt) = self.fault_runtime.as_mut() else {
            return Ok(());
        };
        let plan = rt
            .schedule
            .plan_at(t_s)
            .ctx("advancing TRON fault schedule")?;
        if plan == rt.current {
            return Ok(());
        }
        if plan.is_empty() {
            self.engine.clear_faults();
        } else {
            let impact = plan
                .impact(&rt.mr, &rt.tuning, &rt.noise, rt.bits)
                .ctx("advancing TRON fault schedule")?;
            self.engine
                .set_fault_impact(&impact, plan.array_rows, plan.array_channels)
                .ctx("advancing TRON fault schedule")?;
        }
        rt.current = plan;
        Ok(())
    }

    /// The attached fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.fault_runtime.as_ref().map(|rt| &rt.schedule)
    }

    /// The underlying analog engine.
    pub fn engine(&self) -> &AnalogEngine {
        &self.engine
    }

    /// Runs the photonic forward pass of `model` on `x`
    /// (`seq_len × d_model`). Encoder-decoder models run the full
    /// pipeline with `x` as both source and target; use
    /// [`TronFunctional::forward_seq2seq`] for distinct sequences.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on shape mismatch.
    pub fn forward(
        &mut self,
        model: &TransformerModel,
        x: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        if model.config().kind == TransformerKind::EncoderDecoder {
            return self.forward_seq2seq(model, x, x);
        }
        self.check_shape(model, x)?;
        let mut h = x.clone();
        for lw in model.layers() {
            h = self.encoder_layer(model, &h, lw)?;
        }
        Ok(h)
    }

    /// Photonic sequence-to-sequence pass: encode `src`, decode `tgt`
    /// through the cross-attention blocks.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for non-encoder-decoder
    /// models or shape mismatches.
    pub fn forward_seq2seq(
        &mut self,
        model: &TransformerModel,
        src: &Matrix,
        tgt: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        if model.config().kind != TransformerKind::EncoderDecoder {
            return Err(PhotonicError::InvalidConfig {
                what: "seq2seq forward requires an encoder-decoder model",
            });
        }
        self.check_shape(model, src)?;
        self.check_shape(model, tgt)?;
        let mut memory = src.clone();
        for lw in model.layers() {
            memory = self.encoder_layer(model, &memory, lw)?;
        }
        let mut h = tgt.clone();
        for dw in model.decoder_layers() {
            h = self.decoder_layer(model, &h, &memory, dw)?;
        }
        Ok(h)
    }

    fn check_shape(&self, model: &TransformerModel, x: &Matrix) -> Result<(), PhotonicError> {
        let cfg = model.config();
        if x.rows() != cfg.seq_len || x.cols() != cfg.d_model {
            return Err(PhotonicError::InvalidConfig {
                what: "input shape must match the model configuration",
            });
        }
        Ok(())
    }

    /// Analog multi-head attention: per-head optical Q·Kᵀ (eq. (3) keeps
    /// it fully analog), digital LUT softmax, optical context matmul and
    /// output projection.
    ///
    /// Heads run in parallel, each on a deterministic child engine keyed
    /// by `(operation key, head index)` — see
    /// [`AnalogEngine::make_child`] — so the result is bit-identical for
    /// any thread count.
    fn analog_mha(
        &mut self,
        model: &TransformerModel,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        w_o: &Matrix,
        causal: bool,
    ) -> Result<Matrix, PhotonicError> {
        let cfg = model.config();
        let d = cfg.d_model;
        let dh = cfg.d_head();
        let key = self.engine.stream_key();
        let parent = &self.engine;
        let contexts: Vec<Result<Matrix, PhotonicError>> =
            parallel::par_map_indexed(cfg.heads, |head| {
                let mut engine = parent.make_child(key, head as u64);
                let lo = head * dh;
                let hi = lo + dh;
                let qh = q.col_slice(lo, hi).ctx("slicing query head columns")?;
                let kh = k.col_slice(lo, hi).ctx("slicing key head columns")?;
                let vh = v.col_slice(lo, hi).ctx("slicing value head columns")?;
                let mut scores = engine
                    .matmul(&qh, &kh.transpose())?
                    .scale(1.0 / (dh as f64).sqrt());
                if causal {
                    for r in 0..scores.rows() {
                        for c in (r + 1)..scores.cols() {
                            scores.set(r, c, f64::NEG_INFINITY);
                        }
                    }
                }
                let attn = engine.lut_softmax(&scores);
                engine.matmul(&attn, &vh)
            });
        let mut concat = Matrix::zeros(q.rows(), d);
        for (head, ctx) in contexts.into_iter().enumerate() {
            let ctx = ctx?;
            let lo = head * dh;
            for r in 0..ctx.rows() {
                for c in 0..dh {
                    concat.set(r, lo + c, ctx.get(r, c));
                }
            }
        }
        self.engine.matmul(&concat, w_o)
    }

    fn encoder_layer(
        &mut self,
        model: &TransformerModel,
        h: &Matrix,
        lw: &LayerWeights,
    ) -> Result<Matrix, PhotonicError> {
        let cfg = model.config();
        let causal = cfg.kind == TransformerKind::DecoderOnly;
        let q = self.engine.matmul(h, &lw.w_q)?;
        let k = self.engine.matmul(h, &lw.w_k)?;
        let v = self.engine.matmul(h, &lw.w_v)?;
        let mha = self.analog_mha(model, &q, &k, &v, &lw.w_o, causal)?;
        let res1 = self.engine.coherent_add(h, &mha)?;
        let norm1 = self
            .engine
            .optical_layer_norm(&res1, &lw.ln1_gamma, &lw.ln1_beta)?;
        self.feed_forward(model, &norm1, lw)
    }

    fn decoder_layer(
        &mut self,
        model: &TransformerModel,
        h: &Matrix,
        memory: &Matrix,
        dw: &DecoderLayerWeights,
    ) -> Result<Matrix, PhotonicError> {
        let lw = &dw.base;
        // Causal self-attention.
        let q = self.engine.matmul(h, &lw.w_q)?;
        let k = self.engine.matmul(h, &lw.w_k)?;
        let v = self.engine.matmul(h, &lw.w_v)?;
        let self_attn = self.analog_mha(model, &q, &k, &v, &lw.w_o, true)?;
        let res1 = self.engine.coherent_add(h, &self_attn)?;
        let norm1 = self
            .engine
            .optical_layer_norm(&res1, &lw.ln1_gamma, &lw.ln1_beta)?;
        // Cross-attention against the encoder memory.
        let cq = self.engine.matmul(&norm1, &dw.w_cq)?;
        let ck = self.engine.matmul(memory, &dw.w_ck)?;
        let cv = self.engine.matmul(memory, &dw.w_cv)?;
        let cross = self.analog_mha(model, &cq, &ck, &cv, &dw.w_co, false)?;
        let res2 = self.engine.coherent_add(&norm1, &cross)?;
        let norm2 = self
            .engine
            .optical_layer_norm(&res2, &dw.ln_cross_gamma, &dw.ln_cross_beta)?;
        self.feed_forward(model, &norm2, lw)
    }

    /// The feed-forward block plus its residual and LayerNorm.
    fn feed_forward(
        &mut self,
        model: &TransformerModel,
        h: &Matrix,
        lw: &LayerWeights,
    ) -> Result<Matrix, PhotonicError> {
        let inner = self.engine.matmul(h, &lw.w_ff1)?;
        // The FF nonlinearity: ReLU maps onto an SOA; GELU is realised
        // digitally between conversions (modelled as exact).
        let activated = match model.config().ff_activation {
            FfActivation::Relu => self.engine.soa_activate(OpticalActivation::Relu, &inner),
            FfActivation::Gelu => phox_tensor::ops::gelu(&inner),
        };
        let ffo = self.engine.matmul(&activated, &lw.w_ff2)?;
        let res2 = self.engine.coherent_add(h, &ffo)?;
        self.engine
            .optical_layer_norm(&res2, &lw.ln2_gamma, &lw.ln2_beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_nn::int8::Precision;
    use phox_nn::transformer::TransformerConfig;
    use phox_tensor::{stats, Prng};

    fn tiny_model(seed: u64) -> TransformerModel {
        TransformerModel::random(TransformerConfig::tiny(8), seed).unwrap()
    }

    #[test]
    fn functional_forward_tracks_reference() {
        let model = tiny_model(21);
        let x = Prng::new(22).fill_normal(8, 32, 0.0, 1.0);
        let reference = model.forward(&x).unwrap();
        let mut sim = TronFunctional::new(&TronConfig::default(), 23).unwrap();
        let photonic = sim.forward(&model, &x).unwrap();
        let err = stats::relative_error(&reference, &photonic);
        assert!(err < 0.35, "photonic forward error {err}");
    }

    #[test]
    fn ideal_functional_is_bounded() {
        let model = tiny_model(31);
        let x = Prng::new(32).fill_normal(8, 32, 0.0, 1.0);
        let reference = model.forward(&x).unwrap();
        let mut ideal = TronFunctional::ideal(&TronConfig::default(), 33);
        let mut noisy = TronFunctional::new(&TronConfig::default(), 33).unwrap();
        let e_ideal = stats::relative_error(&reference, &ideal.forward(&model, &x).unwrap());
        let e_noisy = stats::relative_error(&reference, &noisy.forward(&model, &x).unwrap());
        assert!(e_ideal < 0.3, "ideal err {e_ideal}");
        assert!(e_noisy < 0.5, "noisy err {e_noisy}");
        assert!(noisy.engine().relative_sigma() > 0.0);
        assert_eq!(ideal.engine().relative_sigma(), 0.0);
    }

    #[test]
    fn int8_counters_fire_during_forward() {
        let model = tiny_model(61);
        let x = Prng::new(62).fill_normal(8, 32, 0.0, 1.0);
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || {
            let mut sim = TronFunctional::new(&TronConfig::default(), 63).unwrap();
            sim.forward(&model, &x).unwrap();
        });
        let counters = trace.counters();
        for name in ["analog_gemm_calls", "analog_macs"] {
            assert!(
                counters
                    .iter()
                    .any(|(track, n, _)| track == "int8" && n == name),
                "missing int8/{name} counter: {counters:?}"
            );
        }
        assert!(
            counters
                .iter()
                .any(|(track, n, _)| track == "analog" && n == "scratch_reuse_hits"),
            "missing analog/scratch_reuse_hits counter"
        );
    }

    #[test]
    fn functional_forward_shape_validation() {
        let model = tiny_model(41);
        let mut sim = TronFunctional::ideal(&TronConfig::default(), 42);
        let bad = Matrix::zeros(4, 32);
        assert!(sim.forward(&model, &bad).is_err());
    }

    #[test]
    fn forward_is_deterministic_per_seed() {
        let model = tiny_model(51);
        let x = Prng::new(52).fill_normal(8, 32, 0.0, 1.0);
        let mut a = TronFunctional::new(&TronConfig::default(), 53).unwrap();
        let mut b = TronFunctional::new(&TronConfig::default(), 53).unwrap();
        assert_eq!(
            a.forward(&model, &x).unwrap(),
            b.forward(&model, &x).unwrap()
        );
    }

    #[test]
    fn forward_is_thread_count_invariant() {
        let model = tiny_model(55);
        let x = Prng::new(56).fill_normal(8, 32, 0.0, 1.0);
        let reference = parallel::with_threads(1, || {
            let mut sim = TronFunctional::new(&TronConfig::default(), 57).unwrap();
            sim.forward(&model, &x).unwrap()
        });
        for threads in [2, 8] {
            let y = parallel::with_threads(threads, || {
                let mut sim = TronFunctional::new(&TronConfig::default(), 57).unwrap();
                sim.forward(&model, &x).unwrap()
            });
            assert_eq!(y, reference, "threads={threads}");
        }
    }

    #[test]
    fn quantization_agreement_with_digital_int8() {
        // The analog path should agree with the digital int8 reference
        // about as well as int8 agrees with fp64.
        let model = tiny_model(61);
        let x = Prng::new(62).fill_normal(8, 32, 0.0, 1.0);
        let int8 = model
            .forward_with(&x, Precision::FakeQuant { bits: 8 })
            .unwrap();
        let mut sim = TronFunctional::ideal(&TronConfig::default(), 63);
        let analog = sim.forward(&model, &x).unwrap();
        let err = stats::relative_error(&int8, &analog);
        assert!(err < 0.3, "analog vs int8 error {err}");
    }
}

#[cfg(test)]
mod encoder_decoder_tests {
    use super::*;
    use phox_nn::int8::Precision;
    use phox_nn::transformer::TransformerConfig;
    use phox_tensor::{stats, Prng};

    fn encdec_model(seed: u64) -> TransformerModel {
        let cfg = TransformerConfig {
            kind: TransformerKind::EncoderDecoder,
            ..TransformerConfig::tiny(8)
        };
        TransformerModel::random(cfg, seed).unwrap()
    }

    #[test]
    fn seq2seq_tracks_digital_reference() {
        let model = encdec_model(71);
        let src = Prng::new(72).fill_normal(8, 32, 0.0, 1.0);
        let tgt = Prng::new(73).fill_normal(8, 32, 0.0, 1.0);
        let reference = model.forward_seq2seq(&src, &tgt, Precision::F64).unwrap();
        let mut sim = TronFunctional::new(&TronConfig::default(), 74).unwrap();
        let photonic = sim.forward_seq2seq(&model, &src, &tgt).unwrap();
        let err = stats::relative_error(&reference, &photonic);
        assert!(err < 0.45, "seq2seq analog error {err}");
    }

    #[test]
    fn forward_routes_encdec_to_seq2seq() {
        let model = encdec_model(75);
        let x = Prng::new(76).fill_normal(8, 32, 0.0, 1.0);
        let mut a = TronFunctional::ideal(&TronConfig::default(), 77);
        let mut b = TronFunctional::ideal(&TronConfig::default(), 77);
        assert_eq!(
            a.forward(&model, &x).unwrap(),
            b.forward_seq2seq(&model, &x, &x).unwrap()
        );
    }

    #[test]
    fn seq2seq_rejects_wrong_kind_and_shape() {
        let enc_only = TransformerModel::random(TransformerConfig::tiny(8), 78).unwrap();
        let x = Matrix::zeros(8, 32);
        let mut sim = TronFunctional::ideal(&TronConfig::default(), 79);
        assert!(sim.forward_seq2seq(&enc_only, &x, &x).is_err());
        let model = encdec_model(80);
        let bad = Matrix::zeros(4, 32);
        assert!(sim.forward_seq2seq(&model, &x, &bad).is_err());
    }
}
