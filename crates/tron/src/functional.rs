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
//! [`phox_photonics::analog::AnalogEngine`]; this module supplies the
//! analog datapath that the model's own layer walk (Fig. 5) runs on.

use phox_nn::int8::Weight;
use phox_nn::transformer::{FfActivation, TransformerDatapath, TransformerModel};
use phox_photonics::analog::{AnalogDevices, AnalogEngine, AnalogRuntime};
use phox_photonics::devices::OpticalActivation;
use phox_photonics::fault::{FaultPlan, FaultSchedule};
use phox_photonics::{Ctx, PhotonicError};
use phox_tensor::{parallel, Matrix, TensorError};

use crate::config::TronConfig;

/// Functional TRON simulator: executes a [`TransformerModel`] on the
/// analog datapath of its [`AnalogRuntime`], built from the
/// configuration's converters, bank arrays and device models.
#[derive(Debug, Clone, PartialEq)]
pub struct TronFunctional(AnalogRuntime);

fn devices(config: &TronConfig) -> AnalogDevices {
    AnalogDevices {
        adc_bits: config.adc.bits,
        dac_bits: config.dac.bits,
        array_rows: config.array_rows,
        array_channels: config.array_channels,
        mr: config.mr,
        tuning: config.tuning,
        noise: config.noise,
    }
}

impl TronFunctional {
    /// See [`AnalogRuntime::new`].
    pub fn new(config: &TronConfig, seed: u64) -> Result<Self, PhotonicError> {
        AnalogRuntime::new(devices(config), seed).map(TronFunctional)
    }

    /// See [`AnalogRuntime::ideal`].
    pub fn ideal(config: &TronConfig, seed: u64) -> Self {
        TronFunctional(AnalogRuntime::ideal(devices(config), seed))
    }

    /// See [`AnalogRuntime::with_noise`].
    pub fn with_noise(config: &TronConfig, sigma: f64, seed: u64) -> Result<Self, PhotonicError> {
        AnalogRuntime::with_noise(devices(config), sigma, seed).map(TronFunctional)
    }

    /// See [`AnalogRuntime::with_faults`]; the faults reach the per-head
    /// child engines too.
    pub fn with_faults(
        config: &TronConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        AnalogRuntime::with_faults(devices(config), plan, seed)
            .ctx("injecting device faults into TRON")
            .map(TronFunctional)
    }

    /// See [`AnalogRuntime::with_fault_schedule`].
    pub fn with_fault_schedule(
        config: &TronConfig,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        AnalogRuntime::with_fault_schedule(devices(config), schedule, seed)
            .ctx("attaching fault schedule to TRON")
            .map(TronFunctional)
    }

    /// See [`AnalogRuntime::advance_to`].
    pub fn advance_to(&mut self, t_s: f64) -> Result<(), PhotonicError> {
        self.0.advance_to(t_s).ctx("advancing TRON fault schedule")
    }

    /// The underlying analog engine.
    pub fn engine(&self) -> &AnalogEngine {
        self.0.engine()
    }

    /// Runs the model's own layer walk ([`TransformerModel::forward_with`])
    /// on the analog datapath over `x` (`seq_len × d_model`).
    /// Encoder-decoder models use `x` as both source and target.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` does not match the model.
    pub fn forward(
        &mut self,
        model: &TransformerModel,
        x: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        model.forward_with(x, self)
    }

    /// The photonic sequence-to-sequence pass
    /// ([`TransformerModel::forward_seq2seq`]).
    ///
    /// # Errors
    ///
    /// Returns an error for non-encoder-decoder models or shape
    /// mismatches.
    pub fn forward_seq2seq(
        &mut self,
        model: &TransformerModel,
        src: &Matrix,
        tgt: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        model.forward_seq2seq(src, tgt, self)
    }
}

/// The analog datapath (Fig. 5): every product on the engine, each
/// weight product over the weight's resident int8 pack
/// ([`Weight::quantized`], [`AnalogEngine::matmul_packed`]), the heads'
/// optical Q·Kᵀ (eq. (3) keeps it fully analog) with a digital LUT
/// softmax, coherent-summation residuals and optical LayerNorm. ReLU maps
/// onto an SOA; GELU is realised digitally between conversions (modelled
/// as exact).
impl TransformerDatapath for &mut TronFunctional {
    type Error = PhotonicError;

    fn mm(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, PhotonicError> {
        let q = w.quantized();
        self.0.engine_mut().matmul_packed(a, q.panels(), q.scale())
    }

    fn mm_weight_only(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, PhotonicError> {
        self.mm(a, w)
    }

    /// Heads run in parallel, each on a deterministic child engine keyed
    /// by `(operation key, head index)` ([`AnalogEngine::make_child`]),
    /// so the result is bit-identical for any thread count.
    fn heads(&mut self, qkv: [&Matrix; 3], n: usize, causal: bool) -> Result<Matrix, Self::Error> {
        let key = self.0.engine_mut().stream_key();
        let parent = self.0.engine();
        let contexts = parallel::par_map_indexed(n, |h| {
            let mut engine = parent.make_child(key, h as u64);
            let [qh, kt, vh] = head_operands(qkv, n, h)?;
            let mut attn = mask_scores(engine.matmul(&qh, &kt)?, vh.cols(), causal);
            for r in 0..attn.rows() {
                engine.lut_softmax_in_place(attn.row_mut(r));
            }
            engine.matmul(&attn, &vh)
        });
        concat_heads(qkv[0].shape(), contexts)
    }

    fn residual(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, PhotonicError> {
        self.0.engine_mut().coherent_add(x, y)
    }

    fn layer_norm(&mut self, x: &Matrix, (g, b): (&[f64], &[f64])) -> Result<Matrix, Self::Error> {
        self.0.engine_mut().optical_layer_norm(x, g, b)
    }

    fn activate(&mut self, f: FfActivation, x: &Matrix) -> Matrix {
        match f {
            FfActivation::Relu => self
                .0
                .engine_mut()
                .soa_activate(OpticalActivation::Relu, x.clone()),
            FfActivation::Gelu => phox_tensor::ops::gelu(x),
        }
    }
}

/// Head `h` of `n` over `[q, k, v]`: its query columns, its key columns
/// transposed (the operand the engine's `B` modulators take), and its
/// value columns.
fn head_operands(qkv: [&Matrix; 3], n: usize, h: usize) -> Result<[Matrix; 3], TensorError> {
    let dh = qkv[0].cols() / n;
    let [q, k, v] = qkv.map(|m| m.col_slice(h * dh, (h + 1) * dh));
    Ok([q?, k?.transpose(), v?])
}

/// Scales a head's scores by `1/√d_h` in place and, when `causal`, masks
/// every future position with `-∞`.
fn mask_scores(mut scores: Matrix, dh: usize, causal: bool) -> Matrix {
    let scale = 1.0 / (dh as f64).sqrt();
    for s in scores.as_mut_slice() {
        *s *= scale;
    }
    if causal {
        for r in 0..scores.rows() {
            for c in (r + 1)..scores.cols() {
                scores.set(r, c, f64::NEG_INFINITY);
            }
        }
    }
    scores
}

/// Concatenates the heads' contexts in head order into one `rows x d`
/// matrix (Fig. 5(b) buffer & concat).
fn concat_heads<E>(
    (rows, d): (usize, usize),
    contexts: impl IntoIterator<Item = Result<Matrix, E>>,
) -> Result<Matrix, E> {
    let mut concat = Matrix::zeros(rows, d);
    for (h, ctx) in contexts.into_iter().enumerate() {
        let ctx = ctx?;
        for r in 0..rows {
            concat.row_mut(r)[h * ctx.cols()..][..ctx.cols()].copy_from_slice(ctx.row(r));
        }
    }
    Ok(concat)
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
    use phox_nn::transformer::{TransformerConfig, TransformerKind};
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
