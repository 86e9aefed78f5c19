//! End-to-end TRON integration: the functional photonic datapath must
//! compute what the digital int8 reference computes, across model kinds
//! and sequence lengths, and the performance simulator must behave
//! physically (monotone scaling, bounded by peak).

use phox::nn::transformer::FfActivation;
use phox::prelude::*;
use phox::tensor::{ops, stats};

fn tiny(seq: usize) -> TransformerConfig {
    TransformerConfig::tiny(seq)
}

#[test]
fn functional_matches_digital_reference_across_seeds() {
    let config = TronConfig::default();
    for seed in [1u64, 2, 3] {
        let model = TransformerModel::random(tiny(8), seed).unwrap();
        let x = Prng::new(seed + 100).fill_normal(8, 32, 0.0, 1.0);
        let reference = model
            .forward_with(&x, Precision::FakeQuant { bits: 8 })
            .unwrap();
        let mut sim = TronFunctional::new(&config, seed + 200).unwrap();
        let photonic = sim.forward(&model, &x).unwrap();
        let err = stats::relative_error(&reference, &photonic);
        assert!(err < 0.4, "seed {seed}: analog vs int8 error {err}");
    }
}

#[test]
fn functional_works_for_decoder_models() {
    let cfg = TransformerConfig {
        kind: phox::nn::transformer::TransformerKind::DecoderOnly,
        ..tiny(8)
    };
    let model = TransformerModel::random(cfg, 5).unwrap();
    let x = Prng::new(6).fill_normal(8, 32, 0.0, 1.0);
    let mut sim = TronFunctional::ideal(&TronConfig::default(), 7);
    let y = sim.forward(&model, &x).unwrap();
    assert!(y.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn functional_works_with_gelu_ff() {
    let cfg = TransformerConfig {
        ff_activation: FfActivation::Gelu,
        ..tiny(8)
    };
    let model = TransformerModel::random(cfg, 8).unwrap();
    let x = Prng::new(9).fill_normal(8, 32, 0.0, 1.0);
    let reference = model.forward(&x).unwrap();
    let mut sim = TronFunctional::new(&TronConfig::default(), 10).unwrap();
    let photonic = sim.forward(&model, &x).unwrap();
    assert!(stats::relative_error(&reference, &photonic) < 0.4);
}

#[test]
fn classification_agreement_between_analog_and_digital() {
    // On a separable task, analog TRON must classify like the digital
    // model (the operational meaning of "8-bit accuracy comparable to
    // fp32" on photonic hardware).
    let model = TransformerModel::random(tiny(8), 11).unwrap();
    let task = phox::nn::datasets::labelled_sequences(16, 4, 8, 32, 12).unwrap();
    let mut sim = TronFunctional::new(&TronConfig::default(), 13).unwrap();
    let mut agree = 0;
    for x in &task.inputs {
        let d = model.forward(x).unwrap();
        let a = sim.forward(&model, x).unwrap();
        // Compare mean-pooled class responses.
        let dm = ops::argmax_rows(&mean_pool(&d));
        let am = ops::argmax_rows(&mean_pool(&a));
        if dm == am {
            agree += 1;
        }
    }
    assert!(agree >= 13, "agreement {agree}/16");
}

fn mean_pool(x: &Matrix) -> Matrix {
    let mut m = Matrix::zeros(1, x.cols());
    for r in 0..x.rows() {
        for c in 0..x.cols() {
            m.set(0, c, m.get(0, c) + x.get(r, c) / x.rows() as f64);
        }
    }
    m
}

#[test]
fn perf_scales_with_sequence_length() {
    let tron = TronAccelerator::new(TronConfig::default()).unwrap();
    let short = tron.simulate(&TransformerConfig::bert_base(128)).unwrap();
    let long = tron.simulate(&TransformerConfig::bert_base(512)).unwrap();
    assert!(long.perf.latency_s > short.perf.latency_s * 3.0);
    assert!(long.perf.energy_j > short.perf.energy_j * 3.0);
}

#[test]
fn throughput_bounded_by_peak() {
    let tron = TronAccelerator::new(TronConfig::default()).unwrap();
    let peak_gops = tron.config().peak_macs_per_s() * 2.0 / 1e9;
    for m in [
        TransformerConfig::bert_base(128),
        TransformerConfig::bert_large(256),
        TransformerConfig::gpt2(512),
        TransformerConfig::vit_b16(),
    ] {
        let r = tron.simulate(&m).unwrap();
        assert!(
            r.perf.gops() <= peak_gops,
            "{}: {} GOPS exceeds peak {peak_gops}",
            m.name,
            r.perf.gops()
        );
    }
}

#[test]
fn design_space_config_outperforms_default() {
    let default = TronAccelerator::new(TronConfig::default()).unwrap();
    let optimised =
        TronAccelerator::new(TronConfig::from_design_space(&SweepConfig::default()).unwrap())
            .unwrap();
    let model = TransformerConfig::bert_base(128);
    let rd = default.simulate(&model).unwrap();
    let ro = optimised.simulate(&model).unwrap();
    assert!(
        ro.perf.gops() > rd.perf.gops(),
        "optimised {} vs default {}",
        ro.perf.gops(),
        rd.perf.gops()
    );
}

#[test]
fn eq3_decomposition_covers_attention_macs() {
    // The decomposition Q·Kᵀ = (Q·W_Kᵀ)·Xᵀ must not change the MAC
    // census — only remove the digital transpose.
    let model = TransformerConfig::bert_base(128);
    let matmuls = phox::tron::perf::TronAccelerator::layer_matmuls(&model);
    let macs: u64 = matmuls
        .iter()
        .map(|(s, _, _)| (s.m * s.k * s.n) as u64)
        .sum();
    assert_eq!(macs * model.layers as u64, model.census().macs);
}

#[test]
fn laser_budget_failure_is_typed() {
    // A hopeless laser should produce LaserBudgetExceeded, not a panic.
    let config = TronConfig {
        laser: phox::photonics::link::Laser {
            max_power_per_channel_dbm: -30.0,
            wall_plug_efficiency: 0.2,
        },
        ..TronConfig::default()
    };
    match TronAccelerator::new(config) {
        Err(PhotonicError::LaserBudgetExceeded { .. }) => {}
        other => panic!("expected LaserBudgetExceeded, got {other:?}"),
    }
}
