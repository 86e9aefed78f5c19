//! Experiment E6: "employing 8-bit model quantization yields algorithmic
//! accuracy comparable to models utilizing full (32-bit) precision"
//! (§VI) — reproduced across both model families and extended to the
//! analog photonic datapath (digital fp ≈ digital int8 ≈ analog
//! photonic).

use phox::nn::datasets::{labelled_sequences, sbm};
use phox::nn::quant_eval::{evaluate_gnn, evaluate_transformer};
use phox::prelude::*;
use phox::tensor::{ops, stats};

const FQ8: Precision = Precision::FakeQuant { bits: 8 };

#[test]
fn transformer_int8_is_comparable_on_sequence_tasks() {
    let task = labelled_sequences(20, 4, 8, 32, 91).unwrap();
    let model = TransformerModel::random(TransformerConfig::tiny(8), 92).unwrap();
    let r = evaluate_transformer(&model, &task, FQ8).unwrap();
    assert!(r.is_comparable(0.15), "{r:?}");
    assert!(r.agreement >= 0.85, "agreement {}", r.agreement);
    assert!(r.mean_relative_error < 0.2);
}

#[test]
fn gnn_int8_is_comparable_for_every_family() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 93).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 94).unwrap();
        let r = evaluate_gnn(&model, &task, FQ8).unwrap();
        assert!(r.is_comparable(0.1), "{kind}: {r:?}");
        assert!(r.agreement >= 0.9, "{kind}: agreement {}", r.agreement);
    }
}

#[test]
fn analog_chain_adds_no_more_error_than_quantization_itself() {
    // fp64 → int8 error should dominate int8 → analog error: the
    // photonic datapath is engineered (ENOB ≥ 8) so the analog chain
    // sits inside the quantization noise floor.
    let model = TransformerModel::random(TransformerConfig::tiny(8), 95).unwrap();
    let x = Prng::new(96).fill_normal(8, 32, 0.0, 1.0);
    let fp = model.forward(&x).unwrap();
    let int8 = model.forward_with(&x, FQ8).unwrap();
    let mut sim = TronFunctional::new(&TronConfig::default(), 97).unwrap();
    let analog = sim.forward(&model, &x).unwrap();

    let q_err = stats::relative_error(&fp, &int8);
    let a_err = stats::relative_error(&int8, &analog);
    // Same order of magnitude: analog error within ~6x of pure
    // quantization error (both are small).
    assert!(
        a_err < q_err * 6.0 + 0.05,
        "analog err {a_err} vs quant err {q_err}"
    );
}

#[test]
fn end_to_end_classification_survives_the_full_photonic_chain() {
    // SBM community detection: digital fp, digital int8 and analog
    // photonic GHOST must all classify (mostly) identically.
    let task = sbm(3, 10, 12, 0.6, 0.03, 98).unwrap();
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 24, 3), 99).unwrap();

    let fp = model.forward(&task.graph, &task.features).unwrap();
    let int8 = model
        .forward_with(&task.graph, &task.features, FQ8)
        .unwrap();
    let mut sim = GhostFunctional::new(&GhostConfig::default(), 100).unwrap();
    let analog = sim.forward(&model, &task.graph, &task.features).unwrap();

    let fp_pred = ops::argmax_rows(&fp);
    let int8_pred = ops::argmax_rows(&int8);
    let analog_pred = ops::argmax_rows(&analog);

    assert!(stats::accuracy(&int8_pred, &fp_pred) >= 0.9);
    assert!(stats::accuracy(&analog_pred, &fp_pred) >= 0.8);
}

#[test]
fn noise_injection_degrades_gracefully_not_catastrophically() {
    // Failure-injection: even at 10x the provisioned receiver noise the
    // analog output stays finite and correlated with the reference.
    use phox::photonics::analog::AnalogEngine;
    let model = TransformerModel::random(TransformerConfig::tiny(8), 101).unwrap();
    let x = Prng::new(102).fill_normal(8, 32, 0.0, 1.0);
    let reference = model.forward(&x).unwrap();

    let mut noisy_engine = AnalogEngine::new(2e-2, 8, 8, 103).unwrap();
    let y = noisy_engine.matmul(&x, &model.layers()[0].w_q).unwrap();
    assert!(y.as_slice().iter().all(|v| v.is_finite()));
    let exact = x.matmul(&model.layers()[0].w_q).unwrap();
    let err = stats::relative_error(&exact, &y);
    assert!(err < 0.5, "excess-noise error {err}");
    let _ = reference;
}
