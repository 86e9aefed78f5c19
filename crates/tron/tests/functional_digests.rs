//! Pins the output bits of TRON's functional datapath.
//!
//! Each case is the `phox_trace::digest_of` of one output at a fixed
//! seed: a forward of every transformer kind with either feed-forward
//! activation, on the provisioned (noisy) and the ideal simulator; a
//! sequence-to-sequence pass with distinct source and target; an
//! explicit noise level; a fault plan with a stuck ring, a dead lane and
//! a laser droop; a fault schedule advanced before, inside and after a
//! dead-lane window; and the JSONL export of one traced noisy forward,
//! whose tile spans carry each product's `op_key` and so pin the order
//! in which the analog operations are issued. The phoxbench golden pins
//! one encoder-only GELU forward; these pin the rest. The digests are
//! the same under either SIMD dispatch and for any thread count.

use phox_nn::transformer::{FfActivation, TransformerConfig, TransformerKind, TransformerModel};
use phox_photonics::fault::{DeviceFault, FaultPlan, FaultSchedule};
use phox_tensor::{Matrix, Prng};
use phox_trace::{digest_of, Trace};
use phox_tron::{TronConfig, TronFunctional};

const KINDS: [TransformerKind; 4] = [
    TransformerKind::EncoderOnly,
    TransformerKind::DecoderOnly,
    TransformerKind::Vision,
    TransformerKind::EncoderDecoder,
];

/// Asserts each `(case, digest)` pair, reporting every mismatch at once.
fn check(got: &[(String, String)], want: &[&str]) {
    assert_eq!(got.len(), want.len(), "case count");
    let bad: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((case, g), w)| format!("{case}: got {g}, want {w}"))
        .collect();
    assert!(bad.is_empty(), "digests moved:\n{}", bad.join("\n"));
}

/// A two-layer, four-head tiny transformer of `kind` at sequence 8.
fn model(kind: TransformerKind, ff_activation: FfActivation) -> TransformerModel {
    let cfg = TransformerConfig {
        kind,
        ff_activation,
        ..TransformerConfig::tiny(8)
    };
    TransformerModel::random(cfg, 101).unwrap()
}

fn input(seed: u64) -> Matrix {
    Prng::new(seed).fill_normal(8, 32, 0.0, 1.0)
}

#[test]
fn forwards_keep_their_bits() {
    let cfg = TronConfig::default();
    let x = input(102);
    let mut got = Vec::new();
    for kind in KINDS {
        for act in [FfActivation::Relu, FfActivation::Gelu] {
            let m = model(kind, act);
            let noisy = TronFunctional::new(&cfg, 103).unwrap().forward(&m, &x);
            got.push((format!("new {kind} {act:?}"), digest_of(&noisy.unwrap())));
            let ideal = TronFunctional::ideal(&cfg, 103).forward(&m, &x);
            got.push((format!("ideal {kind} {act:?}"), digest_of(&ideal.unwrap())));
        }
    }
    check(
        &got,
        &[
            "98b8bff4f3b65e89", // new encoder-only Relu
            "d80855d251c6600e", // ideal encoder-only Relu
            "6850811a3aa42fed", // new encoder-only Gelu
            "3df3dc81e7e5ce83", // ideal encoder-only Gelu
            "f9ee288ebd18d99d", // new decoder-only Relu
            "b45d7ea656c9ceda", // ideal decoder-only Relu
            "c501169f590d2d61", // new decoder-only Gelu
            "95065e5850650dc5", // ideal decoder-only Gelu
            "98b8bff4f3b65e89", // new vision Relu
            "d80855d251c6600e", // ideal vision Relu
            "6850811a3aa42fed", // new vision Gelu
            "3df3dc81e7e5ce83", // ideal vision Gelu
            "1e3882953727cc3a", // new encoder-decoder Relu
            "ad7846ad5f1e4dbb", // ideal encoder-decoder Relu
            "4e82114f858911db", // new encoder-decoder Gelu
            "2d1f34e64e7e129c", // ideal encoder-decoder Gelu
        ],
    );
}

#[test]
fn seq2seq_and_explicit_noise_keep_their_bits() {
    let cfg = TronConfig::default();
    let (src, tgt) = (input(104), input(105));
    let mut got = Vec::new();
    for act in [FfActivation::Relu, FfActivation::Gelu] {
        let m = model(TransformerKind::EncoderDecoder, act);
        let y = TronFunctional::new(&cfg, 106)
            .unwrap()
            .forward_seq2seq(&m, &src, &tgt)
            .unwrap();
        got.push((format!("seq2seq {act:?}"), digest_of(&y)));
    }
    for kind in [TransformerKind::EncoderOnly, TransformerKind::DecoderOnly] {
        let m = model(kind, FfActivation::Gelu);
        let y = TronFunctional::with_noise(&cfg, 1e-2, 107)
            .unwrap()
            .forward(&m, &src)
            .unwrap();
        got.push((format!("with_noise(1e-2) {kind}"), digest_of(&y)));
    }
    check(
        &got,
        &[
            "675cd152cb3c3758", // seq2seq Relu
            "6f16682448fc5380", // seq2seq Gelu
            "bccd2d3541192a8b", // with_noise(1e-2) encoder-only
            "8d044ae952824bb7", // with_noise(1e-2) decoder-only
        ],
    );
}

#[test]
fn faulted_and_scheduled_forwards_keep_their_bits() {
    let cfg = TronConfig::default();
    let x = input(108);
    let mut got = Vec::new();
    // Column 3 / channel 5 and lane 7 lie inside every 32-wide product.
    let plan = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .stuck_mr(3, 5, 0.25)
        .and_then(|p| p.dead_adc_lane(7))
        .and_then(|p| p.laser_droop(3.0))
        .unwrap();
    for kind in [TransformerKind::EncoderOnly, TransformerKind::DecoderOnly] {
        let m = model(kind, FfActivation::Relu);
        let y = TronFunctional::with_faults(&cfg, plan.clone(), 109)
            .unwrap()
            .forward(&m, &x)
            .unwrap();
        got.push((format!("with_faults {kind}"), digest_of(&y)));
    }
    let schedule = FaultSchedule::new(cfg.array_rows, cfg.array_channels)
        .schedule(1.0, 2.0, DeviceFault::DeadAdcLane { lane: 1 })
        .unwrap();
    let mut sim = TronFunctional::with_fault_schedule(&cfg, schedule, 110).unwrap();
    let m = model(TransformerKind::EncoderOnly, FfActivation::Gelu);
    for t in [0.5, 1.5, 2.5] {
        sim.advance_to(t).unwrap();
        let y = sim.forward(&m, &x).unwrap();
        got.push((format!("schedule t={t}"), digest_of(&y)));
    }
    check(
        &got,
        &[
            "a5b53e0983b9a3a2", // with_faults encoder-only
            "d5c3bce290f285fd", // with_faults decoder-only
            "d499193abe1edbff", // schedule t=0.5
            "d1438484445eb8b4", // schedule t=1.5
            "5daad6f42266d984", // schedule t=2.5
        ],
    );
}

#[test]
fn traced_forward_exports_its_op_order() {
    let m = model(TransformerKind::DecoderOnly, FfActivation::Relu);
    let x = input(111);
    let trace = Trace::new();
    phox_trace::with_installed(trace.clone(), || {
        let mut sim = TronFunctional::new(&TronConfig::default(), 112).unwrap();
        sim.forward(&m, &x).unwrap()
    });
    check(
        &[("jsonl".to_owned(), digest_of(&trace.export_jsonl()))],
        &[
            "214e43b26168cbbc", // jsonl
        ],
    );
}
