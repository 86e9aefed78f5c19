//! Pins the output bits of every precision path of the reference models.
//!
//! Each case is the `phox_trace::digest_of` of one forward output (or of
//! a quantization report's `Debug`) at a fixed seed: the transformer
//! encoder, decoder-only and encoder-decoder stacks and the four GNN
//! families, each at full precision, fake quantization at 4 and 8 bits,
//! and on the true int8 datapath; distinct-sequence seq2seq; the
//! decoder's causal prefix forward; KV-cached generation; and the
//! `quant_eval` reports. The figures print rounded text and the golden
//! digests cover two shapes, so these are the only pins on most of the
//! paths. The digests are the same under either SIMD dispatch.

use phox_nn::datasets::{labelled_sequences, sbm};
use phox_nn::gnn::{GnnConfig, GnnKind, GnnModel};
use phox_nn::int8::Precision;
use phox_nn::quant_eval::{evaluate_gnn, evaluate_transformer};
use phox_nn::transformer::{TransformerConfig, TransformerKind, TransformerModel};
use phox_tensor::Prng;
use phox_trace::digest_of;

const FQ4: Precision = Precision::FakeQuant { bits: 4 };
const FQ8: Precision = Precision::FakeQuant { bits: 8 };

/// Every model is pinned at these precisions, in this order.
const PRECISIONS: [Precision; 4] = [Precision::F64, FQ4, FQ8, Precision::Int8];

fn tiny(kind: TransformerKind, seed: u64) -> TransformerModel {
    let cfg = TransformerConfig {
        kind,
        ..TransformerConfig::tiny(8)
    };
    TransformerModel::random(cfg, seed).unwrap()
}

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

#[test]
fn transformer_forwards_keep_their_bits() {
    let x = Prng::new(1).fill_normal(8, 32, 0.0, 1.0);
    let mut got = Vec::new();
    for (name, kind, seed) in [
        ("encoder", TransformerKind::EncoderOnly, 2),
        ("decoder", TransformerKind::DecoderOnly, 3),
        ("encdec", TransformerKind::EncoderDecoder, 4),
    ] {
        let model = tiny(kind, seed);
        for p in PRECISIONS {
            let y = model.forward_with(&x, p).unwrap();
            got.push((format!("{name} {p:?}"), digest_of(&y)));
        }
    }
    let model = tiny(TransformerKind::EncoderDecoder, 4);
    let src = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
    let tgt = Prng::new(6).fill_normal(8, 32, 0.0, 1.0);
    for p in [Precision::F64, FQ8, Precision::Int8] {
        let y = model.forward_seq2seq(&src, &tgt, p).unwrap();
        got.push((format!("seq2seq {p:?}"), digest_of(&y)));
    }
    check(
        &got,
        &[
            "c1ca0b5ae897aa80",
            "dc5d44601be80994",
            "bdd0710bc573436f",
            "e3f2a57d784fb05c",
            "1513a034ebe7cbc2",
            "365e5eaae4102b18",
            "098c3f4c21e373d6",
            "eeb9e46c9e655776",
            "c08de9215795e766",
            "897ac41c8f327365",
            "91db43ca9d68a967",
            "b8fcdf2b36a3fd08",
            "3b6a06ce5fdaa84d",
            "c2b02f9e77499fad",
            "1c56234f6606e737",
        ],
    );
}

#[test]
fn decoder_prefix_and_generation_keep_their_bits() {
    let model = tiny(TransformerKind::DecoderOnly, 3);
    let prefix = Prng::new(7).fill_normal(5, 32, 0.0, 1.0);
    let got = vec![
        (
            "prefix f64".to_owned(),
            digest_of(&model.forward_prefix(&prefix).unwrap()),
        ),
        (
            "prefix int8".to_owned(),
            digest_of(&model.forward_prefix_int8(&prefix).unwrap()),
        ),
        (
            "generate f64".to_owned(),
            digest_of(&model.generate(&prefix, 4).unwrap()),
        ),
        (
            "generate int8".to_owned(),
            digest_of(&model.generate_int8(&prefix, 4).unwrap()),
        ),
    ];
    check(
        &got,
        &[
            "27d7a088276754c3",
            "e4c8bb772e1b31a7",
            "ae6fe28329ebd5a9",
            "9503e1b02b86c179",
        ],
    );
}

#[test]
fn gnn_forwards_and_reports_keep_their_bits() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 8).unwrap();
    let mut got = Vec::new();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 9).unwrap();
        for p in PRECISIONS {
            let y = model.forward_with(&task.graph, &task.features, p).unwrap();
            got.push((format!("{kind} {p:?}"), digest_of(&y)));
        }
        for p in [FQ8, Precision::Int8] {
            let r = evaluate_gnn(&model, &task, p).unwrap();
            got.push((format!("{kind} report {p:?}"), digest_of(&r)));
        }
    }
    check(
        &got,
        &[
            "b2b573e4fe202809",
            "0f376bf11c8c38cb",
            "c11c2513e2fb0aa8",
            "304bea7e5f4f1a9c",
            "c45009d4d7cef435",
            "b632e3d575202e21",
            "2c85a7ddddd033cc",
            "3c09df5c23794100",
            "1a7c0a405c0ffeeb",
            "c43d0131b5fb913c",
            "a63dee3686358bd4",
            "87aa3c0623195460",
            "5c1d78f7724a37f8",
            "65c16ed0a2c9199a",
            "c79204616726acc6",
            "42ea022d97bbc8f0",
            "49d46714ee0bd0b5",
            "bca2c01ebea12789",
            "edd6c0686d5c85ce",
            "0ff620f1aae09254",
            "90bf656dc115d37e",
            "5cc65f7bf90af812",
            "5f750b76c3d8cba4",
            "cb9fac8a2a985f7d",
        ],
    );
}

#[test]
fn transformer_reports_keep_their_bits() {
    let seq = labelled_sequences(12, 3, 8, 32, 10).unwrap();
    let model = tiny(TransformerKind::EncoderOnly, 11);
    let got: Vec<_> = [FQ8, Precision::Int8]
        .into_iter()
        .map(|p| {
            let r = evaluate_transformer(&model, &seq, p).unwrap();
            (format!("transformer report {p:?}"), digest_of(&r))
        })
        .collect();
    check(&got, &["848de22e9cf555ae", "5a2d70fa66e58a18"]);
}
