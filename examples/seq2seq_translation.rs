//! The full encoder-decoder transformer of Fig. 1 on TRON: a
//! sequence-to-sequence model (the original "Attention is All You Need"
//! architecture) runs source → encoder → cross-attention → decoder
//! entirely through the photonic datapath.
//!
//! ```sh
//! cargo run --example seq2seq_translation --release
//! ```

use phox::nn::transformer::TransformerKind;
use phox::prelude::*;
use phox::tensor::stats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- functional: photonic seq2seq inference --------------------
    let cfg = TransformerConfig {
        kind: TransformerKind::EncoderDecoder,
        ..TransformerConfig::tiny(12)
    };
    let model = TransformerModel::random(cfg, 41)?;
    let src = Prng::new(42).fill_normal(12, 32, 0.0, 1.0);
    let tgt = Prng::new(43).fill_normal(12, 32, 0.0, 1.0);

    let reference = model.forward_seq2seq(&src, &tgt, Precision::F64)?;
    let mut sim = TronFunctional::new(&TronConfig::default(), 44)?;
    let photonic = sim.forward_seq2seq(&model, &src, &tgt)?;
    let err = stats::relative_error(&reference, &photonic);
    println!("photonic seq2seq (tiny encoder-decoder, seq 12):");
    println!("  encoder layers      : {}", model.layers().len());
    println!("  decoder layers      : {}", model.decoder_layers().len());
    println!("  analog-vs-fp64 error: {err:.3}");

    // ---- performance: Transformer-base on TRON ---------------------
    let tron = TronAccelerator::new(TronConfig::from_design_space(&SweepConfig::default())?)?;
    let base = TransformerConfig::transformer_base(128);
    let report = tron.simulate(&base)?;
    println!("\nTRON on {} (6 encoder + 6 decoder layers):", base.name);
    println!("  throughput : {:>10.0} GOPS", report.perf.gops());
    println!("  energy/bit : {:>10.3} pJ", report.perf.epb_j() * 1e12);
    println!(
        "  latency    : {:>10.1} µs/inference",
        report.perf.latency_s * 1e6
    );

    // Cross-attention roughly doubles the decoder stack's attention
    // work: compare with an encoder-only model of the same size.
    let enc_only = TransformerConfig {
        kind: TransformerKind::EncoderOnly,
        name: "encoder-half".into(),
        ..base.clone()
    };
    let enc_report = tron.simulate(&enc_only)?;
    println!(
        "\nencoder-only half runs {:.2}× faster — the decoder + cross-attention premium",
        report.perf.latency_s / enc_report.perf.latency_s
    );
    Ok(())
}
