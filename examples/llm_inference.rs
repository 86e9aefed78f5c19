//! LLM inference on TRON, end to end:
//!
//! 1. a *functional* run — an actual (small) transformer forward pass
//!    through the analog photonic datapath, validated against the
//!    digital reference;
//! 2. a *performance* sweep over the paper's LLM workloads (BERT-base,
//!    BERT-large, GPT-2, ViT-B/16), printing the Fig. 8/9-style
//!    comparison against every electronic platform.
//!
//! ```sh
//! cargo run --example llm_inference --release
//! ```

use phox::nn::quant_eval;
use phox::prelude::*;
use phox::tensor::stats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------- functional: photonic forward pass -----------------
    let config = TronConfig::default();
    let model = TransformerModel::random(TransformerConfig::tiny(16), 7)?;
    let x = Prng::new(8).fill_normal(16, 32, 0.0, 1.0);

    let reference = model.forward(&x)?;
    let mut sim = TronFunctional::new(&config, 9)?;
    let photonic = sim.forward(&model, &x)?;
    let err = stats::relative_error(&reference, &photonic);
    println!("functional check (tiny transformer, seq 16):");
    println!(
        "  receiver noise σ/I : {:.2e}",
        sim.engine().relative_sigma()
    );
    println!("  analog-vs-fp64 err : {:.3} (relative Frobenius)", err);

    // The paper's 8-bit claim (E6): int8 ≈ fp32 accuracy.
    let task = phox::nn::datasets::labelled_sequences(24, 4, 16, 32, 10)?;
    let report = quant_eval::evaluate_transformer(&model, &task, Precision::FakeQuant { bits: 8 })?;
    println!(
        "  int8 vs fp accuracy: {:.2} vs {:.2} (agreement {:.2})",
        report.int8_accuracy, report.fp_accuracy, report.agreement
    );

    // ---------- performance: the paper's LLM workloads ------------
    let tron = TronAccelerator::new(TronConfig::from_design_space(&SweepConfig::default())?)?;
    let workloads = [
        TransformerConfig::bert_base(128),
        TransformerConfig::bert_large(128),
        TransformerConfig::gpt2(128),
        TransformerConfig::vit_b16(),
    ];
    for m in &workloads {
        let rows = tron_comparison(&tron, m)?;
        println!("\n{} — throughput (GOPS) and energy-per-bit (pJ):", m.name);
        for r in &rows {
            println!(
                "  {:<12} {:>12.0} GOPS   {:>8.3} pJ/bit",
                r.platform,
                r.gops,
                r.epb_j * 1e12
            );
        }
        let c = claims(&rows)?;
        println!(
            "  → TRON wins by ≥{:.1}× throughput, ≥{:.1}× efficiency",
            c.min_speedup, c.min_efficiency
        );
    }
    Ok(())
}
