//! Functional KV-cache autoregressive decode, end to end:
//!
//! 1. generate tokens with the f64 engine and check every decode step
//!    against a full-sequence causal forward over the same token chain
//!    (the incremental/full equivalence oracle, bit for bit);
//! 2. the same with the int8 engine, whose per-row activation
//!    quantization keeps the agreement exact too;
//! 3. cross-check the MACs the functional decode path executed against
//!    the generation-census arithmetic the performance model uses;
//! 4. the TRON performance model's `GenerationReport` for a
//!    paper-scale workload.
//!
//! ```sh
//! cargo run --example autoregressive_decode --release
//! ```

use phox::nn::decode::KvCache;
use phox::nn::transformer::{FfActivation, TransformerKind};
use phox::prelude::*;

/// Stacks the prompt and the first `gen - 1` generated tokens into the
/// full input sequence the feedback chain presented to the model.
fn replay_sequence(prompt: &Matrix, tokens: &Matrix, gen: usize) -> Matrix {
    let mut rows: Vec<Vec<f64>> = (0..prompt.rows()).map(|r| prompt.row(r).to_vec()).collect();
    for i in 0..gen - 1 {
        rows.push(tokens.row(i).to_vec());
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Matrix::from_rows(&refs).expect("replay rows agree")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------- functional: KV-cached generation ------------------
    let cfg = TransformerConfig {
        name: "decode-demo".to_string(),
        kind: TransformerKind::DecoderOnly,
        layers: 2,
        d_model: 64,
        heads: 4,
        d_ff: 256,
        seq_len: 8,
        ff_activation: FfActivation::Gelu,
    };
    let model = TransformerModel::random(cfg.clone(), 7)?;
    let prompt = Prng::new(8).fill_normal(cfg.seq_len, cfg.d_model, 0.0, 1.0);
    let gen_tokens = 12;

    let gen = model.generate(&prompt, gen_tokens)?;
    println!(
        "KV-cached generation (prompt {}, +{gen_tokens} tokens):",
        cfg.seq_len
    );
    println!(
        "  prefill {} steps ({} MACs), decode {} steps ({} MACs), contexts {}..={}",
        gen.stats.prefill_steps,
        gen.stats.prefill_macs,
        gen.stats.decode_steps,
        gen.stats.decode_macs,
        gen.stats.first_context,
        gen.stats.last_context,
    );

    // Oracle 1: every generated row must equal the last row of the full
    // causal forward over the prefix that produced it, bit for bit.
    let seq = replay_sequence(&prompt, &gen.tokens, gen_tokens);
    let full = model.forward_prefix(&seq)?;
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for i in 0..gen_tokens {
        assert_eq!(
            bits(gen.tokens.row(i)),
            bits(full.row(prompt.rows() - 1 + i)),
            "f64 decode diverged at token {i}"
        );
    }
    println!("  f64 decode vs full forward : exact (bitwise)");

    // Oracle 2: the int8 engine quantizes activations per row, so the
    // incremental path is bit-exact against its own full forward too.
    let gen8 = model.generate_int8(&prompt, gen_tokens)?;
    let seq8 = replay_sequence(&prompt, &gen8.tokens, gen_tokens);
    let full8 = model.forward_prefix_int8(&seq8)?;
    for i in 0..gen_tokens {
        assert_eq!(
            gen8.tokens.row(i),
            full8.row(prompt.rows() - 1 + i),
            "int8 decode diverged at token {i}"
        );
    }
    println!("  int8 decode vs full forward: exact (bitwise)");

    // The cache invariants hold after an explicit step-by-step replay.
    let mut cache = KvCache::new(&cfg, prompt.rows())?;
    for r in 0..prompt.rows() {
        let row = Matrix::row_vector(prompt.row(r));
        model.decode_step(&mut cache, &row)?;
    }
    cache.validate()?;
    println!(
        "  cache after prompt         : {} rows x {} layers x d={}",
        cache.rows(),
        cache.num_layers(),
        cache.d_model(),
    );

    // Oracle 3: the census decode term equals the MACs the functional
    // path actually executed.
    let census_decode = cfg.generation_census(gen_tokens).macs - cfg.census().macs;
    assert_eq!(
        gen.stats.decode_macs, census_decode,
        "census drifted from functional path"
    );
    println!("  census decode MACs         : {census_decode} (matches functional path)");

    // ---------- performance: TRON generation report ---------------
    let tron = TronAccelerator::new(TronConfig::default())?;
    let workload = TransformerConfig::gpt2(128);
    let report = tron.simulate_generation(&workload, 64)?;
    println!(
        "\n{} — prompt 128, +64 KV-cached decode steps on TRON:",
        workload.name
    );
    println!("  prefill : {:>9.0} GOPS", report.prefill.perf.gops());
    println!(
        "  decode  : {:>9.0} GOPS over {} ops",
        report.decode_perf.gops(),
        report.decode_perf.ops,
    );
    println!(
        "  {:.0} tokens/s, {:.2} uJ/token",
        report.tokens_per_s,
        report.energy_per_token_j * 1e6,
    );
    Ok(())
}
