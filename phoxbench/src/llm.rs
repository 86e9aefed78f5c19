//! The transformer workloads.
//!
//! `llm_decode`: KV-cached generation on a 4-layer, d_model 64 decoder.
//! A 64-row prompt is ingested one row at a time, then 448 tokens are
//! generated, each output fed back as the next input exactly as
//! `TransformerModel::generate` does, so decode contexts run 64..=511.
//! Every step runs the tensor kernels as m = 1 GEMV/axpy.
//!
//! `llm_prefill`: one full-sequence pass of a 4-layer encoder with
//! d_model 256, seq 256, d_ff 1024, on the f64 path, the int8 path and
//! the noisy TRON functional simulator: the m = 256 use of the kernels
//! decode runs at m = 1, plus the analog tile path.

use std::cell::RefCell;
use std::time::Instant;

use phox_core::nn::decode::KvCache;
use phox_core::nn::transformer::{
    FfActivation, TransformerConfig, TransformerKind, TransformerModel,
};
use phox_core::tensor::{parallel, split_seed, stats, Matrix, Prng, TensorError};
use phox_core::trace::digest_of;
use phox_core::tron::{TronConfig, TronFunctional};

use crate::harness::{err, median, span, spanned, tail, Ctx, Leg, Output};
use crate::replay;

const PROMPT: usize = 64;
const GEN: usize = 448;
const D_DECODE: usize = 64;

/// Tolerances of the existing equivalence suites: int8 vs f64 transformer
/// (`int8_forward`), analog vs digital (`end_to_end_tron`), and the decode
/// prefix oracle (`decode_equiv`).
const INT8_REL_ERR: f64 = 0.2;
const ANALOG_REL_ERR: f64 = 0.4;
const DECODE_REL_ERR: f64 = 1e-9;

fn decode_config() -> TransformerConfig {
    TransformerConfig {
        name: "decode-4x64".to_owned(),
        kind: TransformerKind::DecoderOnly,
        layers: 4,
        d_model: D_DECODE,
        heads: 4,
        d_ff: 256,
        seq_len: PROMPT,
        ff_activation: FfActivation::Gelu,
    }
}

fn prefill_config() -> TransformerConfig {
    TransformerConfig {
        name: "prefill-4x256".to_owned(),
        kind: TransformerKind::EncoderOnly,
        layers: 4,
        d_model: 256,
        heads: 4,
        d_ff: 1024,
        seq_len: 256,
        ff_activation: FfActivation::Gelu,
    }
}

/// The digest and seeds the run envelope records for `llm_decode`.
pub fn decode_manifest(seed: u64) -> (String, Vec<u64>) {
    (
        digest_of(&(decode_config(), PROMPT, GEN)),
        (1..=4).map(|s| split_seed(seed, s)).collect(),
    )
}

/// The digest and seeds the run envelope records for `llm_prefill`.
pub fn prefill_manifest(seed: u64) -> (String, Vec<u64>) {
    (
        digest_of(&prefill_config()),
        (1..=3).map(|s| split_seed(seed, s)).collect(),
    )
}

type Step<'a> = dyn Fn(&mut KvCache, &Matrix) -> Result<Matrix, TensorError> + 'a;

/// Maximum elementwise relative difference of two rows.
fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-300))
        .fold(0.0, f64::max)
}

/// The first `t` decode inputs: the prompt, then the generated tokens.
fn decode_inputs(prompt: &Matrix, tokens: &Matrix, t: usize) -> Matrix {
    let mut x = Matrix::zeros(t, D_DECODE);
    for r in 0..t {
        let src = if r < PROMPT {
            prompt.row(r)
        } else {
            tokens.row(r - PROMPT)
        };
        x.row_mut(r).copy_from_slice(src);
    }
    x
}

pub fn decode(ctx: &mut Ctx) -> Result<(), String> {
    let cfg = decode_config();
    let seed = ctx.seed;
    let mut build = || {
        let model = spanned("nn", "build", || {
            TransformerModel::random(cfg.clone(), split_seed(seed, 1))
        })
        .map_err(err)?;
        let prompt = Prng::new(split_seed(seed, 2)).fill_normal(PROMPT, D_DECODE, 0.0, 1.0);
        Ok((model, prompt))
    };
    let (model, prompt) = ctx.setup(&mut build)?;
    let decoder = model.int8_decoder();
    let f64_step = |c: &mut KvCache, x: &Matrix| model.decode_step(c, x);
    let int8_step = |c: &mut KvCache, x: &Matrix| decoder.step(c, x);

    // Prompt ingestion: rows 0..PROMPT-1 through a fresh cache (contexts
    // 1..PROMPT-1), as `generate` does before its first decode step.
    let ingest = |step: &Step<'_>| -> Result<(KvCache, Matrix), String> {
        let mut cache = KvCache::new(&cfg, PROMPT + GEN - 1).map_err(err)?;
        let mut outs = Matrix::zeros(PROMPT - 1, D_DECODE);
        for r in 0..PROMPT - 1 {
            let y = step(&mut cache, &Matrix::row_vector(prompt.row(r))).map_err(err)?;
            outs.row_mut(r).copy_from_slice(y.row(0));
        }
        Ok((cache, outs))
    };
    // Each generation leg owns one primed cache, preallocated like the
    // one `generate` builds, and truncates it back to the prompt before
    // every operation: the buffers keep their capacity, so no operation
    // reallocates them.
    let (mut f64_cache, _) = ingest(&f64_step)?;
    let (mut int8_cache, _) = ingest(&int8_step)?;

    // Host time of every f64 decode step, for the step-latency report.
    let steps = RefCell::new(Vec::new());
    let generate = |cache: &mut KvCache, step: &Step<'_>, name: &str| -> Result<Matrix, String> {
        cache.truncate(PROMPT - 1);
        let mut tokens = Matrix::zeros(GEN, D_DECODE);
        let mut next = Matrix::row_vector(prompt.row(PROMPT - 1));
        let record = name == "decode_step";
        for i in 0..GEN {
            let t0 = Instant::now();
            let out = {
                let _span = span("nn", name);
                step(cache, &next).map_err(err)?
            };
            if record {
                steps.borrow_mut().push(t0.elapsed().as_secs_f64());
            }
            tokens.row_mut(i).copy_from_slice(out.row(0));
            next = out;
        }
        Ok(tokens)
    };
    let generate = &generate;

    let mut legs = vec![
        Leg {
            name: "decode_f64",
            alias: "decode_tok_s",
            alias_unit: "tok/s",
            alias_scale: 1.0,
            items: GEN as f64,
            run: Box::new(move || {
                generate(&mut f64_cache, &f64_step, "decode_step").map(Output::Matrix)
            }),
        },
        Leg {
            name: "decode_int8",
            alias: "decode_int8_tok_s",
            alias_unit: "tok/s",
            alias_scale: 1.0,
            items: GEN as f64,
            run: Box::new(move || {
                generate(&mut int8_cache, &int8_step, "int8_decode_step").map(Output::Matrix)
            }),
        },
        Leg {
            name: "prompt_f64",
            alias: "prompt_tok_s",
            alias_unit: "tok/s",
            alias_scale: 1.0,
            items: (PROMPT - 1) as f64,
            run: Box::new(|| ingest(&f64_step).map(|(_, outs)| Output::Matrix(outs))),
        },
    ];
    let outs = ctx.reference(&mut legs);
    let refs: Vec<Option<u64>> = outs
        .iter()
        .map(|o| o.as_ref().map(Output::digest))
        .collect();
    if let (Some(f64_tokens), Some(int8_tokens)) = (
        outs[0].as_ref().and_then(Output::matrix),
        outs[1].as_ref().and_then(Output::matrix),
    ) {
        decode_oracles(ctx, &model, &prompt, f64_tokens, int8_tokens);
    }
    for (key, digest) in ["tokens_f64", "tokens_int8", "prompt_f64"]
        .iter()
        .zip(&refs)
    {
        ctx.pin(&format!("llm_decode.{key}"), false, digest.unwrap_or(0));
    }

    ctx.measure(&mut legs, &refs, &mut || build().map(drop));
    if !ctx.traced {
        // The steps of the timed 1-thread rounds: the f64 leg's last
        // operations, after the reference pass and the nproc round.
        let timed = ctx.legs[0].secs.len() * GEN;
        let all = steps.borrow();
        let mut s = all[all.len().saturating_sub(timed)..].to_vec();
        let n = s.len();
        let p50 = median(&mut s) * 1e6;
        let tail = tail(&mut s).map_or_else(
            || "n/a".to_owned(),
            |(p, v)| format!("p{p} {:.1} us", v * 1e6),
        );
        ctx.lines.push(format!(
            "metric decode_step_p50_us = {p50:.1} us, tail {tail} (n = {n} f64 steps, contexts {PROMPT}..={})",
            PROMPT + GEN - 1
        ));
    }
    ctx.tokens_per_round = (2 * GEN + PROMPT - 1) as f64;
    if ctx.traced {
        replay::dense(ctx, None);
    }
    Ok(())
}

/// The decode oracles of the `decode_equiv` suite, on this run's tokens.
fn decode_oracles(
    ctx: &mut Ctx,
    model: &TransformerModel,
    prompt: &Matrix,
    f64_tokens: &Matrix,
    int8_tokens: &Matrix,
) {
    let cfg = model.config();
    parallel::with_threads(1, || {
        match model.generate(prompt, GEN) {
            Ok(g) => {
                ctx.gate.check(
                    "generate() equals the decode_step loop bitwise",
                    g.tokens == *f64_tokens,
                );
                let census = cfg.generation_census(GEN).macs - cfg.census().macs;
                ctx.gate.check(
                    "decode MACs equal generation_census",
                    g.stats.decode_macs == census,
                );
            }
            Err(_) => {
                ctx.gate.check("generate() runs", false);
            }
        }
        let int8_ok = model
            .generate_int8(prompt, GEN)
            .is_ok_and(|g| g.tokens == *int8_tokens);
        ctx.gate.check(
            "generate_int8() equals the Int8Decoder loop bitwise",
            int8_ok,
        );
        // Prefix oracle at the first, a seeded middle, and the last context.
        let mid = PROMPT + 1 + (split_seed(ctx.seed, 4) % (GEN - 2) as u64) as usize;
        for t in [PROMPT, mid, PROMPT + GEN - 1] {
            let row = t - PROMPT;
            let f64_ok = model
                .forward_prefix(&decode_inputs(prompt, f64_tokens, t))
                .is_ok_and(|full| {
                    max_rel_err(full.row(t - 1), f64_tokens.row(row)) <= DECODE_REL_ERR
                });
            ctx.gate
                .check("f64 decode step equals forward_prefix within 1e-9", f64_ok);
            let int8_ok = model
                .forward_prefix_int8(&decode_inputs(prompt, int8_tokens, t))
                .is_ok_and(|full| full.row(t - 1) == int8_tokens.row(row));
            ctx.gate.check(
                "int8 decode step equals forward_prefix_int8 bitwise",
                int8_ok,
            );
        }
    });
}

pub fn prefill(ctx: &mut Ctx) -> Result<(), String> {
    let cfg = prefill_config();
    let seed = ctx.seed;
    let mut build = || {
        let model = spanned("nn", "build", || {
            TransformerModel::random(cfg.clone(), split_seed(seed, 1))
        })
        .map_err(err)?;
        let x = Prng::new(split_seed(seed, 2)).fill_normal(cfg.seq_len, cfg.d_model, 0.0, 1.0);
        let tron = TronFunctional::new(&TronConfig::default(), split_seed(seed, 3)).map_err(err)?;
        Ok((model, x, tron))
    };
    let (model, x, tron) = ctx.setup(&mut build)?;
    let tokens = cfg.seq_len as f64;
    let mut legs = vec![
        Leg {
            name: "forward_f64",
            alias: "prefill_tok_s",
            alias_unit: "tok/s",
            alias_scale: 1.0,
            items: tokens,
            run: Box::new(|| {
                spanned("nn", "forward", || model.forward(&x))
                    .map(Output::Matrix)
                    .map_err(err)
            }),
        },
        Leg {
            name: "forward_int8",
            alias: "prefill_int8_tok_s",
            alias_unit: "tok/s",
            alias_scale: 1.0,
            items: tokens,
            run: Box::new(|| {
                spanned("nn", "forward_int8", || model.forward_int8(&x))
                    .map(Output::Matrix)
                    .map_err(err)
            }),
        },
        Leg {
            name: "tron_functional",
            alias: "tron_fwd_tok_s",
            alias_unit: "tok/s",
            alias_scale: 1.0,
            items: tokens,
            // A fresh copy per pass: the engine's noise streams advance
            // with every product, so each pass starts from the same state.
            run: Box::new(|| {
                let mut sim = tron.clone();
                spanned("tron", "functional_fwd", || sim.forward(&model, &x))
                    .map(Output::Matrix)
                    .map_err(err)
            }),
        },
    ];
    let outs = ctx.reference(&mut legs);
    let refs: Vec<Option<u64>> = outs
        .iter()
        .map(|o| o.as_ref().map(Output::digest))
        .collect();
    let m: Vec<Option<&Matrix>> = outs
        .iter()
        .map(|o| o.as_ref().and_then(Output::matrix))
        .collect();
    if let [Some(fp), Some(int8), Some(analog)] = m[..] {
        let finite = [fp, int8, analog]
            .iter()
            .all(|m| m.as_slice().iter().all(|v| v.is_finite()));
        ctx.gate.check("prefill outputs are finite", finite);
        let e8 = stats::relative_error(fp, int8);
        let ea = stats::relative_error(fp, analog);
        ctx.lines.push(format!(
            "oracle: int8 vs f64 relative error {e8:.4} (< {INT8_REL_ERR}), \
             TRON vs f64 {ea:.4} (< {ANALOG_REL_ERR})"
        ));
        ctx.gate.check("int8 forward tracks f64", e8 < INT8_REL_ERR);
        ctx.gate
            .check("TRON functional forward tracks f64", ea < ANALOG_REL_ERR);
    }
    for (key, digest) in ["forward_f64", "forward_int8", "tron_forward"]
        .iter()
        .zip(&refs)
    {
        ctx.pin(&format!("llm_prefill.{key}"), false, digest.unwrap_or(0));
    }
    ctx.measure(&mut legs, &refs, &mut || build().map(drop));
    ctx.tokens_per_round = 3.0 * tokens;
    ctx.forwards_per_round = 3.0;
    if ctx.traced {
        replay::dense(ctx, Some(tron.engine()));
    }
    Ok(())
}
