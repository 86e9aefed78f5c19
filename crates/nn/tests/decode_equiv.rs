//! The KV-decode equivalence oracle: incremental decode must match the
//! full-sequence causal forward on every prefix bit for bit, in f64 and
//! on the int8 datapath, bit-identical across thread counts, with
//! `GenerationReport`-side census arithmetic pinned to the MACs the
//! functional path actually executes.

use phox_nn::decode::KvCache;
use phox_nn::transformer::{
    decode_context_lengths, decode_context_rows, TransformerConfig, TransformerKind,
    TransformerModel,
};
use phox_tensor::{parallel, Matrix, Prng};
use proptest::prelude::*;

fn decoder_cfg(layers: usize, heads: usize, d_model: usize, seq_len: usize) -> TransformerConfig {
    TransformerConfig {
        kind: TransformerKind::DecoderOnly,
        layers,
        d_model,
        heads,
        d_ff: 2 * d_model,
        ..TransformerConfig::tiny(seq_len)
    }
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Runs `steps` incremental decode steps over the rows of `x` and
/// returns the per-step outputs stacked as a matrix.
fn decode_all_f64(model: &TransformerModel, x: &Matrix) -> Matrix {
    let mut cache = KvCache::new(model.config(), x.rows()).unwrap();
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = Matrix::row_vector(x.row(r));
        let y = model.decode_step(&mut cache, &row).unwrap();
        for c in 0..x.cols() {
            out.set(r, c, y.get(0, c));
        }
    }
    out
}

fn decode_all_int8(model: &TransformerModel, x: &Matrix) -> Matrix {
    let dec = model.int8_decoder();
    let mut cache = KvCache::new(model.config(), x.rows()).unwrap();
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = Matrix::row_vector(x.row(r));
        let y = dec.step(&mut cache, &row).unwrap();
        for c in 0..x.cols() {
            out.set(r, c, y.get(0, c));
        }
    }
    out
}

/// `(heads, d_model)` of the fixed-shape oracles: d_head 8 (no 16-lane
/// body in the score dot) and d_head 20 (a 16-lane body plus a tail).
const HEAD_SHAPES: [(usize, usize); 2] = [(4, 32), (2, 40)];

#[test]
fn f64_decode_matches_full_forward_on_every_prefix() {
    for (heads, d) in HEAD_SHAPES {
        let model = TransformerModel::random(decoder_cfg(2, heads, d, 12), 41).unwrap();
        let x = Prng::new(42).fill_normal(12, d, 0.0, 1.0);
        let incremental = decode_all_f64(&model, &x);
        // Every decode step t must match the last row of the full causal
        // forward over the prefix x[0..=t].
        for t in 1..=x.rows() {
            let prefix = Matrix::from_vec(t, d, x.as_slice()[..t * d].to_vec()).unwrap();
            let full = model.forward_prefix(&prefix).unwrap();
            assert_eq!(
                bits(incremental.row(t - 1)),
                bits(full.row(t - 1)),
                "d_model {d}, prefix {t}"
            );
        }
    }
}

#[test]
fn int8_decode_is_exactly_full_forward() {
    for (heads, d) in HEAD_SHAPES {
        let model = TransformerModel::random(decoder_cfg(2, heads, d, 10), 43).unwrap();
        let x = Prng::new(44).fill_normal(10, d, 0.0, 1.0);
        let incremental = decode_all_int8(&model, &x);
        for t in 1..=x.rows() {
            let prefix = Matrix::from_vec(t, d, x.as_slice()[..t * d].to_vec()).unwrap();
            let full = model.forward_prefix_int8(&prefix).unwrap();
            assert_eq!(
                incremental.row(t - 1),
                full.row(t - 1),
                "d_model {d}, prefix {t}"
            );
        }
    }
}

#[test]
fn decode_is_bit_identical_across_thread_counts() {
    let model = TransformerModel::random(decoder_cfg(2, 4, 64, 16), 47).unwrap();
    let x = Prng::new(48).fill_normal(16, 64, 0.0, 1.0);
    let base_f64 = parallel::with_threads(1, || decode_all_f64(&model, &x));
    let base_int8 = parallel::with_threads(1, || decode_all_int8(&model, &x));
    for threads in [2, 4, 8] {
        let f = parallel::with_threads(threads, || decode_all_f64(&model, &x));
        let i = parallel::with_threads(threads, || decode_all_int8(&model, &x));
        assert_eq!(f, base_f64, "f64 threads={threads}");
        assert_eq!(i, base_int8, "int8 threads={threads}");
    }
}

#[test]
fn generate_matches_full_forward_feedback_chain() {
    // generate() feeds outputs back as inputs; replay the same chain
    // through forward_prefix and compare the decode-step rows.
    let model = TransformerModel::random(decoder_cfg(2, 4, 32, 8), 49).unwrap();
    let prompt = Prng::new(50).fill_normal(4, 32, 0.0, 1.0);
    let gen = model.generate(&prompt, 3).unwrap();
    // Rebuild the full input sequence: prompt plus generated tokens
    // 1..g-1 (token i feeds step i+1).
    let mut seq_rows: Vec<Vec<f64>> = (0..4).map(|r| prompt.row(r).to_vec()).collect();
    for i in 0..2 {
        seq_rows.push(gen.tokens.row(i).to_vec());
    }
    let refs: Vec<&[f64]> = seq_rows.iter().map(|r| r.as_slice()).collect();
    let seq = Matrix::from_rows(&refs).unwrap();
    let full = model.forward_prefix(&seq).unwrap();
    for i in 0..3 {
        assert_eq!(
            bits(gen.tokens.row(i)),
            bits(full.row(3 + i)),
            "generated token {i}"
        );
    }
}

#[test]
fn generation_census_matches_functional_decode_macs() {
    // The census decode term must equal the MACs the functional path
    // actually executes, for several prompt/generation splits.
    for (p, g) in [(1usize, 1usize), (4, 1), (4, 8), (8, 3), (6, 16)] {
        let cfg = decoder_cfg(2, 4, 32, p);
        let model = TransformerModel::random(cfg.clone(), 51).unwrap();
        let prompt = Prng::new(52).fill_normal(p, 32, 0.0, 1.0);
        let gen = model.generate(&prompt, g).unwrap();
        let census_decode = cfg.generation_census(g).macs - cfg.census().macs;
        assert_eq!(
            gen.stats.decode_macs, census_decode,
            "p={p} g={g}: functional {} vs census {}",
            gen.stats.decode_macs, census_decode
        );
    }
}

#[test]
fn context_helpers_are_consistent() {
    for (p, g) in [(1u64, 0u64), (1, 1), (5, 1), (5, 4), (128, 32)] {
        let sum: u64 = decode_context_lengths(p as usize, g as usize)
            .map(|t| t as u64)
            .sum();
        assert_eq!(sum, decode_context_rows(p, g), "p={p} g={g}");
    }
    // The range is exactly p..p+g: first context p, last p+g-1.
    let r = decode_context_lengths(7, 3);
    assert_eq!((r.start, r.end), (7, 10));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_f64_decode_matches_every_prefix(
        layers in 1usize..3,
        heads_exp in 0u32..3,
        len in 2usize..8,
        seed in 0u64..1000,
    ) {
        let heads = 1usize << heads_exp;
        let d = heads * 8;
        let cfg = decoder_cfg(layers, heads, d, len);
        let model = TransformerModel::random(cfg, seed).unwrap();
        let x = Prng::new(seed + 1).fill_normal(len, d, 0.0, 1.0);
        let incremental = decode_all_f64(&model, &x);
        for t in 1..=len {
            let prefix = Matrix::from_vec(t, d, x.as_slice()[..t * d].to_vec()).unwrap();
            let full = model.forward_prefix(&prefix).unwrap();
            prop_assert_eq!(bits(incremental.row(t - 1)), bits(full.row(t - 1)), "prefix {}", t);
        }
    }

    #[test]
    fn prop_int8_decode_exact_on_every_prefix(
        layers in 1usize..3,
        heads_exp in 0u32..3,
        len in 2usize..8,
        seed in 0u64..1000,
    ) {
        let heads = 1usize << heads_exp;
        let d = heads * 8;
        let cfg = decoder_cfg(layers, heads, d, len);
        let model = TransformerModel::random(cfg, seed).unwrap();
        let x = Prng::new(seed + 2).fill_normal(len, d, 0.0, 1.0);
        let incremental = decode_all_int8(&model, &x);
        for t in 1..=len {
            let prefix = Matrix::from_vec(t, d, x.as_slice()[..t * d].to_vec()).unwrap();
            let full = model.forward_prefix_int8(&prefix).unwrap();
            prop_assert_eq!(incremental.row(t - 1), full.row(t - 1), "prefix {}", t);
        }
    }

    #[test]
    fn prop_cache_rows_track_steps(
        steps in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cfg = decoder_cfg(2, 2, 16, 8);
        let model = TransformerModel::random(cfg, seed).unwrap();
        let mut cache = KvCache::new(model.config(), steps).unwrap();
        for s in 0..steps {
            prop_assert_eq!(cache.rows(), s);
            let x = Prng::new(seed + s as u64).fill_normal(1, 16, 0.0, 1.0);
            model.decode_step(&mut cache, &x).unwrap();
            cache.validate().unwrap();
            for l in 0..cache.num_layers() {
                prop_assert_eq!(cache.layer_rows(l), s + 1);
            }
        }
    }
}
