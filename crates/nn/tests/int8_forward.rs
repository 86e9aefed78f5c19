//! Integration tests for the true int8 forward paths: accuracy against
//! the f64 oracle, exact thread-count invariance, equivalence of the
//! int8 sparse aggregation with its dense counterpart, pinned output
//! bits of every GNN family's int8 forward, `QuantLinear::forward`
//! against the raw product and its dequantization, and the model-owned
//! weight packs against quantizing every weight on every product.

use phox_nn::datasets::{labelled_sequences, power_law, sbm};
use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnDatapath, GnnKind, GnnModel};
use phox_nn::int8::{Precision, QuantLinear, Weight};
use phox_nn::quant_eval::{evaluate_gnn, evaluate_transformer};
use phox_nn::transformer::{
    FfActivation, TransformerConfig, TransformerDatapath, TransformerKind, TransformerModel,
};
use phox_tensor::{gemm_i8, parallel, Matrix, Prng, Quantizer, RowQuantMatrix, TensorError};
use phox_trace::digest_of;

#[test]
fn transformer_int8_tracks_full_precision() {
    let x = Prng::new(1).fill_normal(8, 32, 0.0, 1.0);
    let model = TransformerModel::random(TransformerConfig::tiny(8), 2).unwrap();
    let fp = model.forward(&x).unwrap();
    let int8 = model.forward_int8(&x).unwrap();
    let err = phox_tensor::stats::relative_error(&fp, &int8);
    assert!(err < 0.2, "int8 relative error {err}");
}

#[test]
fn seq2seq_int8_tracks_full_precision() {
    let mut cfg = TransformerConfig::tiny(8);
    cfg.kind = TransformerKind::EncoderDecoder;
    let model = TransformerModel::random(cfg, 3).unwrap();
    let src = Prng::new(4).fill_normal(8, 32, 0.0, 1.0);
    let tgt = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
    let fp = model.forward_seq2seq(&src, &tgt, Precision::F64).unwrap();
    let int8 = model.forward_seq2seq(&src, &tgt, Precision::Int8).unwrap();
    let err = phox_tensor::stats::relative_error(&fp, &int8);
    assert!(err < 0.25, "seq2seq int8 relative error {err}");
}

#[test]
fn gnn_int8_tracks_full_precision_all_kinds() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 6).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 7).unwrap();
        let fp = model.forward(&task.graph, &task.features).unwrap();
        let int8 = model.forward_int8(&task.graph, &task.features).unwrap();
        let err = phox_tensor::stats::relative_error(&fp, &int8);
        assert!(err < 0.3, "{kind}: int8 relative error {err}");
    }
}

#[test]
fn int8_forward_is_bit_identical_across_thread_counts() {
    // i32 sums are exact, so the int8 forward must not depend on the
    // thread count in any bit.
    let x = Prng::new(8).fill_normal(8, 32, 0.0, 1.0);
    let model = TransformerModel::random(TransformerConfig::tiny(8), 9).unwrap();
    let task = sbm(3, 12, 16, 0.5, 0.05, 10).unwrap();
    let gnn = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 16, 32, 3), 11).unwrap();
    let baseline_t = parallel::with_threads(1, || model.forward_int8(&x).unwrap());
    let baseline_g = parallel::with_threads(1, || gnn.forward_int8(&task.graph, &task.features));
    let baseline_g = baseline_g.unwrap();
    for threads in [2usize, 4] {
        let t = parallel::with_threads(threads, || model.forward_int8(&x).unwrap());
        assert_eq!(t, baseline_t, "transformer differs at {threads} threads");
        let g = parallel::with_threads(threads, || gnn.forward_int8(&task.graph, &task.features));
        assert_eq!(g.unwrap(), baseline_g, "gnn differs at {threads} threads");
    }
}

#[test]
fn quant_linear_equals_raw_kernel() {
    let w = Prng::new(12).xavier(24, 10);
    let x = Prng::new(13).fill_normal(6, 24, 0.0, 1.0);
    let y = QuantLinear::from_weight(&w).forward(&x).unwrap();

    // Activations per row, the weight per tensor.
    let qx = RowQuantMatrix::quantize_rows(&x);
    let qw = Quantizer::calibrate(&w).quantize(&w);
    let sums = gemm_i8::matmul_i32_naive(qx.as_i8_slice(), qw.as_i8_slice(), 6, 24, 10).unwrap();
    for r in 0..6 {
        let scale = qx.scales()[r] * qw.scale();
        for c in 0..10 {
            assert_eq!(y.get(r, c), sums[r * 10 + c] as f64 * scale);
        }
    }
}

#[test]
fn aggregate_int8_matches_dense_reference_on_levels() {
    // Feed features that are exactly representable at the quantization
    // scale: the int8 aggregation must then equal the f64 aggregation
    // exactly (sums/maxima of levels are exact in i32).
    let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3)]).unwrap();
    let mut levels = Matrix::zeros(5, 3);
    let mut seed = Prng::new(14);
    for r in 0..5 {
        for c in 0..3 {
            levels.set(r, c, seed.uniform(-127.0, 127.0).round());
        }
    }
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 3, 4, 2), 15).unwrap();
    for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
        for include_self in [false, true] {
            let int8 = model
                .aggregate_int8(&g, &levels, agg, include_self)
                .unwrap();
            let dense = model.aggregate_dense_stack(&g, &levels, agg, include_self);
            let err = phox_tensor::stats::relative_error(&dense, &int8);
            assert!(err < 1e-12, "{agg} include_self={include_self}: err {err}");
        }
    }
}

#[test]
fn quant_eval_int8_reports_are_comparable() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 16).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 17).unwrap();
        let r = evaluate_gnn(&model, &task, Precision::Int8).unwrap();
        assert!(r.agreement >= 0.8, "{kind}: agreement {}", r.agreement);
        assert!(r.is_comparable(0.15), "{kind}: {r:?}");
    }

    let seq_task = labelled_sequences(12, 3, 8, 32, 18).unwrap();
    let model = TransformerModel::random(TransformerConfig::tiny(8), 19).unwrap();
    let r = evaluate_transformer(&model, &seq_task, Precision::Int8).unwrap();
    assert!(r.agreement >= 0.75, "agreement {}", r.agreement);
    assert!(r.is_comparable(0.25), "{r:?}");
    assert!(r.mean_relative_error < 0.3, "err {}", r.mean_relative_error);
}

/// `(case, digest_of(forward_int8))` for every GNN family on a
/// 2,000-node power-law graph whose widths (37 → 19 → 5) cross the int8
/// aggregate's 32-, 16- and 8-column blocks and its scalar tail.
fn gnn_int8_digests() -> Vec<(String, String)> {
    let graph = power_law(2_000, 16_000, 2.2, 0x27).unwrap();
    let x = Prng::new(0x28).fill_normal(graph.num_nodes(), 37, 0.0, 1.0);
    let mut cases = vec![("GCN".to_owned(), GnnKind::Gcn, Aggregation::Mean)];
    for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
        cases.push((format!("GraphSAGE {agg}"), GnnKind::GraphSage, agg));
    }
    cases.push(("GIN".to_owned(), GnnKind::Gin, Aggregation::Sum));
    cases.push(("GAT".to_owned(), GnnKind::Gat, Aggregation::Sum));
    cases
        .into_iter()
        .map(|(case, kind, aggregation)| {
            let cfg = GnnConfig {
                kind,
                dims: vec![37, 19, 5],
                aggregation,
            };
            let model = GnnModel::random(cfg, 0x29).unwrap();
            let y = model.forward_int8(&graph, &x).unwrap();
            (case, digest_of(&y))
        })
        .collect()
}

#[test]
fn gnn_int8_forwards_keep_their_bits_at_every_thread_count() {
    let want = [
        ("GCN", "0f946ad1820ca50a"),
        ("GraphSAGE sum", "38a7612afb66caa5"),
        ("GraphSAGE mean", "76d691114b91ac19"),
        ("GraphSAGE max", "73fb03ad485c3a48"),
        ("GIN", "821fc640f96d3194"),
        ("GAT", "e282479336da7204"),
    ];
    for threads in [1usize, 2, 8] {
        let got = parallel::with_threads(threads, gnn_int8_digests);
        let bad: Vec<String> = got
            .iter()
            .zip(&want)
            .filter(|((case, g), (w_case, w))| case != w_case || g != w)
            .map(|((case, g), (_, w))| format!("{case}: got {g}, want {w}"))
            .collect();
        assert!(
            bad.is_empty(),
            "digests moved at {threads} threads:\n{}",
            bad.join("\n")
        );
    }
}

/// `QuantLinear::forward` equals its definition bit for bit: per-row
/// quantization, the raw `i32` product over the packed weight, and one
/// dequantization per element with `row_scale × weight_scale`. Row
/// counts sit on both sides of the first two edges of the product's
/// 1,026-row bands, of 1,024 and of 6-row tiles, and above the parallel
/// threshold, with zero, one, a few, a full panel and a panel plus one
/// output columns; one row is all zeros and one holds an infinity.
#[test]
fn quant_linear_equals_raw_product_and_dequant_loop() {
    let k = 37;
    for n in [0usize, 1, 4, 16, 17] {
        let w = Prng::new(0x2a + n as u64).xavier(k, n);
        let layer = QuantLinear::from_weight(&w);
        let qw = Quantizer::calibrate(&w).quantize(&w);
        let panels = gemm_i8::Panels::pack(qw.as_i8_slice(), k, n);
        for m in [
            0usize, 1, 5, 6, 7, 1018, 1020, 1023, 1024, 1025, 1026, 1027, 1032, 2047, 2048, 2052,
            2053, 3079, 8000,
        ] {
            let mut x = Prng::new(0x2b + m as u64).fill_normal(m, k, 0.0, 1.0);
            if m > 3 {
                x.row_mut(1).fill(0.0);
                x.set(2, 5, f64::INFINITY);
            }
            // The oracle: the raw `i32` product, then a dequantization pass.
            let qx = RowQuantMatrix::quantize_rows(&x);
            let sums = gemm_i8::matmul_packed(qx.as_i8_slice(), &panels, m).unwrap();
            let mut want = Vec::with_capacity(m * n);
            if n > 0 {
                for (row, &row_scale) in sums.chunks_exact(n).zip(qx.scales()) {
                    let scale = row_scale * qw.scale();
                    want.extend(row.iter().map(|&s| s as f64 * scale));
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let threads: &[usize] = if m * k * n >= gemm_i8::PAR_ELEMS_MIN {
                &[1, 2, 8]
            } else {
                &[1]
            };
            for &t in threads {
                let y = parallel::with_threads(t, || layer.forward(&x).unwrap());
                assert_eq!(y.shape(), (m, n), "{m}x{k}x{n}");
                assert_eq!(
                    bits(y.as_slice()),
                    bits(&want),
                    "{m}x{k}x{n} at {t} threads"
                );
            }
        }
    }
}

/// The int8 reference with no resident weights: every weight quantized
/// and packed again on every product (`QuantLinear::from_weight`), every
/// other op as `Precision::Int8` runs it.
struct PerProduct;

impl TransformerDatapath for PerProduct {
    type Error = TensorError;
    fn mm(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        QuantLinear::from_weight(&w.to_matrix()).forward(a)
    }
    fn mm_weight_only(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        QuantLinear::from_weight(&w.to_matrix()).forward(a)
    }
    fn heads(&mut self, qkv: [&Matrix; 3], n: usize, causal: bool) -> Result<Matrix, TensorError> {
        Precision::Int8.heads(qkv, n, causal)
    }
    fn residual(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, TensorError> {
        x.add(y)
    }
    fn layer_norm(&mut self, x: &Matrix, ln: (&[f64], &[f64])) -> Result<Matrix, TensorError> {
        Precision::Int8.layer_norm(x, ln)
    }
    fn activate(&mut self, f: FfActivation, x: &Matrix) -> Matrix {
        TransformerDatapath::activate(&mut Precision::Int8, f, x)
    }
}

impl GnnDatapath for PerProduct {
    type Error = TensorError;
    fn mm(&mut self, h: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        QuantLinear::from_weight(&w.to_matrix()).forward(h)
    }
    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, TensorError> {
        Precision::Int8.aggregate(graph, h, agg, include_self)
    }
    fn attend(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src: &[f64],
        dst: &[f64],
    ) -> Result<Matrix, TensorError> {
        Precision::Int8.attend(graph, z, src, dst)
    }
    fn relu(&mut self, h: Matrix) -> Matrix {
        GnnDatapath::relu(&mut Precision::Int8, h)
    }
}

fn row_bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

fn bits(m: &Matrix) -> Vec<u64> {
    row_bits(m.as_slice())
}

fn decoder_cfg(seq_len: usize) -> TransformerConfig {
    TransformerConfig {
        kind: TransformerKind::DecoderOnly,
        ..TransformerConfig::tiny(seq_len)
    }
}

/// The weights of `TransformerModel::random(decoder_cfg(_), seed)` in a
/// model that takes `t` rows: the sequence length draws no weights.
fn decoder_at(seed: u64, t: usize) -> TransformerModel {
    TransformerModel::random(decoder_cfg(t), seed).unwrap()
}

#[test]
fn int8_transformer_forwards_equal_per_product_quantization() {
    let x = Prng::new(0x30).fill_normal(8, 32, 0.0, 1.0);
    for kind in [
        TransformerKind::EncoderOnly,
        TransformerKind::DecoderOnly,
        TransformerKind::EncoderDecoder,
    ] {
        let cfg = TransformerConfig {
            kind,
            ..TransformerConfig::tiny(8)
        };
        let model = TransformerModel::random(cfg, 0x31).unwrap();
        let want = bits(&model.forward_with(&x, PerProduct).unwrap());
        for threads in [1, 2, 8] {
            let got = parallel::with_threads(threads, || model.forward_int8(&x).unwrap());
            assert_eq!(bits(&got), want, "{kind} at {threads} threads");
        }
    }
}

#[test]
fn int8_prefix_decode_and_generation_equal_per_product_quantization() {
    let (seed, p, g) = (0x32, 3, 5);
    let model = decoder_at(seed, p);
    let x = Prng::new(0x33).fill_normal(p + g, 32, 0.0, 1.0);
    let prefix = |t: usize| Matrix::from_vec(t, 32, x.as_slice()[..t * 32].to_vec()).unwrap();
    let oracle = |t: usize| {
        decoder_at(seed, t)
            .forward_with(&prefix(t), PerProduct)
            .unwrap()
    };
    let decoder = model.int8_decoder();
    let mut cache = phox_nn::decode::KvCache::new(model.config(), p + g).unwrap();
    for t in 1..=p + g {
        let want = oracle(t);
        let full = model.forward_prefix_int8(&prefix(t)).unwrap();
        assert_eq!(bits(&full), bits(&want), "prefix {t}");
        let step = decoder
            .step(&mut cache, &Matrix::row_vector(x.row(t - 1)))
            .unwrap();
        assert_eq!(bits(&step), row_bits(want.row(t - 1)), "decode step {t}");
    }
    // Generation feeds each output back: replay that chain per product.
    let gen = model.generate_int8(&prefix(p), g).unwrap();
    let mut seq = prefix(p).as_slice().to_vec();
    for i in 0..g {
        let t = p + i;
        let want = decoder_at(seed, t)
            .forward_with(&Matrix::from_vec(t, 32, seq.clone()).unwrap(), PerProduct)
            .unwrap();
        assert_eq!(
            row_bits(gen.tokens.row(i)),
            row_bits(want.row(t - 1)),
            "generated token {i}"
        );
        seq.extend_from_slice(gen.tokens.row(i));
    }
}

#[test]
fn int8_gnn_forwards_equal_per_product_quantization() {
    let task = sbm(3, 12, 16, 0.5, 0.05, 0x34).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 24, 3), 0x35).unwrap();
        let want = model
            .forward_with(&task.graph, &task.features, PerProduct)
            .unwrap();
        let got = model.forward_int8(&task.graph, &task.features).unwrap();
        assert_eq!(bits(&got), bits(&want), "{kind}");
    }
}

#[test]
fn models_compare_equal_whether_or_not_they_have_packed() {
    let x = Prng::new(0x36).fill_normal(8, 32, 0.0, 1.0);
    let packed = TransformerModel::random(TransformerConfig::tiny(8), 0x37).unwrap();
    let fresh = TransformerModel::random(TransformerConfig::tiny(8), 0x37).unwrap();
    packed.forward_int8(&x).unwrap();
    assert_eq!(packed, fresh);
    assert_eq!(format!("{packed:?}"), format!("{fresh:?}"));
    assert_eq!(packed.clone(), fresh);

    let task = sbm(2, 6, 8, 0.5, 0.1, 0x38).unwrap();
    let cfg = GnnConfig::two_layer(GnnKind::Gcn, 8, 8, 2);
    let packed = GnnModel::random(cfg.clone(), 0x39).unwrap();
    let fresh = GnnModel::random(cfg, 0x39).unwrap();
    packed.forward_int8(&task.graph, &task.features).unwrap();
    assert_eq!(packed, fresh);
    assert_eq!(format!("{packed:?}"), format!("{fresh:?}"));
}

#[test]
fn a_pack_is_built_once_and_shared_across_threads() {
    let model = TransformerModel::random(TransformerConfig::tiny(8), 0x3a).unwrap();
    let x = Prng::new(0x3b).fill_normal(8, 32, 0.0, 1.0);
    let want = bits(&model.forward_with(&x, PerProduct).unwrap());
    let weights = || {
        model
            .layers()
            .iter()
            .flat_map(|lw| [&lw.w_q, &lw.w_k, &lw.w_v, &lw.w_o, &lw.w_ff1, &lw.w_ff2])
    };
    // Four threads race to the first int8 forward of a fresh model; each
    // sees the oracle's bits and the same pack behind every weight.
    let packs: Vec<Vec<usize>> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    assert_eq!(bits(&model.forward_int8(&x).unwrap()), want);
                    weights()
                        .map(|w| std::ptr::from_ref(w.quantized()) as usize)
                        .collect()
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(packs.windows(2).all(|p| p[0] == p[1]));
    for w in weights() {
        assert_eq!(*w.quantized(), QuantLinear::from_weight(&w.to_matrix()));
    }
}
