//! Integration tests for the true int8 forward paths: accuracy against
//! the f64 oracle, exact thread-count invariance, equivalence of the
//! int8 sparse aggregation with its dense counterpart, pinned output
//! bits of every GNN family's int8 forward, and `QuantLinear::forward`
//! against the raw product and its dequantization.

use phox_nn::datasets::{labelled_sequences, power_law, sbm};
use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_nn::int8::{Precision, QuantLinear};
use phox_nn::quant_eval::{evaluate_gnn, evaluate_transformer};
use phox_nn::transformer::{TransformerConfig, TransformerKind, TransformerModel};
use phox_tensor::{gemm_i8, parallel, Matrix, Prng, Quantizer, RowQuantMatrix};
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
