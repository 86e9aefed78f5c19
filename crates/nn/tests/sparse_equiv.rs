//! Equivalence properties for the sparse graph compute path.
//!
//! The CSR kernels in `phox_tensor::sparse` replaced the per-node
//! dense-stack aggregation; these properties pin the kernels to the old
//! semantics bit for bit. Aggregates must equal the dense-stack oracle
//! and SpMM a CSR-order scalar `o = o + w·x` loop, compared with
//! `to_bits`, so `-0.0` and `+0.0` differ. The features mix ±0, ±∞, NaN
//! and subnormals into normal draws; the widths sit on both sides of
//! every column block of the row kernel; the graphs have isolated rows,
//! self-loops and hubs of degree above 64; and every kernel runs on 1, 2
//! and 4 threads. The digital forward pass is pinned to the same dense
//! semantics and to byte-identity across thread counts.

use proptest::prelude::*;

use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_tensor::sparse::{self, CsrView, SparseReduce};
use phox_tensor::{ops, parallel, Matrix, Prng};

const NODES: usize = 12;

/// Vertices of the width-sweep graphs: three 64-row tiles, the last one
/// partial.
const WIDE_NODES: usize = 150;

/// The last `ISOLATED` vertices of a width-sweep graph have no
/// in-neighbours.
const ISOLATED: usize = 5;

/// Feature widths around every column block (32, 16, 8, 4, 1) of the row
/// kernel and their sums.
const WIDTHS: [usize; 19] = [
    1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65,
];

const THREADS: [usize; 3] = [1, 2, 4];

const AGGREGATIONS: [Aggregation; 3] = [Aggregation::Sum, Aggregation::Mean, Aggregation::Max];

fn arbitrary_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..NODES as u32, 0u32..NODES as u32), 0..90)
}

fn wide_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec(
        (
            0u32..WIDE_NODES as u32,
            0u32..(WIDE_NODES - ISOLATED) as u32,
        ),
        0..900,
    )
}

/// `edges` plus two hubs and a self-loop on every ninth vertex: vertex 0
/// takes every vertex as an in-neighbour (itself included), vertex 70 in
/// the second tile every even one, and the last [`ISOLATED`] vertices
/// none.
fn wide_graph(edges: &[(u32, u32)]) -> CsrGraph {
    let hubs = (0..WIDE_NODES as u32)
        .map(|u| (u, 0))
        .chain((0..WIDE_NODES as u32).step_by(2).map(|u| (u, 70)));
    let loops = (0..(WIDE_NODES - ISOLATED) as u32)
        .step_by(9)
        .map(|v| (v, v));
    let all: Vec<(u32, u32)> = edges.iter().copied().chain(hubs).chain(loops).collect();
    CsrGraph::from_edges(WIDE_NODES, &all).unwrap()
}

/// One value drawn from `rng`: a standard normal three times in four,
/// otherwise `+0.0`, `-0.0` (twice as likely), `±∞`, NaN or a signed
/// subnormal.
fn special_value(rng: &mut Prng) -> f64 {
    match rng.next_u64() % 32 {
        0 => 0.0,
        1 | 2 => -0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::NAN,
        6 => f64::MIN_POSITIVE * rng.next_f64(),
        7 => -f64::MIN_POSITIVE * rng.next_f64(),
        _ => rng.normal(0.0, 1.0),
    }
}

/// A `rows × f` matrix of [`special_value`] draws.
fn special_features(rows: usize, f: usize, seed: u64) -> Matrix {
    let mut rng = Prng::new(seed);
    let mut x = Matrix::zeros(rows, f);
    for v in x.as_mut_slice() {
        *v = special_value(&mut rng);
    }
    x
}

/// Fails unless `got` and `want` hold the same bits. Any two NaNs match:
/// Rust leaves the payload of a NaN that arithmetic produces
/// unspecified, so no kernel can promise it.
fn check_bits(got: &Matrix, want: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{}: shape", what);
    let f = want.cols().max(1);
    for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{}: element ({}, {}) is {:e} ({:#018x}), expected {:e} ({:#018x})",
            what,
            i / f,
            i % f,
            g,
            g.to_bits(),
            w,
            w.to_bits()
        );
    }
    Ok(())
}

/// The model's aggregate on the CSR kernel.
fn aggregate(
    model: &GnnModel,
    g: &CsrGraph,
    x: &Matrix,
    agg: Aggregation,
    include_self: bool,
) -> Matrix {
    model.aggregate(g, x, agg, include_self).unwrap()
}

/// `a · x` by the CSR-order scalar loop: every output starts at `+0.0`
/// and takes `o = o + w·x` per stored entry (`o = o + x` unweighted), in
/// CSR order.
fn spmm_reference(a: &CsrView<'_>, x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), x.cols());
    for r in 0..a.rows() {
        let weights = a.row_values(r);
        for (k, &u) in a.row_indices(r).iter().enumerate() {
            for c in 0..x.cols() {
                let (o, v) = (out.get(r, c), x.get(u as usize, c));
                let next = match weights {
                    Some(w) => o + w[k] * v,
                    None => o + v,
                };
                out.set(r, c, next);
            }
        }
    }
    out
}

/// Per-node reference for a single digital GAT layer, mirroring the
/// retired implementation: per-node softmax over LeakyReLU attention
/// logits, then a weighted accumulation of neighbour transforms in CSR
/// member order (the same order the sparse SpMM reduces in).
#[allow(clippy::needless_range_loop)] // index loops mirror the retired implementation
fn gat_layer_reference(model: &GnnModel, graph: &CsrGraph, x: &Matrix) -> Matrix {
    let lw = &model.layers()[0];
    let z = x.matmul(&lw.w.to_matrix()).unwrap();
    let fout = z.cols();
    let n = graph.num_nodes();
    let mut src_logit = vec![0.0; n];
    let mut dst_logit = vec![0.0; n];
    for v in 0..n {
        for c in 0..fout {
            src_logit[v] += z.get(v, c) * lw.a_src[c];
            dst_logit[v] += z.get(v, c) * lw.a_dst[c];
        }
    }
    let mut out = Matrix::zeros(n, fout);
    for v in 0..n {
        let neigh = graph.neighbors(v);
        if neigh.is_empty() {
            out.row_mut(v).copy_from_slice(z.row(v));
            continue;
        }
        let mut alphas: Vec<f64> = neigh
            .iter()
            .map(|&u| ops::leaky_relu_scalar(src_logit[u as usize] + dst_logit[v], 0.2))
            .collect();
        let m = alphas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for a in alphas.iter_mut() {
            *a = (*a - m).exp();
            sum += *a;
        }
        for a in alphas.iter_mut() {
            *a /= sum;
        }
        for (&u, &a) in neigh.iter().zip(alphas.iter()) {
            for c in 0..fout {
                let acc = out.get(v, c) + a * z.get(u as usize, c);
                out.set(v, c, acc);
            }
        }
    }
    out
}

#[test]
fn signed_zero_rows_fold_from_positive_zero() {
    // Every feature is -0.0. Sums and means start at +0.0, so they stay
    // +0.0; max folds from -∞ and keeps the -0.0 it meets, and a row
    // with no members (row 0 without itself) reduces to +0.0.
    let g = CsrGraph::from_edges(3, &[(0, 1), (1, 1), (0, 2)]).unwrap();
    let x = Matrix::filled(3, 5, -0.0);
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 5, 4, 2), 1).unwrap();
    for agg in AGGREGATIONS {
        for include_self in [false, true] {
            let kernel = aggregate(&model, &g, &x, agg, include_self);
            let oracle = model.aggregate_dense_stack(&g, &x, agg, include_self);
            for (label, m) in [("kernel", kernel), ("oracle", oracle)] {
                for (i, &v) in m.as_slice().iter().enumerate() {
                    let empty = i / 5 == 0 && !include_self;
                    let expect = if agg == Aggregation::Max && !empty {
                        -0.0f64
                    } else {
                        0.0
                    };
                    assert_eq!(
                        v.to_bits(),
                        expect.to_bits(),
                        "{label} {agg} include_self={include_self} element {i}"
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn sparse_aggregation_equals_dense_stack(
        edges in arbitrary_edges(),
        seed in any::<u64>(),
    ) {
        let g = CsrGraph::from_edges(NODES, &edges).unwrap();
        let x = special_features(NODES, 5, seed);
        let model =
            GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 5, 4, 2), seed).unwrap();
        for agg in AGGREGATIONS {
            for include_self in [false, true] {
                let sparse = aggregate(&model, &g, &x, agg, include_self);
                let dense = model.aggregate_dense_stack(&g, &x, agg, include_self);
                check_bits(&sparse, &dense, &format!("{agg} include_self={include_self}"))?;
            }
        }
    }

    #[test]
    fn forward_equals_dense_semantics_for_every_kind(
        edges in arbitrary_edges(),
        seed in any::<u64>(),
        kind_idx in 0usize..4,
        agg_idx in 0usize..3,
    ) {
        // Every kind's aggregation step must agree with the dense-stack
        // oracle when spliced into the same layer arithmetic.
        let kind = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat][kind_idx];
        let agg = AGGREGATIONS[agg_idx];
        let g = CsrGraph::from_edges(NODES, &edges).unwrap();
        let x = Prng::new(seed).fill_normal(NODES, 6, 0.0, 1.0);
        let cfg = GnnConfig { kind, dims: vec![6, 3], aggregation: agg };
        let model = GnnModel::random(cfg, seed).unwrap();
        let y = model.forward(&g, &x).unwrap();
        let expected = match kind {
            GnnKind::Gcn => {
                let a = model.aggregate_dense_stack(&g, &x, Aggregation::Mean, true);
                a.matmul(&model.layers()[0].w.to_matrix()).unwrap()
            }
            GnnKind::GraphSage => {
                let a = model.aggregate_dense_stack(&g, &x, agg, false);
                x.hconcat(&a).unwrap().matmul(&model.layers()[0].w.to_matrix()).unwrap()
            }
            GnnKind::Gin => {
                let a = model.aggregate_dense_stack(&g, &x, Aggregation::Sum, false);
                let mixed = x.scale(1.0 + model.epsilon()).add(&a).unwrap();
                mixed.matmul(&model.layers()[0].w.to_matrix()).unwrap()
            }
            GnnKind::Gat => gat_layer_reference(&model, &g, &x),
        };
        check_bits(&y, &expected, &format!("kind {kind:?}"))?;
    }

    #[test]
    fn digital_forward_is_thread_count_invariant(
        edges in arbitrary_edges(),
        seed in any::<u64>(),
        kind_idx in 0usize..4,
    ) {
        let kind = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat][kind_idx];
        let g = CsrGraph::from_edges(NODES, &edges).unwrap();
        let x = Prng::new(seed).fill_normal(NODES, 6, 0.0, 1.0);
        let model =
            GnnModel::random(GnnConfig::two_layer(kind, 6, 8, 3), seed).unwrap();
        let reference =
            parallel::with_threads(1, || model.forward(&g, &x).unwrap());
        for threads in [2usize, 4] {
            let y = parallel::with_threads(threads, || model.forward(&g, &x).unwrap());
            check_bits(&y, &reference, &format!("kind {kind:?} threads {threads}"))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn aggregates_equal_dense_stack_bitwise_at_every_width(
        edges in wide_edges(),
        seed in any::<u64>(),
    ) {
        let g = wide_graph(&edges);
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 1, 1, 1), 1).unwrap();
        for (i, f) in WIDTHS.into_iter().enumerate() {
            let x = special_features(WIDE_NODES, f, seed ^ i as u64);
            for agg in AGGREGATIONS {
                let reduce = match agg {
                    Aggregation::Sum => SparseReduce::Sum,
                    Aggregation::Mean => SparseReduce::Mean,
                    Aggregation::Max => SparseReduce::Max,
                };
                for include_self in [false, true] {
                    let want = model.aggregate_dense_stack(&g, &x, agg, include_self);
                    for threads in THREADS {
                        let what = format!("f={f} {agg} include_self={include_self} threads={threads}");
                        let got = parallel::with_threads(threads, || {
                            aggregate(&model, &g, &x, agg, include_self)
                        });
                        check_bits(&got, &want, &what)?;
                        // Every output element is written, whatever the
                        // buffer held before.
                        let mut dirty = Matrix::filled(WIDE_NODES, f, f64::NAN);
                        parallel::with_threads(threads, || {
                            sparse::aggregate_into(&g.csr_view(), &x, reduce, include_self, &mut dirty)
                        })
                        .unwrap();
                        check_bits(&dirty, &want, &format!("{what} into a dirty buffer"))?;
                    }
                }
            }
        }
    }

    #[test]
    fn spmm_equals_csr_order_loop_bitwise_at_every_width(
        edges in wide_edges(),
        seed in any::<u64>(),
    ) {
        let g = wide_graph(&edges);
        let n = g.num_nodes();
        let mut rng = Prng::new(seed);
        let weights: Vec<f64> = (0..g.num_edges()).map(|_| special_value(&mut rng)).collect();
        let weighted = CsrView::new(n, n, g.offsets(), g.neighbor_ids(), Some(&weights)).unwrap();
        for (i, f) in WIDTHS.into_iter().enumerate() {
            let x = special_features(n, f, seed ^ (i as u64 + 100));
            for (label, view) in [("unweighted", g.csr_view()), ("weighted", weighted)] {
                let want = spmm_reference(&view, &x);
                for threads in THREADS {
                    let what = format!("f={f} {label} threads={threads}");
                    let got = parallel::with_threads(threads, || sparse::spmm(&view, &x)).unwrap();
                    check_bits(&got, &want, &what)?;
                    let mut dirty = Matrix::filled(n, f, f64::NAN);
                    parallel::with_threads(threads, || sparse::spmm_into(&view, &x, &mut dirty))
                        .unwrap();
                    check_bits(&dirty, &want, &format!("{what} into a dirty buffer"))?;
                }
            }
        }
    }
}
