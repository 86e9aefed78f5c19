//! Property-based tests for GHOST's partitioning and performance model.

use proptest::prelude::*;

use phox_ghost::partition::Partition;
use phox_ghost::{GhostAccelerator, GhostConfig, GhostFunctional, GnnWorkload, Optimizations};
use phox_nn::datasets::GraphShape;
use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_tensor::{parallel, Prng, Quantizer};

fn arbitrary_graph() -> impl Strategy<Value = CsrGraph> {
    (10usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0u32..n as u32, 0u32..n as u32), 1..4 * n)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partition_accounts_for_every_edge(
        g in arbitrary_graph(),
        ob in 1usize..16,
        ib in 1usize..16,
    ) {
        let p = Partition::new(&g, ob, ib).unwrap();
        prop_assert_eq!(p.total_edges(), g.num_edges());
        prop_assert!(p.active_pairs() <= p.output_blocks() * p.input_blocks());
        prop_assert!(p.active_pairs() <= g.num_edges());
        // Block counts cover all nodes.
        prop_assert!(p.output_blocks() * ob >= g.num_nodes());
        prop_assert!(p.input_blocks() * ib >= g.num_nodes());
    }

    #[test]
    fn simulate_monotone_in_edges(
        nodes in 500usize..3_000,
        edges in 2_000usize..20_000,
    ) {
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let mk = |e: usize| GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 64, 16, 4),
            GraphShape { name: "p".into(), nodes, edges: e, features: 64, classes: 4 },
        );
        let sparse = ghost.simulate(&mk(edges)).unwrap();
        let dense = ghost.simulate(&mk(edges * 2)).unwrap();
        prop_assert!(dense.perf.energy_j >= sparse.perf.energy_j);
    }

    #[test]
    fn optimized_never_slower_than_unoptimized(
        nodes in 500usize..3_000,
        edges in 2_000usize..30_000,
        features in 16usize..256,
    ) {
        let w = GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, features, 16, 4),
            GraphShape { name: "p".into(), nodes, edges, features, classes: 4 },
        );
        let on = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let off = GhostAccelerator::new(GhostConfig {
            optimizations: Optimizations::none(),
            ..GhostConfig::default()
        })
        .unwrap();
        let r_on = on.simulate(&w).unwrap();
        let r_off = off.simulate(&w).unwrap();
        prop_assert!(r_on.perf.latency_s <= r_off.perf.latency_s * 1.001);
        prop_assert!(r_on.perf.energy_j <= r_off.perf.energy_j * 1.001);
    }

    #[test]
    fn balance_factor_at_least_one(
        nodes in 100usize..2_000,
        avg_degree in 1usize..32,
    ) {
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let w = GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 32, 16, 4),
            GraphShape {
                name: "p".into(),
                nodes,
                edges: nodes * avg_degree,
                features: 32,
                classes: 4,
            },
        );
        prop_assert!(ghost.balance_factor(&w).unwrap() >= 1.0);
    }

    #[test]
    fn photonic_forward_is_thread_count_invariant(
        g in arbitrary_graph(),
        seed in any::<u64>(),
        kind_idx in 0usize..4,
    ) {
        // The sparse photonic path keys every node's noise stream on
        // (operation key, node id), so the forward pass must be
        // byte-identical no matter how the tile schedule lands on threads.
        let kind = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat][kind_idx];
        let x = Prng::new(seed).fill_normal(g.num_nodes(), 6, 0.0, 1.0);
        let model = GnnModel::random(GnnConfig::two_layer(kind, 6, 8, 3), seed).unwrap();
        let reference = parallel::with_threads(1, || {
            let mut sim = GhostFunctional::new(&GhostConfig::default(), seed).unwrap();
            sim.forward(&model, &g, &x).unwrap()
        });
        for threads in [2usize, 4] {
            let y = parallel::with_threads(threads, || {
                let mut sim = GhostFunctional::new(&GhostConfig::default(), seed).unwrap();
                sim.forward(&model, &g, &x).unwrap()
            });
            prop_assert_eq!(&y, &reference, "kind {:?} threads {}", kind, threads);
        }
    }

    #[test]
    fn ideal_optical_aggregation_matches_digital_int8(
        g in arbitrary_graph(),
        seed in any::<u64>(),
        width in 0usize..4,
    ) {
        // With zero receiver noise the coherent sum is exact on the
        // DAC's int8 code grid, so the photonic sparse kernel must
        // reproduce the digital int8 reference bit for bit (sum and
        // mean reduce exact integer level counts in the same CSR member
        // order, dequantized afterwards). Max is excluded: the
        // comparator's dead-zone is a physical effect that differs from
        // ideal max by design. The widths reach below, at and past the
        // int8 structural sum's 8-, 16- and 32-column blocks.
        let f = [5, 8, 16, 33][width];
        let x = Prng::new(seed).fill_normal(g.num_nodes(), f, 0.0, 1.0);
        let qx = Quantizer::calibrate(&x).quantize(&x);
        let codes = qx.as_i8_slice();
        for agg in [Aggregation::Sum, Aggregation::Mean] {
            for include_self in [false, true] {
                let mut sim = GhostFunctional::ideal(&GhostConfig::default(), seed);
                let optical = sim.optical_aggregate(&g, &x, agg, include_self).unwrap();
                for v in 0..g.num_nodes() {
                    let neigh = g.neighbors(v);
                    for c in 0..f {
                        let expected = if neigh.is_empty() && !include_self {
                            0.0
                        } else {
                            let mut count: i64 = if include_self {
                                i64::from(codes[v * f + c])
                            } else {
                                0
                            };
                            for &u in neigh {
                                count += i64::from(codes[u as usize * f + c]);
                            }
                            let denom = if agg == Aggregation::Mean {
                                (neigh.len() + usize::from(include_self)) as f64
                            } else {
                                1.0
                            };
                            count as f64 * qx.scale() / denom
                        };
                        prop_assert_eq!(
                            optical.get(v, c).to_bits(), expected.to_bits(),
                            "agg {:?} self {} node {} col {}", agg, include_self, v, c
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sampling_never_increases_cost(
        fanout in 1usize..50,
    ) {
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let shape = GraphShape::pubmed();
        let full = GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::GraphSage, 500, 16, 3),
            shape.clone(),
        );
        let sampled = GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, 500, 16, 3),
            shape,
            fanout,
        );
        prop_assert!(sampled.effective_edges() <= full.effective_edges());
        let rf = ghost.simulate(&full).unwrap();
        let rs = ghost.simulate(&sampled).unwrap();
        prop_assert!(rs.perf.energy_j <= rf.perf.energy_j * 1.001);
    }
}
