//! End-to-end GHOST integration: functional photonic GNN inference over
//! real graphs vs the digital reference, plus physical behaviour of the
//! performance simulator and the §V.D optimization ablation.

use phox::nn::datasets::sbm;
use phox::nn::quant_eval;
use phox::prelude::*;
use phox::tensor::{ops, stats};

#[test]
fn functional_matches_reference_for_every_model_family() {
    let task = sbm(3, 10, 12, 0.5, 0.05, 41).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 42).unwrap();
        let reference = model.forward(&task.graph, &task.features).unwrap();
        let mut sim = GhostFunctional::new(&GhostConfig::default(), 43).unwrap();
        let photonic = sim.forward(&model, &task.graph, &task.features).unwrap();
        let err = stats::relative_error(&reference, &photonic);
        assert!(err < 0.4, "{kind}: analog error {err}");
        let agree = stats::accuracy(&ops::argmax_rows(&photonic), &ops::argmax_rows(&reference));
        assert!(agree >= 0.75, "{kind}: agreement {agree}");
    }
}

#[test]
fn quantization_claim_holds_on_community_graphs() {
    // E6 for GNNs: int8 accuracy comparable to full precision.
    let task = sbm(4, 10, 16, 0.5, 0.04, 51).unwrap();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 4), 52).unwrap();
        let r = quant_eval::evaluate_gnn(&model, &task, Precision::FakeQuant { bits: 8 }).unwrap();
        assert!(r.is_comparable(0.1), "{kind}: {r:?}");
    }
}

#[test]
fn rmat_instantiated_graph_runs_through_functional_sim() {
    // A power-law graph (not SBM) with hubs — the irregularity GHOST's
    // balancing targets.
    let shape = GraphShape {
        name: "mini-rmat".into(),
        nodes: 128,
        edges: 1024,
        features: 8,
        classes: 4,
    };
    let graph = shape.instantiate(61).unwrap();
    let features = shape.random_features(62);
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 8, 16, 4), 63).unwrap();
    let mut sim = GhostFunctional::new(&GhostConfig::default(), 64).unwrap();
    let y = sim.forward(&model, &graph, &features).unwrap();
    assert_eq!(y.shape(), (128, 4));
    assert!(y.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn perf_scales_with_graph_size() {
    let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
    let small = ghost
        .simulate(&GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
            GraphShape::cora(),
        ))
        .unwrap();
    let large = ghost
        .simulate(&GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 500, 16, 3),
            GraphShape::pubmed(),
        ))
        .unwrap();
    // Pubmed has ~7x the nodes and ~8x the edges of Cora (smaller
    // features, but more total aggregation work).
    assert!(large.perf.latency_s > small.perf.latency_s * 0.5);
    assert!(large.perf.energy_j > 0.0 && small.perf.energy_j > 0.0);
}

#[test]
fn every_optimization_helps_somewhere() {
    let base = GhostConfig::default();
    let reddit = GnnWorkload::sampled(
        GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
        GraphShape::reddit(),
        25,
    );
    let all_on = GhostAccelerator::new(base.clone()).unwrap();
    let r_on = all_on.simulate(&reddit).unwrap();

    // Partitioning: large latency + energy effect on Reddit.
    let no_part = GhostAccelerator::new(GhostConfig {
        optimizations: Optimizations {
            partition: false,
            ..Optimizations::default()
        },
        ..base.clone()
    })
    .unwrap();
    let r = no_part.simulate(&reddit).unwrap();
    assert!(r.perf.latency_s > r_on.perf.latency_s * 1.5, "partitioning");
    assert!(r.perf.energy_j > r_on.perf.energy_j, "partitioning energy");

    // DAC sharing: energy effect.
    let no_dac = GhostAccelerator::new(GhostConfig {
        optimizations: Optimizations {
            dac_sharing: false,
            ..Optimizations::default()
        },
        ..base.clone()
    })
    .unwrap();
    let r = no_dac.simulate(&reddit).unwrap();
    assert!(r.perf.energy_j > r_on.perf.energy_j, "dac sharing");

    // Pipelining + balancing: compute-latency effects, visible on a
    // compute-bound workload (on-chip features).
    let cora = GnnWorkload::new(
        GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
        GraphShape::cora(),
    );
    let r_cora_on = all_on.simulate(&cora).unwrap();
    let no_pipe = GhostAccelerator::new(GhostConfig {
        optimizations: Optimizations {
            pipelining: false,
            ..Optimizations::default()
        },
        ..base.clone()
    })
    .unwrap();
    let r = no_pipe.simulate(&cora).unwrap();
    assert!(
        r.latency.compute_s > r_cora_on.latency.compute_s,
        "pipelining"
    );
    let no_bal = GhostAccelerator::new(GhostConfig {
        optimizations: Optimizations {
            balancing: false,
            ..Optimizations::default()
        },
        ..base
    })
    .unwrap();
    assert!(
        no_bal.balance_factor(&cora).unwrap() >= all_on.balance_factor(&cora).unwrap(),
        "balancing"
    );
}

#[test]
fn sampling_caps_effective_edges() {
    let w = GnnWorkload::sampled(
        GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
        GraphShape::reddit(),
        25,
    );
    assert_eq!(w.effective_edges(), 232_965 * 25);
    // Sampling never increases the edge count.
    let tiny = GnnWorkload::sampled(
        GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
        GraphShape::cora(),
        10_000,
    );
    assert_eq!(tiny.effective_edges(), 10_556);
}

#[test]
fn partition_invariants_on_rmat_graph() {
    use phox::ghost::partition::Partition;
    let shape = GraphShape {
        name: "t".into(),
        nodes: 600,
        edges: 4_000,
        features: 8,
        classes: 2,
    };
    let g = shape.instantiate(71).unwrap();
    let p = Partition::new(&g, 64, 128).unwrap();
    // Every edge lands in exactly one block pair.
    assert_eq!(p.total_edges(), g.num_edges());
    // Block loads never exceed the full cross product.
    assert!(p.block_loads() <= p.output_blocks() * p.input_blocks());
    // Partitioned streaming never exceeds per-edge gather on this
    // (dense-ish) graph by construction of the min policy used in perf.
    assert!(p.streamed_feature_bytes(8) > 0);
}
