//! The full accuracy story in one run: the §VI quantization claim, the
//! §III task family (node classification, link prediction, graph
//! classification), and the analog datapath's fidelity — digital fp64 →
//! digital int8 → photonic analog.
//!
//! ```sh
//! cargo run --example accuracy_report --release
//! ```

use phox::nn::datasets::{labelled_sequences, sbm};
use phox::nn::quant_eval::{evaluate_gnn, evaluate_transformer};
use phox::nn::tasks::{graph_classification_accuracy, graph_classification_task, link_prediction};
use phox::prelude::*;
use phox::tensor::{ops, stats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- E6: 8-bit ≈ fp32 (the paper's quantization analysis) ------
    println!("8-bit quantization vs full precision:");
    let seq_task = labelled_sequences(24, 4, 8, 32, 501)?;
    let transformer = TransformerModel::random(TransformerConfig::tiny(8), 502)?;
    let fq8 = Precision::FakeQuant { bits: 8 };
    let r = evaluate_transformer(&transformer, &seq_task, fq8)?;
    println!(
        "  transformer : fp {:.2} / int8 {:.2} / agreement {:.2}",
        r.fp_accuracy, r.int8_accuracy, r.agreement
    );
    let graph_task = sbm(3, 12, 16, 0.5, 0.05, 503)?;
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 504)?;
        let r = evaluate_gnn(&model, &graph_task, fq8)?;
        println!(
            "  {kind:<11} : fp {:.2} / int8 {:.2} / agreement {:.2}",
            r.fp_accuracy, r.int8_accuracy, r.agreement
        );
    }

    // ---- §III: the other graph tasks --------------------------------
    println!("\ngraph-task family (§III):");
    let lp_model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 16, 32, 8), 505)?;
    let lp = link_prediction(&lp_model, &graph_task.graph, &graph_task.features, 400, 506)?;
    println!(
        "  link prediction AUC       : {:.2} ({} pairs)",
        lp.auc, lp.pairs
    );
    let gc_task = graph_classification_task(6, 507)?;
    let gc_model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gin, 8, 16, 4), 508)?;
    let acc = graph_classification_accuracy(&gc_model, &gc_task)?;
    println!(
        "  graph classification acc  : {acc:.2} ({} graphs)",
        gc_task.graphs.len()
    );

    // ---- the analog chain: fp64 → int8 → photonic -------------------
    println!("\nerror ladder (tiny transformer, seq 8):");
    let x = Prng::new(509).fill_normal(8, 32, 0.0, 1.0);
    let fp = transformer.forward(&x)?;
    let int8 = transformer.forward_with(&x, fq8)?;
    let mut sim = TronFunctional::new(&TronConfig::default(), 510)?;
    let analog = sim.forward(&transformer, &x)?;
    println!(
        "  fp64 → int8    : {:.4} relative error",
        stats::relative_error(&fp, &int8)
    );
    println!(
        "  fp64 → photonic: {:.4} relative error (σ/I = {:.1e})",
        stats::relative_error(&fp, &analog),
        sim.engine().relative_sigma()
    );
    let gnn = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 16, 32, 3), 511)?;
    let d = gnn.forward(&graph_task.graph, &graph_task.features)?;
    let mut gsim = GhostFunctional::new(&GhostConfig::default(), 512)?;
    let p = gsim.forward(&gnn, &graph_task.graph, &graph_task.features)?;
    println!(
        "  GCN digital vs photonic prediction agreement: {:.2}",
        stats::accuracy(&ops::argmax_rows(&p), &ops::argmax_rows(&d))
    );
    Ok(())
}
