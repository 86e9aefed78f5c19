//! `gnn_powerlaw`: a 2-layer GCN (32 → 16 → 4) over a Chung–Lu
//! power-law graph with 100k nodes and 1M edges, on the f64 path, the
//! int8 path and the noisy GHOST functional simulator.
//!
//! The only workload where sparse aggregation and analog aggregation do
//! the work; the feature matrices are far larger than L2, and graph
//! generation dominates set-up. The timed rounds run on one thread, where
//! the degree-bucket hub schedule leaves wall time unchanged, so this
//! workload does not time it.

use phox_core::ghost::{GhostConfig, GhostFunctional};
use phox_core::nn::datasets::power_law;
use phox_core::nn::gnn::{GnnConfig, GnnKind, GnnModel};
use phox_core::tensor::{split_seed, stats, Matrix, Prng};
use phox_core::trace::digest_of;

use crate::harness::{err, spanned, Ctx, Leg, Output};
use crate::replay;

const NODES: usize = 100_000;
const EDGES: usize = 1_000_000;
const GAMMA: f64 = 2.2;
const FEATURES: usize = 32;
const HIDDEN: usize = 16;
const CLASSES: usize = 4;

/// Tolerances of the existing suites: int8 vs f64 GNN (`int8_forward`)
/// and analog vs digital (`end_to_end_ghost`).
const INT8_REL_ERR: f64 = 0.3;
const ANALOG_REL_ERR: f64 = 0.4;

fn gcn() -> GnnConfig {
    GnnConfig::two_layer(GnnKind::Gcn, FEATURES, HIDDEN, CLASSES)
}

/// The digest and seeds the run envelope records.
pub fn manifest(seed: u64) -> (String, Vec<u64>) {
    (
        digest_of(&(gcn(), NODES, EDGES, GAMMA)),
        (1..=4).map(|s| split_seed(seed, s)).collect(),
    )
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let mut build = || {
        let graph = spanned("nn", "power_law", || {
            power_law(NODES, EDGES, GAMMA, split_seed(seed, 1))
        })
        .map_err(err)?;
        let features = Prng::new(split_seed(seed, 2)).fill_normal(NODES, FEATURES, 0.0, 1.0);
        let model = spanned("nn", "build", || {
            GnnModel::random(gcn(), split_seed(seed, 3))
        })
        .map_err(err)?;
        let ghost =
            GhostFunctional::new(&GhostConfig::default(), split_seed(seed, 4)).map_err(err)?;
        Ok((graph, features, model, ghost))
    };
    let (graph, features, model, ghost) = ctx.setup(&mut build)?;
    ctx.gate.check(
        "power-law graph has the requested size",
        graph.num_nodes() == NODES && graph.num_edges() == EDGES,
    );
    // Work unit: one edge aggregated in one layer.
    let edge_layers = (graph.num_edges() * model.config().layers()) as f64;
    let mut legs = vec![
        Leg {
            name: "gcn_f64",
            alias: "gcn_medges_s",
            alias_unit: "Medges/s",
            alias_scale: 1e-6,
            items: edge_layers,
            run: Box::new(|| {
                spanned("nn", "gnn_forward", || model.forward(&graph, &features))
                    .map(Output::Matrix)
                    .map_err(err)
            }),
        },
        Leg {
            name: "gcn_int8",
            alias: "gcn_int8_medges_s",
            alias_unit: "Medges/s",
            alias_scale: 1e-6,
            items: edge_layers,
            run: Box::new(|| {
                spanned("nn", "gnn_forward_int8", || {
                    model.forward_int8(&graph, &features)
                })
                .map(Output::Matrix)
                .map_err(err)
            }),
        },
        Leg {
            name: "ghost_functional",
            alias: "ghost_medges_s",
            alias_unit: "Medges/s",
            alias_scale: 1e-6,
            items: edge_layers,
            // A fresh copy per pass, so every pass draws the same noise.
            run: Box::new(|| {
                let mut sim = ghost.clone();
                spanned("ghost", "functional_fwd", || {
                    sim.forward(&model, &graph, &features)
                })
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
        let shaped = [fp, int8, analog]
            .iter()
            .all(|m| m.shape() == (NODES, CLASSES) && m.as_slice().iter().all(|v| v.is_finite()));
        ctx.gate
            .check("GCN outputs are finite and shaped nodes x classes", shaped);
        let e8 = stats::relative_error(fp, int8);
        let ea = stats::relative_error(fp, analog);
        ctx.lines.push(format!(
            "oracle: int8 vs f64 relative error {e8:.4} (< {INT8_REL_ERR}), \
             GHOST vs f64 {ea:.4} (< {ANALOG_REL_ERR})"
        ));
        ctx.gate.check("int8 GCN tracks f64", e8 < INT8_REL_ERR);
        ctx.gate
            .check("GHOST functional GCN tracks f64", ea < ANALOG_REL_ERR);
    }
    for (key, digest) in ["gcn_f64", "gcn_int8", "ghost_forward"].iter().zip(&refs) {
        ctx.pin(&format!("gnn_powerlaw.{key}"), false, digest.unwrap_or(0));
    }
    ctx.measure(&mut legs, &refs, &mut || build().map(drop));
    ctx.forwards_per_round = 3.0;
    if ctx.traced {
        replay::dense(ctx, Some(ghost.engine()));
        let calls = ctx.counter("sparse.aggregate_calls") + ctx.counter("sparse.spmm_calls");
        let gb_s = replay::spmm(&graph.csr_view(), &[FEATURES, HIDDEN], calls as usize);
        ctx.layer.insert("sparse.gb_s".to_owned(), gb_s);
    }
    Ok(())
}
