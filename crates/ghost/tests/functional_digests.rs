//! Pins the output bits of the photonic functional datapath.
//!
//! Each case is the `phox_trace::digest_of` of one output at a fixed
//! seed: the analog engine's products, ideal, noisy and faulted, at
//! ragged shapes (partial tiles on both axes, a single row, a single
//! column); the Chrome export of one traced noisy product, which carries
//! each tile's read-out range; GHOST's optical aggregation for every
//! reduction, with and without the node itself, over a graph with
//! isolated nodes, at feature widths below, at and past the int8
//! kernels' SIMD blocks; a GHOST forward of every GNN family on every
//! constructor (provisioned, ideal, explicit noise, a fault plan, a fault
//! schedule before and after onset); GraphSAGE with max aggregation; and
//! the JSONL export of a traced GAT forward, whose tile spans carry each
//! product's `op_key` and so pin the order of the analog operations. The
//! phoxbench goldens pin one shape of each path; these pin the rest. The
//! digests are the same under either SIMD dispatch and for any thread
//! count.

use phox_ghost::{GhostConfig, GhostFunctional};
use phox_nn::datasets::sbm;
use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_photonics::analog::AnalogEngine;
use phox_photonics::fault::{DeviceFault, FaultImpact, FaultPlan, FaultSchedule, StuckWeight};
use phox_tensor::{Matrix, Prng};
use phox_trace::{digest_of, Trace};

/// `(m, k, n)`: partial tiles on both axes, exact tiles, one row, one
/// column.
const SHAPES: [(usize, usize, usize); 4] = [(41, 70, 37), (100, 32, 16), (1, 5, 40), (33, 8, 1)];

/// Feature widths: below one 8-column block, one block, two, four, and
/// four plus a five-column tail.
const WIDTHS: [usize; 5] = [5, 8, 16, 32, 37];

/// Asserts each `(case, digest)` pair, reporting every mismatch at once.
fn check(got: &[(String, String)], want: &[&str]) {
    assert_eq!(got.len(), want.len(), "case count");
    let bad: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((case, g), w)| format!("{case}: got {g}, want {w}"))
        .collect();
    assert!(bad.is_empty(), "digests moved:\n{}", bad.join("\n"));
}

fn operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let mut rng = Prng::new((m * 1_000_000 + k * 1_000 + n) as u64);
    (
        rng.fill_normal(m, k, 0.0, 1.0),
        rng.fill_normal(k, n, 0.0, 1.0),
    )
}

/// Stuck cells, two dead lanes and a drift gain on an 8-row, 4-channel
/// array, so every fault repeats across the wider products.
fn faults() -> FaultImpact {
    FaultImpact {
        sigma_scale: 1.5,
        weight_gain: 0.97,
        compensation_power_w: 0.0,
        dead_lanes: vec![1, 5],
        stuck: vec![
            StuckWeight {
                row: 0,
                channel: 2,
                transmission: 0.4,
            },
            StuckWeight {
                row: 3,
                channel: 0,
                transmission: 0.9,
            },
        ],
    }
}

fn noisy(seed: u64) -> AnalogEngine {
    AnalogEngine::new(5e-3, 8, 8, seed).unwrap()
}

#[test]
fn analog_products_keep_their_bits() {
    let mut got = Vec::new();
    for (m, k, n) in SHAPES {
        let (a, b) = operands(m, k, n);
        let shape = format!("{m}x{k}x{n}");
        let ideal = AnalogEngine::ideal(8, 8, 5).matmul(&a, &b).unwrap();
        got.push((format!("ideal {shape}"), digest_of(&ideal)));
        // Two products per engine: the second draws from the next
        // operation's streams.
        let mut eng = noisy(6);
        for call in 0..2 {
            let y = eng.matmul(&a, &b).unwrap();
            got.push((format!("noisy {shape} call {call}"), digest_of(&y)));
        }
        let mut faulted = noisy(7);
        faulted.set_fault_impact(&faults(), 8, 4).unwrap();
        let y = faulted.matmul(&a, &b).unwrap();
        got.push((format!("faulted {shape}"), digest_of(&y)));
    }
    check(
        &got,
        &[
            "9139f52207c3640e", // ideal 41x70x37
            "1dedb73c67440992", // noisy 41x70x37 call 0
            "4412a35b037be644", // noisy 41x70x37 call 1
            "f7793d257ca7d427", // faulted 41x70x37
            "76c19d51b6c52082", // ideal 100x32x16
            "fccb514402997ace", // noisy 100x32x16 call 0
            "81c20c74b04630c7", // noisy 100x32x16 call 1
            "91910463c3799ff0", // faulted 100x32x16
            "117ba05eccf4e274", // ideal 1x5x40
            "625f1ffaf1df7918", // noisy 1x5x40 call 0
            "cfb6579d776f2470", // noisy 1x5x40 call 1
            "e2e287da087b4a89", // faulted 1x5x40
            "9ee8c6e5f804fc09", // ideal 33x8x1
            "90c187613d48f892", // noisy 33x8x1 call 0
            "250334afe4151202", // noisy 33x8x1 call 1
            "5cab228e061c4e07", // faulted 33x8x1
        ],
    );
}

#[test]
fn traced_product_exports_its_tile_ranges() {
    let (a, b) = operands(41, 70, 37);
    let mut got = Vec::new();
    for faulted in [false, true] {
        let mut eng = noisy(8);
        if faulted {
            eng.set_fault_impact(&faults(), 8, 4).unwrap();
        }
        let trace = Trace::new();
        phox_trace::with_installed(trace.clone(), || eng.matmul(&a, &b).unwrap());
        got.push((
            format!("chrome faulted={faulted}"),
            digest_of(&trace.export_chrome()),
        ));
    }
    check(
        &got,
        &[
            "5459744db872c248", // chrome faulted=false
            "e7784db77122e949", // chrome faulted=true
        ],
    );
}

/// 150 nodes in three row tiles: a hub, a ring with chords, and the last
/// five nodes isolated.
fn graph_with_isolated_nodes() -> CsrGraph {
    let mut rng = Prng::new(11);
    let mut edges = Vec::new();
    for v in 0..145u32 {
        edges.push((v, (v + 1) % 145));
        edges.push((v, 0));
        for _ in 0..(rng.next_u64() % 6) {
            edges.push(((rng.next_u64() % 145) as u32, v));
        }
    }
    CsrGraph::from_edges(150, &edges).unwrap()
}

#[test]
fn optical_aggregation_keeps_its_bits() {
    let g = graph_with_isolated_nodes();
    let mut got = Vec::new();
    for f in WIDTHS {
        let h = Prng::new(12 + f as u64).fill_normal(g.num_nodes(), f, 0.0, 1.0);
        for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max] {
            for include_self in [false, true] {
                let mut sim = GhostFunctional::new(&GhostConfig::default(), 13).unwrap();
                let y = sim.optical_aggregate(&g, &h, agg, include_self).unwrap();
                got.push((format!("f={f} {agg:?} self={include_self}"), digest_of(&y)));
            }
        }
    }
    check(
        &got,
        &[
            "d9fadfb54b2b220c", // f=5 Sum self=false
            "b33e9f090bdaf8f6", // f=5 Sum self=true
            "613c391a330ab7a0", // f=5 Mean self=false
            "7c777702b6951ca4", // f=5 Mean self=true
            "80a49bb92baac291", // f=5 Max self=false
            "2357cb9fe934a146", // f=5 Max self=true
            "936e1659ff762b4f", // f=8 Sum self=false
            "49b590f4756d7630", // f=8 Sum self=true
            "0f85308aaccae413", // f=8 Mean self=false
            "ca7f446a0b4e654b", // f=8 Mean self=true
            "41d873dbb935a5fa", // f=8 Max self=false
            "346ef2a23eb04bfa", // f=8 Max self=true
            "6d7da1547305554b", // f=16 Sum self=false
            "13ca6474224b4289", // f=16 Sum self=true
            "de4ca9f730260249", // f=16 Mean self=false
            "5237d2f4039ac7d5", // f=16 Mean self=true
            "9aca078bd46ea8ee", // f=16 Max self=false
            "31fc5844e8755fa8", // f=16 Max self=true
            "c089d0e7b70b8948", // f=32 Sum self=false
            "4cd609398feef202", // f=32 Sum self=true
            "14d9bdc7be862430", // f=32 Mean self=false
            "d8ec329168006293", // f=32 Mean self=true
            "a9ae988d83f22194", // f=32 Max self=false
            "f761e35a2f4bc9e3", // f=32 Max self=true
            "4d11d0173a67196e", // f=37 Sum self=false
            "23d4f398ccac9590", // f=37 Sum self=true
            "9f5f22a93f879cd8", // f=37 Mean self=false
            "c2b1d4d949c177cd", // f=37 Mean self=true
            "9750acfff64ad34a", // f=37 Max self=false
            "711ceacd34be1248", // f=37 Max self=true
        ],
    );
}

#[test]
fn ghost_forwards_keep_their_bits() {
    let task = sbm(3, 8, 12, 0.5, 0.05, 71).unwrap();
    let mut got = Vec::new();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 72).unwrap();
        let mut sim = GhostFunctional::new(&GhostConfig::default(), 73).unwrap();
        let y = sim.forward(&model, &task.graph, &task.features).unwrap();
        got.push((format!("{kind}"), digest_of(&y)));
    }
    check(
        &got,
        &[
            "fa78b5f8324e3236", // GCN
            "3798885874cf8bea", // GraphSAGE
            "67c67aa0654e2421", // GIN
            "36545fe01b244ef4", // GAT
        ],
    );
}

const FAMILIES: [GnnKind; 4] = [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat];

#[test]
fn ghost_forwards_on_every_constructor_keep_their_bits() {
    let cfg = GhostConfig::default();
    let task = sbm(3, 8, 12, 0.5, 0.05, 71).unwrap();
    // Column 3 / channel 5 and lane 7 lie inside the 12 -> 16 layer.
    let plan = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .stuck_mr(3, 5, 0.25)
        .and_then(|p| p.dead_adc_lane(7))
        .and_then(|p| p.laser_droop(3.0))
        .unwrap();
    let schedule = FaultSchedule::new(cfg.array_rows, cfg.array_channels)
        .schedule(1.0, f64::INFINITY, DeviceFault::DeadAdcLane { lane: 2 })
        .unwrap();
    let (g, x) = (&task.graph, &task.features);
    let mut got = Vec::new();
    for kind in FAMILIES {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 72).unwrap();
        let y = GhostFunctional::ideal(&cfg, 74).forward(&model, g, x);
        got.push((format!("ideal {kind}"), digest_of(&y.unwrap())));
        let y = GhostFunctional::with_noise(&cfg, 1e-2, 75)
            .unwrap()
            .forward(&model, g, x);
        got.push((format!("with_noise(1e-2) {kind}"), digest_of(&y.unwrap())));
        let y = GhostFunctional::with_faults(&cfg, plan.clone(), 76)
            .unwrap()
            .forward(&model, g, x);
        got.push((format!("with_faults {kind}"), digest_of(&y.unwrap())));
        let mut sim = GhostFunctional::with_fault_schedule(&cfg, schedule.clone(), 77).unwrap();
        for t in [0.5, 1.5] {
            sim.advance_to(t).unwrap();
            let y = sim.forward(&model, g, x).unwrap();
            got.push((format!("schedule t={t} {kind}"), digest_of(&y)));
        }
    }
    let sage_max = GnnConfig {
        aggregation: Aggregation::Max,
        ..GnnConfig::two_layer(GnnKind::GraphSage, 12, 16, 3)
    };
    let model = GnnModel::random(sage_max, 78).unwrap();
    let y = GhostFunctional::new(&cfg, 79)
        .unwrap()
        .forward(&model, g, x);
    got.push(("new GraphSAGE-max".to_owned(), digest_of(&y.unwrap())));
    let y = GhostFunctional::ideal(&cfg, 79).forward(&model, g, x);
    got.push(("ideal GraphSAGE-max".to_owned(), digest_of(&y.unwrap())));
    check(
        &got,
        &[
            "99d7cea444f3160a", // ideal GCN
            "7f06d4eef6fb6326", // with_noise(1e-2) GCN
            "cb9b86c9896df1e2", // with_faults GCN
            "7f0e12dd89048d15", // schedule t=0.5 GCN
            "5b09f11a6ef29d53", // schedule t=1.5 GCN
            "c0068289f451609a", // ideal GraphSAGE
            "37ec87c43377f3a6", // with_noise(1e-2) GraphSAGE
            "06be3d98c6f00637", // with_faults GraphSAGE
            "ffcda96456f71de4", // schedule t=0.5 GraphSAGE
            "9abbc6b1aa252947", // schedule t=1.5 GraphSAGE
            "b33b649330e3f3e7", // ideal GIN
            "76e4ea0e5ed08a9c", // with_noise(1e-2) GIN
            "fe3ee6cde27b43a3", // with_faults GIN
            "63f78ac728b6f49a", // schedule t=0.5 GIN
            "c8971b70ecb02277", // schedule t=1.5 GIN
            "6d3b2ff67168eee1", // ideal GAT
            "97fc4245556537b0", // with_noise(1e-2) GAT
            "68ce815d798f26c6", // with_faults GAT
            "807363930a7c88d2", // schedule t=0.5 GAT
            "b8ef879701f14d8e", // schedule t=1.5 GAT
            "c5e4f996ecc0f7dc", // new GraphSAGE-max
            "b52e96ca88fecc09", // ideal GraphSAGE-max
        ],
    );
}

#[test]
fn traced_gat_forward_exports_its_op_order() {
    let task = sbm(3, 8, 12, 0.5, 0.05, 71).unwrap();
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gat, 12, 16, 3), 80).unwrap();
    let trace = Trace::new();
    phox_trace::with_installed(trace.clone(), || {
        let mut sim = GhostFunctional::new(&GhostConfig::default(), 81).unwrap();
        sim.forward(&model, &task.graph, &task.features).unwrap()
    });
    check(
        &[("jsonl".to_owned(), digest_of(&trace.export_jsonl()))],
        &[
            "32df039b169bd944", // jsonl
        ],
    );
}
