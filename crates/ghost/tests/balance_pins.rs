//! Pins GHOST's lane-balance estimate to fixed bits.
//!
//! `balance_factor` samples a 2048-node R-MAT graph and runs LPT over its
//! degrees; both the sampler and the scheduler claim bit-identity with
//! their earlier implementations, so the factors the figures use must
//! not move by a single ulp.

use phox_ghost::{GhostAccelerator, GhostConfig, GnnWorkload, Optimizations};
use phox_nn::datasets::GraphShape;
use phox_nn::gnn::{GnnConfig, GnnKind};

fn reddit_sage(fanout: usize) -> GnnWorkload {
    GnnWorkload::sampled(
        GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
        GraphShape::reddit(),
        fanout,
    )
}

#[test]
fn balance_factors_keep_their_bits() {
    let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
    // The GHOST figure workloads (`phox_bench::ghost_workloads`), then
    // Reddit at every fan-out of the sensitivity sweep.
    let cases: [(GnnWorkload, u64); 8] = [
        (
            GnnWorkload::new(
                GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
                GraphShape::cora(),
            ),
            0x3ffa_5669_e963_7474,
        ),
        (
            GnnWorkload::new(
                GnnConfig::two_layer(GnnKind::Gin, 3703, 16, 6),
                GraphShape::citeseer(),
            ),
            0x3ffa_e5e7_a500_66c6,
        ),
        (
            GnnWorkload::new(
                GnnConfig::two_layer(GnnKind::Gat, 500, 16, 3),
                GraphShape::pubmed(),
            ),
            0x3ffa_0552_8b10_cf13,
        ),
        (reddit_sage(5), 0x3ff9_eaaa_aaaa_aaab),
        (reddit_sage(10), 0x3ff6_745d_1745_d174),
        (reddit_sage(25), 0x3ff0_0000_0000_0000),
        (reddit_sage(50), 0x3ff0_0000_0000_0000),
        (reddit_sage(100), 0x3ff0_0000_0000_0000),
    ];
    for (workload, want) in cases {
        let got = ghost.balance_factor(&workload).unwrap();
        assert_eq!(
            got.to_bits(),
            want,
            "{} on {} (fan-out {:?}): got {got}",
            workload.model.kind,
            workload.shape.name,
            workload.neighbor_sample
        );
    }
}

#[test]
fn round_robin_factor_keeps_its_bits() {
    // LPT levels the large fan-outs' samples to a factor of exactly 1.0;
    // round-robin lanes keep the heaviest sample's degree skew in it.
    let ghost = GhostAccelerator::new(GhostConfig {
        optimizations: Optimizations {
            balancing: false,
            ..Optimizations::default()
        },
        ..GhostConfig::default()
    })
    .unwrap();
    let got = ghost.balance_factor(&reddit_sage(100)).unwrap();
    assert_eq!(got.to_bits(), 0x3ff8_d9fa_ee41_e6a7, "got {got}");
}
