//! Pins both graph generators to fixed output bits.
//!
//! GHOST's lane-balance estimate, the GNN workloads and the benchmark
//! golden digests all derive from these generators, so any change to
//! their sampling loops must reproduce these graphs exactly: same draws,
//! same comparisons, same edge order.

use phox_nn::datasets::{power_law, GraphShape};

/// Pinned `instantiate(nodes, edges, seed)` outputs.
const RMAT_CASES: [(usize, usize, u64, &str); 9] = [
    // GHOST's 2048-node balance samples: Cora's degree, fan-out 25
    // and fan-out 100.
    (2_048, 7_983, 0xB41A, "01c9f18779fd82c6"),
    (2_048, 51_200, 0xB41A, "086d104bc0f36d03"),
    (2_048, 204_800, 0xB41A, "1716bb2b93ee1059"),
    // Either side of the pair-set switch: a dense bitset up to 2048
    // nodes, the open-addressing table from 2049 on.
    (2_048, 16_384, 5, "bce93549ae6791aa"),
    (2_049, 16_384, 5, "aaf631be924f7e63"),
    (2_708, 5_429, 1, "462ee1e190ab075a"),
    (1_000, 30_000, 7, "5ebe97ba66ec406b"),
    // Dense enough that 539 edges come from the uniform fill.
    (37, 1_000, 3, "26038aa90acd9bd9"),
    // Stalls too, and its 50,050-attempt cap is not a whole number of
    // 16-attempt draw batches: the fill must start where the cap leaves
    // the generator.
    (37, 1_001, 3, "2daf833484bca381"),
];

fn shape(nodes: usize, edges: usize) -> GraphShape {
    GraphShape {
        name: "digest".into(),
        nodes,
        edges,
        features: 1,
        classes: 2,
    }
}

#[test]
fn rmat_graphs_keep_their_bits() {
    for (nodes, edges, seed, want) in RMAT_CASES {
        let graph = shape(nodes, edges).instantiate(seed).unwrap();
        assert_eq!(graph.num_edges(), edges);
        assert_eq!(
            phox_trace::digest_of(&graph),
            want,
            "instantiate({nodes}, {edges}, {seed:#x})"
        );
    }
}

#[test]
fn in_degrees_match_the_instantiated_graphs() {
    for (nodes, edges, seed, _) in RMAT_CASES {
        let shape = shape(nodes, edges);
        let graph = shape.instantiate(seed).unwrap();
        let want: Vec<usize> = (0..nodes).map(|v| graph.degree(v)).collect();
        assert_eq!(
            shape.in_degrees(seed).unwrap(),
            want,
            "in_degrees({nodes}, {edges}, {seed:#x})"
        );
    }
}

#[test]
fn power_law_graphs_keep_their_bits() {
    let cases: [(usize, usize, f64, u64, &str); 7] = [
        (2_000, 20_000, 2.2, 7, "1f4486c1f7b63cbd"),
        // Either side of the pair-set switch.
        (2_048, 20_000, 2.2, 11, "9109815a3c73d7ee"),
        (2_049, 20_000, 2.2, 11, "cc17ea34ab8ce581"),
        // Five times as many pick buckets, one of the `bench_snapshot
        // sparse` generation shapes.
        (10_000, 100_000, 2.2, 3, "94c525eb12fc9d58"),
        // 80 % of all pairs, still completed by the skewed sampler.
        (50, 2_000, 2.2, 9, "7f64b34135295816"),
        // Steeper skew: hub pairs saturate and the uniform fill supplies
        // 1158 of the edges.
        (50, 2_000, 1.5, 9, "4772eef7dcb2e8e2"),
        // Stalls too (842 edges kept when the cap is reached), and its
        // 100,050-attempt cap is not a whole number of 32-attempt draw
        // batches: the fill must start where the cap leaves the
        // generator.
        (50, 2_001, 1.5, 9, "3c9e2986cabc98ba"),
    ];
    for (nodes, edges, gamma, seed, want) in cases {
        let graph = power_law(nodes, edges, gamma, seed).unwrap();
        assert_eq!(graph.num_edges(), edges);
        assert_eq!(
            phox_trace::digest_of(&graph),
            want,
            "power_law({nodes}, {edges}, {gamma}, {seed})"
        );
    }
}
