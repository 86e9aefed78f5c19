//! Pins both graph generators to fixed output bits.
//!
//! GHOST's lane-balance estimate, the GNN workloads and the benchmark
//! golden digests all derive from these generators, so any change to
//! their sampling loops must reproduce these graphs exactly: same draws,
//! same comparisons, same edge order.

use phox_nn::datasets::{power_law, GraphShape};

fn rmat_digest(nodes: usize, edges: usize, seed: u64) -> String {
    let shape = GraphShape {
        name: "digest".into(),
        nodes,
        edges,
        features: 1,
        classes: 2,
    };
    let graph = shape.instantiate(seed).unwrap();
    assert_eq!(graph.num_edges(), edges);
    phox_trace::digest_of(&graph)
}

#[test]
fn rmat_graphs_keep_their_bits() {
    let cases: [(usize, usize, u64, &str); 6] = [
        // GHOST's 2048-node balance samples: Cora's degree, fan-out 25
        // and fan-out 100.
        (2_048, 7_983, 0xB41A, "01c9f18779fd82c6"),
        (2_048, 51_200, 0xB41A, "086d104bc0f36d03"),
        (2_048, 204_800, 0xB41A, "1716bb2b93ee1059"),
        (2_708, 5_429, 1, "462ee1e190ab075a"),
        (1_000, 30_000, 7, "5ebe97ba66ec406b"),
        // Dense enough that 539 edges come from the uniform fill.
        (37, 1_000, 3, "26038aa90acd9bd9"),
    ];
    for (nodes, edges, seed, want) in cases {
        assert_eq!(
            rmat_digest(nodes, edges, seed),
            want,
            "instantiate({nodes}, {edges}, {seed:#x})"
        );
    }
}

#[test]
fn power_law_graphs_keep_their_bits() {
    let cases: [(usize, usize, f64, u64, &str); 3] = [
        (2_000, 20_000, 2.2, 7, "1f4486c1f7b63cbd"),
        // 80 % of all pairs, still completed by the skewed sampler.
        (50, 2_000, 2.2, 9, "7f64b34135295816"),
        // Steeper skew: hub pairs saturate and the uniform fill supplies
        // 1158 of the edges.
        (50, 2_000, 1.5, 9, "4772eef7dcb2e8e2"),
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
