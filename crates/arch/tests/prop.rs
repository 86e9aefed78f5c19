//! Property-based tests for the architecture framework.

use proptest::prelude::*;

use phox_arch::metrics::{EnergyLedger, PerfReport};
use phox_arch::schedule::{
    balance_makespan, overlap_time_s, round_robin_makespan, serial_time_s, Tiling,
};

proptest! {
    #[test]
    fn tiling_utilization_in_unit_interval(
        m in 1usize..200,
        k in 1usize..200,
        n in 1usize..50,
        rows in 1usize..64,
        ch in 1usize..64,
    ) {
        let t = Tiling::new(m, k, n, rows, ch).unwrap();
        let u = t.utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12, "u = {}", u);
        // Provisioned MACs cover the useful ones.
        prop_assert!(t.total_tiles() * t.macs_per_tile() >= (m * k * n) as u64);
    }

    #[test]
    fn overlap_bounded_by_serial_and_max(a in 1e-9f64..1e-2, b in 1e-9f64..1e-2) {
        let o = overlap_time_s(a, b);
        prop_assert!(o >= a.max(b));
        prop_assert!(o <= serial_time_s(a, b));
    }

    #[test]
    fn lpt_never_worse_than_round_robin(
        weights in proptest::collection::vec(0.1f64..100.0, 1..64),
        lanes in 1usize..16,
    ) {
        let lpt = balance_makespan(&weights, lanes).unwrap();
        let rr = round_robin_makespan(&weights, lanes).unwrap();
        prop_assert!(lpt <= rr + 1e-9, "lpt {} rr {}", lpt, rr);
        prop_assert!(lpt >= 1.0 - 1e-9);
    }

    #[test]
    fn makespan_at_most_lane_count(
        weights in proptest::collection::vec(0.1f64..100.0, 1..64),
        lanes in 1usize..16,
    ) {
        // A single item can at worst occupy one lane: makespan ≤ lanes
        // (relative to the ideal split).
        let lpt = balance_makespan(&weights, lanes).unwrap();
        prop_assert!(lpt <= (lanes as f64) + 1e-9);
    }

    #[test]
    fn perf_report_identities(
        ops in 1u64..1_000_000_000,
        lat in 1e-9f64..1.0,
        energy in 1e-12f64..10.0,
    ) {
        let bits = ops * 8;
        let r = PerfReport::new(ops, bits, lat, energy).unwrap();
        prop_assert!((r.gops() * 1e9 * lat - ops as f64).abs() / (ops as f64) < 1e-9);
        prop_assert!((r.epb_j() * (bits as f64) - energy).abs() / energy < 1e-9);
        prop_assert!((r.power_w() * lat - energy).abs() / energy < 1e-9);
        // Self-comparison is identity.
        prop_assert!((r.speedup_over(&r) - 1.0).abs() < 1e-12);
        prop_assert!((r.efficiency_over(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_ledger_scale_combines_linearly(
        laser in 0.0f64..1.0,
        dac in 0.0f64..1.0,
        k in 0.0f64..10.0,
    ) {
        let e = EnergyLedger {
            laser_j: laser,
            dac_j: dac,
            ..EnergyLedger::default()
        };
        prop_assert!((e.scale(k).total_j() - e.total_j() * k).abs() < 1e-9);
        prop_assert!((e.combine(&e).total_j() - 2.0 * e.total_j()).abs() < 1e-12);
    }
}

/// The linear-scan LPT that `balance_makespan` ran before its heap: each
/// item, heaviest first, onto the first lane of least load.
fn scan_lpt(weights: &[f64], lanes: usize) -> f64 {
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return 1.0;
    }
    let ideal = total / lanes as f64;
    let mut sorted = weights.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut loads = vec![0.0f64; lanes];
    for w in sorted {
        let min_lane = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        loads[min_lane] += w;
    }
    loads.iter().copied().fold(0.0, f64::max) / ideal
}

/// Weights of one of three kinds: small integers (many ties, some
/// zeros), fractional values, or a mix of both with signed zeros.
fn lpt_weights() -> impl Strategy<Value = Vec<f64>> {
    (
        0u8..3,
        proptest::collection::vec((0u32..6, 0.0f64..100.0), 1..80),
    )
        .prop_map(|(kind, raw)| {
            raw.into_iter()
                .map(|(k, frac)| match (kind, k) {
                    (0, _) => f64::from(k),
                    (1, _) => frac,
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    (_, 2 | 3) => f64::from(k),
                    _ => frac,
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn heap_lpt_matches_the_linear_scan_bit_for_bit(
        weights in lpt_weights(),
        lanes in 1usize..100,
    ) {
        // Lane counts run from 1 to past the item count (at most 79).
        let heap = balance_makespan(&weights, lanes).unwrap();
        let scan = scan_lpt(&weights, lanes);
        prop_assert_eq!(heap.to_bits(), scan.to_bits(), "weights {:?} lanes {}", weights, lanes);
    }
}
