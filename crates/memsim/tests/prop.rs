//! Property-based tests for the memory models.

use proptest::prelude::*;

use phox_memsim::dram::{HbmChannel, HbmStack};
use phox_memsim::sram::{Sram, SramConfig};

proptest! {
    #[test]
    fn sram_energy_monotone_in_capacity(
        cap_kib in 1usize..4096,
        factor in 2usize..8,
    ) {
        let small = Sram::new(SramConfig {
            capacity_bytes: cap_kib * 1024,
            word_bytes: 16,
            banks: 1,
        })
        .unwrap();
        let large = Sram::new(SramConfig {
            capacity_bytes: cap_kib * factor * 1024,
            word_bytes: 16,
            banks: 1,
        })
        .unwrap();
        prop_assert!(large.read_energy_j() > small.read_energy_j());
        prop_assert!(large.access_latency_s() > small.access_latency_s());
        prop_assert!(large.leakage_w() > small.leakage_w());
    }

    #[test]
    fn sram_streaming_energy_linear_in_bytes(
        bytes in 1usize..1_000_000,
    ) {
        let s = Sram::new(SramConfig::default()).unwrap();
        let one = s.read_bytes_energy_j(bytes);
        let two = s.read_bytes_energy_j(2 * bytes);
        // Within one word of rounding, doubling bytes doubles energy.
        prop_assert!((two / one - 2.0).abs() < 0.1, "ratio {}", two / one);
    }

    #[test]
    fn hbm_transfer_time_monotone(bytes in 1usize..100_000_000, extra in 1usize..1_000_000) {
        let c = HbmChannel::default();
        prop_assert!(c.transfer_time_s(bytes + extra) > c.transfer_time_s(bytes));
        prop_assert!(c.transfer_energy_j(bytes + extra) > c.transfer_energy_j(bytes));
    }

    #[test]
    fn stack_never_slower_than_single_channel(bytes in 1usize..100_000_000) {
        let stack = HbmStack::default();
        prop_assert!(stack.transfer_time_s(bytes) <= stack.channel.transfer_time_s(bytes));
    }
}
