//! Property-based tests for the photonic device models.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;

use phox_photonics::analog::AnalogEngine;
use phox_photonics::constants;
use phox_photonics::crosstalk::{HeterodyneAnalysis, HomodyneAnalysis};
use phox_photonics::mr::MrConfig;
use phox_photonics::noise::{enob, NoiseBudget};
use phox_photonics::tuning::{HybridTuning, ThermalField};
use phox_tensor::parallel;

fn mr_with_q(q: f64) -> MrConfig {
    MrConfig {
        q_factor: q,
        ..MrConfig::default()
    }
    .validated()
    .expect("valid config")
}

proptest! {
    #[test]
    fn transmission_always_in_unit_interval(
        q in 1_000.0f64..50_000.0,
        det in -20.0f64..20.0,
    ) {
        let mr = mr_with_q(q);
        let t = mr.through_transmission(1550.0 + det, 1550.0);
        prop_assert!((0.0..=1.0).contains(&t), "t = {}", t);
        let d = mr.drop_transmission(1550.0 + det, 1550.0);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn imprint_roundtrip_within_tolerance(
        q in 5_000.0f64..40_000.0,
        target in 0.02f64..0.99,
    ) {
        let mr = mr_with_q(q);
        if let Ok(detuning) = mr.detuning_for_target(target) {
            let back = mr.transmission_at_detuning(detuning);
            prop_assert!((back - target).abs() < 1e-6, "target {} got {}", target, back);
        }
    }

    #[test]
    fn detuning_monotone_in_target(q in 5_000.0f64..40_000.0) {
        let mr = mr_with_q(q);
        let mut last = -1.0;
        for i in 1..=20 {
            let t = 0.02 + (0.97 - 0.02) * i as f64 / 20.0;
            if let Ok(d) = mr.detuning_for_target(t) {
                prop_assert!(d >= last);
                last = d;
            }
        }
    }

    #[test]
    fn heterodyne_crosstalk_monotone_in_spacing(
        q in 5_000.0f64..40_000.0,
        s1 in 0.3f64..1.5,
        delta in 0.1f64..1.5,
    ) {
        let mr = mr_with_q(q);
        let narrow = HeterodyneAnalysis::new(&mr, 4, s1);
        let wide = HeterodyneAnalysis::new(&mr, 4, s1 + delta);
        if let (Ok(n), Ok(w)) = (narrow, wide) {
            prop_assert!(w.worst_case() <= n.worst_case() + 1e-15);
        }
    }

    #[test]
    fn heterodyne_crosstalk_monotone_in_channels(q in 5_000.0f64..40_000.0) {
        let mr = mr_with_q(q);
        let mut last = 0.0;
        for n in 1..=6 {
            if let Ok(a) = HeterodyneAnalysis::new(&mr, n, 1.5) {
                let x = a.worst_case();
                prop_assert!(x >= last - 1e-15);
                last = x;
            }
        }
    }

    #[test]
    fn homodyne_error_monotone_in_branches_and_leakage(
        leak in 1e-9f64..1e-3,
        branches in 1usize..64,
    ) {
        let a = HomodyneAnalysis::new(branches, leak).unwrap();
        let b = HomodyneAnalysis::new(branches + 1, leak).unwrap();
        prop_assert!(b.worst_case_amplitude_error() >= a.worst_case_amplitude_error());
        let c = HomodyneAnalysis::new(branches, leak * 2.0).unwrap();
        prop_assert!(c.worst_case_amplitude_error() >= a.worst_case_amplitude_error());
    }

    #[test]
    fn dbm_watt_roundtrip(dbm in -60.0f64..30.0) {
        let w = constants::dbm_to_watts(dbm);
        prop_assert!((constants::watts_to_dbm(w) - dbm).abs() < 1e-9);
    }

    #[test]
    fn enob_monotone_in_snr(snr in 0.0f64..80.0, extra in 0.1f64..20.0) {
        prop_assert!(enob(snr + extra) > enob(snr));
    }

    #[test]
    fn noise_report_enob_monotone_in_power(p1 in 2e-5f64..1e-3, k in 1.1f64..10.0) {
        let nb = NoiseBudget::default();
        let lo = nb.evaluate(p1).unwrap();
        let hi = nb.evaluate(p1 * k).unwrap();
        prop_assert!(hi.enob >= lo.enob);
        prop_assert!(hi.relative_sigma <= lo.relative_sigma);
    }

    #[test]
    fn hybrid_tuning_never_exceeds_to_only_power(shift in 0.01f64..4.0) {
        let t = HybridTuning::default();
        let hybrid = t.tune(shift).unwrap();
        let to_only = t.tune_to_only(shift).unwrap();
        prop_assert!(hybrid.power_w <= to_only.power_w + 1e-15);
        prop_assert!(hybrid.latency_s <= to_only.latency_s + 1e-15);
    }

    #[test]
    fn ted_always_saves_or_matches_naive(
        n in 2usize..12,
        pitch in 4.0f64..30.0,
        decay in 2.0f64..20.0,
        base in 0.1f64..1.0,
    ) {
        let field = ThermalField::new(n, pitch, decay).unwrap();
        let targets: Vec<f64> = (0..n).map(|i| base + 0.01 * i as f64).collect();
        let saving = field.ted_saving(&targets).unwrap();
        prop_assert!(saving >= 0.99, "saving {}", saving);
    }

    #[test]
    fn analog_matmul_error_bounded(seed in any::<u64>(), sigma in 0.0f64..5e-3) {
        let mut eng = AnalogEngine::new(sigma, 8, 8, seed).unwrap();
        let mut rng = phox_tensor::Prng::new(seed ^ 0xABCD);
        let a = rng.fill_normal(4, 8, 0.0, 1.0);
        let b = rng.fill_normal(8, 4, 0.0, 1.0);
        let exact = a.matmul(&b).unwrap();
        let analog = eng.matmul(&a, &b).unwrap();
        let err = phox_tensor::stats::relative_error(&exact, &analog);
        // Quantization (~1-2%) plus a generous noise allowance.
        prop_assert!(err < 0.05 + sigma * 40.0, "err {}", err);
    }

    #[test]
    fn analog_matmul_output_finite(seed in any::<u64>()) {
        let mut eng = AnalogEngine::new(1e-2, 8, 8, seed).unwrap();
        let mut rng = phox_tensor::Prng::new(seed);
        let a = rng.fill_normal(3, 5, 0.0, 2.0);
        let b = rng.fill_normal(5, 3, 0.0, 2.0);
        let y = eng.matmul(&a, &b).unwrap();
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn analog_matmul_bit_identical_across_thread_counts(
        seed in any::<u64>(),
        sigma in 0.0f64..5e-3,
        (m, k, n) in (1usize..=24, 1usize..=24, 1usize..=24),
    ) {
        let mut rng = phox_tensor::Prng::new(seed ^ 0x51C0_11D5);
        let a = rng.fill_normal(m, k, 0.0, 1.0);
        let b = rng.fill_normal(k, n, 0.0, 1.0);
        let serial = parallel::with_threads(1, || {
            let mut eng = AnalogEngine::new(sigma, 8, 8, seed).unwrap();
            eng.matmul(&a, &b).unwrap()
        });
        for threads in [2usize, 8] {
            let par = parallel::with_threads(threads, || {
                let mut eng = AnalogEngine::new(sigma, 8, 8, seed).unwrap();
                eng.matmul(&a, &b).unwrap()
            });
            // Noise streams are keyed on (seed, op, tile), never on thread
            // identity, so the outputs are bit-identical.
            prop_assert_eq!(par.as_slice(), serial.as_slice(), "threads = {}", threads);
        }
    }

    #[test]
    fn fsr_shrinks_with_radius(r1 in 2.0f64..6.0, extra in 0.5f64..6.0) {
        let small = MrConfig { radius_um: r1, ..MrConfig::default() };
        let large = MrConfig { radius_um: r1 + extra, ..MrConfig::default() };
        prop_assert!(small.fsr_nm() > large.fsr_nm());
    }
}

proptest! {
    #[test]
    fn bank_imprint_realizes_targets_within_grid(
        targets in proptest::collection::vec(0.02f64..0.98, 4),
    ) {
        use phox_photonics::bank::MrBank;
        use phox_photonics::converter::Dac;
        let bank = MrBank::new(
            MrConfig::default(),
            HybridTuning::default(),
            targets.len(),
        )
        .unwrap();
        let (realized, cost) = bank.imprint(&targets, &Dac::default()).unwrap();
        for (r, t) in realized.iter().zip(&targets) {
            // 8-bit DAC grid over [T_min, 1]: error below one step.
            prop_assert!((r - t).abs() < 1.0 / 255.0 + 1e-9, "{} vs {}", r, t);
        }
        prop_assert_eq!(cost.eo_tunings + cost.to_tunings, targets.len());
        prop_assert!(cost.settle_latency_s > 0.0);
    }

    #[test]
    fn mzi_mesh_scaling_laws(n in 2usize..64) {
        use phox_photonics::coherent::{Mzi, MziMesh};
        let mesh = MziMesh::new(n, Mzi::default()).unwrap();
        prop_assert_eq!(mesh.mzi_count(), n * (n - 1) / 2);
        prop_assert!(mesh.path_loss_db() >= 0.0);
        // Error bound grows monotonically with depth.
        if n > 2 {
            let smaller = MziMesh::new(n - 1, Mzi::default()).unwrap();
            prop_assert!(mesh.phase_error_bound() >= smaller.phase_error_bound());
        }
    }
}
