//! Cross-crate photonics integration: the device stack must compose —
//! design-space points must actually be realisable by the bank/link/noise
//! models they were validated against.

use phox::photonics::bank::MrBankArray;
use phox::photonics::converter::{Adc, Dac};
use phox::photonics::crosstalk::HeterodyneAnalysis;
use phox::photonics::design_space::{sweep, SweepConfig};
use phox::photonics::link::{Laser, WdmLink};
use phox::photonics::noise::NoiseBudget;
use phox::photonics::tuning::HybridTuning;
use phox::prelude::*;

#[test]
fn every_feasible_design_point_is_realisable() {
    let outcome = sweep(&SweepConfig::default()).unwrap();
    for p in outcome.feasible.iter().take(20) {
        // The crosstalk analysis reconstructs.
        let het = HeterodyneAnalysis::new(&p.mr, p.channels, p.spacing_nm).unwrap();
        assert!(het.supports_bits(8), "point {p:?}");
        // The noise budget with that crosstalk reaches 8 bits.
        let nb = NoiseBudget {
            crosstalk_ratio: p.heterodyne_crosstalk,
            ..NoiseBudget::default()
        };
        let rx = nb.required_power_w(8).unwrap();
        assert!(nb.supports_bits(rx * 1.001, 8));
        // The laser can actually drive a full bank of this geometry.
        let link = WdmLink {
            channels: p.channels,
            through_mrs: p.channels,
            ..WdmLink::default()
        };
        assert!(Laser::default().provision(&link, rx).is_ok());
    }
}

#[test]
fn best_design_point_drives_a_real_bank_array() {
    let outcome = sweep(&SweepConfig::default()).unwrap();
    let best = outcome.best().unwrap();
    let array = MrBankArray::new(best.mr, HybridTuning::default(), 4, best.channels).unwrap();
    let mut rng = Prng::new(1);
    let weights = Matrix::filled(4, best.channels, 0.5);
    let acts = vec![0.5; best.channels];
    let result = array
        .evaluate(
            &weights,
            &acts,
            &Dac::default(),
            &Adc::default(),
            1e-3,
            &mut rng,
        )
        .unwrap();
    let expected = best.channels as f64 * 0.25;
    for v in &result.values {
        assert!((v - expected).abs() < expected * 0.1, "{v} vs {expected}");
    }
}

#[test]
fn noise_budget_bits_are_monotone_in_power() {
    let nb = NoiseBudget::default();
    let mut last_enob = 0.0;
    for dbm in [-18.0, -12.0, -6.0, 0.0, 6.0] {
        let w = phox::photonics::constants::dbm_to_watts(dbm);
        let r = nb.evaluate(w).unwrap();
        assert!(r.enob >= last_enob, "ENOB must grow with power");
        last_enob = r.enob;
    }
}

#[test]
fn tron_and_ghost_share_the_same_feasible_physics() {
    // Both accelerators built from the same design point must provision
    // lasers successfully and report consistent per-array power.
    let sweep_cfg = SweepConfig::default();
    let tron = TronAccelerator::new(TronConfig::from_design_space(&sweep_cfg).unwrap()).unwrap();
    let ghost = GhostAccelerator::new(GhostConfig::from_design_space(&sweep_cfg).unwrap()).unwrap();
    assert!(tron.array_laser_w() > 0.0);
    assert!(ghost.array_laser_w() > 0.0);
    // Same channels, same rings -> per-waveguide power within 2x
    // (row counts differ).
    let tron_per_row = tron.array_laser_w() / tron.config().array_rows as f64;
    let ghost_per_row = ghost.array_laser_w() / ghost.config().array_rows as f64;
    let ratio = tron_per_row / ghost_per_row;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn infeasible_designs_fail_with_typed_errors() {
    // 16-bit precision is beyond these devices.
    let config = SweepConfig {
        bits: 16,
        ..SweepConfig::default()
    };
    assert!(matches!(
        sweep(&config),
        Err(PhotonicError::NoFeasibleDesign { .. })
    ));
}

#[test]
fn every_functional_constructor_takes_the_configured_dac_width() {
    // A 6-bit DAC under the default 8-bit ADC: the LUT-softmax and GAT
    // code grid has 2^6 - 1 levels on every constructor, and the ideal
    // simulator is the zero-noise simulator, bit for bit.
    let dac = Dac {
        bits: 6,
        ..Dac::default()
    };
    let tron = TronConfig {
        dac,
        ..TronConfig::default()
    };
    let ghost = GhostConfig {
        dac,
        ..GhostConfig::default()
    };
    let tron_plan = FaultPlan::new(tron.array_rows, tron.array_channels);
    let tron_schedule = FaultSchedule::new(tron.array_rows, tron.array_channels);
    let ghost_plan = FaultPlan::new(ghost.array_rows, ghost.array_channels);
    let ghost_schedule = FaultSchedule::new(ghost.array_rows, ghost.array_channels);
    let levels = [
        TronFunctional::new(&tron, 1).unwrap().engine().dac_levels(),
        TronFunctional::ideal(&tron, 1).engine().dac_levels(),
        TronFunctional::with_noise(&tron, 1e-3, 1)
            .unwrap()
            .engine()
            .dac_levels(),
        TronFunctional::with_faults(&tron, tron_plan, 1)
            .unwrap()
            .engine()
            .dac_levels(),
        TronFunctional::with_fault_schedule(&tron, tron_schedule, 1)
            .unwrap()
            .engine()
            .dac_levels(),
        GhostFunctional::new(&ghost, 1)
            .unwrap()
            .engine()
            .dac_levels(),
        GhostFunctional::ideal(&ghost, 1).engine().dac_levels(),
        GhostFunctional::with_noise(&ghost, 1e-3, 1)
            .unwrap()
            .engine()
            .dac_levels(),
        GhostFunctional::with_faults(&ghost, ghost_plan, 1)
            .unwrap()
            .engine()
            .dac_levels(),
        GhostFunctional::with_fault_schedule(&ghost, ghost_schedule, 1)
            .unwrap()
            .engine()
            .dac_levels(),
    ];
    assert_eq!(levels, [63.0; 10]);

    let bits = |m: &Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
    let model = TransformerModel::random(TransformerConfig::tiny(8), 2).unwrap();
    let x = Prng::new(3).fill_normal(8, 32, 0.0, 1.0);
    let ideal = TronFunctional::ideal(&tron, 4).forward(&model, &x).unwrap();
    let zero = TronFunctional::with_noise(&tron, 0.0, 4)
        .unwrap()
        .forward(&model, &x);
    assert_eq!(bits(&ideal), bits(&zero.unwrap()));

    let task = phox::nn::datasets::sbm(3, 8, 12, 0.5, 0.05, 5).unwrap();
    let gat = GnnModel::random(GnnConfig::two_layer(GnnKind::Gat, 12, 16, 3), 6).unwrap();
    let (g, f) = (&task.graph, &task.features);
    let ideal = GhostFunctional::ideal(&ghost, 7)
        .forward(&gat, g, f)
        .unwrap();
    let zero = GhostFunctional::with_noise(&ghost, 0.0, 7)
        .unwrap()
        .forward(&gat, g, f);
    assert_eq!(bits(&ideal), bits(&zero.unwrap()));
}
