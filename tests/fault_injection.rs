//! Device fault injection, end to end: every fault type runs through
//! both TRON and GHOST and either degrades gracefully — a finite output
//! with a quantified accuracy loss — or returns a typed, context-chained
//! error. Never a panic.

use phox::nn::datasets::{sbm, LabelledGraph};
use phox::nn::gnn::GnnModel;
use phox::nn::transformer::TransformerModel;
use phox::photonics::PhotonicError;
use phox::prelude::*;
use phox::tensor::stats;

fn tron_cfg() -> TronConfig {
    TronConfig::default()
}

fn ghost_cfg() -> GhostConfig {
    GhostConfig::default()
}

/// One plan per fault type, addressed to the given bank geometry. The
/// builders validate eagerly now, so a failure here is a test bug.
fn single_fault_plans(rows: usize, channels: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "stuck-at MR",
            FaultPlan::new(rows, channels).stuck_mr(3, 5, 0.25).unwrap(),
        ),
        (
            "thermal drift",
            FaultPlan::new(rows, channels).thermal_drift(1.5).unwrap(),
        ),
        (
            "dead ADC lane",
            FaultPlan::new(rows, channels).dead_adc_lane(7).unwrap(),
        ),
        (
            "laser droop",
            FaultPlan::new(rows, channels).laser_droop(3.0).unwrap(),
        ),
    ]
}

fn tiny_transformer(seed: u64) -> TransformerModel {
    TransformerModel::random(TransformerConfig::tiny(8), seed).unwrap()
}

fn small_graph_task() -> LabelledGraph {
    sbm(3, 8, 12, 0.5, 0.05, 71).unwrap()
}

#[test]
fn tron_degrades_gracefully_under_every_fault_type() {
    let cfg = tron_cfg();
    let model = tiny_transformer(21);
    let x = Prng::new(22).fill_normal(8, 32, 0.0, 1.0);
    let reference = model.forward(&x).unwrap();
    for (name, plan) in single_fault_plans(cfg.array_rows, cfg.array_channels) {
        let mut sim = TronFunctional::with_faults(&cfg, plan, 23)
            .unwrap_or_else(|e| panic!("{name}: construction failed: {e}"));
        let y = sim
            .forward(&model, &x)
            .unwrap_or_else(|e| panic!("{name}: forward failed: {e}"));
        let mut finite = true;
        for r in 0..y.rows() {
            for c in 0..y.cols() {
                finite &= y.get(r, c).is_finite();
            }
        }
        assert!(finite, "{name}: non-finite output");
        // Quantified accuracy loss: degraded, not destroyed.
        let err = stats::relative_error(&reference, &y);
        assert!(err.is_finite(), "{name}: error not measurable");
        assert!(err < 2.0, "{name}: fault destroyed the output, error {err}");
    }
}

#[test]
fn ghost_degrades_gracefully_under_every_fault_type() {
    let cfg = ghost_cfg();
    let task = small_graph_task();
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 72).unwrap();
    let reference = model.forward(&task.graph, &task.features).unwrap();
    for (name, plan) in single_fault_plans(cfg.array_rows, cfg.array_channels) {
        let mut sim = GhostFunctional::with_faults(&cfg, plan, 73)
            .unwrap_or_else(|e| panic!("{name}: construction failed: {e}"));
        let y = sim
            .forward(&model, &task.graph, &task.features)
            .unwrap_or_else(|e| panic!("{name}: forward failed: {e}"));
        let mut finite = true;
        for r in 0..y.rows() {
            for c in 0..y.cols() {
                finite &= y.get(r, c).is_finite();
            }
        }
        assert!(finite, "{name}: non-finite output");
        let err = stats::relative_error(&reference, &y);
        assert!(err.is_finite(), "{name}: error not measurable");
        assert!(err < 2.0, "{name}: fault destroyed the output, error {err}");
    }
}

#[test]
fn empty_fault_plan_matches_the_unfaulted_simulator() {
    let cfg = tron_cfg();
    let model = tiny_transformer(31);
    let x = Prng::new(32).fill_normal(8, 32, 0.0, 1.0);
    let mut clean = TronFunctional::new(&cfg, 33).unwrap();
    let mut faulted =
        TronFunctional::with_faults(&cfg, FaultPlan::new(cfg.array_rows, cfg.array_channels), 33)
            .unwrap();
    assert_eq!(
        clean.forward(&model, &x).unwrap(),
        faulted.forward(&model, &x).unwrap(),
        "a nominal fault plan must not change the datapath"
    );
}

/// An empty plan and an empty schedule both leave the engine exactly as
/// the unfaulted constructor builds it: no identity fault impact held.
#[test]
fn empty_fault_plans_leave_the_engine_unfaulted() {
    let tron = tron_cfg();
    let (rows, channels) = (tron.array_rows, tron.array_channels);
    let clean = TronFunctional::new(&tron, 7).unwrap();
    let planned = TronFunctional::with_faults(&tron, FaultPlan::new(rows, channels), 7).unwrap();
    let scheduled =
        TronFunctional::with_fault_schedule(&tron, FaultSchedule::new(rows, channels), 7).unwrap();
    assert_eq!(planned.engine(), clean.engine(), "TRON, empty plan");
    assert_eq!(scheduled.engine(), clean.engine(), "TRON, empty schedule");

    let ghost = ghost_cfg();
    let (rows, channels) = (ghost.array_rows, ghost.array_channels);
    let clean = GhostFunctional::new(&ghost, 8).unwrap();
    let planned = GhostFunctional::with_faults(&ghost, FaultPlan::new(rows, channels), 8).unwrap();
    let scheduled =
        GhostFunctional::with_fault_schedule(&ghost, FaultSchedule::new(rows, channels), 8)
            .unwrap();
    assert_eq!(planned.engine(), clean.engine(), "GHOST, empty plan");
    assert_eq!(scheduled.engine(), clean.engine(), "GHOST, empty schedule");
}

#[test]
fn faults_actually_change_the_output() {
    let cfg = tron_cfg();
    let model = tiny_transformer(41);
    let x = Prng::new(42).fill_normal(8, 32, 0.0, 1.0);
    let mut clean = TronFunctional::new(&cfg, 43).unwrap();
    let baseline = clean.forward(&model, &x).unwrap();
    let plan = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .stuck_mr(0, 0, 1.0)
        .and_then(|p| p.dead_adc_lane(1))
        .unwrap();
    let mut faulted = TronFunctional::with_faults(&cfg, plan, 43).unwrap();
    let degraded = faulted.forward(&model, &x).unwrap();
    assert_ne!(baseline, degraded, "injected faults must be observable");
}

/// The analog products read each model weight's resident int8 pack; a
/// stuck ring patches the engine's copy of it, never the model's, so an
/// int8 forward after a faulted analog forward still reads the packs as
/// built.
#[test]
fn stuck_rings_leave_the_models_weight_packs_untouched() {
    let stuck = |rows, channels| {
        FaultPlan::new(rows, channels)
            .stuck_mr(3, 5, 0.25)
            .and_then(|p| p.stuck_mr(0, 1, 0.9))
            .unwrap()
    };
    let bits = |y: Matrix| -> Vec<u64> { y.into_vec().into_iter().map(f64::to_bits).collect() };

    let cfg = tron_cfg();
    let model = tiny_transformer(51);
    let x = Prng::new(52).fill_normal(8, 32, 0.0, 1.0);
    let mut tron =
        TronFunctional::with_faults(&cfg, stuck(cfg.array_rows, cfg.array_channels), 53).unwrap();
    tron.forward(&model, &x).unwrap();
    assert!(
        bits(model.forward_int8(&x).unwrap())
            == bits(tiny_transformer(51).forward_int8(&x).unwrap()),
        "TRON's stuck rings changed the model's int8 forward"
    );

    let cfg = ghost_cfg();
    let task = small_graph_task();
    let gnn = || GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 54).unwrap();
    let model = gnn();
    let mut ghost =
        GhostFunctional::with_faults(&cfg, stuck(cfg.array_rows, cfg.array_channels), 55).unwrap();
    ghost.forward(&model, &task.graph, &task.features).unwrap();
    let int8 = |m: &GnnModel| bits(m.forward_int8(&task.graph, &task.features).unwrap());
    assert!(
        int8(&model) == int8(&gnn()),
        "GHOST's stuck rings changed the model's int8 forward"
    );
}

#[test]
fn uncompensatable_faults_return_typed_chained_errors() {
    let tron = tron_cfg();
    let ghost = ghost_cfg();

    // Thermal drift beyond the TO tuning range.
    let drift = FaultPlan::new(tron.array_rows, tron.array_channels)
        .thermal_drift(10.0)
        .unwrap();
    let err = TronFunctional::with_faults(&tron, drift.clone(), 1).unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::TuningRangeExceeded { .. }
    ));
    assert!(std::error::Error::source(&err).is_some());

    let drift = FaultPlan::new(ghost.array_rows, ghost.array_channels)
        .thermal_drift(10.0)
        .unwrap();
    let err = GhostFunctional::with_faults(&ghost, drift, 1).unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::TuningRangeExceeded { .. }
    ));

    // Laser droop below the receiver's noise floor.
    let droop = FaultPlan::new(tron.array_rows, tron.array_channels)
        .laser_droop(90.0)
        .unwrap();
    let err = TronFunctional::with_faults(&tron, droop, 1).unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::SignalUndetectable { .. } | PhotonicError::PrecisionUnreachable { .. }
    ));

    let droop = FaultPlan::new(ghost.array_rows, ghost.array_channels)
        .laser_droop(90.0)
        .unwrap();
    let err = GhostFunctional::with_faults(&ghost, droop, 1).unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::SignalUndetectable { .. } | PhotonicError::PrecisionUnreachable { .. }
    ));
}

#[test]
fn out_of_geometry_plans_are_rejected_with_context() {
    let cfg = tron_cfg();
    // Plan built for a different array geometry.
    let wrong = FaultPlan::new(cfg.array_rows + 1, cfg.array_channels);
    let err = TronFunctional::with_faults(&cfg, wrong, 1).unwrap_err();
    assert!(err.to_string().contains("injecting device faults"), "{err}");
    assert!(std::error::Error::source(&err).is_some());

    // A stuck ring outside the arrays is rejected at build time now —
    // the plan never exists to be injected.
    let err = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .stuck_mr(cfg.array_rows, 0, 0.5)
        .unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::ValueOutOfRange { .. }
    ));

    // As is a duplicate cell address.
    let err = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .stuck_mr(1, 1, 0.5)
        .and_then(|p| p.stuck_mr(1, 1, 0.9))
        .unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::DuplicateFault { .. }
    ));
}

#[test]
fn drift_compensation_reports_tuning_power() {
    let cfg = tron_cfg();
    let plan = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .thermal_drift(1.5)
        .and_then(|p| p.validated())
        .unwrap();
    let impact = plan
        .impact(&cfg.mr, &cfg.tuning, &cfg.noise, cfg.adc.bits)
        .unwrap();
    assert!(
        impact.compensation_power_w > 0.0,
        "drift compensation must burn tuning power"
    );
    assert!(impact.weight_gain.is_finite() && impact.weight_gain > 0.0);
}

#[test]
fn fault_schedule_switches_mid_run_and_clears() {
    // A scheduled dead lane: identical to the clean simulator before
    // onset, observably different while active, identical again after
    // clearance — on matched noise-stream seeds.
    let cfg = tron_cfg();
    let model = tiny_transformer(61);
    let x = Prng::new(62).fill_normal(8, 32, 0.0, 1.0);
    let schedule = FaultSchedule::new(cfg.array_rows, cfg.array_channels)
        .schedule(1.0, 2.0, DeviceFault::DeadAdcLane { lane: 1 })
        .unwrap();
    let mut scheduled = TronFunctional::with_fault_schedule(&cfg, schedule, 63).unwrap();
    let mut clean = TronFunctional::new(&cfg, 63).unwrap();

    scheduled.advance_to(0.5).unwrap();
    assert_eq!(
        scheduled.forward(&model, &x).unwrap(),
        clean.forward(&model, &x).unwrap(),
        "before onset the schedule must be inert"
    );

    scheduled.advance_to(1.5).unwrap();
    assert_ne!(
        scheduled.forward(&model, &x).unwrap(),
        clean.forward(&model, &x).unwrap(),
        "inside the window the fault must be observable"
    );

    scheduled.advance_to(2.5).unwrap();
    assert_eq!(
        scheduled.forward(&model, &x).unwrap(),
        clean.forward(&model, &x).unwrap(),
        "after clearance the datapath must recover exactly"
    );
}

#[test]
fn ghost_fault_schedule_switches_mid_run() {
    let cfg = ghost_cfg();
    let task = small_graph_task();
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 82).unwrap();
    let schedule = FaultSchedule::new(cfg.array_rows, cfg.array_channels)
        .schedule(1.0, f64::INFINITY, DeviceFault::DeadAdcLane { lane: 2 })
        .unwrap();
    let mut scheduled = GhostFunctional::with_fault_schedule(&cfg, schedule, 83).unwrap();
    let mut clean = GhostFunctional::new(&cfg, 83).unwrap();

    scheduled.advance_to(0.5).unwrap();
    assert_eq!(
        scheduled
            .forward(&model, &task.graph, &task.features)
            .unwrap(),
        clean.forward(&model, &task.graph, &task.features).unwrap(),
    );
    scheduled.advance_to(1.5).unwrap();
    assert_ne!(
        scheduled
            .forward(&model, &task.graph, &task.features)
            .unwrap(),
        clean.forward(&model, &task.graph, &task.features).unwrap(),
    );
}

#[test]
fn fatal_scheduled_fault_is_a_typed_error_mid_run_never_a_panic() {
    let cfg = tron_cfg();
    let schedule = FaultSchedule::new(cfg.array_rows, cfg.array_channels)
        .schedule(1.0, 2.0, DeviceFault::ThermalDrift { drift_nm: 10.0 })
        .unwrap();
    let mut sim = TronFunctional::with_fault_schedule(&cfg, schedule, 93).unwrap();
    // Before onset: fine.
    sim.advance_to(0.5).unwrap();
    // Inside the window the drift exceeds the tuning range — a typed,
    // chained error, not a panic.
    let err = sim.advance_to(1.5).unwrap_err();
    assert!(matches!(
        err.root_cause(),
        PhotonicError::TuningRangeExceeded { .. }
    ));
    assert!(std::error::Error::source(&err).is_some());
    // Non-finite model time is also a typed error.
    assert!(sim.advance_to(f64::NAN).is_err());
}

#[test]
fn random_schedule_drives_both_simulators_without_panicking() {
    // A seeded random schedule (severe faults included) never panics:
    // every advance_to either succeeds or returns a typed error.
    let cfg = tron_cfg();
    let schedule = FaultSchedule::random(
        0xD15EA5E,
        cfg.array_rows,
        cfg.array_channels,
        200.0, // arrivals/s of model time
        0.05,  // horizon, s
        5e-3,  // mean hold, s
        0.5,   // half the faults severe
    )
    .unwrap();
    assert!(!schedule.is_empty());
    let mut sim = TronFunctional::with_fault_schedule(&cfg, schedule, 103).unwrap();
    let mut outcomes = (0u32, 0u32);
    for step in 0..=100 {
        let t = step as f64 * 5e-4;
        match sim.advance_to(t) {
            Ok(()) => outcomes.0 += 1,
            Err(e) => {
                outcomes.1 += 1;
                // Every failure is typed and context-chained.
                assert!(
                    e.to_string().contains("advancing TRON fault schedule"),
                    "{e}"
                );
            }
        }
    }
    assert!(outcomes.0 > 0, "schedule must leave servable instants");
}

#[test]
fn droop_widens_the_error_distribution() {
    // The fault model's noise inflation is visible end to end: a drooped
    // laser produces a larger deviation from the digital reference than
    // the healthy datapath, on the same seeds.
    let cfg = tron_cfg();
    let model = tiny_transformer(51);
    let x = Prng::new(52).fill_normal(8, 32, 0.0, 1.0);
    let reference = model.forward(&x).unwrap();
    let mut healthy = TronFunctional::new(&cfg, 53).unwrap();
    let e_healthy = stats::relative_error(&reference, &healthy.forward(&model, &x).unwrap());
    let plan = FaultPlan::new(cfg.array_rows, cfg.array_channels)
        .laser_droop(6.0)
        .unwrap();
    let mut drooped = TronFunctional::with_faults(&cfg, plan, 53).unwrap();
    let e_drooped = stats::relative_error(&reference, &drooped.forward(&model, &x).unwrap());
    assert!(
        e_drooped > e_healthy,
        "droop must widen the error: healthy {e_healthy}, drooped {e_drooped}"
    );
}
