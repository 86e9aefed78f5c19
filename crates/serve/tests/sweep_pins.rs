//! Output pins for the serving sweep and the hazard lookups under it.
//!
//! The sweep pins freeze the report bytes of `paper_sweep`'s serving
//! shape: four fault-free offered rates over `standard_mix` at the
//! design-space TRON and GHOST configs, then the three recovery policies
//! at 3k req/s with 25 ms deadline classes under a seeded random fault
//! schedule. Two seeds run at a 10 s horizon (the benchmark runs 30 s),
//! and the schedule's events and the resolved timeline's hazards are
//! pinned next to the reports. A change to the timeline lookup, the
//! schedule's conflict check or the report's percentiles must keep every
//! digest.
//!
//! The property test checks `HazardTimeline::state_at` and
//! `fatal_clear_after` bit for bit against a linear scan of the hazards,
//! at every onset and clear, the floats either side of them, signed
//! zeros, infinities, NaN and random times.

use proptest::prelude::*;

use phox_ghost::config::GhostConfig;
use phox_ghost::perf::GhostAccelerator;
use phox_photonics::design_space::SweepConfig;
use phox_photonics::fault::FaultSchedule;
use phox_serve::{
    standard_mix, FaultContext, Hazard, HazardState, HazardTimeline, ProbeConfig, RecoveryPolicy,
    ServeConfig, ServeEngine, Severity,
};
use phox_tensor::{split_seed, Prng};
use phox_trace::digest_of;
use phox_tron::config::TronConfig;
use phox_tron::perf::TronAccelerator;

/// Fault-free offered loads, req/s.
const RATES_HZ: [f64; 4] = [500.0, 2_000.0, 8_000.0, 32_000.0];
/// Arrival and fault horizon of every run, s.
const HORIZON_S: f64 = 10.0;
/// Offered load of the faulted runs, req/s.
const FAULT_RATE_HZ: f64 = 3_000.0;
/// Class deadline of the faulted runs, s.
const DEADLINE_S: f64 = 25e-3;

fn policies() -> [RecoveryPolicy; 3] {
    [
        RecoveryPolicy::None,
        RecoveryPolicy::RetryBackoff {
            max_retries: 3,
            base_backoff_s: 200e-6,
        },
        RecoveryPolicy::Degrade {
            max_retries: 3,
            base_backoff_s: 200e-6,
            recalibration_s: 1e-3,
            fallback_slowdown: 1.5,
        },
    ]
}

/// Digests of one seed's sweep, in order: the schedule's events, the
/// schedule, the timeline's hazards, the timeline, then the seven
/// reports (four rates, three policies).
fn sweep_digests(seed: u64) -> Vec<String> {
    let design = SweepConfig::default();
    let tron =
        TronAccelerator::new(TronConfig::from_design_space(&design).expect("TRON design point"))
            .expect("TRON accelerator");
    let ghost =
        GhostAccelerator::new(GhostConfig::from_design_space(&design).expect("GHOST design point"))
            .expect("GHOST accelerator");
    let classes = standard_mix(&tron, &ghost).expect("class mix");
    let deadline_classes: Vec<_> = classes
        .iter()
        .map(|c| c.clone().with_deadline(DEADLINE_S).expect("deadline"))
        .collect();
    let schedule = FaultSchedule::random(
        split_seed(seed, 2),
        tron.config().array_rows,
        tron.config().array_channels,
        200.0,
        HORIZON_S,
        4e-3,
        0.7,
    )
    .expect("fault schedule");
    let timeline = HazardTimeline::resolve_tron(&schedule, tron.config()).expect("timeline");
    let mut digests = vec![
        digest_of(&schedule.events()),
        digest_of(&schedule),
        digest_of(&timeline.hazards()),
        digest_of(&timeline),
    ];
    for rate in RATES_HZ {
        let config = ServeConfig {
            seed: split_seed(seed, 1),
            arrival_rate_hz: rate,
            duration_s: HORIZON_S,
            ..ServeConfig::default()
        };
        let report = ServeEngine::new(config, classes.clone())
            .expect("engine")
            .run()
            .expect("fault-free run");
        digests.push(digest_of(&report.to_json()));
    }
    for policy in policies() {
        let config = ServeConfig {
            seed: split_seed(seed, 1),
            arrival_rate_hz: FAULT_RATE_HZ,
            duration_s: HORIZON_S,
            ..ServeConfig::default()
        };
        let faults = FaultContext::new(timeline.clone(), policy, ProbeConfig::default())
            .expect("fault context");
        let report = ServeEngine::with_faults(config, deadline_classes.clone(), faults)
            .expect("engine")
            .run()
            .expect("faulted run");
        // The schedule must bite, or the pins would not cover the lookups.
        assert!(report.probes > 0 && report.failed_windows > 0, "{policy:?}");
        digests.push(digest_of(&report.to_json()));
    }
    digests
}

fn check_pins(seed: u64, expected: [&str; 11]) {
    let got = sweep_digests(seed);
    assert_eq!(got, expected, "seed {seed}: sweep digests moved: {got:#?}");
}

#[test]
fn serving_sweep_is_pinned_at_seed_1() {
    check_pins(
        1,
        [
            "d9dfba72c2efb617",
            "6ca501f7a50a72ff",
            "a88eb9a62a632e91",
            "355295e23c194ba5",
            "1dece104327383d3",
            "05afb396d767b0cd",
            "9a9f0ba1505e5be8",
            "0244c213b400a9c6",
            "19049b6a43534568",
            "5939cb9f5d0ddf89",
            "6b62cc70b0290239",
        ],
    );
}

#[test]
fn serving_sweep_is_pinned_at_seed_7() {
    check_pins(
        7,
        [
            "6c1ecc7c92b9ad9f",
            "26f889e8a44ccd65",
            "786413253d45b756",
            "62cee216c7d0a422",
            "c67705bbb0f8947a",
            "023721c16a3121c3",
            "c1282d813702e283",
            "e3dbf6585d6d017c",
            "4ba673f7fc554974",
            "0e97d535405a315f",
            "a0d9ab750817139a",
        ],
    );
}

/// The definition the timeline's lookups must match: a scan of every
/// hazard in list order.
fn scan_state(hazards: &[Hazard], t_s: f64) -> HazardState {
    let mut state = HazardState::NOMINAL;
    for h in hazards {
        if h.onset_s <= t_s && t_s < h.clear_s {
            match h.severity {
                Severity::Fatal => state.fatal = true,
                Severity::Degraded {
                    marginal_slowdown,
                    extra_leakage_w,
                } => {
                    state.marginal_slowdown *= marginal_slowdown;
                    state.extra_leakage_w += extra_leakage_w;
                }
            }
        }
    }
    state
}

fn scan_fatal_clear(hazards: &[Hazard], t_s: f64) -> Option<f64> {
    hazards
        .iter()
        .filter(|h| h.severity == Severity::Fatal && h.onset_s <= t_s && t_s < h.clear_s)
        .map(|h| h.clear_s)
        .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.max(c))))
}

/// A random timeline with overlapping windows, shared onsets and clears
/// (drawn from a coarse grid), permanent hazards, signed-zero onsets and
/// a fatal/degraded mix.
fn random_hazards(rng: &mut Prng) -> Vec<Hazard> {
    let n = rng.next_index(40);
    let grid = |rng: &mut Prng| rng.next_index(16) as f64 * 0.25e-3;
    (0..n)
        .map(|_| {
            let onset_s = match rng.next_index(4) {
                0 => grid(rng),
                1 => -0.0,
                _ => rng.uniform(0.0, 4e-3),
            };
            let clear_s = match rng.next_index(6) {
                0 => f64::INFINITY,
                1 => onset_s + grid(rng) + 0.25e-3,
                2 => onset_s.next_up(),
                _ => onset_s + rng.uniform(1e-6, 2e-3),
            };
            let severity = match rng.next_index(3) {
                0 => Severity::Fatal,
                1 => Severity::Degraded {
                    marginal_slowdown: 1.0,
                    extra_leakage_w: 0.0,
                },
                _ => Severity::Degraded {
                    marginal_slowdown: rng.uniform(1.0, 3.0),
                    extra_leakage_w: rng.uniform(0.0, 0.5),
                },
            };
            Hazard {
                onset_s,
                clear_s,
                severity,
            }
        })
        .collect()
}

/// Every onset and clear, the floats either side, the specials and
/// random times across (and beyond) the hazards' span.
fn query_points(hazards: &[Hazard], rng: &mut Prng) -> Vec<f64> {
    let mut points = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
    ];
    for h in hazards {
        for t in [h.onset_s, h.clear_s] {
            points.extend([t, t.next_up(), t.next_down()]);
        }
    }
    points.extend((0..64).map(|_| rng.uniform(-1e-3, 8e-3)));
    points
}

fn assert_matches_scan(timeline: &HazardTimeline, points: &[f64]) -> Result<(), TestCaseError> {
    let hazards = timeline.hazards();
    for &t in points {
        let got = timeline.state_at(t);
        let want = scan_state(hazards, t);
        prop_assert_eq!(got.fatal, want.fatal, "fatal at {:e}", t);
        prop_assert_eq!(
            got.marginal_slowdown.to_bits(),
            want.marginal_slowdown.to_bits(),
            "slowdown at {:e}",
            t
        );
        prop_assert_eq!(
            got.extra_leakage_w.to_bits(),
            want.extra_leakage_w.to_bits(),
            "leakage at {:e}",
            t
        );
        prop_assert_eq!(
            timeline.fatal_clear_after(t).map(f64::to_bits),
            scan_fatal_clear(hazards, t).map(f64::to_bits),
            "fatal clear at {:e}",
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The timeline's lookups equal the scan at every query point of a
    /// random timeline.
    #[test]
    fn lookups_match_the_scan_on_random_timelines(seed in any::<u64>()) {
        let mut rng = Prng::new(seed);
        let timeline = HazardTimeline::from_hazards(random_hazards(&mut rng))
            .expect("valid hazards");
        let points = query_points(timeline.hazards(), &mut rng);
        assert_matches_scan(&timeline, &points)?;
    }
}

#[test]
fn empty_timeline_lookups_are_nominal() {
    let timeline = HazardTimeline::empty();
    let mut rng = Prng::new(5);
    let points = query_points(&[], &mut rng);
    assert_matches_scan(&timeline, &points).expect("empty timeline matches the scan");
    for t in points {
        assert!(timeline.state_at(t).is_nominal());
        assert_eq!(timeline.fatal_clear_after(t), None);
    }
}

#[test]
fn resolved_timeline_lookups_match_the_scan() {
    let tron = TronConfig::default();
    let schedule = FaultSchedule::random(
        11,
        tron.array_rows,
        tron.array_channels,
        2_000.0,
        0.2,
        4e-3,
        0.5,
    )
    .expect("fault schedule");
    let timeline = HazardTimeline::resolve_tron(&schedule, &tron).expect("timeline");
    assert!(timeline.hazards().len() > 100);
    let mut rng = Prng::new(3);
    let mut points = query_points(timeline.hazards(), &mut rng);
    points.extend((0..4_096).map(|_| rng.uniform(0.0, 0.25)));
    assert_matches_scan(&timeline, &points).expect("resolved timeline matches the scan");
}
