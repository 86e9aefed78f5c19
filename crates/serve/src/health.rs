//! Health monitoring, hazard timelines, and recovery policies for the
//! fault-aware serving engine.
//!
//! The physics layer speaks in device faults ([`FaultSchedule`]: stuck
//! MR cells, thermal drift, dead ADC lanes, laser droop); the serving
//! layer speaks in service outcomes (completed, retried, dropped, timed
//! out). This module is the translation seam between the two:
//!
//! * [`HazardTimeline::resolve_tron`] / [`resolve_ghost`](HazardTimeline::resolve_ghost)
//!   evaluate each scheduled fault against the accelerator's device
//!   models **once, up front** — compensable faults become
//!   [`Severity::Degraded`] windows carrying the dead-lane remap
//!   slowdown and standing compensation power, uncompensatable faults
//!   (drift beyond the tuning range, droop below the noise floor, a
//!   fully dead receiver) become [`Severity::Fatal`] windows.
//! * [`RecoveryPolicy`] states what the engine does about it: nothing,
//!   bounded retry with exponential backoff, or graceful degradation
//!   (probe-driven detection, recalibration downtime, and a slower
//!   precision-fallback serving mode).
//! * [`ProbeConfig`] prices the detection itself — calibration probes
//!   cost model time and joules, so a tighter monitoring interval buys
//!   faster detection at a throughput/energy premium the reports expose.
//!
//! Everything here is deterministic: resolution walks the schedule in
//! event order, and the engine consumes the timeline from its serial
//! model loop.

use phox_ghost::GhostConfig;
use phox_photonics::fault::{FaultPlan, FaultSchedule};
use phox_photonics::mr::MrConfig;
use phox_photonics::noise::NoiseBudget;
use phox_photonics::tuning::HybridTuning;
use phox_photonics::{Ctx, PhotonicError};
use phox_tron::TronConfig;

/// Calibration-probe pricing for the serving engine's health monitor.
///
/// A probe is a short known-input test pattern pushed through the
/// analog datapath and checked digitally; it is the only way the engine
/// *learns* the device state (the hazard timeline itself is ground
/// truth the engine never reads directly between probes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeConfig {
    /// Minimum model time between probes, s.
    pub interval_s: f64,
    /// Server time one probe occupies, s (the accelerator cannot serve
    /// a window while probing).
    pub latency_s: f64,
    /// Energy one probe costs, J.
    pub energy_j: f64,
}

impl Default for ProbeConfig {
    /// 500 µs between probes, 10 µs per probe, 10 µJ per probe —
    /// a test pattern of a few windows at the accelerators' µs window
    /// scale.
    fn default() -> Self {
        ProbeConfig {
            interval_s: 500e-6,
            latency_s: 10e-6,
            energy_j: 10e-6,
        }
    }
}

impl ProbeConfig {
    fn validate(&self) -> Result<(), PhotonicError> {
        let bad = |field: &str, v: f64| PhotonicError::NumericalFailure {
            what: "serve probe config",
            detail: format!("{field} must be finite and non-negative, got {v}"),
        };
        if !self.interval_s.is_finite() || self.interval_s <= 0.0 {
            return Err(PhotonicError::NumericalFailure {
                what: "serve probe config",
                detail: format!(
                    "interval_s must be finite and positive, got {}",
                    self.interval_s
                ),
            });
        }
        if !self.latency_s.is_finite() || self.latency_s < 0.0 {
            return Err(bad("latency_s", self.latency_s));
        }
        if !self.energy_j.is_finite() || self.energy_j < 0.0 {
            return Err(bad("energy_j", self.energy_j));
        }
        Ok(())
    }
}

/// What the serving engine does when the health monitor detects a
/// hazard, and what happens to the occupants of a failed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// No recovery: occupants of a failed window are dropped, degraded
    /// windows are served as-is (accuracy silently at risk).
    None,
    /// Bounded retry with exponential backoff: occupants of a failed
    /// window re-enter their class queue after
    /// `base_backoff_s * 2^(attempt-1)`, up to `max_retries` attempts,
    /// then drop.
    RetryBackoff {
        /// Retry attempts per request before dropping.
        max_retries: u32,
        /// First-retry backoff, s; doubles per attempt.
        base_backoff_s: f64,
    },
    /// Graceful degradation: retries like
    /// [`RecoveryPolicy::RetryBackoff`], plus — once a probe detects the
    /// hazard — the engine pauses through finite fatal windows (TO
    /// recompensation downtime of `recalibration_s` after the fault
    /// clears) and serves degraded windows in a remapped,
    /// precision-fallback mode that is `fallback_slowdown`× slower on
    /// the marginal (per-request) time but accuracy-safe.
    Degrade {
        /// Retry attempts per request before dropping.
        max_retries: u32,
        /// First-retry backoff, s; doubles per attempt.
        base_backoff_s: f64,
        /// Recalibration downtime after a finite fatal hazard clears, s.
        recalibration_s: f64,
        /// Marginal-time multiplier of the precision-fallback serving
        /// mode (int8 datapath re-verified against the f64 oracle), ≥ 1.
        fallback_slowdown: f64,
    },
}

impl RecoveryPolicy {
    /// Short stable identifier used in reports and benchmark JSON.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::None => "none",
            RecoveryPolicy::RetryBackoff { .. } => "retry_backoff",
            RecoveryPolicy::Degrade { .. } => "degrade",
        }
    }

    /// Retry budget and backoff base, when the policy retries at all.
    pub(crate) fn retry_params(&self) -> Option<(u32, f64)> {
        match *self {
            RecoveryPolicy::None => None,
            RecoveryPolicy::RetryBackoff {
                max_retries,
                base_backoff_s,
            }
            | RecoveryPolicy::Degrade {
                max_retries,
                base_backoff_s,
                ..
            } => Some((max_retries, base_backoff_s)),
        }
    }

    fn validate(&self) -> Result<(), PhotonicError> {
        let bad = |detail: String| PhotonicError::NumericalFailure {
            what: "serve recovery policy",
            detail,
        };
        if let Some((_, backoff)) = self.retry_params() {
            if !backoff.is_finite() || backoff <= 0.0 {
                return Err(bad(format!(
                    "base_backoff_s must be finite and positive, got {backoff}"
                )));
            }
        }
        if let RecoveryPolicy::Degrade {
            recalibration_s,
            fallback_slowdown,
            ..
        } = *self
        {
            if !recalibration_s.is_finite() || recalibration_s < 0.0 {
                return Err(bad(format!(
                    "recalibration_s must be finite and non-negative, got {recalibration_s}"
                )));
            }
            if !fallback_slowdown.is_finite() || fallback_slowdown < 1.0 {
                return Err(bad(format!(
                    "fallback_slowdown must be finite and >= 1, got {fallback_slowdown}"
                )));
            }
        }
        Ok(())
    }
}

/// How badly one hazard window disturbs the accelerator while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Severity {
    /// Compensable: the datapath keeps producing usable results.
    /// Accuracy is at risk unless the engine remaps around it, which
    /// costs marginal time and standing power.
    Degraded {
        /// Marginal-time multiplier of dead-lane remapping, ≥ 1
        /// (`rows / live_rows`).
        marginal_slowdown: f64,
        /// Standing compensation power while active, W.
        extra_leakage_w: f64,
    },
    /// Uncompensatable (drift beyond the tuning range, droop below the
    /// noise floor): every window dispatched while active fails.
    Fatal,
}

/// One resolved hazard window on the serving timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hazard {
    /// Model time the hazard appears, s.
    pub onset_s: f64,
    /// Model time the hazard clears, s (`f64::INFINITY` = permanent).
    pub clear_s: f64,
    /// Service-level severity while active.
    pub severity: Severity,
}

/// The combined device state at one model-time instant, as the engine's
/// ground truth (and, after a probe, as its belief).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardState {
    /// Whether any fatal hazard is active.
    pub fatal: bool,
    /// Product of active degraded hazards' marginal slowdowns, ≥ 1.
    pub marginal_slowdown: f64,
    /// Sum of active hazards' standing compensation power, W.
    pub extra_leakage_w: f64,
}

impl HazardState {
    /// The fault-free state.
    pub const NOMINAL: HazardState = HazardState {
        fatal: false,
        marginal_slowdown: 1.0,
        extra_leakage_w: 0.0,
    };

    /// Whether this state perturbs service at all.
    pub fn is_nominal(&self) -> bool {
        *self == HazardState::NOMINAL
    }
}

/// A [`FaultSchedule`] pre-resolved against one accelerator's device
/// models into service-level hazard windows.
///
/// Resolution evaluates each scheduled fault **in isolation at full
/// magnitude** through [`FaultPlan::impact`]: a fault whose impact
/// computes is a [`Severity::Degraded`] window (dead-lane slowdown,
/// compensation power), a fault whose impact is a typed error — drift
/// the thermo-optic tuners cannot absorb, droop below the receiver
/// noise floor — is a [`Severity::Fatal`] window. Ramp-in windows are
/// judged at their peak, which is deliberately conservative: the
/// serving layer treats a fault that *will* become fatal as fatal from
/// onset.
///
/// The timeline is piecewise constant between its hazards' onsets and
/// clears, so its constructors index it once: the sorted, distinct onset
/// and clear times (the *breaks*), and the state and fatal clear time
/// of each segment between consecutive breaks. A lookup is then one
/// binary search. `==` and `{:?}` see only the hazards.
#[derive(Clone)]
pub struct HazardTimeline {
    hazards: Vec<Hazard>,
    breaks: Vec<f64>,
    segments: Vec<Segment>,
}

/// The timeline's value on `[breaks[i], breaks[i + 1])`.
#[derive(Clone, Copy)]
struct Segment {
    state: HazardState,
    fatal_clear_s: Option<f64>,
}

impl PartialEq for HazardTimeline {
    fn eq(&self, other: &Self) -> bool {
        self.hazards == other.hazards
    }
}

impl std::fmt::Debug for HazardTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardTimeline")
            .field("hazards", &self.hazards)
            .finish()
    }
}

impl HazardTimeline {
    /// Indexes `hazards` (in list order) into a timeline.
    ///
    /// Every onset and every clear is a break, so the set of active
    /// hazards is constant within a segment: the one at its first break.
    /// One sweep over the breaks keeps that set (as list indices, in
    /// list order) and folds each segment over it exactly as a scan of
    /// the list would. Fatal is an OR, slowdowns multiply and leakages
    /// add in list order, and fatal clears combine by `max`.
    fn new(hazards: Vec<Hazard>) -> HazardTimeline {
        let mut breaks: Vec<f64> = hazards
            .iter()
            .flat_map(|h| [h.onset_s, h.clear_s])
            .filter(|t| !t.is_nan())
            .collect();
        breaks.sort_by(f64::total_cmp);
        // `==`, not bits: ±0 are one break, as `<=` sees them.
        breaks.dedup_by(|a, b| a == b);
        // A hazard with a NaN bound is never active.
        let mut by_onset: Vec<usize> = (0..hazards.len())
            .filter(|&i| !hazards[i].onset_s.is_nan() && !hazards[i].clear_s.is_nan())
            .collect();
        by_onset.sort_by(|&a, &b| hazards[a].onset_s.total_cmp(&hazards[b].onset_s));
        let mut by_clear = by_onset.clone();
        by_clear.sort_by(|&a, &b| hazards[a].clear_s.total_cmp(&hazards[b].clear_s));
        let (mut next_onset, mut next_clear) = (0, 0);
        let mut active: Vec<usize> = Vec::new();
        let mut segments = Vec::with_capacity(breaks.len());
        for &b in &breaks {
            // A hazard's clear is a later break than its onset, so it
            // joins the set at its onset and leaves it at its clear.
            while let Some(&i) = by_clear
                .get(next_clear)
                .filter(|&&i| hazards[i].clear_s <= b)
            {
                if let Ok(at) = active.binary_search(&i) {
                    active.remove(at);
                }
                next_clear += 1;
            }
            while let Some(&i) = by_onset
                .get(next_onset)
                .filter(|&&i| hazards[i].onset_s <= b)
            {
                if let Err(at) = active.binary_search(&i) {
                    active.insert(at, i);
                }
                next_onset += 1;
            }
            let mut segment = Segment {
                state: HazardState::NOMINAL,
                fatal_clear_s: None,
            };
            for h in active.iter().map(|&i| &hazards[i]) {
                match h.severity {
                    Severity::Fatal => {
                        segment.state.fatal = true;
                        segment.fatal_clear_s = Some(
                            segment
                                .fatal_clear_s
                                .map_or(h.clear_s, |c| c.max(h.clear_s)),
                        );
                    }
                    Severity::Degraded {
                        marginal_slowdown,
                        extra_leakage_w,
                    } => {
                        segment.state.marginal_slowdown *= marginal_slowdown;
                        segment.state.extra_leakage_w += extra_leakage_w;
                    }
                }
            }
            segments.push(segment);
        }
        HazardTimeline {
            hazards,
            breaks,
            segments,
        }
    }

    /// The segment holding `t_s`: the last break at or before it. `None`
    /// before the first break and for a NaN time, where no hazard is
    /// active.
    fn segment(&self, t_s: f64) -> Option<&Segment> {
        let after = self.breaks.partition_point(|&b| b <= t_s);
        after.checked_sub(1).map(|i| &self.segments[i])
    }

    /// The empty timeline: no hazards, ever.
    pub fn empty() -> HazardTimeline {
        HazardTimeline::new(Vec::new())
    }

    /// Whether the timeline carries no hazards.
    pub fn is_empty(&self) -> bool {
        self.hazards.is_empty()
    }

    /// The resolved hazard windows, ordered by onset.
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Builds a timeline from explicit hazard windows (sorted by onset
    /// internally). Useful for synthetic availability studies and
    /// tests; physically grounded timelines come from
    /// [`HazardTimeline::resolve_tron`] / [`HazardTimeline::resolve_ghost`].
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::NumericalFailure`] for a window that is
    /// not a valid half-open `[onset, clear)` interval or a degraded
    /// severity with a sub-unity slowdown or negative leakage.
    pub fn from_hazards(mut hazards: Vec<Hazard>) -> Result<HazardTimeline, PhotonicError> {
        for h in &hazards {
            if !h.onset_s.is_finite()
                || h.onset_s < 0.0
                || h.clear_s.is_nan()
                || h.clear_s <= h.onset_s
            {
                return Err(PhotonicError::NumericalFailure {
                    what: "serve hazard timeline",
                    detail: format!(
                        "hazard window [{}, {}) is not a valid half-open interval",
                        h.onset_s, h.clear_s
                    ),
                });
            }
            if let Severity::Degraded {
                marginal_slowdown,
                extra_leakage_w,
            } = h.severity
            {
                if !marginal_slowdown.is_finite()
                    || marginal_slowdown < 1.0
                    || !extra_leakage_w.is_finite()
                    || extra_leakage_w < 0.0
                {
                    return Err(PhotonicError::NumericalFailure {
                        what: "serve hazard timeline",
                        detail: format!(
                            "degraded hazard needs slowdown >= 1 and leakage >= 0, \
                             got {marginal_slowdown} and {extra_leakage_w}"
                        ),
                    });
                }
            }
        }
        hazards.sort_by(|a, b| a.onset_s.total_cmp(&b.onset_s));
        Ok(HazardTimeline::new(hazards))
    }

    /// Resolves `schedule` against the TRON transformer accelerator's
    /// device models.
    pub fn resolve_tron(
        schedule: &FaultSchedule,
        config: &TronConfig,
    ) -> Result<HazardTimeline, PhotonicError> {
        HazardTimeline::resolve(
            schedule,
            &config.mr,
            &config.tuning,
            &config.noise,
            config.adc.bits,
            config.array_rows,
            config.array_channels,
        )
        .ctx("resolving fault schedule against the TRON device models")
    }

    /// Resolves `schedule` against the GHOST graph accelerator's device
    /// models.
    pub fn resolve_ghost(
        schedule: &FaultSchedule,
        config: &GhostConfig,
    ) -> Result<HazardTimeline, PhotonicError> {
        HazardTimeline::resolve(
            schedule,
            &config.mr,
            &config.tuning,
            &config.noise,
            config.adc.bits,
            config.array_rows,
            config.array_channels,
        )
        .ctx("resolving fault schedule against the GHOST device models")
    }

    /// Resolves a schedule against explicit device models. Geometry
    /// must match the schedule's.
    pub fn resolve(
        schedule: &FaultSchedule,
        mr: &MrConfig,
        tuning: &HybridTuning,
        noise: &NoiseBudget,
        adc_bits: u32,
        array_rows: usize,
        array_channels: usize,
    ) -> Result<HazardTimeline, PhotonicError> {
        if schedule.array_rows != array_rows || schedule.array_channels != array_channels {
            return Err(PhotonicError::NumericalFailure {
                what: "serve hazard timeline",
                detail: format!(
                    "fault schedule geometry {}x{} does not match the accelerator's \
                     bank arrays ({array_rows}x{array_channels})",
                    schedule.array_rows, schedule.array_channels
                ),
            })
            .ctx("resolving hazard timeline");
        }
        let mut hazards = Vec::with_capacity(schedule.events().len());
        for event in schedule.events() {
            let plan = FaultPlan::new(array_rows, array_channels)
                .with_fault(event.fault)
                .ctx("resolving hazard timeline")?;
            let severity = match plan.impact(mr, tuning, noise, adc_bits) {
                Err(_) => Severity::Fatal,
                Ok(impact) => {
                    let live = array_rows - impact.dead_lanes.len();
                    if live == 0 {
                        Severity::Fatal
                    } else {
                        Severity::Degraded {
                            marginal_slowdown: array_rows as f64 / live as f64,
                            extra_leakage_w: impact.compensation_power_w,
                        }
                    }
                }
            };
            hazards.push(Hazard {
                onset_s: event.onset_s,
                clear_s: event.clear_s,
                severity,
            });
        }
        Ok(HazardTimeline::new(hazards))
    }

    /// The combined device state at model time `t_s`: fatal if any
    /// fatal hazard is active; degraded slowdowns multiply and standing
    /// powers sum, in list order. One binary search over the breaks.
    pub fn state_at(&self, t_s: f64) -> HazardState {
        self.segment(t_s)
            .map_or(HazardState::NOMINAL, |segment| segment.state)
    }

    /// When the last fatal hazard active at `t_s` clears — `None` if no
    /// fatal hazard is active, `Some(f64::INFINITY)` if one is
    /// permanent. One binary search over the breaks.
    pub fn fatal_clear_after(&self, t_s: f64) -> Option<f64> {
        self.segment(t_s).and_then(|segment| segment.fatal_clear_s)
    }
}

/// Everything the serving engine needs to run fault-aware: the resolved
/// ground-truth timeline, the recovery policy, and the probe pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultContext {
    /// Ground-truth hazard windows (the engine only *observes* them
    /// through probes).
    pub timeline: HazardTimeline,
    /// What the engine does about detected hazards and failed windows.
    pub policy: RecoveryPolicy,
    /// Calibration-probe pricing for the health monitor.
    pub probe: ProbeConfig,
}

impl FaultContext {
    /// Builds a validated context.
    pub fn new(
        timeline: HazardTimeline,
        policy: RecoveryPolicy,
        probe: ProbeConfig,
    ) -> Result<FaultContext, PhotonicError> {
        policy.validate().ctx("building serving fault context")?;
        probe.validate().ctx("building serving fault context")?;
        Ok(FaultContext {
            timeline,
            policy,
            probe,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_photonics::fault::DeviceFault;

    fn schedule(rows: usize, channels: usize) -> FaultSchedule {
        FaultSchedule::new(rows, channels)
    }

    fn tron_config() -> TronConfig {
        TronConfig::default()
    }

    #[test]
    fn empty_schedule_resolves_to_empty_timeline() {
        let cfg = tron_config();
        let tl = HazardTimeline::resolve_tron(&schedule(cfg.array_rows, cfg.array_channels), &cfg)
            .unwrap();
        assert!(tl.is_empty());
        assert!(tl.state_at(0.0).is_nominal());
        assert_eq!(tl.fatal_clear_after(0.0), None);
    }

    #[test]
    fn dead_lane_resolves_to_degraded_window() {
        let cfg = tron_config();
        let sched = schedule(cfg.array_rows, cfg.array_channels)
            .schedule(1e-3, 3e-3, DeviceFault::DeadAdcLane { lane: 0 })
            .unwrap();
        let tl = HazardTimeline::resolve_tron(&sched, &cfg).unwrap();
        assert_eq!(tl.hazards().len(), 1);
        let state = tl.state_at(2e-3);
        assert!(!state.fatal);
        let expected = cfg.array_rows as f64 / (cfg.array_rows - 1) as f64;
        assert!((state.marginal_slowdown - expected).abs() < 1e-12);
        // Outside the window the state is nominal.
        assert!(tl.state_at(0.5e-3).is_nominal());
        assert!(tl.state_at(3e-3).is_nominal());
    }

    #[test]
    fn uncompensatable_drift_resolves_to_fatal_window() {
        let cfg = tron_config();
        // 10 nm of drift is far beyond the hybrid tuners' range: the
        // impact computation fails, so the hazard is fatal.
        let sched = schedule(cfg.array_rows, cfg.array_channels)
            .schedule(1e-3, 2e-3, DeviceFault::ThermalDrift { drift_nm: 10.0 })
            .unwrap();
        let tl = HazardTimeline::resolve_tron(&sched, &cfg).unwrap();
        assert_eq!(tl.hazards().len(), 1);
        assert!(tl.state_at(1.5e-3).fatal);
        assert_eq!(tl.fatal_clear_after(1.5e-3), Some(2e-3));
        assert_eq!(tl.fatal_clear_after(2.5e-3), None);
    }

    #[test]
    fn overlapping_hazards_compose() {
        let cfg = tron_config();
        let sched = schedule(cfg.array_rows, cfg.array_channels)
            .schedule(0.0, 4e-3, DeviceFault::DeadAdcLane { lane: 0 })
            .and_then(|s| s.schedule(1e-3, 3e-3, DeviceFault::DeadAdcLane { lane: 1 }))
            .unwrap();
        let tl = HazardTimeline::resolve_tron(&sched, &cfg).unwrap();
        let one = cfg.array_rows as f64 / (cfg.array_rows - 1) as f64;
        let state = tl.state_at(2e-3);
        assert!((state.marginal_slowdown - one * one).abs() < 1e-12);
        assert!((tl.state_at(0.5e-3).marginal_slowdown - one).abs() < 1e-12);
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let cfg = tron_config();
        let err = HazardTimeline::resolve_tron(&schedule(3, 3), &cfg).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn policies_and_probes_validate() {
        let tl = HazardTimeline::empty();
        assert!(FaultContext::new(
            tl.clone(),
            RecoveryPolicy::RetryBackoff {
                max_retries: 2,
                base_backoff_s: -1.0
            },
            ProbeConfig::default()
        )
        .is_err());
        assert!(FaultContext::new(
            tl.clone(),
            RecoveryPolicy::Degrade {
                max_retries: 2,
                base_backoff_s: 1e-4,
                recalibration_s: 0.0,
                fallback_slowdown: 0.5
            },
            ProbeConfig::default()
        )
        .is_err());
        let probe = ProbeConfig {
            interval_s: 0.0,
            ..ProbeConfig::default()
        };
        assert!(FaultContext::new(tl.clone(), RecoveryPolicy::None, probe).is_err());
        assert!(FaultContext::new(tl, RecoveryPolicy::None, ProbeConfig::default()).is_ok());
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(RecoveryPolicy::None.name(), "none");
        assert_eq!(
            RecoveryPolicy::RetryBackoff {
                max_retries: 1,
                base_backoff_s: 1e-4
            }
            .name(),
            "retry_backoff"
        );
        assert_eq!(
            RecoveryPolicy::Degrade {
                max_retries: 1,
                base_backoff_s: 1e-4,
                recalibration_s: 1e-3,
                fallback_slowdown: 2.0
            }
            .name(),
            "degrade"
        );
    }
}
