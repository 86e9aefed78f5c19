//! Device fault injection for the analog simulation stack.
//!
//! Real photonic accelerators fail in device-specific ways the ideal
//! models of this crate do not exhibit: a microring stuck at a fixed
//! transmission (heater open, EO driver shorted), a thermal gradient
//! dragging a bank's resonances off the WDM comb, a dead ADC lane
//! (receiver TIA failure), and laser power drooping with age or
//! temperature. This module describes such faults ([`DeviceFault`]),
//! collects them into a geometry-aware [`FaultPlan`], and resolves the
//! plan against the device models into a [`FaultImpact`] — either a
//! quantified degradation the functional simulators inject into the
//! [`crate::analog::AnalogEngine`], or a typed, context-chained
//! [`PhotonicError`] when the fault is uncompensatable (drift beyond the
//! tuning range, droop below the noise floor).
//!
//! Faults also arrive and clear over model time: a [`FaultSchedule`]
//! holds seeded, deterministic onset/clearance events
//! ([`ScheduledFault`]) and materialises the [`FaultPlan`] active at any
//! instant via [`FaultSchedule::plan_at`], so the functional simulators
//! and the serving engine can consume faults mid-run instead of only at
//! construction.
//!
//! The design goal is the tentpole's contract: a faulted simulation
//! **either degrades gracefully with a measurable accuracy loss or
//! returns a chained error — it never panics.**

use crate::mr::MrConfig;
use crate::noise::NoiseBudget;
use crate::tuning::HybridTuning;
use crate::{Ctx, PhotonicError};
use phox_tensor::Prng;
use std::collections::BTreeMap;

/// One injected device fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFault {
    /// A weight-bank microring stuck at a fixed through-transmission:
    /// every weight imprinted on `(row, channel)` of each bank array
    /// reads back at the stuck level regardless of the programmed value.
    StuckAtMr {
        /// Array row (waveguide) of the stuck ring.
        row: usize,
        /// Wavelength channel of the stuck ring.
        channel: usize,
        /// The stuck through-transmission in `[0, 1]` (0 = fully
        /// dropped, 1 = fully transparent).
        transmission: f64,
    },
    /// A uniform thermal resonance drift of the whole bank, nm. The
    /// tuning circuits compensate it (burning TO power) when it fits the
    /// tuning range; the residual Lorentzian mis-bias appears as a
    /// multiplicative weight-gain error.
    ThermalDrift {
        /// Resonance drift, nm (sign irrelevant: the Lorentzian is
        /// symmetric).
        drift_nm: f64,
    },
    /// A dead ADC lane: every output element digitised by receiver lane
    /// `lane` (output columns `j` with `j % array_rows == lane`) reads
    /// zero.
    DeadAdcLane {
        /// The dead receiver lane, `< array_rows`.
        lane: usize,
    },
    /// Laser output power droop, dB below the provisioned per-channel
    /// power. Thermal-noise-limited receivers see the relative noise grow
    /// by `10^(droop_db/10)`; past the sensitivity floor the signal is
    /// undetectable.
    LaserPowerDroop {
        /// Power droop, dB (positive = less optical power).
        droop_db: f64,
    },
}

/// Validates one fault against the array geometry and physical ranges.
fn check_fault(rows: usize, channels: usize, fault: &DeviceFault) -> Result<(), PhotonicError> {
    match *fault {
        DeviceFault::StuckAtMr {
            row,
            channel,
            transmission,
        } => {
            if row >= rows {
                return Err(PhotonicError::ValueOutOfRange {
                    value: row as f64,
                    lo: 0.0,
                    hi: rows.saturating_sub(1) as f64,
                }
                .ctx("validating stuck-MR row index"));
            }
            if channel >= channels {
                return Err(PhotonicError::ValueOutOfRange {
                    value: channel as f64,
                    lo: 0.0,
                    hi: channels.saturating_sub(1) as f64,
                }
                .ctx("validating stuck-MR channel index"));
            }
            if !(0.0..=1.0).contains(&transmission) || !transmission.is_finite() {
                return Err(PhotonicError::ValueOutOfRange {
                    value: transmission,
                    lo: 0.0,
                    hi: 1.0,
                }
                .ctx("validating stuck-MR transmission"));
            }
        }
        DeviceFault::ThermalDrift { drift_nm } => {
            if !drift_nm.is_finite() {
                return Err(PhotonicError::InvalidConfig {
                    what: "thermal drift must be finite",
                }
                .ctx("validating thermal-drift fault"));
            }
        }
        DeviceFault::DeadAdcLane { lane } => {
            if lane >= rows {
                return Err(PhotonicError::ValueOutOfRange {
                    value: lane as f64,
                    lo: 0.0,
                    hi: rows.saturating_sub(1) as f64,
                }
                .ctx("validating dead-ADC-lane index"));
            }
        }
        DeviceFault::LaserPowerDroop { droop_db } => {
            if !(droop_db.is_finite() && droop_db >= 0.0) {
                return Err(PhotonicError::InvalidConfig {
                    what: "laser droop must be non-negative and finite",
                }
                .ctx("validating laser-droop fault"));
            }
        }
    }
    Ok(())
}

/// The cell a fault occupies exclusively: a stuck ring or a dead lane.
/// Drift and droop are additive bank-wide magnitudes and occupy none.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    Mr { row: usize, channel: usize },
    Lane(usize),
}

impl Cell {
    fn of(fault: &DeviceFault) -> Option<Cell> {
        match *fault {
            DeviceFault::StuckAtMr { row, channel, .. } => Some(Cell::Mr { row, channel }),
            DeviceFault::DeadAdcLane { lane } => Some(Cell::Lane(lane)),
            DeviceFault::ThermalDrift { .. } | DeviceFault::LaserPowerDroop { .. } => None,
        }
    }

    fn duplicate(self) -> PhotonicError {
        match self {
            Cell::Mr { row, channel } => PhotonicError::DuplicateFault {
                what: "stuck-MR cell",
                row,
                channel,
            },
            Cell::Lane(lane) => PhotonicError::DuplicateFault {
                what: "dead ADC lane",
                row: lane,
                channel: 0,
            },
        }
    }
}

/// Rejects a fault that re-addresses a cell already faulted in
/// `existing`. Two stuck levels on one ring (or two deaths of one lane)
/// are contradictory, so they are a typed [`PhotonicError::DuplicateFault`]
/// instead of a silent last-wins. Drift and droop may repeat.
fn check_conflict(existing: &[DeviceFault], fault: &DeviceFault) -> Result<(), PhotonicError> {
    match Cell::of(fault) {
        Some(cell) if existing.iter().any(|f| Cell::of(f) == Some(cell)) => Err(cell.duplicate()),
        _ => Ok(()),
    }
}

/// A set of faults addressed against one bank-array geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Rows (waveguides / receiver lanes) per bank array.
    pub array_rows: usize,
    /// Wavelength channels per row.
    pub array_channels: usize,
    /// The injected faults.
    pub faults: Vec<DeviceFault>,
}

impl FaultPlan {
    /// An empty (fault-free) plan for the given geometry.
    pub fn new(array_rows: usize, array_channels: usize) -> Self {
        FaultPlan {
            array_rows,
            array_channels,
            faults: Vec::new(),
        }
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds one fault, validating it eagerly against the geometry and
    /// rejecting duplicate cell addresses.
    fn push(mut self, fault: DeviceFault) -> Result<Self, PhotonicError> {
        check_fault(self.array_rows, self.array_channels, &fault)?;
        check_conflict(&self.faults, &fault)?;
        self.faults.push(fault);
        Ok(self)
    }

    /// Adds an already-constructed [`DeviceFault`], with the same eager
    /// validation as the typed builders. Useful when replaying faults
    /// recorded elsewhere (e.g. a [`ScheduledFault`]'s payload).
    ///
    /// # Errors
    ///
    /// Same taxonomy as the typed builders: out-of-geometry cells and
    /// invalid magnitudes are [`PhotonicError::ValueOutOfRange`] /
    /// [`PhotonicError::InvalidConfig`], repeated cell addresses are
    /// [`PhotonicError::DuplicateFault`].
    pub fn with_fault(self, fault: DeviceFault) -> Result<Self, PhotonicError> {
        self.push(fault).ctx("adding device fault")
    }

    /// Adds a stuck microring.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ValueOutOfRange`] for an off-array cell
    /// or non-`[0, 1]` transmission, and
    /// [`PhotonicError::DuplicateFault`] when `(row, channel)` is already
    /// stuck in this plan.
    pub fn stuck_mr(
        self,
        row: usize,
        channel: usize,
        transmission: f64,
    ) -> Result<Self, PhotonicError> {
        self.push(DeviceFault::StuckAtMr {
            row,
            channel,
            transmission,
        })
        .ctx("adding stuck-MR fault")
    }

    /// Adds a thermal resonance drift.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for a non-finite drift.
    pub fn thermal_drift(self, drift_nm: f64) -> Result<Self, PhotonicError> {
        self.push(DeviceFault::ThermalDrift { drift_nm })
            .ctx("adding thermal-drift fault")
    }

    /// Adds a dead ADC lane.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ValueOutOfRange`] for a lane outside the
    /// array, and [`PhotonicError::DuplicateFault`] when the lane is
    /// already dead in this plan.
    pub fn dead_adc_lane(self, lane: usize) -> Result<Self, PhotonicError> {
        self.push(DeviceFault::DeadAdcLane { lane })
            .ctx("adding dead-ADC-lane fault")
    }

    /// Adds a laser power droop.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for a negative or
    /// non-finite droop.
    pub fn laser_droop(self, droop_db: f64) -> Result<Self, PhotonicError> {
        self.push(DeviceFault::LaserPowerDroop { droop_db })
            .ctx("adding laser-droop fault")
    }

    /// Total thermal drift in the plan, nm.
    pub fn total_drift_nm(&self) -> f64 {
        self.faults
            .iter()
            .map(|f| match f {
                DeviceFault::ThermalDrift { drift_nm } => drift_nm.abs(),
                _ => 0.0,
            })
            .sum()
    }

    /// Total laser droop in the plan, dB.
    pub fn total_droop_db(&self) -> f64 {
        self.faults
            .iter()
            .map(|f| match f {
                DeviceFault::LaserPowerDroop { droop_db } => *droop_db,
                _ => 0.0,
            })
            .sum()
    }

    /// Validates every fault against the plan's geometry, physical
    /// ranges, and duplicate-cell rule. The builders already enforce all
    /// of this eagerly; `validated()` re-checks plans assembled directly
    /// from struct fields.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::ValueOutOfRange`] /
    /// [`PhotonicError::InvalidConfig`] /
    /// [`PhotonicError::DuplicateFault`] naming the offending fault.
    pub fn validated(self) -> Result<Self, PhotonicError> {
        if self.array_rows == 0 || self.array_channels == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "fault plan geometry must be non-zero",
            }
            .ctx("validating fault plan"));
        }
        for (i, f) in self.faults.iter().enumerate() {
            check_fault(self.array_rows, self.array_channels, f).ctx("validating fault plan")?;
            check_conflict(&self.faults[..i], f).ctx("validating fault plan")?;
        }
        Ok(self)
    }

    /// Resolves the plan against the device models into the quantified
    /// impact the analog engine injects.
    ///
    /// * Thermal drift must fit the hybrid tuning range; the compensation
    ///   holds TO power, and the residual Lorentzian mis-bias becomes a
    ///   multiplicative weight gain.
    /// * Laser droop re-evaluates the receiver noise budget at the
    ///   drooped power; the relative noise scales accordingly.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error whose root cause is the device
    /// failure: [`PhotonicError::TuningRangeExceeded`] for
    /// uncompensatable drift, [`PhotonicError::SignalUndetectable`] /
    /// [`PhotonicError::PrecisionUnreachable`] for droop below the noise
    /// floor.
    pub fn impact(
        &self,
        mr: &MrConfig,
        tuning: &HybridTuning,
        noise: &NoiseBudget,
        bits: u32,
    ) -> Result<FaultImpact, PhotonicError> {
        let mut impact = FaultImpact {
            sigma_scale: 1.0,
            weight_gain: 1.0,
            compensation_power_w: 0.0,
            dead_lanes: Vec::new(),
            stuck: Vec::new(),
        };

        let drift = self.total_drift_nm();
        if drift > 0.0 {
            // The tuning circuits chase the drifted resonance; beyond the
            // TO range the bank cannot be brought back on comb.
            let op = tuning
                .tune(drift)
                .ctx("compensating thermal resonance drift")?;
            impact.compensation_power_w +=
                op.power_w * (self.array_rows * self.array_channels) as f64;
            // Compensation is imperfect: a residual of ~2 % of the drift
            // remains, and the Lorentzian converts it into a uniform
            // transmission (weight-gain) error.
            let residual_nm = 0.02 * drift;
            let hw = mr.fwhm_nm() / 2.0;
            let biased = mr.transmission_at_detuning(hw + residual_nm);
            let nominal = mr.transmission_at_detuning(hw);
            impact.weight_gain *= biased / nominal;
        }

        let droop = self.total_droop_db();
        if droop > 0.0 {
            // Re-run the noise budget at the drooped receive power: if
            // the budget cannot even quote a provisioned power, or the
            // drooped power falls below sensitivity, the root cause
            // propagates up the chain.
            let provisioned_w = noise
                .required_power_w(bits)
                .ctx("provisioning receive power under laser droop")?;
            let drooped_w = provisioned_w * crate::constants::db_to_ratio(-droop);
            let nominal = noise
                .evaluate(provisioned_w)
                .ctx("evaluating nominal noise budget")?;
            let degraded = noise
                .evaluate(drooped_w)
                .ctx("evaluating noise budget at drooped laser power")?;
            impact.sigma_scale *= degraded.relative_sigma / nominal.relative_sigma;
        }

        for f in &self.faults {
            match *f {
                DeviceFault::StuckAtMr {
                    row,
                    channel,
                    transmission,
                } => impact.stuck.push(StuckWeight {
                    row,
                    channel,
                    transmission,
                }),
                DeviceFault::DeadAdcLane { lane } => {
                    if !impact.dead_lanes.contains(&lane) {
                        impact.dead_lanes.push(lane);
                    }
                }
                DeviceFault::ThermalDrift { .. } | DeviceFault::LaserPowerDroop { .. } => {}
            }
        }
        impact.dead_lanes.sort_unstable();
        Ok(impact)
    }
}

/// One fault event on the model-time axis: the fault switches on at
/// `onset_s`, optionally ramps its magnitude in over `ramp_s` (thermal
/// drift and laser droop grow linearly; stuck cells and dead lanes are
/// binary and ignore the ramp), and clears at `clear_s`
/// (`f64::INFINITY` = permanent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Model time the fault appears, s.
    pub onset_s: f64,
    /// Model time the fault clears, s (`f64::INFINITY` = permanent).
    pub clear_s: f64,
    /// Linear magnitude ramp-in window after onset, s (0 = step).
    pub ramp_s: f64,
    /// The fault itself, at full magnitude.
    pub fault: DeviceFault,
}

impl ScheduledFault {
    /// Whether the fault is active at model time `t_s`.
    pub fn active_at(&self, t_s: f64) -> bool {
        self.onset_s <= t_s && t_s < self.clear_s
    }

    /// The magnitude ramp factor at `t_s`, in `[0, 1]`.
    fn ramp_factor(&self, t_s: f64) -> f64 {
        if self.ramp_s <= 0.0 {
            1.0
        } else {
            ((t_s - self.onset_s) / self.ramp_s).clamp(0.0, 1.0)
        }
    }

    /// The fault as it stands at `t_s`, with ramping magnitudes scaled.
    fn fault_at(&self, t_s: f64) -> DeviceFault {
        let r = self.ramp_factor(t_s);
        match self.fault {
            DeviceFault::ThermalDrift { drift_nm } => DeviceFault::ThermalDrift {
                drift_nm: drift_nm * r,
            },
            DeviceFault::LaserPowerDroop { droop_db } => DeviceFault::LaserPowerDroop {
                droop_db: droop_db * r,
            },
            f @ (DeviceFault::StuckAtMr { .. } | DeviceFault::DeadAdcLane { .. }) => f,
        }
    }
}

/// A deterministic, seeded model-time fault timeline for one bank-array
/// geometry: faults arrive, optionally ramp in, and clear. The schedule
/// is consumed mid-run by the functional simulators
/// (`advance_to(t_s)` re-resolves the active [`FaultPlan`]) and by the
/// serving engine's health monitor.
///
/// `==` and `{:?}` see the geometry and the events only, not the
/// per-cell index that insertion checks conflicts against.
#[derive(Clone)]
pub struct FaultSchedule {
    /// Rows (waveguides / receiver lanes) per bank array.
    pub array_rows: usize,
    /// Wavelength channels per row.
    pub array_channels: usize,
    events: Vec<ScheduledFault>,
    /// The `[onset, clear)` windows of the events on each exclusive cell.
    busy: BTreeMap<Cell, Vec<(f64, f64)>>,
}

impl PartialEq for FaultSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.array_rows == other.array_rows
            && self.array_channels == other.array_channels
            && self.events == other.events
    }
}

impl std::fmt::Debug for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSchedule")
            .field("array_rows", &self.array_rows)
            .field("array_channels", &self.array_channels)
            .field("events", &self.events)
            .finish()
    }
}

impl FaultSchedule {
    /// An empty schedule for the given geometry. An empty schedule is a
    /// strict no-op: simulations driven by it are byte-identical to
    /// unfaulted ones.
    pub fn new(array_rows: usize, array_channels: usize) -> Self {
        FaultSchedule {
            array_rows,
            array_channels,
            events: Vec::new(),
            busy: BTreeMap::new(),
        }
    }

    /// Whether the schedule contains no fault events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in onset order.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Validates and inserts one event, keeping onset order.
    fn try_add(&mut self, event: ScheduledFault) -> Result<(), PhotonicError> {
        if !(event.onset_s.is_finite() && event.onset_s >= 0.0) {
            return Err(PhotonicError::InvalidConfig {
                what: "fault onset must be finite and non-negative",
            });
        }
        if event.clear_s.is_nan() || event.clear_s <= event.onset_s {
            return Err(PhotonicError::InvalidConfig {
                what: "fault clearance must come after onset",
            });
        }
        if !(event.ramp_s.is_finite() && event.ramp_s >= 0.0) {
            return Err(PhotonicError::InvalidConfig {
                what: "fault ramp must be finite and non-negative",
            });
        }
        check_fault(self.array_rows, self.array_channels, &event.fault)?;
        // Two *time-overlapping* events on the same cell are as
        // contradictory as two in one plan; the same cell may re-fault
        // after clearing. Only the events on the new fault's own cell
        // can conflict, so only those are checked.
        if let Some(cell) = Cell::of(&event.fault) {
            let windows = self.busy.entry(cell).or_default();
            if windows
                .iter()
                .any(|&(onset_s, clear_s)| onset_s < event.clear_s && event.onset_s < clear_s)
            {
                return Err(cell.duplicate());
            }
            windows.push((event.onset_s, event.clear_s));
        }
        let at = self.events.partition_point(|e| e.onset_s <= event.onset_s);
        self.events.insert(at, event);
        Ok(())
    }

    /// Schedules a step fault: on at `onset_s`, off at `clear_s`
    /// (`f64::INFINITY` = permanent).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] /
    /// [`PhotonicError::ValueOutOfRange`] for bad times or a
    /// geometry-violating fault, and [`PhotonicError::DuplicateFault`]
    /// when the event's active window overlaps another fault on the same
    /// cell.
    pub fn schedule(
        mut self,
        onset_s: f64,
        clear_s: f64,
        fault: DeviceFault,
    ) -> Result<Self, PhotonicError> {
        self.try_add(ScheduledFault {
            onset_s,
            clear_s,
            ramp_s: 0.0,
            fault,
        })
        .ctx("scheduling fault event")?;
        Ok(self)
    }

    /// Schedules a ramped fault: magnitude grows linearly from zero over
    /// `ramp_s` after onset (thermal drift heating up, laser slowly
    /// drooping), then holds until `clear_s`.
    ///
    /// # Errors
    ///
    /// Same contract as [`FaultSchedule::schedule`].
    pub fn schedule_ramped(
        mut self,
        onset_s: f64,
        clear_s: f64,
        ramp_s: f64,
        fault: DeviceFault,
    ) -> Result<Self, PhotonicError> {
        self.try_add(ScheduledFault {
            onset_s,
            clear_s,
            ramp_s,
            fault,
        })
        .ctx("scheduling ramped fault event")?;
        Ok(self)
    }

    /// Materialises the [`FaultPlan`] active at model time `t_s`, with
    /// ramping magnitudes scaled to their instantaneous value.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for a non-finite query
    /// time. (Active events were validated at insertion, so assembling
    /// the plan itself cannot conflict.)
    pub fn plan_at(&self, t_s: f64) -> Result<FaultPlan, PhotonicError> {
        if !t_s.is_finite() {
            return Err(PhotonicError::InvalidConfig {
                what: "fault schedule query time must be finite",
            }
            .ctx("materialising fault plan"));
        }
        let mut plan = FaultPlan::new(self.array_rows, self.array_channels);
        for e in &self.events {
            if e.active_at(t_s) {
                plan = plan.push(e.fault_at(t_s)).ctx("materialising fault plan")?;
            }
        }
        Ok(plan)
    }

    /// Generates a seeded random fault timeline: fault arrivals on a
    /// Poisson process at `rate_hz` over `[0, duration_s)`, each active
    /// for an exponential holding time with mean `mean_active_s`, fault
    /// type drawn uniformly, and a `severe_share` fraction drawn at
    /// uncompensatable magnitudes (drift beyond the tuning range, droop
    /// below the noise floor). Arrivals that would double-fault an
    /// already-faulted cell are skipped (the cell is busy failing
    /// already), keeping the schedule valid by construction.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for non-finite or
    /// negative inputs, a zero geometry, or `severe_share` outside
    /// `[0, 1]`. A zero `rate_hz` yields an empty schedule.
    pub fn random(
        seed: u64,
        array_rows: usize,
        array_channels: usize,
        rate_hz: f64,
        duration_s: f64,
        mean_active_s: f64,
        severe_share: f64,
    ) -> Result<Self, PhotonicError> {
        if array_rows == 0 || array_channels == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "fault schedule geometry must be non-zero",
            }
            .ctx("generating random fault schedule"));
        }
        if !(rate_hz.is_finite() && rate_hz >= 0.0) {
            return Err(PhotonicError::InvalidConfig {
                what: "fault rate must be finite and non-negative",
            }
            .ctx("generating random fault schedule"));
        }
        if !(duration_s.is_finite() && duration_s > 0.0) {
            return Err(PhotonicError::InvalidConfig {
                what: "fault horizon must be finite and positive",
            }
            .ctx("generating random fault schedule"));
        }
        if !(mean_active_s.is_finite() && mean_active_s > 0.0) {
            return Err(PhotonicError::InvalidConfig {
                what: "mean fault holding time must be finite and positive",
            }
            .ctx("generating random fault schedule"));
        }
        if !(0.0..=1.0).contains(&severe_share) {
            return Err(PhotonicError::InvalidConfig {
                what: "severe fault share must lie in [0, 1]",
            }
            .ctx("generating random fault schedule"));
        }
        let mut sched = FaultSchedule::new(array_rows, array_channels);
        if rate_hz == 0.0 {
            return Ok(sched);
        }
        let mut rng = Prng::stream(seed, 0xFA17);
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.next_f64()).ln() / rate_hz;
            if t >= duration_s {
                break;
            }
            let hold_s = -(1.0 - rng.next_f64()).ln() * mean_active_s;
            let severe = rng.next_f64() < severe_share;
            let kind = (rng.next_f64() * 4.0) as usize;
            // Every arrival consumes the same number of draws regardless
            // of kind or outcome, so the stream stays aligned across
            // sweeps that vary only the rate.
            let a = rng.next_f64();
            let b = rng.next_f64();
            let fault = match kind {
                0 => DeviceFault::StuckAtMr {
                    row: (a * array_rows as f64) as usize % array_rows,
                    channel: (b * array_channels as f64) as usize % array_channels,
                    transmission: if severe { 0.0 } else { 0.25 + 0.5 * a },
                },
                1 => DeviceFault::ThermalDrift {
                    // Mild drift stays well inside the tuning range;
                    // severe drift lands beyond it (uncompensatable).
                    drift_nm: if severe { 8.0 + 4.0 * a } else { 0.1 + 0.9 * a },
                },
                2 => DeviceFault::DeadAdcLane {
                    lane: (a * array_rows as f64) as usize % array_rows,
                },
                _ => DeviceFault::LaserPowerDroop {
                    droop_db: if severe {
                        40.0 + 50.0 * a
                    } else {
                        0.5 + 2.5 * a
                    },
                },
            };
            let event = ScheduledFault {
                onset_s: t,
                clear_s: t + hold_s.max(1e-9),
                ramp_s: 0.0,
                fault,
            };
            match sched.try_add(event) {
                Ok(()) => {}
                // The cell is already failing: skip the colliding arrival
                // (deterministically — the draws were consumed above).
                Err(PhotonicError::DuplicateFault { .. }) => {}
                Err(e) => return Err(e.ctx("generating random fault schedule")),
            }
        }
        Ok(sched)
    }
}

/// A stuck weight cell, resolved to its array coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckWeight {
    /// Array row of the stuck ring.
    pub row: usize,
    /// Wavelength channel of the stuck ring.
    pub channel: usize,
    /// Stuck through-transmission in `[0, 1]`.
    pub transmission: f64,
}

/// The resolved, quantified effect of a [`FaultPlan`] on the analog
/// datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultImpact {
    /// Multiplier on the receiver's relative noise (laser droop).
    pub sigma_scale: f64,
    /// Multiplicative gain error on every analog weight (residual
    /// thermal-drift mis-bias).
    pub weight_gain: f64,
    /// Steady-state tuning power spent compensating drift, W per array.
    pub compensation_power_w: f64,
    /// Dead receiver lanes (output columns `j % array_rows` read zero).
    pub dead_lanes: Vec<usize>,
    /// Stuck weight cells.
    pub stuck: Vec<StuckWeight>,
}

impl FaultImpact {
    /// `true` when the impact leaves the datapath exactly nominal.
    pub fn is_nominal(&self) -> bool {
        self.sigma_scale == 1.0
            && self.weight_gain == 1.0
            && self.dead_lanes.is_empty()
            && self.stuck.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> (MrConfig, HybridTuning, NoiseBudget) {
        (
            MrConfig::default(),
            HybridTuning::default(),
            NoiseBudget::default(),
        )
    }

    #[test]
    fn empty_plan_is_nominal() {
        let (mr, tuning, noise) = devices();
        let plan = FaultPlan::new(64, 16).validated().unwrap();
        let impact = plan.impact(&mr, &tuning, &noise, 8).unwrap();
        assert!(impact.is_nominal());
    }

    #[test]
    fn builders_reject_out_of_geometry_faults_eagerly() {
        assert!(FaultPlan::new(64, 16).stuck_mr(64, 0, 0.5).is_err());
        assert!(FaultPlan::new(64, 16).stuck_mr(0, 16, 0.5).is_err());
        assert!(FaultPlan::new(64, 16).stuck_mr(0, 0, 1.5).is_err());
        assert!(FaultPlan::new(64, 16).stuck_mr(0, 0, f64::NAN).is_err());
        assert!(FaultPlan::new(64, 16).dead_adc_lane(64).is_err());
        assert!(FaultPlan::new(64, 16).laser_droop(-1.0).is_err());
        assert!(FaultPlan::new(64, 16).thermal_drift(f64::NAN).is_err());
        assert!(FaultPlan::new(0, 16).validated().is_err());
    }

    #[test]
    fn builders_reject_duplicate_cells() {
        let err = FaultPlan::new(64, 16)
            .stuck_mr(3, 5, 0.25)
            .and_then(|p| p.stuck_mr(3, 5, 0.75))
            .unwrap_err();
        assert!(matches!(
            err.root_cause(),
            PhotonicError::DuplicateFault {
                what: "stuck-MR cell",
                row: 3,
                channel: 5
            }
        ));
        let err = FaultPlan::new(64, 16)
            .dead_adc_lane(7)
            .and_then(|p| p.dead_adc_lane(7))
            .unwrap_err();
        assert!(matches!(
            err.root_cause(),
            PhotonicError::DuplicateFault {
                what: "dead ADC lane",
                row: 7,
                ..
            }
        ));
        // Different cells are fine, and so are repeated bank-wide
        // magnitude faults (they sum).
        assert!(FaultPlan::new(64, 16)
            .stuck_mr(3, 5, 0.25)
            .and_then(|p| p.stuck_mr(3, 6, 0.25))
            .and_then(|p| p.thermal_drift(0.2))
            .and_then(|p| p.thermal_drift(0.3))
            .is_ok());
    }

    #[test]
    fn validated_catches_hand_assembled_duplicates() {
        let plan = FaultPlan {
            array_rows: 64,
            array_channels: 16,
            faults: vec![
                DeviceFault::DeadAdcLane { lane: 7 },
                DeviceFault::DeadAdcLane { lane: 7 },
            ],
        };
        let err = plan.validated().unwrap_err();
        assert!(matches!(
            err.root_cause(),
            PhotonicError::DuplicateFault { .. }
        ));
    }

    #[test]
    fn validation_errors_chain_to_a_root_cause() {
        let err = FaultPlan::new(64, 16).stuck_mr(99, 0, 0.5).unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
        assert!(matches!(
            err.root_cause(),
            PhotonicError::ValueOutOfRange { .. }
        ));
    }

    #[test]
    fn drift_within_range_costs_power_and_gain() {
        let (mr, tuning, noise) = devices();
        let plan = FaultPlan::new(64, 16).thermal_drift(1.5).unwrap();
        let impact = plan.impact(&mr, &tuning, &noise, 8).unwrap();
        assert!(impact.compensation_power_w > 0.0);
        assert!(impact.weight_gain > 0.0 && impact.weight_gain != 1.0);
    }

    #[test]
    fn drift_beyond_tuning_range_chains_tuning_error() {
        let (mr, tuning, noise) = devices();
        let plan = FaultPlan::new(64, 16).thermal_drift(10.0).unwrap();
        let err = plan.impact(&mr, &tuning, &noise, 8).unwrap_err();
        assert!(matches!(
            err.root_cause(),
            PhotonicError::TuningRangeExceeded { .. }
        ));
        assert!(err.to_string().contains("thermal resonance drift"));
    }

    #[test]
    fn droop_inflates_noise() {
        let (mr, tuning, noise) = devices();
        let plan = FaultPlan::new(64, 16).laser_droop(3.0).unwrap();
        let impact = plan.impact(&mr, &tuning, &noise, 8).unwrap();
        assert!(
            impact.sigma_scale > 1.0,
            "sigma scale {}",
            impact.sigma_scale
        );
    }

    #[test]
    fn extreme_droop_chains_noise_floor_error() {
        let (mr, tuning, noise) = devices();
        let plan = FaultPlan::new(64, 16).laser_droop(90.0).unwrap();
        let err = plan.impact(&mr, &tuning, &noise, 8).unwrap_err();
        assert!(matches!(
            err.root_cause(),
            PhotonicError::SignalUndetectable { .. } | PhotonicError::PrecisionUnreachable { .. }
        ));
    }

    #[test]
    fn stuck_and_dead_faults_are_collected() {
        let (mr, tuning, noise) = devices();
        let plan = FaultPlan::new(64, 16)
            .stuck_mr(3, 5, 0.25)
            .and_then(|p| p.dead_adc_lane(7))
            .and_then(|p| p.dead_adc_lane(2))
            .unwrap();
        let impact = plan.impact(&mr, &tuning, &noise, 8).unwrap();
        assert_eq!(impact.stuck.len(), 1);
        assert_eq!(impact.dead_lanes, vec![2, 7]);
    }

    #[test]
    fn empty_schedule_yields_empty_plans() {
        let sched = FaultSchedule::new(64, 16);
        assert!(sched.is_empty());
        for t in [0.0, 1.0, 1e6] {
            let plan = sched.plan_at(t).unwrap();
            assert!(plan.is_empty());
        }
    }

    #[test]
    fn schedule_windows_switch_faults_on_and_off() {
        let sched = FaultSchedule::new(64, 16)
            .schedule(1.0, 2.0, DeviceFault::DeadAdcLane { lane: 3 })
            .unwrap()
            .schedule(
                1.5,
                f64::INFINITY,
                DeviceFault::StuckAtMr {
                    row: 0,
                    channel: 0,
                    transmission: 0.5,
                },
            )
            .unwrap();
        assert!(sched.plan_at(0.5).unwrap().is_empty());
        assert_eq!(sched.plan_at(1.0).unwrap().faults.len(), 1);
        assert_eq!(sched.plan_at(1.75).unwrap().faults.len(), 2);
        // The lane clears at exactly 2.0 (half-open window); the stuck
        // cell is permanent.
        assert_eq!(
            sched.plan_at(2.0).unwrap().faults,
            vec![DeviceFault::StuckAtMr {
                row: 0,
                channel: 0,
                transmission: 0.5,
            }]
        );
        assert_eq!(sched.plan_at(1e9).unwrap().faults.len(), 1);
    }

    #[test]
    fn ramped_drift_scales_linearly() {
        let sched = FaultSchedule::new(64, 16)
            .schedule_ramped(1.0, 10.0, 2.0, DeviceFault::ThermalDrift { drift_nm: 1.0 })
            .unwrap();
        assert_eq!(sched.plan_at(1.0).unwrap().total_drift_nm(), 0.0);
        assert!((sched.plan_at(2.0).unwrap().total_drift_nm() - 0.5).abs() < 1e-12);
        assert!((sched.plan_at(3.0).unwrap().total_drift_nm() - 1.0).abs() < 1e-12);
        assert!((sched.plan_at(9.0).unwrap().total_drift_nm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_rejects_overlapping_same_cell_events() {
        let err = FaultSchedule::new(64, 16)
            .schedule(0.0, 2.0, DeviceFault::DeadAdcLane { lane: 3 })
            .unwrap()
            .schedule(1.0, 3.0, DeviceFault::DeadAdcLane { lane: 3 })
            .unwrap_err();
        assert!(matches!(
            err.root_cause(),
            PhotonicError::DuplicateFault { .. }
        ));
        // The same lane may die again after recovering.
        assert!(FaultSchedule::new(64, 16)
            .schedule(0.0, 2.0, DeviceFault::DeadAdcLane { lane: 3 })
            .unwrap()
            .schedule(2.0, 3.0, DeviceFault::DeadAdcLane { lane: 3 })
            .is_ok());
    }

    #[test]
    fn schedule_rejects_bad_times_and_geometry() {
        let s = FaultSchedule::new(64, 16);
        assert!(s
            .clone()
            .schedule(-1.0, 2.0, DeviceFault::DeadAdcLane { lane: 3 })
            .is_err());
        assert!(s
            .clone()
            .schedule(2.0, 1.0, DeviceFault::DeadAdcLane { lane: 3 })
            .is_err());
        assert!(s
            .clone()
            .schedule(0.0, 1.0, DeviceFault::DeadAdcLane { lane: 99 })
            .is_err());
        assert!(s
            .schedule_ramped(0.0, 1.0, -1.0, DeviceFault::ThermalDrift { drift_nm: 0.1 })
            .is_err());
    }

    #[test]
    fn random_schedule_is_deterministic_and_valid() {
        let a = FaultSchedule::random(7, 64, 16, 200.0, 0.05, 0.01, 0.25).unwrap();
        let b = FaultSchedule::random(7, 64, 16, 200.0, 0.05, 0.01, 0.25).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.events().windows(2) {
            assert!(w[0].onset_s <= w[1].onset_s);
        }
        // Every materialised plan re-validates cleanly.
        for e in a.events() {
            let plan = a.plan_at(e.onset_s).unwrap();
            assert!(plan.validated().is_ok());
        }
        // Rate zero means no faults at all.
        assert!(FaultSchedule::random(7, 64, 16, 0.0, 0.05, 0.01, 0.25)
            .unwrap()
            .is_empty());
        // A different seed reshuffles the timeline.
        let c = FaultSchedule::random(8, 64, 16, 200.0, 0.05, 0.01, 0.25).unwrap();
        assert_ne!(a, c);
    }

    /// A random event on a 4 × 3 array: onsets and holds on a coarse
    /// grid (so windows touch, nest and share onsets), some permanent.
    fn random_event(rng: &mut Prng, grid_onsets: bool) -> ScheduledFault {
        let onset_s = if grid_onsets {
            rng.next_index(24) as f64
        } else {
            rng.uniform(0.0, 24.0)
        };
        let clear_s = match rng.next_index(5) {
            0 => f64::INFINITY,
            _ => onset_s + 1.0 + rng.next_index(6) as f64,
        };
        let fault = match rng.next_index(4) {
            0 => DeviceFault::StuckAtMr {
                row: rng.next_index(4),
                channel: rng.next_index(3),
                transmission: 0.5,
            },
            1 => DeviceFault::DeadAdcLane {
                lane: rng.next_index(4),
            },
            2 => DeviceFault::ThermalDrift { drift_nm: 0.2 },
            _ => DeviceFault::LaserPowerDroop { droop_db: 1.0 },
        };
        ScheduledFault {
            onset_s,
            clear_s,
            ramp_s: 0.0,
            fault,
        }
    }

    #[test]
    fn cell_index_decides_like_a_scan_of_every_event() {
        let same_cell = |a: &DeviceFault, b: &DeviceFault| match (*a, *b) {
            (
                DeviceFault::StuckAtMr {
                    row: r1,
                    channel: c1,
                    ..
                },
                DeviceFault::StuckAtMr {
                    row: r2,
                    channel: c2,
                    ..
                },
            ) => r1 == r2 && c1 == c2,
            (DeviceFault::DeadAdcLane { lane: a }, DeviceFault::DeadAdcLane { lane: b }) => a == b,
            _ => false,
        };
        for seed in 0..8 {
            let mut rng = Prng::new(seed);
            let mut sched = FaultSchedule::new(4, 3);
            let mut reference: Vec<ScheduledFault> = Vec::new();
            let (mut accepted, mut rejected) = (0, 0);
            for _ in 0..400 {
                let event = random_event(&mut rng, true);
                let conflict = reference.iter().any(|e| {
                    e.onset_s < event.clear_s
                        && event.onset_s < e.clear_s
                        && same_cell(&e.fault, &event.fault)
                });
                match sched.try_add(event) {
                    Ok(()) => {
                        assert!(!conflict, "accepted a conflicting {event:?}");
                        let at = reference.partition_point(|e| e.onset_s <= event.onset_s);
                        reference.insert(at, event);
                        accepted += 1;
                    }
                    Err(err) => {
                        assert!(conflict, "rejected a free {event:?}: {err}");
                        let (what, row, channel) = match event.fault {
                            DeviceFault::StuckAtMr { row, channel, .. } => {
                                ("stuck-MR cell", row, channel)
                            }
                            DeviceFault::DeadAdcLane { lane } => ("dead ADC lane", lane, 0),
                            _ => unreachable!("only cells conflict"),
                        };
                        assert_eq!(
                            format!("{err:?}"),
                            format!("{:?}", PhotonicError::DuplicateFault { what, row, channel })
                        );
                        rejected += 1;
                    }
                }
            }
            assert_eq!(sched.events(), reference.as_slice());
            assert!(accepted > 50 && rejected > 50, "{accepted} / {rejected}");
        }
    }

    #[test]
    fn equality_and_debug_ignore_insertion_order() {
        let mut rng = Prng::new(41);
        let mut forward = FaultSchedule::new(4, 3);
        let mut accepted = Vec::new();
        for _ in 0..200 {
            let event = random_event(&mut rng, false);
            if forward.try_add(event).is_ok() {
                accepted.push(event);
            }
        }
        let mut backward = FaultSchedule::new(4, 3);
        for &event in accepted.iter().rev() {
            backward.try_add(event).unwrap();
        }
        assert_eq!(forward, backward);
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        assert_eq!(format!("{forward:#?}"), format!("{backward:#?}"));
        assert!(format!("{forward:?}").starts_with(
            "FaultSchedule { array_rows: 4, array_channels: 3, events: [ScheduledFault {"
        ));
    }

    #[test]
    fn random_schedule_rejects_bad_inputs() {
        assert!(FaultSchedule::random(1, 0, 16, 1.0, 1.0, 0.1, 0.0).is_err());
        assert!(FaultSchedule::random(1, 64, 16, -1.0, 1.0, 0.1, 0.0).is_err());
        assert!(FaultSchedule::random(1, 64, 16, 1.0, 0.0, 0.1, 0.0).is_err());
        assert!(FaultSchedule::random(1, 64, 16, 1.0, 1.0, 0.0, 0.0).is_err());
        assert!(FaultSchedule::random(1, 64, 16, 1.0, 1.0, 0.1, 1.5).is_err());
    }
}
