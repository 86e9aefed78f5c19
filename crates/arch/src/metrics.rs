//! Energy/latency ledgers and the two figures of merit of the paper's
//! evaluation: **GOPS** (giga-operations per second, Figs. 9/11) and
//! **EPB** (energy per bit, Figs. 8/10).

use crate::ArchError;

/// Itemised energy consumption of one inference, J.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// Laser wall-plug energy.
    pub laser_j: f64,
    /// MR tuning (EO + TO) energy.
    pub tuning_j: f64,
    /// DAC conversion energy.
    pub dac_j: f64,
    /// ADC conversion energy.
    pub adc_j: f64,
    /// Photodetector/TIA/SOA energy.
    pub receiver_j: f64,
    /// Digital logic energy (softmax LUTs, control).
    pub digital_j: f64,
    /// On-chip buffer + off-chip memory energy.
    pub memory_j: f64,
    /// Static/leakage energy over the run.
    pub static_j: f64,
}

impl EnergyLedger {
    /// Total energy, J.
    pub fn total_j(&self) -> f64 {
        self.laser_j
            + self.tuning_j
            + self.dac_j
            + self.adc_j
            + self.receiver_j
            + self.digital_j
            + self.memory_j
            + self.static_j
    }

    /// Component-wise sum.
    pub fn combine(&self, other: &EnergyLedger) -> EnergyLedger {
        EnergyLedger {
            laser_j: self.laser_j + other.laser_j,
            tuning_j: self.tuning_j + other.tuning_j,
            dac_j: self.dac_j + other.dac_j,
            adc_j: self.adc_j + other.adc_j,
            receiver_j: self.receiver_j + other.receiver_j,
            digital_j: self.digital_j + other.digital_j,
            memory_j: self.memory_j + other.memory_j,
            static_j: self.static_j + other.static_j,
        }
    }

    /// Scales every component (e.g. repeating identical layers).
    pub fn scale(&self, k: f64) -> EnergyLedger {
        EnergyLedger {
            laser_j: self.laser_j * k,
            tuning_j: self.tuning_j * k,
            dac_j: self.dac_j * k,
            adc_j: self.adc_j * k,
            receiver_j: self.receiver_j * k,
            digital_j: self.digital_j * k,
            memory_j: self.memory_j * k,
            static_j: self.static_j * k,
        }
    }
}

/// Itemised latency of one inference, s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyLedger {
    /// Optical compute time (symbol periods through the MR arrays).
    pub compute_s: f64,
    /// Memory transfer time not hidden behind compute.
    pub memory_s: f64,
    /// ADC/DAC conversion time not hidden behind compute.
    pub conversion_s: f64,
    /// Digital post-processing (softmax LUT etc.).
    pub digital_s: f64,
}

impl LatencyLedger {
    /// Total latency, s.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.memory_s + self.conversion_s + self.digital_s
    }

    /// Component-wise sum.
    pub fn combine(&self, other: &LatencyLedger) -> LatencyLedger {
        LatencyLedger {
            compute_s: self.compute_s + other.compute_s,
            memory_s: self.memory_s + other.memory_s,
            conversion_s: self.conversion_s + other.conversion_s,
            digital_s: self.digital_s + other.digital_s,
        }
    }

    /// Scales every component.
    pub fn scale(&self, k: f64) -> LatencyLedger {
        LatencyLedger {
            compute_s: self.compute_s * k,
            memory_s: self.memory_s * k,
            conversion_s: self.conversion_s * k,
            digital_s: self.digital_s * k,
        }
    }
}

/// Checks that `actual` matches `expected` to within 1e-9 relative error —
/// the ledger-invariant guard: a decomposition (per-stage energies,
/// latency components) must sum back to the total it claims to
/// decompose, or the roll-up and the itemisation have silently diverged.
///
/// # Errors
///
/// Returns [`ArchError::InvariantViolated`], naming `what` and both
/// numbers, on a larger drift or a NaN.
pub fn check_close(what: &'static str, expected: f64, actual: f64) -> Result<(), ArchError> {
    let scale = expected.abs().max(actual.abs()).max(f64::MIN_POSITIVE);
    let rel = (expected - actual).abs() / scale;
    if rel.is_nan() || rel > 1e-9 {
        return Err(ArchError::InvariantViolated {
            what,
            detail: format!("expected {expected:e}, decomposition sums to {actual:e}"),
        });
    }
    Ok(())
}

/// The final performance report of one inference on one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Total operations performed (2 ops per MAC).
    pub ops: u64,
    /// Bits of computational work (ops × precision).
    pub bits: u64,
    /// End-to-end latency, s.
    pub latency_s: f64,
    /// Total energy, J.
    pub energy_j: f64,
}

impl PerfReport {
    /// Builds a report, validating positivity.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidMetric`] when ops/bits are zero or
    /// latency/energy are non-positive.
    pub fn new(ops: u64, bits: u64, latency_s: f64, energy_j: f64) -> Result<Self, ArchError> {
        if ops == 0 || bits == 0 {
            return Err(ArchError::InvalidMetric {
                what: "ops and bits must be non-zero",
            });
        }
        if !(latency_s > 0.0 && energy_j > 0.0) {
            return Err(ArchError::InvalidMetric {
                what: "latency and energy must be positive",
            });
        }
        Ok(PerfReport {
            ops,
            bits,
            latency_s,
            energy_j,
        })
    }

    /// Throughput in giga-operations per second.
    pub fn gops(&self) -> f64 {
        self.ops as f64 / self.latency_s / 1e9
    }

    /// Energy per bit of computational work, J/bit.
    pub fn epb_j(&self) -> f64 {
        self.energy_j / self.bits as f64
    }

    /// Average power, W.
    pub fn power_w(&self) -> f64 {
        self.energy_j / self.latency_s
    }

    /// Throughput improvement of `self` over `other` (×).
    pub fn speedup_over(&self, other: &PerfReport) -> f64 {
        self.gops() / other.gops()
    }

    /// Energy-efficiency improvement of `self` over `other` (×, higher is
    /// better: `other`'s EPB divided by ours).
    pub fn efficiency_over(&self, other: &PerfReport) -> f64 {
        other.epb_j() / self.epb_j()
    }
}

/// Decomposition of one request's accelerator cost into the part that is
/// **weight-resident** — paid once per dynamic-batch window, no matter how
/// many requests share it — and the **marginal** part every occupant pays.
///
/// On TRON the resident part is HBM weight streaming plus MR-bank
/// programming/tuning; on GHOST it is the shared weight-DAC programming
/// plus the (small) weight stream. The serving layer (`phox-serve`)
/// schedules batch windows against this decomposition: amortizing
/// `resident_j` over the window's occupancy is what makes joules/request
/// fall as batches fill. This is the batch amortization already latent in
/// `TronAccelerator::simulate`'s batch handling, promoted to a
/// first-class scheduling quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCost {
    /// Weight-residency time paid once per batch window, s (HBM weight
    /// streaming; overlappable with occupant compute).
    pub resident_s: f64,
    /// Weight-residency energy paid once per batch window, J (weight
    /// streaming + MR-bank programming/tuning).
    pub resident_j: f64,
    /// Service time per occupant request, s.
    pub marginal_s: f64,
    /// Energy per occupant request, J.
    pub marginal_j: f64,
    /// Static leakage drawn while the window is open, W.
    pub leakage_w: f64,
}

impl ServiceCost {
    /// Validates that every component is finite and non-negative and that
    /// a lone request has non-zero service time.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidMetric`] on non-finite or negative
    /// components, or when `marginal_s` and `resident_s` are both zero.
    pub fn validated(self) -> Result<Self, ArchError> {
        let fields = [
            self.resident_s,
            self.resident_j,
            self.marginal_s,
            self.marginal_j,
            self.leakage_w,
        ];
        if fields.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(ArchError::InvalidMetric {
                what: "service-cost components must be finite and non-negative",
            });
        }
        if self.marginal_s <= 0.0 && self.resident_s <= 0.0 {
            return Err(ArchError::InvalidMetric {
                what: "a service cost needs a positive resident or marginal time",
            });
        }
        Ok(self)
    }

    /// The cost of running this service on a degraded accelerator:
    /// per-request compute is stretched by `marginal_slowdown` (dead-lane
    /// remapping re-runs the lost columns on the surviving lanes) and the
    /// machine draws `extra_leakage_w` of standing power (TO drift
    /// compensation). Both time *and* energy of the marginal component
    /// scale — the same work runs longer on the same hardware.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidMetric`] for a slowdown below 1, a
    /// negative or non-finite extra leakage, or when the scaled cost
    /// fails [`ServiceCost::validated`].
    pub fn degraded(
        &self,
        marginal_slowdown: f64,
        extra_leakage_w: f64,
    ) -> Result<ServiceCost, ArchError> {
        if !(marginal_slowdown.is_finite() && marginal_slowdown >= 1.0) {
            return Err(ArchError::InvalidMetric {
                what: "degradation slowdown must be finite and at least 1",
            });
        }
        if !(extra_leakage_w.is_finite() && extra_leakage_w >= 0.0) {
            return Err(ArchError::InvalidMetric {
                what: "degradation extra leakage must be finite and non-negative",
            });
        }
        ServiceCost {
            resident_s: self.resident_s,
            resident_j: self.resident_j,
            marginal_s: self.marginal_s * marginal_slowdown,
            marginal_j: self.marginal_j * marginal_slowdown,
            leakage_w: self.leakage_w + extra_leakage_w,
        }
        .validated()
    }

    /// Wall time of one batch window serving `occupancy` requests: the
    /// occupants' compute streams through the resident weights, so the
    /// weight stream overlaps compute (double buffering, same
    /// [`crate::schedule::overlap_time_s`] model the one-shot simulators
    /// use).
    pub fn window_latency_s(&self, occupancy: usize) -> f64 {
        crate::schedule::overlap_time_s(self.marginal_s * occupancy as f64, self.resident_s)
    }

    /// Energy of one batch window serving `occupancy` requests: residency
    /// paid once, marginal per occupant, leakage over the window.
    pub fn window_energy_j(&self, occupancy: usize) -> f64 {
        self.resident_j
            + self.marginal_j * occupancy as f64
            + self.leakage_w * self.window_latency_s(occupancy)
    }

    /// Energy per request at a given window occupancy — the quantity the
    /// serving report tracks against batch fill.
    pub fn joules_per_request(&self, occupancy: usize) -> f64 {
        if occupancy == 0 {
            return 0.0;
        }
        self.window_energy_j(occupancy) / occupancy as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn energy_ledger_totals_and_combines() {
        let a = EnergyLedger {
            laser_j: 1.0,
            tuning_j: 2.0,
            dac_j: 3.0,
            adc_j: 4.0,
            receiver_j: 5.0,
            digital_j: 6.0,
            memory_j: 7.0,
            static_j: 8.0,
        };
        assert_eq!(a.total_j(), 36.0);
        let b = a.combine(&a);
        assert_eq!(b.total_j(), 72.0);
        assert_eq!(a.scale(0.5).total_j(), 18.0);
    }

    #[test]
    fn latency_ledger_totals() {
        let l = LatencyLedger {
            compute_s: 1.0,
            memory_s: 2.0,
            conversion_s: 3.0,
            digital_s: 4.0,
        };
        assert_eq!(l.total_s(), 10.0);
        assert_eq!(l.combine(&l).total_s(), 20.0);
        assert_eq!(l.scale(2.0).compute_s, 2.0);
    }

    #[test]
    fn perf_report_figures_of_merit() {
        // 1e12 ops in 1 ms using 1 J -> 1000 GOPS... 1e12/1e-3/1e9 = 1e6 GOPS.
        let r = PerfReport::new(1_000_000_000_000, 8_000_000_000_000, 1e-3, 1.0).unwrap();
        assert!((r.gops() - 1e6).abs() < 1e-6);
        assert!((r.epb_j() - 1.25e-13).abs() < 1e-25);
        assert!((r.power_w() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn comparisons() {
        let fast = PerfReport::new(1000, 8000, 1e-6, 1e-6).unwrap();
        let slow = PerfReport::new(1000, 8000, 1e-5, 1e-4).unwrap();
        assert!((fast.speedup_over(&slow) - 10.0).abs() < 1e-9);
        assert!((fast.efficiency_over(&slow) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(PerfReport::new(0, 8, 1.0, 1.0).is_err());
        assert!(PerfReport::new(1, 8, 0.0, 1.0).is_err());
        assert!(PerfReport::new(1, 8, 1.0, -1.0).is_err());
    }

    fn cost() -> ServiceCost {
        ServiceCost {
            resident_s: 1e-5,
            resident_j: 1e-3,
            marginal_s: 1e-6,
            marginal_j: 1e-5,
            leakage_w: 0.1,
        }
        .validated()
        .unwrap()
    }

    #[test]
    fn residency_amortizes_with_occupancy() {
        let c = cost();
        // Joules/request must fall monotonically as the window fills: the
        // resident term is shared by more occupants.
        let mut prev = f64::INFINITY;
        for b in [1usize, 2, 4, 8, 16, 64] {
            let jpr = c.joules_per_request(b);
            assert!(jpr < prev, "occupancy {b}: {jpr} !< {prev}");
            prev = jpr;
        }
        // In the limit the resident share vanishes: the floor is the
        // marginal energy plus leakage over the marginal time.
        let floor = c.marginal_j + c.leakage_w * c.marginal_s;
        assert!(c.joules_per_request(100_000) < floor * 1.1);
    }

    #[test]
    fn window_latency_overlaps_residency() {
        let c = cost();
        // One occupant: compute (1 µs) hides inside the weight stream
        // (10 µs) — the window is residency-bound.
        assert!(c.window_latency_s(1) >= c.resident_s);
        assert!(c.window_latency_s(1) < c.resident_s + 2.0 * c.marginal_s);
        // Many occupants: compute dominates and the stream hides.
        let b = 100;
        let compute = c.marginal_s * b as f64;
        assert!(c.window_latency_s(b) >= compute);
        assert!(c.window_latency_s(b) < compute * 1.05);
    }

    #[test]
    fn window_energy_components() {
        let c = cost();
        let e1 = c.window_energy_j(1);
        let expected = c.resident_j + c.marginal_j + c.leakage_w * c.window_latency_s(1);
        assert!((e1 - expected).abs() / expected < 1e-12);
        assert_eq!(c.joules_per_request(0), 0.0);
    }

    #[test]
    fn service_cost_validation() {
        assert!(ServiceCost {
            resident_s: -1.0,
            ..cost()
        }
        .validated()
        .is_err());
        assert!(ServiceCost {
            marginal_j: f64::NAN,
            ..cost()
        }
        .validated()
        .is_err());
        assert!(ServiceCost {
            resident_s: 0.0,
            marginal_s: 0.0,
            ..cost()
        }
        .validated()
        .is_err());
    }

    /// Asserts `err` is the invariant error for `what` and that its
    /// message names `what` and both numbers, lowercase, no final period.
    pub(crate) fn assert_invariant_error(err: ArchError, what: &str, a: f64, b: f64) {
        assert!(matches!(err, ArchError::InvariantViolated { what: w, .. } if w == what));
        let m = err.to_string();
        for part in [what.to_owned(), format!("{a:e}"), format!("{b:e}")] {
            assert!(m.contains(&part), "{m:?} lacks {part:?}");
        }
        assert!(
            m.starts_with(char::is_lowercase) && !m.ends_with('.'),
            "{m:?}"
        );
    }

    #[test]
    fn check_close_accepts_1e_9_and_rejects_drift_or_nan() {
        check_close("exact", 2.5, 2.5).unwrap();
        check_close("within tolerance", 1.0, 1.0 + 5e-10).unwrap();
        for (expected, actual) in [(1.0, 1.0 + 1e-6), (1.0, f64::NAN), (f64::NAN, 1.0)] {
            let err = check_close("stage sum", expected, actual).unwrap_err();
            assert_invariant_error(err, "stage sum", expected, actual);
        }
    }

    #[test]
    fn degraded_cost_scales_marginal_and_leakage() {
        let c = cost();
        let d = c.degraded(2.0, 0.5).unwrap();
        assert_eq!(d.marginal_s, 2.0 * c.marginal_s);
        assert_eq!(d.marginal_j, 2.0 * c.marginal_j);
        assert_eq!(d.leakage_w, c.leakage_w + 0.5);
        assert_eq!(d.resident_s, c.resident_s);
        assert_eq!(d.resident_j, c.resident_j);
        // Identity degradation is the identity.
        assert_eq!(c.degraded(1.0, 0.0).unwrap(), c);
        assert!(c.degraded(0.5, 0.0).is_err());
        assert!(c.degraded(1.0, -1.0).is_err());
        assert!(c.degraded(f64::NAN, 0.0).is_err());
    }
}
