//! Receiver noise model: shot, thermal (Johnson), and relative-intensity
//! noise, aggregated with crosstalk into an SNR → effective-bit budget.
//!
//! The paper requires *"ensuring a signal-to-noise ratio (SNR) in the
//! output that surpasses photodetector sensitivity"* (§V.B) and operates
//! both accelerators at 8-bit precision (§VI); this module decides whether
//! a candidate design point actually sustains 8 effective bits.

use crate::constants::{BOLTZMANN, ELEMENTARY_CHARGE, ROOM_TEMPERATURE_K};
use crate::devices::Photodetector;
use crate::PhotonicError;
use phox_tensor::Prng;

/// Shot-noise current variance: `σ² = 2·q·I_ph·Δf` (A²).
pub fn shot_noise_var(photocurrent_a: f64, bandwidth_hz: f64) -> f64 {
    2.0 * ELEMENTARY_CHARGE * photocurrent_a.max(0.0) * bandwidth_hz
}

/// Thermal (Johnson) noise current variance at the TIA input:
/// `σ² = 4·k·T·Δf / R_load` (A²).
pub fn thermal_noise_var(bandwidth_hz: f64, load_ohms: f64, temperature_k: f64) -> f64 {
    4.0 * BOLTZMANN * temperature_k * bandwidth_hz / load_ohms
}

/// Relative-intensity-noise current variance:
/// `σ² = RIN · I_ph² · Δf` with RIN in 1/Hz (A²).
pub fn rin_noise_var(photocurrent_a: f64, rin_per_hz: f64, bandwidth_hz: f64) -> f64 {
    rin_per_hz * photocurrent_a * photocurrent_a * bandwidth_hz
}

/// Effective number of bits for a given SNR (dB):
/// `ENOB = (SNR_dB − 1.76)/6.02`.
pub fn enob(snr_db: f64) -> f64 {
    (snr_db - 1.76) / 6.02
}

/// Signal-to-noise ratio in dB for a signal current and total noise
/// variance.
///
/// # Errors
///
/// Returns [`PhotonicError::InvalidConfig`] when the signal current or
/// noise variance is non-positive.
pub fn snr_db(signal_current_a: f64, noise_var_a2: f64) -> Result<f64, PhotonicError> {
    if signal_current_a <= 0.0 {
        return Err(PhotonicError::InvalidConfig {
            what: "signal current must be positive for SNR",
        });
    }
    if noise_var_a2 <= 0.0 {
        return Err(PhotonicError::InvalidConfig {
            what: "noise variance must be positive for SNR",
        });
    }
    Ok(10.0 * (signal_current_a * signal_current_a / noise_var_a2).log10())
}

/// Aggregate noise budget at a photodetector output.
///
/// # Example
///
/// ```
/// use phox_photonics::noise::NoiseBudget;
///
/// # fn main() -> Result<(), phox_photonics::PhotonicError> {
/// let budget = NoiseBudget::default();
/// // How much optical power must reach the detector for 8-bit operation?
/// let rx = budget.required_power_w(8)?;
/// assert!(budget.evaluate(rx * 1.001)?.enob >= 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBudget {
    /// Receiver front-end.
    pub detector: Photodetector,
    /// TIA load resistance used for thermal noise, Ω.
    pub load_ohms: f64,
    /// Laser RIN, 1/Hz.
    pub rin_per_hz: f64,
    /// Operating temperature, K.
    pub temperature_k: f64,
    /// Residual crosstalk-to-signal power ratio (from
    /// [`crate::crosstalk`]) treated as an additional noise term.
    pub crosstalk_ratio: f64,
}

impl Default for NoiseBudget {
    /// 1 kΩ TIA load, −155 dB/Hz RIN, room temperature, no crosstalk.
    /// (−155 dB/Hz keeps the RIN-limited SNR ceiling above the ~50 dB an
    /// 8-bit datapath requires.)
    fn default() -> Self {
        NoiseBudget {
            detector: Photodetector::default(),
            load_ohms: 1_000.0,
            rin_per_hz: 10f64.powf(-155.0 / 10.0),
            temperature_k: ROOM_TEMPERATURE_K,
            crosstalk_ratio: 0.0,
        }
    }
}

/// The result of evaluating a noise budget at a received power level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseReport {
    /// Mean signal photocurrent, A.
    pub signal_current_a: f64,
    /// Total noise variance, A².
    pub noise_var_a2: f64,
    /// Resulting SNR, dB.
    pub snr_db: f64,
    /// Effective number of bits.
    pub enob: f64,
    /// Relative RMS amplitude error (σ/I) used for functional noise
    /// injection.
    pub relative_sigma: f64,
}

impl NoiseBudget {
    /// Evaluates the budget for `received_w` average optical power.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::SignalUndetectable`] when the received
    /// power is below the detector sensitivity, or an invalid-config error
    /// if the noise terms degenerate.
    pub fn evaluate(&self, received_w: f64) -> Result<NoiseReport, PhotonicError> {
        self.detector.margin_db(received_w)?;
        let i = self.detector.photocurrent_a(received_w);
        let bw = self.detector.bandwidth_hz;
        let shot = shot_noise_var(i, bw);
        let thermal = thermal_noise_var(bw, self.load_ohms, self.temperature_k);
        let rin = rin_noise_var(i, self.rin_per_hz, bw);
        // Crosstalk behaves as a signal-proportional interference power.
        let xtalk = (self.crosstalk_ratio * i) * (self.crosstalk_ratio * i);
        let var = shot + thermal + rin + xtalk;
        let snr = snr_db(i, var)?;
        Ok(NoiseReport {
            signal_current_a: i,
            noise_var_a2: var,
            snr_db: snr,
            enob: enob(snr),
            relative_sigma: var.sqrt() / i,
        })
    }

    /// `true` when the budget sustains at least `bits` effective bits at
    /// the given received power.
    pub fn supports_bits(&self, received_w: f64, bits: u32) -> bool {
        match self.evaluate(received_w) {
            Ok(r) => r.enob >= bits as f64,
            Err(_) => false,
        }
    }

    /// Minimum received optical power (W) that sustains `bits` effective
    /// bits, found by bisection over a 60 dB span above sensitivity.
    ///
    /// The bisection runs at most 200 steps and stops early once its
    /// bracket is a fixed point, which gives the 200-step result exactly:
    /// `hi` always supports `bits` and every `lo` but the first has
    /// failed, so a midpoint equal to `hi`, or to a `lo` that has moved,
    /// leaves the bracket unchanged for every remaining step.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::PrecisionUnreachable`] if even the top of
    /// the search range cannot reach the target.
    pub fn required_power_w(&self, bits: u32) -> Result<f64, PhotonicError> {
        let lo0 = self.detector.sensitivity_w();
        let hi0 = lo0 * 1e6;
        if !self.supports_bits(hi0, bits) {
            let top = self.evaluate(hi0).map(|r| r.enob).unwrap_or(0.0);
            return Err(PhotonicError::PrecisionUnreachable {
                target_bits: bits,
                achieved_bits: top,
            });
        }
        let (mut lo, mut hi) = (lo0, hi0);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt(); // geometric bisection over decades
            if mid == hi || (mid == lo && lo != lo0) {
                break;
            }
            if self.supports_bits(mid, bits) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }
}

/// Draws a noisy observation of `value` with relative standard deviation
/// `relative_sigma`, the injection primitive used by the functional
/// simulators.
#[inline]
pub fn perturb(value: f64, relative_sigma: f64, rng: &mut Prng) -> f64 {
    if relative_sigma <= 0.0 {
        return value;
    }
    value + value.abs().max(1e-30) * rng.normal(0.0, relative_sigma)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_noise_known_value() {
        // 2·1.602e-19·1e-3·1e10 = 3.204e-12.
        let v = shot_noise_var(1e-3, 1e10);
        assert!((v - 3.204_353_268e-12).abs() / v < 1e-6);
    }

    #[test]
    fn thermal_noise_known_value() {
        // 4kTΔf/R at 300 K, 10 GHz, 50 Ω ≈ 3.31e-12 A².
        let v = thermal_noise_var(1e10, 50.0, 300.0);
        assert!((v - 3.313_557_6e-12).abs() / v < 1e-6);
    }

    #[test]
    fn enob_reference_points() {
        assert!((enob(49.92) - 8.0).abs() < 0.01);
        assert!((enob(1.76)).abs() < 1e-12);
    }

    #[test]
    fn default_budget_sustains_8_bits_at_one_milliwatt() {
        let nb = NoiseBudget::default();
        let r = nb.evaluate(1e-3).unwrap();
        assert!(r.enob >= 8.0, "enob = {}", r.enob);
        assert!(r.snr_db > 49.9);
    }

    #[test]
    fn weak_signal_fails_8_bits() {
        let nb = NoiseBudget::default();
        // 20 µW: detectable but too noisy for 8 bits.
        let r = nb.evaluate(20e-6).unwrap();
        assert!(r.enob < 8.0, "enob = {}", r.enob);
        assert!(!nb.supports_bits(20e-6, 8));
    }

    #[test]
    fn undetectable_power_errors() {
        let nb = NoiseBudget::default();
        assert!(matches!(
            nb.evaluate(1e-6),
            Err(PhotonicError::SignalUndetectable { .. })
        ));
    }

    #[test]
    fn crosstalk_degrades_enob() {
        let clean = NoiseBudget::default();
        let dirty = NoiseBudget {
            crosstalk_ratio: 0.01,
            ..clean
        };
        let p = 0.5e-3;
        assert!(dirty.evaluate(p).unwrap().enob < clean.evaluate(p).unwrap().enob);
    }

    #[test]
    fn required_power_is_monotone_in_bits() {
        let nb = NoiseBudget::default();
        let p8 = nb.required_power_w(8).unwrap();
        let p6 = nb.required_power_w(6).unwrap();
        assert!(p8 > p6);
        // The found power indeed supports the target.
        assert!(nb.supports_bits(p8 * 1.0001, 8));
    }

    /// The full 200-step bisection `required_power_w` stops early on.
    fn required_power_200_steps(nb: &NoiseBudget, bits: u32) -> Result<f64, PhotonicError> {
        let lo0 = nb.detector.sensitivity_w();
        let hi0 = lo0 * 1e6;
        if !nb.supports_bits(hi0, bits) {
            let top = nb.evaluate(hi0).map(|r| r.enob).unwrap_or(0.0);
            return Err(PhotonicError::PrecisionUnreachable {
                target_bits: bits,
                achieved_bits: top,
            });
        }
        let (mut lo, mut hi) = (lo0, hi0);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if nb.supports_bits(mid, bits) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    #[test]
    fn early_exit_bisection_equals_the_200_step_loop() {
        // TRON's and GHOST's default budget, the residual-crosstalk
        // budgets the design-space sweep provisions (one of them past
        // reach at high bit counts), a detector behind 3 dB of laser
        // droop, and a hot low-impedance front end.
        let default = NoiseBudget::default();
        let budgets = [
            default,
            NoiseBudget {
                crosstalk_ratio: 1e-3,
                ..default
            },
            NoiseBudget {
                crosstalk_ratio: 0.05,
                ..default
            },
            NoiseBudget {
                detector: Photodetector {
                    responsivity_a_per_w: default.detector.responsivity_a_per_w
                        * crate::constants::db_to_ratio(-3.0),
                    ..default.detector
                },
                ..default
            },
            NoiseBudget {
                load_ohms: 50.0,
                temperature_k: 350.0,
                ..default
            },
        ];
        for nb in budgets {
            for bits in 1..=16 {
                let got = nb.required_power_w(bits).map(f64::to_bits);
                let want = required_power_200_steps(&nb, bits).map(f64::to_bits);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{bits} bits on {nb:?}"
                );
            }
        }
    }

    #[test]
    fn unreachable_precision_reports_achieved() {
        let nb = NoiseBudget {
            crosstalk_ratio: 0.05, // floors SNR around 26 dB
            ..NoiseBudget::default()
        };
        match nb.required_power_w(8) {
            Err(PhotonicError::PrecisionUnreachable {
                target_bits,
                achieved_bits,
            }) => {
                assert_eq!(target_bits, 8);
                assert!(achieved_bits < 8.0);
            }
            other => panic!("expected PrecisionUnreachable, got {other:?}"),
        }
    }

    #[test]
    fn perturb_zero_sigma_is_identity() {
        let mut rng = Prng::new(1);
        assert_eq!(perturb(3.0, 0.0, &mut rng), 3.0);
    }

    #[test]
    fn perturb_statistics() {
        let mut rng = Prng::new(2);
        let n = 10_000;
        let sigma = 0.01;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let v = perturb(1.0, sigma, &mut rng);
            sum += v;
            sq += (v - 1.0) * (v - 1.0);
        }
        let mean = sum / n as f64;
        let sd = (sq / n as f64).sqrt();
        assert!((mean - 1.0).abs() < 1e-3);
        assert!((sd - sigma).abs() < 1e-3);
    }

    #[test]
    fn snr_rejects_degenerate_inputs() {
        assert!(snr_db(0.0, 1.0).is_err());
        assert!(snr_db(1.0, 0.0).is_err());
    }
}
