//! Opto-electronic device models: VCSELs, photodetectors (including the
//! balanced photodetectors that realise signed arithmetic), SOAs, and
//! TIAs.

use crate::constants::{dbm_to_watts, watts_to_dbm};
use crate::PhotonicError;

/// A vertical-cavity surface-emitting laser source.
///
/// §IV: *"VCSEL units are laser sources that can be configured to generate
/// an optical signal with a certain wavelength and an amplitude specified
/// by an input analog signal."* VCSELs feed both the WDM compute
/// waveguides and the coherent-summation circuits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vcsel {
    /// Emission wavelength, nm.
    pub wavelength_nm: f64,
    /// Maximum optical output power, W.
    pub max_power_w: f64,
    /// Wall-plug efficiency (optical out / electrical in), in `(0, 1]`.
    pub wall_plug_efficiency: f64,
}

impl Default for Vcsel {
    /// A 1550 nm VCSEL with 2 mW max output at 25 % wall-plug efficiency.
    fn default() -> Self {
        Vcsel {
            wavelength_nm: 1550.0,
            max_power_w: 2e-3,
            wall_plug_efficiency: 0.25,
        }
    }
}

impl Vcsel {
    /// Emits `fraction ∈ [0, 1]` of the maximum optical power and reports
    /// `(optical_w, electrical_w)`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::ValueOutOfRange`] if `fraction` is outside
    /// `[0, 1]`.
    pub fn emit(&self, fraction: f64) -> Result<(f64, f64), PhotonicError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(PhotonicError::ValueOutOfRange {
                value: fraction,
                lo: 0.0,
                hi: 1.0,
            });
        }
        let optical = self.max_power_w * fraction;
        Ok((optical, optical / self.wall_plug_efficiency))
    }
}

/// A PIN photodetector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodetector {
    /// Responsivity, A/W.
    pub responsivity_a_per_w: f64,
    /// Sensitivity (minimum detectable average power), dBm.
    pub sensitivity_dbm: f64,
    /// Receiver electrical bandwidth, Hz.
    pub bandwidth_hz: f64,
    /// Static power of the detector + biasing, W.
    pub static_power_w: f64,
}

impl Default for Photodetector {
    /// A 1.2 A/W germanium detector with −20 dBm sensitivity at 10 GHz.
    fn default() -> Self {
        Photodetector {
            responsivity_a_per_w: 1.2,
            sensitivity_dbm: -20.0,
            bandwidth_hz: 10e9,
            static_power_w: 1e-4,
        }
    }
}

impl Photodetector {
    /// Photocurrent produced by `optical_w` incident power, A.
    pub fn photocurrent_a(&self, optical_w: f64) -> f64 {
        self.responsivity_a_per_w * optical_w.max(0.0)
    }

    /// Sensitivity expressed in watts.
    pub fn sensitivity_w(&self) -> f64 {
        dbm_to_watts(self.sensitivity_dbm)
    }

    /// `true` if `optical_w` is detectable.
    pub fn detects(&self, optical_w: f64) -> bool {
        optical_w >= self.sensitivity_w()
    }

    /// Margin (dB) between the received power and the sensitivity floor.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::SignalUndetectable`] if the received power
    /// is below sensitivity.
    pub fn margin_db(&self, optical_w: f64) -> Result<f64, PhotonicError> {
        if optical_w <= 0.0 || !self.detects(optical_w) {
            return Err(PhotonicError::SignalUndetectable {
                received_dbm: if optical_w > 0.0 {
                    watts_to_dbm(optical_w)
                } else {
                    f64::NEG_INFINITY
                },
                sensitivity_dbm: self.sensitivity_dbm,
            });
        }
        Ok(watts_to_dbm(optical_w) - self.sensitivity_dbm)
    }
}

/// A balanced photodetector: two matched PDs on a positive and a negative
/// arm whose photocurrents subtract (§V.C).
///
/// > *"BPDs facilitate the handling of both positive and negative
/// > parameter values by incorporating distinct positive and negative arms
/// > within the same waveguide. The sum obtained from the negative arm is
/// > subtracted from the sum originating from the positive arm."*
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BalancedPhotodetector {
    /// The matched detector pair (identical arms).
    pub arm: Photodetector,
}

impl BalancedPhotodetector {
    /// Differential photocurrent for the positive/negative arm powers, A
    /// (positive minus negative).
    pub fn differential_current_a(&self, positive_w: f64, negative_w: f64) -> f64 {
        self.arm.photocurrent_a(positive_w) - self.arm.photocurrent_a(negative_w)
    }

    /// Static power of both arms, W.
    pub fn static_power_w(&self) -> f64 {
        2.0 * self.arm.static_power_w
    }
}

/// A semiconductor optical amplifier used as an all-optical nonlinearity.
///
/// §V.D: *"Non-linear activation functions such as RELU, sigmoid, and tanh
/// are implemented optically using semiconductor-optical-amplifiers
/// (SOAs)."* We model the SOA's saturable gain and the small residual
/// error of approximating ideal activations with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Soa {
    /// Small-signal gain, dB.
    pub gain_db: f64,
    /// Output saturation power, W.
    pub saturation_power_w: f64,
    /// Bias (static) power, W.
    pub static_power_w: f64,
    /// Relative amplitude error of the realized activation vs the ideal
    /// mathematical function (calibration residual).
    pub activation_error: f64,
}

impl Default for Soa {
    /// 10 dB gain, 10 mW output saturation, 5 mW bias, 0.5 % residual.
    fn default() -> Self {
        Soa {
            gain_db: 10.0,
            saturation_power_w: 10e-3,
            static_power_w: 5e-3,
            activation_error: 5e-3,
        }
    }
}

/// The activation functions the SOA-based update units support optically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpticalActivation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl std::fmt::Display for OpticalActivation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpticalActivation::Relu => write!(f, "relu"),
            OpticalActivation::Sigmoid => write!(f, "sigmoid"),
            OpticalActivation::Tanh => write!(f, "tanh"),
        }
    }
}

impl Soa {
    /// Saturated gain applied to `input_w` optical power (simple
    /// gain-compression model `G = G0 / (1 + P_out/P_sat)` solved to first
    /// order).
    pub fn amplify_w(&self, input_w: f64) -> f64 {
        let g0 = crate::constants::db_to_ratio(self.gain_db);
        let linear = g0 * input_w.max(0.0);
        // First-order compression: P_out = G0·P_in / (1 + G0·P_in/P_sat).
        linear / (1.0 + linear / self.saturation_power_w)
    }

    /// Applies an activation to a normalized value `x`, returning the
    /// value the analog SOA circuit produces: the ideal function scaled by
    /// `(1 ± activation_error)` in the worst case. Here we return the
    /// deterministic ideal value; stochastic error injection is handled by
    /// the noise model so functional simulations can seed it.
    pub fn activate(&self, f: OpticalActivation, x: f64) -> f64 {
        match f {
            OpticalActivation::Relu => x.max(0.0),
            OpticalActivation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            OpticalActivation::Tanh => x.tanh(),
        }
    }
}

/// A transimpedance amplifier converting photocurrent to voltage for the
/// ADC front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tia {
    /// Transimpedance gain, Ω (V/A).
    pub gain_ohms: f64,
    /// Power consumption, W.
    pub power_w: f64,
}

impl Default for Tia {
    /// 1 kΩ, 3 mW — representative 10 GHz CMOS TIA.
    fn default() -> Self {
        Tia {
            gain_ohms: 1_000.0,
            power_w: 3e-3,
        }
    }
}

impl Tia {
    /// Output voltage for a given photocurrent.
    pub fn output_v(&self, current_a: f64) -> f64 {
        self.gain_ohms * current_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcsel_emit_scales_linearly() {
        let v = Vcsel::default();
        let (opt, elec) = v.emit(0.5).unwrap();
        assert!((opt - 1e-3).abs() < 1e-12);
        assert!((elec - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn vcsel_rejects_out_of_range() {
        let v = Vcsel::default();
        assert!(v.emit(-0.1).is_err());
        assert!(v.emit(1.1).is_err());
        assert!(v.emit(0.0).is_ok());
        assert!(v.emit(1.0).is_ok());
    }

    #[test]
    fn photocurrent_is_responsivity_times_power() {
        let pd = Photodetector::default();
        assert!((pd.photocurrent_a(1e-3) - 1.2e-3).abs() < 1e-15);
        assert_eq!(pd.photocurrent_a(-1.0), 0.0);
    }

    #[test]
    fn sensitivity_check() {
        let pd = Photodetector::default(); // -20 dBm = 10 µW
        assert!(pd.detects(20e-6));
        assert!(!pd.detects(5e-6));
        assert!((pd.sensitivity_w() - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn margin_db_computation() {
        let pd = Photodetector::default();
        // 1 mW = 0 dBm, sensitivity -20 dBm -> 20 dB margin.
        assert!((pd.margin_db(1e-3).unwrap() - 20.0).abs() < 1e-9);
        assert!(matches!(
            pd.margin_db(1e-6),
            Err(PhotonicError::SignalUndetectable { .. })
        ));
        assert!(pd.margin_db(0.0).is_err());
    }

    #[test]
    fn bpd_subtracts_arms() {
        let bpd = BalancedPhotodetector::default();
        let i = bpd.differential_current_a(2e-3, 0.5e-3);
        assert!((i - 1.2 * 1.5e-3).abs() < 1e-12);
        assert!(bpd.differential_current_a(0.5e-3, 2e-3) < 0.0);
        assert!((bpd.static_power_w() - 2e-4).abs() < 1e-15);
    }

    #[test]
    fn soa_gain_compresses() {
        let soa = Soa::default();
        // Small signal: ~10 dB gain.
        let small = soa.amplify_w(1e-6);
        assert!((small / 1e-6 - 10.0).abs() < 0.1);
        // Large signal: output saturates near P_sat.
        let large = soa.amplify_w(0.1);
        assert!(large < soa.saturation_power_w);
        // Monotone.
        assert!(soa.amplify_w(2e-3) > soa.amplify_w(1e-3));
    }

    #[test]
    fn soa_activations_match_ideal() {
        let soa = Soa::default();
        assert_eq!(soa.activate(OpticalActivation::Relu, -1.0), 0.0);
        assert_eq!(soa.activate(OpticalActivation::Relu, 2.0), 2.0);
        assert!((soa.activate(OpticalActivation::Sigmoid, 0.0) - 0.5).abs() < 1e-12);
        assert!((soa.activate(OpticalActivation::Tanh, 100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tia_converts_current_to_voltage() {
        let tia = Tia::default();
        assert!((tia.output_v(1e-3) - 1.0).abs() < 1e-12);
    }
}
