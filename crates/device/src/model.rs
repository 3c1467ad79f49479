//! The analytic body-bias response model (paper Fig. 1).

use serde::{Deserialize, Serialize};

use crate::{BiasVoltage, DeviceError};

/// Analytic model of how forward body bias affects gate delay and leakage.
///
/// Calibrated against the paper's SPICE measurements of a 45 nm inverter
/// (Fig. 1): a **linear** speed-up reaching 21 % at `vbs = 0.95 V` and an
/// **exponential** leakage increase reaching 12.74× at `vbs = 0.95 V`.
/// The usable range is capped at 0.5 V, where the forward source–body
/// junction current starts to dominate (§3.2, citing Narendra et al.).
///
/// ```
/// use fbb_device::{BiasVoltage, BodyBiasModel};
///
/// let m = BodyBiasModel::date09_45nm();
/// let half = BiasVoltage::from_millivolts(500);
/// // ~11% faster and ~3.8x leakier at the maximum usable bias.
/// assert!((m.speedup_fraction(half) - 0.11).abs() < 0.01);
/// assert!((m.leakage_multiplier(half) - 3.8).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BodyBiasModel {
    /// Fractional delay reduction per volt of `vbs` (linear region slope).
    speedup_per_volt: f64,
    /// Exponent of the leakage growth: `L(v) = L0 · exp(alpha · v)`.
    leakage_alpha: f64,
    /// Supply voltage in volts (PMOS body sees `Vdd − vbs`).
    vdd: f64,
    /// Maximum bias the allocator may use before junction current dominates.
    usable_max: BiasVoltage,
    /// Knee voltage of the source–body junction diode.
    junction_knee: f64,
    /// Slope (per volt) of the exponential junction-current turn-on.
    junction_slope: f64,
}

impl BodyBiasModel {
    /// The paper's 45 nm calibration.
    ///
    /// Anchors: 21 % speed-up and 12.74× leakage at `vbs = 0.95 V`;
    /// usable range 0–0.5 V.
    pub fn date09_45nm() -> Self {
        BodyBiasModel {
            speedup_per_volt: 0.21 / 0.95,
            leakage_alpha: 12.74f64.ln() / 0.95,
            vdd: 0.95,
            usable_max: BiasVoltage::from_millivolts(500),
            junction_knee: 0.55,
            junction_slope: 25.0,
        }
    }

    /// Builds a custom model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidModel`] if a full-range bias would drive
    /// the delay factor to zero or below (`speedup_per_volt · vdd >= 1`), or
    /// if any parameter is non-positive / non-finite.
    pub fn new(
        speedup_per_volt: f64,
        leakage_alpha: f64,
        vdd: f64,
        usable_max: BiasVoltage,
    ) -> Result<Self, DeviceError> {
        let finite_positive =
            |x: f64| x.is_finite() && x > 0.0;
        if !finite_positive(speedup_per_volt) || !finite_positive(leakage_alpha) || !finite_positive(vdd)
        {
            return Err(DeviceError::InvalidModel(
                "model parameters must be finite and positive".into(),
            ));
        }
        if speedup_per_volt * vdd >= 1.0 {
            return Err(DeviceError::InvalidModel(format!(
                "speed-up slope {speedup_per_volt}/V reaches 100% delay reduction within vdd={vdd}V"
            )));
        }
        if usable_max.volts() > vdd {
            return Err(DeviceError::InvalidModel(
                "usable bias range cannot exceed vdd".into(),
            ));
        }
        Ok(BodyBiasModel {
            speedup_per_volt,
            leakage_alpha,
            vdd,
            usable_max,
            junction_knee: usable_max.volts() + 0.05,
            junction_slope: 25.0,
        })
    }

    /// Supply voltage in volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The maximum bias the allocator should distribute (0.5 V in the paper).
    pub fn usable_max(&self) -> BiasVoltage {
        self.usable_max
    }

    /// Whether `vbs` is inside the usable allocation range.
    pub fn is_usable(&self, vbs: BiasVoltage) -> bool {
        vbs <= self.usable_max
    }

    /// Fractional delay reduction at `vbs` (0.0 = no change, 0.21 = 21 % faster).
    pub fn speedup_fraction(&self, vbs: BiasVoltage) -> f64 {
        self.speedup_per_volt * vbs.volts()
    }

    /// Multiplier applied to nominal delay at `vbs` (`1 − speedup`).
    pub fn delay_factor(&self, vbs: BiasVoltage) -> f64 {
        1.0 - self.speedup_fraction(vbs)
    }

    /// Multiplier applied to nominal subthreshold leakage at `vbs`.
    pub fn leakage_multiplier(&self, vbs: BiasVoltage) -> f64 {
        (self.leakage_alpha * vbs.volts()).exp()
    }

    /// Additional current drawn by the forward-biased source–body junction,
    /// expressed as an equivalent leakage multiplier contribution.
    ///
    /// Negligible below the knee (~0.55 V), exponential above it. This is the
    /// effect that motivates the paper's 0.5 V cap; it matters for the Fig. 1
    /// sweep up to 0.95 V but never inside the usable range.
    pub fn junction_multiplier(&self, vbs: BiasVoltage) -> f64 {
        let v = vbs.volts();
        if v <= 0.0 {
            return 0.0;
        }
        (self.junction_slope * (v - self.junction_knee)).exp().min(1e6)
    }

    /// Total off-state current multiplier including junction conduction,
    /// as measured at the source terminal in the paper's SPICE setup.
    pub fn total_leakage_multiplier(&self, vbs: BiasVoltage) -> f64 {
        self.leakage_multiplier(vbs) + self.junction_multiplier(vbs)
    }

    /// The complete parameter set of this model, for serialization.
    ///
    /// [`BodyBiasModel::from_params`] rebuilds a bit-identical model from
    /// the returned value.
    pub fn params(&self) -> BodyBiasParams {
        BodyBiasParams {
            speedup_per_volt: self.speedup_per_volt,
            leakage_alpha: self.leakage_alpha,
            vdd: self.vdd,
            usable_max_mv: self.usable_max.millivolts(),
            junction_knee: self.junction_knee,
            junction_slope: self.junction_slope,
        }
    }

    /// Rebuilds a model from a [`BodyBiasModel::params`] snapshot.
    ///
    /// Unlike [`BodyBiasModel::new`], the junction parameters are restored
    /// verbatim rather than re-derived, so `from_params(m.params())` is
    /// bit-identical to `m`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidModel`] under the same rules as
    /// [`BodyBiasModel::new`], extended to the junction parameters.
    pub fn from_params(p: BodyBiasParams) -> Result<Self, DeviceError> {
        let usable_max = BiasVoltage::from_millivolts(p.usable_max_mv);
        let base = Self::new(p.speedup_per_volt, p.leakage_alpha, p.vdd, usable_max)?;
        let finite_positive = |x: f64| x.is_finite() && x > 0.0;
        if !finite_positive(p.junction_knee) || !finite_positive(p.junction_slope) {
            return Err(DeviceError::InvalidModel(
                "junction parameters must be finite and positive".into(),
            ));
        }
        Ok(BodyBiasModel {
            junction_knee: p.junction_knee,
            junction_slope: p.junction_slope,
            ..base
        })
    }
}

/// Raw parameter snapshot of a [`BodyBiasModel`] (see
/// [`BodyBiasModel::params`]); the unit of exchange for serialization
/// layers that persist a model and rebuild it bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyBiasParams {
    /// Fractional delay reduction per volt of `vbs`.
    pub speedup_per_volt: f64,
    /// Exponent of the leakage growth: `L(v) = L0 · exp(alpha · v)`.
    pub leakage_alpha: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Maximum usable bias in millivolts.
    pub usable_max_mv: u32,
    /// Knee voltage of the source–body junction diode.
    pub junction_knee: f64,
    /// Slope (per volt) of the exponential junction-current turn-on.
    pub junction_slope: f64,
}

impl Default for BodyBiasModel {
    fn default() -> Self {
        Self::date09_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> BodyBiasModel {
        BodyBiasModel::date09_45nm()
    }

    #[test]
    fn fig1_anchor_points() {
        let full = BiasVoltage::from_millivolts(950);
        assert!((m().speedup_fraction(full) - 0.21).abs() < 1e-12);
        assert!((m().leakage_multiplier(full) - 12.74).abs() < 1e-9);
    }

    #[test]
    fn delay_is_linear_in_vbs() {
        let model = m();
        let s1 = model.speedup_fraction(BiasVoltage::from_millivolts(100));
        let s2 = model.speedup_fraction(BiasVoltage::from_millivolts(200));
        let s4 = model.speedup_fraction(BiasVoltage::from_millivolts(400));
        assert!((s2 - 2.0 * s1).abs() < 1e-12);
        assert!((s4 - 4.0 * s1).abs() < 1e-12);
    }

    #[test]
    fn leakage_is_exponential_in_vbs() {
        let model = m();
        let l1 = model.leakage_multiplier(BiasVoltage::from_millivolts(100));
        let l2 = model.leakage_multiplier(BiasVoltage::from_millivolts(200));
        // exp(2x) == exp(x)^2
        assert!((l2 - l1 * l1).abs() < 1e-9);
    }

    #[test]
    fn nbb_is_identity() {
        let model = m();
        assert_eq!(model.speedup_fraction(BiasVoltage::ZERO), 0.0);
        assert_eq!(model.delay_factor(BiasVoltage::ZERO), 1.0);
        assert_eq!(model.leakage_multiplier(BiasVoltage::ZERO), 1.0);
    }

    #[test]
    fn junction_current_negligible_in_usable_range() {
        let model = m();
        assert!(model.junction_multiplier(BiasVoltage::from_millivolts(500)) < 0.3);
        // ... but dominates near vdd, motivating the 0.5 V cap.
        assert!(model.junction_multiplier(BiasVoltage::from_millivolts(950)) > 100.0);
    }

    #[test]
    fn usable_range_matches_paper() {
        let model = m();
        assert!(model.is_usable(BiasVoltage::from_millivolts(500)));
        assert!(!model.is_usable(BiasVoltage::from_millivolts(550)));
    }

    #[test]
    fn constructor_validates() {
        assert!(BodyBiasModel::new(2.0, 2.5, 0.95, BiasVoltage::from_millivolts(500)).is_err());
        assert!(BodyBiasModel::new(0.2, -1.0, 0.95, BiasVoltage::from_millivolts(500)).is_err());
        assert!(BodyBiasModel::new(0.2, 2.5, 0.95, BiasVoltage::from_millivolts(1500)).is_err());
        assert!(BodyBiasModel::new(0.2, 2.5, 0.95, BiasVoltage::from_millivolts(500)).is_ok());
    }
}
