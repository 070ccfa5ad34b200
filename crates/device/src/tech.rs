//! Technology-level constants for the 90 nm process the PG-MCML library
//! targets.
//!
//! The paper uses a commercial 90 nm CMOS process; the numbers here are
//! representative public values for that node (supply, oxide capacitance,
//! metal pitch, standard-cell track height). They anchor the layout-area
//! model in `mcml-cells` and default biasing in `mcml-char`.

use serde::{Deserialize, Serialize};

/// A CMOS process technology description.
///
/// All lengths are in metres, capacitances in farads per square metre or
/// farads per metre as noted, voltages in volts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technology {
    /// Human-readable node name, e.g. `"cmos90"`.
    pub name: String,
    /// Nominal supply voltage (V). 1.2 V for the 90 nm node.
    pub vdd: f64,
    /// Minimum drawn channel length (m).
    pub l_min: f64,
    /// Minimum drawn transistor width (m).
    pub w_min: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per width (F/m).
    pub c_overlap: f64,
    /// Source/drain junction capacitance per area (F/m²).
    pub cj: f64,
    /// Source/drain junction sidewall capacitance per perimeter (F/m).
    pub cjsw: f64,
    /// Default source/drain diffusion extension (m) used to estimate
    /// junction areas when layout detail is unavailable.
    pub ld_diff: f64,
    /// Routing wire capacitance per length (F/m), used by the fat-wire
    /// wire-load model.
    pub c_wire: f64,
    /// Routing wire resistance per length (Ω/m).
    pub r_wire: f64,
    /// Metal-1 routing pitch (m); the standard-cell placement grid.
    pub m1_pitch: f64,
    /// Standard-cell row height in routing tracks (the Badel et al.
    /// differential-cell methodology uses a fixed-height row template).
    pub cell_height_tracks: u32,
    /// Nominal junction temperature (K).
    pub temp: f64,
}

impl Technology {
    /// The 90 nm CMOS process used throughout the reproduction.
    ///
    /// ```
    /// let t = mcml_device::Technology::cmos90();
    /// assert_eq!(t.vdd, 1.2);
    /// ```
    #[must_use]
    pub fn cmos90() -> Self {
        Self {
            name: "cmos90".to_owned(),
            vdd: 1.2,
            l_min: 0.10e-6,
            w_min: 0.12e-6,
            // tox ≈ 2.2 nm -> Cox = eps_ox / tox ≈ 15.7 fF/µm².
            cox: 15.7e-3,
            c_overlap: 0.25e-9,
            cj: 1.0e-3,
            cjsw: 0.15e-9,
            ld_diff: 0.24e-6,
            c_wire: 0.20e-9,
            r_wire: 0.50e6,
            m1_pitch: 0.28e-6,
            cell_height_tracks: 10,
            temp: 300.15,
        }
    }

    /// Thermal voltage `kT/q` (V) at this technology's nominal temperature.
    #[must_use]
    pub fn ut(&self) -> f64 {
        crate::thermal_voltage(self.temp)
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::cmos90()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmos90_sanity() {
        let t = Technology::cmos90();
        assert_eq!(t.name, "cmos90");
        assert!(t.l_min < t.w_min * 2.0);
        assert!(t.cox > 10e-3 && t.cox < 25e-3, "Cox plausible for 90 nm");
        assert!(t.ut() > 0.025 && t.ut() < 0.027);
    }

    #[test]
    fn default_is_cmos90() {
        assert_eq!(Technology::default(), Technology::cmos90());
    }

    #[test]
    fn clone_preserves_equality() {
        let t = Technology::cmos90();
        let u = t.clone();
        assert_eq!(t, u);
    }
}
