//! MOSFET model parameter sets and process corners.
//!
//! The paper mixes device flavours deliberately: *"high-Vt devices can
//! reduce the leakage current during sleep mode without affecting the cell
//! delay, thus we selected them for the NMOS Boolean network, the current
//! source and the sleep transistor. We used low-Vt devices for the PMOS
//! load."* The four presets here reproduce that design space.

use serde::{Deserialize, Serialize};

/// Device polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosPolarity {
    /// n-channel device.
    Nmos,
    /// p-channel device.
    Pmos,
}

impl MosPolarity {
    /// `+1.0` for NMOS, `-1.0` for PMOS; the sign used to fold a PMOS into
    /// the NMOS-referenced model equations.
    #[must_use]
    pub fn sign(self) -> f64 {
        match self {
            MosPolarity::Nmos => 1.0,
            MosPolarity::Pmos => -1.0,
        }
    }
}

impl std::fmt::Display for MosPolarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosPolarity::Nmos => write!(f, "nmos"),
            MosPolarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// Threshold-voltage flavour of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VtFlavor {
    /// Low threshold voltage: fast, leaky. Used for the PMOS loads.
    Low,
    /// High threshold voltage: slower, low leakage. Used for the NMOS
    /// network, current source and sleep transistor.
    High,
}

impl std::fmt::Display for VtFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtFlavor::Low => write!(f, "lvt"),
            VtFlavor::High => write!(f, "hvt"),
        }
    }
}

/// Process corner for global device variation.
///
/// The first letter refers to the NMOS, the second to the PMOS
/// (e.g. `Fs` = fast NMOS, slow PMOS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Corner {
    /// Typical/typical — the nominal corner.
    #[default]
    Tt,
    /// Fast/fast.
    Ff,
    /// Slow/slow.
    Ss,
    /// Fast NMOS, slow PMOS.
    Fs,
    /// Slow NMOS, fast PMOS.
    Sf,
}

impl Corner {
    /// All five corners, useful for sweep loops.
    pub const ALL: [Corner; 5] = [Corner::Tt, Corner::Ff, Corner::Ss, Corner::Fs, Corner::Sf];

    /// (Vt shift in volts, mobility multiplier) applied to a device of the
    /// given polarity at this corner. Fast devices have lower |Vt| and
    /// higher mobility.
    #[must_use]
    pub fn shift(self, polarity: MosPolarity) -> (f64, f64) {
        const DVT: f64 = 0.035; // 1-sigma-ish global Vt shift
        const DMU: f64 = 0.08;
        let fast = (-DVT, 1.0 + DMU);
        let slow = (DVT, 1.0 - DMU);
        let nom = (0.0, 1.0);
        match (self, polarity) {
            (Corner::Tt, _) => nom,
            (Corner::Ff, _) => fast,
            (Corner::Ss, _) => slow,
            (Corner::Fs, MosPolarity::Nmos) | (Corner::Sf, MosPolarity::Pmos) => fast,
            (Corner::Fs, MosPolarity::Pmos) | (Corner::Sf, MosPolarity::Nmos) => slow,
        }
    }
}

impl std::fmt::Display for Corner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Corner::Tt => "TT",
            Corner::Ff => "FF",
            Corner::Ss => "SS",
            Corner::Fs => "FS",
            Corner::Sf => "SF",
        };
        write!(f, "{s}")
    }
}

/// Complete parameter set for the EKV-style MOSFET model in
/// [`crate::model`].
///
/// All parameters are NMOS-referenced positive quantities; polarity handles
/// the sign flips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosParams {
    /// Device polarity.
    pub polarity: MosPolarity,
    /// Threshold flavour (metadata; `vt0` already reflects it).
    pub flavor: VtFlavor,
    /// Zero-bias threshold voltage magnitude (V).
    pub vt0: f64,
    /// Low-field mobility × oxide capacitance, `µ·Cox` (A/V²).
    pub mu_cox: f64,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1).
    pub n_slope: f64,
    /// Channel-length-modulation coefficient λ (1/V).
    pub lambda: f64,
    /// Velocity-saturation critical field × length voltage `Ecrit·L`
    /// reference (V) at `l = l_ref`; scales linearly with drawn length.
    pub vsat_v: f64,
    /// Reference length (m) at which `vsat_v` is quoted.
    pub l_ref: f64,
    /// Gate-oxide capacitance per area (F/m²), duplicated from the
    /// technology for self-contained device evaluation.
    pub cox: f64,
    /// Junction temperature (K).
    pub temp: f64,
}

impl MosParams {
    /// 90 nm low-Vt NMOS.
    #[must_use]
    pub fn nmos_lvt_90() -> Self {
        Self {
            polarity: MosPolarity::Nmos,
            flavor: VtFlavor::Low,
            vt0: 0.22,
            mu_cox: 420e-6,
            n_slope: 1.45,
            lambda: 0.25,
            vsat_v: 0.9,
            l_ref: 0.10e-6,
            cox: 15.7e-3,
            temp: 300.15,
        }
    }

    /// 90 nm high-Vt NMOS — the flavour used for the MCML logic network,
    /// tail current source and sleep transistor.
    #[must_use]
    pub fn nmos_hvt_90() -> Self {
        Self {
            vt0: 0.35,
            mu_cox: 380e-6,
            n_slope: 1.40,
            flavor: VtFlavor::High,
            ..Self::nmos_lvt_90()
        }
    }

    /// 90 nm low-Vt PMOS — the flavour used for the MCML active loads.
    #[must_use]
    pub fn pmos_lvt_90() -> Self {
        Self {
            polarity: MosPolarity::Pmos,
            flavor: VtFlavor::Low,
            vt0: 0.24,
            mu_cox: 110e-6,
            n_slope: 1.50,
            lambda: 0.30,
            vsat_v: 1.6,
            l_ref: 0.10e-6,
            cox: 15.7e-3,
            temp: 300.15,
        }
    }

    /// 90 nm high-Vt PMOS.
    #[must_use]
    pub fn pmos_hvt_90() -> Self {
        Self {
            vt0: 0.38,
            mu_cox: 95e-6,
            flavor: VtFlavor::High,
            ..Self::pmos_lvt_90()
        }
    }

    /// Look up a preset by polarity and flavour.
    #[must_use]
    pub fn preset(polarity: MosPolarity, flavor: VtFlavor) -> Self {
        match (polarity, flavor) {
            (MosPolarity::Nmos, VtFlavor::Low) => Self::nmos_lvt_90(),
            (MosPolarity::Nmos, VtFlavor::High) => Self::nmos_hvt_90(),
            (MosPolarity::Pmos, VtFlavor::Low) => Self::pmos_lvt_90(),
            (MosPolarity::Pmos, VtFlavor::High) => Self::pmos_hvt_90(),
        }
    }

    /// Return a copy of these parameters shifted to the given process
    /// corner (Vt shift and mobility scaling).
    #[must_use]
    pub fn at_corner(&self, corner: Corner) -> Self {
        let (dvt, kmu) = corner.shift(self.polarity);
        Self {
            vt0: self.vt0 + dvt,
            mu_cox: self.mu_cox * kmu,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hvt_has_higher_threshold_than_lvt() {
        assert!(MosParams::nmos_hvt_90().vt0 > MosParams::nmos_lvt_90().vt0);
        assert!(MosParams::pmos_hvt_90().vt0 > MosParams::pmos_lvt_90().vt0);
    }

    #[test]
    fn pmos_mobility_lower_than_nmos() {
        assert!(MosParams::pmos_lvt_90().mu_cox < MosParams::nmos_lvt_90().mu_cox);
    }

    #[test]
    fn preset_lookup_matches_constructors() {
        assert_eq!(
            MosParams::preset(MosPolarity::Nmos, VtFlavor::High),
            MosParams::nmos_hvt_90()
        );
        assert_eq!(
            MosParams::preset(MosPolarity::Pmos, VtFlavor::Low),
            MosParams::pmos_lvt_90()
        );
    }

    #[test]
    fn fast_corner_lowers_vt_and_raises_mobility() {
        let nom = MosParams::nmos_hvt_90();
        let ff = nom.at_corner(Corner::Ff);
        assert!(ff.vt0 < nom.vt0);
        assert!(ff.mu_cox > nom.mu_cox);
    }

    #[test]
    fn skew_corners_are_asymmetric() {
        let n = MosParams::nmos_lvt_90().at_corner(Corner::Fs);
        let p = MosParams::pmos_lvt_90().at_corner(Corner::Fs);
        assert!(n.vt0 < MosParams::nmos_lvt_90().vt0, "NMOS fast at FS");
        assert!(p.vt0 > MosParams::pmos_lvt_90().vt0, "PMOS slow at FS");
    }

    #[test]
    fn tt_corner_is_identity() {
        let nom = MosParams::nmos_hvt_90();
        assert_eq!(nom.at_corner(Corner::Tt), nom);
    }

    #[test]
    fn corner_display_and_all() {
        assert_eq!(Corner::ALL.len(), 5);
        assert_eq!(Corner::Tt.to_string(), "TT");
        assert_eq!(Corner::Fs.to_string(), "FS");
    }

    #[test]
    fn polarity_sign() {
        assert_eq!(MosPolarity::Nmos.sign(), 1.0);
        assert_eq!(MosPolarity::Pmos.sign(), -1.0);
    }
}
