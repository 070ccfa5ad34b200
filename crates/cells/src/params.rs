//! Cell sizing and biasing parameters.

use mcml_device::{Corner, Technology};
use serde::{Deserialize, Serialize};

use crate::kind::DriveStrength;
use crate::style::SleepTopology;

/// Electrical design parameters shared by all cells of a library build.
///
/// The paper's library design space: *"Vp, Vn, and sizing are the design
/// parameters which determine the performances of MCML circuits"*, with
/// the bias current chosen at 50 µA from the Fig. 3 area–delay study and a
/// high-Vt NMOS network / low-Vt PMOS load device mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Process technology.
    pub tech: Technology,
    /// Process corner for all devices.
    pub corner: Corner,
    /// Tail (bias) current per stage at X1 drive (A). The library value is
    /// 50 µA.
    pub iss: f64,
    /// Differential output swing `Iss·R` (V).
    pub vswing: f64,
    /// Drive strength; X4 scales widths and tail current by 4.
    pub drive: DriveStrength,
    /// Power-gating topology used when the cell is built as PG-MCML.
    pub sleep_topology: SleepTopology,
    /// Base width of a differential-pair NMOS at the top stack level (m).
    pub w_pair: f64,
    /// Width of the tail current-source NMOS (m).
    pub w_tail: f64,
    /// Width of the sleep NMOS (m). The paper sizes it equal to the
    /// current source so both share one diffusion region.
    pub w_sleep: f64,
    /// Width of the PMOS active-load devices (m).
    pub w_load: f64,
    /// Drawn channel length for logic devices (m).
    pub l: f64,
    /// Drawn channel length for the tail current source (m); longer for
    /// better matching and output resistance.
    pub l_tail: f64,
    /// Attach estimated device parasitics (recommended; required for
    /// meaningful delays).
    pub with_parasitics: bool,
}

impl CellParams {
    /// Library-default parameters (50 µA, 0.4 V swing, X1, topology (d)).
    #[must_use]
    pub fn new() -> Self {
        Self {
            tech: Technology::cmos90(),
            corner: Corner::Tt,
            iss: 50e-6,
            vswing: 0.4,
            drive: DriveStrength::X1,
            sleep_topology: SleepTopology::SeriesSleep,
            w_pair: 1.0e-6,
            w_tail: 2.0e-6,
            w_sleep: 2.0e-6,
            w_load: 0.6e-6,
            l: 0.10e-6,
            l_tail: 0.20e-6,
            with_parasitics: true,
        }
    }

    /// Same parameters at a different tail current (used by the Fig. 3
    /// bias sweep). Pair and tail widths scale proportionally so the
    /// devices stay at a comparable inversion level.
    #[must_use]
    pub fn with_iss(&self, iss: f64) -> Self {
        assert!(iss > 0.0 && iss.is_finite(), "iss must be positive");
        let k = iss / self.iss;
        Self {
            iss,
            w_pair: self.w_pair * k.max(0.2),
            w_tail: self.w_tail * k.max(0.2),
            w_sleep: self.w_sleep * k.max(0.2),
            // The load must stay able to deliver Iss at the swing drop;
            // width grows sublinearly (deeper triode at higher currents).
            w_load: self.w_load * k.powf(0.75).max(0.5),
            ..self.clone()
        }
    }

    /// Effective width multiplier from the drive strength.
    #[must_use]
    pub fn drive_mult(&self) -> f64 {
        self.drive.multiplier()
    }

    /// Effective tail current including drive scaling (A).
    #[must_use]
    pub fn iss_effective(&self) -> f64 {
        self.iss * self.drive_mult()
    }

    /// The low output level `Vdd − Vswing` (V).
    #[must_use]
    pub fn v_low(&self) -> f64 {
        self.tech.vdd - self.vswing
    }

    /// Check that the parameters describe a physically buildable cell:
    /// every float finite, widths/lengths/current strictly positive, and
    /// the output swing inside the supply (`0 < Vswing < Vdd`).
    ///
    /// The device model itself asserts positive geometry, so anything
    /// that feeds externally supplied parameters into `build_cell` (the
    /// characterisation harness, the sizing optimizer) calls this first
    /// and turns a bad candidate into a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("iss", self.iss),
            ("w_pair", self.w_pair),
            ("w_tail", self.w_tail),
            ("w_sleep", self.w_sleep),
            ("w_load", self.w_load),
            ("l", self.l),
            ("l_tail", self.l_tail),
        ];
        for (name, v) in positive {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be finite and positive, got {v:e}"));
            }
        }
        if !self.vswing.is_finite() || self.vswing <= 0.0 || self.vswing >= self.tech.vdd {
            return Err(format!(
                "vswing must lie strictly inside (0, Vdd = {}), got {:e}",
                self.tech.vdd, self.vswing
            ));
        }
        Ok(())
    }
}

impl Default for CellParams {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_design_point() {
        let p = CellParams::default();
        assert_eq!(p.iss, 50e-6);
        assert_eq!(p.vswing, 0.4);
        assert_eq!(p.sleep_topology, SleepTopology::SeriesSleep);
        assert_eq!(p.w_tail, p.w_sleep, "shared diffusion sizing");
    }

    #[test]
    fn iss_scaling_scales_tail_width() {
        let p = CellParams::default();
        let q = p.with_iss(100e-6);
        assert_eq!(q.iss, 100e-6);
        assert!((q.w_tail / p.w_tail - 2.0).abs() < 1e-12);
        // Load widens sublinearly: enough to deliver Iss at the swing
        // drop without scaling the full factor.
        let k_load = q.w_load / p.w_load;
        assert!(k_load > 1.0 && k_load < 2.0, "load scaling {k_load}");
    }

    #[test]
    fn drive_scaling() {
        let p = CellParams {
            drive: DriveStrength::X4,
            ..CellParams::default()
        };
        assert_eq!(p.drive_mult(), 4.0);
        assert_eq!(p.iss_effective(), 200e-6);
    }

    #[test]
    fn low_level() {
        let p = CellParams::default();
        assert!((p.v_low() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "iss must be positive")]
    fn negative_iss_rejected() {
        let _ = CellParams::default().with_iss(-1.0);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_degenerates() {
        assert!(CellParams::default().validate().is_ok());
        let zero_w = CellParams {
            w_pair: 0.0,
            ..CellParams::default()
        };
        assert!(zero_w.validate().unwrap_err().contains("w_pair"));
        let nan_l = CellParams {
            l: f64::NAN,
            ..CellParams::default()
        };
        assert!(nan_l.validate().is_err());
        let big_swing = CellParams {
            vswing: 2.0,
            ..CellParams::default()
        };
        assert!(big_swing.validate().unwrap_err().contains("vswing"));
        let neg_iss = CellParams {
            iss: -1e-6,
            ..CellParams::default()
        };
        assert!(neg_iss.validate().is_err());
    }
}
