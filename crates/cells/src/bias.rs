//! Bias-voltage solver: find `Vn` (tail gate) and `Vp` (load gate) for a
//! target tail current and output swing.
//!
//! In the paper's library the two analog bias lines are global: `Vn`
//! *"determines the tail current"* and `Vp` *"defines the resistivity of
//! the active load"*. This module computes both directly from the device
//! model by bisection, playing the role of the designer's bias-generation
//! step.

use mcml_device::{MosParams, Mosfet};
use serde::{Deserialize, Serialize};

use crate::params::CellParams;

/// Solved bias operating point for a library build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasPoint {
    /// Tail current-source gate voltage (V).
    pub vn: f64,
    /// PMOS active-load gate voltage (V).
    pub vp: f64,
    /// Tail current the biases were solved for (A), drive-scaled.
    pub iss: f64,
    /// Output swing the load was solved for (V).
    pub vswing: f64,
}

/// Why a bias point could not be solved for a set of cell parameters.
///
/// Produced by [`try_solve_bias`]; a candidate sizing whose devices
/// cannot deliver the requested tail current anywhere in the supply
/// range is *infeasible*, not a programming error, so callers that feed
/// machine-generated parameters (the characterisation harness, the
/// sizing optimizer) get a value to reject instead of a panic.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasError {
    /// Which bisection failed (`"tail current"` or `"load current"`).
    pub what: &'static str,
    /// Human-readable bracket description.
    pub detail: String,
}

impl std::fmt::Display for BiasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bias solve failed for {}: {}", self.what, self.detail)
    }
}

impl std::error::Error for BiasError {}

/// Solve `Vn` and `Vp` for the given cell parameters.
///
/// `Vn` is chosen so the (high-Vt) tail device carries `Iss` with ≈0.3 V
/// of drain headroom; `Vp` so the (low-Vt) load carries `Iss` at a
/// source–drain drop of exactly `Vswing` (i.e. an effective load
/// resistance of `Vswing / Iss`).
///
/// # Panics
///
/// Panics if the requested current is outside what the sized devices can
/// deliver anywhere in the supply range. Use [`try_solve_bias`] when the
/// parameters are not known-good (e.g. optimizer candidates).
#[must_use]
pub fn solve_bias(params: &CellParams) -> BiasPoint {
    match try_solve_bias(params) {
        Ok(b) => b,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`solve_bias`]: returns a [`BiasError`] instead of panicking
/// when the sized devices cannot reach the requested operating point.
///
/// # Errors
///
/// Returns [`BiasError`] if either bisection bracket does not contain the
/// target current (including NaN device currents from degenerate
/// geometry).
pub fn try_solve_bias(params: &CellParams) -> Result<BiasPoint, BiasError> {
    let iss = params.iss_effective();
    let m = params.drive_mult();

    // Tail: high-Vt NMOS, Vds fixed at a representative 0.3 V.
    let tail = Mosfet::nmos(
        MosParams::nmos_hvt_90().at_corner(params.corner),
        params.w_tail * m,
        params.l_tail,
    );
    let vn = bisect_increasing(
        |vg| tail.eval(vg, 0.3, 0.0, 0.0).id,
        iss,
        0.0,
        params.tech.vdd,
        "tail current",
    )?;

    // Load: low-Vt PMOS with source at Vdd; current magnitude at
    // Vsd = Vswing must be Iss. Lower gate voltage -> stronger device.
    let vdd = params.tech.vdd;
    let load = Mosfet::pmos(
        MosParams::pmos_lvt_90().at_corner(params.corner),
        params.w_load * m,
        params.l,
    );
    let vp = bisect_decreasing(
        |vg| -load.eval(vg, vdd - params.vswing, vdd, vdd).id,
        iss,
        0.0,
        vdd,
        "load current",
    )?;

    Ok(BiasPoint {
        vn,
        vp,
        iss,
        vswing: params.vswing,
    })
}

/// Bisect `f(x) = target` where `f` is increasing on `[lo, hi]`.
fn bisect_increasing(
    f: impl Fn(f64) -> f64,
    target: f64,
    mut lo: f64,
    mut hi: f64,
    what: &'static str,
) -> Result<f64, BiasError> {
    // NaN endpoints fail these comparisons too, which is exactly the
    // rejection we want for degenerate device geometry.
    if !(f(hi) >= target && f(lo) <= target) {
        return Err(BiasError {
            what,
            detail: format!(
                "target {target:.3e} A outside achievable range [{:.3e}, {:.3e}]",
                f(lo),
                f(hi)
            ),
        });
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Bisect `f(x) = target` where `f` is decreasing on `[lo, hi]`.
fn bisect_decreasing(
    f: impl Fn(f64) -> f64,
    target: f64,
    lo: f64,
    hi: f64,
    what: &'static str,
) -> Result<f64, BiasError> {
    // `y ↦ f(−y)` is increasing on [−hi, −lo].
    Ok(-bisect_increasing(|y| f(-y), target, -hi, -lo, what)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DriveStrength;

    #[test]
    fn tail_bias_delivers_target_current() {
        let p = CellParams::default();
        let b = solve_bias(&p);
        let tail = Mosfet::nmos(MosParams::nmos_hvt_90(), p.w_tail, p.l_tail);
        let id = tail.eval(b.vn, 0.3, 0.0, 0.0).id;
        assert!(
            (id / p.iss - 1.0).abs() < 1e-3,
            "tail current {id:.3e} vs target {:.3e}",
            p.iss
        );
        assert!(b.vn > 0.3 && b.vn < 1.0, "plausible Vn = {}", b.vn);
    }

    #[test]
    fn load_bias_sets_swing_resistance() {
        let p = CellParams::default();
        let b = solve_bias(&p);
        let load = Mosfet::pmos(MosParams::pmos_lvt_90(), p.w_load, p.l);
        let vdd = p.tech.vdd;
        let i = -load.eval(b.vp, vdd - p.vswing, vdd, vdd).id;
        assert!(
            (i / p.iss - 1.0).abs() < 1e-3,
            "load current {i:.3e} at full swing"
        );
        // The load must be *on*: Vp well below Vdd − |Vtp|.
        assert!(b.vp < vdd - 0.2, "Vp = {}", b.vp);
    }

    #[test]
    fn x4_biases_close_to_x1() {
        // Widths and current both scale 4x, so the bias point barely
        // moves — that is what makes shared bias rails possible.
        let b1 = solve_bias(&CellParams::default());
        let b4 = solve_bias(&CellParams {
            drive: DriveStrength::X4,
            ..CellParams::default()
        });
        assert!((b1.vn - b4.vn).abs() < 0.02, "{} vs {}", b1.vn, b4.vn);
        assert!((b1.vp - b4.vp).abs() < 0.02, "{} vs {}", b1.vp, b4.vp);
        assert_eq!(b4.iss, 4.0 * b1.iss);
    }

    #[test]
    fn try_solve_bias_rejects_unreachable_current() {
        // 1 A through micron-wide devices: no gate voltage inside the
        // supply can deliver it.
        let p = CellParams {
            iss: 1.0,
            ..CellParams::default()
        };
        let e = try_solve_bias(&p).unwrap_err();
        assert_eq!(e.what, "tail current");
        assert!(e.to_string().contains("outside achievable range"));
    }

    #[test]
    fn try_solve_bias_matches_solve_bias_when_feasible() {
        let p = CellParams::default();
        assert_eq!(try_solve_bias(&p).unwrap(), solve_bias(&p));
    }

    #[test]
    fn higher_iss_needs_higher_vn() {
        // At fixed W (no rescale) more current means more overdrive.
        let p50 = CellParams {
            iss: 50e-6,
            ..CellParams::default()
        };
        let p100 = CellParams {
            iss: 100e-6,
            ..p50.clone()
        };
        let b50 = solve_bias(&p50);
        let b100 = solve_bias(&p100);
        assert!(b100.vn > b50.vn);
        assert!(b100.vp < b50.vp, "stronger load for same swing");
    }
}
