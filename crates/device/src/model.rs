//! Smooth single-piece MOSFET model (EKV-style) with analytic derivatives.
//!
//! Circuit-level Newton–Raphson needs a drain-current expression that is
//! continuous **and** continuously differentiable over the whole bias plane;
//! the classical piecewise square-law (cutoff / triode / saturation) is
//! neither at its region boundaries. This module instead uses the EKV
//! interpolation
//!
//! ```text
//! Id = Ispec · (F(vp − vs) − F(vp − vd)) · (1 + λ|vds|) · f_vsat
//! F(v) = ln²(1 + exp(v / 2·UT)),   vp = (vgb − VT) / n
//! Ispec = 2 n µCox (W/L) UT²
//! ```
//!
//! which reduces to the square law in strong inversion, to an exponential
//! in weak inversion (subthreshold leakage — the effect power gating
//! exploits), and to a resistive characteristic in the triode region (the
//! MCML active loads), with no seams anywhere. The body effect enters
//! through the slope factor `n`, and a first-order velocity-saturation
//! factor models the short-channel current limit.
//!
//! All equations are NMOS-referenced; PMOS devices are folded in by
//! mirroring every terminal voltage around the bulk.

use serde::{Deserialize, Serialize};

use crate::params::{MosParams, MosPolarity};
use crate::tech::Technology;

/// Drawn geometry of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosfetGeometry {
    /// Drawn channel width (m).
    pub w: f64,
    /// Drawn channel length (m).
    pub l: f64,
}

impl MosfetGeometry {
    /// Create a geometry, validating that both dimensions are positive.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive and finite.
    #[must_use]
    pub fn new(w: f64, l: f64) -> Self {
        assert!(w.is_finite() && w > 0.0, "width must be positive, got {w}");
        assert!(l.is_finite() && l > 0.0, "length must be positive, got {l}");
        Self { w, l }
    }

    /// Aspect ratio `W/L`.
    #[must_use]
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }
}

/// Result of evaluating a MOSFET at one bias point.
///
/// `id` is the current flowing **into the drain terminal** (and out of the
/// source); for a conducting PMOS it is therefore negative. The four
/// conductances are the partial derivatives of `id` with respect to the
/// actual terminal voltages, as needed to stamp the device's Newton
/// companion model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosEval {
    /// Drain terminal current (A), positive into the drain.
    pub id: f64,
    /// ∂Id/∂Vg (S).
    pub gm: f64,
    /// ∂Id/∂Vd (S).
    pub gds: f64,
    /// ∂Id/∂Vs (S).
    pub gms: f64,
    /// ∂Id/∂Vb (S).
    pub gmb: f64,
}

/// A MOSFET instance: parameter set plus drawn geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mosfet {
    /// Model parameters (includes polarity and flavour).
    pub params: MosParams,
    /// Drawn geometry.
    pub geom: MosfetGeometry,
}

/// Numerically safe `ln(1 + exp(x))`.
fn softplus(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Numerically safe logistic `exp(x) / (1 + exp(x))`.
fn sigmoid(x: f64) -> f64 {
    if x > 35.0 {
        1.0
    } else if x < -35.0 {
        x.exp()
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Mosfet {
    /// Create a MOSFET from explicit parameters and geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`MosfetGeometry::new`]).
    #[must_use]
    pub fn new(params: MosParams, w: f64, l: f64) -> Self {
        Self {
            params,
            geom: MosfetGeometry::new(w, l),
        }
    }

    /// Convenience constructor for an NMOS.
    ///
    /// # Panics
    ///
    /// Panics if `params` is not an NMOS parameter set or geometry is
    /// invalid.
    #[must_use]
    pub fn nmos(params: MosParams, w: f64, l: f64) -> Self {
        assert_eq!(params.polarity, MosPolarity::Nmos, "expected NMOS params");
        Self::new(params, w, l)
    }

    /// Convenience constructor for a PMOS.
    ///
    /// # Panics
    ///
    /// Panics if `params` is not a PMOS parameter set or geometry is
    /// invalid.
    #[must_use]
    pub fn pmos(params: MosParams, w: f64, l: f64) -> Self {
        assert_eq!(params.polarity, MosPolarity::Pmos, "expected PMOS params");
        Self::new(params, w, l)
    }

    /// Thermal voltage at the device temperature.
    #[must_use]
    pub fn ut(&self) -> f64 {
        crate::thermal_voltage(self.params.temp)
    }

    /// Specific current `Ispec = 2 n µCox (W/L) UT²` (A).
    #[must_use]
    pub fn i_spec(&self) -> f64 {
        let p = &self.params;
        let ut = self.ut();
        2.0 * p.n_slope * p.mu_cox * self.geom.aspect() * ut * ut
    }

    /// Evaluate the device at the given terminal node voltages (V).
    ///
    /// Returns the drain current and its partial derivatives with respect
    /// to each terminal voltage (see [`MosEval`]).
    #[must_use]
    pub fn eval(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> MosEval {
        let p = &self.params;
        let s = p.polarity.sign();
        // Bulk-referenced, polarity-folded voltages: for PMOS these mirror
        // the actual biases so the NMOS equations apply unchanged.
        let vgb = s * (vg - vb);
        let vdb = s * (vd - vb);
        let vsb = s * (vs - vb);

        let ut = self.ut();
        let two_ut = 2.0 * ut;

        // Canonical symmetric EKV: the pinch-off voltage is purely
        // bulk-referenced, so drain and source are exactly interchangeable.
        // The body effect enters through the slope factor: because `vp`
        // couples to the gate with weight 1/n while the channel ends couple
        // with weight 1, the model yields gmb = (n − 1)·gm, the textbook
        // relation.
        let n = p.n_slope;
        let vp = (vgb - p.vt0) / n;
        let dvp_dvgb = 1.0 / n;

        // Forward and reverse normalised currents.
        let xf = (vp - vsb) / two_ut;
        let xr = (vp - vdb) / two_ut;
        let lf = softplus(xf);
        let lr = softplus(xr);
        let sf = sigmoid(xf);
        let sr = sigmoid(xr);
        let i_f = lf * lf;
        let i_r = lr * lr;

        // d i_f / d(vp - vsb) etc.
        let dif = lf * sf / ut;
        let dir_ = lr * sr / ut;

        let ispec = self.i_spec();
        let core = i_f - i_r;

        // Channel-length modulation, symmetric in Vds.
        let vds = vdb - vsb;
        let g_clm = 1.0 + p.lambda * vds.abs();
        let dclm_dvds = p.lambda * if vds >= 0.0 { 1.0 } else { -1.0 };

        // First-order velocity saturation: degrade the current by the
        // normalised inversion level of the *more inverted* channel end
        // (smooth max keeps drain/source symmetry) against Ecrit·L.
        let vsat_vl = p.vsat_v * (self.geom.l / p.l_ref);
        let a = two_ut * n / vsat_vl;
        let delta = 1e-3_f64;
        let diff = lf - lr;
        let root = (diff * diff + delta * delta).sqrt();
        let lmax = 0.5 * (lf + lr + root);
        let dlmax_dlf = 0.5 * (1.0 + diff / root);
        let dlmax_dlr = 0.5 * (1.0 - diff / root);
        let fvs = 1.0 / (1.0 + a * lmax);
        let dfvs_dlmax = -a * fvs * fvs;

        // d lf / d(argument) and the chain to terminal voltages.
        let dlf = sf / two_ut;
        let dlr = sr / two_ut;
        let dlf_dvgb = dlf * dvp_dvgb;
        let dlf_dvsb = -dlf;
        let dlr_dvgb = dlr * dvp_dvgb;
        let dlr_dvdb = -dlr;

        let id_n = ispec * core * g_clm * fvs;

        // Partials of the NMOS-referenced current w.r.t. the folded
        // voltages. core = i_f(vp − vsb) − i_r(vp − vdb).
        let dcore_dvgb = (dif - dir_) * dvp_dvgb;
        let dcore_dvdb = dir_;
        let dcore_dvsb = -dif;

        let dlmax_dvgb = dlmax_dlf * dlf_dvgb + dlmax_dlr * dlr_dvgb;
        let dlmax_dvdb = dlmax_dlr * dlr_dvdb;
        let dlmax_dvsb = dlmax_dlf * dlf_dvsb;

        let did_dvgb = ispec * g_clm * (dcore_dvgb * fvs + core * dfvs_dlmax * dlmax_dvgb);
        let did_dvdb = ispec
            * (dcore_dvdb * g_clm * fvs
                + core * dclm_dvds * fvs
                + core * g_clm * dfvs_dlmax * dlmax_dvdb);
        let did_dvsb = ispec
            * (dcore_dvsb * g_clm * fvs - core * dclm_dvds * fvs
                + core * g_clm * dfvs_dlmax * dlmax_dvsb);

        // Fold back to actual terminal voltages. I_actual = s · id_n and
        // each folded voltage differentiates with factor s, so the
        // conductances keep their NMOS-referenced values.
        let id = s * id_n;
        let gm = did_dvgb;
        let gds = did_dvdb;
        let gms = did_dvsb;
        // Shifting all four terminals together leaves the current
        // unchanged, pinning the bulk transconductance.
        let gmb = -(gm + gds + gms);

        MosEval {
            id,
            gm,
            gds,
            gms,
            gmb,
        }
    }

    /// Gate-to-source capacitance estimate (F): half the channel charge
    /// plus overlap.
    #[must_use]
    pub fn cgs(&self, tech: &Technology) -> f64 {
        0.5 * self.geom.w * self.geom.l * self.params.cox + self.geom.w * tech.c_overlap
    }

    /// Gate-to-drain capacitance estimate (F).
    #[must_use]
    pub fn cgd(&self, tech: &Technology) -> f64 {
        self.cgs(tech)
    }

    /// Drain-to-bulk junction capacitance estimate (F), from the default
    /// diffusion extension.
    #[must_use]
    pub fn cdb(&self, tech: &Technology) -> f64 {
        let area = self.geom.w * tech.ld_diff;
        let perim = 2.0 * tech.ld_diff + self.geom.w;
        area * tech.cj + perim * tech.cjsw
    }

    /// Source-to-bulk junction capacitance estimate (F).
    #[must_use]
    pub fn sb_cap(&self, tech: &Technology) -> f64 {
        self.cdb(tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MosParams;

    fn nmos() -> Mosfet {
        Mosfet::nmos(MosParams::nmos_hvt_90(), 1.0e-6, 0.1e-6)
    }

    fn pmos() -> Mosfet {
        Mosfet::pmos(MosParams::pmos_lvt_90(), 1.0e-6, 0.1e-6)
    }

    /// Finite-difference check of all four conductances at one bias point.
    fn check_derivs(m: &Mosfet, vg: f64, vd: f64, vs: f64, vb: f64) {
        let h = 1e-7;
        let e = m.eval(vg, vd, vs, vb);
        let num_gm = (m.eval(vg + h, vd, vs, vb).id - m.eval(vg - h, vd, vs, vb).id) / (2.0 * h);
        let num_gds = (m.eval(vg, vd + h, vs, vb).id - m.eval(vg, vd - h, vs, vb).id) / (2.0 * h);
        let num_gms = (m.eval(vg, vd, vs + h, vb).id - m.eval(vg, vd, vs - h, vb).id) / (2.0 * h);
        let num_gmb = (m.eval(vg, vd, vs, vb + h).id - m.eval(vg, vd, vs, vb - h).id) / (2.0 * h);
        let scale = e.gm.abs().max(e.gds.abs()).max(e.gms.abs()).max(1e-9);
        let tol = 1e-3 * scale + 1e-10;
        assert!(
            (e.gm - num_gm).abs() < tol,
            "gm analytic {} vs numeric {} at ({vg},{vd},{vs},{vb})",
            e.gm,
            num_gm
        );
        assert!(
            (e.gds - num_gds).abs() < tol,
            "gds analytic {} vs numeric {} at ({vg},{vd},{vs},{vb})",
            e.gds,
            num_gds
        );
        assert!(
            (e.gms - num_gms).abs() < tol,
            "gms analytic {} vs numeric {} at ({vg},{vd},{vs},{vb})",
            e.gms,
            num_gms
        );
        assert!(
            (e.gmb - num_gmb).abs() < tol,
            "gmb analytic {} vs numeric {} at ({vg},{vd},{vs},{vb})",
            e.gmb,
            num_gmb
        );
    }

    #[test]
    fn derivatives_match_finite_difference_nmos() {
        let m = nmos();
        for &(vg, vd, vs) in &[
            (0.6, 1.2, 0.0),
            (0.9, 0.1, 0.0),
            (0.3, 0.6, 0.0),
            (0.0, 1.2, 0.0),
            (0.8, 0.8, 0.2),
            (1.2, 0.05, 0.0),
        ] {
            check_derivs(&m, vg, vd, vs, 0.0);
        }
    }

    #[test]
    fn derivatives_match_finite_difference_pmos() {
        let m = pmos();
        for &(vg, vd, vs) in &[
            (0.6, 0.0, 1.2),
            (0.2, 1.0, 1.2),
            (0.9, 0.5, 1.2),
            (1.2, 0.0, 1.2),
            (0.0, 1.1, 1.2),
        ] {
            check_derivs(&m, vg, vd, vs, 1.2);
        }
    }

    #[test]
    fn derivatives_with_body_bias() {
        let m = nmos();
        check_derivs(&m, 0.7, 1.0, 0.2, 0.0); // reverse body bias
        check_derivs(&m, 0.7, 1.0, 0.0, 0.3); // forward body bias
    }

    #[test]
    fn saturation_current_roughly_square_law() {
        let m = nmos();
        let vt = m.params.vt0;
        let i1 = m.eval(vt + 0.2, 1.2, 0.0, 0.0).id;
        let i2 = m.eval(vt + 0.4, 1.2, 0.0, 0.0).id;
        let ratio = i2 / i1;
        // Square law predicts 4×; velocity saturation and n pull it down.
        assert!(
            ratio > 2.2 && ratio < 4.5,
            "overdrive doubling ratio {ratio}"
        );
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = nmos();
        let i1 = m.eval(0.10, 1.2, 0.0, 0.0).id;
        let i2 = m.eval(0.20, 1.2, 0.0, 0.0).id;
        let decades = (i2 / i1).log10();
        // 100 mV at n≈1.4, UT≈25.9 mV -> 100 / (1.4·59.6) ≈ 1.2 decades.
        assert!(
            decades > 0.8 && decades < 1.6,
            "subthreshold decades per 100 mV: {decades}"
        );
    }

    #[test]
    fn triode_region_is_resistive() {
        let m = nmos();
        let i1 = m.eval(1.2, 0.02, 0.0, 0.0).id;
        let i2 = m.eval(1.2, 0.04, 0.0, 0.0).id;
        let lin = i2 / i1;
        assert!(
            (lin - 2.0).abs() < 0.15,
            "small-Vds current should be linear, got ratio {lin}"
        );
    }

    #[test]
    fn model_is_drain_source_symmetric() {
        let m = nmos();
        let fwd = m.eval(0.8, 0.9, 0.1, 0.0).id;
        let rev = m.eval(0.8, 0.1, 0.9, 0.0).id;
        assert!(
            (fwd + rev).abs() < 1e-3 * fwd.abs().max(rev.abs()),
            "fwd {fwd} rev {rev}"
        );
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = nmos();
        assert!(m.eval(1.0, 0.4, 0.4, 0.0).id.abs() < 1e-15);
    }

    #[test]
    fn reverse_body_bias_reduces_current() {
        let m = nmos();
        let nominal = m.eval(0.6, 1.2, 0.0, 0.0).id;
        let rbb = m.eval(0.6, 1.2, 0.0, -0.4).id;
        assert!(rbb < nominal, "RBB raises Vt and must reduce Id");
    }

    #[test]
    fn forward_body_bias_increases_current() {
        let m = nmos();
        let nominal = m.eval(0.5, 1.2, 0.0, 0.0).id;
        let fbb = m.eval(0.5, 1.2, 0.0, 0.3).id;
        assert!(fbb > nominal, "FBB lowers Vt and must increase Id");
    }

    #[test]
    fn pmos_conducts_negative_drain_current() {
        let m = pmos();
        // Source at Vdd, gate low: strongly on, current flows source->drain
        // i.e. *out of* the drain terminal.
        let e = m.eval(0.0, 0.0, 1.2, 1.2);
        assert!(e.id < -1e-6, "on PMOS drain current {}", e.id);
        assert!(e.gm != 0.0);
    }

    #[test]
    fn hvt_leaks_orders_of_magnitude_less_than_lvt() {
        let lvt = Mosfet::nmos(MosParams::nmos_lvt_90(), 1.0e-6, 0.1e-6);
        let hvt = Mosfet::nmos(MosParams::nmos_hvt_90(), 1.0e-6, 0.1e-6);
        let leak_l = lvt.eval(0.0, 1.2, 0.0, 0.0).id;
        let leak_h = hvt.eval(0.0, 1.2, 0.0, 0.0).id;
        assert!(leak_l > 0.0 && leak_h > 0.0);
        assert!(
            leak_l / leak_h > 5.0,
            "LVT/HVT leakage ratio {}",
            leak_l / leak_h
        );
    }

    #[test]
    fn negative_vgs_cuts_leakage_further() {
        // The paper's sleep topology (d) gives the sleep transistor a
        // negative VGS during power-down, "decreasing the leakage current".
        let m = nmos();
        let at_zero = m.eval(0.0, 1.2, 0.0, 0.0).id;
        let at_neg = m.eval(-0.15, 1.2, 0.0, 0.0).id;
        assert!(
            at_neg < at_zero / 5.0,
            "negative VGS leakage {at_neg} vs zero-VGS {at_zero}"
        );
    }

    #[test]
    fn current_scales_with_width() {
        let narrow = Mosfet::nmos(MosParams::nmos_hvt_90(), 1.0e-6, 0.1e-6);
        let wide = Mosfet::nmos(MosParams::nmos_hvt_90(), 4.0e-6, 0.1e-6);
        let i_n = narrow.eval(0.7, 1.2, 0.0, 0.0).id;
        let i_w = wide.eval(0.7, 1.2, 0.0, 0.0).id;
        assert!(((i_w / i_n) - 4.0).abs() < 0.05, "ratio {}", i_w / i_n);
    }

    #[test]
    fn velocity_saturation_limits_long_vs_short() {
        let p = MosParams::nmos_hvt_90();
        let short = Mosfet::nmos(p.clone(), 1.0e-6, 0.1e-6);
        let long = Mosfet::nmos(p, 4.0e-6, 0.4e-6); // same W/L
        let i_s = short.eval(1.2, 1.2, 0.0, 0.0).id;
        let i_l = long.eval(1.2, 1.2, 0.0, 0.0).id;
        assert!(
            i_l > i_s,
            "same W/L but longer channel suffers less velocity saturation: {i_l} vs {i_s}"
        );
    }

    #[test]
    fn capacitances_positive_and_width_scaled() {
        let t = Technology::cmos90();
        let m1 = Mosfet::nmos(MosParams::nmos_hvt_90(), 1.0e-6, 0.1e-6);
        let m2 = Mosfet::nmos(MosParams::nmos_hvt_90(), 2.0e-6, 0.1e-6);
        for c in [m1.cgs(&t), m1.cgd(&t), m1.cdb(&t), m1.sb_cap(&t)] {
            assert!(c > 0.0);
        }
        assert!(m2.cgs(&t) > 1.5 * m1.cgs(&t));
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = MosfetGeometry::new(0.0, 0.1e-6);
    }

    #[test]
    #[should_panic(expected = "expected NMOS params")]
    fn nmos_constructor_rejects_pmos_params() {
        let _ = Mosfet::nmos(MosParams::pmos_lvt_90(), 1e-6, 1e-7);
    }

    #[test]
    fn softplus_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) > 0.0);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(sigmoid(100.0), 1.0);
        assert!(sigmoid(-100.0) < 1e-20);
    }
}
