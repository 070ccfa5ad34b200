//! Ensemble transient: N input vectors marched lockstep over one shared
//! stamp plan and symbolic LU.
//!
//! A trace campaign solves the *same circuit* thousands of times with
//! different source waveforms. Everything structural — the MNA sparsity
//! pattern, the pre-accumulated linear stamps, the LU elimination order
//! and fill pattern — depends only on the topology, so the ensemble
//! builds it once and shares it across all lanes:
//!
//! * **one `StampPlan`** (behind an `Arc`) serves every lane's assembly;
//! * **one symbolic factorisation**: lane 0 factors first and donates its
//!   factors to the other lanes, whose first "factorisation" is then a
//!   numeric-only replay of the recorded elimination order;
//! * **per-lane numeric state**: Jacobian values, residuals, LU numbers,
//!   MOS bypass caches and companion histories stay per lane, and a lane
//!   refactors only when its own Newton step demands it.
//!
//! The time loop is the one every transient runs (`analysis::march`);
//! [`transient`](super::tran::transient) is the same march over one
//! lane. Every step decision is a fold over lanes: the adaptive leap is
//! the minimum of the per-lane proposals, and a leap is rejected when
//! *any* lane rejects it (all lanes re-run at the shrunken leap), so all
//! lanes land on the same grid points and state is committed only when
//! the whole ensemble accepts.

use crate::analysis::tran::{TranOptions, TranResult};
use crate::circuit::Circuit;
use crate::element::Element;
use crate::Result;

/// Whether two circuits can share one stamp plan: identical node and
/// branch counts and the same element kinds on the same nodes in the
/// same order. Resistor values must also match (they are baked into the
/// plan's constant `base_vals`); source waveforms, capacitances and MOS
/// device parameters are re-read from each lane's own circuit during
/// assembly and may differ freely.
fn same_topology(a: &Circuit, b: &Circuit) -> bool {
    if a.node_count() != b.node_count() || a.branch_count() != b.branch_count() {
        return false;
    }
    let mut ea = a.elements();
    let mut eb = b.elements();
    loop {
        match (ea.next(), eb.next()) {
            (None, None) => return true,
            (Some((_, _, x)), Some((_, _, y))) => {
                let ok = match (x, y) {
                    (
                        Element::Resistor {
                            a: a1,
                            b: b1,
                            ohms: o1,
                        },
                        Element::Resistor {
                            a: a2,
                            b: b2,
                            ohms: o2,
                        },
                    ) => a1 == a2 && b1 == b2 && o1 == o2,
                    (
                        Element::Capacitor { a: a1, b: b1, .. },
                        Element::Capacitor { a: a2, b: b2, .. },
                    ) => a1 == a2 && b1 == b2,
                    (
                        Element::Vsource {
                            p: p1,
                            n: n1,
                            branch: br1,
                            ..
                        },
                        Element::Vsource {
                            p: p2,
                            n: n2,
                            branch: br2,
                            ..
                        },
                    ) => p1 == p2 && n1 == n2 && br1 == br2,
                    (
                        Element::Isource { p: p1, n: n1, .. },
                        Element::Isource { p: p2, n: n2, .. },
                    ) => p1 == p2 && n1 == n2,
                    (
                        Element::Mos {
                            d: d1,
                            g: g1,
                            s: s1,
                            b: b1,
                            ..
                        },
                        Element::Mos {
                            d: d2,
                            g: g2,
                            s: s2,
                            b: b2,
                            ..
                        },
                    ) => d1 == d2 && g1 == g2 && s1 == s2 && b1 == b2,
                    _ => false,
                };
                if !ok {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Run a transient analysis over an ensemble of lanes: one circuit per
/// input vector, all sharing one stamp plan and symbolic LU.
///
/// All circuits must share lane 0's topology (same elements on the same
/// nodes in the same order; resistor values equal) and may differ in
/// source waveforms, capacitances, and MOS device parameters — the
/// degrees of freedom of a trace campaign or a local-mismatch
/// Monte-Carlo sweep. Results come back one [`TranResult`] per lane, in
/// lane order, each indistinguishable from a scalar
/// [`transient`](crate::analysis::tran::transient) result.
///
/// Lockstep guarantees:
///
/// * a one-lane ensemble *is* the scalar path — both run the same march;
/// * with adaptive stepping, all lanes advance on one shared internal
///   grid — a leap is accepted only when every lane accepts it, a
///   rejecting lane shrinks it for the whole ensemble, and source
///   breakpoints are the union over lanes — so completed lanes can be
///   streamed straight into chunked attack accumulators in lane order;
/// * with [`TranOptions::with_partitioning`], each lane runs its own
///   block scheduler with independent skip decisions;
/// * peak solver memory is `lanes × state`, independent of how many
///   ensembles a campaign runs.
///
/// Observability: the run is wrapped in an `ensemble_tran` span and
/// `spice.ensemble_lanes` counts lanes launched.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`](crate::SpiceError::NoConvergence)
/// when any lane fails a step at the smallest subdivision, or the lane's
/// DC operating point fails.
///
/// # Panics
///
/// Panics when `ckts` is empty or a lane does not share lane 0's
/// topology — both are programmer errors, not data-dependent failures.
pub fn ensemble_transient(ckts: &[Circuit], opts: &TranOptions) -> Result<Vec<TranResult>> {
    assert!(!ckts.is_empty(), "ensemble needs at least one lane");
    for (l, ckt) in ckts.iter().enumerate().skip(1) {
        assert!(
            same_topology(&ckts[0], ckt),
            "ensemble lane {l} does not share lane 0's topology"
        );
    }
    let _span = mcml_obs::span(mcml_obs::Stage::EnsembleTran);
    mcml_obs::add(mcml_obs::Counter::EnsembleLanes, ckts.len() as u64);
    mcml_obs::add(mcml_obs::Counter::Transients, ckts.len() as u64);
    crate::analysis::march::run(ckts, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NodeId;
    use crate::source::SourceWave;

    fn rc_lane(level: f64) -> (Circuit, NodeId, crate::circuit::ElementId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let v = c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, level, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        (c, out, v)
    }

    #[test]
    fn lanes_superpose_like_scalar_runs() {
        // Linear circuit: each lane's ensemble trajectory must match its
        // own scalar run to solver precision even though the ensemble
        // shares step-size decisions across lanes.
        let levels = [0.5, 1.0, 2.0, 4.0];
        let built: Vec<_> = levels.iter().map(|&v| rc_lane(v)).collect();
        let ckts: Vec<Circuit> = built.iter().map(|(c, _, _)| c.clone()).collect();
        let opts = TranOptions::new(8e-9, 5e-12).adaptive_grid_aligned(1e-5, 100e-12);
        let ens = ensemble_transient(&ckts, &opts).unwrap();
        for (((c, out, _), res), level) in built.iter().zip(&ens).zip(levels) {
            let scalar = c.transient(&opts).unwrap();
            let (ws, we) = (scalar.voltage(*out), res.voltage(*out));
            let worst = ws
                .iter()
                .zip(we.iter())
                .map(|((_, a), (_, b))| (a - b).abs())
                .fold(0.0f64, f64::max);
            // The ensemble's shared internal grid differs from each
            // scalar run's own grid, so trajectories may differ by the
            // local truncation error — a few × reltol × amplitude.
            assert!(
                worst < 1e-4 * level,
                "lane deviates from scalar by {worst} at level {level}"
            );
        }
    }

    #[test]
    fn supply_current_per_lane() {
        let built: Vec<_> = [1.0, 2.0].iter().map(|&v| rc_lane(v)).collect();
        let ckts: Vec<Circuit> = built.iter().map(|(c, _, _)| c.clone()).collect();
        let opts = TranOptions::new(10e-9, 10e-12);
        let ens = ensemble_transient(&ckts, &opts).unwrap();
        let i0 = ens[0].supply_current(built[0].2).unwrap();
        let i1 = ens[1].supply_current(built[1].2).unwrap();
        // Twice the step level drives twice the peak current (linear RC).
        assert!((i1.max() / i0.max() - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "does not share lane 0's topology")]
    fn mismatched_topology_rejected() {
        let (a, _, _) = rc_lane(1.0);
        let mut b = Circuit::new();
        let vin = b.node("in");
        b.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        b.resistor("R", vin, Circuit::GND, 1.0e3);
        let _ = ensemble_transient(&[a, b], &TranOptions::new(1e-9, 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_ensemble_rejected() {
        let _ = ensemble_transient(&[], &TranOptions::new(1e-9, 1e-12));
    }
}
