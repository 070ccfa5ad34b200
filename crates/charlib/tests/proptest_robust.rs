//! Property test: characterization is panic-free on arbitrary — including
//! deliberately pathological — cell parameters and testbench grids.
//!
//! The optimizer feeds machine-generated sizings straight into
//! `characterize_cell` and `bias_sweep_par`; a degenerate candidate must
//! come back as a typed `Err`, never a panic. Each generated parameter
//! independently draws from a mix of plausible values and poison values
//! (zero, negative, NaN, infinity, absurd magnitudes).

use proptest::prelude::*;

use mcml_cells::{CellKind, CellParams, LogicStyle};
use mcml_char::{bias_sweep_par, characterize_cell_uncached, Testbench};
use mcml_exec::Parallelism;

/// A strictly positive, sane-magnitude value or one of the poison cases.
fn hostile(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop_oneof![
        (lo..hi).boxed(),
        Just(0.0).boxed(),
        Just(-1.0e-6).boxed(),
        Just(f64::NAN).boxed(),
        Just(f64::INFINITY).boxed(),
        Just(-f64::INFINITY).boxed(),
        Just(1.0e3).boxed(),
        Just(f64::MIN_POSITIVE).boxed(),
    ]
}

/// A transient time (s): a sane value in `lo..hi` or one of the poison
/// cases. Never a huge but countable grid, which would march for hours
/// instead of failing.
fn hostile_time(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    prop_oneof![
        (lo..hi).boxed(),
        Just(0.0).boxed(),
        Just(-1.0e-9).boxed(),
        Just(f64::NAN).boxed(),
        Just(f64::INFINITY).boxed(),
        Just(-f64::INFINITY).boxed(),
    ]
}

fn hostile_params() -> impl Strategy<Value = CellParams> {
    (
        hostile(1.0e-6, 4.0e-4), // iss
        hostile(0.05, 0.9),      // vswing
        hostile(1.0e-7, 8.0e-6), // w_pair
        hostile(1.0e-7, 8.0e-6), // w_tail
        hostile(1.0e-7, 8.0e-6), // w_load
        hostile(6.0e-8, 5.0e-7), // l
    )
        .prop_map(|(iss, vswing, w_pair, w_tail, w_load, l)| CellParams {
            iss,
            vswing,
            w_pair,
            w_tail,
            w_sleep: w_tail,
            w_load,
            l,
            ..CellParams::new()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Testbench::run` and the full characterization return `Ok` or a
    /// typed `Err` for every generated sizing and grid — no panics, no
    /// NaN smuggled into an `Ok`. A grid that cannot be marched (a step
    /// that is not positive, longer than the window or not finite, or a
    /// window without end) is always an `Err`.
    #[test]
    fn characterization_never_panics(
        params in hostile_params(),
        t_stop in hostile_time(1.0e-9, 3.0e-9),
        dt in prop_oneof![hostile_time(1.0e-12, 10.0e-12).boxed(), Just(1.0e-6).boxed()],
    ) {
        // The default sizing builds, so its run reaches the grid check
        // whatever the hostile sizing does.
        for p in [&params, &CellParams::default()] {
            let run = Testbench::new(CellKind::Buffer, LogicStyle::PgMcml, p).run(t_stop, dt);
            if !(dt > 0.0 && t_stop >= dt && (t_stop / dt).is_finite()) {
                prop_assert!(run.is_err(), "t_stop = {t_stop:e}, dt = {dt:e} marched");
            }
        }
        if let Ok(t) = characterize_cell_uncached(CellKind::Buffer, LogicStyle::PgMcml, &params) {
            prop_assert!(t.delay_fo4_ps.is_finite(), "Ok result with non-finite delay");
        }
    }

    /// The bias sweep rejects non-finite / non-positive currents with a
    /// typed error before any simulation, and survives hostile base
    /// parameters at valid currents.
    #[test]
    fn bias_sweep_never_panics(params in hostile_params(), bad in hostile(1.0e-6, 4.0e-4)) {
        let _ = bias_sweep_par(&params, &[50e-6, bad], Parallelism::Serial);
    }
}
