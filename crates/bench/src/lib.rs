//! # mcml-bench — regenerators for every table and figure
//!
//! One binary per published result (run with `cargo run --release -p
//! mcml-bench --bin <name>`):
//!
//! | binary   | regenerates                                             |
//! |----------|---------------------------------------------------------|
//! | `table1` | Table 1 — MCML vs PG-MCML cell area                     |
//! | `table2` | Table 2 — the 16-cell library (area, delay, CMOS ratio) |
//! | `fig3`   | Fig. 3 — delay and power/area–delay vs tail current     |
//! | `fig5`   | Fig. 5 — S-box ISE current waveform, gated vs not       |
//! | `table3` | Table 3 — ISE area/delay/power in all three styles      |
//! | `fig6`   | Fig. 6 — CPA verdicts (template + transistor tiers)     |
//!
//! The `spiceperf` binary times the solver-dominated tiers and appends a
//! point to the perf trajectory (`BENCH_spice.json`); `perfcheck` gates
//! a point against a baseline.
//!
//! The library part is the binaries' tiny shared formatting kit:
//!
//! ```
//! use mcml_bench::{fmt_current, fmt_power, sparkline};
//!
//! assert_eq!(fmt_power(62e-6), "62.00 µW");
//! assert_eq!(fmt_current(1.3e-3), "1.30 mA");
//! assert_eq!(sparkline(&[0.0, 0.5, 1.0], 3).chars().count(), 3);
//! ```
//!
//! Each binary ends by printing an `mcml-obs` run summary; set
//! `MCML_OBS=json:report.json` to also write the machine-readable
//! report (see `docs/OBSERVABILITY.md`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod perf;

/// Format a power value with an adaptive unit.
#[must_use]
pub fn fmt_power(w: f64) -> String {
    if w >= 1e-3 {
        format!("{:.2} mW", w * 1e3)
    } else if w >= 1e-6 {
        format!("{:.2} µW", w * 1e6)
    } else {
        format!("{:.2} nW", w * 1e9)
    }
}

/// Format a current value with an adaptive unit.
#[must_use]
pub fn fmt_current(a: f64) -> String {
    if a >= 1e-3 {
        format!("{:.2} mA", a * 1e3)
    } else if a >= 1e-6 {
        format!("{:.2} µA", a * 1e6)
    } else {
        format!("{:.3} nA", a * 1e9)
    }
}

/// One-line wall-clock report for a serial baseline against a parallel
/// run on `workers` workers.
#[must_use]
pub fn speedup_line(
    serial: std::time::Duration,
    parallel: std::time::Duration,
    workers: usize,
) -> String {
    let s = serial.as_secs_f64();
    let p = parallel.as_secs_f64();
    format!(
        "wall-clock: serial {s:.2} s, parallel {p:.2} s on {workers} workers — {:.2}× speedup",
        s / p.max(1e-9)
    )
}

/// Render a crude ASCII sparkline of a series.
#[must_use]
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let step = values.len().max(width) / width.max(1);
    values
        .iter()
        .step_by(step.max(1))
        .take(width)
        .map(|&v| {
            let t = if max > min {
                (v - min) / (max - min)
            } else {
                0.0
            };
            glyphs[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_units() {
        assert_eq!(fmt_power(490.56e-3), "490.56 mW");
        assert_eq!(fmt_power(207.72e-6), "207.72 µW");
        assert_eq!(fmt_power(1.3e-9), "1.30 nW");
    }

    #[test]
    fn current_units() {
        assert_eq!(fmt_current(30e-3), "30.00 mA");
        assert_eq!(fmt_current(50e-6), "50.00 µA");
    }

    #[test]
    fn speedup_line_reports_ratio() {
        let line = speedup_line(
            std::time::Duration::from_secs(4),
            std::time::Duration::from_secs(2),
            4,
        );
        assert!(line.contains("2.00×"), "{line}");
        assert!(line.contains("4 workers"), "{line}");
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0, 0.5, 0.0], 5);
        assert_eq!(s.len(), 5);
        assert!(s.contains('#'));
    }
}
