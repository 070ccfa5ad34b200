//! Machine-derived cell sizing via `mcml-opt`.
//!
//! Two modes:
//!
//! * `opt --smoke` — tiny fixed-seed budget, buffer bias problem only,
//!   both solvers. Exits non-zero unless each solver's optimum tail
//!   current lands in the Fig. 3 (b) band ([30, 80] µA) with a
//!   lint-clean sizing. This is the CI gate.
//! * `opt` (default) — per-cell optimal sizing for the full 16-cell ×
//!   3-style catalog with CMA-ES, printed as a table and emitted as
//!   deterministic JSON (`--out <path>` writes it to a file instead of
//!   stdout). Exits non-zero if any optimized sizing trips a
//!   deny-severity lint.
//!
//! Output is a pure function of the pinned seed: the characterisation
//! cache and worker pool affect speed, never values.

use mcml_bench::fmt_current;
use mcml_cells::{CellKind, LogicStyle};
use mcml_obs::json_escape;
use mcml_opt::{Budget, CmaEs, ParticleSwarm, SizingMetric, SizingObjective, Solver};
use pg_mcml::Parallelism;

/// One optimized catalog entry, ready for JSON emission.
struct OptRow {
    cell: String,
    style: String,
    iss_ua: Option<f64>,
    vswing_v: Option<f64>,
    w_scale: Option<f64>,
    cost: f64,
    evals: u64,
    lint_clean: bool,
}

fn opt_field(name: &str, v: Option<f64>) -> String {
    match v {
        Some(x) => format!("\"{name}\": {x:.6}"),
        None => format!("\"{name}\": null"),
    }
}

fn rows_to_json(mode: &str, solver: &str, budget: &Budget, rows: &[OptRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape(mode)));
    out.push_str(&format!("  \"solver\": \"{}\",\n", json_escape(solver)));
    out.push_str(&format!(
        "  \"budget\": {{ \"population\": {}, \"generations\": {}, \"seed\": {} }},\n",
        budget.population, budget.generations, budget.seed
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"style\": \"{}\", {}, {}, {}, \"cost\": {:.6e}, \"evals\": {}, \"lint_clean\": {} }}{}\n",
            json_escape(&r.cell),
            json_escape(&r.style),
            opt_field("iss_ua", r.iss_ua),
            opt_field("vswing_v", r.vswing_v),
            opt_field("w_scale", r.w_scale),
            r.cost,
            r.evals,
            r.lint_clean,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn optimize_one(obj: &SizingObjective, solver: &dyn Solver, budget: &Budget) -> OptRow {
    let out = solver.minimize(obj, budget);
    let sizing = obj.decode(&out.best_x);
    let differential = obj.style().is_differential();
    let base = mcml_cells::CellParams::new();
    OptRow {
        cell: obj.kind().to_string(),
        style: obj.style().to_string(),
        iss_ua: differential.then_some(sizing.params.iss * 1e6),
        vswing_v: differential.then_some(sizing.params.vswing),
        w_scale: (!differential).then(|| sizing.params.w_pair / base.w_pair),
        cost: out.best_f,
        evals: out.evals,
        lint_clean: sizing.lint_report().is_clean(),
    }
}

fn smoke() -> i32 {
    let obj = SizingObjective::buffer_bias();
    let budget = Budget {
        population: 6,
        generations: 6,
        seed: 0xc0_ffee,
        par: Parallelism::from_env(),
    };
    let mut rows = Vec::new();
    let mut failures = 0;
    let solvers: [&dyn Solver; 2] = [&CmaEs, &ParticleSwarm];
    for solver in solvers {
        let row = optimize_one(&obj, solver, &budget);
        let iss_ua = row.iss_ua.unwrap_or(f64::NAN);
        let in_band = (30.0..=80.0).contains(&iss_ua);
        println!(
            "{:>6}: optimal Iss = {} ({}, {})",
            solver.name(),
            fmt_current(iss_ua * 1e-6),
            if in_band {
                "in [30, 80] µA"
            } else {
                "OUT OF BAND"
            },
            if row.lint_clean {
                "lint-clean"
            } else {
                "LINT DENY"
            }
        );
        if !in_band || !row.lint_clean {
            failures += 1;
        }
        rows.push(row);
    }
    println!();
    print!("{}", rows_to_json("smoke", "cmaes+pso", &budget, &rows));
    i32::from(failures > 0)
}

fn catalog(out_path: Option<&str>) -> i32 {
    let budget = Budget {
        population: 6,
        generations: 5,
        seed: 0x51_21_76,
        par: Parallelism::from_env(),
    };
    println!(
        "Per-cell optimal sizing — CMA-ES, {} cells × {} styles, pop {} × {} gens\n",
        CellKind::ALL.len(),
        LogicStyle::ALL.len(),
        budget.population,
        budget.generations
    );
    println!(
        "{:>10} {:>8} {:>10} {:>10} {:>8} {:>13} {:>6}",
        "cell", "style", "Iss[µA]", "Vsw[V]", "Wscale", "cost", "lint"
    );
    let mut rows = Vec::new();
    let mut deny = 0;
    for kind in CellKind::ALL {
        for style in LogicStyle::ALL {
            let metric = if style.is_differential() {
                SizingMetric::AreaDelay
            } else {
                SizingMetric::PowerDelay
            };
            let obj = SizingObjective::per_cell(kind, style, metric);
            let row = optimize_one(&obj, &CmaEs, &budget);
            println!(
                "{:>10} {:>8} {:>10} {:>10} {:>8} {:>13.4e} {:>6}",
                row.cell,
                row.style,
                row.iss_ua.map_or_else(|| "-".into(), |v| format!("{v:.1}")),
                row.vswing_v
                    .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                row.w_scale
                    .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                row.cost,
                if row.lint_clean { "ok" } else { "DENY" }
            );
            if !row.lint_clean {
                deny += 1;
            }
            rows.push(row);
        }
    }
    let json = rows_to_json("catalog", "cmaes", &budget, &rows);
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: write {path}: {e}");
            return 1;
        }
        println!("\nwrote {path}");
    } else {
        println!();
        print!("{json}");
    }
    if deny > 0 {
        eprintln!("error: {deny} optimized sizing(s) trip a deny-severity lint");
        return 1;
    }
    0
}

fn main() {
    mcml_obs::reset();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let code = if smoke_mode {
        smoke()
    } else {
        catalog(out_path)
    };
    let infeasible = mcml_obs::total(mcml_obs::Counter::OptInfeasible);
    let evals = mcml_obs::total(mcml_obs::Counter::OptEvals);
    println!("\n{evals} objective evaluations, {infeasible} infeasible candidates rejected");
    mcml_obs::finish("opt", Parallelism::from_env().worker_count());
    std::process::exit(code);
}
