//! Regenerate **Fig. 3**: (a) buffer delay vs tail current at FO1/FO4;
//! (b) power–delay and area–delay products, locating the optimum bias.

use mcml_bench::sparkline;
use mcml_cells::CellParams;
use mcml_char::default_sweep_currents;
use pg_mcml::experiments::fig3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    mcml_obs::reset();
    let params = CellParams::default();
    let currents = default_sweep_currents();
    println!(
        "Fig. 3 — bias-current design space (sweeping {} points)\n",
        currents.len()
    );
    let par = pg_mcml::Parallelism::from_env();
    let pts = fig3(&params, &currents, par)?;

    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>14} {:>16}",
        "Iss[µA]", "FO1[ps]", "FO4[ps]", "P[µW]", "PDP[fJ]", "ADP[µm²·ps]"
    );
    for p in &pts {
        println!(
            "{:>9.0} {:>12.2} {:>12.2} {:>12.1} {:>14.2} {:>16.1}",
            p.iss * 1e6,
            p.delay_fo1_ps,
            p.delay_fo4_ps,
            p.power_w * 1e6,
            p.pdp_j * 1e15,
            p.adp_um2_ps
        );
    }

    let fo4: Vec<f64> = pts.iter().map(|p| p.delay_fo4_ps).collect();
    let adp: Vec<f64> = pts.iter().map(|p| p.adp_um2_ps).collect();
    println!("\n(a) FO4 delay vs Iss:        {}", sparkline(&fo4, 40));
    println!("(b) area–delay product:      {}", sparkline(&adp, 40));

    let best = pts
        .iter()
        .min_by(|a, b| a.adp_um2_ps.partial_cmp(&b.adp_um2_ps).unwrap())
        .unwrap();
    println!(
        "\narea–delay optimum at Iss = {:.0} µA (paper: 50 µA); delay saturates above ≈250 µA",
        best.iss * 1e6
    );
    mcml_obs::finish("fig3", par.worker_count());
    Ok(())
}
