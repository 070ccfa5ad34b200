//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **Sleep topology (a)–(d)** (paper Fig. 2): leakage, wake-up time,
//!    awake functionality and transistor cost of each candidate — the
//!    quantified version of the paper's qualitative §4 discussion of why
//!    topology (d) ships.
//! 2. **Technology-mapper fusion passes**: gate counts of the S-box ISE
//!    with each fusion disabled.
//! 3. **High-Vt vs low-Vt sleep/tail devices**: the leakage argument for
//!    the paper's device-flavour mix.

use mcml_bench::fmt_power;
use mcml_cells::{build_cell, solve_bias, CellKind, CellParams, LogicStyle, SleepTopology};
use mcml_char::measure_wakeup;
use mcml_device::{MosParams, Mosfet};
use mcml_netlist::{map_network, TechmapOptions};
use mcml_spice::{Circuit, SourceWave};

fn topology_leakage(topology: SleepTopology, params: &CellParams) -> f64 {
    // Buffer asleep: measure supply power directly.
    let mut p = params.clone();
    p.sleep_topology = topology;
    let bias = solve_bias(&p);
    let cell = build_cell(CellKind::Buffer, LogicStyle::PgMcml, &p);
    let mut ckt = cell.circuit.clone();
    let vdd_v = p.tech.vdd;
    let vdd_src = ckt.vsource("VDD", cell.port("vdd"), Circuit::GND, SourceWave::dc(vdd_v));
    ckt.vsource("VN", cell.port("vn"), Circuit::GND, SourceWave::dc(bias.vn));
    ckt.vsource("VP", cell.port("vp"), Circuit::GND, SourceWave::dc(bias.vp));
    if cell.ports.contains_key("sleep") {
        ckt.vsource("VS", cell.port("sleep"), Circuit::GND, SourceWave::dc(0.0));
    }
    if cell.ports.contains_key("sleep_b") {
        ckt.vsource(
            "VSB",
            cell.port("sleep_b"),
            Circuit::GND,
            SourceWave::dc(vdd_v),
        );
    }
    for name in ["a_p", "a_n"] {
        ckt.vsource(
            &format!("VI{name}"),
            cell.port(name),
            Circuit::GND,
            SourceWave::dc(if name.ends_with("_p") {
                vdd_v
            } else {
                p.v_low()
            }),
        );
    }
    let op = ckt.dc_op().expect("asleep buffer converges");
    op.supply_current(vdd_src).expect("vdd") * vdd_v
}

fn main() {
    mcml_obs::reset();
    let params = CellParams::default();
    run(&params);
    mcml_obs::finish("ablation", pg_mcml::Parallelism::from_env().worker_count());
}

fn run(params: &CellParams) {
    let params = params.clone();

    println!("== ablation 1: sleep topologies (paper Fig. 2) ==\n");
    println!(
        "{:<14} {:>8} {:>16} {:>14}  note",
        "topology", "extra T", "asleep leakage", "wake-up"
    );
    for topo in SleepTopology::ALL {
        let mut p = params.clone();
        p.sleep_topology = topo;
        let leak = topology_leakage(topo, &params);
        let wake = measure_wakeup(CellKind::Buffer, &p)
            .map_or("n/a".to_owned(), |t| format!("{:.0} ps", t * 1e12));
        let note = match topo {
            SleepTopology::VnPulldown => "needs fast Vn restore (discarded)",
            SleepTopology::VnPulldownIsolated => "2 extra devices (discarded)",
            SleepTopology::BodyBias => "needs -0.5..1V well bias (discarded)",
            SleepTopology::SeriesSleep => "negative sleep-VGS  <- shipped",
        };
        println!(
            "{:<14} {:>8} {:>16} {:>14}  {note}",
            topo.label(),
            topo.extra_transistors(),
            fmt_power(leak),
            wake,
        );
    }

    println!("\n== ablation 2: technology-mapper fusion passes (S-box, 8-bit) ==\n");
    let bn = mcml_aes::ReducedAes::new(8).network();
    let configs: [(&str, TechmapOptions); 5] = [
        ("all fusions on", TechmapOptions::default()),
        (
            "no MUX4 fusion",
            TechmapOptions {
                fuse_mux4: false,
                ..TechmapOptions::default()
            },
        ),
        (
            "no XOR fusion",
            TechmapOptions {
                fuse_xor: false,
                ..TechmapOptions::default()
            },
        ),
        (
            "no AND fusion",
            TechmapOptions {
                fuse_and: false,
                ..TechmapOptions::default()
            },
        ),
        (
            "no fusion at all",
            TechmapOptions {
                fuse_and: false,
                fuse_xor: false,
                fuse_mux4: false,
                fuse_maj: false,
                ..TechmapOptions::default()
            },
        ),
    ];
    println!("{:<18} {:>8} {:>14}", "configuration", "gates", "cell area");
    for (name, opts) in configs {
        let nl = map_network(&bn, LogicStyle::PgMcml, &opts);
        let rep = mcml_netlist::area_report(&nl);
        println!(
            "{:<18} {:>8} {:>11.1} µm²",
            name,
            nl.gate_count(),
            rep.cell_area_um2
        );
    }

    println!("\n== ablation 3: device flavour of the bias chain ==\n");
    let hvt = Mosfet::nmos(MosParams::nmos_hvt_90(), 2.0e-6, 0.1e-6);
    let lvt = Mosfet::nmos(MosParams::nmos_lvt_90(), 2.0e-6, 0.1e-6);
    let leak_hvt = hvt.eval(0.0, 1.2, 0.0, 0.0).id;
    let leak_lvt = lvt.eval(0.0, 1.2, 0.0, 0.0).id;
    let leak_neg = hvt.eval(-0.15, 1.2, 0.0, 0.0).id;
    println!("sleep transistor OFF-state leakage (W = 2 µm):");
    println!(
        "  low-Vt device:          {}",
        mcml_bench::fmt_current(leak_lvt)
    );
    println!(
        "  high-Vt device:         {}  ({:.0}x better — the paper's choice)",
        mcml_bench::fmt_current(leak_hvt),
        leak_lvt / leak_hvt
    );
    println!(
        "  high-Vt @ VGS = -150mV: {}  (the topology-(d) negative-VGS bonus: {:.0}x more)",
        mcml_bench::fmt_current(leak_neg),
        leak_hvt / leak_neg
    );
    println!("\n== ablation 4: process corners (bias compensation) ==\n");
    println!("{:<8} {:>16} {:>16}", "corner", "PG-MCML FO4", "CMOS FO4");
    let par = pg_mcml::Parallelism::from_env();
    let pg = mcml_char::corner_sweep_par(&params, LogicStyle::PgMcml, par).unwrap();
    let cm = mcml_char::corner_sweep_par(&params, LogicStyle::Cmos, par).unwrap();
    for ((c, dpg, _), (_, dcm, _)) in pg.iter().zip(&cm) {
        println!("{:<8} {:>13.1} ps {:>13.1} ps", c.to_string(), dpg, dcm);
    }
    let spread = |rows: &Vec<(mcml_cells::Corner, f64, f64)>| {
        let d: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let max = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = d.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / ((max + min) / 2.0) * 100.0
    };
    println!(
        "\ncorner spread: PG-MCML {:.1} % vs CMOS {:.1} % — the differential style's\nbias rails re-centre the tail current, absorbing global variation.",
        spread(&pg),
        spread(&cm)
    );
}
