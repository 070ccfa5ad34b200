//! Bitwise fingerprints of the gate-level flow.
//!
//! Every recorded transition (time bits, net, value) and every final net
//! value of an event simulation, and every number of the gate-level
//! artefacts built on them, is folded into one FNV-1a hash per case and
//! compared against a committed value. A rewrite of the event simulator
//! or of the current-template model that claims "same numbers" must
//! leave every hash unchanged; a change that legitimately moves numbers
//! updates exactly the hashes it names.
//!
//! Covered, in all three logic styles:
//! * `DesignFlow::simulate` on the 8-bit registered reduced AES at
//!   plaintexts 0x00, 0x3a and 0xff (the template attack's stimulus);
//! * `DesignFlow::simulate` on the S-box ISE under one Table 3
//!   activation stimulus (clock running, operand word changing at the
//!   third cycle);
//! * the trace sets of `acquire_template_traces` at a fixed seed;
//!
//! in CMOS and PG-MCML, every t value of `tvla_assessment` at a fixed
//! seed; and, across the styles, the `table3` rows and the `fig5` data.

use mcml_aes::sbox_ise::SboxIseOptions;
use mcml_aes::ReducedAes;
use mcml_cells::{CellParams, LogicStyle};
use mcml_or1k::aes_prog::AesBenchParams;
use mcml_sim::{Logic, SimTrace, Stimulus};
use pg_mcml::experiments::{acquire_template_traces, fig5, table3, tvla_assessment};
use pg_mcml::DesignFlow;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3);
    }

    fn eat_f64s(&mut self, v: &[f64]) {
        for x in v {
            self.eat(x.to_bits());
        }
    }
}

fn logic_word(v: Logic) -> u64 {
    match v {
        Logic::L0 => 0,
        Logic::L1 => 1,
        Logic::X => 2,
    }
}

/// Every transition, the final values, the net count and the end time.
fn trace_hash(tr: &SimTrace) -> u64 {
    let mut h = Fnv::new();
    for t in &tr.transitions {
        h.eat(t.time.to_bits());
        h.eat(u64::from(t.net));
        h.eat(logic_word(t.value));
    }
    for &v in &tr.final_values {
        h.eat(logic_word(v));
    }
    h.eat(tr.net_count as u64);
    h.eat(tr.t_stop.to_bits());
    h.0
}

const KEY: u8 = 0x5a;

/// The template tier's stimulus: inputs applied at reset, one rising
/// clock edge at 2.2 ns.
fn template_stimulus(p: u8) -> Stimulus {
    let mut st = Stimulus::new();
    st.at(0.0, "clk", false);
    st.at(2.2e-9, "clk", true);
    for b in 0..8 {
        st.at(0.0, &format!("k{b}"), (KEY >> b) & 1 == 1);
        st.at(0.0, &format!("p{b}"), (p >> b) & 1 == 1);
    }
    st
}

/// One Table 3 activation window at 400 MHz: the operand word changes
/// from `prev` to `input` at the third cycle.
fn activation_stimulus(prev: u32, input: u32) -> Stimulus {
    let period = 2.5e-9;
    let mut st = Stimulus::new();
    st.clock("clk", period / 2.0, period, 6);
    for b in 0..32 {
        st.at(0.0, &format!("x{b}"), (prev >> b) & 1 == 1);
    }
    for b in 0..32 {
        let nv = (input >> b) & 1 == 1;
        if nv != ((prev >> b) & 1 == 1) {
            st.at(3.0 * period, &format!("x{b}"), nv);
        }
    }
    st
}

fn style_tag(style: LogicStyle) -> &'static str {
    match style {
        LogicStyle::Cmos => "cmos",
        LogicStyle::Mcml => "mcml",
        LogicStyle::PgMcml => "pg_mcml",
    }
}

fn fingerprints() -> Vec<(String, u64)> {
    let mut flow = DesignFlow::new(CellParams::default());
    let mut got = Vec::new();
    for style in LogicStyle::ALL {
        let tag = style_tag(style);
        let aes = ReducedAes::new(8).build_registered_netlist(style);
        for p in [0x00u8, 0x3a, 0xff] {
            let tr = flow
                .simulate(&aes, &template_stimulus(p), 3.6e-9)
                .expect("simulate reduced AES");
            got.push((format!("aes8_reg/{tag}/p{p:02x}"), trace_hash(&tr)));
        }
        let ise = mcml_aes::build_sbox_ise(style, &SboxIseOptions::default());
        let tr = flow
            .simulate(&ise, &activation_stimulus(0x1234_5678, 0xa53c_965a), 15e-9)
            .expect("simulate S-box ISE");
        got.push((format!("sbox_ise/{tag}/activation"), trace_hash(&tr)));

        let ts = acquire_template_traces(&mut flow, style, KEY, 0.01, 11).expect("acquire");
        let mut h = Fnv::new();
        for i in 0..ts.n_traces() {
            h.eat(u64::from(ts.input(i)));
            h.eat_f64s(ts.trace(i));
        }
        got.push((format!("template_traces/{tag}"), h.0));
    }

    for style in [LogicStyle::Cmos, LogicStyle::PgMcml] {
        let tv = tvla_assessment(&mut flow, style, KEY, 20, 0.01, 11).expect("tvla");
        let mut h = Fnv::new();
        h.eat_f64s(&tv.t);
        h.eat(tv.max_abs_t.to_bits());
        got.push((format!("tvla/{}", style_tag(style)), h.0));
    }

    let bench = AesBenchParams {
        blocks: 2,
        idle_loops: 1500,
        ..AesBenchParams::default()
    };
    let rows = table3(&mut flow, &bench, 400e6).expect("table3");
    let mut h = Fnv::new();
    for r in &rows {
        h.eat(r.cells as u64);
        h.eat_f64s(&[r.area_um2, r.delay_ns, r.avg_power_w, r.ise_duty]);
    }
    got.push(("table3/rows".to_owned(), h.0));

    let f5 = fig5(&mut flow).expect("fig5");
    let mut h = Fnv::new();
    h.eat_f64s(&f5.time);
    h.eat_f64s(&f5.i_mcml);
    h.eat_f64s(&f5.i_pg);
    h.eat_f64s(&f5.sleep);
    h.eat(f5.wake_latency.to_bits());
    got.push(("fig5/data".to_owned(), h.0));
    got
}

/// Committed fingerprints.
const EXPECTED: &[(&str, u64)] = &[
    ("aes8_reg/cmos/p00", 0x3521_8b19_1114_1e6b),
    ("aes8_reg/cmos/p3a", 0x73ba_3fe3_b22a_deb2),
    ("aes8_reg/cmos/pff", 0x8b38_c88c_48b9_0df6),
    ("sbox_ise/cmos/activation", 0x9c7b_7aef_3bd2_7e84),
    ("template_traces/cmos", 0x8e51_c2ac_0de8_dc82),
    ("aes8_reg/mcml/p00", 0xcc6e_bc47_4921_662a),
    ("aes8_reg/mcml/p3a", 0x0227_599f_96b3_1036),
    ("aes8_reg/mcml/pff", 0x0792_5c0a_aca1_dded),
    ("sbox_ise/mcml/activation", 0x2eeb_4f65_28fc_ad72),
    ("template_traces/mcml", 0x9465_829e_cd8a_af37),
    ("aes8_reg/pg_mcml/p00", 0x3e6d_9b78_7887_2e9c),
    ("aes8_reg/pg_mcml/p3a", 0x749c_45a8_5456_37fb),
    ("aes8_reg/pg_mcml/pff", 0x8d07_e87a_2a41_de63),
    ("sbox_ise/pg_mcml/activation", 0x37fd_b661_2088_6c54),
    ("template_traces/pg_mcml", 0x5202_e72f_a3a9_6d85),
    ("tvla/cmos", 0x491a_c610_08e8_0774),
    ("tvla/pg_mcml", 0x32f2_50e2_6854_790b),
    ("table3/rows", 0x9de5_cbf8_5a65_75e0),
    ("fig5/data", 0x6110_5122_f5c1_45e3),
];

#[test]
fn gate_level_flow_matches_committed_fingerprints() {
    let got = fingerprints();
    let table: String = got
        .iter()
        .map(|(k, h)| format!("    (\"{k}\", {h:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED.iter().map(|&(k, h)| (k.to_owned(), h)).collect();
    assert_eq!(got, expected, "fingerprints moved; current table:\n{table}");
}
