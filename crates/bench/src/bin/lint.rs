//! Lint the whole shipped design corpus: every example netlist at gate
//! level and all 16 library cells (in all three logic styles) at
//! transistor level, with the sleep-domain rules exercised through an
//! automatically inserted sleep plan.
//!
//! Writes the combined `mcml-lint/3` document to `report.json`, prints
//! a per-rule fire-count table, and exits non-zero if any target has a
//! deny-severity diagnostic — the CI gate that keeps the shipped corpus
//! lint-clean. With `--deny-warnings`, unwaived warnings fail the gate
//! too.
//!
//! The CMOS attack baselines (`reduced_aes` / `sbox_ise` in CMOS style)
//! are expected to trip the dataflow secret-on-CMOS and glitch rules —
//! leaking is their purpose — so those findings are waived with a
//! justification rather than silenced, and stay visible in the report's
//! `waived_diagnostics` section.
//!
//! Run with: `cargo run --release -p mcml-bench --bin lint [--deny-warnings]`

use std::collections::BTreeMap;

use mcml_aes::sbox_ise::SboxIseOptions;
use mcml_aes::ReducedAes;
use mcml_cells::{build_cell, CellKind, CellParams, LogicStyle};
use mcml_lint::{combined_json, LintConfig, LintEngine, LintReport};
use mcml_netlist::sleep_tree::SleepTreeOptions;
use mcml_netlist::{insert_sleep_domains, Netlist, TechmapOptions};
use pg_mcml::DesignFlow;

fn print_row(report: &LintReport) {
    println!(
        "{:<32} {:>5} {:>5} {:>6}  {}",
        report.target,
        report.deny_count(),
        report.warn_count(),
        report.waived.len(),
        if report.is_clean() { "ok" } else { "DENY" }
    );
    for d in &report.diagnostics {
        println!("    {d}");
    }
    for w in &report.waived {
        println!(
            "    waived[{}] {}: {}",
            w.diagnostic.rule_id, w.diagnostic.location, w.justification
        );
    }
}

/// Per-rule fire counts across the whole corpus (kept + waived).
fn fire_counts(reports: &[LintReport]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in reports {
        for d in &r.diagnostics {
            *counts.entry(d.rule_id).or_default() += 1;
        }
        for w in &r.waived {
            *counts.entry(w.diagnostic.rule_id).or_default() += 1;
        }
    }
    counts
}

fn main() {
    mcml_obs::reset();
    let deny_warnings = std::env::args().any(|a| a == "--deny-warnings");
    let params = CellParams::default();
    // The shipped netlists are buffered by the techmap to its own
    // fan-out limit, so align the lint envelope with it instead of the
    // stricter FO4 characterisation default.
    let max_fanout = TechmapOptions::default().max_fanout;
    let mut cfg = LintConfig::default();
    cfg.max_fanout = max_fanout;
    // The CMOS gate-level targets are attack baselines: the secret
    // datapath is *supposed* to leak there so the fig6/CPA tier has a
    // positive control. Waive, with the reason on the record.
    let baseline_why = "CMOS attack baseline: the leak is the experiment's positive control";
    cfg.add_waiver("dataflow-secret-cmos", None, baseline_why);
    cfg.add_waiver("dataflow-glitch", None, baseline_why);
    let engine = LintEngine::new(cfg);
    let mut reports: Vec<LintReport> = Vec::new();

    println!(
        "{:<32} {:>5} {:>5} {:>6}",
        "target", "deny", "warn", "waived"
    );

    // Transistor level: the full 16-cell library in every style.
    for style in LogicStyle::ALL {
        for kind in CellKind::ALL {
            let cell = build_cell(kind, style, &params);
            let report = engine.lint_cell(&cell);
            print_row(&report);
            reports.push(report);
        }
    }

    // Gate level: the example netlists the repo ships.
    for style in LogicStyle::ALL {
        let sbox: Netlist = mcml_aes::build_sbox_ise(
            style,
            &SboxIseOptions {
                n_sboxes: 1,
                output_regs: false,
            },
        );
        let report = engine.lint_netlist(&sbox, None);
        print_row(&report);
        reports.push(report);

        let reduced: Netlist = ReducedAes::new(4).build_registered_netlist(style);
        let report = engine.lint_netlist(&reduced, None);
        print_row(&report);
        reports.push(report);
    }

    // Sleep-domain rules: a two-S-box PG-MCML ISE with an automatically
    // inserted sleep plan (one domain per S-box byte).
    let mut flow = DesignFlow::new(params);
    flow.lint.config.max_fanout = max_fanout;
    let gated = mcml_aes::build_sbox_ise(
        LogicStyle::PgMcml,
        &SboxIseOptions {
            n_sboxes: 2,
            output_regs: false,
        },
    );
    flow.timing(CellKind::Buffer, LogicStyle::Cmos)
        .expect("CMOS buffer characterises (sleep-tree timing)");
    let groups: Vec<(String, Vec<String>)> = (0..2)
        .map(|s| {
            (
                format!("sbox{s}"),
                (0..8).map(|b| format!("y{}", s * 8 + b)).collect(),
            )
        })
        .collect();
    let groups_ref: Vec<(&str, Vec<&str>)> = groups
        .iter()
        .map(|(n, o)| (n.as_str(), o.iter().map(String::as_str).collect()))
        .collect();
    let plan = insert_sleep_domains(
        &gated,
        &groups_ref,
        flow.library(),
        &SleepTreeOptions::default(),
    );
    let report = flow.lint_netlist(&gated, Some(&plan));
    print_row(&report);
    reports.push(report);

    let deny: usize = reports.iter().map(LintReport::deny_count).sum();
    let warn: usize = reports.iter().map(LintReport::warn_count).sum();
    let waived: usize = reports.iter().map(|r| r.waived.len()).sum();
    let doc = combined_json("lint", &reports);
    std::fs::write("report.json", &doc).expect("write report.json");

    let counts = fire_counts(&reports);
    if counts.is_empty() {
        println!("\nno rule fired anywhere in the corpus");
    } else {
        println!("\n{:<32} {:>6}", "rule", "fires");
        for (rule, n) in &counts {
            println!("{rule:<32} {n:>6}");
        }
    }
    println!(
        "\n{} targets linted: {deny} deny, {warn} warn, {waived} waived — report.json written",
        reports.len()
    );

    mcml_obs::finish("lint", pg_mcml::Parallelism::from_env().worker_count());
    if deny > 0 || (deny_warnings && warn > 0) {
        std::process::exit(1);
    }
}
