//! Property-based tests: the flow's own transformations never produce
//! netlists the linter rejects. `map_network` output (any style, fused
//! and buffered) and `insert_sleep_domains` plans over random networks
//! are lint-clean.

use std::sync::OnceLock;

use proptest::prelude::*;

use mcml_cells::{CellKind, CellParams, LogicStyle};
use mcml_char::{characterize_cell, TimingLibrary};
use mcml_lint::{LintConfig, LintEngine};
use mcml_netlist::sleep_tree::SleepTreeOptions;
use mcml_netlist::{insert_sleep_domains, map_network, BoolNetwork, Signal, TechmapOptions};

/// Recipe for one random network node (mirrors the techmap proptests).
#[derive(Debug, Clone)]
enum NodeRecipe {
    And(usize, usize, bool, bool),
    Xor(usize, usize, bool),
    Mux(usize, usize, usize, bool),
    Or(usize, usize),
}

fn recipe_strategy(max_ref: usize) -> impl Strategy<Value = NodeRecipe> {
    prop_oneof![
        (0..max_ref, 0..max_ref, any::<bool>(), any::<bool>())
            .prop_map(|(a, b, ia, ib)| NodeRecipe::And(a, b, ia, ib)),
        (0..max_ref, 0..max_ref, any::<bool>()).prop_map(|(a, b, i)| NodeRecipe::Xor(a, b, i)),
        (0..max_ref, 0..max_ref, 0..max_ref, any::<bool>())
            .prop_map(|(s, a, b, i)| NodeRecipe::Mux(s, a, b, i)),
        (0..max_ref, 0..max_ref).prop_map(|(a, b)| NodeRecipe::Or(a, b)),
    ]
}

fn build_network(recipes: &[NodeRecipe], n_outputs: usize) -> BoolNetwork {
    let mut bn = BoolNetwork::new();
    let mut pool: Vec<Signal> = (0..6).map(|i| bn.input(&format!("i{i}"))).collect();
    for r in recipes {
        let pick = |i: usize| pool[i % pool.len()];
        let s = match r {
            NodeRecipe::And(a, b, ia, ib) => {
                let (mut x, mut y) = (pick(*a), pick(*b));
                if *ia {
                    x = x.not();
                }
                if *ib {
                    y = y.not();
                }
                bn.and(x, y)
            }
            NodeRecipe::Xor(a, b, i) => {
                let x = pick(*a);
                let y = if *i { pick(*b).not() } else { pick(*b) };
                bn.xor(x, y)
            }
            NodeRecipe::Mux(s, a, b, i) => {
                let sel = if *i { pick(*s).not() } else { pick(*s) };
                bn.mux(sel, pick(*a), pick(*b))
            }
            NodeRecipe::Or(a, b) => bn.or(pick(*a), pick(*b)),
        };
        pool.push(s);
    }
    let fallback = pool[0];
    let mut non_const: Vec<Signal> = pool
        .iter()
        .rev()
        .copied()
        .filter(|&s| bn.as_const(s).is_none())
        .take(4)
        .collect();
    if non_const.is_empty() {
        non_const.push(fallback);
    }
    for o in 0..n_outputs {
        bn.set_output(&format!("o{o}"), non_const[o % non_const.len()]);
    }
    bn
}

/// An engine whose fan-out envelope matches the techmap's buffering
/// limit, so buffered netlists don't trip the (stricter) FO4 default.
fn engine() -> LintEngine {
    let mut cfg = LintConfig::default();
    cfg.max_fanout = TechmapOptions::default().max_fanout;
    LintEngine::new(cfg)
}

/// One CMOS buffer characterisation shared by every case (the sleep
/// tree sizes its wake-up buffers from it).
fn sleep_lib() -> &'static TimingLibrary {
    static LIB: OnceLock<TimingLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let mut lib = TimingLibrary::new();
        let t = characterize_cell(CellKind::Buffer, LogicStyle::Cmos, &CellParams::default())
            .expect("CMOS buffer characterises");
        lib.insert(t);
        lib
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the mapper emits — any style, fusion and buffering on —
    /// passes the full gate-level pack with no deny diagnostics, and no
    /// warnings beyond dangling nets (degenerate random networks can
    /// duplicate an output cone, leaving an unconsumed copy behind).
    #[test]
    fn techmap_output_is_lint_clean(
        recipes in collection::vec(recipe_strategy(12), 3..25),
        style_pick in 0usize..3,
    ) {
        let bn = build_network(&recipes, 3);
        let style = [LogicStyle::Cmos, LogicStyle::Mcml, LogicStyle::PgMcml][style_pick];
        let nl = map_network(&bn, style, &TechmapOptions::default());
        let report = engine().lint_netlist(&nl, None);
        prop_assert!(
            report.is_clean(),
            "mapped {} netlist has denies: {:?}", style, report.diagnostics
        );
        prop_assert!(
            report.diagnostics.iter().all(|d| d.rule_id == "net-dangling"),
            "unexpected warnings in mapped {} netlist: {:?}", style, report.diagnostics
        );
    }

    /// A fully PG-MCML mapped design stays clean under the dataflow
    /// pack: with no secret annotation the taint analysis finds nothing
    /// at all, and even with every input marked secret the differential
    /// style triggers none of the `dataflow-*` rules (constant tail
    /// current hides taint and glitches alike, and the techmap never
    /// emits single-ended crossings or secret-gated clocks).
    #[test]
    fn pg_mcml_techmap_output_is_taint_clean(
        recipes in collection::vec(recipe_strategy(12), 3..25),
    ) {
        let bn = build_network(&recipes, 3);
        let mut nl = map_network(&bn, LogicStyle::PgMcml, &TechmapOptions::default());
        let results = mcml_lint::dataflow::analyze(&nl, None)
            .expect("mapped netlists are acyclic");
        prop_assert_eq!(results.tainted_count(), 0, "no ports are classified secret");

        let input_names: Vec<String> =
            nl.inputs().iter().map(|(name, _)| name.clone()).collect();
        for name in &input_names {
            nl.set_port_class(name, mcml_netlist::PortClass::Secret);
        }
        let report = engine().lint_netlist(&nl, None);
        prop_assert!(
            report.diagnostics.iter().all(|d| !d.rule_id.starts_with("dataflow-")),
            "dataflow findings on an all-PG-MCML design: {:?}", report.diagnostics
        );
    }

    /// Automatic sleep insertion produces a plan with no orphans and no
    /// deny diagnostics against its own netlist.
    #[test]
    fn sleep_plan_is_lint_clean(
        recipes in collection::vec(recipe_strategy(10), 4..20),
    ) {
        let bn = build_network(&recipes, 3);
        let nl = map_network(&bn, LogicStyle::PgMcml, &TechmapOptions::default());
        let groups: Vec<(&str, Vec<&str>)> =
            vec![("g0", vec!["o0"]), ("g1", vec!["o1", "o2"])];
        let plan = insert_sleep_domains(&nl, &groups, sleep_lib(), &SleepTreeOptions::default());
        let report = engine().lint_netlist(&nl, Some(&plan));
        prop_assert!(report.is_clean(), "{:?}", report.diagnostics);
        prop_assert_eq!(report.by_rule("sleep-domain-orphan").count(), 0);
    }
}
