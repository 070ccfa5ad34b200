//! A simulation run must not allocate per event: once `EventSim::new`
//! has compiled the netlist, a run allocates its state vectors, its
//! event heap and its transition list, each growing geometrically, and
//! nothing else. A counting global allocator wraps `System` and the
//! test bounds the allocations of a run that processes over 10,000
//! events. The count is per thread, so the test harness's other threads
//! cannot move it. Lives in its own test binary so the global allocator
//! doesn't slow the rest of the suite.

use mcml_cells::{CellKind, DriveStrength, LogicStyle};
use mcml_char::{CellTiming, TimingLibrary};
use mcml_netlist::{Conn, GateKind, Netlist};
use mcml_sim::{EventSim, Stimulus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// drop-free, so reading it from inside the allocator never
    /// allocates or touches a destroyed slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates verbatim to `System`; only bumps a thread-local count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn lib() -> TimingLibrary {
    let mut lib = TimingLibrary::new();
    for kind in CellKind::ALL {
        lib.insert(CellTiming {
            kind,
            style: LogicStyle::Mcml,
            drive: DriveStrength::X1,
            area_um2: 10.0,
            delay_fo1_ps: 40.0,
            delay_fo4_ps: 80.0,
            input_cap_ff: 1.0,
            static_power_w: 60e-6,
            leakage_sleep_w: 60e-6,
            toggle_energy_j: 2e-15,
        });
    }
    lib
}

/// A clocked pipeline: `a` through a chain of XORs (with `b`), a
/// 4-input mux and a full adder, captured by a flip-flop.
fn pipeline() -> Netlist {
    let mut nl = Netlist::new("pipe", LogicStyle::Mcml);
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let clk = nl.add_input("clk");
    let mut prev = a;
    let mut taps = Vec::new();
    for i in 0..12 {
        let n = nl.add_net(&format!("x{i}"));
        nl.add_gate(
            &format!("x{i}"),
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(prev), Conn::inv(b)],
            vec![n],
        );
        taps.push(n);
        prev = n;
    }
    let m = nl.add_net("m");
    nl.add_gate(
        "mux",
        GateKind::Lib(CellKind::Mux4),
        vec![
            Conn::plain(taps[0]),
            Conn::plain(taps[3]),
            Conn::inv(taps[6]),
            Conn::plain(taps[9]),
            Conn::plain(taps[10]),
            Conn::plain(taps[11]),
        ],
        vec![m],
    );
    let (s, co) = (nl.add_net("s"), nl.add_net("co"));
    nl.add_gate(
        "fa",
        GateKind::Lib(CellKind::FullAdder),
        vec![Conn::plain(m), Conn::plain(prev), Conn::plain(a)],
        vec![s, co],
    );
    let q = nl.add_net("q");
    nl.add_gate(
        "ff",
        GateKind::Lib(CellKind::Dff),
        vec![Conn::plain(s), Conn::plain(clk)],
        vec![q],
    );
    nl.set_output("q", Conn::plain(q));
    nl.set_output("co", Conn::plain(co));
    nl
}

#[test]
fn a_run_does_not_allocate_per_event() {
    let nl = pipeline();
    let lib = lib();
    let sim = EventSim::new(&nl, &lib);
    let mut st = Stimulus::new();
    st.at(0.0, "a", false).at(0.0, "b", false);
    st.clock("clk", 0.5e-9, 1e-9, 1000);
    for i in 0..1000 {
        st.at(1e-9 * i as f64 + 0.1e-9, "a", i % 2 == 0);
        if i % 3 == 0 {
            st.at(1e-9 * i as f64 + 0.2e-9, "b", i % 2 == 1);
        }
    }
    // The first run resolves the observability mode (an environment
    // read), which may allocate once per process.
    let warm = sim.run(&st, 1e-6);

    let before = allocations();
    let trace = sim.run(&st, 1e-6);
    let made = allocations() - before;

    assert_eq!(trace.transitions, warm.transitions, "runs repeat exactly");
    assert!(
        trace.transitions.len() >= 10_000,
        "only {} transitions",
        trace.transitions.len()
    );
    assert!(
        made < 64,
        "{made} allocations for {} transitions",
        trace.transitions.len()
    );
}
