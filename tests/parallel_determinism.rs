//! Cross-layer determinism: the parallel execution layer must produce
//! byte-for-byte identical results to the serial path, from trace
//! acquisition through CPA and TVLA.

use pg_mcml::experiments::{acquire_template_traces, tvla_assessment};
use pg_mcml::prelude::*;
use pg_mcml::Parallelism;

fn trace_bits(ts: &TraceSet) -> Vec<u64> {
    (0..ts.n_traces())
        .flat_map(|i| ts.trace(i).iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn parallel_trace_acquisition_is_byte_identical_to_serial() {
    let key = 0x5a;
    let mut serial_flow =
        DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Serial);
    let serial = acquire_template_traces(&mut serial_flow, LogicStyle::PgMcml, key, 0.01, 7)
        .expect("serial acquisition");

    let mut par_flow =
        DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Threads(4));
    let parallel = acquire_template_traces(&mut par_flow, LogicStyle::PgMcml, key, 0.01, 7)
        .expect("parallel acquisition");

    assert_eq!(serial.n_traces(), 256);
    assert_eq!(serial.inputs(), parallel.inputs(), "same plaintext order");
    assert_eq!(
        trace_bits(&serial),
        trace_bits(&parallel),
        "every sample bit-identical across thread counts"
    );
    assert_eq!(serial, parallel, "TraceSet equality follows");

    // The attack on identical traces is identical too.
    let model = HammingWeight::new(|x| mcml_aes::SBOX[x as usize], 8);
    let rs = cpa_attack_par(&serial, &model, Parallelism::Serial);
    let rp = cpa_attack_par(&parallel, &model, Parallelism::Threads(4));
    assert_eq!(rs, rp, "CPA verdicts match");
}

#[test]
fn parallel_tvla_is_identical_to_serial() {
    let mut serial_flow =
        DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Serial);
    let serial = tvla_assessment(&mut serial_flow, LogicStyle::Cmos, 0x3c, 40, 0.02, 11)
        .expect("serial TVLA");

    let mut par_flow =
        DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Threads(4));
    let parallel = tvla_assessment(&mut par_flow, LogicStyle::Cmos, 0x3c, 40, 0.02, 11)
        .expect("parallel TVLA");

    let sb: Vec<u64> = serial.t.iter().map(|v| v.to_bits()).collect();
    let pb: Vec<u64> = parallel.t.iter().map(|v| v.to_bits()).collect();
    assert_eq!(sb, pb, "t statistics bit-identical");
    assert_eq!(serial.max_abs_t.to_bits(), parallel.max_abs_t.to_bits());
}
