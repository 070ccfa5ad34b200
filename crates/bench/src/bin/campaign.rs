//! Streaming CPA campaign driver: an N-trace noisy campaign against the
//! fig. 6 transistor tier whose memory stays `O(workers × state +
//! guesses × samples)` whether N is 10³ or 10⁵.
//!
//! Usage: `cargo run --release -p mcml-bench --bin campaign --
//! [--traces <n>] [--noise <rel>] [--seed <u64>]
//! [--style cmos|pg-mcml] [--key <hex>]`
//!
//! The 16 distinct base waveforms are simulated once, one transient per
//! plaintext, then N noisy acquisitions stream into the online CPA
//! accumulator in index order — reruns with the same arguments are
//! bit-identical.

use mcml_cells::{CellParams, LogicStyle};
use pg_mcml::experiments::cpa_campaign;
use pg_mcml::Parallelism;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut traces: usize = 1_000;
    let mut noise: f64 = 0.05;
    let mut seed: u64 = 7;
    let mut style = LogicStyle::PgMcml;
    let mut key: u8 = 0xb;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("`{a}` needs a value"));
        match a.as_str() {
            "--traces" => traces = val()?.parse().map_err(|e| format!("--traces: {e}"))?,
            "--noise" => noise = val()?.parse().map_err(|e| format!("--noise: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--key" => {
                key = u8::from_str_radix(val()?.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("--key: {e}"))?;
            }
            "--style" => {
                style = match val()?.as_str() {
                    "cmos" => LogicStyle::Cmos,
                    "pg-mcml" => LogicStyle::PgMcml,
                    other => return Err(format!("unknown style `{other}`").into()),
                };
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    let params = CellParams::default();
    println!("campaign — {traces} traces, {style:?}, key {key:#x}, noise {noise}, seed {seed}");
    let t0 = std::time::Instant::now();
    let out = cpa_campaign(
        &params,
        key,
        style,
        traces,
        noise,
        seed,
        Parallelism::from_env(),
    )
    .map_err(|e| format!("campaign: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let v = &out.verdict;
    println!(
        "verdict: rank {} margin {:.4} peak_correct {:.4} best_wrong {:.4}  ({:.2} s, \
         {:.1} µs/trace after base acquisition)",
        v.rank,
        v.margin,
        v.peak_correct,
        v.best_wrong,
        wall,
        1e6 * wall / traces as f64
    );

    mcml_obs::finish("campaign", 1);
    Ok(())
}
