//! Command line of the artefact-level benchmark. See `README.md` beside
//! this package for the metrics, workloads and how to compare commits.

use std::process::ExitCode;

use mcml_perfbench::golden::{self, Golden};
use mcml_perfbench::run::{json_num, json_str, run_workload, write_golden, CHECKS, END_TO_END};
use mcml_perfbench::trace::PER_LAYER;
use mcml_perfbench::{Options, Report, Workload};

const USAGE: &str = "usage: perfbench [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--out <path>] [--write-golden]\n\
                     workloads: fig6_ensemble fig6_scalar aes_partition library_char gate_level \
                     (default: all, in that order)";

struct Cli {
    workloads: Vec<Workload>,
    opts: Options,
    out: Option<String>,
    write_golden: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        opts: Options {
            seed: 1,
            seconds: 10,
            trace: false,
        },
        out: None,
        write_golden: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                cli.workloads = vec![w];
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--out" => cli.out = Some(value()?),
            "--write-golden" => cli.write_golden = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(cli)
}

fn regenerate_goldens(workloads: &[Workload]) -> Result<(), String> {
    let mut g = Golden::load().unwrap_or_default();
    for &w in workloads {
        let keys = write_golden(w, &mut g)?;
        println!("{}: {keys} golden keys", w.name());
    }
    std::fs::write(golden::PATH, g.to_json()).map_err(|e| format!("{}: {e}", golden::PATH))?;
    println!("{} keys written to {}", g.len(), golden::PATH);
    Ok(())
}

fn host_json(cli: &Cli) -> String {
    format!(
        "{{\"nproc\": {}, \"threads\": 1, \"profile\": \"{}\", \"rustc\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        json_str(option_env!("MCML_RUSTC_VERSION").unwrap_or("unknown")),
        cli.opts.seed,
        cli.opts.seconds,
        cli.opts.trace,
    )
}

/// Print a workload's metric lines and return its result-line metrics.
fn print_report(r: &Report, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let name = r.workload.name();
    let unit = |table: &[(&'static str, &'static str)], m: &str| {
        table.iter().find(|(n, _)| *n == m).map_or("", |&(_, u)| u)
    };
    let metrics: Vec<(&'static str, f64, &'static str)> = if trace {
        r.per_layer
            .iter()
            .map(|&(m, v)| (m, v, unit(&PER_LAYER, m)))
            .collect()
    } else {
        r.end_to_end()
            .into_iter()
            .map(|(m, v)| (m, v, unit(&END_TO_END, m)))
            .collect()
    };
    for &(m, v, u) in &metrics {
        println!("{name} {m} {v} {u}");
    }
    for (m, v) in r.checks() {
        println!("{name} {m} {v} {}", unit(&CHECKS, m));
    }
    println!(
        "# {name}: {} timed iterations of one {}; iter_p50_s over {} samples, setup_s median \
         of {} cold set-ups",
        r.iterations,
        r.workload.item(),
        r.iter_s.len(),
        r.setup_s.len()
    );
    for f in &r.failures {
        println!("# {name}: FAILED {f}");
    }
    metrics
}

fn run(cli: &Cli) -> Result<(), String> {
    if cli.write_golden {
        return regenerate_goldens(&cli.workloads);
    }
    let mut reports = Vec::new();
    for (i, &w) in cli.workloads.iter().enumerate() {
        reports.push(run_workload(w, cli.opts, i > 0)?);
    }
    let mut metrics = Vec::new();
    for r in &reports {
        for (m, v, u) in print_report(r, cli.opts.trace) {
            let key = if reports.len() == 1 {
                m.to_owned()
            } else {
                format!("{}.{m}", r.workload.name())
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                json_num(v),
                json_str(u)
            ));
        }
    }
    if let Some(path) = &cli.out {
        let blocks: Vec<String> = reports.iter().map(Report::to_json).collect();
        let doc = format!(
            "{{\n  \"schema\": \"mcml-perfbench-run/1\",\n  \"host\": {},\n  \"workloads\": [\n  {}\n  ]\n}}\n",
            host_json(cli),
            blocks.join(",\n  ")
        );
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
    }
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
