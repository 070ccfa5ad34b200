//! The five workloads: seeded inputs, set-up, one iteration, and the
//! outputs each iteration hands to the golden check.
//!
//! Every call into the program goes through a public entry point of the
//! layer being measured, serially (`Parallelism::Serial`). Each call that
//! a per-layer metric times is wrapped in a [`Tracer`] span named after
//! that metric.

use mcml_aes::sbox_ise::SboxIseOptions;
use mcml_aes::ReducedAes;
use mcml_cells::{build_cell, CellKind, CellParams, LogicStyle};
use mcml_dpa::{cpa_attack_par, CpaAccumulator, HammingWeight, TraceSet};
use mcml_lint::{LintConfig, LintEngine, LintReport};
use mcml_netlist::sleep_tree::SleepTreeOptions;
use mcml_netlist::{insert_sleep_domains, Netlist, TechmapOptions};
use mcml_obs::Counter;
use mcml_or1k::aes_prog::AesBenchParams;
use pg_mcml::elaborate::checked_elaborate;
use pg_mcml::experiments::{
    aes_tran_options, aes_tran_params, aes_tran_tier, fig5, fig6_base_waveforms, fig6_supply_trace,
    fig6_template, table3,
};
use pg_mcml::{DesignFlow, Parallelism};

use crate::golden::{self, Tolerance};
use crate::rng::SplitMix64;
use crate::trace::Tracer;

/// Every `GOLDEN_STRIDE`-th sample of a 60-sample supply trace is pinned,
/// as in `crates/core/tests/golden_fig6.rs`.
const GOLDEN_STRIDE: usize = 6;
/// The fig. 6 campaign: traces streamed into CPA per iteration, their
/// relative Gaussian noise, and how many are generated before each
/// timed run of `push` calls (so noise generation stays outside the
/// `dpa.cpa` spans).
const CAMPAIGN_TRACES: usize = 10_000;
const CAMPAIGN_NOISE: f64 = 0.05;
const CAMPAIGN_BLOCK: usize = 1_000;
/// Seed of the campaign noise, fixed per key so every iteration of a
/// key streams the same traces.
const CAMPAIGN_SEED: u64 = 0xC0FF_EE00;
/// Streamed vs two-pass CPA peaks: both are exact sums of the same
/// traces, differing only in rounding.
const CPA_AGREEMENT: Tolerance = Tolerance {
    abs: 1e-9,
    rel: 1e-6,
};
/// Seed of the gate-level presets (each preset's keys and PRNG seeds).
const PRESET_SEED: u64 = 0x6A7E_0000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16-lane ensemble acquisition of all 16 fig. 6 traces plus a
    /// 10⁴-trace streaming CPA campaign.
    Fig6Ensemble,
    /// Four scalar fig. 6 transients.
    Fig6Scalar,
    /// Sixteen partitioned (block-scheduled) S-box transients.
    AesPartition,
    /// Cold characterisation of the whole 16 × 3 library plus the
    /// Fig. 3 bias sweep.
    LibraryChar,
    /// Table 3, Fig. 5, the Fig. 6 template attack and the lint corpus on
    /// a warm library: no SPICE.
    GateLevel,
}

/// The inputs of one iteration, drawn from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// `fig6_ensemble`: the 4-bit key.
    Key(u8),
    /// `fig6_scalar`: key and four distinct plaintexts.
    KeyPlaintexts(u8, [u8; 4]),
    /// `aes_partition`: every key `k` once, with plaintext `k ⊕ offset`.
    Offset(u8),
    /// `library_char`: the order the 48 cells are characterised in.
    CellOrder(Vec<(CellKind, LogicStyle)>),
    /// `gate_level`: the preset (keys, PRNG and noise seeds).
    Preset(u8),
}

/// What an iteration produced, for the golden check.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Work items completed (the workload's item, see [`Workload::item`]).
    pub items: usize,
    /// Golden key → the values this iteration computed for it.
    pub outputs: Vec<(String, Vec<f64>)>,
    /// Broken paper invariants, by description.
    pub violations: Vec<String>,
    /// `fig6_ensemble`: the streamed CPA, checked by [`Outcome::verify`].
    pub cpa_check: Option<CpaCheck>,
}

impl Outcome {
    /// The checks too slow for the timed region: run after the clock
    /// stops, recording failures as violations.
    pub fn verify(&mut self) {
        if let Some(check) = self.cpa_check.take() {
            if let Err(e) = check.verify() {
                self.violations.push(e);
            }
        }
    }
}

/// State built by set-up and used by every iteration.
pub struct State {
    params: CellParams,
    /// `gate_level` only: the flow whose library set-up warmed.
    flow: Option<DesignFlow>,
}

impl Workload {
    /// All workloads, in the order a full run executes them.
    pub const ALL: [Workload; 5] = [
        Workload::Fig6Ensemble,
        Workload::Fig6Scalar,
        Workload::AesPartition,
        Workload::LibraryChar,
        Workload::GateLevel,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Fig6Ensemble => "fig6_ensemble",
            Workload::Fig6Scalar => "fig6_scalar",
            Workload::AesPartition => "aes_partition",
            Workload::LibraryChar => "library_char",
            Workload::GateLevel => "gate_level",
        }
    }

    /// Look a workload up by [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `items_per_s` counts.
    #[must_use]
    pub const fn item(self) -> &'static str {
        match self {
            Workload::Fig6Ensemble => "transistor-level trace (16 per iteration)",
            Workload::Fig6Scalar => "transistor-level trace (4 per iteration)",
            Workload::AesPartition => "partitioned trace (16 per iteration)",
            Workload::LibraryChar => "characterisation (48 cells + 9 sweep points)",
            Workload::GateLevel => "artefact set (1 per iteration)",
        }
    }

    /// Whether the timed iterations run SPICE (the traced run asserts
    /// nonzero Newton iterations here and exactly zero elsewhere).
    #[must_use]
    pub const fn runs_spice(self) -> bool {
        !matches!(self, Workload::GateLevel)
    }

    /// Host seconds of one iteration on the reference host (2-core VM,
    /// serial, release build). Sizes the timed loop; see
    /// [`Workload::iterations`].
    const fn nominal_iter_s(self) -> f64 {
        match self {
            Workload::Fig6Ensemble => 1.85,
            Workload::Fig6Scalar => 1.45,
            Workload::AesPartition => 0.85,
            Workload::LibraryChar => 2.65,
            Workload::GateLevel => 0.45,
        }
    }

    /// Iterations whose inputs together are balanced: `fig6_scalar`
    /// covers all 16 values of `plaintext ⊕ key` (what sets its cost) once
    /// per 4 iterations. The other workloads balance within one
    /// iteration.
    const fn cycle(self) -> usize {
        match self {
            Workload::Fig6Scalar => 4,
            _ => 1,
        }
    }

    /// Timed iterations for a `seconds` budget: a fixed count, whole
    /// cycles, so the same seed always measures the same work and the
    /// counters of the traced run repeat exactly. On the reference host
    /// the loop takes about `seconds`.
    #[must_use]
    pub fn iterations(self, seconds: u64) -> usize {
        let cycles = seconds as f64 / (self.nominal_iter_s() * self.cycle() as f64);
        (cycles.round() as usize).max(1) * self.cycle()
    }

    /// Golden tolerance of this workload's outputs.
    #[must_use]
    pub const fn tolerance(self) -> Tolerance {
        match self {
            Workload::Fig6Ensemble => golden::ENSEMBLE,
            Workload::AesPartition => golden::PARTITION,
            _ => golden::EXACT_PATH,
        }
    }

    /// The inputs of `n` iterations for `seed`: deterministic, and every
    /// seed draws from the same finite input space the goldens cover.
    #[must_use]
    pub fn inputs(self, seed: u64, n: usize) -> Vec<Input> {
        let mut g = SplitMix64::new(seed, self as u64);
        let perm = g.nibble_permutation();
        match self {
            Workload::Fig6Ensemble => (0..n).map(|i| Input::Key(perm[i % 16])).collect(),
            Workload::AesPartition => (0..n).map(|i| Input::Offset(perm[i % 16])).collect(),
            Workload::GateLevel => (0..n).map(|i| Input::Preset(perm[i % 16])).collect(),
            Workload::Fig6Scalar => {
                let mut xors = g.nibble_permutation();
                (0..n)
                    .map(|i| {
                        if i > 0 && i % 4 == 0 {
                            xors = g.nibble_permutation();
                        }
                        let key = perm[i % 16];
                        let q = 4 * (i % 4);
                        Input::KeyPlaintexts(key, std::array::from_fn(|j| key ^ xors[q + j]))
                    })
                    .collect()
            }
            Workload::LibraryChar => (0..n)
                .map(|_| {
                    let mut order = all_cells();
                    g.shuffle(&mut order);
                    Input::CellOrder(order)
                })
                .collect(),
        }
    }

    /// Inputs that together reach every golden key the workload can
    /// check — what `--write-golden` runs.
    #[must_use]
    pub fn golden_inputs(self) -> Vec<Input> {
        match self {
            Workload::Fig6Ensemble => (0..16).map(Input::Key).collect(),
            Workload::AesPartition => (0..16).map(Input::Offset).collect(),
            Workload::GateLevel => (0..16).map(Input::Preset).collect(),
            Workload::Fig6Scalar => (0..64u8)
                .map(|i| {
                    let q = 4 * (i % 4);
                    Input::KeyPlaintexts(i / 4, [q, q + 1, q + 2, q + 3])
                })
                .collect(),
            Workload::LibraryChar => vec![Input::CellOrder(all_cells())],
        }
    }

    /// Cold set-up: netlists and their lint-gated elaboration for the
    /// SPICE workloads, a cleared characterisation cache and a fresh flow
    /// for `gate_level` (whose library the first iteration then warms).
    ///
    /// # Errors
    ///
    /// Elaboration failed.
    pub fn setup(self, tr: &mut Tracer) -> Result<State, String> {
        let params = match self {
            Workload::AesPartition => aes_tran_params(),
            _ => CellParams::default(),
        };
        let netlist = match self {
            Workload::Fig6Ensemble | Workload::Fig6Scalar => {
                Some(ReducedAes::new(4).build_registered_netlist(LogicStyle::PgMcml))
            }
            Workload::AesPartition => Some(ReducedAes::new(4).build_netlist(LogicStyle::PgMcml)),
            Workload::LibraryChar | Workload::GateLevel => None,
        };
        if let Some(nl) = netlist {
            let engine = LintEngine::with_default_rules();
            let el = tr
                .span("core.elaborate", || {
                    checked_elaborate(&nl, &params, &engine)
                })
                .map_err(|e| format!("elaborate: {e}"))?;
            if el.circuit.node_count() == 0 {
                return Err("elaborated circuit has no nodes".into());
            }
        }
        let flow = (self == Workload::GateLevel).then(|| {
            mcml_char::cache::clear();
            DesignFlow::new(params.clone()).with_parallelism(Parallelism::Serial)
        });
        Ok(State { params, flow })
    }

    /// Untimed work before each iteration: `library_char` starts every
    /// iteration from a cold characterisation cache.
    pub fn prepare(self) {
        if self == Workload::LibraryChar {
            mcml_char::cache::clear();
        }
    }

    /// Run one iteration.
    ///
    /// # Errors
    ///
    /// A layer call returned an error, or the input does not belong to
    /// this workload.
    pub fn run(self, st: &mut State, input: &Input, tr: &mut Tracer) -> Result<Outcome, String> {
        match (self, input) {
            (Workload::Fig6Ensemble, &Input::Key(key)) => fig6_ensemble(&st.params, key, tr),
            (Workload::Fig6Scalar, Input::KeyPlaintexts(key, pts)) => {
                let mut out = Outcome::default();
                for &p in pts {
                    let trace = tr
                        .span("spice.call", || {
                            fig6_supply_trace(&st.params, *key, LogicStyle::PgMcml, p)
                        })
                        .map_err(|e| format!("fig6_supply_trace(k={key}, p={p}): {e}"))?;
                    out.outputs
                        .push((format!("fig6_scalar/k{key}/p{p}"), pinned(&trace)));
                    out.items += 1;
                }
                Ok(out)
            }
            (Workload::AesPartition, &Input::Offset(offset)) => {
                let opts = aes_tran_options(true);
                let mut out = Outcome::default();
                for key in 0..16u8 {
                    let p = key ^ offset;
                    let traces = tr
                        .span("spice.call", || {
                            aes_tran_tier(&st.params, key, LogicStyle::PgMcml, &[p], &opts)
                        })
                        .map_err(|e| format!("aes_tran_tier(k={key}, p={p}): {e}"))?;
                    let trace = traces.first().ok_or("aes_tran_tier returned no trace")?;
                    out.outputs
                        .push((format!("aes_partition/k{key}/p{p}"), pinned(trace)));
                    out.items += 1;
                }
                Ok(out)
            }
            (Workload::LibraryChar, Input::CellOrder(order)) => library_char(&st.params, order, tr),
            (Workload::GateLevel, &Input::Preset(preset)) => {
                let flow = st.flow.as_mut().ok_or("gate_level state has no flow")?;
                gate_level(flow, preset, tr)
            }
            (w, i) => Err(format!(
                "input {i:?} does not belong to workload {}",
                w.name()
            )),
        }
    }
}

/// The golden samples of a 60-sample trace.
fn pinned(trace: &[f64]) -> Vec<f64> {
    trace.iter().copied().step_by(GOLDEN_STRIDE).collect()
}

/// All 48 (cell, style) pairs in catalogue order.
fn all_cells() -> Vec<(CellKind, LogicStyle)> {
    LogicStyle::ALL
        .into_iter()
        .flat_map(|s| CellKind::ALL.into_iter().map(move |k| (k, s)))
        .collect()
}

fn fig6_ensemble(params: &CellParams, key: u8, tr: &mut Tracer) -> Result<Outcome, String> {
    let bases = tr
        .span("spice.call", || {
            fig6_base_waveforms(params, key, LogicStyle::PgMcml, 16, Parallelism::Serial)
        })
        .map_err(|e| format!("fig6_base_waveforms(k={key}): {e}"))?;
    if bases.len() != 16 || bases.iter().any(|b| b.len() != bases[0].len()) {
        return Err(format!(
            "expected 16 equal-length lanes, got {}",
            bases.len()
        ));
    }
    let n_samples = bases[0].len();
    let mut out = Outcome {
        items: 16,
        outputs: vec![(
            format!("fig6_ensemble/k{key}"),
            bases.iter().flat_map(|b| pinned(b)).collect(),
        )],
        ..Outcome::default()
    };

    let means = lane_means(&bases);
    let reduced = ReducedAes::new(4);
    let mut acc = CpaAccumulator::new(HammingWeight::new(|x| reduced.sbox(x), 4), n_samples);
    let mut noise = SplitMix64::new(CAMPAIGN_SEED, u64::from(key));
    let mut inputs = vec![0u8; CAMPAIGN_BLOCK];
    let mut samples = vec![0.0f64; CAMPAIGN_BLOCK * n_samples];
    for _ in 0..CAMPAIGN_TRACES / CAMPAIGN_BLOCK {
        campaign_block(&mut noise, &bases, &means, &mut inputs, &mut samples);
        tr.span("dpa.cpa", || {
            for (&p, row) in inputs.iter().zip(samples.chunks(n_samples)) {
                acc.push(p, row);
            }
        });
        mcml_obs::add(Counter::TracesAcquired, CAMPAIGN_BLOCK as u64);
    }
    let result = tr.span("dpa.cpa", || acc.finish());
    out.cpa_check = Some(CpaCheck {
        key,
        bases,
        stream_peaks: result.peak,
    });
    Ok(out)
}

/// Mean |current| of each lane: the scale of its measurement noise.
fn lane_means(bases: &[Vec<f64>]) -> Vec<f64> {
    bases
        .iter()
        .map(|b| (b.iter().map(|v| v.abs()).sum::<f64>() / b.len() as f64).max(1e-12))
        .collect()
}

/// The next block of the fig. 6 campaign, as `cpa_campaign` draws it:
/// per trace a uniform plaintext nibble, then that lane's waveform plus
/// Gaussian noise scaled to the lane's mean |current|.
fn campaign_block(
    noise: &mut SplitMix64,
    bases: &[Vec<f64>],
    means: &[f64],
    inputs: &mut [u8],
    samples: &mut [f64],
) {
    let n_samples = samples.len() / inputs.len();
    for (p, row) in inputs.iter_mut().zip(samples.chunks_mut(n_samples)) {
        *p = noise.below(16) as u8;
        let lane = usize::from(*p);
        for (dst, &v) in row.iter_mut().zip(&bases[lane]) {
            *dst = v + noise.gauss() * CAMPAIGN_NOISE * means[lane];
        }
    }
}

/// What the untimed CPA check of a `fig6_ensemble` iteration needs.
#[derive(Debug, Clone)]
pub struct CpaCheck {
    key: u8,
    bases: Vec<Vec<f64>>,
    stream_peaks: Vec<f64>,
}

impl CpaCheck {
    /// Rebuild the campaign's traces and compare the streamed peaks with
    /// the two-pass `cpa_attack` over the same traces.
    ///
    /// The CPA verdict itself is not a golden: a solver drift inside the
    /// ensemble band (2 µA of a 2 mA trace) already moves the key rank
    /// of marginal keys, so the streaming accumulator is checked against
    /// the reference attack instead.
    fn verify(&self) -> Result<(), String> {
        let n_samples = self.bases[0].len();
        let means = lane_means(&self.bases);
        let mut noise = SplitMix64::new(CAMPAIGN_SEED, u64::from(self.key));
        let mut inputs = vec![0u8; CAMPAIGN_BLOCK];
        let mut samples = vec![0.0f64; CAMPAIGN_BLOCK * n_samples];
        let mut traces = TraceSet::new(n_samples);
        for _ in 0..CAMPAIGN_TRACES / CAMPAIGN_BLOCK {
            campaign_block(&mut noise, &self.bases, &means, &mut inputs, &mut samples);
            for (&p, row) in inputs.iter().zip(samples.chunks(n_samples)) {
                traces.push(p, row);
            }
        }
        let reduced = ReducedAes::new(4);
        let model = HammingWeight::new(|x| reduced.sbox(x), 4);
        let reference = cpa_attack_par(&traces, &model, Parallelism::Serial);
        let ratio = golden::err_ratio(&self.stream_peaks, &reference.peak, CPA_AGREEMENT);
        if ratio > 1.0 {
            return Err(format!(
                "k{}: streamed CPA peaks disagree with cpa_attack (error ratio {ratio:.3e})",
                self.key
            ));
        }
        Ok(())
    }
}

fn library_char(
    params: &CellParams,
    order: &[(CellKind, LogicStyle)],
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for &(kind, style) in order {
        let t = tr
            .span("charlib.characterize", || {
                mcml_char::characterize_cell(kind, style, params)
            })
            .map_err(|e| format!("characterize_cell({kind:?}, {style}): {e}"))?;
        out.outputs.push((
            format!("library_char/{style}/{}", kind.table_name()),
            vec![
                t.area_um2,
                t.delay_fo1_ps,
                t.delay_fo4_ps,
                t.input_cap_ff,
                t.static_power_w,
                t.leakage_sleep_w,
                t.toggle_energy_j,
            ],
        ));
        out.items += 1;
    }
    let currents = mcml_char::default_sweep_currents();
    let sweep = tr
        .span("charlib.bias_sweep", || {
            mcml_char::bias_sweep_par(params, &currents, Parallelism::Serial)
        })
        .map_err(|e| format!("bias_sweep: {e}"))?;
    out.items += sweep.len();
    out.outputs.push((
        "library_char/sweep".into(),
        sweep
            .iter()
            .flat_map(|p| {
                [
                    p.iss,
                    p.delay_fo1_ps,
                    p.delay_fo4_ps,
                    p.power_w,
                    p.pdp_j,
                    p.adp_um2_ps,
                ]
            })
            .collect(),
    ));
    Ok(out)
}

/// One gate-level preset: the template attack's key byte and noise
/// seed, and the OR1K AES key and plaintext PRNG seed.
struct Preset {
    key8: u8,
    noise_seed: u64,
    bench: AesBenchParams,
}

impl Preset {
    fn new(p: u8) -> Self {
        let mut g = SplitMix64::new(PRESET_SEED, u64::from(p));
        let key8 = g.next_u64() as u8;
        let noise_seed = g.next_u64();
        let key: [u8; 16] = std::array::from_fn(|_| g.next_u64() as u8);
        // xorshift32 must not start from 0.
        let seed = (g.next_u64() as u32) | 1;
        Self {
            key8,
            noise_seed,
            // The `table3` binary's regime: 8 blocks diluted by idle
            // loops toward the paper's 0.01 % ISE duty, at 400 MHz.
            bench: AesBenchParams {
                key,
                blocks: 8,
                seed,
                idle_loops: 63_000,
            },
        }
    }
}

fn gate_level(flow: &mut DesignFlow, preset: u8, tr: &mut Tracer) -> Result<Outcome, String> {
    let p = Preset::new(preset);
    let mut out = Outcome {
        items: 1,
        ..Outcome::default()
    };

    let rows = tr
        .span("core.table3", || table3(flow, &p.bench, 400e6))
        .map_err(|e| format!("table3: {e}"))?;
    let power = |style: LogicStyle| {
        rows.iter()
            .find(|r| r.style == style)
            .map(|r| r.avg_power_w)
    };
    match (
        power(LogicStyle::PgMcml),
        power(LogicStyle::Cmos),
        power(LogicStyle::Mcml),
    ) {
        (Some(pg), Some(cmos), Some(mcml)) if pg < cmos && cmos < mcml => {}
        other => out.violations.push(format!(
            "Table 3 power order P(PG-MCML) < P(CMOS) < P(MCML) broken: {other:?}"
        )),
    }
    out.outputs.push((
        format!("gate_level/preset{preset}/table3"),
        rows.iter()
            .flat_map(|r| {
                [
                    r.cells as f64,
                    r.area_um2,
                    r.delay_ns,
                    r.avg_power_w,
                    r.ise_duty,
                ]
            })
            .collect(),
    ));

    let f5 = tr
        .span("core.fig5", || fig5(flow))
        .map_err(|e| format!("fig5: {e}"))?;
    let mut fig5_values = vec![f5.wake_latency];
    fig5_values.extend(f5.i_mcml.iter().step_by(20));
    fig5_values.extend(f5.i_pg.iter().step_by(20));
    out.outputs.push(("gate_level/fig5".into(), fig5_values));

    let attacks = tr
        .span("core.fig6_template", || {
            fig6_template(flow, p.key8, 0.01, p.noise_seed, &LogicStyle::ALL)
        })
        .map_err(|e| format!("fig6_template: {e}"))?;
    match attacks
        .iter()
        .find(|(row, _)| row.style == LogicStyle::Cmos)
    {
        Some((row, _)) if row.rank == 0 && row.margin > 1.0 => {}
        other => out.violations.push(format!(
            "template CPA must break CMOS (rank 0, margin > 1): {:?}",
            other.map(|(row, _)| row)
        )),
    }
    out.outputs.push((
        format!("gate_level/preset{preset}/fig6_template"),
        attacks
            .iter()
            .flat_map(|(row, _)| {
                [
                    row.rank as f64,
                    row.margin,
                    row.peak_correct,
                    row.best_wrong,
                ]
            })
            .collect(),
    ));

    let reports = tr.span("lint.corpus", || lint_corpus(&flow.params))?;
    let dirty: usize = reports
        .iter()
        .map(|r| r.deny_count() + r.warn_count())
        .sum();
    if dirty > 0 {
        out.violations
            .push(format!("lint corpus has {dirty} deny/warn diagnostics"));
    }
    out.outputs.push((
        "gate_level/lint".into(),
        reports
            .iter()
            .flat_map(|r| [r.deny_count(), r.warn_count(), r.waived.len()])
            .map(|n| n as f64)
            .collect(),
    ));
    Ok(out)
}

/// The `lint` binary's corpus: all 48 cells at transistor level, the
/// S-box ISE and registered reduced AES in every style at gate level,
/// and a two-S-box PG-MCML ISE under an inserted sleep plan — 55
/// targets, with the binary's configuration and waivers.
fn lint_corpus(params: &CellParams) -> Result<Vec<LintReport>, String> {
    let max_fanout = TechmapOptions::default().max_fanout;
    let mut cfg = LintConfig::default();
    cfg.max_fanout = max_fanout;
    let baseline_why = "CMOS attack baseline: the leak is the experiment's positive control";
    cfg.add_waiver("dataflow-secret-cmos", None, baseline_why);
    cfg.add_waiver("dataflow-glitch", None, baseline_why);
    let engine = LintEngine::new(cfg);
    let mut reports = Vec::with_capacity(55);
    for (kind, style) in all_cells() {
        reports.push(engine.lint_cell(&build_cell(kind, style, params)));
    }
    for style in LogicStyle::ALL {
        let sbox: Netlist = mcml_aes::build_sbox_ise(
            style,
            &SboxIseOptions {
                n_sboxes: 1,
                output_regs: false,
            },
        );
        reports.push(engine.lint_netlist(&sbox, None));
        let reduced = ReducedAes::new(4).build_registered_netlist(style);
        reports.push(engine.lint_netlist(&reduced, None));
    }
    let mut flow = DesignFlow::new(params.clone()).with_parallelism(Parallelism::Serial);
    flow.lint.config.max_fanout = max_fanout;
    let gated = mcml_aes::build_sbox_ise(
        LogicStyle::PgMcml,
        &SboxIseOptions {
            n_sboxes: 2,
            output_regs: false,
        },
    );
    flow.timing(CellKind::Buffer, LogicStyle::Cmos)
        .map_err(|e| format!("CMOS buffer characterisation: {e}"))?;
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
    reports.push(flow.lint_netlist(&gated, Some(&plan)));
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_seed_sensitive() {
        for w in Workload::ALL {
            let n = 2 * w.cycle() + 3;
            assert_eq!(w.inputs(5, n), w.inputs(5, n), "{}", w.name());
            assert_ne!(w.inputs(5, n), w.inputs(6, n), "{}", w.name());
            assert_eq!(w.inputs(5, n)[..2], w.inputs(5, 2)[..], "{}", w.name());
        }
    }

    #[test]
    fn scalar_cycle_covers_every_plaintext_xor_key_once() {
        let inputs = Workload::Fig6Scalar.inputs(11, 8);
        for cycle in inputs.chunks(4) {
            let mut xors: Vec<u8> = cycle
                .iter()
                .flat_map(|i| match i {
                    Input::KeyPlaintexts(k, pts) => pts.map(|p| p ^ k),
                    other => panic!("{other:?}"),
                })
                .collect();
            xors.sort_unstable();
            assert_eq!(xors, (0..16).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn golden_inputs_cover_every_drawable_input() {
        let scalar: std::collections::BTreeSet<(u8, u8)> = Workload::Fig6Scalar
            .golden_inputs()
            .iter()
            .flat_map(|i| match i {
                Input::KeyPlaintexts(k, pts) => pts.map(|p| (*k, p)),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(scalar.len(), 256);
        for w in [
            Workload::Fig6Ensemble,
            Workload::AesPartition,
            Workload::GateLevel,
        ] {
            assert_eq!(w.golden_inputs().len(), 16, "{}", w.name());
        }
    }

    #[test]
    fn iteration_counts_are_whole_cycles() {
        for w in Workload::ALL {
            for s in [1, 10, 60] {
                let n = w.iterations(s);
                assert!(n >= 1 && n % w.cycle() == 0, "{} {s}: {n}", w.name());
            }
        }
    }
}
