//! `paper_sweep`: the analytic model-clock stack.
//!
//! Three legs: the Fig. 8–11 comparisons plus the headline summary; the
//! sensitivity sweeps plus autoregressive generation; and a serving
//! sweep. The serving sweep runs four fault-free offered rates, from
//! mostly-solo windows to saturated windows with rejections, and the
//! three recovery policies under a seeded fault schedule. Arrivals are
//! open-loop, but only in simulated time inside `ServeEngine`; on the
//! host clock the benchmark is one closed-loop client like every other
//! workload. This is the only workload that runs the TRON/GHOST
//! performance models, the baselines, `core::comparison` and `serve`.

use phox_bench::{
    fig10_epb_ghost, fig11_gops_ghost, fig8_epb_tron, fig9_gops_tron, generation_table,
    ghost_workloads, sensitivity_sweeps, summary, tron_workloads,
};
use phox_core::baselines::roofline::WorkloadKind;
use phox_core::baselines::{gnn_suite, transformer_suite};
use phox_core::comparison::{aggregate_claims, claims, ghost_comparison, tron_comparison};
use phox_core::ghost::{GhostAccelerator, GhostConfig};
use phox_core::nn::transformer::TransformerConfig;
use phox_core::photonics::design_space::SweepConfig;
use phox_core::photonics::fault::FaultSchedule;
use phox_core::serve::{
    standard_mix, FaultContext, HazardTimeline, ProbeConfig, RecoveryPolicy, ServeConfig,
    ServeEngine, ServeReport, ServiceClass,
};
use phox_core::tensor::split_seed;
use phox_core::trace::{self, digest_of, Trace};
use phox_core::tron::{TronAccelerator, TronConfig};

use crate::harness::{err, fnv1a, set_spans, spanned, Ctx, Leg, Output};

/// Fault-free offered loads, req/s: mostly-solo windows up to saturation.
const RATES_HZ: [f64; 4] = [500.0, 2_000.0, 8_000.0, 32_000.0];
/// Simulated seconds per fault-free run. Serving is cheap on the host
/// (32k req/s for one model-second takes about a millisecond), so the
/// horizon is long enough to register on the host clock.
const FREE_S: f64 = 30.0;
/// The faulted runs: offered load, horizon, fault arrival rate, mean
/// fault lifetime, share of severe faults, class deadline.
const FAULT_RATE_HZ: f64 = 3_000.0;
const FAULT_S: f64 = 30.0;
const FAULTS_PER_S: f64 = 200.0;
const FAULT_MEAN_ACTIVE_S: f64 = 4e-3;
const FAULT_SEVERE_SHARE: f64 = 0.7;
const DEADLINE_S: f64 = 25e-3;
/// The fault-free rate whose report supplies the serving model-clock
/// metrics.
const MODEL_CLOCK_RATE_HZ: f64 = 8_000.0;
/// Attribution passes of the traced run.
const ATTRIBUTION_REPS: usize = 5;
/// The paper's headline factors (TRON throughput, TRON energy
/// efficiency, GHOST throughput, GHOST energy efficiency).
const PAPER_CLAIMS: [(&str, f64); 4] = [
    ("claims.tron_min_speedup", 14.0),
    ("claims.tron_min_efficiency", 8.0),
    ("claims.ghost_min_speedup", 10.2),
    ("claims.ghost_min_efficiency", 3.8),
];

fn policies() -> [RecoveryPolicy; 3] {
    [
        RecoveryPolicy::None,
        RecoveryPolicy::RetryBackoff {
            max_retries: 3,
            base_backoff_s: 200e-6,
        },
        RecoveryPolicy::Degrade {
            max_retries: 3,
            base_backoff_s: 200e-6,
            recalibration_s: 1e-3,
            fallback_slowdown: 1.5,
        },
    ]
}

/// The digest and seeds the run envelope records.
pub fn manifest(seed: u64) -> (String, Vec<u64>) {
    let shape = (
        RATES_HZ,
        FREE_S,
        (FAULT_RATE_HZ, FAULT_S, FAULTS_PER_S, FAULT_MEAN_ACTIVE_S),
        (FAULT_SEVERE_SHARE, DEADLINE_S),
        policies(),
    );
    (
        digest_of(&shape),
        vec![split_seed(seed, 1), split_seed(seed, 2)],
    )
}

struct Setup {
    tron: TronAccelerator,
    ghost: GhostAccelerator,
    classes: Vec<ServiceClass>,
    deadline_classes: Vec<ServiceClass>,
    timeline: HazardTimeline,
}

fn build(seed: u64) -> Result<Setup, String> {
    let sweep = SweepConfig::default();
    let tron_cfg = spanned("photonics", "design_space", || {
        TronConfig::from_design_space(&sweep)
    })
    .map_err(err)?;
    let ghost_cfg = spanned("photonics", "design_space", || {
        GhostConfig::from_design_space(&sweep)
    })
    .map_err(err)?;
    let tron = TronAccelerator::new(tron_cfg).map_err(err)?;
    let ghost = GhostAccelerator::new(ghost_cfg).map_err(err)?;
    let classes = standard_mix(&tron, &ghost).map_err(err)?;
    let deadline_classes = classes
        .iter()
        .map(|c| c.clone().with_deadline(DEADLINE_S))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let schedule = FaultSchedule::random(
        split_seed(seed, 2),
        tron.config().array_rows,
        tron.config().array_channels,
        FAULTS_PER_S,
        FAULT_S,
        FAULT_MEAN_ACTIVE_S,
        FAULT_SEVERE_SHARE,
    )
    .map_err(err)?;
    let timeline = HazardTimeline::resolve_tron(&schedule, tron.config()).map_err(err)?;
    Ok(Setup {
        tron,
        ghost,
        classes,
        deadline_classes,
        timeline,
    })
}

fn figures(s: &Setup) -> Result<String, String> {
    let figs = [
        fig8_epb_tron(&s.tron),
        fig9_gops_tron(&s.tron),
        fig10_epb_ghost(&s.ghost),
        fig11_gops_ghost(&s.ghost),
    ];
    let mut out = String::new();
    for fig in figs {
        out.push_str(&fig.map_err(err)?.to_json());
        out.push('\n');
    }
    out.push_str(&summary(&s.tron, &s.ghost).map_err(err)?);
    Ok(out)
}

fn sweeps(s: &Setup) -> Result<String, String> {
    let mut out = sensitivity_sweeps(&s.tron, &s.ghost).map_err(err)?;
    out.push_str(&generation_table(&s.tron).map_err(err)?);
    Ok(out)
}

/// The serving sweep: the fault-free rates, then one run per policy.
fn serve(s: &Setup, seed: u64) -> Result<Vec<ServeReport>, String> {
    let run = |engine: ServeEngine| spanned("serve", "run", || engine.run()).map_err(err);
    let mut reports = Vec::new();
    for rate in RATES_HZ {
        let config = ServeConfig {
            seed: split_seed(seed, 1),
            arrival_rate_hz: rate,
            duration_s: FREE_S,
            ..ServeConfig::default()
        };
        reports.push(run(
            ServeEngine::new(config, s.classes.clone()).map_err(err)?
        )?);
    }
    for policy in policies() {
        let config = ServeConfig {
            seed: split_seed(seed, 1),
            arrival_rate_hz: FAULT_RATE_HZ,
            duration_s: FAULT_S,
            ..ServeConfig::default()
        };
        let faults =
            FaultContext::new(s.timeline.clone(), policy, ProbeConfig::default()).map_err(err)?;
        let engine =
            ServeEngine::with_faults(config, s.deadline_classes.clone(), faults).map_err(err)?;
        reports.push(run(engine)?);
    }
    Ok(reports)
}

fn serve_json(reports: &[ServeReport]) -> String {
    reports
        .iter()
        .map(ServeReport::to_json)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The model-clock results: TRON on BERT-base/s128, GHOST on GCN/Cora,
/// and the headline claims over every figure workload.
fn model_clock(s: &Setup) -> Result<Vec<(&'static str, f64)>, String> {
    let tron = s
        .tron
        .simulate(&TransformerConfig::bert_base(128))
        .map_err(err)?;
    let ghost = s.ghost.simulate(&ghost_workloads()[0]).map_err(err)?;
    let mut tron_claims = Vec::new();
    for m in tron_workloads() {
        tron_claims.push(claims(&tron_comparison(&s.tron, &m).map_err(err)?).map_err(err)?);
    }
    let mut ghost_claims = Vec::new();
    for w in ghost_workloads() {
        ghost_claims.push(claims(&ghost_comparison(&s.ghost, &w).map_err(err)?).map_err(err)?);
    }
    let (t, g) = (
        aggregate_claims(&tron_claims),
        aggregate_claims(&ghost_claims),
    );
    Ok(vec![
        ("tron.gops", tron.perf.gops()),
        ("tron.pj_per_bit", tron.perf.epb_j() * 1e12),
        ("ghost.gops", ghost.perf.gops()),
        ("ghost.pj_per_bit", ghost.perf.epb_j() * 1e12),
        ("claims.tron_min_speedup", t.min_speedup),
        ("claims.tron_min_efficiency", t.min_efficiency),
        ("claims.ghost_min_speedup", g.min_speedup),
        ("claims.ghost_min_efficiency", g.min_efficiency),
    ])
}

fn bits_digest(values: &[(&str, f64)]) -> u64 {
    fnv1a(values.iter().flat_map(|(_, v)| v.to_bits().to_le_bytes()))
}

/// Times each call the figures make into the perf models, the
/// baselines and the comparison harness, one span per call.
fn attribute(s: &Setup) -> Result<(), String> {
    for m in tron_workloads() {
        spanned("tron", "simulate", || s.tron.simulate(&m)).map_err(err)?;
        let census = m.census();
        for b in transformer_suite() {
            spanned("baselines", "evaluate", || {
                b.evaluate(
                    &census,
                    WorkloadKind::DenseTransformer,
                    m.layers,
                    s.tron.config().batch,
                )
            })
            .map_err(err)?;
        }
        spanned("core", "comparison", || tron_comparison(&s.tron, &m)).map_err(err)?;
    }
    for w in ghost_workloads() {
        spanned("ghost", "simulate", || s.ghost.simulate(&w)).map_err(err)?;
        let census = w.census();
        for b in gnn_suite() {
            spanned("baselines", "evaluate", || {
                b.evaluate(&census, WorkloadKind::SparseGnn, w.model.layers(), 1)
            })
            .map_err(err)?;
        }
        spanned("core", "comparison", || ghost_comparison(&s.ghost, &w)).map_err(err)?;
    }
    Ok(())
}

/// Serving oracles: queue conservation in every run, no losses without
/// faults, windows under a quarter full at the lowest rate, and full
/// windows with rejections at the highest.
fn serve_oracles(ctx: &mut Ctx, reports: &[ServeReport]) {
    let max_batch = ServeConfig::default().max_batch as f64;
    for r in reports {
        ctx.gate.check(
            "serve conserves requests",
            r.arrivals == r.admitted + r.rejected
                && r.admitted == r.completed + r.dropped + r.timed_out,
        );
    }
    let free = &reports[..RATES_HZ.len()];
    ctx.gate.check(
        "fault-free serving loses nothing",
        free.iter()
            .all(|r| r.dropped == 0 && r.timed_out == 0 && r.failed_windows == 0),
    );
    let (low, high) = (&free[0], &free[free.len() - 1]);
    ctx.lines.push(format!(
        "oracle: occupancy {:.2} at {} req/s, {:.2} at {} req/s with {} rejected",
        low.mean_occupancy, RATES_HZ[0], high.mean_occupancy, RATES_HZ[3], high.rejected
    ));
    ctx.gate.check(
        "lowest rate fills under a quarter of a window",
        low.mean_occupancy < 0.25 * max_batch,
    );
    ctx.gate.check(
        "highest rate saturates with rejections",
        high.rejected > 0 && high.mean_occupancy > 0.5 * max_batch,
    );
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let setup = ctx.setup(|| build(seed))?;
    let s = &setup;
    let mut legs = vec![
        Leg {
            name: "figures",
            alias: "figure_sweeps_per_s",
            alias_unit: "sweeps/s",
            alias_scale: 1.0,
            items: 1.0,
            run: Box::new(|| figures(s).map(Output::Text)),
        },
        Leg {
            name: "sensitivity",
            alias: "sensitivity_sweeps_per_s",
            alias_unit: "sweeps/s",
            alias_scale: 1.0,
            items: 1.0,
            run: Box::new(|| sweeps(s).map(Output::Text)),
        },
        Leg {
            name: "serve",
            alias: "serve_sim_req_per_s",
            alias_unit: "req/s",
            alias_scale: 1.0,
            items: 1.0,
            run: Box::new(|| serve(s, seed).map(|r| Output::Text(serve_json(&r)))),
        },
    ];
    let outs = ctx.reference(&mut legs);
    let refs: Vec<Option<u64>> = outs
        .iter()
        .map(|o| o.as_ref().map(Output::digest))
        .collect();
    match serve(s, seed) {
        Ok(reports) => {
            ctx.gate.check(
                "serving reports equal their 1-thread reference",
                Some(Output::Text(serve_json(&reports)).digest()) == refs[2],
            );
            serve_oracles(ctx, &reports);
            // Work unit of the serving leg: one simulated arrival.
            legs[2].items = reports.iter().map(|r| r.arrivals as f64).sum();
            let at = RATES_HZ
                .iter()
                .position(|&r| r == MODEL_CLOCK_RATE_HZ)
                .expect("model-clock rate is swept");
            ctx.layer.insert(
                "serve.p99_model_ms".to_owned(),
                reports[at].p99_latency_s * 1e3,
            );
            ctx.layer.insert(
                "serve.j_per_request".to_owned(),
                reports[at].joules_per_request,
            );
        }
        Err(e) => {
            ctx.lines.push(format!("error: serve sweep failed: {e}"));
            ctx.gate.check("serve sweep runs", false);
        }
    }
    ctx.pin("paper_sweep.figures", true, refs[0].unwrap_or(0));
    ctx.pin("paper_sweep.sensitivity", true, refs[1].unwrap_or(0));
    ctx.pin("paper_sweep.serve", false, refs[2].unwrap_or(0));

    let untraced = model_clock(s);
    if let Err(e) = &untraced {
        ctx.lines.push(format!("error: model clock failed: {e}"));
    }
    ctx.gate
        .check("model-clock results compute", untraced.is_ok());
    let untraced = untraced.unwrap_or_default();
    ctx.pin("paper_sweep.model_clock", true, bits_digest(&untraced));
    for (name, paper) in PAPER_CLAIMS {
        if let Some((_, v)) = untraced.iter().find(|(n, _)| *n == name) {
            ctx.lines.push(format!(
                "model clock: {name} = {v:.3}x (paper >= {paper}x; model vs paper {:+.1}%)",
                (v / paper - 1.0) * 100.0
            ));
        }
    }
    for &(name, v) in &untraced {
        ctx.layer.insert(name.to_owned(), v);
    }

    ctx.measure(&mut legs, &refs, &mut || build(seed).map(drop));
    if ctx.traced {
        let tr = Trace::new();
        let traced = trace::with_installed(tr, || -> Result<_, String> {
            let values = model_clock(s)?;
            set_spans(true);
            let attributed = (0..ATTRIBUTION_REPS).try_for_each(|_| attribute(s));
            set_spans(false);
            attributed.map(|()| values)
        });
        let same = traced.is_ok_and(|v| bits_digest(&v) == bits_digest(&untraced));
        ctx.gate.check(
            "model-clock results are bit-identical with tracing on",
            same,
        );
    }
    Ok(())
}
