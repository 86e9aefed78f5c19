//! phoxbench: the end-to-end and per-layer host-clock benchmark of the
//! phox workspace. `README.md` beside this package describes the
//! workloads, the metrics and how each layer metric maps onto the
//! end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path phoxbench/Cargo.toml -- \
//!     --workload <llm_decode|llm_prefill|gnn_powerlaw|paper_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The lines before
//! it are the run envelope and a text report.

mod alloc;
mod envelope;
mod gnn;
mod golden;
mod harness;
mod hostref;
mod llm;
mod replay;
mod sweep;

use harness::{span_medians, Ctx};
use phox_core::trace::json::{json_number, json_string};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A workload: name, its run-envelope config digest and seeds, its run.
type Workload = (
    &'static str,
    fn(u64) -> (String, Vec<u64>),
    fn(&mut Ctx) -> Result<(), String>,
);

const WORKLOADS: [Workload; 4] = [
    ("llm_decode", llm::decode_manifest, llm::decode),
    ("llm_prefill", llm::prefill_manifest, llm::prefill),
    ("gnn_powerlaw", gnn::manifest, gnn::run),
    ("paper_sweep", sweep::manifest, sweep::run),
];
const USAGE: &str =
    "usage: phoxbench --workload <llm_decode|llm_prefill|gnn_powerlaw|paper_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where a per-layer metric's value comes from.
enum Src {
    /// A library counter, summed over one traced round.
    Counter(&'static str),
    /// The median of a benchmark span, times a unit scale.
    Span(&'static str, f64),
    /// A value the run computed (ratios, replay, allocation, model clock).
    Value,
}

/// Every per-layer metric, in output order: name, unit, source.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("nn.decode_step_us", "us", Src::Span("nn.decode_step", 1e6)),
    ("decode.steps", "count", Src::Counter("decode.steps")),
    (
        "decode.gemv_calls",
        "count",
        Src::Counter("decode.gemv_calls"),
    ),
    (
        "decode.cached_rows",
        "count",
        Src::Counter("decode.cached_rows"),
    ),
    ("nn.forward_ms", "ms", Src::Span("nn.forward", 1e3)),
    ("nn.gnn_forward_ms", "ms", Src::Span("nn.gnn_forward", 1e3)),
    ("nn.build_ms", "ms", Src::Span("nn.build", 1e3)),
    ("nn.power_law_s", "s", Src::Span("nn.power_law", 1.0)),
    ("gemm.calls", "count", Src::Counter("gemm.calls")),
    ("gemm.macs", "count", Src::Counter("gemm.macs")),
    ("gemm.calls_per_token", "count", Src::Value),
    ("gemm.gmac_s", "GMAC/s", Src::Value),
    ("int8.gemm_calls", "count", Src::Counter("int8.gemm_calls")),
    ("int8.gemv_calls", "count", Src::Counter("int8.gemv_calls")),
    ("int8.macs", "count", Src::Counter("int8.macs")),
    ("int8.gmac_s", "GMAC/s", Src::Value),
    ("sparse.rows", "count", Src::Counter("sparse.rows")),
    ("sparse.nnz", "count", Src::Counter("sparse.nnz")),
    ("sparse.gb_s", "GB/s", Src::Value),
    ("int8.spmm_calls", "count", Src::Counter("int8.spmm_calls")),
    ("alloc.bytes_per_token", "B", Src::Value),
    ("alloc.calls_per_token", "count", Src::Value),
    ("alloc.bytes_per_forward", "B", Src::Value),
    ("analog.matmuls", "count", Src::Counter("analog.matmuls")),
    ("analog.tiles", "count", Src::Counter("analog.tiles")),
    ("analog.scratch_reuse_ratio", "ratio", Src::Value),
    (
        "int8.analog_macs",
        "count",
        Src::Counter("int8.analog_macs"),
    ),
    (
        "int8.analog_agg_accs",
        "count",
        Src::Counter("int8.analog_agg_accs"),
    ),
    ("analog.gmac_s", "GMAC/s", Src::Value),
    (
        "photonics.design_space_ms",
        "ms",
        Src::Span("photonics.design_space", 1e3),
    ),
    (
        "tron.functional_fwd_ms",
        "ms",
        Src::Span("tron.functional_fwd", 1e3),
    ),
    ("tron.simulate_us", "us", Src::Span("tron.simulate", 1e6)),
    (
        "ghost.functional_fwd_ms",
        "ms",
        Src::Span("ghost.functional_fwd", 1e3),
    ),
    (
        "ghost.sparse_agg_nnz",
        "count",
        Src::Counter("ghost.sparse_agg_nnz"),
    ),
    ("ghost.simulate_us", "us", Src::Span("ghost.simulate", 1e6)),
    (
        "baselines.evaluate_us",
        "us",
        Src::Span("baselines.evaluate", 1e6),
    ),
    (
        "core.comparison_us",
        "us",
        Src::Span("core.comparison", 1e6),
    ),
    ("serve.run_ms", "ms", Src::Span("serve.run", 1e3)),
    ("serve.windows", "count", Src::Counter("serve.windows")),
    ("serve.completed", "count", Src::Counter("serve.completed")),
    ("serve.rejected", "count", Src::Counter("serve.rejected")),
    ("tron.gops", "GOPS", Src::Value),
    ("tron.pj_per_bit", "pJ/bit", Src::Value),
    ("ghost.gops", "GOPS", Src::Value),
    ("ghost.pj_per_bit", "pJ/bit", Src::Value),
    ("claims.tron_min_speedup", "x", Src::Value),
    ("claims.tron_min_efficiency", "x", Src::Value),
    ("claims.ghost_min_speedup", "x", Src::Value),
    ("claims.ghost_min_efficiency", "x", Src::Value),
    ("serve.p99_model_ms", "ms", Src::Value),
    ("serve.j_per_request", "J", Src::Value),
    ("trace.overhead_pct", "%", Src::Value),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (golden::DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.0 == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn per(v: f64, base: f64) -> f64 {
    if base > 0.0 {
        v / base
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(ctx: &Ctx) -> Vec<(&'static str, &'static str, f64)> {
    let spans = span_medians();
    let mut values = ctx.layer.clone();
    let (calls, bytes) = (ctx.trace.alloc_calls as f64, ctx.trace.alloc_bytes as f64);
    for (name, v) in [
        (
            "gemm.calls_per_token",
            per(ctx.counter("gemm.calls"), ctx.tokens_per_round),
        ),
        ("alloc.bytes_per_token", per(bytes, ctx.tokens_per_round)),
        ("alloc.calls_per_token", per(calls, ctx.tokens_per_round)),
        (
            "alloc.bytes_per_forward",
            per(bytes, ctx.forwards_per_round),
        ),
        (
            "analog.scratch_reuse_ratio",
            per(
                ctx.counter("analog.scratch_reuse_hits"),
                ctx.counter("analog.matmuls"),
            ),
        ),
        ("trace.overhead_pct", ctx.trace.overhead_pct),
    ] {
        values.insert(name.to_owned(), v);
    }
    PER_LAYER
        .iter()
        .map(|(name, unit, src)| {
            let v = match src {
                Src::Counter(key) => ctx.counter(key),
                Src::Span(key, scale) => spans.get(*key).map_or(0.0, |(s, _)| s * scale),
                Src::Value => values.get(*name).copied().unwrap_or(0.0),
            };
            (*name, *unit, v)
        })
        .collect()
}

/// The end-to-end metrics of an untraced run, with sample counts.
fn end_to_end(ctx: &Ctx) -> Vec<(&'static str, &'static str, f64, usize)> {
    let mut out = vec![
        ("setup_s", "s", ctx.setup_s(), ctx.setup_secs.len()),
        ("peak_rss_mb", "MB", ctx.peak_rss_mb, 1),
    ];
    for (name, leg) in ["leg1_norm_per_s", "leg2_norm_per_s", "leg3_norm_per_s"]
        .into_iter()
        .zip(&ctx.legs)
    {
        out.push((name, "items/s", leg.rate(), leg.secs.len()));
    }
    out
}

fn result_line(ctx: &Ctx, metrics: &[(&str, &str, f64)]) -> String {
    let fields = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(v),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let correct = ctx.gate.failed == 0 && ctx.gate.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{fields}}}}}",
        ctx.gate.attempted, ctx.gate.failed
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("phoxbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (name, manifest, run) = args.workload;
    let (digest, seeds) = manifest(args.seed);
    println!(
        "phoxbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("envelope {}", envelope::envelope(name, digest, seeds));

    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    if let Err(e) = run(&mut ctx) {
        eprintln!("phoxbench: {name} failed: {e}");
        std::process::exit(1);
    }
    golden::check(&mut ctx);

    for line in &ctx.lines {
        println!("{line}");
    }
    for leg in &ctx.legs {
        let mut secs = leg.secs.clone();
        let tail = harness::tail(&mut secs).map_or_else(
            || "n/a".to_owned(),
            |(p, v)| format!("p{p} {:.3} ms", v * 1e3),
        );
        println!(
            "metric {} = {:.4} {} normalised, {:.4} raw ({}: median op {:.3} ms, min {:.3} ms, \
             tail {tail}, reference kernel {:.3} ms, n = {} ops)",
            leg.alias,
            leg.rate() * leg.alias_scale,
            leg.alias_unit,
            leg.raw_rate() * leg.alias_scale,
            leg.name,
            leg.median_s() * 1e3,
            leg.secs.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            harness::median(&mut leg.ref_secs.clone()) * 1e3,
            leg.secs.len()
        );
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layer = per_layer(&ctx);
        for (name, unit, v) in &layer {
            println!("layer {name} = {v} {unit}");
        }
        layer
    } else {
        let e2e = end_to_end(&ctx);
        for (name, unit, v, n) in &e2e {
            println!("metric {name} = {v} {unit} (n = {n})");
        }
        e2e.into_iter()
            .map(|(name, unit, v, _)| (name, unit, v))
            .collect()
    };
    for (what, count) in ctx.gate.failures() {
        println!("failed: {what} (x{count})");
    }
    println!("{}", result_line(&ctx, &metrics));
}
