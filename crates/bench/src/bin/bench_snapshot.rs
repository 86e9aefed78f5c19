//! Records kernel speedup snapshots as JSON.
//!
//! Six snapshots are produced:
//!
//! * **gemm** (`BENCH_1.json`): the textbook i-j-k loop, the blocked
//!   register-tiled microkernel, and the blocked kernel with row-band
//!   parallelism at 64 / 256 / 1024, each against the per-output dot
//!   kernel the microkernel replaced (packed `Bᵀ`, one `simd::dot` per
//!   output). The same pair is timed at every f64 GEMM shape the
//!   benchmark workloads run, with GMAC/s and a
//!   `matches_dot_kernel_bitwise` verdict.
//! * **sparse** (`BENCH_2.json`): CSR aggregation vs the retired per-node
//!   dense-stack path on a Cora-class R-MAT graph and a 100k-node /
//!   1M-edge synthetic power-law graph. The acceptance gate for the
//!   sparse compute-path PR is ≥5× on the Cora-class graph and a
//!   completed large-graph run.
//! * **int8** (`BENCH_3.json`): the true int8 GEMM and SpMM kernels
//!   (`i8 x i8 -> i32`) against their f64 counterparts, plus a
//!   1/2/4/8-thread scaling sweep. Every int8 measurement is checked
//!   against the naive i32 oracle and for bit-identity across thread
//!   counts; the verdicts are recorded in the snapshot.
//! * **decode** (`BENCH_4.json`): KV-cached autoregressive decode —
//!   per-token latency of a cached decode step vs a full-sequence
//!   recompute, f64 and int8, across context lengths and a 1/2/4/8
//!   thread sweep. Every cached step is checked against the
//!   full-forward oracle (≤1e-9 relative f64, exact int8) and the
//!   growth verdicts (cached sub-quadratic, full recompute
//!   super-linear) are recorded in the snapshot.
//! * **serve** (`BENCH_5.json`): the batched-inference serving
//!   simulator under a sweep of offered arrival rates — p50/p99
//!   latency, sustained QPS, mean batch occupancy and joules/request
//!   for the standard prefill + decode + GNN mix, with every report
//!   checked byte-identical across 1/2/4/8-thread pools. The verdicts
//!   section records that joules/request falls as batch occupancy
//!   rises (weight residency amortised) and that every rate was
//!   thread-invariant.
//! * **faults** (`BENCH_6.json`): the accuracy-under-physics study.
//!   Section one sweeps a ladder of device-fault budgets (stuck MRs,
//!   dead ADC lanes, thermal drift) through the TRON and GHOST
//!   functional simulators and scores each faulted output against the
//!   f64 oracle — the accuracy cliff — with uncompensatable budgets
//!   recorded as typed error strings. Section two runs the serving
//!   engine under seeded random fault timelines at increasing fault
//!   arrival rates, once per recovery policy (none / retry+backoff /
//!   degrade), reporting availability, p99 latency and joules/request,
//!   plus the empty-schedule no-op and thread-identity verdicts.
//!
//! A seventh mode, **digest** (`BENCH_DIGEST.json`, not part of `all`),
//! emits no timings at all: it runs a fixed deterministic battery
//! through every SIMD-touched layer and writes result-bit digests, so
//! CI can run it under both dispatch modes (`PHOX_FORCE_SCALAR=1` vs
//! AVX2) and byte-diff the outputs.
//!
//! The gemm and sparse modes additionally measure the dispatched kernel
//! against a forced-scalar blocked reference and record
//! `simd_speedup` / `simd_bit_identical` verdicts in-run; a bit-identity
//! failure (or, for gemm with SIMD active, a regression below the
//! scalar kernel) exits non-zero after writing the snapshot. The
//! `speedup_vs_dot_kernel` ratios are recorded, not gated.
//!
//! Usage: `bench_snapshot [gemm|sparse|int8|decode|serve|faults|digest|all]
//! [OUTPUT.json]`
//! (default `all`, writing `BENCH_1.json` … `BENCH_6.json`). A bare
//! `OUTPUT.json` first argument keeps the legacy behaviour of writing
//! the gemm snapshot there.

use std::time::Instant;

use phox_core::nn::datasets::{power_law, GraphShape};
use phox_core::nn::decode::KvCache;
use phox_core::nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_core::nn::transformer::{
    FfActivation, TransformerConfig, TransformerKind, TransformerModel,
};
use phox_core::tensor::{gemm, gemm_i8, parallel, sparse, sparse_i8, Matrix, Prng, Quantizer};
use phox_core::trace::json::json_number;

/// Median-of-`reps` wall time for one evaluation of `f`, in seconds;
/// `checksum` folds each result into a finiteness sink so the optimizer
/// cannot discard the computation.
fn time_median_by<R>(reps: usize, mut f: impl FnMut() -> R, checksum: impl Fn(&R) -> f64) -> f64 {
    // One warm-up evaluation so page faults and allocator growth are
    // excluded from every sample.
    let sink = f();
    let mut acc = checksum(&sink);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let dt = t0.elapsed().as_secs_f64();
            acc += checksum(&out);
            dt
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    assert!(acc.is_finite());
    samples[samples.len() / 2]
}

/// [`time_median_by`] for the common dense-matrix case.
fn time_median<F: FnMut() -> Matrix>(reps: usize, f: F) -> f64 {
    time_median_by(reps, f, |m| m.get(0, 0))
}

/// Medians with interleaved sampling: one evaluation of each kernel per
/// rep, in order. Slow drift in machine conditions (frequency ramps,
/// transparent-huge-page promotion, co-tenant load) then lands on every
/// kernel instead of biasing whichever block was timed last — the ratio
/// verdicts divide these numbers, so they must be sampled together.
fn time_medians<R, const N: usize>(
    reps: usize,
    mut fs: [&mut dyn FnMut() -> R; N],
    checksum: impl Fn(&R) -> f64,
) -> [f64; N] {
    let mut acc: f64 = fs.iter_mut().map(|f| checksum(&f())).sum();
    let mut samples = [(); N].map(|()| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (f, times) in fs.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            let out = f();
            times.push(t0.elapsed().as_secs_f64());
            acc += checksum(&out);
        }
    }
    assert!(acc.is_finite());
    samples.map(|mut times| {
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        times[reps / 2]
    })
}

/// Shared snapshot envelope. Every snapshot carries the same
/// `benchmark` / `kernels` / `threads` / `timing` header (previously
/// copy-pasted per snapshot); `extras` holds snapshot-specific header
/// fields (values must already be JSON-encoded) and `key`/`rows` the
/// payload array.
fn snapshot_json(
    benchmark: &str,
    kernels: &[&str],
    extras: &[(&str, String)],
    key: &str,
    rows: &[String],
) -> String {
    let kernel_list: Vec<String> = kernels.iter().map(|k| format!("\"{k}\"")).collect();
    let mut json = format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"kernels\": [{}],\n",
        kernel_list.join(", "),
    );
    for (k, v) in extras {
        json.push_str(&format!("  \"{k}\": {v},\n"));
    }
    json.push_str(&format!(
        "  \"threads\": {},\n  \"timing\": \"median wall seconds\",\n  \"{key}\": [\n{}\n  ]\n}}\n",
        parallel::max_threads(),
        rows.join(",\n"),
    ));
    json
}

/// The blocked GEMM with the microkernel pinned to its public scalar
/// twin: same lane-major panels, same 16-lane accumulation order, no
/// SIMD — what a `PHOX_FORCE_SCALAR=1` run executes, and the in-run
/// baseline for the simd ratio and bit-identity verdicts (the production
/// kernel must match it bit for bit).
fn matmul_blocked_scalar(a: &Matrix, b: &Matrix) -> Matrix {
    let panels = gemm::simd::Panels::pack(b.as_slice(), a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm::simd::gemm_scalar(a.as_slice(), &panels, out.as_mut_slice());
    out
}

/// The blocked kernel the register-blocked microkernel replaced: `B`
/// transposed into a packed `Bᵀ`, output columns in panels of 64, and
/// one dispatched [`gemm::simd::dot`] per output — the honest baseline
/// for `speedup_vs_dot_kernel`. Every output is bit-identical to the
/// microkernel's.
fn matmul_dot_kernel(a: &Matrix, b: &Matrix) -> Matrix {
    const PANEL: usize = 64;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let bt = gemm::transpose_blocked(b);
    let (av, btv) = (a.as_slice(), bt.as_slice());
    let mut out = Matrix::zeros(m, n);
    for jc in (0..n).step_by(PANEL) {
        for i in 0..m {
            let arow = &av[i * k..(i + 1) * k];
            let orow = out.row_mut(i);
            for (j, o) in orow.iter_mut().enumerate().take(n.min(jc + PANEL)).skip(jc) {
                *o = gemm::simd::dot(arow, &btv[j * k..(j + 1) * k]);
            }
        }
    }
    out
}

/// SpMM with the accumulation pinned to the scalar axpy reference:
/// same CSR member order and same per-row clear as
/// [`sparse::spmm_into`], no SIMD. Writes into a caller-owned buffer
/// so the timed pair compares kernels, not allocators.
fn spmm_scalar_into(a: &sparse::CsrView<'_>, x: &Matrix, out: &mut Matrix) {
    for r in 0..a.rows() {
        let slot = out.row_mut(r);
        slot.fill(0.0);
        match a.row_values(r) {
            Some(vals) => {
                for (&u, &w) in a.row_indices(r).iter().zip(vals) {
                    gemm::simd::axpy_scalar(slot, w, x.row(u as usize));
                }
            }
            None => {
                for &u in a.row_indices(r) {
                    gemm::simd::axpy_unit_scalar(slot, x.row(u as usize));
                }
            }
        }
    }
}

/// The production microkernel against the kernel it replaced at one
/// shape, timed interleaved.
struct DotKernelPair {
    macs: f64,
    blocked_s: f64,
    dot_kernel_s: f64,
    bitwise: bool,
}

impl DotKernelPair {
    /// The pair at `a · b` from its interleaved medians.
    fn new(a: &Matrix, b: &Matrix, blocked_s: f64, dot_kernel_s: f64) -> DotKernelPair {
        DotKernelPair {
            macs: (a.rows() * a.cols() * b.cols()) as f64,
            blocked_s,
            dot_kernel_s,
            bitwise: gemm::matmul_blocked(a, b).unwrap() == matmul_dot_kernel(a, b),
        }
    }

    fn speedup(&self) -> f64 {
        self.dot_kernel_s / self.blocked_s
    }

    /// The JSON fields of the pair, each line indented for a row object.
    fn json_fields(&self) -> String {
        format!(
            concat!(
                "      \"dot_kernel_s\": {},\n",
                "      \"gmac_s\": {},\n",
                "      \"dot_kernel_gmac_s\": {},\n",
                "      \"speedup_vs_dot_kernel\": {},\n",
                "      \"matches_dot_kernel_bitwise\": {}\n",
            ),
            json_number(self.dot_kernel_s),
            json_number(self.macs / self.blocked_s / 1e9),
            json_number(self.macs / self.dot_kernel_s / 1e9),
            json_number(self.speedup()),
            self.bitwise,
        )
    }
}

struct SizeReport {
    n: usize,
    naive_s: f64,
    scalar_s: f64,
    parallel_s: f64,
    simd_bit_identical: bool,
    vs_dot: DotKernelPair,
}

impl SizeReport {
    fn blocked_speedup(&self) -> f64 {
        self.naive_s / self.vs_dot.blocked_s
    }

    fn parallel_speedup(&self) -> f64 {
        self.naive_s / self.parallel_s
    }

    /// Dispatched (SIMD when available) blocked kernel vs the
    /// forced-scalar blocked reference.
    fn simd_speedup(&self) -> f64 {
        self.scalar_s / self.vs_dot.blocked_s
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"n\": {},\n",
                "      \"naive_s\": {},\n",
                "      \"scalar_blocked_s\": {},\n",
                "      \"blocked_s\": {},\n",
                "      \"parallel_s\": {},\n",
                "      \"blocked_speedup\": {},\n",
                "      \"parallel_speedup\": {},\n",
                "      \"simd_speedup\": {},\n",
                "      \"simd_bit_identical\": {},\n",
                "{}",
                "    }}"
            ),
            self.n,
            json_number(self.naive_s),
            json_number(self.scalar_s),
            json_number(self.vs_dot.blocked_s),
            json_number(self.parallel_s),
            json_number(self.blocked_speedup()),
            json_number(self.parallel_speedup()),
            json_number(self.simd_speedup()),
            self.simd_bit_identical,
            self.vs_dot.json_fields(),
        )
    }
}

fn measure(n: usize, reps: usize) -> SizeReport {
    let a = Prng::new(1).fill_uniform(n, n, -1.0, 1.0);
    let b = Prng::new(2).fill_uniform(n, n, -1.0, 1.0);
    let naive_s = time_median(reps, || gemm::matmul_naive(&a, &b).unwrap());
    let [blocked_s, dot_kernel_s, scalar_s] = time_medians(
        reps,
        [
            &mut || gemm::matmul_blocked(&a, &b).unwrap(),
            &mut || matmul_dot_kernel(&a, &b),
            &mut || matmul_blocked_scalar(&a, &b),
        ],
        |m| m.get(0, 0),
    );
    let vs_dot = DotKernelPair::new(&a, &b, blocked_s, dot_kernel_s);
    let parallel_s = time_median(reps, || gemm::matmul(&a, &b).unwrap());
    let simd_bit_identical = gemm::matmul_blocked(&a, &b).unwrap() == matmul_blocked_scalar(&a, &b);
    SizeReport {
        n,
        naive_s,
        scalar_s,
        parallel_s,
        simd_bit_identical,
        vs_dot,
    }
}

fn write_or_die(out_path: &str, json: &str) {
    if let Err(e) = std::fs::write(out_path, json) {
        eprintln!("bench_snapshot: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("bench_snapshot: wrote {out_path}");
}

/// The f64 GEMM shapes the benchmark workloads run, `(m, k, n, reps)`:
/// the `llm_prefill` encoder's projections, feed-forward and per-head
/// score products (d_model 256, d_ff 1024, d_head 64, seq 256), then the
/// `gnn_powerlaw` GCN's two combine products on 100k nodes.
const WORKLOAD_SHAPES: [(usize, usize, usize, usize); 6] = [
    (256, 256, 256, 21),
    (256, 256, 1024, 11),
    (256, 1024, 256, 11),
    (256, 64, 256, 21),
    (100_000, 32, 16, 11),
    (100_000, 16, 4, 21),
];

fn run_gemm(out_path: &str) {
    let simd_active = gemm::simd::simd_active();
    let sizes_reps = [(64usize, 21usize), (256, 9), (1024, 3)];
    let mut reports = Vec::new();
    for &(n, reps) in &sizes_reps {
        eprintln!("bench_snapshot: measuring n = {n} ({reps} reps)...");
        let r = measure(n, reps);
        eprintln!(
            "bench_snapshot: n = {n}: naive {:.4}s scalar {:.4}s blocked {:.4}s ({:.2}x naive, {:.2}x scalar, {:.2}x dot kernel) parallel {:.4}s ({:.2}x) bit_identical={}",
            r.naive_s,
            r.scalar_s,
            r.vs_dot.blocked_s,
            r.blocked_speedup(),
            r.simd_speedup(),
            r.vs_dot.speedup(),
            r.parallel_s,
            r.parallel_speedup(),
            r.simd_bit_identical && r.vs_dot.bitwise,
        );
        reports.push(r);
    }
    let mut shapes = Vec::new();
    let mut shape_rows = Vec::new();
    for (i, &(m, k, n, reps)) in WORKLOAD_SHAPES.iter().enumerate() {
        let a = Prng::new(3 + 2 * i as u64).fill_uniform(m, k, -1.0, 1.0);
        let b = Prng::new(4 + 2 * i as u64).fill_uniform(k, n, -1.0, 1.0);
        let [blocked_s, dot_kernel_s] = time_medians(
            reps,
            [&mut || gemm::matmul_blocked(&a, &b).unwrap(), &mut || {
                matmul_dot_kernel(&a, &b)
            }],
            |m| m.get(0, 0),
        );
        let pair = DotKernelPair::new(&a, &b, blocked_s, dot_kernel_s);
        eprintln!(
            "bench_snapshot: {m}x{k}x{n}: blocked {:.5}s dot kernel {:.5}s ({:.2}x) bitwise={}",
            pair.blocked_s,
            pair.dot_kernel_s,
            pair.speedup(),
            pair.bitwise,
        );
        shape_rows.push(format!(
            "    {{\n      \"m\": {m},\n      \"k\": {k},\n      \"n\": {n},\n      \"reps\": {reps},\n      \"blocked_s\": {},\n{}    }}",
            json_number(pair.blocked_s),
            pair.json_fields(),
        ));
        shapes.push(pair);
    }
    // In-run verdicts: the dispatched kernel must agree with its scalar
    // twin and with the kernel it replaced bit for bit, and when the SIMD
    // path is active it must never regress below the scalar blocked
    // kernel.
    let bit_identical = reports.iter().all(|r| r.simd_bit_identical);
    let matches_dot_kernel = reports
        .iter()
        .map(|r| &r.vs_dot)
        .chain(&shapes)
        .all(|p| p.bitwise);
    let no_simd_regression = !simd_active || reports.iter().all(|r| r.simd_speedup() >= 1.0);
    eprintln!(
        "bench_snapshot: gemm verdicts: simd_active={simd_active} \
         simd_bit_identical={bit_identical} matches_dot_kernel_bitwise={matches_dot_kernel} \
         no_simd_regression={no_simd_regression}"
    );
    let rows: Vec<String> = reports.iter().map(SizeReport::to_json).collect();
    let json = snapshot_json(
        "gemm_kernels",
        &[
            "naive_ijk",
            "scalar_blocked_lane_panels",
            "blocked_microkernel",
            "blocked_parallel",
            "dot_kernel_packed_bt",
        ],
        &[
            ("simd_active", simd_active.to_string()),
            ("simd_bit_identical", bit_identical.to_string()),
            ("matches_dot_kernel_bitwise", matches_dot_kernel.to_string()),
            ("no_simd_regression", no_simd_regression.to_string()),
            (
                "workload_shapes",
                format!("[\n{}\n  ]", shape_rows.join(",\n")),
            ),
        ],
        "sizes",
        &rows,
    );
    write_or_die(out_path, &json);
    if !bit_identical || !matches_dot_kernel || !no_simd_regression {
        eprintln!("bench_snapshot: gemm verdicts FAILED");
        std::process::exit(1);
    }
}

struct GraphReport {
    name: &'static str,
    nodes: usize,
    edges: usize,
    features: usize,
    dense_stack_s: f64,
    sparse_s: f64,
    spmm_s: f64,
    spmm_scalar_s: f64,
    simd_bit_identical: bool,
}

impl GraphReport {
    fn speedup(&self) -> f64 {
        self.dense_stack_s / self.sparse_s
    }

    /// Dispatched (SIMD when available) SpMM vs the forced-scalar
    /// accumulation reference.
    fn simd_speedup(&self) -> f64 {
        self.spmm_scalar_s / self.spmm_s
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"nodes\": {},\n",
                "      \"edges\": {},\n",
                "      \"features\": {},\n",
                "      \"dense_stack_s\": {},\n",
                "      \"sparse_s\": {},\n",
                "      \"spmm_s\": {},\n",
                "      \"spmm_scalar_s\": {},\n",
                "      \"speedup\": {},\n",
                "      \"simd_speedup\": {},\n",
                "      \"simd_bit_identical\": {}\n",
                "    }}"
            ),
            self.name,
            self.nodes,
            self.edges,
            self.features,
            json_number(self.dense_stack_s),
            json_number(self.sparse_s),
            json_number(self.spmm_s),
            json_number(self.spmm_scalar_s),
            json_number(self.speedup()),
            json_number(self.simd_speedup()),
            self.simd_bit_identical,
        )
    }
}

fn measure_graph(
    name: &'static str,
    graph: &CsrGraph,
    features: usize,
    dense_reps: usize,
    sparse_reps: usize,
) -> GraphReport {
    // GCN's aggregation op: mean over neighbours plus the vertex itself.
    let x = Prng::new(11).fill_normal(graph.num_nodes(), features, 0.0, 1.0);
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, features, 8, 2), 12)
        .expect("valid benchmark model");
    let dense_stack_s = time_median(dense_reps, || {
        model.aggregate_dense_stack(graph, &x, Aggregation::Mean, true)
    });
    let sparse_s = time_median(sparse_reps, || {
        model.aggregate(graph, &x, Aggregation::Mean, true)
    });
    let mut spmm_out = Matrix::zeros(graph.num_nodes(), features);
    let mut scalar_out = Matrix::zeros(graph.num_nodes(), features);
    let [spmm_s, spmm_scalar_s] = {
        let view = graph.csr_view();
        time_medians(
            sparse_reps,
            [
                &mut || {
                    sparse::spmm_into(&view, &x, &mut spmm_out).expect("spmm operands agree");
                    spmm_out.get(0, 0)
                },
                &mut || {
                    spmm_scalar_into(&view, &x, &mut scalar_out);
                    scalar_out.get(0, 0)
                },
            ],
            |v| *v,
        )
    };
    let simd_bit_identical = spmm_out == scalar_out;
    GraphReport {
        name,
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        features,
        dense_stack_s,
        sparse_s,
        spmm_s,
        spmm_scalar_s,
        simd_bit_identical,
    }
}

fn run_sparse(out_path: &str) {
    eprintln!("bench_snapshot: generating Cora-class R-MAT graph...");
    let cora = GraphShape::cora()
        .instantiate(21)
        .expect("Cora-class instantiation");
    eprintln!("bench_snapshot: generating 100k-node / 1M-edge power-law graph...");
    let large = power_law(100_000, 1_000_000, 2.2, 22).expect("power-law instantiation");
    let mut reports = Vec::new();
    for (name, graph, features, dense_reps, sparse_reps) in [
        ("cora_class_rmat", &cora, 1_433usize, 5usize, 9usize),
        ("power_law_100k", &large, 64, 3, 5),
    ] {
        eprintln!("bench_snapshot: measuring {name}...");
        let r = measure_graph(name, graph, features, dense_reps, sparse_reps);
        eprintln!(
            "bench_snapshot: {name}: dense_stack {:.4}s sparse {:.4}s ({:.2}x) spmm {:.4}s scalar {:.4}s ({:.2}x) bit_identical={}",
            r.dense_stack_s,
            r.sparse_s,
            r.speedup(),
            r.spmm_s,
            r.spmm_scalar_s,
            r.simd_speedup(),
            r.simd_bit_identical,
        );
        reports.push(r);
    }
    let simd_active = gemm::simd::simd_active();
    let bit_identical = reports.iter().all(|r| r.simd_bit_identical);
    // SpMM is DRAM-bandwidth-bound, so the dispatched axpy is expected
    // at *parity* with the scalar loop, not at the GEMM kernel's
    // vector-width speedup — per-workload ratios swing with memory
    // noise. The verdict therefore guards against gross kernel
    // regressions only: geometric mean across workloads ≥ 0.9.
    let geomean =
        (reports.iter().map(|r| r.simd_speedup().ln()).sum::<f64>() / reports.len() as f64).exp();
    let no_simd_regression = !simd_active || geomean >= 0.9;
    eprintln!(
        "bench_snapshot: sparse verdicts: simd_active={simd_active} \
         simd_bit_identical={bit_identical} simd_geomean={geomean:.2} \
         no_simd_regression={no_simd_regression}"
    );
    let rows: Vec<String> = reports.iter().map(GraphReport::to_json).collect();
    let json = snapshot_json(
        "sparse_aggregation",
        &[
            "dense_stack",
            "csr_aggregate",
            "csr_spmm",
            "csr_spmm_scalar",
        ],
        &[
            ("aggregation", "\"mean_include_self\"".to_string()),
            ("simd_active", simd_active.to_string()),
            ("simd_bit_identical", bit_identical.to_string()),
            ("no_simd_regression", no_simd_regression.to_string()),
        ],
        "workloads",
        &rows,
    );
    write_or_die(out_path, &json);
    if !bit_identical {
        eprintln!("bench_snapshot: sparse simd verdicts FAILED");
        std::process::exit(1);
    }
}

/// Folds an i32 buffer into a checksum for [`time_median_by`].
fn i32_checksum(v: &[i32]) -> f64 {
    v.first().copied().unwrap_or(0) as f64
}

fn run_int8(out_path: &str) {
    // --- Section 1: dense GEMM, f64 blocked vs int8 blocked, single
    // thread (the per-core kernel comparison; scaling comes below).
    let mut gemm_rows = Vec::new();
    for &(n, reps) in &[(64usize, 21usize), (256, 9), (1024, 3)] {
        eprintln!("bench_snapshot: int8 gemm n = {n} ({reps} reps)...");
        let a = Prng::new(1).fill_uniform(n, n, -1.0, 1.0);
        let b = Prng::new(2).fill_uniform(n, n, -1.0, 1.0);
        let qa = Quantizer::calibrate(&a).quantize(&a);
        let qb = Quantizer::calibrate(&b).quantize(&b);
        let (f64_s, int8_s, int8_out) = parallel::with_threads(1, || {
            let f64_s = time_median(reps, || gemm::matmul_blocked(&a, &b).unwrap());
            let int8_s = time_median_by(
                reps,
                || qa.matmul_i32(&qb).unwrap(),
                |m| i32_checksum(m.as_i32_slice()),
            );
            (f64_s, int8_s, qa.matmul_i32(&qb).unwrap())
        });
        let oracle = gemm_i8::matmul_i32_naive(qa.as_i8_slice(), qb.as_i8_slice(), n, n, n)
            .expect("oracle operands agree");
        let matches_oracle = int8_out.as_i32_slice() == oracle.as_slice();
        let speedup = f64_s / int8_s;
        eprintln!(
            "bench_snapshot: n = {n}: f64_blocked {f64_s:.4}s int8 {int8_s:.4}s ({speedup:.2}x) oracle_ok={matches_oracle}"
        );
        gemm_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"n\": {},\n",
                "          \"f64_blocked_s\": {},\n",
                "          \"int8_s\": {},\n",
                "          \"int8_speedup\": {},\n",
                "          \"matches_naive_oracle\": {}\n",
                "        }}"
            ),
            n,
            json_number(f64_s),
            json_number(int8_s),
            json_number(speedup),
            matches_oracle,
        ));
    }

    // --- Section 2: sparse SpMM, f64 vs int8, on the BENCH_2 workloads.
    eprintln!("bench_snapshot: generating Cora-class R-MAT graph...");
    let cora = GraphShape::cora()
        .instantiate(21)
        .expect("Cora-class instantiation");
    eprintln!("bench_snapshot: generating 100k-node / 1M-edge power-law graph...");
    let large = power_law(100_000, 1_000_000, 2.2, 22).expect("power-law instantiation");
    let mut spmm_rows = Vec::new();
    for (name, graph, features, reps) in [
        ("cora_class_rmat", &cora, 256usize, 9usize),
        ("power_law_100k", &large, 64, 5),
    ] {
        eprintln!("bench_snapshot: int8 spmm {name}...");
        let x = Prng::new(11).fill_normal(graph.num_nodes(), features, 0.0, 1.0);
        let qx = Quantizer::calibrate(&x).quantize(&x);
        let view = graph.csr_i8_view();
        let f64_s = time_median(reps, || {
            sparse::spmm(&graph.csr_view(), &x).expect("spmm operands agree")
        });
        let int8_s = time_median_by(
            reps,
            || sparse_i8::spmm_i8(&view, qx.as_i8_slice(), features).expect("spmm operands agree"),
            |v| i32_checksum(v),
        );
        let speedup = f64_s / int8_s;
        eprintln!(
            "bench_snapshot: {name}: f64_spmm {f64_s:.4}s int8_spmm {int8_s:.4}s ({speedup:.2}x)"
        );
        spmm_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"name\": \"{}\",\n",
                "          \"nodes\": {},\n",
                "          \"edges\": {},\n",
                "          \"features\": {},\n",
                "          \"f64_spmm_s\": {},\n",
                "          \"int8_spmm_s\": {},\n",
                "          \"int8_speedup\": {}\n",
                "        }}"
            ),
            name,
            graph.num_nodes(),
            graph.num_edges(),
            features,
            json_number(f64_s),
            json_number(int8_s),
            json_number(speedup),
        ));
    }

    // --- Section 3: thread scaling sweep on the int8 kernels (gemm-1024
    // and power-law SpMM), with byte-identity checked against the
    // 1-thread result: i32 sums are exact, so any difference is a bug.
    let n = 1024usize;
    let a = Prng::new(1).fill_uniform(n, n, -1.0, 1.0);
    let b = Prng::new(2).fill_uniform(n, n, -1.0, 1.0);
    let qa = Quantizer::calibrate(&a).quantize(&a);
    let qb = Quantizer::calibrate(&b).quantize(&b);
    let x = Prng::new(11).fill_normal(large.num_nodes(), 64, 0.0, 1.0);
    let qx = Quantizer::calibrate(&x).quantize(&x);
    let view = large.csr_i8_view();
    let baseline = parallel::with_threads(1, || {
        (
            qa.matmul_i32(&qb).unwrap(),
            sparse_i8::spmm_i8(&view, qx.as_i8_slice(), 64).expect("spmm operands agree"),
        )
    });
    let mut sweep_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        eprintln!("bench_snapshot: int8 thread sweep, {threads} thread(s)...");
        let (gemm_s, spmm_s, identical) = parallel::with_threads(threads, || {
            let gemm_s = time_median_by(
                3,
                || qa.matmul_i32(&qb).unwrap(),
                |m| i32_checksum(m.as_i32_slice()),
            );
            let spmm_s = time_median_by(
                5,
                || sparse_i8::spmm_i8(&view, qx.as_i8_slice(), 64).expect("spmm operands agree"),
                |v| i32_checksum(v),
            );
            let g = qa.matmul_i32(&qb).unwrap();
            let s = sparse_i8::spmm_i8(&view, qx.as_i8_slice(), 64).expect("spmm operands agree");
            (gemm_s, spmm_s, g == baseline.0 && s == baseline.1)
        });
        eprintln!(
            "bench_snapshot: {threads} thread(s): gemm_1024 {gemm_s:.4}s spmm_power_law {spmm_s:.4}s bit_identical={identical}"
        );
        sweep_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"threads\": {},\n",
                "          \"gemm_1024_s\": {},\n",
                "          \"spmm_power_law_s\": {},\n",
                "          \"bit_identical_to_single_thread\": {}\n",
                "        }}"
            ),
            threads,
            json_number(gemm_s),
            json_number(spmm_s),
            identical,
        ));
    }

    let sections = [
        ("gemm_f64_vs_int8", "sizes", gemm_rows),
        ("spmm_f64_vs_int8", "workloads", spmm_rows),
        ("int8_thread_scaling", "sweep", sweep_rows),
    ]
    .map(|(section, key, rows)| {
        format!(
            "    {{\n      \"section\": \"{section}\",\n      \"{key}\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        )
    });
    let json = snapshot_json(
        "int8_kernels",
        &["f64_blocked", "int8_blocked", "f64_spmm", "int8_spmm"],
        &[("accumulation", "\"exact i32\"".to_string())],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
}

/// FNV-1a over a stream of f64 bit patterns — the result digest for the
/// dispatch-identity snapshot.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest_matrix(m: &Matrix) -> u64 {
    fnv1a(m.as_slice().iter().map(|v| v.to_bits()))
}

/// The `digest` mode: a fixed battery of deterministic computations
/// through every SIMD-touched layer — blocked/parallel GEMM, the
/// sequence/decode GEMV path, SpMM and GNN aggregation, the analog int8
/// engine (ideal and noisy), and full Tron/Ghost functional forwards —
/// reduced to result-bit digests. No timings, no thread counts, no
/// environment: the output bytes depend only on the computed values, so
/// CI runs this twice (`PHOX_FORCE_SCALAR=1` vs the AVX2 dispatch) and
/// byte-diffs the two files to enforce the bit-identity policy
/// end-to-end.
fn run_digest(out_path: &str) {
    use phox_core::ghost::{GhostConfig, GhostFunctional};
    use phox_core::nn::datasets::sbm;
    use phox_core::photonics::analog::AnalogEngine;
    use phox_core::tensor::ops;
    use phox_core::tron::{TronConfig, TronFunctional};

    let mut rows = Vec::new();
    let mut record = |name: &str, digest: u64| {
        eprintln!("bench_snapshot: digest {name} = {digest:016x}");
        rows.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"digest\": \"{digest:016x}\"\n    }}"
        ));
    };

    // Dense GEMM over ragged shapes (edge tiles, k = 1, GEMV-shaped),
    // serial blocked and 4-thread banded.
    let shapes = [
        (33usize, 1usize, 17usize),
        (7, 96, 5),
        (64, 64, 64),
        (96, 33, 65),
        (1, 128, 3),
    ];
    let mut blocked = 0u64;
    let mut banded = 0u64;
    let mut seq = 0u64;
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = Prng::new(100 + i as u64).fill_uniform(m, k, -1.0, 1.0);
        let b = Prng::new(200 + i as u64).fill_uniform(k, n, -1.0, 1.0);
        blocked ^= digest_matrix(&gemm::matmul_blocked(&a, &b).expect("shapes agree"));
        banded ^= parallel::with_threads(4, || {
            digest_matrix(&gemm::matmul(&a, &b).expect("shapes agree"))
        });
        seq ^= digest_matrix(&ops::matmul_seq(&a, &b).expect("shapes agree"));
    }
    record("gemm_blocked", blocked);
    record("gemm_parallel_4t", banded);
    record("matmul_seq", seq);

    // The register-blocked microkernel's edges the shapes above miss:
    // every row remainder past one 6-row tile, k past four 256-value
    // k-blocks and below one 16-lane step, and padded, 4-wide and full
    // column panels; the last two shapes clear the parallel threshold,
    // so the 4-thread run splits them into row bands.
    let mut micro = 0u64;
    let mut micro_banded = 0u64;
    for (i, &(m, k, n)) in [
        (7usize, 1029usize, 9usize),
        (8, 300, 12),
        (9, 17, 45),
        (10, 530, 3),
        (11, 5, 20),
        (12, 1100, 24),
        (50, 1040, 16),
    ]
    .iter()
    .enumerate()
    {
        let a = Prng::new(500 + i as u64).fill_uniform(m, k, -1.0, 1.0);
        let b = Prng::new(600 + i as u64).fill_uniform(k, n, -1.0, 1.0);
        micro ^= digest_matrix(&gemm::matmul_blocked(&a, &b).expect("shapes agree"));
        micro_banded ^= parallel::with_threads(4, || {
            digest_matrix(&gemm::matmul(&a, &b).expect("shapes agree"))
        });
    }
    record("gemm_microkernel", micro);
    record("gemm_microkernel_4t", micro_banded);

    // Single-row products through the transpose-free GEMV of
    // `gemm::matmul`: a 16-lane tail (k = 100) and a k below one lane
    // step, each with columns past one panel and a ragged column tail.
    let mut single_row = 0u64;
    for (i, &(k, n)) in [(100usize, 70usize), (7, 130)].iter().enumerate() {
        let a = Prng::new(300 + i as u64).fill_uniform(1, k, -1.0, 1.0);
        let b = Prng::new(400 + i as u64).fill_uniform(k, n, -1.0, 1.0);
        single_row ^= digest_matrix(&gemm::matmul(&a, &b).expect("shapes agree"));
    }
    record("gemm_single_row", single_row);

    // KV-cached generation on a d_head 20 decoder, so the fused attention
    // kernel runs a 16-lane score body plus a tail, four-row score groups
    // plus leftover rows, and 16- and 4-column context blocks.
    let decoder = TransformerModel::random(
        TransformerConfig {
            kind: TransformerKind::DecoderOnly,
            layers: 2,
            d_model: 40,
            heads: 2,
            d_ff: 80,
            ..TransformerConfig::tiny(6)
        },
        46,
    )
    .expect("valid digest model");
    let prompt = Prng::new(47).fill_normal(6, 40, 0.0, 1.0);
    record(
        "decode_generate_f64",
        digest_matrix(&decoder.generate(&prompt, 7).expect("generation").tokens),
    );
    record(
        "decode_generate_int8",
        digest_matrix(
            &decoder
                .generate_int8(&prompt, 7)
                .expect("generation")
                .tokens,
        ),
    );

    // Sparse: SpMM and mean aggregation on a small power-law graph.
    let graph = power_law(2_000, 10_000, 2.2, 33).expect("power-law instantiation");
    let x = Prng::new(34).fill_normal(graph.num_nodes(), 48, 0.0, 1.0);
    record(
        "spmm",
        digest_matrix(&sparse::spmm(&graph.csr_view(), &x).expect("spmm operands agree")),
    );
    let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 48, 8, 2), 35)
        .expect("valid digest model");
    record(
        "gcn_aggregate",
        digest_matrix(&model.aggregate(&graph, &x, Aggregation::Mean, true)),
    );

    // The analog int8 engine, ideal and noisy, ragged tiles.
    let a = Prng::new(36).fill_normal(70, 40, 0.0, 1.0);
    let b = Prng::new(37).fill_normal(40, 36, 0.0, 1.0);
    let mut ideal = AnalogEngine::ideal(8, 8, 38);
    record(
        "analog_matmul_ideal",
        digest_matrix(&ideal.matmul(&a, &b).expect("shapes agree")),
    );
    let mut noisy = AnalogEngine::new(5e-3, 8, 8, 39).expect("valid engine");
    record(
        "analog_matmul_noisy",
        digest_matrix(&noisy.matmul(&a, &b).expect("shapes agree")),
    );

    // Full functional forwards: transformer and GNN (GCN + GAT).
    let tf_model =
        TransformerModel::random(TransformerConfig::tiny(8), 40).expect("valid digest model");
    let tf_x = Prng::new(41).fill_normal(8, 32, 0.0, 1.0);
    let mut tron = TronFunctional::new(&TronConfig::default(), 42).expect("valid simulator");
    record(
        "tron_forward",
        digest_matrix(&tron.forward(&tf_model, &tf_x).expect("forward succeeds")),
    );
    let task = sbm(3, 8, 12, 0.5, 0.05, 43).expect("graph task");
    for (name, kind) in [
        ("ghost_forward_gcn", GnnKind::Gcn),
        ("ghost_forward_gat", GnnKind::Gat),
    ] {
        let gnn = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 44)
            .expect("valid digest model");
        let mut ghost = GhostFunctional::new(&GhostConfig::default(), 45).expect("valid simulator");
        record(
            name,
            digest_matrix(
                &ghost
                    .forward(&gnn, &task.graph, &task.features)
                    .expect("forward succeeds"),
            ),
        );
    }

    // Deliberately NOT snapshot_json: that envelope embeds the machine's
    // thread count, which would defeat a cross-configuration byte-diff.
    let json = format!(
        "{{\n  \"benchmark\": \"simd_dispatch_digest\",\n  \"digests\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    write_or_die(out_path, &json);
}

/// Maximum relative elementwise difference between two equally shaped
/// row slices (the decode-oracle error metric).
fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-300))
        .fold(0.0, f64::max)
}

/// Advances `cache` with decode steps over rows `cache.rows()..rows` of
/// `x` using `step`, leaving the cache holding exactly `rows` rows.
fn prime_cache(
    cache: &mut KvCache,
    x: &Matrix,
    rows: usize,
    mut step: impl FnMut(&mut KvCache, &Matrix) -> Matrix,
) {
    for r in cache.rows()..rows {
        let row = Matrix::row_vector(x.row(r));
        step(cache, &row);
    }
}

fn run_decode(out_path: &str) {
    // A small decoder-only model: d_model deliberately modest so the
    // O(t^2 d) attention term overtakes the O(t d^2) projections inside
    // the measured context range and the quadratic/sub-quadratic growth
    // split is visible in the numbers.
    let cfg = TransformerConfig {
        name: "decode-bench".to_string(),
        kind: TransformerKind::DecoderOnly,
        layers: 4,
        d_model: 64,
        heads: 4,
        d_ff: 256,
        seq_len: 64,
        ff_activation: FfActivation::Gelu,
    };
    let d = cfg.d_model;
    let model = TransformerModel::random(cfg.clone(), 31).expect("valid benchmark model");
    let decoder = model.int8_decoder();
    let contexts = [64usize, 128, 256, 512, 1024];
    let full_reps = [9usize, 7, 5, 3, 3];
    let t_max = *contexts.last().unwrap();
    let x = Prng::new(32).fill_normal(t_max, d, 0.0, 1.0);

    // --- Section 1: per-token latency, cached step vs full-sequence
    // recompute, both engines, across context lengths. The caches grow
    // incrementally across the sweep; each timed rep appends one row and
    // truncates it back off, so the timed context stays fixed.
    let mut f64_cache = KvCache::new(&cfg, t_max).expect("cache fits the sweep");
    let mut int8_cache = KvCache::new(&cfg, t_max).expect("cache fits the sweep");
    let mut latency_rows = Vec::new();
    let mut cached_f64 = Vec::new();
    let mut full_f64 = Vec::new();
    for (&t, &reps) in contexts.iter().zip(&full_reps) {
        eprintln!("bench_snapshot: decode context {t} ({reps} full reps)...");
        prime_cache(&mut f64_cache, &x, t - 1, |c, r| {
            model.decode_step(c, r).expect("decode step")
        });
        prime_cache(&mut int8_cache, &x, t - 1, |c, r| {
            decoder.step(c, r).expect("decode step")
        });
        let row = Matrix::row_vector(x.row(t - 1));
        let prefix = Matrix::from_vec(t, d, x.as_slice()[..t * d].to_vec()).unwrap();
        let cached_f64_s = time_median(21, || {
            let y = model
                .decode_step(&mut f64_cache, &row)
                .expect("decode step");
            f64_cache.truncate(t - 1);
            y
        });
        let cached_int8_s = time_median(21, || {
            let y = decoder.step(&mut int8_cache, &row).expect("decode step");
            int8_cache.truncate(t - 1);
            y
        });
        let full_f64_s = time_median(reps, || {
            model.forward_prefix(&prefix).expect("full forward")
        });
        let full_int8_s = time_median(reps, || {
            model.forward_prefix_int8(&prefix).expect("full forward")
        });
        // Oracle: the cached step at context t must reproduce the last
        // row of the full causal forward over the same prefix.
        let y_f64 = model
            .decode_step(&mut f64_cache, &row)
            .expect("decode step");
        f64_cache.truncate(t - 1);
        let y_int8 = decoder.step(&mut int8_cache, &row).expect("decode step");
        int8_cache.truncate(t - 1);
        let full = model.forward_prefix(&prefix).expect("full forward");
        let full_i8 = model.forward_prefix_int8(&prefix).expect("full forward");
        let f64_err = max_rel_err(y_f64.row(0), full.row(t - 1));
        let f64_ok = f64_err <= 1e-9;
        let int8_ok = y_int8.row(0) == full_i8.row(t - 1);
        eprintln!(
            "bench_snapshot: t = {t}: cached_f64 {cached_f64_s:.6}s full_f64 {full_f64_s:.4}s \
             cached_int8 {cached_int8_s:.6}s full_int8 {full_int8_s:.4}s \
             f64_ok={f64_ok} (rel {f64_err:.2e}) int8_ok={int8_ok}"
        );
        cached_f64.push(cached_f64_s);
        full_f64.push(full_f64_s);
        latency_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"context\": {},\n",
                "          \"cached_f64_s\": {},\n",
                "          \"full_f64_s\": {},\n",
                "          \"cached_int8_s\": {},\n",
                "          \"full_int8_s\": {},\n",
                "          \"full_over_cached_f64\": {},\n",
                "          \"f64_matches_full_forward\": {},\n",
                "          \"int8_matches_full_forward\": {}\n",
                "        }}"
            ),
            t,
            json_number(cached_f64_s),
            json_number(full_f64_s),
            json_number(cached_int8_s),
            json_number(full_int8_s),
            json_number(full_f64_s / cached_f64_s),
            f64_ok,
            int8_ok,
        ));
    }

    // --- Section 2: growth verdicts. Over the 16x context sweep the
    // cached per-token cost is O(d^2 + t d) — sub-quadratic (in fact
    // sub-linear here) — while full recompute is O(t d^2 + t^2 d) and
    // must grow super-linearly once the attention term dominates.
    let ctx_growth = *contexts.last().unwrap() as f64 / contexts[0] as f64;
    let cached_growth = cached_f64.last().unwrap() / cached_f64[0];
    let full_growth = full_f64.last().unwrap() / full_f64[0];
    let cached_subquadratic = cached_growth < ctx_growth * ctx_growth;
    let full_superlinear = full_growth > ctx_growth;
    eprintln!(
        "bench_snapshot: growth over {ctx_growth:.0}x context: cached {cached_growth:.2}x \
         full {full_growth:.2}x cached_subquadratic={cached_subquadratic} \
         full_superlinear={full_superlinear}"
    );
    let growth_rows = vec![format!(
        concat!(
            "        {{\n",
            "          \"context_growth\": {},\n",
            "          \"cached_f64_growth\": {},\n",
            "          \"full_f64_growth\": {},\n",
            "          \"cached_subquadratic\": {},\n",
            "          \"full_superlinear\": {}\n",
            "        }}"
        ),
        json_number(ctx_growth),
        json_number(cached_growth),
        json_number(full_growth),
        cached_subquadratic,
        full_superlinear,
    )];

    // --- Section 3: thread sweep at the largest context, with the
    // decode outputs checked bit-identical against the 1-thread run.
    let t = t_max;
    prime_cache(&mut f64_cache, &x, t - 1, |c, r| {
        model.decode_step(c, r).expect("decode step")
    });
    prime_cache(&mut int8_cache, &x, t - 1, |c, r| {
        decoder.step(c, r).expect("decode step")
    });
    let row = Matrix::row_vector(x.row(t - 1));
    let prefix = Matrix::from_vec(t, d, x.as_slice()[..t * d].to_vec()).unwrap();
    let baseline = parallel::with_threads(1, || {
        let y = model
            .decode_step(&mut f64_cache, &row)
            .expect("decode step");
        f64_cache.truncate(t - 1);
        let yi = decoder.step(&mut int8_cache, &row).expect("decode step");
        int8_cache.truncate(t - 1);
        (y, yi)
    });
    let mut sweep_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        eprintln!("bench_snapshot: decode thread sweep, {threads} thread(s)...");
        let (cached_s, full_s, identical) = parallel::with_threads(threads, || {
            let cached_s = time_median(21, || {
                let y = model
                    .decode_step(&mut f64_cache, &row)
                    .expect("decode step");
                f64_cache.truncate(t - 1);
                y
            });
            let full_s = time_median(3, || model.forward_prefix(&prefix).expect("full forward"));
            let y = model
                .decode_step(&mut f64_cache, &row)
                .expect("decode step");
            f64_cache.truncate(t - 1);
            let yi = decoder.step(&mut int8_cache, &row).expect("decode step");
            int8_cache.truncate(t - 1);
            (cached_s, full_s, y == baseline.0 && yi == baseline.1)
        });
        eprintln!(
            "bench_snapshot: {threads} thread(s): cached_step {cached_s:.6}s \
             full_forward {full_s:.4}s bit_identical={identical}"
        );
        sweep_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"threads\": {},\n",
                "          \"cached_step_s\": {},\n",
                "          \"full_forward_s\": {},\n",
                "          \"bit_identical_to_single_thread\": {}\n",
                "        }}"
            ),
            threads,
            json_number(cached_s),
            json_number(full_s),
            identical,
        ));
    }

    let sections = [
        ("per_token_latency", "contexts", latency_rows),
        ("growth_verdicts", "verdicts", growth_rows),
        ("decode_thread_scaling", "sweep", sweep_rows),
    ]
    .map(|(section, key, rows)| {
        format!(
            "    {{\n      \"section\": \"{section}\",\n      \"{key}\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        )
    });
    let json = snapshot_json(
        "decode_kernels",
        &[
            "kv_cached_step_f64",
            "kv_cached_step_int8",
            "full_recompute_f64",
            "full_recompute_int8",
        ],
        &[(
            "model",
            format!(
                "{{\"layers\": {}, \"d_model\": {}, \"heads\": {}, \"d_ff\": {}}}",
                cfg.layers, cfg.d_model, cfg.heads, cfg.d_ff
            ),
        )],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
}

fn run_serve(out_path: &str) {
    use phox_core::ghost::{GhostAccelerator, GhostConfig};
    use phox_core::serve::{standard_mix, ServeConfig, ServeEngine};
    use phox_core::tron::{TronAccelerator, TronConfig};

    let build_classes = || {
        let tron = TronAccelerator::new(TronConfig::default()).expect("TRON config");
        let ghost = GhostAccelerator::new(GhostConfig::default()).expect("GHOST config");
        standard_mix(&tron, &ghost).expect("standard serving mix")
    };
    // Offered load sweep: from near-idle (windows mostly solo) to
    // saturation (windows full), so the occupancy axis actually moves.
    let rates_hz = [500.0f64, 2_000.0, 8_000.0, 32_000.0];
    let mut rate_rows = Vec::new();
    let mut occupancies = Vec::new();
    let mut jprs = Vec::new();
    let mut all_thread_identical = true;
    for &rate in &rates_hz {
        eprintln!("bench_snapshot: serve sweep at {rate:.0} req/s...");
        let config = ServeConfig {
            arrival_rate_hz: rate,
            duration_s: 0.05,
            ..ServeConfig::default()
        };
        let run_once = || {
            ServeEngine::new(config, build_classes())
                .expect("serve engine")
                .run()
                .expect("serve run")
        };
        let report = parallel::with_threads(1, run_once);
        let baseline_json = report.to_json();
        let thread_identical = [2usize, 4, 8]
            .iter()
            .all(|&threads| parallel::with_threads(threads, run_once).to_json() == baseline_json);
        all_thread_identical &= thread_identical;
        eprintln!(
            "bench_snapshot: {rate:.0} req/s: occupancy {:.2} qps {:.0} p99 {:.2}ms \
             J/req {:.4} rejected {} thread_identical={thread_identical}",
            report.mean_occupancy,
            report.sustained_qps,
            report.p99_latency_s * 1e3,
            report.joules_per_request,
            report.rejected,
        );
        occupancies.push(report.mean_occupancy);
        jprs.push(report.joules_per_request);
        rate_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"offered_rate_hz\": {},\n",
                "          \"arrivals\": {},\n",
                "          \"admitted\": {},\n",
                "          \"rejected\": {},\n",
                "          \"completed\": {},\n",
                "          \"windows\": {},\n",
                "          \"mean_occupancy\": {},\n",
                "          \"sustained_qps\": {},\n",
                "          \"p50_latency_s\": {},\n",
                "          \"p99_latency_s\": {},\n",
                "          \"joules_per_request\": {},\n",
                "          \"thread_identical\": {}\n",
                "        }}"
            ),
            json_number(rate),
            report.arrivals,
            report.admitted,
            report.rejected,
            report.completed,
            report.windows,
            json_number(report.mean_occupancy),
            json_number(report.sustained_qps),
            json_number(report.p50_latency_s),
            json_number(report.p99_latency_s),
            json_number(report.joules_per_request),
            thread_identical,
        ));
    }

    // Verdicts: occupancy must rise with offered load, and amortised
    // residency must pull joules/request down as the windows fill.
    let occupancy_rises = occupancies.windows(2).all(|w| w[1] >= w[0]);
    let jpr_decreases = jprs.windows(2).all(|w| w[1] <= w[0]);
    eprintln!(
        "bench_snapshot: serve verdicts: occupancy_rises={occupancy_rises} \
         jpr_decreases_with_occupancy={jpr_decreases} \
         all_thread_identical={all_thread_identical}"
    );
    let verdict_rows = vec![format!(
        concat!(
            "        {{\n",
            "          \"occupancy_rises_with_load\": {},\n",
            "          \"joules_per_request_decreases_with_occupancy\": {},\n",
            "          \"reports_bit_identical_across_threads\": {}\n",
            "        }}"
        ),
        occupancy_rises, jpr_decreases, all_thread_identical,
    )];

    let sections = [
        ("rate_sweep", "rates", rate_rows),
        ("serve_verdicts", "verdicts", verdict_rows),
    ]
    .map(|(section, key, rows)| {
        format!(
            "    {{\n      \"section\": \"{section}\",\n      \"{key}\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        )
    });
    let json = snapshot_json(
        "serving_under_load",
        &["prefill/BERT-base", "decode/GPT-2", "gnn/gcn/cora"],
        &[
            (
                "engine",
                "{\"max_batch\": 16, \"duration_s\": 0.05, \"thread_sweep\": [1, 2, 4, 8]}"
                    .to_string(),
            ),
            // Unlike the kernel snapshots, every latency here is
            // deterministic simulated time, not a wall-clock measurement.
            ("time_base", "\"deterministic model seconds\"".to_string()),
        ],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
}

/// One rung of the accuracy-cliff ladder: a fault budget expressed as
/// stuck rings + dead ADC lanes + a drift magnitude.
struct FaultBudget {
    label: &'static str,
    stuck: usize,
    dead_lanes: &'static [usize],
    drift_nm: f64,
}

impl FaultBudget {
    fn fault_count(&self) -> usize {
        self.stuck + self.dead_lanes.len() + usize::from(self.drift_nm > 0.0)
    }

    /// Builds the plan against a given bank geometry. Stuck cells walk a
    /// stride-7 row pattern (coprime with both array heights) so the
    /// ladder never double-faults a cell.
    fn plan(
        &self,
        rows: usize,
        channels: usize,
    ) -> Result<phox_core::photonics::fault::FaultPlan, String> {
        use phox_core::photonics::fault::FaultPlan;
        let mut plan = FaultPlan::new(rows, channels);
        for i in 0..self.stuck {
            plan = plan
                .stuck_mr((i * 7) % rows, (i * 3) % channels, 0.7)
                .map_err(|e| e.to_string())?;
        }
        for &lane in self.dead_lanes {
            plan = plan.dead_adc_lane(lane).map_err(|e| e.to_string())?;
        }
        if self.drift_nm > 0.0 {
            plan = plan
                .thermal_drift(self.drift_nm)
                .map_err(|e| e.to_string())?;
        }
        Ok(plan)
    }
}

const FAULT_BUDGETS: &[FaultBudget] = &[
    FaultBudget {
        label: "fault-free",
        stuck: 0,
        dead_lanes: &[],
        drift_nm: 0.0,
    },
    FaultBudget {
        label: "2 stuck rings",
        stuck: 2,
        dead_lanes: &[],
        drift_nm: 0.0,
    },
    FaultBudget {
        label: "4 stuck rings",
        stuck: 4,
        dead_lanes: &[],
        drift_nm: 0.0,
    },
    FaultBudget {
        label: "8 stuck rings",
        stuck: 8,
        dead_lanes: &[],
        drift_nm: 0.0,
    },
    FaultBudget {
        label: "16 stuck rings",
        stuck: 16,
        dead_lanes: &[],
        drift_nm: 0.0,
    },
    FaultBudget {
        label: "16 stuck + 2 dead lanes",
        stuck: 16,
        dead_lanes: &[3, 9],
        drift_nm: 0.0,
    },
    FaultBudget {
        label: "16 stuck + 2 dead + 1.5nm drift",
        stuck: 16,
        dead_lanes: &[3, 9],
        drift_nm: 1.5,
    },
    FaultBudget {
        label: "10nm drift (uncompensatable)",
        stuck: 0,
        dead_lanes: &[],
        drift_nm: 10.0,
    },
];

/// JSON for one accuracy leg: the scored report, or the typed error
/// string when the budget is uncompensatable.
fn leg_json(result: &Result<phox_core::nn::quant_eval::QuantReport, String>) -> String {
    use phox_core::trace::json::json_string;
    match result {
        Ok(r) => format!(
            concat!(
                "{{\"fp_accuracy\": {}, \"hw_accuracy\": {}, ",
                "\"agreement\": {}, \"mean_relative_error\": {}}}"
            ),
            json_number(r.fp_accuracy),
            json_number(r.int8_accuracy),
            json_number(r.agreement),
            json_number(r.mean_relative_error),
        ),
        Err(e) => format!("{{\"error\": {}}}", json_string(e)),
    }
}

fn run_faults(out_path: &str) {
    use phox_core::ghost::{GhostConfig, GhostFunctional};
    use phox_core::nn::datasets::{labelled_sequences, sbm};
    use phox_core::nn::quant_eval::{
        evaluate_gnn_int8, evaluate_gnn_outputs, evaluate_transformer_int8,
        evaluate_transformer_outputs, QuantReport,
    };
    use phox_core::photonics::fault::FaultSchedule;
    use phox_core::serve::{
        standard_mix, FaultContext, HazardTimeline, ProbeConfig, RecoveryPolicy, ServeConfig,
        ServeEngine,
    };
    use phox_core::trace::json::json_string;
    use phox_core::tron::{TronAccelerator, TronConfig, TronFunctional};

    // --- Section 1: the accuracy cliff. Faulted photonic outputs scored
    // against the f64 oracle, across a ladder of fault budgets.
    let tron_cfg = TronConfig::default();
    let ghost_cfg = GhostConfig::default();
    let seq_task = labelled_sequences(8, 3, 8, 32, 0xACC1).expect("sequence task");
    let tf_model = TransformerModel::random(TransformerConfig::tiny(8), 0xACC2).expect("model");
    let graph_task = sbm(3, 12, 16, 0.5, 0.05, 0xACC3).expect("graph task");
    let gnn_model =
        GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 16, 32, 3), 0xACC4).expect("gnn model");

    // Fault-free int8 reference: the paper's §VI "int8 is comparable"
    // claim, restated here so the cliff has a quantization baseline.
    let int8_tf = evaluate_transformer_int8(&tf_model, &seq_task).expect("int8 transformer");
    let int8_gnn = evaluate_gnn_int8(&gnn_model, &graph_task).expect("int8 gnn");

    let mut cliff_rows = Vec::new();
    let mut tron_errors = Vec::new();
    let mut ghost_errors = Vec::new();
    let mut last_uncompensatable = (false, false);
    for budget in FAULT_BUDGETS {
        eprintln!("bench_snapshot: fault budget '{}'...", budget.label);
        let tron_leg: Result<QuantReport, String> = budget
            .plan(tron_cfg.array_rows, tron_cfg.array_channels)
            .and_then(|plan| {
                let mut sim = TronFunctional::with_faults(&tron_cfg, plan, 0xACC5)
                    .map_err(|e| e.to_string())?;
                let mut outs = Vec::with_capacity(seq_task.inputs.len());
                for x in &seq_task.inputs {
                    outs.push(sim.forward(&tf_model, x).map_err(|e| e.to_string())?);
                }
                evaluate_transformer_outputs(&tf_model, &seq_task, &outs).map_err(|e| e.to_string())
            });
        let ghost_leg: Result<QuantReport, String> = budget
            .plan(ghost_cfg.array_rows, ghost_cfg.array_channels)
            .and_then(|plan| {
                let mut sim = GhostFunctional::with_faults(&ghost_cfg, plan, 0xACC6)
                    .map_err(|e| e.to_string())?;
                let out = sim
                    .forward(&gnn_model, &graph_task.graph, &graph_task.features)
                    .map_err(|e| e.to_string())?;
                evaluate_gnn_outputs(&gnn_model, &graph_task, &out).map_err(|e| e.to_string())
            });
        if let Ok(r) = &tron_leg {
            tron_errors.push(r.mean_relative_error);
        }
        if let Ok(r) = &ghost_leg {
            ghost_errors.push(r.mean_relative_error);
        }
        last_uncompensatable = (tron_leg.is_err(), ghost_leg.is_err());
        cliff_rows.push(format!(
            concat!(
                "        {{\n",
                "          \"budget\": {},\n",
                "          \"fault_count\": {},\n",
                "          \"tron\": {},\n",
                "          \"ghost\": {}\n",
                "        }}"
            ),
            json_string(budget.label),
            budget.fault_count(),
            leg_json(&tron_leg),
            leg_json(&ghost_leg),
        ));
    }

    // --- Section 2: availability under runtime faults, per recovery
    // policy. Seeded random fault timelines at rising arrival rates.
    let tron_accel = TronAccelerator::new(tron_cfg).expect("TRON accelerator");
    let ghost_accel =
        phox_core::ghost::GhostAccelerator::new(ghost_cfg).expect("GHOST accelerator");
    let build_classes = || {
        standard_mix(&tron_accel, &ghost_accel)
            .expect("standard serving mix")
            .into_iter()
            .map(|c| c.with_deadline(25e-3).expect("deadline"))
            .collect::<Vec<_>>()
    };
    // Operating point: mild load, so the fault-free baseline is healthy
    // (availability near 1) and any cliff in the sweep is the faults'.
    let serve_config = ServeConfig {
        arrival_rate_hz: 3_000.0,
        duration_s: 0.1,
        ..ServeConfig::default()
    };
    let policies = [
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
    ];
    let fault_rates_hz = [0.0f64, 50.0, 200.0, 800.0];
    let mut policy_rows = Vec::new();
    let mut all_thread_identical = true;
    let mut empty_schedule_noop = true;
    let mut availability = vec![Vec::new(); policies.len()];
    for &fault_rate in &fault_rates_hz {
        let schedule = FaultSchedule::random(
            0x5EED,
            tron_accel.config().array_rows,
            tron_accel.config().array_channels,
            fault_rate,
            serve_config.duration_s,
            4e-3,
            0.7,
        )
        .expect("fault schedule");
        let timeline =
            HazardTimeline::resolve_tron(&schedule, tron_accel.config()).expect("hazard timeline");
        for (p_idx, policy) in policies.iter().enumerate() {
            eprintln!(
                "bench_snapshot: fault sweep at {fault_rate:.0}/s, policy {}...",
                policy.name()
            );
            let ctx = FaultContext::new(timeline.clone(), *policy, ProbeConfig::default())
                .expect("fault context");
            let run_once = || {
                ServeEngine::with_faults(serve_config, build_classes(), ctx.clone())
                    .expect("serve engine")
                    .run()
                    .expect("serve run")
            };
            let report = parallel::with_threads(1, run_once);
            let baseline_json = report.to_json();
            let thread_identical = [2usize, 4, 8].iter().all(|&threads| {
                parallel::with_threads(threads, run_once).to_json() == baseline_json
            });
            all_thread_identical &= thread_identical;
            if fault_rate == 0.0 {
                // Rate zero ⇒ empty schedule ⇒ the fault machinery must
                // be a strict no-op against the plain engine.
                let plain = ServeEngine::new(serve_config, build_classes())
                    .expect("serve engine")
                    .run()
                    .expect("serve run");
                empty_schedule_noop &= plain.to_json() == baseline_json;
            }
            let avail = report.completed as f64 / report.admitted as f64;
            availability[p_idx].push(avail);
            eprintln!(
                "bench_snapshot: {fault_rate:.0}/s {}: availability {:.4} p99 {:.2}ms \
                 J/req {:.4} dropped {} timed_out {} failed_windows {}",
                policy.name(),
                avail,
                report.p99_latency_s * 1e3,
                report.joules_per_request,
                report.dropped,
                report.timed_out,
                report.failed_windows,
            );
            policy_rows.push(format!(
                concat!(
                    "        {{\n",
                    "          \"fault_rate_hz\": {},\n",
                    "          \"policy\": {},\n",
                    "          \"arrivals\": {},\n",
                    "          \"admitted\": {},\n",
                    "          \"completed\": {},\n",
                    "          \"dropped\": {},\n",
                    "          \"timed_out\": {},\n",
                    "          \"retried\": {},\n",
                    "          \"degraded\": {},\n",
                    "          \"failed_windows\": {},\n",
                    "          \"probes\": {},\n",
                    "          \"availability\": {},\n",
                    "          \"p99_latency_s\": {},\n",
                    "          \"joules_per_request\": {},\n",
                    "          \"thread_identical\": {}\n",
                    "        }}"
                ),
                json_number(fault_rate),
                json_string(policy.name()),
                report.arrivals,
                report.admitted,
                report.completed,
                report.dropped,
                report.timed_out,
                report.retried,
                report.degraded,
                report.failed_windows,
                report.probes,
                json_number(avail),
                json_number(report.p99_latency_s),
                json_number(report.joules_per_request),
                thread_identical,
            ));
        }
    }

    // --- Verdicts.
    let int8_comparable = int8_tf.is_comparable(0.25) && int8_gnn.is_comparable(0.1);
    let cliff_widens = tron_errors.len() >= 2
        && ghost_errors.len() >= 2
        && tron_errors.last() > tron_errors.first()
        && ghost_errors.last() > ghost_errors.first();
    let uncompensatable_typed = last_uncompensatable.0 && last_uncompensatable.1;
    let peak = fault_rates_hz.len() - 1;
    let recovery_beats_none =
        availability[1][peak].max(availability[2][peak]) >= availability[0][peak];
    let faults_cost_availability = availability[0][peak] < availability[0][0];
    eprintln!(
        "bench_snapshot: fault verdicts: int8_comparable={int8_comparable} \
         cliff_widens={cliff_widens} uncompensatable_typed={uncompensatable_typed} \
         recovery_beats_none={recovery_beats_none} \
         faults_cost_availability={faults_cost_availability} \
         empty_schedule_noop={empty_schedule_noop} \
         all_thread_identical={all_thread_identical}"
    );
    let verdict_rows = vec![format!(
        concat!(
            "        {{\n",
            "          \"int8_reference_comparable\": {},\n",
            "          \"accuracy_cliff_widens_with_budget\": {},\n",
            "          \"uncompensatable_budget_is_typed_error\": {},\n",
            "          \"faults_cost_availability\": {},\n",
            "          \"recovery_beats_none_at_peak_rate\": {},\n",
            "          \"empty_schedule_is_noop\": {},\n",
            "          \"reports_bit_identical_across_threads\": {}\n",
            "        }}"
        ),
        int8_comparable,
        cliff_widens,
        uncompensatable_typed,
        faults_cost_availability,
        recovery_beats_none,
        empty_schedule_noop,
        all_thread_identical,
    )];

    let sections = [
        ("accuracy_cliff", "budgets", cliff_rows),
        ("availability_sweep", "runs", policy_rows),
        ("fault_verdicts", "verdicts", verdict_rows),
    ]
    .map(|(section, key, rows)| {
        format!(
            "    {{\n      \"section\": \"{section}\",\n      \"{key}\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        )
    });
    let json = snapshot_json(
        "accuracy_under_physics",
        &["tron/functional", "ghost/functional", "serve/fault-aware"],
        &[
            (
                "int8_reference",
                format!(
                    "{{\"transformer\": {}, \"gnn\": {}}}",
                    leg_json(&Ok(int8_tf)),
                    leg_json(&Ok(int8_gnn)),
                ),
            ),
            (
                "fault_model",
                "{\"probe_interval_s\": 5e-4, \"mean_active_s\": 4e-3, \
                 \"severe_share\": 0.7, \"deadline_s\": 0.025}"
                    .to_string(),
            ),
            ("time_base", "\"deterministic model seconds\"".to_string()),
        ],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("all") => {
            run_gemm("BENCH_1.json");
            run_sparse("BENCH_2.json");
            run_int8("BENCH_3.json");
            run_decode("BENCH_4.json");
            run_serve("BENCH_5.json");
            run_faults("BENCH_6.json");
        }
        Some("gemm") => run_gemm(args.get(1).map_or("BENCH_1.json", String::as_str)),
        Some("sparse") => run_sparse(args.get(1).map_or("BENCH_2.json", String::as_str)),
        Some("int8") => run_int8(args.get(1).map_or("BENCH_3.json", String::as_str)),
        Some("decode") => run_decode(args.get(1).map_or("BENCH_4.json", String::as_str)),
        Some("serve") => run_serve(args.get(1).map_or("BENCH_5.json", String::as_str)),
        Some("faults") => run_faults(args.get(1).map_or("BENCH_6.json", String::as_str)),
        Some("digest") => run_digest(args.get(1).map_or("BENCH_DIGEST.json", String::as_str)),
        // Legacy invocation: a bare output path means the gemm snapshot.
        Some(path) => run_gemm(path),
    }
}
