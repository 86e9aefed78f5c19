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
//! * **sparse** (`BENCH_2.json`): the register-resident f64 row kernel
//!   behind `sparse::aggregate_into` and `sparse::spmm_into` against the
//!   per-member axpy loop it replaced (kept as a private copy), on one
//!   thread, interleaved: GCN's mean-with-self, a sum and a weighted
//!   SpMM at the GCN's widths 32 and 16 on a 100k-node / 1M-edge
//!   power-law graph and at width 1,433 on a Cora-class R-MAT graph,
//!   with a `matches_axpy_kernel_bitwise` verdict per row; and
//!   `power_law` at `gnn_powerlaw`'s 100k-node / 1M-edge shape and at
//!   10k / 100k against the generator it replaced (full binary-search
//!   picks, one attempt at a time, a `HashSet<u64>`; kept as a private
//!   copy), one thread, interleaved, with p10/p50/p90 and a
//!   `matches_replaced_bitwise` verdict per row. A failed verdict exits
//!   non-zero after writing the snapshot.
//! * **int8** (`BENCH_3.json`): the register-blocked int8 GEMM
//!   microkernel (`i8 x i8 -> i32`) against the per-output dot kernel it
//!   replaced and today's f64 microkernel, single-threaded and
//!   interleaved, at 64 / 256 / 1024 and at every int8 call the
//!   benchmark workloads make (products, single rows over resident
//!   panels, and the analog engine's tile calls), with
//!   GMAC/s and `matches_dot_kernel_bitwise` / `matches_naive_oracle`
//!   verdicts; the quantizer stages against the serial loops they
//!   replaced; int8 vs f64 SpMM; every activation crossing of the int8
//!   GCN (row quantizer, aggregate, combine product) at 100k × 32 and
//!   100k × 16 against the two-pass code it replaced (kept as private
//!   copies), one thread, interleaved, with p10/p50/p90 and a
//!   `matches_replaced_bitwise` verdict per row; the int8 forward on
//!   resident weight packs and the analog engine's products over them
//!   (ideal and noisy, at every workload weight shape), each against
//!   quantizing and packing the weight per product, with the same
//!   statistics and verdict; and a 1/2/4/8-thread scaling sweep
//!   checked for bit-identity. A failed verdict exits non-zero after
//!   writing the snapshot.
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
//!   thread-invariant. A host-clock section times `paper_sweep`'s
//!   heaviest arrival horizon (32k req/s × 30 s) streamed through
//!   `ArrivalStream` against the materialising loop it replaced (kept
//!   as a private copy), interleaved on one thread, with the heap bytes
//!   each holds at its peak and a `matches_materialized_bitwise`
//!   verdict; a failed verdict exits non-zero after writing the
//!   snapshot.
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
//! through every SIMD-touched layer, the int8 microkernel included, and
//! writes result-bit digests, so CI can run it under both dispatch
//! modes (`PHOX_FORCE_SCALAR=1` vs AVX2) and byte-diff the outputs.
//!
//! The gemm mode additionally measures the dispatched kernel against a
//! forced-scalar blocked reference and records `simd_speedup` /
//! `simd_bit_identical` verdicts in-run; a bit-identity failure (or,
//! with SIMD active, a regression below the scalar kernel) exits
//! non-zero after writing the snapshot. The `speedup_vs_dot_kernel` and
//! `speedup_vs_axpy_kernel` ratios are recorded, not gated.
//!
//! Usage: `bench_snapshot [gemm|sparse|int8|decode|serve|faults|digest|all]
//! [OUTPUT.json]`
//! (default `all`, writing `BENCH_1.json` … `BENCH_6.json`). A bare
//! `OUTPUT.json` first argument keeps the legacy behaviour of writing
//! the gemm snapshot there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Instant;

use phox_core::nn::datasets::{power_law, GraphShape};
use phox_core::nn::decode::KvCache;
use phox_core::nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
use phox_core::nn::int8::{Precision, QuantLinear, Weight};
use phox_core::nn::transformer::{
    FfActivation, TransformerConfig, TransformerDatapath, TransformerKind, TransformerModel,
};
use phox_core::photonics::analog::{AnalogEngine, TILE};
use phox_core::tensor::sparse::SparseReduce;
use phox_core::tensor::sparse_i8::I8Reduce;
use phox_core::tensor::{
    gemm, gemm_i8, parallel, sparse, sparse_i8, Matrix, Prng, QuantMatrix, Quantizer,
    RowQuantMatrix, TensorError,
};
use phox_core::trace::json::{json_number, json_string};

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
    // `llm_prefill`'s products over its resident f64 weights against
    // `gemm::matmul`, which packed them on every call, one thread.
    let resident = measure_resident_products(256, &PREFILL_WEIGHT_SHAPES, 1, 21);
    let resident_bitwise = resident.iter().all(|r| r.bitwise);
    eprintln!(
        "bench_snapshot: gemm verdicts: simd_active={simd_active} \
         simd_bit_identical={bit_identical} matches_dot_kernel_bitwise={matches_dot_kernel} \
         no_simd_regression={no_simd_regression} \
         resident_panels_match_replaced_bitwise={resident_bitwise}"
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
            "matmul_packed",
            "matmul_pack_per_call",
        ],
        &[
            ("simd_active", simd_active.to_string()),
            ("simd_bit_identical", bit_identical.to_string()),
            ("matches_dot_kernel_bitwise", matches_dot_kernel.to_string()),
            ("no_simd_regression", no_simd_regression.to_string()),
            (
                "resident_panels_match_replaced_bitwise",
                resident_bitwise.to_string(),
            ),
            (
                "workload_shapes",
                format!("[\n{}\n  ]", shape_rows.join(",\n")),
            ),
            (
                "resident_f64_panels",
                format!(
                    "[\n{}\n  ]",
                    resident
                        .iter()
                        .map(ReplacedRow::to_json)
                        .collect::<Vec<_>>()
                        .join(",\n")
                ),
            ),
        ],
        "sizes",
        &rows,
    );
    write_or_die(out_path, &json);
    if !bit_identical || !matches_dot_kernel || !no_simd_regression || !resident_bitwise {
        eprintln!("bench_snapshot: gemm verdicts FAILED");
        std::process::exit(1);
    }
}

/// The per-member sparse loop the row kernel replaced, kept here (the
/// library no longer carries it) as BENCH_2's honest baseline: each
/// output row cleared in place, then one dispatched axpy per member —
/// `o[j] += x[j]` unweighted, `o[j] += w · x[j]` weighted — loading and
/// storing the output row each time; a mean divides the row afterwards.
/// Where the f64 kernels run scalar (`PHOX_FORCE_SCALAR=1` or no
/// AVX2+FMA) it runs the scalar loops such a host ran before.
mod axpy_kernel {
    use phox_core::tensor::gemm::simd;
    use phox_core::tensor::sparse::{CsrView, ROW_TILE};
    use phox_core::tensor::{parallel, Matrix};

    /// `out = a · x`, as the replaced `sparse::spmm_into` computed it.
    pub fn spmm_into(a: &CsrView<'_>, x: &Matrix, out: &mut Matrix) {
        let f = x.cols();
        parallel::par_chunks_mut(out.as_mut_slice(), ROW_TILE * f, |tile, chunk| {
            for (r, slot) in (tile * ROW_TILE..).zip(chunk.chunks_mut(f)) {
                slot.fill(0.0);
                match a.row_values(r) {
                    Some(vals) => {
                        for (&u, &w) in a.row_indices(r).iter().zip(vals) {
                            simd::axpy(slot, w, x.row(u as usize));
                        }
                    }
                    None => {
                        for &u in a.row_indices(r) {
                            axpy_unit(slot, x.row(u as usize));
                        }
                    }
                }
            }
        });
    }

    /// Sum (or mean) aggregation, as the replaced
    /// `sparse::aggregate_into` computed it.
    pub fn aggregate_into(
        a: &CsrView<'_>,
        x: &Matrix,
        mean: bool,
        include_self: bool,
        out: &mut Matrix,
    ) {
        let f = x.cols();
        parallel::par_chunks_mut(out.as_mut_slice(), ROW_TILE * f, |tile, chunk| {
            for (r, slot) in (tile * ROW_TILE..).zip(chunk.chunks_mut(f)) {
                let neigh = a.row_indices(r);
                slot.fill(0.0);
                if include_self {
                    axpy_unit(slot, x.row(r));
                }
                for &u in neigh {
                    axpy_unit(slot, x.row(u as usize));
                }
                if mean {
                    let denom = (neigh.len() + usize::from(include_self)).max(1) as f64;
                    for s in slot.iter_mut() {
                        *s /= denom;
                    }
                }
            }
        });
    }

    /// The replaced `simd::axpy_unit`: `out[j] += b[j]`.
    fn axpy_unit(out: &mut [f64], b: &[f64]) {
        #[cfg(target_arch = "x86_64")]
        if simd::simd_active() {
            // SAFETY: `simd_active` is true only where AVX2 is available.
            unsafe { axpy_unit_avx2(out, b) };
            return;
        }
        for (o, &v) in out.iter_mut().zip(b) {
            *o += v;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_unit_avx2(out: &mut [f64], b: &[f64]) {
        use core::arch::x86_64::{_mm256_add_pd, _mm256_loadu_pd, _mm256_storeu_pd};
        let n = out.len().min(b.len());
        let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
        let mut j = 0usize;
        while j + 4 <= n {
            let o = _mm256_loadu_pd(op.add(j));
            let v = _mm256_loadu_pd(bp.add(j));
            _mm256_storeu_pd(op.add(j), _mm256_add_pd(o, v));
            j += 4;
        }
        while j < n {
            *op.add(j) += *bp.add(j);
            j += 1;
        }
    }
}

/// The row kernel against the per-member axpy loop at one operation,
/// timed interleaved.
struct SparseRow {
    graph: &'static str,
    nodes: usize,
    edges: usize,
    features: usize,
    op: &'static str,
    kernel_s: f64,
    axpy_kernel_s: f64,
    bitwise: bool,
}

impl SparseRow {
    fn speedup(&self) -> f64 {
        self.axpy_kernel_s / self.kernel_s
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "        {{\n",
                "          \"graph\": \"{}\",\n",
                "          \"nodes\": {},\n",
                "          \"edges\": {},\n",
                "          \"features\": {},\n",
                "          \"op\": \"{}\",\n",
                "          \"kernel_s\": {},\n",
                "          \"axpy_kernel_s\": {},\n",
                "          \"speedup_vs_axpy_kernel\": {},\n",
                "          \"matches_axpy_kernel_bitwise\": {}\n",
                "        }}"
            ),
            self.graph,
            self.nodes,
            self.edges,
            self.features,
            self.op,
            json_number(self.kernel_s),
            json_number(self.axpy_kernel_s),
            json_number(self.speedup()),
            self.bitwise,
        )
    }
}

/// A sparse operation into a preallocated output.
type SparseCall<'a> = Box<dyn Fn(&mut Matrix) + 'a>;

fn run_sparse(out_path: &str) {
    use sparse::SparseReduce::{Mean, Sum};

    eprintln!("bench_snapshot: generating Cora-class R-MAT graph...");
    let cora = GraphShape::cora()
        .instantiate(21)
        .expect("Cora-class instantiation");
    eprintln!("bench_snapshot: generating 100k-node / 1M-edge power-law graph...");
    let large = power_law(100_000, 1_000_000, 2.2, 22).expect("power-law instantiation");
    // One thread, as `gnn_powerlaw` times its GCN: the pair compares
    // kernels, not the host's second vCPU.
    let (json, verdicts_hold) = parallel::with_threads(1, || {
        let mut rows = Vec::new();
        for (name, graph, f) in [
            ("power_law_100k", &large, 32usize),
            ("power_law_100k", &large, 16),
            ("cora_class_rmat", &cora, 1_433),
        ] {
            let n = graph.num_nodes();
            let x = Prng::new(11).fill_normal(n, f, 0.0, 1.0);
            let mut rng = Prng::new(12);
            let weights: Vec<f64> = (0..graph.num_edges())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            let (plain, x) = (graph.csr_view(), &x);
            let weighted =
                sparse::CsrView::new(n, n, graph.offsets(), graph.neighbor_ids(), Some(&weights))
                    .expect("weights match the graph");
            // GCN's mean with the row itself, GIN's sum, and GAT's
            // weighted SpMM, each on the row kernel and the axpy loop.
            let ops: [(&str, SparseCall, SparseCall); 3] = [
                (
                    "mean_include_self",
                    Box::new(|o| sparse::aggregate_into(&plain, x, Mean, true, o).expect("agree")),
                    Box::new(|o| axpy_kernel::aggregate_into(&plain, x, true, true, o)),
                ),
                (
                    "sum",
                    Box::new(|o| sparse::aggregate_into(&plain, x, Sum, false, o).expect("agree")),
                    Box::new(|o| axpy_kernel::aggregate_into(&plain, x, false, false, o)),
                ),
                (
                    "spmm_weighted",
                    Box::new(|o| sparse::spmm_into(&weighted, x, o).expect("agree")),
                    Box::new(|o| axpy_kernel::spmm_into(&weighted, x, o)),
                ),
            ];
            for (op, kernel, axpy) in ops {
                let mut kernel_out = Matrix::zeros(n, f);
                let mut axpy_out = Matrix::zeros(n, f);
                let [kernel_s, axpy_kernel_s] = time_medians(
                    15,
                    [
                        &mut || {
                            kernel(&mut kernel_out);
                            kernel_out.get(0, 0)
                        },
                        &mut || {
                            axpy(&mut axpy_out);
                            axpy_out.get(0, 0)
                        },
                    ],
                    |v| *v,
                );
                let bitwise = kernel_out
                    .as_slice()
                    .iter()
                    .zip(axpy_out.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                let r = SparseRow {
                    graph: name,
                    nodes: n,
                    edges: graph.num_edges(),
                    features: f,
                    op,
                    kernel_s,
                    axpy_kernel_s,
                    bitwise,
                };
                eprintln!(
                    "bench_snapshot: {name} f={f} {op}: kernel {kernel_s:.4}s axpy_kernel {axpy_kernel_s:.4}s ({:.2}x) bitwise={bitwise}",
                    r.speedup(),
                );
                rows.push(r);
            }
        }
        let all_bitwise = rows.iter().all(|r| r.bitwise);
        drop((cora, large));
        let generators = measure_graph_generation();
        let generators_bitwise = generators.iter().all(|r| r.bitwise);
        let sections = [
            (
                "row_kernel",
                "shapes",
                rows.iter().map(SparseRow::to_json).collect::<Vec<_>>(),
            ),
            (
                "graph_generation",
                "generators",
                generators.iter().map(ReplacedRow::to_json).collect(),
            ),
        ]
        .map(|(section, key, rows)| {
            format!(
                "    {{\n      \"section\": \"{section}\",\n      \"{key}\": [\n{}\n      ]\n    }}",
                rows.join(",\n"),
            )
        });
        let json = snapshot_json(
            "sparse_row_kernel",
            &[
                "csr_row_kernel",
                "axpy_kernel",
                "power_law",
                "replaced_power_law",
            ],
            &[
                ("simd_active", gemm::simd::simd_active().to_string()),
                ("matches_axpy_kernel_bitwise", all_bitwise.to_string()),
                (
                    "generators_match_replaced_bitwise",
                    generators_bitwise.to_string(),
                ),
            ],
            "sections",
            &sections,
        );
        (json, all_bitwise && generators_bitwise)
    });
    write_or_die(out_path, &json);
    if !verdicts_hold {
        eprintln!("bench_snapshot: sparse verdicts FAILED");
        std::process::exit(1);
    }
}

/// `power_law` as it was before its guided picks, draw batches and
/// open-addressing pair table, kept as `graph_generation`'s baseline:
/// each endpoint a binary search over every cumulative weight, one
/// attempt at a time, and a `HashSet<u64>` of `src << 32 | dst` with the
/// one-multiply hasher, as at every shape above 2048 nodes (below it
/// the replaced code kept a bitset instead).
mod replaced_power_law {
    use std::collections::HashSet;
    use std::hash::{BuildHasherDefault, Hasher};

    use phox_core::nn::gnn::CsrGraph;
    use phox_core::tensor::Prng;

    #[derive(Default)]
    struct PairHasher(u64);

    impl Hasher for PairHasher {
        fn finish(&self) -> u64 {
            let product = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
            (product >> 64) as u64 ^ product as u64
        }

        fn write(&mut self, bytes: &[u8]) {
            for &byte in bytes {
                self.0 = self.0.rotate_left(8) ^ u64::from(byte);
            }
        }

        fn write_u64(&mut self, key: u64) {
            self.0 = key;
        }
    }

    /// The kept pairs, in draw order, and the set of their keys.
    struct Kept {
        list: Vec<(u32, u32)>,
        seen: HashSet<u64, BuildHasherDefault<PairHasher>>,
        target: usize,
    }

    impl Kept {
        fn is_full(&self) -> bool {
            self.list.len() >= self.target
        }

        fn offer(&mut self, src: u32, dst: u32) {
            let new = src != dst && self.seen.insert((u64::from(src) << 32) | u64::from(dst));
            let kept = self.list.len();
            self.list.push((src, dst));
            self.list.truncate(kept + usize::from(new));
        }
    }

    pub fn power_law(nodes: usize, edges: usize, gamma: f64, seed: u64) -> CsrGraph {
        assert!(
            nodes > 2048,
            "below 2049 nodes the replaced code kept a bitset"
        );
        let mut rng = Prng::new(seed);
        let alpha = -1.0 / (gamma - 1.0);
        let mut cumulative = Vec::with_capacity(nodes);
        let mut total = 0.0;
        for i in 0..nodes {
            total += ((i + 1) as f64).powf(alpha);
            cumulative.push(total);
        }
        let pick = |rng: &mut Prng| -> u32 {
            let x = rng.next_f64() * total;
            cumulative.partition_point(|&c| c <= x).min(nodes - 1) as u32
        };
        let mut kept = Kept {
            list: Vec::with_capacity(edges),
            seen: HashSet::with_capacity_and_hasher(edges, BuildHasherDefault::default()),
            target: edges,
        };
        let mut attempts = 0usize;
        let max_attempts = edges.saturating_mul(50).max(10_000);
        while !kept.is_full() && attempts < max_attempts {
            attempts += 1;
            let src = pick(&mut rng);
            let dst = pick(&mut rng);
            kept.offer(src, dst);
        }
        while !kept.is_full() {
            let src = (rng.next_u64() % nodes as u64) as u32;
            let dst = (rng.next_u64() % nodes as u64) as u32;
            kept.offer(src, dst);
        }
        CsrGraph::from_edges(nodes, &kept.list).expect("endpoints below nodes")
    }
}

/// `power_law` against [`replaced_power_law`] at `gnn_powerlaw`'s shape
/// (100k nodes, 1M edges, `gamma` 2.2) and at a tenth of it, 11
/// interleaved reps on one thread; the two graphs must be equal.
fn measure_graph_generation() -> Vec<ReplacedRow> {
    const REPS: usize = 11;
    const GAMMA: f64 = 2.2;
    [(100_000usize, 1_000_000usize, 22u64), (10_000, 100_000, 23)]
        .into_iter()
        .map(|(nodes, edges, seed)| {
            eprintln!("bench_snapshot: power_law {nodes} nodes / {edges} edges...");
            let new = || power_law(nodes, edges, GAMMA, seed).expect("valid power-law shape");
            let old = || replaced_power_law::power_law(nodes, edges, GAMMA, seed);
            let row = ReplacedRow {
                fields: vec![
                    ("generator", json_string("power_law")),
                    ("baseline", json_string("replaced_power_law")),
                    ("nodes", nodes.to_string()),
                    ("edges", edges.to_string()),
                    ("gamma", json_number(GAMMA)),
                    ("seed", seed.to_string()),
                ],
                bitwise: new() == old(),
                times: time_interleaved(REPS, new, old),
            };
            eprintln!("bench_snapshot: {}", row.summary());
            row
        })
        .collect()
}

/// Folds an i32 buffer into a checksum for [`time_median_by`].
fn i32_checksum(v: &[i32]) -> f64 {
    v.first().copied().unwrap_or(0) as f64
}

/// The int8 kernel the register-blocked microkernel replaced, kept here
/// (the library no longer carries it) as the honest baseline for the
/// int8 `speedup_vs_dot_kernel`: `B` transposed into `Bᵀ` in 64×64
/// tiles, output columns in panels of 128, and one dot product per
/// output — 16 `i8` widened to `i16`, `vpmaddwd`, then a horizontal
/// reduction. Where the int8 kernels run scalar (`PHOX_FORCE_SCALAR=1`
/// or no AVX2) it runs the scalar loop such a host ran before.
mod dot_kernel_i8 {
    use std::ops::Range;

    use super::TILE;
    use phox_core::tensor::gemm_i8;

    /// `Bᵀ` of row-major `b` (`k × n`), copied in 64×64 blocks.
    pub fn transpose(b: &[i8], k: usize, n: usize) -> Vec<i8> {
        const BLOCK: usize = 64;
        let mut bt = vec![0i8; k * n];
        for r0 in (0..k).step_by(BLOCK) {
            for c0 in (0..n).step_by(BLOCK) {
                for r in r0..(r0 + BLOCK).min(k) {
                    for c in c0..(c0 + BLOCK).min(n) {
                        bt[c * k + r] = b[r * n + c];
                    }
                }
            }
        }
        bt
    }

    /// `a` (`m × k`) times the `B` whose transpose is `bt` (`n × k`).
    pub fn matmul_bt(a: &[i8], bt: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        const PANEL: usize = 128;
        let mut out = vec![0i32; m * n];
        for jc in (0..n).step_by(PANEL) {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for j in jc..(jc + PANEL).min(n) {
                    out[i * n + j] = dot(arow, &bt[j * k..(j + 1) * k]);
                }
            }
        }
        out
    }

    /// The replaced analog tile loop: one [`dot`] per output of the
    /// block of rows `a` (`rows × k`) against the `Bᵀ` rows of `cols`,
    /// into `out`, whose rows are `TILE` apart.
    pub fn tile_bt(a: &[i8], bt: &[i8], k: usize, cols: Range<usize>, out: &mut [i32]) {
        for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(TILE)) {
            for (o, j) in orow.iter_mut().zip(cols.clone()) {
                *o = dot(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    }

    /// The whole replaced product: transpose, then [`matmul_bt`].
    pub fn matmul(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        matmul_bt(a, &transpose(b, k, n), m, k, n)
    }

    /// The replaced per-output dot product; its one caller, [`matmul_bt`],
    /// passes two `k`-long rows.
    fn dot(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        #[cfg(target_arch = "x86_64")]
        if gemm_i8::simd_active() {
            // SAFETY: `simd_active` is true only where AVX2 is available,
            // and `matmul_bt` slices both operands to `k` values.
            return unsafe { dot_avx2(a, b) };
        }
        let mut s = 0i32;
        for (&x, &y) in a.iter().zip(b) {
            s = s.wrapping_add((x as i32).wrapping_mul(y as i32));
        }
        s
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `a.len() == b.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2(a: &[i8], b: &[i8]) -> i32 {
        use core::arch::x86_64::{
            __m128i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16,
            _mm256_extracti128_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32,
            _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32,
        };
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_si256();
        let mut k = 0usize;
        while k + 32 <= n {
            let a0 = _mm_loadu_si128(ap.add(k) as *const __m128i);
            let b0 = _mm_loadu_si128(bp.add(k) as *const __m128i);
            let a1 = _mm_loadu_si128(ap.add(k + 16) as *const __m128i);
            let b1 = _mm_loadu_si128(bp.add(k + 16) as *const __m128i);
            let p0 = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a0), _mm256_cvtepi8_epi16(b0));
            let p1 = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a1), _mm256_cvtepi8_epi16(b1));
            acc = _mm256_add_epi32(acc, _mm256_add_epi32(p0, p1));
            k += 32;
        }
        if k + 16 <= n {
            let a0 = _mm_loadu_si128(ap.add(k) as *const __m128i);
            let b0 = _mm_loadu_si128(bp.add(k) as *const __m128i);
            let p0 = _mm256_madd_epi16(_mm256_cvtepi8_epi16(a0), _mm256_cvtepi8_epi16(b0));
            acc = _mm256_add_epi32(acc, p0);
            k += 16;
        }
        let quad = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        let pair = _mm_add_epi32(quad, _mm_shuffle_epi32::<0b00_00_11_10>(quad));
        let one: __m128i = _mm_add_epi32(pair, _mm_shuffle_epi32::<0b00_00_00_01>(pair));
        let mut s = _mm_cvtsi128_si32(one);
        while k < n {
            s = s.wrapping_add((*ap.add(k) as i32).wrapping_mul(*bp.add(k) as i32));
            k += 1;
        }
        s
    }
}

/// How a timed int8 shape reaches the kernel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    /// `matmul_i32`: `B` packed per call, then the banded driver.
    Product,
    /// `matmul_packed` one row high over resident panels: a decode
    /// step's product, before its dequantization.
    Row,
    /// `AnalogEngine::matmul`'s tile loop over resident panels: one
    /// `gemm` per output tile of up to `TILE` rows and a `TILE`-column
    /// range, into a stack block whose rows are `TILE` apart.
    Tile,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Product => "matmul_i32",
            Call::Row => "matmul_packed",
            Call::Tile => "analog_tile",
        }
    }
}

/// The int8 calls the benchmark workloads make, `(call, m, k, n, reps)`
/// over an `m × k` by `k × n` operand pair: the `llm_prefill` int8
/// encoder's projections and feed-forward (d_model 256, d_ff 1024, seq
/// 256; its attention heads run in f64), the `gnn_powerlaw` GCN's two
/// combine products on 100k nodes, the `llm_decode` decoder's
/// single-row products (d_model 64, d_ff 256), and the analog engine's
/// tiles: `llm_prefill`'s TRON forward at k = 64 (head scores), 256
/// (projections, FF up, head context) and 1024 (FF down), and the GHOST
/// GCN's 32×16 and 32×4 tiles at k = 32 and 16.
const INT8_WORKLOAD_SHAPES: [(Call, usize, usize, usize, usize); 13] = [
    (Call::Product, 256, 256, 256, 21),
    (Call::Product, 256, 256, 1024, 11),
    (Call::Product, 256, 1024, 256, 11),
    (Call::Product, 100_000, 32, 16, 11),
    (Call::Product, 100_000, 16, 4, 21),
    (Call::Row, 1, 64, 64, 21),
    (Call::Row, 1, 64, 256, 21),
    (Call::Row, 1, 256, 64, 21),
    (Call::Tile, 256, 64, 256, 21),
    (Call::Tile, 256, 256, 256, 21),
    (Call::Tile, 256, 1024, 256, 11),
    (Call::Tile, 256, 32, 16, 21),
    (Call::Tile, 256, 16, 4, 21),
];

/// Single-row products timed per sample: one call takes about a
/// microsecond, below the timer's useful resolution.
const GEMV_CALLS: usize = 2000;

/// MACs per sample of a tile row: small operand pairs sweep their tiles
/// several times per sample.
const TILE_SAMPLE_MACS: usize = 1 << 24;

/// The analog engine's tile loop (`AnalogEngine::matmul`, one thread)
/// over `a` (`m × k`) and `n` output columns: `tile` fills the stack
/// block of each output tile — up to `TILE` rows of `a`, a `TILE`-column
/// range, rows `TILE` apart. Returns a checksum of the blocks and, when
/// given `full` (`m × n`), copies them into it.
fn tile_sweep(
    a: &[i8],
    (m, k, n): (usize, usize, usize),
    tile: impl Fn(&[i8], Range<usize>, &mut [i32]),
    mut full: Option<&mut [i32]>,
) -> f64 {
    let mut check = 0.0;
    let mut sums = [0i32; TILE * TILE];
    for i0 in (0..m).step_by(TILE) {
        let rows = TILE.min(m - i0);
        for j0 in (0..n).step_by(TILE) {
            let cols = j0..n.min(j0 + TILE);
            let block = &mut sums[..rows * TILE];
            tile(&a[i0 * k..(i0 + rows) * k], cols.clone(), block);
            check += f64::from(block[0]);
            if let Some(full) = full.as_deref_mut() {
                for (t, src) in block.chunks_exact(TILE).enumerate() {
                    full[(i0 + t) * n + j0..][..cols.len()].copy_from_slice(&src[..cols.len()]);
                }
            }
        }
    }
    check
}

/// The int8 microkernel against the per-output dot kernel it replaced
/// at one workload call, timed interleaved on one thread, and the f64
/// microkernel at the same product. A single row runs both int8
/// kernels over an operand packed once beforehand — resident panels
/// against a resident `Bᵀ`, as the decoder holds its weights — and the
/// f64 kernel through the GEMV of `gemm::matmul`. A tile runs the analog
/// engine's loop, each tile one `gemm` call against the old per-element
/// dot loop over its `Bᵀ` scratch; it has no f64 counterpart, so its
/// f64 fields are `null`. Times, `m` and `n` are per call: a tile
/// reports its own rows and columns.
struct Int8Shape {
    call: Call,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    calls: usize,
    int8_s: f64,
    dot_kernel_s: f64,
    f64_s: f64,
    matches_dot_kernel: bool,
    matches_oracle: bool,
}

impl Int8Shape {
    fn measure(call: Call, m: usize, k: usize, n: usize, reps: usize, seed: u64) -> Int8Shape {
        let a = Prng::new(seed).fill_uniform(m, k, -1.0, 1.0);
        let b = Prng::new(seed + 1).fill_uniform(k, n, -1.0, 1.0);
        let qa = Quantizer::calibrate(&a).quantize(&a);
        let qb = Quantizer::calibrate(&b).quantize(&b);
        let (ai, bi) = (qa.as_i8_slice(), qb.as_i8_slice());
        let panels = gemm_i8::Panels::pack(bi, k, n);
        let bt = dot_kernel_i8::transpose(bi, k, n);
        let new_tile = |rows: &[i8], cols, out: &mut [i32]| {
            gemm_i8::gemm(rows, &panels, cols, out, TILE);
        };
        let old_tile = |rows: &[i8], cols, out: &mut [i32]| {
            dot_kernel_i8::tile_bt(rows, &bt, k, cols, out);
        };
        // One call of each int8 kernel, with its full m × n sums.
        let int8 = || match call {
            Call::Product => gemm_i8::matmul_i32(ai, bi, m, k, n).expect("shapes agree"),
            Call::Row => gemm_i8::matmul_packed(ai, &panels, 1).expect("shapes agree"),
            Call::Tile => {
                let mut full = vec![0; m * n];
                tile_sweep(ai, (m, k, n), new_tile, Some(&mut full));
                full
            }
        };
        let dot_kernel = || match call {
            Call::Product => dot_kernel_i8::matmul(ai, bi, m, k, n),
            Call::Row => dot_kernel_i8::matmul_bt(ai, &bt, 1, k, n),
            Call::Tile => {
                let mut full = vec![0; m * n];
                tile_sweep(ai, (m, k, n), old_tile, Some(&mut full));
                full
            }
        };
        let (calls, [int8_s, dot_kernel_s, f64_s], (call_m, call_n)) = if call == Call::Tile {
            let sweeps = (TILE_SAMPLE_MACS / (m * k * n)).max(1);
            let [new_s, old_s] = time_pair(
                reps,
                sweeps,
                || tile_sweep(ai, (m, k, n), new_tile, None),
                || tile_sweep(ai, (m, k, n), old_tile, None),
            );
            let tiles = m.div_ceil(TILE) * n.div_ceil(TILE);
            let per_tile = |s: f64| s / tiles as f64;
            (
                sweeps * tiles,
                [per_tile(new_s), per_tile(old_s), f64::NAN],
                (m.min(TILE), n.min(TILE)),
            )
        } else {
            let calls = if call == Call::Row { GEMV_CALLS } else { 1 };
            let times = parallel::with_threads(1, || {
                time_medians(
                    reps,
                    [
                        &mut || (0..calls).map(|_| i32_checksum(&int8())).sum::<f64>(),
                        &mut || (0..calls).map(|_| i32_checksum(&dot_kernel())).sum(),
                        &mut || {
                            (0..calls)
                                .map(|_| gemm::matmul(&a, &b).expect("shapes agree").get(0, 0))
                                .sum()
                        },
                    ],
                    |&s| s,
                )
            });
            (calls, times.map(|s| s / calls as f64), (m, n))
        };
        let sums = int8();
        let oracle = gemm_i8::matmul_i32_naive(ai, bi, m, k, n).expect("shapes agree");
        Int8Shape {
            call,
            m: call_m,
            k,
            n: call_n,
            reps,
            calls,
            int8_s,
            dot_kernel_s,
            f64_s,
            matches_dot_kernel: sums == dot_kernel(),
            matches_oracle: sums == oracle,
        }
    }

    fn speedup(&self) -> f64 {
        self.dot_kernel_s / self.int8_s
    }

    fn to_json(&self) -> String {
        let gmac = |s: f64| json_number((self.m * self.k * self.n) as f64 / s / 1e9);
        format!(
            concat!(
                "        {{\n",
                "          \"call\": \"{}\",\n",
                "          \"m\": {},\n",
                "          \"k\": {},\n",
                "          \"n\": {},\n",
                "          \"reps\": {},\n",
                "          \"calls_per_sample\": {},\n",
                "          \"int8_s\": {},\n",
                "          \"dot_kernel_s\": {},\n",
                "          \"f64_s\": {},\n",
                "          \"gmac_s\": {},\n",
                "          \"dot_kernel_gmac_s\": {},\n",
                "          \"f64_gmac_s\": {},\n",
                "          \"speedup_vs_dot_kernel\": {},\n",
                "          \"speedup_vs_f64\": {},\n",
                "          \"matches_dot_kernel_bitwise\": {},\n",
                "          \"matches_naive_oracle\": {}\n",
                "        }}"
            ),
            self.call.name(),
            self.m,
            self.k,
            self.n,
            self.reps,
            self.calls,
            json_number(self.int8_s),
            json_number(self.dot_kernel_s),
            json_number(self.f64_s),
            gmac(self.int8_s),
            gmac(self.dot_kernel_s),
            gmac(self.f64_s),
            json_number(self.speedup()),
            json_number(self.f64_s / self.int8_s),
            self.matches_dot_kernel,
            self.matches_oracle,
        )
    }
}

/// The quantizer the vectorised one replaced: a serial `abs_max` fold
/// and one libm `round` per element.
fn abs_max_serial(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Codes of `values` under `q` as the loop the vectorised quantizer
/// replaced computed them: libm `round` and a saturating cast per value.
fn quantize_serial(q: &Quantizer, values: &[f64]) -> Vec<i8> {
    let scale = q.scale();
    values
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect()
}

/// Per-row codes and scales of `m`, as `RowQuantMatrix::quantize_rows`
/// computed them before.
fn quantize_rows_serial(m: &Matrix) -> (Vec<i8>, Vec<f64>) {
    let mut codes = Vec::with_capacity(m.len());
    let mut scales = Vec::with_capacity(m.rows());
    for r in 0..m.rows() {
        let absmax = abs_max_serial(m.row(r));
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        codes.extend(quantize_serial(
            &Quantizer::with_scale(scale).expect("positive scale"),
            m.row(r),
        ));
        scales.push(scale);
    }
    (codes, scales)
}

/// Interleaved single-thread medians of `new` and `old`, per call, over
/// `calls` calls per sample.
fn time_pair(
    reps: usize,
    calls: usize,
    mut new: impl FnMut() -> f64,
    mut old: impl FnMut() -> f64,
) -> [f64; 2] {
    parallel::with_threads(1, || {
        time_medians(
            reps,
            [&mut || (0..calls).map(|_| new()).sum::<f64>(), &mut || {
                (0..calls).map(|_| old()).sum()
            }],
            |&s| s,
        )
    })
    .map(|s| s / calls as f64)
}

/// One quantizer stage at one operand shape against the serial loop it
/// replaced, timed interleaved on one thread: the JSON row and whether
/// both computed the same bits.
fn measure_quantizer(
    stage: &str,
    (rows, cols, reps, calls): (usize, usize, usize, usize),
    seed: u64,
) -> (String, bool) {
    let m = Prng::new(seed).fill_normal(rows, cols, 0.0, 1.0);
    let q = Quantizer::calibrate(&m);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (bitwise, [s, serial_s]) = match stage {
        "abs_max" => (
            m.abs_max().to_bits() == abs_max_serial(m.as_slice()).to_bits(),
            time_pair(reps, calls, || m.abs_max(), || abs_max_serial(m.as_slice())),
        ),
        "quantize" => (
            q.quantize(&m).as_i8_slice() == quantize_serial(&q, m.as_slice()),
            time_pair(
                reps,
                calls,
                || f64::from(q.quantize(&m).as_i8_slice()[0]),
                || f64::from(quantize_serial(&q, m.as_slice())[0]),
            ),
        ),
        _ => {
            let (codes, scales) = quantize_rows_serial(&m);
            let rq = RowQuantMatrix::quantize_rows(&m);
            (
                rq.as_i8_slice() == codes && bits(rq.scales()) == bits(&scales),
                time_pair(
                    reps,
                    calls,
                    || RowQuantMatrix::quantize_rows(&m).scales()[0],
                    || quantize_rows_serial(&m).1[0],
                ),
            )
        }
    };
    eprintln!(
        "bench_snapshot: {stage} {rows}x{cols}: {s:.7}s serial {serial_s:.7}s ({:.2}x) bitwise={bitwise}",
        serial_s / s
    );
    let row = format!(
        concat!(
            "        {{\n",
            "          \"stage\": \"{}\",\n",
            "          \"rows\": {},\n",
            "          \"cols\": {},\n",
            "          \"reps\": {},\n",
            "          \"s\": {},\n",
            "          \"serial_s\": {},\n",
            "          \"speedup_vs_serial\": {},\n",
            "          \"matches_serial_bitwise\": {}\n",
            "        }}"
        ),
        stage,
        rows,
        cols,
        reps,
        json_number(s),
        json_number(serial_s),
        json_number(serial_s / s),
        bitwise,
    );
    (row, bitwise)
}

/// The per-row quantizer that `RowQuantMatrix::quantize_rows` replaced,
/// kept here (the library no longer carries it) as the baseline of the
/// BENCH_3 `activation_crossings` rows: per row, a 16-lane abs-max fold,
/// the quantizer dispatched for that row alone, and its codes appended.
mod per_row_quantizer {
    use phox_core::tensor::{gemm_i8, Matrix, Quantizer};

    /// Largest `|v|` of a row, NaNs ignored, in 16 lanes.
    fn abs_max(values: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 16];
        let mut chunks = values.chunks_exact(16);
        for chunk in &mut chunks {
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                let a = v.abs();
                *lane = if a > *lane { a } else { *lane };
            }
        }
        let tail = chunks
            .remainder()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        lanes.into_iter().fold(tail, f64::max)
    }

    #[inline(always)]
    fn extend(q: Quantizer, row: &[f64], codes: &mut Vec<i8>) {
        codes.extend(row.iter().map(|&v| q.quantize_value(v)));
    }

    /// [`extend`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn extend_avx2(q: Quantizer, row: &[f64], codes: &mut Vec<i8>) {
        extend(q, row, codes);
    }

    /// The codes and scales of every row of `m`.
    pub fn quantize_rows(m: &Matrix) -> (Vec<i8>, Vec<f64>) {
        let mut codes = Vec::with_capacity(m.len());
        let mut scales = Vec::with_capacity(m.rows());
        for r in 0..m.rows() {
            let row = m.row(r);
            let absmax = abs_max(row);
            let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
            let q = Quantizer::with_scale(scale).expect("finite rows");
            #[cfg(target_arch = "x86_64")]
            if gemm_i8::simd_active() {
                // SAFETY: `simd_active` is true only where AVX2 is available.
                unsafe { extend_avx2(q, row, &mut codes) };
                scales.push(scale);
                continue;
            }
            extend(q, row, &mut codes);
            scales.push(scale);
        }
        (codes, scales)
    }
}

/// The int8 GCN aggregate before it dequantized on store: the exact
/// sums into an `n × f` `i32` buffer, then a second pass dequantizing
/// and dividing them into a fresh matrix.
fn aggregate_two_pass(graph: &CsrGraph, q: &QuantMatrix) -> Matrix {
    let (n, f) = (graph.num_nodes(), q.cols());
    let mut sums = vec![0i32; n * f];
    let view = graph.csr_i8_view();
    sparse_i8::aggregate_i8_into(&view, q.as_i8_slice(), f, I8Reduce::Sum, true, &mut sums)
        .expect("operands agree");
    let mut out = Matrix::zeros(n, f);
    let rows = out.as_mut_slice().chunks_exact_mut(f);
    for (v, (row, row_sums)) in rows.zip(sums.chunks_exact(f)).enumerate() {
        let denom = (graph.degree(v) + 1).max(1) as f64;
        for (o, &s) in row.iter_mut().zip(row_sums) {
            *o = f64::from(s) * q.scale() / denom;
        }
    }
    out
}

/// `QuantLinear::forward` before its product dequantized on store:
/// per-row codes, the raw `i32` product of `matmul_packed`, then a
/// second pass dequantizing it into a fresh matrix.
fn quant_linear_two_pass(x: &Matrix, panels: &gemm_i8::Panels, w_scale: f64) -> Matrix {
    let qx = RowQuantMatrix::quantize_rows(x);
    let n = panels.n();
    let sums = gemm_i8::matmul_packed(qx.as_i8_slice(), panels, x.rows()).expect("shapes agree");
    let mut data = Vec::with_capacity(sums.len());
    for (row, &row_scale) in sums.chunks_exact(n).zip(qx.scales()) {
        let scale = row_scale * w_scale;
        data.extend(row.iter().map(|&s| s as f64 * scale));
    }
    Matrix::from_vec(x.rows(), n, data).expect("m × n sums")
}

/// The `q`-quantile of sorted times (nearest index).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

/// Wall times in ms of `new` and `old`, sampled interleaved on one
/// thread after one warm-up call each, sorted.
fn time_interleaved<A, B>(
    reps: usize,
    mut new: impl FnMut() -> A,
    mut old: impl FnMut() -> B,
) -> [Vec<f64>; 2] {
    parallel::with_threads(1, || {
        std::hint::black_box((new(), old()));
        let mut times = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(new());
            times[0].push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            std::hint::black_box(old());
            times[1].push(t0.elapsed().as_secs_f64() * 1e3);
        }
        times.map(|mut t| {
            t.sort_by(f64::total_cmp);
            t
        })
    })
}

/// Production code timed against the code it replaced, interleaved on
/// one thread: the JSON fields naming the stage, its baseline and its
/// shape, the sorted wall times in ms of the production code and then
/// the baseline, and whether their outputs agree bit for bit.
struct ReplacedRow {
    fields: Vec<(&'static str, String)>,
    times: [Vec<f64>; 2],
    bitwise: bool,
}

impl ReplacedRow {
    fn speedup(&self) -> f64 {
        quantile(&self.times[1], 0.5) / quantile(&self.times[0], 0.5)
    }

    fn to_json(&self) -> String {
        let q = |t: &[f64], p: f64| json_number(quantile(t, p));
        let [new, old] = &self.times;
        let stats = [
            ("reps", new.len().to_string()),
            ("p10_ms", q(new, 0.1)),
            ("p50_ms", q(new, 0.5)),
            ("p90_ms", q(new, 0.9)),
            ("baseline_p10_ms", q(old, 0.1)),
            ("baseline_p50_ms", q(old, 0.5)),
            ("baseline_p90_ms", q(old, 0.9)),
            ("speedup_vs_replaced", json_number(self.speedup())),
            ("matches_replaced_bitwise", self.bitwise.to_string()),
        ];
        let lines: Vec<String> = self
            .fields
            .iter()
            .cloned()
            .chain(stats)
            .map(|(key, value)| format!("          \"{key}\": {value}"))
            .collect();
        format!("        {{\n{}\n        }}", lines.join(",\n"))
    }

    /// One progress line: the fields, both medians and the verdict.
    fn summary(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "{}: p50 {:.2} ms, baseline p50 {:.2} ms ({:.2}x) bitwise={}",
            fields.join(" "),
            quantile(&self.times[0], 0.5),
            quantile(&self.times[1], 0.5),
            self.speedup(),
            self.bitwise,
        )
    }
}

/// The leading fields of an activation crossing's row: the stage, the
/// code it replaced, and `rows × cols` activations into `out_cols`
/// output columns.
fn crossing_fields(
    stage: &str,
    baseline: &str,
    rows: usize,
    cols: usize,
    out_cols: usize,
) -> Vec<(&'static str, String)> {
    vec![
        ("stage", json_string(stage)),
        ("baseline", json_string(baseline)),
        ("rows", rows.to_string()),
        ("cols", cols.to_string()),
        ("out_cols", out_cols.to_string()),
    ]
}

/// Every activation crossing of `gnn_powerlaw`'s int8 GCN at its two
/// layers' widths (32 → 16 and 16 → 4) on `graph`, each against the
/// production code it replaced, 15 interleaved reps on one thread: the
/// row quantizer, the aggregate (GCN's mean with the row itself) and the
/// combine product.
fn measure_activation_crossings(graph: &CsrGraph) -> Vec<ReplacedRow> {
    const REPS: usize = 15;
    let n = graph.num_nodes();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rows = Vec::new();
    for (i, (f, out_cols)) in [(32usize, 16usize), (16, 4)].into_iter().enumerate() {
        let x = Prng::new(40 + i as u64).fill_normal(n, f, 0.0, 1.0);
        eprintln!("bench_snapshot: int8 activation crossings at {n} x {f}...");

        let new = RowQuantMatrix::quantize_rows(&x);
        let (codes, scales) = per_row_quantizer::quantize_rows(&x);
        rows.push(ReplacedRow {
            fields: crossing_fields("quantize_rows", "per_row_quantizer", n, f, f),
            times: time_interleaved(
                REPS,
                || RowQuantMatrix::quantize_rows(&x),
                || per_row_quantizer::quantize_rows(&x),
            ),
            bitwise: new.as_i8_slice() == codes && bits(new.scales()) == bits(&scales),
        });

        let q = Quantizer::calibrate(&x).quantize(&x);
        let view = graph.csr_i8_view();
        let fused = || {
            let mut out = Matrix::zeros(n, f);
            sparse_i8::aggregate_dequant_into(&view, &q, SparseReduce::Mean, true, &mut out)
                .expect("operands agree");
            out
        };
        rows.push(ReplacedRow {
            fields: crossing_fields(
                "aggregate_mean_include_self",
                "aggregate_i8_into_then_dequant",
                n,
                f,
                f,
            ),
            bitwise: bits(fused().as_slice()) == bits(aggregate_two_pass(graph, &q).as_slice()),
            times: time_interleaved(REPS, fused, || aggregate_two_pass(graph, &q)),
        });

        let w = Prng::new(50 + i as u64).xavier(f, out_cols);
        let layer = QuantLinear::from_weight(&w);
        let qw = Quantizer::calibrate(&w).quantize(&w);
        let panels = gemm_i8::Panels::pack(qw.as_i8_slice(), f, out_cols);
        let fused = || layer.forward(&x).expect("shapes agree");
        let two_pass = || quant_linear_two_pass(&x, &panels, qw.scale());
        rows.push(ReplacedRow {
            fields: crossing_fields(
                "quant_linear_forward",
                "matmul_packed_then_dequant",
                n,
                f,
                out_cols,
            ),
            bitwise: bits(fused().as_slice()) == bits(two_pass().as_slice()),
            times: time_interleaved(REPS, fused, two_pass),
        });
    }
    for r in &rows {
        eprintln!("bench_snapshot: {}", r.summary());
    }
    rows
}

/// The int8 reference as it ran before each model weight kept its pack:
/// every weight quantized and packed again on every product
/// (`QuantLinear::from_weight`), every other op as `Precision::Int8`
/// runs it. The baseline of the BENCH_3 `resident_weights` row. It holds
/// each weight's row-major matrix (by the weight's address), unpacked
/// once before timing, as the model held its weights then.
struct PerProduct(Vec<(usize, Matrix)>);

impl PerProduct {
    fn new(model: &TransformerModel) -> PerProduct {
        PerProduct(
            layer_weights(model)
                .map(|w| (std::ptr::from_ref(w) as usize, w.to_matrix()))
                .collect(),
        )
    }

    fn forward(&self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        let key = std::ptr::from_ref(w) as usize;
        let (_, matrix) = self
            .0
            .iter()
            .find(|(k, _)| *k == key)
            .expect("a layer weight");
        QuantLinear::from_weight(matrix).forward(a)
    }
}

impl TransformerDatapath for &PerProduct {
    type Error = TensorError;
    fn mm(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        self.forward(a, w)
    }
    fn mm_weight_only(&mut self, a: &Matrix, w: &Weight) -> Result<Matrix, TensorError> {
        self.forward(a, w)
    }
    fn heads(&mut self, qkv: [&Matrix; 3], n: usize, causal: bool) -> Result<Matrix, TensorError> {
        Precision::Int8.heads(qkv, n, causal)
    }
    fn residual(&mut self, x: &Matrix, y: &Matrix) -> Result<Matrix, TensorError> {
        x.add(y)
    }
    fn layer_norm(&mut self, x: &Matrix, ln: (&[f64], &[f64])) -> Result<Matrix, TensorError> {
        Precision::Int8.layer_norm(x, ln)
    }
    fn activate(&mut self, f: FfActivation, x: &Matrix) -> Matrix {
        TransformerDatapath::activate(&mut Precision::Int8, f, x)
    }
}

/// `llm_prefill`'s model: 4 encoder layers, d_model 256, 4 heads, d_ff
/// 1,024, GELU, 256 rows.
fn prefill_config() -> TransformerConfig {
    TransformerConfig {
        name: "prefill-4x256".to_string(),
        kind: TransformerKind::EncoderOnly,
        layers: 4,
        d_model: 256,
        heads: 4,
        d_ff: 1024,
        seq_len: 256,
        ff_activation: FfActivation::Gelu,
    }
}

/// Every weight of `model`'s layers.
fn layer_weights(model: &TransformerModel) -> impl Iterator<Item = &Weight> {
    model
        .layers()
        .iter()
        .flat_map(|lw| [&lw.w_q, &lw.w_k, &lw.w_v, &lw.w_o, &lw.w_ff1, &lw.w_ff2])
}

/// `llm_prefill`'s int8 forward on the model's resident packs against
/// [`PerProduct`], 15 interleaved reps on one thread after a warm-up
/// that builds the packs, plus what building all 24 packs once costs
/// (median of 5 fresh models) and how many bytes they hold: one per
/// code, since every width is a multiple of 16 and every `k` even, so
/// the panels carry no padding.
fn measure_resident_forward() -> ReplacedRow {
    const REPS: usize = 15;
    let cfg = prefill_config();
    eprintln!(
        "bench_snapshot: int8 forward on resident packs at {}...",
        cfg.name
    );
    let build = || TransformerModel::random(cfg.clone(), 61).expect("valid benchmark model");
    let mut pack_ms: Vec<f64> = (0..5)
        .map(|_| {
            let fresh = build();
            let t0 = Instant::now();
            layer_weights(&fresh).for_each(|w| {
                std::hint::black_box(w.quantized());
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    pack_ms.sort_by(f64::total_cmp);
    let model = build();
    let pack_bytes: usize = layer_weights(&model)
        .map(|w| w.shape().0 * w.shape().1)
        .sum();
    let x = Prng::new(62).fill_normal(cfg.seq_len, cfg.d_model, 0.0, 1.0);
    let resident = || model.forward_int8(&x).expect("forward succeeds");
    let baseline = PerProduct::new(&model);
    let per_product = || model.forward_with(&x, &baseline).expect("forward succeeds");
    let row = ReplacedRow {
        fields: vec![
            ("stage", json_string("forward_int8")),
            (
                "baseline",
                json_string("quant_linear_from_weight_per_product"),
            ),
            ("layers", cfg.layers.to_string()),
            ("seq_len", cfg.seq_len.to_string()),
            ("d_model", cfg.d_model.to_string()),
            ("d_ff", cfg.d_ff.to_string()),
            ("weights", layer_weights(&model).count().to_string()),
            ("pack_bytes", pack_bytes.to_string()),
            ("pack_once_ms", json_number(quantile(&pack_ms, 0.5))),
        ],
        bitwise: bits(resident()) == bits(per_product()),
        times: time_interleaved(REPS, resident, per_product),
    };
    eprintln!("bench_snapshot: {}", row.summary());
    row
}

/// The analog engine's weight shapes in the workloads: `llm_prefill`'s
/// TRON products (Q/K/V and output projection, the two feed-forward
/// products) and `gnn_powerlaw`'s two GHOST combine products.
const ANALOG_PRODUCT_SHAPES: [(usize, usize, usize); 5] = [
    (256, 256, 256),
    (256, 256, 1024),
    (256, 1024, 256),
    (100_000, 32, 16),
    (100_000, 16, 4),
];

/// The analog product over a resident weight pack
/// (`AnalogEngine::matmul_packed`) against the per-call path it replaced
/// (`AnalogEngine::matmul` on the f64 weight: calibrate, quantize and
/// pack the weight, then the same product), on the ideal and a noisy
/// engine at every workload weight shape, 15 interleaved reps on one
/// thread. Both sides start from clones of one engine, so their outputs
/// must agree bit for bit.
fn measure_analog_products() -> Vec<ReplacedRow> {
    const REPS: usize = 15;
    const SIGMA: f64 = 5e-3;
    let mut rows = Vec::new();
    for (i, (m, k, n)) in ANALOG_PRODUCT_SHAPES.into_iter().enumerate() {
        let seed = 70 + 2 * i as u64;
        let a = Prng::new(seed).fill_normal(m, k, 0.0, 1.0);
        let w = Prng::new(seed + 1).xavier(k, n);
        let layer = QuantLinear::from_weight(&w);
        for (engine, sigma) in [("ideal", 0.0), ("noisy", SIGMA)] {
            eprintln!("bench_snapshot: analog product {m}x{k}x{n} on the {engine} engine...");
            let base = AnalogEngine::new(sigma, 8, 8, seed).expect("valid engine");
            let (mut resident, mut per_call) = (base.clone(), base.clone());
            let bits = |y: Matrix| {
                y.into_vec()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect::<Vec<_>>()
            };
            let bitwise = bits(
                resident
                    .matmul_packed(&a, layer.panels(), layer.scale())
                    .expect("shapes agree"),
            ) == bits(per_call.matmul(&a, &w).expect("shapes agree"));
            rows.push(ReplacedRow {
                fields: vec![
                    ("stage", json_string("analog_matmul_packed")),
                    ("baseline", json_string("analog_matmul_per_call_weight")),
                    ("engine", json_string(engine)),
                    ("sigma", json_number(sigma)),
                    ("m", m.to_string()),
                    ("k", k.to_string()),
                    ("n", n.to_string()),
                ],
                times: time_interleaved(
                    REPS,
                    || {
                        resident
                            .matmul_packed(&a, layer.panels(), layer.scale())
                            .expect("shapes agree")
                    },
                    || per_call.matmul(&a, &w).expect("shapes agree"),
                ),
                bitwise,
            });
        }
    }
    for r in &rows {
        eprintln!("bench_snapshot: {}", r.summary());
    }
    rows
}

fn run_int8(out_path: &str) {
    let dispatch = if gemm_i8::simd_active() {
        "avx2"
    } else {
        "scalar"
    };
    // --- Section 1: the int8 microkernel against the per-output dot
    // kernel it replaced and today's f64 microkernel, single thread, at
    // square sizes and at every int8 shape the workloads run.
    let mut shapes = Vec::new();
    let sizes = [(64, 21), (256, 9), (1024, 3)].map(|(n, reps)| (Call::Product, n, n, n, reps));
    for (i, &(call, m, k, n, reps)) in sizes.iter().chain(&INT8_WORKLOAD_SHAPES).enumerate() {
        let name = call.name();
        eprintln!("bench_snapshot: int8 {name} {m}x{k}x{n} ({reps} reps)...");
        let s = Int8Shape::measure(call, m, k, n, reps, 1 + 2 * i as u64);
        let f64_part = if s.f64_s.is_finite() {
            format!(" f64 {:.3e}s ({:.2}x)", s.f64_s, s.f64_s / s.int8_s)
        } else {
            String::new()
        };
        eprintln!(
            "bench_snapshot: {name} {}x{k}x{}: int8 {:.3e}s dot kernel {:.3e}s ({:.2}x){f64_part} bitwise={} oracle={}",
            s.m,
            s.n,
            s.int8_s,
            s.dot_kernel_s,
            s.speedup(),
            s.matches_dot_kernel,
            s.matches_oracle,
        );
        shapes.push(s);
    }
    let (sizes, workloads) = shapes.split_at(3);

    // --- Section 2: the vectorised quantizer against the serial loop it
    // replaced, at the workloads' activation and weight shapes.
    let mut quant_rows = Vec::new();
    let mut quant_bitwise = true;
    for (i, (stage, shape)) in [
        ("abs_max", (256, 256, 21, 20)),
        ("abs_max", (256, 1024, 21, 5)),
        ("abs_max", (100_000, 32, 11, 1)),
        ("abs_max", (100_000, 16, 11, 1)),
        ("quantize", (256, 256, 21, 20)),
        ("quantize", (256, 1024, 21, 5)),
        ("quantize", (100_000, 32, 11, 1)),
        ("quantize", (100_000, 16, 11, 1)),
        ("quantize_rows", (256, 256, 21, 20)),
        ("quantize_rows", (1, 64, 21, GEMV_CALLS)),
    ]
    .into_iter()
    .enumerate()
    {
        let (row, bitwise) = measure_quantizer(stage, shape, 90 + i as u64);
        quant_rows.push(row);
        quant_bitwise &= bitwise;
    }

    // --- Section 3: sparse SpMM, f64 vs int8, on the BENCH_2 workloads.
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

    // --- Section 4: every activation crossing of the int8 GCN against
    // the code it replaced, at the GCN's shapes, one thread.
    let crossings = measure_activation_crossings(&large);
    let crossings_bitwise = crossings.iter().all(|r| r.bitwise);

    // --- Section 5: the int8 forward on resident weight packs against
    // quantizing and packing every weight on every product.
    let resident = measure_resident_forward();

    // --- Section 6: the analog engine's products over resident weight
    // packs against quantizing and packing the weight on every call.
    let analog = measure_analog_products();
    let analog_bitwise = analog.iter().all(|r| r.bitwise);

    // --- Section 7: thread scaling sweep on the int8 kernels (gemm-1024
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

    // In-run verdicts: every int8 product equals the naive oracle and the
    // kernel it replaced, and the quantizer equals its serial loop.
    let matches_dot_kernel = shapes.iter().all(|s| s.matches_dot_kernel);
    let matches_oracle = shapes.iter().all(|s| s.matches_oracle);
    eprintln!(
        "bench_snapshot: int8 verdicts: dispatch={dispatch} \
         matches_dot_kernel_bitwise={matches_dot_kernel} matches_naive_oracle={matches_oracle} \
         quantizer_matches_serial_bitwise={quant_bitwise} \
         activation_crossings_match_replaced_bitwise={crossings_bitwise} \
         resident_forward_matches_per_product_bitwise={} \
         analog_products_match_replaced_bitwise={analog_bitwise}",
        resident.bitwise,
    );
    let sections = [
        (
            "gemm_int8_vs_dot_kernel",
            "sizes",
            sizes.iter().map(Int8Shape::to_json).collect(),
        ),
        (
            "workload_shapes",
            "shapes",
            workloads.iter().map(Int8Shape::to_json).collect(),
        ),
        ("quantizer_vs_serial", "stages", quant_rows),
        ("spmm_f64_vs_int8", "workloads", spmm_rows),
        (
            "activation_crossings",
            "stages",
            crossings.iter().map(ReplacedRow::to_json).collect(),
        ),
        ("resident_weights", "forwards", vec![resident.to_json()]),
        (
            "analog_products",
            "products",
            analog.iter().map(ReplacedRow::to_json).collect(),
        ),
        ("int8_thread_scaling", "sweep", sweep_rows),
    ]
    .map(|(section, key, rows): (&str, &str, Vec<String>)| {
        format!(
            "    {{\n      \"section\": \"{section}\",\n      \"{key}\": [\n{}\n      ]\n    }}",
            rows.join(",\n"),
        )
    });
    let json = snapshot_json(
        "int8_kernels",
        &[
            "int8_microkernel",
            "dot_kernel_packed_bt",
            "f64_microkernel",
            "quantizer",
            "f64_spmm",
            "int8_spmm",
            "int8_activation_crossings",
            "int8_forward_resident_packs",
            "analog_matmul_packed",
        ],
        &[
            ("accumulation", "\"exact i32\"".to_string()),
            ("dispatch", format!("\"{dispatch}\"")),
            ("matches_naive_oracle", matches_oracle.to_string()),
            ("matches_dot_kernel_bitwise", matches_dot_kernel.to_string()),
            (
                "quantizer_matches_serial_bitwise",
                quant_bitwise.to_string(),
            ),
            (
                "activation_crossings_match_replaced_bitwise",
                crossings_bitwise.to_string(),
            ),
            (
                "resident_forward_matches_per_product_bitwise",
                resident.bitwise.to_string(),
            ),
            (
                "analog_products_match_replaced_bitwise",
                analog_bitwise.to_string(),
            ),
        ],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
    if !matches_oracle
        || !matches_dot_kernel
        || !quant_bitwise
        || !crossings_bitwise
        || !resident.bitwise
        || !analog_bitwise
    {
        eprintln!("bench_snapshot: int8 verdicts FAILED");
        std::process::exit(1);
    }
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

fn digest_i32(sums: &[i32]) -> u64 {
    fnv1a(sums.iter().map(|&v| u64::from(v as u32)))
}

/// The `digest` mode: a fixed battery of deterministic computations
/// through every SIMD-touched layer — blocked/parallel GEMM, the
/// sequence/decode GEMV path, the int8 microkernel, SpMM and GNN
/// aggregation, the analog int8 engine (ideal and noisy), and full
/// Tron/Ghost functional forwards —
/// reduced to result-bit digests. No timings, no thread counts, no
/// environment: the output bytes depend only on the computed values, so
/// CI runs this twice (`PHOX_FORCE_SCALAR=1` vs the AVX2 dispatch) and
/// byte-diffs the two files to enforce the bit-identity policy
/// end-to-end.
fn run_digest(out_path: &str) {
    use phox_core::ghost::{GhostConfig, GhostFunctional};
    use phox_core::nn::datasets::sbm;
    use phox_core::photonics::fault::{FaultImpact, StuckWeight};
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

    // Products over resident panels (`gemm::matmul_packed`): single rows
    // through the panel GEMV (every lane tail, lone, 4-wide, padded and
    // full panels) and row counts around the 6-row tile, serially and on
    // 4 threads, which splits the last shape into row bands.
    let mut packed = 0u64;
    let mut packed_banded = 0u64;
    for (i, &(m, k, n)) in [
        (1usize, 0usize, 5usize),
        (1, 7, 1),
        (1, 100, 70),
        (1, 300, 17),
        (1, 1029, 16),
        (2, 64, 13),
        (7, 530, 3),
        (50, 1040, 16),
    ]
    .iter()
    .enumerate()
    {
        let a = Prng::new(800 + i as u64).fill_uniform(m, k, -1.0, 1.0);
        let b = Prng::new(900 + i as u64).xavier_panels(k, n);
        packed ^= parallel::with_threads(1, || {
            digest_matrix(&gemm::matmul_packed(&a, &b).expect("shapes agree"))
        });
        packed_banded ^= parallel::with_threads(4, || {
            digest_matrix(&gemm::matmul_packed(&a, &b).expect("shapes agree"))
        });
    }
    record("gemm_resident_panels", packed);
    record("gemm_resident_panels_4t", packed_banded);

    // The int8 microkernel's edges over the whole i8 range: every row
    // remainder past one tile at both register widths, k = 0, 1, odd and
    // past two k-blocks, full, half-width and padded panels, and a single
    // row over resident panels. Serially through pre-packed panels, and
    // on 4 threads through `matmul_i32`, which splits the last shape into
    // row bands and sends the single row to its pack-free GEMV.
    let mut int8 = 0u64;
    let mut int8_banded = 0u64;
    for (i, &(m, k, n)) in [
        (7usize, 1usize, 9usize),
        (8, 0, 12),
        (9, 17, 45),
        (10, 2049, 3),
        (11, 5, 20),
        (13, 300, 33),
        (1, 64, 256),
        (70, 1100, 37),
    ]
    .iter()
    .enumerate()
    {
        let mut rng = Prng::new(700 + i as u64);
        let a: Vec<i8> = (0..m * k).map(|_| rng.next_u64() as i8).collect();
        let b: Vec<i8> = (0..k * n).map(|_| rng.next_u64() as i8).collect();
        let panels = gemm_i8::Panels::pack(&b, k, n);
        int8 ^= parallel::with_threads(1, || {
            digest_i32(&gemm_i8::matmul_packed(&a, &panels, m).expect("shapes agree"))
        });
        int8_banded ^= parallel::with_threads(4, || {
            digest_i32(&gemm_i8::matmul_i32(&a, &b, m, k, n).expect("shapes agree"))
        });
    }
    record("int8_microkernel", int8);
    record("int8_microkernel_4t", int8_banded);

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

    // The f64 heads over the shapes `heads_oracle` pins them on: query
    // and key lengths from 1 to 256, unequal too, head widths through the
    // context kernel's eight-, four- and one-column blocks and its six-row
    // blocks, causal and not, with ±0, subnormals and saturating logits,
    // and ±∞ and NaN in V's row that every earlier query masks. A NaN's
    // payload may follow operand order, so NaNs hash as one value.
    const LENS: [usize; 6] = [1, 2, 5, 17, 64, 256];
    const WIDTHS: [usize; 9] = [1, 3, 7, 8, 14, 16, 17, 25, 64];
    let mut cases = Vec::new();
    for (i, &l_q) in LENS.iter().enumerate() {
        for (j, &l_kv) in LENS.iter().enumerate() {
            let widths = if l_q.max(l_kv) < 256 {
                &WIDTHS[..]
            } else {
                &WIDTHS[(i + j) % 9..][..1]
            };
            for &dh in widths {
                for causal in [false, true] {
                    cases.push((l_q, l_kv, dh, 1 + cases.len() % 3, causal));
                }
            }
        }
    }
    cases.extend([
        (256, 256, 64, 4, false),
        (256, 256, 64, 4, true),
        (511, 511, 16, 4, true),
    ]);
    let mut heads = Vec::new();
    for (seed, &(l_q, l_kv, dh, n, causal)) in cases.iter().enumerate() {
        let d = n * dh;
        let mut rng = Prng::new(0x4EAD + seed as u64);
        let loud = if seed % 3 == 0 { 30.0 } else { 1.0 };
        let mut q = rng.fill_normal(l_q, d, 0.0, loud);
        let k = rng.fill_normal(l_kv, d, 0.0, 1.0);
        let mut v = rng.fill_normal(l_kv, d, 0.0, 1.0);
        q.as_mut_slice()
            .iter_mut()
            .step_by(11)
            .for_each(|x| *x = -0.0);
        for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
            match i % 17 {
                3 => *x = 0.0,
                4 => *x = -f64::MIN_POSITIVE / 3.0,
                _ => {}
            }
        }
        if causal && l_kv > 1 {
            let last = v.row_mut(l_kv - 1);
            last[0] = f64::INFINITY;
            last[d / 2] = f64::NEG_INFINITY;
            last[d - 1] = f64::NAN;
        }
        let y = Precision::F64
            .heads([&q, &k, &v], n, causal)
            .expect("shapes agree");
        let canonical = y
            .as_slice()
            .iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() });
        heads.push(fnv1a(canonical));
    }
    record("prefill_heads", fnv1a(heads));

    // The int8 forwards on resident packs at widths that leave every
    // panel edge: odd k (45 and 77 rows), half and ragged last panels.
    // Each model runs twice, packing on the first call and reading the
    // packs on the second; the decoder also runs its prefix forward and
    // a KV-cached generation, the encoder-decoder its cross-attention.
    let mut resident = Vec::new();
    for (seed, kind) in [
        TransformerKind::EncoderOnly,
        TransformerKind::DecoderOnly,
        TransformerKind::EncoderDecoder,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = TransformerConfig {
            kind,
            layers: 2,
            d_model: 45,
            heads: 5,
            d_ff: 77,
            ..TransformerConfig::tiny(13)
        };
        let model = TransformerModel::random(cfg, 48 + seed as u64).expect("valid digest model");
        let x = Prng::new(51 + seed as u64).fill_normal(13, 45, 0.0, 1.0);
        for _ in 0..2 {
            resident.push(digest_matrix(
                &model.forward_int8(&x).expect("forward succeeds"),
            ));
        }
        if kind == TransformerKind::DecoderOnly {
            let prefix = Matrix::from_vec(9, 45, x.as_slice()[..9 * 45].to_vec()).expect("9 rows");
            let full = model
                .forward_prefix_int8(&prefix)
                .expect("forward succeeds");
            let gen = model.generate_int8(&prefix, 4).expect("generation");
            resident.extend([digest_matrix(&full), digest_matrix(&gen.tokens)]);
        }
    }
    record("int8_forward_resident", fnv1a(resident));

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
        digest_matrix(
            &model
                .aggregate(&graph, &x, Aggregation::Mean, true)
                .expect("aggregate operands agree"),
        ),
    );

    // The int8 GCN and GraphSAGE-max forwards `int8_forward` pins: a
    // 2,000-node power-law graph at widths 37 -> 19 -> 5, through every
    // column block of the dequantizing aggregate and its tail.
    let graph = power_law(2_000, 16_000, 2.2, 0x27).expect("power-law instantiation");
    let x = Prng::new(0x28).fill_normal(graph.num_nodes(), 37, 0.0, 1.0);
    let mut forwards = 0u64;
    for (kind, aggregation) in [
        (GnnKind::Gcn, Aggregation::Mean),
        (GnnKind::GraphSage, Aggregation::Max),
    ] {
        let cfg = GnnConfig {
            kind,
            dims: vec![37, 19, 5],
            aggregation,
        };
        let model = GnnModel::random(cfg, 0x29).expect("valid digest model");
        let y = model.forward_int8(&graph, &x).expect("forward succeeds");
        forwards ^= digest_matrix(&y);
    }
    record("gcn_forward_int8", forwards);

    // The row quantizer over an adversarial battery: widths through its
    // SIMD steps and tail, rows of ±0, ±∞, NaN, subnormals, exact halves
    // of a unit step and their neighbours, all zero and all NaN.
    const SPECIALS: [f64; 6] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
    ];
    let mut battery = Vec::new();
    for cols in (0..=40).chain([64, 256, 1024]) {
        for rows in [0usize, 1, 2, 7, 100] {
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| {
                    let (r, c) = (i / cols, i % cols);
                    let half = ((c + r) % 254) as f64 - 126.5;
                    match (r + cols) % 6 {
                        0 => 0.0,
                        1 => f64::NAN,
                        2 if c == 0 => 127.0,
                        2 => f64::from_bits(half.to_bits() + (c % 3) as u64 - 1),
                        3 => SPECIALS[(c + r) % 6],
                        4 => [5e-324, -1e-310, f64::MIN_POSITIVE / 7.0][(c + r) % 3],
                        _ => f64::from((i as u32).wrapping_mul(0x9e37_79b9) as i32) * 0.75,
                    }
                })
                .collect();
            let q = RowQuantMatrix::quantize_rows(
                &Matrix::from_vec(rows, cols, data).expect("rows × cols values"),
            );
            battery.extend(q.as_i8_slice().iter().map(|&v| u64::from(v as u8)));
            battery.extend(q.scales().iter().map(|v| v.to_bits()));
        }
    }
    record("quantize_rows", fnv1a(battery));

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

    // The same product over a resident pack, on the ideal engine and on
    // a noisy one with every fault the read-out applies (stuck cells
    // patch the engine's copy of the pack), twice each.
    let qb = Quantizer::calibrate(&b).quantize(&b);
    let pack = gemm_i8::Panels::pack(qb.as_i8_slice(), b.rows(), b.cols());
    let mut faulted = AnalogEngine::new(5e-3, 8, 8, 47).expect("valid engine");
    let impact = FaultImpact {
        sigma_scale: 1.5,
        weight_gain: 0.97,
        compensation_power_w: 0.0,
        dead_lanes: vec![1, 5],
        stuck: vec![
            StuckWeight {
                row: 0,
                channel: 2,
                transmission: 0.4,
            },
            StuckWeight {
                row: 3,
                channel: 0,
                transmission: 0.9,
            },
        ],
    };
    faulted
        .set_fault_impact(&impact, 8, 4)
        .expect("valid fault geometry");
    let mut resident = Vec::new();
    for engine in [&mut AnalogEngine::ideal(8, 8, 46), &mut faulted] {
        for _ in 0..2 {
            let y = engine
                .matmul_packed(&a, &pack, qb.scale())
                .expect("shapes agree");
            resident.push(digest_matrix(&y));
        }
    }
    record("analog_matmul_resident", fnv1a(resident));

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

/// The f64 attention heads as the reference ran them before the context
/// kernel, kept here (the library no longer carries them) as the
/// baseline of the BENCH_4 `prefill_heads` rows: per head, copies of its
/// Q, K and V columns, the score GEMM over `K_hᵀ`, a scaled copy with the
/// future masked, a softmaxed copy, `ops::matmul_seq`, then the heads
/// concatenated.
mod composed_heads {
    use phox_core::tensor::{ops, Matrix};

    pub fn heads([q, k, v]: [&Matrix; 3], n: usize, causal: bool) -> Matrix {
        let (rows, d) = q.shape();
        let dh = d / n;
        let mut concat = Matrix::zeros(rows, d);
        for h in 0..n {
            let [qh, kh, vh] = [q, k, v].map(|m| m.col_slice(h * dh, (h + 1) * dh).unwrap());
            let mut scores = qh
                .matmul(&kh.transpose())
                .unwrap()
                .scale(1.0 / (dh as f64).sqrt());
            if causal {
                for r in 0..scores.rows() {
                    for c in (r + 1)..scores.cols() {
                        scores.set(r, c, f64::NEG_INFINITY);
                    }
                }
            }
            let ctx = ops::matmul_seq(&ops::softmax_rows(&scores), &vh).unwrap();
            for r in 0..rows {
                concat.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(ctx.row(r));
            }
        }
        concat
    }
}

/// The f64 heads against [`composed_heads`], 15 interleaved reps on one
/// thread: `llm_prefill`'s (256 rows, d_model 256, four heads of 64, no
/// mask) and a causal prefix as long as `llm_decode`'s last context
/// (511 rows, d_model 64, four heads of 16).
fn measure_prefill_heads() -> Vec<ReplacedRow> {
    const REPS: usize = 15;
    [
        ("heads_encoder", 256usize, 256usize, false),
        ("heads_causal", 511, 64, true),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (stage, rows, d, causal))| {
        eprintln!("bench_snapshot: f64 heads {rows} x {d} x 4 (causal {causal})...");
        let mut rng = Prng::new(70 + i as u64);
        let [q, k, v] = [(); 3].map(|_| rng.fill_normal(rows, d, 0.0, 1.0));
        let new = || {
            Precision::F64
                .heads([&q, &k, &v], 4, causal)
                .expect("shapes agree")
        };
        let old = || composed_heads::heads([&q, &k, &v], 4, causal);
        let row = ReplacedRow {
            fields: vec![
                ("stage", json_string(stage)),
                ("baseline", json_string("composed_heads")),
                ("rows", rows.to_string()),
                ("d_model", d.to_string()),
                ("heads", "4".to_string()),
                ("mask", json_string(if causal { "causal" } else { "none" })),
            ],
            bitwise: bits(new()) == bits(old()),
            times: time_interleaved(REPS, new, old),
        };
        eprintln!("bench_snapshot: {}", row.summary());
        row
    })
    .collect()
}

/// `llm_decode`'s f64 weights `(k, n, count)`, multiplied one row at a
/// time: per step, Q/K/V and the output projection of four layers, then
/// their two feed-forward products (d_model 64, d_ff 256).
const DECODE_WEIGHT_SHAPES: [(usize, usize, usize); 3] = [(64, 64, 16), (64, 256, 4), (256, 64, 4)];

/// `llm_prefill`'s f64 weight shapes `(k, n, count)`, one of each,
/// multiplied 256 rows at a time (d_model 256, d_ff 1,024).
const PREFILL_WEIGHT_SHAPES: [(usize, usize, usize); 3] =
    [(256, 256, 1), (256, 1024, 1), (1024, 256, 1)];

/// `m`-row f64 products by `count` separately allocated `k × n` weights
/// over resident panels (`gemm::matmul_packed`) against the row-major
/// path each replaced, `reps` interleaved samples of `calls` passes over
/// the weights on one thread: at `m = 1` the GEMV over the row-major
/// matrix (`gemm::matmul`'s `simd::gemv`), above it `gemm::matmul`,
/// which packs the weight on every call. A step's several weights are
/// timed together, as the step reads them: one weight alone stays in L1
/// or L2, and its speed there turns on where its buffer lands.
fn measure_resident_products(
    m: usize,
    shapes: &[(usize, usize, usize)],
    calls: usize,
    reps: usize,
) -> Vec<ReplacedRow> {
    let baseline = if m == 1 {
        "simd_gemv_row_major"
    } else {
        "matmul_pack_per_call"
    };
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(k, n, count))| {
            eprintln!("bench_snapshot: {m} x {k} x {n} over {count} resident f64 weight(s)...");
            let seed = 80 + 100 * i as u64;
            let a: Vec<Matrix> = (0..count)
                .map(|c| Prng::new(seed + c as u64).fill_uniform(m, k, -1.0, 1.0))
                .collect();
            let b: Vec<Matrix> = (0..count)
                .map(|c| Prng::new(seed + 50 + c as u64).fill_uniform(k, n, -1.0, 1.0))
                .collect();
            let panels: Vec<_> = b
                .iter()
                .map(|w| gemm::simd::Panels::pack(w.as_slice(), k, n))
                .collect();
            let passes = |product: &dyn Fn(usize) -> Matrix| {
                for _ in 1..calls {
                    (0..count).for_each(|c| drop(std::hint::black_box(product(c))));
                }
                (0..count)
                    .flat_map(|c| bits(product(c)))
                    .collect::<Vec<_>>()
            };
            let new = || passes(&|c| gemm::matmul_packed(&a[c], &panels[c]).expect("shapes agree"));
            let old = || passes(&|c| gemm::matmul(&a[c], &b[c]).expect("shapes agree"));
            let row = ReplacedRow {
                fields: vec![
                    ("product", json_string("matmul_packed")),
                    ("baseline", json_string(baseline)),
                    ("m", m.to_string()),
                    ("k", k.to_string()),
                    ("n", n.to_string()),
                    ("weights", count.to_string()),
                    ("passes_per_sample", calls.to_string()),
                ],
                bitwise: parallel::with_threads(1, || new() == old()),
                times: time_interleaved(reps, new, old),
            };
            eprintln!("bench_snapshot: {}", row.summary());
            row
        })
        .collect()
}

/// One decode step's attention over `llm_decode`'s per-head K/V slabs
/// (four layers of four heads of 16 columns, stride 16) against the same
/// heads over the row-major cache they replaced (stride 64, each head at
/// its column offset), at contexts 64, 256 and 511: `reps` interleaved
/// samples of `calls` steps on one thread.
fn measure_head_slabs(calls: usize, reps: usize) -> Vec<ReplacedRow> {
    const D: usize = 64;
    const HEADS: usize = 4;
    const LAYERS: usize = 4;
    const DH: usize = D / HEADS;
    [64usize, 256, 511]
        .into_iter()
        .map(|t| {
            eprintln!("bench_snapshot: attention over per-head slabs at context {t}...");
            let mut rng = Prng::new(100 + t as u64);
            let q = rng.fill_normal(1, D, 0.0, 1.0).into_vec();
            // Per layer, its cached keys and values, row-major.
            let cache: Vec<[Matrix; 2]> = (0..LAYERS)
                .map(|_| [(); 2].map(|_| rng.fill_normal(t, D, 0.0, 1.0)))
                .collect();
            let slabs = |m: &Matrix| -> Vec<Vec<f64>> {
                (0..HEADS)
                    .map(|h| {
                        (0..t)
                            .flat_map(|r| &m.row(r)[h * DH..(h + 1) * DH])
                            .copied()
                            .collect()
                    })
                    .collect()
            };
            let split: Vec<[Vec<Vec<f64>>; 2]> =
                cache.iter().map(|kv| kv.each_ref().map(slabs)).collect();
            // One head of one layer: (layer, head, scores, output columns).
            type Head<'h> = dyn Fn(usize, usize, &mut [f64], &mut [f64]) + 'h;
            let step = |head: &Head<'_>| {
                let (mut scores, mut out) = (vec![0.0; t], vec![0.0; LAYERS * D]);
                for _ in 0..calls {
                    out.fill(0.0);
                    for (layer, out_l) in out.chunks_exact_mut(D).enumerate() {
                        for (h, out_h) in out_l.chunks_exact_mut(DH).enumerate() {
                            head(layer, h, &mut scores, out_h);
                        }
                    }
                }
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let q_h = |h: usize| &q[h * DH..(h + 1) * DH];
            let new = || {
                step(&|layer, h, scores, out| {
                    let [k, v] = &split[layer];
                    gemm::simd::attend(q_h(h), &k[h], &v[h], DH, 0, scores, out);
                })
            };
            let old = || {
                step(&|layer, h, scores, out| {
                    let [k, v] = &cache[layer];
                    let (k, v) = (k.as_slice(), v.as_slice());
                    gemm::simd::attend(q_h(h), k, v, D, h * DH, scores, out);
                })
            };
            let row = ReplacedRow {
                fields: vec![
                    ("product", json_string("attend_head_slabs")),
                    ("baseline", json_string("attend_row_major_cache")),
                    ("context", t.to_string()),
                    ("d_model", D.to_string()),
                    ("heads", HEADS.to_string()),
                    ("layers", LAYERS.to_string()),
                    ("steps_per_sample", calls.to_string()),
                ],
                bitwise: new() == old(),
                times: time_interleaved(reps, new, old),
            };
            eprintln!("bench_snapshot: {}", row.summary());
            row
        })
        .collect()
}

/// The bits of every value of `m`.
fn bits(m: Matrix) -> Vec<u64> {
    m.into_vec().into_iter().map(f64::to_bits).collect()
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
        // row of the full causal forward over the same prefix, bit for bit.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let y_f64 = model
            .decode_step(&mut f64_cache, &row)
            .expect("decode step");
        f64_cache.truncate(t - 1);
        let y_int8 = decoder.step(&mut int8_cache, &row).expect("decode step");
        int8_cache.truncate(t - 1);
        let full = model.forward_prefix(&prefix).expect("full forward");
        let full_i8 = model.forward_prefix_int8(&prefix).expect("full forward");
        let f64_ok = bits(y_f64.row(0)) == bits(full.row(t - 1));
        let int8_ok = y_int8.row(0) == full_i8.row(t - 1);
        eprintln!(
            "bench_snapshot: t = {t}: cached_f64 {cached_f64_s:.6}s full_f64 {full_f64_s:.4}s \
             cached_int8 {cached_int8_s:.6}s full_int8 {full_int8_s:.4}s \
             f64_ok={f64_ok} int8_ok={int8_ok}"
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

    // --- Section 4: the digital heads of the full forward against the
    // composition they replaced, one thread.
    let heads = measure_prefill_heads();
    let heads_bitwise = heads.iter().all(|r| r.bitwise);

    // --- Section 5: a decode step's operands in their resident layouts
    // (the single-row products over f64 panels, attention over per-head
    // slabs) against the row-major layouts they replaced, one thread.
    let mut resident = measure_resident_products(1, &DECODE_WEIGHT_SHAPES, 200, 31);
    resident.extend(measure_head_slabs(50, 31));
    let resident_bitwise = resident.iter().all(|r| r.bitwise);

    let sections = [
        ("per_token_latency", "contexts", latency_rows),
        ("growth_verdicts", "verdicts", growth_rows),
        ("decode_thread_scaling", "sweep", sweep_rows),
        (
            "prefill_heads",
            "shapes",
            heads.iter().map(ReplacedRow::to_json).collect(),
        ),
        (
            "resident_f64_panels",
            "rows",
            resident.iter().map(ReplacedRow::to_json).collect(),
        ),
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
            "f64_heads",
            "composed_heads",
            "matmul_packed",
            "simd_gemv_row_major",
            "attend_head_slabs",
            "attend_row_major_cache",
        ],
        &[
            (
                "model",
                format!(
                    "{{\"layers\": {}, \"d_model\": {}, \"heads\": {}, \"d_ff\": {}}}",
                    cfg.layers, cfg.d_model, cfg.heads, cfg.d_ff
                ),
            ),
            ("heads_match_composition_bitwise", heads_bitwise.to_string()),
            (
                "resident_panels_match_replaced_bitwise",
                resident_bitwise.to_string(),
            ),
        ],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
    if !heads_bitwise || !resident_bitwise {
        eprintln!("bench_snapshot: decode verdicts FAILED");
        std::process::exit(1);
    }
}

/// The system allocator, counting the heap bytes held while
/// [`peak_heap_bytes`] measures; otherwise it only checks a flag.
struct PeakHeap;

static HEAP_ARMED: AtomicBool = AtomicBool::new(false);
static HEAP_HELD: AtomicIsize = AtomicIsize::new(0);
static HEAP_PEAK: AtomicIsize = AtomicIsize::new(0);

#[global_allocator]
static ALLOCATOR: PeakHeap = PeakHeap;

fn note_heap(delta: isize) {
    if HEAP_ARMED.load(Ordering::Relaxed) {
        let held = HEAP_HELD.fetch_add(delta, Ordering::Relaxed) + delta;
        HEAP_PEAK.fetch_max(held, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory.
unsafe impl GlobalAlloc for PeakHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received; the caller upholds `alloc`'s
        // contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_heap(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) };
        note_heap(-(layout.size() as isize));
    }

    // Forwarded rather than left to the default (`alloc`, then a
    // memset), so large zeroed buffers keep the system's pre-zeroed
    // pages and the other snapshots' timings do not move.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received, as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_heap(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received; `ptr` came from `System`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            note_heap(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

/// Runs `f` (on this thread only) and returns its result with the most
/// heap bytes it held at once, counted from zero at the start.
fn peak_heap_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    HEAP_HELD.store(0, Ordering::Relaxed);
    HEAP_PEAK.store(0, Ordering::Relaxed);
    HEAP_ARMED.store(true, Ordering::Relaxed);
    let out = f();
    HEAP_ARMED.store(false, Ordering::Relaxed);
    (out, HEAP_PEAK.load(Ordering::Relaxed).max(0) as usize)
}

/// The arrival generator `ArrivalStream` replaced, kept here (the
/// library no longer carries it) as the baseline of BENCH_5's
/// `arrival_generation` section: the whole horizon generated into one
/// vector of 24-byte arrivals before the engine read it.
mod materialized {
    use phox_core::serve::ServiceClass;
    use phox_core::tensor::Prng;

    /// One arrival as the replaced trace stored it.
    pub struct Arrival {
        pub id: u64,
        pub class: usize,
        pub arrive_s: f64,
    }

    /// The replaced `ArrivalTrace::generate` loop (its argument checks
    /// aside).
    pub fn generate(
        seed: u64,
        rate_hz: f64,
        duration_s: f64,
        classes: &[ServiceClass],
    ) -> Vec<Arrival> {
        let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
        let mut rng = Prng::stream(seed, 0x5EBE);
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival: -ln(1-u)/λ, u ∈ [0,1).
            let u = rng.next_f64();
            t += -(1.0 - u).ln() / rate_hz;
            if t >= duration_s {
                break;
            }
            // Weighted class draw on the same stream.
            let mut pick = rng.next_f64() * total_weight;
            let mut class = classes.len() - 1;
            for (i, c) in classes.iter().enumerate() {
                if pick < c.weight {
                    class = i;
                    break;
                }
                pick -= c.weight;
            }
            arrivals.push(Arrival {
                id: arrivals.len() as u64,
                class,
                arrive_s: t,
            });
        }
        arrivals
    }
}

/// The arrival horizon BENCH_5 times: `paper_sweep`'s 32k req/s
/// fault-free run, 30 model-seconds.
const ARRIVAL_RATE_HZ: f64 = 32_000.0;
const ARRIVAL_DURATION_S: f64 = 30.0;

/// One arrival source's row of the `arrival_generation` section.
struct ArrivalSourceRow {
    source: &'static str,
    arrivals: u64,
    /// Wall times, ms, sorted.
    times_ms: Vec<f64>,
    peak_heap_bytes: usize,
}

impl ArrivalSourceRow {
    /// The `q`-quantile of the sorted times (nearest index).
    fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.times_ms, q)
    }

    fn to_json(&self, extra: &str) -> String {
        let p50 = self.quantile_ms(0.5);
        format!(
            concat!(
                "        {{\n",
                "          \"source\": \"{}\",\n",
                "          \"offered_rate_hz\": {},\n",
                "          \"duration_s\": {},\n",
                "          \"reps\": {},\n",
                "          \"arrivals\": {},\n",
                "          \"p10_ms\": {},\n",
                "          \"p50_ms\": {},\n",
                "          \"p90_ms\": {},\n",
                "          \"arrivals_per_s\": {},\n",
                "          \"peak_heap_bytes\": {}{}\n",
                "        }}"
            ),
            self.source,
            json_number(ARRIVAL_RATE_HZ),
            json_number(ARRIVAL_DURATION_S),
            self.times_ms.len(),
            self.arrivals,
            json_number(self.quantile_ms(0.1)),
            json_number(p50),
            json_number(self.quantile_ms(0.9)),
            json_number(self.arrivals as f64 / (p50 * 1e-3)),
            self.peak_heap_bytes,
            extra,
        )
    }
}

/// `paper_sweep`'s heaviest arrival horizon at seed 1, generated
/// streamed and materialised: the section's rows, and whether both gave
/// the same arrivals bit for bit.
fn measure_arrival_generation(classes: &[phox_core::serve::ServiceClass]) -> (Vec<String>, bool) {
    use phox_core::serve::ArrivalStream;
    use phox_core::tensor::split_seed;

    const REPS: usize = 15;
    let (rate_hz, duration_s) = (ARRIVAL_RATE_HZ, ARRIVAL_DURATION_S);
    let seed = split_seed(1, 1);
    eprintln!("bench_snapshot: arrival generation at {rate_hz:.0} req/s x {duration_s} s...");
    // Each source folds every arrival it produces, read the way the
    // engine reads it (the stream a block at a time), once: (count,
    // digest of every class and time bit).
    let fold = |acc: (u64, u64), class: usize, arrive_s: f64| {
        let digest = (acc.1 ^ arrive_s.to_bits() ^ class as u64).wrapping_mul(0x0100_0000_01B3);
        (acc.0 + 1, digest)
    };
    let streamed = || {
        let mut stream =
            ArrivalStream::new(seed, rate_hz, duration_s, classes).expect("arrival stream");
        let mut acc = (0, 0);
        loop {
            let (times, block_classes) = stream.pending();
            let due = times.len();
            if due == 0 {
                return acc;
            }
            acc = times
                .iter()
                .zip(block_classes)
                .fold(acc, |acc, (&arrive_s, &class)| fold(acc, class, arrive_s));
            stream.advance(due);
        }
    };
    let materialised = || {
        materialized::generate(seed, rate_hz, duration_s, classes)
            .iter()
            .fold((0, 0), |acc, a| fold(acc, a.class, a.arrive_s))
    };
    let (stream_fold, stream_peak) = peak_heap_bytes(streamed);
    let (trace_fold, trace_peak) = peak_heap_bytes(materialised);
    // Bit for bit: the same count, then every class and time in order.
    let matches = stream_fold == trace_fold && {
        let stream = ArrivalStream::new(seed, rate_hz, duration_s, classes).expect("stream");
        let trace = materialized::generate(seed, rate_hz, duration_s, classes);
        stream.zip(&trace).enumerate().all(|(i, (a, b))| {
            b.id == i as u64 && a.class == b.class && a.arrive_s.to_bits() == b.arrive_s.to_bits()
        })
    };
    let mut times = [Vec::new(), Vec::new()];
    parallel::with_threads(1, || {
        for _ in 0..REPS {
            let sources: [&dyn Fn() -> (u64, u64); 2] = [&streamed, &materialised];
            for (times, source) in times.iter_mut().zip(sources) {
                let t0 = Instant::now();
                std::hint::black_box(source());
                times.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    });
    let [mut stream_ms, mut trace_ms] = times;
    stream_ms.sort_by(f64::total_cmp);
    trace_ms.sort_by(f64::total_cmp);
    let stream = ArrivalSourceRow {
        source: "streamed",
        arrivals: stream_fold.0,
        times_ms: stream_ms,
        peak_heap_bytes: stream_peak,
    };
    let trace = ArrivalSourceRow {
        source: "materialized",
        arrivals: trace_fold.0,
        times_ms: trace_ms,
        peak_heap_bytes: trace_peak,
    };
    let speedup = trace.quantile_ms(0.5) / stream.quantile_ms(0.5);
    eprintln!(
        "bench_snapshot: arrivals {}: streamed p50 {:.2} ms ({} B peak), materialized p50 {:.2} ms \
         ({} B peak), {speedup:.2}x, matches_materialized_bitwise={matches}",
        stream.arrivals,
        stream.quantile_ms(0.5),
        stream.peak_heap_bytes,
        trace.quantile_ms(0.5),
        trace.peak_heap_bytes,
    );
    let rows = vec![
        stream.to_json(&format!(
            ",\n          \"speedup_vs_materialized\": {},\n          \
             \"matches_materialized_bitwise\": {matches}",
            json_number(speedup)
        )),
        trace.to_json(""),
    ];
    (rows, matches)
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

    let (arrival_rows, arrivals_match) = measure_arrival_generation(&build_classes());

    let sections = [
        ("rate_sweep", "rates", rate_rows),
        ("serve_verdicts", "verdicts", verdict_rows),
        ("arrival_generation", "sources", arrival_rows),
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
            // Unlike the kernel snapshots, every latency in the rate
            // sweep is deterministic simulated time; only the
            // `arrival_generation` section is wall-clock, in ms.
            ("time_base", "\"deterministic model seconds\"".to_string()),
        ],
        "sections",
        &sections,
    );
    write_or_die(out_path, &json);
    if !arrivals_match {
        eprintln!("bench_snapshot: serve verdicts FAILED");
        std::process::exit(1);
    }
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
    use phox_core::nn::int8::Precision;
    use phox_core::nn::quant_eval::{
        evaluate_gnn, evaluate_gnn_outputs, evaluate_transformer, evaluate_transformer_outputs,
        QuantReport,
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
    let int8_tf =
        evaluate_transformer(&tf_model, &seq_task, Precision::Int8).expect("int8 transformer");
    let int8_gnn = evaluate_gnn(&gnn_model, &graph_task, Precision::Int8).expect("int8 gnn");

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
