//! Kernel replay: the kernels a traced round issued, called again
//! directly, at the shapes and call counts the trace recorded.
//!
//! The f64 and int8 GEMM kernels record every call's `(m, k, n)` as a
//! trace instant, so they replay exactly. The analog engine records its
//! output tiles, which give each call's `(m, n)`; its inner dimension is
//! the MAC-weighted mean over the round's calls (`int8.analog_macs`).
//! Sparse kernels record rows and non-zeros; the feature widths come
//! from the workload. Rates are MACs (or bytes) over host seconds. Bytes
//! moved are computed from tensor sizes, not measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use phox_core::photonics::analog::AnalogEngine;
use phox_core::tensor::sparse::{self, CsrView};
use phox_core::tensor::{gemm, gemm_i8, Matrix, Prng};
use phox_core::trace::{Event, Value};

use crate::harness::Ctx;

/// Replays the GEMM kernels (and the analog engine, when the workload
/// has one) of the first traced round into the per-layer metrics.
pub fn dense(ctx: &mut Ctx, engine: Option<&AnalogEngine>) {
    ctx.lines.push(
        "replay: kernels re-run at the traced shapes and call counts; analog inner \
         dimension is the MAC-weighted mean; sparse bytes are computed from tensor \
         sizes, not measured"
            .to_owned(),
    );
    let events = std::mem::take(&mut ctx.trace.events);
    ctx.layer
        .insert("gemm.gmac_s".to_owned(), gemm_f64(&events));
    ctx.layer
        .insert("int8.gmac_s".to_owned(), gemm_int8(&events));
    if let Some(engine) = engine {
        let macs = ctx.counter("int8.analog_macs");
        ctx.layer
            .insert("analog.gmac_s".to_owned(), analog(&events, macs, engine));
    }
}

fn arg(e: &Event, key: &str) -> Option<usize> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::UInt(u) => usize::try_from(*u).ok(),
            _ => None,
        })
}

/// Call counts per `(m, k, n)` of the instants `track/name`.
fn shapes(events: &[Event], track: &str, name: &str) -> BTreeMap<(usize, usize, usize), usize> {
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| e.track == track && e.name == name) {
        if let (Some(m), Some(k), Some(n)) = (arg(e, "m"), arg(e, "k"), arg(e, "n")) {
            *out.entry((m, k, n)).or_insert(0) += 1;
        }
    }
    out
}

/// GMAC/s of `run` over every recorded shape; 0 when nothing was recorded.
fn replay<T>(
    calls: &BTreeMap<(usize, usize, usize), usize>,
    mut prepare: impl FnMut(usize, usize, usize) -> T,
    mut run: impl FnMut(&mut T),
) -> f64 {
    let (mut macs, mut secs) = (0.0, 0.0);
    for (&(m, k, n), &count) in calls {
        let mut operands = prepare(m, k, n);
        let t0 = Instant::now();
        for _ in 0..count {
            run(&mut operands);
        }
        secs += t0.elapsed().as_secs_f64();
        macs += (m * k * n * count) as f64;
    }
    if secs > 0.0 {
        macs / secs / 1e9
    } else {
        0.0
    }
}

/// Replayed f64 `gemm::matmul` rate, GMAC/s.
pub fn gemm_f64(events: &[Event]) -> f64 {
    replay(
        &shapes(events, "gemm", "kernel"),
        |m, k, n| {
            let mut rng = Prng::new(0x6E44);
            (
                rng.fill_uniform(m, k, -1.0, 1.0),
                rng.fill_uniform(k, n, -1.0, 1.0),
            )
        },
        |(a, b)| {
            black_box(gemm::matmul(a, b).expect("replayed shapes agree"));
        },
    )
}

fn random_i8(len: usize, rng: &mut Prng) -> Vec<i8> {
    (0..len).map(|_| (rng.next_u64() % 255) as i8).collect()
}

/// Replayed `gemm_i8::matmul_i32` rate, GMAC/s.
pub fn gemm_int8(events: &[Event]) -> f64 {
    replay(
        &shapes(events, "int8", "gemm_kernel"),
        |m, k, n| {
            let mut rng = Prng::new(0x18);
            (
                random_i8(m * k, &mut rng),
                random_i8(k * n, &mut rng),
                m,
                k,
                n,
            )
        },
        |(a, b, m, k, n)| {
            black_box(gemm_i8::matmul_i32(a, b, *m, *k, *n).expect("replayed shapes agree"));
        },
    )
}

/// Replayed `AnalogEngine::matmul` rate, GMAC/s, on a copy of `engine`.
pub fn analog(events: &[Event], analog_macs: f64, engine: &AnalogEngine) -> f64 {
    let mut ops: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for e in events
        .iter()
        .filter(|e| e.track == "analog" && e.name == "tile")
    {
        if let (Some(key), Some(i0), Some(j0), Some(r), Some(c)) = (
            arg(e, "op_key"),
            arg(e, "i0"),
            arg(e, "j0"),
            arg(e, "rows"),
            arg(e, "cols"),
        ) {
            let op = ops.entry(key).or_insert((0, 0));
            op.0 = op.0.max(i0 + r);
            op.1 = op.1.max(j0 + c);
        }
    }
    let outputs: usize = ops.values().map(|(m, n)| m * n).sum();
    if outputs == 0 {
        return 0.0;
    }
    let k = ((analog_macs / outputs as f64).round() as usize).max(1);
    let mut calls = BTreeMap::new();
    for &(m, n) in ops.values() {
        *calls.entry((m, k, n)).or_insert(0) += 1;
    }
    let mut engine = engine.clone();
    replay(
        &calls,
        |m, k, n| {
            let mut rng = Prng::new(0xA7A);
            (
                rng.fill_uniform(m, k, -1.0, 1.0),
                rng.fill_uniform(k, n, -1.0, 1.0),
            )
        },
        |(a, b): &mut (Matrix, Matrix)| {
            black_box(engine.matmul(a, b).expect("replayed shapes agree"));
        },
    )
}

/// Replayed `sparse::spmm` bandwidth, GB/s: `calls` products over `a`,
/// cycling through the feature `widths`. Bytes per call: CSR offsets and
/// indices, one gathered feature row per non-zero, one written row per
/// output row.
pub fn spmm(a: &CsrView<'_>, widths: &[usize], calls: usize) -> f64 {
    if calls == 0 || widths.is_empty() {
        return 0.0;
    }
    let inputs: Vec<Matrix> = widths
        .iter()
        .map(|&f| Prng::new(0x5A5).fill_uniform(a.cols(), f, -1.0, 1.0))
        .collect();
    let (mut bytes, mut secs) = (0.0, 0.0);
    for i in 0..calls {
        let x = &inputs[i % inputs.len()];
        let f = x.cols();
        let t0 = Instant::now();
        black_box(sparse::spmm(a, x).expect("replayed shapes agree"));
        secs += t0.elapsed().as_secs_f64();
        bytes += ((a.rows() + 1) * 8 + a.nnz() * 4 + (a.nnz() + a.rows()) * f * 8) as f64;
    }
    bytes / secs / 1e9
}
