//! The run envelope: what ran, where, and how fast this host computes.
//!
//! Every benchmark output carries the `RunManifest` (config digest, seeds,
//! threads), the CPU features the kernels dispatch on, the vCPU count,
//! and the score of a fixed compute-bound calibration loop. The loop runs
//! once on one thread and once on every vCPU at the same time; the ratio
//! of the two (`parallel_efficiency`) falls well below 1 when the vCPUs
//! share physical cores or are throttled, so runs on different hosts can
//! be told apart before their timings are compared.

use std::hint::black_box;
use std::time::Instant;

use phox_core::tensor::{gemm, gemm_i8, parallel};
use phox_core::trace::json::{json_number, json_string};
use phox_core::trace::RunManifest;

/// Iterations of the calibration loop per thread.
const CALIBRATION_ITERS: u64 = 20_000_000;

/// A xorshift-multiply chain: serially dependent integer work that
/// touches no memory, so its rate measures the core alone.
fn calibration_loop(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    x
}

/// Calibration scores: single-thread rate and all-vCPU efficiency.
pub struct Calibration {
    /// Million loop iterations per second on one thread.
    pub single_mips: f64,
    /// Aggregate all-vCPU rate over `nproc ×` the single-thread rate.
    pub parallel_efficiency: f64,
}

fn calibrate(nproc: usize) -> Calibration {
    let t0 = Instant::now();
    black_box(calibration_loop(black_box(1)));
    let single_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc as u64)
            .map(|i| s.spawn(move || black_box(calibration_loop(black_box(i + 2)))))
            .collect();
        for h in handles {
            h.join().expect("calibration thread panicked");
        }
    });
    let parallel_s = t0.elapsed().as_secs_f64();
    Calibration {
        single_mips: CALIBRATION_ITERS as f64 / single_s / 1e6,
        parallel_efficiency: single_s / parallel_s,
    }
}

/// The vCPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    let arch = vec![
        ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let arch = Vec::new();
    let mut features = arch;
    features.push(("f64_simd_active", gemm::simd::simd_active()));
    features.push(("i8_simd_active", gemm_i8::simd_active()));
    features
}

/// Builds the manifest and measures the host; returns the envelope as a
/// one-line JSON object.
pub fn envelope(workload: &str, config_digest: String, seeds: Vec<u64>) -> String {
    let nproc = nproc();
    let manifest = RunManifest {
        workload: format!("phoxbench/{workload}"),
        config_digest,
        seeds,
        num_threads: parallel::max_threads(),
    };
    let cal = calibrate(nproc);
    let features = cpu_features()
        .iter()
        .map(|(name, on)| format!("{}:{on}", json_string(name)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"manifest\":{},\"cpu_features\":{{{features}}},\"nproc\":{nproc},\
         \"calibration\":{{\"loop\":\"xorshift-mul x {CALIBRATION_ITERS}\",\
         \"single_mips\":{},\"parallel_efficiency\":{}}}}}",
        manifest.to_json(),
        json_number(cal.single_mips),
        json_number(cal.parallel_efficiency),
    )
}
