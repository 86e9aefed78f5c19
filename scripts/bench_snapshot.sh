#!/usr/bin/env sh
# Records the kernel speedup snapshots at the repo root:
#   BENCH_1.json — GEMM: naive vs the register-blocked microkernel vs
#                  blocked+parallel at 64/256/1024, and the microkernel
#                  vs the per-output dot kernel it replaced at those
#                  sizes and every workload shape, with GMAC/s and
#                  bit-identity verdicts.
#   BENCH_2.json — sparse aggregation: CSR kernels vs the retired
#                  dense-stack path on a Cora-class graph and a
#                  100k-node / 1M-edge power-law graph.
#   BENCH_3.json — int8 kernels: i8 x i8 -> i32 GEMM and SpMM vs their
#                  f64 counterparts, plus the 1/2/4/8-thread scaling
#                  sweep with oracle and bit-identity verdicts.
#   BENCH_4.json — KV-cached decode: per-token latency of a cached
#                  decode step vs full-sequence recompute (f64 and
#                  int8) across context lengths, with full-forward
#                  oracle, growth and thread bit-identity verdicts.
#   BENCH_5.json — serving under load: the phox-serve batched-inference
#                  engine over an offered-rate sweep — p50/p99 latency,
#                  sustained QPS, batch occupancy and joules/request
#                  for the prefill + decode + GNN mix, with
#                  occupancy/energy and thread bit-identity verdicts.
#   BENCH_6.json — accuracy under physics: the fault-budget accuracy
#                  cliff through both functional simulators plus the
#                  availability/p99/joules-per-request sweep over
#                  fault arrival rates for each recovery policy, with
#                  empty-schedule no-op and thread bit-identity
#                  verdicts.
#
# There is also a timing-free mode that never writes to the repo root:
#   digest        — reduces a deterministic battery (GEMM and its
#                  microkernel edges, SpMM, decode, analog int8 engine,
#                  Tron/Ghost forwards) to FNV-1a digests over result
#                  bit patterns; CI byte-diffs the AVX2 and
#                  PHOX_FORCE_SCALAR=1 files.
#
# Usage: scripts/bench_snapshot.sh [gemm|sparse|int8|decode|serve|faults|digest|all] [OUTPUT.json]
# Default is "all". A bare OUTPUT.json argument keeps the legacy
# behaviour of writing the GEMM snapshot there.
set -eu

cd "$(dirname "$0")/.."
cargo build --release -p phox-bench --bin bench_snapshot
./target/release/bench_snapshot "$@"
