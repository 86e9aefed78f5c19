#!/usr/bin/env sh
# Records the kernel speedup snapshots at the repo root:
#   BENCH_1.json — GEMM: naive vs the register-blocked microkernel vs
#                  blocked+parallel at 64/256/1024, and the microkernel
#                  vs the per-output dot kernel it replaced at those
#                  sizes and every workload shape, llm_prefill's
#                  products over resident f64 panels vs packing the
#                  weight per call (one thread, p10/p50/p90), with
#                  GMAC/s and bit-identity verdicts.
#   BENCH_2.json — sparse kernels: the f64 row kernel vs the
#                  per-member axpy loop it replaced (mean-with-self,
#                  sum, weighted SpMM) at widths 32 and 16 on a
#                  100k-node / 1M-edge power-law graph and 1,433 on a
#                  Cora-class graph, and power_law vs the generator it
#                  replaced at 100k / 1M and 10k / 100k with
#                  p10/p50/p90, with bit-identity verdicts.
#   BENCH_3.json — int8 kernels: the register-blocked i8 x i8 -> i32
#                  microkernel vs the per-output dot kernel it replaced
#                  and the f64 microkernel at 64/256/1024 and every int8
#                  workload call (products, decode rows, analog tiles),
#                  the quantizer vs its serial loop,
#                  int8 vs f64 SpMM, the int8 GCN's activation crossings
#                  (row quantizer, aggregate, combine product) vs the
#                  two-pass code they replaced at 100k x 32 and
#                  100k x 16 with p10/p50/p90, llm_prefill's int8
#                  forward on resident weight packs vs packing every
#                  weight per product, and the 1/2/4/8-thread sweep,
#                  with oracle and bit-identity verdicts.
#   BENCH_4.json — KV-cached decode: per-token latency of a cached
#                  decode step vs full-sequence recompute (f64 and
#                  int8) across context lengths, the f64 attention
#                  heads vs the composition they replaced, and a
#                  step's operands in their resident layouts (single
#                  rows over f64 panels, attention over per-head K/V
#                  slabs) vs the row-major ones they replaced, with
#                  full-forward oracle, growth and bit-identity
#                  verdicts.
#   BENCH_5.json — serving under load: the phox-serve batched-inference
#                  engine over an offered-rate sweep — p50/p99 latency,
#                  sustained QPS, batch occupancy and joules/request
#                  for the prefill + decode + GNN mix, with
#                  occupancy/energy and thread bit-identity verdicts,
#                  plus the host time and peak heap bytes of streaming
#                  paper_sweep's heaviest arrival horizon against the
#                  materialising loop it replaced, with a bit-identity
#                  verdict.
#   BENCH_6.json — accuracy under physics: the fault-budget accuracy
#                  cliff through both functional simulators plus the
#                  availability/p99/joules-per-request sweep over
#                  fault arrival rates for each recovery policy, with
#                  empty-schedule no-op and thread bit-identity
#                  verdicts.
#
# There is also a timing-free mode that never writes to the repo root:
#   digest        — reduces a deterministic battery (GEMM and its
#                  microkernel edges, products over resident f64
#                  panels, the int8 microkernel's edges,
#                  SpMM, decode, the int8 GCN forwards and row
#                  quantizer, analog int8 engine, Tron/Ghost
#                  forwards) to FNV-1a digests over result
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
