//! Property-based tests for the int8 compute path: the register-blocked
//! GEMM microkernel — dispatched (AVX2, or the baseline twin under
//! `PHOX_FORCE_SCALAR=1`), its public baseline twin, the banded driver and
//! the single-row product over resident panels — must be *bitwise* equal
//! to the naive i32 oracle over arbitrary shapes and the whole `i8`
//! range (−128 included), byte-identical across thread counts, and the
//! int8 SpMM must agree exactly with the int8 dense GEMM on the
//! densified adjacency, and the structural (pattern-only) sum behind
//! unweighted SpMM and sum aggregation with a naive `i64` oracle at every
//! feature width its blocks reach; and the per-row quantizer must give
//! the textbook per-row loop's codes and scale bits on adversarial rows.
//!
//! CI's `simd-smoke` job runs this suite once per dispatch mode.

use proptest::prelude::*;

use phox_tensor::gemm_i8::{self, Panels, TILE_KC, TILE_MR, TILE_NR};
use phox_tensor::sparse::DegreeBuckets;
use phox_tensor::sparse_i8::{self, CsrI8View, I8Reduce};
use phox_tensor::{parallel, Matrix, QuantMatrix, Quantizer};

/// Strategy: an i8 buffer of exactly `len` elements spanning the
/// symmetric level range a quantizer emits, saturation included.
fn levels(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(-127i8..=127, len)
}

/// Strategy: an i8 buffer of exactly `len` elements over the whole `i8`
/// range, with `−128`, `127` and `0` drawn often: the kernel accepts any
/// code, and `−128 · −128` pairs are its largest `vpmaddwd` sums.
fn codes(len: usize) -> impl Strategy<Value = Vec<i8>> {
    (
        proptest::collection::vec(any::<i8>(), len),
        proptest::collection::vec(0u8..8, len),
    )
        .prop_map(|(vals, classes)| {
            vals.into_iter()
                .zip(classes)
                .map(|(v, class)| match class {
                    0 => i8::MIN,
                    1 => i8::MAX,
                    2 => 0,
                    _ => v,
                })
                .collect()
        })
}

/// Strategy: a GEMM shape `(m, k, n)` reaching every edge of the
/// microkernel: `m` past two [`TILE_MR`]-row tiles with every remainder;
/// `n` across full [`TILE_NR`]-wide panels, a half-width last panel and
/// padded ones; and `k` in three classes — `0..=3` (no pair, one pair,
/// an odd pad), below and around one 16-value SIMD step, and past two
/// [`TILE_KC`] k-blocks, odd and even.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1usize..=2 * TILE_MR + 3,
        0u8..3,
        0usize..=300,
        1usize..=3 * TILE_NR + 9,
    )
        .prop_map(|(m, class, x, n)| {
            let k = match class {
                0 => x % 4,
                1 => 4 + x % 37,
                _ => 2 * TILE_KC + 1 + x,
            };
            (m, k, n)
        })
}

/// The first path whose sums differ from the naive oracle's: the
/// production product on one thread, the dispatched microkernel and its
/// baseline twin over the packed panels, and the banded driver over them.
fn gemm_mismatch(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Option<String> {
    let naive = gemm_i8::matmul_i32_naive(a, b, m, k, n).unwrap();
    let panels = Panels::pack(b, k, n);
    let mut fast = vec![i32::MIN; m * n];
    gemm_i8::gemm(a, &panels, 0..n, &mut fast, n);
    let mut twin = vec![i32::MIN; m * n];
    gemm_i8::gemm_baseline(a, &panels, 0..n, &mut twin, n);
    let production = parallel::with_threads(1, || gemm_i8::matmul_i32(a, b, m, k, n).unwrap());
    let packed = gemm_i8::matmul_packed(a, &panels, m).unwrap();
    [
        ("matmul_i32", production),
        ("gemm", fast),
        ("gemm_baseline", twin),
        ("matmul_packed", packed),
    ]
    .into_iter()
    .find(|(_, got)| *got != naive)
    .map(|(name, _)| format!("{name} differs from the naive oracle at {m}x{k}x{n}"))
}

/// Strategy: a CSR pattern over an `n x n` adjacency as a row-major
/// density mask, returned as (offsets, indices).
fn csr_pattern(n: usize) -> impl Strategy<Value = (Vec<usize>, Vec<u32>)> {
    proptest::collection::vec(0u8..4, n * n).prop_map(move |mask| {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        offsets.push(0);
        for r in 0..n {
            for c in 0..n {
                // Keep ~1 in 4 candidate edges.
                if mask[r * n + c] == 0 {
                    indices.push(c as u32);
                }
            }
            offsets.push(indices.len());
        }
        (offsets, indices)
    })
}

/// Strategy: a CSR pattern over an `n x n` adjacency like
/// [`csr_pattern`], with about one row in four, and always the last row,
/// left empty.
fn csr_pattern_with_empty_rows(n: usize) -> impl Strategy<Value = (Vec<usize>, Vec<u32>)> {
    (
        proptest::collection::vec(0u8..4, n * n),
        proptest::collection::vec(0u8..4, n),
    )
        .prop_map(move |(mask, rows)| {
            let mut offsets = vec![0];
            let mut indices = Vec::new();
            for r in 0..n {
                if rows[r] > 0 && r + 1 < n {
                    indices.extend((0..n as u32).filter(|&c| mask[r * n + c as usize] == 0));
                }
                offsets.push(indices.len());
            }
            (offsets, indices)
        })
}

/// The structural sum of every row of `view` over `f`-wide levels in
/// `i64`, the row's own levels first when `include_self` is set.
fn structural_sum_oracle(view: &CsrI8View<'_>, x: &[i8], f: usize, include_self: bool) -> Vec<i32> {
    let mut out = Vec::with_capacity(view.rows() * f);
    for r in 0..view.rows() {
        let own = include_self.then_some(r);
        let members: Vec<usize> = own
            .into_iter()
            .chain(view.row_indices(r).iter().map(|&u| u as usize))
            .collect();
        for c in 0..f {
            let sum: i64 = members.iter().map(|&u| i64::from(x[u * f + c])).sum();
            out.push(i32::try_from(sum).unwrap());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn microkernel_bitwise_equals_naive_oracle(
        ((m, k, n), a, b) in gemm_shapes().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), codes(m * k), codes(k * n))
        }),
    ) {
        let mismatch = gemm_mismatch(m, k, n, &a, &b);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn column_ranges_write_exactly_their_naive_columns(
        ((m, k, n), a, b, (first, ld_pad)) in gemm_shapes().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), codes(m * k), codes(k * n), (0usize..4, 0usize..5))
        }),
    ) {
        // The analog engine's use: a panel-aligned column range of each
        // output tile, stored with a stride wider than the range.
        let naive = gemm_i8::matmul_i32_naive(&a, &b, m, k, n).unwrap();
        let panels = Panels::pack(&b, k, n);
        let j0 = (first * TILE_NR).min(n - n % TILE_NR);
        let j1 = n.min(j0 + 2 * TILE_NR);
        let ld = j1 - j0 + ld_pad;
        for scalar in [false, true] {
            let mut out = vec![i32::MIN; m * ld.max(1)];
            if scalar {
                gemm_i8::gemm_baseline(&a, &panels, j0..j1, &mut out, ld.max(1));
            } else {
                gemm_i8::gemm(&a, &panels, j0..j1, &mut out, ld.max(1));
            }
            for i in 0..m {
                for c in 0..ld {
                    let want = if j0 + c < j1 { naive[i * n + j0 + c] } else { i32::MIN };
                    prop_assert_eq!(out[i * ld + c], want, "scalar {} ({}, {})", scalar, i, c);
                }
            }
        }
    }

    #[test]
    fn single_rows_through_packed_panels_equal_naive_oracle(
        ((k, n), a, b) in gemm_shapes().prop_flat_map(|(_, k, n)| {
            (Just((k, n)), codes(k), codes(k * n))
        }),
    ) {
        // A KV-cached decode step: one row against resident panels, and
        // the same row through the pack-free single-row path.
        let naive = gemm_i8::matmul_i32_naive(&a, &b, 1, k, n).unwrap();
        let packed = gemm_i8::matmul_packed(&a, &Panels::pack(&b, k, n), 1).unwrap();
        prop_assert_eq!(&packed, &naive);
        prop_assert_eq!(&gemm_i8::matmul_i32(&a, &b, 1, k, n).unwrap(), &naive);
    }

    #[test]
    fn saturated_operands_stay_exact(
        (m, k, n, low) in (1usize..=9, 1usize..=1100, 1usize..=40, any::<bool>()),
    ) {
        // All-saturated panels maximise every partial product and pair
        // sum; the sums must still be exact (i32 headroom) on every path.
        let (x, y) = if low { (-128i8, -128i8) } else { (127, -127) };
        let a = vec![x; m * k];
        let b = vec![y; k * n];
        let expected = i32::from(x) * i32::from(y) * k as i32;
        let naive = gemm_i8::matmul_i32_naive(&a, &b, m, k, n).unwrap();
        prop_assert!(naive.iter().all(|&s| s == expected));
        let mismatch = gemm_mismatch(m, k, n, &a, &b);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn gemm_is_byte_identical_across_thread_counts(
        ((m, k, n), a, b) in gemm_shapes().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), codes(m * k), codes(k * n))
        }),
    ) {
        let baseline = parallel::with_threads(1, || {
            gemm_i8::matmul_i32(&a, &b, m, k, n).unwrap()
        });
        for threads in [2usize, 4] {
            let out = parallel::with_threads(threads, || {
                gemm_i8::matmul_i32(&a, &b, m, k, n).unwrap()
            });
            prop_assert_eq!(&out, &baseline, "threads = {}", threads);
        }
    }

    #[test]
    fn quant_matmul_equals_naive_oracle(
        ((m, k, n), a, b) in (1usize..=12, 1usize..=12, 1usize..=12)
            .prop_flat_map(|(m, k, n)| {
                (Just((m, k, n)), levels(m * k), levels(k * n))
            }),
    ) {
        let qa = QuantMatrix::from_levels(m, k, 0.25, a).unwrap();
        let qb = QuantMatrix::from_levels(k, n, 0.5, b).unwrap();
        let fast = qa.matmul(&qb).unwrap();
        let naive = qa.matmul_naive(&qb).unwrap();
        // Same integer sums, same scale product: bitwise-equal f64.
        prop_assert_eq!(fast.as_slice(), naive.as_slice());
    }

    #[test]
    fn spmm_equals_densified_gemm(
        (n, f, pattern, x) in (1usize..=12, 1usize..=8)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let nnz = indices.len();
        let values: Vec<i8> = (0..nnz).map(|i| ((i % 255) as i32 - 127) as i8).collect();
        let view = CsrI8View::new(n, n, &offsets, &indices, Some(&values)).unwrap();
        let spmm = sparse_i8::spmm_i8(&view, &x, f).unwrap();
        let dense = view.densify();
        let gemm = gemm_i8::matmul_i32_naive(&dense, &x, n, n, f).unwrap();
        prop_assert_eq!(&spmm, &gemm);
    }

    #[test]
    fn spmm_is_byte_identical_across_thread_counts(
        (n, f, pattern, x) in (1usize..=16, 1usize..=6)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let baseline = parallel::with_threads(1, || {
            sparse_i8::spmm_i8(&view, &x, f).unwrap()
        });
        for threads in [2usize, 4] {
            let out = parallel::with_threads(threads, || {
                sparse_i8::spmm_i8(&view, &x, f).unwrap()
            });
            prop_assert_eq!(&out, &baseline, "threads = {}", threads);
        }
    }

    #[test]
    fn scheduled_spmm_reuses_any_matching_schedule(
        (n, f, pattern, x) in (1usize..=12, 1usize..=6)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let schedule = DegreeBuckets::new(&offsets);
        let mut out = vec![0i32; n * f];
        sparse_i8::spmm_i8_scheduled(&view, &x, f, &schedule, &mut out).unwrap();
        let unscheduled = sparse_i8::spmm_i8(&view, &x, f).unwrap();
        prop_assert_eq!(&out, &unscheduled);
    }

    #[test]
    fn structural_sums_equal_naive_oracle_at_every_width(
        (n, f, pattern, x) in (1usize..=12, 1usize..=70)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern_with_empty_rows(n), codes(n * f))
            }),
    ) {
        // Widths through every block of the structural-sum kernel (32,
        // 16 and 8 columns) and every tail length, the whole `i8` range,
        // rows of every length from empty up.
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let spmm = sparse_i8::spmm_i8(&view, &x, f).unwrap();
        prop_assert_eq!(&spmm, &structural_sum_oracle(&view, &x, f, false));
        for include_self in [false, true] {
            let mut out = vec![i32::MIN; n * f];
            sparse_i8::aggregate_i8_into(&view, &x, f, I8Reduce::Sum, include_self, &mut out)
                .unwrap();
            let oracle = structural_sum_oracle(&view, &x, f, include_self);
            prop_assert_eq!(&out, &oracle, "include_self {}", include_self);
        }
    }

    #[test]
    fn aggregate_max_bounds_members(
        (n, f, pattern, x) in (1usize..=10, 1usize..=4)
            .prop_flat_map(|(n, f)| {
                (Just(n), Just(f), csr_pattern(n), levels(n * f))
            }),
    ) {
        let (offsets, indices) = pattern;
        let view = CsrI8View::new(n, n, &offsets, &indices, None).unwrap();
        let mut out = vec![0i32; n * f];
        sparse_i8::aggregate_i8_into(&view, &x, f, I8Reduce::Max, true, &mut out).unwrap();
        for v in 0..n {
            for c in 0..f {
                // With include_self the max is at least the vertex's own
                // level and never exceeds the global max level.
                prop_assert!(out[v * f + c] >= x[v * f + c] as i32);
                prop_assert!(out[v * f + c] <= 127);
            }
        }
    }
}

/// The proptest shapes stay below [`gemm_i8::PAR_ELEMS_MIN`] for speed;
/// this product clears it, so the driver splits it into row bands (the
/// last one short of a whole band) that share one pack.
#[test]
fn banded_products_above_the_parallel_threshold_equal_naive_oracle() {
    let (m, k, n) = (70, 1100, 37);
    assert!(m * k * n >= gemm_i8::PAR_ELEMS_MIN);
    let mut rng = phox_tensor::Prng::new(0x18);
    let a: Vec<i8> = (0..m * k).map(|_| rng.next_u64() as i8).collect();
    let b: Vec<i8> = (0..k * n).map(|_| rng.next_u64() as i8).collect();
    let naive = gemm_i8::matmul_i32_naive(&a, &b, m, k, n).unwrap();
    let panels = Panels::pack(&b, k, n);
    for threads in [1usize, 2, 4, 8] {
        let (out, packed) = parallel::with_threads(threads, || {
            (
                gemm_i8::matmul_i32(&a, &b, m, k, n).unwrap(),
                gemm_i8::matmul_packed(&a, &panels, m).unwrap(),
            )
        });
        assert_eq!(out, naive, "threads = {threads}");
        assert_eq!(packed, naive, "packed, threads = {threads}");
    }
}

/// The int8 kernels must report their work through the same counter
/// scheme as the f64 kernels: `int8/gemm_calls`, `int8/macs`,
/// `int8/spmm_calls`.
#[test]
fn int8_trace_counters_mirror_f64_scheme() {
    use phox_trace::{CounterValue, Trace};

    let trace = Trace::new();
    phox_trace::with_installed(trace.clone(), || {
        let a = Quantizer::with_scale(0.1)
            .unwrap()
            .quantize(&Matrix::filled(4, 6, 0.5));
        let b = Quantizer::with_scale(0.1)
            .unwrap()
            .quantize(&Matrix::filled(6, 3, -0.5));
        let _ = a.matmul(&b).unwrap();

        let offsets = [0usize, 1, 2];
        let indices = [1u32, 0];
        let view = CsrI8View::new(2, 2, &offsets, &indices, None).unwrap();
        let _ = sparse_i8::spmm_i8(&view, &[1, 2], 1).unwrap();
    });

    let counters = trace.counters();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(t, n, _)| t == "int8" && n == name)
            .map(|(_, _, v)| match v {
                CounterValue::Int(i) => *i,
                CounterValue::Float(f) => *f as i64,
            })
            .unwrap_or_else(|| panic!("counter int8/{name} missing"))
    };
    assert_eq!(get("gemm_calls"), 1);
    assert_eq!(get("spmm_calls"), 1);
    // One 4x6x3 product plus 2 nnz * 1 feature of SpMM MACs.
    assert_eq!(get("macs"), 4 * 6 * 3 + 2);
}

/// The textbook per-row quantizer: each row's NaN-ignoring abs-max, its
/// scale (`absmax / 127`, or 1.0 for a row with nothing above zero),
/// then `(v / scale).round()` clamped to ±127 and cast with saturation.
fn quantize_rows_oracle(m: &Matrix) -> (Vec<i8>, Vec<f64>) {
    let mut codes = Vec::with_capacity(m.len());
    let mut scales = Vec::with_capacity(m.rows());
    for r in 0..m.rows() {
        let row = m.row(r);
        let absmax = row
            .iter()
            .filter(|v| !v.is_nan())
            .fold(0.0f64, |acc, v| acc.max(v.abs()));
        let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
        codes.extend(
            row.iter()
                .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
        );
        scales.push(scale);
    }
    (codes, scales)
}

/// Row `r` of a `cols`-wide adversarial matrix: the row's kind cycles
/// with `r + cols`, so every row count meets several kinds.
fn adversarial_row(r: usize, cols: usize, rng: &mut phox_tensor::Prng) -> Vec<f64> {
    const SPECIALS: [f64; 12] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE,
        0.5,
        -1.5,
        126.5,
    ];
    // Exact halves of a unit step and their neighbours: a row whose
    // abs-max is 127 has scale exactly 1.
    let halves = |i: usize| {
        let h = (i % 254) as f64 - 126.5;
        match i % 3 {
            0 => h,
            1 => f64::from_bits(h.to_bits() + 1),
            _ => f64::from_bits(h.to_bits() - 1),
        }
    };
    (0..cols)
        .map(|c| match (r + cols) % 8 {
            0 => 0.0,
            1 => f64::NAN,
            2 if c == 0 => 127.0,
            2 => halves(c + r),
            3 => SPECIALS[(c + r) % SPECIALS.len()],
            // A finite scale with NaN and -0 mixed in.
            4 if c % 4 == 0 => f64::NAN,
            4 if c % 4 == 1 => -0.0,
            4 => rng.uniform(-3.0, 3.0),
            5 => [5e-324, -1e-310, f64::MIN_POSITIVE / 7.0][(c + r) % 3],
            6 if c % 5 == 0 => -0.0,
            6 => rng.uniform(-1.0, 1.0) * 1e-3,
            _ => f64::from(rng.next_u64() as u32 as i32) * 0.75,
        })
        .collect()
}

/// `RowQuantMatrix::quantize_rows` equals the textbook per-row loop in
/// every code and every scale bit, at widths through each SIMD step of
/// the quantizer and its tail (0..=40, 64, 256, 1024) and 0, 1, 2, 7 and
/// 100 rows, over ±0, ±∞, NaN, subnormals, exact halves and their
/// neighbours, all-zero and all-NaN rows.
#[test]
fn row_quantizer_equals_textbook_loop_on_adversarial_rows() {
    let mut rng = phox_tensor::Prng::new(0x27);
    for cols in (0..=40).chain([64, 256, 1024]) {
        for rows in [0usize, 1, 2, 7, 100] {
            let data: Vec<f64> = (0..rows)
                .flat_map(|r| adversarial_row(r, cols, &mut rng))
                .collect();
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            let q = phox_tensor::RowQuantMatrix::quantize_rows(&m);
            let (codes, scales) = quantize_rows_oracle(&m);
            assert_eq!(q.as_i8_slice(), &codes[..], "codes, {rows}x{cols}");
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(q.scales()), bits(&scales), "scales, {rows}x{cols}");
        }
    }
}
