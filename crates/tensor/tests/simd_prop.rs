//! Property-based tests for the f64 SIMD path: the dispatched kernels
//! (whatever path dispatch selected — AVX2+FMA, or forced-scalar under
//! `PHOX_FORCE_SCALAR=1`) must be *bitwise* equal to the public scalar
//! reference kernels, and the blocked/parallel GEMM built on them must
//! be byte-identical across 1/2/4/8 threads — over arbitrary shapes,
//! `k = 0`, ragged (non-multiple-of-16) inner dimensions, every edge of
//! the register-blocked microkernel, and subnormal operands.
//!
//! The context kernel behind the attention heads must equal its
//! definition from any starting output, in every register block.
//!
//! A product over resident panels (`gemm::matmul_packed`, and the panel
//! GEMV it runs for a single row) must equal `gemm::matmul` of the same
//! matrix bit for bit at every row and thread count, and a weight drawn
//! straight into panels must equal the packed matrix of the same draws.
//!
//! The batched `Prng::fill_u64` (a 4-lane AVX2 body where the int8
//! kernels are dispatched) must equal a `next_u64` loop in its outputs
//! and in the state it leaves behind.
//!
//! CI's `simd-smoke` job runs this suite twice, once per dispatch mode;
//! each run pins its own mode against the same scalar reference, which
//! transitively pins the two modes against each other.

use proptest::prelude::*;

use phox_tensor::gemm::{self, simd};
use phox_tensor::{ops, parallel, Matrix, Prng};

/// Strategy: an f64 buffer of exactly `len` elements mixing unit-scale
/// values, exact zeros, huge/tiny magnitudes, and subnormals — the
/// operand classes where a non-fused or reassociated kernel would drift
/// in the last bits.
fn operands(len: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(-1.0f64..1.0, len),
        proptest::collection::vec(0u8..9, len),
    )
        .prop_map(|(vals, classes)| {
            vals.into_iter()
                .zip(classes)
                .map(|(v, class)| match class {
                    0 => 0.0,
                    1 => -0.0,
                    2 => v * 1e300,
                    3 => v * f64::MIN_POSITIVE,
                    // Subnormals: scale far below MIN_POSITIVE.
                    4 => v * f64::MIN_POSITIVE * 1e-8,
                    _ => v,
                })
                .collect()
        })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Strategy: plain unit-range values.
fn unit(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, len)
}

/// Strategy: a GEMM shape `(m, k, n)` reaching every edge of the
/// [`simd::gemm`] microkernel: `m` past two [`simd::GEMM_MR`]-row tiles
/// with every remainder; `n` across full [`simd::GEMM_NR`]-wide panels,
/// a 4-wide panel and fewer than 4 leftover columns; and `k` in three
/// classes — no 16-lane body (`0..=15`), a few lane steps with a ragged
/// tail, and past two [`simd::GEMM_KC`] k-blocks.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=20, 0u8..3, 0usize..=300, 1usize..=27).prop_map(|(m, class, x, n)| {
        let k = match class {
            0 => x % 16,
            1 => 16 + x % 64,
            _ => 2 * simd::GEMM_KC + 1 + x,
        };
        (m, k, n)
    })
}

/// The first output of `matmul_blocked`, or of the scalar twin
/// [`simd::gemm_scalar`] over the packed panels, whose bits differ from
/// [`simd::dot_scalar`] over `a`'s row and the packed `Bᵀ` row — the
/// schedule every output must follow.
fn gemm_mismatch(m: usize, k: usize, n: usize, a: Vec<f64>, b: Vec<f64>) -> Option<String> {
    let am = Matrix::from_vec(m, k, a).unwrap();
    let bm = Matrix::from_vec(k, n, b).unwrap();
    let bt = gemm::transpose_blocked(&bm);
    let (av, btv) = (am.as_slice(), bt.as_slice());
    let blocked = gemm::matmul_blocked(&am, &bm).unwrap();
    let mut twin = vec![f64::NAN; m * n];
    simd::gemm_scalar(av, &simd::Panels::pack(bm.as_slice(), k, n), &mut twin);
    for (name, got) in [("blocked", blocked.as_slice()), ("scalar twin", &twin[..])] {
        for (o, v) in got.iter().enumerate() {
            let (i, j) = (o / n, o % n);
            let expect = simd::dot_scalar(&av[i * k..(i + 1) * k], &btv[j * k..(j + 1) * k]);
            if v.to_bits() != expect.to_bits() {
                return Some(format!(
                    "{name} ({i}, {j}) of {m}x{k}x{n}: {v:e} != {expect:e}"
                ));
            }
        }
    }
    None
}

/// Strategy: one attention head `(t, d_h, stride, lo)` over a cache of
/// `t` rows. `t` covers every tail of the four-row score groups; `d_h`
/// covers `d_h < 4`, no 16-lane body, and a body plus a tail; a row
/// wider than the head (`stride > d_h`) mostly puts it at an offset
/// `lo > 0`, as in a multi-head cache.
fn head_shapes() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..=70, 1usize..=40, 0usize..=8)
        .prop_flat_map(|(t, dh, pad)| (Just((t, dh, pad)), 0usize..=pad))
        .prop_map(|((t, dh, pad), lo)| (t, dh, dh + pad, lo))
}

/// The signature shared by [`simd::attend`] and [`simd::attend_scalar`].
type AttendFn = fn(&[f64], &[f64], &[f64], usize, usize, &mut [f64], &mut [f64]);

/// Both attention kernels, starting from a zero context, must equal the
/// explicit composition bit for bit: `dot(q, K_j[lo..lo + d_h]) / √d_h`
/// per cached row, then `ops::softmax_rows`, then `ops::matmul_seq` over
/// the head slice of `V`.
fn check_attend(
    t: usize,
    dh: usize,
    stride: usize,
    lo: usize,
    q: &[f64],
    keys: &[f64],
    values: &[f64],
) -> Result<(), TestCaseError> {
    let hi = lo + dh;
    let scale = 1.0 / (dh as f64).sqrt();
    let scores: Vec<f64> = keys
        .chunks_exact(stride)
        .map(|krow| simd::dot(q, &krow[lo..hi]) * scale)
        .collect();
    let weights = ops::softmax_rows(&Matrix::from_vec(1, t, scores).unwrap());
    let vh: Vec<f64> = values
        .chunks_exact(stride)
        .flat_map(|vrow| vrow[lo..hi].iter().copied())
        .collect();
    let expect = bits(&ops::matmul_seq(&weights, &Matrix::from_vec(t, dh, vh).unwrap()).unwrap());

    let mut scores = vec![f64::NAN; t];
    for (name, kernel) in [
        ("dispatched", simd::attend as AttendFn),
        ("scalar", simd::attend_scalar),
    ] {
        let mut out = vec![0.0; dh];
        kernel(q, keys, values, stride, lo, &mut scores, &mut out);
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(
            &got,
            &expect,
            "{} kernel, t = {}, d_h = {}, stride = {}, lo = {}",
            name,
            t,
            dh,
            stride,
            lo
        );
    }
    Ok(())
}

/// Strategy: one head's context over a block of query rows, `(rows, t,
/// stride, lo, d_h)`: `rows` past two six-row register blocks with every
/// remainder, `t` key rows from none, and `d_h` across eight-, four- and
/// leftover-column blocks at an offset `lo` inside a wider row.
fn context_shapes() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (1usize..=14, 0usize..=40, 1usize..=40, 0usize..=8)
        .prop_flat_map(|(rows, t, dh, pad)| (Just((rows, t, dh, pad)), 0usize..=pad))
        .prop_map(|((rows, t, dh, pad), lo)| (rows, t, dh + pad, lo, dh))
}

/// The signature shared by [`simd::context`] and [`simd::context_scalar`].
type ContextFn = fn(&[f64], &[f64], usize, std::ops::Range<usize>, &mut [f64]);

/// Both context kernels, from the same starting `out`, must equal the
/// definition bit for bit (or both give NaN): each head output adds
/// `w[i][j] · V[j][c]` for `j` ascending, the product rounded before the
/// add; columns outside the head keep their starting value.
fn check_context(
    (rows, t, stride, lo, dh): (usize, usize, usize, usize, usize),
    w: &[f64],
    values: &[f64],
    start: &[f64],
) -> Result<(), TestCaseError> {
    let mut expect = start.to_vec();
    for i in 0..rows {
        for c in lo..lo + dh {
            for j in 0..t {
                expect[i * stride + c] += w[i * t + j] * values[j * stride + c];
            }
        }
    }
    for (name, kernel) in [
        ("dispatched", simd::context as ContextFn),
        ("scalar", simd::context_scalar),
    ] {
        let mut out = start.to_vec();
        kernel(w, values, stride, lo..lo + dh, &mut out);
        for (o, (g, e)) in out.iter().zip(&expect).enumerate() {
            prop_assert!(
                g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                "{} kernel, element {}: {:e} != {:e} ({} rows, t = {}, stride = {}, lo = {}, d_h = {})",
                name, o, g, e, rows, t, stride, lo, dh
            );
        }
    }
    Ok(())
}

/// SplitMix64's state increment: `Prng::next_u64` adds it before each
/// draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// `Prng::fill_u64` of `len` draws from `Prng::new(seed)` (after one
/// normal draw when `spare`, which caches a Box–Muller variate) against
/// the `next_u64` loop from the same generator: the outputs, the state
/// left behind, the cached variate and the draws that follow.
fn fill_mismatch(seed: u64, len: usize, spare: bool) -> Option<String> {
    let mut filled = Prng::new(seed);
    if spare {
        filled.next_normal();
    }
    let mut looped = filled.clone();
    let cached = filled.clone().next_normal();
    let mut out = vec![0; len];
    filled.fill_u64(&mut out);
    let want: Vec<u64> = (0..len).map(|_| looped.next_u64()).collect();
    let case = format!("seed {seed:#x}, len {len}, spare {spare}");
    if out != want {
        return Some(format!("{case}: the fill differs from the next_u64 loop"));
    }
    if filled != looped {
        return Some(format!("{case}: the fill leaves a different generator"));
    }
    if spare && filled.clone().next_normal().to_bits() != cached.to_bits() {
        return Some(format!("{case}: the fill lost the cached normal"));
    }
    for draw in 0..9 {
        let (a, b) = if draw % 3 == 0 {
            (
                filled.next_normal().to_bits(),
                looped.next_normal().to_bits(),
            )
        } else {
            (filled.next_u64(), looped.next_u64())
        };
        if a != b {
            return Some(format!("{case}: draw {draw} after the fill differs"));
        }
    }
    None
}

#[test]
fn fill_u64_equals_the_next_u64_loop_at_every_length() {
    // Seeds at the ends of the range, and seeds whose counter lands
    // exactly on zero at draw 1, 4, 5, 33 or 64: the first lane, the
    // last lane of a group, the first of the next, the scalar tail of a
    // 33- to 35-long fill, and the last draw of a 64-long one.
    let mut seeds = vec![0, 1, u64::MAX, u64::MAX - GAMMA];
    seeds.extend([1u64, 4, 5, 33, 64].map(|j| 0u64.wrapping_sub(GAMMA.wrapping_mul(j))));
    for seed in seeds {
        for len in 0..=67 {
            for spare in [false, true] {
                let mismatch = fill_mismatch(seed, len, spare);
                assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
            }
        }
    }
}

proptest! {
    #[test]
    fn fill_u64_equals_the_next_u64_loop(
        seed in any::<u64>(),
        len in 0usize..=67,
        spare in any::<bool>(),
    ) {
        let mismatch = fill_mismatch(seed, len, spare);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dispatched_dot_bitwise_equals_scalar_reference(
        (a, b) in (0usize..=96).prop_flat_map(|k| (operands(k), operands(k))),
    ) {
        // Covers k = 0 and every ragged tail length around the 16-lane
        // boundary via the shape strategy.
        let reference = simd::dot_scalar(&a, &b);
        let dispatched = simd::dot(&a, &b);
        prop_assert_eq!(
            reference.to_bits(), dispatched.to_bits(),
            "k = {}, ref = {:e}, dispatched = {:e}", a.len(), reference, dispatched
        );
    }

    #[test]
    fn dispatched_axpy_bitwise_equals_scalar_reference(
        (x, out0, b) in (0usize..=80).prop_flat_map(|n| {
            (-2.0f64..2.0, operands(n), operands(n))
        }),
    ) {
        let mut fast = out0.clone();
        let mut slow = out0;
        simd::axpy(&mut fast, x, &b);
        simd::axpy_scalar(&mut slow, x, &b);
        let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
        let slow_bits: Vec<u64> = slow.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fast_bits, slow_bits);
    }

    #[test]
    fn blocked_gemm_bitwise_equals_scalar_reference_gemm(
        ((m, k, n), a, b) in gemm_shapes().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), operands(m * k), operands(k * n))
        }),
    ) {
        // Rebuild the blocked product from the scalar reference dot over
        // the packed Bᵀ rows; the production kernel and its scalar twin
        // must match it bitwise no matter which dispatch path is active.
        let mismatch = gemm_mismatch(m, k, n, a, b);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn blocked_gemm_on_unit_operands_bitwise_equals_scalar_reference_gemm(
        ((m, k, n), a, b) in gemm_shapes().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), unit(m * k), unit(k * n))
        }),
    ) {
        // The 1e300 class of `operands` swamps or overflows many sums,
        // which hides the low bits a reordered fold or an unfused tail
        // would move; unit-range operands keep them visible.
        let mismatch = gemm_mismatch(m, k, n, a, b);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
    }

    #[test]
    fn single_row_gemm_bitwise_equals_scalar_reference_and_blocked(
        ((k, n), a, b) in (0usize..=300, 1usize..=150)
            .prop_flat_map(|(k, n)| (Just((k, n)), operands(k), operands(k * n))),
    ) {
        // m = 1 takes the transpose-free GEMV inside `gemm::matmul`. Every
        // 16-lane tail occurs for k ≤ 300, and n runs across many panels
        // of the blocked kernel; each output must equal the scalar
        // reference dot over the packed Bᵀ row and the blocked kernel's
        // one-row tile, bit for bit.
        let am = Matrix::from_vec(1, k, a).unwrap();
        let bm = Matrix::from_vec(k, n, b).unwrap();
        let routed = gemm::matmul(&am, &bm).unwrap();
        let blocked = gemm::matmul_blocked(&am, &bm).unwrap();
        let bt = gemm::transpose_blocked(&bm);
        let btv = bt.as_slice();
        for j in 0..n {
            let reference = simd::dot_scalar(am.as_slice(), &btv[j * k..(j + 1) * k]);
            prop_assert_eq!(
                routed.get(0, j).to_bits(), reference.to_bits(),
                "column {} of 1x{}x{}", j, k, n
            );
        }
        prop_assert_eq!(bits(&routed), bits(&blocked));
    }

    #[test]
    fn attend_bitwise_equals_dot_softmax_matmul_seq_composition(
        ((t, dh, stride, lo), q, keys, values) in head_shapes().prop_flat_map(|s| {
            (Just(s), operands(s.1), operands(s.0 * s.2), operands(s.0 * s.2))
        }),
    ) {
        check_attend(t, dh, stride, lo, &q, &keys, &values)?;
    }

    #[test]
    fn context_bitwise_equals_its_definition(
        (shape, w, values, start) in context_shapes().prop_flat_map(|s| {
            let (rows, t, stride, _, _) = s;
            (Just(s), operands(rows * t), operands(t * stride), operands(rows * stride))
        }),
    ) {
        check_context(shape, &w, &values, &start)?;
    }

    #[test]
    fn context_on_unit_operands_bitwise_equals_its_definition(
        (shape, w, values, start) in context_shapes().prop_flat_map(|s| {
            let (rows, t, stride, _, _) = s;
            (Just(s), unit(rows * t), unit(t * stride), unit(rows * stride))
        }),
    ) {
        // Unit-range operands keep every product's low bits in the sum,
        // so a fused multiply-add or a reordered row fails here.
        check_context(shape, &w, &values, &start)?;
    }

    #[test]
    fn attend_on_unit_operands_bitwise_equals_composition(
        ((t, dh, stride, lo), q, keys, values) in head_shapes().prop_flat_map(|s| {
            (Just(s), unit(s.1), unit(s.0 * s.2), unit(s.0 * s.2))
        }),
    ) {
        // The huge magnitudes of `operands` saturate the softmax to
        // one-hot weights, which hide the low score bits; unit-range
        // operands keep every score bit visible in the output, so a
        // reordered fold or a fused context add fails here.
        check_attend(t, dh, stride, lo, &q, &keys, &values)?;
    }

    #[test]
    fn gemm_is_byte_identical_across_thread_counts(
        ((m, k, n), a, b) in gemm_shapes().prop_flat_map(|(m, k, n)| {
            (Just((m, k, n)), operands(m * k), operands(k * n))
        }),
    ) {
        // The deep k class clears `gemm::PAR_ELEMS_MIN` for the larger m
        // and n, so those cases split into real row bands. The product
        // over resident panels must agree at every thread count too.
        let am = Matrix::from_vec(m, k, a).unwrap();
        let bm = Matrix::from_vec(k, n, b).unwrap();
        let panels = simd::Panels::pack(bm.as_slice(), k, n);
        let serial = gemm::matmul_blocked(&am, &bm).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let par = parallel::with_threads(threads, || gemm::matmul(&am, &bm).unwrap());
            prop_assert_eq!(bits(&par), bits(&serial), "threads = {}", threads);
            let packed =
                parallel::with_threads(threads, || gemm::matmul_packed(&am, &panels).unwrap());
            prop_assert_eq!(bits(&packed), bits(&serial), "packed, threads = {}", threads);
        }
    }

    #[test]
    fn single_row_over_panels_bitwise_equals_scalar_reference(
        ((k, n), a, b) in (0usize..=300, 1usize..=40)
            .prop_flat_map(|(k, n)| (Just((k, n)), operands(k), operands(k * n))),
    ) {
        // The panel GEMV and the row-major one it replaces must each
        // equal the scalar reference dot over every column.
        let (am, bm) = (Matrix::from_vec(1, k, a).unwrap(), Matrix::from_vec(k, n, b).unwrap());
        let packed = gemm::matmul_packed(&am, &simd::Panels::pack(bm.as_slice(), k, n)).unwrap();
        let bt = gemm::transpose_blocked(&bm);
        for j in 0..n {
            let reference = simd::dot_scalar(am.as_slice(), &bt.as_slice()[j * k..(j + 1) * k]);
            prop_assert_eq!(
                packed.get(0, j).to_bits(), reference.to_bits(),
                "column {} of 1x{}x{}", j, k, n
            );
        }
        prop_assert_eq!(bits(&packed), bits(&gemm::matmul(&am, &bm).unwrap()));
    }
}

/// The panel GEMV against the scalar reference dot over every column, at
/// every lane tail (`k` in `0..40` and around 64, and deep) and at every
/// panel edge: a lone column, a 4-wide panel padded or full, an 8-wide
/// panel padded or full, and several panels ending in each. Through the
/// dispatched kernel (the AVX2 panel GEMV, or the forced-scalar twin
/// under `PHOX_FORCE_SCALAR=1`) and through the scalar twin itself.
#[test]
fn panel_gemv_matches_dot_over_columns_bitwise() {
    for k in (0..40).chain([63, 64, 65, 300]) {
        for n in [1usize, 3, 4, 5, 8, 13, 16, 17] {
            let a = Prng::new(31).fill_uniform(1, k, -1.0, 1.0).into_vec();
            let b = Prng::new(32).fill_uniform(k, n, -1.0, 1.0).into_vec();
            let panels = simd::Panels::pack(&b, k, n);
            let mut fast = vec![f64::NAN; n];
            let mut twin = vec![f64::NAN; n];
            simd::gemm(&a, &panels, &mut fast);
            simd::gemm_scalar(&a, &panels, &mut twin);
            for j in 0..n {
                let col: Vec<f64> = (0..k).map(|p| b[p * n + j]).collect();
                let expect = simd::dot_scalar(&a, &col).to_bits();
                assert_eq!(fast[j].to_bits(), expect, "k={k} n={n} j={j}");
                assert_eq!(twin[j].to_bits(), expect, "twin k={k} n={n} j={j}");
            }
        }
    }
}

/// `matmul_packed` equals `matmul` of the same matrix bit for bit at the
/// row counts the models run (one decode row, row remainders around the
/// six-row tile, a full prefill) and at `llm_prefill`'s and
/// `llm_decode`'s weight shapes, on 1, 2 and 8 threads.
#[test]
fn matmul_packed_equals_matmul_at_every_row_and_thread_count() {
    for (i, &(k, n)) in [
        (64usize, 64usize),
        (64, 256),
        (256, 64),
        (256, 1024),
        (45, 77),
    ]
    .iter()
    .enumerate()
    {
        let b = Prng::new(50 + i as u64).fill_uniform(k, n, -1.0, 1.0);
        let panels = simd::Panels::pack(b.as_slice(), k, n);
        for m in [1usize, 2, 5, 6, 7, 256] {
            let a = Prng::new(60 + m as u64).fill_uniform(m, k, -1.0, 1.0);
            let want = bits(&gemm::matmul(&a, &b).unwrap());
            for threads in [1usize, 2, 8] {
                let got = parallel::with_threads(threads, || gemm::matmul_packed(&a, &panels));
                assert_eq!(bits(&got.unwrap()), want, "{m}x{k}x{n} threads={threads}");
            }
        }
    }
}

/// A weight drawn straight into panels (`Prng::xavier_panels`) equals
/// `Panels::pack` of `Prng::xavier` at the same seed, unpacks to that
/// matrix bit for bit, and leaves the generator where `xavier` leaves
/// it, so every later draw of a model build is unchanged.
#[test]
fn xavier_panels_equal_the_packed_xavier_matrix() {
    for (k, n) in [
        (0usize, 4usize),
        (4, 0),
        (1, 1),
        (15, 3),
        (64, 64),
        (64, 256),
        (256, 64),
        (45, 77),
    ] {
        let (mut direct, mut via) = (
            Prng::new(k as u64 * 31 + n as u64),
            Prng::new(k as u64 * 31 + n as u64),
        );
        let panels = direct.xavier_panels(k, n);
        let matrix = via.xavier(k, n);
        assert_eq!(
            panels,
            simd::Panels::pack(matrix.as_slice(), k, n),
            "{k}x{n}"
        );
        let unpacked: Vec<u64> = panels.unpack().iter().map(|v| v.to_bits()).collect();
        assert_eq!(unpacked, bits(&matrix), "{k}x{n}");
        assert_eq!(
            direct.next_u64(),
            via.next_u64(),
            "{k}x{n}: generator state"
        );
    }
}

/// Thread-invariance must hold above the parallel threshold too (the
/// proptest shapes stay below [`gemm::PAR_ELEMS_MIN`] for speed, so this
/// deterministic case pins the banded path with real worker threads).
#[test]
fn large_gemm_is_byte_identical_across_thread_counts() {
    let a = phox_tensor::Prng::new(40).fill_uniform(96, 96, -1.0, 1.0);
    let b = phox_tensor::Prng::new(41).fill_uniform(96, 96, -1.0, 1.0);
    let serial = gemm::matmul_blocked(&a, &b).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let par = parallel::with_threads(threads, || gemm::matmul(&a, &b).unwrap());
        assert_eq!(bits(&par), bits(&serial), "threads = {threads}");
    }
}

/// One deterministic product deep in k with every ragged edge at once:
/// 67 rows (eleven tiles and a one-row remainder), 1029 values of k
/// (four k-blocks and a five-value tail) and 45 columns (five full
/// panels, a 4-wide panel and one padded column), on unit operands.
#[test]
fn deep_ragged_gemm_bitwise_equals_scalar_reference() {
    let (m, k, n) = (67, 1029, 45);
    let a = phox_tensor::Prng::new(42).fill_uniform(m, k, -1.0, 1.0);
    let b = phox_tensor::Prng::new(43).fill_uniform(k, n, -1.0, 1.0);
    let mismatch = gemm_mismatch(m, k, n, a.into_vec(), b.into_vec());
    assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());
}

/// An empty context attends to nothing: `out` keeps every bit, on both
/// kernels, even where a head offset lies past the (empty) cache.
#[test]
fn attend_over_an_empty_cache_leaves_out_untouched() {
    let start = [1.5, -0.0, f64::NAN, f64::MIN_POSITIVE * 1e-3, -3.0];
    let q = [0.25; 5];
    for kernel in [simd::attend as AttendFn, simd::attend_scalar] {
        let mut out = start;
        kernel(&q, &[], &[], 9, 3, &mut [], &mut out);
        let out_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        let start_bits: Vec<u64> = start.iter().map(|v| v.to_bits()).collect();
        assert_eq!(out_bits, start_bits);
    }
}

/// The dispatched dot must remain bit-identical to the scalar reference
/// on fully subnormal panels long enough to engage the 16-lane body.
#[test]
fn subnormal_panels_agree_bitwise() {
    let a: Vec<f64> = (0..333)
        .map(|i| f64::from_bits(1 + (i as u64 * 2654435761) % ((1u64 << 52) - 1)))
        .collect();
    let b: Vec<f64> = (0..333)
        .map(|i| f64::from_bits(1 + (i as u64 * 40503) % ((1u64 << 52) - 1)) * 1e-10)
        .collect();
    assert!(a.iter().all(|v| v.is_subnormal()));
    assert_eq!(
        simd::dot_scalar(&a, &b).to_bits(),
        simd::dot(&a, &b).to_bits()
    );
}
