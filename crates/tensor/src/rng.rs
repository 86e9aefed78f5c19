//! Deterministic pseudo-random number generation.
//!
//! Every stochastic path in the workspace (weight initialisation, synthetic
//! graph generation, analog noise draws) goes through [`Prng`], a small
//! SplitMix64-based generator, so that figures and tests are exactly
//! reproducible from a seed. We deliberately do not pull `rand` into the
//! substrate crate; the generators here are sufficient and dependency-free.
//!
//! SplitMix64's state is a counter: the `n`-th output is a pure function
//! of `seed + n·γ`. [`Prng::fill_u64`] uses that to compute a batch of
//! raw draws four at a time on AVX2 hosts, with the same bits and the
//! same final state as a [`Prng::next_u64`] loop.

/// Derives an independent child seed from `(seed, stream)`.
///
/// This is the stream-derivation primitive behind deterministic parallel
/// noise injection: a parent generator's seed plus a stable stream index
/// (an output-tile index, an attention-head index, a graph-node index)
/// yields a child seed whose [`Prng`] sequence is statistically
/// independent of both the parent and its sibling streams. Because the
/// child depends only on `(seed, stream)` — never on execution order —
/// parallel consumers draw identical noise regardless of thread count or
/// schedule.
///
/// The mix runs the stream index through one golden-ratio SplitMix64 step
/// and finalises the XOR of the two halves with the murmur3/splitmix
/// avalanche, so neighbouring stream indices land in unrelated states.
///
/// # Example
///
/// ```
/// use phox_tensor::rng::split_seed;
///
/// assert_eq!(split_seed(42, 7), split_seed(42, 7));
/// assert_ne!(split_seed(42, 7), split_seed(42, 8));
/// ```
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let s = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = seed ^ s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded pseudo-random number generator (SplitMix64 core).
///
/// SplitMix64 passes BigCrush and is the canonical seeder for the
/// xoshiro family; its statistical quality is more than sufficient for
/// workload synthesis and Monte-Carlo noise injection.
///
/// # Example
///
/// ```
/// use phox_tensor::Prng;
///
/// let mut a = Prng::new(42);
/// let mut b = Prng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Prng {
    state: u64,
    /// Cached second Box-Muller variate.
    spare_normal: Option<f64>,
}

impl Prng {
    /// Creates a generator from a seed. Distinct seeds yield independent
    /// streams for practical simulation purposes.
    pub fn new(seed: u64) -> Self {
        Prng {
            state: seed,
            spare_normal: None,
        }
    }

    /// Creates the generator for stream `stream` of the family rooted at
    /// `seed` (see [`split_seed`]).
    pub fn stream(seed: u64, stream: u64) -> Self {
        Prng::new(split_seed(seed, stream))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea, Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Writes the next `out.len()` outputs of [`Prng::next_u64`] to
    /// `out`, in order, and leaves the generator where that many calls
    /// would. The cached normal variate is untouched, as `next_u64`
    /// leaves it.
    ///
    /// Where the int8 kernels are dispatched
    /// ([`crate::gemm_i8::simd_active`]: AVX2 present and
    /// `PHOX_FORCE_SCALAR` not set), each group of four draws is computed
    /// in one AVX2 register straight from its counter value; the rest is
    /// the `next_u64` loop, which is also the whole fill elsewhere. Both
    /// give the same bits.
    ///
    /// # Example
    ///
    /// ```
    /// use phox_tensor::Prng;
    ///
    /// let (mut a, mut b) = (Prng::new(9), Prng::new(9));
    /// let mut batch = [0u64; 7];
    /// a.fill_u64(&mut batch);
    /// assert!(batch.iter().all(|&u| u == b.next_u64()));
    /// assert_eq!(a, b);
    /// ```
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        let out = if crate::gemm_i8::simd_active() {
            let (body, tail) = out.split_at_mut(out.len() / 4 * 4);
            // SAFETY: `simd_active` is true only where AVX2 is available.
            unsafe { x86::fill_u64_avx2(self.state, body) };
            self.state = self
                .state
                .wrapping_add(x86::GAMMA.wrapping_mul(body.len() as u64));
            tail
        } else {
            out
        };
        for u in out {
            *u = self.next_u64();
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Self::unit_f64(self.next_u64())
    }

    /// The uniform `f64` in `[0, 1)` that [`Prng::next_f64`] makes of
    /// the raw output `raw`, so a batch drawn with [`Prng::fill_u64`]
    /// converts to the same values as a `next_f64` loop.
    #[inline]
    pub fn unit_f64(raw: u64) -> f64 {
        // 53 high bits -> [0, 1).
        (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_index requires n > 0");
        // Rejection-free multiply-shift; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal variate via Box-Muller.
    #[inline]
    pub fn next_normal(&mut self) -> f64 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        // Avoid log(0).
        let u1 = loop {
            let u = self.next_f64();
            if u > f64::EPSILON {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.next_normal()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fills a matrix with i.i.d. uniform values in `[lo, hi)`.
    pub fn fill_uniform(&mut self, rows: usize, cols: usize, lo: f64, hi: f64) -> crate::Matrix {
        let data = (0..rows * cols).map(|_| self.uniform(lo, hi)).collect();
        crate::Matrix::from_vec(rows, cols, data)
            .unwrap_or_else(|_| unreachable!("length is rows*cols by construction"))
    }

    /// Fills a matrix with i.i.d. normal values.
    pub fn fill_normal(
        &mut self,
        rows: usize,
        cols: usize,
        mean: f64,
        std_dev: f64,
    ) -> crate::Matrix {
        let data = (0..rows * cols)
            .map(|_| self.normal(mean, std_dev))
            .collect();
        crate::Matrix::from_vec(rows, cols, data)
            .unwrap_or_else(|_| unreachable!("length is rows*cols by construction"))
    }

    /// Xavier/Glorot-uniform weight initialisation for a `fan_in x fan_out`
    /// layer, the scheme used for all reference model weights.
    pub fn xavier(&mut self, fan_in: usize, fan_out: usize) -> crate::Matrix {
        let limit = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
        self.fill_uniform(fan_in, fan_out, -limit, limit)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_mul_epu32, _mm256_set1_epi64x, _mm256_setr_epi64x,
        _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256,
    };

    // `Prng::next_u64`'s state increment and its two mix multipliers.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
    const MIX2: u64 = 0x94D0_49BB_1331_11EB;

    /// `x · m` modulo 2⁶⁴ in each lane, from three 32 × 32 → 64-bit
    /// `vpmuludq`: the low halves' full product plus the two cross
    /// products shifted up by 32 (the high halves' product lies wholly
    /// above bit 63).
    #[inline(always)]
    unsafe fn mul_u64(x: __m256i, m: u64) -> __m256i {
        let lo = _mm256_mul_epu32(x, _mm256_set1_epi64x(m as i64));
        let hi_lo = _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), _mm256_set1_epi64x(m as i64));
        let lo_hi = _mm256_mul_epu32(x, _mm256_set1_epi64x((m >> 32) as i64));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(_mm256_add_epi64(hi_lo, lo_hi)))
    }

    /// `z ^ (z >> S)` in each lane.
    #[inline(always)]
    unsafe fn xor_shift<const S: i32>(z: __m256i) -> __m256i {
        _mm256_xor_si256(z, _mm256_srli_epi64::<S>(z))
    }

    /// Fills `out` (a multiple of four long) with the SplitMix64 outputs
    /// that follow `state`: lane `i` of a group holds the counter value
    /// `state + (i + 1)·γ` and runs `next_u64`'s mix on it, and each group
    /// steps every lane by `4·γ`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fill_u64_avx2(state: u64, out: &mut [u64]) {
        let lane = |i: u64| state.wrapping_add(GAMMA.wrapping_mul(i)) as i64;
        let mut s = _mm256_setr_epi64x(lane(1), lane(2), lane(3), lane(4));
        let step = _mm256_set1_epi64x(GAMMA.wrapping_mul(4) as i64);
        for group in out.chunks_exact_mut(4) {
            let z = mul_u64(xor_shift::<30>(s), MIX1);
            let z = xor_shift::<31>(mul_u64(xor_shift::<27>(z), MIX2));
            // SAFETY: `group` holds four `u64`s, one unaligned 32-byte
            // store.
            _mm256_storeu_si256(group.as_mut_ptr().cast(), z);
            s = _mm256_add_epi64(s, step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_is_pure_and_separating() {
        assert_eq!(split_seed(1, 2), split_seed(1, 2));
        // Neighbouring streams and seeds land in unrelated states.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            for stream in 0..16u64 {
                assert!(seen.insert(split_seed(seed, stream)));
            }
        }
    }

    #[test]
    fn stream_prngs_are_independent() {
        let mut a = Prng::stream(42, 0);
        let mut b = Prng::stream(42, 1);
        let mut a2 = Prng::stream(42, 0);
        assert_ne!(a.next_u64(), b.next_u64());
        let _ = a2.next_u64();
        assert_eq!(a.next_u64(), a2.next_u64());
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Prng::new(3);
        for _ in 0..1000 {
            let v = r.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn next_index_in_bounds() {
        let mut r = Prng::new(4);
        for _ in 0..1000 {
            assert!(r.next_index(17) < 17);
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = Prng::new(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn xavier_within_limit() {
        let mut r = Prng::new(6);
        let w = r.xavier(64, 64);
        let limit = (6.0 / 128.0_f64).sqrt();
        assert!(w.abs_max() <= limit);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Prng::new(8);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }
}
