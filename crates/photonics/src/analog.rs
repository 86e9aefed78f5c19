//! Generic analog compute engine: value-level simulation of an MR-based
//! photonic datapath, shared by the TRON and GHOST functional
//! simulators.
//!
//! The engine models the full signal chain of one analog operation:
//! int8 DAC quantization of every operand, signed accumulation of the
//! balanced-photodetector difference current in exact level-product
//! counts (the same `i32` accumulators as the digital int8 reference,
//! via [`phox_tensor::gemm_i8`]), receiver noise injected on the
//! accumulated counts, and ADC read-back on a code grid that coincides
//! with the accumulator grid — so a noiseless, fault-free engine
//! reproduces the digital int8 reference bit for bit.
//!
//! A weight that stays in the microring banks between products is
//! passed as its resident int8 pack ([`AnalogEngine::matmul_packed`]);
//! only the activations then go through the DACs.
//! [`AnalogEngine::matmul`] quantizes and packs an f64 weight first and
//! runs the same product. Each product makes one pass per output: each
//! tile's exact sums go through noise, drift gain, dead-lane zeroing and
//! the ADC read-back straight into the result. The converter's range
//! spans the whole product (its largest magnitude), and no read value
//! can leave the window rounded from that range, so the read-back needs
//! no second pass over the product.

use std::ops::Range;

use phox_tensor::{gemm_i8, ops, parallel, split_seed, Matrix, Prng, Quantizer};

use crate::devices::{OpticalActivation, Soa};
use crate::fault::{FaultImpact, FaultPlan, FaultSchedule};
use crate::mr::MrConfig;
use crate::noise::{perturb, NoiseBudget};
use crate::tuning::HybridTuning;
use crate::{Ctx, PhotonicError};

/// Resolved device-fault state carried by an engine: the quantified
/// [`FaultImpact`] plus the bank-array geometry needed to map array
/// coordinates (rows, wavelength channels, receiver lanes) onto matmul
/// indices.
#[derive(Debug, Clone, PartialEq)]
struct FaultState {
    impact: FaultImpact,
    array_rows: usize,
    array_channels: usize,
}

/// Output-tile edge of the analog matmul: each `TILE × TILE` block of the
/// product is one work item with its own noise stream.
pub const TILE: usize = 32;

/// Reusable per-engine matmul scratch: the int8 weight operand packed
/// as [`gemm_i8::Panels`] for the microkernel (a per-call weight, or a
/// copy of a resident pack for stuck cells to patch), and one range
/// value per output tile (its largest read-out magnitude, which the
/// tile's trace span reports). Capacities persist across calls, so
/// steady-state serving hits the same allocations on every step; the
/// `analog/scratch_reuse_hits` trace counter reports how often each
/// buffer was large enough, and counts an unfaulted resident weight,
/// which needs no buffer, as reused.
///
/// Scratch is a cache, not engine state: it is excluded from the
/// engine's `PartialEq` and children start with empty buffers.
#[derive(Debug, Clone, Default)]
struct MatmulScratch {
    panels: gemm_i8::Panels,
    ranges: Vec<f64>,
}

/// Clears `buf` to `len` zeros and reports whether its capacity already
/// sufficed. A short buffer grows to the larger of `len` and twice its
/// capacity — `Vec`'s amortised growth without its four-element minimum
/// — so the range buffer, one value per tile, reports reuse on exactly
/// the calls a buffer of `TILE × TILE` values per tile would.
fn reuse_doubling(buf: &mut Vec<f64>, len: usize) -> bool {
    let reused = buf.capacity() >= len;
    buf.clear();
    if !reused {
        buf.reserve_exact(len.max(2 * buf.capacity()));
    }
    buf.resize(len, 0.0);
    reused
}

/// The typed error of a product whose `a` has other than `k` columns.
fn check_inner(a: &Matrix, k: usize) -> Result<(), PhotonicError> {
    if a.cols() != k {
        return Err(PhotonicError::InvalidConfig {
            what: "matmul inner dimensions must agree",
        });
    }
    Ok(())
}

/// The ADC read-back of one product: what it applies to each exact sum
/// on its way into the result.
struct ReadOut<'a> {
    /// Receiver relative noise.
    sigma: f64,
    /// Residual drift gain on the analog difference.
    weight_gain: f64,
    /// Dead ADC lanes as a column mask; empty when every lane works.
    dead: &'a [bool],
    /// Dequantization scale: both operands' scales.
    scale: f64,
}

impl ReadOut<'_> {
    /// Reads one tile out: the exact sums of its rows (`TILE` apart in
    /// `sums`) into columns `cols` of its rows of `rows_out` (`n` values
    /// each), drawing its noise from `rng` in row-major order. Returns
    /// the tile's largest pre-ADC magnitude. Where the int8 kernels are
    /// dispatched ([`gemm_i8::simd_active`]) the loop is compiled for
    /// AVX2, so `round` and the inlined noise draw compile to inline
    /// instructions, as in the quantizer; the operations and their order
    /// are the same either way, so are the bits.
    fn tile(
        &self,
        sums: &[i32],
        rows_out: &mut [f64],
        n: usize,
        cols: Range<usize>,
        rng: &mut Prng,
    ) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if gemm_i8::simd_active() {
            // SAFETY: `simd_active` is true only where AVX2 is available.
            return unsafe { self.tile_avx2(sums, rows_out, n, cols, rng) };
        }
        self.tile_loop(sums, rows_out, n, cols, rng)
    }

    #[inline(always)]
    fn tile_loop(
        &self,
        sums: &[i32],
        rows_out: &mut [f64],
        n: usize,
        cols: Range<usize>,
        rng: &mut Prng,
    ) -> f64 {
        let mut tile_max = 0.0f64;
        for (row_sums, row_out) in sums.chunks_exact(TILE).zip(rows_out.chunks_exact_mut(n)) {
            for ((&s, o), j) in row_sums
                .iter()
                .zip(&mut row_out[cols.clone()])
                .zip(cols.clone())
            {
                // Receiver noise perturbs the accumulated count
                // (pre-dequantization). The draw happens even for
                // dead-lane outputs, to keep stream alignment with the
                // fault-free engine.
                let noisy = perturb(f64::from(s), self.sigma, rng);
                // Device faults, part 2: residual thermal-drift mis-bias
                // is a uniform gain error on the analog difference; a
                // dead ADC lane reads its output columns as zero. Both
                // are pure functions of (i, j), so the result stays
                // bit-identical across thread counts.
                let v = if self.dead.get(j).copied().unwrap_or(false) {
                    0.0
                } else {
                    noisy * self.weight_gain
                };
                tile_max = tile_max.max(v.abs());
                // ADC stage: read back on the accumulator code grid —
                // the nearest level-product count.
                *o = v.round() * self.scale;
            }
        }
        tile_max
    }

    /// [`ReadOut::tile_loop`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn tile_avx2(
        &self,
        sums: &[i32],
        rows_out: &mut [f64],
        n: usize,
        cols: Range<usize>,
        rng: &mut Prng,
    ) -> f64 {
        self.tile_loop(sums, rows_out, n, cols, rng)
    }
}

/// Rounds each softmax weight `v / sum` to the LUT's grid of `levels`
/// steps, in place. Where the int8 kernels are dispatched
/// ([`gemm_i8::simd_active`]) the loop is compiled for AVX2, so `round`
/// inlines; the bits are the same either way.
fn lut_grid(values: &mut [f64], sum: f64, levels: f64) {
    #[cfg(target_arch = "x86_64")]
    if gemm_i8::simd_active() {
        // SAFETY: `simd_active` is true only where AVX2 is available.
        unsafe { lut_grid_avx2(values, sum, levels) };
        return;
    }
    lut_grid_loop(values, sum, levels);
}

#[inline(always)]
fn lut_grid_loop(values: &mut [f64], sum: f64, levels: f64) {
    for v in values {
        *v = (*v / sum * levels).round() / levels;
    }
}

/// [`lut_grid_loop`] compiled for AVX2.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lut_grid_avx2(values: &mut [f64], sum: f64, levels: f64) {
    lut_grid_loop(values, sum, levels);
}

/// A value-level analog compute engine.
///
/// # Example
///
/// ```
/// use phox_photonics::analog::AnalogEngine;
/// use phox_tensor::{Matrix, Prng};
///
/// # fn main() -> Result<(), phox_photonics::PhotonicError> {
/// let mut engine = AnalogEngine::new(2e-3, 8, 8, 42)?;
/// let a = Prng::new(1).fill_normal(4, 8, 0.0, 1.0);
/// let b = Prng::new(2).fill_normal(8, 4, 0.0, 1.0);
/// // Analog matmul: int8 DACs, BPD arms, noise, 8-bit ADC read-back.
/// let y = engine.matmul(&a, &b)?;
/// let exact = a.matmul(&b).expect("shapes agree");
/// assert!(phox_tensor::stats::relative_error(&exact, &y) < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnalogEngine {
    relative_sigma: f64,
    /// The unfaulted receiver noise level. `relative_sigma` is always
    /// `base_sigma ×` the current fault impact's `sigma_scale`, so fault
    /// state can be replaced or cleared mid-run without compounding.
    base_sigma: f64,
    adc_bits: u32,
    dac_bits: u32,
    soa: Soa,
    /// Root seed of the engine's noise-stream family (see [`split_seed`]).
    seed: u64,
    /// Operations issued so far; each matmul takes the next stream key,
    /// so repeated calls draw fresh (but reproducible) noise.
    ops: u64,
    /// Sequential stream for the element-wise perturbation paths
    /// (layer norm, residual add, SOA, coherent sums).
    rng: Prng,
    /// Injected device faults, if any (inherited by child engines).
    faults: Option<FaultState>,
    /// Reusable matmul buffers (see [`MatmulScratch`]).
    scratch: MatmulScratch,
}

/// Scratch buffers are a cache, never observable state: two engines
/// compare equal whenever they would produce identical outputs from
/// here on, regardless of what either one has allocated so far.
impl PartialEq for AnalogEngine {
    fn eq(&self, other: &Self) -> bool {
        self.relative_sigma == other.relative_sigma
            && self.base_sigma == other.base_sigma
            && self.adc_bits == other.adc_bits
            && self.dac_bits == other.dac_bits
            && self.soa == other.soa
            && self.seed == other.seed
            && self.ops == other.ops
            && self.rng == other.rng
            && self.faults == other.faults
    }
}

impl AnalogEngine {
    /// Builds an engine with an explicit receiver noise level.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for a negative sigma or
    /// out-of-range converter resolutions.
    pub fn new(
        relative_sigma: f64,
        adc_bits: u32,
        dac_bits: u32,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        if relative_sigma < 0.0 || !relative_sigma.is_finite() {
            return Err(PhotonicError::InvalidConfig {
                what: "relative sigma must be non-negative and finite",
            });
        }
        if !(1..=16).contains(&adc_bits) || !(1..=16).contains(&dac_bits) {
            return Err(PhotonicError::InvalidConfig {
                what: "converter resolutions must be 1..=16 bits",
            });
        }
        Ok(AnalogEngine {
            relative_sigma,
            base_sigma: relative_sigma,
            ..AnalogEngine::ideal(adc_bits, dac_bits, seed)
        })
    }

    /// A noiseless engine (quantization effects only).
    pub fn ideal(adc_bits: u32, dac_bits: u32, seed: u64) -> Self {
        AnalogEngine {
            relative_sigma: 0.0,
            base_sigma: 0.0,
            adc_bits,
            dac_bits,
            soa: Soa::default(),
            seed,
            ops: 0,
            rng: Prng::new(seed),
            faults: None,
            scratch: MatmulScratch::default(),
        }
    }

    /// Replaces the engine's fault state with `impact`, recomputing the
    /// effective noise from the stored unfaulted baseline, so calling it
    /// on every schedule step never compounds sigma scales: the engine
    /// always reflects exactly the *current* fault plan.
    ///
    /// The receiver noise is inflated by the impact's `sigma_scale`
    /// (laser droop), and subsequent [`AnalogEngine::matmul`] calls apply
    /// the stuck weight cells, the residual drift weight gain, and the
    /// dead ADC lanes. Child engines created afterwards inherit the
    /// faults, so a faulted accelerator is faulted in every parallel
    /// unit.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::InvalidConfig`] for a
    /// degenerate geometry or when every receiver lane is dead.
    pub fn set_fault_impact(
        &mut self,
        impact: &FaultImpact,
        array_rows: usize,
        array_channels: usize,
    ) -> Result<(), PhotonicError> {
        if array_rows == 0 || array_channels == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "fault geometry must be non-zero",
            }
            .ctx("injecting device faults"));
        }
        if impact.dead_lanes.len() >= array_rows {
            return Err(PhotonicError::InvalidConfig {
                what: "every receiver lane is dead",
            }
            .ctx("injecting device faults"));
        }
        self.relative_sigma = self.base_sigma * impact.sigma_scale;
        self.faults = Some(FaultState {
            impact: impact.clone(),
            array_rows,
            array_channels,
        });
        Ok(())
    }

    /// Clears all fault state, restoring the unfaulted noise baseline.
    pub fn clear_faults(&mut self) {
        self.relative_sigma = self.base_sigma;
        self.faults = None;
    }

    /// Receiver relative noise (σ/signal).
    pub fn relative_sigma(&self) -> f64 {
        self.relative_sigma
    }

    /// Number of output levels of the DAC / LUT grid (`2^dac_bits − 1`):
    /// [`AnalogEngine::lut_softmax_in_place`] emits multiples of
    /// `1 / dac_levels()`, so callers can recover the exact integer LUT
    /// codes for an int8-routed weighted accumulation.
    pub fn dac_levels(&self) -> f64 {
        (2u64.pow(self.dac_bits) - 1) as f64
    }

    /// Takes the next operation stream key.
    ///
    /// Each key roots an independent family of noise streams (one per
    /// output tile / per child unit); advancing a counter rather than
    /// drawing from `rng` keeps the key sequence independent of how many
    /// noise values earlier operations consumed.
    pub fn stream_key(&mut self) -> u64 {
        let key = split_seed(self.seed, self.ops);
        self.ops += 1;
        key
    }

    /// Builds a deterministic child engine for parallel unit `unit` of
    /// the operation keyed by `key` (an attention head, a graph node).
    ///
    /// The child inherits the parent's physical parameters but owns an
    /// independent noise-stream family, so sibling units can run
    /// concurrently while drawing exactly the noise they would draw
    /// serially.
    pub fn make_child(&self, key: u64, unit: u64) -> AnalogEngine {
        AnalogEngine {
            relative_sigma: self.relative_sigma,
            base_sigma: self.base_sigma,
            soa: self.soa,
            faults: self.faults.clone(),
            ..AnalogEngine::ideal(self.adc_bits, self.dac_bits, split_seed(key, unit))
        }
    }

    /// Analog matrix multiplication `a · b` with a per-call weight: `b`
    /// is calibrated and quantized to DAC levels, packed into the
    /// engine's reusable [`gemm_i8::Panels`] (stuck-cell faults then
    /// patch those codes), and multiplied as
    /// [`AnalogEngine::matmul_packed`] multiplies a resident pack.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on inner-dimension
    /// mismatch.
    pub fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Result<Matrix, PhotonicError> {
        check_inner(a, b.rows())?;
        let qb = Quantizer::calibrate(b).quantize(b);
        Ok(self.product_in_scratch(a, qb.scale(), |panels| {
            panels.repack(qb.as_i8_slice(), b.rows(), b.cols())
        }))
    }

    /// Analog matrix multiplication `a · B` with a resident weight: `b`
    /// holds `B`'s int8 codes packed for the microkernel and `b_scale`
    /// its quantization scale, as a model keeps each weight
    /// (`phox_nn::int8::QuantLinear`) and a microring bank holds it
    /// between products. Only `a` goes through the DACs. Stuck-cell
    /// faults patch a copy of the pack in the engine's scratch, never
    /// `b` itself; without them `b` is read in place. The codes and scale
    /// of `Quantizer::calibrate(w).quantize(w)` give exactly
    /// [`AnalogEngine::matmul`]`(a, w)`.
    ///
    /// The product is computed [`TILE`]`×`[`TILE`] output tile by tile,
    /// one parallel task per `TILE`-row block of the output. Each output
    /// element accumulates the balanced-photodetector difference current
    /// in exact level-product counts — the same `i32` accumulation the
    /// digital int8 reference ([`phox_tensor::QuantMatrix::matmul`])
    /// performs — from one call of the register-blocked
    /// [`gemm_i8::gemm`] microkernel per tile into a stack block.
    /// Receiver noise then perturbs each accumulated count before
    /// dequantization, in row-major `(i, j)` order within the tile. Each
    /// tile draws its noise from an independent stream keyed on `(engine
    /// seed, operation counter, tile index)`, so the result is
    /// **bit-identical for any thread count** — the tile's noise depends
    /// only on which tile it is, never on which thread computes it or
    /// in what order. Drift gain and dead ADC lanes (a column mask built
    /// once per call) apply in the same pass.
    ///
    /// The ADC read-back rounds to the nearest level-product count: with
    /// the int8 datapath the accumulator grid *is* the converter's code
    /// grid (the TIA gain maps the product's range, its largest
    /// magnitude, onto full scale, and the sub-count quantization
    /// residual is subsumed by the receiver noise term). The converter's
    /// window is that range rounded, and since every value lies within
    /// the range and rounding is monotone and odd, no read value falls
    /// outside it: the read-back is `round(v) · scale`, written straight
    /// into the result as each value is drawn. Each tile's largest
    /// magnitude is kept only for its trace span. A noiseless,
    /// fault-free engine therefore returns exactly the digital int8
    /// product. `adc_bits` continues to gate constructor validation and
    /// the digital conversion blocks. A product with no outputs records
    /// no tiles.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on inner-dimension
    /// mismatch.
    pub fn matmul_packed(
        &mut self,
        a: &Matrix,
        b: &gemm_i8::Panels,
        b_scale: f64,
    ) -> Result<Matrix, PhotonicError> {
        check_inner(a, b.k())?;
        let stuck = self
            .faults
            .as_ref()
            .is_some_and(|fs| !fs.impact.stuck.is_empty());
        Ok(if stuck {
            self.product_in_scratch(a, b_scale, |panels| panels.copy_from(b))
        } else {
            // Nothing is allocated for the weight: it counts as reused.
            self.product(a, b, b_scale, true)
        })
    }

    /// The product over the engine's scratch pack, once `fill` has
    /// written the weight's codes into it (returning whether its buffer
    /// was large enough) and stuck cells have patched them.
    fn product_in_scratch(
        &mut self,
        a: &Matrix,
        b_scale: f64,
        fill: impl FnOnce(&mut gemm_i8::Panels) -> bool,
    ) -> Matrix {
        let mut panels = std::mem::take(&mut self.scratch.panels);
        let reused = fill(&mut panels);
        self.stick(&mut panels);
        let out = self.product(a, &panels, b_scale, reused);
        self.scratch.panels = panels;
        out
    }

    /// Device faults, part 1: a stuck microring forces every weight it
    /// carries to its stuck transmission level. Output column `j` is
    /// produced by array row `j % array_rows`, and reduction index `kk`
    /// rides wavelength channel `kk % array_channels`, so the stuck cell
    /// repeats across the logical matrix with the bank geometry's period.
    /// The programmed sign survives (it lives in the BPD arm assignment,
    /// not the ring bias).
    fn stick(&self, panels: &mut gemm_i8::Panels) {
        let Some(fs) = &self.faults else { return };
        let (k, n) = (panels.k(), panels.n());
        for s in &fs.impact.stuck {
            #[allow(clippy::cast_possible_truncation)]
            let level = (s.transmission * 127.0).round() as i8;
            for j in (s.row..n).step_by(fs.array_rows) {
                for kk in (s.channel..k).step_by(fs.array_channels) {
                    let w = panels.code(kk, j);
                    panels.set_code(kk, j, if w >= 0 { level } else { -level });
                }
            }
        }
    }

    /// The one product body: `a` through the DACs, times the (already
    /// stuck-patched) weight pack `b`, read out tile by tile (see
    /// [`AnalogEngine::matmul_packed`]). `weight_reused` is the weight
    /// operand's share of the `analog/scratch_reuse_hits` counter.
    fn product(
        &mut self,
        a: &Matrix,
        b: &gemm_i8::Panels,
        b_scale: f64,
        weight_reused: bool,
    ) -> Matrix {
        // DAC stage: symmetric int8 levels.
        let qa = Quantizer::calibrate(a).quantize(a);
        let (m, k, n) = (a.rows(), b.k(), b.n());
        let op_key = self.stream_key();

        let tile_rows = m.div_ceil(TILE);
        let tile_cols = n.div_ceil(TILE);
        let num_tiles = tile_rows * tile_cols;

        // Reusable range scratch, moved out of `self` for the duration of
        // the call so the parallel section can borrow it freely.
        let mut ranges = std::mem::take(&mut self.scratch.ranges);
        let scratch_hits =
            i64::from(weight_reused) + i64::from(reuse_doubling(&mut ranges, num_tiles));

        let (weight_gain, dead): (f64, Vec<bool>) = match &self.faults {
            Some(fs) => {
                // Dead ADC lanes as a column mask, built once per call.
                let lanes = &fs.impact.dead_lanes;
                let dead = if lanes.is_empty() {
                    Vec::new()
                } else {
                    (0..n)
                        .map(|j| lanes.contains(&(j % fs.array_rows)))
                        .collect()
                };
                (fs.impact.weight_gain, dead)
            }
            None => (1.0, Vec::new()),
        };
        let read_out = ReadOut {
            sigma: self.relative_sigma,
            weight_gain,
            dead: &dead,
            scale: qa.scale() * b_scale,
        };

        let mut out = Matrix::zeros(m, n);
        if num_tiles > 0 {
            let qas = qa.as_i8_slice();
            // One task per TILE-row block of the output: its rows and the
            // range slots of its tiles.
            let mut blocks: Vec<(&mut [f64], &mut [f64])> = out
                .as_mut_slice()
                .chunks_mut(TILE * n)
                .zip(ranges.chunks_mut(tile_cols))
                .collect();
            parallel::par_chunks_mut(&mut blocks, 1, |ti, block| {
                let (rows_out, tile_ranges) = &mut block[0];
                let (i0, height) = (ti * TILE, rows_out.len() / n);
                let a_rows = &qas[i0 * k..(i0 + height) * k];
                for (tj, range) in tile_ranges.iter_mut().enumerate() {
                    let cols = tj * TILE..((tj + 1) * TILE).min(n);
                    // The BPD difference current accumulates level
                    // products exactly — the int8 microkernel's i32
                    // accumulators, shared with the digital reference.
                    let mut sums = [0i32; TILE * TILE];
                    gemm_i8::gemm(a_rows, b, cols.clone(), &mut sums[..height * TILE], TILE);
                    let mut rng = Prng::stream(op_key, (ti * tile_cols + tj) as u64);
                    *range = read_out.tile(&sums, rows_out, n, cols, &mut rng);
                }
            });
        }

        // Tile spans are recorded here, in a serial loop over tile
        // indices — never from the worker threads — so the recording
        // order (and hence the exported trace) is independent of the
        // thread count. The span axis is the tile sequence number, not
        // wall or model time: the functional engine has no time model.
        if phox_trace::enabled() {
            let tr = phox_trace::active();
            tr.count("analog", "matmuls", 1);
            tr.count("analog", "tiles", num_tiles as i64);
            tr.count("analog", "scratch_reuse_hits", scratch_hits);
            tr.count("int8", "analog_gemm_calls", 1);
            tr.count("int8", "analog_macs", (m * k * n) as i64);
            for (t, &tile_max) in ranges.iter().enumerate() {
                let (i0, j0) = ((t / tile_cols) * TILE, (t % tile_cols) * TILE);
                let (i1, j1) = ((i0 + TILE).min(m), (j0 + TILE).min(n));
                tr.model_span(
                    "analog",
                    "tile",
                    t as f64,
                    1.0,
                    None,
                    vec![
                        ("op_key", phox_trace::Value::UInt(op_key)),
                        ("stream", phox_trace::Value::UInt(t as u64)),
                        ("i0", phox_trace::Value::UInt(i0 as u64)),
                        ("j0", phox_trace::Value::UInt(j0 as u64)),
                        ("rows", phox_trace::Value::UInt((i1 - i0) as u64)),
                        ("cols", phox_trace::Value::UInt((j1 - j0) as u64)),
                        ("abs_max", phox_trace::Value::Float(tile_max)),
                    ],
                );
            }
        }
        self.scratch.ranges = ranges;
        out
    }

    /// Digital LUT softmax: numerically stable softmax over `values`,
    /// rewritten in place with each probability quantized to the LUT's
    /// output grid. Consumes no noise stream — the LUT is a digital
    /// block — so it never perturbs the engine's RNG state.
    pub fn lut_softmax_in_place(&self, values: &mut [f64]) {
        if values.is_empty() {
            return;
        }
        let m = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in values.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        lut_grid(values, sum, self.dac_levels());
    }

    /// Optical LayerNorm: exact normalization followed by analog
    /// perturbation of the single-MR gain stage.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::Upstream`] preserving
    /// the tensor-layer shape detail on a parameter-length mismatch.
    pub fn optical_layer_norm(
        &mut self,
        x: &Matrix,
        gamma: &[f64],
        beta: &[f64],
    ) -> Result<Matrix, PhotonicError> {
        let mut ln = ops::layer_norm(x, gamma, beta, 1e-9).ctx("optical layer norm")?;
        self.perturb_in_place(&mut ln);
        Ok(ln)
    }

    /// Coherent residual addition with receiver-noise perturbation.
    ///
    /// # Errors
    ///
    /// Returns a context-chained [`PhotonicError::Upstream`] preserving
    /// the tensor-layer shape detail on an operand shape mismatch.
    pub fn coherent_add(&mut self, a: &Matrix, b: &Matrix) -> Result<Matrix, PhotonicError> {
        let mut sum = a.add(b).ctx("coherent residual add")?;
        self.perturb_in_place(&mut sum);
        Ok(sum)
    }

    /// Perturbs every value of `x` in place, in row-major order, with
    /// receiver noise from the engine's sequential stream.
    fn perturb_in_place(&mut self, x: &mut Matrix) {
        let sigma = self.relative_sigma;
        let rng = &mut self.rng;
        x.map_inplace(|v| perturb(v, sigma, rng));
    }

    /// SOA-based optical activation applied elementwise to `x` in place,
    /// with the SOA's calibration residual plus receiver noise.
    pub fn soa_activate(&mut self, f: OpticalActivation, mut x: Matrix) -> Matrix {
        let sigma = (self.relative_sigma.powi(2) + self.soa.activation_error.powi(2)).sqrt();
        let soa = self.soa;
        let rng = &mut self.rng;
        x.map_inplace(|v| perturb(soa.activate(f, v), sigma, rng));
        x
    }
}

/// What an [`AnalogRuntime`] is built from: an accelerator's converter
/// widths, its bank-array geometry, and the device models a
/// [`FaultPlan`] resolves against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogDevices {
    /// ADC resolution, bits; the noise budget is provisioned for it.
    pub adc_bits: u32,
    /// DAC resolution, bits: the LUT-softmax output grid.
    pub dac_bits: u32,
    /// Rows (waveguides / receiver lanes) per bank array.
    pub array_rows: usize,
    /// Wavelength channels per bank-array row.
    pub array_channels: usize,
    /// Ring configuration.
    pub mr: MrConfig,
    /// Tuning circuit policy.
    pub tuning: HybridTuning,
    /// Receiver noise budget.
    pub noise: NoiseBudget,
}

/// The analog state of one functional simulator (TRON and GHOST each
/// hold one): the [`AnalogEngine`], the [`AnalogDevices`] a fault plan
/// resolves against, and an optional model-time [`FaultSchedule`] with
/// the plan last resolved from it. Its errors name no accelerator; the
/// simulators add that context.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogRuntime {
    engine: AnalogEngine,
    devices: AnalogDevices,
    schedule: Option<(FaultSchedule, FaultPlan)>,
}

impl AnalogRuntime {
    /// Receiver noise from the noise budget provisioned for `adc_bits`
    /// of precision.
    ///
    /// # Errors
    ///
    /// Propagates noise-budget and engine construction failures.
    pub fn new(devices: AnalogDevices, seed: u64) -> Result<Self, PhotonicError> {
        let rx = devices.noise.required_power_w(devices.adc_bits)?;
        let sigma = devices.noise.evaluate(rx)?.relative_sigma;
        AnalogRuntime::with_noise(devices, sigma, seed)
    }

    /// A noiseless runtime: quantization effects only.
    pub fn ideal(devices: AnalogDevices, seed: u64) -> Self {
        AnalogRuntime {
            engine: AnalogEngine::ideal(devices.adc_bits, devices.dac_bits, seed),
            devices,
            schedule: None,
        }
    }

    /// An explicit receiver noise level, for robustness sweeps beyond the
    /// provisioned operating point.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn with_noise(
        devices: AnalogDevices,
        sigma: f64,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        Ok(AnalogRuntime {
            engine: AnalogEngine::new(sigma, devices.adc_bits, devices.dac_bits, seed)?,
            devices,
            schedule: None,
        })
    }

    /// The provisioned runtime with `plan`'s device faults: validated
    /// against the bank arrays and resolved against the device models
    /// ([`FaultPlan::impact`]), they degrade every analog operation,
    /// child engines included.
    ///
    /// # Errors
    ///
    /// Returns an error when the plan is out of geometry or a fault is
    /// uncompensatable (drift beyond the tuning range, droop below the
    /// noise floor, every receiver lane dead).
    pub fn with_faults(
        devices: AnalogDevices,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        let d = &devices;
        if (plan.array_rows, plan.array_channels) != (d.array_rows, d.array_channels) {
            return Err(PhotonicError::InvalidConfig {
                what: "fault plan geometry must match the accelerator's bank arrays",
            });
        }
        let plan = plan.validated()?;
        let impact = plan.impact(&d.mr, &d.tuning, &d.noise, d.adc_bits)?;
        let mut rt = AnalogRuntime::new(devices, seed)?;
        // An empty plan leaves the engine unfaulted, as an empty schedule
        // does, rather than holding an identity impact.
        if !plan.is_empty() {
            rt.engine
                .set_fault_impact(&impact, d.array_rows, d.array_channels)?;
        }
        Ok(rt)
    }

    /// The provisioned runtime driven by a model-time [`FaultSchedule`]:
    /// call [`AnalogRuntime::advance_to`] before each forward pass. An
    /// empty schedule is a strict no-op: the runtime behaves
    /// byte-identically to [`AnalogRuntime::new`].
    ///
    /// # Errors
    ///
    /// Returns an error when the schedule geometry does not match the
    /// bank arrays, or a fault active at `t = 0` is uncompensatable.
    pub fn with_fault_schedule(
        devices: AnalogDevices,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        let d = &devices;
        if (schedule.array_rows, schedule.array_channels) != (d.array_rows, d.array_channels) {
            return Err(PhotonicError::InvalidConfig {
                what: "fault schedule geometry must match the accelerator's bank arrays",
            });
        }
        let mut rt = AnalogRuntime::new(devices, seed)?;
        rt.schedule = Some((schedule, FaultPlan::new(d.array_rows, d.array_channels)));
        rt.advance_to(0.0)?;
        Ok(rt)
    }

    /// Advances the fault schedule to model time `t_s`, resolving the
    /// active [`FaultPlan`] into the engine when it changed; a no-op
    /// without a schedule.
    ///
    /// # Errors
    ///
    /// Returns an error when `t_s` is not finite or a newly active fault
    /// is uncompensatable: the accelerator is down, not silently wrong.
    pub fn advance_to(&mut self, t_s: f64) -> Result<(), PhotonicError> {
        let Some((schedule, current)) = self.schedule.as_mut() else {
            return Ok(());
        };
        let plan = schedule.plan_at(t_s)?;
        if plan == *current {
            return Ok(());
        }
        if plan.is_empty() {
            self.engine.clear_faults();
        } else {
            let d = &self.devices;
            let impact = plan.impact(&d.mr, &d.tuning, &d.noise, d.adc_bits)?;
            let (rows, channels) = (plan.array_rows, plan.array_channels);
            self.engine.set_fault_impact(&impact, rows, channels)?;
        }
        *current = plan;
        Ok(())
    }

    /// The engine.
    pub fn engine(&self) -> &AnalogEngine {
        &self.engine
    }

    /// The engine, to issue analog operations on.
    pub fn engine_mut(&mut self) -> &mut AnalogEngine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_tensor::stats;

    #[test]
    fn matmul_matches_digital_within_tolerance() {
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 1).unwrap();
        let mut rng = Prng::new(2);
        let a = rng.fill_normal(8, 16, 0.0, 1.0);
        let b = rng.fill_normal(16, 8, 0.0, 1.0);
        let analog = eng.matmul(&a, &b).unwrap();
        let exact = a.matmul(&b).unwrap();
        assert!(stats::relative_error(&exact, &analog) < 0.05);
    }

    #[test]
    fn ideal_error_is_pure_quantization() {
        let mut eng = AnalogEngine::ideal(8, 8, 1);
        let mut rng = Prng::new(3);
        let a = rng.fill_normal(8, 16, 0.0, 1.0);
        let b = rng.fill_normal(16, 8, 0.0, 1.0);
        let err = stats::relative_error(&a.matmul(&b).unwrap(), &eng.matmul(&a, &b).unwrap());
        assert!(err < 0.02, "{err}");
    }

    #[test]
    fn ideal_matmul_is_bitwise_the_digital_int8_reference() {
        let mut eng = AnalogEngine::ideal(8, 8, 5);
        let mut rng = Prng::new(6);
        // Ragged shapes: partial edge tiles on both axes.
        let a = rng.fill_normal(41, 70, 0.0, 1.0);
        let b = rng.fill_normal(70, 37, 0.0, 1.0);
        let analog = eng.matmul(&a, &b).unwrap();
        let qa = Quantizer::calibrate(&a).quantize(&a);
        let qb = Quantizer::calibrate(&b).quantize(&b);
        let digital = qa.matmul(&qb).unwrap();
        assert_eq!(bits(&analog), bits(&digital));
    }

    #[test]
    fn scratch_is_reused_across_calls_and_excluded_from_eq() {
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 9).unwrap();
        let mut twin = eng.clone();
        let mut rng = Prng::new(10);
        let a = rng.fill_normal(40, 40, 0.0, 1.0);
        let b = rng.fill_normal(40, 40, 0.0, 1.0);
        eng.matmul(&a, &b).unwrap();
        let cap_ranges = eng.scratch.ranges.capacity();
        assert!(eng.scratch.panels.k() == 40 && cap_ranges > 0);
        // The second call of the same shape fits both buffers.
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || eng.matmul(&a, &b).unwrap());
        let hits = trace
            .counters()
            .into_iter()
            .find(|(t, n, _)| t == "analog" && n == "scratch_reuse_hits")
            .map(|(_, _, v)| v);
        assert!(
            matches!(hits, Some(phox_trace::CounterValue::Int(2))),
            "{hits:?}"
        );
        assert_eq!(
            eng.scratch.ranges.capacity(),
            cap_ranges,
            "range scratch reallocated"
        );
        // The twin performs the same ops but drops its scratch: engines
        // must still compare equal (scratch is a cache, not state).
        twin.matmul(&a, &b).unwrap();
        twin.matmul(&a, &b).unwrap();
        twin.scratch = MatmulScratch::default();
        assert_eq!(eng, twin);
    }

    #[test]
    fn range_scratch_reports_reuse_on_the_calls_a_tile_buffer_would() {
        // One, two, three and one 32-row tiles of the same k × n: the
        // panels fit from the second call on, and a buffer grown like a
        // `Vec` of TILE × TILE values per tile fits only on the last.
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 4).unwrap();
        let b = Prng::new(5).fill_normal(8, 32, 0.0, 1.0);
        let mut hits = Vec::new();
        for m in [32, 64, 96, 32] {
            let a = Prng::new(6).fill_normal(m, 8, 0.0, 1.0);
            let trace = phox_trace::Trace::new();
            phox_trace::with_installed(trace.clone(), || eng.matmul(&a, &b).unwrap());
            hits.extend(
                trace
                    .counters()
                    .into_iter()
                    .filter(|(t, n, _)| t == "analog" && n == "scratch_reuse_hits")
                    .map(|(_, _, v)| v),
            );
        }
        let want: Vec<_> = [0, 1, 1, 2]
            .into_iter()
            .map(phox_trace::CounterValue::Int)
            .collect();
        assert_eq!(hits, want);
    }

    /// The read-back the one-pass engine replaced, recomputed from the
    /// engine's state before its next product: every pre-ADC value (the
    /// exact sums of the stuck-patched codes, perturbed tile by tile in
    /// row-major order, drift gain, dead lanes), then `v.round().clamp(-w,
    /// w) * scale` with `w` rounded from the product's global `abs_max`.
    fn two_pass_read_back(eng: &AnalogEngine, a: &Matrix, b: &Matrix) -> Matrix {
        let (qa, qb) = (
            Quantizer::calibrate(a).quantize(a),
            Quantizer::calibrate(b).quantize(b),
        );
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut codes = qb.as_i8_slice().to_vec();
        let (gain, lanes, dead) = match &eng.faults {
            Some(fs) => {
                for s in &fs.impact.stuck {
                    let level = (s.transmission * 127.0).round() as i8;
                    for j in (s.row..n).step_by(fs.array_rows) {
                        for kk in (s.channel..k).step_by(fs.array_channels) {
                            let w = codes[kk * n + j];
                            codes[kk * n + j] = if w >= 0 { level } else { -level };
                        }
                    }
                }
                let f = &fs.impact;
                (f.weight_gain, fs.array_rows, f.dead_lanes.clone())
            }
            None => (1.0, 1, Vec::new()),
        };
        let sums = gemm_i8::matmul_i32_naive(qa.as_i8_slice(), &codes, m, k, n).unwrap();
        let op_key = split_seed(eng.seed, eng.ops);
        let tile_cols = n.div_ceil(TILE);
        let mut v = vec![0.0; m * n];
        for t in 0..m.div_ceil(TILE) * tile_cols {
            let (i0, j0) = ((t / tile_cols) * TILE, (t % tile_cols) * TILE);
            let mut rng = Prng::stream(op_key, t as u64);
            for i in i0..(i0 + TILE).min(m) {
                for j in j0..(j0 + TILE).min(n) {
                    let noisy = perturb(f64::from(sums[i * n + j]), eng.relative_sigma, &mut rng);
                    v[i * n + j] = if dead.contains(&(j % lanes)) {
                        0.0
                    } else {
                        noisy * gain
                    };
                }
            }
        }
        let abs_max = v.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        let range = if abs_max > 0.0 {
            abs_max
        } else {
            127.0 * 127.0 * k as f64
        };
        let (w, scale) = (range.round(), qa.scale() * qb.scale());
        let read: Vec<f64> = v.iter().map(|x| x.round().clamp(-w, w) * scale).collect();
        Matrix::from_vec(m, n, read).unwrap()
    }

    /// Stuck cells, dead lanes, drift gain and droop on an 8 × 4 bank
    /// geometry: every fault the read-out applies.
    fn every_fault() -> FaultImpact {
        FaultImpact {
            sigma_scale: 1.5,
            weight_gain: 0.97,
            compensation_power_w: 0.0,
            dead_lanes: vec![1, 5],
            stuck: vec![
                crate::fault::StuckWeight {
                    row: 0,
                    channel: 2,
                    transmission: 0.4,
                },
                crate::fault::StuckWeight {
                    row: 3,
                    channel: 0,
                    transmission: 0.9,
                },
            ],
        }
    }

    /// Ragged shapes: partial edge tiles on both axes, a single output
    /// column and a single row.
    const RAGGED: [(usize, usize, usize); 4] = [(41, 70, 37), (33, 8, 1), (1, 5, 40), (70, 3, 65)];

    fn bits(y: &Matrix) -> Vec<u64> {
        y.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_pass_read_back_equals_the_two_pass_formula() {
        let impact = every_fault();
        let mut rng = Prng::new(12);
        for (m, k, n) in RAGGED {
            let a = rng.fill_normal(m, k, 0.0, 1.0);
            let b = rng.fill_normal(k, n, 0.0, 1.0);
            for (sigma, faulted) in [(5e-3, false), (5e-2, false), (5e-3, true)] {
                let mut eng = AnalogEngine::new(sigma, 8, 8, 13).unwrap();
                if faulted {
                    eng.set_fault_impact(&impact, 8, 4).unwrap();
                }
                // Two products: the second runs on the next op key.
                for call in 0..2 {
                    let want = two_pass_read_back(&eng, &a, &b);
                    let got = eng.matmul(&a, &b).unwrap();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{m}x{k}x{n} sigma {sigma} faulted {faulted} call {call}"
                    );
                }
            }
        }
    }

    #[test]
    fn resident_products_equal_per_call_products_bitwise() {
        let mut rng = Prng::new(14);
        for (m, k, n) in RAGGED.into_iter().chain([(0, 8, 40), (5, 0, 7)]) {
            let a = rng.fill_normal(m, k, 0.0, 1.0);
            let b = rng.fill_normal(k, n, 0.0, 1.0);
            let qb = Quantizer::calibrate(&b).quantize(&b);
            let pack = gemm_i8::Panels::pack(qb.as_i8_slice(), k, n);
            let engines = [
                ("ideal", AnalogEngine::ideal(8, 8, 15)),
                ("sigma 5e-3", AnalogEngine::new(5e-3, 8, 8, 15).unwrap()),
                ("sigma 5e-2", AnalogEngine::new(5e-2, 8, 8, 15).unwrap()),
                ("faulted", {
                    let mut eng = AnalogEngine::new(5e-3, 8, 8, 15).unwrap();
                    eng.set_fault_impact(&every_fault(), 8, 4).unwrap();
                    eng
                }),
            ];
            for (name, engine) in engines {
                for threads in [1, 2, 8] {
                    let (mut per_call, mut resident) = (engine.clone(), engine.clone());
                    parallel::with_threads(threads, || {
                        // Two products: the second runs on the next op key
                        // and over the scratch the first one left.
                        for call in 0..2 {
                            let want = per_call.matmul(&a, &b).unwrap();
                            let got = resident.matmul_packed(&a, &pack, qb.scale()).unwrap();
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{m}x{k}x{n} {name} threads {threads} call {call}"
                            );
                        }
                    });
                    assert_eq!(resident, per_call, "{m}x{k}x{n} {name} threads {threads}");
                }
            }
            // Stuck cells patched the engine's copy, never the pack.
            assert_eq!(pack, gemm_i8::Panels::pack(qb.as_i8_slice(), k, n));
        }
    }

    #[test]
    fn resident_weights_count_as_reused_scratch() {
        // Unfaulted, a resident product allocates nothing for its weight;
        // under stuck cells its copy fills the scratch pack like a
        // per-call weight. The range buffer counts as it does per call.
        let a = Prng::new(17).fill_normal(40, 8, 0.0, 1.0);
        let b = Prng::new(18).fill_normal(8, 40, 0.0, 1.0);
        let qb = Quantizer::calibrate(&b).quantize(&b);
        let pack = gemm_i8::Panels::pack(qb.as_i8_slice(), 8, 40);
        for (faulted, want) in [(false, [1, 2]), (true, [0, 2])] {
            let mut eng = AnalogEngine::new(2e-3, 8, 8, 19).unwrap();
            if faulted {
                eng.set_fault_impact(&every_fault(), 8, 4).unwrap();
            }
            let hits: Vec<_> = (0..2)
                .map(|_| {
                    let trace = phox_trace::Trace::new();
                    phox_trace::with_installed(trace.clone(), || {
                        eng.matmul_packed(&a, &pack, qb.scale()).unwrap()
                    });
                    trace
                        .counters()
                        .into_iter()
                        .find(|(t, n, _)| t == "analog" && n == "scratch_reuse_hits")
                        .map(|(_, _, v)| v)
                })
                .collect();
            let want: Vec<_> = want
                .into_iter()
                .map(|v| Some(phox_trace::CounterValue::Int(v)))
                .collect();
            assert_eq!(hits, want, "faulted {faulted}");
        }
    }

    #[test]
    fn empty_products_record_no_tiles() {
        for (m, k, n) in [(40, 8, 0), (0, 8, 40), (40, 0, 0), (0, 0, 0)] {
            let mut eng = AnalogEngine::new(2e-3, 8, 8, 3).unwrap();
            let trace = phox_trace::Trace::new();
            let y = phox_trace::with_installed(trace.clone(), || {
                eng.matmul(&Matrix::zeros(m, k), &Matrix::zeros(k, n))
                    .unwrap()
            });
            assert_eq!(y.shape(), (m, n));
            let tiles = trace
                .counters()
                .into_iter()
                .find(|(t, name, _)| t == "analog" && name == "tiles")
                .map(|(_, _, v)| v);
            assert!(
                matches!(tiles, Some(phox_trace::CounterValue::Int(0))),
                "{m}x{k}x{n}: {tiles:?}"
            );
            assert!(
                trace.events().iter().all(|e| e.name != "tile"),
                "{m}x{k}x{n} recorded a tile span"
            );
        }
    }

    #[test]
    fn matmul_validates_shapes() {
        let mut eng = AnalogEngine::new(5e-3, 8, 8, 1).unwrap();
        let before = eng.clone();
        let a = Matrix::zeros(2, 3);
        let pack = gemm_i8::Panels::pack(&[1; 8], 4, 2);
        for err in [
            eng.matmul(&a, &Matrix::zeros(4, 2)),
            eng.matmul_packed(&a, &pack, 0.5),
        ] {
            assert!(
                matches!(err, Err(PhotonicError::InvalidConfig { .. })),
                "{err:?}"
            );
        }
        assert_eq!(eng, before, "a rejected product takes no stream key");
    }

    #[test]
    fn soa_activation_close_to_ideal() {
        let mut eng = AnalogEngine::ideal(8, 8, 7);
        let x = Matrix::from_rows(&[&[-1.0, 0.5, 2.0]]).unwrap();
        let y = eng.soa_activate(OpticalActivation::Relu, x);
        // SOA residual is ~0.5 %: outputs near the ideal ReLU.
        assert!(y.get(0, 0).abs() < 0.05);
        assert!((y.get(0, 1) - 0.5).abs() < 0.05);
        assert!((y.get(0, 2) - 2.0).abs() < 0.1);
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        let mut rng = Prng::new(11);
        let a = rng.fill_normal(40, 33, 0.0, 1.0);
        let b = rng.fill_normal(33, 37, 0.0, 1.0);
        let reference = {
            let mut eng = AnalogEngine::new(5e-3, 8, 8, 99).unwrap();
            parallel::with_threads(1, || eng.matmul(&a, &b).unwrap())
        };
        for threads in [2, 8] {
            let mut eng = AnalogEngine::new(5e-3, 8, 8, 99).unwrap();
            let y = parallel::with_threads(threads, || eng.matmul(&a, &b).unwrap());
            assert_eq!(y, reference, "threads={threads}");
        }
    }

    #[test]
    fn repeated_matmuls_draw_fresh_noise() {
        let mut eng = AnalogEngine::new(5e-3, 8, 8, 7).unwrap();
        let mut rng = Prng::new(8);
        let a = rng.fill_normal(8, 8, 0.0, 1.0);
        let b = rng.fill_normal(8, 8, 0.0, 1.0);
        let first = eng.matmul(&a, &b).unwrap();
        let second = eng.matmul(&a, &b).unwrap();
        assert_ne!(first, second, "op counter must advance the noise family");
        // A fresh engine with the same seed replays the same sequence.
        let mut replay = AnalogEngine::new(5e-3, 8, 8, 7).unwrap();
        assert_eq!(replay.matmul(&a, &b).unwrap(), first);
        assert_eq!(replay.matmul(&a, &b).unwrap(), second);
    }

    #[test]
    fn children_are_deterministic_and_distinct() {
        let mut parent = AnalogEngine::new(5e-3, 8, 8, 21).unwrap();
        let key = parent.stream_key();
        let mut rng = Prng::new(22);
        let a = rng.fill_normal(6, 6, 0.0, 1.0);
        let b = rng.fill_normal(6, 6, 0.0, 1.0);
        let y0 = parent.make_child(key, 0).matmul(&a, &b).unwrap();
        let y0_again = parent.make_child(key, 0).matmul(&a, &b).unwrap();
        let y1 = parent.make_child(key, 1).matmul(&a, &b).unwrap();
        assert_eq!(y0, y0_again);
        assert_ne!(y0, y1, "sibling units draw independent noise");
    }

    #[test]
    fn fault_state_replacement_never_compounds() {
        let mut eng = AnalogEngine::new(2e-3, 8, 8, 1).unwrap();
        let impact = FaultImpact {
            sigma_scale: 2.0,
            weight_gain: 1.0,
            compensation_power_w: 0.0,
            dead_lanes: Vec::new(),
            stuck: Vec::new(),
        };
        eng.set_fault_impact(&impact, 64, 16).unwrap();
        assert!((eng.relative_sigma() - 4e-3).abs() < 1e-15);
        // Re-applying the same impact reflects it once, not twice.
        eng.set_fault_impact(&impact, 64, 16).unwrap();
        assert!((eng.relative_sigma() - 4e-3).abs() < 1e-15);
        eng.clear_faults();
        assert_eq!(eng, AnalogEngine::new(2e-3, 8, 8, 1).unwrap());
    }

    #[test]
    fn constructor_validation() {
        assert!(AnalogEngine::new(-1.0, 8, 8, 1).is_err());
        assert!(AnalogEngine::new(0.0, 0, 8, 1).is_err());
        assert!(AnalogEngine::new(0.0, 8, 32, 1).is_err());
    }
}
