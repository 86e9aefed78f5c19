//! Functional (value-level) simulation of the GHOST analog datapath.
//!
//! Executes an actual GNN inference through the modelled photonic
//! pipeline: coherent-summation aggregation (sum/mean) and
//! optical-comparator `max` (Fig. 7(a)), transform-unit matmuls through
//! the shared [`AnalogEngine`], per-edge LUT-softmax attention for GAT,
//! and SOA update activations: the analog datapath that the model's own
//! layer walk in `phox-nn` runs on. Validated against the digital int8
//! reference.
//!
//! Sum and mean aggregation run on the digital reference's own kernel:
//! the reduce unit's coherent sum of DAC codes is the exact `i32`
//! structural sum of [`phox_tensor::sparse_i8`] (AVX2 where the int8
//! kernels are dispatched), on the degree-bucketed schedule this module
//! also reports in its trace counters. One pass over the nodes then adds
//! each node's receiver noise, dequantizes and divides a mean. The
//! kernel's wrapping `i32` equals the true sum while a row has at most
//! ⌊(2³¹ − 1) / 127⌋ = 16,909,320 members; a larger row is a returned
//! error. Transform-unit products read out in one pass too (see
//! [`AnalogEngine::matmul_packed`]): the ADC's range spans each product,
//! and every read value lies inside the window rounded from it.

use phox_nn::gnn::{Aggregation, CsrGraph, GnnDatapath, GnnModel};
use phox_nn::int8::Weight;
use phox_photonics::analog::{AnalogDevices, AnalogEngine, AnalogRuntime};
use phox_photonics::devices::OpticalActivation;
use phox_photonics::fault::{FaultPlan, FaultSchedule};
use phox_photonics::noise::perturb;
use phox_photonics::summation::OpticalComparator;
use phox_photonics::{Ctx, PhotonicError};
use phox_tensor::sparse::{DegreeBuckets, ROW_TILE};
use phox_tensor::sparse_i8::{self, I8Reduce};
use phox_tensor::{ops, parallel, Matrix, Prng, Quantizer};

use crate::config::GhostConfig;

/// The most members a sum/mean row may have while its `i32` sum of DAC
/// codes stays exact: ⌊(2³¹ − 1) / 127⌋, since every code lies within
/// ±127. The shared int8 kernel adds in wrapping `i32`; past this count
/// a row could wrap where the true sum does not.
const MAX_EXACT_MEMBERS: usize = (i32::MAX / 127) as usize;

/// Whether a row of `members` DAC codes sums exactly in `i32`.
fn sum_is_exact(members: usize) -> bool {
    members <= MAX_EXACT_MEMBERS
}

/// Writes each tile's buffer (its rows, `f` values each, in schedule
/// order) back to those rows of an `n × f` matrix.
fn scatter_tiles(sched: &DegreeBuckets, tiles: &[Vec<f64>], n: usize, f: usize) -> Matrix {
    let mut out = Matrix::zeros(n, f);
    for (t, buf) in tiles.iter().enumerate() {
        for (i, &v) in sched.tile_rows(t).iter().enumerate() {
            out.row_mut(v as usize)
                .copy_from_slice(&buf[i * f..(i + 1) * f]);
        }
    }
    out
}

/// Functional GHOST simulator: executes a [`GnnModel`] on the analog
/// datapath of its [`AnalogRuntime`], built from the configuration's
/// converters, bank arrays and device models.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostFunctional(AnalogRuntime);

fn devices(config: &GhostConfig) -> AnalogDevices {
    AnalogDevices {
        adc_bits: config.adc.bits,
        dac_bits: config.dac.bits,
        array_rows: config.array_rows,
        array_channels: config.array_channels,
        mr: config.mr,
        tuning: config.tuning,
        noise: config.noise,
    }
}

impl GhostFunctional {
    /// See [`AnalogRuntime::new`].
    pub fn new(config: &GhostConfig, seed: u64) -> Result<Self, PhotonicError> {
        AnalogRuntime::new(devices(config), seed).map(GhostFunctional)
    }

    /// See [`AnalogRuntime::ideal`].
    pub fn ideal(config: &GhostConfig, seed: u64) -> Self {
        GhostFunctional(AnalogRuntime::ideal(devices(config), seed))
    }

    /// See [`AnalogRuntime::with_noise`].
    pub fn with_noise(config: &GhostConfig, sigma: f64, seed: u64) -> Result<Self, PhotonicError> {
        AnalogRuntime::with_noise(devices(config), sigma, seed).map(GhostFunctional)
    }

    /// See [`AnalogRuntime::with_faults`].
    pub fn with_faults(
        config: &GhostConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        AnalogRuntime::with_faults(devices(config), plan, seed)
            .ctx("injecting device faults into GHOST")
            .map(GhostFunctional)
    }

    /// See [`AnalogRuntime::with_fault_schedule`].
    pub fn with_fault_schedule(
        config: &GhostConfig,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        AnalogRuntime::with_fault_schedule(devices(config), schedule, seed)
            .ctx("attaching fault schedule to GHOST")
            .map(GhostFunctional)
    }

    /// See [`AnalogRuntime::advance_to`].
    pub fn advance_to(&mut self, t_s: f64) -> Result<(), PhotonicError> {
        self.0.advance_to(t_s).ctx("advancing GHOST fault schedule")
    }

    /// The underlying analog engine.
    pub fn engine(&self) -> &AnalogEngine {
        self.0.engine()
    }

    /// Runs the model's own layer walk ([`GnnModel::forward_with`]) on
    /// the analog datapath over `graph` with node `features`
    /// (`nodes × dims[0]`).
    ///
    /// # Errors
    ///
    /// Returns a shape error when `features` does not match the graph
    /// and model.
    pub fn forward(
        &mut self,
        model: &GnnModel,
        graph: &CsrGraph,
        features: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        model.forward_with(graph, features, self)
    }

    /// Optical aggregation through the reduce units: sum/mean use
    /// coherent summation, max uses the optical comparator tournament.
    ///
    /// Int8 datapath: sum/mean members enter through the DAC, so the
    /// reduce unit accumulates exact integer level counts — the digital
    /// int8 reference's structural sum
    /// ([`phox_tensor::sparse_i8::aggregate_i8_scheduled`], on the
    /// degree-bucketed schedule this call also reports in its trace
    /// counters) — and receiver noise perturbs the accumulated count
    /// *before* dequantization. A noiseless sum aggregation therefore
    /// reproduces the digital int8 reference bit for bit. Max stays on
    /// the optical amplitudes directly (the comparator is
    /// value-preserving, not a quantizing stage).
    ///
    /// After the sum, one pass over the nodes in node order draws each
    /// node's receiver noise from a deterministic stream keyed by
    /// `(operation key, node index)` — the same scheme as
    /// [`AnalogEngine::matmul`]'s per-tile streams — dequantizes, divides
    /// a mean, and writes the node's output row; an isolated node
    /// without `include_self` aggregates to zero and draws nothing. The
    /// aggregate is bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on operand shape
    /// mismatch, and a context-chained one when a sum/mean row has more
    /// members than its `i32` level sum holds exactly (16,909,320).
    pub fn optical_aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, PhotonicError> {
        if h.rows() != graph.num_nodes() {
            return Err(PhotonicError::InvalidConfig {
                what: "aggregation features must have one row per graph vertex",
            });
        }
        let coherent = !matches!(agg, Aggregation::Max);
        if coherent && !sum_is_exact(graph.max_degree() + usize::from(include_self)) {
            return Err(PhotonicError::InvalidConfig {
                what: "a vertex has more members than the exact i32 level sum holds",
            }
            .ctx("coherent-summation aggregation"));
        }
        let key = self.0.engine_mut().stream_key();
        let sched = DegreeBuckets::new(graph.offsets());
        let out = if coherent {
            self.coherent_sum(graph, h, &sched, agg, include_self, key)?
        } else {
            Self::comparator_max(graph, h, &sched, include_self)
        };
        self.trace_aggregate("optical_aggregate", &sched, h.cols(), coherent);
        Ok(out)
    }

    /// Sum/mean aggregation: the exact `i32` structural sum of the
    /// members' DAC codes, then one node-order pass that perturbs each
    /// count with the node's `(key, node)` stream and dequantizes it.
    fn coherent_sum(
        &self,
        graph: &CsrGraph,
        h: &Matrix,
        sched: &DegreeBuckets,
        agg: Aggregation,
        include_self: bool,
        key: u64,
    ) -> Result<Matrix, PhotonicError> {
        let (n, f) = (graph.num_nodes(), h.cols());
        let sigma = self.engine().relative_sigma();
        // DAC stage: member rows enter as symmetric int8 levels, one
        // calibration per aggregate call.
        let qh = Quantizer::calibrate(h).quantize(h);
        let h_scale = qh.scale();
        let mut sums = vec![0i32; n * f];
        sparse_i8::aggregate_i8_scheduled(
            &graph.csr_i8_view(),
            qh.as_i8_slice(),
            f,
            sched,
            I8Reduce::Sum,
            include_self,
            &mut sums,
        )
        .ctx("coherent-summation aggregation")?;
        let mut out = Matrix::zeros(n, f);
        let chunk = ROW_TILE * f.max(1);
        parallel::par_chunks_mut(out.as_mut_slice(), chunk, |t, rows| {
            for (i, row) in rows.chunks_exact_mut(f).enumerate() {
                let v = t * ROW_TILE + i;
                let members = graph.degree(v) + usize::from(include_self);
                if members == 0 {
                    continue; // isolated node aggregates to zero
                }
                let denom = if agg == Aggregation::Mean {
                    members as f64
                } else {
                    1.0
                };
                let mut rng = Prng::stream(key, v as u64);
                for (o, &s) in row.iter_mut().zip(&sums[v * f..(v + 1) * f]) {
                    *o = perturb(f64::from(s), sigma, &mut rng) * h_scale / denom;
                }
            }
        });
        Ok(out)
    }

    /// Max aggregation: the comparator tournament, folded member-major
    /// with the first member seeding every column, on the degree-bucketed
    /// tile schedule.
    fn comparator_max(
        graph: &CsrGraph,
        h: &Matrix,
        sched: &DegreeBuckets,
        include_self: bool,
    ) -> Matrix {
        let f = h.cols();
        let comparator = OpticalComparator::default();
        let tiles: Vec<Vec<f64>> = parallel::par_map_indexed(sched.num_tiles(), |t| {
            let rows = sched.tile_rows(t);
            // One scratch buffer per tile, reused across its rows.
            let mut buf = vec![0.0; rows.len() * f];
            for (i, &v) in rows.iter().enumerate() {
                let v = v as usize;
                let slot = &mut buf[i * f..(i + 1) * f];
                let mut seeded = false;
                if include_self {
                    slot.copy_from_slice(h.row(v));
                    seeded = true;
                }
                for &u in graph.neighbors(v) {
                    let row = h.row(u as usize);
                    if !seeded {
                        slot.copy_from_slice(row);
                        seeded = true;
                    } else {
                        for (s, &x) in slot.iter_mut().zip(row) {
                            *s = comparator.max2(*s, x);
                        }
                    }
                }
            }
            buf
        });
        scatter_tiles(sched, &tiles, graph.num_nodes(), f)
    }

    /// Records sparse-aggregation counters and a summary event. Called
    /// from the serial assembly path only, so traces stay byte-identical
    /// across thread counts. `int8` marks calls whose accumulation ran
    /// on integer DAC codes (sum/mean/attention — everything but the
    /// comparator max).
    fn trace_aggregate(&self, op: &'static str, sched: &DegreeBuckets, f: usize, int8: bool) {
        if !phox_trace::enabled() {
            return;
        }
        let tr = phox_trace::active();
        tr.count("ghost", "sparse_agg_calls", 1);
        if int8 {
            tr.count("int8", "analog_agg_calls", 1);
            tr.count("int8", "analog_agg_accs", (sched.nnz() * f) as i64);
        }
        tr.count("ghost", "sparse_agg_rows", sched.rows() as i64);
        tr.count("ghost", "sparse_agg_nnz", sched.nnz() as i64);
        // Rows beyond the first of each tile reuse the tile's scratch
        // buffer — the allocations the dense-stack path paid per node.
        tr.count(
            "ghost",
            "sparse_agg_scratch_reuse",
            (sched.rows() - sched.num_tiles().min(sched.rows())) as i64,
        );
        tr.instant(
            "ghost",
            op,
            vec![
                ("rows", phox_trace::Value::UInt(sched.rows() as u64)),
                ("nnz", phox_trace::Value::UInt(sched.nnz() as u64)),
                ("features", phox_trace::Value::UInt(f as u64)),
                ("tiles", phox_trace::Value::UInt(sched.num_tiles() as u64)),
                (
                    "degree_buckets",
                    phox_trace::Value::UInt(sched.histogram().len() as u64),
                ),
            ],
        );
    }
}

/// The analog datapath (Figs. 2 and 7): combine products on the engine
/// over each weight's resident int8 pack ([`Weight::quantized`],
/// [`AnalogEngine::matmul_packed`]), aggregation through the reduce units
/// ([`GhostFunctional::optical_aggregate`]), GAT attention as an int8
/// LUT-weighted coherent accumulation, and SOA ReLU in the update units.
impl GnnDatapath for &mut GhostFunctional {
    type Error = PhotonicError;

    fn mm(&mut self, h: &Matrix, w: &Weight) -> Result<Matrix, PhotonicError> {
        let q = w.quantized();
        self.0.engine_mut().matmul_packed(h, q.panels(), q.scale())
    }

    fn aggregate(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        agg: Aggregation,
        include_self: bool,
    ) -> Result<Matrix, PhotonicError> {
        self.optical_aggregate(graph, h, agg, include_self)
    }

    fn attend(
        &mut self,
        graph: &CsrGraph,
        z: &Matrix,
        src: &[f64],
        dst: &[f64],
    ) -> Result<Matrix, PhotonicError> {
        let (n, fout) = (graph.num_nodes(), z.cols());
        // Per-node attention and weighted accumulation run on the sparse
        // tile schedule: attention weights stream straight into the tile's
        // scratch buffer (no per-node stack matrix), and each node's
        // receiver noise comes from the `(operation key, node)` stream —
        // the same determinism scheme as
        // [`GhostFunctional::optical_aggregate`].
        //
        // Int8 datapath: the transformed features re-enter through the
        // DAC as int8 levels, and the LUT softmax already emits
        // attention weights on the DAC grid — multiples of
        // `1 / dac_levels()` — so the weighted accumulation is an exact
        // integer MAC (`alpha code × feature code`) with receiver noise
        // perturbing the accumulated count before dequantization.
        let key = self.0.engine_mut().stream_key();
        let engine = self.engine();
        let sigma = engine.relative_sigma();
        let qz = Quantizer::calibrate(z).quantize(z);
        let zcodes = qz.as_i8_slice();
        let alpha_levels = engine.dac_levels();
        let acc_scale = qz.scale() / alpha_levels;
        let sched = DegreeBuckets::new(graph.offsets());
        let tiles: Vec<Vec<f64>> = parallel::par_map_indexed(sched.num_tiles(), |t| {
            let rows = sched.tile_rows(t);
            let mut buf = vec![0.0; rows.len() * fout];
            let mut acc = vec![0i64; fout];
            let mut alphas: Vec<f64> = Vec::new();
            for (i, &v) in rows.iter().enumerate() {
                let v = v as usize;
                let slot = &mut buf[i * fout..(i + 1) * fout];
                let neigh = graph.neighbors(v);
                if neigh.is_empty() {
                    // Attention over an empty neighbourhood passes the
                    // node's own transform through.
                    slot.copy_from_slice(z.row(v));
                    continue;
                }
                alphas.clear();
                alphas.extend(
                    neigh
                        .iter()
                        .map(|&u| ops::leaky_relu_scalar(src[u as usize] + dst[v], 0.2)),
                );
                engine.lut_softmax_in_place(&mut alphas);
                for a in acc.iter_mut() {
                    *a = 0;
                }
                for (&u, &a) in neigh.iter().zip(alphas.iter()) {
                    let u = u as usize;
                    // Recover the exact integer LUT code of the
                    // attention weight (the softmax output is a
                    // multiple of 1/alpha_levels by construction).
                    #[allow(clippy::cast_possible_truncation)]
                    let code = (a * alpha_levels).round() as i64;
                    for (s, &q) in acc.iter_mut().zip(&zcodes[u * fout..(u + 1) * fout]) {
                        *s += code * i64::from(q);
                    }
                }
                let mut rng = Prng::stream(key, v as u64);
                for (s, &a) in slot.iter_mut().zip(acc.iter()) {
                    #[allow(clippy::cast_precision_loss)]
                    let count = a as f64;
                    *s = perturb(count, sigma, &mut rng) * acc_scale;
                }
            }
            buf
        });
        self.trace_aggregate("gat_attention_aggregate", &sched, fout, true);
        Ok(scatter_tiles(&sched, &tiles, n, fout))
    }

    fn relu(&mut self, h: Matrix) -> Matrix {
        self.0.engine_mut().soa_activate(OpticalActivation::Relu, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_nn::datasets::sbm;
    use phox_nn::gnn::{GnnConfig, GnnKind};
    use phox_tensor::{stats, Prng};

    fn small_task() -> phox_nn::datasets::LabelledGraph {
        sbm(3, 8, 12, 0.5, 0.05, 71).unwrap()
    }

    #[test]
    fn functional_tracks_reference_for_all_kinds() {
        let task = small_task();
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 72).unwrap();
            let reference = model.forward(&task.graph, &task.features).unwrap();
            let mut sim = GhostFunctional::new(&GhostConfig::default(), 73).unwrap();
            let photonic = sim.forward(&model, &task.graph, &task.features).unwrap();
            let err = stats::relative_error(&reference, &photonic);
            assert!(err < 0.4, "{kind}: photonic error {err}");
        }
    }

    #[test]
    fn predictions_mostly_agree_with_reference() {
        let task = small_task();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 74).unwrap();
        let reference = model.forward(&task.graph, &task.features).unwrap();
        let mut sim = GhostFunctional::new(&GhostConfig::default(), 75).unwrap();
        let photonic = sim.forward(&model, &task.graph, &task.features).unwrap();
        let agree = stats::accuracy(&ops::argmax_rows(&photonic), &ops::argmax_rows(&reference));
        assert!(agree >= 0.8, "agreement {agree}");
    }

    #[test]
    fn max_aggregation_through_comparator() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let mut x = Matrix::zeros(3, 2);
        x.set(0, 0, 5.0);
        x.set(1, 0, 3.0);
        let cfg = GnnConfig {
            kind: GnnKind::GraphSage,
            dims: vec![2, 2],
            aggregation: Aggregation::Max,
        };
        let model = GnnModel::random(cfg, 76).unwrap();
        let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 77);
        let agg = sim
            .optical_aggregate(&g, &x, Aggregation::Max, false)
            .unwrap();
        assert_eq!(agg.get(2, 0), 5.0);
        let _ = model;
    }

    #[test]
    fn ideal_sum_aggregation_is_bitwise_the_digital_int8_reference() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 1), (3, 1), (1, 4), (4, 0)]).unwrap();
        let h = Prng::new(90).fill_normal(5, 7, 0.0, 1.0);
        let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 91);
        let agg = sim
            .optical_aggregate(&g, &h, Aggregation::Sum, false)
            .unwrap();
        // Digital int8 reference: exact integer level sums, dequantized.
        let qh = Quantizer::calibrate(&h).quantize(&h);
        let codes = qh.as_i8_slice();
        let f = h.cols();
        for v in 0..5 {
            for c in 0..f {
                let count: i64 = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| i64::from(codes[u as usize * f + c]))
                    .sum();
                #[allow(clippy::cast_precision_loss)]
                let expected = count as f64 * qh.scale();
                assert_eq!(
                    agg.get(v, c).to_bits(),
                    expected.to_bits(),
                    "node {v} col {c}"
                );
            }
        }
    }

    #[test]
    fn exact_sum_bound_is_the_last_member_count_that_cannot_wrap() {
        assert!(sum_is_exact(16_909_320));
        assert!(!sum_is_exact(16_909_321));
        // The bound is tight: that many codes at ±127 fit in i32, one
        // more does not.
        assert!(i32::try_from(-127 * 16_909_320i64).is_ok());
        assert!(i32::try_from(127 * 16_909_321i64).is_err());
    }

    #[test]
    fn int8_counters_fire_during_forward() {
        let task = small_task();
        let trace = phox_trace::Trace::new();
        phox_trace::with_installed(trace.clone(), || {
            for kind in [GnnKind::Gcn, GnnKind::Gat] {
                let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 92).unwrap();
                let mut sim = GhostFunctional::new(&GhostConfig::default(), 93).unwrap();
                sim.forward(&model, &task.graph, &task.features).unwrap();
            }
        });
        let counters = trace.counters();
        for name in ["analog_gemm_calls", "analog_macs", "analog_agg_calls"] {
            assert!(
                counters
                    .iter()
                    .any(|(track, n, _)| track == "int8" && n == name),
                "missing int8/{name} counter: {counters:?}"
            );
        }
        assert!(
            counters
                .iter()
                .any(|(track, n, _)| track == "analog" && n == "scratch_reuse_hits"),
            "missing analog/scratch_reuse_hits counter"
        );
    }

    #[test]
    fn shape_validation() {
        let task = small_task();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 78).unwrap();
        let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 79);
        let bad = Matrix::zeros(task.graph.num_nodes(), 11);
        assert!(sim.forward(&model, &task.graph, &bad).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let task = small_task();
        let model = GnnModel::random(GnnConfig::two_layer(GnnKind::Gin, 12, 16, 3), 80).unwrap();
        let mut a = GhostFunctional::new(&GhostConfig::default(), 81).unwrap();
        let mut b = GhostFunctional::new(&GhostConfig::default(), 81).unwrap();
        assert_eq!(
            a.forward(&model, &task.graph, &task.features).unwrap(),
            b.forward(&model, &task.graph, &task.features).unwrap()
        );
    }

    #[test]
    fn forward_is_thread_count_invariant() {
        let task = small_task();
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 12, 16, 3), 85).unwrap();
            let reference = parallel::with_threads(1, || {
                let mut sim = GhostFunctional::new(&GhostConfig::default(), 86).unwrap();
                sim.forward(&model, &task.graph, &task.features).unwrap()
            });
            for threads in [2, 4, 8] {
                let y = parallel::with_threads(threads, || {
                    let mut sim = GhostFunctional::new(&GhostConfig::default(), 86).unwrap();
                    sim.forward(&model, &task.graph, &task.features).unwrap()
                });
                assert_eq!(y, reference, "{kind}: threads={threads}");
            }
        }
    }

    #[test]
    fn isolated_nodes_survive() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let x = Prng::new(82).fill_normal(3, 4, 0.0, 1.0);
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
            let model = GnnModel::random(GnnConfig::two_layer(kind, 4, 8, 2), 83).unwrap();
            let mut sim = GhostFunctional::ideal(&GhostConfig::default(), 84);
            let y = sim.forward(&model, &g, &x).unwrap();
            assert!(y.as_slice().iter().all(|v| v.is_finite()), "{kind}");
        }
    }
}
