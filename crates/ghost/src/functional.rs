//! Functional (value-level) simulation of the GHOST analog datapath.
//!
//! Executes an actual GNN inference through the modelled photonic
//! pipeline: coherent-summation aggregation (sum/mean) and
//! optical-comparator `max` (Fig. 7(a)), transform-unit matmuls through
//! the shared [`AnalogEngine`], per-edge LUT-softmax attention for GAT,
//! and SOA update activations. Validated against the digital int8
//! reference of `phox-nn`.
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
//! [`AnalogEngine::matmul`]): the ADC's range spans each product, and
//! every read value lies inside the window rounded from it.

use std::borrow::Cow;

use phox_nn::gnn::{Aggregation, CsrGraph, GnnKind, GnnModel};
use phox_photonics::analog::AnalogEngine;
use phox_photonics::devices::OpticalActivation;
use phox_photonics::fault::{FaultPlan, FaultSchedule};
use phox_photonics::mr::MrConfig;
use phox_photonics::noise::{perturb, NoiseBudget};
use phox_photonics::summation::OpticalComparator;
use phox_photonics::tuning::HybridTuning;
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

/// Mid-run fault-schedule state: the model-time fault timeline plus the
/// device models needed to re-resolve the active plan as time advances.
#[derive(Debug, Clone, PartialEq)]
struct FaultRuntime {
    schedule: FaultSchedule,
    mr: MrConfig,
    tuning: HybridTuning,
    noise: NoiseBudget,
    bits: u32,
    current: FaultPlan,
}

/// Functional GHOST simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostFunctional {
    engine: AnalogEngine,
    comparator: OpticalComparator,
    fault_runtime: Option<FaultRuntime>,
}

impl GhostFunctional {
    /// Builds the functional simulator with receiver noise from the
    /// configuration's 8-bit optical budget.
    ///
    /// # Errors
    ///
    /// Propagates noise-budget failures.
    pub fn new(config: &GhostConfig, seed: u64) -> Result<Self, PhotonicError> {
        Ok(GhostFunctional {
            engine: AnalogEngine::from_noise_budget(&config.noise, config.adc.bits, seed)?,
            comparator: OpticalComparator::default(),
            fault_runtime: None,
        })
    }

    /// Builds a noiseless simulator (quantization effects only).
    pub fn ideal(config: &GhostConfig, seed: u64) -> Self {
        GhostFunctional {
            engine: AnalogEngine::ideal(config.adc.bits, config.dac.bits, seed),
            comparator: OpticalComparator::default(),
            fault_runtime: None,
        }
    }

    /// Builds a simulator with an explicit receiver noise level for
    /// robustness sweeps.
    ///
    /// # Errors
    ///
    /// Propagates engine construction failures.
    pub fn with_noise(
        config: &GhostConfig,
        relative_sigma: f64,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        Ok(GhostFunctional {
            engine: AnalogEngine::new(relative_sigma, config.adc.bits, config.dac.bits, seed)?,
            comparator: OpticalComparator::default(),
            fault_runtime: None,
        })
    }

    /// Builds a simulator with injected device faults.
    ///
    /// The plan is validated against the configuration's transform-array
    /// geometry and resolved against its device models; the resulting
    /// degradation (stuck weights, drift gain error, dead ADC lanes,
    /// droop-inflated noise) applies to every analog operation, including
    /// the per-node child engines of the aggregation units.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the plan is out of geometry
    /// or the fault is uncompensatable.
    pub fn with_faults(
        config: &GhostConfig,
        plan: FaultPlan,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        if plan.array_rows != config.array_rows || plan.array_channels != config.array_channels {
            return Err(PhotonicError::InvalidConfig {
                what: "fault plan geometry must match the accelerator's bank arrays",
            }
            .ctx("injecting device faults into GHOST"));
        }
        let plan = plan.validated().ctx("injecting device faults into GHOST")?;
        let impact = plan
            .impact(&config.mr, &config.tuning, &config.noise, config.adc.bits)
            .ctx("injecting device faults into GHOST")?;
        let mut engine = AnalogEngine::from_noise_budget(&config.noise, config.adc.bits, seed)?;
        engine
            .inject_faults(&impact, config.array_rows, config.array_channels)
            .ctx("injecting device faults into GHOST")?;
        Ok(GhostFunctional {
            engine,
            comparator: OpticalComparator::default(),
            fault_runtime: None,
        })
    }

    /// Builds a simulator driven by a model-time [`FaultSchedule`]: call
    /// [`GhostFunctional::advance_to`] before each forward pass and the
    /// simulator re-resolves the faults active at that instant. An empty
    /// schedule is a strict no-op — the simulator behaves byte-identically
    /// to [`GhostFunctional::new`].
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when the schedule geometry does
    /// not match the accelerator, or a fault active at `t = 0` is
    /// uncompensatable.
    pub fn with_fault_schedule(
        config: &GhostConfig,
        schedule: FaultSchedule,
        seed: u64,
    ) -> Result<Self, PhotonicError> {
        if schedule.array_rows != config.array_rows
            || schedule.array_channels != config.array_channels
        {
            return Err(PhotonicError::InvalidConfig {
                what: "fault schedule geometry must match the accelerator's bank arrays",
            }
            .ctx("attaching fault schedule to GHOST"));
        }
        let mut sim = GhostFunctional::new(config, seed)?;
        sim.fault_runtime = Some(FaultRuntime {
            schedule,
            mr: config.mr,
            tuning: config.tuning,
            noise: config.noise,
            bits: config.adc.bits,
            current: FaultPlan::new(config.array_rows, config.array_channels),
        });
        sim.advance_to(0.0)?;
        Ok(sim)
    }

    /// Advances the fault schedule to model time `t_s`, re-resolving the
    /// active [`FaultPlan`] into the analog engine. Cheap when the plan
    /// has not changed since the last call; a no-op without a schedule.
    ///
    /// # Errors
    ///
    /// Returns a context-chained error when a newly active fault is
    /// uncompensatable (drift beyond the tuning range, droop below the
    /// noise floor, all receiver lanes dead) — the accelerator is down,
    /// not silently wrong.
    pub fn advance_to(&mut self, t_s: f64) -> Result<(), PhotonicError> {
        let Some(rt) = self.fault_runtime.as_mut() else {
            return Ok(());
        };
        let plan = rt
            .schedule
            .plan_at(t_s)
            .ctx("advancing GHOST fault schedule")?;
        if plan == rt.current {
            return Ok(());
        }
        if plan.is_empty() {
            self.engine.clear_faults();
        } else {
            let impact = plan
                .impact(&rt.mr, &rt.tuning, &rt.noise, rt.bits)
                .ctx("advancing GHOST fault schedule")?;
            self.engine
                .set_fault_impact(&impact, plan.array_rows, plan.array_channels)
                .ctx("advancing GHOST fault schedule")?;
        }
        rt.current = plan;
        Ok(())
    }

    /// The attached fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.fault_runtime.as_ref().map(|rt| &rt.schedule)
    }

    /// The underlying analog engine.
    pub fn engine(&self) -> &AnalogEngine {
        &self.engine
    }

    /// Runs the photonic inference of `model` over `graph` with node
    /// `features` (`nodes × dims[0]`).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] on shape mismatch.
    pub fn forward(
        &mut self,
        model: &GnnModel,
        graph: &CsrGraph,
        features: &Matrix,
    ) -> Result<Matrix, PhotonicError> {
        let cfg = model.config().clone();
        if features.rows() != graph.num_nodes() || features.cols() != cfg.dims[0] {
            return Err(PhotonicError::InvalidConfig {
                what: "feature shape must match graph and model",
            });
        }
        // The first layer reads `features` in place.
        let mut h = Cow::Borrowed(features);
        let last = cfg.layers() - 1;
        for (l, lw) in model.layers().iter().enumerate() {
            let next = match cfg.kind {
                GnnKind::Gcn => {
                    let agg = self.optical_aggregate(graph, &h, Aggregation::Mean, true)?;
                    self.engine.matmul(&agg, &lw.w)?
                }
                GnnKind::GraphSage => {
                    let agg = self.optical_aggregate(graph, &h, cfg.aggregation, false)?;
                    let cat = h.hconcat(&agg).ctx("concatenating GraphSAGE features")?;
                    self.engine.matmul(&cat, &lw.w)?
                }
                GnnKind::Gin => {
                    let agg = self.optical_aggregate(graph, &h, Aggregation::Sum, false)?;
                    let mixed = h
                        .scale(1.0 + model.epsilon())
                        .add(&agg)
                        .ctx("mixing GIN self and aggregate features")?;
                    self.engine.matmul(&mixed, &lw.w)?
                }
                GnnKind::Gat => self.gat_layer(graph, &h, lw)?,
            };
            h = Cow::Owned(if l != last {
                // SOA ReLU in the update units.
                self.engine.soa_activate(OpticalActivation::Relu, &next)
            } else {
                next
            });
        }
        Ok(h.into_owned())
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
        let key = self.engine.stream_key();
        let sched = DegreeBuckets::new(graph.offsets());
        let out = if coherent {
            self.coherent_sum(graph, h, &sched, agg, include_self, key)?
        } else {
            self.comparator_max(graph, h, &sched, include_self)
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
        let sigma = self.engine.relative_sigma();
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
        &self,
        graph: &CsrGraph,
        h: &Matrix,
        sched: &DegreeBuckets,
        include_self: bool,
    ) -> Matrix {
        let f = h.cols();
        let comparator = self.comparator;
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
        let mut out = Matrix::zeros(graph.num_nodes(), f);
        for (t, buf) in tiles.iter().enumerate() {
            for (i, &v) in sched.tile_rows(t).iter().enumerate() {
                out.row_mut(v as usize)
                    .copy_from_slice(&buf[i * f..(i + 1) * f]);
            }
        }
        out
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

    /// GAT layer: optical transform, digital LUT attention softmax,
    /// attention-weighted coherent accumulation.
    fn gat_layer(
        &mut self,
        graph: &CsrGraph,
        h: &Matrix,
        lw: &phox_nn::gnn::GnnLayerWeights,
    ) -> Result<Matrix, PhotonicError> {
        let z = self.engine.matmul(h, &lw.w)?;
        let fout = z.cols();
        let n = graph.num_nodes();
        let mut src_logit = vec![0.0; n];
        let mut dst_logit = vec![0.0; n];
        for v in 0..n {
            let mut s = 0.0;
            let mut d = 0.0;
            for c in 0..fout {
                s += z.get(v, c) * lw.a_src[c];
                d += z.get(v, c) * lw.a_dst[c];
            }
            src_logit[v] = s;
            dst_logit[v] = d;
        }
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
        let key = self.engine.stream_key();
        let sigma = self.engine.relative_sigma();
        let engine = &self.engine;
        let qz = Quantizer::calibrate(&z).quantize(&z);
        let zcodes = qz.as_i8_slice();
        let alpha_levels = engine.dac_levels();
        let acc_scale = qz.scale() / alpha_levels;
        let sched = DegreeBuckets::new(graph.offsets());
        let tiles: Vec<Vec<f64>> =
            parallel::par_map_indexed(sched.num_tiles(), |t| {
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
                    alphas.extend(neigh.iter().map(|&u| {
                        ops::leaky_relu_scalar(src_logit[u as usize] + dst_logit[v], 0.2)
                    }));
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
        let mut out = Matrix::zeros(n, fout);
        for (t, buf) in tiles.iter().enumerate() {
            for (i, &v) in sched.tile_rows(t).iter().enumerate() {
                out.row_mut(v as usize)
                    .copy_from_slice(&buf[i * fout..(i + 1) * fout]);
            }
        }
        self.trace_aggregate("gat_attention_aggregate", &sched, fout, true);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_nn::datasets::sbm;
    use phox_nn::gnn::GnnConfig;
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
