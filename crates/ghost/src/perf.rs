//! GHOST performance and energy simulation (experiments E3/E4).
//!
//! Maps a GNN's three stages (Fig. 2) onto the architecture of Fig. 6:
//!
//! * **aggregate** — coherent-summation reduce units of `reduce_rows`
//!   feature lanes × `reduce_branches` neighbour columns (Fig. 7(a)),
//!   one per execution lane, with degree-aware workload balancing;
//! * **combine** — one `array_rows × array_channels` transform unit per
//!   lane (Fig. 7(b)) with weight-DAC sharing;
//! * **update** — SOA activation stages.
//!
//! Feature streaming is costed through the "buffer and partition"
//! model of [`crate::partition`]; the `Optimizations` toggles reproduce
//! the A2 ablation.

use phox_arch::metrics::{check_close, EnergyLedger, LatencyLedger, PerfReport, ServiceCost};
use phox_arch::schedule::{balance_makespan, exposed_time_s, overlap_time_s, round_robin_makespan};
use phox_memsim::dram::HbmStack;
use phox_memsim::sram::{Sram, SramConfig};
use phox_nn::datasets::GraphShape;
use phox_nn::gnn::{CsrGraph, GnnConfig, GnnKind};
use phox_photonics::{Ctx, PhotonicError};
use phox_trace::Value;

use crate::config::GhostConfig;
use crate::partition::Partition;

/// A GNN inference workload: model + graph shape + optional neighbour
/// sampling (the paper's preprocessing "for purposes such as sampling the
/// graph", §III — GraphSAGE-style fan-out capping on large graphs).
#[derive(Debug, Clone, PartialEq)]
pub struct GnnWorkload {
    /// The model.
    pub model: GnnConfig,
    /// The graph's shape statistics.
    pub shape: GraphShape,
    /// Per-vertex neighbour cap (None = full neighbourhood).
    pub neighbor_sample: Option<usize>,
}

impl GnnWorkload {
    /// Creates a full-neighbourhood workload.
    pub fn new(model: GnnConfig, shape: GraphShape) -> Self {
        GnnWorkload {
            model,
            shape,
            neighbor_sample: None,
        }
    }

    /// Creates a workload with a neighbour-sampling cap.
    pub fn sampled(model: GnnConfig, shape: GraphShape, fanout: usize) -> Self {
        GnnWorkload {
            model,
            shape,
            neighbor_sample: Some(fanout),
        }
    }

    /// Effective edge count after sampling.
    pub fn effective_edges(&self) -> u64 {
        match self.neighbor_sample {
            Some(f) => (self.shape.nodes as u64 * f as u64).min(self.shape.edges as u64),
            None => self.shape.edges as u64,
        }
    }

    /// Effective average degree after sampling.
    pub fn effective_avg_degree(&self) -> f64 {
        self.effective_edges() as f64 / self.shape.nodes as f64
    }

    /// The operation census at the effective edge count.
    pub fn census(&self) -> phox_nn::OpCensus {
        self.model
            .census(self.shape.nodes as u64, self.effective_edges())
    }
}

/// Detailed simulation result for one full-graph inference on GHOST.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostReport {
    /// Figures of merit.
    pub perf: PerfReport,
    /// Itemised energy, J.
    pub energy: EnergyLedger,
    /// Itemised latency, s.
    pub latency: LatencyLedger,
    /// Lane-balance factor actually applied (1.0 = perfect).
    pub balance_factor: f64,
    /// Workload description.
    pub workload: String,
}

impl std::fmt::Display for GhostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "GHOST on {}:", self.workload)?;
        writeln!(f, "  throughput : {:>12.0} GOPS", self.perf.gops())?;
        writeln!(f, "  energy/bit : {:>12.3} pJ", self.perf.epb_j() * 1e12)?;
        writeln!(f, "  latency    : {:>12.2} µs", self.perf.latency_s * 1e6)?;
        write!(f, "  balance    : {:>12.2}", self.balance_factor)
    }
}

/// The GHOST accelerator simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostAccelerator {
    config: GhostConfig,
    /// Electrical laser power per busy transform array, W.
    array_laser_w: f64,
    feature_buffer: Sram,
    accumulator_buffer: Sram,
    hbm: HbmStack,
}

impl GhostAccelerator {
    /// Builds the simulator, provisioning the optical link for 8-bit
    /// operation.
    ///
    /// # Errors
    ///
    /// Propagates configuration and link-budget failures.
    pub fn new(config: GhostConfig) -> Result<Self, PhotonicError> {
        let config = config.validated()?;
        let aggregate_rx = config.noise.required_power_w(config.adc.bits)?;
        let per_channel_rx = aggregate_rx / config.array_channels as f64;
        let budget = config.laser.provision(&config.link(), per_channel_rx)?;
        let array_laser_w = budget.laser_electrical_w * config.array_rows as f64;
        let feature_buffer = Sram::new(SramConfig {
            capacity_bytes: 32 * 1024 * 1024,
            word_bytes: 32,
            banks: 16,
        })
        .map_err(|e| PhotonicError::upstream("memsim", e).ctx("sizing the feature buffer"))?;
        let accumulator_buffer = Sram::new(SramConfig {
            capacity_bytes: 4 * 1024 * 1024,
            word_bytes: 16,
            banks: 8,
        })
        .map_err(|e| PhotonicError::upstream("memsim", e).ctx("sizing the accumulator buffer"))?;
        Ok(GhostAccelerator {
            config,
            array_laser_w,
            feature_buffer,
            accumulator_buffer,
            hbm: HbmStack {
                channels: 16, // 512 GB/s — A100-class memory system
                ..HbmStack::default()
            },
        })
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GhostConfig {
        &self.config
    }

    /// Electrical laser power of one busy transform array, W.
    pub fn array_laser_w(&self) -> f64 {
        self.array_laser_w
    }

    /// Estimates the lane-load makespan factor for a workload by
    /// instantiating a miniature R-MAT graph with the same degree skew
    /// and running the (LPT vs round-robin) assignment. The sample is
    /// rebuilt on every call.
    ///
    /// # Errors
    ///
    /// Returns the generator's failure, in context, when the sample
    /// cannot be built: a zero-node shape, or an average degree that
    /// asks the 2048-node sample for more edges than it has vertex pairs.
    pub fn balance_factor(&self, workload: &GnnWorkload) -> Result<f64, PhotonicError> {
        let nodes = workload.shape.nodes.min(2048);
        let avg = workload.effective_avg_degree().max(1.0);
        let mini = GraphShape {
            name: "mini".into(),
            nodes,
            edges: ((nodes as f64 * avg) as usize).max(nodes),
            features: 1,
            classes: 2,
        };
        let g = mini
            .instantiate(0xB41A)
            .ctx("instantiating the R-MAT lane-balance sample")?;
        let degrees: Vec<f64> = (0..g.num_nodes())
            .map(|v| 1.0 + g.degree(v) as f64)
            .collect();
        self.lane_makespan(&degrees)
    }

    /// The makespan factor of `weights` over the lanes: LPT when workload
    /// balancing is on, round-robin otherwise, never below 1.0.
    fn lane_makespan(&self, weights: &[f64]) -> Result<f64, PhotonicError> {
        let lanes = self.config.lanes;
        let factor = if self.config.optimizations.balancing {
            balance_makespan(weights, lanes)
        } else {
            round_robin_makespan(weights, lanes)
        }
        .map_err(|e| PhotonicError::upstream("arch", e).ctx("balancing edge work across lanes"))?;
        Ok(factor.max(1.0))
    }

    /// Simulates one full-graph inference from the workload's shape
    /// statistics (degree skew estimated on a miniature R-MAT sample,
    /// memory traffic from the analytic blocked-streaming model).
    ///
    /// # Errors
    ///
    /// Propagates configuration and lane-balance sample errors and
    /// rejects degenerate workloads.
    pub fn simulate(&self, workload: &GnnWorkload) -> Result<GhostReport, PhotonicError> {
        Ok(self.simulate_core(workload, None, None, None)?.0)
    }

    /// The serving-layer cost decomposition of one inference of
    /// `workload`: the weight-resident side (transform-weight DAC
    /// programming and tuning plus the HBM weight stream — paid once per
    /// resident batch window when consecutive queries share the model) vs
    /// the marginal side every additional query pays (gather/reduce,
    /// transform symbols, feature streaming).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures and cost-validation errors.
    pub fn service_cost(&self, workload: &GnnWorkload) -> Result<ServiceCost, PhotonicError> {
        Ok(self.simulate_core(workload, None, None, None)?.1)
    }

    /// Simulates one full-graph inference over an *instantiated* graph:
    /// lane balance comes from the actual degree distribution and the
    /// feature-streaming traffic from the actual
    /// [`Partition`] block structure, rather than the
    /// shape-level estimates [`GhostAccelerator::simulate`] uses.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] when the graph's vertex
    /// count does not match the workload shape; propagates simulation
    /// failures.
    pub fn simulate_instantiated(
        &self,
        workload: &GnnWorkload,
        graph: &CsrGraph,
    ) -> Result<GhostReport, PhotonicError> {
        if graph.num_nodes() != workload.shape.nodes {
            return Err(PhotonicError::InvalidConfig {
                what: "instantiated graph must match the workload shape",
            });
        }
        let cfg = &self.config;
        let fanout = workload.neighbor_sample.unwrap_or(usize::MAX);
        // Exact per-vertex reduce work: ceil(deg/branches) passes.
        let weights: Vec<f64> = (0..graph.num_nodes())
            .map(|v| {
                let deg = graph.degree(v).min(fanout);
                deg.div_ceil(cfg.reduce_branches).max(1) as f64
            })
            .collect();
        let branch_passes: u64 = weights.iter().map(|&w| w as u64).sum();
        let balance = self.lane_makespan(&weights)?;
        let partition = Partition::new(graph, cfg.lanes, self.config.input_block)?;
        Ok(self
            .simulate_core(
                workload,
                Some(balance),
                Some(branch_passes),
                Some(&partition),
            )?
            .0)
    }

    /// The shared simulation core. `balance`, `branch_passes_override`
    /// and `partition` refine the shape-level estimates with exact values
    /// from an instantiated graph; without `balance` the lane-balance
    /// factor is estimated by [`GhostAccelerator::balance_factor`], after
    /// the degenerate-workload checks. Returns the report together with
    /// the serving-layer resident/marginal cost split, accumulated from
    /// the same ledger terms so the two views cannot diverge.
    fn simulate_core(
        &self,
        workload: &GnnWorkload,
        balance: Option<f64>,
        branch_passes_override: Option<u64>,
        partition: Option<&Partition>,
    ) -> Result<(GhostReport, ServiceCost), PhotonicError> {
        let cfg = &self.config;
        let model = workload
            .model
            .clone()
            .validated()
            .map_err(|e| PhotonicError::upstream("nn", e).ctx("validating the GNN model"))?;
        let nodes = workload.shape.nodes as u64;
        let edges = workload.effective_edges();
        if nodes == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "workload graph has no nodes",
            });
        }
        let balance = match balance {
            Some(balance) => balance,
            None => self.balance_factor(workload)?,
        };
        let t_sym = 1.0 / cfg.symbol_rate_hz;

        // Per-stage ledgers (aggregate / combine / update / memory): every
        // joule is attributed to exactly one stage, and the aggregate
        // ledger is their component-wise sum — so the per-stage trace
        // decomposition equals the EnergyLedger totals by construction.
        let mut agg_energy = EnergyLedger::default();
        let mut combine_energy = EnergyLedger::default();
        let mut update_energy = EnergyLedger::default();
        let mut memory_energy = EnergyLedger::default();
        let mut agg_s = 0.0;
        let mut combine_s = 0.0;
        let mut update_s = 0.0;
        let mut memory_s = 0.0;
        // Weight-resident accumulators for the serving-layer split:
        // transform-weight programming/tuning energy and the HBM weight
        // stream, paid once per resident batch window.
        let mut resident_j = 0.0;
        let mut resident_s = 0.0;

        for l in 0..model.layers() {
            let fin = model.dims[l] as u64;
            let fout = model.dims[l + 1] as u64;
            let fin_eff = if model.kind == GnnKind::GraphSage {
                2 * fin
            } else {
                fin
            };

            // ---- aggregate: coherent reduce units ------------------
            // Per vertex: ceil(deg/branches) passes × ceil(fin/rows)
            // feature groups. Approximated with the average degree plus
            // the per-vertex ceiling overhead.
            let branch_passes = branch_passes_override
                .unwrap_or_else(|| edges.div_ceil(cfg.reduce_branches as u64) + nodes / 2);
            let feature_groups = fin.div_ceil(cfg.reduce_rows as u64);
            let agg_symbols = branch_passes * feature_groups;
            let agg_elapsed = agg_symbols as f64 / cfg.lanes as f64 * balance * t_sym;
            agg_s += agg_elapsed;
            // VCSEL array: branches × rows emitters per coherent pass.
            agg_energy.receiver_j += agg_symbols as f64
                * (cfg.reduce_branches * cfg.reduce_rows) as f64
                * cfg.vcsel_w
                * t_sym;
            // Gather DACs: one conversion per edge-feature element.
            let gather_convs = edges * fin;
            agg_energy.dac_j += gather_convs as f64 * cfg.dac.energy_per_conversion_j();
            // Reduce-output ADCs: one per vertex-feature element per
            // branch pass (partial sums re-digitised between passes).
            let agg_adc = nodes * fin;
            agg_energy.adc_j += agg_adc as f64 * cfg.adc.energy_per_conversion_j();
            // EO tuning on every gather imprint.
            let eo = cfg.tuning.tune(0.25).ctx("EO tuning for gather imprints")?;
            agg_energy.tuning_j += gather_convs as f64 * eo.power_w * t_sym;

            // ---- combine: transform units ---------------------------
            let passes =
                fin_eff.div_ceil(cfg.array_channels as u64) * fout.div_ceil(cfg.array_rows as u64);
            let mut combine_symbols = nodes * passes;
            // GAT: per-edge attention score dot products (2·fout each)
            // also run on the transform arrays.
            if model.kind == GnnKind::Gat {
                let gat_symbols = (edges * 2).div_ceil(cfg.array_rows as u64)
                    * fout.div_ceil(cfg.array_channels as u64);
                combine_symbols += gat_symbols;
                // Per-edge softmax in the digital domain.
                combine_energy.digital_j += edges as f64 * 0.5e-12;
            }
            let combine_elapsed = combine_symbols as f64 / cfg.lanes as f64 * t_sym;
            combine_s += combine_elapsed;
            combine_energy.laser_j += combine_symbols as f64 * self.array_laser_w * t_sym;
            // Activation DACs: each vertex's aggregated features drive
            // the transform array once per fout tile.
            let act_convs = nodes * fin_eff * fout.div_ceil(cfg.array_rows as u64);
            combine_energy.dac_j += act_convs as f64 * cfg.dac.energy_per_conversion_j();
            // Transform ADCs: vertex × fout outputs (× fin tiling).
            let tr_adc = nodes * fout * fin_eff.div_ceil(cfg.array_channels as u64);
            combine_energy.adc_j += tr_adc as f64 * cfg.adc.energy_per_conversion_j();
            // Weight DACs: shared across vertices when the optimization
            // is on — programmed once per lane per pass; otherwise
            // reprogrammed for every vertex.
            let tile_mrs = (cfg.array_rows * cfg.array_channels) as u64;
            let weight_convs = if cfg.optimizations.dac_sharing {
                passes * tile_mrs * cfg.lanes as u64
            } else {
                nodes * passes * tile_mrs
            };
            combine_energy.dac_j += weight_convs as f64 * cfg.dac.energy_per_conversion_j();
            combine_energy.tuning_j += weight_convs as f64 * eo.power_w * t_sym;
            resident_j +=
                weight_convs as f64 * (cfg.dac.energy_per_conversion_j() + eo.power_w * t_sym);
            // TIAs on the transform outputs.
            combine_energy.receiver_j +=
                combine_symbols as f64 * cfg.array_rows as f64 * cfg.tia_w * t_sym;

            // ---- update: SOA activations ----------------------------
            let upd_elems = nodes * fout;
            let upd_elapsed =
                upd_elems as f64 / (cfg.lanes as f64 * cfg.array_channels as f64) * t_sym;
            update_s += upd_elapsed;
            // SOA bias power per lane while updating.
            update_energy.receiver_j += cfg.lanes as f64 * cfg.soa_bias_w * upd_elapsed;

            // ---- memory -------------------------------------------
            let feat_bytes = nodes * fin;
            let per_edge_bytes = edges * fin;
            let streamed = if cfg.optimizations.partition {
                // Blocked schedule: graphs whose features fit on chip are
                // loaded once; larger graphs sweep the feature set once
                // per buffer-sized round (each feature block re-streamed
                // for the output groups it feeds), never worse than
                // per-edge gather. With an instantiated graph, the exact
                // block-load count from the partition refines (and can
                // undercut) the analytic sweep estimate.
                let buf = self.feature_buffer.config().capacity_bytes as u64;
                let rounds = feat_bytes.div_ceil(buf).max(1);
                let analytic = feat_bytes * rounds;
                let exact = partition
                    .map(|p| p.streamed_feature_bytes(fin as usize).max(feat_bytes))
                    .unwrap_or(u64::MAX);
                analytic.min(exact).min(per_edge_bytes)
            } else {
                per_edge_bytes
            };
            let index_bytes = 4 * edges;
            let weight_bytes = fin_eff * fout;
            let offchip = (streamed + index_bytes + weight_bytes) as usize;
            memory_s += self.hbm.transfer_time_s(offchip);
            memory_energy.memory_j += self.hbm.transfer_energy_j(offchip);
            resident_s += self.hbm.transfer_time_s(weight_bytes as usize);
            resident_j += self.hbm.transfer_energy_j(weight_bytes as usize);
            memory_energy.memory_j += self
                .feature_buffer
                .read_bytes_energy_j(per_edge_bytes as usize);
            memory_energy.memory_j += self
                .accumulator_buffer
                .write_bytes_energy_j((nodes * fout) as usize);
        }

        // ---- latency roll-up ---------------------------------------
        let compute_s = if cfg.optimizations.pipelining {
            // Aggregate of block i overlaps combine/update of block i−1.
            agg_s.max(combine_s + update_s) + 0.05 * agg_s.min(combine_s + update_s)
        } else {
            agg_s + combine_s + update_s
        };
        let total_s = overlap_time_s(compute_s, memory_s);

        let latency = LatencyLedger {
            compute_s,
            memory_s: exposed_time_s(
                "GHOST overlapped latency vs compute time",
                total_s,
                compute_s,
            )
            .map_err(|e| PhotonicError::upstream("arch", e).ctx("splitting the GHOST latency"))?,
            ..LatencyLedger::default()
        };

        // Static leakage over the run.
        let leakage_w = self.feature_buffer.leakage_w() + self.accumulator_buffer.leakage_w();
        let static_j = leakage_w * total_s;

        // The aggregate ledger is assembled *from* the stage ledgers.
        let mut energy = agg_energy
            .combine(&combine_energy)
            .combine(&update_energy)
            .combine(&memory_energy);
        energy.static_j += static_j;

        // ---- per-stage decomposition + ledger invariants ------------
        // One `stage/*` entry per pipeline stage: name, model-time
        // duration, joules and trace args, laid end to end on a
        // model-time axis. The ledger check sums it and the trace emits
        // it, so the trace *is* the ledger decomposition.
        let tracing = phox_trace::enabled();
        let args = |a: &[(&'static str, Value)]| if tracing { a.to_vec() } else { Vec::new() };
        let balance_args = || args(&[("balance", Value::Float(balance))]);
        let stages = [
            ("aggregate", agg_s, agg_energy.total_j(), balance_args()),
            (
                "combine",
                combine_s,
                combine_energy.total_j(),
                balance_args(),
            ),
            ("update", update_s, update_energy.total_j(), balance_args()),
            (
                "hbm_stream",
                latency.memory_s,
                memory_energy.total_j(),
                args(&[("edges", Value::UInt(edges))]),
            ),
            (
                "static",
                0.0,
                static_j,
                args(&[("leakage_w", Value::Float(leakage_w))]),
            ),
        ];
        let stage_sum_j: f64 = stages.iter().map(|(_, _, joules, _)| joules).sum();
        check_close(
            "GHOST per-stage energy decomposition vs EnergyLedger total",
            energy.total_j(),
            stage_sum_j,
        )
        .map_err(|e| PhotonicError::upstream("arch", e).ctx("checking the GHOST energy ledger"))?;
        check_close(
            "GHOST LatencyLedger component sum vs reported latency",
            total_s,
            latency.total_s(),
        )
        .map_err(|e| PhotonicError::upstream("arch", e).ctx("checking the GHOST latency ledger"))?;

        let workload_name = format!("{}/{}", workload.model.kind, workload.shape.name);
        if tracing {
            let tr = phox_trace::active();
            let track = format!("ghost/{workload_name}");
            let mut t0 = 0.0f64;
            for (name, dur_s, joules, args) in stages {
                tr.model_span(
                    track.clone(),
                    format!("stage/{name}"),
                    t0,
                    dur_s,
                    Some(joules),
                    args,
                );
                t0 += dur_s;
            }
        }

        let census = workload.census();
        let perf = PerfReport::new(
            census.total_ops(),
            census.total_bits(),
            total_s,
            energy.total_j(),
        )
        .map_err(|e| PhotonicError::upstream("arch", e).ctx("assembling the performance report"))?;

        // ---- serving-layer cost split ------------------------------
        // Marginal energy = everything but the resident terms and the
        // (window-wide) leakage, taken from the same stage ledgers the
        // invariants above verified. Marginal time overlaps the
        // per-query compute with the non-weight (feature/index) stream,
        // which the full stream always covers.
        let marginal_mem_s = exposed_time_s(
            "GHOST feature stream time vs weight stream time",
            memory_s,
            resident_s,
        )
        .map_err(|e| PhotonicError::upstream("arch", e).ctx("exposing the GHOST feature stream"))?;
        let service = ServiceCost {
            resident_s,
            resident_j,
            marginal_s: overlap_time_s(compute_s, marginal_mem_s),
            marginal_j: stage_sum_j - static_j - resident_j,
            leakage_w,
        }
        .validated()
        .map_err(|e| PhotonicError::upstream("arch", e).ctx("validating the GHOST service cost"))?;

        Ok((
            GhostReport {
                perf,
                energy,
                latency,
                balance_factor: balance,
                workload: workload_name,
            },
            service,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;

    fn ghost() -> GhostAccelerator {
        GhostAccelerator::new(GhostConfig::default()).unwrap()
    }

    fn gcn_cora() -> GnnWorkload {
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
            GraphShape::cora(),
        )
    }

    #[test]
    fn simulate_gcn_cora_is_sane() {
        let g = ghost();
        let r = g.simulate(&gcn_cora()).unwrap();
        assert!(r.perf.gops() > 10.0, "gops {}", r.perf.gops());
        let epb_pj = r.perf.epb_j() * 1e12;
        assert!(epb_pj > 0.001 && epb_pj < 100.0, "epb {epb_pj}");
        assert!(r.balance_factor >= 1.0);
        assert!(r.perf.power_w() < 500.0, "power {}", r.perf.power_w());
    }

    #[test]
    fn all_model_kinds_simulate_on_all_shapes() {
        let g = ghost();
        for shape in [
            GraphShape::cora(),
            GraphShape::citeseer(),
            GraphShape::pubmed(),
        ] {
            for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
                let w = GnnWorkload::new(
                    GnnConfig::two_layer(kind, shape.features, 16, shape.classes),
                    shape.clone(),
                );
                let r = g.simulate(&w).unwrap();
                assert!(r.perf.gops() > 0.0, "{kind} on {}", shape.name);
            }
        }
    }

    #[test]
    fn reddit_with_sampling_is_feasible() {
        let g = ghost();
        let shape = GraphShape::reddit();
        let w = GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, shape.features, 128, shape.classes),
            shape,
            25,
        );
        assert_eq!(w.effective_edges(), 232_965 * 25);
        let r = g.simulate(&w).unwrap();
        assert!(r.perf.gops() > 100.0, "gops {}", r.perf.gops());
    }

    #[test]
    fn optimizations_improve_performance() {
        let on = ghost();
        let off = GhostAccelerator::new(GhostConfig {
            optimizations: Optimizations::none(),
            ..GhostConfig::default()
        })
        .unwrap();
        // Use a Reddit-scale sampled workload where the optimizations
        // matter most.
        let shape = GraphShape::reddit();
        let w = GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, shape.features, 128, shape.classes),
            shape,
            25,
        );
        let r_on = on.simulate(&w).unwrap();
        let r_off = off.simulate(&w).unwrap();
        assert!(
            r_on.perf.latency_s < r_off.perf.latency_s,
            "on {} off {}",
            r_on.perf.latency_s,
            r_off.perf.latency_s
        );
        assert!(r_on.perf.energy_j < r_off.perf.energy_j);
    }

    #[test]
    fn balancing_reduces_makespan_factor() {
        let balanced = ghost();
        let unbalanced = GhostAccelerator::new(GhostConfig {
            optimizations: Optimizations {
                balancing: false,
                ..Optimizations::default()
            },
            ..GhostConfig::default()
        })
        .unwrap();
        let w = gcn_cora();
        assert!(balanced.balance_factor(&w).unwrap() <= unbalanced.balance_factor(&w).unwrap());
    }

    #[test]
    fn gat_costs_more_than_gcn() {
        let g = ghost();
        let shape = GraphShape::cora();
        let gcn = g.simulate(&gcn_cora()).unwrap();
        let gat = g
            .simulate(&GnnWorkload::new(
                GnnConfig::two_layer(GnnKind::Gat, 1433, 16, 7),
                shape,
            ))
            .unwrap();
        assert!(gat.perf.energy_j > gcn.perf.energy_j);
    }

    #[test]
    fn energy_components_populated() {
        let g = ghost();
        let r = g.simulate(&gcn_cora()).unwrap();
        assert!(r.energy.laser_j > 0.0);
        assert!(r.energy.dac_j > 0.0);
        assert!(r.energy.adc_j > 0.0);
        assert!(r.energy.receiver_j > 0.0);
        assert!(r.energy.memory_j > 0.0);
        assert!(r.energy.tuning_j > 0.0);
        assert!(r.energy.static_j > 0.0);
    }

    #[test]
    fn service_cost_amortizes_residency() {
        let g = ghost();
        let sc = g.service_cost(&gcn_cora()).unwrap();
        assert!(sc.resident_s > 0.0 && sc.resident_j > 0.0);
        assert!(sc.marginal_s > 0.0 && sc.marginal_j > 0.0);
        assert!(sc.leakage_w > 0.0);
        let mut prev = f64::INFINITY;
        for occ in [1usize, 2, 4, 8, 16] {
            let jpr = sc.joules_per_request(occ);
            assert!(jpr < prev, "occupancy {occ}: {jpr} !< {prev}");
            prev = jpr;
        }
    }

    #[test]
    fn service_cost_split_sums_to_simulate_energy() {
        // resident + marginal + leakage·latency == simulate's total: the
        // split is a re-labelling of the same ledger, not a new model.
        let g = ghost();
        let w = gcn_cora();
        let sc = g.service_cost(&w).unwrap();
        let r = g.simulate(&w).unwrap();
        let window_j = sc.window_energy_j(1);
        // The window's leakage integrates over its own (overlap-modelled)
        // latency, which tracks simulate's total latency closely.
        let rel = (window_j - r.perf.energy_j).abs() / r.perf.energy_j;
        assert!(
            rel < 0.05,
            "window {window_j} vs simulate {} ({rel})",
            r.perf.energy_j
        );
        // Without weight sharing (dac_sharing off) the resident share
        // grows: per-vertex reprogramming is charged to residency.
        let off = GhostAccelerator::new(GhostConfig {
            optimizations: Optimizations::none(),
            ..GhostConfig::default()
        })
        .unwrap();
        let sc_off = off.service_cost(&w).unwrap();
        assert!(sc_off.resident_j > sc.resident_j);
    }

    #[test]
    fn degenerate_workload_rejected() {
        let g = ghost();
        let w = GnnWorkload::new(
            GnnConfig {
                kind: GnnKind::Gcn,
                dims: vec![16],
                aggregation: phox_nn::gnn::Aggregation::Sum,
            },
            GraphShape::cora(),
        );
        assert!(g.simulate(&w).is_err());
    }

    #[test]
    fn unbuildable_balance_sample_is_an_error() {
        // Average degree 3000 asks the 2048-node sample for 6.1M distinct
        // pairs, more than the 4.19M it has.
        let g = ghost();
        let w = GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 64, 16, 4),
            GraphShape {
                name: "dense".into(),
                nodes: 100_000,
                edges: 300_000_000,
                features: 64,
                classes: 4,
            },
        );
        let generator = phox_tensor::TensorError::InvalidDimension {
            what: "graph shape requests more edges than distinct vertex pairs",
        };
        let err = g.balance_factor(&w).unwrap_err();
        assert!(err.to_string().contains("lane-balance sample"), "{err}");
        assert_eq!(
            err.root_cause(),
            &PhotonicError::upstream("tensor", &generator)
        );
        assert_eq!(g.simulate(&w).unwrap_err(), err);
        assert_eq!(g.service_cost(&w).unwrap_err(), err);
    }

    #[test]
    fn zero_node_workload_fails_before_sampling() {
        let w = GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 64, 16, 4),
            GraphShape {
                name: "empty".into(),
                nodes: 0,
                edges: 0,
                features: 64,
                classes: 4,
            },
        );
        assert_eq!(
            ghost().simulate(&w).unwrap_err(),
            PhotonicError::InvalidConfig {
                what: "workload graph has no nodes",
            }
        );
    }
}

#[cfg(test)]
mod instantiated_tests {
    use super::*;
    use crate::config::Optimizations;

    #[test]
    fn instantiated_matches_shape_estimate_roughly() {
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let shape = GraphShape {
            name: "mini".into(),
            nodes: 2_000,
            edges: 16_000,
            features: 128,
            classes: 4,
        };
        let graph = shape.instantiate(0xFEED).unwrap();
        let w = GnnWorkload::new(GnnConfig::two_layer(GnnKind::Gcn, 128, 16, 4), shape);
        let est = ghost.simulate(&w).unwrap();
        let exact = ghost.simulate_instantiated(&w, &graph).unwrap();
        // Same order of magnitude: shape estimate within 4x of exact.
        let ratio = est.perf.latency_s / exact.perf.latency_s;
        assert!((0.25..4.0).contains(&ratio), "ratio {ratio}");
        assert!(exact.balance_factor >= 1.0);
    }

    #[test]
    fn instantiated_rejects_mismatched_graph() {
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let shape = GraphShape {
            name: "mini".into(),
            nodes: 100,
            edges: 400,
            features: 8,
            classes: 2,
        };
        let other = GraphShape {
            name: "other".into(),
            nodes: 50,
            edges: 100,
            features: 8,
            classes: 2,
        }
        .instantiate(1)
        .unwrap();
        let w = GnnWorkload::new(GnnConfig::two_layer(GnnKind::Gcn, 8, 8, 2), shape);
        assert!(ghost.simulate_instantiated(&w, &other).is_err());
    }

    #[test]
    fn instantiated_balancing_matters_on_skewed_graphs() {
        let shape = GraphShape {
            name: "skew".into(),
            nodes: 1_000,
            edges: 12_000,
            features: 64,
            classes: 4,
        };
        let graph = shape.instantiate(0xBEEF).unwrap();
        let w = GnnWorkload::new(GnnConfig::two_layer(GnnKind::Gcn, 64, 16, 4), shape);
        let balanced = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let unbalanced = GhostAccelerator::new(GhostConfig {
            optimizations: Optimizations {
                balancing: false,
                ..Optimizations::default()
            },
            ..GhostConfig::default()
        })
        .unwrap();
        let rb = balanced.simulate_instantiated(&w, &graph).unwrap();
        let ru = unbalanced.simulate_instantiated(&w, &graph).unwrap();
        assert!(
            rb.balance_factor <= ru.balance_factor,
            "balanced {} vs unbalanced {}",
            rb.balance_factor,
            ru.balance_factor
        );
    }

    #[test]
    fn instantiated_respects_sampling_cap() {
        let shape = GraphShape {
            name: "cap".into(),
            nodes: 500,
            edges: 8_000,
            features: 32,
            classes: 4,
        };
        let graph = shape.instantiate(0xCAFE).unwrap();
        let full = GnnWorkload::new(GnnConfig::two_layer(GnnKind::Gcn, 32, 16, 4), shape.clone());
        let sampled = GnnWorkload::sampled(GnnConfig::two_layer(GnnKind::Gcn, 32, 16, 4), shape, 4);
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let rf = ghost.simulate_instantiated(&full, &graph).unwrap();
        let rs = ghost.simulate_instantiated(&sampled, &graph).unwrap();
        assert!(rs.perf.energy_j <= rf.perf.energy_j);
    }
}
