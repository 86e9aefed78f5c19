//! # phox-bench
//!
//! The figure-regeneration harness: one function per table/figure of the
//! paper's evaluation section (see the per-experiment index in
//! DESIGN.md). The `figures` binary prints them; the Criterion benches
//! under `benches/` time the underlying simulations.
//!
//! | experiment | function |
//! |---|---|
//! | E1 (Fig. 8)  | [`fig8_epb_tron`] |
//! | E2 (Fig. 9)  | [`fig9_gops_tron`] |
//! | E3 (Fig. 10) | [`fig10_epb_ghost`] |
//! | E4 (Fig. 11) | [`fig11_gops_ghost`] |
//! | E5 (Fig. 3)  | [`fig3_mr_response`] |
//! | E6 (§VI quantization) | [`quantization_table`] |
//! | E7 (§VI design space) | [`design_space_table`] |
//! | E8 (headline claims)  | [`summary`] |
//! | A1 (tuning ablation)  | [`ablate_tuning`] |
//! | A2 (GHOST optimizations) | [`ablate_ghost`] |
//! | A3 (eq. (3) decomposition) | [`ablate_tron`] |
//! | X1 (§VII process variation) | [`variation_table`] |
//! | X2 (§VII non-volatile weights) | [`pcm_table`] |
//! | X3 (sensitivity sweeps) | [`sensitivity_sweeps`] |
//! | X4 (noise robustness) | [`noise_robustness_table`] |
//! | X5 (precision sensitivity) | [`precision_table`] |
//! | X6 (energy breakdown) | [`energy_breakdown`] |
//! | X7 (autoregressive generation) | [`generation_table`] |
//! | X8 (coherent vs non-coherent, §IV) | [`coherent_table`] |

#![warn(missing_docs)]

use std::fmt::Write as _;

use phox_core::prelude::*;
use phox_core::tensor::parallel;
use phox_core::trace::json::{json_number, json_string};

/// A rendered figure: a title plus rows of `(label, series values)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure title (e.g. "Fig. 8: EPB comparison across Transformer
    /// accelerators").
    pub title: String,
    /// Column headers (workload names).
    pub columns: Vec<String>,
    /// One row per platform: `(platform, values)`.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Unit of the values.
    pub unit: &'static str,
}

impl Figure {
    /// Serializes the figure as pretty-printed JSON, the
    /// machine-readable form for external plotting tools.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        out.push_str("  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(c));
        }
        out.push_str("],\n  \"rows\": [\n");
        for (i, (name, values)) in self.rows.iter().enumerate() {
            let _ = write!(out, "    [{}, [", json_string(name));
            for (j, v) in values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_number(*v));
            }
            out.push_str("]]");
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        let _ = write!(out, "  ],\n  \"unit\": {}\n}}", json_string(self.unit));
        out
    }

    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = write!(out, "{:<14}", "platform");
        for c in &self.columns {
            let _ = write!(out, "{c:>16}");
        }
        let _ = writeln!(out, "   [{}]", self.unit);
        for (name, values) in &self.rows {
            let _ = write!(out, "{name:<14}");
            for v in values {
                if *v >= 100.0 {
                    let _ = write!(out, "{v:>16.0}");
                } else {
                    let _ = write!(out, "{v:>16.3}");
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// The transformer workloads of Figs. 8–9 (paper: multiple Transformer
/// models — BERT-base/large, GPT-2, ViT).
pub fn tron_workloads() -> Vec<TransformerConfig> {
    vec![
        TransformerConfig::bert_base(128),
        TransformerConfig::bert_large(128),
        TransformerConfig::gpt2(128),
        TransformerConfig::vit_b16(),
    ]
}

/// The GNN workloads of Figs. 10–11 (paper: multiple GNN models and
/// datasets; Reddit runs GraphSAGE with fan-out 25 sampling).
pub fn ghost_workloads() -> Vec<GnnWorkload> {
    vec![
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
            GraphShape::cora(),
        ),
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gin, 3703, 16, 6),
            GraphShape::citeseer(),
        ),
        GnnWorkload::new(
            GnnConfig::two_layer(GnnKind::Gat, 500, 16, 3),
            GraphShape::pubmed(),
        ),
        GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
            GraphShape::reddit(),
            25,
        ),
    ]
}

/// Builds the paper-configuration TRON (design-space-derived geometry).
///
/// # Errors
///
/// Propagates design-space and construction failures.
pub fn paper_tron() -> Result<TronAccelerator, PhotonicError> {
    TronAccelerator::new(TronConfig::from_design_space(&SweepConfig::default())?)
}

/// Builds the paper-configuration GHOST.
///
/// # Errors
///
/// Propagates design-space and construction failures.
pub fn paper_ghost() -> Result<GhostAccelerator, PhotonicError> {
    GhostAccelerator::new(GhostConfig::from_design_space(&SweepConfig::default())?)
}

fn comparison_figure(
    title: &str,
    unit: &'static str,
    columns: Vec<String>,
    tables: &[Vec<ComparisonRow>],
    value: impl Fn(&ComparisonRow) -> f64,
) -> Figure {
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for table in tables {
        for row in table {
            // Platform sets are identical across workloads in practice;
            // tolerate a divergent row by starting a new series rather
            // than panicking over a figure.
            match rows.iter_mut().find(|(name, _)| *name == row.platform) {
                Some(entry) => entry.1.push(value(row)),
                None => rows.push((row.platform.clone(), vec![value(row)])),
            }
        }
    }
    Figure {
        title: title.to_owned(),
        columns,
        rows,
        unit,
    }
}

/// E1 / Fig. 8: EPB comparison across transformer platforms.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig8_epb_tron(tron: &TronAccelerator) -> Result<Figure, PhotonicError> {
    let workloads = tron_workloads();
    let tables: Vec<_> =
        parallel::par_map_indexed(workloads.len(), |i| tron_comparison(tron, &workloads[i]))
            .into_iter()
            .collect::<Result<_, _>>()?;
    Ok(comparison_figure(
        "Fig. 8: EPB comparison across Transformer accelerators",
        "pJ/bit",
        workloads.iter().map(|m| m.name.clone()).collect(),
        &tables,
        |r| r.epb_j * 1e12,
    ))
}

/// E2 / Fig. 9: throughput comparison across transformer platforms.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig9_gops_tron(tron: &TronAccelerator) -> Result<Figure, PhotonicError> {
    let workloads = tron_workloads();
    let tables: Vec<_> =
        parallel::par_map_indexed(workloads.len(), |i| tron_comparison(tron, &workloads[i]))
            .into_iter()
            .collect::<Result<_, _>>()?;
    Ok(comparison_figure(
        "Fig. 9: GOPS comparison across Transformer accelerators",
        "GOPS",
        workloads.iter().map(|m| m.name.clone()).collect(),
        &tables,
        |r| r.gops,
    ))
}

/// E3 / Fig. 10: EPB comparison across GNN platforms.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig10_epb_ghost(ghost: &GhostAccelerator) -> Result<Figure, PhotonicError> {
    let workloads = ghost_workloads();
    let tables: Vec<_> =
        parallel::par_map_indexed(workloads.len(), |i| ghost_comparison(ghost, &workloads[i]))
            .into_iter()
            .collect::<Result<_, _>>()?;
    Ok(comparison_figure(
        "Fig. 10: EPB comparison across GNN accelerators",
        "pJ/bit",
        workloads
            .iter()
            .map(|w| format!("{}/{}", w.model.kind, w.shape.name))
            .collect(),
        &tables,
        |r| r.epb_j * 1e12,
    ))
}

/// E4 / Fig. 11: throughput comparison across GNN platforms.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig11_gops_ghost(ghost: &GhostAccelerator) -> Result<Figure, PhotonicError> {
    let workloads = ghost_workloads();
    let tables: Vec<_> =
        parallel::par_map_indexed(workloads.len(), |i| ghost_comparison(ghost, &workloads[i]))
            .into_iter()
            .collect::<Result<_, _>>()?;
    Ok(comparison_figure(
        "Fig. 11: GOPS comparison across GNN accelerators",
        "GOPS",
        workloads
            .iter()
            .map(|w| format!("{}/{}", w.model.kind, w.shape.name))
            .collect(),
        &tables,
        |r| r.gops,
    ))
}

/// E5 / Fig. 3: MR through-port response and heterodyne crosstalk.
///
/// # Errors
///
/// Propagates device-model failures.
pub fn fig3_mr_response() -> Result<String, PhotonicError> {
    use phox_core::photonics::crosstalk::HeterodyneAnalysis;
    let mr = MrConfig::default().validated()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 3(a): through-port response (R={} µm, Q={}, FWHM={:.4} nm)",
        mr.radius_um,
        mr.q_factor,
        mr.fwhm_nm()
    );
    let _ = writeln!(out, "{:>12} {:>12}", "λ−λr (nm)", "T");
    let mut d = -0.4;
    while d <= 0.4001 {
        let _ = writeln!(
            out,
            "{:>12.2} {:>12.4}",
            d,
            mr.through_transmission(1550.0 + d, 1550.0)
        );
        d += 0.05;
    }
    let _ = writeln!(
        out,
        "\nFig. 3(d): worst-case heterodyne crosstalk (8-ring bank)"
    );
    let _ = writeln!(out, "{:>10} {:>14} {:>10}", "CS (nm)", "crosstalk", "8-bit");
    for spacing in [0.4, 0.8, 1.2, 1.6, 2.0] {
        if let Ok(a) = HeterodyneAnalysis::new(&mr, 8, spacing) {
            let _ = writeln!(
                out,
                "{:>10.1} {:>14.3e} {:>10}",
                spacing,
                a.worst_case(),
                if a.supports_bits(8) { "clean" } else { "dirty" }
            );
        }
    }
    Ok(out)
}

/// E6: the 8-bit quantization accuracy table of §VI.
///
/// # Errors
///
/// Propagates model/evaluation failures (boxed, as they span crates).
pub fn quantization_table() -> Result<String, Box<dyn std::error::Error>> {
    use phox_core::nn::datasets::{labelled_sequences, sbm};
    use phox_core::nn::quant_eval::{evaluate_gnn, evaluate_transformer};

    let fq8 = Precision::FakeQuant { bits: 8 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§VI: 8-bit quantization vs full precision (fp accuracy / int8 accuracy / agreement)"
    );
    let seq_task = labelled_sequences(24, 4, 8, 32, 201)?;
    let model = TransformerModel::random(TransformerConfig::tiny(8), 202)?;
    let r = evaluate_transformer(&model, &seq_task, fq8)?;
    let _ = writeln!(
        out,
        "{:<22} {:>8.3} {:>8.3} {:>10.3}  comparable: {}",
        "transformer (tiny)",
        r.fp_accuracy,
        r.int8_accuracy,
        r.agreement,
        r.is_comparable(0.15)
    );
    let graph_task = sbm(3, 12, 16, 0.5, 0.05, 203)?;
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin, GnnKind::Gat] {
        let model = GnnModel::random(GnnConfig::two_layer(kind, 16, 32, 3), 204)?;
        let r = evaluate_gnn(&model, &graph_task, fq8)?;
        let _ = writeln!(
            out,
            "{:<22} {:>8.3} {:>8.3} {:>10.3}  comparable: {}",
            format!("{kind} (SBM)"),
            r.fp_accuracy,
            r.int8_accuracy,
            r.agreement,
            r.is_comparable(0.1)
        );
    }
    Ok(out)
}

/// E7: the design-space analysis table of §VI.
///
/// # Errors
///
/// Propagates sweep failures.
pub fn design_space_table() -> Result<String, PhotonicError> {
    use phox_core::photonics::design_space::sweep;
    let config = SweepConfig::default();
    let outcome = sweep(&config)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§VI design-space analysis: {} candidates, {} feasible, rejections: {}",
        outcome.examined,
        outcome.feasible.len(),
        outcome.rejections
    );
    let best = outcome
        .best()
        .ok_or(PhotonicError::NoFeasibleDesign {
            examined: outcome.examined,
        })
        .ctx("selecting the best design point")?;
    let _ = writeln!(
        out,
        "selected: R={} µm, Q={}, gap={} nm, CS={} nm → {} channels, ENOB {:.2}, {:.2} dBm/ch",
        best.mr.radius_um,
        best.mr.q_factor,
        best.mr.coupling_gap_nm,
        best.spacing_nm,
        best.channels,
        best.enob,
        best.laser_power_per_channel_dbm
    );
    Ok(out)
}

/// E8: the headline-claims summary.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn summary(tron: &TronAccelerator, ghost: &GhostAccelerator) -> Result<String, PhotonicError> {
    let mut tron_claims_v = Vec::new();
    for m in tron_workloads() {
        tron_claims_v.push(claims(&tron_comparison(tron, &m)?)?);
    }
    let tron_agg = aggregate_claims(&tron_claims_v);
    let mut ghost_claims_v = Vec::new();
    for w in ghost_workloads() {
        ghost_claims_v.push(claims(&ghost_comparison(ghost, &w)?)?);
    }
    let ghost_agg = aggregate_claims(&ghost_claims_v);
    let mean_tron_speedup =
        tron_claims_v.iter().map(|c| c.min_speedup).sum::<f64>() / tron_claims_v.len() as f64;

    let mut out = String::new();
    let _ = writeln!(out, "Headline claims (paper → measured):");
    let _ = writeln!(
        out,
        "  TRON : ≥14× throughput → {:.1}× (mean of per-model minima; global min {:.1}×)",
        mean_tron_speedup, tron_agg.min_speedup
    );
    let _ = writeln!(
        out,
        "  TRON : ≥8× energy efficiency → {:.1}× (global min)",
        tron_agg.min_efficiency
    );
    let _ = writeln!(
        out,
        "  GHOST: ≥10.2× throughput → {:.1}× (global min)",
        ghost_agg.min_speedup
    );
    let _ = writeln!(
        out,
        "  GHOST: ≥3.8× energy efficiency → {:.1}× (global min)",
        ghost_agg.min_efficiency
    );
    Ok(out)
}

/// A1: EO-only vs TO-only vs hybrid tuning, with the TED saving.
///
/// # Errors
///
/// Propagates tuning-model failures.
pub fn ablate_tuning() -> Result<String, PhotonicError> {
    use phox_core::photonics::tuning::{HybridTuning, ThermalField};
    let tuning = HybridTuning::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A1: tuning-policy ablation (energy to hold a shift for one 10 GHz symbol)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>14}",
        "Δλ (nm)", "EO-only (J)", "TO-only (J)", "hybrid (J)"
    );
    for shift in [0.05, 0.1, 0.25, 0.5, 1.0, 2.0] {
        let hold = 1e-10;
        let eo = tuning
            .tune_eo_only(shift)
            .map(|op| format!("{:.2e}", op.energy_j(hold)))
            .unwrap_or_else(|_| "out of range".into());
        let to = tuning
            .tune_to_only(shift)
            .map(|op| format!("{:.2e}", op.energy_j(hold)))
            .unwrap_or_else(|_| "out of range".into());
        let hy = tuning
            .tune(shift)
            .map(|op| format!("{:.2e}", op.energy_j(hold)))
            .unwrap_or_else(|_| "out of range".into());
        let _ = writeln!(out, "{shift:>10.2} {eo:>14} {to:>14} {hy:>14}");
    }
    let field = ThermalField::new(16, 8.0, 10.0)?;
    let targets: Vec<f64> = (0..16).map(|i| 0.4 + 0.02 * i as f64).collect();
    let _ = writeln!(
        out,
        "TED saving over naive thermal drive (16-ring bank): {:.2}×",
        field.ted_saving(&targets)?
    );
    Ok(out)
}

/// A2: the GHOST §V.D optimization ablation on a Reddit-scale workload
/// plus a compute-bound citation workload.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablate_ghost(base: &GhostConfig) -> Result<String, PhotonicError> {
    let reddit = GnnWorkload::sampled(
        GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
        GraphShape::reddit(),
        25,
    );
    let cora = GnnWorkload::new(
        GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
        GraphShape::cora(),
    );
    let variants: Vec<(&str, Optimizations)> = vec![
        ("all on", Optimizations::default()),
        (
            "no partition",
            Optimizations {
                partition: false,
                ..Optimizations::default()
            },
        ),
        (
            "no pipelining",
            Optimizations {
                pipelining: false,
                ..Optimizations::default()
            },
        ),
        (
            "no DAC sharing",
            Optimizations {
                dac_sharing: false,
                ..Optimizations::default()
            },
        ),
        (
            "no balancing",
            Optimizations {
                balancing: false,
                ..Optimizations::default()
            },
        ),
        ("none", Optimizations::none()),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "A2: GHOST orchestration-optimization ablation");
    let _ = writeln!(
        out,
        "(compute column isolates pipelining/balancing, which end-to-end latency masks when memory-bound)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>13} {:>13} {:>9} {:>13} {:>13} {:>9}",
        "variant", "Reddit (µs)", "compute (µs)", "(mJ)", "Cora (µs)", "compute (µs)", "(µJ)"
    );
    for (label, opt) in variants {
        let acc = GhostAccelerator::new(GhostConfig {
            optimizations: opt,
            ..base.clone()
        })?;
        let r = acc.simulate(&reddit)?;
        let c = acc.simulate(&cora)?;
        let _ = writeln!(
            out,
            "{:<16} {:>13.1} {:>13.1} {:>9.2} {:>13.2} {:>13.2} {:>9.1}",
            label,
            r.perf.latency_s * 1e6,
            r.latency.compute_s * 1e6,
            r.perf.energy_j * 1e3,
            c.perf.latency_s * 1e6,
            c.latency.compute_s * 1e6,
            c.perf.energy_j * 1e6
        );
    }
    Ok(out)
}

/// A3: the eq. (3) decomposition ablation — attention with the fully
/// optical `(Q·W_Kᵀ)·Xᵀ` dataflow vs a naive dataflow that converts K to
/// the digital domain for the transpose (extra ADC + DAC pass over K).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablate_tron(tron: &TronAccelerator) -> Result<String, PhotonicError> {
    let model = TransformerConfig::bert_base(128);
    let report = tron.simulate(&model)?;
    // The naive dataflow pays one extra ADC + DAC conversion for every
    // element of K (s×d per layer) and a digital transpose round-trip
    // latency.
    let s = model.seq_len as u64;
    let d = model.d_model as u64;
    let layers = model.layers as u64;
    let extra_conversions = s * d * layers;
    let cfg = tron.config();
    let extra_energy = extra_conversions as f64
        * (cfg.adc.energy_per_conversion_j() + cfg.dac.energy_per_conversion_j());
    let extra_latency =
        extra_conversions as f64 / (cfg.array_channels as f64 * cfg.symbol_rate_hz) * 2.0;
    let naive_energy = report.perf.energy_j + extra_energy;
    let naive_latency = report.perf.latency_s + extra_latency;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A3: eq. (3) MatMul-decomposition ablation (BERT-base/s128)"
    );
    let _ = writeln!(
        out,
        "  optical decomposition : {:>10.2} µs {:>10.4} mJ",
        report.perf.latency_s * 1e6,
        report.perf.energy_j * 1e3
    );
    let _ = writeln!(
        out,
        "  digital transpose     : {:>10.2} µs {:>10.4} mJ",
        naive_latency * 1e6,
        naive_energy * 1e3
    );
    let _ = writeln!(
        out,
        "  saving                : {:.2}× latency, {:.2}× energy",
        naive_latency / report.perf.latency_s,
        naive_energy / report.perf.energy_j
    );
    Ok(out)
}

/// X1 (§VII future work): fabrication process-variation analysis —
/// ring/bank yield and correction-power overhead vs process sigma.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn variation_table(tron: &TronAccelerator) -> Result<String, PhotonicError> {
    use phox_core::photonics::tuning::HybridTuning;
    use phox_core::photonics::variation::VariationModel;
    let tuning = HybridTuning::default();
    let mr_count = tron.config().mr_count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X1: process-variation analysis ({} rings, 64-ring banks, Monte-Carlo 64 banks)",
        mr_count
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>16} {:>12} {:>14}",
        "σ (nm)", "ring yield", "bank yield", "corr. power/ring", "TO share", "chip ovh. (W)"
    );
    for sigma in [0.1, 0.2, 0.4, 0.6, 0.8] {
        let model = VariationModel {
            sigma_resonance_nm: sigma,
            ..VariationModel::default()
        };
        let r = model.analyze(&tuning, 64, 64, 0xFAB)?;
        let overhead = model.accelerator_overhead_w(&tuning, mr_count, 0xFAB)?;
        let _ = writeln!(
            out,
            "{:>10.1} {:>12.3} {:>12.3} {:>13.2} µW {:>12.3} {:>14.3}",
            sigma,
            r.ring_yield,
            r.bank_yield,
            r.mean_correction_power_w * 1e6,
            r.to_fraction,
            overhead
        );
    }
    Ok(out)
}

/// X2 (§VII future work): volatile DAC-tuned weights vs non-volatile PCM
/// weight cells as a function of weight reuse.
///
/// # Errors
///
/// Propagates comparison failures.
pub fn pcm_table() -> Result<String, PhotonicError> {
    use phox_core::photonics::converter::Dac;
    use phox_core::photonics::pcm::{weight_storage_comparison, PcmCell};
    use phox_core::photonics::tuning::HybridTuning;
    let cell = PcmCell::default();
    let dac = Dac::default();
    let tuning = HybridTuning::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X2: weight storage — DAC-tuned (volatile) vs PCM (non-volatile), 8-bit weights"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>18} {:>18} {:>8}",
        "reuse", "tuned (J/use)", "PCM (J/use)", "winner"
    );
    let mut crossover = 0.0;
    for reuse in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
        let c = weight_storage_comparison(&cell, &dac, &tuning, 8, 1e-10, reuse)?;
        crossover = c.crossover_reuse;
        let _ = writeln!(
            out,
            "{:>12} {:>18.3e} {:>18.3e} {:>8}",
            reuse,
            c.tuned_energy_per_use_j,
            c.pcm_energy_per_use_j,
            if c.pcm_wins { "PCM" } else { "tuned" }
        );
    }
    let _ = writeln!(out, "crossover reuse factor: {crossover:.0} uses/write");
    Ok(out)
}

/// X3: sensitivity sweeps — TRON vs sequence length and batch size,
/// GHOST vs neighbour-sampling fan-out. These extend the paper's
/// single-point workloads into the trends that explain them (attention's
/// quadratic term, weight-streaming amortisation, and the
/// aggregation/combination balance).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sensitivity_sweeps(
    tron: &TronAccelerator,
    ghost: &GhostAccelerator,
) -> Result<String, PhotonicError> {
    let mut out = String::new();
    let _ = writeln!(out, "X3a: TRON vs sequence length (BERT-base)");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "seq", "GOPS", "pJ/bit", "µs/inf"
    );
    for seq in [128usize, 256, 384, 512] {
        let r = tron.simulate(&TransformerConfig::bert_base(seq))?;
        let _ = writeln!(
            out,
            "{:>8} {:>12.0} {:>12.3} {:>12.2}",
            seq,
            r.perf.gops(),
            r.perf.epb_j() * 1e12,
            r.perf.latency_s * 1e6
        );
    }
    let _ = writeln!(
        out,
        "
X3b: TRON vs batch size (BERT-base/s128)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "batch", "GOPS", "pJ/bit", "µs/inf"
    );
    for batch in [1usize, 4, 16, 64] {
        let acc = TronAccelerator::new(TronConfig {
            batch,
            ..tron.config().clone()
        })?;
        let r = acc.simulate(&TransformerConfig::bert_base(128))?;
        let _ = writeln!(
            out,
            "{:>8} {:>12.0} {:>12.3} {:>12.2}",
            batch,
            r.perf.gops(),
            r.perf.epb_j() * 1e12,
            r.perf.latency_s * 1e6
        );
    }
    let _ = writeln!(
        out,
        "
X3c: GHOST vs neighbour fan-out (GraphSAGE/Reddit)"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>12}",
        "fanout", "GOPS", "pJ/bit", "ms/inf"
    );
    for fanout in [5usize, 10, 25, 50, 100] {
        let w = GnnWorkload::sampled(
            GnnConfig::two_layer(GnnKind::GraphSage, 602, 128, 41),
            GraphShape::reddit(),
            fanout,
        );
        let r = ghost.simulate(&w)?;
        let _ = writeln!(
            out,
            "{:>8} {:>12.0} {:>12.3} {:>12.2}",
            fanout,
            r.perf.gops(),
            r.perf.epb_j() * 1e12,
            r.perf.latency_s * 1e3
        );
    }
    let _ = writeln!(
        out,
        "\nX3d: TRON vs wavelength parallelism (array channels, BERT-base/s128)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>14}",
        "channels", "GOPS", "pJ/bit", "laser W/array"
    );
    for channels in [8usize, 16, 25, 32] {
        match TronAccelerator::new(TronConfig {
            array_channels: channels,
            ..tron.config().clone()
        }) {
            Ok(acc) => {
                let r = acc.simulate(&TransformerConfig::bert_base(128))?;
                let _ = writeln!(
                    out,
                    "{:>10} {:>12.0} {:>12.3} {:>14.3}",
                    channels,
                    r.perf.gops(),
                    r.perf.epb_j() * 1e12,
                    acc.array_laser_w()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{channels:>10} infeasible: {e}");
            }
        }
    }
    Ok(out)
}

/// X4: noise-robustness sweep — prediction agreement between the analog
/// datapath and the digital reference as the receiver noise grows beyond
/// the provisioned operating point (the ROBIN-style robustness analysis
/// of the paper's lineage).
///
/// # Errors
///
/// Propagates simulation failures (boxed, spans crates).
pub fn noise_robustness_table() -> Result<String, Box<dyn std::error::Error>> {
    use phox_core::nn::datasets::sbm;
    use phox_core::tensor::{ops, stats};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "X4: analog-vs-digital agreement vs receiver noise (σ/signal)"
    );
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>16}",
        "σ", "transformer err", "GCN agreement"
    );
    let tron_cfg = TronConfig::default();
    let ghost_cfg = GhostConfig::default();
    let model = TransformerModel::random(TransformerConfig::tiny(8), 301)?;
    let x = Prng::new(302).fill_normal(8, 32, 0.0, 1.0);
    let reference = model.forward(&x)?;
    let task = sbm(3, 10, 12, 0.5, 0.05, 303)?;
    let gnn = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 304)?;
    let gnn_ref = ops::argmax_rows(&gnn.forward(&task.graph, &task.features)?);
    for sigma in [0.0, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1] {
        let mut tsim = phox_core::tron::TronFunctional::with_noise(&tron_cfg, sigma, 305)?;
        let terr = stats::relative_error(&reference, &tsim.forward(&model, &x)?);
        let mut gsim = phox_core::ghost::GhostFunctional::with_noise(&ghost_cfg, sigma, 306)?;
        let gpred = ops::argmax_rows(&gsim.forward(&gnn, &task.graph, &task.features)?);
        let agree = stats::accuracy(&gpred, &gnn_ref);
        let _ = writeln!(out, "{sigma:>10.0e} {terr:>16.3} {agree:>16.2}");
    }
    Ok(out)
}

/// X5: precision sensitivity — digital fake-quantization agreement with
/// full precision across bit widths, joined with the *hardware cost* of
/// sustaining that precision on TRON (converter energy grows with
/// 2^bits; the receiver noise budget caps the reachable ENOB). Together
/// they motivate the paper's 8-bit choice from both sides: fewer bits
/// lose accuracy, more bits cost converter energy — and beyond the noise
/// ceiling are physically unreachable.
///
/// # Errors
///
/// Propagates model failures (boxed, spans crates).
pub fn precision_table() -> Result<String, Box<dyn std::error::Error>> {
    use phox_core::nn::datasets::sbm;
    use phox_core::photonics::converter::{Adc, Dac};
    use phox_core::tensor::{ops, stats};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "X5: accuracy and hardware cost vs weight/activation precision"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>16} {:>16} {:>18}",
        "bits", "transformer err", "GCN agreement", "TRON EPB (pJ/bit)"
    );
    let model = TransformerModel::random(TransformerConfig::tiny(8), 311)?;
    let x = Prng::new(312).fill_normal(8, 32, 0.0, 1.0);
    let reference = model.forward(&x)?;
    let task = sbm(3, 10, 12, 0.5, 0.05, 313)?;
    let gnn = GnnModel::random(GnnConfig::two_layer(GnnKind::Gcn, 12, 16, 3), 314)?;
    let gnn_ref = ops::argmax_rows(&gnn.forward(&task.graph, &task.features)?);
    for bits in [2u32, 4, 6, 8, 10, 12] {
        let p = Precision::FakeQuant { bits };
        let terr = stats::relative_error(&reference, &model.forward_with(&x, p)?);
        let gpred = ops::argmax_rows(&gnn.forward_with(&task.graph, &task.features, p)?);
        let agree = stats::accuracy(&gpred, &gnn_ref);
        // Hardware side: a TRON provisioned for this precision.
        let hw = TronConfig {
            adc: Adc {
                bits,
                ..Adc::default()
            },
            dac: Dac {
                bits,
                ..Dac::default()
            },
            ..TronConfig::default()
        };
        let epb = match TronAccelerator::new(hw)
            .and_then(|acc| acc.simulate(&TransformerConfig::bert_base(128)))
        {
            Ok(r) => format!("{:.3}", r.perf.epb_j() * 1e12),
            Err(_) => "infeasible".to_owned(),
        };
        let _ = writeln!(out, "{bits:>8} {terr:>16.4} {agree:>16.2} {epb:>18}");
    }
    Ok(out)
}

/// X6: itemised energy breakdown of both accelerators on their flagship
/// workloads — which component dominates the photonic energy budget.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn energy_breakdown(
    tron: &TronAccelerator,
    ghost: &GhostAccelerator,
) -> Result<String, PhotonicError> {
    let tr = tron.simulate(&TransformerConfig::bert_base(128))?;
    let gw = GnnWorkload::new(
        GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
        GraphShape::cora(),
    );
    let gr = ghost.simulate(&gw)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X6: per-inference energy breakdown (fractions of total)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "system", "laser", "tuning", "DAC", "ADC", "recv", "digital", "memory", "static"
    );
    for (name, e) in [("TRON", &tr.energy), ("GHOST", &gr.energy)] {
        let t = e.total_j();
        let _ = writeln!(
            out,
            "{:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name,
            e.laser_j / t,
            e.tuning_j / t,
            e.dac_j / t,
            e.adc_j / t,
            e.receiver_j / t,
            e.digital_j / t,
            e.memory_j / t,
            e.static_j / t
        );
    }
    let _ = writeln!(
        out,
        "TRON total {:.3} mJ/inference; GHOST total {:.3} µJ/inference",
        tr.energy.total_j() * 1e3,
        gr.energy.total_j() * 1e6
    );
    Ok(out)
}

/// X7: autoregressive generation (KV-cached decode) — the LLM-serving
/// workload behind the paper's motivation. Both TRON and the GPU hit the
/// decode memory wall (weights re-stream every token), so the photonic
/// advantage shrinks from the ~14× of prefill towards the ratio of the
/// two memory systems — an honest negative-space result the prefill
/// figures do not show.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn generation_table(tron: &TronAccelerator) -> Result<String, PhotonicError> {
    use phox_core::baselines::roofline::RooflinePlatform;
    let model = TransformerConfig::gpt2(128);
    let gen_tokens = 128;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X7: autoregressive generation, GPT-2 prompt 128 → {gen_tokens} tokens"
    );
    // Two throughput columns, because "tokens/s" is ambiguous under
    // batching: tok/s/seq is what one user sees (decode step latency),
    // tok/s agg is what the machine delivers (batch × per-sequence).
    let _ = writeln!(
        out,
        "{:<24} {:>14} {:>14} {:>18}",
        "platform", "tok/s/seq", "tok/s agg", "mJ/token"
    );
    for batch in [1usize, 16] {
        let acc = TronAccelerator::new(TronConfig {
            batch,
            ..tron.config().clone()
        })?;
        let r = acc.simulate_generation(&model, gen_tokens)?;
        let _ = writeln!(
            out,
            "{:<24} {:>14.0} {:>14.0} {:>18.4}",
            format!("TRON (batch {batch})"),
            r.tokens_per_s,
            r.aggregate_tokens_per_s,
            r.energy_per_token_j * 1e3
        );
    }
    // GPU decode: bandwidth-bound weight re-streaming, amortised over
    // the batch (the standard LLM-serving roofline).
    let gpu = RooflinePlatform::v100();
    let weights = model.census().weight_bytes as f64;
    for batch in [1usize, 16] {
        let step_s = weights / (gpu.mem_bw_bytes_per_s * gpu.mem_efficiency);
        let tokens_per_s = 1.0 / step_s; // per sequence; batch shares the stream
        let energy_per_token = gpu.power_w * step_s / batch as f64;
        let _ = writeln!(
            out,
            "{:<24} {:>14.0} {:>14.0} {:>18.4}",
            format!("GPU V100 (batch {batch})"),
            tokens_per_s,
            tokens_per_s * batch as f64,
            energy_per_token * 1e3
        );
    }
    let _ = writeln!(
        out,
        "both platforms are decode-bandwidth-bound: the photonic compute advantage\nof prefill collapses to the memory-system ratio, while the energy advantage persists"
    );
    Ok(out)
}

/// X8: the §IV design choice, quantified — a coherent MZI mesh against
/// the non-coherent MR bank array at growing tile sizes. The mesh loses
/// on path loss, holding power, footprint and phase-precision at the
/// scales the accelerators need, which is why TRON and GHOST are
/// non-coherent (coherent summation is reserved for the add-only blocks).
///
/// # Errors
///
/// Propagates device-model failures.
pub fn coherent_table() -> Result<String, PhotonicError> {
    use phox_core::photonics::coherent::{compare, Mzi};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "X8: coherent MZI mesh vs non-coherent MR bank array (per NxN tile)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "N", "MZIs", "MRs", "mesh mm^2", "array mm^2", "mesh W", "loss dB", "8-bit OK"
    );
    for n in [8usize, 16, 25, 32, 64] {
        let c = compare(n, Mzi::default(), &MrConfig::default())?;
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>14.3} {:>14.3} {:>12.2} {:>12.1} {:>10}",
            c.n,
            c.mzi_count,
            c.mr_count,
            c.mzi_footprint_um2 / 1e6,
            c.mr_footprint_um2 / 1e6,
            c.mzi_power_w,
            c.mzi_path_loss_db,
            if c.mzi_supports_8_bits { "yes" } else { "no" }
        );
    }
    let _ = writeln!(
        out,
        "non-coherent MR arrays hold ~uW-scale EO tuning per ring and lose only the bus loss"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_render_nonempty() {
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let fig8 = fig8_epb_tron(&tron).unwrap();
        assert_eq!(fig8.columns.len(), 4);
        assert_eq!(fig8.rows.len(), 8);
        assert!(fig8.render().contains("TRON"));
        let fig9 = fig9_gops_tron(&tron).unwrap();
        assert_eq!(fig9.rows.len(), 8);
        // In every column, TRON (row 0) has the lowest EPB and highest
        // GOPS.
        for col in 0..4 {
            let tron_epb = fig8.rows[0].1[col];
            let tron_gops = fig9.rows[0].1[col];
            for r in 1..8 {
                assert!(fig8.rows[r].1[col] > tron_epb);
                assert!(fig9.rows[r].1[col] < tron_gops);
            }
        }
    }

    #[test]
    fn ghost_figures_have_ten_platforms() {
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let fig10 = fig10_epb_ghost(&ghost).unwrap();
        assert_eq!(fig10.rows.len(), 10);
        assert_eq!(fig10.columns.len(), 4);
        let fig11 = fig11_gops_ghost(&ghost).unwrap();
        assert_eq!(fig11.rows.len(), 10);
    }

    #[test]
    fn figures_serialize_to_json() {
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let fig = fig8_epb_tron(&tron).unwrap();
        let json = fig.to_json();
        assert!(json.contains("\"title\""));
        assert!(json.contains("TRON"));
        // 8 platform rows, each rendered as one `["name", [...]]` entry.
        assert_eq!(json.matches("    [\"").count(), 8);
        // Structural sanity: balanced brackets and no bare NaN/Inf tokens.
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "unbalanced brackets in {json}"
        );
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn fig3_contains_response_curve() {
        let s = fig3_mr_response().unwrap();
        assert!(s.contains("through-port"));
        assert!(s.contains("heterodyne"));
    }

    #[test]
    fn extension_tables_render() {
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let v = variation_table(&tron).unwrap();
        assert!(v.contains("ring yield"));
        let p = pcm_table().unwrap();
        assert!(p.contains("crossover"));
    }

    #[test]
    fn coherent_renders() {
        let s = coherent_table().unwrap();
        assert!(s.contains("X8") && s.contains("MZIs"));
    }

    #[test]
    fn generation_renders() {
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let s = generation_table(&tron).unwrap();
        assert!(s.contains("X7") && s.contains("tok/s/seq") && s.contains("tok/s agg"));
    }

    #[test]
    fn extension_sweeps_render() {
        let s = noise_robustness_table().unwrap();
        assert!(s.contains("X4"));
        let s = precision_table().unwrap();
        assert!(s.contains("X5"));
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let s = energy_breakdown(&tron, &ghost).unwrap();
        assert!(s.contains("X6"));
    }

    #[test]
    fn sweeps_render() {
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let s = sensitivity_sweeps(&tron, &ghost).unwrap();
        assert!(s.contains("X3a") && s.contains("X3b") && s.contains("X3c"));
    }

    #[test]
    fn ablations_render() {
        let s = ablate_tuning().unwrap();
        assert!(s.contains("TED"));
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let s = ablate_tron(&tron).unwrap();
        assert!(s.contains("saving"));
    }
}
