//! # phox-core
//!
//! Facade crate for the `phox` silicon-photonic accelerator simulators —
//! a Rust reproduction of *"Accelerating Neural Networks for Large
//! Language Models and Graph Processing with Silicon Photonics"*
//! (DATE 2024).
//!
//! Re-exports the whole workspace and adds the [`comparison`] harness
//! that regenerates the paper's comparison figures and headline claims.
//!
//! # Quickstart
//!
//! ```
//! use phox_core::prelude::*;
//!
//! # fn main() -> Result<(), phox_photonics::PhotonicError> {
//! // Simulate BERT-base inference on the TRON photonic accelerator.
//! let tron = TronAccelerator::new(TronConfig::default())?;
//! let report = tron.simulate(&TransformerConfig::bert_base(128))?;
//! println!("TRON: {:.0} GOPS, {:.3} pJ/bit",
//!          report.perf.gops(), report.perf.epb_j() * 1e12);
//!
//! // And GCN inference over a Cora-shaped graph on GHOST.
//! let ghost = GhostAccelerator::new(GhostConfig::default())?;
//! let workload = GnnWorkload::new(
//!     GnnConfig::two_layer(GnnKind::Gcn, 1433, 16, 7),
//!     GraphShape::cora(),
//! );
//! let report = ghost.simulate(&workload)?;
//! assert!(report.perf.gops() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod comparison;

pub use phox_arch as arch;
pub use phox_baselines as baselines;
pub use phox_ghost as ghost;
pub use phox_memsim as memsim;
pub use phox_nn as nn;
pub use phox_photonics as photonics;
pub use phox_serve as serve;
pub use phox_tensor as tensor;
pub use phox_trace as trace;
pub use phox_tron as tron;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use crate::comparison::{
        aggregate_claims, claims, ghost_comparison, tron_comparison, Claims, ComparisonRow,
    };
    pub use phox_arch::metrics::{EnergyLedger, LatencyLedger, PerfReport, ServiceCost};
    pub use phox_baselines::roofline::{RooflinePlatform, WorkloadKind};
    pub use phox_baselines::{gnn_suite, transformer_suite, Baseline};
    pub use phox_ghost::{
        GhostAccelerator, GhostConfig, GhostFunctional, GnnWorkload, Optimizations,
    };
    pub use phox_nn::datasets::GraphShape;
    pub use phox_nn::gnn::{Aggregation, CsrGraph, GnnConfig, GnnKind, GnnModel};
    pub use phox_nn::int8::Precision;
    pub use phox_nn::transformer::{TransformerConfig, TransformerModel};
    pub use phox_photonics::design_space::{RejectionReason, SweepConfig};
    pub use phox_photonics::fault::{
        DeviceFault, FaultImpact, FaultPlan, FaultSchedule, ScheduledFault,
    };
    pub use phox_photonics::mr::MrConfig;
    pub use phox_photonics::{Ctx, PhotonicError};
    pub use phox_serve::{
        standard_mix, FaultContext, HazardTimeline, ProbeConfig, RecoveryPolicy, ServeConfig,
        ServeEngine, ServeReport, ServiceClass,
    };
    pub use phox_tensor::{Matrix, Prng};
    pub use phox_trace::{RunManifest, Trace};
    pub use phox_tron::{TronAccelerator, TronConfig, TronFunctional};
}
