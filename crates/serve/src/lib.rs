//! # phox-serve
//!
//! Accelerator-as-a-service: a deterministic discrete-event simulator of
//! the photonic accelerators **under load**, where the paper's one-shot
//! `simulate()` figures become service times in a queueing system.
//!
//! Transformer prefill/decode requests and GNN queries arrive on a
//! seeded open-loop (Poisson) process, pass admission control, and are
//! dynamically batched onto TRON/GHOST with explicit **weight
//! residency**: MR-bank programming/tuning and the HBM weight stream —
//! the [`phox_arch::metrics::ServiceCost`] resident side — are paid once
//! per batch window and amortised across its occupants, instead of once
//! per request. The simulator reports p50/p99 latency, sustained QPS,
//! and joules/request per workload class.
//!
//! Design constraints, matching the rest of the workspace:
//!
//! * **Deterministic.** The event loop is serial and seeded; the same
//!   (seed, config, classes) produce byte-identical reports at any
//!   `PHOX_NUM_THREADS` (proptest-pinned). No wall clock anywhere.
//! * **Cost-model reuse.** Service times and energies come from
//!   [`phox_tron::perf::TronAccelerator::service_cost`] /
//!   [`decode_service_cost`](phox_tron::perf::TronAccelerator::decode_service_cost)
//!   and [`phox_ghost::perf::GhostAccelerator::service_cost`] — the
//!   serving layer adds scheduling, not new device physics.
//! * **Observable.** With a [`phox_trace::Trace`] installed, the engine
//!   emits `serve/*` counters plus queue-depth and batch-occupancy
//!   time-series samples ([`phox_trace::Trace::sample`]).
//! * **Fault-aware.** A [`phox_photonics::fault::FaultSchedule`]
//!   resolved into a [`health::HazardTimeline`] turns the run into an
//!   availability experiment: windows dispatched during uncompensatable
//!   hazards fail, priced calibration probes detect them, and a
//!   [`health::RecoveryPolicy`] decides between dropping, retrying with
//!   exponential backoff, or gracefully degrading. Reports then account
//!   for every admitted request: completed + dropped + timed-out.
//!
//! # Example
//!
//! ```
//! use phox_serve::engine::{ServeConfig, ServeEngine};
//! use phox_serve::workload::standard_mix;
//! use phox_tron::config::TronConfig;
//! use phox_tron::perf::TronAccelerator;
//! use phox_ghost::config::GhostConfig;
//! use phox_ghost::perf::GhostAccelerator;
//!
//! let tron = TronAccelerator::new(TronConfig::default()).unwrap();
//! let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
//! let classes = standard_mix(&tron, &ghost).unwrap();
//! let config = ServeConfig {
//!     arrival_rate_hz: 2_000.0,
//!     duration_s: 0.05,
//!     ..ServeConfig::default()
//! };
//! let report = ServeEngine::new(config, classes).unwrap().run().unwrap();
//! assert!(report.sustained_qps > 0.0);
//! ```

#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;
pub mod health;
pub mod report;
pub mod workload;

pub use arrivals::{Arrival, ArrivalStream};
pub use engine::{ServeConfig, ServeEngine};
pub use health::{
    FaultContext, Hazard, HazardState, HazardTimeline, ProbeConfig, RecoveryPolicy, Severity,
};
pub use report::{ClassReport, ServeReport};
pub use workload::{standard_mix, ServiceClass};
