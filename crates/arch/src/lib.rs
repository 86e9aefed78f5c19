//! # phox-arch
//!
//! Shared accelerator-architecture machinery for the TRON and GHOST
//! simulators:
//!
//! * [`metrics`] — energy/latency ledgers, the check that a per-stage
//!   decomposition sums back to its ledger, and the GOPS / EPB figures of
//!   merit used by every figure in the paper's evaluation;
//! * [`schedule`] — matmul tiling onto fixed analog arrays, double-buffer
//!   overlap and its exposed remainder, and workload balancing over
//!   execution lanes.
//!
//! # Example
//!
//! ```
//! use phox_arch::metrics::PerfReport;
//!
//! # fn main() -> Result<(), phox_arch::ArchError> {
//! let r = PerfReport::new(2_000_000_000, 16_000_000_000, 1e-3, 0.05)?;
//! assert!((r.gops() - 2000.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod schedule;

use std::error::Error;
use std::fmt;

/// Error type for architecture-model configuration and ledger
/// invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// A metric or dimension was invalid.
    InvalidMetric {
        /// Which constraint was violated.
        what: &'static str,
    },
    /// A ledger invariant does not hold: a decomposition that does not
    /// sum back to its total ([`metrics::check_close`]) or an overlap
    /// shorter than the component it hides ([`schedule::exposed_time_s`]).
    InvariantViolated {
        /// Which invariant was checked.
        what: &'static str,
        /// The numbers that broke it, rendered.
        detail: String,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InvalidMetric { what } => write!(f, "invalid metric: {what}"),
            ArchError::InvariantViolated { what, detail } => {
                write!(f, "invariant violated in {what}: {detail}")
            }
        }
    }
}

impl Error for ArchError {}
