//! # phox-memsim
//!
//! CACTI-substitute analytic memory models: on-chip SRAM buffers with
//! square-root capacity scaling calibrated to published CACTI 7 numbers
//! ([`sram`]) and HBM-class off-chip channels ([`dram`]). The TRON and
//! GHOST architecture simulators size their buffers and weight streams
//! from these models and charge the resulting joules and seconds to
//! their own `phox-arch` ledgers.
//!
//! See DESIGN.md's substitution table: the paper obtains buffer
//! performance/energy from CACTI; this crate reproduces the quantities the
//! architecture model actually consumes (energy/access, latency, leakage)
//! with the same scaling behaviour.
//!
//! # Example
//!
//! ```
//! use phox_memsim::sram::{Sram, SramConfig};
//!
//! # fn main() -> Result<(), phox_memsim::MemError> {
//! let buf = Sram::new(SramConfig::default())?;
//! assert!(buf.read_energy_j() > 0.0);
//! assert!(buf.access_latency_s() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dram;
pub mod sram;

use std::error::Error;
use std::fmt;

/// Error type for memory model configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// A configuration value was invalid.
    InvalidConfig {
        /// Which constraint was violated.
        what: &'static str,
    },
    /// An access referenced a buffer that does not exist.
    UnknownBuffer {
        /// The buffer name that was requested.
        name: String,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::InvalidConfig { what } => write!(f, "invalid memory configuration: {what}"),
            MemError::UnknownBuffer { name } => write!(f, "unknown buffer: {name}"),
        }
    }
}

impl Error for MemError {}
