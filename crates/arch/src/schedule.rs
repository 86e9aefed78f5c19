//! Tiling and buffering schedules.
//!
//! A `M×K · K×N` matrix multiplication maps onto a photonic bank array of
//! `rows × channels` MACs as a grid of tiles; [`Tiling`] counts them and
//! the per-tile work. [`overlap_time_s`] models double buffering: with the
//! "buffer and partition" optimization (§V.D) memory transfers hide behind
//! compute, so the elapsed time is the maximum rather than the sum.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ArchError;

/// Tiling of a dense matmul onto a fixed-size analog array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// Output rows (`M`).
    pub m: usize,
    /// Inner dimension (`K`).
    pub k: usize,
    /// Output columns (`N`).
    pub n: usize,
    /// Array rows (dot products evaluated concurrently).
    pub array_rows: usize,
    /// Array channels (wavelengths per dot product).
    pub array_channels: usize,
}

impl Tiling {
    /// Creates a tiling.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidMetric`] when any dimension is zero.
    pub fn new(
        m: usize,
        k: usize,
        n: usize,
        array_rows: usize,
        array_channels: usize,
    ) -> Result<Self, ArchError> {
        if m == 0 || k == 0 || n == 0 || array_rows == 0 || array_channels == 0 {
            return Err(ArchError::InvalidMetric {
                what: "tiling dimensions must be non-zero",
            });
        }
        Ok(Tiling {
            m,
            k,
            n,
            array_rows,
            array_channels,
        })
    }

    /// Tiles along the inner (wavelength) dimension.
    pub fn k_tiles(&self) -> usize {
        self.k.div_ceil(self.array_channels)
    }

    /// Tiles along the output-row dimension.
    pub fn row_tiles(&self) -> usize {
        self.m.div_ceil(self.array_rows)
    }

    /// Each output column needs a full pass (the array computes
    /// matrix–vector products); the `N` columns stream through.
    pub fn column_passes(&self) -> usize {
        self.n
    }

    /// Total array evaluations (symbols) needed for the full matmul.
    pub fn total_tiles(&self) -> u64 {
        self.k_tiles() as u64 * self.row_tiles() as u64 * self.column_passes() as u64
    }

    /// MACs performed per tile evaluation (may be partially filled at the
    /// edges; this is the nominal full-tile count).
    pub fn macs_per_tile(&self) -> u64 {
        self.array_rows as u64 * self.array_channels as u64
    }

    /// Array utilization: useful MACs / provisioned MACs over the run.
    pub fn utilization(&self) -> f64 {
        let useful = self.m as u64 * self.k as u64 * self.n as u64;
        let provisioned = self.total_tiles() * self.macs_per_tile();
        useful as f64 / provisioned as f64
    }
}

/// Elapsed time when memory transfers overlap compute (double buffering):
/// `max(compute, memory)` plus one non-overlappable fill of the smaller.
pub fn overlap_time_s(compute_s: f64, memory_s: f64) -> f64 {
    compute_s.max(memory_s) + compute_s.min(memory_s).min(compute_s.max(memory_s) * 0.01)
}

/// The part of `total_s` not hidden behind `hidden_s` — the exposed
/// (serialised) remainder after overlap. By construction
/// [`overlap_time_s`] returns at least the larger operand, so a negative
/// remainder can only mean a NaN or a modeling bug upstream; it is an
/// error instead of a silent `.max(0.0)` clamp that would zero the
/// evidence away.
///
/// # Errors
///
/// Returns [`ArchError::InvariantViolated`], naming `what` and both
/// times, when the remainder is negative or NaN.
pub fn exposed_time_s(what: &'static str, total_s: f64, hidden_s: f64) -> Result<f64, ArchError> {
    let exposed = total_s - hidden_s;
    if exposed.is_nan() || exposed < 0.0 {
        return Err(ArchError::InvariantViolated {
            what,
            detail: format!("total {total_s:e} s is less than the hidden component {hidden_s:e} s"),
        });
    }
    Ok(exposed)
}

/// Elapsed time without overlap (ablation baseline): plain sum.
pub fn serial_time_s(compute_s: f64, memory_s: f64) -> f64 {
    compute_s + memory_s
}

/// Balances `items` of possibly unequal `weights` over `lanes` workers
/// using longest-processing-time-first, returning the makespan relative
/// to a perfect split (1.0 = perfectly balanced). Models GHOST's workload
/// balancing of irregular vertex degrees over execution lanes.
///
/// # Errors
///
/// Returns [`ArchError::InvalidMetric`] for zero lanes or empty weights.
pub fn balance_makespan(weights: &[f64], lanes: usize) -> Result<f64, ArchError> {
    if lanes == 0 {
        return Err(ArchError::InvalidMetric {
            what: "need at least one lane",
        });
    }
    if weights.is_empty() {
        return Err(ArchError::InvalidMetric {
            what: "need at least one work item",
        });
    }
    if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
        return Err(ArchError::InvalidMetric {
            what: "weights must be non-negative and finite",
        });
    }
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return Ok(1.0);
    }
    let ideal = total / lanes as f64;
    // LPT greedy, heaviest item first. A min-heap on (load, lane) yields
    // the least-loaded lane, lowest index among ties: the lane a
    // front-to-back scan picks, so each lane sums the same items in the
    // same order. Loads start at +0.0 and add only validated
    // non-negative weights, so they are never negative or NaN, and their
    // bit patterns order like their values.
    let mut sorted = weights.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..lanes)
        .map(|lane| Reverse((0.0f64.to_bits(), lane)))
        .collect();
    for w in sorted {
        if let Some(mut least) = heap.peek_mut() {
            let Reverse((load, _)) = &mut *least;
            *load = (f64::from_bits(*load) + w).to_bits();
        }
    }
    let makespan = heap
        .iter()
        .map(|Reverse((load, _))| f64::from_bits(*load))
        .fold(0.0, f64::max);
    Ok(makespan / ideal)
}

/// Round-robin (no balancing) makespan relative to the ideal split — the
/// ablation baseline for workload balancing.
///
/// # Errors
///
/// Same conditions as [`balance_makespan`].
pub fn round_robin_makespan(weights: &[f64], lanes: usize) -> Result<f64, ArchError> {
    if lanes == 0 {
        return Err(ArchError::InvalidMetric {
            what: "need at least one lane",
        });
    }
    if weights.is_empty() {
        return Err(ArchError::InvalidMetric {
            what: "need at least one work item",
        });
    }
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return Ok(1.0);
    }
    let ideal = total / lanes as f64;
    let mut loads = vec![0.0f64; lanes];
    for (i, w) in weights.iter().enumerate() {
        loads[i % lanes] += w;
    }
    Ok(loads.iter().copied().fold(0.0, f64::max) / ideal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiling_counts() {
        let t = Tiling::new(100, 70, 50, 32, 16).unwrap();
        assert_eq!(t.k_tiles(), 5); // ceil(70/16)
        assert_eq!(t.row_tiles(), 4); // ceil(100/32)
        assert_eq!(t.column_passes(), 50);
        assert_eq!(t.total_tiles(), 5 * 4 * 50);
        assert_eq!(t.macs_per_tile(), 512);
    }

    #[test]
    fn exact_fit_has_full_utilization() {
        let t = Tiling::new(64, 32, 10, 64, 32).unwrap();
        assert!((t.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_fit_wastes_array() {
        let t = Tiling::new(65, 33, 10, 64, 32).unwrap();
        assert!(t.utilization() < 0.6);
    }

    #[test]
    fn tiling_validation() {
        assert!(Tiling::new(0, 1, 1, 1, 1).is_err());
        assert!(Tiling::new(1, 1, 1, 0, 1).is_err());
    }

    #[test]
    fn overlap_hides_smaller_term() {
        let o = overlap_time_s(10.0, 2.0);
        assert!(o < serial_time_s(10.0, 2.0));
        assert!(o >= 10.0);
        // Dominated by the max.
        assert!((o - 10.1).abs() < 1e-9);
    }

    #[test]
    fn exposed_time_is_the_remainder_and_rejects_negative_or_nan() {
        let total = overlap_time_s(10.0, 2.0);
        assert_eq!(exposed_time_s("overlap", total, 10.0), Ok(total - 10.0));
        assert_eq!(exposed_time_s("overlap", 3.0, 3.0), Ok(0.0));
        for (total, hidden) in [(1.0, 2.0), (f64::NAN, 1.0), (1.0, f64::NAN)] {
            let err = exposed_time_s("overlap split", total, hidden).unwrap_err();
            crate::metrics::tests::assert_invariant_error(err, "overlap split", total, hidden);
        }
    }

    #[test]
    fn lpt_beats_round_robin_on_skewed_weights() {
        // Power-law-ish weights: a few hubs, many leaves.
        let mut weights = vec![1.0; 60];
        weights.extend_from_slice(&[30.0, 25.0, 20.0, 15.0]);
        let lpt = balance_makespan(&weights, 4).unwrap();
        let rr = round_robin_makespan(&weights, 4).unwrap();
        assert!(lpt < rr, "lpt {lpt} rr {rr}");
        assert!(lpt >= 1.0);
    }

    #[test]
    fn uniform_weights_are_balanced_either_way() {
        let weights = vec![1.0; 64];
        assert!((balance_makespan(&weights, 8).unwrap() - 1.0).abs() < 1e-9);
        assert!((round_robin_makespan(&weights, 8).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balance_validation() {
        assert!(balance_makespan(&[], 4).is_err());
        assert!(balance_makespan(&[1.0], 0).is_err());
        assert!(balance_makespan(&[-1.0], 2).is_err());
        assert_eq!(balance_makespan(&[0.0, 0.0], 2).unwrap(), 1.0);
    }
}
