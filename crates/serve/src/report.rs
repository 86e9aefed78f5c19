//! Steady-state serving reports: per-class and aggregate latency,
//! throughput, energy and batching statistics.

use phox_trace::json::{json_number, json_string};

/// Nearest-rank percentiles of a latency population, for ascending
/// `ps`: each is the element of rank `ceil(p/100 · n)` in `total_cmp`
/// order, selected in place in O(n), each among the elements above the
/// one before it, so `values` comes back reordered. `total_cmp` is a
/// total order whose ties are bit-equal, so every result has the sorted
/// element's bits for any input order. An empty population gives 0.0.
pub(crate) fn percentiles_s<const N: usize>(values: &mut [f64], ps: [f64; N]) -> [f64; N] {
    let n = values.len();
    if n == 0 {
        return [0.0; N];
    }
    // `values[from..]` holds every element ranked above the last one
    // selected, which sits at `from - 1`.
    let mut from = 0;
    ps.map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let index = rank.saturating_sub(1).min(n - 1);
        if index < from {
            debug_assert_eq!(index + 1, from, "percentiles must ascend");
            return values[index];
        }
        let selected = *values[from..]
            .select_nth_unstable_by(index - from, f64::total_cmp)
            .1;
        from = index + 1;
        selected
    })
}

/// Per-class steady-state statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class name (matches [`crate::workload::ServiceClass::name`]).
    pub name: String,
    /// Requests of this class that entered a queue.
    pub admitted: u64,
    /// Requests turned away by admission control (queue full).
    pub rejected: u64,
    /// Requests that finished service.
    pub completed: u64,
    /// Requests lost to failed windows after exhausting their retry
    /// budget (or immediately, under [`crate::health::RecoveryPolicy::None`]).
    pub dropped: u64,
    /// Requests that exceeded their class deadline while queued.
    pub timed_out: u64,
    /// Retry events (re-queues after a failed window); not a terminal
    /// state — a retried request still completes, drops, or times out.
    pub retried: u64,
    /// Completed requests served while the device was perturbed —
    /// accuracy-at-risk without the `Degrade` policy, slower fallback
    /// mode with it.
    pub degraded: u64,
    /// Median request latency (arrival to completion), s.
    pub p50_latency_s: f64,
    /// 99th-percentile request latency, s.
    pub p99_latency_s: f64,
    /// Mean request latency, s.
    pub mean_latency_s: f64,
    /// Mean batch-window occupancy for this class's windows.
    pub mean_occupancy: f64,
    /// Energy per completed request, J — residency amortised across
    /// each window's occupants.
    pub joules_per_request: f64,
}

impl ClassReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"admitted\":{},\"rejected\":{},\"completed\":{},\
             \"dropped\":{},\"timed_out\":{},\"retried\":{},\"degraded\":{},\
             \"p50_latency_s\":{},\"p99_latency_s\":{},\"mean_latency_s\":{},\
             \"mean_occupancy\":{},\"joules_per_request\":{}}}",
            json_string(&self.name),
            self.admitted,
            self.rejected,
            self.completed,
            self.dropped,
            self.timed_out,
            self.retried,
            self.degraded,
            json_number(self.p50_latency_s),
            json_number(self.p99_latency_s),
            json_number(self.mean_latency_s),
            json_number(self.mean_occupancy),
            json_number(self.joules_per_request),
        )
    }
}

/// Aggregate steady-state report for one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Seed the arrival trace and engine ran under.
    pub seed: u64,
    /// Offered arrival rate, requests/s.
    pub offered_rate_hz: f64,
    /// Total arrivals generated over the horizon.
    pub arrivals: u64,
    /// Arrivals admitted into a queue.
    pub admitted: u64,
    /// Arrivals rejected by admission control.
    pub rejected: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests lost to failed windows (terminal).
    pub dropped: u64,
    /// Requests that exceeded their class deadline while queued
    /// (terminal).
    pub timed_out: u64,
    /// Retry events across all classes (non-terminal).
    pub retried: u64,
    /// Completed requests served while the device was perturbed.
    pub degraded: u64,
    /// Batch windows dispatched.
    pub windows: u64,
    /// Windows dispatched during a fatal hazard: time and energy spent,
    /// results discarded.
    pub failed_windows: u64,
    /// Calibration probes the health monitor ran.
    pub probes: u64,
    /// Mean occupancy across all windows.
    pub mean_occupancy: f64,
    /// Completed requests divided by the busy horizon (last completion
    /// time), requests/s.
    pub sustained_qps: f64,
    /// Median latency across all completed requests, s.
    pub p50_latency_s: f64,
    /// 99th-percentile latency across all completed requests, s.
    pub p99_latency_s: f64,
    /// Total energy across all windows, J.
    pub total_energy_j: f64,
    /// Energy per completed request, J.
    pub joules_per_request: f64,
    /// Time of the last completion, s (the busy horizon).
    pub makespan_s: f64,
    /// Per-class breakdowns, in class-declaration order.
    pub classes: Vec<ClassReport>,
}

impl ServeReport {
    /// Serialises the report as one deterministic JSON object. Equal
    /// reports produce byte-identical strings, which is what the
    /// cross-thread determinism tests compare.
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self.classes.iter().map(|c| c.to_json()).collect();
        format!(
            "{{\"seed\":{},\"offered_rate_hz\":{},\"arrivals\":{},\"admitted\":{},\
             \"rejected\":{},\"completed\":{},\"dropped\":{},\"timed_out\":{},\
             \"retried\":{},\"degraded\":{},\"windows\":{},\"failed_windows\":{},\
             \"probes\":{},\"mean_occupancy\":{},\
             \"sustained_qps\":{},\"p50_latency_s\":{},\"p99_latency_s\":{},\
             \"total_energy_j\":{},\"joules_per_request\":{},\"makespan_s\":{},\
             \"classes\":[{}]}}",
            self.seed,
            json_number(self.offered_rate_hz),
            self.arrivals,
            self.admitted,
            self.rejected,
            self.completed,
            self.dropped,
            self.timed_out,
            self.retried,
            self.degraded,
            self.windows,
            self.failed_windows,
            self.probes,
            json_number(self.mean_occupancy),
            json_number(self.sustained_qps),
            json_number(self.p50_latency_s),
            json_number(self.p99_latency_s),
            json_number(self.total_energy_j),
            json_number(self.joules_per_request),
            json_number(self.makespan_s),
            classes.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentiles_s(&mut v, [50.0, 99.0, 100.0]), [3.0, 5.0, 5.0]);
        assert_eq!(percentiles_s(&mut [], [50.0, 99.0]), [0.0, 0.0]);
        assert_eq!(percentiles_s(&mut [7.0], [50.0, 99.0]), [7.0, 7.0]);
    }

    /// The definition `percentiles_s` selects by: sort, then index.
    fn sorted_percentile(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    #[test]
    fn selection_equals_the_sort_definition() {
        let mut rng = phox_tensor::Prng::new(0x9e1);
        // Duplicates, both zeros and a spread of magnitudes.
        let palette = [0.0, -0.0, 1e-3, 1e-3, 2.5e-3, 7e-6, 7e-6, 40e-3];
        for n in 1..=70 {
            for trial in 0..4 {
                let values: Vec<f64> = (0..n)
                    .map(|_| match trial {
                        0 => palette[rng.next_index(palette.len())],
                        1 => palette[rng.next_index(3)],
                        _ => rng.uniform(0.0, 50e-3),
                    })
                    .collect();
                let ps = [0.0, 1.0, 50.0, 99.0, 100.0];
                // All at once (each selected above the one before), and
                // each alone.
                let together = percentiles_s(&mut values.clone(), ps);
                for (p, got) in ps.into_iter().zip(together) {
                    let want = sorted_percentile(&values, p).to_bits();
                    assert_eq!(got.to_bits(), want, "n {n}, trial {trial}, p {p}");
                    let [alone] = percentiles_s(&mut values.clone(), [p]);
                    assert_eq!(alone.to_bits(), want, "n {n}, trial {trial}, p {p} alone");
                }
            }
        }
    }

    #[test]
    fn json_is_deterministic() {
        let report = ServeReport {
            seed: 3,
            offered_rate_hz: 1000.0,
            arrivals: 10,
            admitted: 9,
            rejected: 1,
            completed: 8,
            dropped: 1,
            timed_out: 0,
            retried: 2,
            degraded: 3,
            windows: 4,
            failed_windows: 1,
            probes: 5,
            mean_occupancy: 2.25,
            sustained_qps: 900.0,
            p50_latency_s: 1e-3,
            p99_latency_s: 2e-3,
            total_energy_j: 0.5,
            joules_per_request: 0.5 / 9.0,
            makespan_s: 0.01,
            classes: vec![ClassReport {
                name: "prefill/bert-base".into(),
                admitted: 9,
                rejected: 1,
                completed: 8,
                dropped: 1,
                timed_out: 0,
                retried: 2,
                degraded: 3,
                p50_latency_s: 1e-3,
                p99_latency_s: 2e-3,
                mean_latency_s: 1.1e-3,
                mean_occupancy: 2.25,
                joules_per_request: 0.5 / 9.0,
            }],
        };
        let a = report.to_json();
        let b = report.clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"completed\":8"));
        assert!(a.contains("\"dropped\":1"));
        assert!(a.contains("\"timed_out\":0"));
        assert!(a.contains("\"retried\":2"));
        assert!(a.contains("\"degraded\":3"));
        assert!(a.contains("\"failed_windows\":1"));
        assert!(a.contains("\"probes\":5"));
        assert!(a.contains("prefill/bert-base"));
    }
}
