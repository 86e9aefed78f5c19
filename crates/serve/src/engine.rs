//! The serving engine: a serial, deterministic discrete-event loop that
//! batches queued requests into weight-resident windows on the shared
//! accelerator.
//!
//! The scheduling model is intentionally simple and fully reproducible:
//!
//! * Arrivals stream in from an [`ArrivalStream`], a block of them
//!   generated at a time (the run never holds its whole arrival
//!   horizon), and are admitted in time order; a class whose queue is at
//!   capacity rejects the arrival (admission control).
//! * The accelerator serves one batch window at a time. Each window
//!   holds requests of a *single* class, because a window shares weight
//!   residency — the MR-bank programming and HBM weight stream of that
//!   class's model are paid once per window.
//! * The scheduler always opens the next window for the class whose
//!   head-of-line request has waited longest (FIFO across classes,
//!   lowest class index breaking exact ties). It then fills the window
//!   with up to [`ServeConfig::max_batch`] queued requests of that
//!   class; if the queue cannot fill the window, it waits up to
//!   [`ServeConfig::batch_timeout_s`] past the head arrival for more.
//! * Window latency and energy come from the class's
//!   [`phox_arch::metrics::ServiceCost`]:
//!   `window_latency_s(occupancy)` overlaps the occupants' marginal
//!   time with the residency programming, and `window_energy_j`
//!   amortises the resident joules across the occupants.

use std::collections::VecDeque;

use phox_photonics::{Ctx, PhotonicError};
use phox_trace as trace;

use crate::arrivals::{mix_weight, ArrivalStream};
use crate::health::{FaultContext, HazardState, RecoveryPolicy};
use crate::report::{percentiles_s, ClassReport, ServeReport};
use crate::workload::ServiceClass;

/// Serving-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Seed for the arrival process.
    pub seed: u64,
    /// Offered load: mean arrival rate of the Poisson process, req/s.
    pub arrival_rate_hz: f64,
    /// Arrival horizon, s. The engine drains all admitted requests after
    /// the last arrival, so the run can finish later than this.
    pub duration_s: f64,
    /// Maximum requests per batch window.
    pub max_batch: usize,
    /// Per-class queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// How long past the head-of-line arrival a under-filled window may
    /// wait for more same-class requests, s.
    pub batch_timeout_s: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0xF0CA,
            arrival_rate_hz: 1_000.0,
            duration_s: 0.1,
            max_batch: 16,
            queue_capacity: 256,
            batch_timeout_s: 200e-6,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), PhotonicError> {
        if self.max_batch == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "serve max_batch must be at least 1",
            });
        }
        if self.queue_capacity == 0 {
            return Err(PhotonicError::InvalidConfig {
                what: "serve queue_capacity must be at least 1",
            });
        }
        if !self.batch_timeout_s.is_finite() || self.batch_timeout_s < 0.0 {
            return Err(PhotonicError::InvalidConfig {
                what: "serve batch_timeout_s must be finite and non-negative",
            });
        }
        if !self.arrival_rate_hz.is_finite() || self.arrival_rate_hz <= 0.0 {
            return Err(PhotonicError::InvalidConfig {
                what: "serve arrival_rate_hz must be finite and positive",
            });
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(PhotonicError::InvalidConfig {
                what: "serve duration_s must be finite and positive",
            });
        }
        Ok(())
    }
}

/// Per-class accumulators the event loop maintains.
struct ClassState {
    queue: VecDeque<QueuedRequest>,
    admitted: u64,
    rejected: u64,
    completed: u64,
    dropped: u64,
    timed_out: u64,
    retried: u64,
    degraded: u64,
    latencies_s: Vec<f64>,
    energy_j: f64,
    occupancy_sum: u64,
    windows: u64,
}

struct QueuedRequest {
    /// Original arrival time — latency and scheduling priority are
    /// measured from here across retries.
    arrive_s: f64,
    /// When the request entered the queue this attempt (arrival, or
    /// retry re-entry) — per-attempt deadlines are measured from here.
    enqueued_s: f64,
    /// Service attempts already failed.
    attempts: u32,
}

/// A request waiting out its retry backoff before re-entering its
/// class queue.
struct RetryEntry {
    class: usize,
    arrive_s: f64,
    ready_s: f64,
    attempts: u32,
    seq: u64,
}

/// The deterministic batched-inference engine.
pub struct ServeEngine {
    config: ServeConfig,
    classes: Vec<ServiceClass>,
    faults: Option<FaultContext>,
}

impl ServeEngine {
    /// Builds an engine after validating the config and class mix.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for degenerate configs,
    /// an empty class list, or class weights the arrival mix cannot
    /// sample (not finite and positive, or an overflowing sum).
    pub fn new(config: ServeConfig, classes: Vec<ServiceClass>) -> Result<Self, PhotonicError> {
        config.validate()?;
        mix_weight(&classes)?;
        Ok(ServeEngine {
            config,
            classes,
            faults: None,
        })
    }

    /// Builds a fault-aware engine: the run consumes `faults.timeline`
    /// as the device's ground truth, observes it through priced
    /// calibration probes, and applies `faults.policy` to failed or
    /// degraded windows.
    ///
    /// An engine built with an **empty** timeline is a strict no-op: it
    /// produces a byte-identical report and trace to [`ServeEngine::new`]
    /// with the same config and classes.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicError::InvalidConfig`] for what
    /// [`ServeEngine::new`] rejects.
    pub fn with_faults(
        config: ServeConfig,
        classes: Vec<ServiceClass>,
        faults: FaultContext,
    ) -> Result<Self, PhotonicError> {
        let mut engine = ServeEngine::new(config, classes)?;
        engine.faults = Some(faults);
        Ok(engine)
    }

    /// The configured service classes, in scheduling-priority order.
    pub fn classes(&self) -> &[ServiceClass] {
        &self.classes
    }

    /// The fault context, when the engine was built fault-aware.
    pub fn fault_context(&self) -> Option<&FaultContext> {
        self.faults.as_ref()
    }

    /// Runs the full horizon — stream arrivals, admit, batch, serve,
    /// drain — and returns the steady-state report.
    ///
    /// When the engine was built with [`ServeEngine::with_faults`], the
    /// loop also consumes the hazard timeline: calibration probes
    /// (priced in time and joules) update the engine's *belief* about
    /// the device, windows dispatched during a fatal hazard fail and
    /// their occupants are retried or dropped per the policy, and the
    /// `Degrade` policy pauses through detected finite fatal windows
    /// and serves known-degraded periods in a slower remapped mode.
    ///
    /// Under an installed trace the run records samples, marks and
    /// window spans as it goes, and its `serve/*` counters once, at the
    /// end, from its totals.
    ///
    /// # Errors
    ///
    /// Propagates arrival-generation failures and reports a
    /// [`PhotonicError::NumericalFailure`] if the queue-conservation
    /// invariant (arrivals = admitted + rejected, and after drain
    /// admitted = completed + dropped + timed-out) breaks — that
    /// would be an engine bug, never a workload property.
    pub fn run(&self) -> Result<ServeReport, PhotonicError> {
        let cfg = &self.config;
        let trace_handle = trace::active();
        let mut arrivals =
            ArrivalStream::new(cfg.seed, cfg.arrival_rate_hz, cfg.duration_s, &self.classes)?;
        let mut states: Vec<ClassState> = self
            .classes
            .iter()
            .map(|_| ClassState {
                queue: VecDeque::new(),
                admitted: 0,
                rejected: 0,
                completed: 0,
                dropped: 0,
                timed_out: 0,
                retried: 0,
                degraded: 0,
                latencies_s: Vec::new(),
                energy_j: 0.0,
                occupancy_sum: 0,
                windows: 0,
            })
            .collect();

        // Fault machinery, armed only for a non-empty timeline so an
        // empty schedule is a strict no-op against the unfaulted path.
        let faults = self.faults.as_ref().filter(|c| !c.timeline.is_empty());
        let retry_params = faults.and_then(|c| c.policy.retry_params());
        let mut next_probe_s = faults.map_or(f64::INFINITY, |c| c.probe.interval_s);
        let mut known = HazardState::NOMINAL; // belief, updated by probes
        let mut probes: u64 = 0;
        let mut probe_energy_j = 0.0f64;
        let mut failed_windows: u64 = 0;
        // Requests waiting out a retry backoff, ordered by (ready_s, seq).
        let mut retries: VecDeque<RetryEntry> = VecDeque::new();
        let mut retry_seq: u64 = 0;

        let mut server_free_s = 0.0f64;
        let mut makespan_s = 0.0f64;

        // Admits every arrival and ready retry at or before `t` in time
        // order (arrivals win exact ties), applying per-class admission
        // control, and samples the aggregate queue depth.
        let admit_until = |t: f64,
                           arrivals: &mut ArrivalStream,
                           states: &mut Vec<ClassState>,
                           retries: &mut VecDeque<RetryEntry>| {
            let mut changed = false;
            loop {
                // Arrivals up to the first ready retry go before it.
                let retry_s = retries.front().map(|r| r.ready_s).filter(|&r| r <= t);
                let bound_s = retry_s.unwrap_or(t);
                loop {
                    let (times, classes) = arrivals.pending();
                    let mut due = 0;
                    for (&arrive_s, &class) in times.iter().zip(classes) {
                        if arrive_s > bound_s {
                            break;
                        }
                        let state = &mut states[class];
                        if state.queue.len() >= cfg.queue_capacity {
                            state.rejected += 1;
                        } else {
                            state.queue.push_back(QueuedRequest {
                                arrive_s,
                                enqueued_s: arrive_s,
                                attempts: 0,
                            });
                            state.admitted += 1;
                        }
                        due += 1;
                    }
                    // A block used up may be followed by more due arrivals.
                    let more = due > 0 && due == times.len();
                    arrivals.advance(due);
                    changed |= due > 0;
                    if !more {
                        break;
                    }
                }
                let Some(entry) = retry_s.and_then(|_| retries.pop_front()) else {
                    break;
                };
                let state = &mut states[entry.class];
                if state.queue.len() >= cfg.queue_capacity {
                    // No room to retry into: the request drops.
                    state.dropped += 1;
                } else {
                    state.queue.push_back(QueuedRequest {
                        arrive_s: entry.arrive_s,
                        enqueued_s: entry.ready_s,
                        attempts: entry.attempts,
                    });
                }
                changed = true;
            }
            if changed && trace_handle.is_enabled() {
                let depth: usize = states.iter().map(|s| s.queue.len()).sum();
                trace_handle.sample("serve", "queue_depth", t, depth as f64, Vec::new());
            }
        };

        loop {
            if states.iter().all(|s| s.queue.is_empty()) {
                let next_arrival = arrivals.pending().0.first().copied();
                let next_retry = retries.front().map(|r| r.ready_s);
                let wake_s = match (next_arrival, next_retry) {
                    (None, None) => break, // drained
                    (Some(a), None) => a,
                    (None, Some(r)) => r,
                    (Some(a), Some(r)) => a.min(r),
                };
                // Idle: jump to the next arrival or ready retry.
                admit_until(wake_s, &mut arrivals, &mut states, &mut retries);
                continue;
            }

            // Oldest head-of-line request picks the window's class
            // (original arrival time, so retries keep their priority).
            let mut class = usize::MAX;
            let mut head_s = f64::INFINITY;
            for (i, s) in states.iter().enumerate() {
                if let Some(front) = s.queue.front() {
                    if front.arrive_s < head_s {
                        head_s = front.arrive_s;
                        class = i;
                    }
                }
            }

            // The window opens when the server is free; if it would be
            // under-filled, hold it open up to the batch timeout so more
            // same-class requests can join.
            let mut dispatch_s = server_free_s.max(head_s);
            admit_until(dispatch_s, &mut arrivals, &mut states, &mut retries);
            if states[class].queue.len() < cfg.max_batch
                && (!arrivals.pending().0.is_empty() || !retries.is_empty())
            {
                dispatch_s = dispatch_s.max(head_s + cfg.batch_timeout_s);
                admit_until(dispatch_s, &mut arrivals, &mut states, &mut retries);
            }

            // Per-attempt deadlines: requests that waited too long since
            // entering the queue time out instead of being served.
            // Enqueue times are monotonic along the queue, so expired
            // entries form a prefix.
            if let Some(deadline_s) = self.classes[class].deadline_s {
                let state = &mut states[class];
                while let Some(front) = state.queue.front() {
                    if dispatch_s - front.enqueued_s > deadline_s {
                        state.queue.pop_front();
                        state.timed_out += 1;
                    } else {
                        break;
                    }
                }
                if state.queue.is_empty() {
                    continue; // everything expired; re-pick a class
                }
            }

            // Health monitor: run a calibration probe ahead of the
            // window when the monitoring interval has elapsed. The probe
            // is the only place the engine reads the ground-truth
            // timeline into its belief.
            if let Some(ctx) = faults {
                if dispatch_s >= next_probe_s {
                    probes += 1;
                    probe_energy_j += ctx.probe.energy_j;
                    // The server is busy through the probe; the window's
                    // own dispatch (or the recovery pause) carries the
                    // time forward from here.
                    dispatch_s += ctx.probe.latency_s;
                    known = ctx.timeline.state_at(dispatch_s);
                    next_probe_s = dispatch_s + ctx.probe.interval_s;
                    if trace_handle.is_enabled() {
                        trace_handle.mark(
                            "serve",
                            "probe",
                            dispatch_s,
                            vec![("fatal", trace::Value::Int(i64::from(known.fatal)))],
                        );
                    }
                    // Graceful degradation: a detected fatal hazard with
                    // a finite clearance is waited out, plus a
                    // recalibration (TO-recompensation) downtime window.
                    if let RecoveryPolicy::Degrade {
                        recalibration_s, ..
                    } = ctx.policy
                    {
                        if known.fatal {
                            if let Some(clear_s) = ctx.timeline.fatal_clear_after(dispatch_s) {
                                if clear_s.is_finite() {
                                    let resume_s = clear_s + recalibration_s;
                                    server_free_s = resume_s;
                                    // Probe again on resume, before the
                                    // next window opens.
                                    next_probe_s = resume_s;
                                    if trace_handle.is_enabled() {
                                        trace_handle.mark(
                                            "serve",
                                            "recalibrate",
                                            resume_s,
                                            Vec::new(),
                                        );
                                    }
                                    continue;
                                }
                            }
                        }
                    }
                }
            }

            // Ground truth at dispatch; the belief (`known`) decides the
            // serving mode, the truth decides the outcome.
            let actual = faults.map_or(HazardState::NOMINAL, |c| c.timeline.state_at(dispatch_s));
            let base_cost = &self.classes[class].cost;
            // Under the Degrade policy, a *detected* degradation serves
            // in a remapped precision-fallback mode: slower on the
            // marginal time, but accuracy-safe.
            let mut fallback_mode = false;
            let degraded_cost = match faults.map(|c| c.policy) {
                Some(RecoveryPolicy::Degrade {
                    fallback_slowdown, ..
                }) if !known.fatal && !known.is_nominal() => {
                    fallback_mode = true;
                    Some(
                        base_cost
                            .degraded(
                                known.marginal_slowdown * fallback_slowdown,
                                known.extra_leakage_w,
                            )
                            .map_err(|e| PhotonicError::upstream("arch", e))
                            .ctx("deriving the degraded serving cost")?,
                    )
                }
                _ => None,
            };
            let cost = degraded_cost.as_ref().unwrap_or(base_cost);

            let state = &mut states[class];
            let occupancy = state.queue.len().min(cfg.max_batch);
            let window_latency_s = cost.window_latency_s(occupancy);
            let window_energy_j = cost.window_energy_j(occupancy);
            let done_s = dispatch_s + window_latency_s;

            if actual.fatal {
                // The window ran and produced garbage; output validation
                // catches it at window end, after the time and energy
                // are spent. Occupants retry (with exponential backoff)
                // or drop, per the policy.
                failed_windows += 1;
                for _ in 0..occupancy {
                    let Some(req) = state.queue.pop_front() else {
                        return Err(dry_queue_error(&self.classes[class].name, occupancy));
                    };
                    match retry_params {
                        Some((max_retries, base_backoff_s)) if req.attempts < max_retries => {
                            let attempts = req.attempts + 1;
                            let ready_s = done_s + base_backoff_s * 2f64.powi(req.attempts as i32);
                            retry_seq += 1;
                            let seq = retry_seq;
                            let at =
                                retries.partition_point(|r| (r.ready_s, r.seq) <= (ready_s, seq));
                            retries.insert(
                                at,
                                RetryEntry {
                                    class,
                                    arrive_s: req.arrive_s,
                                    ready_s,
                                    attempts,
                                    seq,
                                },
                            );
                            state.retried += 1;
                        }
                        _ => state.dropped += 1,
                    }
                }
                if trace_handle.is_enabled() {
                    trace_handle.mark("serve", "window_failed", dispatch_s, Vec::new());
                }
            } else {
                // A window served while the device is perturbed counts
                // its occupants as degraded: accuracy-at-risk under
                // None/RetryBackoff, slower-but-safe fallback service
                // under Degrade.
                let serve_degraded = !actual.is_nominal() || fallback_mode;
                for _ in 0..occupancy {
                    // Occupancy never exceeds the queue length, so the
                    // pop cannot fail; an empty queue is an engine bug.
                    let Some(req) = state.queue.pop_front() else {
                        return Err(dry_queue_error(&self.classes[class].name, occupancy));
                    };
                    state.latencies_s.push(done_s - req.arrive_s);
                    state.completed += 1;
                }
                if serve_degraded {
                    state.degraded += occupancy as u64;
                }
            }
            state.energy_j += window_energy_j;
            state.occupancy_sum += occupancy as u64;
            state.windows += 1;
            server_free_s = done_s;
            makespan_s = makespan_s.max(done_s);
            if trace_handle.is_enabled() {
                trace_handle.sample(
                    "serve",
                    "batch_occupancy",
                    dispatch_s,
                    occupancy as f64,
                    vec![(
                        "class",
                        trace::Value::from(self.classes[class].name.as_str()),
                    )],
                );
                trace_handle.model_span(
                    format!("serve/{}", self.classes[class].name),
                    "window",
                    dispatch_s,
                    window_latency_s,
                    Some(window_energy_j),
                    Vec::new(),
                );
            }
        }

        emit_counters(&trace_handle, &states, probes, failed_windows);
        self.finish(
            arrivals.consumed(),
            states,
            makespan_s,
            probes,
            probe_energy_j,
            failed_windows,
        )
    }

    /// Folds the drained per-class accumulators into the report and
    /// checks the conservation invariants.
    fn finish(
        &self,
        arrivals: u64,
        states: Vec<ClassState>,
        makespan_s: f64,
        probes: u64,
        probe_energy_j: f64,
        failed_windows: u64,
    ) -> Result<ServeReport, PhotonicError> {
        let admitted: u64 = states.iter().map(|s| s.admitted).sum();
        let rejected: u64 = states.iter().map(|s| s.rejected).sum();
        let completed: u64 = states.iter().map(|s| s.completed).sum();
        let dropped: u64 = states.iter().map(|s| s.dropped).sum();
        let timed_out: u64 = states.iter().map(|s| s.timed_out).sum();
        let retried: u64 = states.iter().map(|s| s.retried).sum();
        let degraded: u64 = states.iter().map(|s| s.degraded).sum();
        let windows: u64 = states.iter().map(|s| s.windows).sum();
        let occupancy_sum: u64 = states.iter().map(|s| s.occupancy_sum).sum();
        if admitted + rejected != arrivals {
            return Err(PhotonicError::NumericalFailure {
                what: "serve admission conservation",
                detail: format!(
                    "{arrivals} arrivals but {admitted} admitted + {rejected} rejected"
                ),
            });
        }
        // Every admitted request must reach exactly one terminal state.
        for (class, s) in self.classes.iter().zip(&states) {
            if s.completed + s.dropped + s.timed_out != s.admitted {
                return Err(PhotonicError::NumericalFailure {
                    what: "serve queue conservation",
                    detail: format!(
                        "class {}: {} admitted but {} completed + {} dropped + \
                         {} timed out after drain",
                        class.name, s.admitted, s.completed, s.dropped, s.timed_out
                    ),
                });
            }
        }
        if completed + dropped + timed_out != admitted {
            return Err(PhotonicError::NumericalFailure {
                what: "serve queue conservation",
                detail: format!(
                    "{admitted} admitted requests but {completed} completed + \
                     {dropped} dropped + {timed_out} timed out after drain"
                ),
            });
        }

        let total_energy_j: f64 = states.iter().map(|s| s.energy_j).sum::<f64>() + probe_energy_j;
        let mut all_latencies: Vec<f64> = Vec::with_capacity(completed as usize);
        for s in &states {
            all_latencies.extend_from_slice(&s.latencies_s);
        }
        let [p50_latency_s, p99_latency_s] = percentiles_s(&mut all_latencies, [50.0, 99.0]);
        let classes = self
            .classes
            .iter()
            .zip(states)
            .map(|(class, mut s)| {
                // The mean sums in completion order, before the
                // percentiles reorder the latencies.
                let mean = if s.latencies_s.is_empty() {
                    0.0
                } else {
                    s.latencies_s.iter().sum::<f64>() / s.latencies_s.len() as f64
                };
                let [p50_latency_s, p99_latency_s] =
                    percentiles_s(&mut s.latencies_s, [50.0, 99.0]);
                ClassReport {
                    name: class.name.clone(),
                    admitted: s.admitted,
                    rejected: s.rejected,
                    completed: s.completed,
                    dropped: s.dropped,
                    timed_out: s.timed_out,
                    retried: s.retried,
                    degraded: s.degraded,
                    p50_latency_s,
                    p99_latency_s,
                    mean_latency_s: mean,
                    mean_occupancy: if s.windows == 0 {
                        0.0
                    } else {
                        s.occupancy_sum as f64 / s.windows as f64
                    },
                    joules_per_request: if s.completed == 0 {
                        0.0
                    } else {
                        s.energy_j / s.completed as f64
                    },
                }
            })
            .collect();

        Ok(ServeReport {
            seed: self.config.seed,
            offered_rate_hz: self.config.arrival_rate_hz,
            arrivals,
            admitted,
            rejected,
            completed,
            dropped,
            timed_out,
            retried,
            degraded,
            windows,
            failed_windows,
            probes,
            mean_occupancy: if windows == 0 {
                0.0
            } else {
                occupancy_sum as f64 / windows as f64
            },
            sustained_qps: if makespan_s > 0.0 {
                completed as f64 / makespan_s
            } else {
                0.0
            },
            p50_latency_s,
            p99_latency_s,
            total_energy_j,
            joules_per_request: if completed == 0 {
                0.0
            } else {
                total_energy_j / completed as f64
            },
            makespan_s,
            classes,
        })
    }
}

/// Emits each `serve/*` counter once per run, from the run's totals.
/// A zero total emits nothing: a counter appears only when what it
/// counts happened, so a run without faults records no fault counters.
fn emit_counters(trace: &trace::Trace, states: &[ClassState], probes: u64, failed_windows: u64) {
    if !trace.is_enabled() {
        return;
    }
    let total = |field: fn(&ClassState) -> u64| states.iter().map(field).sum::<u64>();
    for (name, value) in [
        ("admitted", total(|s| s.admitted)),
        ("rejected", total(|s| s.rejected)),
        ("completed", total(|s| s.completed)),
        ("dropped", total(|s| s.dropped)),
        ("timed_out", total(|s| s.timed_out)),
        ("retried", total(|s| s.retried)),
        ("degraded", total(|s| s.degraded)),
        ("windows", total(|s| s.windows)),
        ("probes", probes),
        ("failed_windows", failed_windows),
    ] {
        if value != 0 {
            trace.count("serve", name, value as i64);
        }
    }
}

fn dry_queue_error(class: &str, occupancy: usize) -> PhotonicError {
    PhotonicError::NumericalFailure {
        what: "serve window occupancy",
        detail: format!(
            "window for class {class} claimed {occupancy} occupants but the queue ran dry"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phox_arch::metrics::ServiceCost;
    use phox_ghost::config::GhostConfig;
    use phox_ghost::perf::GhostAccelerator;
    use phox_tron::config::TronConfig;
    use phox_tron::perf::TronAccelerator;

    fn synthetic_class(weight: f64) -> ServiceClass {
        ServiceClass::new(
            "synthetic",
            ServiceCost {
                resident_s: 100e-6,
                resident_j: 1e-3,
                marginal_s: 10e-6,
                marginal_j: 10e-6,
                leakage_w: 0.1,
            },
            weight,
        )
        .unwrap()
    }

    fn run_mix(config: ServeConfig) -> ServeReport {
        let tron = TronAccelerator::new(TronConfig::default()).unwrap();
        let ghost = GhostAccelerator::new(GhostConfig::default()).unwrap();
        let classes = crate::workload::standard_mix(&tron, &ghost).unwrap();
        ServeEngine::new(config, classes).unwrap().run().unwrap()
    }

    #[test]
    fn conservation_holds_and_everything_completes() {
        let report = run_mix(ServeConfig {
            arrival_rate_hz: 2_000.0,
            duration_s: 0.02,
            ..ServeConfig::default()
        });
        assert_eq!(report.admitted + report.rejected, report.arrivals);
        assert_eq!(report.completed, report.admitted);
        assert!(report.arrivals > 0);
        assert!(report.windows > 0);
        assert!(report.p50_latency_s > 0.0);
        assert!(report.p99_latency_s >= report.p50_latency_s);
        assert!(report.joules_per_request > 0.0);
        let class_completed: u64 = report.classes.iter().map(|c| c.completed).sum();
        assert_eq!(class_completed, report.completed);
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let config = ServeConfig {
            arrival_rate_hz: 3_000.0,
            duration_s: 0.02,
            ..ServeConfig::default()
        };
        let a = run_mix(config).to_json();
        let b = run_mix(config).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn occupancy_rises_with_offered_load() {
        let classes = vec![synthetic_class(1.0)];
        let base = ServeConfig {
            duration_s: 0.05,
            batch_timeout_s: 0.0,
            ..ServeConfig::default()
        };
        let slow = ServeEngine::new(
            ServeConfig {
                arrival_rate_hz: 500.0,
                ..base
            },
            classes.clone(),
        )
        .unwrap()
        .run()
        .unwrap();
        let fast = ServeEngine::new(
            ServeConfig {
                arrival_rate_hz: 20_000.0,
                ..base
            },
            classes,
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            fast.mean_occupancy > slow.mean_occupancy + 1.0,
            "fast {} vs slow {}",
            fast.mean_occupancy,
            slow.mean_occupancy
        );
        // Amortised residency: energy per request falls as batches fill.
        assert!(
            fast.joules_per_request < slow.joules_per_request,
            "fast {} vs slow {}",
            fast.joules_per_request,
            slow.joules_per_request
        );
    }

    #[test]
    fn saturation_rejects_but_conserves() {
        // A slow class at a huge offered rate must overflow the queue.
        let classes = vec![ServiceClass::new(
            "slow",
            ServiceCost {
                resident_s: 10e-3,
                resident_j: 1.0,
                marginal_s: 1e-3,
                marginal_j: 0.1,
                leakage_w: 1.0,
            },
            1.0,
        )
        .unwrap()];
        let report = ServeEngine::new(
            ServeConfig {
                arrival_rate_hz: 50_000.0,
                duration_s: 0.02,
                max_batch: 4,
                queue_capacity: 8,
                batch_timeout_s: 0.0,
                ..ServeConfig::default()
            },
            classes,
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.rejected > 0, "expected overload rejections");
        assert_eq!(report.admitted + report.rejected, report.arrivals);
        assert_eq!(report.completed, report.admitted);
        // Full windows at saturation.
        assert!(report.mean_occupancy > 3.0, "{}", report.mean_occupancy);
    }

    #[test]
    fn trace_counters_and_samples_are_emitted() {
        use phox_trace::CounterValue;
        let trace = phox_trace::Trace::new();
        let report = phox_trace::with_installed(trace.clone(), || {
            run_mix(ServeConfig {
                arrival_rate_hz: 2_000.0,
                duration_s: 0.01,
                ..ServeConfig::default()
            })
        });
        let counters = trace.counters();
        let counter = |name: &str| {
            counters
                .iter()
                .find(|(t, n, _)| t == "serve" && n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing serve/{name} counter"))
        };
        assert_eq!(
            counter("admitted"),
            CounterValue::Int(report.admitted as i64)
        );
        assert_eq!(
            counter("completed"),
            CounterValue::Int(report.completed as i64)
        );
        let events = trace.events();
        assert!(events
            .iter()
            .any(|e| e.track == "serve" && e.name == "queue_depth"));
        assert!(events
            .iter()
            .any(|e| e.track == "serve" && e.name == "batch_occupancy"));
    }

    fn fatal_window(onset_s: f64, clear_s: f64) -> crate::health::HazardTimeline {
        crate::health::HazardTimeline::from_hazards(vec![crate::health::Hazard {
            onset_s,
            clear_s,
            severity: crate::health::Severity::Fatal,
        }])
        .unwrap()
    }

    fn degraded_window(onset_s: f64, clear_s: f64, slowdown: f64) -> crate::health::HazardTimeline {
        crate::health::HazardTimeline::from_hazards(vec![crate::health::Hazard {
            onset_s,
            clear_s,
            severity: crate::health::Severity::Degraded {
                marginal_slowdown: slowdown,
                extra_leakage_w: 0.1,
            },
        }])
        .unwrap()
    }

    fn faulted_run(
        timeline: crate::health::HazardTimeline,
        policy: crate::health::RecoveryPolicy,
    ) -> ServeReport {
        let ctx = crate::health::FaultContext::new(
            timeline,
            policy,
            crate::health::ProbeConfig::default(),
        )
        .unwrap();
        let config = ServeConfig {
            arrival_rate_hz: 2_000.0,
            duration_s: 0.02,
            ..ServeConfig::default()
        };
        ServeEngine::with_faults(config, vec![synthetic_class(1.0)], ctx)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn empty_timeline_is_a_strict_noop() {
        let config = ServeConfig {
            arrival_rate_hz: 2_000.0,
            duration_s: 0.02,
            ..ServeConfig::default()
        };
        let plain = ServeEngine::new(config, vec![synthetic_class(1.0)])
            .unwrap()
            .run()
            .unwrap();
        let faulted = faulted_run(
            crate::health::HazardTimeline::empty(),
            crate::health::RecoveryPolicy::Degrade {
                max_retries: 3,
                base_backoff_s: 1e-4,
                recalibration_s: 1e-3,
                fallback_slowdown: 2.0,
            },
        );
        assert_eq!(plain.to_json(), faulted.to_json());
        assert_eq!(faulted.probes, 0);
        assert_eq!(faulted.failed_windows, 0);
    }

    #[test]
    fn permanent_fatal_hazard_drops_everything_without_recovery() {
        let report = faulted_run(
            fatal_window(0.0, f64::INFINITY),
            crate::health::RecoveryPolicy::None,
        );
        assert!(report.admitted > 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.dropped, report.admitted);
        assert!(report.failed_windows > 0);
        assert!(report.probes > 0, "monitoring should still probe");
        // Failed windows still burn energy.
        assert!(report.total_energy_j > 0.0);
    }

    #[test]
    fn retry_backoff_recovers_after_the_hazard_clears() {
        let report = faulted_run(
            fatal_window(0.0, 5e-3),
            crate::health::RecoveryPolicy::RetryBackoff {
                max_retries: 8,
                base_backoff_s: 250e-6,
            },
        );
        assert!(report.retried > 0, "windows inside the hazard must retry");
        assert!(
            report.completed > report.admitted / 2,
            "most requests should complete after the hazard clears: {} of {}",
            report.completed,
            report.admitted
        );
        assert_eq!(
            report.completed + report.dropped + report.timed_out,
            report.admitted
        );
    }

    #[test]
    fn degrade_policy_beats_none_on_availability_under_finite_hazard() {
        let none = faulted_run(fatal_window(0.0, 5e-3), crate::health::RecoveryPolicy::None);
        let degrade = faulted_run(
            fatal_window(0.0, 5e-3),
            crate::health::RecoveryPolicy::Degrade {
                max_retries: 8,
                base_backoff_s: 250e-6,
                recalibration_s: 500e-6,
                fallback_slowdown: 2.0,
            },
        );
        let availability = |r: &ServeReport| r.completed as f64 / r.admitted as f64;
        assert!(
            availability(&degrade) > availability(&none),
            "degrade {} vs none {}",
            availability(&degrade),
            availability(&none)
        );
        assert!(degrade.probes > 0);
    }

    #[test]
    fn detected_degradation_serves_slower_but_safe() {
        // The whole run sits inside a degraded (dead-lane) hazard.
        let none = faulted_run(
            degraded_window(0.0, f64::INFINITY, 2.0),
            crate::health::RecoveryPolicy::None,
        );
        let degrade = faulted_run(
            degraded_window(0.0, f64::INFINITY, 2.0),
            crate::health::RecoveryPolicy::Degrade {
                max_retries: 3,
                base_backoff_s: 250e-6,
                recalibration_s: 500e-6,
                fallback_slowdown: 2.0,
            },
        );
        // Both complete everything: a degraded hazard never fails windows.
        assert_eq!(none.completed, none.admitted);
        assert_eq!(degrade.completed, degrade.admitted);
        assert!(none.degraded > 0, "unmitigated service is accuracy-at-risk");
        assert!(degrade.degraded > 0);
        // Fallback mode pays real marginal time and leakage.
        assert!(
            degrade.joules_per_request > none.joules_per_request,
            "degrade {} vs none {}",
            degrade.joules_per_request,
            none.joules_per_request
        );
        assert!(degrade.p99_latency_s >= none.p99_latency_s);
    }

    #[test]
    fn deadlines_time_out_stale_requests_during_outage() {
        // The Degrade policy pauses through the outage; requests queued
        // during the pause overrun their 2 ms deadline and time out.
        let class = synthetic_class(1.0).with_deadline(2e-3).unwrap();
        let ctx = crate::health::FaultContext::new(
            fatal_window(0.0, 10e-3),
            crate::health::RecoveryPolicy::Degrade {
                max_retries: 2,
                base_backoff_s: 250e-6,
                recalibration_s: 500e-6,
                fallback_slowdown: 2.0,
            },
            crate::health::ProbeConfig::default(),
        )
        .unwrap();
        let config = ServeConfig {
            arrival_rate_hz: 2_000.0,
            duration_s: 0.02,
            ..ServeConfig::default()
        };
        let report = ServeEngine::with_faults(config, vec![class], ctx)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.timed_out > 0, "stale requests must time out");
        assert_eq!(
            report.completed + report.dropped + report.timed_out,
            report.admitted
        );
    }

    /// Every `serve/*` counter equals the report's total, and a zero
    /// total leaves no counter behind.
    fn assert_counters_match(trace: &phox_trace::Trace, report: &ServeReport) {
        use phox_trace::CounterValue;
        let totals = [
            ("admitted", report.admitted),
            ("rejected", report.rejected),
            ("completed", report.completed),
            ("dropped", report.dropped),
            ("timed_out", report.timed_out),
            ("retried", report.retried),
            ("degraded", report.degraded),
            ("windows", report.windows),
            ("probes", report.probes),
            ("failed_windows", report.failed_windows),
        ];
        let counters = trace.counters();
        for (name, total) in totals {
            let got = counters
                .iter()
                .find(|(t, n, _)| t == "serve" && n == name)
                .map(|(_, _, v)| *v);
            let want = (total != 0).then_some(CounterValue::Int(total as i64));
            assert_eq!(got, want, "serve/{name}");
        }
        let serve = counters.iter().filter(|(t, _, _)| t == "serve").count();
        assert_eq!(serve, totals.iter().filter(|(_, v)| *v != 0).count());
    }

    #[test]
    fn counters_equal_the_report_totals() {
        // An outage the policy pauses through, then a permanent
        // degradation, with deadlines and a small queue: every outcome a
        // counter names occurs.
        let timeline = crate::health::HazardTimeline::from_hazards(vec![
            crate::health::Hazard {
                onset_s: 0.0,
                clear_s: 5e-3,
                severity: crate::health::Severity::Fatal,
            },
            crate::health::Hazard {
                onset_s: 8e-3,
                clear_s: f64::INFINITY,
                severity: crate::health::Severity::Degraded {
                    marginal_slowdown: 2.0,
                    extra_leakage_w: 0.1,
                },
            },
        ])
        .unwrap();
        let ctx = crate::health::FaultContext::new(
            timeline,
            crate::health::RecoveryPolicy::Degrade {
                max_retries: 1,
                base_backoff_s: 250e-6,
                recalibration_s: 500e-6,
                fallback_slowdown: 2.0,
            },
            crate::health::ProbeConfig::default(),
        )
        .unwrap();
        let config = ServeConfig {
            arrival_rate_hz: 20_000.0,
            duration_s: 0.02,
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        let class = synthetic_class(1.0).with_deadline(2e-3).unwrap();
        let engine = ServeEngine::with_faults(config, vec![class.clone()], ctx).unwrap();
        let trace = phox_trace::Trace::new();
        let report = phox_trace::with_installed(trace.clone(), || engine.run().unwrap());
        for (name, total) in [
            ("rejected", report.rejected),
            ("dropped", report.dropped),
            ("timed_out", report.timed_out),
            ("retried", report.retried),
            ("degraded", report.degraded),
            ("failed_windows", report.failed_windows),
        ] {
            assert!(
                total > 0,
                "the run must produce {name}: {}",
                report.to_json()
            );
        }
        assert_counters_match(&trace, &report);

        // A fault-free run leaves the fault counters out entirely.
        let plain = ServeEngine::new(config, vec![class]).unwrap();
        let trace = phox_trace::Trace::new();
        let report = phox_trace::with_installed(trace.clone(), || plain.run().unwrap());
        assert_eq!(report.probes + report.failed_windows + report.retried, 0);
        assert_counters_match(&trace, &report);
    }

    #[test]
    fn degenerate_configs_rejected() {
        let classes = vec![synthetic_class(1.0)];
        let bad = |f: fn(&mut ServeConfig)| {
            let mut c = ServeConfig::default();
            f(&mut c);
            ServeEngine::new(c, classes.clone()).is_err()
        };
        assert!(bad(|c| c.max_batch = 0));
        assert!(bad(|c| c.queue_capacity = 0));
        assert!(bad(|c| c.batch_timeout_s = -1.0));
        assert!(bad(|c| c.arrival_rate_hz = 0.0));
        assert!(bad(|c| c.duration_s = 0.0));
        assert!(ServeEngine::new(ServeConfig::default(), Vec::new()).is_err());
    }
}
