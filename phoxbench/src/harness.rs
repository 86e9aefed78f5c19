//! Closed-loop measurement, the correctness gate and trace harvesting,
//! shared by every workload.
//!
//! A workload is three legs. Each leg is one call sequence into the
//! crates' public API that returns an [`Output`]. The harness first runs
//! every leg once on one thread to get its reference output, once on
//! `nproc` threads, and then round-robin on one thread until the time
//! budget is spent: one client, each operation starting when the
//! previous one ends. Every operation must reproduce its reference
//! output bit for bit, or it counts as failed. The host-speed reference
//! kernel ([`crate::hostref`]) runs between operations and before each
//! set-up; the end-to-end figures are times relative to it.
//!
//! The traced run first runs one round with the counting allocator on,
//! then alternates untraced rounds with traced ones. A traced round
//! installs a fresh `phox_trace::Trace`, which collects the counters the
//! crates emit, while the benchmark's own host-clock spans (see [`span`])
//! time each call it makes into a crate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use phox_core::tensor::{parallel, Matrix};
use phox_core::trace::{self, CounterValue, Event, Kind, Trace, WallSpan};

use crate::alloc;
use crate::envelope::nproc;
use crate::hostref::{HostRef, NOMINAL_S};

/// Every timed phase runs at least this many rounds, whatever the budget.
const MIN_ROUNDS: usize = 3;
/// Worker threads of the timed rounds. The two vCPUs of the reference
/// host may share one physical core with other tenants (the envelope's
/// `parallel_efficiency` reads about 0.5 then); two-thread timings came
/// out bimodal from run to run, one-thread timings did not. The cost:
/// parallel partitioning, including the sparse kernels' degree-bucket
/// hub schedule, is checked in the `nproc` round but never timed.
const TIMED_THREADS: usize = 1;
/// Set-up runs this often before the legs; `setup_s` comes from these
/// runs and the interleaved ones below.
const SETUP_REPS: usize = 3;
/// During the untraced timed rounds, set-up runs again between
/// rounds while it has used less than this share of the elapsed time, so
/// its samples span the whole run like the legs' do instead of one
/// moment of a host whose speed drifts.
const SETUP_SHARE: f64 = 0.1;

/// FNV-1a 64 over a byte stream: the digest of outputs and golden values.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a library error for the gate's failure report.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What one operation of a leg produced.
pub enum Output {
    /// A numeric result, digested over its shape and exact bit patterns.
    Matrix(Matrix),
    /// A rendered result (figure JSON, report JSON, tables).
    Text(String),
}

impl Output {
    /// Digest over the exact bits of the output.
    pub fn digest(&self) -> u64 {
        match self {
            Output::Matrix(m) => {
                let (r, c) = m.shape();
                fnv1a(
                    (r as u64)
                        .to_le_bytes()
                        .into_iter()
                        .chain((c as u64).to_le_bytes())
                        .chain(m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())),
                )
            }
            Output::Text(s) => fnv1a(s.bytes()),
        }
    }

    /// The matrix, for oracles that compare values.
    pub fn matrix(&self) -> Option<&Matrix> {
        match self {
            Output::Matrix(m) => Some(m),
            Output::Text(_) => None,
        }
    }
}

/// One timed call sequence of a workload.
pub struct Leg<'a> {
    /// Leg name in reports, e.g. `decode_f64`.
    pub name: &'static str,
    /// The workload-specific end-to-end name the rate is reported under
    /// in the text report, e.g. `decode_tok_s`.
    pub alias: &'static str,
    /// Unit of `alias`, e.g. `tok/s`.
    pub alias_unit: &'static str,
    /// Multiplier from items/s to `alias_unit`.
    pub alias_scale: f64,
    /// Work items one operation completes (tokens, edge-layers, sweeps,
    /// simulated requests).
    pub items: f64,
    /// Runs one operation.
    pub run: Box<dyn FnMut() -> Result<Output, String> + 'a>,
}

/// Operations attempted and failed, with the names of the failures.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    failures: BTreeMap<String, u64>,
}

impl Gate {
    /// Counts one attempted operation or oracle; a `false` counts as failed.
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(what.to_owned()).or_insert(0) += 1;
        }
        ok
    }

    /// Each distinct failure with its count.
    pub fn failures(&self) -> impl Iterator<Item = (&String, &u64)> {
        self.failures.iter()
    }
}

thread_local! {
    /// The benchmark's own host-clock spans, and whether they record.
    static SPANS: RefCell<(Trace, bool)> = RefCell::new((Trace::new(), false));
}

/// Opens a host-clock span around a call the benchmark makes into
/// `layer`'s public API; a no-op outside the traced phases.
pub fn span(layer: &str, name: &str) -> WallSpan {
    SPANS.with(|s| {
        let s = s.borrow();
        if s.1 {
            s.0.wall_span(layer, name)
        } else {
            Trace::disabled().wall_span(layer, name)
        }
    })
}

/// Runs `f` inside a [`span`].
pub fn spanned<T>(layer: &str, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = span(layer, name);
    f()
}

/// Switches the benchmark's spans on or off.
pub fn set_spans(on: bool) {
    SPANS.with(|s| s.borrow_mut().1 = on);
}

/// Median of the recorded span durations, seconds, keyed `layer.name`,
/// with the sample count.
pub fn span_medians() -> BTreeMap<String, (f64, usize)> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in SPANS.with(|s| s.borrow().0.events()) {
        if let Kind::Span { dur_s, .. } = e.kind {
            by_name
                .entry(format!("{}.{}", e.track, e.name))
                .or_default()
                .push(dur_s);
        }
    }
    by_name
        .into_iter()
        .map(|(k, mut v)| {
            let n = v.len();
            (k, (median(&mut v), n))
        })
        .collect()
}

/// Median (mean of the middle pair for even counts); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest of p99/p90/p75/p50 with at least ten samples above it,
/// as `(percentile, value)`; `None` below twenty samples.
pub fn tail(v: &mut [f64]) -> Option<(u32, f64)> {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99u32, 90, 75, 50].into_iter().find_map(|p| {
        let rank = (n * p as usize).div_ceil(100).max(1);
        (n >= rank + 10).then(|| (p, v[rank - 1]))
    })
}

/// Per-leg operation times of one phase, seconds.
pub struct LegTimes {
    pub name: &'static str,
    pub alias: &'static str,
    pub alias_unit: &'static str,
    pub alias_scale: f64,
    pub items: f64,
    pub secs: Vec<f64>,
    /// The host-speed reference's time around each operation: the mean
    /// of its runs just before and just after the operation.
    pub ref_secs: Vec<f64>,
}

impl LegTimes {
    /// Median operation time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&mut self.secs.clone())
    }

    /// Items per second on a host that runs the reference kernel in
    /// [`NOMINAL_S`]: the median over operations of the operation's time
    /// divided by the reference time around it.
    pub fn rate(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .secs
            .iter()
            .zip(&self.ref_secs)
            .map(|(op, r)| op / r)
            .collect();
        self.items / (median(&mut ratios) * NOMINAL_S)
    }

    /// Items per host second at the median operation time.
    pub fn raw_rate(&self) -> f64 {
        self.items / self.median_s()
    }
}

fn leg_times(legs: &[Leg<'_>]) -> Vec<LegTimes> {
    legs.iter()
        .map(|l| LegTimes {
            name: l.name,
            alias: l.alias,
            alias_unit: l.alias_unit,
            alias_scale: l.alias_scale,
            items: l.items,
            secs: Vec::new(),
            ref_secs: Vec::new(),
        })
        .collect()
}

/// The process's peak resident set so far, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the traced phases recorded.
#[derive(Default)]
pub struct Traced {
    /// Library counters of one traced round, keyed `track.name`.
    pub counters: BTreeMap<String, i64>,
    /// Library events of the first traced round that issued kernels.
    pub events: Vec<Event>,
    /// Allocation calls and bytes of one untraced round.
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    /// Traced leg medians over untraced leg medians, minus one, in %.
    pub overhead_pct: f64,
}

/// One benchmark process: arguments, gate, timings and report.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub gate: Gate,
    /// Duration of each set-up repetition, seconds.
    pub setup_secs: Vec<f64>,
    /// The host-speed reference's time just before each set-up.
    setup_refs: Vec<f64>,
    /// Peak resident set after set-up and the 1-thread reference pass, MB.
    pub peak_rss_mb: f64,
    /// Untraced per-leg operation times.
    pub legs: Vec<LegTimes>,
    pub trace: Traced,
    /// Per-layer values a workload measures itself (replay rates, model
    /// clock, attribution), keyed by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Output digests to compare with the golden file: key, whether the
    /// output is the same for every seed, digest.
    pub pins: Vec<(String, bool, u64)>,
    /// Tokens and forward passes one round of the legs processes (0 when
    /// the workload has none), the bases of the per-token and
    /// per-forward metrics.
    pub tokens_per_round: f64,
    pub forwards_per_round: f64,
    /// Text report lines, printed before the result line.
    pub lines: Vec<String>,
    /// The host-speed reference.
    hostref: HostRef,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        set_spans(traced);
        Ctx {
            seed,
            seconds,
            traced,
            gate: Gate::default(),
            setup_secs: Vec::new(),
            setup_refs: Vec::new(),
            peak_rss_mb: 0.0,
            legs: Vec::new(),
            trace: Traced::default(),
            layer: BTreeMap::new(),
            pins: Vec::new(),
            tokens_per_round: 0.0,
            forwards_per_round: 0.0,
            lines: Vec::new(),
            hostref: HostRef::new(),
        }
    }

    /// Pins `digest` under `key` for the golden-file comparison.
    pub fn pin(&mut self, key: &str, seed_independent: bool, digest: u64) {
        self.pins.push((key.to_owned(), seed_independent, digest));
    }

    /// Runs `build` [`SETUP_REPS`] times on one thread, timing each, and
    /// keeps the last result. Each previous result is dropped before the
    /// next build so peak memory holds one copy.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let built = parallel::with_threads(TIMED_THREADS, || {
            let mut last = None;
            for _ in 0..SETUP_REPS {
                drop(last.take());
                last = Some(self.timed_setup(&mut build)?);
            }
            Ok(last.expect("set-up ran at least once"))
        });
        set_spans(false);
        built
    }

    /// One timed set-up, on the caller's thread setting (`with_threads`
    /// does not nest).
    fn timed_setup<T>(
        &mut self,
        build: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        self.setup_refs.push(self.hostref.time());
        let t0 = Instant::now();
        let built = build()?;
        self.setup_secs.push(t0.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Runs every leg once on one thread: the reference outputs the
    /// timed operations must reproduce, and the outputs the workload's
    /// value oracles inspect.
    pub fn reference(&mut self, legs: &mut [Leg<'_>]) -> Vec<Option<Output>> {
        let outs = parallel::with_threads(1, || {
            legs.iter_mut()
                .map(|leg| {
                    let out = (leg.run)();
                    if let Err(e) = &out {
                        self.lines.push(format!("error: {} failed: {e}", leg.name));
                    }
                    self.gate
                        .check(&format!("{} runs on one thread", leg.name), out.is_ok());
                    out.ok()
                })
                .collect()
        });
        // Taken here, before anything runs on several threads: per-thread
        // allocator arenas made later peaks vary from run to run.
        self.peak_rss_mb = peak_rss_mb() - HostRef::RESIDENT_MB;
        outs
    }

    /// The closed loop. One round first runs on `nproc` threads and must
    /// reproduce the 1-thread references; the timed rounds then run on
    /// one thread, with `rebuild` (the workload's set-up, its result
    /// dropped) interleaved into the untraced ones. Untraced, it fills
    /// [`Ctx::legs`]; traced, it also fills [`Ctx::trace`].
    pub fn measure(
        &mut self,
        legs: &mut [Leg<'_>],
        refs: &[Option<u64>],
        rebuild: &mut dyn FnMut() -> Result<(), String>,
    ) {
        parallel::with_threads(nproc(), || self.rounds(legs, refs, 0.0, 1, None));
        parallel::with_threads(TIMED_THREADS, || {
            if !self.traced {
                self.legs = self.rounds(legs, refs, self.seconds, MIN_ROUNDS, Some(rebuild));
                return;
            }
            let (_, calls, bytes) = alloc::count(|| self.rounds(legs, refs, 0.0, 1, None));
            self.trace.alloc_calls = calls;
            self.trace.alloc_bytes = bytes;
            // Untraced and traced rounds alternate, so drift in host speed
            // falls on both sides of the overhead ratio alike.
            let (mut plain, mut traced) = (leg_times(legs), leg_times(legs));
            let start = Instant::now();
            let mut done = 0;
            while done < MIN_ROUNDS || start.elapsed().as_secs_f64() < self.seconds {
                self.round(legs, refs, &mut plain);
                let tr = Trace::new();
                set_spans(true);
                trace::with_installed(tr.clone(), || self.round(legs, refs, &mut traced));
                set_spans(false);
                self.harvest(&tr);
                done += 1;
            }
            let sum = |t: &[LegTimes]| t.iter().map(LegTimes::median_s).sum::<f64>();
            self.trace.overhead_pct = (sum(&traced) / sum(&plain) - 1.0) * 100.0;
            self.legs = plain;
        });
    }

    fn rounds(
        &mut self,
        legs: &mut [Leg<'_>],
        refs: &[Option<u64>],
        budget_s: f64,
        min_rounds: usize,
        mut rebuild: Option<&mut dyn FnMut() -> Result<(), String>>,
    ) -> Vec<LegTimes> {
        let mut times = leg_times(legs);
        let start = Instant::now();
        let mut setup_s = 0.0;
        let mut done = 0;
        while done < min_rounds || start.elapsed().as_secs_f64() < budget_s {
            self.round(legs, refs, &mut times);
            done += 1;
            if let Some(rebuild) = &mut rebuild {
                if setup_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
                    let built = self.timed_setup(rebuild);
                    setup_s += self.setup_secs.last().copied().unwrap_or(0.0);
                    self.gate.check("set-up runs again", built.is_ok());
                }
            }
        }
        times
    }

    fn round(&mut self, legs: &mut [Leg<'_>], refs: &[Option<u64>], times: &mut [LegTimes]) {
        let mut before = self.hostref.time();
        for ((leg, reference), t) in legs.iter_mut().zip(refs).zip(times.iter_mut()) {
            let t0 = Instant::now();
            let out = (leg.run)();
            t.secs.push(t0.elapsed().as_secs_f64());
            let after = self.hostref.time();
            t.ref_secs.push(0.5 * (before + after));
            before = after;
            let ok = matches!((&out, reference), (Ok(o), Some(r)) if o.digest() == *r);
            self.gate.check(
                &format!("{} output equals its 1-thread reference", leg.name),
                ok,
            );
        }
    }

    /// Keeps the first traced round's counters (and kernel events), and
    /// checks every later round counts exactly the same work.
    fn harvest(&mut self, tr: &Trace) {
        let counters: BTreeMap<String, i64> = tr
            .counters()
            .into_iter()
            .map(|(track, name, v)| {
                let v = match v {
                    CounterValue::Int(i) => i,
                    CounterValue::Float(f) => f.round() as i64,
                };
                (format!("{track}.{name}"), v)
            })
            .collect();
        if self.trace.counters.is_empty() {
            let issues_kernels = ["gemm.calls", "int8.gemm_calls", "analog.matmuls"]
                .iter()
                .any(|k| counters.get(*k).is_some_and(|&c| c > 0));
            if issues_kernels {
                self.trace.events = tr.events();
            }
            self.trace.counters = counters;
        } else {
            let same = counters == self.trace.counters;
            self.gate
                .check("library counters repeat exactly across traced rounds", same);
        }
    }

    /// Set-up seconds on a host running the reference kernel in
    /// [`NOMINAL_S`], from the median set-up time over the reference time
    /// just before it.
    pub fn setup_s(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .setup_secs
            .iter()
            .zip(&self.setup_refs)
            .map(|(s, r)| s / r)
            .collect();
        median(&mut ratios) * NOMINAL_S
    }

    /// Traced-round counter `key`, 0 when the round never emitted it.
    pub fn counter(&self, key: &str) -> f64 {
        self.trace.counters.get(key).copied().unwrap_or(0) as f64
    }
}
