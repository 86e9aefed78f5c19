//! Zero-dependency span/event tracing for the phox simulation stack.
//!
//! The paper's evaluation is an attribution exercise: which device,
//! memory, or digital stage do the joules and seconds go to? This crate
//! makes that attribution observable at runtime. A [`Trace`] records
//! named spans, instant events, and integer/float counters from any
//! thread; exporters emit the recording as JSONL or as Chrome
//! `trace_event` JSON loadable in `chrome://tracing` / Perfetto.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies.** crates.io is unreachable in this build
//!    environment; JSON is written with the in-tree writer ([`json`]).
//! 2. **Opt-in with near-zero disabled overhead.** Instrumentation sites
//!    guard on [`enabled`], a single relaxed atomic load while no thread
//!    has a trace installed, so benchmark numbers are unaffected when
//!    none is. An installed trace belongs to the thread that installed it
//!    (and the parallel workers it spawns), so it records that call tree
//!    only.
//! 3. **Deterministic exports.** Library instrumentation records only
//!    model-time quantities (simulated seconds, joules, counters, tile
//!    indices) — never wall clock — and the exporters sort events by
//!    content, so a fixed-seed run produces byte-identical output
//!    regardless of `PHOX_NUM_THREADS`. Wall-clock spans exist in the
//!    API ([`Trace::wall_span`]) for examples and ad-hoc profiling, but
//!    the simulators do not use them.
//!
//! A [`manifest::RunManifest`] (config digest, seeds, thread count,
//! workload id) rides along in the trace so every export is traceable to
//! the run that produced it.

#![warn(missing_docs)]

pub mod json;
pub mod manifest;

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use json::{json_number, json_string};
pub use manifest::{digest_of, RunManifest};

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer payload (counts, indices).
    Int(i64),
    /// Unsigned integer payload (sizes, keys).
    UInt(u64),
    /// Floating-point payload (energies, times, rates).
    Float(f64),
    /// String payload (names, classifications).
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn to_json(&self) -> String {
        match self {
            Value::Int(v) => format!("{v}"),
            Value::UInt(v) => format!("{v}"),
            Value::Float(v) => json_number(*v),
            Value::Str(s) => json_string(s),
        }
    }

    fn cmp_total(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::UInt(_) => 1,
                Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::UInt(a), Value::UInt(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// What kind of event a record is.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// A named interval. Times are in seconds; for simulator spans they
    /// are *model* time (simulated seconds), for wall spans real time
    /// relative to the trace epoch. `energy_j` carries the exact joules
    /// the stage added to its `EnergyLedger`, when applicable.
    Span {
        /// Interval start, seconds.
        start_s: f64,
        /// Interval duration, seconds.
        dur_s: f64,
        /// Joules attributed to this span, if it models an energy stage.
        energy_j: Option<f64>,
    },
    /// A point event with no duration.
    Instant,
    /// One point of a time series sampled in *model* time — queue depth,
    /// batch occupancy, in-flight requests. Unlike a counter (one
    /// aggregated value per track/name), samples keep every observation
    /// so the series' shape over time survives into the export.
    Sample {
        /// Model-time instant of the observation, seconds.
        t_s: f64,
        /// Observed value.
        value: f64,
    },
    /// A zero-duration event pinned to a *model-time* instant — a fault
    /// onset, a health-probe firing, a recalibration window. Unlike
    /// [`Kind::Instant`] (which has no timestamp), marks carry the
    /// simulated second they happened at, so exports place them on the
    /// timeline next to the spans they explain.
    Mark {
        /// Model-time instant of the occurrence, seconds.
        t_s: f64,
    },
}

impl Kind {
    fn rank(&self) -> u8 {
        match self {
            Kind::Span { .. } => 0,
            Kind::Instant => 1,
            Kind::Sample { .. } => 2,
            Kind::Mark { .. } => 3,
        }
    }
}

/// One recorded event: a span or an instant on a named track.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Track (Chrome "thread") the event belongs to, e.g. `"tron"`.
    pub track: String,
    /// Event name, e.g. `"stage/attention"`.
    pub name: String,
    /// Span or instant payload.
    pub kind: Kind,
    /// Key/value annotations, exported under `args`.
    pub args: Vec<(&'static str, Value)>,
}

fn event_cmp(a: &Event, b: &Event) -> Ordering {
    a.track
        .cmp(&b.track)
        .then_with(|| a.name.cmp(&b.name))
        .then_with(|| a.kind.rank().cmp(&b.kind.rank()))
        .then_with(|| match (&a.kind, &b.kind) {
            (
                Kind::Span {
                    start_s: s1,
                    dur_s: d1,
                    energy_j: e1,
                },
                Kind::Span {
                    start_s: s2,
                    dur_s: d2,
                    energy_j: e2,
                },
            ) => s1
                .total_cmp(s2)
                .then_with(|| d1.total_cmp(d2))
                .then_with(|| match (e1, e2) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => Ordering::Less,
                    (Some(_), None) => Ordering::Greater,
                }),
            (Kind::Sample { t_s: t1, value: v1 }, Kind::Sample { t_s: t2, value: v2 }) => {
                t1.total_cmp(t2).then_with(|| v1.total_cmp(v2))
            }
            (Kind::Mark { t_s: t1 }, Kind::Mark { t_s: t2 }) => t1.total_cmp(t2),
            _ => Ordering::Equal,
        })
        .then_with(|| {
            let mut it_a = a.args.iter();
            let mut it_b = b.args.iter();
            loop {
                match (it_a.next(), it_b.next()) {
                    (None, None) => return Ordering::Equal,
                    (None, Some(_)) => return Ordering::Less,
                    (Some(_), None) => return Ordering::Greater,
                    (Some((ka, va)), Some((kb, vb))) => {
                        let ord = ka.cmp(kb).then_with(|| va.cmp_total(vb));
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                }
            }
        })
}

/// Aggregated counter value: integer counters stay exact, float counters
/// accumulate as `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// Exact integer accumulator (invocation counts, MAC totals).
    Int(i64),
    /// Floating accumulator (joules, seconds).
    Float(f64),
}

#[derive(Default)]
struct State {
    events: Vec<Event>,
    // Keyed (track, name); BTreeMap gives deterministic iteration order.
    counters: BTreeMap<(String, String), CounterValue>,
    manifests: Vec<RunManifest>,
}

struct Inner {
    state: Mutex<State>,
    epoch: Instant,
}

/// A handle to a trace recording. Cheap to clone; all clones append to
/// the same underlying buffer. The disabled handle ([`Trace::disabled`])
/// drops every record on the floor without locking.
#[derive(Clone)]
pub struct Trace(Option<Arc<Inner>>);

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::disabled()
    }
}

impl Trace {
    /// A recording trace with an empty buffer.
    pub fn new() -> Trace {
        Trace(Some(Arc::new(Inner {
            state: Mutex::new(State::default()),
            epoch: Instant::now(),
        })))
    }

    /// The no-op trace: every recording method returns immediately.
    pub const fn disabled() -> Trace {
        Trace(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with_state<T>(&self, f: impl FnOnce(&mut State) -> T) -> Option<T> {
        self.0.as_ref().map(|inner| {
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut state)
        })
    }

    /// Records a model-time span: an interval in *simulated* seconds,
    /// optionally carrying the joules the stage contributed. This is the
    /// deterministic primitive the simulators use — no wall clock is read.
    pub fn model_span(
        &self,
        track: impl Into<String>,
        name: impl Into<String>,
        start_s: f64,
        dur_s: f64,
        energy_j: Option<f64>,
        args: Vec<(&'static str, Value)>,
    ) {
        if self.0.is_none() {
            return;
        }
        let event = Event {
            track: track.into(),
            name: name.into(),
            kind: Kind::Span {
                start_s,
                dur_s,
                energy_j,
            },
            args,
        };
        self.with_state(|s| s.events.push(event));
    }

    /// Records an instant (zero-duration) event.
    pub fn instant(
        &self,
        track: impl Into<String>,
        name: impl Into<String>,
        args: Vec<(&'static str, Value)>,
    ) {
        if self.0.is_none() {
            return;
        }
        let event = Event {
            track: track.into(),
            name: name.into(),
            kind: Kind::Instant,
            args,
        };
        self.with_state(|s| s.events.push(event));
    }

    /// Records one point of a model-time series — e.g. the queue depth
    /// or batch occupancy the serving simulator observes at simulated
    /// time `t_s`. Deterministic like [`Trace::model_span`]: only model
    /// time is recorded, and exports sort samples by `(t_s, value)`.
    pub fn sample(
        &self,
        track: impl Into<String>,
        name: impl Into<String>,
        t_s: f64,
        value: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        if self.0.is_none() {
            return;
        }
        let event = Event {
            track: track.into(),
            name: name.into(),
            kind: Kind::Sample { t_s, value },
            args,
        };
        self.with_state(|s| s.events.push(event));
    }

    /// Records a model-time mark: a zero-duration occurrence pinned to
    /// simulated second `t_s` — e.g. a fault onset, a calibration probe,
    /// or the start of a recovery window in the serving simulator.
    /// Deterministic like [`Trace::model_span`]: only model time is
    /// recorded, and exports sort marks by `t_s`.
    pub fn mark(
        &self,
        track: impl Into<String>,
        name: impl Into<String>,
        t_s: f64,
        args: Vec<(&'static str, Value)>,
    ) {
        if self.0.is_none() {
            return;
        }
        let event = Event {
            track: track.into(),
            name: name.into(),
            kind: Kind::Mark { t_s },
            args,
        };
        self.with_state(|s| s.events.push(event));
    }

    /// Adds `delta` to the integer counter `(track, name)`. Integer
    /// addition is commutative, so concurrent increments from worker
    /// threads stay deterministic.
    pub fn count(&self, track: &str, name: &str, delta: i64) {
        if self.0.is_none() {
            return;
        }
        self.with_state(|s| {
            let slot = s
                .counters
                .entry((track.to_owned(), name.to_owned()))
                .or_insert(CounterValue::Int(0));
            *slot = match *slot {
                CounterValue::Int(v) => CounterValue::Int(v.wrapping_add(delta)),
                CounterValue::Float(v) => CounterValue::Float(v + delta as f64),
            };
        });
    }

    /// Adds `delta` to the float counter `(track, name)`. Callers that
    /// need cross-thread determinism must accumulate from a serial
    /// section (float addition is not associative); the simulators only
    /// call this from their single-threaded model loops.
    pub fn accum(&self, track: &str, name: &str, delta: f64) {
        if self.0.is_none() {
            return;
        }
        self.with_state(|s| {
            let slot = s
                .counters
                .entry((track.to_owned(), name.to_owned()))
                .or_insert(CounterValue::Float(0.0));
            *slot = match *slot {
                CounterValue::Int(v) => CounterValue::Float(v as f64 + delta),
                CounterValue::Float(v) => CounterValue::Float(v + delta),
            };
        });
    }

    /// Attaches a [`RunManifest`] to the trace.
    pub fn push_manifest(&self, manifest: RunManifest) {
        self.with_state(|s| s.manifests.push(manifest));
    }

    /// Starts a wall-clock span; the interval is recorded when the
    /// returned guard drops. Wall time is inherently nondeterministic, so
    /// the simulators never call this — it exists for examples and ad-hoc
    /// profiling of the harness itself.
    pub fn wall_span(&self, track: impl Into<String>, name: impl Into<String>) -> WallSpan {
        match &self.0 {
            None => WallSpan(None),
            Some(inner) => WallSpan(Some(WallSpanActive {
                trace: self.clone(),
                track: track.into(),
                name: name.into(),
                start_s: inner.epoch.elapsed().as_secs_f64(),
                args: Vec::new(),
            })),
        }
    }

    /// Snapshot of all recorded events, sorted by content (track, name,
    /// kind, times, args). Content sorting — rather than insertion
    /// order — is what makes exports reproducible across thread counts.
    pub fn events(&self) -> Vec<Event> {
        let mut events = self.with_state(|s| s.events.clone()).unwrap_or_default();
        events.sort_by(event_cmp);
        events
    }

    /// Snapshot of all counters in deterministic `(track, name)` order.
    pub fn counters(&self) -> Vec<(String, String, CounterValue)> {
        self.with_state(|s| {
            s.counters
                .iter()
                .map(|((t, n), v)| (t.clone(), n.clone(), *v))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Snapshot of attached manifests, in push order.
    pub fn manifests(&self) -> Vec<RunManifest> {
        self.with_state(|s| s.manifests.clone()).unwrap_or_default()
    }

    /// Exports the trace as JSON Lines: one `manifest`, `counter`, or
    /// `event` object per line, deterministically ordered.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for m in self.manifests() {
            out.push_str("{\"type\":\"manifest\",\"manifest\":");
            out.push_str(&m.to_json());
            out.push_str("}\n");
        }
        for (track, name, value) in self.counters() {
            let v = match value {
                CounterValue::Int(v) => format!("{v}"),
                CounterValue::Float(v) => json_number(v),
            };
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"track\":{},\"name\":{},\"value\":{}}}\n",
                json_string(&track),
                json_string(&name),
                v
            ));
        }
        for e in self.events() {
            out.push_str(&event_jsonl(&e));
            out.push('\n');
        }
        out
    }

    /// Exports the trace in Chrome `trace_event` format (the JSON object
    /// form, `{"traceEvents":[...]}`), loadable in `chrome://tracing` and
    /// Perfetto. Tracks map to thread ids with `thread_name` metadata;
    /// span times map seconds → microseconds.
    pub fn export_chrome(&self) -> String {
        let events = self.events();
        let counters = self.counters();
        let manifests = self.manifests();

        // Stable track -> tid assignment, sorted by track name.
        let mut tracks: Vec<&str> = events
            .iter()
            .map(|e| e.track.as_str())
            .chain(counters.iter().map(|(t, _, _)| t.as_str()))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        let tid_of =
            |track: &str| -> usize { tracks.binary_search(&track).map(|i| i + 1).unwrap_or(0) };

        let mut records: Vec<String> = Vec::new();
        for (i, track) in tracks.iter().enumerate() {
            records.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_string(track)
            ));
        }
        for e in &events {
            records.push(event_chrome(e, tid_of(&e.track)));
        }
        for (track, name, value) in &counters {
            let v = match value {
                CounterValue::Int(v) => format!("{v}"),
                CounterValue::Float(v) => json_number(*v),
            };
            records.push(format!(
                "{{\"ph\":\"C\",\"name\":{},\"pid\":0,\"tid\":{},\"ts\":0.0,\
                 \"args\":{{\"value\":{}}}}}",
                json_string(name),
                tid_of(track),
                v
            ));
        }

        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&records.join(","));
        out.push(']');
        if let Some(m) = manifests.first() {
            out.push_str(",\"otherData\":");
            out.push_str(&m.to_json());
        }
        out.push('}');
        out
    }
}

fn args_json(args: &[(&'static str, Value)]) -> String {
    let fields = args
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), v.to_json()))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{fields}}}")
}

fn event_jsonl(e: &Event) -> String {
    match &e.kind {
        Kind::Span {
            start_s,
            dur_s,
            energy_j,
        } => {
            let energy = match energy_j {
                Some(j) => format!(",\"energy_j\":{}", json_number(*j)),
                None => String::new(),
            };
            format!(
                "{{\"type\":\"span\",\"track\":{},\"name\":{},\"start_s\":{},\
                 \"dur_s\":{}{},\"args\":{}}}",
                json_string(&e.track),
                json_string(&e.name),
                json_number(*start_s),
                json_number(*dur_s),
                energy,
                args_json(&e.args)
            )
        }
        Kind::Instant => format!(
            "{{\"type\":\"instant\",\"track\":{},\"name\":{},\"args\":{}}}",
            json_string(&e.track),
            json_string(&e.name),
            args_json(&e.args)
        ),
        Kind::Sample { t_s, value } => format!(
            "{{\"type\":\"sample\",\"track\":{},\"name\":{},\"t_s\":{},\
             \"value\":{},\"args\":{}}}",
            json_string(&e.track),
            json_string(&e.name),
            json_number(*t_s),
            json_number(*value),
            args_json(&e.args)
        ),
        Kind::Mark { t_s } => format!(
            "{{\"type\":\"mark\",\"track\":{},\"name\":{},\"t_s\":{},\"args\":{}}}",
            json_string(&e.track),
            json_string(&e.name),
            json_number(*t_s),
            args_json(&e.args)
        ),
    }
}

fn event_chrome(e: &Event, tid: usize) -> String {
    match &e.kind {
        Kind::Span {
            start_s,
            dur_s,
            energy_j,
        } => {
            let mut args = e.args.clone();
            if let Some(j) = energy_j {
                args.push(("energy_j", Value::Float(*j)));
            }
            format!(
                "{{\"ph\":\"X\",\"name\":{},\"pid\":0,\"tid\":{},\"ts\":{},\
                 \"dur\":{},\"args\":{}}}",
                json_string(&e.name),
                tid,
                json_number(start_s * 1e6),
                json_number(dur_s * 1e6),
                args_json(&args)
            )
        }
        Kind::Instant => format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"pid\":0,\"tid\":{},\
             \"ts\":0.0,\"args\":{}}}",
            json_string(&e.name),
            tid,
            args_json(&e.args)
        ),
        // Chrome counter events ("C") with a timestamp render time series
        // as stacked area charts in chrome://tracing / Perfetto.
        Kind::Sample { t_s, value } => format!(
            "{{\"ph\":\"C\",\"name\":{},\"pid\":0,\"tid\":{},\"ts\":{},\
             \"args\":{{\"value\":{}}}}}",
            json_string(&e.name),
            tid,
            json_number(t_s * 1e6),
            json_number(*value)
        ),
        // Marks are timestamped instants ("i") so they land on the model
        // timeline between the spans they annotate.
        Kind::Mark { t_s } => format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"pid\":0,\"tid\":{},\
             \"ts\":{},\"args\":{}}}",
            json_string(&e.name),
            tid,
            json_number(t_s * 1e6),
            args_json(&e.args)
        ),
    }
}

/// RAII guard returned by [`Trace::wall_span`]; records the span on drop.
pub struct WallSpan(Option<WallSpanActive>);

struct WallSpanActive {
    trace: Trace,
    track: String,
    name: String,
    start_s: f64,
    args: Vec<(&'static str, Value)>,
}

impl WallSpan {
    /// Attaches an argument to the span before it is recorded.
    pub fn arg(&mut self, key: &'static str, value: impl Into<Value>) {
        if let Some(active) = &mut self.0 {
            active.args.push((key, value.into()));
        }
    }
}

impl Drop for WallSpan {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let end_s = active
                .trace
                .0
                .as_ref()
                .map(|inner| inner.epoch.elapsed().as_secs_f64())
                .unwrap_or(active.start_s);
            active.trace.model_span(
                active.track,
                active.name,
                active.start_s,
                end_s - active.start_s,
                None,
                active.args,
            );
        }
    }
}

// --- per-thread install point ---------------------------------------------
//
// `phox_tensor::gemm` sits at the bottom of the dependency stack and is
// called from deep inside parallel tile loops; threading a `&Trace`
// parameter through every signature would churn the whole workspace API.
// Instead a handle is installed on the calling thread for the duration of
// a profiled run, and `phox_tensor::parallel` re-installs it in every
// worker it spawns, so a trace records exactly the call tree that
// installed it and nothing a concurrently running untraced caller does.
// `TRACING` counts the threads that hold a recording handle; the fast path
// for uninstrumented runs is one relaxed atomic load of it.

static TRACING: AtomicUsize = AtomicUsize::new(0);

/// This thread's handle. Dropping a recording handle at thread exit
/// releases its count in [`TRACING`].
struct Slot(RefCell<Trace>);

impl Drop for Slot {
    fn drop(&mut self) {
        if self.0.get_mut().is_enabled() {
            TRACING.fetch_sub(1, AtomicOrdering::Relaxed);
        }
    }
}

thread_local! {
    static ACTIVE: Slot = const { Slot(RefCell::new(Trace::disabled())) };
}

/// Whether a recording trace is installed on this thread. One relaxed
/// atomic load while no thread traces — instrumentation sites guard on
/// this before doing any work.
#[inline]
pub fn enabled() -> bool {
    TRACING.load(AtomicOrdering::Relaxed) != 0
        && ACTIVE
            .try_with(|slot| slot.0.borrow().is_enabled())
            .unwrap_or(false)
}

/// The handle installed on this thread (the disabled handle if none).
pub fn active() -> Trace {
    if TRACING.load(AtomicOrdering::Relaxed) == 0 {
        return Trace::disabled();
    }
    ACTIVE
        .try_with(|slot| slot.0.borrow().clone())
        .unwrap_or_default()
}

/// Installs `trace` as this thread's handle, returning the previous one.
/// Prefer [`with_installed`], which restores the previous handle when its
/// closure returns or unwinds.
pub fn install(trace: Trace) -> Trace {
    let now = trace.is_enabled();
    let prev = ACTIVE.with(|slot| slot.0.replace(trace));
    match (prev.is_enabled(), now) {
        (false, true) => {
            TRACING.fetch_add(1, AtomicOrdering::Relaxed);
        }
        (true, false) => {
            TRACING.fetch_sub(1, AtomicOrdering::Relaxed);
        }
        _ => {}
    }
    prev
}

struct Restore(Option<Trace>);

impl Drop for Restore {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            install(prev);
        }
    }
}

/// Runs `f` with `trace` installed on this thread, restoring the previous
/// handle afterwards (also on panic). Other threads keep their own
/// handles, so concurrently running callers never see each other's
/// records; nesting is allowed.
pub fn with_installed<T>(trace: Trace, f: impl FnOnce() -> T) -> T {
    let prev = install(trace);
    let _restore = Restore(Some(prev));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, name: &str, start: f64, dur: f64, j: f64) -> Event {
        Event {
            track: track.to_owned(),
            name: name.to_owned(),
            kind: Kind::Span {
                start_s: start,
                dur_s: dur,
                energy_j: Some(j),
            },
            args: vec![],
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        t.model_span("a", "b", 0.0, 1.0, Some(2.0), vec![]);
        t.count("a", "calls", 3);
        t.accum("a", "joules", 1.5);
        t.instant("a", "tick", vec![]);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert!(t.counters().is_empty());
        assert_eq!(t.export_jsonl(), "");
    }

    #[test]
    fn events_sort_by_content_not_insertion_order() {
        let t1 = Trace::new();
        t1.model_span("x", "b", 1.0, 1.0, None, vec![]);
        t1.model_span("x", "a", 0.0, 1.0, None, vec![]);
        let t2 = Trace::new();
        t2.model_span("x", "a", 0.0, 1.0, None, vec![]);
        t2.model_span("x", "b", 1.0, 1.0, None, vec![]);
        assert_eq!(t1.events(), t2.events());
        assert_eq!(t1.export_jsonl(), t2.export_jsonl());
        assert_eq!(t1.export_chrome(), t2.export_chrome());
    }

    #[test]
    fn counters_accumulate_and_merge_kinds() {
        let t = Trace::new();
        t.count("g", "calls", 2);
        t.count("g", "calls", 3);
        t.accum("g", "joules", 0.5);
        t.accum("g", "joules", 0.25);
        let counters = t.counters();
        assert_eq!(
            counters,
            vec![
                ("g".to_owned(), "calls".to_owned(), CounterValue::Int(5)),
                (
                    "g".to_owned(),
                    "joules".to_owned(),
                    CounterValue::Float(0.75)
                ),
            ]
        );
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let t = Trace::new();
        t.model_span(
            "tron",
            "stage/attention",
            0.0,
            2e-6,
            Some(3.5e-9),
            vec![("layer", Value::UInt(0))],
        );
        t.count("gemm", "calls", 7);
        t.push_manifest(RunManifest {
            workload: "w".to_owned(),
            config_digest: "00".to_owned(),
            seeds: vec![1],
            num_threads: 2,
        });
        let out = t.export_chrome();
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with('}'));
        assert!(out.contains("\"ph\":\"M\""));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"energy_j\":0.0000000035"));
        assert!(out.contains("\"otherData\""));
        // Spans on the "tron" track and counters on "gemm" get distinct tids.
        assert!(out.contains("\"name\":\"gemm\""));
        assert!(out.contains("\"name\":\"tron\""));
    }

    #[test]
    fn jsonl_orders_manifests_counters_events() {
        let t = Trace::new();
        t.model_span("a", "s", 0.0, 1.0, None, vec![]);
        t.count("a", "c", 1);
        t.push_manifest(RunManifest {
            workload: "w".to_owned(),
            config_digest: "00".to_owned(),
            seeds: vec![],
            num_threads: 1,
        });
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"manifest\""));
        assert!(lines[1].contains("\"type\":\"counter\""));
        assert!(lines[2].contains("\"type\":\"span\""));
    }

    #[test]
    fn event_sorting_is_total_over_floats() {
        let mut events = [
            span("t", "n", f64::NAN, 1.0, 0.0),
            span("t", "n", 1.0, 1.0, 0.0),
            span("t", "n", 0.0, 1.0, 0.0),
        ];
        events.sort_by(event_cmp);
        // total_cmp puts positive NaN after all finite values.
        assert!(matches!(events[0].kind, Kind::Span { start_s, .. } if start_s == 0.0));
        assert!(matches!(events[1].kind, Kind::Span { start_s, .. } if start_s == 1.0));
    }

    #[test]
    fn samples_sort_by_time_and_export_in_both_formats() {
        let t1 = Trace::new();
        t1.sample("serve", "queue_depth", 2.0e-3, 5.0, vec![]);
        t1.sample("serve", "queue_depth", 1.0e-3, 3.0, vec![]);
        let t2 = Trace::new();
        t2.sample("serve", "queue_depth", 1.0e-3, 3.0, vec![]);
        t2.sample("serve", "queue_depth", 2.0e-3, 5.0, vec![]);
        // Content sorting: insertion order does not matter.
        assert_eq!(t1.events(), t2.events());
        assert_eq!(t1.export_jsonl(), t2.export_jsonl());
        let jsonl = t1.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"sample\""));
        assert!(lines[0].contains("\"value\":3"));
        assert!(lines[1].contains("\"value\":5"));
        // Chrome export renders samples as timestamped counter events.
        let chrome = t1.export_chrome();
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("\"ts\":1000"));
        assert!(chrome.contains("\"ts\":2000"));
    }

    #[test]
    fn samples_rank_after_spans_and_instants() {
        let t = Trace::new();
        t.sample("x", "n", 0.0, 1.0, vec![]);
        t.instant("x", "n", vec![]);
        t.model_span("x", "n", 0.0, 1.0, None, vec![]);
        let events = t.events();
        assert!(matches!(events[0].kind, Kind::Span { .. }));
        assert!(matches!(events[1].kind, Kind::Instant));
        assert!(matches!(events[2].kind, Kind::Sample { .. }));
    }

    #[test]
    fn marks_sort_by_time_and_export_in_both_formats() {
        let t1 = Trace::new();
        t1.mark("serve", "probe", 2.0e-3, vec![("fatal", Value::Int(0))]);
        t1.mark("serve", "probe", 1.0e-3, vec![("fatal", Value::Int(1))]);
        let t2 = Trace::new();
        t2.mark("serve", "probe", 1.0e-3, vec![("fatal", Value::Int(1))]);
        t2.mark("serve", "probe", 2.0e-3, vec![("fatal", Value::Int(0))]);
        assert_eq!(t1.events(), t2.events());
        assert_eq!(t1.export_jsonl(), t2.export_jsonl());
        let jsonl = t1.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"mark\""));
        assert!(lines[0].contains("\"t_s\":0.001"));
        assert!(lines[1].contains("\"t_s\":0.002"));
        let chrome = t1.export_chrome();
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ts\":1000"));
    }

    #[test]
    fn marks_rank_after_samples() {
        let t = Trace::new();
        t.mark("x", "n", 0.0, vec![]);
        t.sample("x", "n", 0.0, 1.0, vec![]);
        let events = t.events();
        assert!(matches!(events[0].kind, Kind::Sample { .. }));
        assert!(matches!(events[1].kind, Kind::Mark { .. }));
    }

    #[test]
    fn disabled_trace_drops_samples() {
        let t = Trace::disabled();
        t.sample("a", "b", 0.0, 1.0, vec![]);
        assert!(t.events().is_empty());
    }

    #[test]
    fn with_installed_restores_previous_handle() {
        assert!(!enabled());
        let t = Trace::new();
        with_installed(t.clone(), || {
            assert!(enabled());
            active().count("k", "v", 1);
        });
        assert!(!enabled());
        assert_eq!(
            t.counters(),
            vec![("k".to_owned(), "v".to_owned(), CounterValue::Int(1))]
        );
    }

    #[test]
    fn concurrent_installs_never_see_each_others_records() {
        let traces: Vec<Trace> = (0..4).map(|_| Trace::new()).collect();
        let barrier = std::sync::Barrier::new(traces.len() + 1);
        std::thread::scope(|s| {
            for (i, t) in traces.iter().enumerate() {
                let barrier = &barrier;
                s.spawn(move || {
                    with_installed(t.clone(), || {
                        barrier.wait();
                        for _ in 0..100 {
                            active().count("thread", &i.to_string(), 1);
                        }
                        barrier.wait();
                    })
                });
            }
            // Every other thread is tracing now; this one is not.
            barrier.wait();
            assert!(!enabled());
            active().count("thread", "untraced", 1);
            barrier.wait();
        });
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(
                t.counters(),
                vec![("thread".to_owned(), i.to_string(), CounterValue::Int(100))]
            );
        }
    }

    #[test]
    fn nested_installs_restore_in_order() {
        let (outer, inner) = (Trace::new(), Trace::new());
        with_installed(outer.clone(), || {
            active().count("k", "outer", 1);
            with_installed(inner.clone(), || active().count("k", "inner", 1));
            with_installed(Trace::disabled(), || {
                assert!(!enabled());
                active().count("k", "dropped", 1);
            });
            active().count("k", "outer", 1);
        });
        assert_eq!(
            outer.counters(),
            vec![("k".to_owned(), "outer".to_owned(), CounterValue::Int(2))]
        );
        assert_eq!(
            inner.counters(),
            vec![("k".to_owned(), "inner".to_owned(), CounterValue::Int(1))]
        );
    }

    #[test]
    fn wall_span_records_on_drop() {
        let t = Trace::new();
        {
            let mut s = t.wall_span("harness", "setup");
            s.arg("n", 3u64);
        }
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "setup");
        assert!(matches!(events[0].kind, Kind::Span { dur_s, .. } if dur_s >= 0.0));
    }
}
