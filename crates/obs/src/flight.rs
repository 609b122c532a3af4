//! Per-query flight recorder.
//!
//! The metrics registry aggregates process-global counters and
//! histograms; it answers "how is the fleet doing" but not "why was
//! *this* query slow / badly estimated". The flight recorder closes that
//! gap: while recording is on, each estimate builds a [`QueryTrace`] —
//! phase timings, per-elimination-step records with factor scopes and
//! widths, plan-cache hit/miss, decoded predicate masks, the final
//! estimate, and (when ground truth is later supplied) the q-error —
//! and deposits it in a bounded ring ([`TraceRing`]) that retains the
//! most recent traces plus the worst-by-latency and worst-by-q-error
//! ones.
//!
//! ## Cost discipline
//!
//! Recording is off by default. Every hook first checks a single relaxed
//! atomic ([`on`]); when recording is off no thread-local is touched and
//! nothing allocates, so the hooks can live permanently on the warm
//! estimate path (the `trace_overhead` bench gates the disabled-hook
//! cost at < 2% of warm latency). Label construction is lazy: [`begin`]
//! takes a closure that only runs when a trace is actually started.
//!
//! ## Threading
//!
//! The live trace is thread-local, so `estimate_batch` workers record
//! concurrently without coordination; query ids come from one process
//! atomic, so they stay unique under fan-out. Only [`finish`] (and the
//! later quality attach) takes the ring lock.
//!
//! ## Exporters
//!
//! * [`QueryTrace::to_explain_tree`] — a human-readable `EXPLAIN`-style
//!   tree (the `prmsel explain` output);
//! * [`to_chrome_trace`] — Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) (each
//!   query renders as one track of nested slices).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonWriter;

/// Global recording switch (one relaxed load on the hot path).
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Process-unique query-id source.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Whether recording is on. All other hooks no-op when this is false.
#[inline]
pub fn on() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turns recording on or off (traces already in the ring are kept).
pub fn set_recording(enabled: bool) {
    RECORDING.store(enabled, Ordering::Relaxed);
}

/// The process timing epoch; all trace timestamps are nanoseconds since
/// the first call.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process timing epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One timed phase of a query (compile, decode, eliminate, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRec {
    /// Phase name (static: phases are code locations, not data).
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub dur_ns: u64,
    /// Nesting depth at open time (0 = top level) — for tree rendering.
    pub depth: usize,
}

/// One variable elimination inside the inference replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ElimStepRec {
    /// Variable summed out.
    pub var: usize,
    /// Number of factors whose scopes contained it.
    pub n_factors: usize,
    /// Scope of the resulting (post-marginalization) factor.
    pub scope: Vec<usize>,
    /// Cells in the resulting factor (its dense width).
    pub width: u64,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub dur_ns: u64,
}

/// One decoded predicate mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredMaskRec {
    /// Network node the mask applies to.
    pub node: usize,
    /// Number of allowed codes.
    pub allowed: usize,
    /// Cardinality of the node's domain.
    pub card: usize,
}

/// The flight record of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Process-unique query id (unique across threads).
    pub id: u64,
    /// Human-readable query label.
    pub label: String,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End-to-end duration in ns (set by [`finish`]).
    pub total_ns: u64,
    /// Timed phases, in open order.
    pub phases: Vec<PhaseRec>,
    /// Per-elimination-step records, in execution order.
    pub elim_steps: Vec<ElimStepRec>,
    /// Decoded predicate masks, in predicate order.
    pub pred_masks: Vec<PredMaskRec>,
    /// `Some(true)` = plan-cache hit, `Some(false)` = miss + compile,
    /// `None` = the path did not consult the plan cache.
    pub plan_hit: Option<bool>,
    /// The final estimate.
    pub estimate: Option<f64>,
    /// Exact result size, when later supplied.
    pub truth: Option<u64>,
    /// q-error `max(S/Ŝ, Ŝ/S)` (sides clamped to ≥ 1), when truth known.
    pub q_error: Option<f64>,
}

impl QueryTrace {
    fn new(id: u64, label: String) -> Self {
        QueryTrace {
            id,
            label,
            start_ns: now_ns(),
            total_ns: 0,
            phases: Vec::new(),
            elim_steps: Vec::new(),
            pred_masks: Vec::new(),
            plan_hit: None,
            estimate: None,
            truth: None,
            q_error: None,
        }
    }
}

/// The live (being-recorded) trace of this thread.
struct ActiveTrace {
    trace: QueryTrace,
    /// Indices into `trace.phases` of the currently open phases.
    open: Vec<usize>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Box<ActiveTrace>>> = const { RefCell::new(None) };
    /// Id of the last trace this thread finished (quality attach target).
    static LAST_FINISHED: Cell<u64> = const { Cell::new(0) };
}

/// True when recording is on **and** this thread has a live trace — the
/// gate instrumentation uses before doing per-event work.
#[inline]
pub fn active() -> bool {
    on() && ACTIVE.with(|a| a.borrow().is_some())
}

/// Starts a trace for one query on this thread and returns whether it is
/// being recorded. `label` is only invoked when recording is on. A stale
/// live trace (a prior query that errored before [`finish`]) is
/// discarded.
pub fn begin(label: impl FnOnce() -> String) -> bool {
    if !on() {
        return false;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let trace = QueryTrace::new(id, label());
    ACTIVE.with(|a| {
        *a.borrow_mut() = Some(Box::new(ActiveTrace { trace, open: Vec::new() }))
    });
    true
}

/// Closes this thread's live trace with its final `estimate` and deposits
/// it in the ring. No-op when nothing is being recorded.
pub fn finish(estimate: f64) {
    if !on() {
        return;
    }
    let Some(mut active) = ACTIVE.with(|a| a.borrow_mut().take()) else {
        return;
    };
    active.trace.estimate = Some(estimate);
    active.trace.total_ns = now_ns().saturating_sub(active.trace.start_ns);
    // Close any phase left open by an early return.
    while let Some(idx) = active.open.pop() {
        let p = &mut active.trace.phases[idx];
        p.dur_ns = now_ns().saturating_sub(p.start_ns);
    }
    LAST_FINISHED.with(|l| l.set(active.trace.id));
    ring().push(active.trace);
}

/// Opens a timed phase on the live trace. The phase closes when the
/// returned guard drops. Free (no thread-local touched) when recording is
/// off.
#[must_use = "a phase measures until dropped"]
pub fn phase(name: &'static str) -> PhaseGuard {
    if !on() {
        return PhaseGuard { armed: false };
    }
    let armed = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(active) = a.as_mut() else { return false };
        let depth = active.open.len();
        let idx = active.trace.phases.len();
        active.trace.phases.push(PhaseRec { name, start_ns: now_ns(), dur_ns: 0, depth });
        active.open.push(idx);
        true
    });
    PhaseGuard { armed }
}

/// Guard returned by [`phase`]; closes the phase on drop.
pub struct PhaseGuard {
    armed: bool,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(active) = a.as_mut() else { return };
            let Some(idx) = active.open.pop() else { return };
            let p = &mut active.trace.phases[idx];
            p.dur_ns = now_ns().saturating_sub(p.start_ns);
        });
    }
}

/// Records the plan-cache outcome on the live trace.
pub fn plan_cache(hit: bool) {
    if !on() {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            active.trace.plan_hit = Some(hit);
        }
    });
}

/// Records one decoded predicate mask on the live trace.
pub fn pred_mask(node: usize, allowed: usize, card: usize) {
    if !on() {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            active.trace.pred_masks.push(PredMaskRec { node, allowed, card });
        }
    });
}

/// Records one elimination step on the live trace. Callers should gate on
/// [`active`] so scope/width extraction is skipped when off.
pub fn elim_step(
    var: usize,
    n_factors: usize,
    scope: &[usize],
    width: u64,
    start_ns: u64,
    dur_ns: u64,
) {
    if !on() {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            active.trace.elim_steps.push(ElimStepRec {
                var,
                n_factors,
                scope: scope.to_vec(),
                width,
                start_ns,
                dur_ns,
            });
        }
    });
}

/// Id of the trace this thread finished most recently (`0` = none yet).
/// The race-free way to retrieve a trace you just recorded — unlike
/// [`TraceRing::latest`], concurrent recorders on other threads cannot
/// interleave.
pub fn last_finished_id() -> u64 {
    LAST_FINISHED.with(|l| l.get())
}

/// Attaches ground truth (and the derived q-error) to the trace this
/// thread finished most recently. Suite evaluators estimate and then
/// score on the same worker thread, so the last-finished trace is the
/// right target.
pub fn attach_quality(truth: u64, q_error: f64) {
    if !on() {
        return;
    }
    let id = LAST_FINISHED.with(|l| l.get());
    if id == 0 {
        return;
    }
    ring().attach_quality(id, truth, q_error);
}

// ---------------------------------------------------------------------
// The ring.
// ---------------------------------------------------------------------

/// Default ring capacity when `PRMSEL_TRACE_RING` is unset.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Bounded store of finished traces: the `capacity` most recent, plus
/// the worst-by-latency and worst-by-q-error traces pinned so a burst of
/// healthy queries cannot rotate the interesting ones out.
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    capacity: usize,
    recent: VecDeque<QueryTrace>,
    worst_latency: Option<QueryTrace>,
    worst_q_error: Option<QueryTrace>,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Mutex::new(RingInner {
                capacity,
                recent: VecDeque::new(),
                worst_latency: None,
                worst_q_error: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn push(&self, trace: QueryTrace) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.recent.push_back(trace);
        while inner.recent.len() > inner.capacity {
            let evicted = inner.recent.pop_front().expect("ring is non-empty");
            inner.consider_pin(evicted);
        }
    }

    fn attach_quality(&self, id: u64, truth: u64, q_error: f64) {
        let mut inner = self.lock();
        // Most recently finished → search from the back.
        if let Some(t) = inner.recent.iter_mut().rev().find(|t| t.id == id) {
            t.truth = Some(truth);
            t.q_error = Some(q_error);
        }
    }

    /// Every retained trace: pinned worst cases first, then the recent
    /// window in finish order (deduplicated by id).
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        let inner = self.lock();
        let mut out: Vec<QueryTrace> = Vec::with_capacity(inner.recent.len() + 2);
        let pinned = inner
            .worst_latency
            .iter()
            .chain(inner.worst_q_error.iter())
            .chain(inner.recent.iter());
        for t in pinned {
            if !out.iter().any(|o| o.id == t.id) {
                out.push(t.clone());
            }
        }
        out
    }

    /// The most recently finished trace, if any.
    pub fn latest(&self) -> Option<QueryTrace> {
        self.lock().recent.back().cloned()
    }

    /// The trace with `id`, if retained.
    pub fn find(&self, id: u64) -> Option<QueryTrace> {
        let inner = self.lock();
        inner
            .recent
            .iter()
            .rev()
            .chain(inner.worst_latency.iter())
            .chain(inner.worst_q_error.iter())
            .find(|t| t.id == id)
            .cloned()
    }

    /// Number of retained traces (recent window + distinct pinned).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lock().recent.is_empty()
    }

    /// Drops every retained trace (capacity is kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.recent.clear();
        inner.worst_latency = None;
        inner.worst_q_error = None;
    }

    /// The pinned worst traces: `(worst by latency, worst by q-error)`.
    /// A trace is pinned when it is evicted from the recent window while
    /// being the worst seen so far on its axis, so a trace still inside
    /// the window may be worse than either pin — callers wanting the true
    /// worst should scan [`TraceRing::snapshot`] too.
    pub fn worst(&self) -> (Option<QueryTrace>, Option<QueryTrace>) {
        let inner = self.lock();
        (inner.worst_latency.clone(), inner.worst_q_error.clone())
    }

    /// Changes the recent-window capacity, evicting oldest entries into
    /// the pinned slots if over the new bound. `0` disables retention.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        while inner.recent.len() > capacity {
            let evicted = inner.recent.pop_front().expect("ring is non-empty");
            inner.consider_pin(evicted);
        }
    }
}

impl RingInner {
    /// An evicted trace survives if it is the worst seen so far on either
    /// axis.
    fn consider_pin(&mut self, evicted: QueryTrace) {
        let slower =
            self.worst_latency.as_ref().is_none_or(|w| evicted.total_ns > w.total_ns);
        if slower {
            self.worst_latency = Some(evicted.clone());
        }
        if let Some(q) = evicted.q_error {
            let worse =
                self.worst_q_error.as_ref().is_none_or(|w| q > w.q_error.unwrap_or(0.0));
            if worse {
                self.worst_q_error = Some(evicted);
            }
        }
    }
}

/// The process-global trace ring, sized by `PRMSEL_TRACE_RING` (default
/// [`DEFAULT_RING_CAPACITY`]) at first use.
pub fn ring() -> &'static TraceRing {
    static RING: OnceLock<TraceRing> = OnceLock::new();
    RING.get_or_init(|| {
        let capacity = std::env::var("PRMSEL_TRACE_RING")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY);
        TraceRing::new(capacity)
    })
}

// ---------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------

fn fmt_us(ns: u64) -> String {
    format!("{:.1} us", ns as f64 / 1e3)
}

impl QueryTrace {
    /// Renders the trace as a human-readable `EXPLAIN`-style tree: plan
    /// cache outcome, phases with timings, per-elimination-step factor
    /// scopes and widths, decoded predicate masks, and the estimate plus
    /// q-error when truth is known.
    pub fn to_explain_tree(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query #{}: {}  [{}]",
            self.id,
            self.label,
            fmt_us(self.total_ns)
        );
        let _ = writeln!(
            out,
            "├─ plan cache: {}",
            match self.plan_hit {
                Some(true) => "HIT (replay only)",
                Some(false) => "MISS (compiled this call)",
                None => "not consulted",
            }
        );
        if !self.pred_masks.is_empty() {
            let _ = writeln!(out, "├─ predicate masks:");
            for m in &self.pred_masks {
                let _ = writeln!(
                    out,
                    "│    node v{}: {}/{} codes allowed",
                    m.node, m.allowed, m.card
                );
            }
        }
        for p in &self.phases {
            let indent = "  ".repeat(p.depth);
            let _ = writeln!(out, "├─ {indent}phase {:<12} {}", p.name, fmt_us(p.dur_ns));
        }
        if !self.elim_steps.is_empty() {
            let _ = writeln!(out, "├─ elimination ({} steps):", self.elim_steps.len());
            for (i, s) in self.elim_steps.iter().enumerate() {
                let scope: Vec<String> =
                    s.scope.iter().map(|v| format!("v{v}")).collect();
                let _ = writeln!(
                    out,
                    "│    step {:>2}: sum out v{} ({} factors -> scope {{{}}}, width {})  {}",
                    i + 1,
                    s.var,
                    s.n_factors,
                    scope.join(","),
                    s.width,
                    fmt_us(s.dur_ns)
                );
            }
        }
        match self.estimate {
            Some(e) => {
                let _ = writeln!(out, "├─ estimate: {e:.1}");
            }
            None => {
                let _ = writeln!(out, "├─ estimate: (not finished)");
            }
        }
        match (self.truth, self.q_error) {
            (Some(t), Some(q)) => {
                let _ = writeln!(out, "└─ truth: {t}  q-error: {q:.2}");
            }
            _ => {
                let _ = writeln!(out, "└─ truth: (not supplied)");
            }
        }
        out
    }

    /// Appends this trace's Chrome `trace_event` complete events (`"ph":
    /// "X"`, timestamps in microseconds) to an open JSON array. Each
    /// query renders as its own track (`tid` = query id).
    fn write_chrome_events(&self, w: &mut JsonWriter) {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut event = |name: &str,
                         cat: &str,
                         start_ns: u64,
                         dur_ns: u64,
                         args: &[(&str, String)]| {
            w.begin_object();
            w.key("name");
            w.string(name);
            w.key("cat");
            w.string(cat);
            w.key("ph");
            w.string("X");
            w.key("ts");
            w.float(us(start_ns));
            w.key("dur");
            w.float(us(dur_ns));
            w.key("pid");
            w.uint(1);
            w.key("tid");
            w.uint(self.id);
            if !args.is_empty() {
                w.key("args");
                w.begin_object();
                for (k, v) in args {
                    w.key(k);
                    w.string(v);
                }
                w.end_object();
            }
            w.end_object();
        };
        let mut args: Vec<(&str, String)> = vec![(
            "plan",
            match self.plan_hit {
                Some(true) => "hit".to_owned(),
                Some(false) => "miss".to_owned(),
                None => "-".to_owned(),
            },
        )];
        if let Some(e) = self.estimate {
            args.push(("estimate", format!("{e}")));
        }
        if let Some(q) = self.q_error {
            args.push(("q_error", format!("{q}")));
        }
        event(
            &format!("query {}", self.label),
            "query",
            self.start_ns,
            self.total_ns,
            &args,
        );
        for p in &self.phases {
            event(p.name, "phase", p.start_ns, p.dur_ns, &[]);
        }
        for s in &self.elim_steps {
            event(
                &format!("sum out v{}", s.var),
                "elim",
                s.start_ns,
                s.dur_ns,
                &[
                    ("factors", s.n_factors.to_string()),
                    ("width", s.width.to_string()),
                    (
                        "scope",
                        format!(
                            "[{}]",
                            s.scope
                                .iter()
                                .map(|v| v.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        ),
                    ),
                ],
            );
        }
    }

    /// Number of Chrome events this trace exports (1 per query + 1 per
    /// phase + 1 per elimination step).
    pub fn chrome_event_count(&self) -> usize {
        1 + self.phases.len() + self.elim_steps.len()
    }
}

/// Renders traces as a plain JSON array of summary objects — the
/// `/traces` HTTP endpoint payload. Per trace: id, label, timing, plan
/// cache outcome, estimate/truth/q-error, the phase list with durations,
/// and counts of elimination steps and predicate masks (full step detail
/// stays in the Chrome export, which has a viewer for it).
pub fn to_json(traces: &[QueryTrace]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for t in traces {
        w.begin_object();
        w.key("id");
        w.uint(t.id);
        w.key("label");
        w.string(&t.label);
        w.key("start_ns");
        w.uint(t.start_ns);
        w.key("total_ns");
        w.uint(t.total_ns);
        w.key("plan");
        match t.plan_hit {
            Some(true) => w.string("hit"),
            Some(false) => w.string("miss"),
            None => w.raw("null"),
        }
        w.key("estimate");
        match t.estimate {
            Some(e) => w.float(e),
            None => w.raw("null"),
        }
        w.key("truth");
        match t.truth {
            Some(v) => w.uint(v),
            None => w.raw("null"),
        }
        w.key("q_error");
        match t.q_error {
            Some(q) => w.float(q),
            None => w.raw("null"),
        }
        w.key("phases");
        w.begin_array();
        for p in &t.phases {
            w.begin_object();
            w.key("name");
            w.string(p.name);
            w.key("dur_ns");
            w.uint(p.dur_ns);
            w.key("depth");
            w.uint(p.depth as u64);
            w.end_object();
        }
        w.end_array();
        w.key("elim_steps");
        w.uint(t.elim_steps.len() as u64);
        w.key("pred_masks");
        w.uint(t.pred_masks.len() as u64);
        w.end_object();
    }
    w.end_array();
    w.finish()
}

/// Renders traces as one Chrome `trace_event` JSON document (the object
/// form, `{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto.
pub fn to_chrome_trace(traces: &[QueryTrace]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ns");
    w.key("traceEvents");
    w.begin_array();
    for t in traces {
        t.write_chrome_events(&mut w);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording is process-global; tests that toggle it serialize here.
    fn with_recording<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_recording(true);
        let out = f();
        set_recording(false);
        out
    }

    fn record_one(label: &str, estimate: f64) -> u64 {
        assert!(begin(|| label.to_owned()));
        {
            let _p = phase("decode");
            pred_mask(3, 2, 18);
        }
        {
            let _p = phase("eliminate");
            elim_step(5, 2, &[1, 3], 126, now_ns(), 1_000);
        }
        plan_cache(true);
        finish(estimate);
        ring().latest().expect("trace retained").id
    }

    #[test]
    fn records_phases_steps_and_quality() {
        with_recording(|| {
            ring().clear();
            let id = record_one("t JOIN a", 42.0);
            attach_quality(21, 2.0);
            let t = ring().find(id).expect("trace in ring");
            assert_eq!(t.label, "t JOIN a");
            assert_eq!(t.phases.len(), 2);
            assert_eq!(t.phases[0].name, "decode");
            assert_eq!(t.elim_steps.len(), 1);
            assert_eq!(t.elim_steps[0].scope, vec![1, 3]);
            assert_eq!(t.elim_steps[0].width, 126);
            assert_eq!(t.pred_masks, vec![PredMaskRec { node: 3, allowed: 2, card: 18 }]);
            assert_eq!(t.plan_hit, Some(true));
            assert_eq!(t.estimate, Some(42.0));
            assert_eq!(t.truth, Some(21));
            assert_eq!(t.q_error, Some(2.0));
            let tree = t.to_explain_tree();
            assert!(tree.contains("plan cache: HIT"), "{tree}");
            assert!(tree.contains("width 126"), "{tree}");
            assert!(tree.contains("q-error: 2.00"), "{tree}");
        });
    }

    #[test]
    fn ring_retains_recent_and_worst() {
        with_recording(|| {
            let r = ring();
            r.clear();
            r.set_capacity(2);
            // A slow, badly-estimated query that will be evicted...
            assert!(begin(|| "slow".to_owned()));
            ACTIVE.with(|a| {
                a.borrow_mut().as_mut().unwrap().trace.start_ns =
                    now_ns().saturating_sub(5_000_000_000);
            });
            finish(1.0);
            attach_quality(1_000, 1_000.0);
            // ...by a burst of healthy ones.
            for i in 0..4 {
                record_one(&format!("fast {i}"), 1.0);
                attach_quality(1, 1.0);
            }
            let snap = r.snapshot();
            let labels: Vec<&str> = snap.iter().map(|t| t.label.as_str()).collect();
            assert!(labels.contains(&"slow"), "worst trace evicted: {labels:?}");
            assert!(labels.contains(&"fast 3"), "most recent missing: {labels:?}");
            assert_eq!(snap.iter().filter(|t| t.label == "slow").count(), 1);
            let worst = snap.iter().find(|t| t.label == "slow").unwrap();
            assert_eq!(worst.q_error, Some(1_000.0));
            r.set_capacity(DEFAULT_RING_CAPACITY);
            r.clear();
        });
    }

    #[test]
    fn stale_trace_is_discarded_by_the_next_begin() {
        with_recording(|| {
            ring().clear();
            assert!(begin(|| "errored".to_owned()));
            // No finish — simulates an estimate that returned Err.
            let id = record_one("after error", 7.0);
            assert_eq!(ring().find(id).unwrap().label, "after error");
            assert!(ring().snapshot().iter().all(|t| t.label != "errored"));
        });
    }

    #[test]
    fn chrome_export_counts_and_escapes() {
        with_recording(|| {
            ring().clear();
            let id = record_one("census \"age\"", 9.0);
            let t = ring().find(id).unwrap();
            let json = to_chrome_trace(std::slice::from_ref(&t));
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert_eq!(json.matches("\"ph\":\"X\"").count(), t.chrome_event_count());
            assert!(json.contains("census \\\"age\\\""), "{json}");
        });
    }
}
