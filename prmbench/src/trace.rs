//! Spans at each layer boundary, recorded from the benchmark's side of
//! the public calls. A traced operation keeps its spans in a small
//! buffer; every span feeds the per-layer self-time histograms, and every
//! 64th operation (plus every failed one) is retained for the Chrome
//! `trace_event` file.

use std::sync::Mutex;
use std::time::Instant;

use obs::json::JsonWriter;
use obs::Counter;
use prmsel::{PrmEstimator, SelectivityEstimator};
use reldb::Query;

use crate::stats::LatHist;

/// Every layer a span can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Op,
    Parse,
    MemoHit,
    Replay,
    Compile,
    Planner,
    MaintainCycle,
    Apply,
    Refit,
    Drift,
    Swap,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Parse => "sql.parse",
            Layer::MemoHit => "estimate.memo_hit",
            Layer::Replay => "estimate.replay",
            Layer::Compile => "estimate.compile",
            Layer::Planner => "planner",
            Layer::MaintainCycle => "maintain.cycle",
            Layer::Apply => "maintain.apply",
            Layer::Refit => "maintain.refit",
            Layer::Drift => "maintain.drift",
            Layer::Swap => "maintain.swap",
        }
    }
}

/// One span: nanoseconds since the run's base instant.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: Option<Layer>,
}

/// Retain every `RETAIN_EVERY`-th traced operation.
pub const RETAIN_EVERY: u64 = 64;

pub fn ns_since(base: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(base).as_nanos() as u64
}

/// The plan-cache and memo counters one estimate call moves. Which of
/// them moved classifies the call: a plan miss is a compile, else a memo
/// miss is a masked replay, else the `P(E)` memo answered. With two
/// concurrent clients a neighbour's increment can land inside the window
/// and misfile a call; the error is bounded by the rarer path's rate.
pub struct PlanCounters {
    plan_miss: &'static Counter,
    reduce_miss: &'static Counter,
}

impl Default for PlanCounters {
    fn default() -> PlanCounters {
        let r = obs::registry();
        PlanCounters {
            plan_miss: r.counter("prm.plan.miss"),
            reduce_miss: r.counter("prm.plan.reduce.miss"),
        }
    }
}

impl PlanCounters {
    fn read(&self) -> (u64, u64) {
        (self.plan_miss.get(), self.reduce_miss.get())
    }

    fn classify(before: (u64, u64), after: (u64, u64)) -> Layer {
        if after.0 > before.0 {
            Layer::Compile
        } else if after.1 > before.1 {
            Layer::Replay
        } else {
            Layer::MemoHit
        }
    }

    /// `est.estimate(q)`, timed and classified.
    pub fn estimate(
        &self,
        est: &PrmEstimator,
        q: &Query,
        base: Instant,
    ) -> (prmsel::Result<f64>, Layer, u64, u64) {
        let t0 = Instant::now();
        let c0 = self.read();
        let r = est.estimate(q);
        let c1 = self.read();
        let t1 = Instant::now();
        (r, Self::classify(c0, c1), ns_since(base, t0), ns_since(base, t1))
    }
}

/// The timing adapter `best_plan` estimates through in a traced run: it
/// forwards every sub-query estimate and records it as a child span of
/// the planner.
pub struct TracedEstimator<'a> {
    pub inner: &'a PrmEstimator,
    pub counters: &'a PlanCounters,
    pub base: Instant,
    pub calls: Mutex<Vec<(Layer, u64, u64)>>,
}

impl SelectivityEstimator for TracedEstimator<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn estimate(&self, query: &Query) -> prmsel::Result<f64> {
        let (r, layer, s, e) = self.counters.estimate(self.inner, query, self.base);
        self.calls.lock().expect("adapter lock is never poisoned").push((layer, s, e));
        r
    }
}

/// Per-layer self times of the traced operations of one client.
#[derive(Default)]
pub struct LayerStats {
    pub op: LatHist,
    pub parse: LatHist,
    pub memo_hit: LatHist,
    pub replay: LatHist,
    pub compile: LatHist,
    pub planner_self: LatHist,
    pub unaccounted: LatHist,
    /// Sub-query estimates issued by `best_plan`, and `best_plan` calls.
    pub planner_estimates: u64,
    pub planner_calls: u64,
    pub retained: Vec<Span>,
    seq: u64,
}

impl LayerStats {
    /// Folds one traced operation. `spans[0]` is the root `op` span; an
    /// estimate span whose parent is the planner is the planner's child.
    pub fn add(&mut self, spans: &[Span], failed: bool) {
        let dur = |s: &Span| s.end.saturating_sub(s.start);
        let op = dur(&spans[0]);
        let mut covered = 0u64;
        let mut planner_children = 0u64;
        let mut planner = None;
        for s in &spans[1..] {
            let d = dur(s);
            let hist = match s.layer {
                Layer::Parse => Some(&mut self.parse),
                Layer::MemoHit => Some(&mut self.memo_hit),
                Layer::Replay => Some(&mut self.replay),
                Layer::Compile => Some(&mut self.compile),
                _ => None,
            };
            if let Some(h) = hist {
                h.record(d);
            }
            match (s.layer, s.parent) {
                (Layer::Planner, _) => {
                    planner = Some(d);
                    covered += d;
                }
                (_, Some(Layer::Planner)) => {
                    planner_children += d;
                    self.planner_estimates += 1;
                }
                _ => covered += d,
            }
        }
        if let Some(p) = planner {
            self.planner_self.record(p.saturating_sub(planner_children));
            self.planner_calls += 1;
        }
        self.op.record(op);
        self.unaccounted.record(op.saturating_sub(covered));
        if failed || self.seq.is_multiple_of(RETAIN_EVERY) {
            self.retained.extend_from_slice(spans);
        }
        self.seq += 1;
    }

    pub fn merge(&mut self, other: LayerStats) {
        self.op.merge(&other.op);
        self.parse.merge(&other.parse);
        self.memo_hit.merge(&other.memo_hit);
        self.replay.merge(&other.replay);
        self.compile.merge(&other.compile);
        self.planner_self.merge(&other.planner_self);
        self.unaccounted.merge(&other.unaccounted);
        self.planner_estimates += other.planner_estimates;
        self.planner_calls += other.planner_calls;
        self.retained.extend(other.retained);
    }
}

/// Chrome `trace_event` JSON (complete events, µs timestamps). `tid` is
/// the client, or the writer for maintenance cycles.
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ns");
    w.key("traceEvents");
    w.begin_array();
    for s in spans {
        w.begin_object();
        w.key("name");
        w.string(s.layer.name());
        w.key("cat");
        w.string(workload);
        w.key("ph");
        w.string("X");
        w.key("ts");
        w.float(s.start as f64 / 1e3);
        w.key("dur");
        w.float(s.end.saturating_sub(s.start) as f64 / 1e3);
        w.key("pid");
        w.uint(1);
        w.key("tid");
        w.uint(s.op >> 48);
        w.key("args");
        w.begin_object();
        w.key("op");
        w.uint(s.op);
        w.key("parent");
        w.string(s.parent.map_or("", Layer::name));
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<Layer>) -> Span {
        Span { op: 0, layer, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut s = LayerStats::default();
        s.add(
            &[
                span(Layer::Op, 0, 1000, None),
                span(Layer::Parse, 0, 100, Some(Layer::Op)),
                span(Layer::Planner, 100, 900, Some(Layer::Op)),
                span(Layer::Compile, 150, 450, Some(Layer::Planner)),
                span(Layer::MemoHit, 500, 600, Some(Layer::Planner)),
            ],
            false,
        );
        assert_eq!(s.planner_self.sum_ns(), 400.0);
        assert_eq!(s.unaccounted.sum_ns(), 100.0);
        assert_eq!(s.planner_estimates, 2);
        assert_eq!(s.retained.len(), 5, "op 0 is retained");
        let json = chrome_json("t", &s.retained);
        let v = obs::json::parse(&json).expect("valid JSON");
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 5);
    }
}
