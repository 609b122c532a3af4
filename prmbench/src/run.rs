//! One workload run in four phases: set-up (timed, repeated), warm-up,
//! the measured phase, and an untimed correctness and accuracy pass; the
//! workloads without a writer then run a refresh probe.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::HistogramSnapshot;
use prmsel::{
    DeltaState, MaintainOptions, Maintainer, PlanKey, PrmEstimator, PrmLearnConfig,
    SchemaInfo, SelectivityEstimator, UpdateBatch,
};
use reldb::{Database, Query};

use crate::gen::{self, QueryGen, Scale, Workload};
use crate::stats::{fastest_windows, median, percentile, LatHist, STEADY_SHARE};
use crate::trace::{ns_since, Layer, LayerStats, PlanCounters, Span, TracedEstimator};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Diagnostics for the result file.
    pub extra: Vec<(&'static str, f64)>,
    /// Correctness gates that failed.
    pub problems: Vec<String>,
    /// Chrome trace of the retained operations (traced run).
    pub trace_json: Option<String>,
}

pub struct RunConfig<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for the CSVs and the persisted model.
    pub data_dir: &'a Path,
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Set-up: CSV → model → serving estimator.
// ---------------------------------------------------------------------

struct Served {
    db: Database,
    est: Arc<PrmEstimator>,
    state: DeltaState,
}

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    csv_load_s: f64,
    learn_s: f64,
    stats_s: f64,
    climb_s: f64,
    assemble_s: f64,
    moves: f64,
    persist_ms: f64,
    precompile_ms: f64,
    par_tasks: f64,
    precompiled: f64,
}

/// CSV load → `learn_prm` → `save_model` → `load_model` → `from_parts` →
/// precompile of the workload's templates → `DeltaState::build` (every
/// workload refreshes its model, so the maintenance accumulators are part
/// of what it serves from).
fn set_up(dir: &Path, keys: &[PlanKey]) -> Result<(Served, SetupTimes), String> {
    let reg = obs::registry();
    let span_s = |name: &str| reg.histogram(name).sum() as f64 / 1e9;
    let learn_spans = || {
        ["stats", "climb", "assemble"].map(|p| span_s(&format!("span.prm.learn.{p}.ns")))
    };
    let moves = reg.counter("prm.search.moves.evaluated");
    let tasks = reg.counter("par.pool.tasks");
    let (spans0, moves0, tasks0) = (learn_spans(), moves.get(), tasks.get());

    let t0 = Instant::now();
    let db = cli::commands::load_csv_dir(dir).map_err(err)?;
    let t1 = Instant::now();
    let prm = prmsel::learn_prm(&db, &PrmLearnConfig::default()).map_err(err)?;
    let t2 = Instant::now();
    let schema = SchemaInfo::from_db(&db).map_err(err)?;
    let path = dir.join("model.prm");
    let mut file = BufWriter::new(File::create(&path).map_err(err)?);
    prmsel::save_model(&prm, &schema, &mut file).map_err(err)?;
    file.flush().map_err(err)?;
    drop(file);
    let (prm, schema) =
        prmsel::load_model(BufReader::new(File::open(&path).map_err(err)?))
            .map_err(err)?;
    let t3 = Instant::now();
    let est = PrmEstimator::from_parts(prm, schema, "PRM");
    let t4 = Instant::now();
    let precompiled = est.precompile(keys);
    let t5 = Instant::now();
    let state = DeltaState::build(&est.epoch().prm, &db).map_err(err)?;
    let t6 = Instant::now();

    let spans1 = learn_spans();
    let times = SetupTimes {
        total_s: (t6 - t0).as_secs_f64(),
        csv_load_s: (t1 - t0).as_secs_f64(),
        learn_s: (t2 - t1).as_secs_f64(),
        stats_s: spans1[0] - spans0[0],
        climb_s: spans1[1] - spans0[1],
        assemble_s: spans1[2] - spans0[2],
        moves: (moves.get() - moves0) as f64,
        persist_ms: ms(t3 - t2),
        precompile_ms: ms(t5 - t4),
        par_tasks: (tasks.get() - tasks0) as f64,
        precompiled: precompiled as f64,
    };
    Ok((Served { db, est: Arc::new(est), state }, times))
}

/// Template keys to precompile: the workload's templates, and for the
/// optimizer the sub-query templates `best_plan` estimates, hottest
/// first, up to the plan cache's capacity.
fn template_keys(w: Workload, qgen: &QueryGen) -> Result<Vec<PlanKey>, String> {
    /// Records the template of every estimate the planner asks for.
    struct KeyRecorder(Mutex<Vec<PlanKey>>);
    impl SelectivityEstimator for KeyRecorder {
        fn name(&self) -> &str {
            "keys"
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn estimate(&self, q: &Query) -> prmsel::Result<f64> {
            self.0.lock().expect("recorder lock").push(PlanKey::of(q));
            Ok(1.0)
        }
    }
    let mut keys: Vec<PlanKey> = Vec::new();
    for sql in qgen.template_sqls() {
        let q = reldb::parse_query(&sql).map_err(err)?;
        let found = if w == Workload::JoinOptimizer {
            let rec = KeyRecorder(Mutex::new(Vec::new()));
            prmsel::best_plan(&rec, &q).map_err(err)?;
            rec.0.into_inner().expect("recorder lock")
        } else {
            vec![PlanKey::of(&q)]
        };
        for k in found {
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys.truncate(prmsel::plan::DEFAULT_PLAN_CACHE_CAPACITY);
    Ok(keys)
}

// ---------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    /// `parse_query` + `PrmEstimator::estimate`.
    Estimate,
    /// `parse_query` + `best_plan`.
    Plan,
}

struct Phase<'a> {
    est: &'a PrmEstimator,
    kind: OpKind,
    counters: &'a PlanCounters,
    base: Instant,
    start: Instant,
    end: Instant,
    window: Duration,
    record: bool,
    /// Trace half the operations, picked by a hash of the operation's
    /// sequence number, so one run yields both the per-layer split and
    /// the tracing overhead, and both halves see the same swaps, the same
    /// neighbours and the same queries. (Tracing whole time slices
    /// instead aliases with the writer's 200 ms period.)
    trace: bool,
}

impl Phase<'_> {
    fn n_windows(&self) -> usize {
        ((self.end - self.start).as_nanos().div_ceil(self.window.as_nanos()) as usize)
            .max(1)
    }

    fn traced(&self, seq: u64) -> bool {
        self.trace && seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
    }
}

struct ClientOut {
    windows: Vec<LatHist>,
    attempted: u64,
    failed: u64,
    layers: LayerStats,
    /// The untraced operations of a traced run (the traced ones are in
    /// `layers.op`).
    untraced: LatHist,
}

fn answer_ok<E>(r: Result<f64, E>) -> bool {
    matches!(r, Ok(v) if v.is_finite() && v >= 0.0)
}

fn plain_op(p: &Phase, sql: &str) -> bool {
    match reldb::parse_query(sql) {
        Ok(q) => match p.kind {
            OpKind::Estimate => answer_ok(p.est.estimate(&q)),
            OpKind::Plan => answer_ok(prmsel::best_plan(p.est, &q).map(|plan| plan.cost)),
        },
        Err(_) => false,
    }
}

/// The same operation as [`plain_op`], with a span around each layer.
/// Timestamps are taken back to back and the spans built after the
/// operation ends, so the harness's own work between layers stays small.
fn traced_op(p: &Phase, sql: &str, op: u64, spans: &mut Vec<Span>) -> bool {
    let t0 = Instant::now();
    let parsed = reldb::parse_query(sql);
    let t1 = Instant::now();
    let mut planner = None;
    let mut direct = None;
    let mut calls = Vec::new();
    let ok = match parsed {
        Err(_) => false,
        Ok(q) => match p.kind {
            OpKind::Estimate => {
                let (r, layer, start, end) = p.counters.estimate(p.est, &q, p.base);
                direct = Some((layer, start, end));
                answer_ok(r)
            }
            OpKind::Plan => {
                let adapter = TracedEstimator {
                    inner: p.est,
                    counters: p.counters,
                    base: p.base,
                    calls: Mutex::new(Vec::with_capacity(4)),
                };
                let s = Instant::now();
                let r = prmsel::best_plan(&adapter, &q);
                planner = Some((s, Instant::now()));
                calls =
                    adapter.calls.into_inner().expect("adapter lock is never poisoned");
                answer_ok(r.map(|plan| plan.cost))
            }
        },
    };
    let t2 = Instant::now();
    let span = |layer, s: Instant, e: Instant, parent| Span {
        op,
        layer,
        start: ns_since(p.base, s),
        end: ns_since(p.base, e),
        parent,
    };
    spans.clear();
    spans.push(span(Layer::Op, t0, t2, None));
    spans.push(span(Layer::Parse, t0, t1, Some(Layer::Op)));
    let estimate_parent = match planner {
        Some((s, e)) => {
            spans.push(span(Layer::Planner, s, e, Some(Layer::Op)));
            Layer::Planner
        }
        None => Layer::Op,
    };
    for (layer, start, end) in direct.into_iter().chain(calls) {
        spans.push(Span { op, layer, start, end, parent: Some(estimate_parent) });
    }
    ok
}

/// A closed-loop client replaying its ring until the phase ends.
fn client(p: &Phase, ring: &[String], id: usize) -> ClientOut {
    let n = p.n_windows();
    let mut out = ClientOut {
        windows: if p.record { vec![LatHist::default(); n] } else { Vec::new() },
        attempted: 0,
        failed: 0,
        layers: LayerStats::default(),
        untraced: LatHist::default(),
    };
    let mut spans = Vec::with_capacity(8);
    let window_ns = p.window.as_nanos();
    for (seq, sql) in ring.iter().cycle().enumerate() {
        let t0 = Instant::now();
        if t0 >= p.end {
            break;
        }
        let w = (((t0 - p.start).as_nanos() / window_ns) as usize).min(n - 1);
        let (ok, ns) = if p.traced(seq as u64) {
            let ok = traced_op(p, sql, ((id as u64) << 48) | seq as u64, &mut spans);
            out.layers.add(&spans, !ok);
            (ok, spans[0].end - spans[0].start)
        } else {
            let ok = plain_op(p, sql);
            let ns = t0.elapsed().as_nanos() as u64;
            if p.trace {
                out.untraced.record(ns);
            }
            (ok, ns)
        };
        if p.record {
            out.windows[w].record(ns);
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Writer: update batch → serving epoch.
// ---------------------------------------------------------------------

/// Thread id the writer's spans carry in the Chrome trace.
const WRITER_TID: u64 = 255;

struct Writer<'a> {
    est: &'a Arc<PrmEstimator>,
    state: DeltaState,
    batches: Vec<UpdateBatch>,
    start: Instant,
    period: Duration,
    /// Run each cycle on this thread, timing apply → refit → drift →
    /// swap in `run_cycle`'s order (traced run), instead of through a
    /// `Maintainer` thread.
    inline: bool,
    base: Instant,
}

#[derive(Default)]
struct WriterOut {
    /// Scheduled send → epoch published.
    refresh_ms: Vec<f64>,
    /// Scheduled send → actual send.
    lag_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    refit_ms: Vec<f64>,
    drift_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    rows: u64,
    rejected: u64,
    published: u64,
    spans: Vec<Span>,
}

/// An open-loop writer: batch `i` is due at `start + i·period` whether or
/// not the previous refresh finished, and its refresh latency counts from
/// that due time.
fn write(w: Writer) -> WriterOut {
    let mut out = WriterOut::default();
    let rejected = obs::registry().counter("prm.maintain.rejected");
    let (seq0, rejected0) = (w.est.epoch_seq(), rejected.get());
    let mut state = Some(w.state);
    let maintainer = (!w.inline).then(|| {
        let state = state.take().expect("state not yet moved");
        Maintainer::spawn(w.est.clone(), state, MaintainOptions::default())
    });
    for (i, batch) in w.batches.into_iter().enumerate() {
        let due = w.start + w.period * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let rows = batch.rows();
        match (&maintainer, state.as_mut()) {
            (Some(m), _) => {
                if !m.submit(batch) {
                    out.rejected += 1;
                }
                m.flush();
            }
            (None, Some(state)) => {
                if cycle(w.est, state, &batch, i as u64, w.base, &mut out).is_err() {
                    out.rejected += 1;
                }
            }
            (None, None) => unreachable!("the state lives in the maintainer or here"),
        }
        let done = Instant::now();
        out.rows += rows;
        out.refresh_ms.push(ms(done - due));
        out.lag_ms.push(ms(sent - due));
    }
    if let Some(m) = maintainer {
        m.shutdown();
    }
    out.rejected += rejected.get() - rejected0;
    out.published = w.est.epoch_seq() - seq0;
    out
}

/// One maintenance cycle on the caller's thread, timed per layer.
fn cycle(
    est: &PrmEstimator,
    state: &mut DeltaState,
    batch: &UpdateBatch,
    i: u64,
    base: Instant,
    out: &mut WriterOut,
) -> prmsel::Result<()> {
    let t0 = Instant::now();
    state.apply(batch)?;
    let t1 = Instant::now();
    let ep = est.epoch();
    let fresh = state.refit(&ep.prm)?;
    let t2 = Instant::now();
    state.drift(&fresh)?;
    let t3 = Instant::now();
    est.replace_model(fresh, ep.schema.clone());
    let t4 = Instant::now();
    out.apply_ms.push(ms(t1 - t0));
    out.refit_ms.push(ms(t2 - t1));
    out.drift_ms.push(ms(t3 - t2));
    out.swap_ms.push(ms(t4 - t3));
    let op = (WRITER_TID << 48) | i;
    let span = |layer, s, e, parent| Span {
        op,
        layer,
        start: ns_since(base, s),
        end: ns_since(base, e),
        parent,
    };
    out.spans.push(span(Layer::MaintainCycle, t0, t4, None));
    for (layer, s, e) in [
        (Layer::Apply, t0, t1),
        (Layer::Refit, t1, t2),
        (Layer::Drift, t2, t3),
        (Layer::Swap, t3, t4),
    ] {
        out.spans.push(span(layer, s, e, Some(Layer::MaintainCycle)));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Accuracy.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Accuracy {
    qerrors: Vec<f64>,
    /// Cached estimates that differ in any bit from `estimate_uncached`.
    mismatches: u64,
    failures: u64,
}

/// `max(S/Ŝ, Ŝ/S)` with both sides clamped to ≥ 1, as `record_quality`.
fn qerror(truth: u64, estimate: f64) -> f64 {
    let t = truth.max(1) as f64;
    let e = estimate.max(1.0);
    (t / e).max(e / t)
}

fn accuracy(est: &PrmEstimator, truth: &Database, sqls: &[String]) -> Accuracy {
    let mut acc = Accuracy::default();
    for sql in sqls {
        let Ok(q) = reldb::parse_query(sql) else {
            acc.failures += 1;
            continue;
        };
        match (est.estimate(&q), est.estimate_uncached(&q), reldb::result_size(truth, &q))
        {
            (Ok(cached), Ok(reference), Ok(size)) => {
                if cached.to_bits() != reference.to_bits() {
                    acc.mismatches += 1;
                }
                if cached.is_finite() && cached >= 0.0 {
                    acc.qerrors.push(qerror(size, cached));
                } else {
                    acc.failures += 1;
                }
            }
            _ => acc.failures += 1,
        }
    }
    acc
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

/// Registry values read around the measured phase.
struct Registry {
    plan_hit: u64,
    plan_miss: u64,
    plan_evict: u64,
    reduce_hit: u64,
    reduce_miss: u64,
    kernel_ns: u64,
    compile_ns: HistogramSnapshot,
}

impl Registry {
    fn read() -> Registry {
        let r = obs::registry();
        Registry {
            plan_hit: r.counter("prm.plan.hit").get(),
            plan_miss: r.counter("prm.plan.miss").get(),
            plan_evict: r.counter("prm.plan.evict").get(),
            reduce_hit: r.counter("prm.plan.reduce.hit").get(),
            reduce_miss: r.counter("prm.plan.reduce.miss").get(),
            kernel_ns: r.histogram("bn.factor.kernel.ns").sum(),
            compile_ns: r.histogram("prm.plan.compile.ns").snapshot(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Interpolated quantile of a registry log₂ histogram (bucket `(b+1)/2
/// ..= b`), so a reading varies continuously rather than in powers of 2.
fn log2_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut seen = 0u64;
    for &(upper, n) in &h.buckets {
        if (seen + n) as f64 >= target {
            let lower = (upper / 2 + 1).min(upper) as f64;
            let frac = ((target - seen as f64) / n as f64).clamp(0.0, 1.0);
            return lower + frac * (upper as f64 - lower);
        }
        seen += n;
    }
    h.max as f64
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (w, seed, scale) = (cfg.workload, cfg.seed, &cfg.scale);
    let base = Instant::now();

    // Inputs, before any clock starts.
    let data = gen::data(w, scale);
    cli::commands::write_csv_dir(&data, cfg.data_dir).map_err(err)?;
    let qgen = QueryGen::new(w, &data).map_err(err)?;
    drop(data);
    let rings: Vec<Vec<String>> = (0..w.clients())
        .map(|k| qgen.batch(seed, gen::stream_client(k), scale.ring))
        .collect();
    let sample = qgen.accuracy_sample(scale.accuracy);
    let keys = template_keys(w, &qgen)?;
    let n_batches = scale.batches(w);
    let fresh = gen::second_draw(w, scale, n_batches * scale.batch_rows);

    // Set-up, repeated; the last one serves.
    let mut setups = Vec::with_capacity(scale.setups);
    let mut served = None;
    for _ in 0..scale.setups.max(1) {
        drop(served.take());
        let (s, t) = set_up(cfg.data_dir, &keys)?;
        served = Some(s);
        setups.push(t);
    }
    let Served { db, est, state } = served.expect("at least one set-up");
    let model_bytes = est.size_bytes() as f64;
    let slid =
        gen::sliding_batches(&db, w.slid_table(), &fresh, n_batches, scale.batch_rows)
            .map_err(err)?;
    drop(fresh);

    let counters = PlanCounters::default();
    let kind = if w == Workload::JoinOptimizer { OpKind::Plan } else { OpKind::Estimate };
    let phase = |start: Instant, len: Duration, record: bool| Phase {
        est: &est,
        kind,
        counters: &counters,
        base,
        start,
        end: start + len,
        window: scale.window,
        record,
        trace: record && cfg.trace,
    };

    // Warm-up.
    let warm = phase(Instant::now(), scale.warmup, false);
    std::thread::scope(|s| {
        for (id, ring) in rings.iter().enumerate() {
            let warm = &warm;
            s.spawn(move || client(warm, ring, id));
        }
    });

    // Measured phase; point-maintain's writer runs alongside the reader.
    let before = Registry::read();
    let measured = phase(Instant::now(), scale.measure, true);
    let mut state = Some(state);
    let mut batches = Some(slid.batches);
    let (clients, writer) = std::thread::scope(|s| {
        let writer = (w == Workload::PointMaintain).then(|| {
            let job = Writer {
                est: &est,
                state: state.take().expect("state"),
                batches: batches.take().expect("batches"),
                start: measured.start,
                period: scale.writer_period,
                inline: cfg.trace,
                base,
            };
            s.spawn(move || write(job))
        });
        let handles: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(id, ring)| {
                let measured = &measured;
                s.spawn(move || client(measured, ring, id))
            })
            .collect();
        let clients: Vec<ClientOut> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (clients, writer.map(|h| h.join().expect("writer thread")))
    });
    let after = Registry::read();

    // Correctness and accuracy, untimed.
    let truth = if w == Workload::PointMaintain {
        gen::live_database(&db, w.slid_table(), &slid.live).map_err(err)?
    } else {
        db
    };
    let acc = accuracy(&est, &truth, &sample);
    drop(truth);

    // The refresh probe of the workloads without a writer. A swap
    // recompiles every resident plan, so the probe serves from a copy of
    // the set-up state — the precompiled templates — rather than from
    // whichever templates the readers left resident.
    let writer = match writer {
        Some(out) => out,
        None => {
            let ep = est.epoch();
            let probe = Arc::new(PrmEstimator::from_parts(
                ep.prm.clone(),
                ep.schema.clone(),
                "PRM",
            ));
            probe.precompile(&keys);
            write(Writer {
                est: &probe,
                state: state.take().expect("state"),
                batches: batches.take().expect("batches"),
                start: Instant::now(),
                period: scale.probe_period,
                inline: cfg.trace,
                base,
            })
        }
    };

    // Gates.
    let mut attempted = 0;
    let mut failed = 0;
    let mut windows = vec![LatHist::default(); measured.n_windows()];
    let mut layers = LayerStats::default();
    let mut untraced = LatHist::default();
    for c in clients {
        attempted += c.attempted;
        failed += c.failed;
        for (all, mine) in windows.iter_mut().zip(&c.windows) {
            all.merge(mine);
        }
        layers.merge(c.layers);
        untraced.merge(&c.untraced);
    }
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} operations failed or were not finite"
        ));
    }
    if acc.mismatches > 0 {
        problems.push(format!(
            "{} accuracy-sample estimates differ from estimate_uncached",
            acc.mismatches
        ));
    }
    if acc.failures > 0 {
        problems.push(format!("{} accuracy-sample queries failed", acc.failures));
    }
    if writer.published != n_batches as u64 || writer.rejected > 0 {
        problems.push(format!(
            "{n_batches} batches submitted, {} epochs published, {} rejected",
            writer.published, writer.rejected
        ));
    }

    // Metrics.
    let window_s = scale.window.as_secs_f64();
    let (steady, n_steady) = fastest_windows(&windows, STEADY_SHARE);
    let steady_qps = steady.count() as f64 / (n_steady as f64 * window_s);
    let setup =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let memo_hit_ratio = ratio(
        after.reduce_hit - before.reduce_hit,
        (after.reduce_hit + after.reduce_miss) - (before.reduce_hit + before.reduce_miss),
    );
    let plan_hit_ratio = ratio(
        after.plan_hit - before.plan_hit,
        (after.plan_hit + after.plan_miss) - (before.plan_hit + before.plan_miss),
    );
    let op_ns: f64 = windows.iter().map(LatHist::sum_ns).sum();
    let mut all = LatHist::default();
    for h in &windows {
        all.merge(h);
    }

    // A closed-loop client's qps is the inverse of its op latency, so the
    // traced/untraced qps ratio is the inverse latency ratio of the two
    // halves, taken at the median: on point-maintain a handful of stalled
    // operations swing the mean of either half by ±15%.
    let untraced_p50 = untraced.quantile(0.5);
    let traced_p50 = layers.op.quantile(0.5);

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = if cfg.trace {
        let maintain_s: f64 =
            [&writer.apply_ms, &writer.refit_ms, &writer.drift_ms, &writer.swap_ms]
                .iter()
                .flat_map(|v| v.iter())
                .sum::<f64>()
                / 1e3;
        let l = &layers;
        vec![
            m("sql.parse.ns_p50", l.parse.quantile(0.5), "ns"),
            m("sql.parse.share", ratio_f(l.parse.sum_ns(), l.op.sum_ns()), "ratio"),
            m("estimate.memo_hit.ns_p50", l.memo_hit.quantile(0.5), "ns"),
            m("estimate.memo_hit.calls", l.memo_hit.count() as f64, "count"),
            m("memo.hit_ratio", memo_hit_ratio, "ratio"),
            m("estimate.replay.ns_p50", l.replay.quantile(0.5), "ns"),
            m("estimate.replay.ns_p99", l.replay.quantile(0.99), "ns"),
            m("estimate.replay.calls", l.replay.count() as f64, "count"),
            m(
                "kernel.ns_share",
                ratio_f((after.kernel_ns - before.kernel_ns) as f64, op_ns),
                "ratio",
            ),
            m("estimate.compile.ns_p50", l.compile.quantile(0.5), "ns"),
            m("estimate.compile.calls", l.compile.count() as f64, "count"),
            m(
                "plan.compile.ns_p50",
                log2_quantile(&after.compile_ns.delta(&before.compile_ns), 0.5),
                "ns",
            ),
            m("plan.hit_ratio", plan_hit_ratio, "ratio"),
            m("plan.evictions", (after.plan_evict - before.plan_evict) as f64, "count"),
            m("planner.self.ns_p50", l.planner_self.quantile(0.5), "ns"),
            m(
                "planner.estimates_per_op",
                ratio(l.planner_estimates, l.planner_calls),
                "count",
            ),
            m("setup.csv_load_s", setup(|t| t.csv_load_s), "s"),
            m("setup.learn_s", setup(|t| t.learn_s), "s"),
            m("setup.learn.stats_s", setup(|t| t.stats_s), "s"),
            m("setup.learn.climb_s", setup(|t| t.climb_s), "s"),
            m("setup.learn.assemble_s", setup(|t| t.assemble_s), "s"),
            m("setup.learn.moves_evaluated", setup(|t| t.moves), "count"),
            m("setup.persist_ms", setup(|t| t.persist_ms), "ms"),
            m("setup.precompile_ms", setup(|t| t.precompile_ms), "ms"),
            m("setup.par.tasks", setup(|t| t.par_tasks), "count"),
            m("maintain.apply.ms_p50", median(&writer.apply_ms), "ms"),
            m("maintain.refit.ms_p50", median(&writer.refit_ms), "ms"),
            m("maintain.drift.ms_p50", median(&writer.drift_ms), "ms"),
            m("maintain.swap.ms_p50", median(&writer.swap_ms), "ms"),
            m("maintain.rows_per_s", ratio_f(writer.rows as f64, maintain_s), "rows/s"),
            m(
                "maintain.writer_lag_ms_max",
                writer.lag_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            m("harness.unaccounted.ns_p50", l.unaccounted.quantile(0.5), "ns"),
            m(
                "trace.overhead_pct",
                100.0 * (1.0 - ratio_f(untraced_p50, traced_p50)),
                "%",
            ),
        ]
    } else {
        vec![
            m("qps", steady_qps, "ops/s"),
            m("latency_p50_us", steady.quantile(0.5) / 1e3, "us"),
            m("latency_p99_us", steady.quantile(0.99) / 1e3, "us"),
            m("setup_s", setup(|t| t.total_s), "s"),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
            m("model_bytes", model_bytes, "bytes"),
            m("qerror_p50", percentile(&acc.qerrors, 0.5), "ratio"),
            m("qerror_p99", percentile(&acc.qerrors, 0.99), "ratio"),
            m("refresh_p50_ms", percentile(&writer.refresh_ms, 0.5), "ms"),
            m("refresh_p90_ms", percentile(&writer.refresh_ms, 0.9), "ms"),
        ]
    };

    let mut extra = vec![
        ("ops.count", attempted as f64),
        ("error_rate", ratio(failed, attempted)),
        ("qps.all_windows", all.count() as f64 / (windows.len() as f64 * window_s)),
        ("latency_p50_us.all_windows", all.quantile(0.5) / 1e3),
        ("latency_p99_us.all_windows", all.quantile(0.99) / 1e3),
        ("memo.hit_ratio", memo_hit_ratio),
        ("plan.hit_ratio", plan_hit_ratio),
        ("accuracy.count", acc.qerrors.len() as f64),
        ("batches.published", writer.published as f64),
        ("batches.rejected", writer.rejected as f64),
        ("setup.precompiled", setup(|t| t.precompiled)),
    ];
    if cfg.trace {
        let l = &layers;
        let op = l.op.sum_ns();
        extra.extend([
            ("layer.parse.share", ratio_f(l.parse.sum_ns(), op)),
            ("layer.memo_hit.share", ratio_f(l.memo_hit.sum_ns(), op)),
            ("layer.replay.share", ratio_f(l.replay.sum_ns(), op)),
            ("layer.compile.share", ratio_f(l.compile.sum_ns(), op)),
            ("layer.planner_self.share", ratio_f(l.planner_self.sum_ns(), op)),
            ("layer.unaccounted.share", ratio_f(l.unaccounted.sum_ns(), op)),
            ("op.untraced_p50_ns", untraced_p50),
            ("op.traced_p50_ns", traced_p50),
        ]);
    }
    let mut retained = layers.retained;
    retained.extend(writer.spans);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        extra,
        problems,
        trace_json: cfg.trace.then(|| crate::trace::chrome_json(w.name(), &retained)),
    })
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every knob shrunk so a run takes well under a second.
    pub(crate) fn tiny_scale() -> Scale {
        Scale {
            census_rows: 500,
            tb: (40, 60, 500),
            setups: 1,
            warmup: Duration::ZERO,
            measure: Duration::from_millis(100),
            window: Duration::from_millis(25),
            ring: 256,
            accuracy: 40,
            batch_rows: 20,
            writer_period: Duration::from_millis(50),
            probe_batches: 1,
            probe_period: Duration::from_millis(5),
        }
    }

    fn declared(kind: &str) -> Vec<String> {
        let bench = obs::json::parse(include_str!("../../BENCHMARK.json")).expect("JSON");
        bench
            .get(kind)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_owned())
            .collect()
    }

    #[test]
    fn mini_runs_emit_every_declared_metric() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        for w in Workload::ALL {
            for trace in [false, true] {
                let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../.prmbench/test")
                    .join(format!("{}-{trace}-{}", w.name(), std::process::id()));
                let cfg = RunConfig {
                    workload: w,
                    seed: 5,
                    trace,
                    scale: tiny_scale(),
                    data_dir: &dir,
                };
                let out = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                let _ = std::fs::remove_dir_all(&dir);
                assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.problems);
                assert!(out.attempted > 0);
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                let want = if trace { &per_layer } else { &end_to_end };
                assert_eq!(names.len(), want.len(), "{} trace={trace}", w.name());
                for name in want {
                    assert!(names.contains(&name.as_str()), "{} lacks {name}", w.name());
                }
                assert!(out.metrics.iter().all(|m| m.value.is_finite()));
                assert_eq!(out.trace_json.is_some(), trace);
            }
        }
    }
}
