//! The unified estimator interface and adapters for every method in §5.
//!
//! Everything the paper benchmarks — AVI, MHIST, SAMPLE (single-table and
//! join), BN+UJ, and the PRM — answers relational [`Query`] values through
//! one trait, so the evaluation harness treats them interchangeably and
//! compares error at equal `size_bytes()`.

use std::collections::HashMap;
use std::sync::Arc;

use baselines::sample::JoinPath;
use baselines::{
    AviEstimator, JoinSampleEstimator, MhistEstimator, SampleEstimator, WaveletEstimator,
};
use reldb::{Database, Domain, Pred, Query};

use crate::error::{Error, Result};
use crate::learn::{learn_prm, PrmLearnConfig};
use crate::plan::{FactorCache, FoldCache, PlanCache, PlanKey, QueryPlan};
use crate::prm::Prm;
use crate::qebn::QueryEvalBn;
use crate::schema::SchemaInfo;
use crate::swap::EpochCell;

/// A selectivity estimator: maps a query to an estimated result size.
///
/// Estimators are immutable after construction (`estimate` takes `&self`),
/// and `Sync` is a supertrait so any estimator — including `&dyn` trait
/// objects — can answer independent queries from pool workers (see
/// [`estimate_batch`] and the suite evaluators in [`crate::metrics`]).
pub trait SelectivityEstimator: Sync {
    /// Short display name (e.g. `"PRM"`, `"SAMPLE"`).
    fn name(&self) -> &str;
    /// Storage footprint of the model, in bytes.
    fn size_bytes(&self) -> usize;
    /// Estimated result size (in tuples).
    fn estimate(&self, query: &Query) -> Result<f64>;
}

/// Default for `PRMSEL_PAR_THRESHOLD`: projected batch cost (ns) below
/// which `estimate_batch` stays on the caller's thread. Workers are now
/// persistent parked threads (see `prmsel-par`), so dispatch costs a
/// queue push + condvar wake (microseconds) instead of per-batch thread
/// spawns (milliseconds); ~2 ms of projected work is where fan-out
/// reliably pays for itself even on fast warm suites.
pub const DEFAULT_PAR_THRESHOLD_NS: u64 = 2_000_000;

fn par_threshold_ns() -> u64 {
    std::env::var("PRMSEL_PAR_THRESHOLD")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_PAR_THRESHOLD_NS)
}

/// Estimates a batch of independent queries, returning the estimates in
/// query order (first error wins, matching a serial loop). Queries share
/// no state, so this is pure fan-out; the per-query metrics each
/// estimator records remain exact under concurrency.
///
/// Small batches never reach the pool: the first query is timed as a
/// cost probe, and when the projected remaining work lands under
/// `PRMSEL_PAR_THRESHOLD` nanoseconds ([`DEFAULT_PAR_THRESHOLD_NS`]) the
/// rest runs serially on the caller's thread — dispatch and cross-thread
/// cache contention on a fast suite otherwise cost more than they buy
/// (the small-batch regression where 4-thread throughput landed below
/// 1-thread). The chosen path is counted in `par.batch.serial` /
/// `par.batch.parallel`.
pub fn estimate_batch<E: SelectivityEstimator + ?Sized>(
    estimator: &E,
    queries: &[Query],
) -> Result<Vec<f64>> {
    estimate_batch_with_threshold(estimator, queries, par_threshold_ns())
}

/// [`estimate_batch`] with an explicit serial-cutoff threshold (ns of
/// projected work) — exposed so tests and benches can pin the path.
pub fn estimate_batch_with_threshold<E: SelectivityEstimator + ?Sized>(
    estimator: &E,
    queries: &[Query],
    threshold_ns: u64,
) -> Result<Vec<f64>> {
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(queries.len());
    // Cost probe: time the first query (it also warms the plan cache for
    // its template, so the projection reflects the warm path the rest of
    // the batch will take only approximately — a miss-heavy batch skews
    // the probe up, which errs toward the pool).
    let probe_start = std::time::Instant::now();
    out.push(estimator.estimate(&queries[0])?);
    let est_cost = probe_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let rest = &queries[1..];
    let projected = est_cost.saturating_mul(rest.len() as u64);
    if par::threads() == 1 || projected < threshold_ns {
        obs::counter!("par.batch.serial").inc();
        for q in rest {
            out.push(estimator.estimate(q)?);
        }
        return Ok(out);
    }
    obs::counter!("par.batch.parallel").inc();
    let chunks = par::chunks(rest.len(), |range| {
        rest[range].iter().map(|q| estimator.estimate(q)).collect::<Vec<_>>()
    });
    for chunk in chunks {
        for r in chunk {
            out.push(r?);
        }
    }
    Ok(out)
}

impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for &T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn estimate(&self, query: &Query) -> Result<f64> {
        (**self).estimate(query)
    }
}

impl<T: SelectivityEstimator + ?Sized> SelectivityEstimator for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn estimate(&self, query: &Query) -> Result<f64> {
        (**self).estimate(query)
    }
}

/// Maps a predicate to matching dictionary codes using a captured domain.
fn codes_for_pred(domain: &Domain, pred: &Pred) -> Vec<u32> {
    match pred {
        Pred::Eq { value, .. } => domain.code(value).into_iter().collect(),
        Pred::In { values, .. } => {
            let mut codes: Vec<u32> =
                values.iter().filter_map(|v| domain.code(v)).collect();
            codes.sort_unstable();
            codes.dedup();
            codes
        }
        Pred::Range { lo, hi, .. } => domain.codes_in_range(*lo, *hi),
    }
}

/// Compact one-line rendering of a query for flight-recorder trace
/// labels: joined tables plus the predicated attributes, e.g.
/// `person JOIN house WHERE person.age, house.rooms`.
/// A human-readable *template* label for a query: tuple variables and
/// predicate attributes, constants excluded — the display counterpart of
/// [`crate::PlanKey::stable_hash_of`], used by flight-trace labels and
/// the per-template stats table.
pub fn query_label(query: &Query) -> String {
    let mut label = query.vars.join(" JOIN ");
    for (i, p) in query.preds.iter().enumerate() {
        label.push_str(if i == 0 { " WHERE " } else { ", " });
        if query.vars.len() > 1 {
            label.push_str(&query.vars[p.var()]);
            label.push('.');
        }
        label.push_str(p.attr());
    }
    label
}

fn expect_single_table(query: &Query, table: &str) -> Result<()> {
    if !query.is_single_table() || query.vars[0] != table {
        return Err(Error::Schema(reldb::Error::BadJoin(format!(
            "estimator was built for single-table queries over `{table}`"
        ))));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// PRM (and BN / BN+UJ, which are PRMs with restricted structure).
// ---------------------------------------------------------------------

/// One immutable serving generation of the PRM estimator: the model, the
/// schema snapshot it answers against, and every cache derived from them
/// (CPD factors, compiled plans, fold constants). Epochs are published
/// atomically through an [`EpochCell`] — an in-flight estimate pins the
/// epoch it started on and finishes there, so a concurrent
/// [`PrmEstimator::replace_model`] can never mix old parameters with new
/// plans (or vice versa) mid-query.
#[derive(Debug)]
pub struct ModelEpoch {
    /// The model answering queries in this epoch.
    pub prm: Prm,
    /// The schema snapshot captured when the model was (re)built.
    pub schema: SchemaInfo,
    pub(crate) factors: FactorCache,
    pub(crate) plans: PlanCache,
    pub(crate) folds: FoldCache,
    seq: u64,
    created_ms: u64,
}

impl ModelEpoch {
    fn new(prm: Prm, schema: SchemaInfo, seq: u64) -> Self {
        ModelEpoch {
            factors: FactorCache::new(&prm),
            prm,
            schema,
            plans: PlanCache::with_default_capacity(),
            folds: FoldCache::new(),
            seq,
            created_ms: obs::timeseries::now_ms(),
        }
    }

    /// The epoch sequence number (1 for the epoch built with the
    /// estimator, +1 per hot swap).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Wall-clock milliseconds when this epoch was assembled.
    pub fn created_ms(&self) -> u64 {
        self.created_ms
    }

    /// Compiles plans for `keys` into this epoch's plan cache (fanned out
    /// across the worker pool). Returns the number of plans inserted.
    pub fn precompile(&self, keys: &[PlanKey]) -> usize {
        let _span = obs::span("prm.plan.precompile");
        self.plans.precompile(&self.prm, &self.schema, &self.factors, &self.folds, keys)
    }

    /// Precompiles from the manifest named by `PRMSEL_PRECOMPILE`, if
    /// set. Failures (missing/corrupt manifest) are logged, never fatal:
    /// precompilation is an optimization, and the estimator answers
    /// correctly without it.
    fn precompile_from_env(&self) {
        // Register the counter even when idle so operators can tell
        // "precompile off" (0) apart from "not exported".
        obs::counter!("prm.plan.precompiled").add(0);
        let Ok(path) = std::env::var("PRMSEL_PRECOMPILE") else { return };
        if path.is_empty() {
            return;
        }
        let keys = match std::fs::File::open(&path)
            .map_err(|e| crate::Error::Internal(format!("open {path}: {e}")))
            .and_then(|f| crate::persist::load_manifest(std::io::BufReader::new(f)))
        {
            Ok(keys) => keys,
            Err(e) => {
                obs::warn!("PRMSEL_PRECOMPILE={path}: {e}; skipping precompilation");
                return;
            }
        };
        let n = self.precompile(&keys);
        obs::info!("precompiled {n} of {} manifest templates from {path}", keys.len());
    }
}

/// The paper's estimator: a PRM queried through query-evaluation BNs.
///
/// The exact-inference path is compile-once, estimate-many: CPD factors
/// are materialized once per model ([`FactorCache`]) and query templates
/// are compiled once into replayable plans ([`PlanCache`]) — see
/// [`crate::plan`]. Cached and uncached estimates are bit-identical.
///
/// Model state lives in an immutable [`ModelEpoch`] behind an
/// [`EpochCell`], so [`replace_model`](PrmEstimator::replace_model)
/// works through `&self` and hot-swaps the model under live traffic: the
/// new epoch is fully built (factors materialized, hot templates
/// recompiled) *before* it is published, and in-flight estimates finish
/// on the epoch they started with.
#[derive(Debug)]
pub struct PrmEstimator {
    name: String,
    epochs: EpochCell<ModelEpoch>,
}

impl PrmEstimator {
    fn from_epoch(name: String, epoch: ModelEpoch) -> Self {
        obs::gauge!("prm.model.bytes").set(epoch.prm.size_bytes() as f64);
        crate::maintain::note_model_refreshed(epoch.seq);
        PrmEstimator { name, epochs: EpochCell::new(epoch) }
    }

    /// Learns a PRM from the database and wraps it for estimation.
    pub fn build(db: &Database, config: &PrmLearnConfig) -> Result<Self> {
        let _span = obs::span("prm.build");
        let name = if config.allow_foreign_parents || config.max_ji_parents > 0 {
            "PRM"
        } else {
            "BN+UJ"
        };
        let prm = learn_prm(db, config)?;
        let schema = SchemaInfo::from_db(db)?;
        obs::info!(
            "built {} model: {} bytes over {} tables",
            name,
            prm.size_bytes(),
            prm.tables.len()
        );
        Ok(Self::from_epoch(name.to_owned(), ModelEpoch::new(prm, schema, 1)))
    }

    /// Wraps an already-learned PRM.
    pub fn from_prm(prm: Prm, db: &Database, name: impl Into<String>) -> Result<Self> {
        let schema = SchemaInfo::from_db(db)?;
        Ok(Self::from_epoch(name.into(), ModelEpoch::new(prm, schema, 1)))
    }

    /// Assembles an estimator from persisted artifacts (see
    /// [`crate::persist`]) — no database access needed at estimation time.
    pub fn from_parts(prm: Prm, schema: SchemaInfo, name: impl Into<String>) -> Self {
        let epoch = ModelEpoch::new(prm, schema, 1);
        epoch.precompile_from_env();
        Self::from_epoch(name.into(), epoch)
    }

    /// The current serving epoch. The returned `Arc` pins model, schema,
    /// and caches together: hold it across related calls when a
    /// consistent view matters (a later `epoch()` may observe a swap).
    pub fn epoch(&self) -> Arc<ModelEpoch> {
        self.epochs.load()
    }

    /// The current epoch sequence number (starts at 1, +1 per swap).
    pub fn epoch_seq(&self) -> u64 {
        self.epochs.seq()
    }

    /// Publishes a refreshed model (and schema snapshot) as a new epoch —
    /// the hot-reload path for maintenance (paper §6). All expensive work
    /// happens *before* the swap, off the request path: the new epoch's
    /// factors are materialized, the old epoch's resident templates are
    /// recompiled against the new model, and any `PRMSEL_PRECOMPILE`
    /// manifest is replayed. Traffic keeps answering from the old epoch
    /// until the single atomic publish; a refreshed model never answers
    /// from stale plans because plans live inside their epoch.
    pub fn replace_model(&self, prm: Prm, schema: SchemaInfo) {
        let _span = obs::span("prm.swap");
        let old = self.epochs.load();
        let next = ModelEpoch::new(prm, schema, old.seq + 1);
        next.plans.set_capacity(old.plans.capacity());
        // Warm the new epoch with the old epoch's hot templates so the
        // first post-swap estimate of each stays on the replay path.
        next.precompile(&old.plans.keys());
        next.precompile_from_env();
        obs::gauge!("prm.model.bytes").set(next.prm.size_bytes() as f64);
        let seq = next.seq;
        self.epochs.swap(Arc::new(next));
        obs::counter!("prm.maintain.swaps").inc();
        crate::maintain::note_model_refreshed(seq);
    }

    /// Caps the number of resident compiled plans (`0` disables plan
    /// caching; every estimate then compiles and discards its plan). The
    /// bound carries forward across [`replace_model`](Self::replace_model).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.epochs.load().plans.set_capacity(capacity);
    }

    /// Drops every compiled plan (cold-cache starting point for benches).
    pub fn clear_plan_cache(&self) {
        self.epochs.load().plans.clear();
    }

    /// Drops every resident plan's evidence-signature memo while keeping
    /// the plans themselves — the memo-*miss* starting point for benches:
    /// the next estimate replays the masked suffix but skips compilation.
    pub fn clear_reduce_memos(&self) {
        self.epochs.load().plans.clear_reduce_memos();
    }

    /// The templates currently resident in the plan cache, most recently
    /// used first — the natural contents of a precompile manifest (see
    /// [`crate::save_manifest`]).
    pub fn plan_keys(&self) -> Vec<PlanKey> {
        self.epochs.load().plans.keys()
    }

    /// Compiles plans for `keys` ahead of queries (fanned out across the
    /// worker pool), so first touches of those templates hit the plan
    /// cache and pay only the evidence-dependent replay suffix. Keys that
    /// are already resident or fail to compile are skipped. Returns the
    /// number of plans inserted.
    pub fn precompile(&self, keys: &[PlanKey]) -> usize {
        self.epochs.load().precompile(keys)
    }

    /// Number of resident compiled plans.
    pub fn plan_cache_len(&self) -> usize {
        self.epochs.load().plans.len()
    }

    /// Whether `query`'s template already has a resident plan.
    pub fn has_cached_plan(&self, query: &Query) -> bool {
        self.epochs.load().plans.contains(&PlanKey::of(query))
    }

    /// Resident entries in the reduced-factor memo of `query`'s plan, or
    /// `None` when no plan is resident — introspection for tests and
    /// tools.
    pub fn reduce_memo_len(&self, query: &Query) -> Option<usize> {
        self.epochs.load().plans.peek(query).map(|p| p.reduce_memo_len())
    }

    /// Builds (without evaluating) the query-evaluation network — exposed
    /// for inspection and tests.
    pub fn unroll(&self, query: &Query) -> Result<QueryEvalBn> {
        let ep = self.epochs.load();
        Ok(QueryEvalBn::build(&ep.prm, &ep.schema, query)?)
    }

    /// Exact estimate that bypasses the plan cache entirely: the template
    /// is compiled fresh and the plan discarded. This is the second rung
    /// of the degradation ladder ([`crate::ResilientEstimator`]) — after a
    /// panic on the cached path, a fresh compile sidesteps any poisoned
    /// resident plan while still answering exactly.
    pub fn estimate_uncached(&self, query: &Query) -> Result<f64> {
        let ep = self.epochs.load();
        ep.schema.validate_query(query)?;
        let plan = QueryPlan::compile(&ep.prm, &ep.schema, &ep.factors, query)?;
        plan.estimate(&ep.schema, query)
    }

    /// Explains an estimate: the upward closure, the unrolled network's
    /// size, the query probability, and the final arithmetic — the trace
    /// a DBA would want when an optimizer picks a surprising plan.
    pub fn explain(&self, query: &Query) -> Result<String> {
        use std::fmt::Write;
        let ep = self.epochs.load();
        let qebn = QueryEvalBn::build(&ep.prm, &ep.schema, query)?;
        let p = bayesnet::probability_of_evidence(&qebn.bn, &qebn.evidence);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "upward closure Q+ ({} tuple variables):",
            qebn.closure_tables.len()
        );
        for (v, &t) in qebn.closure_tables.iter().enumerate() {
            let introduced =
                if v < query.vars.len() { "" } else { "  [introduced by closure]" };
            let _ = writeln!(
                out,
                "  v{v}: {} (|T| = {}){introduced}",
                ep.prm.tables[t].table, ep.prm.tables[t].n_rows
            );
        }
        let _ = writeln!(
            out,
            "query-evaluation network: {} nodes ({} bytes of relevant CPDs)",
            qebn.bn.len(),
            qebn.bn.size_bytes()
        );
        let _ = writeln!(out, "P(selects AND joins) = {p:.3e}");
        let product: f64 =
            qebn.closure_tables.iter().map(|&t| ep.prm.tables[t].n_rows as f64).product();
        let _ = writeln!(out, "estimate = {product:.0} x {p:.3e} = {:.1}", product * p);
        Ok(out)
    }
}

impl SelectivityEstimator for PrmEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn size_bytes(&self) -> usize {
        self.epochs.load().prm.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        let start = std::time::Instant::now();
        failpoint::fail_point!("estimate.query").map_err(Error::from)?;
        // Pin the serving epoch once: the whole estimate — validation,
        // plan lookup/compile, replay — runs against one consistent
        // (model, schema, caches) generation even if a swap lands now.
        let ep = self.epochs.load();
        ep.schema.validate_query(query)?;
        obs::flight::begin(|| query_label(query));
        // Template attribution is gated like the flight recorder: one
        // relaxed load when off, hash + thread-local store when on.
        let template = if crate::metrics::template_telemetry_on() {
            let h = PlanKey::stable_hash_of(query);
            crate::metrics::set_current_template(h);
            h
        } else {
            0
        };
        let (plan, warm) = {
            let _plan_phase = obs::flight::phase("plan");
            ep.plans.get_or_compile(query, || {
                QueryPlan::compile_with(
                    &ep.prm,
                    &ep.schema,
                    &ep.factors,
                    query,
                    Some(&ep.folds),
                )
            })?
        };
        obs::histogram!("prm.qebn.nodes").record(plan.n_nodes() as u64);
        let est = plan.estimate(&ep.schema, query)?;
        obs::flight::finish(est);
        obs::counter!("prm.estimate.calls").inc();
        let elapsed = start.elapsed();
        obs::histogram!("prm.estimate.ns").record_duration(elapsed);
        if template != 0 && warm {
            // Warm latency only: replays of a cached plan are the
            // steady-state a per-template SLO is about — folding the
            // one-off compile in would poison the distribution.
            let name = obs::openmetrics::labeled(
                "prm.estimate.warm.ns",
                &[("template", &crate::metrics::template_label(template))],
            );
            obs::registry().histogram(&name).record_duration(elapsed);
        }
        Ok(est)
    }
}

// ---------------------------------------------------------------------
// AVI.
// ---------------------------------------------------------------------

/// AVI over one table, answering relational queries.
#[derive(Debug)]
pub struct AviAdapter {
    table: String,
    domains: HashMap<String, Domain>,
    inner: AviEstimator,
}

impl AviAdapter {
    /// Builds exact per-attribute histograms for `table`.
    pub fn build(db: &Database, table: &str) -> Result<Self> {
        let t = db.table(table)?;
        let mut domains = HashMap::new();
        for attr in t.schema().value_attrs() {
            domains.insert(attr.to_owned(), t.domain(attr)?.clone());
        }
        Ok(AviAdapter { table: table.to_owned(), domains, inner: AviEstimator::build(t) })
    }
}

impl SelectivityEstimator for AviAdapter {
    fn name(&self) -> &str {
        "AVI"
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        let start = std::time::Instant::now();
        expect_single_table(query, &self.table)?;
        let preds: Vec<(String, Vec<u32>)> = query
            .preds
            .iter()
            .map(|p| {
                let domain = self.domains.get(p.attr()).ok_or_else(|| {
                    Error::Schema(reldb::Error::UnknownAttr {
                        table: self.table.clone(),
                        attr: p.attr().to_owned(),
                    })
                })?;
                Ok((p.attr().to_owned(), codes_for_pred(domain, p)))
            })
            .collect::<Result<_>>()?;
        let est = self.inner.estimate(&preds);
        obs::histogram!("est.avi.estimate.ns").record_duration(start.elapsed());
        Ok(est)
    }
}

// ---------------------------------------------------------------------
// MHIST.
// ---------------------------------------------------------------------

/// MHIST over a fixed attribute subset of one table.
#[derive(Debug)]
pub struct MhistAdapter {
    table: String,
    attrs: Vec<String>,
    domains: Vec<Domain>,
    inner: MhistEstimator,
}

impl MhistAdapter {
    /// Builds an MHIST over `attrs` of `table` within `budget_bytes`.
    pub fn build(
        db: &Database,
        table: &str,
        attrs: &[&str],
        budget_bytes: usize,
    ) -> Result<Self> {
        let t = db.table(table)?;
        let mut columns = Vec::with_capacity(attrs.len());
        let mut cards = Vec::with_capacity(attrs.len());
        let mut domains = Vec::with_capacity(attrs.len());
        for a in attrs {
            columns.push(t.codes(a)?);
            cards.push(t.domain(a)?.card());
            domains.push(t.domain(a)?.clone());
        }
        Ok(MhistAdapter {
            table: table.to_owned(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            domains,
            inner: MhistEstimator::build(&columns, &cards, budget_bytes),
        })
    }
}

impl SelectivityEstimator for MhistAdapter {
    fn name(&self) -> &str {
        "MHIST"
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        let start = std::time::Instant::now();
        expect_single_table(query, &self.table)?;
        // Start unconstrained, then intersect per-predicate.
        let mut allowed: Vec<Vec<u32>> =
            self.domains.iter().map(|d| (0..d.card() as u32).collect()).collect();
        for p in &query.preds {
            let dim = self.attrs.iter().position(|a| a == p.attr()).ok_or_else(|| {
                Error::Schema(reldb::Error::BadPredicate(format!(
                    "attribute `{}` is not covered by this MHIST",
                    p.attr()
                )))
            })?;
            let codes = codes_for_pred(&self.domains[dim], p);
            allowed[dim].retain(|c| codes.contains(c));
        }
        let est = self.inner.estimate(&allowed);
        obs::histogram!("est.mhist.estimate.ns").record_duration(start.elapsed());
        Ok(est)
    }
}

// ---------------------------------------------------------------------
// WAVELET.
// ---------------------------------------------------------------------

/// Thresholded Haar-wavelet approximation over a fixed attribute subset.
#[derive(Debug)]
pub struct WaveletAdapter {
    table: String,
    attrs: Vec<String>,
    domains: Vec<Domain>,
    inner: WaveletEstimator,
}

impl WaveletAdapter {
    /// Builds the wavelet summary over `attrs` of `table` within
    /// `budget_bytes`.
    pub fn build(
        db: &Database,
        table: &str,
        attrs: &[&str],
        budget_bytes: usize,
    ) -> Result<Self> {
        let t = db.table(table)?;
        let mut columns = Vec::with_capacity(attrs.len());
        let mut cards = Vec::with_capacity(attrs.len());
        let mut domains = Vec::with_capacity(attrs.len());
        for a in attrs {
            columns.push(t.codes(a)?);
            cards.push(t.domain(a)?.card());
            domains.push(t.domain(a)?.clone());
        }
        Ok(WaveletAdapter {
            table: table.to_owned(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
            domains,
            inner: WaveletEstimator::build(&columns, &cards, budget_bytes),
        })
    }
}

impl SelectivityEstimator for WaveletAdapter {
    fn name(&self) -> &str {
        "WAVELET"
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        let start = std::time::Instant::now();
        expect_single_table(query, &self.table)?;
        let mut allowed: Vec<Vec<u32>> =
            self.domains.iter().map(|d| (0..d.card() as u32).collect()).collect();
        for p in &query.preds {
            let dim = self.attrs.iter().position(|a| a == p.attr()).ok_or_else(|| {
                Error::Schema(reldb::Error::BadPredicate(format!(
                    "attribute `{}` is not covered by this wavelet summary",
                    p.attr()
                )))
            })?;
            let codes = codes_for_pred(&self.domains[dim], p);
            allowed[dim].retain(|c| codes.contains(c));
        }
        let est = self.inner.estimate(&allowed);
        obs::histogram!("est.wavelet.estimate.ns").record_duration(start.elapsed());
        Ok(est)
    }
}

// ---------------------------------------------------------------------
// SAMPLE (single table).
// ---------------------------------------------------------------------

/// Row sampling over one table.
#[derive(Debug)]
pub struct SampleAdapter {
    table: String,
    domains: HashMap<String, Domain>,
    inner: SampleEstimator,
}

impl SampleAdapter {
    /// Reservoir-samples `table` within `budget_bytes`.
    pub fn build(
        db: &Database,
        table: &str,
        budget_bytes: usize,
        seed: u64,
    ) -> Result<Self> {
        let t = db.table(table)?;
        let mut domains = HashMap::new();
        for attr in t.schema().value_attrs() {
            domains.insert(attr.to_owned(), t.domain(attr)?.clone());
        }
        Ok(SampleAdapter {
            table: table.to_owned(),
            domains,
            inner: SampleEstimator::build(t, budget_bytes, seed),
        })
    }
}

impl SelectivityEstimator for SampleAdapter {
    fn name(&self) -> &str {
        "SAMPLE"
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        let start = std::time::Instant::now();
        expect_single_table(query, &self.table)?;
        let preds: Vec<(String, Vec<u32>)> = query
            .preds
            .iter()
            .map(|p| {
                let domain = self.domains.get(p.attr()).ok_or_else(|| {
                    Error::Schema(reldb::Error::UnknownAttr {
                        table: self.table.clone(),
                        attr: p.attr().to_owned(),
                    })
                })?;
                Ok((p.attr().to_owned(), codes_for_pred(domain, p)))
            })
            .collect::<Result<_>>()?;
        let est = self.inner.estimate(&preds);
        obs::histogram!("est.sample.estimate.ns").record_duration(start.elapsed());
        Ok(est)
    }
}

// ---------------------------------------------------------------------
// SAMPLE (join chain).
// ---------------------------------------------------------------------

/// Sampling of the full foreign-key join along a chain of tables.
#[derive(Debug)]
pub struct JoinSampleAdapter {
    /// Tables on the chain, base first.
    chain: Vec<String>,
    domains: HashMap<(String, String), Domain>,
    inner: JoinSampleEstimator,
}

impl JoinSampleAdapter {
    /// Builds the joined sample for the chain starting at `base` and
    /// following `hops` (foreign-key attribute names).
    pub fn build(
        db: &Database,
        base: &str,
        hops: &[&str],
        budget_bytes: usize,
        seed: u64,
    ) -> Result<Self> {
        let path = JoinPath {
            base: base.to_owned(),
            hops: hops.iter().map(|s| s.to_string()).collect(),
        };
        let mut chain = vec![base.to_owned()];
        let mut current = base.to_owned();
        for fk in hops {
            let target = db
                .foreign_keys_of(&current)?
                .into_iter()
                .find(|f| &f.attr == fk)
                .ok_or_else(|| {
                    Error::Schema(reldb::Error::BadJoin(format!(
                        "`{current}.{fk}` is not a foreign key"
                    )))
                })?
                .target;
            chain.push(target.clone());
            current = target;
        }
        let mut domains = HashMap::new();
        for table in &chain {
            let t = db.table(table)?;
            for attr in t.schema().value_attrs() {
                domains.insert((table.clone(), attr.to_owned()), t.domain(attr)?.clone());
            }
        }
        Ok(JoinSampleAdapter {
            chain,
            domains,
            inner: JoinSampleEstimator::build(db, &path, budget_bytes, seed)?,
        })
    }
}

impl SelectivityEstimator for JoinSampleAdapter {
    fn name(&self) -> &str {
        "SAMPLE"
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn estimate(&self, query: &Query) -> Result<f64> {
        // The query must join the full chain: one var per chain table.
        if query.vars.len() != self.chain.len()
            || query.joins.len() + 1 != self.chain.len()
        {
            return Err(Error::Schema(reldb::Error::BadJoin(
                "join-sample estimator answers full-chain queries only".into(),
            )));
        }
        for table in &self.chain {
            if !query.vars.contains(table) {
                return Err(Error::Schema(reldb::Error::BadJoin(format!(
                    "query does not cover chain table `{table}`"
                ))));
            }
        }
        let start = std::time::Instant::now();
        let preds: Vec<((String, String), Vec<u32>)> = query
            .preds
            .iter()
            .map(|p| {
                let table = query.vars[p.var()].clone();
                let key = (table, p.attr().to_owned());
                let domain = self.domains.get(&key).ok_or_else(|| {
                    Error::Schema(reldb::Error::UnknownAttr {
                        table: key.0.clone(),
                        attr: key.1.clone(),
                    })
                })?;
                Ok((key, codes_for_pred(domain, p)))
            })
            .collect::<Result<_>>()?;
        let est = self.inner.estimate(&preds);
        obs::histogram!("est.join_sample.estimate.ns").record_duration(start.elapsed());
        Ok(est)
    }
}
