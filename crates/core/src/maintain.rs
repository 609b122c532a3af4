//! Incremental model maintenance (paper §6).
//!
//! "It is straightforward to extend our approach to adapt the parameters
//! of the PRM over time, keeping the structure fixed. … We can also keep
//! track of the model score, relearning the structure if the score
//! decreases drastically."
//!
//! * [`refresh_parameters`] — re-estimates every CPD and join-indicator
//!   table from the current database contents while keeping all parent
//!   sets and tree-split structures fixed: one group-by pass per family,
//!   orders of magnitude cheaper than a structure search.
//! * [`model_loglik`] — the log-likelihood of the current database under a
//!   PRM (attribute families on their tables, join-indicator families on
//!   the pair populations). Tracking this score across updates is the
//!   paper's trigger for structural relearning: a model whose score decays
//!   badly no longer matches the data's dependence structure.
//! * [`Maintainer`] — the background repair loop: consumes
//!   [`UpdateBatch`]es, folds them into a [`DeltaState`] (O(batch), not
//!   O(database)), refits, validates, and hot-swaps a new
//!   [`crate::ModelEpoch`] into a shared [`crate::PrmEstimator`] — all off
//!   the request path. Drift beyond [`drift_relearn_threshold`] escalates
//!   to a structural relearn (or a watchdog alert when no relearn source
//!   is wired). A failed or panicking cycle leaves the old epoch serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use bayesnet::cpd::TableCpd;
use bayesnet::Cpd;
use reldb::{Database, Error, Result};

use crate::ctx::Ctx;
use crate::delta::{DeltaState, UpdateBatch};
use crate::error::{Error as CoreError, Result as CoreResult};
use crate::estimator::PrmEstimator;
use crate::learn::PrmLearnConfig;
use crate::prm::{JiParentRef, ParentRef, Prm};
use crate::schema::SchemaInfo;

/// Floor applied to model probabilities when scoring (see [`model_loglik`]).
pub(crate) const P_FLOOR: f64 = 1e-12;

/// Re-estimates all parameters of `prm` from `db`, keeping structure.
///
/// The database must have the same schema (tables, value attributes,
/// foreign keys, domain cardinalities) the PRM was learned from; row
/// contents may differ arbitrarily. Returns the refreshed model.
pub fn refresh_parameters(prm: &Prm, db: &Database) -> Result<Prm> {
    let ctx = ctx_for(prm, db)?;
    let mut out = prm.clone();
    for (t, table_model) in out.tables.iter_mut().enumerate() {
        let table = &ctx.tables[t];
        table_model.n_rows = table.n_rows as u64;
        for (a, attr) in table_model.attrs.iter_mut().enumerate() {
            let parent_data: Vec<(&[u32], usize)> =
                attr.parents.iter().map(|&p| parent_column(&ctx, t, p)).collect();
            attr.cpd = match &attr.cpd {
                Cpd::Table(_) => {
                    let counts = family_counts(&parent_data, &table.cols[a], attr.card);
                    TableCpd::from_counts(&counts).into()
                }
                Cpd::Tree(tree) => {
                    let cols: Vec<&[u32]> = parent_data.iter().map(|&(c, _)| c).collect();
                    tree.refit(&table.cols[a], &cols).into()
                }
            };
        }
        for (f, ji) in table_model.join_indicators.iter_mut().enumerate() {
            let (p_true, _) = ji_statistics(&ctx, t, f, &ji.parents);
            ji.p_true = p_true;
        }
    }
    Ok(out)
}

/// Row chunk size for the parallel scoring pass. Chunk boundaries are
/// *fixed* (independent of `PRMSEL_THREADS`), and per-chunk partial sums
/// are folded sequentially in chunk order, so the result is bit-identical
/// at every thread count — the watchdog compares scores across runs, and
/// a thread-count-dependent rounding wobble would read as phantom drift.
const LOGLIK_CHUNK: usize = 8192;

/// Log-likelihood of the database under the PRM's *current parameters*
/// (not the MLE refit): attribute families contribute
/// `Σ_rows ln P(x | pa)`, join indicators contribute the Bernoulli
/// likelihood over the `T × S` pair population.
///
/// Probabilities are floored at `1e-12` so that a drifted row landing on
/// an MLE-zero cell produces a large finite penalty instead of `-∞` —
/// this keeps the score usable as the paper's relearning trigger.
///
/// The per-row attribute scan fans out across the worker pool in fixed
/// `LOGLIK_CHUNK`-row chunks; see that constant for why the answer does
/// not depend on the thread count.
pub fn model_loglik(prm: &Prm, db: &Database) -> Result<f64> {
    let ctx = ctx_for(prm, db)?;
    let mut ll = 0.0;
    for (t, table_model) in prm.tables.iter().enumerate() {
        let table = &ctx.tables[t];
        for (a, attr) in table_model.attrs.iter().enumerate() {
            let parent_data: Vec<(&[u32], usize)> =
                attr.parents.iter().map(|&p| parent_column(&ctx, t, p)).collect();
            let child_col = &table.cols[a];
            let starts: Vec<usize> = (0..child_col.len()).step_by(LOGLIK_CHUNK).collect();
            let partials = par::map(&starts, |&start| {
                let end = (start + LOGLIK_CHUNK).min(child_col.len());
                let mut config = vec![0u32; parent_data.len()];
                let mut part = 0.0f64;
                for row in start..end {
                    for (slot, (col, _)) in config.iter_mut().zip(&parent_data) {
                        *slot = col[row];
                    }
                    let p = attr.cpd.dist(&config)[child_col[row] as usize].max(P_FLOOR);
                    part += p.ln();
                }
                part
            });
            for part in partials {
                ll += part;
            }
        }
        for (f, ji) in table_model.join_indicators.iter().enumerate() {
            let (_, family_ll) = ji_statistics_against(&ctx, t, f, ji);
            ll += family_ll;
        }
    }
    Ok(ll)
}

/// Builds a learning context matching the PRM's schema assumptions.
pub(crate) fn ctx_for(prm: &Prm, db: &Database) -> Result<Ctx> {
    let needs_foreign = prm.foreign_parent_count() > 0;
    let config =
        PrmLearnConfig { allow_foreign_parents: needs_foreign, ..Default::default() };
    let ctx = Ctx::build(db, &config)?;
    if ctx.tables.len() != prm.tables.len() {
        return Err(Error::BadJoin("database/model table count mismatch".into()));
    }
    for (t, model) in prm.tables.iter().enumerate() {
        if ctx.tables[t].name != model.table
            || ctx.tables[t].attr_names.len() != model.attrs.len()
        {
            return Err(Error::BadJoin(format!(
                "schema drift: table `{}` no longer matches the model",
                model.table
            )));
        }
        for (a, attr) in model.attrs.iter().enumerate() {
            if ctx.tables[t].cards[a] != attr.card {
                return Err(Error::BadJoin(format!(
                    "domain of `{}.{}` changed cardinality; relearn the structure",
                    model.table, attr.name
                )));
            }
        }
    }
    Ok(ctx)
}

pub(crate) fn parent_column(ctx: &Ctx, t: usize, p: ParentRef) -> (&[u32], usize) {
    let table = &ctx.tables[t];
    match p {
        ParentRef::Local { attr } => (&table.cols[attr], table.cards[attr]),
        ParentRef::Foreign { fk, attr } => (
            &table.fks[fk].foreign_cols[attr],
            ctx.tables[table.fks[fk].target].cards[attr],
        ),
    }
}

pub(crate) fn family_counts(
    parent_data: &[(&[u32], usize)],
    child_col: &[u32],
    child_card: usize,
) -> reldb::CountTable {
    let mut cards: Vec<usize> = parent_data.iter().map(|&(_, c)| c).collect();
    cards.push(child_card);
    let size: usize = cards.iter().product::<usize>().max(1);
    let mut counts = vec![0u64; size];
    for (row, &child) in child_col.iter().enumerate() {
        let mut idx = 0usize;
        for ((col, _), &card) in parent_data.iter().zip(&cards) {
            idx = idx * card + col[row] as usize;
        }
        idx = idx * child_card + child as usize;
        counts[idx] += 1;
    }
    reldb::CountTable { cards, counts }
}

/// MLE join-indicator probabilities plus MLE log-likelihood for a given
/// parent set.
fn ji_statistics(
    ctx: &Ctx,
    t: usize,
    f: usize,
    parents: &[JiParentRef],
) -> (Vec<f64>, f64) {
    let (n_true, child_counts, parent_counts, cards, child_dims, parent_dims) =
        ji_counts(ctx, t, f, parents);
    let size = n_true.len();
    let mut p_true = vec![0.0f64; size];
    let mut ll = 0.0;
    let mut config = vec![0u32; cards.len()];
    for (idx, &nt) in n_true.iter().enumerate() {
        decode(idx, &cards, &mut config);
        let ci = linearize(&config, &child_dims, &cards);
        let pi = linearize(&config, &parent_dims, &cards);
        let pairs = child_counts[ci] as f64 * parent_counts[pi] as f64;
        if pairs <= 0.0 {
            continue;
        }
        let p = nt as f64 / pairs;
        p_true[idx] = p;
        if nt > 0 {
            ll += nt as f64 * p.ln();
        }
        if pairs > nt as f64 && p < 1.0 {
            ll += (pairs - nt as f64) * (1.0 - p).ln();
        }
    }
    (p_true, ll)
}

/// Log-likelihood of the pair population under the model's *stored*
/// join-indicator probabilities.
fn ji_statistics_against(
    ctx: &Ctx,
    t: usize,
    f: usize,
    ji: &crate::prm::JoinIndicatorModel,
) -> (Vec<f64>, f64) {
    let (n_true, child_counts, parent_counts, cards, child_dims, parent_dims) =
        ji_counts(ctx, t, f, &ji.parents);
    let mut ll = 0.0;
    let mut config = vec![0u32; cards.len()];
    for (idx, &nt) in n_true.iter().enumerate() {
        decode(idx, &cards, &mut config);
        let ci = linearize(&config, &child_dims, &cards);
        let pi = linearize(&config, &parent_dims, &cards);
        let pairs = child_counts[ci] as f64 * parent_counts[pi] as f64;
        if pairs <= 0.0 {
            continue;
        }
        let p = ji.p_true[idx.min(ji.p_true.len() - 1)].clamp(P_FLOOR, 1.0 - P_FLOOR);
        if nt > 0 {
            ll += nt as f64 * p.ln();
        }
        if pairs > nt as f64 {
            ll += (pairs - nt as f64) * (1.0 - p).ln();
        }
    }
    (Vec::new(), ll)
}

pub(crate) type JiCounts =
    (Vec<u64>, Vec<u64>, Vec<u64>, Vec<usize>, Vec<usize>, Vec<usize>);

pub(crate) fn ji_counts(
    ctx: &Ctx,
    t: usize,
    f: usize,
    parents: &[JiParentRef],
) -> JiCounts {
    let table = &ctx.tables[t];
    let fk = &table.fks[f];
    let target = &ctx.tables[fk.target];
    let joined: Vec<&[u32]> = parents
        .iter()
        .map(|p| match *p {
            JiParentRef::Child { attr } => table.cols[attr].as_slice(),
            JiParentRef::Parent { attr } => fk.foreign_cols[attr].as_slice(),
        })
        .collect();
    let cards: Vec<usize> = parents
        .iter()
        .map(|p| match *p {
            JiParentRef::Child { attr } => table.cards[attr],
            JiParentRef::Parent { attr } => target.cards[attr],
        })
        .collect();
    let size: usize = cards.iter().product::<usize>().max(1);
    let mut n_true = vec![0u64; size];
    for row in 0..table.n_rows {
        let mut idx = 0usize;
        for (col, &card) in joined.iter().zip(&cards) {
            idx = idx * card + col[row] as usize;
        }
        n_true[idx] += 1;
    }
    let child_dims: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, JiParentRef::Child { .. }))
        .map(|(i, _)| i)
        .collect();
    let parent_dims: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p, JiParentRef::Parent { .. }))
        .map(|(i, _)| i)
        .collect();
    let child_counts = marginal_counts(
        &parents
            .iter()
            .filter_map(|p| match *p {
                JiParentRef::Child { attr } => {
                    Some((table.cols[attr].as_slice(), table.cards[attr]))
                }
                _ => None,
            })
            .collect::<Vec<_>>(),
        table.n_rows,
    );
    let parent_counts = marginal_counts(
        &parents
            .iter()
            .filter_map(|p| match *p {
                JiParentRef::Parent { attr } => {
                    Some((target.cols[attr].as_slice(), target.cards[attr]))
                }
                _ => None,
            })
            .collect::<Vec<_>>(),
        target.n_rows,
    );
    (n_true, child_counts, parent_counts, cards, child_dims, parent_dims)
}

pub(crate) fn marginal_counts(data: &[(&[u32], usize)], n_rows: usize) -> Vec<u64> {
    let size: usize = data.iter().map(|&(_, c)| c).product::<usize>().max(1);
    let mut counts = vec![0u64; size];
    if data.is_empty() {
        counts[0] = n_rows as u64;
        return counts;
    }
    for row in 0..n_rows {
        let mut idx = 0usize;
        for (col, card) in data {
            idx = idx * card + col[row] as usize;
        }
        counts[idx] += 1;
    }
    counts
}

pub(crate) fn decode(mut idx: usize, cards: &[usize], config: &mut [u32]) {
    for k in (0..cards.len()).rev() {
        config[k] = (idx % cards[k]) as u32;
        idx /= cards[k];
    }
}

pub(crate) fn linearize(config: &[u32], dims: &[usize], cards: &[usize]) -> usize {
    let mut idx = 0usize;
    for &d in dims {
        idx = idx * cards[d] + config[d] as usize;
    }
    idx
}

// ---------------------------------------------------------------------
// Process-wide serving-model freshness.
// ---------------------------------------------------------------------

static MODEL_EPOCH: AtomicU64 = AtomicU64::new(0);
static LAST_REFRESH_MS: AtomicU64 = AtomicU64::new(0);

/// Records a model (re)build. Called by the estimator on construction
/// and on every hot swap; when several estimators live in one process
/// the freshest write wins (same convention as the gauges).
pub(crate) fn note_model_refreshed(seq: u64) {
    MODEL_EPOCH.store(seq, Ordering::Relaxed);
    LAST_REFRESH_MS.store(obs::timeseries::now_ms(), Ordering::Relaxed);
    obs::gauge!("prm.model.epoch").set(seq as f64);
    obs::gauge!("prm.model.staleness_ms").set(0.0);
}

/// The serving-model epoch sequence (0 before any model is built) —
/// what `/buildinfo`, `/health`, and `prmsel top` report.
pub fn model_epoch() -> u64 {
    MODEL_EPOCH.load(Ordering::Relaxed)
}

/// Milliseconds since the serving model was last built or hot-swapped
/// (0 before any model is built).
pub fn model_staleness_ms() -> u64 {
    let last = LAST_REFRESH_MS.load(Ordering::Relaxed);
    if last == 0 {
        return 0;
    }
    obs::timeseries::now_ms().saturating_sub(last)
}

/// Default for `PRMSEL_DRIFT_RELEARN`: per-row log-likelihood decay (in
/// nats) beyond which parameter refits are judged insufficient and the
/// repair loop escalates to a structural relearn.
pub const DEFAULT_DRIFT_RELEARN: f64 = 0.5;

/// The relearn threshold from `PRMSEL_DRIFT_RELEARN`, else
/// [`DEFAULT_DRIFT_RELEARN`].
pub fn drift_relearn_threshold() -> f64 {
    std::env::var("PRMSEL_DRIFT_RELEARN")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(DEFAULT_DRIFT_RELEARN)
}

// ---------------------------------------------------------------------
// The background repair loop.
// ---------------------------------------------------------------------

/// Tuning for a [`Maintainer`].
#[derive(Debug, Clone)]
pub struct MaintainOptions {
    /// Per-row drift (nats) beyond which the loop escalates to a
    /// structural relearn; `None` reads `PRMSEL_DRIFT_RELEARN` at spawn.
    pub drift_relearn: Option<f64>,
    /// Idle period between staleness-gauge refreshes when no work
    /// arrives.
    pub tick: Duration,
}

impl Default for MaintainOptions {
    fn default() -> Self {
        MaintainOptions { drift_relearn: None, tick: Duration::from_millis(250) }
    }
}

/// A caller-supplied structural-relearn source: returns a freshly
/// learned model, its schema snapshot, and a [`DeltaState`] rebuilt
/// against the new structure — or `None` when relearning is unavailable
/// (the loop then raises a `prm.maintain.drift` watchdog warning and
/// keeps refitting parameters).
pub type RelearnFn = Box<dyn FnMut() -> Option<(Prm, SchemaInfo, DeltaState)> + Send>;

enum Cmd {
    Batch(UpdateBatch),
    Refit,
    Sync(mpsc::Sender<()>),
    Stop,
}

/// The zero-downtime maintenance loop (paper §6, made operational).
///
/// A `Maintainer` owns a background thread holding the mutable
/// [`DeltaState`]; the serving [`PrmEstimator`] is only ever touched
/// through its atomic [`replace_model`](PrmEstimator::replace_model)
/// hot swap, so traffic never blocks on maintenance. Each cycle runs in
/// two isolated phases:
///
/// 1. **apply** — fold the batch into the sufficient statistics
///    (`maintain.apply` failpoint). This phase mutates the accumulators,
///    so a panic here marks the state corrupt (subsequent cycles are
///    rejected until a rebuild) — but the serving model is untouched.
/// 2. **refit + swap** — rebuild CPDs from the accumulators, score
///    drift, and publish a new epoch (`maintain.refit` /
///    `maintain.swap` failpoints). This phase only reads the state, so
///    any failure or panic leaves *both* the accumulators and the old
///    serving epoch intact.
///
/// Every rejected cycle raises a critical `prm.maintain.failed`
/// watchdog alert (resolved by the next success); drift past the
/// relearn threshold triggers the [`RelearnFn`] when one is wired, a
/// `prm.maintain.drift` warning otherwise.
pub struct Maintainer {
    tx: mpsc::Sender<Cmd>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Maintainer {
    /// Spawns the repair loop over `est`, seeding it with `state` (built
    /// by [`DeltaState::build`] against the same model generation).
    pub fn spawn(
        est: Arc<PrmEstimator>,
        state: DeltaState,
        opts: MaintainOptions,
    ) -> Maintainer {
        Self::spawn_with_relearn(est, state, opts, None)
    }

    /// [`Maintainer::spawn`] with a structural-relearn source consulted
    /// when drift exceeds the threshold.
    pub fn spawn_with_relearn(
        est: Arc<PrmEstimator>,
        mut state: DeltaState,
        opts: MaintainOptions,
        mut relearn: Option<RelearnFn>,
    ) -> Maintainer {
        // Register the family up front so a snapshot distinguishes "no
        // maintenance yet" (explicit zeros) from "not exported".
        obs::counter!("prm.maintain.batches").add(0);
        obs::counter!("prm.maintain.rows").add(0);
        obs::counter!("prm.maintain.refits").add(0);
        obs::counter!("prm.maintain.swaps").add(0);
        obs::counter!("prm.maintain.relearn").add(0);
        obs::counter!("prm.maintain.rejected").add(0);
        let threshold = opts.drift_relearn.unwrap_or_else(drift_relearn_threshold);
        let tick = opts.tick;
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("prmsel-maintain".into())
            .spawn(move || loop {
                match rx.recv_timeout(tick) {
                    Ok(Cmd::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {
                        obs::gauge!("prm.model.staleness_ms")
                            .set(model_staleness_ms() as f64);
                    }
                    Ok(Cmd::Sync(ack)) => {
                        let _ = ack.send(());
                    }
                    Ok(Cmd::Batch(batch)) => {
                        run_cycle(&est, &mut state, Some(batch), threshold, &mut relearn);
                    }
                    Ok(Cmd::Refit) => {
                        run_cycle(&est, &mut state, None, threshold, &mut relearn);
                    }
                }
            })
            .expect("spawn prmsel-maintain thread");
        Maintainer { tx, handle: Some(handle) }
    }

    /// Queues an update batch for the next cycle. Returns `false` if the
    /// loop has stopped.
    pub fn submit(&self, batch: UpdateBatch) -> bool {
        self.tx.send(Cmd::Batch(batch)).is_ok()
    }

    /// Queues a refit-and-swap cycle with no new data (e.g. after the
    /// watchdog flags quality decay). Returns `false` if the loop has
    /// stopped.
    pub fn refit_now(&self) -> bool {
        self.tx.send(Cmd::Refit).is_ok()
    }

    /// Blocks until every previously queued command has been processed.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(Cmd::Sync(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Stops the loop and joins the thread (also done on drop).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.tx.send(Cmd::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Maintainer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One maintenance cycle. See [`Maintainer`] for the phase contract.
fn run_cycle(
    est: &PrmEstimator,
    state: &mut DeltaState,
    batch: Option<UpdateBatch>,
    threshold: f64,
    relearn: &mut Option<RelearnFn>,
) {
    if let Some(batch) = batch {
        let applied = catch_unwind(AssertUnwindSafe(|| -> CoreResult<u64> {
            failpoint::fail_point!("maintain.apply").map_err(CoreError::from)?;
            state.apply(&batch)
        }));
        match applied {
            Ok(Ok(rows)) => {
                obs::counter!("prm.maintain.batches").inc();
                obs::counter!("prm.maintain.rows").add(rows);
            }
            Ok(Err(e)) => return reject(&format!("apply: {e}")),
            Err(payload) => {
                // The panic may have torn the accumulators mid-update;
                // only a rebuild makes them trustworthy again.
                state.mark_corrupt();
                return reject(&format!("{}", CoreError::from_panic(payload)));
            }
        }
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| -> CoreResult<f64> {
        failpoint::fail_point!("maintain.refit").map_err(CoreError::from)?;
        let ep = est.epoch();
        let fresh = state.refit(&ep.prm)?;
        let drift = state.drift(&fresh)?;
        failpoint::fail_point!("maintain.swap").map_err(CoreError::from)?;
        est.replace_model(fresh, ep.schema.clone());
        Ok(drift)
    }));
    let drift = match outcome {
        Ok(Ok(drift)) => drift,
        Ok(Err(e)) => return reject(&format!("refit: {e}")),
        Err(payload) => return reject(&format!("{}", CoreError::from_panic(payload))),
    };
    obs::counter!("prm.maintain.refits").inc();
    obs::watchdog::resolve("prm.maintain.failed");
    if drift <= threshold {
        obs::watchdog::resolve("prm.maintain.drift");
        return;
    }
    obs::counter!("prm.maintain.relearn").inc();
    if let Some(cb) = relearn.as_mut() {
        if let Some((prm, schema, fresh_state)) = cb() {
            est.replace_model(prm, schema);
            *state = fresh_state;
            obs::watchdog::resolve("prm.maintain.drift");
            obs::info!(
                "structural relearn swapped in (drift {drift:.3} > {threshold:.3})"
            );
            return;
        }
    }
    obs::watchdog::raise(
        obs::watchdog::Severity::Warning,
        "prm.maintain.drift",
        drift,
        threshold,
    );
}

/// Books a rejected cycle: the old epoch keeps serving, the operator
/// hears about it.
fn reject(detail: &str) {
    obs::counter!("prm.maintain.rejected").inc();
    obs::warn!("maintenance cycle rejected (old epoch keeps serving): {detail}");
    obs::watchdog::raise(
        obs::watchdog::Severity::Critical,
        "prm.maintain.failed",
        1.0,
        0.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{PrmEstimator, SelectivityEstimator};
    use crate::learn::learn_prm;
    use reldb::{Cell, DatabaseBuilder, Query, TableBuilder, Value};

    /// `flip`: when true, child.y anticopies parent.x instead of copying.
    fn db(flip: bool) -> Database {
        let mut p = TableBuilder::new("parent").key("id").col("x");
        for i in 0..40i64 {
            p.push_row(vec![Cell::Key(i), Cell::Val(Value::Int(i % 2))]).unwrap();
        }
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        for i in 0..400i64 {
            let target = (i * 7) % 40;
            let y = if flip { 1 - target % 2 } else { target % 2 };
            c.push_row(vec![Cell::Key(i), Cell::Key(target), Cell::Val(Value::Int(y))])
                .unwrap();
        }
        DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap()
    }

    #[test]
    fn refresh_restores_accuracy_after_drift() {
        let old = db(false);
        let new = db(true);
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        let refreshed = refresh_parameters(&prm, &new).unwrap();

        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.join(c, "parent", p).eq(c, "y", 1).eq(p, "x", 0);
        let q = b.build();
        let truth = reldb::result_size(&new, &q).unwrap() as f64;
        assert!(truth > 0.0);

        let stale = PrmEstimator::from_prm(prm.clone(), &new, "stale").unwrap();
        let fresh = PrmEstimator::from_prm(refreshed, &new, "fresh").unwrap();
        let stale_err = (stale.estimate(&q).unwrap() - truth).abs();
        let fresh_err = (fresh.estimate(&q).unwrap() - truth).abs();
        assert!(
            fresh_err < stale_err,
            "fresh={fresh_err} stale={stale_err} truth={truth}"
        );
        assert!(fresh_err / truth < 0.2, "fresh err too large: {fresh_err}");
    }

    #[test]
    fn refresh_preserves_structure_and_size() {
        let old = db(false);
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        let refreshed = refresh_parameters(&prm, &db(true)).unwrap();
        assert_eq!(prm.size_bytes(), refreshed.size_bytes());
        for (a, b) in prm.tables.iter().zip(&refreshed.tables) {
            for (x, y) in a.attrs.iter().zip(&b.attrs) {
                assert_eq!(x.parents, y.parents);
            }
            for (x, y) in a.join_indicators.iter().zip(&b.join_indicators) {
                assert_eq!(x.parents, y.parents);
            }
        }
    }

    #[test]
    fn refresh_on_same_data_is_a_fixed_point() {
        let data = db(false);
        let prm = learn_prm(&data, &PrmLearnConfig::default()).unwrap();
        let refreshed = refresh_parameters(&prm, &data).unwrap();
        let ll_before = model_loglik(&prm, &data).unwrap();
        let ll_after = model_loglik(&refreshed, &data).unwrap();
        assert!((ll_before - ll_after).abs() < 1e-6);
    }

    #[test]
    fn score_tracks_drift() {
        // The paper's relearning trigger: the model score drops sharply
        // when the data stops matching the learned dependencies.
        let old = db(false);
        let new = db(true);
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        let ll_old = model_loglik(&prm, &old).unwrap();
        let ll_new = model_loglik(&prm, &new).unwrap();
        assert!(
            ll_new < ll_old - 1.0,
            "score should decay under drift: old={ll_old} new={ll_new}"
        );
    }

    #[test]
    fn schema_drift_is_rejected() {
        let old = db(false);
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        // A database with a different child domain cardinality.
        let mut p = TableBuilder::new("parent").key("id").col("x");
        for i in 0..4i64 {
            p.push_row(vec![Cell::Key(i), Cell::Val(Value::Int(i % 2))]).unwrap();
        }
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        for i in 0..12i64 {
            c.push_row(vec![
                Cell::Key(i),
                Cell::Key(i % 4),
                Cell::Val(Value::Int(i % 3)),
            ])
            .unwrap();
        }
        let drifted = DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap();
        assert!(refresh_parameters(&prm, &drifted).is_err());
    }
}
