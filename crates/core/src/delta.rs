//! Sufficient-statistic delta maintenance (paper §6, made incremental).
//!
//! [`refresh_parameters`](crate::maintain::refresh_parameters) refits
//! every CPD from a full scan — O(db) per refresh. This module keeps the
//! *sufficient statistics* of every family live instead: per-attribute
//! joint count tables `(parents…, child)` and per-join-indicator
//! `(n_true, child marginal, parent marginal)` counts. An insert/delete
//! batch updates them in O(batch · model), and a refit from the
//! accumulators produces **bit-identical** parameters to a from-scratch
//! [`refresh_parameters`](crate::refresh_parameters) on the same data:
//! both paths reduce to the same integer counts, and the same
//! `count → f64` arithmetic runs on them (proptested in
//! `tests/delta_equivalence.rs`).
//!
//! The model log-likelihood is tracked from the same counts, so drift
//! (per-row score decay since the structure was adopted — the paper's
//! relearn trigger) costs O(model), not O(db), per batch.
//!
//! Propagation subtlety: a parent-table row update changes the
//! FK-joined evidence of every child row pointing at it. [`UpdateBatch::diff`]
//! therefore encodes each row *with* its joined foreign codes, so a
//! parent change surfaces as delete+insert pairs on the affected child
//! rows, and the child-side families stay exact.

use std::collections::HashMap;

use bayesnet::cpd::{TableCpd, TreeNode};
use bayesnet::Cpd;
use reldb::Database;

use crate::error::{Error, Result};
use crate::maintain::{ctx_for, decode, family_counts, ji_counts, linearize, P_FLOOR};
use crate::prm::{JiParentRef, ParentRef, Prm};

/// One row in a maintenance batch: the row's own value-attribute codes
/// plus, per foreign key, the joined target row's value-attribute codes
/// — everything the child-side families need, with no database lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRow {
    /// Own value-attribute codes, in schema attr order.
    pub attrs: Vec<u32>,
    /// Per foreign key (schema order): the joined target row's
    /// value-attribute codes.
    pub foreign: Vec<Vec<u32>>,
}

/// Inserted and deleted rows of one table.
#[derive(Debug, Clone, Default)]
pub struct TableDelta {
    /// Rows added since the last batch.
    pub inserts: Vec<DeltaRow>,
    /// Rows removed since the last batch (their *old* contents).
    pub deletes: Vec<DeltaRow>,
}

/// An insert/delete batch across all tables, aligned with the model's
/// table order.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// Per-table deltas, aligned with `Prm::tables`.
    pub tables: Vec<TableDelta>,
}

impl UpdateBatch {
    /// An empty batch over `n_tables` tables.
    pub fn new(n_tables: usize) -> UpdateBatch {
        UpdateBatch { tables: vec![TableDelta::default(); n_tables] }
    }

    /// Total rows touched (inserts + deletes).
    pub fn rows(&self) -> u64 {
        self.tables.iter().map(|t| (t.inserts.len() + t.deletes.len()) as u64).sum()
    }

    /// True when no table has any delta.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(|t| t.inserts.is_empty() && t.deletes.is_empty())
    }

    /// Diffs two versions of the database into a batch, keyed by each
    /// table's primary key. `old` is the coding authority: `new`'s values
    /// are re-encoded into `old`'s domains, and a value `old` has never
    /// seen is schema drift (the caller should relearn, not patch).
    ///
    /// A row whose own attrs *or* joined foreign codes changed becomes a
    /// delete (old contents) + insert (new contents) pair, so parent-row
    /// updates fan out to their children as required.
    pub fn diff(old: &Database, new: &Database) -> Result<UpdateBatch> {
        if old.tables().len() != new.tables().len() {
            return Err(schema_drift("table count changed"));
        }
        // Per-table, per-attr map from `new` codes into `old` codes.
        let mut remaps: Vec<Vec<Vec<u32>>> = Vec::with_capacity(old.tables().len());
        for old_t in old.tables() {
            let new_t = new.table(old_t.name()).map_err(Error::Schema)?;
            let attrs = old_t.schema().value_attrs();
            if new_t.schema().value_attrs() != attrs {
                return Err(schema_drift(&format!(
                    "value attributes of `{}` changed",
                    old_t.name()
                )));
            }
            let mut per_attr = Vec::with_capacity(attrs.len());
            for attr in &attrs {
                let old_dom = old_t.domain(attr).map_err(Error::Schema)?;
                let new_dom = new_t.domain(attr).map_err(Error::Schema)?;
                let map: Vec<u32> = new_dom
                    .values()
                    .iter()
                    .map(|v| {
                        old_dom.code(v).ok_or_else(|| {
                            schema_drift(&format!(
                                "`{}.{attr}` value {v:?} not in the model's domain",
                                old_t.name()
                            ))
                        })
                    })
                    .collect::<Result<_>>()?;
                per_attr.push(map);
            }
            remaps.push(per_attr);
        }
        let mut batch = UpdateBatch::new(old.tables().len());
        for (t, old_t) in old.tables().iter().enumerate() {
            let new_t = new.table(old_t.name()).map_err(Error::Schema)?;
            let old_rows = keyed_rows(old, old_t, None)?;
            let new_rows = keyed_rows(new, new_t, Some(&remaps))?;
            let delta = &mut batch.tables[t];
            for (key, row) in &old_rows {
                match new_rows.get(key) {
                    Some(new_row) if new_row == row => {}
                    Some(new_row) => {
                        delta.deletes.push(row.clone());
                        delta.inserts.push(new_row.clone());
                    }
                    None => delta.deletes.push(row.clone()),
                }
            }
            for (key, row) in &new_rows {
                if !old_rows.contains_key(key) {
                    delta.inserts.push(row.clone());
                }
            }
        }
        Ok(batch)
    }
}

fn schema_drift(detail: &str) -> Error {
    Error::Schema(reldb::Error::BadJoin(format!("schema drift: {detail}")))
}

/// Encodes every row of `table` as a keyed [`DeltaRow`], optionally
/// remapping codes (`remaps[table][attr][code]`) into the base coding.
fn keyed_rows(
    db: &Database,
    table: &reldb::Table,
    remaps: Option<&[Vec<Vec<u32>>]>,
) -> Result<HashMap<i64, DeltaRow>> {
    let keys = table.key_values().ok_or_else(|| {
        schema_drift(&format!("table `{}` has no primary key to diff by", table.name()))
    })?;
    let t_idx = db.table_index(table.name()).map_err(Error::Schema)?;
    let attrs = table.schema().value_attrs();
    let cols: Vec<&[u32]> = attrs
        .iter()
        .map(|a| table.codes(a).map_err(Error::Schema))
        .collect::<Result<_>>()?;
    // Per own fk: (joined target row per child row, target codes, target idx).
    let mut fk_cols: Vec<Vec<Vec<u32>>> = Vec::new();
    for fk in table.schema().foreign_keys() {
        let target_idx = db.table_index(&fk.target).map_err(Error::Schema)?;
        let target = db.table(&fk.target).map_err(Error::Schema)?;
        let rows = db.fk_target_rows(table.name(), &fk.attr).map_err(Error::Schema)?;
        let mut joined = Vec::new();
        for (a, attr) in target.schema().value_attrs().iter().enumerate() {
            let codes = target.codes(attr).map_err(Error::Schema)?;
            joined.push(
                rows.iter()
                    .map(|&r| {
                        let code = codes[r as usize];
                        match remaps {
                            Some(m) => m[target_idx][a][code as usize],
                            None => code,
                        }
                    })
                    .collect(),
            );
        }
        fk_cols.push(joined);
    }
    let mut out = HashMap::with_capacity(keys.len());
    for (row, &key) in keys.iter().enumerate() {
        let attrs: Vec<u32> = cols
            .iter()
            .enumerate()
            .map(|(a, col)| match remaps {
                Some(m) => m[t_idx][a][col[row] as usize],
                None => col[row],
            })
            .collect();
        let foreign: Vec<Vec<u32>> = fk_cols
            .iter()
            .map(|per_attr| per_attr.iter().map(|c| c[row]).collect())
            .collect();
        out.insert(key, DeltaRow { attrs, foreign });
    }
    Ok(out)
}

/// Live sufficient statistics of one attribute family: the joint
/// `(parents…, child)` count table, child fastest-varying — the exact
/// layout [`family_counts`] produces.
struct AttrState {
    parents: Vec<ParentRef>,
    /// `(parent cards…, child card)`.
    cards: Vec<usize>,
    counts: Vec<i64>,
}

/// Live sufficient statistics of one join-indicator family.
struct JiState {
    parents: Vec<JiParentRef>,
    cards: Vec<usize>,
    child_dims: Vec<usize>,
    parent_dims: Vec<usize>,
    n_true: Vec<i64>,
    child_counts: Vec<i64>,
    parent_counts: Vec<i64>,
}

struct TableState {
    n_rows: i64,
    /// Per value attr, for batch validation.
    cards: Vec<usize>,
    /// Per fk: target table index (join indicators align with fks).
    fk_targets: Vec<usize>,
    attrs: Vec<AttrState>,
    jis: Vec<JiState>,
}

/// The live accumulator set for a model: every family's sufficient
/// statistics, updated per batch in O(batch · model) and refit into a
/// fresh [`Prm`] without touching the database.
pub struct DeltaState {
    tables: Vec<TableState>,
    /// Per-row MLE log-likelihood when the structure was adopted — the
    /// reference point drift is measured against.
    baseline_per_row: Option<f64>,
    corrupt: bool,
}

impl DeltaState {
    /// Builds the accumulators from the current database contents with
    /// one full scan (the last one: every later update is O(batch)).
    /// Also records the drift baseline from an immediate MLE refit.
    pub fn build(prm: &Prm, db: &Database) -> Result<DeltaState> {
        let ctx = ctx_for(prm, db)?;
        let mut tables = Vec::with_capacity(prm.tables.len());
        for (t, table_model) in prm.tables.iter().enumerate() {
            let table = &ctx.tables[t];
            let mut attrs = Vec::with_capacity(table_model.attrs.len());
            for (a, attr) in table_model.attrs.iter().enumerate() {
                let parent_data: Vec<(&[u32], usize)> = attr
                    .parents
                    .iter()
                    .map(|&p| crate::maintain::parent_column(&ctx, t, p))
                    .collect();
                let counts = family_counts(&parent_data, &table.cols[a], attr.card);
                attrs.push(AttrState {
                    parents: attr.parents.clone(),
                    cards: counts.cards,
                    counts: counts.counts.iter().map(|&c| c as i64).collect(),
                });
            }
            let mut jis = Vec::with_capacity(table_model.join_indicators.len());
            for (f, ji) in table_model.join_indicators.iter().enumerate() {
                let (n_true, child_counts, parent_counts, cards, child_dims, parent_dims) =
                    ji_counts(&ctx, t, f, &ji.parents);
                jis.push(JiState {
                    parents: ji.parents.clone(),
                    cards,
                    child_dims,
                    parent_dims,
                    n_true: n_true.iter().map(|&c| c as i64).collect(),
                    child_counts: child_counts.iter().map(|&c| c as i64).collect(),
                    parent_counts: parent_counts.iter().map(|&c| c as i64).collect(),
                });
            }
            tables.push(TableState {
                n_rows: table.n_rows as i64,
                cards: table.cards.clone(),
                fk_targets: table.fks.iter().map(|fk| fk.target).collect(),
                attrs,
                jis,
            });
        }
        let mut state = DeltaState { tables, baseline_per_row: None, corrupt: false };
        let fresh = state.refit(prm)?;
        state.note_baseline(&fresh)?;
        Ok(state)
    }

    /// Applies an insert/delete batch to the accumulators. Shape errors
    /// are detected *before* any mutation (the state stays valid);
    /// count underflow mid-apply means the batch lied about the data and
    /// poisons the state (every later call errors until rebuilt).
    /// Returns the number of rows applied.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<u64> {
        if self.corrupt {
            return Err(corrupt_err());
        }
        self.validate(batch)?;
        let n_tables = self.tables.len();
        for t in 0..n_tables {
            let delta = &batch.tables[t];
            // Own-table families: attr count tables, JI n_true + child
            // marginals, row count.
            for (sign, rows) in [(-1i64, &delta.deletes), (1i64, &delta.inserts)] {
                for row in rows {
                    let st = &mut self.tables[t];
                    st.n_rows += sign;
                    if st.n_rows < 0 {
                        return self.poison();
                    }
                    for a in 0..st.attrs.len() {
                        let idx = family_index(&st.attrs[a], a, row);
                        let ast = &mut st.attrs[a];
                        ast.counts[idx] += sign;
                        if ast.counts[idx] < 0 {
                            return self.poison();
                        }
                    }
                    for f in 0..st.jis.len() {
                        let ji = &st.jis[f];
                        let idx = ji_index(ji, f, row);
                        let ci = ji_marginal_index(ji, &ji.child_dims, f, row);
                        let ji = &mut st.jis[f];
                        ji.n_true[idx] += sign;
                        ji.child_counts[ci] += sign;
                        if ji.n_true[idx] < 0 || ji.child_counts[ci] < 0 {
                            return self.poison();
                        }
                    }
                }
            }
            // Cross-table pass: this table is the *target* of other
            // tables' join indicators; their parent-side marginals count
            // target rows.
            for s in 0..n_tables {
                for f in 0..self.tables[s].jis.len() {
                    if self.tables[s].fk_targets[f] != t {
                        continue;
                    }
                    for (sign, rows) in [
                        (-1i64, &batch.tables[t].deletes),
                        (1i64, &batch.tables[t].inserts),
                    ] {
                        for row in rows {
                            let ji = &self.tables[s].jis[f];
                            let pi = parent_marginal_index(ji, row);
                            let ji = &mut self.tables[s].jis[f];
                            ji.parent_counts[pi] += sign;
                            if ji.parent_counts[pi] < 0 {
                                return self.poison();
                            }
                        }
                    }
                }
            }
        }
        Ok(batch.rows())
    }

    /// Shape-checks a batch against the model without mutating anything.
    fn validate(&self, batch: &UpdateBatch) -> Result<()> {
        if batch.tables.len() != self.tables.len() {
            return Err(schema_drift("batch table count mismatch"));
        }
        for (t, (st, delta)) in self.tables.iter().zip(&batch.tables).enumerate() {
            for row in delta.inserts.iter().chain(&delta.deletes) {
                if row.attrs.len() != st.cards.len() {
                    return Err(schema_drift(&format!("bad attr arity in table {t}")));
                }
                for (a, (&code, &card)) in row.attrs.iter().zip(&st.cards).enumerate() {
                    if code as usize >= card {
                        return Err(schema_drift(&format!(
                            "code {code} out of domain for table {t} attr {a}"
                        )));
                    }
                }
                if row.foreign.len() != st.fk_targets.len() {
                    return Err(schema_drift(&format!("bad fk arity in table {t}")));
                }
                for (f, (codes, &target)) in
                    row.foreign.iter().zip(&st.fk_targets).enumerate()
                {
                    let target_cards = &self.tables[target].cards;
                    if codes.len() != target_cards.len() {
                        return Err(schema_drift(&format!(
                            "bad foreign arity in table {t} fk {f}"
                        )));
                    }
                    for (&code, &card) in codes.iter().zip(target_cards) {
                        if code as usize >= card {
                            return Err(schema_drift(&format!(
                                "foreign code {code} out of domain (table {t} fk {f})"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn poison<T>(&mut self) -> Result<T> {
        self.corrupt = true;
        Err(corrupt_err())
    }

    /// True once an apply tore the accumulators; refits are refused.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }

    /// Marks the accumulators as torn (e.g. a panic mid-apply observed
    /// by the caller's isolation layer).
    pub fn mark_corrupt(&mut self) {
        self.corrupt = true;
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.n_rows.max(0) as u64).sum()
    }

    /// Refits every parameter of `prm` from the accumulators, keeping
    /// structure — bit-identical to `refresh_parameters` on a database
    /// with the same contents, without scanning one.
    pub fn refit(&self, prm: &Prm) -> Result<Prm> {
        if self.corrupt {
            return Err(corrupt_err());
        }
        if prm.tables.len() != self.tables.len() {
            return Err(schema_drift("model/accumulator table count mismatch"));
        }
        let mut out = prm.clone();
        for (t, table_model) in out.tables.iter_mut().enumerate() {
            let st = &self.tables[t];
            table_model.n_rows = st.n_rows.max(0) as u64;
            for (a, attr) in table_model.attrs.iter_mut().enumerate() {
                let ast = &st.attrs[a];
                let counts = reldb::CountTable {
                    cards: ast.cards.clone(),
                    counts: ast.counts.iter().map(|&c| c.max(0) as u64).collect(),
                };
                attr.cpd = match &attr.cpd {
                    Cpd::Table(_) => TableCpd::from_counts(&counts).into(),
                    Cpd::Tree(tree) => tree.refit_from_counts(&counts).into(),
                };
            }
            for (f, ji) in table_model.join_indicators.iter_mut().enumerate() {
                let js = &st.jis[f];
                // Replicates `ji_statistics` exactly: p = n_true / pairs,
                // zero-pair configurations keep probability 0.0.
                let mut p_true = vec![0.0f64; js.n_true.len()];
                let mut config = vec![0u32; js.cards.len()];
                for (idx, &nt) in js.n_true.iter().enumerate() {
                    decode(idx, &js.cards, &mut config);
                    let ci = linearize(&config, &js.child_dims, &js.cards);
                    let pi = linearize(&config, &js.parent_dims, &js.cards);
                    let pairs = js.child_counts[ci] as f64 * js.parent_counts[pi] as f64;
                    if pairs <= 0.0 {
                        continue;
                    }
                    p_true[idx] = nt as f64 / pairs;
                }
                ji.p_true = p_true;
            }
        }
        Ok(out)
    }

    /// Per-row log-likelihood of the accumulated data under `prm`'s
    /// current parameters, computed from counts alone (O(model)).
    pub fn per_row_loglik(&self, prm: &Prm) -> Result<f64> {
        if self.corrupt {
            return Err(corrupt_err());
        }
        let mut ll = 0.0;
        for (t, table_model) in prm.tables.iter().enumerate() {
            let st = &self.tables[t];
            for (a, attr) in table_model.attrs.iter().enumerate() {
                // The child varies fastest, so each parent configuration
                // owns one contiguous row of counts: walk the rows beside
                // their distributions and add each positive cell's term in
                // ascending order — a per-cell walk's terms, in its order.
                let rows = st.attrs[a].counts.chunks_exact(attr.cpd.child_card());
                match &attr.cpd {
                    Cpd::Tree(tree) => {
                        // Configurations share leaves, so take the log of
                        // each leaf cell once (`ln` is deterministic: the
                        // terms keep their bits).
                        let leaf_ln: Vec<Vec<f64>> = tree
                            .nodes()
                            .iter()
                            .map(|node| match node {
                                TreeNode::Leaf(dist) => {
                                    dist.iter().map(|p| p.max(P_FLOOR).ln()).collect()
                                }
                                _ => Vec::new(),
                            })
                            .collect();
                        for (row, &leaf) in rows.zip(&tree.row_leaves()) {
                            for (&cnt, &ln) in row.iter().zip(&leaf_ln[leaf]) {
                                if cnt > 0 {
                                    ll += cnt as f64 * ln;
                                }
                            }
                        }
                    }
                    Cpd::Table(table) => {
                        let dists = table.probs().chunks_exact(table.child_card());
                        for (row, dist) in rows.zip(dists) {
                            for (&cnt, &p) in row.iter().zip(dist) {
                                if cnt > 0 {
                                    ll += cnt as f64 * p.max(P_FLOOR).ln();
                                }
                            }
                        }
                    }
                }
            }
            for (f, ji) in table_model.join_indicators.iter().enumerate() {
                let js = &st.jis[f];
                // Replicates `ji_statistics_against` on the live counts.
                let mut config = vec![0u32; js.cards.len()];
                for (idx, &nt) in js.n_true.iter().enumerate() {
                    decode(idx, &js.cards, &mut config);
                    let ci = linearize(&config, &js.child_dims, &js.cards);
                    let pi = linearize(&config, &js.parent_dims, &js.cards);
                    let pairs = js.child_counts[ci] as f64 * js.parent_counts[pi] as f64;
                    if pairs <= 0.0 {
                        continue;
                    }
                    let p = ji.p_true[idx.min(ji.p_true.len() - 1)]
                        .clamp(P_FLOOR, 1.0 - P_FLOOR);
                    if nt > 0 {
                        ll += nt as f64 * p.ln();
                    }
                    if pairs > nt as f64 {
                        ll += (pairs - nt as f64) * (1.0 - p).ln();
                    }
                }
            }
        }
        Ok(ll / self.total_rows().max(1) as f64)
    }

    /// Records the drift baseline from a freshly refit model (call at
    /// structure adoption).
    pub fn note_baseline(&mut self, fresh: &Prm) -> Result<()> {
        self.baseline_per_row = Some(self.per_row_loglik(fresh)?);
        Ok(())
    }

    /// Per-row score decay since the structure was adopted: baseline −
    /// current best-achievable (MLE) per-row log-likelihood, given a
    /// freshly refit model. Positive and growing means the fixed
    /// structure no longer matches the data — the paper's relearn
    /// trigger.
    pub fn drift(&self, fresh: &Prm) -> Result<f64> {
        let now = self.per_row_loglik(fresh)?;
        Ok(self.baseline_per_row.map_or(0.0, |base| base - now))
    }
}

fn corrupt_err() -> Error {
    Error::Corrupt {
        offset: None,
        detail: "maintenance accumulators poisoned; rebuild DeltaState from the \
                 database"
            .into(),
    }
}

/// Family cell index for one row: fold parents then the child, matching
/// the `family_counts` layout.
fn family_index(ast: &AttrState, attr: usize, row: &DeltaRow) -> usize {
    let n_parents = ast.parents.len();
    let mut idx = 0usize;
    for (p, &card) in ast.parents.iter().zip(&ast.cards[..n_parents]) {
        let code = match *p {
            ParentRef::Local { attr } => row.attrs[attr],
            ParentRef::Foreign { fk, attr } => row.foreign[fk][attr],
        };
        idx = idx * card + code as usize;
    }
    idx * ast.cards[n_parents] + row.attrs[attr] as usize
}

/// Joint JI configuration index for one child row.
fn ji_index(ji: &JiState, fk: usize, row: &DeltaRow) -> usize {
    let mut idx = 0usize;
    for (p, &card) in ji.parents.iter().zip(&ji.cards) {
        let code = match *p {
            JiParentRef::Child { attr } => row.attrs[attr],
            JiParentRef::Parent { attr } => row.foreign[fk][attr],
        };
        idx = idx * card + code as usize;
    }
    idx
}

/// Child-side marginal index for one child row (1 for the empty scope).
fn ji_marginal_index(ji: &JiState, dims: &[usize], fk: usize, row: &DeltaRow) -> usize {
    let mut idx = 0usize;
    for &d in dims {
        let code = match ji.parents[d] {
            JiParentRef::Child { attr } => row.attrs[attr],
            JiParentRef::Parent { attr } => row.foreign[fk][attr],
        };
        idx = idx * ji.cards[d] + code as usize;
    }
    idx
}

/// Parent-side marginal index for one *target-table* row: parent-scope
/// dims read the target row's own attrs.
fn parent_marginal_index(ji: &JiState, row: &DeltaRow) -> usize {
    let mut idx = 0usize;
    for &d in &ji.parent_dims {
        let code = match ji.parents[d] {
            JiParentRef::Parent { attr } => row.attrs[attr],
            // parent_dims only indexes Parent refs by construction.
            JiParentRef::Child { .. } => unreachable!("child ref in parent dims"),
        };
        idx = idx * ji.cards[d] + code as usize;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{learn_prm, PrmLearnConfig};
    use crate::maintain::refresh_parameters;
    use reldb::{Cell, DatabaseBuilder, TableBuilder, Value};

    fn two_table_db(n_children: i64, shift: i64) -> Database {
        let mut p = TableBuilder::new("parent").key("id").col("x");
        for i in 0..20i64 {
            p.push_row(vec![Cell::Key(i), Cell::Val(Value::Int(i % 3))]).unwrap();
        }
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        for i in 0..n_children {
            let target = (i * 7 + shift) % 20;
            let y = (target + shift) % 2;
            c.push_row(vec![Cell::Key(i), Cell::Key(target), Cell::Val(Value::Int(y))])
                .unwrap();
        }
        DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap()
    }

    fn assert_prm_bits_eq(a: &Prm, b: &Prm) {
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ta.n_rows, tb.n_rows, "row count of {}", ta.table);
            for (xa, xb) in ta.attrs.iter().zip(&tb.attrs) {
                assert_eq!(xa.cpd.parent_cards(), xb.cpd.parent_cards());
                let cards: Vec<usize> = xa.cpd.parent_cards().to_vec();
                let n_cfg: usize = cards.iter().product::<usize>().max(1);
                let mut config = vec![0u32; cards.len()];
                for idx in 0..n_cfg {
                    decode(idx, &cards, &mut config);
                    let da = xa.cpd.dist(&config);
                    let db = xb.cpd.dist(&config);
                    for (va, vb) in da.iter().zip(db) {
                        assert_eq!(
                            va.to_bits(),
                            vb.to_bits(),
                            "{}.{} cfg {config:?}",
                            ta.table,
                            xa.name
                        );
                    }
                }
            }
            for (ja, jb) in ta.join_indicators.iter().zip(&tb.join_indicators) {
                assert_eq!(ja.p_true.len(), jb.p_true.len());
                for (va, vb) in ja.p_true.iter().zip(&jb.p_true) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "ji of {}", ta.table);
                }
            }
        }
    }

    #[test]
    fn build_then_refit_matches_refresh_bitwise() {
        let db = two_table_db(200, 0);
        let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let state = DeltaState::build(&prm, &db).unwrap();
        let from_counts = state.refit(&prm).unwrap();
        let from_scan = refresh_parameters(&prm, &db).unwrap();
        assert_prm_bits_eq(&from_counts, &from_scan);
    }

    #[test]
    fn diff_then_apply_tracks_the_new_database() {
        let old = two_table_db(200, 0);
        let new = two_table_db(180, 1); // dropped rows + changed values
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        let mut state = DeltaState::build(&prm, &old).unwrap();
        let batch = UpdateBatch::diff(&old, &new).unwrap();
        assert!(!batch.is_empty());
        state.apply(&batch).unwrap();
        let incremental = state.refit(&prm).unwrap();
        let scratch = refresh_parameters(&prm, &new).unwrap();
        assert_prm_bits_eq(&incremental, &scratch);
    }

    #[test]
    fn parent_row_change_fans_out_to_children() {
        // Change only parent.x values; the child table's rows are
        // byte-identical, but their joined foreign codes change, so the
        // diff must carry child delete+insert pairs.
        let old = two_table_db(100, 0);
        let mut p = TableBuilder::new("parent").key("id").col("x");
        for i in 0..20i64 {
            p.push_row(vec![Cell::Key(i), Cell::Val(Value::Int((i + 1) % 3))]).unwrap();
        }
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        for i in 0..100i64 {
            let target = (i * 7) % 20;
            c.push_row(vec![
                Cell::Key(i),
                Cell::Key(target),
                Cell::Val(Value::Int(target % 2)),
            ])
            .unwrap();
        }
        let new = DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap();
        let batch = UpdateBatch::diff(&old, &new).unwrap();
        assert!(
            !batch.tables[1].inserts.is_empty(),
            "parent change must fan out to child rows"
        );
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        let mut state = DeltaState::build(&prm, &old).unwrap();
        state.apply(&batch).unwrap();
        assert_prm_bits_eq(
            &state.refit(&prm).unwrap(),
            &refresh_parameters(&prm, &new).unwrap(),
        );
    }

    #[test]
    fn drift_grows_when_data_departs_from_structure() {
        let old = two_table_db(300, 0);
        let new = two_table_db(300, 1);
        let prm = learn_prm(&old, &PrmLearnConfig::default()).unwrap();
        let mut state = DeltaState::build(&prm, &old).unwrap();
        let fresh = state.refit(&prm).unwrap();
        assert!(state.drift(&fresh).unwrap().abs() < 1e-12, "no drift at adoption");
        state.apply(&UpdateBatch::diff(&old, &new).unwrap()).unwrap();
        let refreshed = state.refit(&prm).unwrap();
        let drift = state.drift(&refreshed).unwrap();
        assert!(drift.is_finite());
    }

    /// Oracle for `per_row_loglik` on a model without join indicators:
    /// the same sum taken cell by cell, with one `decode`, one
    /// `Cpd::dist` and one `ln` per positive cell.
    fn per_cell_loglik(state: &DeltaState, prm: &Prm) -> f64 {
        let mut ll = 0.0;
        for (t, table_model) in prm.tables.iter().enumerate() {
            assert!(table_model.join_indicators.is_empty());
            for (ast, attr) in state.tables[t].attrs.iter().zip(&table_model.attrs) {
                let n_parents = ast.cards.len() - 1;
                let mut config = vec![0u32; ast.cards.len()];
                for (idx, &cnt) in ast.counts.iter().enumerate() {
                    if cnt <= 0 {
                        continue;
                    }
                    decode(idx, &ast.cards, &mut config);
                    let child = config[n_parents] as usize;
                    let p = attr.cpd.dist(&config[..n_parents])[child].max(P_FLOOR);
                    ll += cnt as f64 * p.ln();
                }
            }
        }
        ll / state.total_rows().max(1) as f64
    }

    #[test]
    fn row_walk_loglik_equals_the_per_cell_sum_bitwise() {
        let db = workloads::census::census_database(2_000, 3);
        let mut prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let mut state = DeltaState::build(&prm, &db).unwrap();
        // Every other family gets a table CPD fit from the same counts, so
        // the walk reads both representations.
        for (a, attr) in prm.tables[0].attrs.iter_mut().enumerate().step_by(2) {
            let ast = &state.tables[0].attrs[a];
            attr.cpd = TableCpd::from_counts(&reldb::CountTable {
                cards: ast.cards.clone(),
                counts: ast.counts.iter().map(|&c| c as u64).collect(),
            })
            .into();
        }
        let kinds: Vec<bool> =
            prm.tables[0].attrs.iter().map(|a| matches!(a.cpd, Cpd::Tree(_))).collect();
        assert!(kinds.contains(&true) && kinds.contains(&false), "{kinds:?}");
        let adopted = state.refit(&prm).unwrap();
        // Insert rows of codes the census network rarely draws together,
        // so the adopted model scores the new counts off its MLE.
        let cards = state.tables[0].cards.clone();
        let mut batch = UpdateBatch::new(1);
        for i in 0..300usize {
            let attrs = cards
                .iter()
                .enumerate()
                .map(|(a, &c)| ((i * (a + 3) + i / 7) % c) as u32);
            batch.tables[0]
                .inserts
                .push(DeltaRow { attrs: attrs.collect(), foreign: vec![] });
        }
        state.apply(&batch).unwrap();
        let refit = state.refit(&prm).unwrap();
        for model in [&prm, &adopted, &refit] {
            let rows = state.per_row_loglik(model).unwrap();
            assert_eq!(rows.to_bits(), per_cell_loglik(&state, model).to_bits());
        }
    }

    #[test]
    fn bad_batches_are_rejected_and_underflow_poisons() {
        let db = two_table_db(50, 0);
        let prm = learn_prm(&db, &PrmLearnConfig::default()).unwrap();
        let mut state = DeltaState::build(&prm, &db).unwrap();
        // Shape error: rejected before mutation, state still usable.
        let mut bad = UpdateBatch::new(2);
        bad.tables[0].inserts.push(DeltaRow { attrs: vec![0, 0, 0], foreign: vec![] });
        assert!(state.apply(&bad).is_err());
        assert!(!state.is_corrupt());
        assert!(state.refit(&prm).is_ok());
        // Underflow: deleting a row that was never counted poisons.
        let n_parent_attrs = prm.tables[0].attrs.len();
        let mut lie = UpdateBatch::new(2);
        for _ in 0..100 {
            lie.tables[0]
                .deletes
                .push(DeltaRow { attrs: vec![0; n_parent_attrs], foreign: vec![] });
        }
        assert!(state.apply(&lie).is_err());
        assert!(state.is_corrupt());
        assert!(state.refit(&prm).is_err());
    }

    #[test]
    fn diff_rejects_unknown_domain_values() {
        let old = two_table_db(50, 0);
        // A child.y value (7) the old domain has never seen.
        let mut p = TableBuilder::new("parent").key("id").col("x");
        for i in 0..20i64 {
            p.push_row(vec![Cell::Key(i), Cell::Val(Value::Int(i % 3))]).unwrap();
        }
        let mut c = TableBuilder::new("child").key("id").fk("parent", "parent").col("y");
        for i in 0..50i64 {
            c.push_row(vec![
                Cell::Key(i),
                Cell::Key((i * 7) % 20),
                Cell::Val(Value::Int(7)),
            ])
            .unwrap();
        }
        let new = DatabaseBuilder::new()
            .add_table(p.finish().unwrap())
            .add_table(c.finish().unwrap())
            .finish()
            .unwrap();
        assert!(UpdateBatch::diff(&old, &new).is_err());
    }
}
