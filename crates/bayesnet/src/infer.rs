//! Exact inference by variable elimination.
//!
//! The online phase of selectivity estimation computes `P(E)` where the
//! evidence `E` restricts some variables to *sets* of allowed values: an
//! equality predicate allows one value, an `IN` or range predicate several
//! (paper §2.3 — range queries cost nothing extra because the reduction
//! masks the factor instead of enumerating assignments).
//!
//! Irrelevant variables are pruned first (only the evidence variables and
//! their ancestors matter; every other CPD sums to one), then variables
//! are eliminated greedily by the min-weight heuristic. A caller may name
//! variables to eliminate after every other one: any order is exact, and
//! the query-plan compiler defers the predicated variables so everything
//! eliminated before them is independent of the predicate constants and
//! can be computed once per query template.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use crate::factor::Factor;
use crate::network::BayesNet;
use crate::varset::VarSet;

/// Resource limits enforced during variable elimination.
///
/// The paper's §3.3 claim is that query-evaluation networks stay small, so
/// the default is [`InferBudget::unlimited`] and the guarded path costs two
/// `Option` checks per elimination step. When a limit *is* set, the width
/// check projects the size of the next intermediate factor from scopes
/// alone — before any cell is allocated — so a blowup is refused, not
/// survived.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferBudget {
    /// Maximum cells any intermediate factor may hold.
    pub max_cells: Option<u64>,
    /// Absolute wall-clock deadline for the whole elimination.
    pub deadline: Option<Instant>,
}

impl InferBudget {
    /// No limits: the guarded path behaves exactly like the unguarded one.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when neither limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_cells.is_none() && self.deadline.is_none()
    }
}

/// Why a guarded elimination refused to continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferAbort {
    /// Eliminating `var` would materialize an intermediate factor of
    /// `cells` cells, over the `budget` limit.
    Width { var: usize, cells: u64, budget: u64 },
    /// The wall-clock deadline passed before elimination finished.
    Deadline,
    /// An injected fault (the `infer.eliminate` failpoint) fired.
    Fault(String),
}

impl fmt::Display for InferAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferAbort::Width { var, cells, budget } => write!(
                f,
                "eliminating node {var} needs a {cells}-cell factor (budget {budget})"
            ),
            InferAbort::Deadline => write!(f, "elimination deadline passed"),
            InferAbort::Fault(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for InferAbort {}

/// Evidence: per-variable masks of allowed values.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    masks: BTreeMap<usize, Vec<bool>>,
}

impl Evidence {
    /// Empty evidence (probability 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts `var` to exactly `code`.
    pub fn eq(&mut self, var: usize, code: u32, card: usize) -> &mut Self {
        let mut mask = vec![false; card];
        mask[code as usize] = true;
        self.intersect(var, mask);
        self
    }

    /// Restricts `var` to a set of codes.
    pub fn isin(&mut self, var: usize, codes: &[u32], card: usize) -> &mut Self {
        let mut mask = vec![false; card];
        for &c in codes {
            mask[c as usize] = true;
        }
        self.intersect(var, mask);
        self
    }

    /// Restricts `var` by an explicit mask.
    pub fn mask(&mut self, var: usize, mask: Vec<bool>) -> &mut Self {
        self.intersect(var, mask);
        self
    }

    fn intersect(&mut self, var: usize, mask: Vec<bool>) {
        match self.masks.get_mut(&var) {
            Some(existing) => {
                assert_eq!(existing.len(), mask.len(), "mask length mismatch");
                for (e, m) in existing.iter_mut().zip(mask) {
                    *e = *e && m;
                }
            }
            None => {
                self.masks.insert(var, mask);
            }
        }
    }

    /// The constrained variables.
    pub fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.masks.keys().copied()
    }

    /// The mask for `var`, if constrained.
    pub fn mask_of(&self, var: usize) -> Option<&[bool]> {
        self.masks.get(&var).map(|m| m.as_slice())
    }

    /// True if no variable is constrained.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }
}

/// Computes `P(E)` under the network's joint distribution, eliminating
/// the variables in `last` after every other one (see
/// [`elimination_order`]; pass `&[]` for the plain min-weight order).
///
/// Panics if the network is incomplete or an evidence mask has the wrong
/// length for its variable.
pub fn probability_of_evidence(
    bn: &BayesNet,
    evidence: &Evidence,
    last: &[usize],
) -> f64 {
    obs::counter!("bn.infer.queries").inc();
    if evidence.is_empty() {
        return 1.0;
    }
    let (factors, relevant) = reduced_relevant_factors(bn, evidence);
    let elim: Vec<usize> = (0..bn.len()).filter(|&v| relevant[v]).collect();
    eliminate_all(factors, &elim, last, |v| bn.card(v))
}

/// Materializes and evidence-reduces the CPD factors of the *relevant*
/// set: the evidence variables and all of their ancestors. CPDs of
/// barren variables integrate to 1 and are dropped. Returns the factors
/// (ascending by owning variable) and the relevance mask.
fn reduced_relevant_factors(
    bn: &BayesNet,
    evidence: &Evidence,
) -> (Vec<Factor>, Vec<bool>) {
    let mut relevant = vec![false; bn.len()];
    let mut stack: Vec<usize> = evidence.vars().collect();
    for &v in &stack {
        assert!(v < bn.len(), "evidence variable out of range");
        relevant[v] = true;
    }
    while let Some(v) = stack.pop() {
        for &p in bn.parents(v) {
            if !relevant[p] {
                relevant[p] = true;
                stack.push(p);
            }
        }
    }
    let mut factors: Vec<Factor> = Vec::new();
    for (v, _) in relevant.iter().enumerate().filter(|(_, &r)| r) {
        let cpd = bn.cpd(v).expect("network is incomplete");
        let mut f = cpd.to_factor(v, bn.parents(v));
        for sv in f.vars().to_vec() {
            if let Some(mask) = evidence.mask_of(sv) {
                f = f.reduce(sv, mask);
            }
        }
        factors.push(f);
    }
    (factors, relevant)
}

/// Runs variable elimination over arbitrary factors, summing out every
/// variable in `elim` (those in `last` after all others), and returns the
/// resulting scalar.
///
/// Factors whose scope mentions variables outside `elim` are not supported
/// here — the selectivity workload always eliminates everything. This is
/// the uncached path: it derives the [`elimination_order`] from the factor
/// scopes, then replays it with [`eliminate_in_order`] — exactly what a
/// compiled query plan does with its recorded order, so cached and
/// uncached estimates are bit-identical by construction.
pub fn eliminate_all(
    factors: Vec<Factor>,
    elim: &[usize],
    last: &[usize],
    card_of: impl Fn(usize) -> usize,
) -> f64 {
    let scopes: Vec<Vec<usize>> = factors.iter().map(|f| f.vars().to_vec()).collect();
    let order = elimination_order(&scopes, elim, last, card_of);
    eliminate_in_order(factors.into_iter().map(Cow::Owned).collect(), &order)
}

/// Guarded [`eliminate_all`]: derives the order, then replays it under
/// `budget` via [`try_eliminate_in_order`].
pub fn try_eliminate_all(
    factors: Vec<Factor>,
    elim: &[usize],
    last: &[usize],
    card_of: impl Fn(usize) -> usize,
    budget: InferBudget,
) -> Result<f64, InferAbort> {
    let scopes: Vec<Vec<usize>> = factors.iter().map(|f| f.vars().to_vec()).collect();
    let order = elimination_order(&scopes, elim, last, card_of);
    try_eliminate_in_order(factors.into_iter().map(Cow::Owned).collect(), &order, budget)
}

/// Derives a min-weight elimination order from factor *scopes* alone — no
/// factor data needed, so a query-plan compiler can record the order once
/// and replay it for every query of the same shape. (Evidence reduction
/// masks entries but never shrinks a scope, so the order is valid for any
/// predicate values.)
///
/// The variables of `elim` that appear in `last` are eliminated after all
/// the others: the order is the greedy min-weight order of the other
/// variables followed by that of the deferred ones, each group keeping
/// its `elim` order as the tie-break (first minimum wins). Any order is
/// exact; deferring the predicated variables of a query template leaves
/// every elimination before them independent of the predicate constants,
/// so a plan compiler computes all of it once. With `last` empty this is
/// the plain min-weight order.
///
/// Scopes may be given in any order (factor scopes are canonical
/// ascending anyway). Internally every scope becomes a [`VarSet`] bitset,
/// so each candidate's weight — the product of the cardinalities of the
/// union of the scopes containing it — is computed by word-wise ORs and
/// one ascending bit walk instead of repeated sorted-merge allocations.
/// Ascending bitset iteration multiplies cardinalities in exactly the
/// order the former sorted merge produced, so weights, ties, and hence
/// the returned order are unchanged bit for bit.
pub fn elimination_order(
    scopes: &[Vec<usize>],
    elim: &[usize],
    last: &[usize],
    card_of: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let mut scopes: Vec<VarSet> = scopes.iter().map(|s| VarSet::from_vars(s)).collect();
    let (first, deferred): (Vec<usize>, Vec<usize>) =
        elim.iter().copied().partition(|v| !last.contains(v));
    let mut order = Vec::with_capacity(elim.len());
    let mut merged = VarSet::new();
    for mut remaining in [first, deferred] {
        while !remaining.is_empty() {
            // Min-weight heuristic: eliminate the variable whose combined
            // factor is smallest (first minimum wins on ties).
            let (best_idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    merged.clear();
                    for s in scopes.iter().filter(|s| s.contains(v)) {
                        merged.union_with(s);
                    }
                    let weight: f64 =
                        merged.iter().map(|sv| card_of(sv) as f64).product();
                    (i, weight)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("weights are finite"))
                .expect("remaining is non-empty");
            let var = remaining.swap_remove(best_idx);
            order.push(var);
            // Simulate the elimination on scopes: the factors touching
            // `var` fuse into one factor over their union minus `var`.
            let mut fused = VarSet::new();
            let mut any = false;
            scopes.retain(|s| {
                if s.contains(var) {
                    fused.union_with(s);
                    any = true;
                    false
                } else {
                    true
                }
            });
            if !any {
                continue;
            }
            fused.remove(var);
            scopes.push(fused);
        }
    }
    order
}

/// Replays a fixed elimination order: for each variable, the factors whose
/// scope contains it (in list order) are combined by left-fold products,
/// with the *final* product fused with the marginalization
/// ([`Factor::product_sum_out`]) so the largest intermediate is never
/// materialized. Returns the product of the leftover scalars.
///
/// Borrowed (`Cow::Borrowed`) factors are only cloned if they survive to a
/// product untouched — plan-cached factors that no evidence mask touched
/// flow through without a per-query copy until they are consumed.
///
/// This is the unguarded wrapper around [`try_eliminate_in_order`] with an
/// unlimited budget; the only abort it can see is an injected fault from
/// the `infer.eliminate` failpoint, which it re-raises as a panic so chaos
/// isolation layers (`catch_unwind`) still contain it.
pub fn eliminate_in_order(factors: Vec<Cow<'_, Factor>>, order: &[usize]) -> f64 {
    match try_eliminate_in_order(factors, order, InferBudget::unlimited()) {
        Ok(v) => v,
        Err(abort) => panic!("unguarded elimination aborted: {abort}"),
    }
}

/// Projected cell count of the product of `touching` (union of scopes);
/// saturates at `u64::MAX`.
fn projected_cells(touching: &[Cow<'_, Factor>]) -> u64 {
    let mut scope: Vec<(usize, u64)> = Vec::new();
    for f in touching {
        for (&v, &c) in f.vars().iter().zip(f.cards()) {
            match scope.binary_search_by_key(&v, |&(sv, _)| sv) {
                Ok(_) => {}
                Err(at) => scope.insert(at, (v, c as u64)),
            }
        }
    }
    scope.iter().fold(1u64, |acc, &(_, c)| acc.saturating_mul(c))
}

/// Guarded replay of a fixed elimination order — identical arithmetic to
/// [`eliminate_in_order`] (same factors, same fold order, same fused
/// final step, so results are bit-identical), plus three pure control-flow
/// checks per step: the `infer.eliminate` failpoint, the wall-clock
/// deadline, and the projected width of the next intermediate factor.
pub fn try_eliminate_in_order(
    mut factors: Vec<Cow<'_, Factor>>,
    order: &[usize],
    budget: InferBudget,
) -> Result<f64, InferAbort> {
    failpoint::fail_point!("infer.eliminate")
        .map_err(|e| InferAbort::Fault(e.to_string()))?;
    for &var in order {
        let (touching, rest): (Vec<_>, Vec<_>) =
            factors.into_iter().partition(|f| f.contains_var(var));
        factors = rest;
        if touching.is_empty() {
            continue;
        }
        if let Some(deadline) = budget.deadline {
            if Instant::now() >= deadline {
                return Err(InferAbort::Deadline);
            }
        }
        if let Some(max) = budget.max_cells {
            let cells = projected_cells(&touching);
            if cells > max {
                return Err(InferAbort::Width { var, cells, budget: max });
            }
        }
        // Flight-recorder gate: one relaxed atomic load when recording is
        // off; the step record (scope copy) is only built when a live
        // trace wants it.
        let flight_t0 = obs::flight::active().then(obs::flight::now_ns);
        let start = std::time::Instant::now();
        let n = touching.len();
        let mut iter = touching.into_iter();
        let mut acc = iter.next().expect("at least one factor");
        let summed = if n == 1 {
            acc.sum_out(var)
        } else {
            // Left-fold all but the last product; fuse the last with the
            // marginalization (bit-identical to product-then-sum_out).
            for _ in 0..n - 2 {
                acc = Cow::Owned(acc.product(&iter.next().expect("n - 2 more factors")));
            }
            acc.product_sum_out(&iter.next().expect("last factor"), var)
        };
        let elapsed = start.elapsed();
        if let Some(t0) = flight_t0 {
            obs::flight::elim_step(
                var,
                n,
                summed.vars(),
                summed.len() as u64,
                t0,
                elapsed.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        factors.push(Cow::Owned(summed));
        // One elimination ≈ one message in the clique-tree reading of VE.
        obs::counter!("bn.infer.messages").inc();
        obs::histogram!("bn.factor.kernel.ns").record_duration(elapsed);
    }
    Ok(factors
        .into_iter()
        .map(|f| {
            debug_assert!(f.is_empty(), "variable left uneliminated");
            f.scalar_value()
        })
        .product())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::TableCpd;

    /// The Education → Income → Home-owner chain from §2.1 of the paper,
    /// with the exact numbers of Fig. 1(b).
    fn paper_chain() -> BayesNet {
        let mut bn = BayesNet::new(
            vec!["education".into(), "income".into(), "homeowner".into()],
            vec![3, 3, 2],
        );
        // E: h=0, c=1, a=2 (order chosen to match the paper's table).
        bn.set_family(0, &[], TableCpd::new(3, vec![], vec![0.5, 0.3, 0.2]).into());
        // I | E: values l=0, m=1, h=2.
        bn.set_family(
            1,
            &[0],
            TableCpd::new(3, vec![3], vec![0.6, 0.3, 0.1, 0.5, 0.3, 0.2, 0.1, 0.3, 0.6])
                .into(),
        );
        // H | I: f=0, t=1.
        bn.set_family(
            2,
            &[1],
            TableCpd::new(2, vec![3], vec![0.9, 0.1, 0.7, 0.3, 0.1, 0.9]).into(),
        );
        bn
    }

    #[test]
    fn reproduces_paper_joint_entries() {
        let bn = paper_chain();
        // P(E=h, I=l, H=f) = 0.5·0.6·0.9 = 0.27 (first row of Fig. 1(a)).
        let mut ev = Evidence::new();
        ev.eq(0, 0, 3).eq(1, 0, 3).eq(2, 0, 2);
        assert!((probability_of_evidence(&bn, &ev, &[]) - 0.27).abs() < 1e-12);
        // P(E=a, I=h, H=t) = 0.2·0.6·0.9 = 0.108 (last row).
        let mut ev = Evidence::new();
        ev.eq(0, 2, 3).eq(1, 2, 3).eq(2, 1, 2);
        assert!((probability_of_evidence(&bn, &ev, &[]) - 0.108).abs() < 1e-12);
    }

    #[test]
    fn marginals_match_paper_histograms() {
        let bn = paper_chain();
        // P(I=l) = 0.47, P(H=t) = 0.344 (Fig. 1(c)).
        let mut ev = Evidence::new();
        ev.eq(1, 0, 3);
        assert!((probability_of_evidence(&bn, &ev, &[]) - 0.47).abs() < 1e-12);
        let mut ev = Evidence::new();
        ev.eq(2, 1, 2);
        assert!((probability_of_evidence(&bn, &ev, &[]) - 0.344).abs() < 1e-12);
    }

    #[test]
    fn set_evidence_answers_range_style_queries() {
        let bn = paper_chain();
        // P(I ∈ {m, h}) = 1 − 0.47 = 0.53.
        let mut ev = Evidence::new();
        ev.isin(1, &[1, 2], 3);
        assert!((probability_of_evidence(&bn, &ev, &[]) - 0.53).abs() < 1e-12);
    }

    #[test]
    fn empty_evidence_is_one() {
        let bn = paper_chain();
        assert_eq!(probability_of_evidence(&bn, &Evidence::new(), &[]), 1.0);
    }

    #[test]
    fn contradictory_evidence_is_zero() {
        let bn = paper_chain();
        let mut ev = Evidence::new();
        ev.eq(1, 0, 3).eq(1, 1, 3); // I = l AND I = m
        assert_eq!(probability_of_evidence(&bn, &ev, &[]), 0.0);
    }

    #[test]
    fn ve_matches_full_joint_enumeration() {
        let bn = paper_chain();
        let joint = bn.factors().into_iter().reduce(|a, b| a.product(&b)).unwrap();
        // Check every single-var and pairwise evidence combination.
        for e in 0..3u32 {
            for h in 0..2u32 {
                let mut ev = Evidence::new();
                ev.eq(0, e, 3).eq(2, h, 2);
                let brute = joint.reduce(0, &mask(3, e)).reduce(2, &mask(2, h)).total();
                let ve = probability_of_evidence(&bn, &ev, &[]);
                assert!((ve - brute).abs() < 1e-12, "mismatch at ({e},{h})");
            }
        }
    }

    fn mask(card: usize, allow: u32) -> Vec<bool> {
        (0..card).map(|i| i == allow as usize).collect()
    }

    #[test]
    fn guarded_and_unguarded_elimination_are_bit_identical() {
        let bn = paper_chain();
        let mut ev = Evidence::new();
        ev.eq(2, 1, 2);
        let (factors, relevant) = reduced_relevant_factors(&bn, &ev);
        let elim: Vec<usize> = (0..bn.len()).filter(|&v| relevant[v]).collect();
        let scopes: Vec<Vec<usize>> = factors.iter().map(|f| f.vars().to_vec()).collect();
        let order = elimination_order(&scopes, &elim, &[], |v| bn.card(v));
        let cowed = |fs: &[Factor]| -> Vec<Cow<'_, Factor>> {
            fs.iter().map(|f| Cow::Owned(f.clone())).collect()
        };
        let unguarded = eliminate_in_order(cowed(&factors), &order);
        let guarded = try_eliminate_in_order(
            cowed(&factors),
            &order,
            InferBudget { max_cells: Some(1 << 30), deadline: None },
        )
        .unwrap();
        assert_eq!(unguarded.to_bits(), guarded.to_bits());
    }

    #[test]
    fn width_budget_refuses_large_intermediates() {
        let bn = paper_chain();
        let mut ev = Evidence::new();
        ev.eq(0, 0, 3).eq(2, 0, 2);
        let (factors, relevant) = reduced_relevant_factors(&bn, &ev);
        let elim: Vec<usize> = (0..bn.len()).filter(|&v| relevant[v]).collect();
        // Every intermediate in this chain has at least 2 cells.
        let abort = try_eliminate_all(
            factors,
            &elim,
            &[],
            |v| bn.card(v),
            InferBudget { max_cells: Some(1), deadline: None },
        )
        .unwrap_err();
        match abort {
            InferAbort::Width { cells, budget, .. } => {
                assert!(cells > budget);
                assert_eq!(budget, 1);
            }
            other => panic!("expected width abort, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_aborts_before_work() {
        let bn = paper_chain();
        let mut ev = Evidence::new();
        ev.eq(1, 0, 3);
        let (factors, relevant) = reduced_relevant_factors(&bn, &ev);
        let elim: Vec<usize> = (0..bn.len()).filter(|&v| relevant[v]).collect();
        let abort = try_eliminate_all(
            factors,
            &elim,
            &[],
            |v| bn.card(v),
            InferBudget {
                max_cells: None,
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            },
        )
        .unwrap_err();
        assert_eq!(abort, InferAbort::Deadline);
    }

    #[test]
    fn deferred_variables_are_exactly_the_order_suffix() {
        // Education → Income → Home-owner: scopes {E}, {E,I}, {I,H} with
        // cards 3, 3, 2. Min-weight sums H first (weight 6), then E and I
        // tie at 9 and the first one left in `elim` wins.
        let bn = paper_chain();
        let scopes: Vec<Vec<usize>> =
            bn.factors().iter().map(|f| f.vars().to_vec()).collect();
        let card = |v: usize| bn.card(v);
        assert_eq!(elimination_order(&scopes, &[0, 1, 2], &[], card), vec![2, 0, 1]);
        assert_eq!(elimination_order(&scopes, &[0, 1, 2], &[2], card), vec![0, 1, 2]);
        assert_eq!(elimination_order(&scopes, &[0, 1, 2], &[0, 2], card), vec![1, 0, 2]);
        // Deferring every variable, or one not eliminated at all, leaves
        // the plain order.
        assert_eq!(
            elimination_order(&scopes, &[0, 1, 2], &[0, 1, 2], card),
            vec![2, 0, 1]
        );
        assert_eq!(elimination_order(&scopes, &[0, 1, 2], &[7], card), vec![2, 0, 1]);

        // Random scope families: the order is a permutation of `elim`
        // whose suffix is exactly the deferred variables.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) % n) as usize
        };
        for _ in 0..200 {
            let n_vars = 1 + next(10);
            let scopes: Vec<Vec<usize>> = (0..1 + next(8))
                .map(|_| {
                    let mut s: Vec<usize> =
                        (0..1 + next(4)).map(|_| next(n_vars as u64)).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            let mut elim: Vec<usize> = scopes.iter().flatten().copied().collect();
            elim.sort_unstable();
            elim.dedup();
            let last: Vec<usize> =
                elim.iter().copied().filter(|_| next(3) == 0).collect();
            let order = elimination_order(&scopes, &elim, &last, |v| 2 + v % 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, elim);
            let (head, tail) = order.split_at(elim.len() - last.len());
            assert!(head.iter().all(|v| !last.contains(v)), "{order:?} defers {last:?}");
            assert!(tail.iter().all(|v| last.contains(v)), "{order:?} defers {last:?}");
        }
    }

    #[test]
    fn barren_nodes_are_pruned() {
        // Evidence only on the root: the two descendants are barren; the
        // answer must equal the root marginal regardless.
        let bn = paper_chain();
        let mut ev = Evidence::new();
        ev.eq(0, 1, 3);
        assert!((probability_of_evidence(&bn, &ev, &[]) - 0.3).abs() < 1e-12);
    }
}
