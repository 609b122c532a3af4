//! Property-based tests for the probabilistic core: factor algebra laws,
//! exact-inference agreement between joint enumeration and variable
//! elimination, tree-CPD invariants, and discretizer invariants.

use bayesnet::cpd::TableCpd;
use bayesnet::discretize::Discretizer;
use bayesnet::factor::{
    product_into, product_sum_out_into, strides_in, sum_out_into, union_scope, DENSE,
};
use bayesnet::learn::treecpd::{grow_tree, TreeGrowOptions};
use bayesnet::{probability_of_evidence, BayesNet, Evidence, Factor};
use proptest::prelude::*;

/// A random factor over a fixed scope.
fn arb_factor(vars: Vec<usize>, cards: Vec<usize>) -> impl Strategy<Value = Factor> {
    let len: usize = cards.iter().product::<usize>().max(1);
    proptest::collection::vec(0.0f64..10.0, len)
        .prop_map(move |data| Factor::new(vars.clone(), cards.clone(), data))
}

/// A random complete Bayesian network over `n ≤ 4` variables with a random
/// DAG (edges only from lower to higher index) and random CPDs.
fn arb_bn() -> impl Strategy<Value = BayesNet> {
    (
        2usize..5,
        proptest::collection::vec(2usize..4, 4),
        proptest::collection::vec(any::<bool>(), 6),
        proptest::collection::vec(1u32..1000, 200),
    )
        .prop_map(|(n, cards, edge_bits, weights)| {
            let cards: Vec<usize> = cards[..n].to_vec();
            let names = (0..n).map(|i| format!("x{i}")).collect();
            let mut bn = BayesNet::new(names, cards.clone());
            let mut w = weights.into_iter().cycle();
            let mut bit = edge_bits.into_iter().cycle();
            for child in 0..n {
                let parents: Vec<usize> =
                    (0..child).filter(|_| bit.next().unwrap()).collect();
                let parent_cards: Vec<usize> =
                    parents.iter().map(|&p| cards[p]).collect();
                let rows: usize = parent_cards.iter().product::<usize>().max(1);
                let mut probs = Vec::with_capacity(rows * cards[child]);
                for _ in 0..rows {
                    let raw: Vec<f64> =
                        (0..cards[child]).map(|_| w.next().unwrap() as f64).collect();
                    let total: f64 = raw.iter().sum();
                    probs.extend(raw.into_iter().map(|x| x / total));
                }
                bn.set_family(
                    child,
                    &parents,
                    TableCpd::new(cards[child], parent_cards, probs).into(),
                );
            }
            bn
        })
}

/// Brute-force `P(E)`: build the full joint, reduce, total.
fn brute_force(bn: &BayesNet, ev: &Evidence) -> f64 {
    let mut joint =
        bn.factors().into_iter().reduce(|a, b| a.product(&b)).expect("non-empty network");
    for v in ev.vars().collect::<Vec<_>>() {
        joint = joint.reduce(v, ev.mask_of(v).expect("constrained"));
    }
    joint.total()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factor_product_is_commutative(
        a in arb_factor(vec![0, 2], vec![2, 3]),
        b in arb_factor(vec![1, 2], vec![2, 3]),
    ) {
        let ab = a.product(&b);
        let ba = b.product(&a);
        prop_assert_eq!(ab.vars(), ba.vars());
        for (x, y) in ab.data().iter().zip(ba.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_product_is_associative(
        a in arb_factor(vec![0], vec![2]),
        b in arb_factor(vec![0, 1], vec![2, 2]),
        c in arb_factor(vec![1, 2], vec![2, 3]),
    ) {
        let left = a.product(&b).product(&c);
        let right = a.product(&b.product(&c));
        prop_assert_eq!(left.vars(), right.vars());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_out_commutes(f in arb_factor(vec![0, 1, 2], vec![2, 3, 2])) {
        let a = f.sum_out(0).sum_out(2);
        let b = f.sum_out(2).sum_out(0);
        prop_assert_eq!(a.vars(), b.vars());
        for (x, y) in a.data().iter().zip(b.data()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_out_preserves_total(f in arb_factor(vec![0, 1], vec![3, 4])) {
        prop_assert!((f.sum_out(0).total() - f.total()).abs() < 1e-9);
        prop_assert!((f.sum_out(1).total() - f.total()).abs() < 1e-9);
    }

    #[test]
    fn ve_matches_joint_enumeration(bn in arb_bn(), seed in 0u64..1000) {
        // Random evidence on up to two variables.
        let n = bn.len();
        let v1 = (seed as usize) % n;
        let v2 = (seed as usize / n) % n;
        let mut ev = Evidence::new();
        ev.eq(v1, (seed % bn.card(v1) as u64) as u32, bn.card(v1));
        ev.eq(v2, (seed / 7 % bn.card(v2) as u64) as u32, bn.card(v2));
        let ve = probability_of_evidence(&bn, &ev);
        let brute = brute_force(&bn, &ev);
        prop_assert!((ve - brute).abs() < 1e-9, "ve={} brute={}", ve, brute);
    }

    #[test]
    fn network_joint_is_normalized(bn in arb_bn()) {
        let joint = bn
            .factors()
            .into_iter()
            .reduce(|a, b| a.product(&b))
            .expect("non-empty");
        prop_assert!((joint.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grown_tree_rows_are_distributions(
        child in proptest::collection::vec(0u32..3, 30..120),
        parent in proptest::collection::vec(0u32..4, 30..120),
    ) {
        let n = child.len().min(parent.len());
        let grown = grow_tree(
            &child[..n],
            3,
            &[&parent[..n]],
            &[4],
            &TreeGrowOptions { min_gain_per_param: 0.01, ..Default::default() },
        );
        for pv in 0..4u32 {
            let d = grown.cpd.dist(&[pv]);
            let total: f64 = d.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(d.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // The tree's log-likelihood matches a direct recomputation.
        let direct: f64 = child[..n]
            .iter()
            .zip(&parent[..n])
            .map(|(&c, &p)| grown.cpd.dist(&[p])[c as usize].ln())
            .sum();
        prop_assert!((grown.loglik - direct).abs() < 1e-6);
    }

    #[test]
    fn discretizer_partitions_domain(
        codes in proptest::collection::vec(0u32..40, 10..200),
        bins in 2usize..10,
    ) {
        let d = Discretizer::equi_depth(&codes, 40, bins);
        prop_assert!(d.n_bins() <= bins);
        // Every code maps to exactly the bin whose range contains it.
        for c in 0..40u32 {
            let b = d.bin_of(c);
            let (lo, hi) = d.bin_range(b);
            prop_assert!(lo <= c && c <= hi);
        }
        // Ranges tile the domain.
        let mut expected_lo = 0u32;
        for b in 0..d.n_bins() as u32 {
            let (lo, hi) = d.bin_range(b);
            prop_assert_eq!(lo, expected_lo);
            expected_lo = hi + 1;
        }
        prop_assert_eq!(expected_lo, 40);
    }
}

/// A per-variable evidence mask: `None` is an unmasked ([`DENSE`]) axis;
/// `Some(allowed)` is a bool mask over the variable's codes. The strategy
/// covers the cases the masked kernels special-case: fully dense, an
/// explicit all-allowed mask, a single allowed code (equality
/// predicates), and arbitrary masks including empty ones.
fn arb_mask(card: usize) -> impl Strategy<Value = Option<Vec<bool>>> {
    prop_oneof![
        Just(None),
        Just(Some(vec![true; card])),
        (0..card).prop_map(move |c| {
            let mut m = vec![false; card];
            m[c] = true;
            Some(m)
        }),
        proptest::collection::vec(any::<bool>(), card).prop_map(Some),
    ]
}

/// Encodes bool masks into the shared allowed-code buffer the masked
/// kernels walk: for each axis in `scope`, either [`DENSE`] or the offset
/// of a `[len, code_0, code_1, …]` region in the returned `codes` buffer
/// — the same encoding `prmsel::plan` writes into its replay arena.
fn encode_masks(
    masks_by_var: &[Option<Vec<bool>>],
    scope: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut codes = Vec::new();
    let mut offs = Vec::with_capacity(scope.len());
    for &v in scope {
        match &masks_by_var[v] {
            None => offs.push(DENSE),
            Some(m) => {
                offs.push(codes.len());
                codes.push(0);
                let start = codes.len();
                codes.extend(m.iter().enumerate().filter(|(_, &ok)| ok).map(|(c, _)| c));
                let n = codes.len() - start;
                codes[start - 1] = n;
            }
        }
    }
    (codes, offs)
}

/// `f` with every masked variable in its scope reduced through the
/// ordinary [`Factor::reduce`] path.
fn reduce_all(f: &Factor, masks_by_var: &[Option<Vec<bool>>]) -> Factor {
    let mut r = f.clone();
    for &v in f.vars() {
        if let Some(m) = &masks_by_var[v] {
            r = r.reduce(v, m);
        }
    }
    r
}

/// `f`'s entry at an assignment of `vars` (one code per variable, in
/// `vars` order, covering `f`'s scope).
fn at(f: &Factor, vars: &[usize], assign: &[u32]) -> f64 {
    let own: Vec<u32> = f
        .vars()
        .iter()
        .map(|v| assign[vars.iter().position(|u| u == v).expect("var in scope")])
        .collect();
    f.value_at(&own)
}

/// Naive per-assignment evaluator, the independent reference for the
/// kernels: for every result cell of `rvars`/`rcards` in row-major order,
/// `term` at that assignment, or — when `summed` names a variable and its
/// cardinality — the sum of `term` over that variable's codes,
/// accumulated from `0.0` in ascending code order. Built only on
/// [`Factor::value_at`] (through `term`), no strides or odometers.
fn oracle(
    rvars: &[usize],
    rcards: &[usize],
    summed: Option<(usize, usize)>,
    term: impl Fn(&[usize], &[u32]) -> f64,
) -> Vec<f64> {
    let len: usize = rcards.iter().product::<usize>().max(1);
    let mut vars = rvars.to_vec();
    vars.extend(summed.map(|(v, _)| v));
    (0..len)
        .map(|mut i| {
            let mut cell = vec![0u32; rcards.len()];
            for k in (0..rcards.len()).rev() {
                cell[k] = (i % rcards[k]) as u32;
                i /= rcards[k];
            }
            match summed {
                None => term(&vars, &cell),
                Some((_, card)) => {
                    let mut acc = 0.0;
                    cell.push(0);
                    for c in 0..card as u32 {
                        *cell.last_mut().expect("summed code") = c;
                        acc += term(&vars, &cell);
                    }
                    acc
                }
            }
        })
        .collect()
}

/// The shared codes buffer with `v`'s region (if masked) spliced onto the
/// end of the result axes' regions, plus the summed variable's mask slot.
fn encode_with_summed(
    masks_by_var: &[Option<Vec<bool>>],
    rvars: &[usize],
    v: usize,
) -> (Vec<usize>, Vec<usize>, usize) {
    let (mut codes, offs) = encode_masks(masks_by_var, rvars);
    let (vcodes, voffs) = encode_masks(masks_by_var, &[v]);
    let v_mask = if voffs[0] == DENSE {
        DENSE
    } else {
        let at = codes.len();
        codes.extend_from_slice(&vcodes);
        at
    };
    (codes, offs, v_mask)
}

/// Random operands `a` over vars `{0,1,2}` and `b` over `{1,2,3}` with
/// shared cards, one mask per variable, and a summed-variable choice.
#[allow(clippy::type_complexity)]
fn arb_masked_case(
) -> impl Strategy<Value = (Vec<usize>, Factor, Factor, Vec<Option<Vec<bool>>>, usize)> {
    proptest::collection::vec(2usize..4, 4).prop_flat_map(|cards| {
        let len_a: usize = cards[..3].iter().product();
        let len_b: usize = cards[1..].iter().product();
        let (c0, c1, c2, c3) = (cards[0], cards[1], cards[2], cards[3]);
        (
            Just(cards),
            proptest::collection::vec(0.0f64..10.0, len_a),
            proptest::collection::vec(0.0f64..10.0, len_b),
            arb_mask(c0),
            arb_mask(c1),
            arb_mask(c2),
            arb_mask(c3),
            0usize..4,
        )
            .prop_map(|(cards, da, db, m0, m1, m2, m3, v)| {
                let a = Factor::new(vec![0, 1, 2], cards[..3].to_vec(), da);
                let b = Factor::new(vec![1, 2, 3], cards[1..].to_vec(), db);
                (cards, a, b, vec![m0, m1, m2, m3], v)
            })
    })
}

// Every kernel must be `f64::to_bits`-identical to the naive evaluator
// over the reduced operands — with the random masks and with all-`DENSE`
// masks (the `Factor` methods' case). This is the equivalence
// `prmsel::plan` relies on when it replays evidence-dependent ops over
// base factor data (skipped runs contribute exactly +0.0).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn product_masked_matches_reduce_then_dense(
        (_, a, b, masks, _) in arb_masked_case()
    ) {
        for masks in [masks, vec![None; 4]] {
            let (ra, rb) = (reduce_all(&a, &masks), reduce_all(&b, &masks));
            let (uvars, ucards) = union_scope(&a, &b);
            let want = oracle(&uvars, &ucards, None, |vars, asg| {
                at(&ra, vars, asg) * at(&rb, vars, asg)
            });
            let sa = strides_in(a.vars(), a.cards(), &uvars);
            let sb = strides_in(b.vars(), b.cards(), &uvars);
            let (codes, offs) = encode_masks(&masks, &uvars);
            let mut assign = vec![0usize; 2 * ucards.len()];
            let mut out = vec![f64::NAN; want.len()];
            product_into(
                a.data(), b.data(), &ucards, &sa, &sb, &offs, &codes, &mut assign, &mut out,
            );
            for (w, g) in want.iter().zip(&out) {
                prop_assert_eq!(w.to_bits(), g.to_bits());
            }
        }
    }

    #[test]
    fn product_sum_out_masked_matches_reduce_then_dense(
        (cards, a, b, masks, v) in arb_masked_case()
    ) {
        for masks in [masks, vec![None; 4]] {
            let (ra, rb) = (reduce_all(&a, &masks), reduce_all(&b, &masks));
            let (uvars, _) = union_scope(&a, &b);
            let rvars: Vec<usize> = uvars.iter().copied().filter(|&u| u != v).collect();
            let rcards: Vec<usize> = rvars.iter().map(|&u| cards[u]).collect();
            let want = oracle(&rvars, &rcards, Some((v, cards[v])), |vars, asg| {
                at(&ra, vars, asg) * at(&rb, vars, asg)
            });
            let sa = strides_in(a.vars(), a.cards(), &rvars);
            let sb = strides_in(b.vars(), b.cards(), &rvars);
            let (codes, offs, v_mask) = encode_with_summed(&masks, &rvars, v);
            let sav = strides_in(a.vars(), a.cards(), &[v])[0];
            let sbv = strides_in(b.vars(), b.cards(), &[v])[0];
            let mut assign = vec![0usize; 2 * rcards.len()];
            let mut out = vec![f64::NAN; want.len()];
            product_sum_out_into(
                a.data(), b.data(), &rcards, &sa, &sb, &offs, &codes, cards[v], sav, sbv,
                v_mask, &mut assign, &mut out,
            );
            for (w, g) in want.iter().zip(&out) {
                prop_assert_eq!(w.to_bits(), g.to_bits());
            }
        }
    }

    #[test]
    fn sum_out_masked_matches_reduce_then_dense(
        (cards, a, _, masks, v0) in arb_masked_case()
    ) {
        for masks in [masks, vec![None; 4]] {
            let ra = reduce_all(&a, &masks);
            let v = a.vars()[v0 % a.vars().len()];
            let rvars: Vec<usize> = a.vars().iter().copied().filter(|&u| u != v).collect();
            let rcards: Vec<usize> = rvars.iter().map(|&u| cards[u]).collect();
            let want =
                oracle(&rvars, &rcards, Some((v, cards[v])), |vars, asg| at(&ra, vars, asg));
            let stride = strides_in(a.vars(), a.cards(), &rvars);
            let sv = strides_in(a.vars(), a.cards(), &[v])[0];
            let (codes, offs, v_mask) = encode_with_summed(&masks, &rvars, v);
            let mut assign = vec![0usize; 2 * rcards.len()];
            let mut out = vec![f64::NAN; want.len()];
            sum_out_into(
                a.data(), &rcards, &stride, &offs, &codes, cards[v], sv, v_mask, &mut assign,
                &mut out,
            );
            for (w, g) in want.iter().zip(&out) {
                prop_assert_eq!(w.to_bits(), g.to_bits());
            }
        }
    }
}

/// The sorted-`Vec` union/merge implementation `elimination_order` used
/// before scopes became [`bayesnet::VarSet`] bitsets — kept verbatim as
/// the reference the bitset version must reproduce order-for-order
/// (weights, tie-breaks, and the scope-fusion simulation included).
fn reference_elimination_order(
    scopes: &[Vec<usize>],
    elim: &[usize],
    card_of: impl Fn(usize) -> usize,
) -> Vec<usize> {
    fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j >= b.len() || (i < a.len() && a[i] <= b[j]);
            if take_a {
                if j < b.len() && a[i] == b[j] {
                    j += 1;
                }
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out
    }
    let mut scopes: Vec<Vec<usize>> = scopes
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect();
    let mut remaining: Vec<usize> = elim.to_vec();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut merged: Vec<usize> = Vec::new();
                for s in scopes.iter().filter(|s| s.contains(&v)) {
                    merged = union_sorted(&merged, s);
                }
                let weight: f64 = merged.iter().map(|&sv| card_of(sv) as f64).product();
                (i, weight)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("weights are finite"))
            .expect("remaining is non-empty");
        let var = remaining.swap_remove(best_idx);
        order.push(var);
        let mut fused: Vec<usize> = Vec::new();
        let mut any = false;
        scopes.retain(|s| {
            if s.contains(&var) {
                fused = union_sorted(&fused, s);
                any = true;
                false
            } else {
                true
            }
        });
        if !any {
            continue;
        }
        fused.retain(|&sv| sv != var);
        scopes.push(fused);
    }
    order
}

/// Random scope sets whose variable ids straddle the `VarSet` inline /
/// spill boundary (256 bits), so word-wise union, ascending iteration,
/// and fusion are all exercised in both storage regimes.
fn arb_scope_family() -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<usize>)> {
    (
        proptest::collection::vec(proptest::collection::vec(0usize..400, 1..5), 1..8),
        any::<bool>(),
    )
        .prop_map(|(mut scopes, spill)| {
            if !spill {
                // Fold ids into the inline regime (< 256 bits).
                for s in &mut scopes {
                    for v in s.iter_mut() {
                        *v %= 12;
                    }
                }
            }
            let mut all: Vec<usize> = scopes.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            (scopes, all)
        })
}

// The bitset `elimination_order` must reproduce the sorted-merge
// reference exactly: same variables, same order, for scope families in
// both the inline and spilled `VarSet` regimes.
proptest! {
    #[test]
    fn bitset_elimination_order_matches_sorted_merge_reference(
        (scopes, elim) in arb_scope_family()
    ) {
        // Deterministic pseudo-random cardinalities keyed by var id, so
        // both implementations see the same weights.
        let card_of = |v: usize| 2 + (v * 7 + 3) % 5;
        let got = bayesnet::elimination_order(&scopes, &elim, card_of);
        let want = reference_elimination_order(&scopes, &elim, card_of);
        prop_assert_eq!(got, want);
    }
}
