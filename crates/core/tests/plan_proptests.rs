//! Determinism guarantees of the compiled-plan online path: for any
//! model, query, and thread count, plan-cached estimates must be
//! **bit-identical** (`f64::to_bits`) to the uncached
//! `QueryEvalBn::build` + `estimated_size` pipeline — the plan layer is
//! a pure evaluation-order-preserving refactoring, never an
//! approximation. Plus unit tests for the LRU policy and cache
//! invalidation on model reload.

use bayesnet::TableCpd;
use prmsel::prm::{
    AttrModel, JiParentRef, JoinIndicatorModel, ParentRef, Prm, TableModel,
};
use prmsel::schema::{FkInfo, SchemaInfo, TableInfo};
use prmsel::{estimate_batch, PrmEstimator, SelectivityEstimator};
use proptest::prelude::*;
use reldb::{Domain, Query, Value};

/// Serializes tests that force the process-wide worker count.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    par::set_threads(Some(n));
    let out = f();
    par::set_threads(None);
    out
}

/// A random two-table PRM: parent(x0, x1 ← x0), child(y0 maybe ←
/// parent.x0, y1 maybe ← y0) and a join indicator with random parents.
/// No referential-integrity calibration — bit-identity holds for any
/// parameterization, calibrated or not.
fn arb_prm() -> impl Strategy<Value = (Prm, SchemaInfo)> {
    (
        proptest::collection::vec(1u32..100, 64),
        any::<bool>(), // y1 ← y0
        any::<bool>(), // y0 ← parent.x0
        any::<bool>(), // JI ← parent.x1
        2usize..4,     // card of x0
        2usize..5,     // card of y0
    )
        .prop_map(|(w, local_edge, foreign_edge, ji_parent_p, cx, cy)| {
            let mut wi = w.into_iter().cycle();
            let mut dist = |n: usize| -> Vec<f64> {
                let raw: Vec<f64> = (0..n).map(|_| wi.next().unwrap() as f64).collect();
                let t: f64 = raw.iter().sum();
                raw.into_iter().map(|x| x / t).collect()
            };
            let x0 = AttrModel {
                name: "x0".into(),
                card: cx,
                parents: vec![],
                cpd: TableCpd::new(cx, vec![], dist(cx)).into(),
            };
            let mut x1_probs = Vec::new();
            for _ in 0..cx {
                x1_probs.extend(dist(2));
            }
            let x1 = AttrModel {
                name: "x1".into(),
                card: 2,
                parents: vec![ParentRef::Local { attr: 0 }],
                cpd: TableCpd::new(2, vec![cx], x1_probs).into(),
            };
            let (y0_parents, y0_cpd) = if foreign_edge {
                let mut probs = Vec::new();
                for _ in 0..cx {
                    probs.extend(dist(cy));
                }
                (
                    vec![ParentRef::Foreign { fk: 0, attr: 0 }],
                    TableCpd::new(cy, vec![cx], probs),
                )
            } else {
                (vec![], TableCpd::new(cy, vec![], dist(cy)))
            };
            let (y1_parents, y1_cpd) = if local_edge {
                let mut probs = Vec::new();
                for _ in 0..cy {
                    probs.extend(dist(2));
                }
                (vec![ParentRef::Local { attr: 0 }], TableCpd::new(2, vec![cy], probs))
            } else {
                (vec![], TableCpd::new(2, vec![], dist(2)))
            };
            let (ji_parents, ji_cards) = if ji_parent_p {
                (vec![JiParentRef::Parent { attr: 1 }], vec![2])
            } else {
                (vec![], vec![])
            };
            let rows: usize = ji_cards.iter().product::<usize>().max(1);
            let p_true: Vec<f64> = (0..rows)
                .map(|_| 0.005 + (wi.next().unwrap() % 50) as f64 / 1000.0)
                .collect();
            let prm = Prm {
                tables: vec![
                    TableModel {
                        table: "parent".into(),
                        n_rows: 50,
                        attrs: vec![x0, x1],
                        join_indicators: vec![],
                    },
                    TableModel {
                        table: "child".into(),
                        n_rows: 200,
                        attrs: vec![
                            AttrModel {
                                name: "y0".into(),
                                card: cy,
                                parents: y0_parents,
                                cpd: y0_cpd.into(),
                            },
                            AttrModel {
                                name: "y1".into(),
                                card: 2,
                                parents: y1_parents,
                                cpd: y1_cpd.into(),
                            },
                        ],
                        join_indicators: vec![JoinIndicatorModel {
                            fk_attr: "parent".into(),
                            target: "parent".into(),
                            parents: ji_parents,
                            parent_cards: ji_cards,
                            p_true,
                        }],
                    },
                ],
            };
            let dom =
                |card: usize| Domain::new((0..card as i64).map(Value::Int).collect());
            let schema = SchemaInfo {
                tables: vec![
                    TableInfo {
                        name: "parent".into(),
                        n_rows: 50,
                        attrs: vec!["x0".into(), "x1".into()],
                        domains: vec![dom(cx), dom(2)],
                        fks: vec![],
                    },
                    TableInfo {
                        name: "child".into(),
                        n_rows: 200,
                        attrs: vec!["y0".into(), "y1".into()],
                        domains: vec![dom(cy), dom(2)],
                        fks: vec![FkInfo { attr: "parent".into(), target: 0 }],
                    },
                ],
            };
            (prm, schema)
        })
}

/// A random query over the two-table schema: template (single-table vs
/// explicit join) and a random subset of predicates with random
/// constants, covering equality, membership, and range evidence masks.
/// The `y0` predicate is an equality, a `[lo, hi]` range (empty when
/// `lo > hi`), or a membership test with a gap (`{c, c + 2}`), optionally
/// intersected with a second, open-ended range on `y0` — so the replay
/// reads folded constants through single-code, multi-run, empty, and
/// intersected masks.
fn arb_query() -> impl Strategy<Value = Query> {
    (
        any::<bool>(),            // explicit join?
        0usize..4,                // pred selector bitmask over {y0, y1}
        0usize..3,                // y0 shape: eq, range, membership with a gap
        0i64..5,                  // y0 constant or low end (may leave the domain)
        0i64..5,                  // y0 range high end
        (any::<bool>(), 0i64..5), // second y0 predicate `y0 >= lo2`?, lo2
        0i64..2,                  // y1 constant
        0i64..2,                  // x1 constant
    )
        .prop_map(|(join, mask, shape, v0, hi, (second, lo2), v1, vx)| {
            let mut b = Query::builder();
            let c = b.var("child");
            let p = if join {
                let p = b.var("parent");
                b.join(c, "parent", p);
                Some(p)
            } else {
                None
            };
            if mask & 1 != 0 {
                match shape {
                    0 => b.eq(c, "y0", v0),
                    1 => b.range(c, "y0", Some(v0), Some(hi)),
                    _ => b.isin(c, "y0", vec![Value::Int(v0), Value::Int(v0 + 2)]),
                };
                if second {
                    b.range(c, "y0", Some(lo2), None);
                }
            }
            if mask & 2 != 0 {
                b.eq(c, "y1", v1);
            }
            if let Some(p) = p {
                b.eq(p, "x1", vx);
            }
            b.build()
        })
}

/// The reference value: the uncached unroll-and-eliminate pipeline.
fn uncached(est: &PrmEstimator, q: &Query) -> f64 {
    est.unroll(q).unwrap().estimated_size(&est.epoch().prm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_cached_estimates_are_bit_identical_to_uncached(
        (prm, schema) in arb_prm(),
        q in arb_query(),
    ) {
        let est = PrmEstimator::from_parts(prm, schema, "PRM");
        let reference = uncached(&est, &q);
        // Cold: the first estimate compiles the plan.
        let cold = est.estimate(&q).unwrap();
        prop_assert!(est.has_cached_plan(&q));
        // Warm: the second replays the cached plan.
        let warm = est.estimate(&q).unwrap();
        prop_assert_eq!(reference.to_bits(), cold.to_bits(),
            "cold: {} vs {}", reference, cold);
        prop_assert_eq!(reference.to_bits(), warm.to_bits(),
            "warm: {} vs {}", reference, warm);
    }

    #[test]
    fn batch_estimates_are_bit_identical_across_thread_counts(
        (prm, schema) in arb_prm(),
        queries in proptest::collection::vec(arb_query(), 1..8),
    ) {
        let est = PrmEstimator::from_parts(prm, schema, "PRM");
        let reference: Vec<f64> = queries.iter().map(|q| uncached(&est, q)).collect();
        for threads in [1usize, 4] {
            est.clear_plan_cache();
            let got = with_threads(threads, || estimate_batch(&est, &queries)).unwrap();
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                prop_assert_eq!(r.to_bits(), g.to_bits(),
                    "threads={} query #{}: {} vs {}", threads, i, r, g);
            }
        }
    }
}

/// Three distinct single-table templates (they differ in the predicate
/// attribute set).
fn templates() -> [Query; 3] {
    let a = {
        let mut b = Query::builder();
        let c = b.var("child");
        b.eq(c, "y0", 0);
        b.build()
    };
    let bq = {
        let mut b = Query::builder();
        let c = b.var("child");
        b.eq(c, "y1", 0);
        b.build()
    };
    let cq = {
        let mut b = Query::builder();
        let c = b.var("child");
        b.eq(c, "y0", 0).eq(c, "y1", 0);
        b.build()
    };
    [a, bq, cq]
}

/// One deterministic model from the random family, for the unit tests.
fn fixed_model(seed: u32) -> (Prm, SchemaInfo) {
    let mut rng = proptest::case_rng("plan_unit_tests", seed);
    arb_prm().generate(&mut rng)
}

fn fixed_estimator(seed: u32) -> PrmEstimator {
    let (prm, schema) = fixed_model(seed);
    PrmEstimator::from_parts(prm, schema, "PRM")
}

#[test]
fn lru_evicts_the_least_recently_used_template() {
    let est = fixed_estimator(7);
    est.set_plan_cache_capacity(2);
    let [a, b, c] = templates();
    est.estimate(&a).unwrap();
    est.estimate(&b).unwrap();
    assert_eq!(est.plan_cache_len(), 2);
    // Touch A so B becomes the LRU entry, then insert C.
    est.estimate(&a).unwrap();
    est.estimate(&c).unwrap();
    assert_eq!(est.plan_cache_len(), 2);
    assert!(est.has_cached_plan(&a), "recently used plan must survive");
    assert!(est.has_cached_plan(&c), "newest plan must be resident");
    assert!(!est.has_cached_plan(&b), "LRU plan must be evicted");
}

#[test]
fn same_template_different_constants_share_one_plan() {
    let est = fixed_estimator(11);
    let mk = |v: i64| {
        let mut b = Query::builder();
        let c = b.var("child");
        b.eq(c, "y0", v);
        b.build()
    };
    for v in 0..3 {
        let q = mk(v);
        let got = est.estimate(&q).unwrap();
        assert_eq!(got.to_bits(), uncached(&est, &q).to_bits(), "v={v}");
    }
    assert_eq!(est.plan_cache_len(), 1, "constants must not fragment the cache");
}

#[test]
fn zero_capacity_disables_caching_but_stays_exact() {
    let est = fixed_estimator(13);
    est.set_plan_cache_capacity(0);
    let [a, ..] = templates();
    let got = est.estimate(&a).unwrap();
    assert_eq!(got.to_bits(), uncached(&est, &a).to_bits());
    assert_eq!(est.plan_cache_len(), 0);
    assert!(!est.has_cached_plan(&a));
}

#[test]
fn model_reload_invalidates_cached_plans() {
    let est = fixed_estimator(17);
    let [a, b, _] = templates();
    est.estimate(&a).unwrap();
    est.estimate(&b).unwrap();
    assert_eq!(est.plan_cache_len(), 2);

    // Replace the model with a differently-parameterized one: the swap
    // recompiles the hot templates against the new epoch (so the warm
    // path does not fall off a compile cliff), and a stale plan must
    // never answer — estimates must match the new model's uncached path.
    let (prm2, schema2) = fixed_model(23);
    est.replace_model(prm2, schema2);
    assert_eq!(
        est.plan_cache_len(),
        2,
        "reload re-precompiles the hot templates on the new epoch"
    );
    assert!(est.has_cached_plan(&a));
    let got = est.estimate(&a).unwrap();
    assert_eq!(got.to_bits(), uncached(&est, &a).to_bits());
}
