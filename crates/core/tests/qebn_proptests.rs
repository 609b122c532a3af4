//! Property tests on the query-evaluation machinery with *randomly
//! structured* hand-built PRMs (not learned ones): for any valid
//! two-table PRM, the unrolled network must be a coherent distribution
//! and Proposition 3.4 (closure invariance) must hold.

use bayesnet::TableCpd;
use prmsel::prm::{
    AttrModel, JiParentRef, JoinIndicatorModel, ParentRef, Prm, TableModel,
};
use prmsel::schema::{FkInfo, SchemaInfo, TableInfo};
use prmsel::QueryEvalBn;
use proptest::prelude::*;
use reldb::{Domain, Query, Value};

/// Builds a random two-table PRM: parent(x0, x1), child(y0, y1) with
/// random local edges (y1 ← y0 maybe), random foreign parents, and a join
/// indicator with random parents consistent with the constraints.
fn arb_prm() -> impl Strategy<Value = (Prm, SchemaInfo)> {
    (
        proptest::collection::vec(1u32..100, 64), // CPD weight pool
        any::<bool>(),                            // y1 ← y0 local edge
        any::<bool>(),                            // y0 ← parent.x0 foreign edge
        any::<bool>(),                            // JI ← parent.x1
        any::<bool>(), // JI ← child.y1 (legal: y1 has no foreign parent)
        2usize..4,     // card of x0
        2usize..4,     // card of y0
    )
        .prop_map(
            |(w, local_edge, foreign_edge, ji_parent_p, ji_parent_c, cx, cy)| {
                let mut wi = w.into_iter().cycle();
                let mut dist = |n: usize| -> Vec<f64> {
                    let raw: Vec<f64> =
                        (0..n).map(|_| wi.next().unwrap() as f64).collect();
                    let t: f64 = raw.iter().sum();
                    raw.into_iter().map(|x| x / t).collect()
                };
                // parent table: x0 (card cx), x1 (card 2), x1 ← x0.
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
                // child table: y0 (card cy, maybe ← parent.x0), y1 (card 2,
                // maybe ← y0).
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
                    (
                        vec![ParentRef::Local { attr: 0 }],
                        TableCpd::new(2, vec![cy], probs),
                    )
                } else {
                    (vec![], TableCpd::new(2, vec![], dist(2)))
                };
                // Join indicator parents.
                let mut ji_parents = Vec::new();
                let mut ji_cards = Vec::new();
                if ji_parent_c {
                    ji_parents.push(JiParentRef::Child { attr: 1 });
                    ji_cards.push(2);
                }
                if ji_parent_p {
                    ji_parents.push(JiParentRef::Parent { attr: 1 });
                    ji_cards.push(2);
                }
                let rows: usize = ji_cards.iter().product::<usize>().max(1);
                let mut p_true: Vec<f64> = (0..rows)
                    .map(|_| 0.01 + (wi.next().unwrap() % 50) as f64 / 1000.0)
                    .collect();
                // Referential-integrity calibration (Prop. 3.4 relies on it,
                // and learned models satisfy it by construction): every child
                // tuple joins exactly one parent, so for EVERY child
                // configuration `c`, Σ_p P(p-part)·p_true(c, p) must equal
                // 1/|S|. Rescale each child-part slice accordingly (parent
                // marginals are computable from the parent-local CPDs).
                {
                    let p_x0 = x0.cpd.dist(&[]).to_vec();
                    // Parent-side marginal P(x1 = b).
                    let mut p_b = [0.0f64; 2];
                    for a in 0..cx as u32 {
                        for (b, pb) in p_b.iter_mut().enumerate() {
                            *pb += p_x0[a as usize] * x1.cpd.dist(&[a])[b];
                        }
                    }
                    let target = 1.0 / 50.0;
                    let child_parts: usize = if ji_parent_c { 2 } else { 1 };
                    for c_part in 0..child_parts {
                        // Expected p_true over the parent marginal for this
                        // child part.
                        let mut expectation = 0.0;
                        if ji_parent_p {
                            for (b, pb) in p_b.iter().enumerate() {
                                let mut cfg = Vec::new();
                                if ji_parent_c {
                                    cfg.push(c_part as u32);
                                }
                                cfg.push(b as u32);
                                let mut idx = 0usize;
                                for (&v, &card) in cfg.iter().zip(&ji_cards) {
                                    idx = idx * card + v as usize;
                                }
                                expectation += pb * p_true[idx];
                            }
                        } else {
                            let idx = if ji_parent_c { c_part } else { 0 };
                            expectation = p_true[idx];
                        }
                        let scale = target / expectation;
                        // Rescale this child part's slice.
                        if ji_parent_p {
                            for b in 0..2usize {
                                let mut cfg = Vec::new();
                                if ji_parent_c {
                                    cfg.push(c_part as u32);
                                }
                                cfg.push(b as u32);
                                let mut idx = 0usize;
                                for (&v, &card) in cfg.iter().zip(&ji_cards) {
                                    idx = idx * card + v as usize;
                                }
                                p_true[idx] = (p_true[idx] * scale).min(1.0);
                            }
                        } else {
                            let idx = if ji_parent_c { c_part } else { 0 };
                            p_true[idx] = (p_true[idx] * scale).min(1.0);
                        }
                    }
                }
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
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_invariance_on_random_structures((prm, schema) in arb_prm(), y in 0i64..2) {
        // Single-table vs explicit join (Prop. 3.4).
        let mut b1 = Query::builder();
        let c1 = b1.var("child");
        b1.eq(c1, "y1", y);
        let e1 = QueryEvalBn::build(&prm, &schema, &b1.build())
            .unwrap()
            .estimated_size(&prm);
        let mut b2 = Query::builder();
        let c2 = b2.var("child");
        let p2 = b2.var("parent");
        b2.join(c2, "parent", p2).eq(c2, "y1", y);
        let e2 = QueryEvalBn::build(&prm, &schema, &b2.build())
            .unwrap()
            .estimated_size(&prm);
        prop_assert!((e1 - e2).abs() < 1e-9 * e1.max(1.0), "{} vs {}", e1, e2);
    }

    #[test]
    fn partition_over_child_attr_sums_to_join_size((prm, schema) in arb_prm()) {
        // Σ_y size(join ∧ y1 = y) == size(join).
        let join_only = {
            let mut b = Query::builder();
            let c = b.var("child");
            let p = b.var("parent");
            b.join(c, "parent", p);
            QueryEvalBn::build(&prm, &schema, &b.build())
                .unwrap()
                .estimated_size(&prm)
        };
        let mut sum = 0.0;
        for y in 0..2i64 {
            let mut b = Query::builder();
            let c = b.var("child");
            let p = b.var("parent");
            b.join(c, "parent", p).eq(c, "y1", y);
            sum += QueryEvalBn::build(&prm, &schema, &b.build())
                .unwrap()
                .estimated_size(&prm);
        }
        prop_assert!((sum - join_only).abs() < 1e-9 * join_only.max(1.0));
    }

    #[test]
    fn probabilities_stay_in_unit_range((prm, schema) in arb_prm(), x in 0i64..2, y in 0i64..2) {
        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.join(c, "parent", p).eq(c, "y1", y).eq(p, "x1", x);
        let qebn = QueryEvalBn::build(&prm, &schema, &b.build()).unwrap();
        let prob = qebn.probability_of_evidence();
        prop_assert!((0.0..=1.0).contains(&prob), "P = {}", prob);
        let est = qebn.estimated_size(&prm);
        prop_assert!(est >= 0.0 && est.is_finite());
    }

    #[test]
    fn persistence_round_trips_random_models((prm, schema) in arb_prm(), y in 0i64..2) {
        let mut buf = Vec::new();
        prmsel::save_model(&prm, &schema, &mut buf).unwrap();
        let (prm2, schema2) = prmsel::load_model(buf.as_slice()).unwrap();
        let mut b = Query::builder();
        let c = b.var("child");
        let p = b.var("parent");
        b.join(c, "parent", p).eq(c, "y1", y);
        let q = b.build();
        let before = QueryEvalBn::build(&prm, &schema, &q).unwrap().estimated_size(&prm);
        let after =
            QueryEvalBn::build(&prm2, &schema2, &q).unwrap().estimated_size(&prm2);
        prop_assert!((before - after).abs() < 1e-12, "{} vs {}", before, after);
        prop_assert_eq!(prm.size_bytes(), prm2.size_bytes());
    }

    #[test]
    fn conditioning_never_increases_estimates((prm, schema) in arb_prm(), y in 0i64..2) {
        let loose = {
            let mut b = Query::builder();
            let c = b.var("child");
            let p = b.var("parent");
            b.join(c, "parent", p).eq(c, "y1", y);
            QueryEvalBn::build(&prm, &schema, &b.build())
                .unwrap()
                .estimated_size(&prm)
        };
        let tight = {
            let mut b = Query::builder();
            let c = b.var("child");
            let p = b.var("parent");
            b.join(c, "parent", p).eq(c, "y1", y).eq(p, "x1", 0);
            QueryEvalBn::build(&prm, &schema, &b.build())
                .unwrap()
                .estimated_size(&prm)
        };
        prop_assert!(tight <= loose + 1e-9, "tight {} > loose {}", tight, loose);
    }
}
