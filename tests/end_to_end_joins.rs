//! End-to-end select-join reproduction on the synthetic TB and FIN data:
//! the qualitative ordering of Fig. 6 (PRM ≥ BN+UJ ≥ SAMPLE at equal
//! storage) must hold on scaled-down runs.

use prmsel::{
    JoinSampleAdapter, PrmEstimator, PrmLearnConfig, SelectivityEstimator,
    TreeGrowOptions,
};
use workloads::suites::{join_chain_suite, ChainStep};
use workloads::tb::tb_database_sized;

fn tb_suite(db: &reldb::Database) -> workloads::QuerySuite {
    join_chain_suite(
        db,
        &[
            ChainStep {
                table: "contact",
                fk_to_next: Some("patient"),
                select_attrs: &["contype"],
            },
            ChainStep {
                table: "patient",
                fk_to_next: Some("strain"),
                select_attrs: &["age"],
            },
            ChainStep { table: "strain", fk_to_next: None, select_attrs: &["unique"] },
        ],
    )
    .unwrap()
}

fn config(budget: usize) -> PrmLearnConfig {
    PrmLearnConfig {
        budget_bytes: budget,
        tree: TreeGrowOptions { min_gain_per_param: 1.0, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn prm_beats_bn_uj_and_sample_on_tb_joins() {
    let db = tb_database_sized(400, 500, 4_000, 21);
    let suite = tb_suite(&db);
    let truths = prmsel::metrics::ground_truth(&db, &suite.queries).unwrap();
    let budget = 3_000;

    let prm = PrmEstimator::build(&db, &config(budget)).unwrap();
    let bn_uj = PrmEstimator::build(&db, &PrmLearnConfig::bn_uj(budget)).unwrap();
    let sample =
        JoinSampleAdapter::build(&db, "contact", &["patient", "strain"], budget, 17)
            .unwrap();

    let prm_err = prmsel::metrics::evaluate_with_truth(&prm, &suite.queries, &truths)
        .unwrap()
        .mean_error_pct();
    let uj_err = prmsel::metrics::evaluate_with_truth(&bn_uj, &suite.queries, &truths)
        .unwrap()
        .mean_error_pct();
    let s_err = prmsel::metrics::evaluate_with_truth(&sample, &suite.queries, &truths)
        .unwrap()
        .mean_error_pct();
    // Fig. 6 ordering: PRM < BN+UJ and PRM < SAMPLE.
    assert!(prm_err < uj_err, "PRM {prm_err:.1}% vs BN+UJ {uj_err:.1}%");
    assert!(prm_err < s_err, "PRM {prm_err:.1}% vs SAMPLE {s_err:.1}%");
}

#[test]
fn prm_handles_two_table_subchains_from_the_same_model() {
    // A single PRM answers queries over any subset of tables.
    let db = tb_database_sized(300, 400, 3_000, 22);
    let prm = PrmEstimator::build(&db, &config(3_000)).unwrap();
    let suite = join_chain_suite(
        &db,
        &[
            ChainStep {
                table: "patient",
                fk_to_next: Some("strain"),
                select_attrs: &["usborn"],
            },
            ChainStep { table: "strain", fk_to_next: None, select_attrs: &["unique"] },
        ],
    )
    .unwrap();
    let eval = prmsel::evaluate_suite(&db, &prm, &suite.queries).unwrap();
    assert_eq!(eval.len(), 4);
    assert!(eval.mean_error_pct() < 40.0, "{:.1}%", eval.mean_error_pct());
}

#[test]
fn join_skew_is_visible_to_prm_but_not_bn_uj() {
    // The §3.2 example: P(usborn ∧ non-unique strain ∧ join) deviates from
    // the uniform-join product; the PRM must track it.
    let db = tb_database_sized(400, 800, 100, 23);
    let prm = PrmEstimator::build(&db, &config(4_000)).unwrap();
    let bn_uj = PrmEstimator::build(&db, &PrmLearnConfig::bn_uj(4_000)).unwrap();
    let mut b = reldb::Query::builder();
    let p = b.var("patient");
    let s = b.var("strain");
    b.join(p, "strain", s).eq(p, "usborn", "yes").eq(s, "unique", "no");
    let q = b.build();
    let truth = reldb::result_size(&db, &q).unwrap() as f64;
    let prm_est = prm.estimate(&q).unwrap();
    let uj_est = bn_uj.estimate(&q).unwrap();
    assert!(
        (prm_est - truth).abs() <= (uj_est - truth).abs(),
        "truth={truth} prm={prm_est} bn_uj={uj_est}"
    );
}

#[test]
fn fin_chain_runs_end_to_end() {
    use workloads::fin::fin_database_sized;
    let db = fin_database_sized(40, 400, 6_000, 24);
    let prm = PrmEstimator::build(&db, &config(2_000)).unwrap();
    let suite = join_chain_suite(
        &db,
        &[
            ChainStep {
                table: "transaction",
                fk_to_next: Some("account"),
                select_attrs: &["ttype"],
            },
            ChainStep {
                table: "account",
                fk_to_next: Some("district"),
                select_attrs: &["frequency"],
            },
            ChainStep {
                table: "district",
                fk_to_next: None,
                select_attrs: &["avg_salary"],
            },
        ],
    )
    .unwrap();
    let eval = prmsel::evaluate_suite(&db, &prm, &suite.queries).unwrap();
    assert_eq!(eval.len(), 3 * 3 * 4);
    assert!(eval.mean_error_pct().is_finite());
}

#[test]
fn join_range_queries_from_one_model() {
    // The most general query shape (range predicates over a full chain)
    // answered from one model — §2.3 + §3 composed.
    use workloads::join_chain_range_suite;
    let db = tb_database_sized(300, 400, 3_000, 26);
    let prm = PrmEstimator::build(&db, &config(3_000)).unwrap();
    let steps = [
        ChainStep {
            table: "contact",
            fk_to_next: Some("patient"),
            select_attrs: &["age"],
        },
        ChainStep {
            table: "patient",
            fk_to_next: Some("strain"),
            select_attrs: &["hiv"],
        },
        ChainStep { table: "strain", fk_to_next: None, select_attrs: &["lineage"] },
    ];
    let suite = join_chain_range_suite(&db, &steps, 40, 9).unwrap();
    let eval = prmsel::evaluate_suite(&db, &prm, &suite.queries).unwrap();
    assert!(eval.mean_error_pct() < 40.0, "{:.1}%", eval.mean_error_pct());
}
