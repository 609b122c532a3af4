//! Criterion microbenches for the online phase (Fig. 7(c) companion):
//! per-query estimation latency for every method — this is the inner loop
//! of a cost-based optimizer, so it is the latency that matters most.

use criterion::{criterion_group, criterion_main, Criterion};
use prmsel::{
    AviAdapter, CpdKind, JoinSampleAdapter, MhistAdapter, PrmEstimator, PrmLearnConfig,
    SampleAdapter, SelectivityEstimator,
};
use reldb::Query;
use workloads::census::census_database;
use workloads::suites::{join_chain_suite, ChainStep};
use workloads::tb::tb_database_sized;

fn census_query() -> Query {
    let mut b = Query::builder();
    let v = b.var("census");
    b.eq(v, "income", 20).eq(v, "age", 7).eq(v, "education", 10);
    b.build()
}

fn bench_single_table_estimation(c: &mut Criterion) {
    let db = census_database(20_000, 1);
    let q = census_query();
    let mut group = c.benchmark_group("estimate/census");

    for kind in [CpdKind::Tree, CpdKind::Table] {
        let est = PrmEstimator::build(
            &db,
            &PrmLearnConfig { budget_bytes: 3_500, cpd_kind: kind, ..Default::default() },
        )
        .expect("build");
        group.bench_function(format!("prm_{kind:?}"), |b| {
            b.iter(|| est.estimate(&q).expect("estimate"))
        });
    }
    let avi = AviAdapter::build(&db, "census").expect("build");
    group.bench_function("avi", |b| b.iter(|| avi.estimate(&q).expect("estimate")));
    let sample = SampleAdapter::build(&db, "census", 3_500, 42).expect("build");
    group.bench_function("sample", |b| b.iter(|| sample.estimate(&q).expect("estimate")));
    let mhist =
        MhistAdapter::build(&db, "census", &["income", "age", "education"], 3_500)
            .expect("build");
    group.bench_function("mhist", |b| b.iter(|| mhist.estimate(&q).expect("estimate")));
    group.finish();
}

fn bench_join_estimation(c: &mut Criterion) {
    let db = tb_database_sized(400, 500, 4_000, 7);
    let suite = join_chain_suite(
        &db,
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
    .expect("suite");
    let q = &suite.queries[0];
    let mut group = c.benchmark_group("estimate/tb_join");

    let prm = PrmEstimator::build(
        &db,
        &PrmLearnConfig { budget_bytes: 3_000, ..Default::default() },
    )
    .expect("build");
    group.bench_function("prm", |b| b.iter(|| prm.estimate(q).expect("estimate")));

    let bn_uj = PrmEstimator::build(&db, &PrmLearnConfig::bn_uj(3_000)).expect("build");
    group.bench_function("bn_uj", |b| b.iter(|| bn_uj.estimate(q).expect("estimate")));

    let sample =
        JoinSampleAdapter::build(&db, "contact", &["patient", "strain"], 3_000, 13)
            .expect("build");
    group.bench_function("sample", |b| b.iter(|| sample.estimate(q).expect("estimate")));

    // The unrolling step alone (closure + network assembly, no inference).
    group
        .bench_function("prm_unroll_only", |b| b.iter(|| prm.unroll(q).expect("unroll")));
    group.finish();
}

criterion_group!(benches, bench_single_table_estimation, bench_join_estimation);
criterion_main!(benches);
