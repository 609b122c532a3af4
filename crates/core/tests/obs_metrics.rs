//! Integration test for the observability wiring: building a PRM and
//! running estimates must leave the expected traces in the process-global
//! metrics registry.
//!
//! The registry is shared across the whole process, so every assertion is
//! a *delta* against a snapshot taken before the workload — absolute
//! values would couple this test to execution order. The exact
//! `prm.estimate.*` call counts live in `obs_estimate_metrics.rs`, a
//! process of their own, because every sibling here runs estimates.

mod support;

use prmsel::{PrmEstimator, PrmLearnConfig, SelectivityEstimator};
use reldb::{Cell, DatabaseBuilder, Query, TableBuilder, Value};
use support::tiny_db;

#[test]
fn suite_evaluation_drives_executor_and_quality_metrics() {
    let reg = obs::registry();
    let exec_before = reg.counter("reldb.exec.queries").get();
    let rows_before = reg.counter("reldb.exec.rows_scanned").get();
    let quality_before = reg.histogram("quality.adj_rel_err_pct").count();

    let db = tiny_db();
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");

    let mut b = Query::builder();
    let c = b.var("child");
    b.eq(c, "y", 1);
    let suite = [b.build()];
    let eval = prmsel::metrics::evaluate_suite(&db, &est, &suite).expect("evaluate");
    assert_eq!(eval.len(), 1);

    // Ground truth ran through the relational executor...
    assert_eq!(reg.counter("reldb.exec.queries").get() - exec_before, 1);
    // ...scanning the 8 child rows once...
    assert_eq!(reg.counter("reldb.exec.rows_scanned").get() - rows_before, 8);
    // ...and the (truth, estimate) pair landed in the quality histogram.
    assert_eq!(reg.histogram("quality.adj_rel_err_pct").count() - quality_before, 1);
}

#[test]
fn histogram_snapshots_expose_quantiles_in_both_renderings() {
    let reg = obs::registry();
    for v in 1..=100u64 {
        reg.histogram("test.obs.quantiles.ns").record(v);
    }
    let snap = reg.snapshot();
    let h = snap.histogram("test.obs.quantiles.ns").expect("histogram");
    // Log₂ buckets: quantiles are upper bucket bounds, so they order
    // monotonically but may overshoot the exact max by one bucket.
    assert!(h.p50() >= 50 && h.p50() <= h.p90());
    assert!(h.p90() <= h.p99() && h.p99() <= h.max.next_power_of_two() * 2);
    let json = snap.to_json();
    for key in ["\"p50\"", "\"p90\"", "\"p99\""] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    let pretty = snap.to_pretty();
    assert!(pretty.contains("p50="), "{pretty}");
}

#[test]
fn plan_cache_hits_refresh_the_hit_ratio_gauge() {
    let reg = obs::registry();
    let db = tiny_db();
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");

    let mut b = Query::builder();
    let c = b.var("child");
    b.eq(c, "y", 0);
    let q = b.build();
    est.estimate(&q).expect("estimate"); // miss + compile
    est.estimate(&q).expect("estimate"); // hit

    // Counters move under concurrent tests, so assert the refreshed
    // gauge is a sane fraction rather than an exact quotient.
    let ratio = reg.gauge("prm.plan.hit_ratio").get();
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "hit ratio must be a refreshed fraction, got {ratio}"
    );
    assert!(
        reg.snapshot().to_json().contains("\"prm.plan.hit_ratio\""),
        "gauge must appear in the snapshot"
    );
}

/// Strict LRU at the default capacity (64): the 65th distinct template
/// evicts exactly the least-recently-used one, and the counter sees it.
#[test]
fn plan_cache_evicts_least_recently_used_at_capacity_64() {
    // A single table with 7 binary attributes gives 127 distinct
    // single-table templates (non-empty predicate-attribute subsets).
    let mut t = TableBuilder::new("wide").key("id");
    for i in 0..7 {
        t = t.col(format!("a{i}"));
    }
    for id in 0..32i64 {
        let mut row = vec![Cell::Key(id)];
        for i in 0..7 {
            row.push(Cell::Val(Value::Int((id >> i) & 1)));
        }
        t.push_row(row).unwrap();
    }
    let db = DatabaseBuilder::new().add_table(t.finish().unwrap()).finish().unwrap();
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");
    est.set_plan_cache_capacity(64);

    // 65 distinct templates, estimated in order.
    let templates: Vec<Query> = (1u32..=65)
        .map(|mask| {
            let mut b = Query::builder();
            let v = b.var("wide");
            for i in 0..7 {
                if mask & (1 << i) != 0 {
                    b.eq(v, format!("a{i}"), 0);
                }
            }
            b.build()
        })
        .collect();
    let evict_before = obs::registry().counter("prm.plan.evict").get();
    for q in &templates {
        est.estimate(q).expect("estimate");
    }
    assert_eq!(est.plan_cache_len(), 64, "cache must sit exactly at capacity");
    assert_eq!(
        obs::registry().counter("prm.plan.evict").get() - evict_before,
        1,
        "filling to 65 distinct templates evicts exactly once"
    );
    // The first (least recently used) template went; every later one stays.
    assert!(!est.has_cached_plan(&templates[0]), "LRU template must be evicted");
    for q in &templates[1..] {
        assert!(est.has_cached_plan(q), "recently used templates must stay resident");
    }
    // Touching a survivor then overflowing again evicts the next-oldest,
    // not the survivor.
    est.estimate(&templates[1]).expect("estimate");
    est.estimate(&templates[0]).expect("estimate"); // re-compiles, evicts [2]
    assert!(est.has_cached_plan(&templates[1]), "refreshed plan must survive");
    assert!(!est.has_cached_plan(&templates[2]), "next-oldest plan must be evicted");
}

#[test]
fn estimate_batch_picks_serial_or_parallel_by_cost() {
    let reg = obs::registry();
    let db = tiny_db();
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");
    let queries: Vec<Query> = (0..6)
        .map(|i| {
            let mut b = Query::builder();
            let c = b.var("child");
            b.eq(c, "y", i % 2);
            b.build()
        })
        .collect();

    // An unreachable threshold keeps the whole batch on this thread.
    let serial_before = reg.counter("par.batch.serial").get();
    let serial =
        prmsel::estimate_batch_with_threshold(&est, &queries, u64::MAX).expect("batch");
    assert_eq!(serial.len(), queries.len());
    assert_eq!(reg.counter("par.batch.serial").get() - serial_before, 1);

    // Threshold 0 projects every batch as worth fanning out — but a
    // one-worker pool still short-circuits to serial.
    let par_before = reg.counter("par.batch.parallel").get();
    let s_before = reg.counter("par.batch.serial").get();
    let fanned = prmsel::estimate_batch_with_threshold(&est, &queries, 0).expect("batch");
    assert_eq!(fanned, serial, "both paths must return identical estimates");
    if par::threads() > 1 {
        assert_eq!(reg.counter("par.batch.parallel").get() - par_before, 1);
    } else {
        assert_eq!(reg.counter("par.batch.serial").get() - s_before, 1);
    }
}

#[test]
fn flight_recorder_captures_phases_steps_and_quality() {
    let db = tiny_db();
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");
    let mut b = Query::builder();
    let c = b.var("child");
    let p = b.var("parent");
    b.join(c, "parent", p).eq(p, "x", 1);
    let q = b.build();

    obs::flight::set_recording(true);
    let e1 = est.estimate(&q).expect("estimate");
    let cold_id = obs::flight::last_finished_id();
    let e2 = est.estimate(&q).expect("estimate");
    let warm_id = obs::flight::last_finished_id();
    // Quality attaches to the last-finished (warm) trace on this thread.
    prmsel::record_quality(3, e2);
    obs::flight::set_recording(false);
    assert_eq!(e1, e2, "cached replay must be bit-identical");

    let cold = obs::flight::ring().find(cold_id).expect("cold trace in ring");
    let warm = obs::flight::ring().find(warm_id).expect("warm trace in ring");
    assert_ne!(cold.id, warm.id);
    assert!(cold.label.contains("JOIN"), "label describes the query: {}", cold.label);

    // Cold trace: miss, compile + execution phases, elimination steps.
    assert_eq!(cold.plan_hit, Some(false));
    let names: Vec<&str> = cold.phases.iter().map(|p| p.name).collect();
    for want in ["plan", "compile", "decode", "reduce", "eliminate"] {
        assert!(names.contains(&want), "cold phases {names:?} missing {want}");
    }
    assert!(!cold.elim_steps.is_empty(), "join query must record elimination steps");
    assert!(cold.elim_steps.iter().all(|s| s.width >= 1));
    assert_eq!(cold.estimate, Some(e1));
    assert!(cold.total_ns > 0);

    // Warm trace: hit, no compile phase, quality attached.
    assert_eq!(warm.plan_hit, Some(true));
    assert!(warm.phases.iter().all(|p| p.name != "compile"), "replay must not compile");
    assert_eq!(warm.truth, Some(3));
    let q_err = warm.q_error.expect("q-error attached");
    assert!(q_err >= 1.0);

    // Both traces export well-formed Chrome events.
    let json = obs::flight::to_chrome_trace(&[cold.clone(), warm.clone()]);
    assert!(json.contains("\"traceEvents\""));
    assert!(json.matches("\"ph\":\"X\"").count() >= cold.chrome_event_count());
}

#[test]
fn quality_recording_feeds_the_error_histograms() {
    let reg = obs::registry();
    let before = reg.histogram("quality.adj_rel_err_pct").count();
    let q_before = reg.histogram("quality.qerror_milli").count();

    prmsel::metrics::record_quality(100, 150.0);
    prmsel::metrics::record_quality(100, 100.0);

    assert_eq!(reg.histogram("quality.adj_rel_err_pct").count() - before, 2);
    assert_eq!(reg.histogram("quality.qerror_milli").count() - q_before, 2);
    // 50% error and q-error 1.5 both land in the snapshot's max.
    assert!(reg.histogram("quality.adj_rel_err_pct").snapshot().max >= 50);
    assert!(reg.histogram("quality.qerror_milli").snapshot().max >= 1500);
}

#[test]
fn reduce_memo_counters_track_miss_then_hit() {
    let reg = obs::registry();
    let est = PrmEstimator::build(&tiny_db(), &PrmLearnConfig::default()).expect("build");
    let mut b = Query::builder();
    let c = b.var("child");
    b.eq(c, "y", 0);
    let q = b.build();

    let miss_before = reg.counter("prm.plan.reduce.miss").get();
    est.estimate(&q).expect("cold estimate");
    assert!(
        reg.counter("prm.plan.reduce.miss").get() > miss_before,
        "first sight of a constant signature must count a reduce miss"
    );
    let hits_before = reg.counter("prm.plan.reduce.hit").get();
    let miss_mid = reg.counter("prm.plan.reduce.miss").get();
    est.estimate(&q).expect("warm estimate");
    assert!(
        reg.counter("prm.plan.reduce.hit").get() > hits_before,
        "repeating the constants must count a reduce hit"
    );
    assert_eq!(
        reg.counter("prm.plan.reduce.miss").get(),
        miss_mid,
        "a memo hit must not also count a miss"
    );
}

#[test]
fn pool_dispatch_latency_is_recorded() {
    let before = obs::registry().histogram("par.pool.dispatch.ns").count();
    // Force a parallel region wide enough to enqueue jobs on the
    // persistent pool (the caller runs chunk 0 inline, the rest are
    // dispatched and must each record an enqueue→dequeue latency).
    let sums = par::chunks_with(2, 64, |r| r.len());
    assert_eq!(sums.iter().sum::<usize>(), 64);
    if par::threads() > 1 {
        assert!(
            obs::registry().histogram("par.pool.dispatch.ns").count() > before,
            "pool jobs must record dispatch latency"
        );
    }
}

#[test]
fn likelihood_weighting_materializes_each_cpd_once_per_estimate() {
    use prmsel::InferenceEngine;
    let reg = obs::registry();
    let db = tiny_db();
    let mut est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");
    est.set_engine(InferenceEngine::LikelihoodWeighting { samples: 500, seed: 42 });

    let mut b = Query::builder();
    let c = b.var("child");
    let p = b.var("parent");
    b.join(c, "parent", p).eq(p, "x", 1);
    let q = b.build();

    let before = reg.counter("bn.factor.materialize").get();
    est.estimate(&q).expect("LW estimate");
    let per_estimate = reg.counter("bn.factor.materialize").get() - before;
    est.estimate(&q).expect("second LW estimate");
    let second = reg.counter("bn.factor.materialize").get() - before - per_estimate;

    // 500 samples over a ≥2-node unrolled network (parent.x plus the join
    // indicator): without the CPD factor cache this would be ≥ 1000
    // materializations per call. With it, each node materializes once per
    // unrolled network.
    assert!(per_estimate >= 2, "join QEBN has at least 2 nodes, got {per_estimate}");
    assert!(
        per_estimate <= 16,
        "materializations must be per-node, not per-sample: {per_estimate}"
    );
    assert_eq!(second, per_estimate, "each estimate materializes the same node set");
}
