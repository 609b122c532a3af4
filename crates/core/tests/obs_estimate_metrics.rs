//! Building a PRM and running estimates must count every `estimate()`
//! call exactly once in the process-global metrics registry.
//!
//! The assertions are exact deltas of `prm.estimate.*` and
//! `prm.qebn.nodes`, which any concurrent estimate would also move. So
//! this test has an integration-test binary of its own: no other test
//! runs an estimate in this process.

mod support;

use prmsel::{PrmEstimator, PrmLearnConfig, SelectivityEstimator};
use reldb::Query;
use support::tiny_db;

#[test]
fn build_and_estimate_increment_the_expected_metrics() {
    let reg = obs::registry();
    let calls_before = reg.counter("prm.estimate.calls").get();
    let ns_before = reg.histogram("prm.estimate.ns").count();
    let qebn_before = reg.histogram("prm.qebn.nodes").count();

    let db = tiny_db();
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("build");

    // The built model reports its size.
    assert!(reg.gauge("prm.model.bytes").get() > 0.0, "model bytes gauge unset");
    // The build phase ran under a span that records its latency.
    assert!(
        reg.histogram("span.prm.build.ns").count() > 0,
        "prm.build span not recorded"
    );

    // Run a few estimates: single-table and join queries.
    let mut b = Query::builder();
    let c = b.var("child");
    b.eq(c, "y", 0);
    est.estimate(&b.build()).expect("estimate");

    let mut b = Query::builder();
    let c = b.var("child");
    let p = b.var("parent");
    b.join(c, "parent", p).eq(p, "x", 1);
    est.estimate(&b.build()).expect("estimate");

    let calls = reg.counter("prm.estimate.calls").get() - calls_before;
    assert_eq!(calls, 2, "each estimate() call must count once");
    assert_eq!(
        reg.histogram("prm.estimate.ns").count() - ns_before,
        2,
        "each estimate() call must record a latency sample"
    );
    let qebn = reg.histogram("prm.qebn.nodes").count() - qebn_before;
    assert_eq!(qebn, 2, "each estimate() call must record the QEBN node count");
    // The join query unrolls at least child.y, parent.x and one join
    // indicator, so the QEBN histogram must have seen a value ≥ 3.
    assert!(
        reg.histogram("prm.qebn.nodes").snapshot().max >= 3,
        "join QEBN should have at least 3 nodes"
    );
}
