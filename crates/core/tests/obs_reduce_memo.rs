//! The plan's reduce memo must count a miss the first time it sees a
//! constant signature and a hit (and no miss) when the constants repeat.
//!
//! The assertions are deltas of the process-global `prm.plan.reduce.*`
//! counters, which any concurrent estimate would also move. So this test
//! has an integration-test binary of its own: no other test runs an
//! estimate in this process.

mod support;

use prmsel::{PrmEstimator, PrmLearnConfig, SelectivityEstimator};
use reldb::Query;
use support::tiny_db;

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
