//! Two threads that miss on the same constant signature at once must
//! leave one memo entry for it, not two. The memo lookup and the insert
//! take the plan's memo lock separately, with the replay in between, so
//! both threads can miss before either inserts.
//!
//! A binary of its own: it relies on the default memo capacity, which
//! sibling tests override process-wide.

use std::sync::Barrier;

use prmsel::{PrmEstimator, PrmLearnConfig, SelectivityEstimator};
use reldb::Query;
use workloads::census::{census_database, ATTRS};

fn card(attr: &str) -> i64 {
    ATTRS.iter().find(|&&(name, _)| name == attr).expect("census attribute").1 as i64
}

#[test]
fn racing_misses_on_one_signature_leave_one_memo_entry() {
    let db = census_database(2_000, 3);
    let est = PrmEstimator::build(&db, &PrmLearnConfig::default()).expect("learn census");
    // Every `age = a AND income = i` of one template: 756 distinct masks.
    let queries: Vec<Query> = (0..card("age"))
        .flat_map(|a| (0..card("income")).map(move |i| (a, i)))
        .map(|(a, i)| {
            let mut b = Query::builder();
            let v = b.var("census");
            b.eq(v, "age", a).eq(v, "income", i);
            b.build()
        })
        .collect();
    est.estimate(&queries[0]).expect("compile the template");
    for round in 0..5 {
        est.clear_reduce_memos();
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    for q in &queries {
                        est.estimate(q).expect("estimate");
                    }
                });
            }
        });
        let len = est.reduce_memo_len(&queries[0]).expect("plan resident");
        assert!(
            len <= queries.len(),
            "round {round}: {len} memo entries for {} signatures",
            queries.len()
        );
    }
}
