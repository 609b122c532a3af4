//! The `infer.eliminate` failpoint turns guarded elimination into a
//! `Fault` abort. Failpoints are armed process-wide, so this test has an
//! integration-test binary of its own: no other test runs an elimination
//! in this process while the site is armed.

use bayesnet::{try_eliminate_all, BayesNet, InferAbort, InferBudget, TableCpd};

#[test]
fn infer_failpoint_injects_fault_abort() {
    // The Education → Income → Home-owner chain of the paper's §2.1.
    let mut bn = BayesNet::new(
        vec!["education".into(), "income".into(), "homeowner".into()],
        vec![3, 3, 2],
    );
    bn.set_family(0, &[], TableCpd::new(3, vec![], vec![0.5, 0.3, 0.2]).into());
    bn.set_family(
        1,
        &[0],
        TableCpd::new(3, vec![3], vec![0.6, 0.3, 0.1, 0.5, 0.3, 0.2, 0.1, 0.3, 0.6])
            .into(),
    );
    bn.set_family(
        2,
        &[1],
        TableCpd::new(2, vec![3], vec![0.9, 0.1, 0.7, 0.3, 0.1, 0.9]).into(),
    );
    // Evidence income = 0 over the relevant set {education, income}.
    let factors =
        bn.factors()[..2].iter().map(|f| f.reduce(1, &[true, false, false])).collect();
    failpoint::arm("infer.eliminate", failpoint::Action::Err);
    let r = try_eliminate_all(
        factors,
        &[0, 1],
        &[],
        |v| bn.card(v),
        InferBudget::unlimited(),
    );
    failpoint::disarm("infer.eliminate");
    match r.unwrap_err() {
        InferAbort::Fault(msg) => assert!(msg.contains("infer.eliminate"), "{msg}"),
        other => panic!("expected fault abort, got {other:?}"),
    }
}
