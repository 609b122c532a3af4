//! With recording off, every flight-recorder hook is a no-op.
//!
//! Recording is a process-global switch that the library's own tests
//! turn on, so this check has a test binary of its own: nothing in this
//! process ever enables recording.

use obs::flight::{active, begin, elim_step, finish, on, phase, plan_cache, pred_mask};

#[test]
fn hooks_are_inert_when_off() {
    assert!(!on());
    assert!(!begin(|| panic!("label must not be built")));
    let _p = phase("never");
    pred_mask(0, 1, 2);
    elim_step(0, 1, &[], 1, 0, 0);
    plan_cache(true);
    finish(1.0);
    assert!(!active());
}
