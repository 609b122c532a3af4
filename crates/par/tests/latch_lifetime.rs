//! A parallel region must not return while a pool worker still touches
//! state on the caller's stack.
//!
//! Each `chunks_with` region signals completion through a latch. If that
//! latch lived in the caller's frame, the last worker could still be
//! locking and notifying it after the caller saw the count reach zero and
//! returned — writing into whatever the caller put on that stack next.
//! This test runs many two-chunk regions and, after each, fills the same
//! stack area with a sentinel, lets any straggling worker run, and checks
//! that nothing overwrote it. It has a binary of its own so no other
//! test's regions share the pool.

use std::hint::black_box;

const REGIONS: usize = 300_000;
const SENTINEL: u64 = 0xa5a5_a5a5_a5a5_a5a5;

/// Fills a 4 KiB stack array with [`SENTINEL`], spins briefly so a late
/// pool write can land, and reports whether the array is still intact.
#[inline(never)]
fn stack_survives_stragglers() -> bool {
    let mut frame = [SENTINEL; 512];
    black_box(&mut frame);
    for _ in 0..64 {
        std::hint::spin_loop();
    }
    black_box(&frame).iter().all(|&w| w == SENTINEL)
}

#[test]
fn returned_regions_never_write_the_callers_stack() {
    for region in 0..REGIONS {
        let out = prmsel_par::chunks_with(2, 2, |r| r.len());
        assert_eq!(out, [1, 1]);
        assert!(
            stack_survives_stragglers(),
            "region {region}: a pool worker wrote into the caller's stack after return"
        );
    }
}
