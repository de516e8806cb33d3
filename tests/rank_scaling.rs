//! A deterministic gate on rank scaling: the iterations all ranks start
//! add up to little more than the iterations one rank starts.
//!
//! Each rank shrinks every loop to the iterations in which it can run a
//! statement (DESIGN §7.2, "What is decided per rank"), so the loop trips
//! summed over the ranks of a P-rank run stay near the 1-rank count —
//! above it only where statements are replicated across a block
//! boundary, which class S (12³, surface-dominated) has most of. Every
//! rank scanning the whole iteration space, as before, makes the sum P
//! times the 1-rank count. The counts are exact and repeat exactly.

use dhpf::core::exec::node::ExecResult;
use dhpf::prelude::*;

fn total_trips(r: &ExecResult) -> u64 {
    r.ranks.iter().map(|c| c.loop_trips).sum()
}

fn check(name: &str, run: impl Fn(usize) -> ExecResult) {
    let one = run(1);
    let base = total_trips(&one);
    assert!(base > 0, "{name}: the 1-rank run counts its loop trips");

    // at 1 rank the owned range is the whole array: the ranges decide
    // (nearly) every range test
    let l = one.ranks[0].lower;
    let decided = l.tests_true + l.tests_dead;
    let tests = decided + l.tests_kept;
    assert!(
        tests > 0 && decided * 100 >= tests * 95,
        "{name}: {decided} of {tests} range tests decided at 1 rank"
    );

    for nprocs in [4, 6] {
        let total = total_trips(&run(nprocs));
        assert!(
            total * 100 <= base * 135,
            "{name}: {total} loop trips over {nprocs} ranks, {base} on one \
             ({:.2}x, gate 1.35x)",
            total as f64 / base as f64
        );
    }
}

#[test]
fn sp_loop_trips_do_not_grow_with_ranks() {
    check("SP class S", |n| {
        dhpf::nas::Kernel::Sp.run_dhpf(Class::S, n, MachineConfig::sp2(n))
    });
}

#[test]
fn bt_loop_trips_do_not_grow_with_ranks() {
    check("BT class S", |n| {
        dhpf::nas::Kernel::Bt.run_dhpf(Class::S, n, MachineConfig::sp2(n))
    });
}
