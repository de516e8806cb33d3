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
//!
//! The same lowering counts, per unit, gate the inner-loop normal form:
//! every access in a loop addresses by a base, at 1 rank and at 2×2.

use dhpf::core::exec::node::{lower_census, ExecResult};
use dhpf::nas::Kernel;
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

/// Inside a loop every access of SP and BT addresses by a base its loop
/// maintains (DESIGN §7.2, "What is folded per rank"), at 1 rank and on
/// every rank of 2×2, and each of BT's three block solves lowers its
/// `x − y·z` updates to fused statements.
#[test]
fn inner_loop_accesses_take_bases() {
    for kernel in [Kernel::Sp, Kernel::Bt] {
        for nprocs in [1, 4] {
            let compiled = kernel.compile_dhpf(Class::S, nprocs, None);
            for rank in 0..nprocs {
                let census = lower_census(&compiled.program, rank);
                let name = kernel.name();
                let (sites, based) = census.iter().fold((0, 0), |(s, b), (_, l)| {
                    (s + l.sites_in_loops, b + l.sites_based)
                });
                assert!(
                    sites > 0 && based == sites,
                    "{name} at {nprocs} ranks, rank {rank}: {based} of {sites} sites in loops based"
                );
                if kernel != Kernel::Bt {
                    continue;
                }
                for solve in ["x_solve", "y_solve", "z_solve"] {
                    let fused: u64 = (census.iter())
                        .filter(|(unit, _)| unit == solve)
                        .map(|(_, l)| l.stmts_fused)
                        .sum();
                    assert!(
                        fused > 0,
                        "{name} at {nprocs} ranks, rank {rank}: no fused statement in {solve}"
                    );
                }
            }
        }
    }
}
