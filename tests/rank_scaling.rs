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
//!
//! Unrolled loops start their trips with the loop around them, so the
//! per-rank counts are those of the lowering that ran every short loop
//! as a loop; they are pinned here.

use dhpf::core::codegen::{GuardAtom, NodeOp, PipeLevel};
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

/// The loop trips each rank starts, on SP and BT class S at 1, 4 and 6
/// ranks: the counts of the lowering that interpreted every loop, which
/// the unrolled ones must keep. The rows with overlap off hold the nests
/// that run in one pass; with it on, the interior pass of an overlapped
/// nest starts only the trips of its interior box.
#[test]
fn loop_trips_per_rank_are_pinned() {
    let pinned: [(Kernel, usize, bool, &[u64]); 10] = [
        (Kernel::Sp, 1, true, &[27692]),
        (Kernel::Sp, 4, true, &[8058, 7836, 7836, 7614]),
        (Kernel::Sp, 6, true, &[5517, 5369, 7637, 7415, 2748, 2674]),
        (Kernel::Sp, 4, false, &[7462, 7240, 7240, 7018]),
        (Kernel::Sp, 6, false, &[5145, 4997, 7265, 7043, 2600, 2526]),
        (Kernel::Bt, 1, true, &[552548]),
        (Kernel::Bt, 4, true, &[133542, 139080, 139080, 144618]),
        (
            Kernel::Bt,
            6,
            true,
            &[86953, 90645, 139781, 145319, 45896, 47742],
        ),
        (Kernel::Bt, 4, false, &[132946, 138484, 138484, 144022]),
        (
            Kernel::Bt,
            6,
            false,
            &[86581, 90273, 139409, 144947, 45748, 47594],
        ),
    ];
    for (kernel, nprocs, overlap, want) in pinned {
        let flags = OptFlags {
            overlap,
            ..OptFlags::default()
        };
        let compiled = kernel.compile_dhpf(Class::S, nprocs, Some(flags));
        let run =
            run_node_program(&compiled.program, MachineConfig::sp2(nprocs)).expect("class S runs");
        let trips: Vec<u64> = run.ranks.iter().map(|c| c.loop_trips).collect();
        let name = kernel.name();
        assert_eq!(
            trips, want,
            "{name} class S at {nprocs} ranks, overlap {overlap}"
        );
    }
}

/// The loops each rank of BT class S interpreted in `x_solve`, `y_solve`
/// and `z_solve` while `binvc`'s Gauss–Jordan nest stayed a loop nest, at
/// 1 rank and on each rank of 2×2. At 2×2 the pipelined back-substitution
/// of `y_solve` and `z_solve` lowers its 5×5 `(m, n)` levels as copies:
/// two loops fewer than the 24 and 18 of a lowering that looped them.
const SOLVE_LOOPS_BEFORE_BINVC: [(usize, &[[u64; 3]]); 2] = [
    (1, &[[22, 22, 22]]),
    (4, &[[22, 22, 22], [22, 16, 22], [22, 22, 16], [22, 16, 16]]),
];

/// The values each rank of BT class S reuses in each of `x_solve`,
/// `y_solve` and `z_solve`, at 1 rank and on each rank of 2×2 (DESIGN
/// §7.2, "value numbering"): in the 5×5 block assembly, 24 copies of the
/// unrolled body reuse the load, product and sum of each of its three
/// statements, 216, and the five of the diagonal statement its load and
/// the four after the first its product and sum, 13.
const SOLVE_VALUES_REUSED: u64 = 24 * 3 * 3 + 5 + 4 * 2;

/// Inside a loop every access of SP and BT addresses by a base its loop
/// maintains (DESIGN §7.2, "What is folded per rank"), at 1 rank and on
/// every rank of 2×2, and each of BT's three block solves unrolls its
/// 5×5 block loops and lowers their `x − y·z` updates to fused
/// statements. `binvc`'s nest is straight-line code too: each copy of it
/// decides its 25 `if (q1 .ne. p1)` tests, one per pinned `(p1, q1)`,
/// and takes its five interpreted loops along. Each solve reuses
/// [`SOLVE_VALUES_REUSED`] values.
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
                let before = SOLVE_LOOPS_BEFORE_BINVC.iter().find(|(n, _)| *n == nprocs);
                let before = before.expect("pinned for 1 and 4 ranks").1[rank];
                for (solve, before) in ["x_solve", "y_solve", "z_solve"].into_iter().zip(before) {
                    let solve_stats = census.iter().filter(|(unit, _)| unit == solve);
                    let (fused, unrolled, loops, decided, values) =
                        solve_stats.fold((0, 0, 0, 0, 0), |(f, u, n, d, v), (_, l)| {
                            let (f, u) = (f + l.stmts_fused, u + l.loops_unrolled);
                            (f, u, n + l.loops, d + l.ifs_decided, v + l.values_reused)
                        });
                    let at = format!("{name} at {nprocs} ranks, rank {rank}, {solve}");
                    assert!(
                        fused > 0 && unrolled > 0,
                        "{at}: {fused} fused statements and {unrolled} unrolled loops"
                    );
                    assert!(
                        decided > 0 && decided % 25 == 0,
                        "{at}: {decided} decided ifs"
                    );
                    assert_eq!(
                        loops,
                        before - 5 * (decided / 25),
                        "{at}: interpreted loops"
                    );
                    assert_eq!(values, SOLVE_VALUES_REUSED, "{at}: values reused");
                }
            }
        }
    }
}

/// Whether an overlapped or pipelined nest in `ops` has a constant level
/// of at most five trips inside its strip level and bound to no variable
/// its interior term reads.
fn has_short_nest_level(ops: &[NodeOp]) -> bool {
    let short = |lv: &PipeLevel| {
        let trips = (lv.hi.cst - lv.lo.cst) / lv.step + 1;
        lv.lo.terms.is_empty() && lv.hi.terms.is_empty() && trips <= 5
    };
    ops.iter().any(|op| match op {
        NodeOp::Loop { body, .. } => has_short_nest_level(body),
        NodeOp::If { arms } => arms.iter().any(|(_, ops)| has_short_nest_level(ops)),
        NodeOp::OverlapNest {
            levels, interior, ..
        } => {
            let reads = |var: usize| {
                interior.iter().any(|a| match a {
                    GuardAtom::In { sub, .. } => sub.terms.iter().any(|t| t.0 == var),
                    GuardAtom::Overlap { lo, hi, .. } => {
                        (lo.terms.iter().chain(&hi.terms)).any(|t| t.0 == var)
                    }
                })
            };
            levels.iter().any(|lv| short(lv) && !reads(lv.var))
        }
        NodeOp::Pipeline { levels, strip, .. } => {
            let inside = strip.as_ref().map_or(0, |s| s.level + 1);
            levels.iter().skip(inside).any(short)
        }
        _ => false,
    })
}

/// The loops each rank of 2×2 interprets in the units of SP and BT class
/// S whose overlapped or pipelined nests have short constant levels
/// ([`has_short_nest_level`]), those levels lowered as copies: `compute_rhs`
/// keeps 13 of 15 (its stencil's `m = 1, 5` in both passes); `y_solve`
/// and `z_solve` lose their pipelined `m` levels, and BT's its pipelined
/// back-substitution's `(m, n)`.
const NEST_UNIT_LOOPS: [(Kernel, &str, [u64; 4]); 6] = [
    (Kernel::Sp, "compute_rhs", [13, 13, 13, 13]),
    (Kernel::Sp, "y_solve", [12, 11, 12, 11]),
    (Kernel::Sp, "z_solve", [12, 12, 11, 11]),
    (Kernel::Bt, "compute_rhs", [13, 13, 13, 13]),
    (Kernel::Bt, "y_solve", [12, 11, 12, 11]),
    (Kernel::Bt, "z_solve", [12, 12, 11, 11]),
];

/// On SP and BT class S at 2×2 no constant level of at most five trips
/// inside an overlapped or pipelined nest stays a loop (DESIGN §7.2,
/// "unrolled loops"): every unit that has such levels unrolls at least
/// one loop on every rank, and interprets the loops [`NEST_UNIT_LOOPS`]
/// pins.
#[test]
fn short_nest_levels_unroll() {
    for kernel in [Kernel::Sp, Kernel::Bt] {
        let compiled = kernel.compile_dhpf(Class::S, 4, None);
        let name = kernel.name();
        for rank in 0..4 {
            let census = lower_census(&compiled.program, rank);
            for unit in &compiled.program.units {
                if !has_short_nest_level(&unit.ops) {
                    continue;
                }
                let stats = census.iter().filter(|(u, _)| *u == unit.name);
                let (loops, unrolled) =
                    stats.fold((0, 0), |(n, u), (_, l)| (n + l.loops, u + l.loops_unrolled));
                let at = format!("{name} at 4 ranks, rank {rank}, {}", unit.name);
                assert!(unrolled > 0, "{at}: no loop unrolled");
                let pinned = NEST_UNIT_LOOPS
                    .iter()
                    .find(|(k, u, _)| *k == kernel && *u == unit.name);
                let want = pinned
                    .unwrap_or_else(|| panic!("{at}: no pinned loop count"))
                    .2;
                assert_eq!(loops, want[rank], "{at}: interpreted loops");
            }
        }
    }
}
