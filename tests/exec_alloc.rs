//! The node interpreter allocates nothing per statement instance or
//! per loop iteration: lowering, frames and messages are the only heap
//! users, so the allocation count of a run does not depend on how many
//! iterations a nest makes.
//!
//! A binary of its own: the counting `#[global_allocator]` must see no
//! other test's allocations.

use dhpf::core::codegen::{
    CExpr, CIdx, CompiledUnit, GlobalArray, Guard, GuardAtom, NodeOp, NodeProgram,
};
use dhpf::core::distrib::ProcGrid;
use dhpf::fortran::ast::BinOp;
use dhpf::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter is a statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller passed, per the trait contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn var(slot: usize, cst: i64) -> CIdx {
    CIdx {
        terms: vec![(slot, 1)],
        cst,
    }
}

/// `nt = trips; do it = 1, nt; do j = 1, 8; do i = 1, 8` around
/// a float-scalar assignment, `a(i, j) = min(a(i, j), 1, it) + s * i`
/// under a guard that holds for `i <= 7`, an integer-scalar assignment,
/// `a(j, i) = a(j, i) - a(i, j) * a(1, i)`, which the lowering fuses,
/// and `do m = 1, 5: a(m, i) = a(m, i) - a(i, j) * a(1, m)`, which it
/// unrolls to five fused statements. Every access addresses by a base
/// the `i` loop maintains. The trip count is a scalar's value, not a
/// constant of the program, so both counts lower the same tape.
fn guarded_triple_nest(trips: i64) -> NodeProgram {
    let (it, j, i, nt, m) = (0, 1, 2, 4, 5);
    let a_ij = || vec![var(i, 0), var(j, 0)];
    let a_ji = || vec![var(j, 0), var(i, 0)];
    let load = |subs| Box::new(CExpr::Load { arr: 0, subs });
    let guard = Guard {
        terms: vec![vec![
            GuardAtom::In {
                arr: 0,
                dim: 0,
                sub: var(i, 1),
            },
            GuardAtom::Overlap {
                arr: 0,
                dim: 0,
                lo: var(i, -1),
                hi: var(i, 1),
            },
        ]],
    };
    let value = CExpr::Bin(
        BinOp::Add,
        Box::new(CExpr::Intr(
            0, // min
            vec![
                CExpr::Load {
                    arr: 0,
                    subs: a_ij(),
                },
                CExpr::Const(1.0),
                CExpr::Int(var(it, 0)),
            ],
        )),
        Box::new(CExpr::Bin(
            BinOp::Mul,
            Box::new(CExpr::LoadF(0)),
            Box::new(CExpr::Int(var(i, 0))),
        )),
    );
    let body = vec![
        NodeOp::AssignF {
            guard: None,
            slot: 0,
            value: CExpr::Bin(
                BinOp::Or,
                Box::new(CExpr::LoadF(0)),
                Box::new(CExpr::Const(0.5)),
            ),
            flops: 1,
        },
        NodeOp::Assign {
            guard: Some(guard),
            arr: 0,
            subs: a_ij(),
            value,
            flops: 3,
        },
        NodeOp::AssignI {
            guard: None,
            slot: 3,
            value: CExpr::Int(var(j, 1)),
            flops: 0,
        },
        NodeOp::Assign {
            guard: None,
            arr: 0,
            subs: a_ji(),
            value: CExpr::Bin(
                BinOp::Sub,
                load(a_ji()),
                Box::new(CExpr::Bin(
                    BinOp::Mul,
                    load(a_ij()),
                    load(vec![CIdx::cst(1), var(i, 0)]),
                )),
            ),
            flops: 2,
        },
        NodeOp::Loop {
            var: m,
            lo: CIdx::cst(1),
            hi: CIdx::cst(5),
            step: 1,
            body: vec![NodeOp::Assign {
                guard: None,
                arr: 0,
                subs: vec![var(m, 0), var(i, 0)],
                value: CExpr::Bin(
                    BinOp::Sub,
                    load(vec![var(m, 0), var(i, 0)]),
                    Box::new(CExpr::Bin(
                        BinOp::Mul,
                        load(a_ij()),
                        load(vec![CIdx::cst(1), var(m, 0)]),
                    )),
                ),
                flops: 2,
            }],
        },
    ];
    let nest = |slot: usize, hi: CIdx, body: Vec<NodeOp>| NodeOp::Loop {
        var: slot,
        lo: CIdx::cst(1),
        hi,
        step: 1,
        body,
    };
    let eight = || CIdx::cst(8);
    let unit = CompiledUnit {
        name: "main".into(),
        n_ints: 6,
        n_floats: 1,
        n_arrays: 1,
        array_global: vec![Some(0)],
        array_names: vec!["a".into()],
        ops: vec![
            NodeOp::AssignI {
                guard: None,
                slot: nt,
                value: CExpr::Int(CIdx::cst(trips)),
                flops: 0,
            },
            nest(
                it,
                var(nt, 0),
                vec![nest(j, eight(), vec![nest(i, eight(), body)])],
            ),
        ],
        ..Default::default()
    };
    NodeProgram {
        grid: ProcGrid {
            name: "p".into(),
            extents: vec![1],
        },
        arrays: vec![GlobalArray {
            name: "a".into(),
            bounds: vec![(1, 8), (1, 8)],
            dist: None,
            ghost: vec![0, 0],
        }],
        unit_index: [("main".to_string(), 0)].into(),
        units: vec![unit],
        main: 0,
        provenance: vec![],
    }
}

/// Allocations of one run. The test harness's own threads may allocate
/// meanwhile, which only ever adds: the minimum over a few runs is the
/// interpreter's count.
fn allocations_of_a_run(trips: i64) -> u64 {
    (0..5).map(|_| count_one_run(trips)).min().unwrap()
}

fn count_one_run(trips: i64) -> u64 {
    let prog = guarded_triple_nest(trips);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = run_node_program(&prog, MachineConfig::sp2(1)).expect("runs");
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    // per trip: 56 guarded stores of 3 flops, 64 scalar stores of 1, 64
    // fused statements of 2 and 64 × 5 unrolled ones of 2
    let flops = (trips * (56 * 3 + 64 + 64 * 2 + 64 * 5 * 2)) as f64;
    let per_flop = MachineConfig::sp2(1).seconds_per_flop;
    assert!((result.run.virtual_time / (flops * per_flop) - 1.0).abs() < 1e-9);
    let lower = result.ranks[0].lower;
    assert_eq!((lower.loops, lower.loops_unrolled), (3, 1));
    assert_eq!(lower.stmts_fused, 1 + 5);
    assert_eq!((lower.sites_in_loops, lower.sites_based), (26, 26));
    // the unrolled trips count as started with the `i` loop's
    assert_eq!(
        result.ranks[0].loop_trips as i64,
        trips * (1 + 8 + 64 + 64 * 5)
    );
    count
}

#[test]
fn allocation_count_is_independent_of_trip_count() {
    let few = allocations_of_a_run(2);
    let many = allocations_of_a_run(200);
    assert!(few > 0, "the counting allocator is installed");
    assert_eq!(few, many, "12800 more statement instances may not allocate");
}
