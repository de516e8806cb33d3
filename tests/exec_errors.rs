//! Regression tests: runtime violations in the node interpreter come
//! back as structured `ExecError`s from `run_node_program`, not process
//! panics (the unbound-dummy lookup and its fellow unwraps in
//! `crates/core/src/exec/node.rs`).

use dhpf::core::codegen::{CIdx, CompiledUnit, GlobalArray, NodeOp, NodeProgram, PipeLevel, Strip};
use dhpf::core::distrib::{ArrayDist, DimMap, ProcGrid};
use dhpf::core::exec::node::run_node_program;
use dhpf::core::transfer::{Seg, Transfer};
use dhpf::prelude::*;
use std::collections::BTreeMap;

fn grid(n: i64) -> ProcGrid {
    ProcGrid {
        name: "p".into(),
        extents: vec![n],
    }
}

fn program_with(unit: CompiledUnit, arrays: Vec<GlobalArray>, n: i64) -> NodeProgram {
    let mut unit_index = BTreeMap::new();
    unit_index.insert(unit.name.clone(), 0);
    NodeProgram {
        grid: grid(n),
        arrays,
        units: vec![unit],
        unit_index,
        main: 0,
        provenance: vec![],
    }
}

/// The transfer of `segs` copies of the section `(1:1)` of array slot 0.
fn a_1_1(from: usize, to: usize, segs: usize) -> Transfer<usize> {
    let seg = Seg {
        arr: 0,
        lo: vec![1],
        hi: vec![1],
    };
    Transfer {
        from,
        to,
        segs: vec![seg; segs],
    }
}

/// The 1-element array `a`, block-distributed over 2 procs with one
/// ghost cell: rank 1 owns nothing of it.
fn one_element_array() -> GlobalArray {
    let dist = ArrayDist {
        array: "a".into(),
        bounds: vec![(1, 1)],
        dims: vec![DimMap::Block {
            pdim: 0,
            block: 1,
            align_offset: 0,
            nproc: 2,
        }],
    };
    GlobalArray {
        name: "a".into(),
        bounds: vec![(1, 1)],
        dist: Some(dist),
        ghost: vec![1],
    }
}

/// An Exchange whose message names an array slot that is never bound to
/// an actual (a dummy): previously an out-of-bounds indexing panic.
#[test]
fn unbound_dummy_in_exchange_is_a_structured_error() {
    let unit = CompiledUnit {
        name: "main".into(),
        n_arrays: 1,
        array_global: vec![None],
        array_names: vec!["d".into()],
        ops: vec![NodeOp::Exchange {
            msgs: vec![a_1_1(0, 1, 1)],
            tag: 7,
            plan: 0,
        }],
        ..Default::default()
    };
    let prog = program_with(unit, vec![], 2);
    let err =
        run_node_program(&prog, MachineConfig::sp2(2)).expect_err("unbound dummy must not execute");
    assert!(
        err.0.contains("never bound"),
        "unexpected message: {}",
        err.0
    );
}

/// An unguarded write on a rank that allocates no storage for the array:
/// previously `panic!("write to unowned array ...")`.
#[test]
fn write_to_unowned_storage_is_a_structured_error() {
    // 1-element array block-distributed over 2 procs: rank 1 owns nothing.
    let dist = ArrayDist {
        array: "a".into(),
        bounds: vec![(1, 1)],
        dims: vec![DimMap::Block {
            pdim: 0,
            block: 1,
            align_offset: 0,
            nproc: 2,
        }],
    };
    let ga = GlobalArray {
        name: "a".into(),
        bounds: vec![(1, 1)],
        dist: Some(dist),
        ghost: vec![0],
    };
    let unit = CompiledUnit {
        name: "main".into(),
        n_arrays: 1,
        array_global: vec![Some(0)],
        array_names: vec!["a".into()],
        ops: vec![NodeOp::Assign {
            guard: None, // unguarded: every rank writes, rank 1 cannot
            arr: 0,
            subs: vec![CIdx::cst(1)],
            value: dhpf::core::codegen::CExpr::Const(1.0),
            flops: 0,
        }],
        ..Default::default()
    };
    let prog = program_with(unit, vec![ga], 2);
    let err =
        run_node_program(&prog, MachineConfig::sp2(2)).expect_err("unowned write must not execute");
    assert!(err.0.contains("unowned"), "unexpected message: {}", err.0);
}

/// A pipeline whose hop names an array slot that is an unbound dummy:
/// previously the `strip_dim.unwrap()` region lookup panicked with an
/// indexing error.
#[test]
fn pipeline_over_unbound_dummy_is_a_structured_error() {
    let unit = CompiledUnit {
        name: "main".into(),
        n_ints: 1,
        n_arrays: 1,
        array_global: vec![None],
        array_names: vec!["d".into()],
        ops: vec![NodeOp::Pipeline {
            levels: vec![PipeLevel {
                var: 0,
                lo: CIdx::cst(1),
                hi: CIdx::cst(4),
                step: 1,
            }],
            body: vec![],
            strip: Some(Strip {
                level: 0,
                granularity: 2,
                owned: None,
                dims: vec![(0, 0)],
            }),
            hops: vec![a_1_1(0, 1, 1)],
            tag: 9,
            plan: 0,
        }],
        ..Default::default()
    };
    let prog = program_with(unit, vec![], 2);
    let err = run_node_program(&prog, MachineConfig::sp2(2))
        .expect_err("pipeline over an unbound dummy must not execute");
    assert!(
        err.0.contains("never bound"),
        "unexpected message: {}",
        err.0
    );
}

/// A backward sweep whose upstream rank owns nothing of the swept array
/// sends an empty boundary where the downstream rank expects one plane:
/// the receive-side size check reports it as one readable sentence (the
/// message once carried runs of ~34 spaces from lost `\` continuations).
#[test]
fn pipeline_recv_mismatch_is_a_readable_structured_error() {
    // one section per hop, and two packed into one
    for segs in [1, 2] {
        let unit = CompiledUnit {
            name: "main".into(),
            n_ints: 1,
            n_arrays: 1,
            array_global: vec![Some(0)],
            array_names: vec!["a".into()],
            ops: vec![NodeOp::Pipeline {
                levels: vec![PipeLevel {
                    var: 0,
                    lo: CIdx::cst(1),
                    hi: CIdx::cst(1),
                    step: 1,
                }],
                body: vec![],
                strip: None,
                // rank 1 is rank 0's predecessor
                hops: vec![a_1_1(1, 0, segs)],
                tag: 11,
                plan: 0,
            }],
            ..Default::default()
        };
        let prog = program_with(unit, vec![one_element_array()], 2);
        let err = run_node_program(&prog, MachineConfig::sp2(2))
            .expect_err("a short boundary payload must not be unpacked");
        assert!(
            err.0
                .starts_with("pipeline recv mismatch on rank 0 (coords [0]) from 1: array a"),
            "unexpected message: {}",
            err.0
        );
        assert!(
            err.0.ends_with("(tag 11, chunk 0..0)"),
            "unexpected message: {}",
            err.0
        );
        assert!(!err.0.contains("  "), "run of spaces in: {}", err.0);
    }
}

/// An exchange whose sender owns nothing of the array packs nothing for
/// it, and the receiver is handed a payload shorter than its transfer:
/// the same structured error as the pipeline's, from the one unpack path
/// (this used to be a slice-index panic out of `run_node_program`).
#[test]
fn short_exchange_payload_is_a_readable_structured_error() {
    // one section per transfer, and two packed into one
    for segs in [1, 2] {
        let msgs = vec![a_1_1(1, 0, segs)];
        let blocking = NodeOp::Exchange {
            msgs: msgs.clone(),
            tag: 13,
            plan: 0,
        };
        let overlapped = NodeOp::OverlapNest {
            msgs,
            tag: 13,
            levels: vec![PipeLevel {
                var: 0,
                lo: CIdx::cst(1),
                hi: CIdx::cst(1),
                step: 1,
            }],
            body: vec![],
            interior: vec![],
            plan: 0,
        };
        for (op, name) in [(blocking, "exchange"), (overlapped, "overlap")] {
            let unit = CompiledUnit {
                name: "main".into(),
                n_ints: 1,
                n_arrays: 1,
                array_global: vec![Some(0)],
                array_names: vec!["a".into()],
                ops: vec![op],
                ..Default::default()
            };
            let prog = program_with(unit, vec![one_element_array()], 2);
            let err = run_node_program(&prog, MachineConfig::sp2(2))
                .expect_err("a short payload must not be unpacked");
            let want = format!(
                "{name} recv mismatch on rank 0 (coords [0]) from 1: array a region [1]..[1] \
                 needs 1 at offset 0 but the packed payload holds 0 (tag 13)"
            );
            assert_eq!(err.0, want);
            assert!(!err.0.contains("  "), "run of spaces in: {}", err.0);
        }
    }
}

/// The machine-size mismatch keeps its original structured error.
#[test]
fn machine_size_mismatch_is_a_structured_error() {
    let unit = CompiledUnit {
        name: "main".into(),
        ..Default::default()
    };
    let prog = program_with(unit, vec![], 2);
    let err = run_node_program(&prog, MachineConfig::sp2(3)).expect_err("size mismatch");
    assert!(err.0.contains("compiled for 2"), "got: {}", err.0);
}

/// An array passed to a callee whose stencil reads past the caller's
/// overlap area: the callee's exchange names a section outside the
/// window the caller allocated. The run returns an `ExecError` naming
/// the rank, the array and the region; it does not panic in the unpack.
#[test]
fn section_outside_the_window_is_a_structured_error() {
    let src = "
      program t
      integer i
      double precision a(16), b(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, 16
         a(i) = 1.0d0 * i
         b(i) = 0.0d0
      enddo
      call smooth(a, b)
      end

      subroutine smooth(x, y)
      integer i
      double precision x(16), y(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: x, y
      do i = 2, 15
         y(i) = 0.5d0*(x(i-1) + x(i+1))
      enddo
      end
";
    let compiled = compile(&parse(src).expect("parses"), &CompileOptions::new()).expect("compiles");
    let err = run_node_program(&compiled.program, MachineConfig::sp2(2))
        .expect_err("a section outside the window must not be unpacked");
    assert!(
        err.0.contains("rank ")
            && err.0.contains("array t::a region")
            && err.0.contains("outside its window"),
        "unexpected message: {}",
        err.0
    );
}
