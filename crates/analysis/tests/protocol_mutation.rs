//! Mutation battery for the static SPMD protocol verifier: each injected
//! protocol fault must be caught with its distinct diagnostic code,
//! purely statically (no trace input). Clean programs must verify clean.

use dhpf_analysis::diag::Report;
use dhpf_analysis::protocol::{check_protocol, verify_protocol_program};
use dhpf_core::codegen::{CExpr, CIdx, NodeOp, ProvKind};
use dhpf_core::protocol::{extract_protocol, ArrayInfo, ProtoOp, ProtocolProgram};
use dhpf_core::transfer::{Region, Seg, Transfer};
use dhpf_nas::Class;

fn codes(r: &Report) -> Vec<&'static str> {
    r.findings.iter().map(|f| f.code).collect()
}

fn assert_code(r: &Report, code: &str) {
    assert!(
        r.findings.iter().any(|f| f.code == code),
        "expected {code}, got {:?}:\n{}",
        codes(r),
        r.render_human(None)
    );
}

// ---------------------------------------------------------------------
// Clean programs verify clean.
// ---------------------------------------------------------------------

#[test]
fn clean_nas_programs_verify_clean() {
    for (name, compiled) in [
        ("SP@4", dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None)),
        ("BT@1", dhpf_nas::Kernel::Bt.compile_dhpf(Class::S, 1, None)),
        ("BT@2", dhpf_nas::Kernel::Bt.compile_dhpf(Class::S, 2, None)),
        ("BT@4", dhpf_nas::Kernel::Bt.compile_dhpf(Class::S, 4, None)),
    ] {
        let report = verify_protocol_program(&compiled.program);
        assert!(
            report.is_clean(),
            "{name} should verify clean:\n{}",
            report.render_human(None)
        );
    }
}

// ---------------------------------------------------------------------
// ProtocolProgram-level mutations on real extracted NAS protocols.
// ---------------------------------------------------------------------

fn sp_protocol() -> ProtocolProgram {
    let compiled = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let p = extract_protocol(&compiled.program);
    assert!(
        count_waits(&p.ops) > 0,
        "SP@4 should post nonblocking receives (overlap is on by default)"
    );
    p
}

fn count_waits(ops: &[ProtoOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            ProtoOp::Wait { .. } => 1,
            ProtoOp::Loop { body, .. } => count_waits(body),
            ProtoOp::Branch { arms, .. } => arms.iter().map(|a| count_waits(a)).sum(),
            _ => 0,
        })
        .sum()
}

/// Apply `f` to the first op matching `pred` (depth-first); returns true
/// when a mutation happened. `f` edits the containing Vec at the index.
fn mutate_first(
    ops: &mut Vec<ProtoOp>,
    pred: &dyn Fn(&ProtoOp) -> bool,
    f: &dyn Fn(&mut Vec<ProtoOp>, usize),
) -> bool {
    for i in 0..ops.len() {
        if pred(&ops[i]) {
            f(ops, i);
            return true;
        }
        let hit = match &mut ops[i] {
            ProtoOp::Loop { body, .. } => mutate_first(body, pred, f),
            ProtoOp::Branch { arms, .. } => arms.iter_mut().any(|arm| mutate_first(arm, pred, f)),
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

#[test]
fn dropped_wait_is_caught_statically() {
    let mut p = sp_protocol();
    let is_wait = |op: &ProtoOp| matches!(op, ProtoOp::Wait { .. });
    assert!(mutate_first(&mut p.ops, &is_wait, &|ops, i| {
        ops.remove(i);
    }));
    assert_code(&check_protocol(&p), "protocol-unwaited-irecv");
}

#[test]
fn duplicated_wait_is_caught_statically() {
    let mut p = sp_protocol();
    let is_wait = |op: &ProtoOp| matches!(op, ProtoOp::Wait { .. });
    assert!(mutate_first(&mut p.ops, &is_wait, &|ops, i| {
        let dup = ops[i].clone();
        ops.insert(i + 1, dup);
    }));
    assert_code(&check_protocol(&p), "protocol-double-wait");
}

#[test]
fn dropped_post_is_caught_statically() {
    let mut p = sp_protocol();
    let is_post = |op: &ProtoOp| matches!(op, ProtoOp::Post { .. });
    assert!(mutate_first(&mut p.ops, &is_post, &|ops, i| {
        ops.remove(i);
    }));
    assert_code(&check_protocol(&p), "protocol-wait-unposted");
}

// ---------------------------------------------------------------------
// NodeOp-level mutations: the verifier sees only the emitted program.
// ---------------------------------------------------------------------

fn stencil() -> dhpf_core::Compiled {
    let src = "
      program t
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = i * i * 1.0d0
      enddo
      do i = 2, n - 1
         b(i) = a(i - 1) + a(i + 1)
      enddo
      end
";
    let program = dhpf_fortran::parse(src).unwrap();
    dhpf_core::compile(&program, &dhpf_core::CompileOptions::new()).unwrap()
}

fn is_comm(op: &NodeOp) -> bool {
    matches!(op, NodeOp::Exchange { .. } | NodeOp::OverlapNest { .. })
}

#[test]
fn send_reordered_before_producing_compute_is_stale() {
    let mut compiled = stencil();
    assert!(verify_protocol_program(&compiled.program).is_clean());
    let main = compiled.program.main;
    let ops = &mut compiled.program.units[main].ops;
    let pos = ops
        .iter()
        .position(is_comm)
        .expect("stencil should communicate the halo");
    assert!(
        pos > 0,
        "the halo exchange should follow the producing loop"
    );
    let ex = ops.remove(pos);
    ops.insert(0, ex);
    assert_code(
        &verify_protocol_program(&compiled.program),
        "protocol-stale-send",
    );
}

#[test]
fn rank_dependent_guard_on_sync_is_divergent() {
    let mut compiled = stencil();
    let main = compiled.program.main;
    let unit = &compiled.program.units[main];
    // A load of a distributed array differs between ranks, so using it as
    // a branch condition makes control flow rank-dependent.
    let slot = unit
        .array_global
        .iter()
        .position(|g| {
            g.map(|g| compiled.program.arrays[g].dist.is_some())
                .unwrap_or(false)
        })
        .expect("stencil has a distributed array");
    let ops = &mut compiled.program.units[main].ops;
    let pos = ops.iter().position(is_comm).unwrap();
    let ex = ops.remove(pos);
    let cond = CExpr::Load {
        arr: slot,
        subs: vec![CIdx::cst(1)],
    };
    ops.insert(
        pos,
        NodeOp::If {
            arms: vec![(Some(cond), vec![ex])],
        },
    );
    assert_code(
        &verify_protocol_program(&compiled.program),
        "protocol-divergent-sync",
    );
}

/// The tags of SP@4's pipeline ops.
fn pipeline_tags(compiled: &dhpf_core::Compiled) -> Vec<u64> {
    let provs = compiled.program.provenance.iter();
    provs
        .filter(|p| p.kind == ProvKind::Pipeline)
        .map(|p| p.tag)
        .collect()
}

/// The first pipeline op of `ops` that has a hop, at any depth.
fn hopped_pipeline(ops: &mut [NodeOp]) -> Option<&mut Vec<Transfer<usize>>> {
    ops.iter_mut().find_map(|op| match op {
        NodeOp::Pipeline { hops, .. } if !hops.is_empty() => Some(hops),
        NodeOp::Loop { body, .. } => hopped_pipeline(body),
        NodeOp::If { arms } => arms.iter_mut().find_map(|(_, b)| hopped_pipeline(b)),
        _ => None,
    })
}

#[test]
fn hop_moved_past_the_receivers_window_is_a_region_mismatch() {
    let mut compiled = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let hops = (compiled.program.units.iter_mut())
        .find_map(|u| hopped_pipeline(&mut u.ops))
        .expect("SP pipelines its sweeps");
    // the one-plane slab behind the receiver's edge, moved far ahead of it
    let seg = &mut hops[0].segs[0];
    let dim = (0..seg.lo.len())
        .rfind(|&d| seg.lo[d] == seg.hi[d])
        .unwrap();
    seg.lo[dim] += 100;
    seg.hi[dim] += 100;
    let r = verify_protocol_program(&compiled.program);
    assert_code(&r, "protocol-region-mismatch");
    assert!(
        r.findings
            .iter()
            .any(|f| f.message.contains("receiver rank")),
        "{}",
        r.render_human(None)
    );
}

#[test]
fn dropped_hop_send_is_unmatched() {
    let compiled = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let tags = pipeline_tags(&compiled);
    let mut p = extract_protocol(&compiled.program);
    let is_hop_send = |op: &ProtoOp| matches!(op, ProtoOp::Send { tag, .. } if tags.contains(tag));
    assert!(mutate_first(&mut p.ops, &is_hop_send, &|ops, i| {
        ops.remove(i);
    }));
    assert_code(&check_protocol(&p), "protocol-unmatched");
}

// ---------------------------------------------------------------------
// Hand-built protocols for the remaining codes.
// ---------------------------------------------------------------------

fn tiny(nprocs: usize, ops: Vec<ProtoOp>) -> ProtocolProgram {
    ProtocolProgram {
        nprocs,
        units: vec!["main".into()],
        arrays: vec![ArrayInfo {
            name: "a".into(),
            distributed: true,
            windows: (0..nprocs)
                .map(|_| {
                    Some(Region {
                        lo: vec![1],
                        hi: vec![8],
                    })
                })
                .collect(),
        }],
        ops,
    }
}

/// The transfer of `a(lo:hi)` from `from` to `to`.
fn xfer(from: usize, to: usize, lo: i64, hi: i64) -> Transfer<usize> {
    let seg = Seg {
        arr: 0,
        lo: vec![lo],
        hi: vec![hi],
    };
    Transfer {
        from,
        to,
        segs: vec![seg],
    }
}

fn send(from: usize, to: usize, tag: u64) -> ProtoOp {
    ProtoOp::Send {
        unit: 0,
        tag,
        xfer: xfer(from, to, 2, 2),
    }
}

fn recv(from: usize, to: usize, tag: u64) -> ProtoOp {
    ProtoOp::Recv {
        unit: 0,
        tag,
        xfer: xfer(from, to, 2, 2),
    }
}

#[test]
fn orphan_send_is_unmatched() {
    let p = tiny(2, vec![ProtoOp::Write { arr: 0 }, send(0, 1, 7)]);
    assert_code(&check_protocol(&p), "protocol-unmatched");
}

#[test]
fn recv_without_send_is_unmatched() {
    let p = tiny(2, vec![recv(0, 1, 7)]);
    assert_code(&check_protocol(&p), "protocol-unmatched");
}

#[test]
fn crossing_blocking_recvs_deadlock() {
    // Both ranks recv first, then send: a classic head-to-head deadlock.
    let p = tiny(
        2,
        vec![
            ProtoOp::Write { arr: 0 },
            recv(1, 0, 10),
            recv(0, 1, 11),
            send(0, 1, 11),
            send(1, 0, 10),
        ],
    );
    assert_code(&check_protocol(&p), "protocol-deadlock");
}

#[test]
fn barrier_under_rank_dependent_branch_is_divergent() {
    let p = tiny(
        2,
        vec![ProtoOp::Branch {
            uniform: false,
            arms: vec![vec![ProtoOp::Barrier { unit: 0, id: 1 }], vec![]],
        }],
    );
    assert_code(&check_protocol(&p), "protocol-divergent-sync");
}

#[test]
fn region_outside_window_is_mismatch() {
    let p = tiny(
        2,
        vec![
            ProtoOp::Write { arr: 0 },
            ProtoOp::Send {
                unit: 0,
                tag: 7,
                xfer: xfer(0, 1, 7, 12), // window is 1..8
            },
            ProtoOp::Recv {
                unit: 0,
                tag: 7,
                xfer: xfer(0, 1, 7, 12),
            },
        ],
    );
    assert_code(&check_protocol(&p), "protocol-region-mismatch");
}

#[test]
fn wait_on_some_paths_only_is_unwaited() {
    let post = ProtoOp::Post {
        unit: 0,
        tag: 7,
        req: 1,
        xfer: xfer(0, 1, 2, 2),
    };
    let wait = ProtoOp::Wait {
        unit: 0,
        tag: 7,
        req: 1,
        xfer: xfer(0, 1, 2, 2),
    };
    let p = tiny(
        2,
        vec![
            ProtoOp::Write { arr: 0 },
            send(0, 1, 7),
            post,
            ProtoOp::Branch {
                uniform: true,
                arms: vec![vec![wait], vec![]],
            },
        ],
    );
    assert_code(&check_protocol(&p), "protocol-unwaited-irecv");
}

#[test]
fn distinct_codes_for_each_mutation_class() {
    // The acceptance bar: every mutation class maps to its own code.
    use std::collections::BTreeSet;
    let all: BTreeSet<&str> = dhpf_analysis::protocol::PROTOCOL_CODES
        .into_iter()
        .collect();
    assert_eq!(all.len(), 8, "codes must be distinct");
}
