//! Differential oracle: the *static* protocol verifier and the *dynamic*
//! trace checker must agree on NAS SP/BT class S at every geometry CI
//! runs — clean programs pass both, and each injected protocol fault is
//! caught by both (with the corresponding static `protocol-*` and
//! dynamic `trace-*` codes).

use dhpf::core::codegen::{CExpr, CIdx, NodeOp, NodeProgram};
use dhpf::core::protocol::{extract_protocol, ProtoOp};
use dhpf::core::transfer::{Seg, Transfer};
use dhpf::core::{CompileOptions, Compiled};
use dhpf::prelude::*;
use dhpf_core::codegen::{Guard, GuardAtom};
use dhpf_spmd::trace::{EventKind, Trace};
use std::collections::BTreeMap;

fn has_code(r: &dhpf::analysis::Report, code: &str) -> bool {
    r.findings.iter().any(|f| f.code == code)
}

#[test]
fn clean_nas_agrees_statically_and_dynamically() {
    for (name, compiled, nprocs) in [
        (
            "SP@4",
            dhpf::nas::Kernel::Sp.compile_dhpf(Class::S, 4, None),
            4,
        ),
        (
            "BT@1",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 1, None),
            1,
        ),
        (
            "BT@2",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 2, None),
            2,
        ),
        (
            "BT@4",
            dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, 4, None),
            4,
        ),
    ] {
        // Static verdict: clean.
        let stat = verify_protocol(&compiled);
        assert!(
            stat.is_clean(),
            "{name} static verdict not clean:\n{}",
            stat.render_human(None)
        );
        // Dynamic verdict on a real execution: also clean.
        let machine = MachineConfig::sp2(nprocs).with_trace();
        let result = run_node_program(&compiled.program, machine)
            .unwrap_or_else(|e| panic!("{name} execution failed: {e}"));
        // The dynamic checker may emit advisory warnings (e.g. a
        // serialized pipeline sweep); the differential claim is about
        // protocol errors.
        let dyn_r = dhpf::analysis::check_traces(&result.run.traces);
        assert_eq!(
            dyn_r.error_count(),
            0,
            "{name} dynamic verdict has errors:\n{}",
            dyn_r.render_human(None)
        );
    }
}

/// Inject a rank-dependent guard around an extra exchange executed only
/// by the rank owning the distributed array's first cell. Statically
/// this is divergent synchronization; dynamically the lone send is an
/// orphan the trace checker flags as unmatched.
fn inject_divergent_exchange(compiled: &mut Compiled) {
    let prog = &mut compiled.program;
    let main = prog.main;
    let unit = &prog.units[main];
    let (slot, g) = unit
        .array_global
        .iter()
        .enumerate()
        .find_map(|(s, og)| {
            og.filter(|&g| prog.arrays[g].dist.is_some())
                .map(|g| (s, g))
        })
        .expect("main should bind a distributed array");
    let dist = prog.arrays[g].dist.as_ref().unwrap();
    let corner: Vec<i64> = dist
        .owned_box(&prog.grid.coords(0))
        .expect("rank 0 owns a block")
        .iter()
        .map(|b| b.0)
        .collect();
    let unit = &mut prog.units[main];
    let flag = unit.n_ints;
    unit.n_ints += 1;
    // flag := 1 exactly on the rank that owns `corner` (the ownership
    // guard evaluates differently per rank), 0 elsewhere.
    let atoms: Vec<GuardAtom> = corner
        .iter()
        .enumerate()
        .map(|(d, &c)| GuardAtom::In {
            arr: slot,
            dim: d,
            sub: CIdx::cst(c),
        })
        .collect();
    let inject = vec![
        NodeOp::AssignI {
            guard: None,
            slot: flag,
            value: CExpr::Const(0.0),
            flops: 0,
        },
        NodeOp::AssignI {
            guard: Some(Guard { terms: vec![atoms] }),
            slot: flag,
            value: CExpr::Const(1.0),
            flops: 0,
        },
        NodeOp::If {
            arms: vec![(
                Some(CExpr::Int(CIdx {
                    terms: vec![(flag, 1)],
                    cst: 0,
                })),
                vec![NodeOp::Exchange {
                    msgs: vec![Transfer {
                        from: 0,
                        to: 1,
                        segs: vec![Seg {
                            arr: slot,
                            lo: corner.clone(),
                            hi: corner,
                        }],
                    }],
                    tag: 999_983,
                    plan: 0,
                }],
            )],
        },
    ];
    // After the first op so the array has been initialized on rank 0.
    let at = 1.min(unit.ops.len());
    for (k, op) in inject.into_iter().enumerate() {
        unit.ops.insert(at + k, op);
    }
}

#[test]
fn divergent_exchange_is_caught_by_both_checkers() {
    let mut compiled = dhpf::nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    inject_divergent_exchange(&mut compiled);
    // Static: divergent synchronization, no execution needed.
    let stat = verify_protocol(&compiled);
    assert!(
        has_code(&stat, "protocol-divergent-sync"),
        "static checker missed the divergent exchange:\n{}",
        stat.render_human(None)
    );
    // Dynamic: rank 0's lone send is orphan mailbox traffic.
    let machine = MachineConfig::sp2(4).with_trace();
    let result = run_node_program(&compiled.program, machine).expect("run");
    let dyn_r = dhpf::analysis::check_traces(&result.run.traces);
    assert!(
        has_code(&dyn_r, "trace-unmatched"),
        "dynamic checker missed the orphan send:\n{}",
        dyn_r.render_human(None)
    );
}

fn mutate_first_wait_proto(ops: &mut Vec<ProtoOp>, drop: bool) -> bool {
    for i in 0..ops.len() {
        if matches!(ops[i], ProtoOp::Wait { .. }) {
            if drop {
                ops.remove(i);
            } else {
                let dup = ops[i].clone();
                ops.insert(i + 1, dup);
            }
            return true;
        }
        let hit = match &mut ops[i] {
            ProtoOp::Loop { body, .. } => mutate_first_wait_proto(body, drop),
            ProtoOp::Branch { arms, .. } => arms
                .iter_mut()
                .any(|arm| mutate_first_wait_proto(arm, drop)),
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

fn mutate_first_wait_traces(traces: &mut [Trace], drop: bool) -> bool {
    for t in traces.iter_mut() {
        for i in 0..t.events.len() {
            if matches!(
                t.events[i].kind,
                EventKind::Wait { .. } | EventKind::WaitStall { .. }
            ) {
                if drop {
                    t.events.remove(i);
                } else {
                    let dup = t.events[i].clone();
                    t.events.insert(i + 1, dup);
                }
                return true;
            }
        }
    }
    false
}

#[test]
fn dropped_wait_is_caught_by_both_checkers() {
    let compiled = dhpf::nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    // Static projection of the fault.
    let mut proto = extract_protocol(&compiled.program);
    assert!(mutate_first_wait_proto(&mut proto.ops, true));
    let stat = check_protocol(&proto);
    assert!(
        has_code(&stat, "protocol-unwaited-irecv"),
        "static checker missed the dropped wait:\n{}",
        stat.render_human(None)
    );
    // Dynamic projection of the same fault on a recorded execution.
    let machine = MachineConfig::sp2(4).with_trace();
    let result = run_node_program(&compiled.program, machine).expect("run");
    let mut traces = result.run.traces;
    assert!(mutate_first_wait_traces(&mut traces, true));
    let dyn_r = dhpf::analysis::check_traces(&traces);
    assert!(
        has_code(&dyn_r, "trace-unwaited-irecv"),
        "dynamic checker missed the dropped wait:\n{}",
        dyn_r.render_human(None)
    );
}

#[test]
fn duplicated_wait_is_caught_by_both_checkers() {
    let compiled = dhpf::nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let mut proto = extract_protocol(&compiled.program);
    assert!(mutate_first_wait_proto(&mut proto.ops, false));
    let stat = check_protocol(&proto);
    assert!(
        has_code(&stat, "protocol-double-wait"),
        "static checker missed the duplicated wait:\n{}",
        stat.render_human(None)
    );
    let machine = MachineConfig::sp2(4).with_trace();
    let result = run_node_program(&compiled.program, machine).expect("run");
    let mut traces = result.run.traces;
    assert!(mutate_first_wait_traces(&mut traces, false));
    let dyn_r = dhpf::analysis::check_traces(&traces);
    assert!(
        has_code(&dyn_r, "trace-double-wait"),
        "dynamic checker missed the duplicated wait:\n{}",
        dyn_r.render_human(None)
    );
}

/// The stale-send mutation is invisible to the dynamic checker (the
/// trace has no data-flow), so the static checker strictly extends the
/// dynamic one there: verify the static side alone still catches it on
/// the same program the differential suite uses.
#[test]
fn stale_send_is_static_only_coverage() {
    let src = "
      program t
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = i * 1.0d0
      enddo
      do i = 2, n - 1
         b(i) = a(i - 1) + a(i + 1)
      enddo
      end
";
    let program = parse(src).unwrap();
    let mut compiled = dhpf::core::compile(&program, &CompileOptions::new()).unwrap();
    let main = compiled.program.main;
    let ops = &mut compiled.program.units[main].ops;
    let pos = ops
        .iter()
        .position(|op| matches!(op, NodeOp::Exchange { .. } | NodeOp::OverlapNest { .. }))
        .expect("halo exchange");
    let ex = ops.remove(pos);
    ops.insert(0, ex);
    let stat = verify_protocol(&compiled);
    assert!(
        has_code(&stat, "protocol-stale-send"),
        "static checker missed the reordered send:\n{}",
        stat.render_human(None)
    );
    // The dynamic checker, by design, sees nothing wrong: every send
    // still has its matching receive.
    let machine = MachineConfig::sp2(2).with_trace();
    let result = run_node_program(&compiled.program, machine).expect("run");
    let dyn_r = dhpf::analysis::check_traces(&result.run.traces);
    assert_eq!(
        dyn_r.error_count(),
        0,
        "dynamic checker should not see the reorder:\n{}",
        dyn_r.render_human(None)
    );
}

/// How many times `ops` runs the pipeline op tagged `tag`: loop trips
/// multiply (with `trips`; otherwise a loop counts once, which makes it
/// the number of places the extractor inlines the op), calls descend.
/// Every loop around a NAS pipeline has constant bounds, and none sits
/// under a branch.
fn pipeline_runs(prog: &NodeProgram, ops: &[NodeOp], tag: u64, trips: bool) -> u64 {
    let runs = |op: &NodeOp| match op {
        NodeOp::Pipeline { tag: t, .. } => (*t == tag) as u64,
        NodeOp::Call { unit, .. } => pipeline_runs(prog, &prog.units[*unit].ops, tag, trips),
        NodeOp::Loop {
            lo, hi, step, body, ..
        } => match pipeline_runs(prog, body, tag, trips) {
            0 => 0,
            inner if !trips => inner,
            inner => {
                assert!(lo.terms.is_empty() && hi.terms.is_empty(), "loop bounds");
                inner * ((hi.cst - lo.cst) / step + 1).max(0) as u64
            }
        },
        NodeOp::If { arms } => {
            assert!(arms
                .iter()
                .all(|(_, b)| pipeline_runs(prog, b, tag, trips) == 0));
            0
        }
        _ => 0,
    };
    ops.iter().map(runs).sum()
}

/// Messages and bytes per `(tag, from, to)` of the protocol's sends, in
/// loops and branches too, each counted once.
fn proto_sends(ops: &[ProtoOp], out: &mut BTreeMap<(u64, usize, usize), (u64, u64)>) {
    for op in ops {
        match op {
            ProtoOp::Send { tag, xfer, .. } => {
                let sent = out.entry((*tag, xfer.from, xfer.to)).or_default();
                *sent = (sent.0 + 1, sent.1 + 8 * xfer.elems() as u64);
            }
            ProtoOp::Loop { body, .. } => proto_sends(body, out),
            ProtoOp::Branch { arms, .. } => arms.iter().for_each(|a| proto_sends(a, out)),
            _ => {}
        }
    }
}

/// The interpreter and the protocol extractor cut a pipeline's hops to
/// strip chunks with one rule (`codegen::Strip`): on every link of
/// every pipeline, the extracted sends of one run of the op, times its
/// runs, are the traced sends — in messages and in bytes.
#[test]
fn pipeline_chunks_agree_statically_and_dynamically() {
    use dhpf::core::codegen::ProvKind;
    use dhpf::nas::Kernel::{Bt, Sp};
    let mut links = 0;
    let geometries = [
        (Sp, 4),
        (Bt, 1),
        (Bt, 2),
        (Bt, 4),
        (Sp, 6),
        (Bt, 6),
        (Sp, 16),
        (Bt, 16),
    ];
    for (kernel, nprocs) in geometries {
        let compiled = kernel.compile_dhpf(Class::S, nprocs, None);
        let prog = &compiled.program;
        let machine = MachineConfig::sp2(nprocs).with_trace();
        let result = run_node_program(prog, machine).expect("run");
        let mut traced: BTreeMap<(u64, usize, usize), (u64, u64)> = BTreeMap::new();
        for t in &result.run.traces {
            for e in &t.events {
                if let (EventKind::Send { to, bytes }, Some(plan)) = (&e.kind, e.nest) {
                    let prov = &prog.provenance[plan as usize];
                    if prov.kind == ProvKind::Pipeline {
                        let sent = traced.entry((prov.tag, t.rank, *to)).or_default();
                        *sent = (sent.0 + 1, sent.1 + bytes);
                    }
                }
            }
        }
        let mut extracted = BTreeMap::new();
        proto_sends(&extract_protocol(prog).ops, &mut extracted);
        let main = &prog.units[prog.main].ops;
        let pipelines = prog
            .provenance
            .iter()
            .filter(|p| p.kind == ProvKind::Pipeline);
        for tag in pipelines.map(|p| p.tag) {
            let (runs, sites) = (
                pipeline_runs(prog, main, tag, true),
                pipeline_runs(prog, main, tag, false),
            );
            let of_tag = |m: &BTreeMap<(u64, usize, usize), (u64, u64)>| -> Vec<_> {
                m.range((tag, 0, 0)..(tag + 1, 0, 0))
                    .map(|(k, v)| (*k, *v))
                    .collect()
            };
            let expected: Vec<_> = of_tag(&extracted)
                .into_iter()
                .map(|(k, (n, b))| (k, (n / sites * runs, b / sites * runs)))
                .collect();
            assert_eq!(
                of_tag(&traced),
                expected,
                "{} S @ {nprocs}: tag {tag}, {runs} run(s) at {sites} site(s): \
                 ((tag, from, to), (messages, bytes))",
                kernel.name()
            );
            links += expected.len();
        }
    }
    assert!(links > 0, "no pipeline link was checked");
}
