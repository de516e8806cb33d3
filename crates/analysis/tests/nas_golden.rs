//! Golden and mutation tests of the comm-coverage verifier against the
//! full NAS SP/BT dHPF pipelines (class S).
//!
//! Golden: the verifier and race checker must report *nothing* on clean
//! compiler output — any finding here is a verifier false positive (or a
//! real miscompile, which tier-1 numerical tests would also catch).
//!
//! Mutation: dropping a single pre-exchange from a nest plan must be
//! caught, and the findings must point at reads of exactly the dropped
//! array in the mutated unit. Restoring the message must restore a
//! clean report. So must a pipeline hop dropped, or shrunk by one plane.

use dhpf_analysis::{check_compiled_races, check_traces, verify_compiled};
use dhpf_core::codegen::{NodeOp, ProvKind};
use dhpf_core::comm::NestPlan;
use dhpf_core::driver::Compiled;
use dhpf_core::transfer::{remove_seg, sole_deliveries, Seg};
use dhpf_fortran::ast::StmtId;
use dhpf_nas::Class;
use dhpf_spmd::machine::MachineConfig;

/// Find a pre-exchange section no other pre-exchange of the plan
/// delivers to the same receiver — dropping it must leave some element
/// of the receiver's ghost region unfilled — as `(unit, nest, transfer,
/// segment)`.
fn pick_droppable(compiled: &Compiled) -> Option<(String, StmtId, usize, usize)> {
    compiled.analyses.iter().find_map(|(uname, ua)| {
        ua.plans.iter().find_map(|(&nest, plan)| {
            let &(t, s) = sole_deliveries(plan.pre()).first()?;
            Some((uname.clone(), nest, t, s))
        })
    })
}

fn drop_pre_msg(
    compiled: &mut Compiled,
    (unit, nest, t, s): &(String, StmtId, usize, usize),
) -> Seg<String> {
    let plan = compiled
        .analyses
        .get_mut(unit)
        .expect("mutated unit")
        .plans
        .get_mut(nest)
        .expect("mutated nest");
    match plan {
        NestPlan::Parallel { pre, .. } | NestPlan::Pipelined { pre, .. } => remove_seg(pre, *t, *s),
    }
}

#[test]
fn sp_class_s_verifies_clean() {
    let compiled = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let r = verify_compiled(&compiled);
    assert!(
        r.is_clean(),
        "SP verifier false positives:\n{}",
        r.render_human(None)
    );
    let races = check_compiled_races(&compiled);
    assert!(
        races.is_clean(),
        "SP ghost races:\n{}",
        races.render_human(None)
    );
}

#[test]
fn bt_class_s_verifies_clean() {
    let compiled = dhpf_nas::Kernel::Bt.compile_dhpf(Class::S, 4, None);
    let r = verify_compiled(&compiled);
    assert!(
        r.is_clean(),
        "BT verifier false positives:\n{}",
        r.render_human(None)
    );
    let races = check_compiled_races(&compiled);
    assert!(
        races.is_clean(),
        "BT ghost races:\n{}",
        races.render_human(None)
    );
}

#[test]
fn sp_class_s_traces_are_consistent() {
    let res = dhpf_nas::Kernel::Sp.run_dhpf(Class::S, 4, MachineConfig::sp2(4).with_trace());
    let r = check_traces(&res.run.traces);
    // no finding of any severity: a clean run has nothing to warn about
    assert!(
        r.is_clean(),
        "SP trace inconsistencies:\n{}",
        r.render_human(None)
    );
}

#[test]
fn dropped_sp_exchange_is_caught() {
    let clean = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let mut mutated = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let pick = pick_droppable(&clean).expect("SP plans contain a non-redundant pre-exchange");
    let dropped = drop_pre_msg(&mut mutated, &pick);
    let unit = pick.0;

    let r = verify_compiled(&mutated);
    assert!(
        r.error_count() > 0,
        "verifier missed the dropped exchange {dropped:?} in `{unit}`"
    );
    for f in &r.findings {
        assert_eq!(f.code, "comm-coverage", "{}", r.render_human(None));
        assert_eq!(f.unit, unit, "finding escaped the mutated unit");
        assert!(
            f.message.contains(&format!("`{}`", dropped.arr)),
            "finding does not name the dropped array `{}`: {}",
            dropped.arr,
            f.message
        );
        assert!(f.stmt.is_some(), "finding not anchored to a statement");
    }

    // restoring the message restores a clean report
    let restored = verify_compiled(&clean);
    assert!(restored.is_clean(), "{}", restored.render_human(None));
}

#[test]
fn dropped_bt_exchange_is_caught() {
    let clean = dhpf_nas::Kernel::Bt.compile_dhpf(Class::S, 4, None);
    let mut mutated = dhpf_nas::Kernel::Bt.compile_dhpf(Class::S, 4, None);
    let pick = pick_droppable(&clean).expect("BT plans contain a non-redundant pre-exchange");
    let dropped = drop_pre_msg(&mut mutated, &pick);
    let unit = pick.0;

    let r = verify_compiled(&mutated);
    assert!(
        r.error_count() > 0,
        "verifier missed the dropped exchange {dropped:?} in `{unit}`"
    );
    assert!(r
        .findings
        .iter()
        .all(|f| f.code == "comm-coverage" && f.unit == unit));
}

/// The plan the compiler used to emit for a time loop with a `continue`
/// in it — the whole `it` loop one parallel nest, the children's
/// exchanges hoisted above it — rebuilt by hand from today's per-child
/// plans. Every read is covered by a message, so `comm-coverage` has
/// nothing to say; the values are just the first time step's.
#[test]
fn exchange_hoisted_out_of_a_time_loop_is_caught() {
    let src = "
      program demo
      parameter (n = 32)
      integer i, it
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = i * i * 1.0d0
         b(i) = 0.0d0
      enddo
      do it = 1, 5
         do i = 2, n - 1
            b(i) = (a(i - 1) + a(i + 1)) * 0.5d0
         enddo
         do i = 2, n - 1
            a(i) = b(i)
         enddo
         continue
      enddo
      end
";
    let program = dhpf_fortran::parse(src).unwrap();
    let mut compiled = dhpf_core::driver::compile(&program, &Default::default()).unwrap();
    let clean = verify_compiled(&compiled);
    assert!(clean.is_clean(), "{}", clean.render_human(None));

    let ua = compiled.analyses.get_mut("demo").unwrap();
    let children: Vec<StmtId> = ua.nest_scope.keys().copied().collect();
    let it = ua.nest_scope[&children[0]];
    let merged = |phase: fn(&NestPlan) -> &[dhpf_core::transfer::Transfer<String>]| {
        (children.iter().flat_map(|c| phase(&ua.plans[c]).to_vec())).collect::<Vec<_>>()
    };
    let hoisted = NestPlan::Parallel {
        pre: merged(NestPlan::pre),
        post: merged(NestPlan::post),
        overlap: None,
    };
    assert_eq!(hoisted.pre().len(), 6, "{:?}", hoisted.pre());
    ua.nests.retain(|n| !children.contains(n));
    ua.nests.push(it);
    ua.plans.retain(|n, _| !children.contains(n));
    ua.plans.insert(it, hoisted);
    ua.nest_scope.clear();

    let r = verify_compiled(&compiled);
    assert!(r.error_count() > 0, "the hoisted exchange went unnoticed");
    for f in &r.findings {
        assert_eq!(f.code, "comm-placement", "{}", r.render_human(None));
        assert!(
            f.message.contains("read of `a`") && f.message.contains("loop `it`"),
            "{}",
            f.message
        );
    }
}

/// The first pipelined nest of SP class S at 2×2 whose hops carry
/// something, as `(unit, nest)`.
fn first_hops(compiled: &Compiled) -> (String, StmtId) {
    compiled
        .analyses
        .iter()
        .find_map(|(uname, ua)| {
            let mut hopped = ua.plans.iter().filter(|(_, p)| !p.hops().is_empty());
            hopped.next().map(|(nest, _)| (uname.clone(), *nest))
        })
        .expect("SP pipelines its sweeps")
}

/// Every finding is `comm-coverage` at a read of one of `arrays` inside
/// `nest`.
fn assert_stale_read(compiled: &Compiled, unit: &str, nest: StmtId, arrays: &[&str]) {
    let r = verify_compiled(compiled);
    assert!(r.error_count() > 0, "the broken hop went unnoticed");
    let source = compiled.transformed.unit(unit).expect("mutated unit");
    let loops = dhpf_depend::loops::UnitLoops::build(source);
    for f in &r.findings {
        assert_eq!(f.code, "comm-coverage", "{}", r.render_human(None));
        assert_eq!(f.unit, unit, "finding escaped the mutated unit");
        assert!(
            (arrays.iter()).any(|a| f.message.contains(&format!("read of `{a}`"))),
            "{}",
            f.message
        );
        let stmt = f.stmt.expect("finding anchored to a statement");
        assert!(
            loops.stmts_in(nest).contains(&stmt),
            "{stmt:?} outside the nest"
        );
    }
}

/// One hop segment shrunk by one plane on its swept dimension — in the
/// plan the verifier reads and in the op the interpreter runs — leaves
/// that plane stale at the receiver.
#[test]
fn hop_shrunk_by_one_plane_is_caught() {
    let mut compiled = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    assert!(verify_compiled(&compiled).is_clean());
    let (unit, nest) = first_hops(&compiled);
    let NestPlan::Pipelined { hops, schedule, .. } = compiled
        .analyses
        .get_mut(&unit)
        .unwrap()
        .plans
        .get_mut(&nest)
        .unwrap()
    else {
        unreachable!("only a pipelined nest has hops")
    };
    let (from, to, old) = (hops[0].from, hops[0].to, hops[0].segs[0].clone());
    let dim = (schedule.arrays.iter())
        .find(|a| a.array == old.arr)
        .expect("a hop carries a swept array")
        .dim;
    // the plane farthest behind the receiver's edge
    let shrink = |lo: &mut Vec<i64>, hi: &mut Vec<i64>| {
        if schedule.forward {
            lo[dim] += 1
        } else {
            hi[dim] -= 1
        }
    };
    let seg = &mut hops[0].segs[0];
    shrink(&mut seg.lo, &mut seg.hi);

    let prov = (compiled.program.provenance.iter())
        .find(|p| p.unit == unit && p.stmt == nest.0 && p.kind == ProvKind::Pipeline)
        .expect("the nest's pipeline op");
    let (tag, u) = (prov.tag, compiled.program.unit_index[&unit]);
    let emitted = &mut compiled.program.units[u];
    let slot = emitted
        .array_names
        .iter()
        .position(|n| *n == old.arr)
        .unwrap();
    let op = pipeline_op(&mut emitted.ops, tag).expect("the pipeline op is emitted");
    let NodeOp::Pipeline { hops, .. } = op else {
        unreachable!()
    };
    let seg = (hops.iter_mut())
        .filter(|x| (x.from, x.to) == (from, to))
        .flat_map(|x| x.segs.iter_mut())
        .find(|s| s.arr == slot && (&s.lo, &s.hi) == (&old.lo, &old.hi))
        .expect("the emitted hop carries the planned segment");
    shrink(&mut seg.lo, &mut seg.hi);

    assert_stale_read(&compiled, &unit, nest, &[&old.arr]);
}

/// A hop dropped from the plan: nothing else delivers the planes the
/// receiver reads behind its edge.
#[test]
fn dropped_hop_is_caught() {
    let mut compiled = dhpf_nas::Kernel::Sp.compile_dhpf(Class::S, 4, None);
    let (unit, nest) = first_hops(&compiled);
    let NestPlan::Pipelined { hops, .. } = compiled
        .analyses
        .get_mut(&unit)
        .unwrap()
        .plans
        .get_mut(&nest)
        .unwrap()
    else {
        unreachable!("only a pipelined nest has hops")
    };
    let dropped = hops.remove(0);
    let arrays: Vec<&str> = dropped.segs.iter().map(|s| s.arr.as_str()).collect();
    assert_stale_read(&compiled, &unit, nest, &arrays);
}

/// The pipeline op tagged `tag` in `ops`, at any depth.
fn pipeline_op(ops: &mut [NodeOp], tag: u64) -> Option<&mut NodeOp> {
    ops.iter_mut().find_map(|op| match op {
        NodeOp::Pipeline { tag: t, .. } if *t == tag => Some(op),
        NodeOp::Loop { body, .. } => pipeline_op(body, tag),
        NodeOp::If { arms } => arms.iter_mut().find_map(|(_, b)| pipeline_op(b, tag)),
        _ => None,
    })
}
