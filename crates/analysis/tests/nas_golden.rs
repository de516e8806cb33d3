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
//! clean report.

use dhpf_analysis::{check_compiled_races, check_traces, verify_compiled};
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
