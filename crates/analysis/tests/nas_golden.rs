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
