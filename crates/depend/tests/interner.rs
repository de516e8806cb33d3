//! The dependence tests decide their systems on their own rows: no
//! lookup in the set framework's process-wide memo, and nothing interned.
//! One test in this binary, so no other thread moves the counters.

use dhpf_depend::{analyze_loop_deps, UnitLoops, UnitRefs};
use dhpf_fortran::ast::StmtId;
use dhpf_nas::{Class, Kernel};

#[test]
fn dependence_tests_leave_the_interner_alone() {
    let compiled = Kernel::Bt.compile_dhpf(Class::S, 1, None);
    let program = &compiled.transformed;
    let (tabs, _) = dhpf_fortran::symtab::resolve(program);
    let units: Vec<(UnitLoops, UnitRefs)> = (program.units.iter())
        .map(|unit| {
            let tab = tabs.get(&unit.name).cloned().unwrap_or_default();
            (UnitLoops::build(unit), UnitRefs::build(unit, &tab))
        })
        .collect();
    // every loop: (statements in its body, has a subscript naming a
    // variable no enclosing loop binds, unit, loop)
    let sized = |u: usize, l: StmtId| {
        let (loops, refs) = &units[u];
        let body = loops.stmts_in(l);
        let free = (body.iter().flat_map(|&s| refs.of_stmt(s))).any(|r| {
            (r.subs.iter().flatten()).any(|e| e.vars().any(|v| !loops.is_loop_var(r.stmt, v)))
        });
        (body.len(), free, u, l)
    };
    let all: Vec<_> = (units.iter().enumerate())
        .flat_map(|(u, (loops, _))| loops.loops.keys().map(move |&l| (u, l)))
        .map(|(u, l)| sized(u, l))
        .collect();
    // BT's largest loop, and the largest with free-symbol pairs
    let largest = all.iter().max().expect("BT has loops");
    let largest_free = (all.iter().filter(|l| l.1).max()).expect("BT has free symbols");

    let before = dhpf_iset::cache_stats();
    for &(_, _, u, l) in [largest, largest_free] {
        let (loops, refs) = &units[u];
        assert!(!analyze_loop_deps(l, loops, refs).is_empty());
    }
    assert_eq!(dhpf_iset::cache_stats(), before);
}
