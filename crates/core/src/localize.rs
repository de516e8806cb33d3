//! Partial replication of computation for `LOCALIZE` variables — §4.2.
//!
//! `LOCALIZE(v, …)` on an `INDEPENDENT` loop is the dHPF extension that
//! asserts every element of the *distributed* array `v` read inside the
//! loop is defined earlier inside the loop, and directs the compiler to
//! replicate the computation of boundary values onto every processor
//! that reads them — eliminating all communication for `v` inside the
//! loop (the `compute_rhs` reciprocal arrays `rho_i, us, vs, ws, square,
//! qs` of SP/BT are the motivating case).
//!
//! The CP of a defining statement becomes
//!
//! ```text
//! ON_HOME v(f(ī))  ∪  translate(use₁) ∪ … ∪ translate(useₙ)
//! ```
//!
//! — the owner-computes term *plus* the §4.1-style translations from
//! every use. Unlike `NEW`, the owner term is kept because the variable
//! is live after the loop and its owner must hold the authoritative
//! value.

use crate::cp::{Cp, CpTerm};
use crate::privat::translate_use_cp;
use crate::select::CpAssignment;
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::UnitRefs;
use dhpf_depend::usedef;
use dhpf_fortran::ast::StmtId;
use dhpf_iset::LinExpr;

/// Apply §4.2 to one loop: definitions of `LOCALIZE` variables get the
/// union of the owner term and the CPs translated from their uses.
/// Returns the `(definition statement, variable)` pairs changed.
pub fn apply_localize(
    loop_id: StmtId,
    loops: &UnitLoops,
    refs: &UnitRefs,
    assignment: &mut CpAssignment,
) -> Vec<(StmtId, String)> {
    let vars = loops.loops[&loop_id].dir.localize_vars.clone();
    let mut changed = Vec::new();
    for var in &vars {
        let defs = usedef::writes_of_var(loop_id, var, loops, refs);
        let uses = usedef::reads_of_var(loop_id, var, loops, refs);
        for def in defs {
            // owner-computes term from the definition's own subscripts
            let owner_subs: Option<Vec<LinExpr>> = def.subs.iter().cloned().collect();
            let Some(owner_subs) = owner_subs else {
                continue;
            };
            let mut cp = Cp::single(CpTerm::on_home(var, owner_subs));
            let mut replicated = false;
            for us in &uses {
                if !loops.before(def.stmt, us.stmt) {
                    continue;
                }
                let Some(use_cp) = assignment.get(&us.stmt) else {
                    continue;
                };
                match translate_use_cp(def, us, use_cp, loops) {
                    None => {
                        replicated = true;
                        break;
                    }
                    Some(terms) => {
                        for t in terms {
                            cp.add_term(t);
                        }
                    }
                }
            }
            let cp = if replicated { Cp::replicated() } else { cp };
            assignment.insert(def.stmt, cp);
            changed.push((def.stmt, var.clone()));
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::tests::runs_at;
    use crate::distrib::{resolve, DistEnv};
    use crate::select::{assignments_in, select_for_loop};
    use dhpf_depend::refs::analyze_unit;
    use dhpf_fortran::parse;
    use std::collections::BTreeMap;

    /// The paper's Figure 4.2 pattern (compute_rhs of BT), reduced to one
    /// reciprocal array and the xi-direction stencil.
    const COMPUTE_RHS: &str = "
      subroutine rhs(u, rhsv, rho_i)
      parameter (n = 16)
      integer i, j, k, one
      double precision u(n, n, n), rhsv(n, n, n), rho_i(n, n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (*, block, block) onto p :: u, rhsv, rho_i
!hpf$ independent, localize(rho_i)
      do one = 1, 1
         do k = 1, n
            do j = 1, n
               do i = 1, n
                  rho_i(i, j, k) = 1.0 / u(i, j, k)
               enddo
            enddo
         enddo
         do k = 2, n - 1
            do j = 2, n - 1
               do i = 2, n - 1
                  rhsv(i, j, k) = rho_i(i + 1, j, k) + rho_i(i - 1, j, k)
               enddo
            enddo
         enddo
      enddo
      end
";

    fn setup(src: &str) -> (UnitLoops, UnitRefs, DistEnv, CpAssignment, StmtId) {
        let p = parse(src).expect("parse");
        let name = p.units[0].name.clone();
        let (loops, refs, _) = analyze_unit(&p, &name).expect("analyze");
        let env = resolve(&p.units[0], &BTreeMap::new()).expect("resolve");
        let localize_loop = loops
            .loops
            .iter()
            .find(|(_, i)| !i.dir.localize_vars.is_empty())
            .map(|(id, _)| *id)
            .unwrap();
        let local_vars = loops.loops[&localize_loop].dir.localize_vars.clone();
        let stmts = assignments_in(localize_loop, &loops, &refs);
        let non_localized: Vec<StmtId> = stmts
            .iter()
            .filter(|s| {
                refs.write_of(**s)
                    .map(|w| !local_vars.contains(&w.array))
                    .unwrap_or(true)
            })
            .cloned()
            .collect();
        let assignment = select_for_loop(&non_localized, &CpAssignment::new(), &refs, &env);
        (loops, refs, env, assignment, localize_loop)
    }

    #[test]
    fn figure_4_2_union_includes_owner_and_uses() {
        let (loops, refs, _env, mut assignment, ll) = setup(COMPUTE_RHS);
        let changed = apply_localize(ll, &loops, &refs, &mut assignment);
        assert_eq!(changed.len(), 1);
        let cp = &assignment[&changed[0].0];
        let rendered: Vec<String> = cp.terms.iter().map(|t| t.to_string()).collect();
        // owner term + two translated stencil terms; i is serial so the
        // i±1 shifts do not change ownership along distributed dims but
        // the terms are still recorded
        assert!(
            rendered.iter().any(|t| t.contains("rho_i(i,j,k)")),
            "{rendered:?}"
        );
        assert!(rendered.iter().any(|t| t.contains("rhsv")), "{rendered:?}");
        assert!(cp.terms.len() >= 2, "{rendered:?}");
    }

    #[test]
    fn distributed_dim_stencil_replicates_boundaries() {
        // variant with the stencil along the distributed j dimension
        let src = "
      subroutine rhs(u, rhsv, rho_i)
      parameter (n = 16)
      integer i, j, one
      double precision u(n, n), rhsv(n, n), rho_i(n, n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: u, rhsv, rho_i
!hpf$ independent, localize(rho_i)
      do one = 1, 1
         do j = 1, n
            do i = 1, n
               rho_i(j, i) = 1.0 / u(j, i)
            enddo
         enddo
         do j = 2, n - 1
            do i = 1, n
               rhsv(j, i) = rho_i(j + 1, i) + rho_i(j - 1, i)
            enddo
         enddo
      enddo
      end
";
        let (loops, refs, env, mut assignment, ll) = setup(src);
        let changed = apply_localize(ll, &loops, &refs, &mut assignment);
        let cp = &assignment[&changed[0].0];
        // n=16, 2 procs, block 8: boundary j=8 and j=9 rows replicate.
        // j=8: owner p0; consumer rhsv(7,·) reads rho_i(8) (j+1 of 7)? No:
        // reads of rho_i(j±1) with rhsv(j) CP — def rho_i(8) needed by
        // rhsv(9) (its j−1 = 8) whose owner is p1 → p1 also computes j=8.
        let at = |j: i64, proc: i64| runs_at(cp, &env, &[proc], &[("j", j), ("i", 1)]);
        assert!(at(8, 0), "owner computes");
        assert!(at(8, 1), "right neighbor replicates boundary");
        assert!(at(9, 0), "left neighbor replicates boundary");
        assert!(at(9, 1), "owner computes");
        assert!(!at(4, 1), "interior not replicated");
        assert!(!at(12, 0), "interior not replicated");
    }

    #[test]
    fn localize_keeps_owner_term_unlike_new() {
        let (loops, refs, _env, mut assignment, ll) = setup(COMPUTE_RHS);
        let changed = apply_localize(ll, &loops, &refs, &mut assignment);
        let cp = &assignment[&changed[0].0];
        assert!(
            cp.terms.iter().any(|t| t.array == "rho_i"),
            "owner-computes term must be kept for LOCALIZE (live-out variable)"
        );
    }
}
