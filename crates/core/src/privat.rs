//! CP propagation for privatizable (`NEW`) variables — §4.1 of the paper.
//!
//! For a statement defining a privatizable variable, the CP is computed
//! from the CPs of the statements that *use* the variable:
//!
//! 1. establish a one-to-one linear mapping from subscripts of the use to
//!    corresponding subscripts of the definition (skip dims where that is
//!    impossible);
//! 2. apply the inverse of that mapping to the subscripts of the
//!    `ON_HOME` references in the use's CP;
//! 3. vectorize any remaining use-loop variables through the loops
//!    surrounding the use that do not also enclose the definition;
//! 4. the definition gets the **union** of the CPs translated from each
//!    use.
//!
//! The effect: every processor computes all and only the elements of the
//! privatizable array it will actually use — boundary elements are
//! computed redundantly on both neighbors, eliminating all communication
//! for the array inside the loop.

use crate::cp::{Cp, CpTerm, SubTerm};
use crate::select::CpAssignment;
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::{RefInfo, UnitRefs};
use dhpf_depend::usedef;
use dhpf_fortran::ast::StmtId;
use dhpf_iset::LinExpr;

/// Translate the CP of a *use* of a variable back to a *definition*,
/// per §4.1. Returns the translated CP terms; `None` means the use's CP
/// was replicated (the definition must then be replicated too).
pub fn translate_use_cp(
    def: &RefInfo,
    us: &RefInfo,
    use_cp: &Cp,
    loops: &UnitLoops,
) -> Option<Vec<CpTerm>> {
    if use_cp.is_replicated() {
        return None;
    }
    // loops enclosing the use but not the definition ("use-only")
    let common = loops.common_loops(def.stmt, us.stmt);
    let use_nest = loops.nest_of.get(&us.stmt).cloned().unwrap_or_default();
    let use_only: Vec<StmtId> = use_nest
        .iter()
        .filter(|l| !common.contains(l))
        .cloned()
        .collect();
    let mut unsolved: Vec<String> = use_only
        .iter()
        .map(|l| loops.loops[l].var.clone())
        .collect();

    // Step 1+2: solve use-only variables from subscript equations
    // g_k(use vars) = f_k(def vars), one variable at a time, requiring a
    // unit coefficient and no other unsolved use-only variable on the
    // right-hand side.
    let mut substitutions: Vec<(String, LinExpr)> = Vec::new();
    let ndims = def.subs.len().min(us.subs.len());
    let mut progress = true;
    while progress && !unsolved.is_empty() {
        progress = false;
        'vars: for vi in 0..unsolved.len() {
            let x = unsolved[vi].clone();
            for k in 0..ndims {
                let (Some(Some(fk)), Some(Some(gk))) = (def.subs.get(k), us.subs.get(k)) else {
                    continue;
                };
                let mut gk = gk.clone();
                for (v, repl) in &substitutions {
                    gk = gk.substitute(v, repl);
                }
                let c = gk.coeff(&x);
                if c.abs() != 1 {
                    continue;
                }
                // x = c · (f_k − (g_k − c·x))
                let mut rest = gk.clone();
                rest.add_term(&x, -c);
                let rhs = (fk.clone() - rest).scaled(c);
                if unsolved.iter().any(|u| u != &x && rhs.mentions(u)) {
                    continue; // would reference an unsolved variable
                }
                substitutions.push((x.clone(), rhs));
                unsolved.remove(vi);
                progress = true;
                break 'vars;
            }
        }
    }

    // Step 2: apply substitutions to the use's CP terms.
    let mut terms: Vec<CpTerm> = Vec::new();
    for term in &use_cp.terms {
        let mut subs: Vec<SubTerm> = term.subs.clone();
        for (v, repl) in &substitutions {
            subs = subs.iter().map(|s| s.substitute(v, repl)).collect();
        }
        // Step 3: vectorize remaining use-only variables through their
        // loop ranges.
        let mut ok = true;
        for x in &unsolved {
            let Some(lid) = use_only.iter().find(|l| loops.loops[*l].var == *x) else {
                continue;
            };
            if !subs.iter().any(|s| s.mentions(x)) {
                continue;
            }
            let info = &loops.loops[lid];
            let (Some(lo), Some(hi)) = (info.lo.clone(), info.hi.clone()) else {
                ok = false;
                break;
            };
            // a range bound must not mention another (still symbolic)
            // use-only variable
            if unsolved
                .iter()
                .any(|u| u != x && (lo.mentions(u) || hi.mentions(u)))
            {
                ok = false;
                break;
            }
            let (lo, hi) = if info.step >= 0 { (lo, hi) } else { (hi, lo) };
            match subs
                .iter()
                .map(|s| vectorize_sub(s, x, &lo, &hi))
                .collect::<Option<Vec<_>>>()
            {
                Some(v) => subs = v,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            terms.push(CpTerm {
                array: term.array.clone(),
                subs,
            });
        }
    }
    Some(terms)
}

/// Vectorize one subscript over `x ∈ [lo, hi]` (inclusive): an affine
/// subscript `c·x + e` becomes the range it sweeps; ranges widen at both
/// ends. Returns `None` for |coefficients| > 1 (the swept set would not
/// be dense).
fn vectorize_sub(s: &SubTerm, x: &str, lo: &LinExpr, hi: &LinExpr) -> Option<SubTerm> {
    let at = |e: &LinExpr, v: &LinExpr| e.substitute(x, v);
    match s {
        SubTerm::Affine(e) => match e.coeff(x) {
            0 => Some(s.clone()),
            1 => Some(SubTerm::Range(at(e, lo), at(e, hi))),
            -1 => Some(SubTerm::Range(at(e, hi), at(e, lo))),
            _ => None,
        },
        SubTerm::Range(a, b) => {
            let (ca, cb) = (a.coeff(x), b.coeff(x));
            if ca.abs() > 1 || cb.abs() > 1 {
                return None;
            }
            let new_a = if ca >= 0 { at(a, lo) } else { at(a, hi) };
            let new_b = if cb >= 0 { at(b, hi) } else { at(b, lo) };
            Some(SubTerm::Range(new_a, new_b))
        }
    }
}

/// Apply §4.1 to one loop: give every definition of every `NEW` variable
/// the union of the CPs translated from its uses. Updates `assignment`
/// in place and returns the `(definition statement, variable)` pairs
/// that were re-partitioned.
pub fn propagate_new_cps(
    loop_id: StmtId,
    loops: &UnitLoops,
    refs: &UnitRefs,
    assignment: &mut CpAssignment,
) -> Vec<(StmtId, String)> {
    let new_vars = loops.loops[&loop_id].dir.new_vars.clone();
    let mut changed = Vec::new();
    for var in &new_vars {
        // process definitions in reverse lexical order so a definition
        // that feeds another NEW definition sees its consumer's final CP
        let mut defs = usedef::writes_of_var(loop_id, var, loops, refs);
        defs.sort_by_key(|d| std::cmp::Reverse(loops.order[&d.stmt]));
        let uses = usedef::reads_of_var(loop_id, var, loops, refs);
        for def in defs {
            let mut result: Option<Cp> = Some(Cp { terms: vec![] });
            for us in &uses {
                // only uses lexically after the def consume its values
                if !loops.before(def.stmt, us.stmt) {
                    continue;
                }
                let Some(use_cp) = assignment.get(&us.stmt) else {
                    continue;
                };
                match translate_use_cp(def, us, use_cp, loops) {
                    None => {
                        result = None; // replicated use ⇒ replicated def
                        break;
                    }
                    Some(terms) => {
                        if let Some(cp) = result.as_mut() {
                            for t in terms {
                                cp.add_term(t);
                            }
                        }
                    }
                }
            }
            let cp = match result {
                None => Cp::replicated(),
                Some(cp) if cp.terms.is_empty() => continue, // no known uses
                Some(cp) => cp,
            };
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

    /// The paper's Figure 4.1 pattern (subroutine lhsy of SP), reduced:
    /// cv is privatizable on the i loop; consumers read cv(j−1), cv(j+1);
    /// lhs is (j,k)-distributed.
    const LHSY: &str = "
      subroutine lhsy(lhs, rhs)
      parameter (n = 64, m = 5)
      integer i, j, k
      double precision lhs(n, n, m), rhs(n, n)
      double precision cv(0:65)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block, *) onto p :: lhs
!hpf$ distribute (block, block) onto p :: rhs
      do k = 1, n
!hpf$ independent, new(cv)
         do i = 1, n
            do j = 0, n
               cv(j) = rhs(j, k) * 2.0
            enddo
            do j = 2, n - 1
               lhs(j, k, 2) = cv(j - 1) + cv(j + 1)
            enddo
         enddo
      enddo
      end
";

    fn setup(src: &str, unit: &str) -> (UnitLoops, UnitRefs, DistEnv, CpAssignment, StmtId) {
        let p = parse(src).expect("parse");
        let (loops, refs, _) = analyze_unit(&p, unit).expect("analyze");
        let env = resolve(p.unit(unit).unwrap(), &BTreeMap::new()).expect("resolve");
        let outer = loops
            .loops
            .iter()
            .filter(|(_, i)| i.depth == 0)
            .map(|(id, _)| *id)
            .min_by_key(|id| loops.order[id])
            .unwrap();
        let stmts = assignments_in(outer, &loops, &refs);
        // select CPs for non-NEW statements only (the driver does the same)
        let new_vars: Vec<String> = loops
            .loops
            .values()
            .flat_map(|l| l.dir.new_vars.clone())
            .collect();
        let non_new: Vec<StmtId> = stmts
            .iter()
            .filter(|s| {
                refs.write_of(**s)
                    .map(|w| !new_vars.contains(&w.array))
                    .unwrap_or(true)
            })
            .cloned()
            .collect();
        let assignment = select_for_loop(&non_new, &CpAssignment::new(), &refs, &env);
        (loops, refs, env, assignment, outer)
    }

    fn new_loop_of(loops: &UnitLoops) -> StmtId {
        *loops
            .loops
            .iter()
            .find(|(_, i)| !i.dir.new_vars.is_empty())
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn figure_4_1_translation() {
        let (loops, refs, _env, mut assignment, _outer) = setup(LHSY, "lhsy");
        let new_loop = new_loop_of(&loops);
        let changed = propagate_new_cps(new_loop, &loops, &refs, &mut assignment);
        assert_eq!(changed.len(), 1);
        let (def_stmt, var) = &changed[0];
        assert_eq!(var, "cv");
        let cp = &assignment[def_stmt];
        // translated from use cv(j-1) → ON_HOME lhs(j+1, k, 2) and from
        // cv(j+1) → ON_HOME lhs(j-1, k, 2)
        assert_eq!(cp.terms.len(), 2, "{cp}");
        let rendered: Vec<String> = cp.terms.iter().map(|t| t.to_string()).collect();
        assert!(
            rendered.iter().any(|t| t.contains("lhs(j + 1,k,2)")),
            "terms: {rendered:?}"
        );
        assert!(
            rendered.iter().any(|t| t.contains("lhs(j - 1,k,2)")),
            "terms: {rendered:?}"
        );
    }

    #[test]
    fn boundary_elements_computed_on_both_processors() {
        let (loops, refs, env, mut assignment, _) = setup(LHSY, "lhsy");
        let new_loop = new_loop_of(&loops);
        let changed = propagate_new_cps(new_loop, &loops, &refs, &mut assignment);
        let cp = &assignment[&changed[0].0];
        // n = 64, 2×2 grid, block 32 on dim j: boundary j = 32/33.
        // Writing cv(32): needed by lhs(33,·) owner (pj=1) via cv(j-1)
        // and by lhs(31,·) owner (pj=0) via cv(j+1) → both execute j=32.
        let at =
            |j: i64, k: i64, pj: i64, pk: i64| runs_at(cp, &env, &[pj, pk], &[("j", j), ("k", k)]);
        assert!(at(32, 1, 0, 0));
        assert!(
            at(32, 1, 1, 0),
            "boundary value replicated on right neighbor"
        );
        assert!(at(10, 1, 0, 0));
        assert!(!at(10, 1, 1, 0), "interior value not replicated");
        // k stays partitioned: k=1 belongs to pk=0 only
        assert!(!at(32, 1, 0, 1));
    }

    #[test]
    fn scalar_new_var_copies_cp() {
        // the paper's ru1: a privatizable scalar defined and used in the
        // same loop — its def CP is the (trivially vectorized) union of
        // the use CPs
        let src = "
      subroutine s(a, b)
      integer i
      double precision a(64), b(64)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
!hpf$ independent, new(ru1)
      do i = 1, 64
         ru1 = b(i) * 2.0
         a(i) = ru1 * ru1
      enddo
      end
";
        let (loops, refs, _env, mut assignment, outer) = setup(src, "s");
        let changed = propagate_new_cps(outer, &loops, &refs, &mut assignment);
        assert_eq!(changed.len(), 1);
        let cp = &assignment[&changed[0].0];
        assert_eq!(cp.terms.len(), 1);
        assert_eq!(cp.terms[0].to_string(), "ON_HOME a(i)");
    }

    #[test]
    fn vectorization_produces_ranges() {
        // use sits one loop deeper than the def: the extra loop is
        // vectorized into a range
        let src = "
      subroutine s(a, b)
      integer i, j
      double precision a(16, 16), b(16)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: a
!hpf$ independent, new(t)
      do i = 1, 16
         t = b(i) * 2.0
         do j = 1, 16
            a(i, j) = t + 1.0
         enddo
      enddo
      end
";
        let (loops, refs, _env, mut assignment, outer) = setup(src, "s");
        let changed = propagate_new_cps(outer, &loops, &refs, &mut assignment);
        assert_eq!(changed.len(), 1);
        let cp = &assignment[&changed[0].0];
        assert_eq!(cp.terms.len(), 1);
        // def of t executes wherever any a(i, 1:16) lives
        assert_eq!(cp.terms[0].to_string(), "ON_HOME a(i,1:16)");
    }

    #[test]
    fn replicated_use_makes_def_replicated() {
        let src = "
      subroutine s(a)
      integer i
      double precision a(16)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
!hpf$ independent, new(t)
      do i = 1, 16
         t = 2.0
         s0 = t + 1.0
      enddo
      end
";
        let (loops, refs, _env, mut assignment, outer) = setup(src, "s");
        let changed = propagate_new_cps(outer, &loops, &refs, &mut assignment);
        assert_eq!(changed.len(), 1);
        assert!(assignment[&changed[0].0].is_replicated());
    }

    #[test]
    fn translate_skips_unsolvable_dim() {
        // use subscript 2*j cannot be inverted (coefficient 2): the use's
        // j must be vectorized instead
        let src = "
      subroutine s(a, cv)
      integer i, j
      double precision a(32), cv(64)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
!hpf$ independent, new(cv)
      do i = 1, 1
         do j = 1, 64
            cv(j) = 1.0
         enddo
         do j = 1, 32
            a(j) = cv(2 * j)
         enddo
      enddo
      end
";
        let (loops, refs, _env, mut assignment, outer) = setup(src, "s");
        let changed = propagate_new_cps(outer, &loops, &refs, &mut assignment);
        assert_eq!(changed.len(), 1);
        let cp = &assignment[&changed[0].0];
        assert_eq!(cp.terms.len(), 1);
        // the use's j was unsolvable → vectorized over its range 1..32
        assert_eq!(cp.terms[0].to_string(), "ON_HOME a(1:32)");
    }
}
