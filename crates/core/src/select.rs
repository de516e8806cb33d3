//! Local computation-partition selection (§2 of the paper).
//!
//! For each loop nest, every assignment statement gets a set of candidate
//! CPs — one per distinct partitioned array reference in the statement —
//! and the algorithm picks the combination of choices minimizing an
//! estimated communication cost. Statements that reference no distributed
//! data are replicated.

use crate::cp::{Cp, CpTerm, Cut, SubTerm};
use crate::distrib::{DimMap, DistEnv};
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::{RefInfo, UnitRefs};
use dhpf_fortran::ast::StmtId;
use dhpf_iset::LinExpr;
use std::collections::BTreeMap;

/// A candidate CP for a statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    pub cp: Cp,
    /// Partition key used for identity/grouping (§5).
    pub key: String,
}

/// The CP assignment produced by selection: statement → CP.
pub type CpAssignment = BTreeMap<StmtId, Cp>;

/// Enumerate candidate CPs for one statement: `ON_HOME r` for each
/// distinct partition signature among the statement's distributed-array
/// references (write first, so owner-computes wins cost ties).
pub fn candidates(stmt: StmtId, refs: &UnitRefs, env: &DistEnv) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let mut stmt_refs: Vec<&RefInfo> = refs.of_stmt(stmt);
    stmt_refs.sort_by_key(|r| !r.is_write); // writes first
    for r in stmt_refs {
        let Some(dist) = env.dist_of(&r.array) else {
            continue;
        };
        if !dist.is_distributed() {
            continue;
        }
        // need affine subscripts on every distributed dim
        let mut subs: Vec<LinExpr> = Vec::with_capacity(r.subs.len());
        let mut ok = true;
        for (d, s) in r.subs.iter().enumerate() {
            match s {
                Some(e) => subs.push(e.clone()),
                None => {
                    if matches!(dist.dims[d], DimMap::Block { .. }) {
                        ok = false;
                        break;
                    }
                    subs.push(LinExpr::cst(dist.bounds[d].0));
                }
            }
        }
        if !ok {
            continue;
        }
        let term = CpTerm::on_home(&r.array, subs);
        let key = term.partition_key(env).unwrap_or_else(|| "*".into());
        if !out.iter().any(|c| c.key == key) {
            out.push(Candidate {
                cp: Cp::single(term),
                key,
            });
        }
    }
    if out.is_empty() {
        out.push(Candidate {
            cp: Cp::replicated(),
            key: "*".into(),
        });
    }
    out
}

/// Estimated communication cost (abstract units) of executing `stmt`
/// under `cp`: sums a per-reference penalty for each distributed-array
/// reference whose data would be non-local.
///
/// The estimator mirrors dHPF's "simple approximate evaluation":
///
/// * aligned reference (same partition key): 0;
/// * constant-shift reference: boundary communication — a latency charge
///   per shifted dimension plus volume ∝ boundary area;
/// * anything else: general communication — charged as the whole
///   reference's per-processor data volume with per-processor messages.
pub fn stmt_cost(stmt: StmtId, cp: &Cp, refs: &UnitRefs, env: &DistEnv) -> f64 {
    const ALPHA: f64 = 50.0; // per message
    const BETA: f64 = 0.01; // per element
    let mut cost = 0.0;
    for r in refs.of_stmt(stmt) {
        let Some(dist) = env.dist_of(&r.array) else {
            continue;
        };
        if !dist.is_distributed() {
            continue;
        }
        // volume of the reference's per-processor footprint
        let mut footprint = 1.0f64;
        for (d, m) in dist.dims.iter().enumerate() {
            let (lo, hi) = dist.bounds[d];
            let extent = (hi - lo + 1) as f64;
            match m {
                DimMap::Serial => footprint *= extent,
                DimMap::Block { block, .. } => footprint *= *block as f64,
            }
        }
        match shift_against(r, cp, env) {
            Shift::Aligned => {}
            Shift::Const(shifts) => {
                for (d, delta) in shifts {
                    if delta == 0 {
                        continue;
                    }
                    let block = match dist.dims[d] {
                        DimMap::Block { block, .. } => block as f64,
                        DimMap::Serial => continue,
                    };
                    // boundary area = footprint / block × |δ|
                    let volume = footprint / block * delta.unsigned_abs() as f64;
                    cost += ALPHA + BETA * volume;
                }
            }
            Shift::General => {
                cost += 4.0 * ALPHA + BETA * footprint * 2.0;
            }
        }
        // writing through a non-matching CP costs a write-back as well
        if r.is_write {
            if let Shift::Const(shifts) = shift_against(r, cp, env) {
                let nonzero = shifts.iter().any(|(_, d)| *d != 0);
                if nonzero {
                    cost += ALPHA;
                }
            }
        }
    }
    cost
}

/// Relation of a reference to a CP on distributed dimensions.
enum Shift {
    Aligned,
    /// Per-distributed-dimension constant difference `ref − cp`.
    Const(Vec<(usize, i64)>),
    General,
}

fn shift_against(r: &RefInfo, cp: &Cp, env: &DistEnv) -> Shift {
    if cp.is_replicated() {
        // replicated execution: every processor reads the whole reference
        return Shift::General;
    }
    if env.dist_of(&r.array).is_none() {
        return Shift::Aligned;
    }
    let mut best: Option<Shift> = None;
    for term in &cp.terms {
        // a term of the reference's partition cuts its block dimensions
        if !env.same_partition(&r.array, &term.array) {
            continue;
        }
        let shift = |cut: &Cut| {
            let (Some(Some(rsub)), SubTerm::Affine(tsub)) = (r.subs.get(cut.dim), cut.sub) else {
                return None;
            };
            let diff = rsub.clone() - tsub.clone();
            diff.is_constant().then(|| (cut.dim, diff.constant()))
        };
        let cuts = term.cuts(env).unwrap_or_default();
        let Some(shifts) = cuts.iter().map(shift).collect::<Option<Vec<_>>>() else {
            continue;
        };
        if shifts.iter().all(|(_, s)| *s == 0) {
            return Shift::Aligned;
        }
        // keep the smallest total shift among terms
        let better = match &best {
            Some(Shift::Const(prev)) => {
                shifts.iter().map(|(_, s)| s.abs()).sum::<i64>()
                    < prev.iter().map(|(_, s)| s.abs()).sum::<i64>()
            }
            Some(_) => false,
            None => true,
        };
        if better {
            best = Some(Shift::Const(shifts));
        }
    }
    best.unwrap_or(Shift::General)
}

/// Select CPs for the assignment statements of a loop nest by least-cost
/// combination search (exhaustive up to a budget, greedy beyond it).
///
/// `stmts` are the assignment statements to assign (any nesting depth in
/// the loop). Statements already fixed in `fixed` (e.g. call statements
/// restricted by interprocedural selection, §6) keep their CP and only
/// contribute cost.
pub fn select_for_loop(
    stmts: &[StmtId],
    fixed: &CpAssignment,
    refs: &UnitRefs,
    env: &DistEnv,
) -> CpAssignment {
    let mut free: Vec<StmtId> = Vec::new();
    let mut cands: Vec<Vec<Candidate>> = Vec::new();
    let mut assignment = CpAssignment::new();
    for &s in stmts {
        if let Some(cp) = fixed.get(&s) {
            assignment.insert(s, cp.clone());
        } else {
            let c = candidates(s, refs, env);
            free.push(s);
            cands.push(c);
        }
    }

    let combos: usize = cands.iter().map(|c| c.len().max(1)).product();
    if combos <= 4096 {
        // exhaustive
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut pick = vec![0usize; free.len()];
        loop {
            let cost: f64 = free
                .iter()
                .zip(&pick)
                .map(|(s, &i)| stmt_cost(*s, &cands_at(&cands, &free, *s, i).cp, refs, env))
                .sum::<f64>()
                + assignment
                    .iter()
                    .map(|(s, cp)| stmt_cost(*s, cp, refs, env))
                    .sum::<f64>();
            if best.as_ref().map(|(b, _)| cost < *b).unwrap_or(true) {
                best = Some((cost, pick.clone()));
            }
            // odometer increment
            let mut d = 0;
            loop {
                if d == pick.len() {
                    break;
                }
                pick[d] += 1;
                if pick[d] < cands[d].len() {
                    break;
                }
                pick[d] = 0;
                d += 1;
            }
            if d == pick.len() {
                break;
            }
            if pick.iter().all(|&x| x == 0) {
                break;
            }
        }
        if let Some((_, pick)) = best {
            for (idx, &s) in free.iter().enumerate() {
                assignment.insert(s, cands[idx][pick[idx]].cp.clone());
            }
        }
    } else {
        // greedy per statement
        for (idx, &s) in free.iter().enumerate() {
            let best = cands[idx]
                .iter()
                .min_by(|a, b| {
                    stmt_cost(s, &a.cp, refs, env)
                        .partial_cmp(&stmt_cost(s, &b.cp, refs, env))
                        .unwrap()
                })
                .unwrap();
            assignment.insert(s, best.cp.clone());
        }
    }
    assignment
}

fn cands_at<'c>(
    cands: &'c [Vec<Candidate>],
    free: &[StmtId],
    s: StmtId,
    i: usize,
) -> &'c Candidate {
    let idx = free.iter().position(|f| *f == s).unwrap();
    &cands[idx][i]
}

/// Collect the assignment statements directly or transitively inside a
/// loop, in lexical order (helper for drivers).
pub fn assignments_in(loop_id: StmtId, loops: &UnitLoops, refs: &UnitRefs) -> Vec<StmtId> {
    loops
        .stmts_in(loop_id)
        .into_iter()
        .filter(|s| refs.write_of(*s).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::resolve;
    use dhpf_depend::refs::analyze_unit;
    use dhpf_fortran::parse;

    fn setup(
        src: &str,
    ) -> (
        dhpf_fortran::Program,
        UnitLoops,
        UnitRefs,
        DistEnv,
        Vec<StmtId>,
    ) {
        let p = parse(src).expect("parse");
        let (loops, refs, _) = analyze_unit(&p, p.units[0].name.as_str()).expect("analyze");
        let env = resolve(&p.units[0], &BTreeMap::new()).expect("resolve");
        let outer = loops
            .loops
            .iter()
            .filter(|(_, i)| i.depth == 0)
            .map(|(id, _)| *id)
            .min_by_key(|id| loops.order[id])
            .unwrap();
        let stmts = assignments_in(outer, &loops, &refs);
        (p, loops, refs, env, stmts)
    }

    const STENCIL: &str = "
      program t
      parameter (n = 16)
      double precision a(n, n), b(n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: a, b
      do j = 2, n - 1
         do i = 2, n - 1
            a(i, j) = b(i - 1, j) + b(i + 1, j) + b(i, j - 1) + b(i, j + 1)
         enddo
      enddo
      end
";

    #[test]
    fn owner_computes_selected_for_stencil() {
        let (_, _, refs, env, stmts) = setup(STENCIL);
        assert_eq!(stmts.len(), 1);
        let sel = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        let cp = &sel[&stmts[0]];
        assert_eq!(cp.terms.len(), 1);
        assert_eq!(cp.terms[0].array, "a");
        assert_eq!(cp.terms[0].subs[0], SubTerm::Affine(LinExpr::var("i")));
    }

    #[test]
    fn candidates_dedupe_by_partition() {
        let (_, _, refs, env, stmts) = setup(STENCIL);
        let c = candidates(stmts[0], &refs, &env);
        // a(i,j)≡b(i,j) collapse; shifts b(i±1,j), b(i,j±1) distinct
        let keys: Vec<&str> = c.iter().map(|x| x.key.as_str()).collect();
        let mut uniq = keys.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(keys.len(), uniq.len());
        assert_eq!(c.len(), 5);
        // first candidate comes from the write
        assert_eq!(c[0].cp.terms[0].array, "a");
    }

    #[test]
    fn aligned_copy_costs_zero() {
        let (_, _, refs, env, stmts) = setup(
            "
      program t
      parameter (n = 8)
      double precision a(n), b(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = b(i)
      enddo
      end
",
        );
        let sel = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        assert_eq!(stmt_cost(stmts[0], &sel[&stmts[0]], &refs, &env), 0.0);
    }

    #[test]
    fn shift_costs_less_than_general() {
        let (_, _, refs, env, stmts) = setup(STENCIL);
        let sel = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        let chosen = stmt_cost(stmts[0], &sel[&stmts[0]], &refs, &env);
        let repl = stmt_cost(stmts[0], &Cp::replicated(), &refs, &env);
        assert!(chosen < repl, "chosen {chosen} vs replicated {repl}");
    }

    #[test]
    fn scalar_statement_replicated() {
        let (_, _, refs, env, stmts) = setup(
            "
      program t
      parameter (n = 8)
      double precision a(n)
!hpf$ processors p(2)
!hpf$ distribute a(block) onto p
      do i = 1, n
         s = s + 1.0
      enddo
      end
",
        );
        let sel = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        assert!(sel[&stmts[0]].is_replicated());
    }

    #[test]
    fn fixed_cp_respected() {
        let (_, _, refs, env, stmts) = setup(STENCIL);
        let mut fixed = CpAssignment::new();
        let forced = Cp::single(CpTerm::on_home(
            "b",
            vec![LinExpr::var("i") + 1, LinExpr::var("j")],
        ));
        fixed.insert(stmts[0], forced.clone());
        let sel = select_for_loop(&stmts, &fixed, &refs, &env);
        assert_eq!(sel[&stmts[0]], forced);
    }

    #[test]
    fn two_statement_alignment() {
        // two statements writing a and reading the other's column: best
        // combination aligns both to the same partition where possible
        let (_, _, refs, env, stmts) = setup(
            "
      program t
      parameter (n = 8)
      double precision a(n), b(n), c(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b, c
      do i = 2, n - 1
         a(i) = c(i) * 2.0
         b(i) = a(i) + c(i)
      enddo
      end
",
        );
        let sel = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        // both owner-computes, zero cost
        for s in &stmts {
            assert_eq!(stmt_cost(*s, &sel[s], &refs, &env), 0.0);
        }
    }
}
