//! Interprocedural selection of computation partitionings — §6.
//!
//! The algorithm proceeds bottom-up on the call graph:
//!
//! * for **leaf** procedures, local CP selection runs unchanged and an
//!   *entry CP* is summarized for the procedure;
//! * in non-leaf procedures, a call inside a loop is inlined, and the
//!   inlined statements get the single CP obtained by translating the
//!   callee's entry CP to the call site (formal → actual translation of
//!   array names and scalar subscript arguments, through the shared
//!   distribution environment — our stand-in for HPF template
//!   translation, since arrays here are distributed by name program-wide).

use crate::cp::{Cp, CpTerm, SubTerm};
use crate::distrib::DistEnv;
use crate::driver::{CompileError, IdAlloc};
use crate::select::CpAssignment;
use dhpf_depend::refs::UnitRefs;
use dhpf_fortran::ast::{ArrayRef, Expr, Program, ProgramUnit, Stmt, StmtKind, VarDecl};
use dhpf_fortran::subscript::affine;
use dhpf_iset::LinExpr;
use dhpf_obs::{self as obs, Decision, DecisionKind};
use std::collections::{BTreeMap, BTreeSet};

/// Summarize a procedure's *entry CP* from its selected statement CPs:
/// the CP of the last statement writing a distributed dummy argument
/// (the "output parameter" heuristic the paper describes for
/// `matvec_sub`), or `None` if the unit touches no distributed data
/// (caller then treats the call like a scalar statement).
pub fn entry_cp(
    unit: &ProgramUnit,
    assignment: &CpAssignment,
    refs: &UnitRefs,
    env: &DistEnv,
) -> Option<Cp> {
    let args = unit.args();
    let mut best: Option<Cp> = None;
    let mut stmts: Vec<_> = assignment.iter().collect();
    stmts.sort_by_key(|(s, _)| **s);
    for (stmt, cp) in stmts {
        let Some(w) = refs.write_of(*stmt) else {
            continue;
        };
        if !args.contains(&w.array) {
            continue;
        }
        let distributed = env
            .dist_of(&w.array)
            .map(|d| d.is_distributed())
            .unwrap_or(false);
        if distributed && !cp.is_replicated() {
            best = Some(cp.clone());
        }
    }
    best
}

/// Translate a callee's entry CP to a call site: formal array names map
/// to actual array names; formal scalar names appearing in subscripts
/// map to the (affine) actual argument expressions. Returns `None` when
/// the translation fails (non-affine actual, expression actual for an
/// array formal, arity mismatch) — the caller then falls back to local
/// selection for the call statement. Ranks are not compared here: the
/// inliner refuses an array actual of another rank than its formal.
pub fn translate_to_callsite(
    callee_cp: &Cp,
    callee: &ProgramUnit,
    call_args: &[Expr],
    caller: &ProgramUnit,
) -> Option<Cp> {
    if callee_cp.is_replicated() {
        return Some(Cp::replicated());
    }
    let formals = callee.args();
    if formals.len() != call_args.len() {
        return None;
    }
    // formal name -> actual: either an array rename or an affine expr
    let mut array_map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut scalar_map: BTreeMap<&str, LinExpr> = BTreeMap::new();
    for (formal, actual) in formals.iter().zip(call_args) {
        let formal_is_array = callee.decls.is_array(formal);
        match actual {
            Expr::Ref(r) if r.subs.is_empty() && caller.decls.is_array(&r.name) => {
                if formal_is_array {
                    array_map.insert(formal.as_str(), r.name.as_str());
                } else {
                    return None; // array actual for scalar formal
                }
            }
            other => {
                if formal_is_array {
                    return None; // expression actual for array formal
                }
                scalar_map.insert(formal.as_str(), affine(other, &caller.decls)?);
            }
        }
    }

    let mut terms = Vec::with_capacity(callee_cp.terms.len());
    for t in &callee_cp.terms {
        let actual_array = *array_map.get(t.array.as_str())?;
        let subs: Vec<SubTerm> = t
            .subs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                for (formal, repl) in &scalar_map {
                    s = s.substitute(formal, repl);
                }
                s
            })
            .collect();
        terms.push(CpTerm {
            array: actual_array.to_string(),
            subs,
        });
    }
    Some(Cp { terms })
}

// ---------------------------------------------------------------------------
// Inliner: replace loop-borne calls to leaf units with the callee body.
// ---------------------------------------------------------------------------

/// The `inline` pass body for one caller: what the walk over its
/// statements reads and what it accumulates.
pub(crate) struct Inliner<'a> {
    /// Callee bodies — already transformed (callees compile first).
    pub program: &'a Program,
    /// The calling unit; only its declarations are read (its body is the
    /// statement list being rewritten).
    pub caller: &'a ProgramUnit,
    /// Entry CPs of the units compiled so far; `None` with §6 off.
    pub entry_cps: Option<&'a BTreeMap<String, Cp>>,
    pub ids: &'a mut IdAlloc,
    /// CPs fixed for inlined statements by the translated entry CP.
    pub fixed: &'a mut CpAssignment,
    /// Callee parameters, renamed callee locals and COMMON members
    /// (`(block, member)`) the caller must declare once the walk is done.
    pub new_params: BTreeMap<String, i64>,
    pub new_vars: Vec<VarDecl>,
    pub new_commons: Vec<(String, String)>,
}

impl Inliner<'_> {
    /// Inline every qualifying call under `s`.
    pub(crate) fn stmt(&mut self, s: &mut Stmt) -> Result<(), CompileError> {
        match &mut s.kind {
            StmtKind::Do { body, .. } => {
                let mut i = 0;
                while i < body.len() {
                    let StmtKind::Call { name, args, .. } = &body[i].kind else {
                        self.stmt(&mut body[i])?;
                        i += 1;
                        continue;
                    };
                    if !should_inline(args) {
                        i += 1;
                        continue;
                    }
                    let callee = self
                        .program
                        .unit(name)
                        .ok_or_else(|| CompileError::Other(format!("missing unit {name}")))?;
                    // translated entry CP for the inlined statements (§6)
                    let site_cp = self
                        .entry_cps
                        .and_then(|cps| cps.get(name))
                        .and_then(|cp| translate_to_callsite(cp, callee, args, self.caller));
                    obs::decide(|| {
                        Decision::new(DecisionKind::Inlined {
                            callee: name.clone(),
                            entry_cp: site_cp.as_ref().map(|c| c.to_string()),
                        })
                        .line(body[i].span.line)
                    });
                    let inlined = self.expand(callee, args)?;
                    // record fixed CPs for inlined distributed writes
                    if let Some(cp) = site_cp {
                        for st in &inlined {
                            st.walk(&mut |x| {
                                if matches!(x.kind, StmtKind::Assign { .. }) {
                                    self.fixed.insert(x.id, cp.clone());
                                }
                            });
                        }
                    }
                    // `i` stays: the spliced statements are visited next,
                    // so calls the callee makes in its own loops inline too
                    body.splice(i..=i, inlined);
                }
                Ok(())
            }
            StmtKind::If { arms } => arms
                .iter_mut()
                .flat_map(|(_, body)| body)
                .try_for_each(|st| self.stmt(st)),
            _ => Ok(()),
        }
    }

    /// The statement list that replaces `call callee(args)`: the callee
    /// body with formals replaced by actuals, locals renamed, fresh
    /// statement/reference ids.
    fn expand(&mut self, callee: &ProgramUnit, args: &[Expr]) -> Result<Vec<Stmt>, CompileError> {
        let formals = callee.args();
        if formals.len() != args.len() {
            return Err(CompileError::Other(format!(
                "arity mismatch inlining {}",
                callee.name
            )));
        }
        let mut subst = BTreeMap::new();
        let mut rename = BTreeMap::new();
        for (f, a) in formals.iter().zip(args) {
            if callee.decls.is_array(f) {
                let Expr::Ref(r) = a else {
                    return Err(CompileError::Other(format!(
                        "cannot inline {}: array formal `{f}` bound to expression",
                        callee.name
                    )));
                };
                // the renamed references keep the formal's subscripts
                let rank = |u: &ProgramUnit, n: &str| u.decls.var(n).map_or(0, |d| d.rank());
                let (want, got) = (rank(callee, f), rank(self.caller, &r.name));
                if want != got {
                    return Err(CompileError::Other(format!(
                        "cannot inline {}: array formal `{f}` of rank {want} bound to `{}` of rank {got}",
                        callee.name, r.name
                    )));
                }
                rename.insert(f.clone(), r.name.clone());
            } else {
                subst.insert(f.clone(), a.clone());
            }
        }
        // Every name the body mentions, loop variables included, that is
        // the callee's own: a COMMON member is the caller's storage of the
        // same name, anything else is renamed so that it cannot collide
        // with a caller name. What the body never mentions is left behind.
        let mut used: BTreeSet<&String> = BTreeSet::new();
        let mut loop_vars: Vec<&String> = Vec::new();
        callee.for_each_stmt(&mut |st| {
            st.for_each_ref(&mut |r, _| {
                used.insert(&r.name);
            });
            if let StmtKind::Do { var, .. } = &st.kind {
                used.insert(var);
                loop_vars.push(var);
            }
        });
        for n in used {
            if formals.contains(n) {
                continue;
            }
            let decl = callee.decls.vars.get(n);
            if let Some(block) = common_of(callee, n) {
                self.share_common(callee, block, n, decl)?;
            } else if decl.is_some() || loop_vars.contains(&n) {
                let fresh = format!("{n}_{}", callee.name);
                // carry the declaration (with its type) to the caller so
                // implicit-typing rules do not reclassify the renamed local
                if let Some(decl) = decl {
                    let mut d2 = decl.clone();
                    d2.name = fresh.clone();
                    self.new_vars.push(d2);
                }
                rename.insert(n.clone(), fresh);
            }
        }
        // merge callee parameters (same-name parameters must agree)
        for (k, v) in &callee.decls.params {
            if let Some(existing) = self.caller.decls.params.get(k) {
                if existing != v {
                    return Err(CompileError::Other(format!(
                        "parameter `{k}` differs between caller and {}",
                        callee.name
                    )));
                }
            } else {
                self.new_params.insert(k.clone(), *v);
            }
        }
        let mut copy = BodyCopy {
            subst,
            rename,
            ids: self.ids,
        };
        Ok(callee.body.iter().map(|s| copy.stmt(s)).collect())
    }

    /// An inlined body mentions `name`, a member of the callee's COMMON
    /// `block`: in the caller it is the same storage under the same name.
    /// A caller that does not declare the block member yet gets the
    /// declaration and the membership.
    fn share_common(
        &mut self,
        callee: &ProgramUnit,
        block: &str,
        name: &String,
        decl: Option<&VarDecl>,
    ) -> Result<(), CompileError> {
        let refuse = |why: String| {
            let (callee, caller) = (&callee.name, &self.caller.name);
            CompileError::Other(format!(
                "cannot inline {callee} into {caller}: `{name}` of common /{block}/ {why}"
            ))
        };
        match common_of(self.caller, name) {
            Some(b) if b == block => return Ok(()),
            Some(b) => return Err(refuse(format!("is in common /{b}/ in the caller"))),
            None => {}
        }
        if self.caller.decls.vars.contains_key(name) {
            return Err(refuse("is a local of the caller".into()));
        }
        // the caller would need the callee's mapping directives as well
        let hpf = &callee.hpf;
        let mapped = (hpf.distributes.iter().flat_map(|d| &d.targets))
            .chain(hpf.aligns.iter().map(|a| &a.array))
            .any(|n| n == name);
        if mapped {
            return Err(refuse(
                "is distributed, and the caller does not declare it".into(),
            ));
        }
        self.new_vars.extend(decl.cloned());
        self.new_commons.push((block.to_string(), name.clone()));
        Ok(())
    }
}

/// The COMMON block of `unit` that `name` is a member of.
fn common_of<'a>(unit: &'a ProgramUnit, name: &str) -> Option<&'a str> {
    let mut blocks = unit.decls.commons.iter();
    blocks.find_map(|(block, members)| members.iter().any(|m| m == name).then_some(&block[..]))
}

/// Inline a loop-borne call when any actual argument mentions a variable
/// (i.e. depends on loop indices) — the BT `matvec_sub(lhs, rhs, i, j,
/// k)` pattern. Whole-array phase calls (`call compute_rhs(u, rhs)`)
/// stay real calls.
fn should_inline(args: &[Expr]) -> bool {
    args.iter().any(|a| match a {
        Expr::Ref(r) => !r.subs.is_empty() || r.name.len() <= 2, // index-like scalar
        Expr::Bin(..) | Expr::Un(..) => true,
        _ => false,
    })
}

/// One copy of a callee body to a call site.
struct BodyCopy<'a> {
    /// Scalar formal → actual expression.
    subst: BTreeMap<String, Expr>,
    /// Array formal → actual array; callee local → its fresh caller name.
    rename: BTreeMap<String, String>,
    ids: &'a mut IdAlloc,
}

impl BodyCopy<'_> {
    fn stmt(&mut self, s: &Stmt) -> Stmt {
        let id = self.ids.stmt();
        let kind = match &s.kind {
            StmtKind::Assign { lhs, rhs } => StmtKind::Assign {
                lhs: self.aref(lhs),
                rhs: self.expr(rhs),
            },
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
                dir,
            } => StmtKind::Do {
                var: self.rename.get(var).unwrap_or(var).clone(),
                lo: self.expr(lo),
                hi: self.expr(hi),
                step: step.as_ref().map(|e| self.expr(e)),
                body: body.iter().map(|b| self.stmt(b)).collect(),
                dir: dir.clone(),
            },
            StmtKind::If { arms } => StmtKind::If {
                arms: arms
                    .iter()
                    .map(|(c, body)| {
                        (
                            c.as_ref().map(|e| self.expr(e)),
                            body.iter().map(|b| self.stmt(b)).collect(),
                        )
                    })
                    .collect(),
            },
            StmtKind::Call {
                name,
                args,
                arg_refs,
            } => StmtKind::Call {
                name: name.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
                arg_refs: arg_refs.clone(),
            },
            // the driver admits RETURN only as a unit's final statement,
            // which in an inlined body is the fall-through to the caller
            StmtKind::Return | StmtKind::Continue => StmtKind::Continue,
        };
        Stmt {
            id,
            span: s.span,
            kind,
            label: s.label,
        }
    }

    fn aref(&mut self, r: &ArrayRef) -> ArrayRef {
        ArrayRef {
            id: self.ids.reference(),
            name: self.rename.get(&r.name).unwrap_or(&r.name).clone(),
            subs: r.subs.iter().map(|e| self.expr(e)).collect(),
            span: r.span,
        }
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        match e {
            // formal scalar → the actual expression, copied as it stands
            // under fresh reference ids
            Expr::Ref(r) if r.subs.is_empty() && self.subst.contains_key(&r.name) => {
                let mut verbatim = BodyCopy {
                    subst: BTreeMap::new(),
                    rename: BTreeMap::new(),
                    ids: self.ids,
                };
                verbatim.expr(&self.subst[&r.name])
            }
            Expr::Ref(r) => Expr::Ref(self.aref(r)),
            Expr::Bin(op, a, b, sp) => {
                Expr::Bin(*op, Box::new(self.expr(a)), Box::new(self.expr(b)), *sp)
            }
            Expr::Un(op, a, sp) => Expr::Un(*op, Box::new(self.expr(a)), *sp),
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::resolve;
    use crate::select::{assignments_in, select_for_loop};
    use dhpf_depend::refs::analyze_unit;
    use dhpf_fortran::parse;

    /// BT-like structure (Figure 6.1): a sweep loop calls a leaf routine
    /// that updates the output array at (i, j, k).
    const BT_LIKE: &str = "
      program main
      parameter (n = 16)
      integer i, j, k
      double precision lhs(5, n, n, n), rhs(5, n, n, n)
      common /fields/ lhs, rhs
!hpf$ processors p(2, 2)
!hpf$ distribute (*, *, block, block) onto p :: lhs, rhs
      do k = 2, n - 1
         do j = 2, n - 1
            do i = 2, n - 1
               call matvec_sub(lhs, rhs, i, j, k)
            enddo
         enddo
      enddo
      end

      subroutine matvec_sub(ablock, bvec, i, j, k)
      parameter (n = 16)
      integer i, j, k, m
      double precision ablock(5, n, n, n), bvec(5, n, n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (*, *, block, block) onto p :: ablock, bvec
      do m = 1, 5
         bvec(m, i, j, k) = bvec(m, i, j, k) - ablock(m, i, j, k)
      enddo
      end
";

    #[test]
    fn leaf_entry_cp_is_output_owner() {
        let p = parse(BT_LIKE).unwrap();
        let (loops, refs, _) = analyze_unit(&p, "matvec_sub").unwrap();
        let env = resolve(p.unit("matvec_sub").unwrap(), &Default::default()).unwrap();
        let outer = loops
            .loops
            .iter()
            .filter(|(_, i)| i.depth == 0)
            .map(|(id, _)| *id)
            .min_by_key(|id| loops.order[id])
            .unwrap();
        let stmts = assignments_in(outer, &loops, &refs);
        let sel = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        let cp = entry_cp(p.unit("matvec_sub").unwrap(), &sel, &refs, &env).expect("entry CP");
        assert_eq!(cp.terms.len(), 1);
        assert_eq!(cp.terms[0].array, "bvec");
        // the paper: "exactly as if owner-computes were applied to the
        // entire subroutine body, since bvec is the output parameter"
        assert_eq!(cp.terms[0].to_string(), "ON_HOME bvec(m,i,j,k)");
    }

    #[test]
    fn translation_maps_formals_to_actuals() {
        let p = parse(BT_LIKE).unwrap();
        let callee = p.unit("matvec_sub").unwrap();
        let caller = p.unit("main").unwrap();
        let cp = Cp::single(CpTerm::on_home(
            "bvec",
            vec![
                LinExpr::var("m"),
                LinExpr::var("i"),
                LinExpr::var("j"),
                LinExpr::var("k"),
            ],
        ));
        // find the call args
        let mut call_args = None;
        caller.for_each_stmt(&mut |s| {
            if let StmtKind::Call { args, .. } = &s.kind {
                call_args = Some(args.clone());
            }
        });
        let t = translate_to_callsite(&cp, callee, &call_args.unwrap(), caller).unwrap();
        assert_eq!(t.terms[0].array, "rhs");
        // scalar formals i, j, k map to caller's loop variables verbatim
        assert_eq!(t.terms[0].to_string(), "ON_HOME rhs(m,i,j,k)");
    }

    #[test]
    fn translation_substitutes_scalar_expressions() {
        let p = parse(BT_LIKE).unwrap();
        let callee = p.unit("matvec_sub").unwrap();
        let caller = p.unit("main").unwrap();
        // synthetic call: call matvec_sub(lhs, rhs, i+1, 2, k)
        let src = "
      program x
      parameter (n = 16)
      double precision lhs(5, n, n, n), rhs(5, n, n, n)
      call matvec_sub(lhs, rhs, i + 1, 2, k)
      end
";
        let p2 = parse(src).unwrap();
        let mut call_args = None;
        p2.units[0].for_each_stmt(&mut |s| {
            if let StmtKind::Call { args, .. } = &s.kind {
                call_args = Some(args.clone());
            }
        });
        let cp = Cp::single(CpTerm::on_home(
            "bvec",
            vec![
                LinExpr::var("m"),
                LinExpr::var("i"),
                LinExpr::var("j"),
                LinExpr::var("k"),
            ],
        ));
        let t = translate_to_callsite(&cp, callee, &call_args.unwrap(), &p2.units[0]).unwrap();
        assert_eq!(t.terms[0].to_string(), "ON_HOME rhs(m,i + 1,2,k)");
        let _ = caller;
    }

    #[test]
    fn translation_fails_gracefully_on_expression_actual() {
        let p = parse(BT_LIKE).unwrap();
        let callee = p.unit("matvec_sub").unwrap();
        let src = "
      program x
      parameter (n = 16)
      double precision rhs(5, n, n, n)
      call matvec_sub(rhs(1, 1, 1, 1), rhs, 1, 2, 3)
      end
";
        let p2 = parse(src).unwrap();
        let mut call_args = None;
        p2.units[0].for_each_stmt(&mut |s| {
            if let StmtKind::Call { args, .. } = &s.kind {
                call_args = Some(args.clone());
            }
        });
        let cp = Cp::single(CpTerm::on_home("ablock", vec![LinExpr::var("m")]));
        assert!(
            translate_to_callsite(&cp, callee, &call_args.unwrap(), &p2.units[0]).is_none(),
            "array-element actual for array formal must fail translation"
        );
    }

    /// An array actual of another rank than its formal is refused: the
    /// inlined references would keep the formal's subscripts.
    #[test]
    fn rank_mismatched_array_actual_is_refused() {
        let src = "
      program mism
      parameter (n = 8)
      integer k
      double precision b(n, n)
!hpf$ processors p(2)
!hpf$ distribute (*, block) onto p :: b
      do k = 1, n
         call fill(b, k)
      enddo
      end

      subroutine fill(a, k)
      parameter (n = 8)
      integer i, k
      double precision a(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      do i = 1, n
         a(i) = 1.0d0 * k
      enddo
      end
";
        let p = parse(src).unwrap();
        let options = crate::driver::CompileOptions::new();
        let Err(err) = crate::driver::compile(&p, &options) else {
            panic!("compiled");
        };
        let err = err.to_string();
        assert!(
            err.contains("array formal `a` of rank 1 bound to `b` of rank 2"),
            "{err}"
        );
    }
}
