//! Independent communication-coverage verifier.
//!
//! The planner in `dhpf_core::comm` *derives* each nest's exchanges; this
//! module *re-derives* every statement's non-local data set from first
//! principles — `Cp::iteration_set` images through the subscript maps
//! (`avail::accessed_set`), per processor — and proves each one is
//! covered by the union of
//!
//! 1. the nest's scheduled pre-exchanges delivered to that processor,
//! 2. values the processor itself produces earlier in the availability
//!    scope (the §7 rule, which folds the §4.1/§4.2 partial-replication
//!    optimizations into one uniform test), and
//! 3. planes carried by the sweep schedule of a pipelined nest.
//!
//! A pre-exchange runs *before* its nest, so it can only deliver values
//! that exist then: a flow dependence carried by one of the loops of a
//! non-pipelined nest that moves a value from one processor to another
//! is a `comm-placement` error, found from the verifier's own dependence
//! analysis and its own per-processor images.
//!
//! Symmetrically, every non-owner write must reach its owner through a
//! scheduled write-back unless the owner redundantly computes the same
//! elements. Any residue is a CONFIRMED miscompile: the generated node
//! program would read stale ghost data (or leave an owner stale), and
//! the finding names the offending statement span.
//!
//! The verifier shares the *set machinery* with the compiler but none of
//! its planning logic: coverage is established by exact `iset`
//! subtraction against the plan the compiler actually emitted, so a
//! dropped or mis-addressed message cannot hide.

use crate::diag::{Finding, Report, Severity};
use dhpf_core::avail::{accessed_set, nest_bounds};
use dhpf_core::comm::{NestPlan, PipeSchedule};
use dhpf_core::cp::{Cp, SubTerm};
use dhpf_core::distrib::ProcGrid;
use dhpf_core::driver::{Compiled, UnitAnalysis};
use dhpf_core::transfer::segments;
use dhpf_depend::dep::{analyze_loop_deps, DepKind, Dependence};
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::{RefInfo, UnitRefs};
use dhpf_depend::usedef;
use dhpf_fortran::ast::{ProgramUnit, RefId, StmtId};
use dhpf_fortran::span::Span;
use dhpf_fortran::symtab;
use dhpf_iset::enumerate::bounding_box;
use dhpf_iset::Set;
use std::collections::BTreeMap;

/// Verify every compiled unit of a program. A clean report means every
/// non-local read and every non-owner write in every planned nest is
/// covered by the emitted communication plan.
pub fn verify_compiled(compiled: &Compiled) -> Report {
    let mut out = Report::new();
    let (tabs, _) = symtab::resolve(&compiled.transformed);
    for (uname, ua) in &compiled.analyses {
        let Some(unit) = compiled.transformed.unit(uname) else {
            continue;
        };
        let tab = tabs.get(uname).cloned().unwrap_or_default();
        let loops = UnitLoops::build(unit);
        let refs = UnitRefs::build(unit, &tab);
        verify_unit(unit, ua, &loops, &refs, &mut out);
    }
    out
}

/// Verify one unit's nests against its captured analysis artifacts.
pub fn verify_unit(
    unit: &ProgramUnit,
    ua: &UnitAnalysis,
    loops: &UnitLoops,
    refs: &UnitRefs,
    out: &mut Report,
) {
    let Some(grid) = ua.env.grid.clone() else {
        return;
    };
    let spans = span_map(unit);
    // the verifier's own dependence analysis, once per loop: the nests
    // under one transparent wrapper share it as their scope
    let mut deps: BTreeMap<StmtId, Vec<Dependence>> = BTreeMap::new();
    for &nest in &ua.nests {
        let Some(plan) = ua.plans.get(&nest) else {
            continue;
        };
        let scope = ua.nest_scope.get(&nest).copied().unwrap_or(nest);
        for l in [scope, nest] {
            deps.entry(l)
                .or_insert_with(|| analyze_loop_deps(l, loops, refs));
        }
        let cx = NestCx {
            unit_name: &unit.name,
            ua,
            loops,
            refs,
            grid: &grid,
            spans: &spans,
            nest,
            scope,
            scope_deps: &deps[&scope],
            nest_deps: &deps[&nest],
            plan,
        };
        cx.check_reads(out);
        cx.check_placement(out);
        cx.check_writebacks(out);
    }
}

struct NestCx<'a> {
    unit_name: &'a str,
    ua: &'a UnitAnalysis,
    loops: &'a UnitLoops,
    refs: &'a UnitRefs,
    grid: &'a ProcGrid,
    spans: &'a BTreeMap<StmtId, Span>,
    nest: StmtId,
    scope: StmtId,
    scope_deps: &'a [Dependence],
    nest_deps: &'a [Dependence],
    plan: &'a NestPlan,
}

impl NestCx<'_> {
    fn sweep(&self) -> Option<&PipeSchedule> {
        match self.plan {
            NestPlan::Pipelined { schedule, .. } => Some(schedule),
            NestPlan::Parallel { .. } => None,
        }
    }

    /// Every non-local read must be covered by pre-exchanges, earlier
    /// same-processor writes, or the pipeline.
    fn check_reads(&self, out: &mut Report) {
        let ud = usedef::build(self.scope, self.loops, self.refs);
        let nprocs = self.grid.nprocs() as usize;

        for stmt in self.loops.stmts_in(self.nest) {
            let Some(cp) = self.ua.cps.get(&stmt) else {
                continue;
            };
            for r in self.refs.of_stmt(stmt) {
                if r.is_write || r.is_scalar {
                    continue;
                }
                let Some(dist) = self.ua.env.dist_of(&r.array) else {
                    continue;
                };
                if !dist.is_distributed() || r.subs.iter().any(|s| s.is_none()) {
                    continue; // non-affine: flagged by the lints, rejected by the planner
                }
                if let Some(sch) = self.sweep() {
                    if behind_read(sch, self.nest, self.loops, r, cp) {
                        continue; // the sweep schedule carries behind-planes
                    }
                }
                let Some(nest_r) = nest_bounds(r.stmt, self.loops) else {
                    continue;
                };
                // same-processor availability uses the lexically-last
                // preceding write with a flow dependence — the §7 rule
                let pred = ud
                    .last_write_before
                    .get(&r.id)
                    .and_then(|w| self.refs.by_id(*w))
                    .filter(|w| {
                        self.scope_deps.iter().any(|d| {
                            d.kind == DepKind::Flow && d.src_ref == w.id && d.dst_ref == r.id
                        })
                    });
                let space = elem_space(r.subs.len());
                let anyowned = (0..nprocs).fold(Set::empty(&space), |acc, p| {
                    acc.union(&dist.owned_set(&self.grid.coords(p as i64)))
                });
                let mut bad_ranks: Vec<(usize, String)> = Vec::new();
                for rank in 0..nprocs {
                    let coords = self.grid.coords(rank as i64);
                    let Some(read_data) = accessed_set(r, cp, &nest_r, &self.ua.env, &coords)
                    else {
                        continue;
                    };
                    let owned = dist.owned_set(&coords);
                    let mut uncovered = read_data.subtract(&owned).intersect(&anyowned);
                    if uncovered.is_empty() {
                        continue;
                    }
                    if let Some(w) = pred {
                        if let Some(nw) = nest_bounds(w.stmt, self.loops) {
                            let wcp = self.ua.cps.get(&w.stmt).cloned().unwrap_or_default();
                            if let Some(wd) = accessed_set(w, &wcp, &nw, &self.ua.env, &coords) {
                                uncovered = uncovered.subtract(&wd);
                            }
                        }
                    }
                    for (_, to, s) in segments(self.plan.pre()) {
                        if to == rank && s.arr == r.array && s.lo.len() == r.subs.len() {
                            uncovered = uncovered.subtract(&Set::rect(&space, &s.lo, &s.hi));
                        }
                    }
                    if !uncovered.is_empty() {
                        bad_ranks.push((rank, describe(&uncovered)));
                    }
                }
                if !bad_ranks.is_empty() {
                    let mut f = Finding::new(
                        "comm-coverage",
                        Severity::Error,
                        self.unit_name,
                        format!(
                            "CONFIRMED: read of `{}` accesses non-local data covered by \
                             no pre-exchange, preceding local write, or pipeline plane",
                            r.array
                        ),
                    )
                    .at(stmt, self.spans.get(&stmt).copied());
                    for (rank, elems) in bad_ranks {
                        f = f.note(format!("processor {rank} reads stale {elems}"));
                    }
                    out.push(f);
                }
            }
        }
    }

    /// What each processor accesses through `x` under its statement's
    /// CP; `None` unless `x` refers to a distributed array with affine
    /// subscripts inside affine loop bounds.
    fn images(&self, x: &RefInfo) -> Option<Vec<Set>> {
        let env = &self.ua.env;
        env.dist_of(&x.array).filter(|d| d.is_distributed())?;
        let bounds = nest_bounds(x.stmt, self.loops)?;
        let cp = self.ua.cps.get(&x.stmt).cloned().unwrap_or_default();
        (self.grid.ranks())
            .map(|p| accessed_set(x, &cp, &bounds, env, &self.grid.coords(p)))
            .collect()
    }

    /// The exchange of a non-pipelined nest runs before the nest: no
    /// flow dependence carried by one of its loops may move a value
    /// between processors.
    fn check_placement(&self, out: &mut Report) {
        if self.sweep().is_some() {
            return; // the sweep schedule carries the values
        }
        // (write, read) → the outermost level carrying the dependence
        let mut carried: BTreeMap<(RefId, RefId), usize> = BTreeMap::new();
        for d in self.nest_deps.iter().filter(|d| d.kind == DepKind::Flow) {
            if let Some(level) = d.level {
                let l = carried.entry((d.src_ref, d.dst_ref)).or_insert(level);
                *l = (*l).min(level);
            }
        }
        let mut images: BTreeMap<RefId, Option<Vec<Set>>> = BTreeMap::new();
        let mut blocks: BTreeMap<&str, Vec<Set>> = BTreeMap::new();
        for ((w, r), level) in carried {
            let (Some(w), Some(r)) = (self.refs.by_id(w), self.refs.by_id(r)) else {
                continue;
            };
            // a statement without a CP is not part of the plan; a
            // replicated definition of a NEW variable computes, on the
            // processors that run no use of it, a value nobody reads
            let Some(rcp) = self.ua.cps.get(&r.stmt) else {
                continue;
            };
            let enclosing = self.loops.nest_of.get(&r.stmt).map_or(&[][..], |l| l);
            let private = self.refs.write_of(r.stmt).is_some_and(|def| {
                (enclosing.iter()).any(|l| self.loops.loops[l].dir.new_vars.contains(&def.array))
            });
            if rcp.terms.is_empty() && private {
                continue;
            }
            for x in [w, r] {
                images.entry(x.id).or_insert_with(|| self.images(x));
            }
            let (Some(written), Some(read)) = (&images[&w.id], &images[&r.id]) else {
                continue;
            };
            // owner-computed values stay in their writer's block: then
            // only reads of other processors' blocks can cross
            let Some(dist) = self.ua.env.dist_of(&w.array) else {
                continue;
            };
            let owned = blocks.entry(&w.array).or_insert_with(|| {
                let ranks = self.grid.ranks();
                ranks
                    .map(|p| dist.owned_set(&self.grid.coords(p)))
                    .collect()
            });
            let home = written.iter().zip(&*owned).all(|(w, own)| w.is_subset(own));
            let mut notes: Vec<String> = Vec::new();
            for (p, (reads, writes)) in read.iter().zip(written).enumerate() {
                let foreign = if home {
                    reads.subtract(&owned[p]).subtract(writes)
                } else {
                    reads.subtract(writes)
                };
                if foreign.is_empty() {
                    continue;
                }
                for (q, theirs) in written.iter().enumerate().filter(|(q, _)| *q != p) {
                    let moved = foreign.intersect(theirs);
                    if !moved.is_empty() {
                        let elems = describe(&moved);
                        notes.push(format!(
                            "processor {p} reads {elems} that processor {q} writes"
                        ));
                    }
                }
            }
            if notes.is_empty() {
                continue;
            }
            let common = self.loops.common_loops(w.stmt, r.stmt);
            let carrier = (common.iter().skip_while(|l| **l != self.nest))
                .nth(level)
                .map_or("?", |l| self.loops.loops[l].var.as_str());
            let mut f = Finding::new(
                "comm-placement",
                Severity::Error,
                self.unit_name,
                format!(
                    "CONFIRMED: read of `{}` consumes values other processors produce in \
                     earlier iterations of loop `{carrier}`, but the nest's exchange runs \
                     once, before the loop",
                    r.array
                ),
            )
            .at(r.stmt, self.spans.get(&r.stmt).copied());
            for n in notes {
                f = f.note(n);
            }
            out.push(f);
        }
    }

    /// Every non-owner write must reach the owner through a write-back
    /// unless the owner redundantly computes the same elements (or the
    /// pipeline forwards the planes of a swept array).
    fn check_writebacks(&self, out: &mut Report) {
        let nprocs = self.grid.nprocs() as usize;
        for stmt in self.loops.stmts_in(self.nest) {
            let Some(cp) = self.ua.cps.get(&stmt) else {
                continue;
            };
            for w in self.refs.of_stmt(stmt) {
                if !w.is_write || w.is_scalar {
                    continue;
                }
                let Some(dist) = self.ua.env.dist_of(&w.array) else {
                    continue;
                };
                if !dist.is_distributed() || w.subs.iter().any(|s| s.is_none()) {
                    continue;
                }
                if let Some(sch) = self.sweep() {
                    if sch.arrays.iter().any(|(a, _)| a == &w.array) {
                        continue; // swept planes travel with the pipeline
                    }
                }
                let Some(nw) = nest_bounds(w.stmt, self.loops) else {
                    continue;
                };
                let space = elem_space(w.subs.len());
                let mut bad: Vec<(usize, usize, String)> = Vec::new();
                for rank in 0..nprocs {
                    let coords = self.grid.coords(rank as i64);
                    let Some(written) = accessed_set(w, cp, &nw, &self.ua.env, &coords) else {
                        continue;
                    };
                    let nonowned = written.subtract(&dist.owned_set(&coords));
                    if nonowned.is_empty() {
                        continue;
                    }
                    for orank in 0..nprocs {
                        if orank == rank {
                            continue;
                        }
                        let oc = self.grid.coords(orank as i64);
                        let oowned = dist.owned_set(&oc);
                        let mut piece = nonowned.intersect(&oowned);
                        if piece.is_empty() {
                            continue;
                        }
                        if let Some(oset) = accessed_set(w, cp, &nw, &self.ua.env, &oc) {
                            piece = piece.subtract(&oset.intersect(&oowned));
                        }
                        for (from, to, s) in segments(self.plan.post()) {
                            if (from, to) == (rank, orank)
                                && s.arr == w.array
                                && s.lo.len() == w.subs.len()
                            {
                                piece = piece.subtract(&Set::rect(&space, &s.lo, &s.hi));
                            }
                        }
                        if !piece.is_empty() {
                            bad.push((rank, orank, describe(&piece)));
                        }
                    }
                }
                if !bad.is_empty() {
                    let mut f = Finding::new(
                        "comm-coverage",
                        Severity::Error,
                        self.unit_name,
                        format!(
                            "CONFIRMED: non-owner write of `{}` never reaches the owner \
                             (no write-back, owner does not compute it)",
                            w.array
                        ),
                    )
                    .at(stmt, self.spans.get(&stmt).copied());
                    for (rank, orank, elems) in bad {
                        f = f.note(format!(
                            "processor {rank} writes {elems} owned by processor {orank}"
                        ));
                    }
                    out.push(f);
                }
            }
        }
    }
}

/// Mirror of the planner's pipeline exemption: a read of a swept array
/// whose subscript on the swept dimension trails the CP's subscript
/// (against the sweep direction) is delivered by the sweep schedule.
fn behind_read(sch: &PipeSchedule, nest: StmtId, loops: &UnitLoops, r: &RefInfo, cp: &Cp) -> bool {
    let Some((_, dm)) = sch.arrays.iter().find(|(a, _)| a == &r.array) else {
        return false;
    };
    let Some(Some(sub)) = r.subs.get(*dm) else {
        return false;
    };
    // sweep loop variable: level `sweep_level` of the single-chain nest
    let mut nest_ids = vec![nest];
    loop {
        let last = *nest_ids.last().unwrap();
        match loops.loop_body.get(&last) {
            Some(body) if body.len() == 1 && loops.loops.contains_key(&body[0]) => {
                nest_ids.push(body[0]);
            }
            _ => break,
        }
    }
    let Some(var) = nest_ids
        .get(sch.sweep_level)
        .map(|id| loops.loops[id].var.clone())
    else {
        return false;
    };
    if sub.coeff(&var) == 0 {
        return false;
    }
    cp.terms.iter().any(|t| {
        matches!(
            t.subs.get(*dm),
            Some(SubTerm::Affine(tsub)) if {
                let d = sub.clone() - tsub.clone();
                d.is_constant()
                    && (if sch.forward { -d.constant() } else { d.constant() }) > 0
            }
        )
    })
}

/// The element space an `accessed_set` image lives in: `e0 .. e{n-1}`.
fn elem_space(ndims: usize) -> Vec<String> {
    (0..ndims).map(|d| format!("e{d}")).collect()
}

/// Human description of an uncovered element set (its bounding box).
fn describe(s: &Set) -> String {
    match bounding_box(s, &|_| None) {
        Some(bb) => {
            let dims: Vec<String> = bb.iter().map(|(lo, hi)| format!("{lo}..{hi}")).collect();
            format!("elements ({})", dims.join(", "))
        }
        None => "elements (unbounded set)".to_string(),
    }
}

fn span_map(unit: &ProgramUnit) -> BTreeMap<StmtId, Span> {
    let mut out = BTreeMap::new();
    unit.for_each_stmt(&mut |s| {
        out.insert(s.id, s.span);
    });
    out
}

/// Convenience for tests: verify (coverage + static protocol) and
/// assert-format in one step.
pub fn assert_clean(compiled: &Compiled) {
    let mut report = verify_compiled(compiled);
    report.extend(crate::protocol::verify_protocol(compiled));
    assert!(
        report.is_clean(),
        "verifier findings:\n{}",
        report.render_human(None)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_core::driver::{compile, CompileOptions};
    use dhpf_core::transfer::remove_seg;
    use dhpf_fortran::parse;

    const STENCIL: &str = "
      program st
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         b(i) = i * 1.0d0
      enddo
      do i = 2, n - 1
         a(i) = b(i - 1) + b(i + 1)
      enddo
      end
";

    fn compile_stencil() -> Compiled {
        let p = parse(STENCIL).unwrap();
        compile(&p, &CompileOptions::new()).unwrap()
    }

    #[test]
    fn clean_stencil_verifies() {
        assert_clean(&compile_stencil());
    }

    #[test]
    fn dropped_exchange_is_flagged_at_the_reading_statement() {
        let mut compiled = compile_stencil();
        let ua = compiled.analyses.get_mut("st").unwrap();
        // drop one boundary exchange of `b`
        let (nest, msg) = {
            let (nest, plan) = ua
                .plans
                .iter()
                .find(|(_, p)| !p.pre().is_empty())
                .expect("a nest with pre-exchanges");
            (*nest, plan.pre()[0].clone())
        };
        match ua.plans.get_mut(&nest).unwrap() {
            NestPlan::Parallel { pre, .. } | NestPlan::Pipelined { pre, .. } => {
                remove_seg(pre, 0, 0);
            }
        }
        let report = verify_compiled(&compiled);
        assert_eq!(report.error_count(), 1, "{}", report.render_human(None));
        let f = &report.findings[0];
        assert_eq!(f.code, "comm-coverage");
        assert!(f.message.contains("`b`"), "{}", f.message);
        assert!(
            f.notes
                .iter()
                .any(|n| n.contains(&format!("processor {}", msg.to))),
            "{:?}",
            f.notes
        );
        // the anchor is the reading statement inside the flagged nest
        let stmt = f.stmt.expect("anchored");
        let p = parse(STENCIL).unwrap();
        let unit = &p.units[0];
        let loops = UnitLoops::build(unit);
        assert!(loops.stmts_in(nest).contains(&stmt));
        let _ = msg;
    }

    #[test]
    fn misaddressed_exchange_is_flagged() {
        let mut compiled = compile_stencil();
        let ua = compiled.analyses.get_mut("st").unwrap();
        let nest = *ua
            .plans
            .iter()
            .find(|(_, p)| !p.pre().is_empty())
            .map(|(n, _)| n)
            .unwrap();
        match ua.plans.get_mut(&nest).unwrap() {
            NestPlan::Parallel { pre, .. } | NestPlan::Pipelined { pre, .. } => {
                // shift the region one element: the boundary cell is
                // still missing even though a message exists
                pre[0].segs[0].lo[0] -= 1;
                pre[0].segs[0].hi[0] -= 1;
            }
        }
        let report = verify_compiled(&compiled);
        assert!(report.error_count() >= 1, "{}", report.render_human(None));
    }

    #[test]
    fn forged_writeback_gap_is_flagged() {
        // the shared CP makes a(i+1) a non-owner write at block
        // boundaries, producing write-backs; deleting one must be caught
        let src = "
      program wb
      parameter (n = 16)
      integer i
      double precision a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b, c
      do i = 1, n
         b(i) = i * 1.0d0
      enddo
      do i = 1, n - 1
         c(i) = b(i) + 1.0d0
         a(i + 1) = c(i) * 2.0d0
      enddo
      end
";
        let p = parse(src).unwrap();
        let mut compiled = compile(&p, &CompileOptions::new()).unwrap();
        assert_clean(&compiled);
        let ua = compiled.analyses.get_mut("wb").unwrap();
        let mut dropped = None;
        for plan in ua.plans.values_mut() {
            match plan {
                NestPlan::Parallel { post, .. } | NestPlan::Pipelined { post, .. } => {
                    if !post.is_empty() {
                        dropped = Some(remove_seg(post, 0, 0));
                        break;
                    }
                }
            }
        }
        let dropped = dropped.expect("a write-back to drop");
        let report = verify_compiled(&compiled);
        assert!(report.error_count() >= 1, "{}", report.render_human(None));
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("non-owner write")
                && f.message.contains(&format!("`{}`", dropped.arr))));
    }
}
