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
use dhpf_core::distrib::{ArrayDist, ProcGrid};
use dhpf_core::driver::{Compiled, UnitAnalysis};
use dhpf_core::transfer::{segments, Seg};
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
use std::rc::Rc;

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
        let mut cx = NestCx {
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
            images: BTreeMap::new(),
            owned: BTreeMap::new(),
            any_owned: BTreeMap::new(),
            pre_to: BTreeMap::new(),
            post: BTreeMap::new(),
        };
        for (_, to, s) in segments(plan.pre()) {
            cx.pre_to.entry(to).or_default().push(s);
        }
        for (from, to, s) in segments(plan.post()) {
            cx.post.entry((from, to)).or_default().push(s);
        }
        cx.check_reads(out);
        cx.check_placement(out);
        cx.check_writebacks(out);
    }
}

/// One set per processor, indexed by rank.
type PerRank = Rc<Vec<Set>>;

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
    // The verifier's own per-rank table of the nest, rows derived on first
    // use: what each processor accesses through a reference, what it owns
    // of an array, what any owns; plan segments by destination.
    images: BTreeMap<RefId, Option<PerRank>>,
    owned: BTreeMap<&'a str, PerRank>,
    any_owned: BTreeMap<&'a str, Rc<Set>>,
    pre_to: BTreeMap<usize, Vec<&'a Seg<String>>>,
    post: BTreeMap<(usize, usize), Vec<&'a Seg<String>>>,
}

impl<'a> NestCx<'a> {
    fn sweep(&self) -> Option<&'a PipeSchedule> {
        match self.plan {
            NestPlan::Pipelined { schedule, .. } => Some(schedule),
            NestPlan::Parallel { .. } => None,
        }
    }

    /// What each processor accesses through `x` under its statement's
    /// CP; `None` unless `x` refers to a distributed array with affine
    /// subscripts inside affine loop bounds.
    fn images(&mut self, x: &RefInfo) -> Option<PerRank> {
        if !self.images.contains_key(&x.id) {
            let (env, grid) = (&self.ua.env, self.grid);
            let cp = self.ua.cps.get(&x.stmt).cloned().unwrap_or_default();
            let row = (env.dist_of(&x.array).filter(|d| d.is_distributed()))
                .and(nest_bounds(x.stmt, self.loops))
                .and_then(|b| {
                    let image = |p| accessed_set(x, &cp, &b, env, &grid.coords(p));
                    grid.ranks().map(image).collect()
                });
            self.images.insert(x.id, row.map(Rc::new));
        }
        self.images[&x.id].clone()
    }

    /// What each processor owns of `array` (distributed by `dist`).
    fn owned(&mut self, array: &'a str, dist: &ArrayDist) -> PerRank {
        let grid = self.grid;
        let own = |p| dist.owned_set(&grid.coords(p));
        let row = self.owned.entry(array);
        row.or_insert_with(|| Rc::new(grid.ranks().map(own).collect()))
            .clone()
    }

    /// Every element some processor owns of `array` (of rank `ndims`).
    fn any_owned(&mut self, array: &'a str, dist: &ArrayDist, ndims: usize) -> Rc<Set> {
        if !self.any_owned.contains_key(array) {
            let owned = self.owned(array, dist);
            let any = (owned.iter()).fold(Set::empty(&elem_space(ndims)), |acc, s| acc.union(s));
            self.any_owned.insert(array, Rc::new(any));
        }
        self.any_owned[array].clone()
    }

    /// The reads (or writes) of the nest's statements with a CP that go to
    /// a distributed array through affine subscripts (the lints flag the
    /// others, the planner rejects them), with that CP and distribution.
    fn accesses(&self, writes: bool) -> Vec<(StmtId, &'a Cp, &'a RefInfo, &'a ArrayDist)> {
        let (ua, refs) = (self.ua, self.refs);
        let mut out = Vec::new();
        for stmt in self.loops.stmts_in(self.nest) {
            let Some(cp) = ua.cps.get(&stmt) else {
                continue;
            };
            for r in refs.of_stmt(stmt) {
                let wanted = r.is_write == writes && !r.is_scalar;
                let affine = r.subs.iter().all(|s| s.is_some());
                let dist = ua.env.dist_of(&r.array).filter(|d| d.is_distributed());
                if let Some(d) = dist.filter(|_| wanted && affine) {
                    out.push((stmt, cp, r, d));
                }
            }
        }
        out
    }

    /// Every non-local read must be covered by pre-exchanges, earlier
    /// same-processor writes, or the pipeline.
    fn check_reads(&mut self, out: &mut Report) {
        let refs = self.refs;
        let ud = usedef::build(self.scope, self.loops, refs);
        for (stmt, cp, r, dist) in self.accesses(false) {
            if let Some(sch) = self.sweep() {
                if behind_read(sch, self.nest, self.loops, r, cp) {
                    continue; // the sweep schedule carries behind-planes
                }
            }
            let Some(reads) = self.images(r) else {
                continue; // non-affine loop bounds
            };
            // same-processor availability uses the lexically-last
            // preceding write with a flow dependence — the §7 rule
            let pred = ud
                .last_write_before
                .get(&r.id)
                .and_then(|w| refs.by_id(*w))
                .filter(|w| {
                    self.scope_deps
                        .iter()
                        .any(|d| d.kind == DepKind::Flow && d.src_ref == w.id && d.dst_ref == r.id)
                });
            let space = elem_space(r.subs.len());
            let owned = self.owned(&r.array, dist);
            let anyowned = self.any_owned(&r.array, dist, r.subs.len());
            let mut bad_ranks: Vec<(usize, String)> = Vec::new();
            for (rank, read_data) in reads.iter().enumerate() {
                let mut uncovered = read_data.subtract(&owned[rank]).intersect(&anyowned);
                if uncovered.is_empty() {
                    continue;
                }
                if let Some(written) = pred.and_then(|w| self.images(w)) {
                    uncovered = uncovered.subtract(&written[rank]);
                }
                for s in self.pre_to.get(&rank).into_iter().flatten() {
                    if s.arr == r.array && s.lo.len() == r.subs.len() {
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

    /// The exchange of a non-pipelined nest runs before the nest: no
    /// flow dependence carried by one of its loops may move a value
    /// between processors.
    fn check_placement(&mut self, out: &mut Report) {
        if self.sweep().is_some() {
            return; // the sweep schedule carries the values
        }
        let (ua, refs) = (self.ua, self.refs);
        // (write, read) → the outermost level carrying the dependence
        let mut carried: BTreeMap<(RefId, RefId), usize> = BTreeMap::new();
        for d in self.nest_deps.iter().filter(|d| d.kind == DepKind::Flow) {
            if let Some(level) = d.level {
                let l = carried.entry((d.src_ref, d.dst_ref)).or_insert(level);
                *l = (*l).min(level);
            }
        }
        for ((w, r), level) in carried {
            let (Some(w), Some(r)) = (refs.by_id(w), refs.by_id(r)) else {
                continue;
            };
            // a statement without a CP is not part of the plan; a
            // replicated definition of a NEW variable computes, on the
            // processors that run no use of it, a value nobody reads
            let Some(rcp) = ua.cps.get(&r.stmt) else {
                continue;
            };
            let enclosing = self.loops.nest_of.get(&r.stmt).map_or(&[][..], |l| l);
            let private = refs.write_of(r.stmt).is_some_and(|def| {
                (enclosing.iter()).any(|l| self.loops.loops[l].dir.new_vars.contains(&def.array))
            });
            if rcp.terms.is_empty() && private {
                continue;
            }
            let (Some(written), Some(read)) = (self.images(w), self.images(r)) else {
                continue;
            };
            // owner-computed values stay in their writer's block: then
            // only reads of other processors' blocks can cross
            let Some(dist) = ua.env.dist_of(&w.array) else {
                continue;
            };
            let owned = self.owned(&w.array, dist);
            let home = written.iter().zip(&*owned).all(|(w, own)| w.is_subset(own));
            let mut notes: Vec<String> = Vec::new();
            for (p, (reads, writes)) in read.iter().zip(&*written).enumerate() {
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
    fn check_writebacks(&mut self, out: &mut Report) {
        for (stmt, _, w, dist) in self.accesses(true) {
            if let Some(sch) = self.sweep() {
                if sch.arrays.iter().any(|(a, _)| a == &w.array) {
                    continue; // swept planes travel with the pipeline
                }
            }
            let Some(written) = self.images(w) else {
                continue; // non-affine loop bounds
            };
            let owned = self.owned(&w.array, dist);
            let space = elem_space(w.subs.len());
            let mut bad: Vec<(usize, usize, String)> = Vec::new();
            for (rank, mine) in written.iter().enumerate() {
                let nonowned = mine.subtract(&owned[rank]);
                if nonowned.is_empty() {
                    continue;
                }
                for (orank, (theirs, oowned)) in written.iter().zip(&*owned).enumerate() {
                    if orank == rank {
                        continue;
                    }
                    let mut piece = nonowned.intersect(oowned);
                    if piece.is_empty() {
                        continue;
                    }
                    piece = piece.subtract(&theirs.intersect(oowned));
                    for s in self.post.get(&(rank, orank)).into_iter().flatten() {
                        if s.arr == w.array && s.lo.len() == w.subs.len() {
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
