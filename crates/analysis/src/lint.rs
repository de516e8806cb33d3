//! Source- and artifact-level lints for HPF programs.
//!
//! * `nonaffine-subscript` — a distributed-array reference with a
//!   subscript the affine framework cannot model; communication analysis
//!   rejects such nests (the compiler's serial fallback).
//! * `directive-ignored` — `NEW`/`LOCALIZE` names with nothing for the
//!   analysis to do (no definitions inside the loop, or a non-distributed
//!   `LOCALIZE` target).
//! * `cp-conflict` — statement pairs with no common computation
//!   partitioning choice, the §5 trigger for selective loop distribution
//!   (a residual conflict *after* distribution is reported from the
//!   compiled artifacts).
//! * `cp-vectorized` / `cp-replicated` — §4.1 use→def CP translation
//!   that had to vectorize a non-invertible subscript mapping, or gave up
//!   and replicated the definition.

use crate::diag::{span_map, Finding, Report, Severity};
use dhpf_core::cp::SubTerm;
use dhpf_core::distrib::resolve as resolve_dist;
use dhpf_core::driver::Compiled;
use dhpf_core::loopdist::group_statements;
use dhpf_core::privat::translate_use_cp;
use dhpf_core::select::{self, Candidate};
use dhpf_depend::dep::analyze_loop_deps;
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::UnitRefs;
use dhpf_depend::usedef;
use dhpf_fortran::ast::{Program, ProgramUnit, StmtId};
use dhpf_fortran::span::Span;
use dhpf_fortran::symtab;
use std::collections::BTreeMap;

/// Run every source-level lint over a parsed program. `bindings` gives
/// values to symbolic names (problem size, grid extents), as the
/// compiler's own `CompileOptions::bindings` does.
pub fn lint_source(program: &Program, bindings: &BTreeMap<String, i64>) -> Report {
    let mut out = Report::new();
    let mut program = program.clone();
    for unit in &mut program.units {
        for (k, v) in bindings {
            unit.decls.params.entry(k.clone()).or_insert(*v);
        }
    }
    let (tabs, _) = symtab::resolve(&program);
    for unit in &program.units {
        let tab = tabs.get(&unit.name).cloned().unwrap_or_default();
        let loops = UnitLoops::build(unit);
        let refs = UnitRefs::build(unit, &tab);
        let env = resolve_dist(unit, bindings).ok();
        let spans = span_map(unit);
        lint_nonaffine(unit, &refs, env.as_ref(), &spans, &mut out);
        lint_directives(unit, &loops, &refs, env.as_ref(), &spans, &mut out);
        if let Some(env) = env.as_ref().filter(|e| e.grid.is_some()) {
            lint_conflicts(
                unit,
                &loops,
                &refs,
                env,
                &spans,
                None,
                "no common computation partitioning exists — the compiler \
                 will apply selective loop distribution (§5)",
                &mut out,
            );
        }
    }
    out
}

/// Lints that need the compiler's own artifacts: §4.1 translation
/// outcomes and residual §5 conflicts in the *transformed* program.
pub fn lint_compiled(compiled: &Compiled) -> Report {
    let mut out = Report::new();
    let (tabs, _) = symtab::resolve(&compiled.transformed);
    for (uname, ua) in &compiled.analyses {
        let Some(unit) = compiled.transformed.unit(uname) else {
            continue;
        };
        let tab = tabs.get(uname).cloned().unwrap_or_default();
        let loops = UnitLoops::build(unit);
        let refs = UnitRefs::build(unit, &tab);
        let spans = span_map(unit);
        lint_translations(unit, ua, &loops, &refs, &spans, &mut out);
        if ua.env.grid.is_some() {
            lint_conflicts(
                unit,
                &loops,
                &refs,
                &ua.env,
                &spans,
                Some(&ua.nests),
                "computation-partitioning conflict persists after loop \
                 distribution (§5) — the nest executes with a grouped \
                 compromise CP",
                &mut out,
            );
        }
    }
    out
}

fn lint_nonaffine(
    unit: &ProgramUnit,
    refs: &UnitRefs,
    env: Option<&dhpf_core::distrib::DistEnv>,
    spans: &BTreeMap<StmtId, Span>,
    out: &mut Report,
) {
    for r in &refs.refs {
        if r.is_scalar || !r.subs.iter().any(|s| s.is_none()) {
            continue;
        }
        let distributed = env
            .and_then(|e| e.dist_of(&r.array))
            .map(|d| d.is_distributed());
        let (sev, what) = match distributed {
            Some(true) => (
                Severity::Warning,
                "communication analysis will reject any nest containing it",
            ),
            Some(false) => continue, // serial data: nothing to parallelize
            None => (Severity::Warning, "the reference cannot be analyzed"),
        };
        out.push(
            Finding::new(
                "nonaffine-subscript",
                sev,
                &unit.name,
                format!("non-affine subscript on `{}`; {what}", r.array),
            )
            .at(r.stmt, spans.get(&r.stmt).copied()),
        );
    }
}

fn lint_directives(
    unit: &ProgramUnit,
    loops: &UnitLoops,
    refs: &UnitRefs,
    env: Option<&dhpf_core::distrib::DistEnv>,
    spans: &BTreeMap<StmtId, Span>,
    out: &mut Report,
) {
    for (lid, info) in &loops.loops {
        for var in &info.dir.new_vars {
            if !unit.decls.is_array(var) {
                continue; // scalar NEW is plain privatization, always fine
            }
            if usedef::writes_of_var(*lid, var, loops, refs).is_empty() {
                out.push(
                    Finding::new(
                        "directive-ignored",
                        Severity::Warning,
                        &unit.name,
                        format!(
                            "NEW(`{var}`) names an array never defined inside the \
                             loop — §4.1 CP propagation has nothing to do"
                        ),
                    )
                    .at(*lid, spans.get(lid).copied()),
                );
            }
        }
        for var in &info.dir.localize_vars {
            if usedef::writes_of_var(*lid, var, loops, refs).is_empty() {
                out.push(
                    Finding::new(
                        "directive-ignored",
                        Severity::Warning,
                        &unit.name,
                        format!(
                            "LOCALIZE(`{var}`) names a variable never defined inside \
                             the loop — §4.2 partial replication has nothing to do"
                        ),
                    )
                    .at(*lid, spans.get(lid).copied()),
                );
            } else if let Some(e) = env {
                let dist = e.dist_of(var).map(|d| d.is_distributed()).unwrap_or(false);
                if !dist {
                    out.push(
                        Finding::new(
                            "directive-ignored",
                            Severity::Warning,
                            &unit.name,
                            format!(
                                "LOCALIZE(`{var}`) targets a non-distributed array — \
                                 partial replication cannot reduce communication"
                            ),
                        )
                        .at(*lid, spans.get(lid).copied()),
                    );
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn lint_conflicts(
    unit: &ProgramUnit,
    loops: &UnitLoops,
    refs: &UnitRefs,
    env: &dhpf_core::distrib::DistEnv,
    spans: &BTreeMap<StmtId, Span>,
    nests: Option<&[StmtId]>,
    message: &str,
    out: &mut Report,
) {
    let top_level: Vec<StmtId>;
    let nests = match nests {
        Some(n) => n,
        None => {
            let mut v: Vec<StmtId> = loops
                .loops
                .iter()
                .filter(|(_, i)| i.depth == 0)
                .map(|(id, _)| *id)
                .collect();
            v.sort_by_key(|id| loops.order[id]);
            top_level = v;
            &top_level
        }
    };
    for &nest in nests {
        let deps = analyze_loop_deps(nest, loops, refs);
        let stmts = select::assignments_in(nest, loops, refs);
        let cands: BTreeMap<StmtId, Vec<Candidate>> = stmts
            .iter()
            .map(|s| (*s, select::candidates(*s, refs, env)))
            .collect();
        let grouping = group_statements(&stmts, &cands, &deps);
        for (a, b) in grouping.marked {
            let other = spans
                .get(&b)
                .map(|sp| format!(" (conflicts with the statement on line {})", sp.line))
                .unwrap_or_default();
            out.push(
                Finding::new(
                    "cp-conflict",
                    Severity::Warning,
                    &unit.name,
                    format!("{message}{other}"),
                )
                .at(a, spans.get(&a).copied()),
            );
        }
    }
}

/// §4.1 lint: how did use→def CP translation fare for every
/// NEW/LOCALIZE definition?
fn lint_translations(
    unit: &ProgramUnit,
    ua: &dhpf_core::driver::UnitAnalysis,
    loops: &UnitLoops,
    refs: &UnitRefs,
    spans: &BTreeMap<StmtId, Span>,
    out: &mut Report,
) {
    for (lid, info) in &loops.loops {
        let managed: Vec<&String> = info
            .dir
            .new_vars
            .iter()
            .chain(info.dir.localize_vars.iter())
            .collect();
        if managed.is_empty() {
            continue;
        }
        for var in managed {
            for def in usedef::writes_of_var(*lid, var, loops, refs) {
                for us in usedef::reads_of_var(*lid, var, loops, refs) {
                    if us.stmt == def.stmt {
                        continue;
                    }
                    let Some(use_cp) = ua.cps.get(&us.stmt) else {
                        continue;
                    };
                    match translate_use_cp(def, us, use_cp, loops) {
                        None => {
                            out.push(
                                Finding::new(
                                    "cp-replicated",
                                    Severity::Warning,
                                    &unit.name,
                                    format!(
                                        "use→def CP translation for `{var}` is impossible \
                                         (replicated or unsolvable use CP) — its definition \
                                         is computed on every processor (§4.1 fallback)"
                                    ),
                                )
                                .at(def.stmt, spans.get(&def.stmt).copied()),
                            );
                        }
                        Some(terms) => {
                            let vectorized = terms
                                .iter()
                                .any(|t| t.subs.iter().any(|s| matches!(s, SubTerm::Range(..))));
                            if vectorized {
                                out.push(
                                    Finding::new(
                                        "cp-vectorized",
                                        Severity::Info,
                                        &unit.name,
                                        format!(
                                            "non-invertible subscript mapping for `{var}`: \
                                             the use CP was vectorized onto the definition \
                                             (§4.1) — redundant boundary computation"
                                        ),
                                    )
                                    .at(def.stmt, spans.get(&def.stmt).copied()),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_fortran::parse;

    #[test]
    fn ignored_new_directive_is_flagged() {
        let src = "
      program t
      parameter (n = 16)
      integer i
      double precision a(n), cv(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
!hpf$ independent, new(cv)
      do i = 1, n
         a(i) = i * 1.0d0
      enddo
      end
";
        let p = parse(src).unwrap();
        let r = lint_source(&p, &BTreeMap::new());
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "directive-ignored" && f.message.contains("NEW(`cv`)")),
            "{}",
            r.render_human(None)
        );
    }

    #[test]
    fn localize_of_serial_array_is_flagged() {
        let src = "
      program t
      parameter (n = 16)
      integer i, one
      double precision a(n), t1(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
!hpf$ independent, localize(t1)
      do one = 1, 1
         do i = 1, n
            t1(i) = i * 1.0d0
         enddo
         do i = 2, n
            a(i) = t1(i - 1)
         enddo
      enddo
      end
";
        let p = parse(src).unwrap();
        let r = lint_source(&p, &BTreeMap::new());
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "directive-ignored" && f.message.contains("non-distributed")),
            "{}",
            r.render_human(None)
        );
    }

    #[test]
    fn clean_stencil_has_no_findings() {
        let src = "
      program t
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         b(i) = i * 1.0d0
      enddo
      do i = 2, n - 1
         a(i) = b(i - 1) + b(i + 1)
      enddo
      end
";
        let p = parse(src).unwrap();
        let r = lint_source(&p, &BTreeMap::new());
        assert!(r.is_clean(), "{}", r.render_human(None));
    }

    #[test]
    fn cp_conflict_is_flagged_at_source_level() {
        // the driver's §5 test program: no common CP choice exists
        let src = "
      program t
      parameter (n = 16)
      integer i, j
      double precision a(n, n), e(n, n), f(n, n), g(n, n), h(n, n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: a, e, f, g, h
      do j = 1, n
         do i = 1, n
            e(i, j) = i * 1.0d0 + j * j
            g(i, j) = i - j * 0.5d0
         enddo
      enddo
      do j = 1, n
         do i = 2, n - 1
            a(i, j) = e(i, j) + 1.0d0
            f(i + 1, j) = a(i, j) + g(i + 1, j)
            h(i + 1, j) = g(i + 1, j) + f(i + 1, j)
         enddo
      enddo
      end
";
        let p = parse(src).unwrap();
        let r = lint_source(&p, &BTreeMap::new());
        assert!(
            r.findings.iter().any(|f| f.code == "cp-conflict"),
            "{}",
            r.render_human(None)
        );
    }
}
