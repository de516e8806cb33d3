//! The compilation driver: orchestrates the full dHPF pipeline.
//!
//! ```text
//! parse → resolve symbols → call graph (bottom-up, §6)
//!   → per unit, callees first, the ordered pass table `PASSES`:
//!        inline loop-borne leaf calls (with translated entry CPs)
//!        analyze: loops/refs → planned nests
//!        loop-distribution: §5 grouping (a split restarts at analyze)
//!        cp-select → propagate (§4.1 NEW, §4.2 LOCALIZE)
//!        comm-plan (availability §7, pipelining) + entry CP
//!   → code generation → NodeProgram
//! ```
//!
//! One thread, one path: every unit runs through the same table, and the
//! runner ([`process_unit`]) — not the passes — opens the observability
//! span of each pass. Every paper optimization can be toggled off through
//! [`OptFlags`] for the ablation experiments.

use crate::codegen::{CodegenError, CompiledUnit, GlobalRegistry, NodeProgram, PlanProv, UnitCx};
use crate::comm::{CommError, CommReport, NestPlan};
use crate::cp::{Cp, CpTerm};
use crate::distrib::{resolve as resolve_dist, DistEnv, DistError};
use crate::interproc::{entry_cp, Inliner};
use crate::localize::apply_localize;
use crate::loopdist::{assign_group_cps, distribute_nest, group_statements};
use crate::privat::propagate_new_cps;
use crate::select::{self, Candidate, CpAssignment};
use crate::transfer::{segments, Transfer};
use dhpf_depend::callgraph::CallGraph;
use dhpf_depend::dep::{analyze_loop_deps, Dependence};
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::UnitRefs;
use dhpf_depend::usedef::writes_of_var;
use dhpf_fortran::ast::{Program, ProgramUnit, RefId, Stmt, StmtId, StmtKind};
use dhpf_fortran::subscript::affine;
use dhpf_fortran::symtab;
use dhpf_obs::{self as obs, CpHow, Decision, DecisionKind, ObsReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Optimization toggles (all on by default — the full dHPF pipeline).
#[derive(Clone, Copy, Debug)]
pub struct OptFlags {
    /// §4.1: CP propagation for privatizable (NEW) variables. Off ⇒ NEW
    /// definitions are replicated (every processor computes the whole
    /// temporary — the paper's strawman).
    pub privatizable_cp: bool,
    /// §4.2: LOCALIZE partial replication. Off ⇒ owner-computes for the
    /// marked arrays (boundary communication reappears).
    pub localize: bool,
    /// §5: communication-sensitive CP grouping + selective distribution.
    pub loop_distribution: bool,
    /// §6: interprocedural CP selection for inlined loop-borne calls.
    pub interproc: bool,
    /// §7: data availability analysis.
    pub data_availability: bool,
    /// §3: overlap halo pre-exchanges with interior compute
    /// (post-irecv / compute-interior / wait / compute-boundary).
    pub overlap: bool,
    /// §7: pack all coalesced messages between one processor pair into
    /// a single physical transfer per phase (message aggregation).
    pub aggregate: bool,
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags {
            privatizable_cp: true,
            localize: true,
            loop_distribution: true,
            interproc: true,
            data_availability: true,
            overlap: true,
            aggregate: true,
        }
    }
}

impl OptFlags {
    /// The optimization-flag lattice: all-on, each single toggle off,
    /// and all-off — every paper optimization exercised both ways
    /// against the same source. The fuzzer's conformance matrix, the
    /// `dhpf bench flags` study and the equivalence tests share it.
    pub fn lattice() -> Vec<(&'static str, OptFlags)> {
        type SwitchOff = fn(&mut OptFlags);
        let toggles: [(&str, SwitchOff); 7] = [
            ("no-privatizable-cp", |f| f.privatizable_cp = false),
            ("no-localize", |f| f.localize = false),
            ("no-loop-distribution", |f| f.loop_distribution = false),
            ("no-interproc", |f| f.interproc = false),
            ("no-data-availability", |f| f.data_availability = false),
            ("no-overlap", |f| f.overlap = false),
            ("no-aggregate", |f| f.aggregate = false),
        ];
        let mut lattice = vec![("all-on", OptFlags::default())];
        let mut all_off = OptFlags::default();
        for (label, switch_off) in toggles {
            let mut flags = OptFlags::default();
            switch_off(&mut flags);
            switch_off(&mut all_off);
            lattice.push((label, flags));
        }
        lattice.push(("all-off", all_off));
        lattice
    }
}

/// Compilation options.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// Values for symbolic names in declarations/directives (problem
    /// size, processor-grid extents).
    pub bindings: BTreeMap<String, i64>,
    pub flags: OptFlags,
    /// Coarse-grain pipelining granularity (strip size).
    pub granularity: i64,
    /// Record span traces and the decision log (`Compiled::obs`). Off by
    /// default: every probe in the pipeline then costs one thread-local
    /// flag read. Metrics are collected either way.
    pub observe: bool,
}

impl CompileOptions {
    pub fn new() -> Self {
        CompileOptions {
            bindings: BTreeMap::new(),
            flags: OptFlags::default(),
            granularity: 4,
            observe: false,
        }
    }

    pub fn bind(mut self, name: &str, value: i64) -> Self {
        self.bindings.insert(name.to_string(), value);
        self
    }

    /// Enable span tracing and the decision log.
    pub fn observed(mut self) -> Self {
        self.observe = true;
        self
    }
}

/// Per-unit artifacts of the analysis pipeline, captured so an
/// independent checker (the `dhpf-analysis` crate) can re-derive every
/// non-local data set and prove the communication plan covers it.
#[derive(Clone)]
pub struct UnitAnalysis {
    /// Resolved distributions for the unit.
    pub env: DistEnv,
    /// Final computation-partitioning assignment.
    pub cps: CpAssignment,
    /// Communication plan per planned nest.
    pub plans: BTreeMap<StmtId, NestPlan>,
    /// Planned nests in program order.
    pub nests: Vec<StmtId>,
    /// Nest → the transparent wrapper loop it was planned under (the
    /// availability scope; absent means the nest is its own scope).
    pub nest_scope: BTreeMap<StmtId, StmtId>,
}

/// A compiled program plus introspection data.
pub struct Compiled {
    pub program: NodeProgram,
    pub report: CommReport,
    /// Per-unit CP assignment rendering (debugging / golden tests).
    pub cp_dump: BTreeMap<String, Vec<(StmtId, String)>>,
    /// The program after inlining and loop distribution — the AST that
    /// every `StmtId` in `analyses` refers to.
    pub transformed: Program,
    /// Per-unit analysis artifacts, keyed by unit name.
    pub analyses: BTreeMap<String, UnitAnalysis>,
    /// Observability report: span traces + decision log (only when
    /// `CompileOptions::observe`) and the unified metrics (always).
    pub obs: ObsReport,
}

impl Compiled {
    /// Deterministic rendering of everything observable about a compile:
    /// the emitted node program, the CP assignments, the communication
    /// report, and the transformed AST. Compiling the same program twice
    /// must produce byte-identical fingerprints (asserted in tests).
    pub fn fingerprint(&self) -> String {
        format!(
            "{:#?}\n{:#?}\n{:?}\n{:#?}",
            self.program, self.cp_dump, self.report, self.transformed
        )
    }
}

/// Compilation errors.
#[derive(Debug)]
pub enum CompileError {
    Semantic(Vec<dhpf_fortran::Diagnostic>),
    Distribution(DistError),
    Comm(String, CommError),
    Codegen(CodegenError),
    Recursion,
    Other(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Semantic(d) => write!(f, "semantic errors: {d:?}"),
            CompileError::Distribution(e) => write!(f, "{e}"),
            CompileError::Comm(unit, e) => write!(f, "in {unit}: {e}"),
            CompileError::Codegen(e) => write!(f, "{e}"),
            CompileError::Recursion => write!(f, "recursive call graph"),
            CompileError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Synthesized-id chunk granted to each unit (statements and references).
/// Unit `k` in bottom-up call-graph order allocates from `base + k·CHUNK`,
/// so the ids a unit synthesizes depend on nothing but its position in
/// that order.
const ID_CHUNK: u32 = 1 << 20;

/// Fresh statement/reference ids for the code one unit synthesizes
/// (inlined bodies, distributed loop headers), drawn from its chunk.
pub(crate) struct IdAlloc {
    next_stmt: u32,
    next_ref: u32,
    stmt_end: u32,
    ref_end: u32,
}

impl IdAlloc {
    fn new(stmt_start: u32, ref_start: u32) -> Self {
        IdAlloc {
            next_stmt: stmt_start,
            next_ref: ref_start,
            stmt_end: stmt_start + ID_CHUNK,
            ref_end: ref_start + ID_CHUNK,
        }
    }

    pub(crate) fn stmt(&mut self) -> StmtId {
        self.next_stmt += 1;
        StmtId(self.next_stmt - 1)
    }

    pub(crate) fn reference(&mut self) -> RefId {
        self.next_ref += 1;
        RefId(self.next_ref - 1)
    }

    fn exhausted(&self) -> bool {
        self.next_stmt > self.stmt_end || self.next_ref > self.ref_end
    }
}

/// Compile an HPF program into an SPMD node program.
///
/// Units compile one after another on the calling thread, callees before
/// callers, so each unit only reads state (callee bodies, entry CPs) that
/// is already final.
pub fn compile(program: &Program, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let epoch = Instant::now();
    let (cache0, dep0) = (dhpf_iset::cache_stats(), dhpf_depend::dep_stats());
    let rows0 = crate::avail::row_stats();
    let driver_guard = opts.observe.then(|| obs::install("driver", epoch));
    let mut program = program.clone();

    // fold the caller's bindings into every unit's parameter table so the
    // whole analysis pipeline sees concrete sizes (the paper's dHPF
    // compiled problem size and grid into the program the same way)
    for unit in &mut program.units {
        for (k, v) in &opts.bindings {
            unit.decls.params.entry(k.clone()).or_insert(*v);
        }
    }

    // ---- semantic checks ---------------------------------------------------
    {
        let _sp = obs::span("semantic");
        let (_tabs, diags) = symtab::resolve(&program);
        if diags
            .iter()
            .any(|d| matches!(d.severity, dhpf_fortran::span::Severity::Error))
        {
            return Err(CompileError::Semantic(diags));
        }
        reject_early_returns(&program)?;
    }

    // ---- call graph / §6 ---------------------------------------------------
    let sp_callgraph = obs::span("callgraph");
    let graph = CallGraph::build(&program);
    let order = graph.bottom_up().ok_or(CompileError::Recursion)?;

    // deterministic per-unit id chunks for synthesized statements/refs
    let (stmt_base, ref_base) = max_ids(&program);
    let chunks = order.len() as u64 * ID_CHUNK as u64;
    if stmt_base as u64 + chunks > u32::MAX as u64 || ref_base as u64 + chunks > u32::MAX as u64 {
        return Err(CompileError::Other(format!(
            "too many units ({}) for deterministic id chunking",
            order.len()
        )));
    }

    // Compile order: shallowest call depth first (a leaf is depth 0, a
    // caller one past its deepest callee), bottom-up order within a
    // depth. Any callees-first order compiles the same code; this one is
    // the order `obs.scopes` and the decision log have always listed
    // units in, so it is part of their byte identity. The bottom-up index
    // `k` — not the position in this schedule — keys the id chunk.
    let mut depth: BTreeMap<&str, usize> = BTreeMap::new();
    for &u in &order {
        let callees = graph.calls.get(u).into_iter().flatten();
        let d = callees.filter_map(|c| depth.get(c.as_str())).max();
        depth.insert(u, d.map_or(0, |d| d + 1));
    }
    let mut schedule: Vec<(u32, &str)> = (0u32..).zip(order.iter().copied()).collect();
    schedule.sort_by_key(|(_, u)| depth[u]);
    drop(sp_callgraph);

    let mut entry_cps: BTreeMap<String, Cp> = BTreeMap::new();
    let mut analyses: BTreeMap<String, UnitAnalysis> = BTreeMap::new();
    let mut report = CommReport::default();
    let mut unit_scopes: Vec<obs::ScopeObs> = Vec::new();
    {
        let _sp = obs::span_detail("units", || format!("{} unit(s)", order.len()));
        for (k, uname) in schedule {
            let unit_guard = opts.observe.then(|| obs::install(uname, epoch));
            let ids = IdAlloc::new(stmt_base + k * ID_CHUNK, ref_base + k * ID_CHUNK);
            let (analysis, ecp) =
                process_unit(&mut program, uname, opts, &entry_cps, ids, &mut report)?;
            analyses.insert(uname.to_string(), analysis);
            if let Some(ecp) = ecp {
                entry_cps.insert(uname.to_string(), ecp);
            }
            unit_scopes.extend(unit_guard.map(|g| g.finish()));
        }
    }

    let mut compiled = {
        let _sp = obs::span("codegen");
        finish_compile(program, opts, analyses, report)?
    };

    // driver scope first, then the units in compile order
    let scopes = driver_guard.map(|g| g.finish()).into_iter();
    let scopes = scopes.chain(unit_scopes).collect();
    compiled.obs = assemble_obs(opts, scopes, &compiled, &cache0, &dep0, &rows0);
    Ok(compiled)
}

/// RETURN compiles only as a unit's final statement, where it is the
/// fall-through it already is. Anywhere else it is control flow the node
/// program has no op for — dropping it would run the statements it
/// skips — so the program is rejected.
fn reject_early_returns(program: &Program) -> Result<(), CompileError> {
    for unit in &program.units {
        let tail = unit.body.last().map(|s| s.id);
        let mut early = None;
        unit.for_each_stmt(&mut |s| {
            if matches!(s.kind, StmtKind::Return) && Some(s.id) != tail {
                early = early.or(Some(s.span.line));
            }
        });
        if let Some(line) = early {
            return Err(CompileError::Other(format!(
                "in {}: line {line}: RETURN before the end of the unit is not supported \
                 (a mid-body RETURN is control flow the node program cannot express)",
                unit.name
            )));
        }
    }
    Ok(())
}

/// Build the [`ObsReport`]: scopes (driver first, then units in compile
/// order) plus the unified metrics document.
fn assemble_obs(
    opts: &CompileOptions,
    scopes: Vec<obs::ScopeObs>,
    compiled: &Compiled,
    cache0: &dhpf_iset::CacheStats,
    dep0: &dhpf_depend::DepStats,
    rows0: &crate::avail::RowStats,
) -> ObsReport {
    let mut m = obs::Metrics::default();
    let r = &compiled.report;
    m.counter("driver.units", compiled.program.units.len() as i64);
    m.counter("comm.reads_examined", r.reads_examined as i64);
    m.counter(
        "comm.reads_eliminated_by_availability",
        r.reads_eliminated_by_availability as i64,
    );
    m.counter(
        "comm.writebacks_suppressed_by_replication",
        r.writebacks_suppressed_by_replication as i64,
    );
    m.counter("comm.pre_messages", r.pre_messages as i64);
    m.counter("comm.pre_volume", r.pre_volume as i64);
    m.counter("comm.post_messages", r.post_messages as i64);
    m.counter("comm.post_volume", r.post_volume as i64);
    m.counter("comm.overlapped_nests", r.overlapped_nests as i64);
    m.counter("comm.messages_saved", r.messages_saved as i64);

    // iset cache activity attributable to this compile (delta against the
    // snapshot taken at compile start; sizes are absolute). Timing- and
    // sharing-dependent, so gauges, not counters. No lookup has no hit
    // rate: `iset.lookups` = 0 says why the rate is missing.
    let cache1 = dhpf_iset::cache_stats();
    let hits = cache1.hits().saturating_sub(cache0.hits());
    let lookups = hits + cache1.misses().saturating_sub(cache0.misses());
    m.gauge("iset.lookups", lookups as f64);
    if lookups > 0 {
        m.gauge("iset.hit_rate", hits as f64 / lookups as f64);
    }
    m.gauge("iset.interned_nodes", cache1.interned_nodes() as f64);
    // the dependence tests' traffic, on the same scheme
    let dep = dhpf_depend::dep_stats().since(dep0);
    m.gauge("depend.pairs", dep.pairs as f64);
    m.gauge("depend.systems", dep.systems as f64);
    m.gauge("depend.memo_hits", dep.memo_hits as f64);
    m.gauge("depend.fallbacks", dep.fallbacks as f64);
    // and the image-row builder's
    let rows = crate::avail::row_stats().since(rows0);
    m.gauge("avail.rows", rows.rows as f64);
    m.gauge("avail.bounds_rows", rows.bounds_rows as f64);
    m.gauge("avail.constraint_rows", rows.constraint_rows as f64);
    m.gauge("avail.owner_sets", rows.owner_sets as f64);
    m.gauge("avail.owner_probes", rows.owner_probes as f64);

    for s in &scopes {
        for sp in &s.spans {
            m.phases.push(obs::PhaseTime {
                scope: s.scope.clone(),
                name: sp.name.to_string(),
                ms: sp.dur_ms(),
            });
        }
    }

    let lines = dhpf_obs::line_index(&compiled.transformed);
    for (uname, ua) in &compiled.analyses {
        for nest in &ua.nests {
            let Some(plan) = ua.plans.get(nest) else {
                continue;
            };
            // messages are coalesced sections; the transfers that carry
            // them are fewer by what per-peer packing saved
            let sections = |phase: &[Transfer<String>]| segments(phase).count();
            let elems =
                |phase: &[Transfer<String>]| phase.iter().map(Transfer::elems).sum::<usize>();
            let (pre, post) = (plan.pre(), plan.post());
            m.nests.push(obs::NestMetrics {
                unit: uname.clone(),
                stmt: nest.0,
                line: lines.get(nest).copied(),
                pipelined: matches!(plan, NestPlan::Pipelined { .. }),
                overlapped: plan.overlap().is_some(),
                pre_messages: sections(pre),
                pre_elems: elems(pre),
                post_messages: sections(post),
                post_elems: elems(post),
                messages_saved: sections(pre) + sections(post) - pre.len() - post.len(),
            });
        }
    }

    ObsReport {
        enabled: opts.observe,
        scopes,
        metrics: m,
    }
}

/// What a pass tells the runner to do next.
enum Step {
    Next,
    /// The pass rewrote the unit's AST: start a new round at `analyze`.
    Restart,
}

/// One row of the per-unit pipeline.
struct Pass {
    /// The span the runner opens around the pass — the phase name
    /// `dhpf-metrics-v1`, `dhpf bench compile` and the benchmark's
    /// `core.phase.*` metrics read.
    name: &'static str,
    /// Does the row run under these flags?
    enabled: fn(&OptFlags) -> bool,
    run: fn(&mut UnitState, &CompileOptions) -> Result<Step, CompileError>,
}

const fn pass(
    name: &'static str,
    enabled: fn(&OptFlags) -> bool,
    run: fn(&mut UnitState, &CompileOptions) -> Result<Step, CompileError>,
) -> Pass {
    Pass { name, enabled, run }
}

/// The per-unit pipeline, in order. `inline` runs once; the rest is one
/// *round*, repeated from [`ROUND`] whenever a pass answers
/// [`Step::Restart`].
const PASSES: [Pass; 6] = [
    pass("inline", |_| true, inline),
    pass("analyze", |_| true, analyze),
    pass(
        "loop-distribution",
        |f| f.loop_distribution,
        loop_distribution,
    ),
    pass("cp-select", |_| true, cp_select),
    pass("propagate", |_| true, propagate),
    pass("comm-plan", |_| true, comm_plan),
];

/// Index in [`PASSES`] where a round starts.
const ROUND: usize = 1;

/// Rounds after which loop distribution is declared non-convergent.
const MAX_ROUNDS: usize = 10;

/// Everything the passes of one unit share.
struct UnitState<'a> {
    /// The whole program; `units[ui]` is rewritten in place, callees
    /// (compiled earlier) are read.
    program: &'a mut Program,
    ui: usize,
    /// Entry CPs of the units compiled so far (§6).
    entry_cps: &'a BTreeMap<String, Cp>,
    ids: IdAlloc,
    /// CPs `inline` fixed for the statements it inlined.
    fixed_cps: CpAssignment,
    report: &'a mut CommReport,
    round: Round,
    // what the last round decided
    cps: CpAssignment,
    plans: BTreeMap<StmtId, NestPlan>,
    entry_cp: Option<Cp>,
}

/// Facts about the unit's current AST: rebuilt by `analyze`, read by the
/// rest of the round.
#[derive(Default)]
struct Round {
    env: DistEnv,
    loops: UnitLoops,
    refs: UnitRefs,
    /// Planned nests in program order.
    nests: Vec<StmtId>,
    nest_scope: BTreeMap<StmtId, StmtId>,
    /// Top-level assignments (IF arms flattened), for the owner-computes
    /// fallback.
    top_assigns: Vec<StmtId>,
    /// Dependences per nest or availability scope, analyzed on first use.
    deps: BTreeMap<StmtId, Vec<Dependence>>,
    /// §5 candidate CPs per assignment, left by `loop-distribution`;
    /// `cp-select` groups over them, or selects by least cost when that
    /// row is off.
    cands: Option<BTreeMap<StmtId, Vec<Candidate>>>,
}

impl Round {
    /// Analyze the dependences of `loop_id` unless this round already has.
    fn need_deps(&mut self, loop_id: StmtId) {
        self.deps
            .entry(loop_id)
            .or_insert_with(|| analyze_loop_deps(loop_id, &self.loops, &self.refs));
    }
}

impl UnitState<'_> {
    fn unit(&self) -> &ProgramUnit {
        &self.program.units[self.ui]
    }
}

/// Run one unit through [`PASSES`]. Callees are already final in
/// `program`; the unit is rewritten in place and its analysis artifacts
/// and entry CP are returned.
fn process_unit(
    program: &mut Program,
    uname: &str,
    opts: &CompileOptions,
    entry_cps: &BTreeMap<String, Cp>,
    ids: IdAlloc,
    report: &mut CommReport,
) -> Result<(UnitAnalysis, Option<Cp>), CompileError> {
    let ui = program
        .units
        .iter()
        .position(|u| u.name == uname)
        .expect("the call graph lists only program units");
    let mut st = UnitState {
        program,
        ui,
        entry_cps,
        ids,
        fixed_cps: CpAssignment::new(),
        report,
        round: Round::default(),
        cps: CpAssignment::new(),
        plans: BTreeMap::new(),
        entry_cp: None,
    };
    let (mut next, mut rounds) = (0, 0);
    while let Some(pass) = PASSES.get(next) {
        if next == ROUND {
            rounds += 1;
            if rounds > MAX_ROUNDS {
                return Err(CompileError::Other(format!(
                    "loop distribution did not converge in {uname}"
                )));
            }
        }
        next += 1;
        if !(pass.enabled)(&opts.flags) {
            continue;
        }
        let _sp = obs::span(pass.name);
        if let Step::Restart = (pass.run)(&mut st, opts)? {
            next = ROUND;
        }
    }
    if st.ids.exhausted() {
        return Err(CompileError::Other(format!(
            "unit {uname} exhausted its synthesized-id chunk"
        )));
    }
    let Round {
        env,
        nests,
        nest_scope,
        ..
    } = st.round;
    let analysis = UnitAnalysis {
        env,
        cps: st.cps,
        plans: st.plans,
        nests,
        nest_scope,
    };
    Ok((analysis, st.entry_cp))
}

/// Record how statement `stmt` got its CP.
fn record_cp(stmt: StmtId, cp: &Cp, how: CpHow, cost: Option<f64>) {
    obs::decide(|| {
        Decision::new(DecisionKind::CpSelect {
            cp: cp.to_string(),
            how,
            cost,
        })
        .stmt(stmt)
    });
}

/// `ON_HOME array(subs)` when every subscript of the write is affine.
fn owner_computes(w: &dhpf_depend::refs::RefInfo) -> Option<Cp> {
    let subs: Option<Vec<_>> = w.subs.iter().cloned().collect();
    Some(Cp::single(CpTerm::on_home(&w.array, subs?)))
}

// ---- the passes -------------------------------------------------------------

/// Inline loop-borne leaf calls, fixing the inlined statements' CPs to
/// the callee's translated entry CP (§6).
fn inline(st: &mut UnitState, opts: &CompileOptions) -> Result<Step, CompileError> {
    let mut body = std::mem::take(&mut st.program.units[st.ui].body);
    let mut inliner = Inliner {
        program: st.program,
        caller: &st.program.units[st.ui],
        entry_cps: opts.flags.interproc.then_some(st.entry_cps),
        ids: &mut st.ids,
        fixed: &mut st.fixed_cps,
        new_params: BTreeMap::new(),
        new_vars: Vec::new(),
        new_commons: Vec::new(),
    };
    body.iter_mut().try_for_each(|s| inliner.stmt(s))?;
    let Inliner {
        new_params,
        new_vars,
        new_commons,
        ..
    } = inliner;
    let unit = &mut st.program.units[st.ui];
    unit.body = body;
    for (k, v) in new_params {
        unit.decls.params.entry(k).or_insert(v);
    }
    for v in new_vars {
        unit.decls.vars.entry(v.name.clone()).or_insert(v);
    }
    for (block, member) in new_commons {
        let commons = &mut unit.decls.commons;
        let at = (commons.iter().position(|(b, _)| *b == block)).unwrap_or_else(|| {
            commons.push((block, Vec::new()));
            commons.len() - 1
        });
        if !commons[at].1.contains(&member) {
            commons[at].1.push(member);
        }
    }
    Ok(Step::Next)
}

/// Resolve distributions, build loop and reference tables, and find the
/// nests to plan.
fn analyze(st: &mut UnitState, opts: &CompileOptions) -> Result<Step, CompileError> {
    let unit = st.unit();
    let env = resolve_dist(unit, &opts.bindings).map_err(CompileError::Distribution)?;
    // every processor must own a non-empty block of every
    // distributed array (empty blocks would break pipeline chains)
    if let Some(grid) = &env.grid {
        for dist in env.arrays.values().filter(|d| d.is_distributed()) {
            for rank in grid.ranks() {
                if dist.owned_box(&grid.coords(rank)).is_none() {
                    return Err(CompileError::Other(format!(
                        "array `{}` has an empty block on processor {rank}: \
                         grid {:?} is too large for its extents",
                        dist.array, grid.extents
                    )));
                }
            }
        }
    }
    let (mut tabs, _) = symtab::resolve(st.program);
    let tab = tabs.remove(&unit.name).unwrap_or_default();
    let top_stmts = flatten_if_arms(&unit.body, unit).map_err(CompileError::Other)?;
    let (nests, nest_scope) = planned_nests(&top_stmts, unit, &env);
    st.round = Round {
        env,
        loops: UnitLoops::build(unit),
        refs: UnitRefs::build(unit, &tab),
        nests,
        nest_scope,
        top_assigns: top_stmts
            .iter()
            .filter(|s| matches!(s.kind, StmtKind::Assign { .. }))
            .map(|s| s.id)
            .collect(),
        deps: BTreeMap::new(),
        cands: None,
    };
    Ok(Step::Next)
}

/// The nests to plan among the unit's top-level statements, and the
/// availability scope of those planned under a transparent wrapper.
///
/// A one-trip wrapper loop (the LOCALIZE idiom `do one = 1, 1`) or a
/// time loop is transparent for communication placement: its child
/// nests are planned individually so an exchange between two children
/// lands *between* them, inside the wrapper, not hoisted above the
/// producer. Beside its child nests such a wrapper may hold statements
/// that need no plan (`CONTINUE`, replicated scalar assignments); any
/// other child makes the whole loop one planned nest, whose carried
/// dependences the planner's staleness rule then answers for. IF blocks
/// are transparent for nest discovery ([`flatten_if_arms`]).
fn planned_nests(
    top_stmts: &[&Stmt],
    unit: &ProgramUnit,
    env: &DistEnv,
) -> (Vec<StmtId>, BTreeMap<StmtId, StmtId>) {
    let mut nests: Vec<StmtId> = Vec::new();
    let mut nest_scope: BTreeMap<StmtId, StmtId> = BTreeMap::new();
    for &s in top_stmts {
        let StmtKind::Do {
            var, lo, hi, body, ..
        } = &s.kind
        else {
            continue;
        };
        let is_nest = |c: &Stmt| matches!(c.kind, StmtKind::Do { .. });
        let child_nests = body.iter().filter(|c| is_nest(c));
        if !is_compute_nest(s) {
            // A loop with CALL statements in its body (the NAS
            // time-step idiom `do step … call x_solve …`): calls
            // compile interprocedurally, but any *inline* Do
            // children are compute nests of their own and still
            // need CPs and communication plans. Register each with
            // self-scope — a call may rewrite any COMMON array, so
            // it is an availability barrier and the children must
            // not share a §7 scope across it.
            nests.extend(child_nests.filter(|c| is_compute_nest(c)).map(|c| c.id));
            continue;
        }
        let one_trip = match (affine(lo, &unit.decls), affine(hi, &unit.decls)) {
            (Some(a), Some(b)) => {
                a.is_constant() && b.is_constant() && a.constant() == b.constant()
            }
            _ => false,
        };
        // a "time loop": the induction variable never subscripts
        // any reference, so each iteration re-runs the same data
        // access pattern — exchanges must re-execute per iteration
        let mut var_subscripts = false;
        s.walk(&mut |st| {
            st.for_each_ref(&mut |r, _| {
                for sub in &r.subs {
                    // a non-affine subscript counts, conservatively
                    var_subscripts |= affine(sub, &unit.decls).is_none_or(|lin| lin.mentions(var));
                }
            });
        });
        let transparent = one_trip || !var_subscripts;
        // no loop inside and no distributed array touched: runs replicated
        let needs_no_plan = |c: &Stmt| {
            let mut plain = true;
            c.walk(&mut |st| {
                plain &= !matches!(st.kind, StmtKind::Do { .. });
                st.for_each_ref(&mut |r, _| {
                    plain &= !env.dist_of(&r.name).is_some_and(|d| d.is_distributed());
                });
            });
            plain
        };
        let child_nests: Vec<StmtId> = child_nests.map(|c| c.id).collect();
        if transparent
            && !child_nests.is_empty()
            && body.iter().all(|c| is_nest(c) || needs_no_plan(c))
        {
            for c in child_nests {
                nests.push(c);
                nest_scope.insert(c, s.id);
            }
        } else {
            nests.push(s.id);
        }
    }
    (nests, nest_scope)
}

/// §5 grouping: a nest whose loop-independent dependences admit no
/// common CP choice is selectively distributed, and the round restarts
/// on the rewritten AST.
fn loop_distribution(st: &mut UnitState, _: &CompileOptions) -> Result<Step, CompileError> {
    let mut cands: BTreeMap<StmtId, Vec<Candidate>> = BTreeMap::new();
    for nest in st.round.nests.clone() {
        st.round.need_deps(nest);
        let r = &st.round;
        let stmts = select::assignments_in(nest, &r.loops, &r.refs);
        cands.extend(
            stmts
                .iter()
                .map(|s| (*s, select::candidates(*s, &r.refs, &r.env))),
        );
        let marked = group_statements(&stmts, &cands, &r.deps[&nest]).marked;
        // distribute at the deepest loop containing the first pair
        let body = &mut st.program.units[st.ui].body;
        if distribute_nest(body, nest, &r.loops, &r.deps[&nest], &marked, &mut st.ids) {
            return Ok(Step::Restart);
        }
    }
    st.round.cands = Some(cands);
    Ok(Step::Next)
}

/// Local CP selection per nest, on top of the CPs `inline` fixed.
fn cp_select(st: &mut UnitState, _: &CompileOptions) -> Result<Step, CompileError> {
    st.cps = st.fixed_cps.clone();
    for nest in st.round.nests.clone() {
        st.round.need_deps(nest);
        let r = &st.round;
        // NEW/LOCALIZE definition statements are partitioned by
        // propagation, not by local selection — but only inside a
        // loop whose directive manages the written variable. The
        // same array written elsewhere (e.g. its initialization
        // nest) still needs an ordinary owner-computes CP; leaving
        // it unassigned would compile it as replicated and write
        // outside the local window.
        let selectable: Vec<StmtId> = select::assignments_in(nest, &r.loops, &r.refs)
            .into_iter()
            .filter(|s| {
                let Some(w) = r.refs.write_of(*s) else {
                    return true;
                };
                let enclosing = r.loops.nest_of.get(s).map_or(&[][..], |l| l);
                !enclosing.iter().any(|l| {
                    let d = &r.loops.loops[l].dir;
                    d.new_vars.contains(&w.array) || d.localize_vars.contains(&w.array)
                })
            })
            .collect();
        // §5 grouping restricts choices; statements already assigned
        // (inlined, or chosen with an earlier nest) keep their CP
        let (chosen, how) = match &r.cands {
            Some(cands) => {
                let grouping = group_statements(&selectable, cands, &r.deps[&nest]);
                (assign_group_cps(&grouping, cands), CpHow::Grouped)
            }
            None => (
                select::select_for_loop(&selectable, &st.cps, &r.refs, &r.env),
                CpHow::LeastCost,
            ),
        };
        for (id, cp) in chosen {
            if st.cps.contains_key(&id) {
                continue;
            }
            if obs::is_active() {
                let cost = select::stmt_cost(id, &cp, &r.refs, &r.env);
                record_cp(id, &cp, how.clone(), Some(cost));
            }
            st.cps.insert(id, cp);
        }
    }
    for (id, cp) in &st.fixed_cps {
        record_cp(*id, cp, CpHow::FixedByInlining, None);
    }
    Ok(Step::Next)
}

/// §4.1 / §4.2 on every directive loop of the unit (a LOCALIZE directive
/// may sit on a one-trip wrapper that is not itself a planned nest), then
/// owner-computes for whatever top-level assignment is still unassigned.
/// The recorder's last-payload dedup keeps only the converged CP of the
/// statements the fixpoint revisits.
fn propagate(st: &mut UnitState, opts: &CompileOptions) -> Result<Step, CompileError> {
    let (r, cps) = (&st.round, &mut st.cps);
    let mut dir_loops: Vec<StmtId> = r
        .loops
        .loops
        .iter()
        .filter(|(_, info)| !info.dir.is_empty())
        .map(|(id, _)| *id)
        .collect();
    dir_loops.sort_by_key(|id| std::cmp::Reverse(r.loops.order[id]));
    // §4 propagation iterates to a fixpoint: a LOCALIZE/NEW
    // definition may read another managed variable, whose CP
    // only becomes final after ITS uses were propagated
    // (rho_i consumed by the square/qs definitions in
    // compute_rhs is the canonical case)
    for _pass in 0..3 {
        for &dl in &dir_loops {
            let dir = &r.loops.loops[&dl].dir;
            if opts.flags.privatizable_cp {
                for (s, var) in propagate_new_cps(dl, &r.loops, &r.refs, cps) {
                    if let Some(cp) = cps.get(&s) {
                        record_cp(s, cp, CpHow::PropagatedNew(var), None);
                    }
                }
            } else {
                // strawman: replicate NEW definitions
                for var in &dir.new_vars {
                    for w in writes_of_var(dl, var, &r.loops, &r.refs) {
                        let cp = Cp::replicated();
                        record_cp(w.stmt, &cp, CpHow::ReplicatedStrawman, None);
                        cps.insert(w.stmt, cp);
                    }
                }
            }
            if opts.flags.localize {
                for (s, var) in apply_localize(dl, &r.loops, &r.refs, cps) {
                    if let Some(cp) = cps.get(&s) {
                        record_cp(s, cp, CpHow::Localized(var), None);
                    }
                }
            } else {
                for var in &dir.localize_vars {
                    for w in writes_of_var(dl, var, &r.loops, &r.refs) {
                        if let Some(cp) = owner_computes(w) {
                            record_cp(w.stmt, &cp, CpHow::LocalizeOff(var.clone()), None);
                            cps.insert(w.stmt, cp);
                        }
                    }
                }
            }
        }
    }

    // owner-computes for any remaining top-level assignments
    // (including ones inside replicated IF arms)
    for &s in &r.top_assigns {
        let Some(w) = r.refs.write_of(s) else {
            continue;
        };
        if !r.env.dist_of(&w.array).is_some_and(|d| d.is_distributed()) || cps.contains_key(&s) {
            continue;
        }
        if let Some(cp) = owner_computes(w) {
            record_cp(s, &cp, CpHow::OwnerComputes, None);
            cps.insert(s, cp);
        }
    }
    Ok(Step::Next)
}

/// Communication plans per nest, then the unit's entry CP for its
/// callers (§6).
fn comm_plan(st: &mut UnitState, opts: &CompileOptions) -> Result<Step, CompileError> {
    st.plans.clear();
    if st.round.env.grid.is_some() {
        for nest in st.round.nests.clone() {
            let _sp = obs::span_detail("comm-plan", || format!("nest s{}", nest.0));
            let scope = st.round.nest_scope.get(&nest).copied().unwrap_or(nest);
            st.round.need_deps(nest);
            st.round.need_deps(scope);
            let r = &st.round;
            let plan = crate::comm::plan_nest_scoped(
                nest,
                scope,
                (scope != nest).then(|| &r.deps[&scope][..]),
                &r.loops,
                &r.refs,
                &r.deps[&nest],
                &st.cps,
                &r.env,
                &opts.flags,
                opts.granularity,
                st.report,
            )
            .map_err(|e| CompileError::Comm(st.unit().name.clone(), e))?;
            st.plans.insert(nest, plan);
        }
    }
    st.entry_cp = entry_cp(st.unit(), &st.cps, &st.round.refs, &st.round.env);
    if let Some(cp) = &st.entry_cp {
        obs::decide(|| Decision::new(DecisionKind::EntryCp { cp: cp.to_string() }));
    }
    Ok(Step::Next)
}

/// Code generation and result assembly, after every unit has been
/// analyzed and rewritten in `program`.
fn finish_compile(
    program: Program,
    opts: &CompileOptions,
    analyses: BTreeMap<String, UnitAnalysis>,
    mut report: CommReport,
) -> Result<Compiled, CompileError> {
    let main_unit = program
        .main()
        .ok_or_else(|| CompileError::Other("no main program".into()))?
        .name
        .clone();
    let grid = analyses
        .values()
        .find_map(|a| a.env.grid.clone())
        .ok_or_else(|| CompileError::Other("no PROCESSORS grid anywhere".into()))?;

    let mut globals = GlobalRegistry::default();
    let unit_refs: Vec<&ProgramUnit> = program.units.iter().collect();
    let unit_index: BTreeMap<String, usize> = program
        .units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.name.clone(), i))
        .collect();

    // register arrays for every unit first (so cross-unit commons exist)
    let mut provenance: Vec<PlanProv> = Vec::new();
    let (no_cps, no_plans) = (CpAssignment::new(), BTreeMap::new());
    for u in &program.units {
        let mut scratch = Vec::new();
        let mut cx = UnitCx::new(
            u,
            &analyses[&u.name].env,
            &no_cps,
            &no_plans,
            &opts.bindings,
            &mut globals,
            0,
            &mut scratch,
        );
        cx.register_arrays().map_err(CompileError::Codegen)?;
    }

    let mut units: Vec<CompiledUnit> = Vec::with_capacity(program.units.len());
    let mut tag_base = 1u64;
    for u in &program.units {
        let ua = &analyses[&u.name];
        let mut cx = UnitCx::new(
            u,
            &ua.env,
            &ua.cps,
            &ua.plans,
            &opts.bindings,
            &mut globals,
            tag_base,
            &mut provenance,
        );
        cx.register_arrays().map_err(CompileError::Codegen)?;
        let ops = cx
            .compile_body(&u.body, &unit_index, &unit_refs)
            .map_err(CompileError::Codegen)?;
        tag_base = cx.final_tag() + 16;
        let mut unit = cx.finish(ops);
        if opts.flags.aggregate {
            // cross-nest packing over the lowered op stream: messages of
            // adjacent comm ops that the nest writes cannot invalidate
            // merge into the earlier op's per-peer transfers
            report.messages_saved += crate::codegen::fuse_adjacent_comm(&mut unit.ops, &provenance);
        }
        units.push(unit);
    }

    let cp_dump: BTreeMap<String, Vec<(StmtId, String)>> = analyses
        .iter()
        .map(|(u, ua)| {
            let cps = ua.cps.iter().map(|(id, cp)| (*id, cp.to_string()));
            (u.clone(), cps.collect())
        })
        .collect();

    let main = unit_index[&main_unit];
    Ok(Compiled {
        program: NodeProgram {
            grid,
            arrays: globals.arrays,
            units,
            unit_index,
            main,
            provenance,
        },
        report,
        cp_dump,
        transformed: program,
        analyses,
        obs: ObsReport::default(),
    })
}

/// Does an expression read any array (or call any function — the
/// subset cannot tell the two apart syntactically)?
fn expr_reads_array(e: &dhpf_fortran::ast::Expr, unit: &ProgramUnit) -> bool {
    use dhpf_fortran::ast::Expr;
    match e {
        Expr::Ref(r) => !r.subs.is_empty() || unit.decls.is_array(&r.name),
        Expr::Bin(_, a, b, _) => expr_reads_array(a, unit) || expr_reads_array(b, unit),
        Expr::Un(_, a, _) => expr_reads_array(a, unit),
        Expr::Int(..) | Expr::Real(..) | Expr::Logical(..) => false,
    }
}

/// The unit body with IF blocks flattened away: scalar branch
/// conditions are replicated control flow, so the statements of every
/// arm participate in nest discovery and CP selection exactly as if
/// they stood at top level (codegen later re-wraps them in the
/// conditional, in place). An IF whose condition reads an array cannot
/// be treated this way; it is an error when its arms contain loops or
/// assignments that would then silently compile as replicated.
fn flatten_if_arms<'a>(body: &'a [Stmt], unit: &ProgramUnit) -> Result<Vec<&'a Stmt>, String> {
    let mut out = Vec::new();
    for s in body {
        if let StmtKind::If { arms } = &s.kind {
            let replicable = arms
                .iter()
                .filter_map(|(c, _)| c.as_ref())
                .all(|c| !expr_reads_array(c, unit));
            if !replicable {
                let has_work = arms.iter().any(|(_, b)| {
                    b.iter()
                        .any(|t| matches!(t.kind, StmtKind::Do { .. } | StmtKind::Assign { .. }))
                });
                if has_work {
                    return Err(format!(
                        "in {}: IF condition reads an array; only replicated \
                         scalar control flow is supported around compute \
                         statements",
                        unit.name
                    ));
                }
                continue;
            }
            for (_, b) in arms {
                out.extend(flatten_if_arms(b, unit)?);
            }
        } else {
            out.push(s);
        }
    }
    Ok(out)
}

/// A compute nest contains no calls (after inlining).
fn is_compute_nest(s: &Stmt) -> bool {
    let mut has_call = false;
    s.walk(&mut |st| {
        if matches!(st.kind, StmtKind::Call { .. }) {
            has_call = true;
        }
    });
    !has_call
}

fn max_ids(p: &Program) -> (u32, u32) {
    let mut smax = 0;
    let mut rmax = 0;
    p.for_each_stmt(&mut |s| {
        smax = smax.max(s.id.0);
        s.for_each_ref(&mut |r, _| rmax = rmax.max(r.id.0));
    });
    (smax + 1, rmax + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::node::run_node_program;
    use crate::exec::serial::run_serial;
    use dhpf_fortran::parse;
    use dhpf_spmd::machine::MachineConfig;

    /// Compile with P procs, run, and compare every common/main array
    /// against the serial interpreter — except privatizable (NEW)
    /// temporaries, whose per-processor values are partial by design.
    fn verify(src: &str, nprocs: usize, opts: CompileOptions) -> crate::exec::node::ExecResult {
        let p = parse(src).expect("parse");
        let mut private: Vec<String> = Vec::new();
        for u in &p.units {
            u.for_each_stmt(&mut |s| {
                if let dhpf_fortran::ast::StmtKind::Do { dir, .. } = &s.kind {
                    private.extend(dir.new_vars.iter().cloned());
                }
            });
        }
        let serial = run_serial(&p, &opts.bindings).expect("serial run");
        let compiled = compile(&p, &opts).unwrap_or_else(|e| panic!("compile: {e}"));
        assert_eq!(compiled.program.grid.nprocs() as usize, nprocs, "grid size");
        let result =
            run_node_program(&compiled.program, MachineConfig::sp2(nprocs)).expect("parallel run");
        for (name, sa) in &serial.arrays {
            if private.iter().any(|v| v == name) {
                continue;
            }
            let Some(pa) = result.arrays.get(name) else {
                continue;
            };
            assert_eq!(sa.lo, pa.lo, "{name} bounds");
            for (i, (x, y)) in sa.data.iter().zip(&pa.data).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "{name}[flat {i}]: serial {x} vs parallel {y}"
                );
            }
        }
        result
    }

    const JACOBI: &str = "
      program jac
      parameter (n = 32)
      integer i, it
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = i * i * 1.0d0
         b(i) = 0.0d0
      enddo
      do it = 1, 3
         do i = 2, n - 1
            b(i) = (a(i - 1) + a(i + 1)) * 0.5d0
         enddo
         do i = 2, n - 1
            a(i) = b(i)
         enddo
      enddo
      end
";

    #[test]
    fn jacobi_1d_matches_serial() {
        let r = verify(JACOBI, 4, CompileOptions::new());
        assert!(r.run.stats.messages > 0, "stencil must communicate");
        assert!(r.run.virtual_time > 0.0);
    }

    #[test]
    fn jacobi_works_on_one_processor() {
        let src = JACOBI.replace("p(4)", "p(1)");
        let r = verify(&src, 1, CompileOptions::new());
        assert_eq!(r.run.stats.messages, 0);
    }

    const STENCIL_2D: &str = "
      program st2
      parameter (n = 16)
      integer i, j, it
      double precision u(n, n), v(n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: u, v
      do j = 1, n
         do i = 1, n
            u(i, j) = i + 100.0d0 * j
            v(i, j) = 0.0d0
         enddo
      enddo
      do it = 1, 2
         do j = 2, n - 1
            do i = 2, n - 1
               v(i, j) = (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1)) * 0.25d0
            enddo
         enddo
         do j = 2, n - 1
            do i = 2, n - 1
               u(i, j) = v(i, j)
            enddo
         enddo
      enddo
      end
";

    #[test]
    fn stencil_2d_matches_serial() {
        verify(STENCIL_2D, 4, CompileOptions::new());
    }

    const LOCALIZED: &str = "
      program loc
      parameter (n = 16)
      integer i, j, one
      double precision u(n, n), rhs(n, n), rho(n, n), qs(n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: u, rhs, rho, qs
      do j = 1, n
         do i = 1, n
            u(i, j) = i * 1.0d0 + j
            rhs(i, j) = 0.0d0
         enddo
      enddo
!hpf$ independent, localize(rho, qs)
      do one = 1, 1
         do j = 1, n
            do i = 1, n
               rho(i, j) = 1.0d0 / u(i, j)
               qs(i, j) = u(i, j) * u(i, j)
            enddo
         enddo
         do j = 2, n - 1
            do i = 2, n - 1
               rhs(i, j) = rho(i+1, j) + rho(i-1, j) + rho(i, j+1) + rho(i, j-1)
     &                   + qs(i+1, j) + qs(i-1, j)
            enddo
         enddo
      enddo
      end
";

    #[test]
    fn localize_matches_serial_and_kills_rho_comm() {
        let p = parse(LOCALIZED).expect("parse");
        let opts = CompileOptions::new();
        let compiled = compile(&p, &opts).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            compiled.report.reads_eliminated_by_availability >= 4,
            "report: {:?}",
            compiled.report
        );
        verify(LOCALIZED, 4, opts);
    }

    #[test]
    fn localize_off_still_correct_but_more_comm() {
        // aggregation off in both arms: per-peer packing folds the
        // extra exchanges localize avoids into the same envelopes, so
        // the runtime message count can't isolate localize's effect
        let mut on_opts = CompileOptions::new();
        on_opts.flags.aggregate = false;
        let on = verify(LOCALIZED, 4, on_opts);
        let mut opts = CompileOptions::new();
        opts.flags.localize = false;
        opts.flags.aggregate = false;
        let off = verify(LOCALIZED, 4, opts);
        assert!(
            off.run.stats.messages > on.run.stats.messages,
            "localize should reduce messages: on={} off={}",
            on.run.stats.messages,
            off.run.stats.messages
        );
    }

    const PRIVATIZABLE: &str = "
      program priv
      parameter (n = 16)
      integer i, j
      double precision lhs(n, n), rhs(n, n), cv(0:17)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: lhs, rhs
      do j = 1, n
         do i = 1, n
            rhs(i, j) = i + 2.0d0 * j
         enddo
      enddo
!hpf$ independent, new(cv)
      do i = 1, n
         do j = 0, 17
            cv(j) = i * 0.5d0 + j
         enddo
         do j = 2, n - 1
            lhs(i, j) = cv(j - 1) + cv(j + 1) + rhs(i, j)
         enddo
      enddo
      end
";

    #[test]
    fn privatizable_matches_serial() {
        let r = verify(PRIVATIZABLE, 4, CompileOptions::new());
        // cv is serial storage computed redundantly: zero comm for it;
        // rhs/lhs aligned: the NEW nest needs no messages at all
        let _ = r;
    }

    #[test]
    fn privatizable_off_replicates_but_stays_correct() {
        let mut opts = CompileOptions::new();
        opts.flags.privatizable_cp = false;
        verify(PRIVATIZABLE, 4, opts);
    }

    const SWEEP: &str = "
      program swp
      parameter (n = 16)
      integer i, j
      double precision lhs(n, n)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: lhs
      do j = 1, n
         do i = 1, n
            lhs(i, j) = i * 1.0d0 + j * j
         enddo
      enddo
      do j = 2, n
         do i = 1, n
            lhs(i, j) = lhs(i, j) + lhs(i, j - 1) * 0.5d0
         enddo
      enddo
      end
";

    #[test]
    fn pipelined_sweep_matches_serial() {
        let r = verify(SWEEP, 4, CompileOptions::new());
        assert!(
            r.run.stats.messages >= 3,
            "pipeline must hand off between procs"
        );
    }

    #[test]
    fn backward_sweep_matches_serial() {
        let src = SWEEP
            .replace("do j = 2, n\n", "do j = n - 1, 1, -1\n")
            .replace("lhs(i, j - 1)", "lhs(i, j + 1)");
        verify(&src, 4, CompileOptions::new());
    }

    const CALLS: &str = "
      program drv
      parameter (n = 16)
      integer i, j
      double precision u(n, n), r(n, n)
      common /flds/ u, r
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: u, r
      do j = 1, n
         do i = 1, n
            u(i, j) = i + j * 3.0d0
         enddo
      enddo
      call smooth
      end

      subroutine smooth
      parameter (n = 16)
      integer i, j
      double precision u(n, n), r(n, n)
      common /flds/ u, r
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: u, r
      do j = 2, n - 1
         do i = 2, n - 1
            r(i, j) = (u(i-1,j) + u(i+1,j)) * 0.5d0
         enddo
      enddo
      end
";

    #[test]
    fn phase_call_through_common_matches_serial() {
        verify(CALLS, 4, CompileOptions::new());
    }

    #[test]
    fn timestep_driver_loop_with_calls() {
        let src = CALLS.replace(
            "      call smooth\n",
            "      do it = 1, 3\n         call smooth\n      enddo\n",
        );
        verify(&src, 4, CompileOptions::new());
    }

    /// `main → b → c`, `main → d`: bottom-up (DFS) order is c, b, d, main
    /// but the compile order is depth-major — c, d, b, main. `b` inlines
    /// the leaf `c`; the nest of `d` needs a §5 distribution.
    const DIAMOND: &str = "
      program main
!hpf$ processors p(2)
      call b
      call d
      end

      subroutine b
      parameter (n = 16)
      integer i, j
      double precision a(n, n), e(n, n), f(n, n), g(n, n), h(n, n)
      common /flds/ a, e, f, g, h
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: a, e, f, g, h
      do j = 1, n
         do i = 1, n
            e(i, j) = i * 1.0d0 + j * j
            g(i, j) = i - j * 0.5d0
            call c(e, i, j)
         enddo
      enddo
      end

      subroutine c(x, i, j)
      parameter (n = 16)
      integer i, j
      double precision x(n, n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: x
      x(i, j) = x(i, j) + 1.0d0
      end

      subroutine d
      parameter (n = 16)
      integer i, j
      double precision a(n, n), e(n, n), f(n, n), g(n, n), h(n, n)
      common /flds/ a, e, f, g, h
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: a, e, f, g, h
      do j = 1, n
         do i = 2, n - 1
            a(i, j) = e(i, j) + 1.0d0
            f(i + 1, j) = a(i, j) + g(i + 1, j)
            h(i + 1, j) = g(i + 1, j) + f(i + 1, j)
         enddo
      enddo
      end
";

    /// Units compile depth-major, but the id chunk a unit synthesizes
    /// from is keyed by its bottom-up index: `b` (index 1) and `d`
    /// (index 2) keep their chunks though `d` compiles first.
    #[test]
    fn compile_order_is_depth_major_and_id_chunks_are_bottom_up() {
        verify(DIAMOND, 2, CompileOptions::new());
        let p = parse(DIAMOND).unwrap();
        let compiled = compile(&p, &CompileOptions::new().observed()).unwrap();
        let scopes: Vec<&str> = compiled.obs.scopes.iter().map(|s| &s.scope[..]).collect();
        assert_eq!(scopes, ["driver", "c", "d", "b", "main"]);

        let (stmt_base, _) = max_ids(&p);
        let first_synthesized = |unit: &str| {
            let mut ids = Vec::new();
            let unit = compiled.transformed.unit(unit).unwrap();
            unit.for_each_stmt(&mut |s| ids.extend((s.id.0 >= stmt_base).then_some(s.id.0)));
            ids.into_iter().min()
        };
        assert_eq!(first_synthesized("c"), None);
        assert_eq!(first_synthesized("b"), Some(stmt_base + ID_CHUNK));
        assert_eq!(first_synthesized("d"), Some(stmt_base + 2 * ID_CHUNK));
        assert_eq!(first_synthesized("main"), None);
    }

    /// A unit scope's top-level spans are the pass table: names in table
    /// order, a disabled row absent, a restart visible as `analyze`
    /// appearing again (the nest of `d` is split twice).
    #[test]
    fn unit_spans_follow_the_pass_table() {
        let spans_of = |compiled: &Compiled, unit: &str| -> Vec<&'static str> {
            let scope = compiled.obs.scopes.iter().find(|s| s.scope == unit);
            scope.unwrap().spans.iter().map(|sp| sp.name).collect()
        };
        let p = parse(DIAMOND).unwrap();
        let compiled = compile(&p, &CompileOptions::new().observed()).unwrap();
        for scope in &compiled.obs.scopes[1..] {
            let mut next = 0;
            for sp in &scope.spans {
                let at = PASSES.iter().position(|pass| pass.name == sp.name);
                let at = at.unwrap_or_else(|| panic!("{}: stray span {}", scope.scope, sp.name));
                assert!(
                    at >= next || at == ROUND,
                    "{}: {} out of order",
                    scope.scope,
                    sp.name
                );
                next = at + 1;
            }
            assert_eq!(next, PASSES.len(), "{}: pipeline cut short", scope.scope);
        }
        assert_eq!(
            spans_of(&compiled, "d"),
            [
                "inline",
                "analyze",
                "loop-distribution",
                "analyze",
                "loop-distribution",
                "analyze",
                "loop-distribution",
                "cp-select",
                "propagate",
                "comm-plan"
            ]
        );

        let mut opts = CompileOptions::new().observed();
        opts.flags.loop_distribution = false;
        let compiled = compile(&parse(JACOBI).unwrap(), &opts).unwrap();
        assert_eq!(
            spans_of(&compiled, "jac"),
            ["inline", "analyze", "cp-select", "propagate", "comm-plan"]
        );
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;
    use crate::exec::node::run_node_program;
    use crate::exec::serial::run_serial;
    use dhpf_fortran::parse;
    use dhpf_spmd::machine::MachineConfig;

    /// §5 end-to-end: a chain of loop-independent dependences with no
    /// common CP choice forces a selective distribution; the transformed
    /// program must still match serial semantics.
    const CONFLICT: &str = "
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

    #[test]
    fn selective_distribution_preserves_semantics() {
        let p = parse(CONFLICT).unwrap();
        let serial = run_serial(&p, &Default::default()).unwrap();
        let compiled = compile(&p, &CompileOptions::new()).unwrap();
        let r = run_node_program(&compiled.program, MachineConfig::sp2(2)).unwrap();
        for name in ["a", "f", "h"] {
            let s = &serial.arrays[name];
            let q = &r.arrays[name];
            for (i, (x, y)) in s.data.iter().zip(&q.data).enumerate() {
                assert!((x - y).abs() < 1e-9, "{name}[{i}]: {x} vs {y}");
            }
        }
    }

    #[test]
    fn distribution_splits_the_loop() {
        // the compiled unit should contain MORE top-level-equivalent
        // loops than the source (the i-loop split in two)
        let p = parse(CONFLICT).unwrap();
        let compiled = compile(&p, &CompileOptions::new()).unwrap();
        fn count_loops(ops: &[crate::codegen::NodeOp]) -> usize {
            ops.iter()
                .map(|op| match op {
                    crate::codegen::NodeOp::Loop { body, .. } => 1 + count_loops(body),
                    crate::codegen::NodeOp::Pipeline { body, .. } => 1 + count_loops(body),
                    crate::codegen::NodeOp::OverlapNest { levels, body, .. } => {
                        levels.len() + count_loops(body)
                    }
                    crate::codegen::NodeOp::If { arms } => {
                        arms.iter().map(|(_, b)| count_loops(b)).sum()
                    }
                    _ => 0,
                })
                .sum()
        }
        let n_compiled = count_loops(&compiled.program.units[0].ops);
        // source has 4 loops (2 nests × 2 levels); the split adds one
        assert!(
            n_compiled >= 5,
            "expected a distributed loop, got {n_compiled} loops"
        );
    }

    #[test]
    fn distribution_off_is_never_miscompiled() {
        // without §5, either the cost-based selection happens to align
        // the CPs (then the run must match serial) or the program needs
        // inner-loop communication and the compiler must refuse — it may
        // never silently produce stale data
        let p = parse(CONFLICT).unwrap();
        let mut opts = CompileOptions::new();
        opts.flags.loop_distribution = false;
        match compile(&p, &opts) {
            Err(CompileError::Comm(_, e)) => {
                assert!(e.0.contains("inner-loop"), "{e}");
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(compiled) => {
                let serial = run_serial(&p, &Default::default()).unwrap();
                let r = run_node_program(&compiled.program, MachineConfig::sp2(2)).unwrap();
                for name in ["a", "f", "h"] {
                    let s = &serial.arrays[name];
                    let q = &r.arrays[name];
                    for (i, (x, y)) in s.data.iter().zip(&q.data).enumerate() {
                        assert!((x - y).abs() < 1e-9, "{name}[{i}]: {x} vs {y}");
                    }
                }
            }
        }
    }

    /// A program where no aligned choice exists at all: the write's only
    /// candidate conflicts with the consumer. With §5 off this MUST be
    /// rejected (inner-loop communication).
    /// The rendered error, checked for the run of spaces a lost `\`
    /// line continuation leaves inside a message.
    fn rendered_error(src: &str, opts: &CompileOptions) -> String {
        let Err(err) = compile(&parse(src).unwrap(), opts) else {
            panic!("must not compile");
        };
        let text = err.to_string();
        assert!(!text.contains("  "), "run of spaces in: {text}");
        text
    }

    #[test]
    fn grid_larger_than_a_distributed_extent_is_a_clean_error() {
        let src = "
      program t
      parameter (n = 2)
      integer i
      double precision a(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a
      do i = 1, n
         a(i) = 1.0d0
      enddo
      end
";
        let text = rendered_error(src, &CompileOptions::new());
        assert!(
            text.contains("array `a` has an empty block on processor 2: grid [4] is too large"),
            "{text}"
        );
    }

    #[test]
    fn cross_owner_producer_consumer_in_one_nest_is_a_clean_error() {
        // f(i) is produced on its owner and, in the same iteration,
        // consumed by the owners of h(i - 1) and h(i + 1): no single
        // placement of the second statement is local to the first
        let src = "
      program t
      parameter (n = 16)
      integer i
      double precision f(n), g(n), h(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: f, g, h
      do i = 2, n - 1
         f(i) = g(i) * 2.0d0
         h(i - 1) = f(i) + h(i + 1)
      enddo
      end
";
        let mut opts = CompileOptions::new();
        opts.flags.loop_distribution = false;
        let text = rendered_error(src, &opts);
        assert!(
            text.contains(
                "read of `f` needs inner-loop communication (value produced on another \
                 processor in the same nest); communication-sensitive loop distribution"
            ),
            "{text}"
        );
    }

    #[test]
    fn unalignable_program_rejected_without_distribution() {
        let src = "
      program t
      parameter (n = 16)
      integer i, j
      double precision f(n, n), g(n, n), h(n, n)
!hpf$ processors p(2)
!hpf$ distribute (block, *) onto p :: f, g, h
      do j = 1, n
         do i = 2, n - 1
            f(i + 1, j) = g(i + 1, j) * 2.0d0
            h(i, j) = f(i + 1, j) + g(i, j)
         enddo
      enddo
      end
";
        // h reads f(i+1) in the same iteration; f's owner-computes
        // candidates are all at i+1 while h writes at i — the cost search
        // may or may not align them, but a stale compile is forbidden
        let p = parse(src).unwrap();
        let mut opts = CompileOptions::new();
        opts.flags.loop_distribution = false;
        match compile(&p, &opts) {
            Err(CompileError::Comm(_, e)) => assert!(e.0.contains("inner-loop"), "{e}"),
            Err(other) => panic!("unexpected error {other}"),
            Ok(compiled) => {
                let serial = run_serial(&p, &Default::default()).unwrap();
                let r = run_node_program(&compiled.program, MachineConfig::sp2(2)).unwrap();
                let s = &serial.arrays["h"];
                let q = &r.arrays["h"];
                for (i, (x, y)) in s.data.iter().zip(&q.data).enumerate() {
                    assert!((x - y).abs() < 1e-9, "h[{i}]: {x} vs {y}");
                }
            }
        }
    }
}
