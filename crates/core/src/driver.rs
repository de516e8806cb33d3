//! The compilation driver: orchestrates the full dHPF pipeline.
//!
//! ```text
//! parse → resolve symbols → call graph (bottom-up, §6)
//!   → inline loop-borne leaf calls (with translated entry CPs)
//!   → per unit: loops/refs/deps → candidate CPs
//!        → §5 grouping (+ selective loop distribution, re-analyzing)
//!        → local CP selection → §4.1 NEW propagation → §4.2 LOCALIZE
//!        → communication planning (availability §7, pipelining)
//!   → code generation → NodeProgram
//! ```
//!
//! Every paper optimization can be toggled off through [`OptFlags`] for
//! the ablation experiments.

use crate::codegen::{CodegenError, CompiledUnit, GlobalRegistry, NodeProgram, PlanProv, UnitCx};
use crate::comm::{CommError, CommReport, NestPlan};
use crate::cp::Cp;
use crate::distrib::{resolve as resolve_dist, DistEnv, DistError};
use crate::interproc::{entry_cp, translate_to_callsite};
use crate::localize::apply_localize;
use crate::loopdist::{assign_group_cps, group_statements, partition_loop};
use crate::privat::propagate_new_cps;
use crate::select::{self, CpAssignment};
use dhpf_depend::callgraph::CallGraph;
use dhpf_depend::dep::analyze_loop_deps;
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::UnitRefs;
use dhpf_fortran::ast::{
    ArrayRef, Decls, Expr, Program, ProgramUnit, RefId, Stmt, StmtId, StmtKind,
};
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
    /// Worker threads for per-unit analysis/planning. `0` or `1` means
    /// serial. Output is byte-identical regardless of this value: units
    /// are scheduled in call-graph waves, every unit draws synthesized
    /// statement/reference ids from its own deterministic chunk, and
    /// results are merged in bottom-up order.
    pub jobs: usize,
    /// Record span traces and the decision log (`Compiled::obs`). Off by
    /// default: every probe in the pipeline then costs one relaxed
    /// atomic load. Metrics are collected either way.
    pub observe: bool,
}

impl CompileOptions {
    pub fn new() -> Self {
        CompileOptions {
            bindings: BTreeMap::new(),
            flags: OptFlags::default(),
            granularity: 4,
            jobs: 0,
            observe: false,
        }
    }

    pub fn bind(mut self, name: &str, value: i64) -> Self {
        self.bindings.insert(name.to_string(), value);
        self
    }

    /// Enable parallel per-unit compilation with up to `jobs` workers.
    pub fn parallel(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
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
    /// report, and the transformed AST. Serial and parallel driver runs
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
/// Unit `k` in bottom-up order allocates from `base + k·CHUNK`, making id
/// assignment independent of scheduling: serial and parallel compilation
/// synthesize identical ids.
const ID_CHUNK: u32 = 1 << 20;

/// Everything `process_unit` derives for one program unit, merged into the
/// driver state in deterministic bottom-up order.
struct UnitOutcome {
    /// The unit after inlining and loop distribution.
    unit: ProgramUnit,
    env: DistEnv,
    cps: CpAssignment,
    plans: BTreeMap<StmtId, NestPlan>,
    nests: Vec<StmtId>,
    nest_scope: BTreeMap<StmtId, StmtId>,
    entry_cp: Option<Cp>,
    report: CommReport,
    /// Completed observation scope (when `CompileOptions::observe`).
    obs: Option<obs::ScopeObs>,
}

/// Compile an HPF program into an SPMD node program.
///
/// Per-unit analysis/planning is scheduled in call-graph waves: a unit's
/// wave is one past the deepest wave of its callees, so every unit only
/// reads state (callee bodies, entry CPs) produced by strictly earlier
/// waves. Units within a wave are independent and — when
/// [`CompileOptions::jobs`] > 1 — run on worker threads; results are
/// merged in bottom-up order either way, so the output is byte-identical
/// to a serial run.
pub fn compile(program: &Program, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let epoch = Instant::now();
    let cache0 = dhpf_iset::cache_stats();
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
    }

    // ---- call graph / §6 ---------------------------------------------------
    let _sp_callgraph = obs::span("callgraph");
    let graph = CallGraph::build(&program);
    let order: Vec<String> = graph
        .bottom_up()
        .ok_or(CompileError::Recursion)?
        .into_iter()
        .map(|s| s.to_string())
        .collect();

    // deterministic per-unit id chunks for synthesized statements/refs
    let (stmt_base, ref_base) = max_ids(&program);
    let last = order.len().saturating_sub(1) as u64;
    if stmt_base as u64 + (last + 1) * ID_CHUNK as u64 > u32::MAX as u64
        || ref_base as u64 + (last + 1) * ID_CHUNK as u64 > u32::MAX as u64
    {
        return Err(CompileError::Other(format!(
            "too many units ({}) for deterministic id chunking",
            order.len()
        )));
    }

    // wave index per unit: 0 for leaves, 1 + max(callee wave) otherwise
    let mut wave_of: BTreeMap<&str, usize> = BTreeMap::new();
    for uname in &order {
        let w = graph
            .calls
            .get(uname.as_str())
            .map(|callees| {
                callees
                    .iter()
                    .filter_map(|c| wave_of.get(c.as_str()).copied())
                    .map(|d| d + 1)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        wave_of.insert(uname.as_str(), w);
    }
    let n_waves = order
        .iter()
        .map(|u| wave_of[u.as_str()] + 1)
        .max()
        .unwrap_or(0);
    let waves: Vec<Vec<(usize, String)>> = (0..n_waves)
        .map(|w| {
            order
                .iter()
                .enumerate()
                .filter(|(_, u)| wave_of[u.as_str()] == w)
                .map(|(k, u)| (k, u.clone()))
                .collect()
        })
        .collect();

    drop(_sp_callgraph);
    let _sp_waves = obs::span_detail("waves", || {
        format!("{} unit(s) in {} wave(s)", order.len(), waves.len())
    });

    // entry CPs of already-processed units (bottom-up)
    let mut entry_cps: BTreeMap<String, Cp> = BTreeMap::new();

    // per-unit results
    let mut unit_envs: BTreeMap<String, DistEnv> = BTreeMap::new();
    let mut unit_cps: BTreeMap<String, CpAssignment> = BTreeMap::new();
    let mut unit_plans: BTreeMap<String, BTreeMap<StmtId, NestPlan>> = BTreeMap::new();
    let mut unit_nests: BTreeMap<String, (Vec<StmtId>, BTreeMap<StmtId, StmtId>)> = BTreeMap::new();
    let mut report = CommReport::default();
    let mut unit_scopes: Vec<obs::ScopeObs> = Vec::new();
    let obs_epoch = opts.observe.then_some(epoch);

    for wave in &waves {
        let outcomes: Vec<Result<UnitOutcome, CompileError>> = if opts.jobs > 1 && wave.len() > 1 {
            let mut results = Vec::with_capacity(wave.len());
            for batch in wave.chunks(opts.jobs) {
                let program_ref = &program;
                let entry_ref = &entry_cps;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = batch
                        .iter()
                        .map(|(k, uname)| {
                            let k = *k as u32;
                            scope.spawn(move || {
                                process_unit(
                                    program_ref,
                                    uname,
                                    opts,
                                    entry_ref,
                                    stmt_base + k * ID_CHUNK,
                                    ref_base + k * ID_CHUNK,
                                    obs_epoch,
                                )
                            })
                        })
                        .collect();
                    for h in handles {
                        results.push(h.join().unwrap_or_else(|_| {
                            Err(CompileError::Other("compile worker panicked".into()))
                        }));
                    }
                });
            }
            results
        } else {
            wave.iter()
                .map(|(k, uname)| {
                    process_unit(
                        &program,
                        uname,
                        opts,
                        &entry_cps,
                        stmt_base + *k as u32 * ID_CHUNK,
                        ref_base + *k as u32 * ID_CHUNK,
                        obs_epoch,
                    )
                })
                .collect()
        };

        // deterministic merge in bottom-up order (wave lists preserve it)
        for ((_, uname), outcome) in wave.iter().zip(outcomes) {
            let o = outcome?;
            let slot = program
                .units
                .iter_mut()
                .find(|u| u.name == *uname)
                .expect("unit in order");
            *slot = o.unit;
            report.absorb(&o.report);
            if let Some(ecp) = o.entry_cp {
                entry_cps.insert(uname.clone(), ecp);
            }
            unit_envs.insert(uname.clone(), o.env);
            unit_cps.insert(uname.clone(), o.cps);
            unit_plans.insert(uname.clone(), o.plans);
            unit_nests.insert(uname.clone(), (o.nests, o.nest_scope));
            if let Some(scope) = o.obs {
                unit_scopes.push(scope);
            }
        }
    }
    drop(_sp_waves);

    let units = order.len();
    let n_waves = waves.len();
    let mut compiled = {
        let _sp = obs::span("codegen");
        finish_compile(
            program, opts, unit_envs, unit_cps, unit_plans, unit_nests, report,
        )?
    };

    let mut scopes = Vec::with_capacity(unit_scopes.len() + 1);
    if let Some(g) = driver_guard {
        scopes.push(g.finish());
    }
    scopes.extend(unit_scopes);
    compiled.obs = assemble_obs(
        opts.observe,
        opts.flags.aggregate,
        scopes,
        &compiled,
        units,
        n_waves,
        &cache0,
    );
    Ok(compiled)
}

/// Build the [`ObsReport`]: scopes (driver first, then units in merge
/// order) plus the unified metrics document.
fn assemble_obs(
    enabled: bool,
    aggregate: bool,
    scopes: Vec<obs::ScopeObs>,
    compiled: &Compiled,
    units: usize,
    waves: usize,
    cache0: &dhpf_iset::CacheStats,
) -> ObsReport {
    let mut m = obs::Metrics::default();
    let r = &compiled.report;
    m.counter("driver.units", units as i64);
    m.counter("driver.waves", waves as i64);
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
    // sharing-dependent, so gauges, not counters.
    let cache1 = dhpf_iset::cache_stats();
    let ops = |s: &dhpf_iset::CacheStats| {
        [
            s.union,
            s.intersect,
            s.subtract,
            s.subset,
            s.project,
            s.poly_empty,
            s.poly_eliminate,
        ]
    };
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (a, b) in ops(&cache1).iter().zip(ops(cache0).iter()) {
        hits += a.hits.saturating_sub(b.hits);
        lookups += a.lookups().saturating_sub(b.lookups());
    }
    m.gauge("iset.lookups", lookups as f64);
    m.gauge(
        "iset.hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    m.gauge(
        "iset.interned_nodes",
        (cache1.interned_exprs
            + cache1.interned_constraints
            + cache1.interned_polys
            + cache1.interned_sets) as f64,
    );

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
            let messages_saved = if aggregate {
                (plan.pre().len() - crate::comm::aggregated_message_count(plan.pre()))
                    + (plan.post().len() - crate::comm::aggregated_message_count(plan.post()))
            } else {
                0
            };
            m.nests.push(obs::NestMetrics {
                unit: uname.clone(),
                stmt: nest.0,
                line: lines.get(nest).copied(),
                pipelined: matches!(plan, NestPlan::Pipelined { .. }),
                overlapped: plan.overlap().is_some(),
                pre_messages: plan.pre().len(),
                pre_elems: plan.pre().iter().map(|x| x.region.len()).sum(),
                post_messages: plan.post().len(),
                post_elems: plan.post().iter().map(|x| x.region.len()).sum(),
                messages_saved,
            });
        }
    }

    ObsReport {
        enabled,
        scopes,
        metrics: m,
    }
}

/// The full analysis pipeline for one unit, run against a snapshot in
/// which every callee (strictly earlier wave) is already transformed.
/// Pure with respect to driver state: everything it produces comes back
/// in the [`UnitOutcome`], and synthesized ids are drawn from the
/// caller-assigned `[stmt_base, stmt_base + ID_CHUNK)` /
/// `[ref_base, ref_base + ID_CHUNK)` chunks so results are identical no
/// matter how units are scheduled across threads.
#[allow(clippy::too_many_arguments)]
fn process_unit(
    snapshot: &Program,
    uname: &str,
    opts: &CompileOptions,
    entry_cps: &BTreeMap<String, Cp>,
    stmt_base: u32,
    ref_base: u32,
    obs_epoch: Option<Instant>,
) -> Result<UnitOutcome, CompileError> {
    let obs_guard = obs_epoch.map(|epoch| obs::install(uname, epoch));
    let mut program = snapshot.clone();
    let mut next_stmt = stmt_base;
    let mut next_ref = ref_base;
    // fixed CPs recorded for statements this unit inlines
    let mut fixed_cps = CpAssignment::new();
    let mut report = CommReport::default();

    // ---- inline loop-borne leaf calls --------------------------------------
    {
        let _sp = obs::span("inline");
        let unit = program
            .units
            .iter_mut()
            .find(|u| u.name == uname)
            .expect("unit in order");
        inline_unit(
            unit,
            snapshot,
            entry_cps,
            opts.flags.interproc,
            &mut next_stmt,
            &mut next_ref,
            &mut fixed_cps,
        )?;
    }

    // ---- analyses (repeated after any loop distribution) -------------------
    let mut guard = 0;
    loop {
        guard += 1;
        if guard > 10 {
            return Err(CompileError::Other(format!(
                "loop distribution did not converge in {uname}"
            )));
        }
        let _sp_analyze = obs::span("analyze");
        let unit = program.unit(uname).unwrap().clone();
        let env = resolve_dist(&unit, &opts.bindings).map_err(CompileError::Distribution)?;
        // every processor must own a non-empty block of every
        // distributed array (empty blocks would break pipeline chains)
        if let Some(grid) = &env.grid {
            for dist in env.arrays.values() {
                if !dist.is_distributed() {
                    continue;
                }
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
        let (tabs, _) = symtab::resolve(&program);
        let tab = tabs.get(uname).cloned().unwrap_or_default();
        let loops = UnitLoops::build(&unit);
        let refs = UnitRefs::build(&unit, &tab);

        // top-level compute nests. A one-trip wrapper loop (the
        // LOCALIZE idiom `do one = 1, 1`) is transparent for
        // communication placement: its child nests are planned
        // individually so an exchange between two children lands
        // *between* them, not hoisted above the producer. IF blocks
        // are transparent for nest discovery: a scalar branch
        // condition is replicated control flow — every processor
        // evaluates it identically — so nests inside an arm carry
        // their own CPs and plans and compile in place. A condition
        // that reads an array is not replicable that way; reject it
        // rather than compile the arm's distributed writes as
        // replicated statements (which would write outside the local
        // window at run time).
        let top_stmts = flatten_if_arms(&unit.body, &unit).map_err(CompileError::Other)?;
        let mut nests: Vec<StmtId> = Vec::new();
        let mut nest_scope: BTreeMap<StmtId, StmtId> = BTreeMap::new();
        for &s in &top_stmts {
            let StmtKind::Do { lo, hi, body, .. } = &s.kind else {
                continue;
            };
            if !is_compute_nest(s) {
                // A loop with CALL statements in its body (the NAS
                // time-step idiom `do step … call x_solve …`): calls
                // compile interprocedurally, but any *inline* Do
                // children are compute nests of their own and still
                // need CPs and communication plans. Register each with
                // self-scope — a call may rewrite any COMMON array, so
                // it is an availability barrier and the children must
                // not share a §7 scope across it.
                for c in body {
                    if matches!(c.kind, StmtKind::Do { .. }) && is_compute_nest(c) {
                        nests.push(c.id);
                    }
                }
                continue;
            }
            let one_trip = match (
                dhpf_fortran::subscript::affine(lo, &unit.decls),
                dhpf_fortran::subscript::affine(hi, &unit.decls),
            ) {
                (Some(a), Some(b)) => {
                    a.is_constant() && b.is_constant() && a.constant() == b.constant()
                }
                _ => false,
            };
            // a "time loop": the induction variable never subscripts
            // any reference, so each iteration re-runs the same data
            // access pattern — exchanges must re-execute per iteration
            let var_name = match &s.kind {
                StmtKind::Do { var, .. } => var.clone(),
                _ => unreachable!(),
            };
            let mut var_subscripts = false;
            s.walk(&mut |st| {
                st.for_each_ref(&mut |r, _| {
                    for sub in &r.subs {
                        if let Some(lin) = dhpf_fortran::subscript::affine(sub, &unit.decls) {
                            if lin.mentions(&var_name) {
                                var_subscripts = true;
                            }
                        } else {
                            var_subscripts = true; // conservative
                        }
                    }
                });
            });
            let transparent = one_trip || !var_subscripts;
            let child_loops: Vec<StmtId> = body
                .iter()
                .filter(|c| matches!(c.kind, StmtKind::Do { .. }))
                .map(|c| c.id)
                .collect();
            if transparent && !child_loops.is_empty() && child_loops.len() == body.len() {
                for c in child_loops {
                    nests.push(c);
                    nest_scope.insert(c, s.id);
                }
            } else {
                nests.push(s.id);
            }
        }

        drop(_sp_analyze);

        // §5 grouping first: may demand loop distribution
        if opts.flags.loop_distribution {
            let _sp = obs::span("loop-distribution");
            let mut distributed_any = false;
            for &nest in &nests {
                let deps = analyze_loop_deps(nest, &loops, &refs);
                let stmts = select::assignments_in(nest, &loops, &refs);
                let cands: BTreeMap<StmtId, Vec<select::Candidate>> = stmts
                    .iter()
                    .map(|s| (*s, select::candidates(*s, &refs, &env)))
                    .collect();
                let grouping = group_statements(&stmts, &cands, &deps);
                if grouping.marked.is_empty() {
                    continue;
                }
                // distribute at the deepest loop containing each pair
                if distribute_in_unit(
                    &mut program,
                    uname,
                    nest,
                    &loops,
                    &deps,
                    &grouping.marked,
                    &mut next_stmt,
                ) {
                    distributed_any = true;
                    break; // re-analyze from scratch
                }
            }
            if distributed_any {
                continue;
            }
        }

        // ---- CP selection ---------------------------------------------
        let _sp_select = obs::span("cp-select");
        let mut assignment: CpAssignment = fixed_cps.clone();
        for &nest in &nests {
            let deps = analyze_loop_deps(nest, &loops, &refs);
            let stmts = select::assignments_in(nest, &loops, &refs);
            // NEW/LOCALIZE definition statements are partitioned by
            // propagation, not by local selection — but only inside a
            // loop whose directive manages the written variable. The
            // same array written elsewhere (e.g. its initialization
            // nest) still needs an ordinary owner-computes CP; leaving
            // it unassigned would compile it as replicated and write
            // outside the local window.
            let selectable: Vec<StmtId> = stmts
                .iter()
                .filter(|s| {
                    let Some(w) = refs.write_of(**s) else {
                        return true;
                    };
                    let enclosing = loops.nest_of.get(*s).cloned().unwrap_or_default();
                    !enclosing.iter().any(|l| {
                        let d = &loops.loops[l].dir;
                        d.new_vars.contains(&w.array) || d.localize_vars.contains(&w.array)
                    })
                })
                .cloned()
                .collect();

            let mut fixed = CpAssignment::new();
            for (id, cp) in &assignment {
                fixed.insert(*id, cp.clone());
            }
            // §5 grouping restricts choices
            let sel = if opts.flags.loop_distribution {
                let cands: BTreeMap<StmtId, Vec<select::Candidate>> = selectable
                    .iter()
                    .map(|s| (*s, select::candidates(*s, &refs, &env)))
                    .collect();
                let grouping = group_statements(&selectable, &cands, &deps);
                let mut grouped = assign_group_cps(&grouping, &cands);
                for (id, cp) in &fixed {
                    grouped.insert(*id, cp.clone());
                }
                grouped
            } else {
                select::select_for_loop(&selectable, &fixed, &refs, &env)
            };
            for (id, cp) in sel {
                if obs::is_active() && !fixed.contains_key(&id) {
                    let how = if opts.flags.loop_distribution {
                        CpHow::Grouped
                    } else {
                        CpHow::LeastCost
                    };
                    let cost = select::stmt_cost(id, &cp, &refs, &env);
                    let cp_str = cp.to_string();
                    obs::decide(move || {
                        Decision::new(DecisionKind::CpSelect {
                            cp: cp_str,
                            how,
                            cost: Some(cost),
                        })
                        .stmt(id)
                    });
                }
                assignment.insert(id, cp);
            }
        }
        if obs::is_active() {
            for (id, cp) in &fixed_cps {
                let cp_str = cp.to_string();
                let id = *id;
                obs::decide(move || {
                    Decision::new(DecisionKind::CpSelect {
                        cp: cp_str,
                        how: CpHow::FixedByInlining,
                        cost: None,
                    })
                    .stmt(id)
                });
            }
        }
        drop(_sp_select);

        // §4.1 / §4.2 on every directive loop of the unit (a LOCALIZE
        // directive may sit on a one-trip wrapper that is not itself a
        // planned nest)
        {
            let _sp = obs::span("propagate");
            let mut dir_loops: Vec<StmtId> = loops
                .loops
                .iter()
                .filter(|(_, info)| !info.dir.is_empty())
                .map(|(id, _)| *id)
                .collect();
            dir_loops.sort_by_key(|id| std::cmp::Reverse(loops.order[id]));
            // records a CP decision for a variable-directed choice; the
            // fixpoint below revisits statements, so the recorder's
            // last-payload dedup keeps only the converged CP
            let record = |s: StmtId, var: &str, how: fn(String) -> CpHow, cp: Option<&Cp>| {
                if !obs::is_active() {
                    return;
                }
                let Some(cp) = cp else { return };
                let cp_str = cp.to_string();
                let var = var.to_string();
                obs::decide(move || {
                    Decision::new(DecisionKind::CpSelect {
                        cp: cp_str,
                        how: how(var),
                        cost: None,
                    })
                    .stmt(s)
                });
            };
            // §4 propagation iterates to a fixpoint: a LOCALIZE/NEW
            // definition may read another managed variable, whose CP
            // only becomes final after ITS uses were propagated
            // (rho_i consumed by the square/qs definitions in
            // compute_rhs is the canonical case)
            for _pass in 0..3 {
                for dl in dir_loops.clone() {
                    if opts.flags.privatizable_cp {
                        for (s, var) in propagate_new_cps(dl, &loops, &refs, &mut assignment) {
                            record(s, &var, CpHow::PropagatedNew, assignment.get(&s));
                        }
                    } else {
                        // strawman: replicate NEW definitions
                        for var in &loops.loops[&dl].dir.new_vars {
                            for w in dhpf_depend::usedef::writes_of_var(dl, var, &loops, &refs) {
                                assignment.insert(w.stmt, Cp::replicated());
                                if obs::is_active() {
                                    let s = w.stmt;
                                    obs::decide(move || {
                                        Decision::new(DecisionKind::CpSelect {
                                            cp: Cp::replicated().to_string(),
                                            how: CpHow::ReplicatedStrawman,
                                            cost: None,
                                        })
                                        .stmt(s)
                                    });
                                }
                            }
                        }
                    }
                    if opts.flags.localize {
                        for (s, var) in apply_localize(dl, &loops, &refs, &mut assignment) {
                            record(s, &var, CpHow::Localized, assignment.get(&s));
                        }
                    } else {
                        for var in &loops.loops[&dl].dir.localize_vars {
                            for w in dhpf_depend::usedef::writes_of_var(dl, var, &loops, &refs) {
                                let subs: Option<Vec<_>> = w.subs.iter().cloned().collect();
                                if let Some(subs) = subs {
                                    let cp = Cp::single(crate::cp::CpTerm::on_home(var, subs));
                                    record(w.stmt, var, CpHow::LocalizeOff, Some(&cp));
                                    assignment.insert(w.stmt, cp);
                                }
                            }
                        }
                    }
                }
            }
        }

        // owner-computes for any remaining top-level assignments
        // (including ones inside replicated IF arms)
        for &s in &top_stmts {
            if let StmtKind::Assign { .. } = &s.kind {
                if let Some(w) = refs.write_of(s.id) {
                    if env
                        .dist_of(&w.array)
                        .map(|d| d.is_distributed())
                        .unwrap_or(false)
                    {
                        let subs: Option<Vec<_>> = w.subs.iter().cloned().collect();
                        if let Some(subs) = subs {
                            if let std::collections::btree_map::Entry::Vacant(e) =
                                assignment.entry(s.id)
                            {
                                let cp = Cp::single(crate::cp::CpTerm::on_home(&w.array, subs));
                                if obs::is_active() {
                                    let cp_str = cp.to_string();
                                    let id = s.id;
                                    obs::decide(move || {
                                        Decision::new(DecisionKind::CpSelect {
                                            cp: cp_str,
                                            how: CpHow::OwnerComputes,
                                            cost: None,
                                        })
                                        .stmt(id)
                                    });
                                }
                                e.insert(cp);
                            }
                        }
                    }
                }
            }
        }

        // ---- communication plans ----------------------------------------
        let mut plans: BTreeMap<StmtId, NestPlan> = BTreeMap::new();
        if env.grid.is_some() {
            for &nest in &nests {
                let _sp = obs::span_detail("comm-plan", || format!("nest s{}", nest.0));
                let deps = analyze_loop_deps(nest, &loops, &refs);
                let scope = nest_scope.get(&nest).copied().unwrap_or(nest);
                let scope_deps = (scope != nest).then(|| analyze_loop_deps(scope, &loops, &refs));
                let plan = crate::comm::plan_nest_scoped(
                    nest,
                    scope,
                    scope_deps.as_deref(),
                    &loops,
                    &refs,
                    &deps,
                    &assignment,
                    &env,
                    &opts.flags,
                    opts.granularity,
                    &mut report,
                )
                .map_err(|e| CompileError::Comm(uname.to_string(), e))?;
                plans.insert(nest, plan);
            }
        }

        // entry CP for callers (§6)
        let ecp = entry_cp(&unit, &assignment, &refs, &env);
        if let Some(cp) = &ecp {
            if obs::is_active() {
                let cp_str = cp.to_string();
                obs::decide(move || Decision::new(DecisionKind::EntryCp { cp: cp_str }));
            }
        }

        if next_stmt.saturating_sub(stmt_base) > ID_CHUNK
            || next_ref.saturating_sub(ref_base) > ID_CHUNK
        {
            return Err(CompileError::Other(format!(
                "unit {uname} exhausted its synthesized-id chunk"
            )));
        }

        let transformed = program.unit(uname).unwrap().clone();
        return Ok(UnitOutcome {
            unit: transformed,
            env,
            cps: assignment,
            plans,
            nests,
            nest_scope,
            entry_cp: ecp,
            report,
            obs: obs_guard.map(|g| g.finish()),
        });
    }
}

/// Code generation and result assembly, after every unit has been analyzed
/// and merged back into `program` in deterministic bottom-up order.
#[allow(clippy::too_many_arguments)]
fn finish_compile(
    program: Program,
    opts: &CompileOptions,
    unit_envs: BTreeMap<String, DistEnv>,
    unit_cps: BTreeMap<String, CpAssignment>,
    unit_plans: BTreeMap<String, BTreeMap<StmtId, NestPlan>>,
    mut unit_nests: BTreeMap<String, (Vec<StmtId>, BTreeMap<StmtId, StmtId>)>,
    mut report: CommReport,
) -> Result<Compiled, CompileError> {
    // ---- code generation ----------------------------------------------------
    let main_unit = program
        .main()
        .ok_or_else(|| CompileError::Other("no main program".into()))?
        .name
        .clone();
    let grid = unit_envs
        .values()
        .find_map(|e| e.grid.clone())
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
    for u in &program.units {
        let env = unit_envs.get(&u.name).cloned().unwrap_or_default();
        let cps = CpAssignment::new();
        let plans = BTreeMap::new();
        let mut scratch = Vec::new();
        let mut cx = UnitCx::new(
            u,
            &env,
            &cps,
            &plans,
            &opts.bindings,
            &mut globals,
            0,
            &mut scratch,
            opts.flags.aggregate,
        );
        cx.register_arrays().map_err(CompileError::Codegen)?;
    }

    let mut units: Vec<CompiledUnit> = Vec::with_capacity(program.units.len());
    let mut tag_base = 1u64;
    for u in &program.units {
        let env = unit_envs.get(&u.name).cloned().unwrap_or_default();
        let cps = unit_cps.get(&u.name).cloned().unwrap_or_default();
        let plans = unit_plans.get(&u.name).cloned().unwrap_or_default();
        let mut cx = UnitCx::new(
            u,
            &env,
            &cps,
            &plans,
            &opts.bindings,
            &mut globals,
            tag_base,
            &mut provenance,
            opts.flags.aggregate,
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

    let cp_dump: BTreeMap<String, Vec<(StmtId, String)>> = unit_cps
        .iter()
        .map(|(u, cps)| {
            (
                u.clone(),
                cps.iter().map(|(id, cp)| (*id, cp.to_string())).collect(),
            )
        })
        .collect();

    let analyses: BTreeMap<String, UnitAnalysis> = unit_envs
        .iter()
        .map(|(u, env)| {
            let (nests, nest_scope) = unit_nests.remove(u).unwrap_or_default();
            (
                u.clone(),
                UnitAnalysis {
                    env: env.clone(),
                    cps: unit_cps.get(u).cloned().unwrap_or_default(),
                    plans: unit_plans.get(u).cloned().unwrap_or_default(),
                    nests,
                    nest_scope,
                },
            )
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

// ---------------------------------------------------------------------------
// Inliner: replace loop-borne calls to leaf units with the callee body.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn inline_unit(
    unit: &mut ProgramUnit,
    program: &Program,
    entry_cps: &BTreeMap<String, Cp>,
    use_interproc: bool,
    next_stmt: &mut u32,
    next_ref: &mut u32,
    fixed: &mut CpAssignment,
) -> Result<(), CompileError> {
    let unit_name = unit.name.clone();
    let mut new_params: BTreeMap<String, i64> = BTreeMap::new();
    let mut new_vars: Vec<dhpf_fortran::ast::VarDecl> = Vec::new();
    let caller_decls = unit.decls.clone();
    let mut body = std::mem::take(&mut unit.body);
    for s in &mut body {
        inline_stmt(
            s,
            0,
            program,
            &unit_name,
            &caller_decls,
            entry_cps,
            use_interproc,
            next_stmt,
            next_ref,
            fixed,
            &mut new_params,
            &mut new_vars,
        )?;
    }
    unit.body = body;
    for (k, v) in new_params {
        unit.decls.params.entry(k).or_insert(v);
    }
    for v in new_vars {
        unit.decls.vars.entry(v.name.clone()).or_insert(v);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn inline_stmt(
    s: &mut Stmt,
    loop_depth: usize,
    program: &Program,
    caller_name: &str,
    caller_decls: &dhpf_fortran::ast::Decls,
    entry_cps: &BTreeMap<String, Cp>,
    use_interproc: bool,
    next_stmt: &mut u32,
    next_ref: &mut u32,
    fixed: &mut CpAssignment,
    new_params: &mut BTreeMap<String, i64>,
    new_vars: &mut Vec<dhpf_fortran::ast::VarDecl>,
) -> Result<(), CompileError> {
    match &mut s.kind {
        StmtKind::Do { body, var, .. } => {
            let _ = var;
            let mut i = 0;
            while i < body.len() {
                let expand = should_inline(&body[i], loop_depth + 1);
                if let (true, StmtKind::Call { name, args, .. }) = (expand, &body[i].kind) {
                    let callee = program
                        .unit(name)
                        .ok_or_else(|| CompileError::Other(format!("missing unit {name}")))?;
                    let call_args = args.clone();
                    let name = name.clone();
                    // translated entry CP for the inlined statements (§6)
                    let site_cp = if use_interproc {
                        entry_cps.get(&name).and_then(|cp| {
                            let caller_unit = pseudo_unit(caller_name, caller_decls);
                            translate_to_callsite(cp, callee, &call_args, &caller_unit)
                        })
                    } else {
                        None
                    };
                    if obs::is_active() {
                        let callee_name = name.clone();
                        let ecp = site_cp.as_ref().map(|c| c.to_string());
                        let line = body[i].span.line;
                        obs::decide(move || {
                            Decision::new(DecisionKind::Inlined {
                                callee: callee_name,
                                entry_cp: ecp,
                            })
                            .line(line)
                        });
                    }
                    let inlined = inline_body(
                        callee,
                        &call_args,
                        caller_decls,
                        next_stmt,
                        next_ref,
                        new_params,
                        new_vars,
                    )?;
                    // record fixed CPs for inlined distributed writes
                    if let Some(cp) = site_cp {
                        for st in &inlined {
                            st.walk(&mut |x| {
                                if matches!(x.kind, StmtKind::Assign { .. }) {
                                    fixed.insert(x.id, cp.clone());
                                }
                            });
                        }
                    }
                    body.splice(i..=i, inlined);
                } else {
                    inline_stmt(
                        &mut body[i],
                        loop_depth + 1,
                        program,
                        caller_name,
                        caller_decls,
                        entry_cps,
                        use_interproc,
                        next_stmt,
                        next_ref,
                        fixed,
                        new_params,
                        new_vars,
                    )?;
                    i += 1;
                }
            }
            Ok(())
        }
        StmtKind::If { arms } => {
            for (_, body) in arms {
                for st in body {
                    inline_stmt(
                        st,
                        loop_depth,
                        program,
                        caller_name,
                        caller_decls,
                        entry_cps,
                        use_interproc,
                        next_stmt,
                        next_ref,
                        fixed,
                        new_params,
                        new_vars,
                    )?;
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Inline a call when it sits inside a loop and any actual argument
/// mentions a variable (i.e. depends on loop indices) — the BT
/// `matvec_sub(lhs, rhs, i, j, k)` pattern. Whole-array phase calls
/// (`call compute_rhs(u, rhs)`) stay real calls.
fn should_inline(s: &Stmt, loop_depth: usize) -> bool {
    if loop_depth == 0 {
        return false;
    }
    let StmtKind::Call { args, .. } = &s.kind else {
        return false;
    };
    args.iter().any(|a| match a {
        Expr::Ref(r) => !r.subs.is_empty() || r.name.len() <= 2, // index-like scalar
        Expr::Bin(..) | Expr::Un(..) => true,
        _ => false,
    })
}

fn pseudo_unit(name: &str, decls: &dhpf_fortran::ast::Decls) -> ProgramUnit {
    ProgramUnit {
        name: name.to_string(),
        kind: dhpf_fortran::ast::UnitKind::Program,
        decls: decls.clone(),
        hpf: Default::default(),
        body: vec![],
        span: Default::default(),
    }
}

/// Build the inlined statement list: callee body with formals replaced
/// by actuals, locals renamed, fresh statement/reference ids.
#[allow(clippy::too_many_arguments)]
fn inline_body(
    callee: &ProgramUnit,
    args: &[Expr],
    caller_decls: &Decls,
    next_stmt: &mut u32,
    next_ref: &mut u32,
    new_params: &mut BTreeMap<String, i64>,
    new_vars: &mut Vec<dhpf_fortran::ast::VarDecl>,
) -> Result<Vec<Stmt>, CompileError> {
    let formals = callee.args();
    if formals.len() != args.len() {
        return Err(CompileError::Other(format!(
            "arity mismatch inlining {}",
            callee.name
        )));
    }
    // substitution map: formal name → expression; array formals → rename
    let mut subst: BTreeMap<String, Expr> = BTreeMap::new();
    let mut rename: BTreeMap<String, String> = BTreeMap::new();
    for (f, a) in formals.iter().zip(args) {
        if callee.decls.is_array(f) {
            let Expr::Ref(r) = a else {
                return Err(CompileError::Other(format!(
                    "cannot inline {}: array formal `{f}` bound to expression",
                    callee.name
                )));
            };
            rename.insert(f.clone(), r.name.clone());
        } else {
            subst.insert(f.clone(), a.clone());
        }
    }
    // rename callee locals that collide with caller names
    let mut local_names: Vec<String> = callee
        .decls
        .vars
        .keys()
        .filter(|n| !formals.contains(n))
        .cloned()
        .collect();
    // include loop variables
    callee.for_each_stmt(&mut |st| {
        if let StmtKind::Do { var, .. } = &st.kind {
            if !formals.contains(var) && !local_names.contains(var) {
                local_names.push(var.clone());
            }
        }
    });
    for n in local_names {
        let fresh = format!("{n}_{}", callee.name);
        // carry the declaration (with its type) to the caller so
        // implicit-typing rules do not reclassify the renamed local
        if let Some(decl) = callee.decls.vars.get(&n) {
            let mut d2 = decl.clone();
            d2.name = fresh.clone();
            new_vars.push(d2);
        }
        rename.insert(n.clone(), fresh);
    }
    // merge callee parameters (same-name parameters must agree)
    for (k, v) in &callee.decls.params {
        if let Some(existing) = caller_decls.params.get(k) {
            if existing != v {
                return Err(CompileError::Other(format!(
                    "parameter `{k}` differs between caller and {}",
                    callee.name
                )));
            }
        } else {
            new_params.insert(k.clone(), *v);
        }
    }

    let mut out = Vec::new();
    for s in &callee.body {
        out.push(clone_stmt(s, &subst, &rename, next_stmt, next_ref));
    }
    Ok(out)
}

fn clone_stmt(
    s: &Stmt,
    subst: &BTreeMap<String, Expr>,
    rename: &BTreeMap<String, String>,
    next_stmt: &mut u32,
    next_ref: &mut u32,
) -> Stmt {
    let id = StmtId(*next_stmt);
    *next_stmt += 1;
    let kind = match &s.kind {
        StmtKind::Assign { lhs, rhs } => StmtKind::Assign {
            lhs: clone_ref(lhs, subst, rename, next_ref),
            rhs: clone_expr(rhs, subst, rename, next_ref),
        },
        StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            dir,
        } => StmtKind::Do {
            var: rename.get(var).cloned().unwrap_or_else(|| var.clone()),
            lo: clone_expr(lo, subst, rename, next_ref),
            hi: clone_expr(hi, subst, rename, next_ref),
            step: step
                .as_ref()
                .map(|e| clone_expr(e, subst, rename, next_ref)),
            body: body
                .iter()
                .map(|b| clone_stmt(b, subst, rename, next_stmt, next_ref))
                .collect(),
            dir: dir.clone(),
        },
        StmtKind::If { arms } => StmtKind::If {
            arms: arms
                .iter()
                .map(|(c, body)| {
                    (
                        c.as_ref().map(|e| clone_expr(e, subst, rename, next_ref)),
                        body.iter()
                            .map(|b| clone_stmt(b, subst, rename, next_stmt, next_ref))
                            .collect(),
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
            args: args
                .iter()
                .map(|a| clone_expr(a, subst, rename, next_ref))
                .collect(),
            arg_refs: arg_refs.clone(),
        },
        StmtKind::Return => StmtKind::Continue, // a RETURN inside an
        // inlined body would need a branch; our leaf routines end with a
        // plain fall-through, so a mid-body return becomes a no-op marker
        StmtKind::Continue => StmtKind::Continue,
    };
    Stmt {
        id,
        span: s.span,
        kind,
        label: s.label,
    }
}

fn clone_ref(
    r: &ArrayRef,
    subst: &BTreeMap<String, Expr>,
    rename: &BTreeMap<String, String>,
    next_ref: &mut u32,
) -> ArrayRef {
    let id = RefId(*next_ref);
    *next_ref += 1;
    let name = rename
        .get(&r.name)
        .cloned()
        .unwrap_or_else(|| r.name.clone());
    ArrayRef {
        id,
        name,
        subs: r
            .subs
            .iter()
            .map(|e| clone_expr(e, subst, rename, next_ref))
            .collect(),
        span: r.span,
    }
}

fn clone_expr(
    e: &Expr,
    subst: &BTreeMap<String, Expr>,
    rename: &BTreeMap<String, String>,
    next_ref: &mut u32,
) -> Expr {
    match e {
        Expr::Ref(r) if r.subs.is_empty() && subst.contains_key(&r.name) => {
            // formal scalar → actual expression (re-id its references)
            reid_expr(&subst[&r.name], next_ref)
        }
        Expr::Ref(r) => Expr::Ref(clone_ref(r, subst, rename, next_ref)),
        Expr::Bin(op, a, b, sp) => Expr::Bin(
            *op,
            Box::new(clone_expr(a, subst, rename, next_ref)),
            Box::new(clone_expr(b, subst, rename, next_ref)),
            *sp,
        ),
        Expr::Un(op, a, sp) => Expr::Un(*op, Box::new(clone_expr(a, subst, rename, next_ref)), *sp),
        other => other.clone(),
    }
}

fn reid_expr(e: &Expr, next_ref: &mut u32) -> Expr {
    match e {
        Expr::Ref(r) => {
            let id = RefId(*next_ref);
            *next_ref += 1;
            Expr::Ref(ArrayRef {
                id,
                name: r.name.clone(),
                subs: r.subs.iter().map(|s| reid_expr(s, next_ref)).collect(),
                span: r.span,
            })
        }
        Expr::Bin(op, a, b, sp) => Expr::Bin(
            *op,
            Box::new(reid_expr(a, next_ref)),
            Box::new(reid_expr(b, next_ref)),
            *sp,
        ),
        Expr::Un(op, a, sp) => Expr::Un(*op, Box::new(reid_expr(a, next_ref)), *sp),
        other => other.clone(),
    }
}

/// Apply selective loop distribution inside `unit` at the deepest loop
/// containing each marked pair. Returns `true` if the AST changed.
fn distribute_in_unit(
    program: &mut Program,
    uname: &str,
    nest: StmtId,
    loops: &UnitLoops,
    deps: &[dhpf_depend::dep::Dependence],
    marked: &[(StmtId, StmtId)],
    next_stmt: &mut u32,
) -> bool {
    // find the deepest loop containing both ends of the first pair
    let Some((a, b)) = marked.first() else {
        return false;
    };
    let common = loops.common_loops(*a, *b);
    let Some(&target) = common.last() else {
        return false;
    };
    if !(target == nest || loops.stmts_in(nest).contains(&target)) {
        return false;
    }
    let parts = partition_loop(target, loops, deps, marked);
    if parts.len() <= 1 {
        return false;
    }
    let unit = program.units.iter_mut().find(|u| u.name == uname).unwrap();
    let mut body = std::mem::take(&mut unit.body);
    let changed = rewrite_distribute(&mut body, target, &parts, next_stmt);
    unit.body = body;
    changed
}

fn rewrite_distribute(
    body: &mut Vec<Stmt>,
    target: StmtId,
    parts: &[Vec<StmtId>],
    next_stmt: &mut u32,
) -> bool {
    for i in 0..body.len() {
        if body[i].id == target {
            let StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body: inner,
                dir,
            } = body[i].kind.clone()
            else {
                return false;
            };
            if obs::is_active() {
                let loop_var = var.clone();
                let parts_n = parts.len();
                let line = body[i].span.line;
                obs::decide(move || {
                    Decision::new(DecisionKind::LoopDistributed {
                        loop_var,
                        parts: parts_n,
                    })
                    .line(line)
                });
            }
            let mut replacements = Vec::new();
            for part in parts {
                let part_body: Vec<Stmt> = inner
                    .iter()
                    .filter(|s| part.contains(&s.id))
                    .cloned()
                    .collect();
                if part_body.is_empty() {
                    continue;
                }
                let id = StmtId(*next_stmt);
                *next_stmt += 1;
                replacements.push(Stmt {
                    id,
                    span: body[i].span,
                    label: None,
                    kind: StmtKind::Do {
                        var: var.clone(),
                        lo: lo.clone(),
                        hi: hi.clone(),
                        step: step.clone(),
                        body: part_body,
                        dir: dir.clone(),
                    },
                });
            }
            body.splice(i..=i, replacements);
            return true;
        }
        // (a match guard would read better, but guards cannot mutate `inner`)
        #[allow(clippy::collapsible_match)]
        match &mut body[i].kind {
            StmtKind::Do { body: inner, .. } => {
                if rewrite_distribute(inner, target, parts, next_stmt) {
                    return true;
                }
            }
            StmtKind::If { arms } => {
                for (_, inner) in arms {
                    if rewrite_distribute(inner, target, parts, next_stmt) {
                        return true;
                    }
                }
            }
            _ => {}
        }
    }
    false
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
