//! SPMD code generation: lower analyzed program units into a
//! [`NodeProgram`] — the compiled form the node-program interpreter
//! ([`crate::exec::node`]) executes on the virtual machine.
//!
//! Everything dynamic is pre-resolved: scalar names become integer/float
//! slot numbers (Fortran implicit typing decides which), array names
//! become local slots bound to global storage ids (dummies bind at call
//! time), subscripts become affine [`CIdx`] forms over integer slots,
//! CPs become [`Guard`]s over per-processor ownership tables, and the
//! communication plans of [`crate::comm`] become `Exchange` /
//! `OverlapNest` / `Pipeline` ops over the plans' transfers.

pub mod emit;

use crate::comm::{HaloRead, NestPlan, PipeSchedule};
use crate::cp::{Cp, Cut, SubTerm};
use crate::distrib::{ArrayDist, DistEnv, ProcGrid};
use crate::exec::serial::is_integer_name;
use crate::select::CpAssignment;
use crate::transfer::{pack_per_peer, segments, Seg, Transfer};
use dhpf_fortran::ast::{self, BinOp, Expr, ProgramUnit, Stmt, StmtKind};
use dhpf_fortran::subscript::affine;
use dhpf_iset::LinExpr;
use std::collections::BTreeMap;

/// Affine integer form over integer slots: `Σ coeff·slot + cst`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CIdx {
    pub terms: Vec<(usize, i64)>,
    pub cst: i64,
}

impl CIdx {
    pub fn cst(v: i64) -> Self {
        CIdx {
            terms: vec![],
            cst: v,
        }
    }

    #[inline]
    pub fn eval(&self, ints: &[i64]) -> i64 {
        let mut acc = self.cst;
        for (slot, c) in &self.terms {
            acc += ints[*slot] * c;
        }
        acc
    }
}

/// Compiled expression.
#[derive(Clone, Debug)]
pub enum CExpr {
    Const(f64),
    /// Affine integer expression used as a float.
    Int(CIdx),
    /// Float scalar slot.
    LoadF(usize),
    /// Array element load (local array slot).
    Load {
        arr: usize,
        subs: Vec<CIdx>,
    },
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Neg(Box<CExpr>),
    /// Intrinsic call (name index into [`INTRINSIC_NAMES`]).
    Intr(usize, Vec<CExpr>),
}

/// Names corresponding to `CExpr::Intr` indices.
pub const INTRINSIC_NAMES: &[&str] = &[
    "min", "max", "abs", "mod", "sqrt", "exp", "dble", "int", "sin", "cos", "sign",
];

/// One ownership-test atom of a CP guard, resolved per processor at run
/// time through the frame's local→global array binding.
#[derive(Clone, Debug)]
pub enum GuardAtom {
    /// `owned_lo ≤ sub ≤ owned_hi` on dimension `dim` of local array `arr`.
    In { arr: usize, dim: usize, sub: CIdx },
    /// Range-overlap: `hi ≥ owned_lo ∧ lo ≤ owned_hi`.
    Overlap {
        arr: usize,
        dim: usize,
        lo: CIdx,
        hi: CIdx,
    },
}

/// A compiled CP: OR over terms of AND over atoms. `None` on a statement
/// means replicated (everyone executes).
#[derive(Clone, Debug, Default)]
pub struct Guard {
    pub terms: Vec<Vec<GuardAtom>>,
}

/// One level of a pipelined nest.
#[derive(Clone, Debug)]
pub struct PipeLevel {
    pub var: usize,
    pub lo: CIdx,
    pub hi: CIdx,
    pub step: i64,
}

/// The strip loop of a pipelined nest: the nest runs in chunks of the
/// loop's range, and each chunk receives, computes and forwards its part
/// of the hops.
#[derive(Clone, Debug)]
pub struct Strip {
    /// Level of the strip loop in the nest.
    pub level: usize,
    /// Iterations of the strip loop per chunk.
    pub granularity: i64,
    /// Per rank, the part of the loop's range it runs
    /// ([`PipeSchedule::strip_owned`]).
    pub owned: Option<Vec<(i64, i64)>>,
    /// `(array slot, dimension)`: the dimension of each swept array that
    /// a chunk cuts ([`SweptArray::strip_dim`](crate::comm::SweptArray::strip_dim)).
    pub dims: Vec<(usize, usize)>,
}

impl Strip {
    /// The chunks `rank` runs of the strip loop `lo, hi` by `step`, in
    /// loop order, each of `granularity` trips. Their value windows tile
    /// the part of the rank's owned range (or of the range) the loop
    /// spans, so the chunks' cuts of a hop make up the hop. A rank with no
    /// trip there runs one chunk, which still relays the hops.
    pub fn chunks(&self, (lo, hi): (i64, i64), step: i64, rank: usize) -> Vec<(i64, i64)> {
        let span = if step > 0 { (lo, hi) } else { (hi, lo) };
        let owned = self.owned.as_ref().map_or(span, |o| o[rank]);
        let (wlo, whi) = (span.0.max(owned.0), span.1.min(owned.1));
        // the trips inside the window are `lo + k·step`, `first ≤ k ≤ last`
        let (near, far) = if step > 0 { (wlo, whi) } else { (whi, wlo) };
        let sign = step.signum();
        let along = |v: i64| (v - lo) * sign;
        let first = -(-along(near)).div_euclid(step.abs());
        let last = along(far).div_euclid(step.abs());
        if wlo > whi || first > last {
            return vec![(wlo, whi)];
        }
        let g = self.granularity.max(1);
        let at = |k: i64| lo + k * step;
        let chunk = |k: i64| {
            let begin = if k == first { near } else { at(k) };
            let next = k.saturating_add(g);
            let end = if next > last { far } else { at(next) - sign };
            (begin.min(end), begin.max(end))
        };
        (first..=last).step_by(g as usize).map(chunk).collect()
    }

    /// What hop `x` moves for one chunk: each segment of an array the
    /// strip cuts, cut to `chunk` on that array's strip dimension; the
    /// others whole.
    pub fn cut(&self, x: &Transfer<usize>, (lo, hi): (i64, i64)) -> Transfer<usize> {
        let mut x = x.clone();
        for s in &mut x.segs {
            if let Some(&(_, d)) = self.dims.iter().find(|(arr, _)| *arr == s.arr) {
                (s.lo[d], s.hi[d]) = (s.lo[d].max(lo), s.hi[d].min(hi));
            }
        }
        x
    }
}

/// A single-chain nest (a `do` whose body is exactly one `do`, and so on
/// down): its levels outermost first, and the innermost body.
type LoopChain<'s> = (Vec<PipeLevel>, &'s [Stmt]);

/// Provenance of one communication-bearing [`NodeOp`]: the planned nest
/// (unit, statement, source line) it was emitted for, the §7 phase it
/// implements, and the arrays it moves. `NodeOp::Exchange`/`OverlapNest`/
/// `Pipeline` index this table through their `plan` field; the
/// interpreter stamps the same index onto every trace event it issues
/// for the op, which is what lets `dhpf profile` join simulated stalls
/// back to the compiler decision log.
#[derive(Clone, Debug)]
pub struct PlanProv {
    pub unit: String,
    /// Raw [`ast::StmtId`] of the planned loop — the join key against
    /// decision-log records anchored with `.stmt(loop_id)`.
    pub stmt: u32,
    /// 1-based source line of the planned loop, when known.
    pub line: Option<u32>,
    pub kind: ProvKind,
    /// Arrays the communication moves (sorted, deduplicated).
    pub arrays: Vec<String>,
    /// Message tag of the emitted op.
    pub tag: u64,
}

impl PlanProv {
    /// `unit:line` anchor used across reports.
    pub fn anchor(&self) -> String {
        match self.line {
            Some(l) => format!("{}:{}", self.unit, l),
            None => format!("{}:?", self.unit),
        }
    }
}

/// Which phase of a communication plan an op implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProvKind {
    /// Blocking pre-exchange (ghost updates before the nest).
    Pre,
    /// Post write-back exchange after the nest.
    Post,
    /// Overlapped halo exchange fused with its nest.
    Overlap,
    /// Coarse-grain pipelined wavefront.
    Pipeline,
}

impl ProvKind {
    pub fn name(self) -> &'static str {
        match self {
            ProvKind::Pre => "pre-exchange",
            ProvKind::Post => "write-back",
            ProvKind::Overlap => "overlapped-exchange",
            ProvKind::Pipeline => "pipeline",
        }
    }
}

/// Node-program operations.
#[derive(Clone, Debug)]
pub enum NodeOp {
    Loop {
        var: usize,
        lo: CIdx,
        hi: CIdx,
        step: i64,
        body: Vec<NodeOp>,
    },
    /// Array assignment, CP-guarded.
    Assign {
        guard: Option<Guard>,
        arr: usize,
        subs: Vec<CIdx>,
        value: CExpr,
        flops: u64,
    },
    /// Float scalar assignment.
    AssignF {
        guard: Option<Guard>,
        slot: usize,
        value: CExpr,
        flops: u64,
    },
    /// Integer scalar assignment (value truncated).
    AssignI {
        guard: Option<Guard>,
        slot: usize,
        value: CExpr,
        flops: u64,
    },
    If {
        arms: Vec<(Option<CExpr>, Vec<NodeOp>)>,
    },
    Call {
        unit: usize,
        int_args: Vec<(usize, CExpr)>,
        float_args: Vec<(usize, CExpr)>,
        array_args: Vec<(usize, usize)>,
    },
    /// Vectorized exchange (ghost updates or write-backs). The
    /// transfers name arrays by local slot, resolved through the
    /// executing frame.
    Exchange {
        msgs: Vec<Transfer<usize>>,
        tag: u64,
        /// Index into [`NodeProgram::provenance`].
        plan: u32,
    },
    /// Halo exchange overlapped with the nest it feeds: post receives,
    /// run the interior iterations (those where `interior` holds), wait
    /// and unpack, then run the boundary complement.
    OverlapNest {
        msgs: Vec<Transfer<usize>>,
        tag: u64,
        /// Single-chain nest levels, outermost first.
        levels: Vec<PipeLevel>,
        /// Innermost body.
        body: Vec<NodeOp>,
        /// One AND-term of a guard: an iteration is interior when every
        /// halo read of it lands in what the rank owns, one
        /// [`GuardAtom::In`] per [`HaloRead`].
        interior: Vec<GuardAtom>,
        /// Index into [`NodeProgram::provenance`].
        plan: u32,
    },
    /// Coarse-grain pipelined wavefront nest: per strip chunk, receive
    /// the chunk's part of every hop into this rank, run the nest over
    /// the chunk, send the chunk's part of every hop out of it.
    Pipeline {
        levels: Vec<PipeLevel>,
        body: Vec<NodeOp>,
        /// `None`: the nest runs, and each hop moves, in one piece.
        strip: Option<Strip>,
        /// The planned hops, over the whole owned strip.
        hops: Vec<Transfer<usize>>,
        tag: u64,
        /// Index into [`NodeProgram::provenance`].
        plan: u32,
    },
}

/// A compiled unit.
#[derive(Clone, Debug, Default)]
pub struct CompiledUnit {
    pub name: String,
    pub n_ints: usize,
    pub n_floats: usize,
    pub n_arrays: usize,
    /// For each formal, where the actual value lands.
    pub formals: Vec<FormalSlot>,
    /// For each local array slot: global storage id (`None` = dummy).
    pub array_global: Vec<Option<usize>>,
    /// Local slot → array name (diagnostics & distribution lookup).
    pub array_names: Vec<String>,
    pub ops: Vec<NodeOp>,
}

/// Where a formal argument lands in the callee's frame.
#[derive(Clone, Debug)]
pub enum FormalSlot {
    Int(usize),
    Float(usize),
    Array(usize),
}

/// A global array.
#[derive(Clone, Debug)]
pub struct GlobalArray {
    pub name: String,
    pub bounds: Vec<(i64, i64)>,
    /// `None` = serial (fully replicated on every processor).
    pub dist: Option<ArrayDist>,
    /// Ghost width per dimension.
    pub ghost: Vec<usize>,
}

/// The compiled program.
#[derive(Clone, Debug)]
pub struct NodeProgram {
    pub grid: ProcGrid,
    pub arrays: Vec<GlobalArray>,
    pub units: Vec<CompiledUnit>,
    pub unit_index: BTreeMap<String, usize>,
    pub main: usize,
    /// Program-wide plan-provenance table, indexed by the `plan` field
    /// of communication ops (and by `Event::nest` in execution traces).
    pub provenance: Vec<PlanProv>,
}

/// Codegen failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

type CgResult<T> = Result<T, CodegenError>;

fn err<T>(msg: impl Into<String>) -> CgResult<T> {
    Err(CodegenError(msg.into()))
}

/// Per-unit compilation context.
pub struct UnitCx<'a> {
    pub unit: &'a ProgramUnit,
    pub env: &'a DistEnv,
    pub cps: &'a CpAssignment,
    /// Communication plans per top-level loop statement.
    pub plans: &'a BTreeMap<ast::StmtId, NestPlan>,
    pub bindings: &'a BTreeMap<String, i64>,

    int_slots: BTreeMap<String, usize>,
    float_slots: BTreeMap<String, usize>,
    array_slots: BTreeMap<String, usize>,
    array_names: Vec<String>,
    next_tag: u64,
    /// Global array registry shared across units.
    pub globals: &'a mut GlobalRegistry,
    /// Program-wide provenance table (see [`NodeProgram::provenance`]).
    pub provs: &'a mut Vec<PlanProv>,
}

/// The program-wide array registry.
#[derive(Default, Debug)]
pub struct GlobalRegistry {
    pub arrays: Vec<GlobalArray>,
    by_name: BTreeMap<String, usize>,
}

impl GlobalRegistry {
    /// Register (or look up) a global array. Commons share by bare name;
    /// unit-locals are qualified.
    pub fn intern(
        &mut self,
        key: String,
        bounds: Vec<(i64, i64)>,
        dist: Option<ArrayDist>,
    ) -> usize {
        if let Some(&i) = self.by_name.get(&key) {
            return i;
        }
        let ghost = vec![0; bounds.len()];
        let idx = self.arrays.len();
        self.arrays.push(GlobalArray {
            name: key.clone(),
            bounds,
            dist,
            ghost,
        });
        self.by_name.insert(key, idx);
        idx
    }

    pub fn get(&self, key: &str) -> Option<usize> {
        self.by_name.get(key).copied()
    }

    /// Widen the ghost region of array `g` on `dim` to at least `width`.
    pub fn need_ghost(&mut self, g: usize, dim: usize, width: usize) {
        let slot = &mut self.arrays[g].ghost[dim];
        *slot = (*slot).max(width);
    }
}

impl<'a> UnitCx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        unit: &'a ProgramUnit,
        env: &'a DistEnv,
        cps: &'a CpAssignment,
        plans: &'a BTreeMap<ast::StmtId, NestPlan>,
        bindings: &'a BTreeMap<String, i64>,
        globals: &'a mut GlobalRegistry,
        tag_base: u64,
        provs: &'a mut Vec<PlanProv>,
    ) -> Self {
        UnitCx {
            unit,
            env,
            cps,
            plans,
            bindings,
            int_slots: BTreeMap::new(),
            float_slots: BTreeMap::new(),
            array_slots: BTreeMap::new(),
            array_names: Vec::new(),
            next_tag: tag_base,
            globals,
            provs,
        }
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Register provenance for a communication op emitted for statement
    /// `s`, returning the plan-table index the op (and its trace
    /// events) will carry.
    fn register_prov(
        &mut self,
        s: &Stmt,
        kind: ProvKind,
        mut arrays: Vec<String>,
        tag: u64,
    ) -> u32 {
        arrays.sort();
        arrays.dedup();
        let id = self.provs.len() as u32;
        self.provs.push(PlanProv {
            unit: self.unit.name.clone(),
            stmt: s.id.0,
            line: (s.span.line > 0).then_some(s.span.line),
            kind,
            arrays,
            tag,
        });
        id
    }

    pub fn final_tag(&self) -> u64 {
        self.next_tag
    }

    fn int_slot(&mut self, name: &str) -> usize {
        let n = self.int_slots.len();
        *self.int_slots.entry(name.to_string()).or_insert(n)
    }

    fn float_slot(&mut self, name: &str) -> usize {
        let n = self.float_slots.len();
        *self.float_slots.entry(name.to_string()).or_insert(n)
    }

    fn array_slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.array_slots.get(name) {
            return s;
        }
        let s = self.array_names.len();
        self.array_slots.insert(name.to_string(), s);
        self.array_names.push(name.to_string());
        s
    }

    fn is_array(&self, name: &str) -> bool {
        self.unit.decls.is_array(name)
    }

    fn const_of(&self, name: &str) -> Option<i64> {
        self.unit
            .decls
            .params
            .get(name)
            .copied()
            .or_else(|| self.bindings.get(name).copied())
    }

    /// Compile an affine [`LinExpr`] into a [`CIdx`]: variables must be
    /// integer scalars (or fold to constants via params/bindings).
    fn cidx_of_lin(&mut self, lin: &LinExpr) -> CgResult<CIdx> {
        let mut out = CIdx::cst(lin.constant());
        for (v, c) in lin.terms() {
            if let Some(k) = self.const_of(v) {
                out.cst += k * c;
                continue;
            }
            if !is_integer_name(v, &self.unit.decls) {
                return err(format!(
                    "non-integer `{v}` in subscript in {}",
                    self.unit.name
                ));
            }
            let slot = self.int_slot(v);
            out.terms.push((slot, c));
        }
        Ok(out)
    }

    /// Compile an index expression (subscript / loop bound).
    fn cidx(&mut self, e: &Expr) -> CgResult<CIdx> {
        match affine(e, &self.unit.decls) {
            Some(lin) => self.cidx_of_lin(&lin),
            None => err(format!(
                "non-affine index expression at line {} in {}",
                e.span().line,
                self.unit.name
            )),
        }
    }

    /// Compile a value expression.
    fn cexpr(&mut self, e: &Expr) -> CgResult<CExpr> {
        // affine integer expressions stay exact
        if let Some(lin) = affine(e, &self.unit.decls) {
            if let Ok(ci) = self.cidx_of_lin(&lin) {
                return Ok(CExpr::Int(ci));
            }
        }
        Ok(match e {
            Expr::Int(v, _) => CExpr::Const(*v as f64),
            Expr::Real(v, _) => CExpr::Const(*v),
            Expr::Logical(b, _) => CExpr::Const(if *b { 1.0 } else { 0.0 }),
            Expr::Un(ast::UnOp::Neg, a, _) => CExpr::Neg(Box::new(self.cexpr(a)?)),
            Expr::Un(ast::UnOp::Not, a, _) => CExpr::Bin(
                BinOp::Eq,
                Box::new(self.cexpr(a)?),
                Box::new(CExpr::Const(0.0)),
            ),
            Expr::Bin(op, a, b, _) => {
                CExpr::Bin(*op, Box::new(self.cexpr(a)?), Box::new(self.cexpr(b)?))
            }
            Expr::Ref(r) => {
                if ast::is_intrinsic(&r.name) && !self.is_array(&r.name) {
                    let idx = INTRINSIC_NAMES
                        .iter()
                        .position(|n| *n == r.name)
                        .ok_or_else(|| CodegenError(format!("intrinsic `{}`", r.name)))?;
                    let args: CgResult<Vec<CExpr>> = r.subs.iter().map(|a| self.cexpr(a)).collect();
                    CExpr::Intr(idx, args?)
                } else if r.subs.is_empty() {
                    if let Some(k) = self.const_of(&r.name) {
                        CExpr::Const(k as f64)
                    } else if is_integer_name(&r.name, &self.unit.decls) {
                        CExpr::Int(CIdx {
                            terms: vec![(self.int_slot(&r.name), 1)],
                            cst: 0,
                        })
                    } else {
                        CExpr::LoadF(self.float_slot(&r.name))
                    }
                } else {
                    let arr = self.array_slot(&r.name);
                    let subs: CgResult<Vec<CIdx>> = r.subs.iter().map(|s| self.cidx(s)).collect();
                    CExpr::Load { arr, subs: subs? }
                }
            }
        })
    }

    /// Compile a CP into a guard. Replicated → `None`.
    pub(crate) fn guard_of(&mut self, cp: &Cp) -> CgResult<Option<Guard>> {
        if cp.is_replicated() {
            return Ok(None);
        }
        let env = self.env;
        let mut terms = Vec::with_capacity(cp.terms.len());
        for t in &cp.terms {
            // a term everyone runs makes the whole CP replicated
            let Some(cuts) = t.cuts(env) else {
                return Ok(None);
            };
            let arr = self.array_slot(&t.array);
            let mut atoms = Vec::with_capacity(cuts.len());
            for Cut { dim, sub, .. } in cuts {
                atoms.push(match sub {
                    SubTerm::Affine(e) => GuardAtom::In {
                        arr,
                        dim,
                        sub: self.cidx_of_lin(e)?,
                    },
                    SubTerm::Range(a, b) => GuardAtom::Overlap {
                        arr,
                        dim,
                        lo: self.cidx_of_lin(a)?,
                        hi: self.cidx_of_lin(b)?,
                    },
                });
            }
            terms.push(atoms);
        }
        Ok(Some(Guard { terms }))
    }

    /// Register the unit's declared arrays: commons by bare name,
    /// unit-locals qualified, dummies deferred.
    pub fn register_arrays(&mut self) -> CgResult<()> {
        let common_names: Vec<&String> = self
            .unit
            .decls
            .commons
            .iter()
            .flat_map(|(_, names)| names.iter())
            .collect();
        let dummies = self.unit.args().to_vec();
        for (name, decl) in &self.unit.decls.vars {
            if decl.rank() == 0 {
                continue;
            }
            let slot = self.array_slot(name);
            let _ = slot;
            if dummies.contains(name) {
                continue; // bound at call time
            }
            let mut bounds = Vec::new();
            for (l, h) in &decl.dims {
                let lo = self.eval_const(l)?;
                let hi = self.eval_const(h)?;
                bounds.push((lo, hi));
            }
            let key = if common_names.contains(&name) {
                name.clone()
            } else {
                format!("{}::{}", self.unit.name, name)
            };
            let dist = self.env.dist_of(name).cloned();
            self.globals.intern(key, bounds, dist);
        }
        Ok(())
    }

    fn eval_const(&self, e: &Expr) -> CgResult<i64> {
        let lin = affine(e, &self.unit.decls)
            .ok_or_else(|| CodegenError(format!("non-affine extent in {}", self.unit.name)))?;
        lin.eval(&|v| self.bindings.get(v).copied())
            .ok_or_else(|| CodegenError(format!("unbound extent `{lin}` in {}", self.unit.name)))
    }

    /// Resolve the global binding table for local array slots.
    fn resolve_globals(&self) -> Vec<Option<usize>> {
        let common_names: Vec<&String> = self
            .unit
            .decls
            .commons
            .iter()
            .flat_map(|(_, names)| names.iter())
            .collect();
        let dummies = self.unit.args();
        self.array_names
            .iter()
            .map(|name| {
                if dummies.contains(name) {
                    None
                } else if common_names.contains(&name) {
                    self.globals.get(name)
                } else {
                    self.globals.get(&format!("{}::{}", self.unit.name, name))
                }
            })
            .collect()
    }

    /// Bind a plan's transfers to this unit's array slots and widen the
    /// receivers' ghost regions to hold them. The planner could only
    /// order by array name; sender and receiver walk the segments in
    /// slot order, so both levels are sorted again after binding.
    fn compile_msgs(&mut self, plan: &[Transfer<String>]) -> Vec<Transfer<usize>> {
        for (_, to, s) in segments(plan) {
            let Some(dist) = self.env.dist_of(&s.arr) else {
                continue;
            };
            let grid = self.env.grid.as_ref().expect("a planned nest has a grid");
            let coords = grid.coords(to as i64);
            for dim in 0..dist.dims.len() {
                if let Some((olo, ohi)) = dist.owned_range(dim, &coords) {
                    let excess_lo = (olo - s.lo[dim]).max(0) as usize;
                    let excess_hi = (s.hi[dim] - ohi).max(0) as usize;
                    let width = excess_lo.max(excess_hi);
                    if width > 0 {
                        if let Some(g) = self.global_of_name(&s.arr) {
                            self.globals.need_ghost(g, dim, width);
                        }
                    }
                }
            }
        }
        let mut out: Vec<Transfer<usize>> = plan
            .iter()
            .map(|t| {
                let mut t = t.rebind(|name| Some(self.array_slot(name)));
                t.segs.sort();
                t
            })
            .collect();
        out.sort();
        out
    }

    fn global_of_name(&self, name: &str) -> Option<usize> {
        let common_names: Vec<&String> = self
            .unit
            .decls
            .commons
            .iter()
            .flat_map(|(_, names)| names.iter())
            .collect();
        if common_names.contains(&&name.to_string()) {
            self.globals.get(name)
        } else {
            self.globals
                .get(&format!("{}::{}", self.unit.name, name))
                .or_else(|| self.globals.get(name))
        }
    }

    // ---- statement lowering -------------------------------------------------

    /// Compile the unit body into ops.
    pub fn compile_body(
        &mut self,
        body: &[Stmt],
        unit_index: &BTreeMap<String, usize>,
        units: &[&ProgramUnit],
    ) -> CgResult<Vec<NodeOp>> {
        let mut ops = Vec::new();
        for s in body {
            self.compile_stmt(s, unit_index, units, &mut ops)?;
        }
        Ok(ops)
    }

    fn compile_stmt(
        &mut self,
        s: &Stmt,
        unit_index: &BTreeMap<String, usize>,
        units: &[&ProgramUnit],
        ops: &mut Vec<NodeOp>,
    ) -> CgResult<()> {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                let guard = match self.cps.get(&s.id) {
                    Some(cp) => self.guard_of(cp)?,
                    None => None,
                };
                let value = self.cexpr(rhs)?;
                let flops = rhs.flop_count() + 1;
                if lhs.subs.is_empty() {
                    if is_integer_name(&lhs.name, &self.unit.decls) {
                        let slot = self.int_slot(&lhs.name);
                        ops.push(NodeOp::AssignI {
                            guard,
                            slot,
                            value,
                            flops,
                        });
                    } else {
                        let slot = self.float_slot(&lhs.name);
                        ops.push(NodeOp::AssignF {
                            guard,
                            slot,
                            value,
                            flops,
                        });
                    }
                } else {
                    // ghost widening for replicated writes: |const shift|
                    self.widen_for_write(lhs, self.cps.get(&s.id))?;
                    let arr = self.array_slot(&lhs.name);
                    let subs: CgResult<Vec<CIdx>> = lhs.subs.iter().map(|e| self.cidx(e)).collect();
                    ops.push(NodeOp::Assign {
                        guard,
                        arr,
                        subs: subs?,
                        value,
                        flops,
                    });
                }
                Ok(())
            }
            StmtKind::Do { .. } => match self.plans.get(&s.id) {
                Some(plan) => self.compile_planned_nest(s, plan.clone(), unit_index, units, ops),
                None => self.compile_loop(s, unit_index, units, ops),
            },
            StmtKind::If { arms } => {
                let mut carms = Vec::with_capacity(arms.len());
                for (cond, body) in arms {
                    let c = match cond {
                        Some(c) => Some(self.cexpr(c)?),
                        None => None,
                    };
                    carms.push((c, self.compile_body(body, unit_index, units)?));
                }
                ops.push(NodeOp::If { arms: carms });
                Ok(())
            }
            StmtKind::Call { name, args, .. } => {
                let Some(&unit) = unit_index.get(name) else {
                    return err(format!("call to uncompiled unit `{name}`"));
                };
                let callee = units[unit];
                let formals = callee.args();
                if formals.len() != args.len() {
                    return err(format!("arity mismatch calling {name}"));
                }
                let mut int_args = Vec::new();
                let mut float_args = Vec::new();
                let mut array_args = Vec::new();
                for (pos, (formal, actual)) in formals.iter().zip(args).enumerate() {
                    if callee.decls.is_array(formal) {
                        let Expr::Ref(r) = actual else {
                            return err(format!(
                                "array dummy `{formal}` of {name} needs a whole-array actual"
                            ));
                        };
                        if !r.subs.is_empty() || !self.is_array(&r.name) {
                            return err(format!(
                                "array dummy `{formal}` of {name} needs a whole-array actual"
                            ));
                        }
                        array_args.push((pos, self.array_slot(&r.name)));
                    } else if is_integer_name(formal, &callee.decls) {
                        int_args.push((pos, self.cexpr(actual)?));
                    } else {
                        float_args.push((pos, self.cexpr(actual)?));
                    }
                }
                ops.push(NodeOp::Call {
                    unit,
                    int_args,
                    float_args,
                    array_args,
                });
                Ok(())
            }
            StmtKind::Return => {
                // the driver admits RETURN only as the unit's final
                // statement, where it is the fall-through
                Ok(())
            }
            StmtKind::Continue => Ok(()),
        }
    }

    /// Lower one `do` level to a [`NodeOp::Loop`]; its body goes back
    /// through [`Self::compile_stmt`], where an inner nest finds its plan.
    fn compile_loop(
        &mut self,
        s: &Stmt,
        unit_index: &BTreeMap<String, usize>,
        units: &[&ProgramUnit],
        ops: &mut Vec<NodeOp>,
    ) -> CgResult<()> {
        let Some((PipeLevel { var, lo, hi, step }, body)) = self.loop_level(s)? else {
            return err("plan attached to non-loop");
        };
        let body = self.compile_body(body, unit_index, units)?;
        ops.push(NodeOp::Loop {
            var,
            lo,
            hi,
            step,
            body,
        });
        Ok(())
    }

    /// The header of a `do` as a [`PipeLevel`], with the body; `None`
    /// when `s` is not a loop.
    fn loop_level<'s>(&mut self, s: &'s Stmt) -> CgResult<Option<(PipeLevel, &'s [Stmt])>> {
        let StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            ..
        } = &s.kind
        else {
            return Ok(None);
        };
        let level = PipeLevel {
            var: self.int_slot(var),
            lo: self.cidx(lo)?,
            hi: self.cidx(hi)?,
            step: self.const_step(step.as_ref())?,
        };
        Ok(Some((level, body)))
    }

    /// The [`LoopChain`] starting at the planned loop `s`: the levels the
    /// planner's [`UnitLoops::chain`](dhpf_depend::loops::UnitLoops::chain)
    /// numbers.
    fn loop_chain<'s>(&mut self, s: &'s Stmt) -> CgResult<LoopChain<'s>> {
        let mut levels = Vec::new();
        let mut cur = s;
        while let Some((level, body)) = self.loop_level(cur)? {
            levels.push(level);
            match body {
                [inner] if matches!(inner.kind, StmtKind::Do { .. }) => cur = inner,
                _ => return Ok((levels, body)),
            }
        }
        err("planned nest is not a loop")
    }

    /// The step of a `do` loop, which every nest form needs as a nonzero
    /// compile-time constant (absent: 1).
    fn const_step(&mut self, step: Option<&Expr>) -> CgResult<i64> {
        let Some(e) = step else { return Ok(1) };
        let c = self.cidx(e)?;
        if !c.terms.is_empty() {
            return err("non-constant do step");
        }
        if c.cst == 0 {
            return err("zero do-loop step");
        }
        Ok(c.cst)
    }

    /// Widen ghost regions for writes that can land outside the owned
    /// block: (a) subscripts with a constant shift off a bare induction
    /// variable, and (b) partial replication — the CP's union terms place
    /// the writer up to |lhs_sub − term_sub| cells across the boundary.
    fn widen_for_write(&mut self, lhs: &ast::ArrayRef, cp: Option<&Cp>) -> CgResult<()> {
        let env = self.env;
        let Some(dist) = env.dist_of(&lhs.name) else {
            return Ok(());
        };
        if !dist.is_distributed() {
            return Ok(());
        }
        let Some(g) = self.global_of_name(&lhs.name) else {
            return Ok(());
        };
        for (dim, m) in dist.dims.iter().enumerate() {
            let crate::distrib::DimMap::Block { pdim, .. } = m else {
                continue;
            };
            let Some(lhs_lin) = affine(&lhs.subs[dim], &self.unit.decls) else {
                continue;
            };
            // (a) constant shift off a single unit-coefficient variable
            if lhs_lin.num_vars() == 1 && lhs_lin.terms().next().map(|(_, c)| c.abs()) == Some(1) {
                let shift = lhs_lin.constant().unsigned_abs() as usize;
                if shift > 0 {
                    self.globals.need_ghost(g, dim, shift);
                }
            }
            // (b) CP union terms shifted relative to the LHS subscript,
            // matched to it by processor-grid dimension
            let cuts = cp
                .iter()
                .flat_map(|cp| &cp.terms)
                .filter_map(|t| t.cuts(env));
            for cut in cuts.flatten().filter(|cut| cut.block().0 == *pdim) {
                if let SubTerm::Affine(te) = cut.sub {
                    let diff = lhs_lin.clone() - te.clone();
                    if diff.is_constant() {
                        let w = diff.constant().unsigned_abs() as usize;
                        if w > 0 {
                            self.globals.need_ghost(g, dim, w);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Compile a loop that has a communication plan: pre-exchange, the
    /// (possibly pipelined) nest, post write-backs.
    fn compile_planned_nest(
        &mut self,
        s: &Stmt,
        plan: NestPlan,
        unit_index: &BTreeMap<String, usize>,
        units: &[&ProgramUnit],
        ops: &mut Vec<NodeOp>,
    ) -> CgResult<()> {
        let pre = self.compile_msgs(plan.pre());
        let pre_arrays = plan.pre_arrays();
        match &plan {
            // the planner proved the overlap sound and named its levels
            NestPlan::Parallel {
                overlap: Some(halos),
                ..
            } => {
                let (levels, body) = self.loop_chain(s)?;
                let interior = self.interior(halos, &levels)?;
                let body = self.compile_body(body, unit_index, units)?;
                let tag = self.fresh_tag();
                let plan_id = self.register_prov(s, ProvKind::Overlap, pre_arrays, tag);
                ops.push(NodeOp::OverlapNest {
                    msgs: pre,
                    tag,
                    levels,
                    body,
                    interior,
                    plan: plan_id,
                });
            }
            NestPlan::Parallel { overlap: None, .. } => {
                if !pre.is_empty() {
                    let tag = self.fresh_tag();
                    let plan_id = self.register_prov(s, ProvKind::Pre, pre_arrays, tag);
                    ops.push(NodeOp::Exchange {
                        msgs: pre,
                        tag,
                        plan: plan_id,
                    });
                }
                // plain nest with guards
                self.compile_loop(s, unit_index, units, ops)?;
            }
            NestPlan::Pipelined { hops, schedule, .. } => {
                if !pre.is_empty() {
                    let tag = self.fresh_tag();
                    let plan_id = self.register_prov(s, ProvKind::Pre, pre_arrays, tag);
                    ops.push(NodeOp::Exchange {
                        msgs: pre,
                        tag,
                        plan: plan_id,
                    });
                }
                self.compile_pipeline(s, schedule, hops, unit_index, units, ops)?;
            }
        }
        let post = self.compile_msgs(plan.post());
        if !post.is_empty() {
            let tag = self.fresh_tag();
            let plan_id = self.register_prov(s, ProvKind::Post, plan.post_arrays(), tag);
            ops.push(NodeOp::Exchange {
                msgs: post,
                tag,
                plan: plan_id,
            });
        }
        Ok(())
    }

    /// The interior term of an overlapped nest: one [`GuardAtom::In`]
    /// per [`HaloRead`], `var + shift` on the read's dimension, `var` the
    /// variable of the loop at the read's level.
    fn interior(&mut self, halos: &[HaloRead], levels: &[PipeLevel]) -> CgResult<Vec<GuardAtom>> {
        let atom = |h: &HaloRead| {
            let Some(level) = levels.get(h.level) else {
                let n = levels.len();
                return err(format!(
                    "halo read of `{}` at level {} of a {n}-level nest",
                    h.array, h.level
                ));
            };
            let sub = CIdx {
                terms: vec![(level.var, 1)],
                cst: h.shift,
            };
            let (arr, dim) = (self.array_slot(&h.array), h.dim);
            Ok(GuardAtom::In { arr, dim, sub })
        };
        halos.iter().map(atom).collect()
    }

    fn compile_pipeline(
        &mut self,
        s: &Stmt,
        schedule: &PipeSchedule,
        hops: &[Transfer<String>],
        unit_index: &BTreeMap<String, usize>,
        units: &[&ProgramUnit],
        ops: &mut Vec<NodeOp>,
    ) -> CgResult<()> {
        let (levels, body_ref) = self.loop_chain(s)?;
        let body = self.compile_body(body_ref, unit_index, units)?;
        let hops = self.compile_msgs(hops);
        let strip = schedule.strip_level.map(|level| Strip {
            level,
            granularity: schedule.granularity.max(1),
            owned: schedule.strip_owned.clone(),
            dims: (schedule.arrays.iter())
                .filter_map(|a| Some((self.array_slot(&a.array), a.strip_dim?)))
                .collect(),
        });
        let tag = self.fresh_tag();
        let swept: Vec<String> = schedule.arrays.iter().map(|s| s.array.clone()).collect();
        let plan_id = self.register_prov(s, ProvKind::Pipeline, swept, tag);
        ops.push(NodeOp::Pipeline {
            levels,
            body,
            strip,
            hops,
            tag,
            plan: plan_id,
        });
        Ok(())
    }

    /// Finalize into a [`CompiledUnit`].
    pub fn finish(self, ops: Vec<NodeOp>) -> CompiledUnit {
        let array_global = self.resolve_globals();
        let mut formals = Vec::new();
        for f in self.unit.args() {
            if self.unit.decls.is_array(f) {
                formals.push(FormalSlot::Array(
                    self.array_slots.get(f).copied().unwrap_or(usize::MAX),
                ));
            } else if is_integer_name(f, &self.unit.decls) {
                formals.push(FormalSlot::Int(
                    self.int_slots.get(f).copied().unwrap_or(usize::MAX),
                ));
            } else {
                formals.push(FormalSlot::Float(
                    self.float_slots.get(f).copied().unwrap_or(usize::MAX),
                ));
            }
        }
        CompiledUnit {
            name: self.unit.name.clone(),
            n_ints: self.int_slots.len(),
            n_floats: self.float_slots.len(),
            n_arrays: self.array_names.len(),
            formals,
            array_global,
            array_names: self.array_names,
            ops,
        }
    }
}

/// Collect the local array slots an op subtree can write: compute
/// stores, plus slots refreshed by unpacking communication (exchanges,
/// overlap waits, pipeline boundary receives). Returns `false` — treat
/// as "may write anything" — when the subtree calls another unit, since
/// callee effects are not visible at this level.
fn written_slots(ops: &[NodeOp], acc: &mut std::collections::BTreeSet<usize>) -> bool {
    for op in ops {
        match op {
            NodeOp::Assign { arr, .. } => {
                acc.insert(*arr);
            }
            NodeOp::AssignF { .. } | NodeOp::AssignI { .. } => {}
            NodeOp::Call { .. } => return false,
            NodeOp::Loop { body, .. } => {
                if !written_slots(body, acc) {
                    return false;
                }
            }
            NodeOp::If { arms } => {
                for (_, body) in arms {
                    if !written_slots(body, acc) {
                        return false;
                    }
                }
            }
            NodeOp::Exchange { msgs, .. } => acc.extend(segments(msgs).map(|(_, _, s)| s.arr)),
            NodeOp::OverlapNest { msgs, body, .. }
            | NodeOp::Pipeline {
                hops: msgs, body, ..
            } => {
                acc.extend(segments(msgs).map(|(_, _, s)| s.arr));
                if !written_slots(body, acc) {
                    return false;
                }
            }
        }
    }
    true
}

/// Coalesce the segments of one packed transfer: regions of the same
/// array that earlier segments already carry are subtracted from later
/// ones (all segments pack from the same sender snapshot, so the
/// receiver reconstructs the full union either way). Empty remainders
/// vanish; output keeps the canonical order.
fn dedup_packed_segs(msg: &mut Transfer<usize>) {
    let mut out: Vec<Seg<usize>> = Vec::new();
    for seg in std::mem::take(&mut msg.segs) {
        let prior = out.iter().filter(|p| p.arr == seg.arr).map(Seg::region);
        let pieces = seg.region().subtract_all(prior);
        out.extend(pieces.into_iter().map(|r| Seg::new(seg.arr, r)));
    }
    out.sort();
    msg.segs = out;
}

/// True when fusing B's messages into A would break the sequential
/// delivery semantics: some rank sends a region in B that A delivers
/// into (the send must read A's freshly received values — e.g. a
/// write-back forwarded onward as the next nest's halo), or two
/// different senders deliver overlapping regions to the same receiver
/// (the unfused order made B's value win). Same-sender re-delivery is
/// fine: the sender's copy cannot change between the two adjacent ops,
/// so the duplicate carries the same bytes and `dedup_packed_segs`
/// drops it.
fn delivery_hazard(a_msgs: &[Transfer<usize>], b_msgs: &[Transfer<usize>]) -> bool {
    segments(b_msgs).any(|(b_from, b_to, s)| {
        let region = s.region();
        a_msgs.iter().any(|a| {
            let read_hazard = a.to == b_from;
            let write_hazard = a.to == b_to && a.from != b_from;
            let delivers = |r: &Seg<usize>| r.arr == s.arr && r.region().overlaps(&region);
            (read_hazard || write_hazard) && a.segs.iter().any(delivers)
        })
    })
}

/// Cross-nest per-peer aggregation: fuse the messages of *adjacent*
/// communication ops so same-endpoint transfers that were split only by
/// statement boundaries pack into one physical message.
///
/// Two shapes are fused, recursively through loops and branches:
///
/// * `OverlapNest A; OverlapNest B` — when A's nest body writes none of
///   the arrays B communicates, B's halo data is already current at A's
///   comm point, so B's messages hoist into A's nonblocking set (one
///   packed send/recv per peer, unpacked at A's wait) and B degenerates
///   to a pure compute nest. A's own unpacks don't interfere: halo
///   receives land in ghost cells, packs read owned cells.
/// * `Exchange A; Exchange B` — nothing executes between two adjacent
///   blocking exchanges, so their unions are trivially mergeable and B
///   disappears.
///
/// Fusion only fires when packing actually removes physical messages.
/// Returns the number of messages saved and records a `comm-aggregated`
/// decision per fused pair against the absorbed nest's statement.
pub fn fuse_adjacent_comm(ops: &mut Vec<NodeOp>, provs: &[PlanProv]) -> usize {
    use dhpf_obs::{self as obs, CommPhase, Decision, DecisionKind};
    let mut saved = 0usize;
    // recurse first so inner lists are in final form
    for op in ops.iter_mut() {
        match op {
            NodeOp::Loop { body, .. } => saved += fuse_adjacent_comm(body, provs),
            NodeOp::If { arms } => {
                for (_, body) in arms.iter_mut() {
                    saved += fuse_adjacent_comm(body, provs);
                }
            }
            _ => {}
        }
    }
    let mut i = 0;
    while i + 1 < ops.len() {
        // split around the pair so both ops can be borrowed mutably
        let (head, tail) = ops.split_at_mut(i + 1);
        // the two transfer lists, B's plan, and whether B has anything
        // left to do once its transfers are gone
        let pair = match (&mut head[i], &mut tail[0]) {
            (
                NodeOp::OverlapNest {
                    msgs: a,
                    body: nest,
                    ..
                },
                NodeOp::OverlapNest { msgs: b, plan, .. },
            ) => {
                let mut writes = std::collections::BTreeSet::new();
                let clobbered = !written_slots(nest, &mut writes)
                    || segments(b).any(|(_, _, s)| writes.contains(&s.arr));
                (!clobbered).then_some((a, b, *plan, false))
            }
            (NodeOp::Exchange { msgs: a, .. }, NodeOp::Exchange { msgs: b, plan, .. }) => {
                Some((a, b, *plan, true))
            }
            _ => None,
        };
        let fused = pair.and_then(|(a, b, plan, drop_b)| {
            if a.is_empty() || b.is_empty() || delivery_hazard(a, b) {
                return None;
            }
            let before = a.len() + b.len();
            let all = segments(a).chain(segments(b));
            let mut merged = pack_per_peer(all.map(|(f, t, s)| (f, t, s.clone())).collect(), true);
            merged.iter_mut().for_each(dedup_packed_segs);
            (merged.len() < before).then(|| {
                let after = merged.len();
                *a = merged;
                b.clear();
                let prov = provs.get(plan as usize).map(|p| (p.stmt, p.unit.clone()));
                (before - after, after, before, prov, drop_b)
            })
        });
        match fused {
            Some((delta, after, before, prov, drop_b)) => {
                saved += delta;
                obs::decide(|| {
                    let mut d = Decision::new(DecisionKind::CommAggregated {
                        phase: CommPhase::Pre,
                        peers: after,
                        messages_before: before,
                        messages_after: after,
                    });
                    if let Some((s, u)) = prov {
                        d = d.stmt(ast::StmtId(s)).unit(u);
                    }
                    d
                });
                if drop_b {
                    ops.remove(i + 1);
                }
                // stay on i: a further adjacent exchange may merge too
            }
            None => i += 1,
        }
    }
    saved
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(arr: usize, lo: &[i64], hi: &[i64]) -> Seg<usize> {
        Seg {
            arr,
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    fn msg(from: usize, to: usize, segs: Vec<Seg<usize>>) -> Transfer<usize> {
        Transfer { from, to, segs }
    }

    #[test]
    fn dedup_packed_segs_subtracts_prior_overlap() {
        let mut m = msg(
            0,
            1,
            vec![
                seg(7, &[1], &[10]),
                seg(7, &[8], &[12]),
                seg(8, &[1], &[10]),
            ],
        );
        dedup_packed_segs(&mut m);
        let total: i64 = m
            .segs
            .iter()
            .filter(|s| s.arr == 7)
            .map(|s| s.hi[0] - s.lo[0] + 1)
            .sum();
        assert_eq!(total, 12, "arr 7 must cover 1..=12 exactly once");
        assert_eq!(m.segs.iter().filter(|s| s.arr == 8).count(), 1);
    }

    #[test]
    fn delivery_hazard_blocks_forwarding_and_allows_halos() {
        // rank 1 receives wl[9] in A, then sends wl[9] onward in B:
        // the fuzz-found write-back forwarding chain — must refuse
        let a = vec![msg(0, 1, vec![seg(3, &[9], &[9])])];
        let b = vec![msg(1, 0, vec![seg(3, &[9], &[9])])];
        assert!(delivery_hazard(&a, &b));
        // same sender re-delivering an overlapping halo region is fine
        // (values identical; dedup_packed_segs drops the duplicate)
        let b2 = vec![msg(0, 1, vec![seg(3, &[8], &[9])])];
        assert!(!delivery_hazard(&a, &b2));
        // two different senders writing the same receiver cells: the
        // unfused order made B's value win — must refuse
        let b3 = vec![msg(2, 1, vec![seg(3, &[9], &[9])])];
        assert!(delivery_hazard(&a, &b3));
        // different array, same indices: no hazard
        let b4 = vec![msg(1, 0, vec![seg(2, &[9], &[9])])];
        assert!(!delivery_hazard(&a, &b4));
    }

    /// Each chunk of a strip holds `granularity` trips of the loop as it
    /// runs, whatever its step, and the chunks' windows tile the owned
    /// strip: every trip in it lands in exactly one chunk, in loop order.
    #[test]
    fn strip_chunks_count_trips_in_loop_order() {
        for step in [-1i64, 1, 2, -2, 3] {
            let range = if step > 0 { (1, 20) } else { (20, 1) };
            let trips: Vec<i64> = (0..)
                .map(|k| range.0 + k * step)
                .take_while(|v| (1..=20).contains(v))
                .collect();
            for owned in [
                None,
                Some((5, 12)),
                Some((6, 6)),
                Some((13, 20)),
                Some((7, 3)),
            ] {
                for granularity in 1..=5 {
                    let strip = Strip {
                        level: 0,
                        granularity,
                        owned: owned.map(|o| vec![o]),
                        dims: vec![],
                    };
                    let chunks = strip.chunks(range, step, 0);
                    let case = format!("step {step}, owned {owned:?}, granularity {granularity}");
                    let (lo, hi) = owned.unwrap_or((1, 20));
                    if lo > hi {
                        assert!(chunks.len() == 1 && chunks[0].0 > chunks[0].1, "{case}");
                        continue;
                    }
                    // the windows, in ascending order, tile the owned strip
                    let mut windows = chunks.clone();
                    if step < 0 {
                        windows.reverse();
                    }
                    assert_eq!(windows[0].0, lo, "{case}");
                    assert_eq!(windows[windows.len() - 1].1, hi, "{case}");
                    assert!(windows.iter().all(|w| w.0 <= w.1), "{case}");
                    assert!(windows.windows(2).all(|w| w[0].1 + 1 == w[1].0), "{case}");
                    // chunk by chunk, the trips are those of the owned strip
                    // in loop order, `granularity` to each chunk but the last
                    let within = |&(a, b): &(i64, i64)| -> Vec<i64> {
                        trips
                            .iter()
                            .copied()
                            .filter(|v| a <= *v && *v <= b)
                            .collect()
                    };
                    let held: Vec<Vec<i64>> = chunks.iter().map(within).collect();
                    assert_eq!(held.concat(), within(&(lo, hi)), "{case}");
                    let (last, full) = held.split_last().unwrap();
                    assert!(full.iter().all(|t| t.len() as i64 == granularity), "{case}");
                    assert!(last.len() as i64 <= granularity, "{case}");
                    assert!(!last.is_empty() || held.len() == 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn cidx_eval() {
        let c = CIdx {
            terms: vec![(0, 2), (1, -1)],
            cst: 5,
        };
        assert_eq!(c.eval(&[3, 4]), 2 * 3 - 4 + 5);
        assert_eq!(CIdx::cst(-2).eval(&[]), -2);
    }

    #[test]
    fn global_registry_interns_and_widens() {
        let mut g = GlobalRegistry::default();
        let a = g.intern("x".into(), vec![(1, 8)], None);
        let b = g.intern("x".into(), vec![(1, 8)], None);
        assert_eq!(a, b);
        let c = g.intern("y".into(), vec![(0, 3), (0, 3)], None);
        assert_ne!(a, c);
        g.need_ghost(c, 1, 2);
        g.need_ghost(c, 1, 1); // narrower request must not shrink
        assert_eq!(g.arrays[c].ghost, vec![0, 2]);
    }

    #[test]
    fn intrinsic_name_table_is_consistent() {
        // every intrinsic the front end accepts must be executable
        for name in dhpf_fortran::ast::INTRINSICS {
            assert!(
                INTRINSIC_NAMES.contains(name),
                "intrinsic `{name}` parsed but not executable"
            );
        }
    }
}
