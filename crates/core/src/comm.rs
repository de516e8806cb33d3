//! Communication analysis: non-local data sets, message vectorization
//! and coalescing, overlap-area exchanges, and coarse-grain pipelining
//! for wavefront nests.
//!
//! For every top-level loop nest the analysis produces a [`NestPlan`]:
//!
//! * **Parallel** nests get *pre-exchanges* (vectorized ghost updates of
//!   every value read but neither owned, nor covered by a preceding
//!   write on the same processor — the §7 availability rule folds the
//!   partial-replication optimizations of §4 into one uniform test) and
//!   *post write-backs* (non-owner-computed values returned to their
//!   owners, minus values the owner redundantly computes itself).
//! * **Pipelined** nests (a carried flow dependence along a distributed
//!   dimension) get the same pre-exchanges plus a sweep schedule and its
//!   *hops*: the nest is strip-mined along an orthogonal parallel loop
//!   with uniform granularity `G`, and each strip chunk receives its part
//!   of the predecessor's boundary planes before computing and forwards
//!   its own afterwards. A hop is one more [`Transfer`], planned here
//!   once over the whole owned strip and cut to a chunk by
//!   [`crate::codegen::Strip::cut`].
//!
//! Parallel nests whose pre-exchange is a pure ghost-cell halo update
//! additionally carry an *overlap* recipe ([`HaloRead`] list): the
//! generated SPMD code posts nonblocking receives, computes the interior
//! iterations (those reading only owned data), waits, and finishes the
//! boundary — hiding message flight time behind interior compute (§3).

use crate::avail::{self, accessed_row, nest_bounds};
use crate::cp::{Cp, CpTerm, SubTerm};
use crate::distrib::{ArrayDist, DimMap, DistEnv, ProcGrid};
use crate::driver::OptFlags;
use crate::select::CpAssignment;
use crate::transfer::{pack_per_peer, segments, Region, Seg, Transfer};
use dhpf_depend::dep::{DepKind, Dependence};
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::{RefInfo, UnitRefs};
use dhpf_depend::usedef;
use dhpf_fortran::ast::{RefId, StmtId};
use dhpf_iset::enumerate::bounding_box;
use dhpf_iset::{LinExpr, Set};
use dhpf_obs::{self as obs, CommPhase, Decision, DecisionKind, ElimReason};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A vectorized section on its way to being packed: `(from, to, section)`.
type Flat = (usize, usize, Seg<String>);

/// The sweep schedule of a pipelined nest.
#[derive(Clone, Debug, PartialEq)]
pub struct PipeSchedule {
    /// Index (within the nest, outermost = 0) of the sequential sweep loop.
    pub sweep_level: usize,
    /// Sweep direction: `true` = increasing indices.
    pub forward: bool,
    /// Processor-grid dimension the sweep crosses.
    pub pdim: usize,
    /// The arrays the sweep carries, each with its swept and strip
    /// dimensions.
    pub arrays: Vec<SweptArray>,
    /// Write-ahead depth: planes written past the owned block (non-owner
    /// writes forwarded to the successor).
    pub depth: i64,
    /// Read-behind depth: planes read from the predecessor's block.
    pub read_depth: i64,
    /// Index of the loop to strip-mine for coarse-grain pipelining
    /// (`None`: whole local block is one strip).
    pub strip_level: Option<usize>,
    /// Iterations of the strip loop per communication.
    pub granularity: i64,
    /// Per rank, the part of the strip loop's range it runs: its owned
    /// range of the strip dimension of the first array the strip cuts,
    /// which is what its hops carry there (`None`: the strip cuts no
    /// array, and every rank runs the whole range).
    pub strip_owned: Option<Vec<(i64, i64)>>,
}

/// One array a pipelined nest sweeps.
#[derive(Clone, Debug, PartialEq)]
pub struct SweptArray {
    pub array: String,
    /// The distributed dimension the sweep traverses.
    pub dim: usize,
    /// The dimension the nest subscripts with the strip loop's variable:
    /// the one each strip chunk cuts (`None`: no strip loop, or the nest
    /// never indexes the array by it).
    pub strip_dim: Option<usize>,
}

/// One ghost-halo read direction of an overlappable parallel nest: the
/// nest reads `array[.., var + shift, ..]` on distributed dimension
/// `dim`, where `var` is the variable of the loop at `level` of the
/// nest's chain ([`UnitLoops::chain`]). An iteration is *interior* (safe
/// to run before the exchange completes) iff every halo read of it lands
/// in the owned block: `owned_lo <= value(var) + shift <= owned_hi`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HaloRead {
    pub array: String,
    pub dim: usize,
    pub level: usize,
    pub shift: i64,
}

/// Communication plan for one top-level nest. `pre`, `post` and `hops`
/// are the physical transfers, packed per peer once (`pre` and `post`
/// after coalescing).
#[derive(Clone, Debug)]
pub enum NestPlan {
    Parallel {
        pre: Vec<Transfer<String>>,
        post: Vec<Transfer<String>>,
        /// When `Some`, the pre-exchange may be overlapped with the
        /// nest's interior iterations (post-irecv / compute-interior /
        /// wait / compute-boundary). `None` means the exchange must
        /// complete before any iteration runs.
        overlap: Option<Vec<HaloRead>>,
    },
    Pipelined {
        pre: Vec<Transfer<String>>,
        post: Vec<Transfer<String>>,
        /// What each link of the sweep forwards, over the whole owned
        /// strip ([`Planner::hops`]).
        hops: Vec<Transfer<String>>,
        schedule: PipeSchedule,
    },
}

impl NestPlan {
    pub fn pre(&self) -> &[Transfer<String>] {
        match self {
            NestPlan::Parallel { pre, .. } | NestPlan::Pipelined { pre, .. } => pre,
        }
    }

    pub fn post(&self) -> &[Transfer<String>] {
        match self {
            NestPlan::Parallel { post, .. } | NestPlan::Pipelined { post, .. } => post,
        }
    }

    /// The hops of a pipelined nest; none for a parallel one.
    pub fn hops(&self) -> &[Transfer<String>] {
        match self {
            NestPlan::Pipelined { hops, .. } => hops,
            NestPlan::Parallel { .. } => &[],
        }
    }

    /// Halo recipe when the nest's pre-exchange may overlap compute.
    pub fn overlap(&self) -> Option<&[HaloRead]> {
        match self {
            NestPlan::Parallel { overlap, .. } => overlap.as_deref(),
            NestPlan::Pipelined { .. } => None,
        }
    }

    /// Arrays the pre-exchange moves — the stable provenance codegen
    /// records for the emitted op (and `dhpf profile` reports).
    pub fn pre_arrays(&self) -> Vec<String> {
        Self::msg_arrays(self.pre())
    }

    /// Arrays the post write-back moves.
    pub fn post_arrays(&self) -> Vec<String> {
        Self::msg_arrays(self.post())
    }

    fn msg_arrays(msgs: &[Transfer<String>]) -> Vec<String> {
        let mut names: Vec<String> = segments(msgs).map(|(_, _, s)| s.arr.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Analysis failure (pattern outside the compiler's repertoire).
#[derive(Debug, Clone, PartialEq)]
pub struct CommError(pub String);

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "communication analysis: {}", self.0)
    }
}

impl std::error::Error for CommError {}

/// Statistics of what the analysis eliminated (the counters of the
/// `dhpf bench flags` rows).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommReport {
    pub reads_examined: usize,
    pub reads_eliminated_by_availability: usize,
    pub writebacks_suppressed_by_replication: usize,
    pub pre_messages: usize,
    pub pre_volume: usize,
    pub post_messages: usize,
    pub post_volume: usize,
    pub overlapped_nests: usize,
    /// Physical messages eliminated by per-peer aggregation: plan-level
    /// (coalesced) message count minus the number of packed transfers
    /// actually sent. Zero when aggregation is disabled.
    pub messages_saved: usize,
}

/// Build the communication plan for the top-level loop `loop_id`.
/// Preceding writes for the availability rule (§7) are searched within
/// `scope` (`loop_id` itself, or an enclosing loop — e.g. the one-trip
/// LOCALIZE wrapper whose child nests are planned separately).
/// `scope_deps` are the dependences analyzed at scope level (used only
/// for the produces-before-consumes check). Of `flags` the analysis
/// reads `data_availability`, `overlap` and `aggregate`; `granularity`
/// is the coarse-grain pipelining strip size.
// the driver's entry point: its eleven inputs become the `Planner`'s
// fields, and nothing below it passes them on one by one
#[allow(clippy::too_many_arguments)]
pub fn plan_nest_scoped(
    loop_id: StmtId,
    scope: StmtId,
    scope_deps: Option<&[Dependence]>,
    loops: &UnitLoops,
    refs: &UnitRefs,
    deps: &[Dependence],
    cps: &CpAssignment,
    env: &DistEnv,
    flags: &OptFlags,
    granularity: i64,
    report: &mut CommReport,
) -> Result<NestPlan, CommError> {
    let grid = env
        .grid
        .as_ref()
        .ok_or_else(|| CommError("no processor grid declared".into()))?;
    let planner = Planner {
        loop_id,
        scope,
        loops,
        refs,
        deps,
        scope_deps: scope_deps.unwrap_or(deps),
        cps,
        env,
        flags,
        granularity,
        report,
        grid,
        chain: loops.chain(loop_id),
        coords: grid.ranks().map(|k| grid.coords(k)).collect(),
        owned: BTreeMap::new(),
        touched: BTreeMap::new(),
    };
    planner.plan()
}

/// One row of the per-rank table: entry `k` is rank `k`'s set.
type PerRank = Rc<Vec<Set>>;

/// One phase before packing: its vectorized sections, and the
/// `(stmt, array)` pairs that retained communication.
type Sections = (Vec<Flat>, Vec<(StmtId, String)>);

/// The planning of one nest: its inputs, and the one per-rank table
/// every question below is set algebra over — what a rank owns of an
/// array and what it touches through a reference. Rows are derived on
/// first use and die with the nest.
struct Planner<'a> {
    loop_id: StmtId,
    scope: StmtId,
    loops: &'a UnitLoops,
    refs: &'a UnitRefs,
    /// Dependences of the planned nest (level 0 = `loop_id`).
    deps: &'a [Dependence],
    /// Dependences of the availability scope.
    scope_deps: &'a [Dependence],
    cps: &'a CpAssignment,
    env: &'a DistEnv,
    flags: &'a OptFlags,
    granularity: i64,
    report: &'a mut CommReport,
    grid: &'a ProcGrid,
    /// The single-child loop chain from `loop_id` (level 0) inward.
    chain: Vec<StmtId>,
    /// `coords[k]`: grid coordinates of rank `k`.
    coords: Vec<Vec<i64>>,
    /// `owned[array][k]`: the elements of `array` rank `k` owns.
    owned: BTreeMap<String, PerRank>,
    /// `touched[ref][k]`: the elements rank `k` accesses through `ref`,
    /// running the reference's statement under its CP.
    touched: BTreeMap<RefId, PerRank>,
}

impl Planner<'_> {
    fn plan(mut self) -> Result<NestPlan, CommError> {
        let sweep = self.sweep();
        let pre = self.reads(sweep.as_ref())?;
        let pre = self.pack(pre, CommPhase::Pre);
        let post = self.writebacks(sweep.as_ref())?;
        let post = self.pack(post, CommPhase::Post);

        let loop_id = self.loop_id;
        match sweep {
            Some(schedule) => {
                obs::decide(|| {
                    Decision::new(DecisionKind::PipelineScheduled {
                        arrays: schedule.arrays.iter().map(|s| s.array.clone()).collect(),
                        granularity: schedule.granularity,
                        forward: schedule.forward,
                    })
                    .stmt(loop_id)
                });
                let hops = pack_per_peer(self.hops(&schedule), self.flags.aggregate);
                Ok(NestPlan::Pipelined {
                    pre,
                    post,
                    hops,
                    schedule,
                })
            }
            None => {
                let overlap = self.overlap(&pre);
                if let Some(halos) = &overlap {
                    self.report.overlapped_nests += 1;
                    obs::decide(|| {
                        let mut arrays: Vec<String> =
                            halos.iter().map(|h| h.array.clone()).collect();
                        arrays.dedup();
                        let halos = halos.len();
                        Decision::new(DecisionKind::CommOverlapped { arrays, halos }).stmt(loop_id)
                    });
                }
                Ok(NestPlan::Parallel { pre, post, overlap })
            }
        }
    }

    /// One phase's vectorized sections to its physical transfers:
    /// coalesce, report (the `CommRetained` decisions only now, so their
    /// counts match `CommReport` and the traces — a pre-coalesce count
    /// over-reports whenever regions merge), pack per peer.
    fn pack(&mut self, (mut flat, retained): Sections, phase: CommPhase) -> Vec<Transfer<String>> {
        coalesce(&mut flat);
        emit_retained(&retained, &flat, phase);
        let volume = flat.iter().map(|m| m.2.elems()).sum::<usize>();
        let (messages, elems) = match phase {
            CommPhase::Pre => (&mut self.report.pre_messages, &mut self.report.pre_volume),
            CommPhase::Post => (&mut self.report.post_messages, &mut self.report.post_volume),
        };
        *messages += flat.len();
        *elems += volume;
        let packed = pack_per_peer(flat, self.flags.aggregate);
        record_aggregation(&packed, phase, self.loop_id, self.report);
        packed
    }

    /// What each rank owns of `array`; `None` unless it is distributed.
    fn owned(&mut self, array: &str) -> Option<PerRank> {
        let dist = self.env.dist_of(array).filter(|d| d.is_distributed())?;
        if !self.owned.contains_key(array) {
            let row = self.coords.iter().map(|c| dist.owned_set(c)).collect();
            self.owned.insert(array.to_string(), Rc::new(row));
        }
        self.owned.get(array).cloned()
    }

    /// What each rank touches through `r`.
    fn touched(&mut self, r: &RefInfo) -> Result<PerRank, CommError> {
        if let Some(row) = self.touched.get(&r.id) {
            return Ok(row.clone());
        }
        let nest = nest_bounds(r.stmt, self.loops)
            .ok_or_else(|| CommError("non-affine loop bounds".into()))?;
        let replicated = Cp::default();
        let cp = self.cps.get(&r.stmt).unwrap_or(&replicated);
        let row = accessed_row(r, cp, &nest, self.env, self.grid);
        let row = Rc::new(row.ok_or_else(|| {
            let access = if r.is_write { "write" } else { "read" };
            CommError(format!("non-affine {access} subscripts"))
        })?);
        self.touched.insert(r.id, row.clone());
        Ok(row)
    }

    /// Pre-exchanges: per read of a distributed array, what each rank
    /// touches, minus what it owns, minus (§7) what it itself produced
    /// through the preceding write — fetched from the owners. Returns the
    /// sections and the `(stmt, array)` pairs that retained communication.
    fn reads(&mut self, sweep: Option<&PipeSchedule>) -> Result<Sections, CommError> {
        let (loops, refs, cps) = (self.loops, self.refs, self.cps);
        let ud = usedef::build(self.scope, loops, refs);
        let (mut pre, mut retained) = (Vec::new(), Vec::new());
        for stmt in loops.stmts_in(self.loop_id) {
            let Some(cp) = cps.get(&stmt) else { continue };
            for r in refs.of_stmt(stmt) {
                if r.is_write || r.is_scalar {
                    continue;
                }
                let Some(owned) = self.owned(&r.array) else {
                    continue;
                };
                if r.subs.iter().any(|s| s.is_none()) {
                    return Err(CommError(format!(
                        "non-affine subscript on distributed array `{}`",
                        r.array
                    )));
                }
                self.report.reads_examined += 1;
                match sweep {
                    Some(sch) if self.behind(sch, r, cp) => {
                        eliminated(r, ElimReason::CarriedByPipeline);
                        continue;
                    }
                    // the sweep schedule carries behind-values, and
                    // ahead-values are serial-order pre-nest values,
                    // which the pre-exchange delivers correctly
                    Some(_) => {}
                    None => self.stale(r, &owned)?,
                }
                // §7: data this processor itself produced through the
                // last preceding write (as owner or non-owner) is locally
                // available — trusted only with an actual flow dependence
                // (production precedes consumption). With the
                // optimization disabled, everything non-local is fetched
                // from its owner, as the base communication model says.
                let wrote = (ud.last_write_before.get(&r.id))
                    .filter(|_| self.flags.data_availability)
                    .and_then(|w| refs.by_id(*w))
                    .filter(|w| {
                        self.scope_deps.iter().any(|d| {
                            d.kind == DepKind::Flow && d.src_ref == w.id && d.dst_ref == r.id
                        })
                    })
                    .and_then(|w| self.touched(w).ok());
                let touched = self.touched(r)?;
                let dist = &self.env.arrays[&r.array];
                let pre_before = pre.len();
                let (mut any_nonlocal, mut available) = (false, wrote.is_some());
                for rank in 0..self.coords.len() {
                    let nonlocal = touched[rank].subtract(&owned[rank]);
                    if nonlocal.is_empty() {
                        continue;
                    }
                    any_nonlocal = true;
                    let residual = match &wrote {
                        Some(w) => nonlocal.subtract(&w[rank]),
                        None => nonlocal,
                    };
                    if residual.is_empty() {
                        continue;
                    }
                    available = false;
                    for (owner, piece) in foreign_pieces(&residual, &owned, dist, self.grid, rank) {
                        for region in regions_of(&piece) {
                            pre.push((owner, rank, Seg::new(r.array.clone(), region)));
                        }
                    }
                }
                if pre.len() > pre_before {
                    retained.push((stmt, r.array.clone()));
                } else if available || any_nonlocal {
                    // §7's "available": the residual is empty on every
                    // rank. (Non-local data nobody owns is recorded the
                    // same way but not counted; a purely local read with
                    // no producer is not a decision.)
                    self.report.reads_eliminated_by_availability += available as usize;
                    eliminated(r, ElimReason::AvailableFromPriorWrite);
                }
            }
        }
        Ok((pre, retained))
    }

    /// Is `r` a read of a swept array that trails its statement's CP
    /// against the sweep direction? Those values travel with the
    /// pipeline.
    fn behind(&self, sch: &PipeSchedule, r: &RefInfo, cp: &Cp) -> bool {
        let Some(swept) = sch.arrays.iter().find(|s| s.array == r.array) else {
            return false;
        };
        let Some(Some(sub)) = r.subs.get(swept.dim) else {
            return false;
        };
        let var = &self.loops.loops[&self.chain[sch.sweep_level]].var;
        sub.coeff(var) != 0 && shifts(sub, cp, swept.dim).any(|(_, d)| against(sch.forward, d) > 0)
    }

    /// The hops of a sweep: on every link along `pdim` in the sweep
    /// direction, each swept array's boundary slab — `read_depth` planes
    /// behind the receiver's edge and `depth` ahead of it, one plane
    /// behind when both are 0 — over the receiver's owned range of every
    /// other dimension, the strip dimension included. A link where either
    /// end owns nothing of the array moves none of it.
    fn hops(&self, sch: &PipeSchedule) -> Vec<Flat> {
        let (behind, ahead) = match (sch.read_depth, sch.depth) {
            (0, 0) => (1, 0),
            depths => depths,
        };
        let step = if sch.forward { 1 } else { -1 };
        let mut flat = Vec::new();
        for (from, coords) in self.coords.iter().enumerate() {
            let mut next = coords.clone();
            next[sch.pdim] += step;
            if !(0..self.grid.extents[sch.pdim]).contains(&next[sch.pdim]) {
                continue;
            }
            let to = self.grid.rank(&next) as usize;
            for a in &sch.arrays {
                let Some(dist) = self.env.dist_of(&a.array) else {
                    continue;
                };
                let (Some(_), Some(theirs)) = (dist.owned_box(coords), dist.owned_box(&next))
                else {
                    continue;
                };
                let mut region = Region {
                    lo: theirs.iter().map(|b| b.0).collect(),
                    hi: theirs.iter().map(|b| b.1).collect(),
                };
                // at the receiver's edge that faces the sender
                let (lo, hi) = theirs[a.dim];
                (region.lo[a.dim], region.hi[a.dim]) = if sch.forward {
                    (lo - behind, lo + ahead - 1)
                } else {
                    (hi - ahead + 1, hi + behind)
                };
                flat.push((from, to, Seg::new(a.array.clone(), region)));
            }
        }
        flat
    }

    /// Is `stmt` the replicated definition of a variable an enclosing
    /// loop declares NEW — what `propagate` leaves with privatizable CPs
    /// off? Every rank runs every instance of it, but an instance is
    /// live only on the ranks that run a use of the variable in the same
    /// iteration, and which those are the replicated CP no longer says.
    fn replicated_new_def(&self, stmt: StmtId) -> bool {
        let enclosing = self.loops.nest_of.get(&stmt).map_or(&[][..], |l| l);
        self.cps.get(&stmt).is_some_and(|cp| cp.terms.is_empty())
            && self.refs.write_of(stmt).is_some_and(|w| {
                (enclosing.iter()).any(|l| self.loops.loops[l].dir.new_vars.contains(&w.array))
            })
    }

    /// The one staleness rule of a non-pipelined nest. Its exchange runs
    /// before the nest, so a value `r` consumes from a write `w` *of this
    /// nest* — a flow dependence `w → r`, loop-independent or carried by
    /// one of the nest's loops — must be produced on the rank that reads
    /// it: the elements a rank reads without writing them itself may not
    /// meet what any other rank writes. A hit is inner-loop
    /// communication: unsupported, and what §5 loop distribution (for a
    /// loop-independent dependence) or placement inside the carrying loop
    /// would resolve. (Carried dependences onto a replicated NEW
    /// definition are not judged: across iterations the set test would
    /// count instances whose result is dead — SP's `fac1` with
    /// privatizable CPs off reads every rank's `lhs` and uses its own.)
    fn stale(&mut self, r: &RefInfo, owned: &[Set]) -> Result<(), CommError> {
        // the writes feeding `r`, each with the outermost level its
        // dependence holds at (`None`, loop-independent, sorts first)
        let mut feeds: BTreeMap<RefId, Option<usize>> = BTreeMap::new();
        let carried_too = !self.replicated_new_def(r.stmt);
        for d in self.deps {
            if d.kind == DepKind::Flow && d.dst_ref == r.id && (carried_too || d.level.is_none()) {
                let level = feeds.entry(d.src_ref).or_insert(d.level);
                *level = (*level).min(d.level);
            }
        }
        for (w, level) in feeds {
            let Some(w) = self.refs.by_id(w) else {
                continue;
            };
            let (read, written) = (self.touched(r)?, self.touched(w)?);
            // an owner-computed value lives in its writer's block: only
            // what a rank reads of other ranks' blocks can come from them
            let home = written.iter().zip(owned).all(|(w, own)| w.is_subset(own));
            let crosses = (0..read.len()).any(|rank| {
                let unmade = if home {
                    read[rank].subtract(&owned[rank]).subtract(&written[rank])
                } else {
                    read[rank].subtract(&written[rank])
                };
                !unmade.is_empty()
                    && (0..read.len())
                        .any(|o| o != rank && !unmade.intersect(&written[o]).is_empty())
            });
            if !crosses {
                continue;
            }
            return Err(CommError(match level {
                None => format!(
                    "read of `{}` needs inner-loop communication (value produced on \
                     another processor in the same nest); communication-sensitive \
                     loop distribution (§5) avoids this",
                    r.array
                ),
                Some(l) => {
                    let common = self.loops.common_loops(w.stmt, r.stmt);
                    let carrier = (common.iter())
                        .skip_while(|id| **id != self.loop_id)
                        .nth(l)
                        .expect("a dependence of the nest is carried by one of its loops");
                    format!(
                        "read of `{}` needs communication inside loop `{}` (value \
                         produced on another processor in an earlier iteration)",
                        r.array, self.loops.loops[carrier].var
                    )
                }
            }));
        }
        Ok(())
    }

    /// Write-backs (writer → owner): what a rank writes of other ranks'
    /// elements, minus what the owner redundantly computes itself.
    fn writebacks(&mut self, sweep: Option<&PipeSchedule>) -> Result<Sections, CommError> {
        let (mut post, mut retained) = (Vec::new(), Vec::new());
        for stmt in self.loops.stmts_in(self.loop_id) {
            if !self.cps.contains_key(&stmt) {
                continue;
            }
            for w in self.refs.of_stmt(stmt) {
                if !w.is_write || w.is_scalar {
                    continue;
                }
                let Some(owned) = self.owned(&w.array) else {
                    continue;
                };
                if sweep.is_some_and(|s| s.arrays.iter().any(|s| s.array == w.array)) {
                    continue;
                }
                let written = self.touched(w)?;
                let dist = &self.env.arrays[&w.array];
                let post_before = post.len();
                let suppressed_before = self.report.writebacks_suppressed_by_replication;
                for rank in 0..self.coords.len() {
                    let nonowned = written[rank].subtract(&owned[rank]);
                    if nonowned.is_empty() {
                        continue;
                    }
                    for (owner, piece) in foreign_pieces(&nonowned, &owned, dist, self.grid, rank) {
                        // owner computes these itself? then no write-back
                        let theirs = written[owner].intersect(&owned[owner]);
                        let piece = piece.subtract(&theirs);
                        if piece.is_empty() {
                            self.report.writebacks_suppressed_by_replication += 1;
                            continue;
                        }
                        for region in regions_of(&piece) {
                            post.push((rank, owner, Seg::new(w.array.clone(), region)));
                        }
                    }
                }
                if post.len() > post_before {
                    retained.push((w.stmt, w.array.clone()));
                } else if self.report.writebacks_suppressed_by_replication > suppressed_before {
                    eliminated(w, ElimReason::OwnerComputesRedundantly);
                }
            }
        }
        Ok((post, retained))
    }

    /// Decide whether the pre-exchange of a parallel nest may overlap the
    /// nest's interior compute (`flags.overlap` allowing), and if so
    /// return the halo recipe: one
    /// [`HaloRead`] per (array, block dim, chain level, shift) the nest
    /// reads of a pre-exchanged array.
    ///
    /// Overlap reorders iterations (interior before boundary), so it is
    /// only sound when:
    ///
    /// * the nest carries no dependence at any level (`level: Some(_)`)
    ///   — loop-independent deps are iteration-internal and unaffected;
    /// * no pre-exchanged array is written inside the nest — the unpack
    ///   runs after the interior pass and would clobber such writes;
    /// * every read of a pre-exchanged array subscripts each block-mapped
    ///   dimension as `var + c` with unit coefficient on a single nest
    ///   loop variable, so "reads stay in the owned box" is decidable per
    ///   iteration from the loop values alone.
    fn overlap(&self, pre: &[Transfer<String>]) -> Option<Vec<HaloRead>> {
        if !self.flags.overlap || pre.is_empty() || self.chain.is_empty() {
            return None;
        }
        if self.deps.iter().any(|d| d.level.is_some()) {
            return None;
        }
        let exchanged: std::collections::BTreeSet<&str> =
            segments(pre).map(|(_, _, s)| s.arr.as_str()).collect();
        let mut halos: Vec<HaloRead> = Vec::new();
        for stmt in self.loops.stmts_in(self.loop_id) {
            for r in self.refs.of_stmt(stmt) {
                if r.is_scalar || !exchanged.contains(r.array.as_str()) {
                    continue;
                }
                if r.is_write {
                    return None;
                }
                let dist = self.env.dist_of(&r.array)?;
                for (dim, m) in dist.dims.iter().enumerate() {
                    let DimMap::Block { .. } = m else { continue };
                    let Some(Some(sub)) = r.subs.get(dim) else {
                        return None;
                    };
                    let mut terms = sub.terms();
                    let Some((var, coeff)) = terms.next() else {
                        // constant subscript on a block dim: no loop bound
                        // shrinks the halo, so the whole nest is boundary
                        return None;
                    };
                    if terms.next().is_some() || coeff != 1 {
                        return None;
                    }
                    let level = (self.chain.iter()).position(|l| self.loops.loops[l].var == var)?;
                    let h = HaloRead {
                        array: r.array.clone(),
                        dim,
                        level,
                        shift: sub.constant(),
                    };
                    if !halos.contains(&h) {
                        halos.push(h);
                    }
                }
            }
        }
        (!halos.is_empty()).then_some(halos)
    }

    /// Detect a wavefront sweep: the outermost loop level carrying a flow
    /// dependence whose loop variable subscripts a dimension distributed
    /// over more than one processor.
    /// Levels index the chain (level 0 = `loop_id`); a `loop_id` that is
    /// not a loop has an empty chain and nothing can sweep.
    fn sweep(&self) -> Option<PipeSchedule> {
        let (loops, refs, env, nest) = (self.loops, self.refs, self.env, &self.chain);
        let mut sweep: Option<(usize, String, usize, usize, bool, i64)> = None;
        for d in self.deps {
            if d.kind != DepKind::Flow {
                continue;
            }
            let Some(level) = d.level else { continue };
            if level >= nest.len() {
                continue;
            }
            let info = &loops.loops[&nest[level]];
            let Some(dist) = env.dist_of(&d.array).filter(|d| d.is_distributed()) else {
                continue;
            };
            // does the loop variable subscript a distributed dim of this array?
            let src = refs.by_id(d.src_ref)?;
            for (dim, m) in dist.dims.iter().enumerate() {
                let DimMap::Block { pdim, .. } = m else {
                    continue;
                };
                // along a grid dimension of extent 1 there is no link to
                // pipeline across: the dependence stays on each rank
                if self.grid.extents[*pdim] == 1 {
                    continue;
                }
                let Some(Some(sub)) = src.subs.get(dim) else {
                    continue;
                };
                if sub.coeff(&info.var) == 0 {
                    continue;
                }
                // write-ahead depth: max |shift| of its writes
                let swept = [(d.array.clone(), dim)];
                let depth = self.depth(&swept, &info.var, true, i64::abs);
                let cand = (level, d.array.clone(), dim, *pdim, info.step >= 0, depth);
                match &sweep {
                    Some((l, ..)) if *l <= level => {}
                    _ => sweep = Some(cand),
                }
            }
        }
        let (level, array, dim, pdim, forward, depth) = sweep?;
        let sweep_var = &loops.loops[&nest[level]].var;
        // collect all swept arrays that share the pdim and have writes shifted
        // along their swept dim
        let mut arrays = vec![(array, dim)];
        for stmt in loops.stmts_in(self.loop_id) {
            for w in refs.of_stmt(stmt) {
                if !w.is_write || w.is_scalar {
                    continue;
                }
                let Some(d2) = env.dist_of(&w.array) else {
                    continue;
                };
                for (dm, m) in d2.dims.iter().enumerate() {
                    let DimMap::Block { pdim: p2, .. } = m else {
                        continue;
                    };
                    if *p2 != pdim {
                        continue;
                    }
                    if let Some(Some(sub)) = w.subs.get(dm) {
                        if sub.coeff(sweep_var) != 0 && !arrays.iter().any(|(a, _)| a == &w.array) {
                            arrays.push((w.array.clone(), dm));
                        }
                    }
                }
            }
        }
        // read-behind depth: reads of swept arrays shifted against the sweep
        let read_depth = self.depth(&arrays, sweep_var, false, |d| against(forward, d));
        // strip loop: must enclose the sweep loop (outside it) and carry no
        // dependence of its own
        let strip_level = (0..level)
            .find(|l| !(self.deps.iter()).any(|d| d.level == Some(*l) && d.kind == DepKind::Flow));
        let strip_var = strip_level.map(|l| &loops.loops[&nest[l]].var);
        let arrays: Vec<SweptArray> = (arrays.into_iter())
            .map(|(array, dim)| SweptArray {
                strip_dim: strip_var.and_then(|v| self.subscripted_by(&array, v)),
                array,
                dim,
            })
            .collect();
        let cut = arrays
            .iter()
            .find_map(|a| Some((env.dist_of(&a.array)?, a.strip_dim?)));
        let strip_owned = cut.map(|(dist, sd)| {
            let owned = |c: &Vec<i64>| dist.owned_box(c).map_or((1, 0), |b| b[sd]);
            self.coords.iter().map(owned).collect()
        });
        Some(PipeSchedule {
            sweep_level: level,
            forward,
            pdim,
            arrays,
            depth,
            read_depth,
            strip_level,
            granularity: self.granularity,
            strip_owned,
        })
    }

    /// The dimension of `array` the nest subscripts with `var`: the first
    /// that mentions it, in the first of the nest's references to `array`
    /// that does.
    fn subscripted_by(&self, array: &str, var: &str) -> Option<usize> {
        let stmts = self.loops.stmts_in(self.loop_id);
        let refs = stmts.into_iter().flat_map(|s| self.refs.of_stmt(s));
        refs.filter(|r| r.array == array).find_map(|r| {
            (r.subs.iter()).position(|s| s.as_ref().is_some_and(|s| s.coeff(var) != 0))
        })
    }

    /// How far the nest's writes (or its reads) of the `swept` arrays
    /// reach along their swept dimension: the largest `measure(shift)`,
    /// at least 0, over the references subscripted there by the sweep
    /// variable `var`, each against the CP terms on its own array.
    fn depth(
        &self,
        swept: &[(String, usize)],
        var: &str,
        writes: bool,
        measure: impl Fn(i64) -> i64,
    ) -> i64 {
        let mut depth = 0i64;
        for stmt in self.loops.stmts_in(self.loop_id) {
            let Some(cp) = self.cps.get(&stmt) else {
                continue;
            };
            for x in self.refs.of_stmt(stmt) {
                let Some((_, dim)) = swept.iter().find(|(a, _)| a == &x.array) else {
                    continue;
                };
                let Some(Some(sub)) = x.subs.get(*dim) else {
                    continue;
                };
                if x.is_write != writes || sub.coeff(var) == 0 {
                    continue;
                }
                for (t, d) in shifts(sub, cp, *dim) {
                    if t.array == x.array {
                        depth = depth.max(measure(d));
                    }
                }
            }
        }
        depth
    }
}

/// Record that the communication of reference `x` was eliminated.
fn eliminated(x: &RefInfo, reason: ElimReason) {
    obs::decide(|| {
        let array = x.array.clone();
        Decision::new(DecisionKind::CommEliminated { array, reason }).stmt(x.stmt)
    });
}

/// The shift of subscript `sub` against each CP term along dimension
/// `dim`: `(term, sub − term.subs[dim])` wherever that is a constant.
fn shifts<'c>(
    sub: &'c LinExpr,
    cp: &'c Cp,
    dim: usize,
) -> impl Iterator<Item = (&'c CpTerm, i64)> + 'c {
    cp.terms.iter().filter_map(move |t| {
        let Some(SubTerm::Affine(tsub)) = t.subs.get(dim) else {
            return None;
        };
        let d = sub.clone() - tsub.clone();
        d.is_constant().then(|| (t, d.constant()))
    })
}

/// A shift measured against the sweep direction: positive = behind.
fn against(forward: bool, shift: i64) -> i64 {
    if forward {
        -shift
    } else {
        shift
    }
}

/// The non-empty parts of `set` that ranks other than `me` own, as
/// `(owner, part)` in ascending rank order. `owned` is `dist`'s row: only
/// the owners whose block meets `set`'s box hull are intersected (all of
/// them if `set` has none).
fn foreign_pieces<'s>(
    set: &'s Set,
    owned: &'s [Set],
    dist: &ArrayDist,
    grid: &ProcGrid,
    me: usize,
) -> impl Iterator<Item = (usize, Set)> + 's {
    let mut owners = match set.box_hull() {
        Some(hull) if hull.len() == dist.rank() => owners_meeting(dist, grid, &hull),
        _ => (0..owned.len()).collect(),
    };
    owners.retain(|o| *o != me);
    avail::owner_search(owners.len() as u64);
    (owners.into_iter())
        .map(|owner| (owner, set.intersect(&owned[owner])))
        .filter(|(_, part)| !part.is_empty())
}

/// The ranks whose block of `dist` meets the box `hull`, ascending: per
/// grid dimension the coordinates whose owned ranges meet it on every
/// block dimension mapped there, by block arithmetic.
fn owners_meeting(dist: &ArrayDist, grid: &ProcGrid, hull: &[(i64, i64)]) -> Vec<usize> {
    let mut coords = vec![0; grid.extents.len()];
    let mut ranks = vec![0usize];
    // the last grid dimension varies slowest in a rank, so it goes first
    for p in (0..grid.extents.len()).rev() {
        let stride: i64 = grid.extents[..p].iter().product();
        let meets: Vec<i64> = (0..grid.extents[p])
            .filter(|&c| {
                coords[p] = c;
                dist.dims.iter().enumerate().all(|(d, m)| match m {
                    DimMap::Block { pdim, .. } if *pdim == p => dist
                        .owned_range(d, &coords)
                        .is_some_and(|(lo, hi)| lo <= hull[d].1 && hull[d].0 <= hi),
                    _ => true,
                })
            })
            .collect();
        ranks = (ranks.iter())
            .flat_map(|r| meets.iter().map(move |c| r + (c * stride) as usize))
            .collect();
    }
    ranks
}

/// Emit the deferred `CommRetained` decisions for one phase with
/// *post-coalesce* counts. Each retaining array is reported once (the
/// first retaining statement anchors the decision), with the coalesced
/// message/element counts for that array — so summing the decisions of
/// a phase reproduces `CommReport` and the trace totals exactly.
fn emit_retained(retained: &[(StmtId, String)], msgs: &[Flat], phase: CommPhase) {
    if !obs::is_active() {
        return;
    }
    let mut seen: Vec<&str> = Vec::new();
    for (stmt, array) in retained {
        if seen.contains(&array.as_str()) {
            continue;
        }
        seen.push(array);
        let of_array = || msgs.iter().filter(|m| &m.2.arr == array);
        let messages = of_array().count();
        let elems: usize = of_array().map(|m| m.2.elems()).sum();
        if messages == 0 {
            continue;
        }
        obs::decide(|| {
            Decision::new(DecisionKind::CommRetained {
                array: array.clone(),
                phase,
                messages,
                elems,
            })
            .stmt(*stmt)
        });
    }
}

/// Account for per-peer aggregation of one phase: bump the report's
/// saved-message counter and record a `comm-aggregated` decision when
/// packing actually removed physical messages.
fn record_aggregation(
    packed: &[Transfer<String>],
    phase: CommPhase,
    loop_id: StmtId,
    report: &mut CommReport,
) {
    let before = segments(packed).count();
    let after = packed.len();
    if after >= before {
        return;
    }
    report.messages_saved += before - after;
    obs::decide(|| {
        Decision::new(DecisionKind::CommAggregated {
            phase,
            peers: after,
            messages_before: before,
            messages_after: after,
        })
        .stmt(loop_id)
    });
}

/// Convert a set into bounding-box regions (one per disjunct, merged).
fn regions_of(s: &Set) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    for poly in s.polys() {
        let single = Set::from_poly(s.space(), poly.clone());
        if let Some(bb) = bounding_box(&single, &|_| None) {
            let r = Region {
                lo: bb.iter().map(|b| b.0).collect(),
                hi: bb.iter().map(|b| b.1).collect(),
            };
            if !r.is_empty() && !out.contains(&r) {
                out.push(r);
            }
        }
    }
    merge_regions(&mut out);
    out
}

/// Merge regions that abut or overlap along exactly one dimension.
fn merge_regions(regions: &mut Vec<Region>) {
    let mut changed = true;
    while changed {
        changed = false;
        'outer: for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                if let Some(m) = regions[i].try_merge(&regions[j]) {
                    regions[i] = m;
                    regions.remove(j);
                    changed = true;
                    break 'outer;
                }
            }
        }
    }
}

/// Deduplicate and merge messages between identical endpoints.
fn coalesce(msgs: &mut Vec<Flat>) {
    // total order (hi included): messages identical up to their extent
    // would otherwise keep their discovery order, making the greedy
    // merge below sensitive to the order reads were examined in
    msgs.sort();
    msgs.dedup();
    let merged = |a: &Flat, b: &Flat| {
        ((a.0, a.1, &a.2.arr) == (b.0, b.1, &b.2.arr))
            .then(|| a.2.region().try_merge(&b.2.region()))
            .flatten()
    };
    // merge regions per endpoint pair, iterated to a fixed point: a
    // region grown by one merge can become mergeable with an entry it
    // was already tested against (e.g. [0,0]×[0,1] + [1,1]×[0,0] +
    // [1,1]×[1,1] only collapses to one box on the second sweep)
    let mut out: Vec<Flat> = Vec::new();
    for m in msgs.drain(..) {
        match out.iter_mut().find_map(|o| Some((merged(o, &m)?, o))) {
            Some((r, o)) => (o.2.lo, o.2.hi) = (r.lo, r.hi),
            None => out.push(m),
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        'outer: for i in 0..out.len() {
            for j in i + 1..out.len() {
                if let Some(r) = merged(&out[i], &out[j]) {
                    (out[i].2.lo, out[i].2.hi) = (r.lo, r.hi);
                    out.remove(j);
                    changed = true;
                    break 'outer;
                }
            }
        }
    }
    *msgs = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::{Cp, CpTerm};
    use crate::distrib::resolve;
    use crate::select::{assignments_in, select_for_loop};
    use dhpf_depend::dep::analyze_loop_deps;
    use dhpf_depend::refs::analyze_unit;
    use dhpf_fortran::parse;
    use dhpf_iset::LinExpr;

    /// One unit with its outermost loop analyzed and CPs selected.
    struct Nest {
        loops: UnitLoops,
        refs: UnitRefs,
        env: DistEnv,
        deps: Vec<Dependence>,
        cps: CpAssignment,
        outer: StmtId,
    }

    fn setup(src: &str) -> Nest {
        setup_nth(src, 0)
    }

    /// [`setup`] on the unit's `nth` outermost loop.
    fn setup_nth(src: &str, nth: usize) -> Nest {
        let p = parse(src).expect("parse");
        let name = p.units[0].name.clone();
        let (loops, refs, _) = analyze_unit(&p, &name).expect("analyze");
        let env = resolve(&p.units[0], &Default::default()).expect("resolve");
        let mut outermost: Vec<StmtId> = (loops.loops.iter())
            .filter(|(_, i)| i.depth == 0)
            .map(|(id, _)| *id)
            .collect();
        outermost.sort_by_key(|id| loops.order[id]);
        let outer = outermost[nth];
        let deps = analyze_loop_deps(outer, &loops, &refs);
        let stmts = assignments_in(outer, &loops, &refs);
        let cps = select_for_loop(&stmts, &CpAssignment::new(), &refs, &env);
        Nest {
            loops,
            refs,
            env,
            deps,
            cps,
            outer,
        }
    }

    impl Nest {
        /// [`plan_nest_scoped`] on statement `id` as its own scope.
        fn plan_at(
            &self,
            id: StmtId,
            flags: &OptFlags,
            granularity: i64,
            report: &mut CommReport,
        ) -> Result<NestPlan, CommError> {
            let Nest {
                loops,
                refs,
                env,
                deps,
                cps,
                ..
            } = self;
            plan_nest_scoped(
                id,
                id,
                None,
                loops,
                refs,
                deps,
                cps,
                env,
                flags,
                granularity,
                report,
            )
        }

        /// The outermost loop, planned at the default strip size.
        fn plan(&self, flags: &OptFlags, report: &mut CommReport) -> Result<NestPlan, CommError> {
            self.plan_at(self.outer, flags, 4, report)
        }

        /// Install the §4.2 partial-replication CP on `b`'s definition:
        /// computed wherever `a(i - 1)` or `a(i + 1)` consumes it.
        fn replicate_b_for_a(&mut self) {
            let b_def = self.refs.of_array("b").into_iter().find(|r| r.is_write);
            self.cps.insert(
                b_def.unwrap().stmt,
                Cp {
                    terms: vec![
                        CpTerm::on_home("b", vec![LinExpr::var("i")]),
                        CpTerm::on_home("a", vec![LinExpr::var("i") + 1]),
                        CpTerm::on_home("a", vec![LinExpr::var("i") - 1]),
                    ],
                },
            );
        }
    }

    /// 1-D stencil: a(i) = b(i-1) + b(i+1), both BLOCK over 4 procs,
    /// n = 16 (blocks of 4).
    const STENCIL_1D: &str = "
      subroutine s(a, b)
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do i = 2, n - 1
         a(i) = b(i - 1) + b(i + 1)
      enddo
      end
";

    #[test]
    fn stencil_exchanges_one_boundary_cell_each_way() {
        let nest = setup(STENCIL_1D);
        let mut report = CommReport::default();
        let plan = nest.plan(&OptFlags::default(), &mut report).expect("plan");
        let NestPlan::Parallel { pre, post, overlap } = plan else {
            panic!("expected parallel")
        };
        // interior boundaries: 3 boundaries × 2 directions = 6 messages,
        // one element each
        assert_eq!(pre.len(), 6, "{pre:?}");
        assert!(pre.iter().all(|m| m.elems() == 1));
        // owner-computes writes: no write-backs
        assert!(post.is_empty(), "{post:?}");
        // no carried dep, pure ghost reads b(i-1)/b(i+1): overlappable
        let halos = overlap.expect("stencil exchange should be overlappable");
        assert_eq!(halos.len(), 2, "{halos:?}");
        assert!(halos
            .iter()
            .all(|h| h.array == "b" && h.dim == 0 && h.level == 0));
        let mut shifts: Vec<i64> = halos.iter().map(|h| h.shift).collect();
        shifts.sort_unstable();
        assert_eq!(shifts, vec![-1, 1]);
        // directions: proc 1 receives b(4) from proc 0 and b(9) from proc 2
        assert!(pre
            .iter()
            .any(|m| m.from == 0 && m.to == 1 && m.segs[0].lo == vec![4]));
        assert!(pre
            .iter()
            .any(|m| m.from == 2 && m.to == 1 && m.segs[0].lo == vec![9]));
    }

    #[test]
    fn replication_eliminates_exchange() {
        // same stencil but the producer loop partially replicates b's
        // boundary computation (LOCALIZE-style CP): reads become covered
        let src = "
      subroutine s(a, b, u)
      parameter (n = 16)
      integer i, one
      double precision a(n), b(n), u(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b, u
      do one = 1, 1
         do i = 1, n
            b(i) = u(i) * 2.0
         enddo
         do i = 2, n - 1
            a(i) = b(i - 1) + b(i + 1)
         enddo
      enddo
      end
";
        let mut nest = setup(src);
        nest.replicate_b_for_a();
        let mut report = CommReport::default();
        let plan = nest.plan(&OptFlags::default(), &mut report).expect("plan");
        // reads of b are now covered by the replicated writes: no b
        // messages at all; u is read aligned (u(i) under b(i)-homed CP
        // extended) — only u's boundary cells may move
        let b_msgs: Vec<_> = segments(plan.pre()).filter(|m| m.2.arr == "b").collect();
        assert!(
            b_msgs.is_empty(),
            "partial replication must kill b comm: {b_msgs:?}"
        );
        assert!(report.reads_eliminated_by_availability >= 2);
        // and the boundary writes of b need no write-back (owner computes
        // them too)
        assert!(
            segments(plan.post()).all(|m| m.2.arr != "b"),
            "{:?}",
            plan.post()
        );
    }

    /// Wavefront: recurrence along distributed j.
    const SWEEP: &str = "
      subroutine s(lhs)
      parameter (n = 16)
      integer i, j
      double precision lhs(n, n)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: lhs
      do j = 2, n
         do i = 1, n
            lhs(i, j) = lhs(i, j - 1) * 0.5
         enddo
      enddo
      end
";

    #[test]
    fn sweep_detected_and_scheduled() {
        let nest = setup(SWEEP);
        let mut report = CommReport::default();
        let plan = nest
            .plan_at(nest.outer, &OptFlags::default(), 2, &mut report)
            .expect("plan");
        let NestPlan::Pipelined {
            schedule,
            pre,
            hops,
            ..
        } = plan
        else {
            panic!("expected pipelined")
        };
        assert_eq!(schedule.sweep_level, 0);
        assert!(schedule.forward);
        assert_eq!(schedule.pdim, 0);
        assert_eq!(schedule.granularity, 2);
        // the sweep is the outermost loop: no loop outside it to
        // strip-mine, so the pipeline runs at whole-block granularity
        assert_eq!(schedule.strip_level, None);
        assert!(schedule.read_depth >= 1);
        assert!(schedule
            .arrays
            .iter()
            .any(|s| s.array == "lhs" && s.dim == 1));
        // reads of lhs(i, j-1): boundary column fetched... but under
        // owner-computes the j-1 read at j=jlo refers to the previous
        // block: supplied by the pipeline, so pre remains (conservative
        // one-column fetch) or empty if availability covered it
        let _ = pre;
        // one hop per link down the grid: the sender's last column, the
        // one behind the receiver's first, over all rows
        let column = |j| {
            Seg::new(
                "lhs".to_string(),
                Region {
                    lo: vec![1, j],
                    hi: vec![16, j],
                },
            )
        };
        let want: Vec<_> = [(0, 1, 4), (1, 2, 8), (2, 3, 12)]
            .map(|(from, to, j)| Transfer {
                from,
                to,
                segs: vec![column(j)],
            })
            .into();
        assert_eq!(hops, want);
    }

    /// The sweep strips along `k`, which the nest puts in `a`'s third
    /// dimension; the init nest before it writes `a(k, j, i)`.
    #[test]
    fn strip_dimension_comes_from_the_swept_nest() {
        let src = "
      subroutine s(a, b)
      parameter (n = 16)
      integer i, j, k
      double precision a(n, n, n), b(n, n, n)
!hpf$ processors pr(4)
!hpf$ distribute (*, block, *) onto pr :: a, b
      do i = 1, n
         do j = 1, n
            do k = 1, n
               a(k, j, i) = 1.0d0
               b(k, j, i) = 0.5d0
            enddo
         enddo
      enddo
      do k = 1, n
         do j = 2, n
            do i = 1, n
               a(i, j, k) = a(i, j - 1, k) * 0.5d0 + b(i, j, k)
            enddo
         enddo
      enddo
      end
";
        let nest = setup_nth(src, 1);
        let plan = nest.plan(&OptFlags::default(), &mut CommReport::default());
        let Ok(NestPlan::Pipelined { schedule, .. }) = plan else {
            panic!("expected pipelined: {plan:?}")
        };
        assert_eq!((schedule.sweep_level, schedule.strip_level), (1, Some(0)));
        let a = SweptArray {
            array: "a".into(),
            dim: 1,
            strip_dim: Some(2),
        };
        assert_eq!(schedule.arrays, [a]);
        // `k` is not distributed: every rank runs and forwards all of it
        assert_eq!(schedule.strip_owned, Some(vec![(1, 16); 4]));
    }

    #[test]
    fn region_merge_and_coalesce() {
        let a = Region {
            lo: vec![1, 1],
            hi: vec![4, 1],
        };
        let b = Region {
            lo: vec![1, 2],
            hi: vec![4, 2],
        };
        let m = a.try_merge(&b).unwrap();
        assert_eq!(
            m,
            Region {
                lo: vec![1, 1],
                hi: vec![4, 2]
            }
        );
        let c = Region {
            lo: vec![1, 4],
            hi: vec![4, 4],
        };
        assert!(a.try_merge(&c).is_none());
        let mut msgs = vec![
            (0, 1, Seg::new("x".to_string(), a)),
            (0, 1, Seg::new("x".to_string(), b)),
        ];
        coalesce(&mut msgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].2.hi, vec![4, 2]);
    }

    #[test]
    fn coalesce_runs_to_a_fixed_point() {
        // three boxes of one array between one endpoint pair:
        // [0,0]×[0,1], [1,1]×[0,0], [1,1]×[1,1]. The first greedy pass
        // merges the latter two into [1,1]×[0,1]; only a second sweep
        // can fuse that grown box with [0,0]×[0,1]. The single-pass
        // coalesce used to stop at 2 messages.
        let m = |lo: [i64; 2], hi: [i64; 2]| {
            let region = Region {
                lo: lo.to_vec(),
                hi: hi.to_vec(),
            };
            (0, 1, Seg::new("x".to_string(), region))
        };
        let mut msgs = vec![m([0, 0], [0, 1]), m([1, 0], [1, 0]), m([1, 1], [1, 1])];
        coalesce(&mut msgs);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert_eq!(msgs[0].2.lo, vec![0, 0]);
        assert_eq!(msgs[0].2.hi, vec![1, 1]);
    }

    /// Two-array stencil: every interior peer pair moves a boundary cell
    /// of both `b` and `c`, so aggregation halves the message count.
    const STENCIL_2ARR: &str = "
      subroutine s(a, b, c)
      parameter (n = 16)
      integer i
      double precision a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b, c
      do i = 2, n - 1
         a(i) = b(i - 1) + c(i - 1) + b(i + 1) + c(i + 1)
      enddo
      end
";

    #[test]
    fn aggregation_reported_per_nest() {
        let nest = setup(STENCIL_2ARR);
        let run = |aggregate: bool| {
            let mut report = CommReport::default();
            let plan = nest
                .plan(
                    &OptFlags {
                        aggregate,
                        ..OptFlags::default()
                    },
                    &mut report,
                )
                .expect("plan");
            let sections = segments(plan.pre()).count();
            (plan.pre().len(), sections, report)
        };
        let (pre_on, sections_on, on) = run(true);
        let (pre_off, sections_off, off) = run(false);
        // the same sections either way — aggregation only changes how
        // many transfers carry them
        assert_eq!(sections_on, sections_off);
        assert_eq!(sections_on, 12, "two arrays × 6 boundary messages");
        assert_eq!(on.pre_messages, off.pre_messages);
        // 12 coalesced sections over 6 peer pairs → 6 saved
        assert_eq!((pre_on, pre_off), (6, 12));
        assert_eq!(on.messages_saved, 6);
        assert_eq!(off.messages_saved, 0);
    }

    #[test]
    fn availability_toggle_changes_report() {
        let src = "
      subroutine s(a, b, u)
      parameter (n = 16)
      integer i, one
      double precision a(n), b(n), u(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b, u
      do one = 1, 1
         do i = 1, n
            b(i) = u(i) * 2.0
         enddo
         do i = 2, n - 1
            a(i) = b(i - 1) + b(i + 1)
         enddo
      enddo
      end
";
        let mut nest = setup(src);
        nest.replicate_b_for_a();
        let run = |avail: bool| {
            let mut report = CommReport::default();
            let plan = nest
                .plan(
                    &OptFlags {
                        data_availability: avail,
                        ..OptFlags::default()
                    },
                    &mut report,
                )
                .expect("plan");
            (plan.pre().len(), report)
        };
        let (with_avail, r1) = run(true);
        let (without, _r2) = run(false);
        assert!(r1.reads_eliminated_by_availability > 0);
        // without availability, the residual-subtraction still removes
        // covered data, so message count is ≥ the optimized one
        assert!(without >= with_avail);
    }

    #[test]
    fn overlap_respects_option_and_counts_in_report() {
        let nest = setup(STENCIL_1D);
        let run = |overlap: bool| {
            let mut report = CommReport::default();
            let plan = nest
                .plan(
                    &OptFlags {
                        overlap,
                        ..OptFlags::default()
                    },
                    &mut report,
                )
                .expect("plan");
            (plan.overlap().is_some(), report.overlapped_nests)
        };
        assert_eq!(run(true), (true, 1));
        assert_eq!(run(false), (false, 0));
    }

    #[test]
    fn constant_halo_subscript_defeats_overlap() {
        // c(1) is fetched by every non-owning rank, but no loop variable
        // bounds the read: there is no interior, so the plan must stay
        // blocking
        let src = "
      subroutine s(a, b, c)
      parameter (n = 16)
      integer i
      double precision a(n), b(n), c(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b, c
      do i = 2, n - 1
         a(i) = b(i - 1) + c(1)
      enddo
      end
";
        let nest = setup(src);
        let mut report = CommReport::default();
        let plan = nest.plan(&OptFlags::default(), &mut report).expect("plan");
        assert!(
            segments(plan.pre()).any(|m| m.2.arr == "c"),
            "{:?}",
            plan.pre()
        );
        assert!(plan.overlap().is_none());
        assert_eq!(report.overlapped_nests, 0);
    }

    #[test]
    fn planning_a_non_loop_stmt_is_guarded_not_panicking() {
        // a unit planned through the generic path with a statement id
        // that is not a loop: the nest-id chain is empty, which must
        // yield an empty parallel plan, not an out-of-bounds unwrap
        let nest = setup(STENCIL_1D);
        let a_def = nest.refs.of_array("a").into_iter().find(|r| r.is_write);
        let assign = a_def.unwrap().stmt;
        assert!(!nest.loops.loops.contains_key(&assign));
        let mut report = CommReport::default();
        let plan = nest
            .plan_at(assign, &OptFlags::default(), 4, &mut report)
            .expect("non-loop stmt must plan to an empty exchange");
        assert!(plan.pre().is_empty() && plan.post().is_empty());
        assert!(matches!(plan, NestPlan::Parallel { .. }));
    }

    /// The §7 example shape, reduced to 2-D: a sweep along the
    /// distributed j dimension whose CP is ON_HOME lhs(i, j) while the
    /// statements write lhs at j+1 and j+2 — non-owner writes whose
    /// values the same processor re-reads.
    const AHEAD_WRITES: &str = "
      subroutine s(lhs)
      parameter (n = 16)
      integer i, j
      double precision lhs(n, 0:17)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: lhs
      do j = 1, n - 2
         do i = 1, n
            lhs(i, j + 1) = lhs(i, j + 1) * 0.5 + lhs(i, j)
            lhs(i, j + 2) = lhs(i, j + 2) + lhs(i, j + 1) * 2.0
         enddo
      enddo
      end
";

    /// Plan `src` under `cp` on every statement of its nest, with a
    /// decision recorder installed: the plan, the report, and the arrays
    /// recorded as available from a prior write.
    fn plan_recorded(src: &str, cp: Cp) -> (NestPlan, CommReport, Vec<String>) {
        let mut nest = setup(src);
        for s in assignments_in(nest.outer, &nest.loops, &nest.refs) {
            nest.cps.insert(s, cp.clone());
        }
        let rec = obs::install("test", std::time::Instant::now());
        let mut report = CommReport::default();
        let plan = nest.plan(&OptFlags::default(), &mut report).expect("plan");
        let available = rec
            .finish()
            .decisions
            .into_iter()
            .filter_map(|d| match d.kind {
                DecisionKind::CommEliminated {
                    array,
                    reason: ElimReason::AvailableFromPriorWrite,
                } => Some(array),
                _ => None,
            });
        (plan, report, available.collect())
    }

    fn on_home_lhs_ij() -> Cp {
        let (i, j) = (LinExpr::var("i"), LinExpr::var("j"));
        Cp::single(CpTerm::on_home("lhs", vec![i, j]))
    }

    #[test]
    fn pipeline_read_is_available() {
        let (plan, report, available) = plan_recorded(AHEAD_WRITES, on_home_lhs_ij());
        assert!(matches!(plan, NestPlan::Pipelined { .. }));
        // four reads of lhs; the second statement's lhs(i, j + 1) is what
        // the first just wrote on the same processor: eliminated, counted
        // and recorded, once
        assert_eq!(report.reads_examined, 4);
        assert_eq!(report.reads_eliminated_by_availability, 1);
        assert_eq!(available, ["lhs"]);
    }

    #[test]
    fn further_read_not_available() {
        // lhs(i, j + 2) against the write of lhs(i, j + 1) is not covered
        // (the paper: its communication cannot be eliminated, it is
        // hoisted before the nest): rank 1 owns columns 5..9 and fetches
        // column 11 = hi + 2 from rank 2, along with column 10, which the
        // first statement reads before anything wrote it
        let (plan, _, _) = plan_recorded(AHEAD_WRITES, on_home_lhs_ij());
        let fetched = segments(plan.pre()).find(|(from, to, _)| (*from, *to) == (2, 1));
        let (_, _, seg) = fetched.expect("rank 1 fetches ahead-columns from rank 2");
        assert_eq!((&seg.lo[..], &seg.hi[..]), (&[1, 10][..], &[16, 11][..]));
    }

    #[test]
    fn owner_computes_reads_have_no_nonlocal_component() {
        // nothing non-local on any rank, and a qualifying producer: §7's
        // subset test holds trivially — counted and recorded, as the
        // separate availability pass used to
        let src = "
      subroutine s(a, b)
      parameter (n = 16)
      integer i
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = 1.0
         b(i) = a(i) * 2.0
      enddo
      end
";
        let on_home_a = Cp::single(CpTerm::on_home("a", vec![LinExpr::var("i")]));
        let (plan, report, available) = plan_recorded(src, on_home_a);
        assert!(plan.pre().is_empty() && plan.post().is_empty());
        assert_eq!(report.reads_examined, 1);
        assert_eq!(report.reads_eliminated_by_availability, 1);
        assert_eq!(available, ["a"]);
    }

    #[test]
    fn serial_array_always_available() {
        // serial data is everywhere: its reads are not even examined
        let src = "
      subroutine s(a, t)
      parameter (n = 8)
      integer i
      double precision a(n), t(n)
!hpf$ processors p(2)
!hpf$ distribute (block) onto p :: a
      do i = 2, n
         t(i) = 1.0
         a(i) = t(i - 1)
      enddo
      end
";
        let on_home_a = Cp::single(CpTerm::on_home("a", vec![LinExpr::var("i")]));
        let (plan, report, available) = plan_recorded(src, on_home_a);
        assert!(plan.pre().is_empty() && plan.post().is_empty());
        assert_eq!(report.reads_examined, 0);
        assert!(available.is_empty(), "{available:?}");
    }

    #[test]
    fn carried_cross_rank_flow_in_a_parallel_nest_is_a_clean_error() {
        // the producer of a(i - 1) / a(i + 1) comes *later* in the body of
        // `it` and on another processor: an exchange hoisted above `it`
        // delivers the first iteration's values to all of them
        let src = "
      subroutine s(a, b)
      parameter (n = 16)
      integer i, it
      double precision a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute (block) onto p :: a, b
      do it = 1, 3
         do i = 2, n - 1
            b(i) = 0.5 * (a(i - 1) + a(i + 1))
         enddo
         do i = 2, n - 1
            a(i) = a(i) + b(i)
         enddo
      enddo
      end
";
        let nest = setup(src);
        let err = nest
            .plan(&OptFlags::default(), &mut CommReport::default())
            .expect_err("must not plan");
        assert_eq!(
            err.0,
            "read of `a` needs communication inside loop `it` (value produced on \
             another processor in an earlier iteration)"
        );
        assert!(!err.0.contains("  "), "{err}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_msg() -> impl Strategy<Value = Flat> {
            (
                (0usize..3, 0usize..3, 0..2u8),
                (0i64..6, 0i64..3, 0i64..6, 0i64..3),
            )
                .prop_map(|((from, to, arr), (l0, e0, l1, e1))| {
                    let region = Region {
                        lo: vec![l0, l1],
                        hi: vec![l0 + e0, l1 + e1],
                    };
                    let array = if arr == 0 { "a" } else { "b" };
                    (from, to, Seg::new(array.to_string(), region))
                })
        }

        proptest! {
            // determinism of emitted exchange plans: the coalesced set
            // may not depend on the order messages were discovered in
            #[test]
            fn coalesce_is_order_independent(
                msgs in prop::collection::vec(arb_msg(), 0..12),
                seed in 0u64..u64::MAX,
            ) {
                let mut a = msgs.clone();
                let mut b = msgs;
                // Fisher–Yates driven by the generated seed (LCG)
                let mut s = seed;
                for i in (1..b.len()).rev() {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let j = (s >> 33) as usize % (i + 1);
                    b.swap(i, j);
                }
                coalesce(&mut a);
                coalesce(&mut b);
                prop_assert_eq!(a, b);
            }

            // fixed-point property: coalesce may never leave two
            // messages with identical endpoints and array that are
            // still mergeable (the single-pass version did, whenever a
            // merge grew a region past an earlier entry)
            #[test]
            fn coalesce_leaves_no_mergeable_pair(
                msgs in prop::collection::vec(arb_msg(), 0..12),
            ) {
                let mut m = msgs;
                coalesce(&mut m);
                for i in 0..m.len() {
                    for j in i + 1..m.len() {
                        if (m[i].0, m[i].1, &m[i].2.arr) == (m[j].0, m[j].1, &m[j].2.arr) {
                            prop_assert!(
                                m[i].2.region().try_merge(&m[j].2.region()).is_none(),
                                "mergeable pair survived: {:?} / {:?}",
                                m[i],
                                m[j]
                            );
                        }
                    }
                }
            }

            // packing is a partition in canonical order: the coalesced
            // sections come out as they went in, one transfer per pair
            // with aggregation, one section per transfer without
            #[test]
            fn aggregate_partitions_messages(
                msgs in prop::collection::vec(arb_msg(), 0..12),
                aggregate in prop::bool::ANY,
            ) {
                let mut m = msgs;
                coalesce(&mut m);
                let packed = pack_per_peer(m.clone(), aggregate);
                let out: Vec<Flat> = segments(&packed).map(|(f, t, s)| (f, t, s.clone())).collect();
                m.sort();
                prop_assert_eq!(out, m);
                prop_assert!(packed.windows(2).all(|w| w[0] < w[1]));
                for (i, x) in packed.iter().enumerate() {
                    if aggregate {
                        prop_assert!(packed[i + 1..].iter().all(|y| (y.from, y.to) != (x.from, x.to)));
                    } else {
                        prop_assert_eq!(x.segs.len(), 1);
                    }
                }
            }
        }
    }
}
