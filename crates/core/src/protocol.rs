//! Protocol summary extraction: lower an emitted [`NodeProgram`] into a
//! rank-symbolic communication protocol that the static verifier
//! (`dhpf-analysis`) can check without executing the program.
//!
//! The summary keeps exactly what the SPMD protocol depends on and
//! abstracts everything else away:
//!
//! * every planned message becomes explicit [`ProtoOp::Send`] /
//!   [`ProtoOp::Recv`] / [`ProtoOp::Post`] / [`ProtoOp::Wait`] atoms in
//!   the per-rank order the interpreter executes them (sends before
//!   blocking receives for an `Exchange`; sends, posts, interior
//!   compute, waits for an `OverlapNest`; per strip chunk, the hops'
//!   receives, the nest's writes, the hops' sends for a `Pipeline`);
//! * array writes collapse to [`ProtoOp::Write`] markers (used by the
//!   stale-send check);
//! * control flow keeps only its *uniformity*: whether the loop bounds
//!   or branch condition can differ between ranks. That is decided by a
//!   taint analysis over scalar slots — a value is rank-dependent if it
//!   was computed under a CP guard (ownership test), loaded from a
//!   distributed array, or derived from either — iterated to a fixpoint
//!   across loop back-edges and inlined calls.
//!
//! Because every communication op carries a unique tag
//! ([`crate::codegen::UnitCx::fresh_tag`] is monotonic and the driver
//! spaces units apart), messages can never cross between protocol atoms
//! of different source ops; the checker exploits this to verify loop
//! bodies and branch arms as independently balanced segments.

use crate::codegen::{CExpr, CIdx, CompiledUnit, FormalSlot, NodeOp, NodeProgram};
use crate::transfer::{Region, Transfer};
use std::collections::BTreeSet;

/// One atom of the rank-symbolic protocol. Concrete ranks appear because
/// the compiler already resolved ownership to rank constants when it
/// planned the messages; "symbolic over rank" means the verifier reasons
/// about all ranks' interleavings in one pass, not that ranks are
/// unknowns.
///
/// Each Send/Recv/Post/Wait atom is one *physical* message: the
/// emitted [`Transfer`] with its arrays resolved to global ids. Keeping
/// one atom per transfer (instead of one per segment) preserves the
/// matching, FIFO, and wait-coverage invariants the checker enforces
/// per physical message.
#[derive(Clone, Debug)]
pub enum ProtoOp {
    /// Nonblocking send of the packed sections executed by `xfer.from`.
    Send {
        unit: usize,
        tag: u64,
        xfer: Transfer<usize>,
    },
    /// Blocking receive executed by `xfer.to`.
    Recv {
        unit: usize,
        tag: u64,
        xfer: Transfer<usize>,
    },
    /// Nonblocking receive post (irecv) executed by `xfer.to`. `req` is
    /// a program-unique request id tying it to its [`ProtoOp::Wait`].
    Post {
        unit: usize,
        tag: u64,
        req: u64,
        xfer: Transfer<usize>,
    },
    /// Blocking wait + unpack for request `req`, executed by `xfer.to`.
    Wait {
        unit: usize,
        tag: u64,
        req: u64,
        xfer: Transfer<usize>,
    },
    /// Full-machine barrier. The code generator never emits one today,
    /// but the machine exposes `Proc::barrier` and the verifier checks
    /// congruence and deadlock for it, so mutations and future codegen
    /// share one analysis.
    Barrier { unit: usize, id: u64 },
    /// Some rank may write global array `arr` here.
    Write { arr: usize },
    /// A counted loop; `uniform` is false when the bounds are
    /// rank-dependent (some ranks may iterate differently).
    Loop { uniform: bool, body: Vec<ProtoOp> },
    /// A multi-arm branch; `uniform` is false when any condition is
    /// rank-dependent (ranks may take different arms).
    Branch {
        uniform: bool,
        arms: Vec<Vec<ProtoOp>>,
    },
}

/// Per-array facts the region checks need.
#[derive(Clone, Debug)]
pub struct ArrayInfo {
    pub name: String,
    pub distributed: bool,
    /// Allocated local window (owned ± ghost) per rank, `None` when the
    /// rank owns no storage — mirrors `ProcState::new` in the node
    /// interpreter exactly.
    pub windows: Vec<Option<Region>>,
}

/// The extracted protocol of a whole node program (main unit with all
/// calls inlined, which the acyclic call graph guarantees terminates).
#[derive(Clone, Debug)]
pub struct ProtocolProgram {
    pub nprocs: usize,
    pub units: Vec<String>,
    pub arrays: Vec<ArrayInfo>,
    pub ops: Vec<ProtoOp>,
}

impl ProtocolProgram {
    pub fn unit_name(&self, u: usize) -> &str {
        self.units.get(u).map(String::as_str).unwrap_or("?")
    }
}

/// Taint state of one call frame: `true` = the slot's value may differ
/// between ranks.
struct TaintFrame {
    ints: Vec<bool>,
    floats: Vec<bool>,
    /// Local array slot → global array id (`usize::MAX` = unbound dummy).
    arrays: Vec<usize>,
}

impl TaintFrame {
    fn new(unit: &CompiledUnit) -> Self {
        TaintFrame {
            ints: vec![false; unit.n_ints],
            floats: vec![false; unit.n_floats],
            arrays: unit
                .array_global
                .iter()
                .map(|g| g.unwrap_or(usize::MAX))
                .collect(),
        }
    }
}

struct Extract<'p> {
    prog: &'p NodeProgram,
    /// Serial (replicated) arrays that may hold rank-dependent values.
    tainted_arrays: BTreeSet<usize>,
    next_req: u64,
    depth: usize,
}

/// Extract the rank-symbolic protocol summary of a compiled program.
pub fn extract_protocol(prog: &NodeProgram) -> ProtocolProgram {
    let nprocs = prog.grid.nprocs() as usize;
    let arrays = prog
        .arrays
        .iter()
        .map(|ga| {
            let windows = (0..nprocs)
                .map(|r| {
                    let coords = prog.grid.coords(r as i64);
                    match &ga.dist {
                        None => {
                            let lo: Vec<i64> = ga.bounds.iter().map(|b| b.0).collect();
                            let hi: Vec<i64> = ga.bounds.iter().map(|b| b.1).collect();
                            Some(Region { lo, hi })
                        }
                        Some(dist) => dist.owned_box(&coords).map(|ob| {
                            let lo: Vec<i64> = ob
                                .iter()
                                .zip(&ga.ghost)
                                .map(|(b, g)| b.0 - *g as i64)
                                .collect();
                            let hi: Vec<i64> = ob
                                .iter()
                                .zip(&ga.ghost)
                                .map(|(b, g)| b.1 + *g as i64)
                                .collect();
                            Region { lo, hi }
                        }),
                    }
                })
                .collect();
            ArrayInfo {
                name: ga.name.clone(),
                distributed: ga.dist.as_ref().is_some_and(|d| d.is_distributed()),
                windows,
            }
        })
        .collect();

    let mut ex = Extract {
        prog,
        tainted_arrays: BTreeSet::new(),
        next_req: 0,
        depth: 0,
    };
    let main = &prog.units[prog.main];
    let mut frame = TaintFrame::new(main);
    let mut ops = Vec::new();
    ex.emit_ops(prog.main, &main.ops, &mut frame, false, &mut ops);

    ProtocolProgram {
        nprocs,
        units: prog.units.iter().map(|u| u.name.clone()).collect(),
        arrays,
        ops,
    }
}

impl<'p> Extract<'p> {
    fn cidx_taint(&self, ci: &CIdx, f: &TaintFrame) -> bool {
        ci.terms.iter().any(|(slot, _)| f.ints[*slot])
    }

    fn expr_taint(&self, e: &CExpr, f: &TaintFrame) -> bool {
        match e {
            CExpr::Const(_) => false,
            CExpr::Int(ci) => self.cidx_taint(ci, f),
            CExpr::LoadF(slot) => f.floats[*slot],
            CExpr::Load { arr, subs } => {
                let g = f.arrays[*arr];
                if g == usize::MAX {
                    return true; // unbound dummy: assume rank-dependent
                }
                // distributed data differs per rank by construction; a
                // serial array is rank-dependent only if some guarded or
                // divergent write reached it; rank-dependent subscripts
                // make any load rank-dependent
                let ga_taint = self
                    .prog
                    .arrays
                    .get(g)
                    .map(|ga| ga.dist.as_ref().is_some_and(|d| d.is_distributed()))
                    .unwrap_or(true)
                    || self.tainted_arrays.contains(&g);
                ga_taint || subs.iter().any(|s| self.cidx_taint(s, f))
            }
            CExpr::Bin(_, a, b) => self.expr_taint(a, f) || self.expr_taint(b, f),
            CExpr::Neg(a) => self.expr_taint(a, f),
            CExpr::Intr(_, args) => args.iter().any(|a| self.expr_taint(a, f)),
        }
    }

    /// Emit protocol atoms for `ops` into `out`, updating the taint
    /// state as a side effect. `ctx` is true under rank-divergent
    /// control flow (everything assigned there is rank-dependent).
    fn emit_ops(
        &mut self,
        unit: usize,
        ops: &[NodeOp],
        f: &mut TaintFrame,
        ctx: bool,
        out: &mut Vec<ProtoOp>,
    ) {
        for op in ops {
            self.emit_op(unit, op, f, ctx, out);
        }
    }

    fn emit_op(
        &mut self,
        unit: usize,
        op: &NodeOp,
        f: &mut TaintFrame,
        ctx: bool,
        out: &mut Vec<ProtoOp>,
    ) {
        match op {
            NodeOp::Loop {
                var, lo, hi, body, ..
            } => {
                let uniform = !self.cidx_taint(lo, f) && !self.cidx_taint(hi, f);
                let body_ctx = ctx || !uniform;
                // loop-carried taint: iterate the body (discarding
                // emission) until the scalar taint state stabilizes
                let saved_req = self.next_req;
                for _ in 0..4 {
                    let snap = (f.ints.clone(), f.floats.clone(), self.tainted_arrays.len());
                    f.ints[*var] = !uniform;
                    let mut scratch = Vec::new();
                    self.emit_ops(unit, body, f, body_ctx, &mut scratch);
                    if snap == (f.ints.clone(), f.floats.clone(), self.tainted_arrays.len()) {
                        break;
                    }
                }
                self.next_req = saved_req;
                f.ints[*var] = !uniform;
                let mut b = Vec::new();
                self.emit_ops(unit, body, f, body_ctx, &mut b);
                out.push(ProtoOp::Loop { uniform, body: b });
            }
            NodeOp::Assign {
                guard,
                arr,
                subs,
                value,
                ..
            } => {
                let g = f.arrays[*arr];
                if g == usize::MAX {
                    return;
                }
                let divergent = ctx
                    || guard.is_some()
                    || self.expr_taint(value, f)
                    || subs.iter().any(|s| self.cidx_taint(s, f));
                let distributed = self
                    .prog
                    .arrays
                    .get(g)
                    .map(|ga| ga.dist.as_ref().is_some_and(|d| d.is_distributed()))
                    .unwrap_or(false);
                if divergent && !distributed {
                    self.tainted_arrays.insert(g);
                }
                out.push(ProtoOp::Write { arr: g });
            }
            NodeOp::AssignF {
                guard, slot, value, ..
            } => {
                f.floats[*slot] = ctx || guard.is_some() || self.expr_taint(value, f);
            }
            NodeOp::AssignI {
                guard, slot, value, ..
            } => {
                f.ints[*slot] = ctx || guard.is_some() || self.expr_taint(value, f);
            }
            NodeOp::If { arms } => {
                let divergent = arms
                    .iter()
                    .any(|(c, _)| c.as_ref().is_some_and(|c| self.expr_taint(c, f)));
                let uniform = !divergent;
                let entry = (f.ints.clone(), f.floats.clone());
                // join starts from the entry state: with no else arm the
                // fall-through path keeps it
                let mut join = entry.clone();
                let mut arms_out = Vec::new();
                for (_, body) in arms {
                    f.ints = entry.0.clone();
                    f.floats = entry.1.clone();
                    let mut b = Vec::new();
                    self.emit_ops(unit, body, f, ctx || divergent, &mut b);
                    for (j, v) in join.0.iter_mut().zip(&f.ints) {
                        *j |= *v;
                    }
                    for (j, v) in join.1.iter_mut().zip(&f.floats) {
                        *j |= *v;
                    }
                    arms_out.push(b);
                }
                f.ints = join.0;
                f.floats = join.1;
                out.push(ProtoOp::Branch {
                    uniform,
                    arms: arms_out,
                });
            }
            NodeOp::Call {
                unit: u,
                int_args,
                float_args,
                array_args,
            } => {
                if self.depth > 64 {
                    return; // cycle guard; the driver's call graph is acyclic
                }
                let callee = &self.prog.units[*u];
                let mut f2 = TaintFrame::new(callee);
                for (pos, e) in int_args {
                    if let FormalSlot::Int(slot) = callee.formals[*pos] {
                        if slot != usize::MAX {
                            f2.ints[slot] = self.expr_taint(e, f);
                        }
                    }
                }
                for (pos, e) in float_args {
                    if let FormalSlot::Float(slot) = callee.formals[*pos] {
                        if slot != usize::MAX {
                            f2.floats[slot] = self.expr_taint(e, f);
                        }
                    }
                }
                for (pos, caller_slot) in array_args {
                    if let FormalSlot::Array(slot) = callee.formals[*pos] {
                        if slot != usize::MAX {
                            f2.arrays[slot] = f.arrays[*caller_slot];
                        }
                    }
                }
                self.depth += 1;
                self.emit_ops(*u, &callee.ops, &mut f2, ctx, out);
                self.depth -= 1;
            }
            NodeOp::Exchange { msgs, tag, .. } => {
                // the interpreter issues all sends (nonblocking) before
                // any blocking receive; keep that per-rank order
                let tag = *tag;
                let bound = bound(msgs, f);
                out.extend(
                    bound
                        .iter()
                        .cloned()
                        .map(|xfer| ProtoOp::Send { unit, tag, xfer }),
                );
                out.extend(
                    bound
                        .into_iter()
                        .map(|xfer| ProtoOp::Recv { unit, tag, xfer }),
                );
            }
            NodeOp::OverlapNest {
                msgs,
                tag,
                levels,
                body,
                ..
            } => {
                let tag = *tag;
                let bound = bound(msgs, f);
                out.extend(
                    bound
                        .iter()
                        .cloned()
                        .map(|xfer| ProtoOp::Send { unit, tag, xfer }),
                );
                // posts in plan order; each wait below mirrors its post
                let first_req = self.next_req;
                self.next_req += bound.len() as u64;
                let posted = || (first_req..).zip(bound.iter().cloned());
                out.extend(posted().map(|(req, xfer)| ProtoOp::Post {
                    unit,
                    tag,
                    req,
                    xfer,
                }));
                // interior + boundary compute: writes only (level bounds
                // feed no communication decisions here)
                for lv in levels {
                    f.ints[lv.var] = self.cidx_taint(&lv.lo, f) || self.cidx_taint(&lv.hi, f);
                }
                self.emit_ops(unit, body, f, ctx, out);
                out.extend(posted().map(|(req, xfer)| ProtoOp::Wait {
                    unit,
                    tag,
                    req,
                    xfer,
                }));
            }
            NodeOp::Pipeline {
                levels,
                body,
                strip,
                hops,
                tag,
                ..
            } => {
                let tag = *tag;
                // the interpreter's chunks, where the strip bounds are
                // constants; otherwise one chunk of whole hops per rank
                let cut = strip.as_ref().and_then(|s| {
                    let (lo, hi) = (&levels[s.level].lo, &levels[s.level].hi);
                    (lo.terms.is_empty() && hi.terms.is_empty()).then_some((s, (lo.cst, hi.cst)))
                });
                let chunks: Vec<Vec<Option<(i64, i64)>>> = (0..self.prog.grid.nprocs() as usize)
                    .map(|r| match cut {
                        Some((s, range)) => (s.chunks(range, levels[s.level].step, r))
                            .into_iter()
                            .map(Some)
                            .collect(),
                        None => vec![None],
                    })
                    .collect();
                for lv in levels {
                    f.ints[lv.var] = self.cidx_taint(&lv.lo, f) || self.cidx_taint(&lv.hi, f);
                }
                let mut writes = Vec::new();
                self.emit_ops(unit, body, f, ctx, &mut writes);
                let part = |x: &Transfer<usize>, chunk: Option<(i64, i64)>| match (cut, chunk) {
                    (Some((s, _)), Some(chunk)) => bound(&[s.cut(x, chunk)], f),
                    _ => bound(std::slice::from_ref(x), f),
                };
                let rounds = chunks.iter().map(Vec::len).max().unwrap_or(0);
                for c in 0..rounds {
                    for x in hops {
                        if let Some(&chunk) = chunks[x.to].get(c) {
                            let recv = part(x, chunk).into_iter();
                            out.extend(recv.map(|xfer| ProtoOp::Recv { unit, tag, xfer }));
                        }
                    }
                    // the nest's writes, in the first round: the sends
                    // carry what it just computed
                    out.append(&mut writes);
                    for x in hops {
                        if let Some(&chunk) = chunks[x.from].get(c) {
                            let send = part(x, chunk).into_iter();
                            out.extend(send.map(|xfer| ProtoOp::Send { unit, tag, xfer }));
                        }
                    }
                }
            }
        }
    }
}

/// The transfers of an emitted op with their array slots resolved
/// through the frame's bindings. Segments over unbound dummies drop out,
/// and a transfer left with none is no message at all.
fn bound(msgs: &[Transfer<usize>], f: &TaintFrame) -> Vec<Transfer<usize>> {
    let global = |slot: &usize| Some(f.arrays[*slot]).filter(|g| *g != usize::MAX);
    let bound = msgs.iter().map(|m| m.rebind(global));
    bound.filter(|x| !x.segs.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    // Exercised end to end (extraction + checking) by the protocol
    // verifier tests in crates/analysis and the workspace tests/ suite.
}
