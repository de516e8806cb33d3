//! Mutation self-check: prove the oracle matrix has teeth.
//!
//! A differential harness that never fires is indistinguishable from
//! one that cannot fire. This module plants known miscompiles and then
//! demands that at least two independent oracles catch each one (the
//! ISSUE acceptance bar). Two sabotages are implemented:
//!
//! * **Dropped exchange** ([`mutation_check`]): remove one
//!   *non-redundant* planned pre-exchange section, both from the plan's
//!   transfer and from the emitted one. Dropping only
//!   the emitted segment would silence both the send and the receive
//!   side, so the message-matching checkers (protocol, traces) stay
//!   clean by construction; that is why the plan is mutated too — the
//!   comm-coverage verifier works from the plan, while the numeric
//!   oracle works from the execution, giving two genuinely independent
//!   detection paths.
//! * **Wrong unpack offset** ([`unpack_offset_check`]): shift one
//!   segment's region inside an emitted (possibly aggregated) transfer,
//!   leaving the plan untouched — the classic aggregation bug where a
//!   packed section lands at the wrong place in the ghost region. Both
//!   ranks execute the same node program, so the traced byte counts
//!   stay symmetric by construction; the mutant is instead caught by
//!   the static protocol verifier (per-segment window containment) and
//!   by the numeric oracle (the true ghost cells go stale), with the
//!   unpack length assertion as a third line of defense.

use crate::gen::{adapt_geometry, grid_bindings, ProgramSpec};
use crate::oracle::{self, Oracle};
use dhpf_core::codegen::NodeOp;
use dhpf_core::comm::NestPlan;
use dhpf_core::driver::{compile, CompileOptions, Compiled};
use dhpf_core::exec::node::run_node_program;
use dhpf_core::exec::serial::run_serial;
use dhpf_core::transfer::{remove_seg, sole_deliveries, Seg};
use dhpf_fortran::ast::StmtId;
use dhpf_spmd::machine::MachineConfig;
use std::collections::BTreeMap;

/// Result of one mutation experiment.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// Human description of the dropped exchange.
    pub dropped: String,
    /// Oracles that flagged the mutant, deduplicated.
    pub caught_by: Vec<Oracle>,
}

impl MutationOutcome {
    /// The acceptance bar: at least two independent oracles fired.
    pub fn caught_twice(&self) -> bool {
        self.caught_by.len() >= 2
    }
}

/// A planned pre-exchange section: unit, nest, and its `(transfer,
/// segment)` position in the nest's plan.
type Candidate = (String, StmtId, usize, usize);

/// Pre-exchange sections not covered by the union of the other
/// pre-exchanges to the same (receiver, array) in the same plan —
/// dropping one must leave some ghost element stale. Some are still
/// only *statically* visible (the stale ghost may hold the same value
/// the exchange would have delivered, e.g. a re-fetch of data that
/// never changed), so the caller tries candidates in order until one
/// is dynamically detectable too.
fn droppable_candidates(compiled: &Compiled, limit: usize) -> Vec<Candidate> {
    let plans = compiled.analyses.iter().flat_map(|(uname, ua)| {
        ua.plans
            .iter()
            .map(move |(&nest, plan)| (uname, nest, plan))
    });
    plans
        .flat_map(|(uname, nest, plan)| {
            let sole = sole_deliveries(plan.pre()).into_iter();
            sole.map(move |(t, s)| (uname.clone(), nest, t, s))
        })
        .take(limit)
        .collect()
}

/// Take the candidate's section out of the plan: its endpoints and the
/// section.
fn drop_plan_msg(compiled: &mut Compiled, (unit, nest, t, s): &Candidate) -> Dropped {
    let plan = compiled
        .analyses
        .get_mut(unit)
        .expect("mutated unit exists")
        .plans
        .get_mut(nest)
        .expect("mutated nest exists");
    match plan {
        NestPlan::Parallel { pre, .. } | NestPlan::Pipelined { pre, .. } => {
            (pre[*t].from, pre[*t].to, remove_seg(pre, *t, *s))
        }
    }
}

/// A dropped plan section with its endpoints.
type Dropped = (usize, usize, Seg<String>);

fn child_bodies(op: &mut NodeOp) -> Vec<&mut Vec<NodeOp>> {
    match op {
        NodeOp::Loop { body, .. } => vec![body],
        NodeOp::If { arms } => arms.iter_mut().map(|(_, b)| b).collect(),
        _ => vec![],
    }
}

/// Drop the emitted copy of `m` — same endpoints, array and region —
/// from the first exchange of `ops` carrying it.
fn remove_from_ops(ops: &mut [NodeOp], names: &[String], m: &Dropped) -> bool {
    let (from, to, seg) = m;
    for op in ops.iter_mut() {
        if let NodeOp::Exchange { msgs, .. } | NodeOp::OverlapNest { msgs, .. } = op {
            // With aggregation on, the plan section is one segment of a
            // larger per-peer transfer; the transfer goes only when
            // nothing else rides in it.
            let same =
                |s: &Seg<usize>| (&names[s.arr], &s.lo, &s.hi) == (&seg.arr, &seg.lo, &seg.hi);
            let mut between = msgs
                .iter()
                .enumerate()
                .filter(|(_, x)| (x.from, x.to) == (*from, *to));
            let found = between.find_map(|(t, x)| Some((t, x.segs.iter().position(same)?)));
            if let Some((t, s)) = found {
                remove_seg(msgs, t, s);
                return true;
            }
        }
        for body in child_bodies(op) {
            if remove_from_ops(body, names, m) {
                return true;
            }
        }
    }
    false
}

/// Drop the emitted segment matching `m` from the node program of `unit`.
fn drop_emitted_msg(compiled: &mut Compiled, unit: &str, m: &Dropped) -> bool {
    let emitted = compiled.program.units.iter_mut().find(|u| u.name == unit);
    emitted.is_some_and(|u| remove_from_ops(&mut u.ops, &u.array_names, m))
}

/// Compile `spec` at `geom` with default flags, plant a dropped
/// exchange, and report which oracles notice. Candidates are tried in
/// plan order until one is caught by two independent oracles (some
/// drops are only statically visible — see
/// [`droppable_candidates`]); the best outcome is returned. `None`
/// when the program has no droppable pre-exchange at this geometry (no
/// communication to sabotage) — the campaign then tries the next
/// program.
pub fn mutation_check(spec: &ProgramSpec, geom: &[i64], max_ulps: u64) -> Option<MutationOutcome> {
    let src = spec.render();
    let program = dhpf_fortran::parse(&src).ok()?;
    let serial = run_serial(&program, &BTreeMap::new()).ok()?;

    let adapted = adapt_geometry(geom, spec.grid_rank);
    let nprocs: i64 = adapted.iter().product();
    if nprocs < 2 {
        return None; // single rank: nothing is ever exchanged
    }
    let mut opts = CompileOptions::new();
    opts.bindings = grid_bindings(&adapted).into_iter().collect();

    let candidates = droppable_candidates(&compile(&program, &opts).ok()?, 6);
    let mut best: Option<MutationOutcome> = None;
    for candidate in candidates {
        // recompile per candidate: mutation consumes the artifact
        let mut compiled = compile(&program, &opts).ok()?;
        let outcome = run_experiment(
            &mut compiled,
            &candidate,
            &program,
            &serial,
            nprocs as usize,
            max_ulps,
        );
        let Some(outcome) = outcome else { continue };
        let twice = outcome.caught_twice();
        if best
            .as_ref()
            .map(|b| outcome.caught_by.len() > b.caught_by.len())
            .unwrap_or(true)
        {
            best = Some(outcome);
        }
        if twice {
            break;
        }
    }
    best
}

/// Drop the candidate pre-exchange section (plan and emitted code) and
/// run every post-compile oracle over the sabotaged program.
fn run_experiment(
    compiled: &mut Compiled,
    candidate: &Candidate,
    program: &dhpf_fortran::ast::Program,
    serial: &dhpf_core::exec::serial::SerialResult,
    nprocs: usize,
    max_ulps: u64,
) -> Option<MutationOutcome> {
    let unit = &candidate.0;
    let dropped = drop_plan_msg(compiled, candidate);
    if !drop_emitted_msg(compiled, unit, &dropped) {
        return None; // plan message was not emitted (e.g. fused away)
    }

    let (from, to, seg) = dropped;
    Some(MutationOutcome {
        dropped: format!(
            "pre-exchange {from}→{to} of `{}` region {:?}..{:?} in unit `{unit}`",
            seg.arr, seg.lo, seg.hi
        ),
        caught_by: judge(compiled, program, serial, nprocs, max_ulps),
    })
}

/// Run every post-compile oracle over a sabotaged program and report
/// which ones fire, deduplicated.
fn judge(
    compiled: &Compiled,
    program: &dhpf_fortran::ast::Program,
    serial: &dhpf_core::exec::serial::SerialResult,
    nprocs: usize,
    max_ulps: u64,
) -> Vec<Oracle> {
    let mut caught: Vec<Oracle> = Vec::new();
    let hit = |caught: &mut Vec<Oracle>, o: Oracle| {
        if !caught.contains(&o) {
            caught.push(o);
        }
    };

    if !dhpf_analysis::verify_compiled(compiled).is_clean() {
        hit(&mut caught, Oracle::Coverage);
    }
    if !dhpf_analysis::check_compiled_races(compiled).is_clean() {
        hit(&mut caught, Oracle::Coverage);
    }
    let proto = dhpf_core::protocol::extract_protocol(&compiled.program);
    if !dhpf_analysis::check_protocol(&proto).is_clean() {
        hit(&mut caught, Oracle::ProtocolStatic);
    }

    let machine = MachineConfig::sp2(nprocs).with_trace();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_node_program(&compiled.program, machine)
    })) {
        Ok(Ok(result)) => {
            if dhpf_analysis::check_traces(&result.run.traces).error_count() > 0 {
                hit(&mut caught, Oracle::ProtocolDynamic);
            }
            if oracle::compare_stitched(serial, &result.arrays, program, max_ulps).is_err() {
                hit(&mut caught, Oracle::Numeric);
            }
        }
        Ok(Err(_)) => hit(&mut caught, Oracle::Exec),
        Err(_) => hit(&mut caught, Oracle::Panic),
    }
    caught
}

/// Count emitted exchange segments in a unit's ops (recursively).
fn count_segs(ops: &mut [NodeOp]) -> usize {
    let mut n = 0;
    for op in ops.iter_mut() {
        if let NodeOp::Exchange { msgs, .. } | NodeOp::OverlapNest { msgs, .. } = op {
            n += msgs.iter().map(|c| c.segs.len()).sum::<usize>();
        }
        for body in child_bodies(op) {
            n += count_segs(body);
        }
    }
    n
}

/// Shift the `target`-th emitted segment (pre-order) by `delta` along
/// its first dimension. Returns a description of the shifted segment.
fn shift_seg_in_ops(
    ops: &mut [NodeOp],
    arrays: &[dhpf_core::codegen::GlobalArray],
    idx: &mut usize,
    target: usize,
    delta: i64,
) -> Option<String> {
    for op in ops.iter_mut() {
        if let NodeOp::Exchange { msgs, .. } | NodeOp::OverlapNest { msgs, .. } = op {
            for c in msgs.iter_mut() {
                let (from, to) = (c.from, c.to);
                for s in c.segs.iter_mut() {
                    if *idx == target {
                        if s.lo.is_empty() {
                            return None; // scalar segment: nothing to shift
                        }
                        s.lo[0] += delta;
                        s.hi[0] += delta;
                        let name = arrays.get(s.arr).map(|a| a.name.as_str()).unwrap_or("?");
                        return Some(format!(
                            "segment `{name}` {:?}..{:?} of {from}→{to} shifted by {delta:+}",
                            s.lo, s.hi
                        ));
                    }
                    *idx += 1;
                }
            }
        }
        for body in child_bodies(op) {
            if let r @ Some(_) = shift_seg_in_ops(body, arrays, idx, target, delta) {
                return r;
            }
        }
    }
    None
}

/// The wrong-unpack-offset sabotage: compile `spec` with default flags
/// (aggregation on), shift one emitted segment's region while leaving
/// the plan untouched, and report which oracles notice. Segments and
/// shift directions are tried in order until a mutant is caught by two
/// independent oracles; the best outcome is returned. `None` when the
/// program emits no shiftable segment at this geometry.
pub fn unpack_offset_check(
    spec: &ProgramSpec,
    geom: &[i64],
    max_ulps: u64,
) -> Option<MutationOutcome> {
    let src = spec.render();
    let program = dhpf_fortran::parse(&src).ok()?;
    let serial = run_serial(&program, &BTreeMap::new()).ok()?;

    let adapted = adapt_geometry(geom, spec.grid_rank);
    let nprocs: i64 = adapted.iter().product();
    if nprocs < 2 {
        return None; // single rank: nothing is ever exchanged
    }
    let mut opts = CompileOptions::new();
    opts.bindings = grid_bindings(&adapted).into_iter().collect();

    let total = {
        let mut probe = compile(&program, &opts).ok()?;
        probe
            .program
            .units
            .iter_mut()
            .map(|u| count_segs(&mut u.ops))
            .sum::<usize>()
    };
    let mut best: Option<MutationOutcome> = None;
    for target in 0..total.min(8) {
        for delta in [1i64, -1] {
            // recompile per candidate: mutation consumes the artifact
            let mut compiled = compile(&program, &opts).ok()?;
            let arrays = compiled.program.arrays.clone();
            let mut desc = None;
            let mut idx = 0usize;
            for unit in compiled.program.units.iter_mut() {
                desc = shift_seg_in_ops(&mut unit.ops, &arrays, &mut idx, target, delta);
                if desc.is_some() {
                    break;
                }
            }
            let Some(desc) = desc else { continue };
            let outcome = MutationOutcome {
                dropped: desc,
                caught_by: judge(&compiled, &program, &serial, nprocs as usize, max_ulps),
            };
            let twice = outcome.caught_twice();
            if best
                .as_ref()
                .map(|b| outcome.caught_by.len() > b.caught_by.len())
                .unwrap_or(true)
            {
                best = Some(outcome);
            }
            if twice {
                return best;
            }
        }
    }
    best
}
