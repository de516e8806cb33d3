//! The set machinery of the §7 data availability analysis: what a
//! processor accesses through a reference, as an integer set.
//!
//! dHPF's communication model sends every non-owner-computed value back
//! to its owner, and ordinarily a later non-local *read* of such a value
//! would fetch it from the owner again. §7 proves, per processor, that
//! the non-local data a read accesses is a **subset** of the data the
//! (lexically last) preceding write produced on the *same* processor —
//! in which case the value is already locally available and the read's
//! communication is eliminated. This is the optimization that rescues
//! the pipelined line sweeps of SP: the spurious read communication flows
//! *against* the pipeline direction and would otherwise stall every
//! wavefront (§7, §8.1).
//!
//! The test itself is the planner's residual (`comm.rs`: touched − owned
//! − produced = ∅ on every rank); this module holds the two functions it
//! and the independent verifier (`dhpf-analysis`) both build their sets
//! from.

use crate::cp::Cp;
use crate::distrib::DistEnv;
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::RefInfo;
use dhpf_fortran::ast::StmtId;
use dhpf_iset::{LinExpr, Map, Set};

/// The `(var, lo, hi)` bound list of the loops enclosing `stmt`,
/// outermost first. `None` if some bound is non-affine.
pub fn nest_bounds(stmt: StmtId, loops: &UnitLoops) -> Option<Vec<(String, LinExpr, LinExpr)>> {
    let nest = loops.nest_of.get(&stmt)?;
    nest.iter()
        .map(|lid| {
            let info = &loops.loops[lid];
            let (lo, hi) = (info.lo.clone()?, info.hi.clone()?);
            let (lo, hi) = if info.step >= 0 { (lo, hi) } else { (hi, lo) };
            Some((info.var.clone(), lo, hi))
        })
        .collect()
}

/// Data accessed by `r` on processor `coords` executing under `cp`:
/// the image of the subscript map over the processor's iteration set.
/// `None` if a subscript is non-affine.
pub fn accessed_set(
    r: &RefInfo,
    cp: &Cp,
    nest: &[(String, LinExpr, LinExpr)],
    env: &DistEnv,
    coords: &[i64],
) -> Option<Set> {
    let iters = cp.iteration_set(nest, env, coords);
    let in_space: Vec<String> = nest.iter().map(|(v, _, _)| v.clone()).collect();
    let out_space: Vec<String> = (0..r.subs.len()).map(|d| format!("e{d}")).collect();
    let outputs: Option<Vec<LinExpr>> = r.subs.iter().cloned().collect();
    let map = Map::new(&in_space, &out_space, outputs?);
    Some(map.apply(&iters))
}
