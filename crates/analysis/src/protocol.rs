//! Static, rank-symbolic SPMD protocol verifier.
//!
//! [`check_protocol`] proves communication-protocol properties of an
//! emitted node program for **every** rank in the geometry in one pass,
//! without executing it — the static counterpart of the dynamic trace
//! checker in [`crate::trace_check`]. It consumes the
//! [`ProtocolProgram`] summary that `dhpf_core::protocol` extracts from
//! the `NodeOp` IR (all calls inlined, rank-dependence tracked by a
//! taint analysis) and runs five passes:
//!
//! 1. **Congruence** — no synchronizing atom (send/recv/post/wait/
//!    barrier) is reachable under rank-dependent control flow,
//!    where some ranks would execute it and others would not
//!    (`protocol-divergent-sync`).
//! 2. **Wait coverage** — on every control-flow path each posted irecv
//!    is waited exactly once: no post left pending at a back edge or at
//!    program end (`protocol-unwaited-irecv`), no wait without a post
//!    (`protocol-wait-unposted`), no second wait (`protocol-double-wait`).
//!    The path join is [`ReqState::join`] from the lattice module.
//! 3. **Regions** — every message endpoint addresses storage its rank
//!    actually allocates: rank in range, window present, region
//!    contained in the window, decided via the iset engine
//!    (`protocol-region-mismatch`).
//! 4. **Stale sends** — no send of an array precedes every write of it
//!    when a later statement does write it: the classic
//!    send-hoisted-above-its-producer bug (`protocol-stale-send`).
//! 5. **Matching & deadlock** — a symbolic lockstep scheduler runs the
//!    per-rank atom sequences of each straight-line segment against
//!    counted channels. Leftover or unsatisfiable traffic is
//!    `protocol-unmatched`; a cycle in the wait-for graph of stuck
//!    ranks is `protocol-deadlock`. Tags are program-unique per emitted
//!    communication event, so loop bodies and branch arms are
//!    independently balanced segments and per-segment simulation is
//!    both sound and complete.
//!
//! Findings use the ordinary [`crate::diag`] machinery; the obs bridge
//! [`protocol_decisions`] turns a report into decision-log entries.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Finding, Report, Severity};
use crate::lattice::ReqState;
use dhpf_core::codegen::NodeProgram;
use dhpf_core::protocol::{extract_protocol, ProtoOp, ProtocolProgram};
use dhpf_core::transfer::{Seg, Transfer};
use dhpf_core::Compiled;
use dhpf_obs::{Decision, DecisionKind};

/// All diagnostic codes the protocol verifier can emit, in the order the
/// passes run. Exposed so the lint schema and docs stay in sync.
pub const PROTOCOL_CODES: [&str; 8] = [
    "protocol-divergent-sync",
    "protocol-unwaited-irecv",
    "protocol-wait-unposted",
    "protocol-double-wait",
    "protocol-region-mismatch",
    "protocol-stale-send",
    "protocol-unmatched",
    "protocol-deadlock",
];

/// Verify a compiled program's communication protocol statically.
pub fn verify_protocol(compiled: &Compiled) -> Report {
    verify_protocol_program(&compiled.program)
}

/// Verify a node program's communication protocol statically.
pub fn verify_protocol_program(prog: &NodeProgram) -> Report {
    check_protocol(&extract_protocol(prog))
}

/// Run all five passes over an extracted protocol summary.
pub fn check_protocol(p: &ProtocolProgram) -> Report {
    let mut out = Report::new();
    congruence(p, &mut out);
    wait_coverage(p, &mut out);
    regions(p, &mut out);
    stale_sends(p, &mut out);
    matching(p, &mut out);
    out
}

/// Number of communication atoms (non-structural ops) in the protocol.
pub fn atom_count(p: &ProtocolProgram) -> usize {
    fn count(ops: &[ProtoOp]) -> usize {
        ops.iter()
            .map(|op| match op {
                ProtoOp::Loop { body, .. } => count(body),
                ProtoOp::Branch { arms, .. } => arms.iter().map(|a| count(a)).sum(),
                ProtoOp::Write { .. } => 0,
                _ => 1,
            })
            .sum()
    }
    count(&p.ops)
}

/// Bridge a verifier report into obs decision-log entries: one
/// `protocol-verified` record when clean, otherwise one
/// `protocol-violation` record per finding.
pub fn protocol_decisions(p: &ProtocolProgram, report: &Report) -> Vec<Decision> {
    if report.is_clean() {
        vec![Decision::new(DecisionKind::ProtocolVerified {
            atoms: atom_count(p),
            nprocs: p.nprocs,
        })]
    } else {
        report
            .findings
            .iter()
            .map(|f| {
                Decision::new(DecisionKind::ProtocolViolation {
                    code: f.code.to_string(),
                    message: f.message.clone(),
                })
            })
            .collect()
    }
}

fn err(code: &'static str, unit: impl Into<String>, msg: impl Into<String>) -> Finding {
    Finding::new(code, Severity::Error, unit, msg)
}

// ---------------------------------------------------------------------
// Pass 1: barrier / collective congruence.
// ---------------------------------------------------------------------

fn congruence(p: &ProtocolProgram, out: &mut Report) {
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    walk_congruence(p, &p.ops, false, &mut seen, out);
}

fn walk_congruence(
    p: &ProtocolProgram,
    ops: &[ProtoOp],
    divergent: bool,
    seen: &mut BTreeSet<u64>,
    out: &mut Report,
) {
    for op in ops {
        let flag =
            |kind: &str, unit: usize, tag: u64, seen: &mut BTreeSet<u64>, out: &mut Report| {
                if divergent && seen.insert(tag) {
                    out.push(
                        err(
                            "protocol-divergent-sync",
                            p.unit_name(unit),
                            format!(
                                "{kind} (tag {tag}) is reachable only under rank-dependent \
                             control flow: some ranks synchronize here and others do not"
                            ),
                        )
                        .note(
                            "hoist the communication out of the rank-dependent region or \
                         guard it uniformly on every rank"
                                .to_string(),
                        ),
                    );
                }
            };
        match op {
            ProtoOp::Send { unit, tag, .. } => flag("send", *unit, *tag, seen, out),
            ProtoOp::Recv { unit, tag, .. } => flag("recv", *unit, *tag, seen, out),
            ProtoOp::Post { unit, tag, .. } => flag("irecv post", *unit, *tag, seen, out),
            ProtoOp::Wait { unit, tag, .. } => flag("wait", *unit, *tag, seen, out),
            ProtoOp::Barrier { unit, id } => flag("barrier", *unit, *id, seen, out),
            ProtoOp::Write { .. } => {}
            ProtoOp::Loop { uniform, body } => {
                walk_congruence(p, body, divergent || !uniform, seen, out)
            }
            ProtoOp::Branch { uniform, arms } => {
                for arm in arms {
                    walk_congruence(p, arm, divergent || !uniform, seen, out);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pass 2: wait coverage (path-sensitive request lifecycle).
// ---------------------------------------------------------------------

fn wait_coverage(p: &ProtocolProgram, out: &mut Report) {
    let mut state: BTreeMap<u64, ReqState> = BTreeMap::new();
    cover_ops(p, &p.ops, &mut state, out);
    for (req, st) in &state {
        if *st == ReqState::Pending {
            out.push(err(
                "protocol-unwaited-irecv",
                "",
                format!("posted receive request r{req} is never waited before program end"),
            ));
        }
    }
}

fn get(state: &BTreeMap<u64, ReqState>, req: u64) -> ReqState {
    state.get(&req).copied().unwrap_or(ReqState::NotPosted)
}

fn cover_ops(
    p: &ProtocolProgram,
    ops: &[ProtoOp],
    state: &mut BTreeMap<u64, ReqState>,
    out: &mut Report,
) {
    for op in ops {
        match op {
            ProtoOp::Post {
                unit,
                tag,
                req,
                xfer: Transfer { to, .. },
            } => {
                if get(state, *req) == ReqState::Pending {
                    out.push(err(
                        "protocol-unwaited-irecv",
                        p.unit_name(*unit),
                        format!(
                            "rank {to} re-posts request r{req} (tag {tag}) while the \
                             previous post is still pending"
                        ),
                    ));
                }
                state.insert(*req, ReqState::Pending);
            }
            ProtoOp::Wait {
                unit,
                tag,
                req,
                xfer: Transfer { to, .. },
            } => match get(state, *req) {
                ReqState::NotPosted => out.push(err(
                    "protocol-wait-unposted",
                    p.unit_name(*unit),
                    format!(
                        "rank {to} waits on request r{req} (tag {tag}) that was never \
                         posted on this path"
                    ),
                )),
                ReqState::Pending => {
                    state.insert(*req, ReqState::Done);
                }
                ReqState::Done => out.push(err(
                    "protocol-double-wait",
                    p.unit_name(*unit),
                    format!("rank {to} waits twice on request r{req} (tag {tag})"),
                )),
            },
            ProtoOp::Loop { body, .. } => {
                let entry = state.clone();
                cover_ops(p, body, state, out);
                for (req, st) in state.clone() {
                    let was = get(&entry, req);
                    if st == ReqState::Pending && was != ReqState::Pending {
                        // Posted in the body, still in flight at the back
                        // edge: the next iteration re-posts over it.
                        out.push(err(
                            "protocol-unwaited-irecv",
                            "",
                            format!(
                                "request r{req} is posted inside a loop body but not \
                                 waited before the loop back edge"
                            ),
                        ));
                        state.insert(req, ReqState::Done);
                    } else if st == ReqState::Done && was == ReqState::Pending {
                        // Posted outside the loop, waited inside it: every
                        // iteration after the first waits again.
                        out.push(err(
                            "protocol-double-wait",
                            "",
                            format!(
                                "request r{req} is posted outside a loop but waited \
                                 inside its body: iterations after the first wait twice"
                            ),
                        ));
                    }
                }
            }
            ProtoOp::Branch { arms, .. } => {
                let entry = state.clone();
                let mut exits: Vec<BTreeMap<u64, ReqState>> = Vec::new();
                for arm in arms {
                    let mut s = entry.clone();
                    cover_ops(p, arm, &mut s, out);
                    exits.push(s);
                }
                // The no-arm-taken fall-through path.
                exits.push(entry.clone());
                let keys: BTreeSet<u64> = exits.iter().flat_map(|e| e.keys().copied()).collect();
                for req in keys {
                    let states: BTreeSet<ReqState> = exits.iter().map(|e| get(e, req)).collect();
                    let joined = if states.len() == 1 {
                        *states.iter().next().unwrap()
                    } else if states.contains(&ReqState::Pending) {
                        // Pending on one path, not on another: the wait (or
                        // the post) happens on only some control-flow paths.
                        out.push(err(
                            "protocol-unwaited-irecv",
                            "",
                            format!(
                                "request r{req} is left pending on some control-flow \
                                 paths of a branch but not others: its wait does not \
                                 cover every path"
                            ),
                        ));
                        ReqState::Done
                    } else {
                        // NotPosted vs Done: a complete post+wait lifecycle
                        // confined to one arm — legal. Join to Done so a
                        // later stray wait is still flagged.
                        ReqState::Done
                    };
                    state.insert(req, joined);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Pass 3: region / window containment.
// ---------------------------------------------------------------------

fn regions(p: &ProtocolProgram, out: &mut Report) {
    walk_regions(p, &p.ops, out);
}

fn walk_regions(p: &ProtocolProgram, ops: &[ProtoOp], out: &mut Report) {
    for op in ops {
        match op {
            // Containment is per packed section: an aggregated message
            // is sound only if every segment it carries addresses
            // storage its endpoint allocates. A wait unpacks into the
            // same region its post declared.
            ProtoOp::Send { unit, tag, xfer } => {
                check_regions(p, "send", *unit, *tag, xfer, xfer.from, "sender", out)
            }
            ProtoOp::Recv { unit, tag, xfer } => {
                check_regions(p, "recv", *unit, *tag, xfer, xfer.to, "receiver", out)
            }
            ProtoOp::Post {
                unit, tag, xfer, ..
            } => check_regions(p, "irecv", *unit, *tag, xfer, xfer.to, "receiver", out),
            ProtoOp::Loop { body, .. } => walk_regions(p, body, out),
            ProtoOp::Branch { arms, .. } => {
                for arm in arms {
                    walk_regions(p, arm, out);
                }
            }
            _ => {}
        }
    }
}

/// Every segment of `xfer` must lie in the window rank `local` (one of
/// its endpoints, in `role`) allocates for the array.
#[allow(clippy::too_many_arguments)]
fn check_regions(
    p: &ProtocolProgram,
    kind: &str,
    unit: usize,
    tag: u64,
    xfer: &Transfer<usize>,
    local: usize,
    role: &str,
    out: &mut Report,
) {
    let mut mismatch =
        |msg: String| out.push(err("protocol-region-mismatch", p.unit_name(unit), msg));
    let (from, to) = (xfer.from, xfer.to);
    for s in &xfer.segs {
        if from >= p.nprocs || to >= p.nprocs {
            mismatch(format!(
                "{kind} (tag {tag}) names rank {from}->{to}, outside the {}-rank geometry",
                p.nprocs
            ));
            continue;
        }
        let Some(info) = p.arrays.get(s.arr) else {
            mismatch(format!("{kind} (tag {tag}) names unknown array #{}", s.arr));
            continue;
        };
        let (region, name) = (s.region(), &info.name);
        match &info.windows[local] {
            _ if region.is_empty() => {}
            None => mismatch(format!(
                "{kind} (tag {tag}): {role} rank {local} allocates no storage for {name} but the \
                 plan moves {} element(s) of it",
                region.len()
            )),
            Some(window) if !window.contains(&region) => mismatch(format!(
                "{kind} (tag {tag}): region {:?}..{:?} of {name} falls outside {role} rank \
                 {local}'s allocated window {:?}..{:?}",
                s.lo, s.hi, window.lo, window.hi
            )),
            Some(_) => {}
        }
    }
}

// ---------------------------------------------------------------------
// Pass 4: stale sends (send ordered before its producing compute).
// ---------------------------------------------------------------------

fn stale_sends(p: &ProtocolProgram, out: &mut Report) {
    let mut written: BTreeSet<usize> = BTreeSet::new();
    let mut candidates: Vec<(usize, usize, usize, u64, usize)> = Vec::new();
    walk_stale(&p.ops, &mut written, &mut candidates);
    let mut reported: BTreeSet<(u64, usize)> = BTreeSet::new();
    for (unit, from, _to, tag, arr) in candidates {
        if written.contains(&arr) && reported.insert((tag, arr)) {
            let name = p.arrays.get(arr).map(|a| a.name.as_str()).unwrap_or("?");
            out.push(
                err(
                    "protocol-stale-send",
                    p.unit_name(unit),
                    format!(
                        "rank {from} sends {name} (tag {tag}) before any statement \
                         writes it, yet {name} is written later: the message carries \
                         stale data"
                    ),
                )
                .note("was this send reordered above its producing compute?".to_string()),
            );
        }
    }
}

fn walk_stale(
    ops: &[ProtoOp],
    written: &mut BTreeSet<usize>,
    candidates: &mut Vec<(usize, usize, usize, u64, usize)>,
) {
    for op in ops {
        match op {
            ProtoOp::Write { arr } => {
                written.insert(*arr);
            }
            // A completed receive fills the local window: counts as a write.
            ProtoOp::Recv { xfer, .. } | ProtoOp::Wait { xfer, .. } => {
                written.extend(xfer.segs.iter().map(|s| s.arr));
            }
            ProtoOp::Send { unit, tag, xfer } => {
                for s in &xfer.segs {
                    if !written.contains(&s.arr) {
                        candidates.push((*unit, xfer.from, xfer.to, *tag, s.arr));
                    }
                }
            }
            ProtoOp::Loop { body, .. } => walk_stale(body, written, candidates),
            ProtoOp::Branch { arms, .. } => {
                for arm in arms {
                    walk_stale(arm, written, candidates);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Pass 5: symbolic matching & deadlock (lockstep channel scheduler).
// ---------------------------------------------------------------------

fn matching(p: &ProtocolProgram, out: &mut Report) {
    sim_segment(p, &p.ops, out);
}

fn sim_segment(p: &ProtocolProgram, ops: &[ProtoOp], out: &mut Report) {
    // Recurse into uniform structured children first; divergent ones are
    // already flagged by the congruence pass and simulating their
    // contents as if all ranks ran them would be unsound.
    for op in ops {
        match op {
            ProtoOp::Loop { uniform, body } if *uniform => {
                sim_segment(p, body, out);
            }
            ProtoOp::Branch { uniform, arms } if *uniform => {
                for arm in arms {
                    sim_segment(p, arm, out);
                }
            }
            _ => {}
        }
    }

    let n = p.nprocs;
    // Per-rank sequence of this segment's own atoms (indices into ops).
    let mut seq: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        match op {
            ProtoOp::Send { xfer, .. } if xfer.from < n => seq[xfer.from].push(i),
            ProtoOp::Recv { xfer, .. }
            | ProtoOp::Post { xfer, .. }
            | ProtoOp::Wait { xfer, .. }
                if xfer.to < n =>
            {
                seq[xfer.to].push(i)
            }
            ProtoOp::Barrier { .. } => {
                for s in seq.iter_mut() {
                    s.push(i);
                }
            }
            _ => {}
        }
    }
    if seq.iter().all(|s| s.is_empty()) {
        return;
    }

    let mut pos = vec![0usize; n];
    // Channel (from, to, tag) → outstanding message atom indices.
    let mut chan: BTreeMap<(usize, usize, u64), Vec<usize>> = BTreeMap::new();
    loop {
        let mut progressed = false;
        for r in 0..n {
            while let Some(&i) = seq[r].get(pos[r]) {
                match &ops[i] {
                    ProtoOp::Send { tag, xfer, .. } => {
                        chan.entry((r, xfer.to, *tag)).or_default().push(i);
                    }
                    ProtoOp::Post { .. } => {}
                    ProtoOp::Recv { tag, xfer, .. } | ProtoOp::Wait { tag, xfer, .. } => {
                        match chan.get_mut(&(xfer.from, r, *tag)) {
                            Some(q) if !q.is_empty() => {
                                q.pop();
                            }
                            _ => break,
                        }
                    }
                    ProtoOp::Barrier { .. } => break,
                    _ => {}
                }
                pos[r] += 1;
                progressed = true;
            }
        }
        // A barrier releases only when every rank is parked at it.
        if let Some(&i0) = seq[0].get(pos[0]) {
            if matches!(ops[i0], ProtoOp::Barrier { .. })
                && (0..n).all(|r| seq[r].get(pos[r]) == Some(&i0))
            {
                for pr in pos.iter_mut() {
                    *pr += 1;
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let stuck: Vec<usize> = (0..n).filter(|&r| pos[r] < seq[r].len()).collect();
    if !stuck.is_empty() {
        // Wait-for edges among stuck ranks.
        let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &r in &stuck {
            let i = seq[r][pos[r]];
            match &ops[i] {
                ProtoOp::Recv { xfer, .. } | ProtoOp::Wait { xfer, .. } => {
                    edges.insert(r, vec![xfer.from]);
                }
                ProtoOp::Barrier { .. } => {
                    edges.insert(
                        r,
                        (0..n)
                            .filter(|&q| q != r && seq[q].get(pos[q]) != Some(&i))
                            .collect(),
                    );
                }
                _ => {}
            }
        }
        if let Some(cycle) = find_cycle(&edges) {
            let r0 = cycle[0];
            let i0 = seq[r0][pos[r0]];
            let unit = match &ops[i0] {
                ProtoOp::Recv { unit, .. }
                | ProtoOp::Wait { unit, .. }
                | ProtoOp::Barrier { unit, .. } => p.unit_name(*unit),
                _ => "",
            };
            let path: Vec<String> = cycle.iter().map(|r| format!("rank {r}")).collect();
            out.push(err(
                "protocol-deadlock",
                unit,
                format!(
                    "symbolic deadlock: {} block on each other in a cycle \
                     (each is stuck at a blocking recv/wait/barrier whose \
                     peer is also stuck)",
                    path.join(" -> ")
                ),
            ));
        } else {
            // Blocked, but not cyclically: the expected traffic never comes.
            let mut reported: BTreeSet<u64> = BTreeSet::new();
            for &r in &stuck {
                let i = seq[r][pos[r]];
                match &ops[i] {
                    ProtoOp::Recv { unit, tag, xfer }
                    | ProtoOp::Wait {
                        unit, tag, xfer, ..
                    } if reported.insert(*tag) => {
                        let name = seg_names(p, &xfer.segs);
                        out.push(err(
                            "protocol-unmatched",
                            p.unit_name(*unit),
                            format!(
                                "rank {r} blocks receiving {name} (tag {tag}) from \
                                 rank {}, but no matching send exists",
                                xfer.from
                            ),
                        ));
                    }
                    ProtoOp::Barrier { unit, id } if reported.insert(*id) => {
                        out.push(err(
                            "protocol-unmatched",
                            p.unit_name(*unit),
                            format!(
                                "rank {r} blocks at barrier {id} that not every \
                                 rank reaches"
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }

    // Orphan sends: deposited but never received.
    for ((from, to, tag), q) in &chan {
        if let Some(&i) = q.first() {
            let (unit, name) = match &ops[i] {
                ProtoOp::Send { unit, xfer, .. } => (*unit, seg_names(p, &xfer.segs)),
                _ => continue,
            };
            out.push(err(
                "protocol-unmatched",
                p.unit_name(unit),
                format!(
                    "{} orphan message(s) of {name} (tag {tag}) from rank {from} to \
                     rank {to} are never received",
                    q.len()
                ),
            ));
        }
    }
}

/// Deduplicated array names of a message's segments, for diagnostics.
fn seg_names(p: &ProtocolProgram, segs: &[Seg<usize>]) -> String {
    let mut names: Vec<&str> = segs
        .iter()
        .map(|s| p.arrays.get(s.arr).map(|a| a.name.as_str()).unwrap_or("?"))
        .collect();
    names.dedup();
    if names.is_empty() {
        "?".to_string()
    } else {
        names.join("+")
    }
}

/// Find one cycle in the stuck-rank wait-for graph, as the list of ranks
/// along it.
fn find_cycle(edges: &BTreeMap<usize, Vec<usize>>) -> Option<Vec<usize>> {
    fn dfs(
        r: usize,
        edges: &BTreeMap<usize, Vec<usize>>,
        color: &mut BTreeMap<usize, u8>, // 1 = on stack, 2 = done
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        color.insert(r, 1);
        stack.push(r);
        for &next in edges.get(&r).map(|v| v.as_slice()).unwrap_or(&[]) {
            match color.get(&next) {
                Some(1) => {
                    let start = stack.iter().position(|&x| x == next).unwrap_or(0);
                    return Some(stack[start..].to_vec());
                }
                Some(_) => {}
                None => {
                    if let Some(c) = dfs(next, edges, color, stack) {
                        return Some(c);
                    }
                }
            }
        }
        stack.pop();
        color.insert(r, 2);
        None
    }
    let mut color = BTreeMap::new();
    for &r in edges.keys() {
        if !color.contains_key(&r) {
            if let Some(c) = dfs(r, edges, &mut color, &mut Vec::new()) {
                return Some(c);
            }
        }
    }
    None
}
