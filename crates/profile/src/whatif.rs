//! What-if hypotheses: rebuild each rank's action sequence from its
//! trace, rewrite it under one hypothesis — blocking receives converted
//! to post/overlap/wait, barriers removed — and hand it to
//! [`dhpf_spmd::loggp::replay`], the virtual machine's own cost model
//! run on recorded actions (a nest's communication made free is that
//! replay's `free_nest`). Nothing here schedules or costs anything.
//!
//! The replay of the unmodified sequence is the traced run again: the
//! same rules in the same order, with compute durations read back from
//! the trace. Hypotheses then perturb only what they claim to perturb.

use dhpf_spmd::loggp::{Action, Op};
use dhpf_spmd::trace::{Event, EventKind, Trace};
use std::collections::BTreeSet;

/// Rebuild every rank's action sequence from its trace. Event intervals
/// are discarded — only order, peers, byte counts, and compute
/// durations survive — so the replay re-derives all timing.
pub fn actions_from_traces(traces: &[Trace]) -> Vec<Vec<Action>> {
    let op = |e: &Event| match e.kind {
        EventKind::Compute => Some(Op::Compute { dt: e.t1 - e.t0 }),
        EventKind::Send { to, bytes } => Some(Op::Send {
            to,
            bytes,
            parts: e.parts,
        }),
        EventKind::RecvPost { from, req } => Some(Op::Post { from, req }),
        EventKind::Barrier => Some(Op::Barrier),
        EventKind::Phase(_) => None,
        _ => (e.kind.recv_completion()).map(|(from, _, req)| Op::Complete { from, req }),
    };
    traces
        .iter()
        .map(|tr| {
            (tr.events.iter())
                .filter_map(|e| {
                    Some(Action {
                        nest: e.nest,
                        op: op(e)?,
                    })
                })
                .collect()
        })
        .collect()
}

/// Convert blocking receives of the candidate nests into post/overlap/
/// wait form: the post happens where the receive was; the wait is
/// deferred past any intervening compute, to just before the rank's
/// next communication action (or the end of the schedule). This mirrors
/// what `CompileOptions::overlap` emits — receives posted up front, the
/// flight hidden under the work between the post and the use.
pub fn apply_overlap(ranks: &[Vec<Action>], candidates: &BTreeSet<u32>) -> Vec<Vec<Action>> {
    ranks
        .iter()
        .map(|actions| {
            // fresh request ids, disjoint from any the trace already uses
            let mut next_req = actions
                .iter()
                .map(|a| match a.op {
                    Op::Post { req, .. } => req + 1,
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
            let mut out = Vec::new();
            let mut pending: Vec<Action> = Vec::new();
            for a in actions {
                match a.op {
                    Op::Complete { from, req: None }
                        if a.nest.is_some_and(|n| candidates.contains(&n)) =>
                    {
                        let req = next_req;
                        next_req += 1;
                        let step = |op| Action { nest: a.nest, op };
                        out.push(step(Op::Post { from, req }));
                        pending.push(step(Op::Complete {
                            from,
                            req: Some(req),
                        }));
                    }
                    Op::Send { .. } | Op::Complete { .. } | Op::Barrier => {
                        out.append(&mut pending);
                        out.push(a.clone());
                    }
                    Op::Compute { .. } | Op::Post { .. } => out.push(a.clone()),
                }
            }
            out.append(&mut pending);
            out
        })
        .collect()
}

/// Drop every barrier.
pub fn apply_no_barriers(ranks: &[Vec<Action>]) -> Vec<Vec<Action>> {
    ranks
        .iter()
        .map(|actions| {
            actions
                .iter()
                .filter(|a| !matches!(a.op, Op::Barrier))
                .cloned()
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_spmd::loggp::replay;
    use dhpf_spmd::machine::MachineConfig;

    fn cfg() -> MachineConfig {
        MachineConfig {
            nprocs: 2,
            seconds_per_flop: 1.0,
            latency: 10.0,
            byte_time: 0.0,
            send_overhead: 1.0,
            recv_overhead: 1.0,
            trace: true,
        }
    }

    /// rank 0: compute 5, send; rank 1: recv, compute 5 — as the
    /// machine traces it (makespan 21: the send departs at 6, arrives at
    /// 16, and the receive stalls until then).
    fn ping() -> Vec<Vec<Action>> {
        let run = dhpf_spmd::Machine::run(cfg(), |p| {
            if p.rank() == 0 {
                p.work(5.0);
                p.set_provenance(Some(3));
                p.send(1, 0, vec![0.0]);
            } else {
                p.set_provenance(Some(3));
                p.recv(0, 0);
                p.set_provenance(None);
                p.work(5.0);
            }
        });
        assert_eq!(run.virtual_time, 21.0);
        actions_from_traces(&run.traces)
    }

    #[test]
    fn replaying_a_trace_reproduces_it() {
        let ranks = ping();
        let r = replay(&ranks, &cfg(), None).unwrap();
        assert_eq!(r.proc_times, vec![6.0, 21.0]);
        // event for event, so rebuilding actions is a fixed point
        let again = actions_from_traces(&r.traces);
        assert_eq!(format!("{again:?}"), format!("{ranks:?}"));
    }

    #[test]
    fn freeing_an_unrelated_nest_changes_nothing() {
        let r = replay(&ping(), &cfg(), Some(99)).unwrap();
        assert_eq!(r.proc_times, vec![6.0, 21.0]);
    }

    #[test]
    fn overlap_hides_flight_under_following_compute() {
        let ranks = ping();
        let over = apply_overlap(&ranks, &BTreeSet::from([3]));
        // rank 1 now posts, computes 5, waits at clock 5:
        // completes max(5+1, 16) = 16 instead of 16+5 = 21
        let r = replay(&over, &cfg(), None).unwrap();
        assert_eq!(r.virtual_time, 16.0);
        // a nest that is not a candidate is left alone
        let same = apply_overlap(&ranks, &BTreeSet::from([4]));
        assert_eq!(replay(&same, &cfg(), None).unwrap().virtual_time, 21.0);
    }

    #[test]
    fn overlap_never_slower_than_baseline() {
        // overlap of a receive with nothing after it to hide under
        let mut ranks = ping();
        ranks[1].pop();
        let base = replay(&ranks, &cfg(), None).unwrap();
        let over = replay(&apply_overlap(&ranks, &BTreeSet::from([3])), &cfg(), None).unwrap();
        assert_eq!(over.proc_times, base.proc_times);
    }

    #[test]
    fn barrier_joins_at_max_plus_latency() {
        let run = dhpf_spmd::Machine::run(cfg(), |p| {
            p.work(if p.rank() == 0 { 2.0 } else { 7.0 });
            p.barrier();
        });
        assert_eq!(run.virtual_time, 17.0);
        let ranks = actions_from_traces(&run.traces);
        assert_eq!(replay(&ranks, &cfg(), None).unwrap().virtual_time, 17.0);
        let no_bar = replay(&apply_no_barriers(&ranks), &cfg(), None).unwrap();
        assert_eq!(no_bar.virtual_time, 7.0);
    }
}
