//! Consistency checks over `spmd::trace` event logs and communication
//! plans: unmatched send/recv pairs, write–write races on ghost regions,
//! cyclic waits in pipelined sweep schedules, and wait coverage of
//! nonblocking receives (every posted `irecv` waited exactly once — an
//! un-waited request means the program read a ghost buffer that was
//! never known to be filled).

use crate::diag::{Finding, Report, Severity};
use dhpf_core::comm::NestPlan;
use dhpf_spmd::trace::{EventKind, Trace};
use std::collections::BTreeMap;

/// Check a run's per-rank traces. `traces[i]` must be rank `i`'s log
/// (as `RunResult::traces` delivers them).
pub fn check_traces(traces: &[Trace]) -> Report {
    let mut out = Report::new();
    check_matched_messages(traces, &mut out);
    check_cyclic_waits(traces, &mut out);
    check_wait_coverage(traces, &mut out);
    out
}

/// Every send must have exactly one matching receive (same endpoints,
/// same total volume). The virtual machine blocks on mismatch in small
/// runs, but a tail of unconsumed messages at program end is silent —
/// this check catches it from the logs alone.
fn check_matched_messages(traces: &[Trace], out: &mut Report) {
    // (from, to) → (sends, send_bytes, recvs, recv_bytes)
    let mut pairs: BTreeMap<(usize, usize), (usize, u64, usize, u64)> = BTreeMap::new();
    for t in traces {
        for e in &t.events {
            if let EventKind::Send { to, bytes } = e.kind {
                let p = pairs.entry((t.rank, to)).or_default();
                p.0 += 1;
                p.1 += bytes;
            }
            // every receive completion, blocking or the wait on a posted
            // irecv, stalled or not, consumes exactly one message. The
            // zero-width RecvPost consumes nothing and is covered by
            // check_wait_coverage instead.
            if let Some((from, bytes, _)) = e.kind.recv_completion() {
                let p = pairs.entry((from, t.rank)).or_default();
                p.2 += 1;
                p.3 += bytes;
            }
        }
    }
    for ((from, to), (s, sb, r, rb)) in pairs {
        if s != r {
            out.push(Finding::new(
                "trace-unmatched",
                Severity::Error,
                "",
                format!("{from}→{to}: {s} send(s) but {r} receive(s)"),
            ));
        } else if sb != rb {
            out.push(Finding::new(
                "trace-unmatched",
                Severity::Error,
                "",
                format!("{from}→{to}: sent {sb} bytes but received {rb}"),
            ));
        }
    }
}

/// Detect circular wait patterns: a cycle of processors whose
/// `RecvWait` intervals all overlap in virtual time. A finished run
/// cannot have deadlocked, but a near-cycle in a pipelined sweep
/// schedule means the strip granularity serialized the wavefront.
fn check_cyclic_waits(traces: &[Trace], out: &mut Report) {
    // edges: waiter → sender with the wait interval
    let mut edges: BTreeMap<usize, Vec<(usize, f64, f64)>> = BTreeMap::new();
    for t in traces {
        for e in &t.events {
            if let (true, Some((from, ..))) = (e.kind.is_stall(), e.kind.recv_completion()) {
                edges.entry(t.rank).or_default().push((from, e.t0, e.t1));
            }
        }
    }
    let mut reported: Vec<Vec<usize>> = Vec::new();
    for &start in edges.keys().collect::<Vec<_>>() {
        let mut path = vec![start];
        dfs(
            start,
            start,
            &edges,
            f64::NEG_INFINITY,
            f64::INFINITY,
            &mut path,
            &mut reported,
            out,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    start: usize,
    cur: usize,
    edges: &BTreeMap<usize, Vec<(usize, f64, f64)>>,
    lo: f64,
    hi: f64,
    path: &mut Vec<usize>,
    reported: &mut Vec<Vec<usize>>,
    out: &mut Report,
) {
    let Some(nexts) = edges.get(&cur) else { return };
    for &(next, t0, t1) in nexts {
        let (nlo, nhi) = (lo.max(t0), hi.min(t1));
        if nlo >= nhi {
            continue; // wait intervals do not overlap: no simultaneous cycle
        }
        if next == start && path.len() >= 2 {
            let mut key = path.clone();
            key.sort_unstable();
            if !reported.contains(&key) {
                reported.push(key);
                out.push(Finding::new(
                    "trace-cyclic-wait",
                    Severity::Warning,
                    "",
                    format!(
                        "processors {:?} wait on each other in a cycle during \
                         [{nlo:.3e}, {nhi:.3e}] — pipelined sweep serialized",
                        path
                    ),
                ));
            }
            continue;
        }
        if path.contains(&next) || next == start {
            continue;
        }
        path.push(next);
        dfs(start, next, edges, nlo, nhi, path, reported, out);
        path.pop();
    }
}

/// Wait coverage of nonblocking receives: on each rank, every posted
/// request (`RecvPost`) must be completed by exactly one `Wait` /
/// `WaitStall` carrying the same request id, and no wait may name a
/// request that was never posted. A posted-but-unwaited request is the
/// trace-level signature of reading a ghost buffer whose fill was never
/// synchronized — a race the blocking API made unrepresentable.
fn check_wait_coverage(traces: &[Trace], out: &mut Report) {
    for t in traces {
        // req id → (posts, waits); BTreeMap keeps findings ordered
        let mut reqs: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        for e in &t.events {
            if let EventKind::RecvPost { req, .. } = e.kind {
                reqs.entry(req).or_default().0 += 1;
            }
            if let Some((.., Some(req))) = e.kind.recv_completion() {
                reqs.entry(req).or_default().1 += 1;
            }
        }
        for (req, (posts, waits)) in reqs {
            if posts > 0 && waits == 0 {
                out.push(Finding::new(
                    "trace-unwaited-irecv",
                    Severity::Error,
                    "",
                    format!(
                        "rank {}: irecv request {req} was posted but never waited — \
                         the ghost buffer it fills may be read before the message lands",
                        t.rank
                    ),
                ));
            } else if posts == 0 && waits > 0 {
                out.push(Finding::new(
                    "trace-wait-unposted",
                    Severity::Error,
                    "",
                    format!(
                        "rank {}: wait on request {req} which was never posted",
                        t.rank
                    ),
                ));
            } else if waits > 1 {
                out.push(Finding::new(
                    "trace-double-wait",
                    Severity::Error,
                    "",
                    format!(
                        "rank {}: request {req} waited {waits} times ({posts} post(s))",
                        t.rank
                    ),
                ));
            }
        }
    }
}

/// Plan-level race check: two *distinct* senders updating overlapping
/// ghost regions of the same array on the same receiver in one nest —
/// the receiver's final value depends on message arrival order.
pub fn check_plan_races(
    unit: &str,
    plans: &BTreeMap<dhpf_fortran::ast::StmtId, NestPlan>,
) -> Report {
    let mut out = Report::new();
    for plan in plans.values() {
        for msgs in [plan.pre(), plan.post()] {
            for (i, a) in msgs.iter().enumerate() {
                for b in &msgs[i + 1..] {
                    if a.to != b.to || a.from == b.from || a.array != b.array {
                        continue;
                    }
                    if a.region.lo.len() != b.region.lo.len() {
                        continue;
                    }
                    let inter = a.region.intersect(&b.region);
                    if !inter.is_empty() {
                        out.push(Finding::new(
                            "ghost-race",
                            Severity::Error,
                            unit,
                            format!(
                                "processors {} and {} both send `{}`[{:?}..{:?}] to \
                                 processor {} — write-write race on the ghost region",
                                a.from, b.from, a.array, inter.lo, inter.hi, a.to
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Race-check every nest plan of a compiled program.
pub fn check_compiled_races(compiled: &dhpf_core::driver::Compiled) -> Report {
    let mut out = Report::new();
    for (uname, ua) in &compiled.analyses {
        out.extend(check_plan_races(uname, &ua.plans));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_core::comm::{Msg, Region};
    use dhpf_spmd::trace::Event;

    fn ev(t0: f64, t1: f64, kind: EventKind) -> Event {
        Event::new(t0, t1, kind)
    }

    #[test]
    fn matched_traffic_is_clean() {
        let traces = vec![
            Trace {
                rank: 0,
                events: vec![ev(0.0, 1.0, EventKind::Send { to: 1, bytes: 32 })],
            },
            Trace {
                rank: 1,
                events: vec![ev(0.5, 1.5, EventKind::Recv { from: 0, bytes: 32 })],
            },
        ];
        assert!(check_traces(&traces).is_clean());
    }

    #[test]
    fn unmatched_send_is_flagged() {
        let traces = vec![
            Trace {
                rank: 0,
                events: vec![
                    ev(0.0, 1.0, EventKind::Send { to: 1, bytes: 32 }),
                    ev(1.0, 2.0, EventKind::Send { to: 1, bytes: 32 }),
                ],
            },
            Trace {
                rank: 1,
                events: vec![ev(0.5, 1.5, EventKind::Recv { from: 0, bytes: 32 })],
            },
        ];
        let r = check_traces(&traces);
        assert_eq!(r.error_count(), 1, "{}", r.render_human(None));
        assert!(r.findings[0].message.contains("2 send(s) but 1 receive(s)"));
    }

    #[test]
    fn volume_mismatch_is_flagged() {
        let traces = vec![
            Trace {
                rank: 0,
                events: vec![ev(0.0, 1.0, EventKind::Send { to: 1, bytes: 64 })],
            },
            Trace {
                rank: 1,
                events: vec![ev(0.5, 1.5, EventKind::Recv { from: 0, bytes: 32 })],
            },
        ];
        let r = check_traces(&traces);
        assert_eq!(r.error_count(), 1);
        assert!(r.findings[0].message.contains("bytes"));
    }

    #[test]
    fn overlapping_waits_form_a_cycle() {
        let traces = vec![
            Trace {
                rank: 0,
                events: vec![ev(0.0, 2.0, EventKind::RecvWait { from: 1, bytes: 8 })],
            },
            Trace {
                rank: 1,
                events: vec![ev(1.0, 3.0, EventKind::RecvWait { from: 0, bytes: 8 })],
            },
        ];
        let r = check_traces(&traces);
        assert!(
            r.findings.iter().any(|f| f.code == "trace-cyclic-wait"),
            "{}",
            r.render_human(None)
        );
    }

    #[test]
    fn disjoint_waits_are_not_a_cycle() {
        let traces = vec![
            Trace {
                rank: 0,
                events: vec![
                    ev(0.0, 1.0, EventKind::RecvWait { from: 1, bytes: 8 }),
                    ev(1.0, 1.5, EventKind::Send { to: 1, bytes: 8 }),
                ],
            },
            Trace {
                rank: 1,
                events: vec![
                    ev(0.0, 0.5, EventKind::Send { to: 0, bytes: 8 }),
                    ev(2.0, 3.0, EventKind::RecvWait { from: 0, bytes: 8 }),
                ],
            },
        ];
        assert!(check_traces(&traces).is_clean());
    }

    /// A valid overlapped exchange: post, compute, stalled wait.
    fn overlapped_pair() -> Vec<Trace> {
        vec![
            Trace {
                rank: 0,
                events: vec![ev(0.0, 1.0, EventKind::Send { to: 1, bytes: 32 })],
            },
            Trace {
                rank: 1,
                events: vec![
                    ev(0.0, 0.0, EventKind::RecvPost { from: 0, req: 7 }),
                    ev(0.0, 2.0, EventKind::Compute),
                    ev(
                        2.0,
                        3.0,
                        EventKind::WaitStall {
                            from: 0,
                            bytes: 32,
                            req: 7,
                        },
                    ),
                ],
            },
        ]
    }

    #[test]
    fn overlapped_exchange_is_clean() {
        assert!(check_traces(&overlapped_pair()).is_clean());
    }

    #[test]
    fn dropped_wait_is_rejected() {
        // Mutation: drop the Wait for the posted irecv. Both the
        // wait-coverage check and the send/recv matcher must object.
        let mut traces = overlapped_pair();
        traces[1]
            .events
            .retain(|e| !matches!(e.kind, EventKind::WaitStall { .. }));
        let r = check_traces(&traces);
        assert!(
            r.findings.iter().any(|f| f.code == "trace-unwaited-irecv"),
            "{}",
            r.render_human(None)
        );
        assert!(r.findings.iter().any(|f| f.code == "trace-unmatched"));
    }

    #[test]
    fn double_wait_is_rejected() {
        let mut traces = overlapped_pair();
        let dup = traces[1].events.last().unwrap().clone();
        traces[1].events.push(dup);
        let r = check_traces(&traces);
        assert!(
            r.findings.iter().any(|f| f.code == "trace-double-wait"),
            "{}",
            r.render_human(None)
        );
    }

    #[test]
    fn wait_without_post_is_rejected() {
        let mut traces = overlapped_pair();
        traces[1]
            .events
            .retain(|e| !matches!(e.kind, EventKind::RecvPost { .. }));
        let r = check_traces(&traces);
        assert!(
            r.findings.iter().any(|f| f.code == "trace-wait-unposted"),
            "{}",
            r.render_human(None)
        );
    }

    #[test]
    fn overlapping_ghost_writes_race() {
        let mut plans = BTreeMap::new();
        plans.insert(
            dhpf_fortran::ast::StmtId(1),
            NestPlan::Parallel {
                pre: vec![
                    Msg {
                        from: 0,
                        to: 2,
                        array: "u".into(),
                        region: Region {
                            lo: vec![1, 1],
                            hi: vec![4, 2],
                        },
                    },
                    Msg {
                        from: 1,
                        to: 2,
                        array: "u".into(),
                        region: Region {
                            lo: vec![3, 2],
                            hi: vec![6, 3],
                        },
                    },
                ],
                post: vec![],
                overlap: None,
            },
        );
        let r = check_plan_races("t", &plans);
        assert_eq!(r.error_count(), 1, "{}", r.render_human(None));
        assert!(r.findings[0].message.contains("write-write race"));
    }

    #[test]
    fn disjoint_ghost_writes_do_not_race() {
        let mut plans = BTreeMap::new();
        plans.insert(
            dhpf_fortran::ast::StmtId(1),
            NestPlan::Parallel {
                pre: vec![
                    Msg {
                        from: 0,
                        to: 2,
                        array: "u".into(),
                        region: Region {
                            lo: vec![1],
                            hi: vec![2],
                        },
                    },
                    Msg {
                        from: 1,
                        to: 2,
                        array: "u".into(),
                        region: Region {
                            lo: vec![5],
                            hi: vec![6],
                        },
                    },
                ],
                post: vec![],
                overlap: None,
            },
        );
        assert!(check_plan_races("t", &plans).is_clean());
    }
}
