//! Consistency checks over `spmd::trace` event logs and communication
//! plans: unmatched send/recv pairs, write–write races on ghost regions,
//! and wait coverage of nonblocking receives (every posted `irecv` waited exactly once — an
//! un-waited request means the program read a ghost buffer that was
//! never known to be filled).

use crate::diag::{Finding, Report, Severity};
use dhpf_core::comm::NestPlan;
use dhpf_core::transfer::segments;
use dhpf_spmd::trace::{EventKind, Trace};
use std::collections::BTreeMap;

/// Check a run's per-rank traces. `traces[i]` must be rank `i`'s log
/// (as `RunResult::traces` delivers them).
pub fn check_traces(traces: &[Trace]) -> Report {
    let mut out = Report::new();
    check_matched_messages(traces, &mut out);
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
        for phase in [plan.pre(), plan.post()] {
            let msgs: Vec<_> = segments(phase).collect();
            for (i, (a_from, a_to, a)) in msgs.iter().enumerate() {
                for (b_from, b_to, b) in &msgs[i + 1..] {
                    if a_to != b_to || a_from == b_from || a.arr != b.arr {
                        continue;
                    }
                    if a.lo.len() != b.lo.len() {
                        continue;
                    }
                    let inter = a.region().intersect(&b.region());
                    if !inter.is_empty() {
                        out.push(Finding::new(
                            "ghost-race",
                            Severity::Error,
                            unit,
                            format!(
                                "processors {} and {} both send `{}`[{:?}..{:?}] to \
                                 processor {} — write-write race on the ghost region",
                                a_from, b_from, a.arr, inter.lo, inter.hi, a_to
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
    use dhpf_core::transfer::{pack_per_peer, Region, Seg};
    use dhpf_fortran::ast::StmtId;
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

    /// A one-nest plan whose pre-exchange sends `u[lo..hi]` from each
    /// `(sender, lo, hi)` to processor 2.
    fn plan_sending_u(sections: [(usize, &[i64], &[i64]); 2]) -> BTreeMap<StmtId, NestPlan> {
        let flat = sections.map(|(from, lo, hi)| {
            let region = Region {
                lo: lo.to_vec(),
                hi: hi.to_vec(),
            };
            (from, 2, Seg::new("u".to_string(), region))
        });
        let plan = NestPlan::Parallel {
            pre: pack_per_peer(flat.to_vec(), true),
            post: vec![],
            overlap: None,
        };
        BTreeMap::from([(StmtId(1), plan)])
    }

    #[test]
    fn overlapping_ghost_writes_race() {
        let plans = plan_sending_u([(0, &[1, 1], &[4, 2]), (1, &[3, 2], &[6, 3])]);
        let r = check_plan_races("t", &plans);
        assert_eq!(r.error_count(), 1, "{}", r.render_human(None));
        assert!(r.findings[0].message.contains("write-write race"));
    }

    #[test]
    fn disjoint_ghost_writes_do_not_race() {
        let plans = plan_sending_u([(0, &[1], &[2]), (1, &[5], &[6])]);
        assert!(check_plan_races("t", &plans).is_clean());
    }
}
