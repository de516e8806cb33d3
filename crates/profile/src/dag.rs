//! The cross-rank event DAG: the critical path and per-message slack.
//!
//! Edges of the DAG are implicit in the traces: program order within a
//! rank (per-rank timelines are contiguous in virtual time — every event
//! starts where its predecessor ended), one cross-rank edge per message
//! from the send's completion to the matching receive's completion, and
//! one join edge per barrier from the last-arriving rank to every exit.
//! The cross-rank edges are [`dhpf_spmd::loggp::match_events`]'s — the
//! same FIFO matching the what-if replay runs on.

use dhpf_spmd::loggp::{self, Matching};
use dhpf_spmd::machine::MachineConfig;
use dhpf_spmd::trace::{EventKind, Trace};
use std::collections::BTreeMap;

/// Classification of one critical-path segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegClass {
    Compute,
    SendOverhead,
    RecvOverhead,
    /// Message flight time the receiver could not hide.
    Network,
    Barrier,
    /// Defensive: a gap in a rank timeline (never produced by the
    /// simulator, but kept so a malformed trace cannot break the
    /// sum-to-makespan invariant).
    Idle,
}

impl SegClass {
    pub fn name(self) -> &'static str {
        match self {
            SegClass::Compute => "compute",
            SegClass::SendOverhead => "send-overhead",
            SegClass::RecvOverhead => "recv-overhead",
            SegClass::Network => "network",
            SegClass::Barrier => "barrier",
            SegClass::Idle => "idle",
        }
    }
}

/// One contiguous segment of the critical path. Segments tile
/// `[0, makespan]` exactly: each begins where the previous ends.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Rank the time is spent on (for `Network`, the receiving rank).
    pub rank: usize,
    pub t0: f64,
    pub t1: f64,
    pub class: SegClass,
    pub nest: Option<u32>,
}

impl Segment {
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Walk the DAG backward from the makespan event, at every step
/// following the *binding* predecessor: the sender for an arrival-bound
/// receive, the last-arriving rank for a barrier, the same rank's
/// previous event otherwise. Returns segments in increasing time order.
pub fn critical_path(traces: &[Trace], m: &Matching) -> Vec<Segment> {
    let makespan = traces.iter().map(|t| t.end()).fold(0.0f64, f64::max);
    if makespan <= 0.0 {
        return Vec::new();
    }
    // start on the (lowest) rank that realizes the makespan, at its last
    // non-zero-width event
    let Some(start_rank) = traces.iter().find(|t| t.end() >= makespan).map(|t| t.rank) else {
        return Vec::new();
    };
    let mut r = start_rank;
    let mut i = match last_wide(traces, r, traces[r].events.len()) {
        Some(i) => i,
        None => return Vec::new(),
    };
    let mut segs: Vec<Segment> = Vec::new();
    loop {
        let e = &traces[r].events[i];
        if e.kind.is_stall() {
            if let Some(&(sr, si)) = m.recv_to_send.get(&(r, i)) {
                let s = &traces[sr].events[si];
                // arrival-bound: the flight from the send's completion
                // covers the rest of this interval
                push(
                    &mut segs,
                    Segment {
                        rank: r,
                        t0: s.t1,
                        t1: e.t1,
                        class: SegClass::Network,
                        nest: e.nest.or(s.nest),
                    },
                );
                r = sr;
                i = si;
                continue; // the send event itself is handled next round
            }
        }
        let class = match &e.kind {
            EventKind::Compute => SegClass::Compute,
            EventKind::Send { .. } => SegClass::SendOverhead,
            EventKind::Recv { .. } | EventKind::Wait { .. } => SegClass::RecvOverhead,
            // unmatched stall (no send found): keep it local
            EventKind::RecvWait { .. } | EventKind::WaitStall { .. } => SegClass::Network,
            EventKind::Barrier => {
                // jump to the last arriver; its barrier event starts at
                // the gather max that determined everyone's exit
                if let Some(&k) = m.barrier_ordinal.get(&(r, i)) {
                    let (lr, li) = m.barriers[k]
                        .iter()
                        .copied()
                        .max_by(|a, b| {
                            let (ta, tb) = (traces[a.0].events[a.1].t0, traces[b.0].events[b.1].t0);
                            ta.partial_cmp(&tb)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                // ties: prefer the lowest rank, deterministically
                                .then(b.0.cmp(&a.0))
                        })
                        .expect("barrier group non-empty");
                    let last = &traces[lr].events[li];
                    push(
                        &mut segs,
                        Segment {
                            rank: lr,
                            t0: last.t0,
                            t1: e.t1,
                            class: SegClass::Barrier,
                            nest: e.nest,
                        },
                    );
                    r = lr;
                    i = li;
                    match prev_wide(traces, r, i) {
                        Some(p) => {
                            i = p;
                            continue;
                        }
                        None => break,
                    }
                }
                SegClass::Barrier
            }
            EventKind::RecvPost { .. } | EventKind::Phase(_) => {
                // zero-width bookkeeping: step over it
                match prev_wide(traces, r, i) {
                    Some(p) => {
                        i = p;
                        continue;
                    }
                    None => break,
                }
            }
        };
        push(
            &mut segs,
            Segment {
                rank: r,
                t0: e.t0,
                t1: e.t1,
                class,
                nest: e.nest,
            },
        );
        match prev_wide(traces, r, i) {
            Some(p) => i = p,
            None => break,
        }
    }
    // defensive: tile any residual gaps (malformed traces only) so the
    // sum-to-makespan invariant holds unconditionally
    segs.reverse();
    let mut tiled: Vec<Segment> = Vec::new();
    let mut t = 0.0f64;
    for s in segs {
        if s.t0 > t + 1e-15 {
            tiled.push(Segment {
                rank: s.rank,
                t0: t,
                t1: s.t0,
                class: SegClass::Idle,
                nest: None,
            });
        }
        t = s.t1;
        tiled.push(s);
    }
    if makespan > t + 1e-15 {
        tiled.push(Segment {
            rank: start_rank,
            t0: t,
            t1: makespan,
            class: SegClass::Idle,
            nest: None,
        });
    }
    tiled
}

fn push(segs: &mut Vec<Segment>, s: Segment) {
    if s.t1 > s.t0 {
        segs.push(s);
    }
}

/// Index of the last event before `end` (exclusive) with nonzero width,
/// on `rank`.
fn last_wide(traces: &[Trace], rank: usize, end: usize) -> Option<usize> {
    traces[rank].events[..end].iter().rposition(|e| e.t1 > e.t0)
}

fn prev_wide(traces: &[Trace], rank: usize, i: usize) -> Option<usize> {
    last_wide(traces, rank, i)
}

/// Per-message slack: how much later the message could have arrived
/// without delaying its receiver (`ready - arrival`; negative = the
/// receiver stalled by that much).
pub struct MessageSlack {
    pub nest: Option<u32>,
    pub slack: f64,
}

pub fn message_slack(traces: &[Trace], m: &Matching, cfg: &MachineConfig) -> Vec<MessageSlack> {
    // Re-run each sender's sends through the model's send rule: a
    // message's arrival depends on the sends departed before it.
    let mut arrival_of: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for tr in traces {
        let mut nic_free = 0.0f64;
        for (i, e) in tr.events.iter().enumerate() {
            if let EventKind::Send { bytes, .. } = e.kind {
                let arrival = loggp::message_arrival(cfg, e.t1, bytes, &mut nic_free);
                arrival_of.insert((tr.rank, i), arrival);
            }
        }
    }
    (m.recv_to_send.iter())
        .map(|(&(dr, di), &(sr, si))| {
            let (e, s) = (&traces[dr].events[di], &traces[sr].events[si]);
            MessageSlack {
                nest: e.nest.or(s.nest),
                slack: loggp::recv_ready(cfg, e.t0) - arrival_of[&(sr, si)],
            }
        })
        .collect()
}
