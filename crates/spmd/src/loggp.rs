//! The LogGP cost model, written once.
//!
//! A [`Timeline`] is one rank's virtual time: its clock, the clock its
//! network interface drains at, the compute it is coalescing into one
//! trace event, and the trace itself. It has one method per rule of the
//! model and is the only place a machine-side [`Event`] is built:
//!
//! * **compute** — `clock += dt`;
//! * **send → arrival** — the CPU pays `o_s`; the message is injected
//!   once the interface has drained earlier sends (`G` per byte) and
//!   lands `L` later;
//! * **post** — a nonblocking receive costs nothing where it is posted;
//! * **receive completion** — `max(clock + o_r, arrival)`, the same rule
//!   for a blocking receive and for a wait on a posted one;
//! * **barrier** — every rank leaves at `max(arrival clocks) + L`.
//!
//! Two drivers share it. [`crate::machine::Proc`] wraps a `Timeline` in
//! the threaded transport (mailboxes, barrier rendezvous, poisoning) and
//! feeds it as native closures run. [`replay`] feeds it recorded or
//! rewritten [`Action`] lists on one thread — the profiler's what-if
//! engine. Neither contains cost arithmetic of its own, so the two
//! cannot drift.
//!
//! [`match_messages`] is the one FIFO send→receive matching: [`replay`]
//! uses it to find the send each receive completes, the profiler to draw
//! the cross-rank edges of the event DAG.

use crate::machine::{CommStats, MachineConfig, RunResult};
use crate::trace::{Event, EventKind, Trace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Send rule, network half: a message of `bytes` whose sender finished
/// paying `o_s` at `depart` is injected once the interface is free
/// (`nic_free`, advanced past this message's byte time) and arrives one
/// latency after its last byte left.
pub fn message_arrival(cfg: &MachineConfig, depart: f64, bytes: u64, nic_free: &mut f64) -> f64 {
    let inject = depart.max(*nic_free);
    *nic_free = inject + bytes as f64 * cfg.byte_time;
    *nic_free + cfg.latency
}

/// Receive rule, CPU half: a receiver that starts completing a message
/// at `clock` has paid `o_r` at the returned time; the receive completes
/// at the later of that and the message's arrival.
pub fn recv_ready(cfg: &MachineConfig, clock: f64) -> f64 {
    clock + cfg.recv_overhead
}

/// Barrier rule: every rank leaves one latency after the last arrived.
pub fn barrier_exit(cfg: &MachineConfig, last_arrival: f64) -> f64 {
    last_arrival + cfg.latency
}

/// One rank's virtual time under the model.
pub struct Timeline {
    cfg: MachineConfig,
    clock: f64,
    /// Virtual time the network interface finishes injecting the last
    /// send: back-to-back sends serialize their byte times here even
    /// though the CPU pays only `o_s` per message.
    nic_free: f64,
    /// Compute seconds not yet written as a trace event (the clock
    /// itself is always up to date), and where they started.
    pending_work: f64,
    work_start: f64,
    /// Provenance id stamped onto every event until changed.
    prov: Option<u32>,
    /// Nest whose communication costs nothing ([`replay`] only).
    free: Option<u32>,
    trace: Trace,
}

impl Timeline {
    pub fn new(rank: usize, cfg: &MachineConfig) -> Self {
        Timeline {
            cfg: cfg.clone(),
            clock: 0.0,
            nic_free: 0.0,
            pending_work: 0.0,
            work_start: 0.0,
            prov: None,
            free: None,
            trace: Trace::new(rank),
        }
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.trace.rank
    }

    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    fn emit(&mut self, t0: f64, t1: f64, kind: EventKind, parts: u32) {
        if self.cfg.trace {
            self.trace.push(Event {
                t0,
                t1,
                kind,
                nest: self.prov,
                parts,
            });
        }
    }

    fn flush_work(&mut self) {
        if self.pending_work > 0.0 {
            let (t0, dt) = (self.work_start, self.pending_work);
            self.emit(t0, t0 + dt, EventKind::Compute, 1);
            self.pending_work = 0.0;
        }
    }

    fn in_free_nest(&self) -> bool {
        self.free.is_some() && self.prov == self.free
    }

    /// Compute rule. Consecutive calls coalesce into one trace event.
    /// (Inlined into `Proc::work`, which the interpreter calls once per
    /// executed store.)
    #[inline]
    pub fn compute(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        if self.pending_work == 0.0 {
            self.work_start = self.clock;
        }
        self.pending_work += dt;
        self.clock += dt;
    }

    /// Set the provenance id stamped onto subsequent events (`None`
    /// clears it), closing the coalesced compute done under the old one.
    pub fn set_provenance(&mut self, prov: Option<u32>) {
        if self.prov != prov {
            self.flush_work();
            self.prov = prov;
        }
    }

    /// Zero-width named marker.
    pub fn phase(&mut self, name: &str) {
        self.flush_work();
        if self.cfg.trace {
            self.emit(
                self.clock,
                self.clock,
                EventKind::Phase(name.to_string()),
                1,
            );
        }
    }

    /// Send rule: returns the message's arrival time at `to`.
    pub fn send(&mut self, to: usize, bytes: u64, parts: u32) -> f64 {
        self.flush_work();
        if self.in_free_nest() {
            self.emit(self.clock, self.clock, EventKind::Send { to, bytes }, parts);
            return self.clock;
        }
        let depart = self.clock + self.cfg.send_overhead;
        self.clock = depart;
        self.emit(
            depart - self.cfg.send_overhead,
            depart,
            EventKind::Send { to, bytes },
            parts,
        );
        message_arrival(&self.cfg, depart, bytes, &mut self.nic_free)
    }

    /// Post rule: free in virtual time.
    pub fn post(&mut self, from: usize, req: u64) {
        self.flush_work();
        self.emit(self.clock, self.clock, EventKind::RecvPost { from, req }, 1);
    }

    /// Receive-completion rule, for a blocking receive (`req` is `None`)
    /// and for the wait on posted request `req` alike: compute done
    /// since the post has already advanced the clock, hiding that much
    /// of the flight.
    pub fn complete(
        &mut self,
        from: usize,
        req: Option<u64>,
        arrival: f64,
        bytes: u64,
        parts: u32,
    ) {
        self.flush_work();
        let ready = if self.in_free_nest() {
            self.clock
        } else {
            recv_ready(&self.cfg, self.clock)
        };
        let done = ready.max(arrival);
        let kind = match (req, done > ready) {
            (None, false) => EventKind::Recv { from, bytes },
            (None, true) => EventKind::RecvWait { from, bytes },
            (Some(req), false) => EventKind::Wait { from, bytes, req },
            (Some(req), true) => EventKind::WaitStall { from, bytes, req },
        };
        self.emit(self.clock, done, kind, parts);
        self.clock = done;
    }

    /// Barrier rule, first half: the clock this rank arrives with.
    pub fn barrier_arrive(&mut self) -> f64 {
        self.flush_work();
        self.clock
    }

    /// Barrier rule, second half: leave at [`barrier_exit`] of the
    /// latest arrival.
    pub fn barrier_leave(&mut self, t_exit: f64) {
        if t_exit > self.clock {
            self.emit(self.clock, t_exit, EventKind::Barrier, 1);
            self.clock = t_exit;
        }
    }

    /// Final clock and trace.
    pub fn finish(mut self) -> (f64, Trace) {
        self.flush_work();
        (self.clock, self.trace)
    }
}

/// A malformed schedule or trace: a receive with no send, a wait with no
/// post, a barrier some rank skips, a deadlock.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError(pub String);

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReplayError {}

/// What the matcher needs to know about one step of a rank's sequence;
/// a receive completion carries `bytes` where the step records them.
pub enum Comm {
    Send { to: usize, bytes: u64 },
    Recv { from: usize, bytes: Option<u64> },
    Barrier,
}

/// Cross-rank structure of per-rank step sequences; a step is named
/// `(rank, index)`.
pub struct Matching {
    /// Receive completion → the send it consumes.
    pub recv_to_send: BTreeMap<(usize, usize), (usize, usize)>,
    /// Barrier occurrence `k` → every rank's k-th barrier step.
    pub barriers: Vec<Vec<(usize, usize)>>,
    /// Barrier ordinal of each barrier step.
    pub barrier_ordinal: BTreeMap<(usize, usize), usize>,
}

/// Match sends to receive completions, FIFO per `(src, dst)` pair, and
/// group barriers by per-rank ordinal; `ranks[r]` is rank `r`'s
/// sequence. The machine's mailboxes guarantee less: FIFO per
/// `(source, tag)`, a receive taking the first message with its tag
/// found by scanning its source's queue. Per-pair FIFO agrees with that
/// for the SPMD programs traced here: each communication op issues its
/// sends and its receive completions in the same per-pair order on both
/// sides. Recorded byte counts of a matched pair are cross-checked, so
/// an order violation cannot pass silently.
pub fn match_messages<T>(
    ranks: &[impl AsRef<[T]>],
    comm: impl Fn(&T) -> Option<Comm>,
) -> Result<Matching, ReplayError> {
    // (src, dst) → unmatched sends (step index, bytes), oldest first
    let mut sends: BTreeMap<(usize, usize), VecDeque<(usize, u64)>> = BTreeMap::new();
    for (r, steps) in ranks.iter().enumerate() {
        for (i, s) in steps.as_ref().iter().enumerate() {
            if let Some(Comm::Send { to, bytes }) = comm(s) {
                sends.entry((r, to)).or_default().push_back((i, bytes));
            }
        }
    }
    let mut m = Matching {
        recv_to_send: BTreeMap::new(),
        barriers: Vec::new(),
        barrier_ordinal: BTreeMap::new(),
    };
    for (r, steps) in ranks.iter().enumerate() {
        let mut nbarriers = 0;
        for (i, s) in steps.as_ref().iter().enumerate() {
            match comm(s) {
                Some(Comm::Recv { from, bytes }) => {
                    let q = sends.get_mut(&(from, r)).ok_or_else(|| {
                        ReplayError(format!(
                            "rank {r} receives from rank {from} but no such send exists"
                        ))
                    })?;
                    let (si, sbytes) = q.pop_front().ok_or_else(|| {
                        ReplayError(format!(
                            "rank {r} has more receive completions from rank {from} than sends"
                        ))
                    })?;
                    if bytes.is_some_and(|b| b != sbytes) {
                        return Err(ReplayError(format!(
                            "matched message {from}->{r} carries {sbytes} B on the send \
                             and {} B on the receive: per-pair FIFO order violated",
                            bytes.unwrap_or(0)
                        )));
                    }
                    m.recv_to_send.insert((r, i), (from, si));
                }
                Some(Comm::Barrier) => {
                    if m.barriers.len() <= nbarriers {
                        m.barriers.push(Vec::new());
                    }
                    m.barriers[nbarriers].push((r, i));
                    m.barrier_ordinal.insert((r, i), nbarriers);
                    nbarriers += 1;
                }
                _ => {}
            }
        }
    }
    for (k, group) in m.barriers.iter().enumerate() {
        if group.len() != ranks.len() {
            return Err(ReplayError(format!(
                "barrier {k} joined by {} of {} ranks",
                group.len(),
                ranks.len()
            )));
        }
    }
    Ok(m)
}

/// [`match_messages`] over traces; `traces[r]` must be rank `r`'s.
pub fn match_events(traces: &[Trace]) -> Result<Matching, ReplayError> {
    let events: Vec<&[Event]> = traces.iter().map(|t| &t.events[..]).collect();
    match_messages(&events, |e| match e.kind {
        EventKind::Send { to, bytes } => Some(Comm::Send { to, bytes }),
        EventKind::Barrier => Some(Comm::Barrier),
        _ => e.kind.recv_completion().map(|(from, bytes, _)| Comm::Recv {
            from,
            bytes: Some(bytes),
        }),
    })
}

/// One step of a rank's replayable schedule: what a [`Proc`] call does,
/// without the payload.
///
/// [`Proc`]: crate::machine::Proc
#[derive(Clone, Debug)]
pub struct Action {
    /// Provenance the step runs under.
    pub nest: Option<u32>,
    pub op: Op,
}

/// `Post` posts a nonblocking receive as request `req`. `Complete`
/// completes the next unconsumed message from `from`: a blocking receive,
/// or (`req` given) the wait on that posted request.
#[derive(Clone, Debug)]
pub enum Op {
    Compute { dt: f64 },
    Send { to: usize, bytes: u64, parts: u32 },
    Post { from: usize, req: u64 },
    Complete { from: usize, req: Option<u64> },
    Barrier,
}

/// Run the schedules through the model, deterministically and on the
/// calling thread. `free_nest` names a nest whose communication costs
/// nothing: its sends charge no overhead and arrive instantly, its
/// receive completions charge no receive overhead.
///
/// Ranks run cooperatively round-robin; a rank blocks on a completion
/// whose message has not been sent yet, and on a barrier until every
/// rank has arrived. A full pass with no progress is a deadlock and is
/// reported as an error, never a hang.
pub fn replay(
    ranks: &[Vec<Action>],
    cfg: &MachineConfig,
    free_nest: Option<u32>,
) -> Result<RunResult, ReplayError> {
    let n = ranks.len();
    let matching = match_messages(ranks, |a| match a.op {
        Op::Send { to, bytes, .. } => Some(Comm::Send { to, bytes }),
        Op::Complete { from, .. } => Some(Comm::Recv { from, bytes: None }),
        Op::Barrier => Some(Comm::Barrier),
        _ => None,
    })?;
    let mut timelines: Vec<Timeline> = (0..n)
        .map(|r| Timeline {
            free: free_nest,
            ..Timeline::new(r, cfg)
        })
        .collect();
    let mut pc = vec![0usize; n];
    // arrival time of every send issued so far, by step
    let mut arrivals: Vec<Vec<Option<f64>>> = ranks.iter().map(|a| vec![None; a.len()]).collect();
    let mut posted: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    // per barrier occurrence: ranks arrived, their latest clock
    let mut gathered: Vec<(usize, f64)> = vec![(0, 0.0); matching.barriers.len()];
    let mut in_barrier = vec![false; n];
    let mut stats = CommStats::default();
    loop {
        let mut progressed = false;
        for r in 0..n {
            let tl = &mut timelines[r];
            while let Some(a) = ranks[r].get(pc[r]) {
                tl.set_provenance(a.nest);
                match a.op {
                    Op::Compute { dt } => tl.compute(dt),
                    Op::Send { to, bytes, parts } => {
                        arrivals[r][pc[r]] = Some(tl.send(to, bytes, parts));
                        stats.messages += 1;
                        stats.bytes += bytes;
                    }
                    Op::Post { from, req } => {
                        tl.post(from, req);
                        posted[r].insert(req);
                    }
                    Op::Complete { from, req } => {
                        let (sr, si) = matching.recv_to_send[&(r, pc[r])];
                        let Some(arrival) = arrivals[sr][si] else {
                            break; // the sender has not issued this message yet
                        };
                        let Op::Send { bytes, parts, .. } = ranks[sr][si].op else {
                            unreachable!("matched step is a send");
                        };
                        if let Some(req) = req.filter(|req| !posted[r].remove(req)) {
                            return Err(ReplayError(format!(
                                "rank {r} waits on request {req} that was never posted"
                            )));
                        }
                        tl.complete(from, req, arrival, bytes, parts);
                    }
                    Op::Barrier => {
                        let k = matching.barrier_ordinal[&(r, pc[r])];
                        if !in_barrier[r] {
                            in_barrier[r] = true;
                            progressed = true;
                            gathered[k].0 += 1;
                            gathered[k].1 = gathered[k].1.max(tl.barrier_arrive());
                        }
                        if gathered[k].0 < n {
                            break; // not everyone is here yet
                        }
                        in_barrier[r] = false;
                        tl.barrier_leave(barrier_exit(cfg, gathered[k].1));
                    }
                }
                pc[r] += 1;
                progressed = true;
            }
        }
        if (0..n).all(|r| pc[r] == ranks[r].len()) {
            break;
        }
        if !progressed {
            let stuck: Vec<String> = (0..n)
                .filter(|&r| pc[r] < ranks[r].len())
                .map(|r| format!("rank {r} at action {} ({:?})", pc[r], ranks[r][pc[r]]))
                .collect();
            return Err(ReplayError(format!(
                "replay deadlocked: {}",
                stuck.join("; ")
            )));
        }
    }
    let (proc_times, traces): (Vec<f64>, Vec<Trace>) =
        timelines.into_iter().map(Timeline::finish).unzip();
    Ok(RunResult {
        virtual_time: proc_times.iter().cloned().fold(0.0, f64::max),
        proc_times,
        traces,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn act(nest: Option<u32>, op: Op) -> Action {
        Action { nest, op }
    }

    /// rank 0: compute 5, send; rank 1: recv, compute 5.
    fn ping() -> Vec<Vec<Action>> {
        let send = Op::Send {
            to: 1,
            bytes: 8,
            parts: 1,
        };
        let recv = Op::Complete { from: 0, req: None };
        vec![
            vec![act(None, Op::Compute { dt: 5.0 }), act(Some(3), send)],
            vec![act(Some(3), recv), act(None, Op::Compute { dt: 5.0 })],
        ]
    }

    #[test]
    fn loggp_costs_match_hand_computation() {
        let r = replay(&ping(), &cfg(), None).unwrap();
        // send departs at 6, arrives at 16; recv completes at max(0+1,16)
        assert_eq!(r.proc_times, vec![6.0, 21.0]);
        assert_eq!(r.virtual_time, 21.0);
        assert_eq!(
            r.stats,
            CommStats {
                messages: 1,
                bytes: 8
            }
        );
        // and it traces what the machine would: the receive stalled
        let stall = &r.traces[1].events[0];
        assert_eq!(stall.kind, EventKind::RecvWait { from: 0, bytes: 8 });
        assert_eq!((stall.t0, stall.t1, stall.nest), (0.0, 16.0, Some(3)));
    }

    #[test]
    fn gap_serializes_back_to_back_sends_at_the_interface() {
        // 1 s per f64: the second message waits for the first's byte
        // time. departs 1, 2; injected 1, 2 → the first drains until 2,
        // so the second is injected at 2, drains until 3, arrives at 13
        let c = MachineConfig {
            byte_time: 0.125,
            ..cfg()
        };
        let mut nic_free = 0.0;
        assert_eq!(message_arrival(&c, 1.0, 8, &mut nic_free), 12.0);
        assert_eq!(message_arrival(&c, 1.5, 8, &mut nic_free), 13.0);
        assert_eq!(nic_free, 3.0);
    }

    #[test]
    fn free_nest_removes_all_communication_cost() {
        let r = replay(&ping(), &cfg(), Some(3)).unwrap();
        // send is instantaneous, arrival = 5; recv completes at max(0, 5)
        assert_eq!(r.proc_times, vec![5.0, 10.0]);
    }

    #[test]
    fn posted_receive_hides_flight_under_compute() {
        // rank 1 posts, computes 5, waits at clock 5:
        // completes max(5+1, 16) = 16 instead of 16+5 = 21
        let mut ranks = ping();
        ranks[1] = vec![
            act(Some(3), Op::Post { from: 0, req: 0 }),
            act(None, Op::Compute { dt: 5.0 }),
            act(
                Some(3),
                Op::Complete {
                    from: 0,
                    req: Some(0),
                },
            ),
        ];
        let r = replay(&ranks, &cfg(), None).unwrap();
        assert_eq!(r.virtual_time, 16.0);
        let kinds: Vec<&EventKind> = r.traces[1].events.iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], EventKind::RecvPost { from: 0, req: 0 }));
        assert!(matches!(kinds[2], EventKind::WaitStall { req: 0, .. }));
    }

    #[test]
    fn deadlock_is_an_error_not_a_hang() {
        // both ranks receive before they send: neither send is reached
        let recv_then_send = |peer: usize| {
            vec![
                act(
                    None,
                    Op::Complete {
                        from: peer,
                        req: None,
                    },
                ),
                act(
                    None,
                    Op::Send {
                        to: peer,
                        bytes: 8,
                        parts: 1,
                    },
                ),
            ]
        };
        let err = replay(&[recv_then_send(1), recv_then_send(0)], &cfg(), None).unwrap_err();
        assert!(err.0.contains("deadlock"), "got: {}", err.0);
    }

    #[test]
    fn receive_without_a_send_and_skipped_barrier_are_errors() {
        let recv = act(None, Op::Complete { from: 1, req: None });
        let err = replay(&[vec![recv], vec![]], &cfg(), None).unwrap_err();
        assert!(err.0.contains("no such send"), "got: {}", err.0);
        let err = replay(&[vec![act(None, Op::Barrier)], vec![]], &cfg(), None).unwrap_err();
        assert!(err.0.contains("joined by 1 of 2"), "got: {}", err.0);
    }

    #[test]
    fn wait_before_post_is_an_error() {
        let mut ranks = ping();
        ranks[1][0].op = Op::Complete {
            from: 0,
            req: Some(7),
        };
        let err = replay(&ranks, &cfg(), None).unwrap_err();
        assert!(err.0.contains("never posted"), "got: {}", err.0);
    }
}
