//! The virtual machine: one host thread per rank around a LogGP
//! [`Timeline`].
//!
//! All virtual time lives in [`crate::loggp`]; this module is the
//! transport that lets native closures block inside a receive:
//! mailboxes carrying `(arrival, payload)`, the barrier rendezvous, and
//! failure propagation. A mailbox holds only the messages in flight to
//! its rank, one FIFO per source, and a sender wakes the receiver only
//! when it is parked. Point-to-point communication comes in two
//! flavors:
//!
//! * blocking [`Proc::send`]/[`Proc::recv`] — the receive completes at
//!   the call site, so any latency not already hidden by earlier compute
//!   shows up as a stall there;
//! * nonblocking [`Proc::irecv`] returning a request handle consumed by
//!   [`Proc::wait`]/[`Proc::wait_all`] — the post is free in virtual
//!   time (LogGP charges the receiver only `o_r`, paid at the wait), so
//!   `work()` issued between the post and the wait overlaps the message
//!   flight time. A receive that would have stalled for `s` seconds
//!   under the blocking call hides `min(interior work, s)` of that stall
//!   when the work is moved before the wait. (Sends never block: LogGP
//!   charges the sender its whole cost, `o_s`, where it sends.)
//!
//! The machine is also failure-safe: a panic in any rank poisons every
//! mailbox and the barrier, waking blocked peers so [`Machine::run`]
//! terminates in bounded time and re-raises the original panic payload
//! instead of hanging in `thread::scope`.

use crate::loggp::{barrier_exit, Timeline};
use crate::trace::Trace;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Panic payload used to tear down ranks blocked on a poisoned machine.
/// Never surfaced to the caller: [`Machine::run`] re-raises the
/// *originating* rank's payload and discards these.
struct PeerPanic;

/// Whether `payload` is the panic a rank unwinds with when the machine
/// tears it down after another rank panicked: never the cause of a
/// failed run, so a panic hook may keep quiet about it.
pub fn is_teardown(payload: &(dyn Any + Send)) -> bool {
    payload.is::<PeerPanic>()
}

/// Lock a mutex, ignoring std's poison flag: a rank unwinding out of a
/// wait loop leaves the guard mid-drop, but never with the queues or
/// barrier bookkeeping in an inconsistent state.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Machine cost model and size. Defaults approximate the paper's IBM SP2
/// (120 MHz P2SC nodes, user-space MPI): ~60 Mflop/s sustained per node,
/// ~40 µs one-way latency, ~35 MB/s bandwidth, small CPU overheads.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    pub nprocs: usize,
    /// Seconds of virtual time per floating-point operation.
    pub seconds_per_flop: f64,
    /// One-way network latency (α), seconds.
    pub latency: f64,
    /// Seconds per payload byte (β = 1/bandwidth).
    pub byte_time: f64,
    /// CPU overhead charged to the sender per message.
    pub send_overhead: f64,
    /// CPU overhead charged to the receiver per message.
    pub recv_overhead: f64,
    /// Record per-processor event traces.
    pub trace: bool,
}

impl MachineConfig {
    /// SP2-like defaults for `nprocs` processors.
    pub fn sp2(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            seconds_per_flop: 1.0 / 60.0e6,
            latency: 40.0e-6,
            byte_time: 1.0 / 35.0e6,
            send_overhead: 8.0e-6,
            recv_overhead: 8.0e-6,
            trace: false,
        }
    }

    /// Enable tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// A message in flight.
struct Msg {
    /// Virtual arrival time, from the sender's timeline.
    arrival: f64,
    data: Vec<f64>,
    /// Logical array sections packed into the payload (see
    /// [`Proc::send_parts`]); stamped onto receive-side trace events.
    parts: u32,
}

/// One processor's mailbox. Only its owner receives from it, so only
/// its owner ever waits on `signal`.
struct Mailbox {
    inbox: Mutex<Inbox>,
    signal: Condvar,
}

struct Inbox {
    /// `from[s]`: the messages from rank `s` not yet received, oldest
    /// first, with their tags. A receive takes the first one with its
    /// tag, which is FIFO per `(source, tag)`; a delivered message
    /// leaves nothing behind.
    from: Vec<VecDeque<(u64, Msg)>>,
    /// The owner is blocked on `signal`; a sender notifies only then.
    parked: bool,
}

impl Mailbox {
    fn new(nprocs: usize) -> Self {
        Mailbox {
            inbox: Mutex::new(Inbox {
                from: (0..nprocs).map(|_| VecDeque::new()).collect(),
                parked: false,
            }),
            signal: Condvar::new(),
        }
    }
}

/// Barrier state for virtual-time barriers.
struct BarrierState {
    mutex: Mutex<BarrierInner>,
    cv: Condvar,
}

struct BarrierInner {
    arrived: usize,
    generation: u64,
    /// Max clock gathered for the in-progress barrier round.
    gather_max: f64,
    /// Exit times double-buffered by generation parity: a waiter can lag
    /// at most one generation behind (it must arrive before the next
    /// round can complete), so two slots suffice.
    exit_times: [f64; 2],
}

/// Shared machine state.
struct Shared {
    mailboxes: Vec<Mailbox>,
    barrier: BarrierState,
    msg_count: AtomicU64,
    byte_count: AtomicU64,
    /// Set when any rank panics; checked by every blocking wait loop.
    poisoned: AtomicBool,
}

impl Shared {
    /// Mark the machine dead and wake every blocked peer. Waiters check
    /// the flag under the same lock the notification is sent under, so
    /// no wakeup can be lost.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for mailbox in &self.mailboxes {
            let _guard = lock_ignore_poison(&mailbox.inbox);
            mailbox.signal.notify_all();
        }
        let _guard = lock_ignore_poison(&self.barrier.mutex);
        self.barrier.cv.notify_all();
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }
}

/// Aggregate communication statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    pub messages: u64,
    pub bytes: u64,
}

/// Result of a machine run.
#[derive(Debug)]
pub struct RunResult {
    /// Completion time: the maximum final virtual clock over processors.
    pub virtual_time: f64,
    /// Final clock of each processor.
    pub proc_times: Vec<f64>,
    /// Per-processor traces (empty unless tracing was enabled).
    pub traces: Vec<Trace>,
    pub stats: CommStats,
}

/// The virtual machine. Construct a config and call [`Machine::run`].
pub struct Machine;

impl Machine {
    /// Run `body` as an SPMD program: one invocation per processor, each
    /// on its own host thread with its own [`Proc`] handle. If any rank
    /// panics, the machine is poisoned (blocked peers are woken), the
    /// run terminates in bounded time, and the originating rank's panic
    /// payload is re-raised here.
    pub fn run<F>(config: MachineConfig, body: F) -> RunResult
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        assert!(config.nprocs >= 1, "machine needs at least one processor");
        let shared = Arc::new(Shared {
            mailboxes: (0..config.nprocs)
                .map(|_| Mailbox::new(config.nprocs))
                .collect(),
            barrier: BarrierState {
                mutex: Mutex::new(BarrierInner {
                    arrived: 0,
                    generation: 0,
                    gather_max: 0.0,
                    exit_times: [0.0; 2],
                }),
                cv: Condvar::new(),
            },
            msg_count: AtomicU64::new(0),
            byte_count: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        });

        type RankOutcome = Result<(f64, Trace), Box<dyn Any + Send>>;
        let outcomes: Vec<RankOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.nprocs)
                .map(|rank| {
                    let shared = Arc::clone(&shared);
                    let (body, config) = (&body, &config);
                    scope.spawn(move || {
                        let mut proc = Proc {
                            tl: Timeline::new(rank, config),
                            shared: Arc::clone(&shared),
                            next_req: 0,
                        };
                        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut proc)));
                        match outcome {
                            Ok(()) => Ok(proc.tl.finish()),
                            Err(payload) => {
                                shared.poison();
                                Err(payload)
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(Err))
                .collect()
        });

        let mut results: Vec<(f64, Trace)> = Vec::with_capacity(outcomes.len());
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        let mut any_failed = false;
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(payload) => {
                    any_failed = true;
                    // Keep the lowest-rank *originating* payload; drop
                    // the PeerPanic sentinels of torn-down bystanders.
                    if first_panic.is_none() && !payload.is::<PeerPanic>() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        assert!(
            !any_failed,
            "machine poisoned but no originating rank panic recorded"
        );

        let proc_times: Vec<f64> = results.iter().map(|(t, _)| *t).collect();
        let traces: Vec<Trace> = results.into_iter().map(|(_, tr)| tr).collect();
        RunResult {
            virtual_time: proc_times.iter().cloned().fold(0.0, f64::max),
            proc_times,
            traces,
            stats: CommStats {
                messages: shared.msg_count.load(Ordering::Relaxed),
                bytes: shared.byte_count.load(Ordering::Relaxed),
            },
        }
    }
}

/// Handle for a posted nonblocking receive ([`Proc::irecv`]). Consume it
/// with [`Proc::wait`] or [`Proc::wait_all`]; the move semantics make a
/// double wait unrepresentable, and dropping one unwaited is flagged by
/// both the `#[must_use]` lint and the trace verifier's wait-coverage
/// check.
#[must_use = "an unwaited irecv never completes; pass the request to wait()/wait_all()"]
#[derive(Debug)]
pub struct RecvReq {
    from: usize,
    tag: u64,
    /// Rank-local request id, for trace attribution.
    req: u64,
}

impl RecvReq {
    /// Source rank this request was posted against.
    pub fn source(&self) -> usize {
        self.from
    }

    /// Rank-local request id (matches the trace's `RecvPost`/`Wait`).
    pub fn id(&self) -> u64 {
        self.req
    }
}

/// Handle given to each simulated processor.
pub struct Proc {
    /// This rank's virtual time; every cost rule is a call on it.
    tl: Timeline,
    shared: Arc<Shared>,
    /// Next rank-local nonblocking request id.
    next_req: u64,
}

impl Proc {
    /// This processor's rank (0-based).
    pub fn rank(&self) -> usize {
        self.tl.rank()
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Current virtual clock (seconds).
    pub fn clock(&self) -> f64 {
        self.tl.clock()
    }

    /// The machine config (cost model constants).
    pub fn config(&self) -> &MachineConfig {
        self.tl.config()
    }

    /// Advance the clock by `flops` floating-point operations of work.
    pub fn work(&mut self, flops: f64) {
        let dt = flops * self.tl.config().seconds_per_flop;
        self.tl.compute(dt);
    }

    /// Advance the clock by raw seconds of local computation.
    pub fn work_seconds(&mut self, dt: f64) {
        self.tl.compute(dt);
    }

    /// Set the provenance id stamped onto subsequently traced events
    /// (`None` clears it).
    pub fn set_provenance(&mut self, prov: Option<u32>) {
        self.tl.set_provenance(prov);
    }

    /// Record a named phase marker (for space-time diagram annotation).
    pub fn phase(&mut self, name: &str) {
        self.tl.phase(name);
    }

    /// Send `data` to processor `to` with a message tag. Non-blocking:
    /// the sender pays only its CPU send overhead.
    pub fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        self.send_parts(to, tag, data, 1);
    }

    /// Like [`Proc::send`], annotating the message as carrying `parts`
    /// logical array sections packed back-to-back (per-peer
    /// aggregation). Identical in virtual time — one physical message,
    /// one `o_s`, one latency — the annotation only flows into trace
    /// events so diagrams and checkers can tell an aggregated transfer
    /// from a plain one.
    pub fn send_parts(&mut self, to: usize, tag: u64, data: Vec<f64>, parts: u32) {
        assert!(to < self.nprocs(), "send to rank {to} out of range");
        assert_ne!(to, self.rank(), "self-send not supported (use local copy)");
        let bytes = (data.len() * 8) as u64;
        let arrival = self.tl.send(to, bytes, parts);
        self.shared.msg_count.fetch_add(1, Ordering::Relaxed);
        self.shared.byte_count.fetch_add(bytes, Ordering::Relaxed);
        let msg = Msg {
            arrival,
            data,
            parts,
        };
        let mailbox = &self.shared.mailboxes[to];
        let mut inbox = lock_ignore_poison(&mailbox.inbox);
        inbox.from[self.rank()].push_back((tag, msg));
        let parked = inbox.parked;
        drop(inbox);
        if parked {
            mailbox.signal.notify_one();
        }
    }

    /// Block (in host time) until a message from `(from, tag)` is in the
    /// local mailbox, then dequeue it. After the first miss the thread
    /// yields once, so a sender about to deliver can do so without a
    /// park and a wake-up; after that it parks until a send or the
    /// poisoning wakes it. Unwinds with [`PeerPanic`] if the machine is
    /// poisoned while waiting.
    fn take_msg(&self, from: usize, tag: u64) -> Msg {
        let mailbox = &self.shared.mailboxes[self.rank()];
        let mut inbox = lock_ignore_poison(&mailbox.inbox);
        let mut yielded = false;
        loop {
            if self.shared.is_poisoned() {
                std::panic::panic_any(PeerPanic);
            }
            let queue = &mut inbox.from[from];
            if let Some(i) = queue.iter().position(|(t, _)| *t == tag) {
                return queue.remove(i).expect("position is in range").1;
            }
            if !yielded {
                yielded = true;
                drop(inbox);
                std::thread::yield_now();
                inbox = lock_ignore_poison(&mailbox.inbox);
                continue;
            }
            inbox.parked = true;
            inbox = mailbox
                .signal
                .wait(inbox)
                .unwrap_or_else(|e| e.into_inner());
            inbox.parked = false;
        }
    }

    /// Messages waiting in this rank's mailbox, and the queue slots it
    /// holds for them.
    #[cfg(test)]
    fn inbox_held(&self) -> (usize, usize) {
        let inbox = lock_ignore_poison(&self.shared.mailboxes[self.rank()].inbox);
        let entries = inbox.from.iter().map(VecDeque::len).sum();
        let slots = inbox.from.iter().map(VecDeque::capacity).sum();
        (entries, slots)
    }

    /// Dequeue the next message from `(from, tag)` and complete it on
    /// the timeline — as a blocking receive, or as the wait on `req`.
    fn complete(&mut self, from: usize, tag: u64, req: Option<u64>) -> Vec<f64> {
        let msg = self.take_msg(from, tag);
        let bytes = (msg.data.len() * 8) as u64;
        self.tl.complete(from, req, msg.arrival, bytes, msg.parts);
        msg.data
    }

    /// Receive the next message from `from` with `tag`. Blocks (in host
    /// time) until available; in virtual time the receive completes at
    /// `max(clock + o_r, arrival)`.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        assert!(from < self.nprocs(), "recv from rank {from} out of range");
        self.complete(from, tag, None)
    }

    /// Exchange with a neighbor: send then receive (deadlock-free because
    /// sends never block).
    pub fn sendrecv(&mut self, to: usize, from: usize, tag: u64, data: Vec<f64>) -> Vec<f64> {
        self.send(to, tag, data);
        self.recv(from, tag)
    }

    /// Post a nonblocking receive for the next message from
    /// `(from, tag)`. Free in virtual time — the receiver's `o_r` is
    /// charged by the matching [`Proc::wait`] — so compute issued
    /// between the post and the wait overlaps the message's flight.
    ///
    /// Requests against the same `(from, tag)` pair match messages in
    /// FIFO order of their waits; waiting requests in posted order
    /// preserves the blocking `recv` semantics exactly.
    pub fn irecv(&mut self, from: usize, tag: u64) -> RecvReq {
        assert!(from < self.nprocs(), "irecv from rank {from} out of range");
        let req = self.next_req;
        self.next_req += 1;
        self.tl.post(from, req);
        RecvReq { from, tag, req }
    }

    /// Complete a posted receive, consuming the request. Blocks (in host
    /// time) until the message is available; in virtual time completes
    /// at `max(clock + o_r, arrival)` — any compute done since the
    /// [`Proc::irecv`] post has already advanced `clock`, hiding that
    /// much of the flight time.
    pub fn wait(&mut self, req: RecvReq) -> Vec<f64> {
        self.complete(req.from, req.tag, Some(req.req))
    }

    /// Complete a batch of posted receives in posted order, returning
    /// their payloads in the same order.
    pub fn wait_all(&mut self, reqs: Vec<RecvReq>) -> Vec<Vec<f64>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Virtual-time barrier: all processors synchronize their clocks to
    /// the maximum plus one latency.
    pub fn barrier(&mut self) {
        let arrived_at = self.tl.barrier_arrive();
        let bar = &self.shared.barrier;
        let n = self.nprocs();
        let mut inner = lock_ignore_poison(&bar.mutex);
        let my_gen = inner.generation;
        inner.gather_max = inner.gather_max.max(arrived_at);
        inner.arrived += 1;
        if inner.arrived == n {
            inner.exit_times[(my_gen % 2) as usize] =
                barrier_exit(self.tl.config(), inner.gather_max);
            inner.arrived = 0;
            inner.generation += 1;
            inner.gather_max = 0.0;
            bar.cv.notify_all();
        } else {
            while inner.generation == my_gen {
                if self.shared.is_poisoned() {
                    std::panic::panic_any(PeerPanic);
                }
                inner = bar.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
            }
        }
        let t_exit = inner.exit_times[(my_gen % 2) as usize];
        drop(inner);
        self.tl.barrier_leave(t_exit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn cfg(n: usize) -> MachineConfig {
        MachineConfig {
            nprocs: n,
            seconds_per_flop: 1.0,
            latency: 10.0,
            byte_time: 0.125, // 1 second per f64
            send_overhead: 1.0,
            recv_overhead: 1.0,
            trace: true,
        }
    }

    #[test]
    fn work_advances_clock() {
        let r = Machine::run(cfg(1), |p| {
            p.work(5.0);
            assert_eq!(p.clock(), 5.0);
        });
        assert_eq!(r.virtual_time, 5.0);
    }

    #[test]
    fn message_timing_is_logp() {
        // rank0 sends 1 f64 at t=0: depart=1 (o_s), arrival=1+10+1=12.
        // rank1 computes 3, then recv: ready=3+1=4 < 12 → clock=12.
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 7, vec![42.0]);
                assert_eq!(p.clock(), 1.0);
            } else {
                p.work(3.0);
                let d = p.recv(0, 7);
                assert_eq!(d, vec![42.0]);
                assert_eq!(p.clock(), 12.0);
            }
        });
        assert_eq!(r.virtual_time, 12.0);
        assert_eq!(r.stats.messages, 1);
        assert_eq!(r.stats.bytes, 8);
    }

    #[test]
    fn late_receiver_pays_no_wait() {
        // receiver busy until t=100 ≥ arrival → completes at 101 (o_r).
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 0, vec![1.0]);
            } else {
                p.work(100.0);
                p.recv(0, 0);
                assert_eq!(p.clock(), 101.0);
            }
        });
        assert_eq!(r.virtual_time, 101.0);
    }

    #[test]
    fn fifo_per_source_tag() {
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 0, vec![1.0]);
                p.send(1, 0, vec![2.0]);
                p.send(1, 9, vec![3.0]);
            } else {
                // tag 9 can be received before earlier tag-0 messages
                assert_eq!(p.recv(0, 9), vec![3.0]);
                assert_eq!(p.recv(0, 0), vec![1.0]);
                assert_eq!(p.recv(0, 0), vec![2.0]);
            }
        });
        assert_eq!(r.stats.messages, 3);

        // one source, four tags interleaved, received in another order
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                for (tag, x) in [(3, 1.0), (1, 2.0), (2, 3.0), (1, 4.0), (3, 5.0), (0, 6.0)] {
                    p.send(1, tag, vec![x]);
                }
            } else {
                assert_eq!(p.recv(0, 0), vec![6.0]);
                assert_eq!(p.recv(0, 1), vec![2.0]);
                assert_eq!(p.recv(0, 3), vec![1.0]);
                assert_eq!(p.recv(0, 2), vec![3.0]);
                assert_eq!(p.recv(0, 3), vec![5.0]);
                assert_eq!(p.recv(0, 1), vec![4.0]);
                assert_eq!(p.inbox_held().0, 0);
            }
        });
        assert_eq!(r.stats.messages, 6);

        // two sources, one tag: each source keeps its own FIFO, read
        // here in the opposite order of the ranks
        let r = Machine::run(cfg(3), |p| match p.rank() {
            0 | 1 => {
                let x = p.rank() as f64 * 10.0;
                p.send(2, 5, vec![x + 1.0]);
                p.send(2, 5, vec![x + 2.0]);
            }
            _ => {
                assert_eq!(p.recv(1, 5), vec![11.0]);
                assert_eq!(p.recv(0, 5), vec![1.0]);
                assert_eq!(p.recv(1, 5), vec![12.0]);
                assert_eq!(p.recv(0, 5), vec![2.0]);
            }
        });
        assert_eq!(r.stats.messages, 4);

        // a wait for tag 2 with both tag-1 messages queued ahead of it
        // (sent before the barrier): it scans past them until the late
        // send arrives, parked if it comes after the one yield
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 1, vec![1.0]);
                p.send(1, 1, vec![2.0]);
                p.barrier();
                p.send(1, 2, vec![3.0]);
            } else {
                let b = p.irecv(0, 2);
                let a = p.irecv(0, 1);
                p.barrier();
                assert_eq!(p.wait(b), vec![3.0]);
                assert_eq!(p.wait(a), vec![1.0]);
                assert_eq!(p.recv(0, 1), vec![2.0]);
            }
        });
        assert_eq!(r.stats.messages, 3);
    }

    #[test]
    fn delivered_messages_leave_nothing_behind() {
        // a fresh tag per message, as the hand-written solvers use one
        // per step: the receiver's mailbox holds what is in flight and
        // no more, however many tags have passed through it
        const MESSAGES: u64 = 100_000;
        const WINDOW: u64 = 64;
        Machine::run(cfg(2), |p| {
            for start in (0..MESSAGES).step_by(WINDOW as usize) {
                if p.rank() == 0 {
                    for tag in start..start + WINDOW {
                        p.send(1, tag, vec![tag as f64]);
                    }
                    p.recv(1, start);
                } else {
                    for tag in start..start + WINDOW {
                        assert_eq!(p.recv(0, tag), vec![tag as f64]);
                    }
                    p.send(0, start, Vec::new());
                }
            }
            let (entries, slots) = p.inbox_held();
            assert_eq!(entries, 0, "rank {} holds delivered messages", p.rank());
            assert!(
                slots <= 2 * WINDOW as usize,
                "rank {} holds {slots} queue slots for at most {WINDOW} in flight",
                p.rank()
            );
        });
    }

    #[test]
    fn virtual_time_deterministic_across_runs() {
        let run = || {
            Machine::run(cfg(4), |p| {
                let n = p.nprocs();
                let next = (p.rank() + 1) % n;
                let prev = (p.rank() + n - 1) % n;
                p.work(p.rank() as f64 * 3.0);
                let got = p.sendrecv(next, prev, 1, vec![p.rank() as f64]);
                assert_eq!(got, vec![prev as f64]);
                p.work(2.0);
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.virtual_time, b.virtual_time);
        assert_eq!(a.proc_times, b.proc_times);
    }

    #[test]
    fn pipeline_timing() {
        // 3-proc pipeline: each works 5 then passes downstream.
        // p0: work 5, send (depart 6). arrival at p1 = 6+10+1 = 17.
        // p1: recv at max(0+1, 17)=17, work 5 → 22, send depart 23,
        //     arrival 23+10+1=34. p2: recv 34, work 5 → 39.
        let r = Machine::run(cfg(3), |p| {
            if p.rank() > 0 {
                p.recv(p.rank() - 1, 0);
            }
            p.work(5.0);
            if p.rank() + 1 < p.nprocs() {
                p.send(p.rank() + 1, 0, vec![0.0]);
            }
        });
        assert_eq!(r.proc_times[2], 39.0);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let r = Machine::run(cfg(3), |p| {
            p.work((p.rank() as f64 + 1.0) * 10.0); // clocks 10, 20, 30
            p.barrier();
            assert_eq!(p.clock(), 40.0); // max 30 + latency 10
        });
        assert!(r.proc_times.iter().all(|&t| t == 40.0));
    }

    #[test]
    fn barriers_repeat() {
        let r = Machine::run(cfg(2), |p| {
            for _ in 0..3 {
                p.work(1.0);
                p.barrier();
            }
        });
        // per round: max(clock)+10; rounds: 11, 22, 33
        assert!(r.proc_times.iter().all(|&t| (t - 33.0).abs() < 1e-9));
    }

    #[test]
    fn traces_record_compute_and_comm() {
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.work(2.0);
                p.send(1, 0, vec![0.0; 4]);
            } else {
                p.recv(0, 0);
            }
        });
        let t0 = &r.traces[0];
        assert!(t0
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Compute)));
        assert!(t0
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Send { .. })));
        let t1 = &r.traces[1];
        assert!(t1
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RecvWait { .. } | EventKind::Recv { .. })));
    }

    #[test]
    fn irecv_post_is_free_and_wait_charges_logp() {
        // Same message as `message_timing_is_logp` (arrival = 12), but
        // the receiver posts first and computes 8s before waiting:
        // wait ready = 8 + 1 = 9 < 12 → clock = 12. Blocking recv then
        // work would have ended at 12 + 8 = 20: overlap hides all 8s.
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 7, vec![42.0]);
            } else {
                let req = p.irecv(0, 7);
                assert_eq!(p.clock(), 0.0, "irecv post must be free");
                p.work(8.0);
                let d = p.wait(req);
                assert_eq!(d, vec![42.0]);
                assert_eq!(p.clock(), 12.0);
            }
        });
        assert_eq!(r.virtual_time, 12.0);
    }

    #[test]
    fn wait_after_arrival_pays_only_overhead() {
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 0, vec![1.0]);
            } else {
                let req = p.irecv(0, 0);
                p.work(100.0); // past the arrival at t=12
                p.wait(req);
                assert_eq!(p.clock(), 101.0); // only o_r
            }
        });
        assert_eq!(r.virtual_time, 101.0);
    }

    #[test]
    fn wait_all_in_posted_order_matches_fifo() {
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 0, vec![1.0]);
                p.send(1, 0, vec![2.0]);
                p.send(1, 9, vec![3.0]);
            } else {
                let a = p.irecv(0, 0);
                let b = p.irecv(0, 0);
                let c = p.irecv(0, 9);
                let got = p.wait_all(vec![a, b, c]);
                assert_eq!(got, vec![vec![1.0], vec![2.0], vec![3.0]]);
            }
        });
        assert_eq!(r.stats.messages, 3);
    }

    #[test]
    fn overlap_traces_post_and_wait_events() {
        let r = Machine::run(cfg(2), |p| {
            if p.rank() == 0 {
                p.send(1, 0, vec![0.0; 4]);
            } else {
                let req = p.irecv(0, 0);
                p.work(1.0);
                p.wait(req); // still stalls: arrival is 15
            }
        });
        let t1 = &r.traces[1];
        assert!(t1
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RecvPost { from: 0, .. })));
        assert!(t1
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WaitStall { from: 0, .. })));
    }

    /// Run the machine on a helper thread with a hard host-time watchdog
    /// so a regression back to the deadlock fails the test instead of
    /// hanging the suite. Returns the propagated panic payload.
    fn run_expect_panic<F>(config: MachineConfig, body: F) -> Box<dyn std::any::Any + Send>
    where
        F: Fn(&mut Proc) + Send + Sync + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| Machine::run(config, body)));
            let _ = tx.send(outcome);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(Err(payload)) => payload,
            Ok(Ok(_)) => panic!("Machine::run succeeded despite a panicking rank"),
            Err(_) => panic!("Machine::run hung after a rank panic (watchdog fired)"),
        }
    }

    #[test]
    fn rank_panic_mid_recv_propagates_without_hanging() {
        // rank 1 dies before sending; ranks 0 and 2 are blocked in recv.
        let payload = run_expect_panic(cfg(3), |p| {
            if p.rank() == 1 {
                p.work(1.0);
                panic!("rank 1 exploded");
            } else {
                p.recv(1, 0); // would block forever without poisoning
            }
        });
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "rank 1 exploded", "originating payload must win");
    }

    #[test]
    fn rank_panic_with_unmatched_messages_queued_propagates_without_hanging() {
        // rank 2 has messages from both peers queued, none with the tag
        // it waits for, when rank 0 panics. No delay catches it before
        // or in its one yield; the long one catches it parked.
        for delay_ms in [0, 1, 50] {
            let payload = run_expect_panic(cfg(3), move |p| match p.rank() {
                0 => {
                    p.send(2, 1, vec![1.0]);
                    p.send(2, 2, vec![2.0]);
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    panic!("rank 0 exploded");
                }
                1 => {
                    p.send(2, 7, vec![3.0]);
                    p.recv(0, 0);
                }
                _ => {
                    p.recv(0, 7);
                }
            });
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "rank 0 exploded", "delay {delay_ms} ms");
        }
    }

    #[test]
    fn rank_panic_mid_barrier_propagates_without_hanging() {
        let payload = run_expect_panic(cfg(4), |p| {
            if p.rank() == 3 {
                panic!("rank 3 exploded");
            } else {
                p.barrier(); // never completes: rank 3 won't arrive
            }
        });
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "rank 3 exploded");
    }

    #[test]
    fn rank_panic_mid_wait_propagates_without_hanging() {
        let payload = run_expect_panic(cfg(2), |p| {
            if p.rank() == 0 {
                panic!("rank 0 exploded");
            } else {
                let req = p.irecv(0, 0);
                p.wait(req);
            }
        });
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "rank 0 exploded");
    }

    #[test]
    fn work_coalesces_into_one_trace_event() {
        let r = Machine::run(cfg(1), |p| {
            for _ in 0..100 {
                p.work(1.0);
            }
        });
        let compute_events = r.traces[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Compute))
            .count();
        assert_eq!(compute_events, 1);
    }
}
