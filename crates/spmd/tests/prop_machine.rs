//! Property tests for the virtual machine: determinism and clock-model
//! invariants under randomized communication schedules, and identity of
//! the threaded machine with the single-threaded `loggp::replay`.

use dhpf_spmd::loggp::{replay, Action, Op};
use dhpf_spmd::machine::{Machine, MachineConfig, RunResult};
use dhpf_spmd::topo::MultiPartition;
use proptest::prelude::*;

fn cfg(n: usize) -> MachineConfig {
    MachineConfig {
        nprocs: n,
        seconds_per_flop: 1.0,
        latency: 7.0,
        byte_time: 0.25,
        send_overhead: 1.5,
        recv_overhead: 0.5,
        trace: true,
    }
}

/// A random SPMD schedule: per round, each proc does some work, then a
/// ring exchange with random payload.
fn schedule() -> impl Strategy<Value = (usize, Vec<(u32, u8)>)> {
    (
        2usize..6,
        proptest::collection::vec((0u32..2000, 1u8..32), 1..8),
    )
}

/// Per-rank action lists of a random valid schedule. Every round
/// computes a rank-skewed amount, then does one of: a ring exchange of
/// one or two back-to-back messages with blocking receives; a ring
/// exchange whose receive is posted first and waited after more compute;
/// a barrier; nothing. Communication of round `i` runs under nest `i`.
fn ring_actions(n: usize, rounds: &[(u8, u32, u8)]) -> Vec<Vec<Action>> {
    (0..n)
        .map(|r| {
            let (next, prev) = ((r + 1) % n, (r + n - 1) % n);
            let mut out = Vec::new();
            let mut next_req = 0;
            for (i, &(kind, work, len)) in rounds.iter().enumerate() {
                let nest = Some(i as u32);
                let mut step = |nest, op| out.push(Action { nest, op });
                let dt = f64::from(work) * (r as f64 * 0.7 + 0.1);
                let send = |len: u8| Op::Send {
                    to: next,
                    bytes: u64::from(len) * 8,
                    parts: 1 + u32::from(len % 3),
                };
                step(None, Op::Compute { dt });
                match kind % 5 {
                    0 | 1 => {
                        let count = 1 + kind % 5;
                        for k in 0..count {
                            step(nest, send(len / (k + 1)));
                        }
                        for _ in 0..count {
                            let (from, req) = (prev, None);
                            step(nest, Op::Complete { from, req });
                        }
                    }
                    2 => {
                        let (from, req) = (prev, next_req);
                        next_req += 1;
                        step(nest, Op::Post { from, req });
                        step(nest, send(len));
                        step(None, Op::Compute { dt: dt * 0.5 });
                        step(None, Op::Compute { dt: 3.0 });
                        let req = Some(req);
                        step(nest, Op::Complete { from, req });
                    }
                    3 => step(nest, Op::Barrier),
                    _ => {}
                }
            }
            out
        })
        .collect()
}

/// Interpret the action lists on the threaded machine.
fn run_on_machine(config: MachineConfig, ranks: &[Vec<Action>]) -> RunResult {
    Machine::run(config, |p| {
        let mut reqs = std::collections::HashMap::new();
        for a in &ranks[p.rank()] {
            p.set_provenance(a.nest);
            match a.op {
                Op::Compute { dt } => p.work_seconds(dt),
                Op::Send { to, bytes, parts } => {
                    p.send_parts(to, 0, vec![0.0; bytes as usize / 8], parts)
                }
                Op::Post { from, req } => {
                    let handle = p.irecv(from, 0);
                    assert_eq!(handle.id(), req);
                    reqs.insert(req, handle);
                }
                Op::Complete { from, req: None } => drop(p.recv(from, 0)),
                Op::Complete { req: Some(req), .. } => drop(p.wait(reqs.remove(&req).unwrap())),
                Op::Barrier => p.barrier(),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The identity oracle of the shared cost model: the threaded
    /// machine and the replay are the same `Timeline` behind different
    /// transports, so clocks, statistics and every traced event are
    /// equal — `==`, no tolerance.
    #[test]
    fn machine_and_replay_agree_exactly(
        n in 2usize..6,
        rounds in proptest::collection::vec((0u8..5, 0u32..2000, 1u8..32), 1..10),
    ) {
        let ranks = ring_actions(n, &rounds);
        let live = run_on_machine(cfg(n), &ranks);
        let replayed = replay(&ranks, &cfg(n), None).unwrap();
        prop_assert_eq!(&live.proc_times, &replayed.proc_times);
        prop_assert_eq!(live.virtual_time, replayed.virtual_time);
        prop_assert_eq!(live.stats, replayed.stats);
        for (a, b) in live.traces.iter().zip(&replayed.traces) {
            prop_assert_eq!(a.rank, b.rank);
            prop_assert_eq!(&a.events, &b.events);
        }
    }

    #[test]
    fn runs_are_deterministic((n, rounds) in schedule()) {
        let run = |rounds: Vec<(u32, u8)>| {
            Machine::run(cfg(n), move |p| {
                let next = (p.rank() + 1) % p.nprocs();
                let prev = (p.rank() + p.nprocs() - 1) % p.nprocs();
                for (tag, (work, len)) in rounds.iter().enumerate() {
                    p.work(*work as f64 * (p.rank() as f64 + 1.0));
                    p.send(next, tag as u64, vec![1.0; *len as usize]);
                    p.recv(prev, tag as u64);
                }
            })
        };
        let a = run(rounds.clone());
        let b = run(rounds);
        prop_assert_eq!(a.proc_times, b.proc_times);
        prop_assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn clocks_are_monotone_in_work((n, rounds) in schedule()) {
        // doubling every compute step can never make any proc finish earlier
        let run = |scale: f64, rounds: &[(u32, u8)]| {
            Machine::run(cfg(n), move |p| {
                let next = (p.rank() + 1) % p.nprocs();
                let prev = (p.rank() + p.nprocs() - 1) % p.nprocs();
                for (tag, (work, len)) in rounds.iter().enumerate() {
                    p.work(*work as f64 * scale);
                    p.send(next, tag as u64, vec![0.0; *len as usize]);
                    p.recv(prev, tag as u64);
                }
            })
        };
        let base = run(1.0, &rounds);
        let heavy = run(2.0, &rounds);
        prop_assert!(heavy.virtual_time >= base.virtual_time);
        for (a, b) in base.proc_times.iter().zip(&heavy.proc_times) {
            prop_assert!(b + 1e-9 >= *a);
        }
    }

    #[test]
    fn message_count_matches_schedule((n, rounds) in schedule()) {
        let r = Machine::run(cfg(n), |p| {
            let next = (p.rank() + 1) % p.nprocs();
            let prev = (p.rank() + p.nprocs() - 1) % p.nprocs();
            for (tag, (_, len)) in rounds.iter().enumerate() {
                p.send(next, tag as u64, vec![0.0; *len as usize]);
                p.recv(prev, tag as u64);
            }
        });
        prop_assert_eq!(r.stats.messages, (n * rounds.len()) as u64);
        let bytes: u64 = rounds.iter().map(|(_, l)| *l as u64 * 8).sum();
        prop_assert_eq!(r.stats.bytes, bytes * n as u64);
    }

    #[test]
    fn traces_tile_the_timeline((n, rounds) in schedule()) {
        // every traced event has t1 >= t0 and events on one proc are
        // non-overlapping in time order
        let r = Machine::run(cfg(n), |p| {
            let next = (p.rank() + 1) % p.nprocs();
            let prev = (p.rank() + p.nprocs() - 1) % p.nprocs();
            for (tag, (work, len)) in rounds.iter().enumerate() {
                p.work(*work as f64);
                p.send(next, tag as u64, vec![0.0; *len as usize]);
                p.recv(prev, tag as u64);
            }
        });
        for tr in &r.traces {
            let mut last_end = 0.0f64;
            for e in &tr.events {
                prop_assert!(e.t1 + 1e-12 >= e.t0);
                prop_assert!(e.t0 + 1e-9 >= last_end,
                    "overlapping events on p{}: {:?}", tr.rank, e);
                last_end = e.t1.max(last_end);
            }
        }
    }

    #[test]
    fn multipartition_owner_is_consistent(q in 1usize..7, c1 in 0usize..7, c2 in 0usize..7, c3 in 0usize..7) {
        let mp = MultiPartition::new(q * q).unwrap();
        let cell = [c1 % q, c2 % q, c3 % q];
        let owner = mp.owner(cell);
        prop_assert!(owner < q * q);
        prop_assert!(mp.cells(owner).contains(&cell));
        // the active cell at each stage really has the stage coordinate
        for (axis, &stage) in cell.iter().enumerate() {
            let c = mp.active_cell(owner, axis, stage);
            prop_assert_eq!(mp.owner(c), owner);
        }
    }
}
