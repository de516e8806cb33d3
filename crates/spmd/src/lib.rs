//! # dhpf-spmd — a virtual distributed-memory message-passing machine
//!
//! The experimental platform of the paper is a 32-node IBM SP2 running
//! IBM's user-space MPI. This crate substitutes a deterministic *virtual*
//! machine for it:
//!
//! * Each simulated processor runs on its own host thread and owns a
//!   **virtual clock** (seconds of simulated time).
//! * Computation advances the clock via [`Proc::work`] (`flops ×
//!   seconds_per_flop`).
//! * Messages follow a LogGP cost model, written once in [`loggp`]: the
//!   sender pays a send overhead, the message *arrives* at
//!   `send_clock + o_s + L + bytes × G`, and a receive completes at
//!   `max(recv_clock + o_r, arrival)` — which models exactly the
//!   non-blocking send/recv overlap both the hand-written and the
//!   compiler-generated codes in the paper rely on. The live machine
//!   ([`machine`]) and the profiler's what-if replay ([`loggp::replay`])
//!   drive the same [`loggp::Timeline`].
//! * Virtual time is **deterministic**: it depends only on the program and
//!   the cost model, never on host scheduling.
//!
//! The crate also provides the distribution topologies the paper's
//! benchmark versions need ([`topo`]): block partitions and the
//! NPB **multipartitioning** (diagonal cell) scheme of the hand-written
//! SP/BT codes, plus per-processor execution traces ([`trace`]) that
//! regenerate the paper's space-time diagrams (Figures 8.1–8.4).

pub mod array;
pub mod loggp;
pub mod machine;
pub mod topo;
pub mod trace;

pub use machine::{CommStats, Machine, MachineConfig, Proc, RunResult};
pub use topo::{block_partition, MultiPartition};
pub use trace::{Event, EventKind, Trace};
