//! # dhpf-core — the dHPF compiler
//!
//! A reproduction of the Rice dHPF compiler as described in *"High
//! Performance Fortran Compilation Techniques for Parallelizing
//! Scientific Codes"* (SC'98). It consumes the Fortran-subset + HPF AST
//! from [`dhpf_fortran`], analyses it with [`dhpf_depend`] and
//! [`dhpf_iset`], and produces an SPMD *node program* that executes — and
//! is timed — on the virtual message-passing machine in [`dhpf_spmd`].
//!
//! Pipeline (see DESIGN.md for the paper-section mapping):
//!
//! 1. [`distrib`] — resolve `PROCESSORS`/`TEMPLATE`/`ALIGN`/`DISTRIBUTE`
//!    into concrete per-array block distributions (problem size and
//!    processor grid are compiled in, as the paper's experiments did).
//! 2. [`cp`] — the general computation-partitioning model:
//!    `ON_HOME A₁(f₁(i)) ∪ … ∪ Aₙ(fₙ(i))`, including *range* subscripts
//!    produced by vectorization.
//! 3. [`select`] — local CP selection: candidate enumeration per
//!    statement, communication-cost estimation, least-cost combination.
//! 4. [`loopdist`] — communication-sensitive loop distribution (§5):
//!    union-find CP-choice grouping, selective SCC distribution.
//! 5. [`privat`] / [`localize`] — CP propagation onto definitions of
//!    privatizable (`NEW`, §4.1) and partially-replicated (`LOCALIZE`,
//!    §4.2) variables by inverse-subscript translation + vectorization.
//! 6. [`interproc`] — bottom-up interprocedural CP selection (§6).
//! 7. [`avail`] — data availability analysis (§7): eliminate non-local
//!    read communication covered by a preceding non-local write on the
//!    same processor.
//! 8. [`comm`] — non-local data sets, message vectorization/coalescing,
//!    overlap areas, coarse-grain pipelining for wavefront nests.
//!    [`transfer`] is the one description of a message every later
//!    stage shares.
//! 9. [`codegen`] + [`exec`] — emit the node program and interpret it on
//!    the virtual machine (numerically, with virtual-time charging).

pub mod avail;
pub mod codegen;
pub mod comm;
pub mod cp;
pub mod distrib;
pub mod driver;
pub mod exec;
pub mod interproc;
pub mod localize;
pub mod loopdist;
pub mod privat;
pub mod protocol;
pub mod select;
pub mod transfer;

pub use driver::{compile, CompileOptions, Compiled, OptFlags, UnitAnalysis};
