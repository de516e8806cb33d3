//! # dhpf-nas — the NAS SP and BT application benchmarks
//!
//! Structurally-faithful miniature versions of the NAS Parallel
//! Benchmarks **SP** (scalar line solves) and **BT** (5×5 block
//! tridiagonal line solves), in four forms each:
//!
//! 1. **Serial HPF/Fortran source** ([`sp::source`], [`bt::source`]) —
//!    the compiler input, minimally annotated exactly as §8.1/§8.2 of the
//!    paper describes (data layout directives, `INDEPENDENT NEW`
//!    directives for the privatizable `cv`/`rhoq`/`fac1` temporaries, an
//!    outer one-trip loop with `LOCALIZE` for the reciprocal arrays in
//!    `compute_rhs`, and loop interchanges in the y/z line solves for
//!    pipeline granularity). Running it through the serial interpreter
//!    is the numerical ground truth.
//! 2. **dHPF-compiled** — the same source compiled by [`dhpf_core`] for a
//!    2-D BLOCK processor grid and executed on the virtual machine.
//! 3. **Hand-written MPI with multipartitioning**
//!    ([`sp::multipart`], [`bt::multipart`]) — the NPB2.3b2-style
//!    diagonal multipartitioning parallelization, written directly
//!    against the virtual machine.
//! 4. **Transpose-based** ([`sp::transpose`], [`bt::transpose`]) — the
//!    PGI `pghpf` stand-in: 1-D distribution with full transposes around
//!    the z line solve (see DESIGN.md for the substitution rationale).
//!
//! Simplifications versus NPB2.3 (documented in DESIGN.md): the physics
//! is reduced to a generic ADI-style solver — second-difference fluxes
//! with six reciprocal arrays, diagonally-dominant tridiagonal (SP) /
//! block-tridiagonal (BT) systems — and the scalar solve is tridiagonal
//! rather than pentadiagonal (dependence distance 1 instead of 2; the
//! sweep/communication structure is unchanged). Problem classes are
//! scaled to simulator-friendly sizes.

pub mod bt;
pub mod classes;
pub mod cost;
pub mod handpar;
pub mod kernel;
pub mod sp;
pub mod verify;

pub use classes::Class;
pub use kernel::{Kernel, Unrunnable};
