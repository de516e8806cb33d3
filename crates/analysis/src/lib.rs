//! # dhpf-analysis — check the optimizer, don't trust it
//!
//! The paper's central claim (§4, §7) is that dHPF may *eliminate*
//! communication — through partial replication and data-availability
//! analysis — without changing program meaning. This crate verifies that
//! claim statically, for every compiled program:
//!
//! * [`verify`] — the comm-coverage verifier. Independently of
//!   `dhpf_core::comm`, it re-derives each statement's non-local
//!   read/write sets per processor with the `iset` machinery and proves
//!   each one is covered by the emitted [`dhpf_core::comm::NestPlan`].
//!   Any residue is a CONFIRMED miscompile with the offending statement
//!   span.
//! * [`trace_check`] — consistency checks over `spmd::trace` event logs
//!   (unmatched send/recv pairs, wait coverage) and over plans
//!   (write-write races on ghost regions).
//! * [`protocol`] — the static, rank-symbolic SPMD protocol verifier:
//!   send/recv matching, barrier congruence, wait coverage and symbolic
//!   deadlock over the extracted protocol summary, with no trace input.
//! * [`lint`] — advisory diagnostics: non-affine-subscript fallback
//!   sites, §4.1 CP translations that vectorize or replicate, ignored
//!   `NEW`/`LOCALIZE` directives, §5 CP conflicts.
//! * [`diag`] — the shared findings framework with human and JSON
//!   renderers, consumed by the `dhpf-lint` binary.

pub mod diag;
pub mod lattice;
pub mod lint;
pub mod protocol;
pub mod trace_check;
pub mod verify;

pub use diag::{Finding, Report, Severity};
pub use lint::{lint_compiled, lint_source};
pub use protocol::{check_protocol, protocol_decisions, verify_protocol, verify_protocol_program};
pub use trace_check::{check_compiled_races, check_traces};
pub use verify::verify_compiled;
