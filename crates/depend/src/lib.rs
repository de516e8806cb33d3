//! # dhpf-depend — dependence analysis and program structure
//!
//! The dependence substrate the dHPF optimizations build on:
//!
//! * [`loops`] — loop-nest structure: which loops enclose which
//!   statements, affine loop bounds, lexical statement order.
//! * [`refs`] — every array/scalar reference with its affine subscript
//!   vector and read/write role.
//! * [`dep`] — pairwise dependence testing via integer-set emptiness:
//!   loop-independent vs. loop-carried (with level), flow/anti/output.
//! * [`usedef`] — use→def chains inside a loop body: for every read, the
//!   lexically-last preceding write to the same variable. This drives
//!   both CP propagation for privatizable/LOCALIZE variables (§4) and
//!   data-availability analysis (§7).
//! * [`callgraph`] — call graph and its bottom-up order (§6).

pub mod callgraph;
pub mod dep;
pub mod loops;
pub mod refs;
pub mod usedef;

pub use callgraph::CallGraph;
pub use dep::{analyze_loop_deps, dep_stats, DepKind, DepStats, Dependence};
pub use loops::UnitLoops;
pub use refs::{RefInfo, UnitRefs};
