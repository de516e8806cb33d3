//! Execution: a direct serial AST interpreter (the numerical ground
//! truth every parallel run is verified against) and the SPMD
//! node-program interpreter that runs compiled programs on the virtual
//! machine live in this module tree.
//!
//! * [`serial`] — tree-walking interpreter over the front-end AST with
//!   Fortran implicit-typing rules; completely independent of the
//!   compilation pipeline, so a disagreement between it and a compiled
//!   run always indicts the compiler.
//! * [`node`] — executes a [`crate::codegen::NodeProgram`] on
//!   [`dhpf_spmd`], one thread per simulated processor, charging virtual
//!   compute time per executed statement instance and virtual
//!   communication per message. Each rank first lowers the program to
//!   the linear code of the private `tape` module and runs that.

pub mod node;
pub mod serial;
mod tape;

pub use node::{run_node_program, ExecError, ExecResult};
pub use serial::{run_serial, SerialResult};
