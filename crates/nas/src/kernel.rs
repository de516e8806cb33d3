//! One dispatch over the two benchmarks: everything that differs
//! between SP and BT for a caller is which module's function runs.

use crate::classes::Class;
use crate::handpar::{multipart_for, HandResult};
use crate::{bt, sp};
use dhpf_core::driver::{compile, CompileOptions, Compiled, OptFlags};
use dhpf_core::exec::node::{run_node_program, ExecResult};
use dhpf_core::exec::serial::{run_serial, SerialResult};
use dhpf_fortran::Program;
use dhpf_spmd::machine::MachineConfig;
use std::collections::BTreeMap;

/// Which NAS benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Sp,
    Bt,
}

/// Why a hand-written version cannot run at a processor count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unrunnable {
    /// Multipartitioning needs a square count whose `√nprocs` cells per
    /// axis are all non-empty on the `n³` grid.
    HandCount {
        nprocs: usize,
        n: usize,
        valid: Vec<usize>,
    },
    /// The transpose scheme's 1-D distribution gives every processor at
    /// least one plane.
    TransposeCount { nprocs: usize, n: usize },
}

impl std::fmt::Display for Unrunnable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unrunnable::HandCount { nprocs, n, valid } => {
                let valid: Vec<String> = valid.iter().map(usize::to_string).collect();
                write!(
                    f,
                    "hand-written multipartitioning cannot run on {nprocs} processors: it needs \
                     a square count with no empty cell on the {n}^3 grid (valid counts: {})",
                    valid.join(", ")
                )
            }
            Unrunnable::TransposeCount { nprocs, n } => write!(
                f,
                "the transpose-based version cannot run on {nprocs} processors: its 1-D \
                 distribution needs nprocs <= n on the {n}^3 grid (valid counts: 1..={n})"
            ),
        }
    }
}

impl std::str::FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sp" => Ok(Kernel::Sp),
            "bt" => Ok(Kernel::Bt),
            other => Err(format!("unknown benchmark {other} (sp or bt)")),
        }
    }
}

impl Kernel {
    pub const ALL: [Kernel; 2] = [Kernel::Sp, Kernel::Bt];

    /// Lower-case name, as `--nas` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Sp => "sp",
            Kernel::Bt => "bt",
        }
    }

    /// The benchmark's HPF source, sizes and grid unbound.
    pub fn source(self) -> String {
        match self {
            Kernel::Sp => sp::source(),
            Kernel::Bt => bt::source(),
        }
    }

    pub fn parse(self) -> Program {
        let src = self.source();
        dhpf_fortran::parse(&src).unwrap_or_else(|d| {
            let msgs: Vec<String> = d.iter().take(5).map(|x| x.render(&src)).collect();
            panic!("{} source parse failed:\n{}", self.name(), msgs.join("\n"))
        })
    }

    pub fn bindings(self, class: Class, nprocs: usize) -> BTreeMap<String, i64> {
        crate::classes::bindings(class, nprocs)
    }

    /// Serial ground-truth run.
    pub fn run_serial_reference(self, class: Class) -> SerialResult {
        run_serial(&self.parse(), &self.bindings(class, 1))
            .unwrap_or_else(|e| panic!("{} serial run failed: {e}", self.name()))
    }

    /// Compile with dHPF for `nprocs` processors.
    pub fn compile_dhpf(self, class: Class, nprocs: usize, flags: Option<OptFlags>) -> Compiled {
        let mut opts = CompileOptions::new();
        opts.bindings = self.bindings(class, nprocs);
        opts.granularity = 4;
        if let Some(f) = flags {
            opts.flags = f;
        }
        compile(&self.parse(), &opts)
            .unwrap_or_else(|e| panic!("{} compile failed: {e}", self.name()))
    }

    /// Compile and execute the dHPF version; returns the machine result.
    pub fn run_dhpf(self, class: Class, nprocs: usize, machine: MachineConfig) -> ExecResult {
        let compiled = self.compile_dhpf(class, nprocs, None);
        run_node_program(&compiled.program, machine)
            .unwrap_or_else(|e| panic!("{} dHPF run failed: {e}", self.name()))
    }

    /// Hand-written MPI with diagonal multipartitioning.
    pub fn hand(
        self,
        class: Class,
        nprocs: usize,
        machine: MachineConfig,
    ) -> Result<HandResult, Unrunnable> {
        let run = match self {
            Kernel::Sp => sp::multipart::run(class, nprocs, machine),
            Kernel::Bt => bt::multipart::run(class, nprocs, machine),
        };
        run.ok_or_else(|| {
            let n = class.n();
            Unrunnable::HandCount {
                nprocs,
                n,
                valid: (1..=n)
                    .map(|q| q * q)
                    .filter(|&p| multipart_for(n, p).is_some())
                    .collect(),
            }
        })
    }

    /// The transpose-based `pghpf` stand-in.
    pub fn transpose(
        self,
        class: Class,
        nprocs: usize,
        machine: MachineConfig,
    ) -> Result<HandResult, Unrunnable> {
        let run = match self {
            Kernel::Sp => sp::transpose::run(class, nprocs, machine),
            Kernel::Bt => bt::transpose::run(class, nprocs, machine),
        };
        run.ok_or(Unrunnable::TransposeCount {
            nprocs,
            n: class.n(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrunnable_counts_carry_the_reason_and_the_valid_counts() {
        let hand = Kernel::Sp.hand(Class::W, 6, MachineConfig::sp2(6));
        let (nprocs, n) = (6, 12);
        let valid = vec![1, 4, 9, 16, 36, 144];
        assert_eq!(hand.err(), Some(Unrunnable::HandCount { nprocs, n, valid }));
        let pgi = Kernel::Bt.transpose(Class::W, 16, MachineConfig::sp2(16));
        let e = pgi.err().expect("16 processors > 12 planes");
        assert_eq!(e, Unrunnable::TransposeCount { nprocs: 16, n });
        assert!(e.to_string().contains("valid counts: 1..=12"), "{e}");
    }
}
