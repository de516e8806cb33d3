//! Transpose-based SP (the `pghpf` stand-in): 1-D block along z, full
//! transposes around the z line solve.

use crate::classes::Class;
use crate::cost::sp_costs;
use crate::handpar::{run_transpose, HandResult, SpSolver};
use dhpf_spmd::machine::MachineConfig;

/// Run the transpose-based SP version.
pub fn run(class: Class, nprocs: usize, machine: MachineConfig) -> Option<HandResult> {
    run_transpose::<SpSolver>(
        class.n(),
        class.niter(),
        nprocs,
        machine,
        &sp_costs(class),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::compare_with;

    #[test]
    fn sp_transpose_matches_serial_on_4_procs() {
        let serial = crate::Kernel::Sp.run_serial_reference(Class::S);
        let hand = run(Class::S, 4, MachineConfig::sp2(4)).expect("runs");
        compare_with("u", &serial.arrays["u"], 1e-9, &|idx| {
            hand.u.get(
                idx[0] as usize,
                idx[1] as usize,
                idx[2] as usize,
                idx[3] as usize,
            )
        });
        assert!(hand.run.stats.messages > 0);
    }

    #[test]
    fn sp_transpose_works_on_odd_counts() {
        // unlike multipartitioning, the 1-D scheme takes any count ≤ n
        let serial = crate::Kernel::Sp.run_serial_reference(Class::S);
        let hand = run(Class::S, 3, MachineConfig::sp2(3)).expect("runs");
        compare_with("u", &serial.arrays["u"], 1e-9, &|idx| {
            hand.u.get(
                idx[0] as usize,
                idx[1] as usize,
                idx[2] as usize,
                idx[3] as usize,
            )
        });
    }
}
