//! Transpose-based BT (the `pghpf` stand-in).

use crate::classes::Class;
use crate::cost::bt_costs;
use crate::handpar::{run_transpose, BtSolver, HandResult};
use dhpf_spmd::machine::MachineConfig;

/// Run the transpose-based BT version.
pub fn run(class: Class, nprocs: usize, machine: MachineConfig) -> Option<HandResult> {
    run_transpose::<BtSolver>(
        class.n(),
        class.niter(),
        nprocs,
        machine,
        &bt_costs(class),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::compare_with;

    #[test]
    fn bt_transpose_matches_serial_on_4_procs() {
        let serial = crate::Kernel::Bt.run_serial_reference(Class::S);
        let hand = run(Class::S, 4, MachineConfig::sp2(4)).expect("runs");
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
