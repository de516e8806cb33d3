//! Hand-written MPI SP with diagonal multipartitioning (the NPB2.3b2
//! parallelization the paper compares against).

use crate::classes::Class;
use crate::cost::sp_costs;
use crate::handpar::{run_multipart, HandResult, SpSolver};
use dhpf_spmd::machine::MachineConfig;

/// Run hand-written multipartitioned SP. `nprocs` must be a perfect
/// square dividing the grid evenly (the NPB restriction).
pub fn run(class: Class, nprocs: usize, machine: MachineConfig) -> Option<HandResult> {
    run_multipart::<SpSolver>(
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
    fn sp_multipart_matches_serial_on_4_procs() {
        let serial = crate::Kernel::Sp.run_serial_reference(Class::S);
        let hand = run(Class::S, 4, MachineConfig::sp2(4)).expect("4 = 2² fits 8³");
        compare_with("u", &serial.arrays["u"], 1e-9, &|idx| {
            hand.u.get(
                idx[0] as usize,
                idx[1] as usize,
                idx[2] as usize,
                idx[3] as usize,
            )
        });
        compare_with("rhs", &serial.arrays["rhs"], 1e-9, &|idx| {
            hand.rhs.get(
                idx[0] as usize,
                idx[1] as usize,
                idx[2] as usize,
                idx[3] as usize,
            )
        });
        assert!(hand.run.stats.messages > 0);
    }

    #[test]
    fn sp_multipart_rejects_non_square() {
        assert!(run(Class::S, 6, MachineConfig::sp2(6)).is_none());
    }

    #[test]
    fn sp_multipart_handles_uneven_cells() {
        // 9 procs on 8³: q = 3 does not divide 8; cells are 3+3+2
        let serial = crate::Kernel::Sp.run_serial_reference(Class::S);
        let hand = run(Class::S, 9, MachineConfig::sp2(9)).expect("uneven cells supported");
        crate::verify::compare_with("u", &serial.arrays["u"], 1e-9, &|idx| {
            hand.u.get(
                idx[0] as usize,
                idx[1] as usize,
                idx[2] as usize,
                idx[3] as usize,
            )
        });
    }

    #[test]
    fn sp_multipart_scales() {
        let t1 = run(Class::W, 1, MachineConfig::sp2(1))
            .unwrap()
            .run
            .virtual_time;
        let t4 = run(Class::W, 4, MachineConfig::sp2(4))
            .unwrap()
            .run
            .virtual_time;
        assert!(
            t4 < t1 / 2.0,
            "4 processors must be much faster: {t1} vs {t4}"
        );
    }
}
