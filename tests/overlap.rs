//! Acceptance test for §3 halo/compute overlap: posting the ghost-cell
//! irecvs before the nest and paying the waits only ahead of the
//! boundary iterations must not change the computed answer. (That it
//! strictly lowers virtual time is asserted on the same class S rows by
//! the `flags` study, `crates/bench/tests/flags.rs`.)

use dhpf::nas::Kernel;
use dhpf::prelude::*;

fn flags(overlap: bool) -> OptFlags {
    OptFlags {
        overlap,
        ..Default::default()
    }
}

#[test]
fn overlap_preserves_numerics_against_serial_interpreter() {
    // The interior/boundary split reorders iterations, which is only
    // legal because planning rejects nests with loop-carried
    // dependences; the serial interpreter is the independent oracle.
    for kernel in Kernel::ALL {
        let name = kernel.name();
        let serial = kernel.run_serial_reference(Class::S);
        let compiled = kernel.compile_dhpf(Class::S, 4, Some(flags(true)));
        assert!(compiled.report.overlapped_nests > 0, "{name}");
        let node = run_node_program(&compiled.program, MachineConfig::sp2(4)).expect("node");
        let want = &serial.arrays["u"];
        let got = &node.arrays["u"];
        let delta = want
            .data
            .iter()
            .zip(&got.data)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(delta < 1e-9, "{name}: u diverges by {delta}");
    }
}
