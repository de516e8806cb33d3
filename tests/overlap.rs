//! Acceptance tests for §3 halo/compute overlap: posting the ghost-cell
//! irecvs before the nest and paying the waits only ahead of the
//! boundary iterations must strictly lower *simulated* virtual time on
//! the pipelined NAS kernels, without changing the computed answer.

use dhpf::nas::Kernel;
use dhpf::prelude::*;

fn vt(compiled: &dhpf::core::driver::Compiled, nprocs: usize) -> f64 {
    run_node_program(&compiled.program, MachineConfig::sp2(nprocs))
        .expect("run")
        .run
        .virtual_time
}

fn flags(overlap: bool) -> OptFlags {
    OptFlags {
        overlap,
        ..Default::default()
    }
}

fn overlap_strictly_faster(kernel: Kernel) {
    let nprocs = 4;
    let blocking = kernel.compile_dhpf(Class::S, nprocs, Some(flags(false)));
    let overlapped = kernel.compile_dhpf(Class::S, nprocs, Some(flags(true)));
    assert_eq!(blocking.report.overlapped_nests, 0);
    assert!(
        overlapped.report.overlapped_nests > 0,
        "{} must plan at least one overlapped nest",
        kernel.name()
    );
    let (b, o) = (vt(&blocking, nprocs), vt(&overlapped, nprocs));
    assert!(o < b, "overlap {o:.9}s must beat blocking {b:.9}s");
}

#[test]
fn sp_class_s_overlap_strictly_faster() {
    overlap_strictly_faster(Kernel::Sp);
}

#[test]
fn bt_class_s_overlap_strictly_faster() {
    overlap_strictly_faster(Kernel::Bt);
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
