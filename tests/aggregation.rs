//! Acceptance tests for per-peer cross-array message aggregation (§7):
//! on NAS SP and BT class S at 4 ranks, aggregation must leave the
//! computed solution within the serial reference tolerance and
//! bit-identical across the toggle, and aggregated plans must pass
//! every verifier. (The >= 25% message cut and the strictly better
//! LogGP makespan are asserted on the same rows by the `flags` study,
//! `crates/bench/tests/flags.rs`.)

use dhpf::nas::Kernel;
use dhpf::prelude::*;

fn flags(aggregate: bool) -> OptFlags {
    OptFlags {
        aggregate,
        ..Default::default()
    }
}

/// The stitched solution `u` of one class S run at 4 ranks.
fn run(kernel: Kernel, aggregate: bool) -> Vec<f64> {
    let compiled = kernel.compile_dhpf(Class::S, 4, Some(flags(aggregate)));
    let mut r = run_node_program(&compiled.program, MachineConfig::sp2(4)).unwrap();
    r.arrays.remove("u").expect("array u").data
}

fn check(kernel: Kernel) {
    let name = kernel.name();
    let serial = kernel.run_serial_reference(Class::S);
    let truth = &serial.arrays["u"].data;
    let off = run(kernel, false);
    let on = run(kernel, true);

    // Numerics unchanged vs the serial reference interpreter.
    for (label, u) in [("off", &off), ("on", &on)] {
        let worst = truth
            .iter()
            .zip(u)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst < 1e-9,
            "{name} aggregate-{label}: worst delta vs serial {worst:.3e}"
        );
    }
    // And packing must be lossless: bit-identical across the toggle.
    assert_eq!(on, off, "{name}: aggregation changed the computed answer");
}

#[test]
fn sp_class_s_aggregation_acceptance() {
    check(Kernel::Sp);
}

#[test]
fn bt_class_s_aggregation_acceptance() {
    check(Kernel::Bt);
}

/// Aggregated plans must stay verifiable end to end: comm-coverage,
/// the static protocol verifier, and the dynamic trace checker all
/// clean on SP and BT class S at 4 ranks with aggregation on.
#[test]
fn aggregated_plans_pass_all_verifiers() {
    for kernel in Kernel::ALL {
        let name = kernel.name();
        let compiled = kernel.compile_dhpf(Class::S, 4, Some(flags(true)));
        let cov = dhpf::analysis::verify_compiled(&compiled);
        assert!(
            cov.is_clean(),
            "{name}: comm-coverage not clean on aggregated plan:\n{}",
            cov.render_human(None)
        );
        let stat = verify_protocol(&compiled);
        assert!(
            stat.is_clean(),
            "{name}: protocol verifier not clean on aggregated plan:\n{}",
            stat.render_human(None)
        );
        let result =
            run_node_program(&compiled.program, MachineConfig::sp2(4).with_trace()).unwrap();
        let dyn_r = dhpf::analysis::check_traces(&result.run.traces);
        assert_eq!(
            dyn_r.error_count(),
            0,
            "{name}: trace checker errors on aggregated run:\n{}",
            dyn_r.render_human(None)
        );
    }
}

/// The planted wrong-unpack-offset miscompile (a packed section landing
/// at the wrong ghost offset) must be caught by at least two
/// independent oracles — the satellite-3 acceptance bar for the fuzz
/// harness's aggregation coverage.
#[test]
fn wrong_unpack_offset_mutant_is_caught_twice() {
    for k in 0..16u64 {
        let seed = dhpf_fuzz::program_seed(20260806, k as usize);
        let spec = dhpf_fuzz::generate(seed, &dhpf_fuzz::GenOptions { max_pdim: 4 });
        if let Some(o) = dhpf_fuzz::mutate::unpack_offset_check(&spec, &[2, 2], 4) {
            if o.caught_twice() {
                assert!(
                    o.caught_by.len() >= 2,
                    "outcome inconsistent: {:?}",
                    o.caught_by
                );
                return;
            }
        }
    }
    panic!("no generated program yielded a doubly-caught unpack-offset mutant");
}
