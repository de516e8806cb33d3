//! Semantic equivalence under optimization toggles: disabling any of
//! the paper's optimizations must never change the computed answer —
//! only the communication behaviour.

use dhpf::nas::Kernel;
use dhpf::prelude::*;

fn run_with(kernel: Kernel, flags: OptFlags, nprocs: usize) -> (f64, u64, Vec<f64>) {
    let compiled = kernel.compile_dhpf(Class::S, nprocs, Some(flags));
    let r = run_node_program(&compiled.program, MachineConfig::sp2(nprocs)).unwrap();
    (
        r.run.virtual_time,
        r.run.stats.messages,
        r.arrays["u"].data.clone(),
    )
}

/// The whole flag lattice (all-on, each optimization switched off
/// individually, all-off) on class S at 4 ranks: every configuration
/// must leave the stitched solution within NAS epsilon of the serial
/// interpreter.
fn every_lattice_configuration_matches_serial(kernel: Kernel) {
    let serial = kernel.run_serial_reference(Class::S);
    let truth = &serial.arrays["u"].data;
    for (label, flags) in OptFlags::lattice() {
        let (_, _, u) = run_with(kernel, flags, 4);
        let worst = truth
            .iter()
            .zip(&u)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            worst < 1e-9,
            "{} {label}: worst delta {worst:.3e}",
            kernel.name()
        );
    }
}

#[test]
fn every_flag_combination_is_semantics_preserving() {
    every_lattice_configuration_matches_serial(Kernel::Sp);
}

#[test]
fn bt_each_optimization_toggle_is_semantics_preserving() {
    every_lattice_configuration_matches_serial(Kernel::Bt);
}

/// Compiling a program again — the second time on the interner the first
/// compile warmed, which is how the fuzzer and the benchmark's `fuzz-mix`
/// compile everything but their first program — must reproduce the node
/// program, CP dump, communication report and transformed source, the
/// span-tree structure and the decision log, byte for byte.
#[test]
fn recompilation_is_byte_identical() {
    use dhpf::core::driver::{compile, CompileOptions};

    for kernel in Kernel::ALL {
        let (name, program) = (kernel.name(), kernel.parse());
        let mut opts = CompileOptions::new().observed();
        opts.bindings = kernel.bindings(Class::S, 4);
        dhpf::iset::reset_cache();
        let cold = compile(&program, &opts).expect("cold compile");
        let warm = compile(&program, &opts).expect("warm compile");
        assert_eq!(cold.fingerprint(), warm.fingerprint(), "{name}");
        assert_eq!(
            cold.obs.determinism_key(),
            warm.obs.determinism_key(),
            "{name}: span/decision structure"
        );
        assert_eq!(
            cold.obs.decision_log(&cold.transformed),
            warm.obs.decision_log(&warm.transformed),
            "{name}: decision log"
        );
        assert_eq!(
            cold.obs.decision_json(&cold.transformed),
            warm.obs.decision_json(&warm.transformed),
            "{name}: decision JSON"
        );
    }
}

/// The lattice configuration with one optimization switched off.
fn without(label: &str) -> OptFlags {
    let (_, flags) = OptFlags::lattice()
        .into_iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no lattice configuration {label}"));
    flags
}

/// Per-peer aggregation must be a pure packing transform: identical
/// numerics with and without it, strictly fewer physical messages with
/// it (class S at 4 ranks has multiple arrays exchanging per nest, so
/// there is always something to aggregate).
fn aggregation_is_a_pure_packing_transform(kernel: Kernel) {
    let (_, msgs_on, u_on) = run_with(kernel, OptFlags::default(), 4);
    let (_, msgs_off, u_off) = run_with(kernel, without("no-aggregate"), 4);
    assert_eq!(
        u_on, u_off,
        "aggregation changed the computed answer (pack/unpack must be lossless)"
    );
    assert!(
        msgs_on < msgs_off,
        "aggregation must send strictly fewer messages: on={msgs_on} off={msgs_off}"
    );
}

#[test]
fn aggregation_preserves_numerics_and_reduces_messages() {
    aggregation_is_a_pure_packing_transform(Kernel::Sp);
}

#[test]
fn bt_aggregation_preserves_numerics_and_reduces_messages() {
    aggregation_is_a_pure_packing_transform(Kernel::Bt);
}

#[test]
fn localize_reduces_messages() {
    // aggregation off in both arms: it packs per peer, so the extra
    // logical transfers localize would eliminate ride in the same
    // physical envelopes and the runtime message count can't see them
    let (_, with, _) = run_with(Kernel::Sp, without("no-aggregate"), 4);
    let neither = OptFlags {
        localize: false,
        ..without("no-aggregate")
    };
    let (_, without, _) = run_with(Kernel::Sp, neither, 4);
    assert!(
        without > with,
        "partial replication must eliminate messages: with={with} without={without}"
    );
}

#[test]
fn availability_reduces_messages() {
    let (_, with, _) = run_with(Kernel::Sp, OptFlags::default(), 4);
    let (_, without, _) = run_with(Kernel::Sp, without("no-data-availability"), 4);
    assert!(
        without >= with,
        "availability elimination must not add messages: with={with} without={without}"
    );
}

#[test]
fn privatizable_off_increases_time() {
    // the strawman replicates every privatizable computation on every
    // processor: same answer, strictly more virtual compute time
    let (t_on, _, _) = run_with(Kernel::Sp, OptFlags::default(), 4);
    let (t_off, _, _) = run_with(Kernel::Sp, without("no-privatizable-cp"), 4);
    assert!(
        t_off > t_on,
        "replicating NEW computations must cost time: on={t_on:.4} off={t_off:.4}"
    );
}
