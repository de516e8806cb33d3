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

/// Compile with the parallel driver (worker threads) and the serial
/// driver; the outputs must be byte-identical — same node program, same
/// CP dump, same communication report, same transformed source — and the
/// parallel-compiled program must still reproduce the serial-interpreter
/// answer.
#[test]
fn parallel_compilation_is_byte_identical_to_serial() {
    use dhpf::core::driver::{compile, CompileOptions};

    for kernel in Kernel::ALL {
        let (name, program, bindings) =
            (kernel.name(), kernel.parse(), kernel.bindings(Class::S, 4));
        let mut serial_opts = CompileOptions::new();
        serial_opts.bindings = bindings.clone();
        serial_opts.granularity = 4;
        let mut par_opts = serial_opts.clone().parallel(4);
        par_opts.granularity = 4;

        let serial = compile(&program, &serial_opts).expect("serial compile");
        let parallel = compile(&program, &par_opts).expect("parallel compile");
        assert_eq!(
            serial.fingerprint(),
            parallel.fingerprint(),
            "{name}: parallel driver output diverged from serial"
        );
    }

    // and the parallel-compiled SP program still computes the right answer
    let truth = dhpf::nas::sp::run_serial_reference(Class::S);
    let mut opts = CompileOptions::new();
    opts.bindings = dhpf::nas::sp::bindings(Class::S, 4);
    opts.granularity = 4;
    let compiled = compile(&dhpf::nas::sp::parse(), &opts.parallel(4)).expect("compile");
    let r = run_node_program(&compiled.program, MachineConfig::sp2(4)).unwrap();
    let worst = truth.arrays["u"]
        .data
        .iter()
        .zip(&r.arrays["u"].data)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst < 1e-9,
        "parallel-compiled SP: worst delta {worst:.3e}"
    );
}

/// The observability layer must not break compile determinism: with the
/// recorder enabled, the span-tree *structure* and the decision log of a
/// parallel compile must be byte-identical to a serial compile of the
/// same program (only wall-clock fields and lane assignments may differ,
/// and those are excluded from the determinism key).
#[test]
fn observed_parallel_compile_trace_is_deterministic() {
    use dhpf::core::driver::{compile, CompileOptions};

    for kernel in Kernel::ALL {
        let (name, program, bindings) =
            (kernel.name(), kernel.parse(), kernel.bindings(Class::S, 4));
        let mut serial_opts = CompileOptions::new().observed();
        serial_opts.bindings = bindings.clone();
        serial_opts.granularity = 4;
        let par_opts = serial_opts.clone().parallel(4);

        let serial = compile(&program, &serial_opts).expect("serial compile");
        let parallel = compile(&program, &par_opts).expect("parallel compile");

        assert!(serial.obs.enabled && parallel.obs.enabled);
        assert_eq!(
            serial.obs.determinism_key(),
            parallel.obs.determinism_key(),
            "{name}: span/decision structure diverged between serial and parallel compile"
        );
        assert_eq!(
            serial.obs.decision_log(&serial.transformed),
            parallel.obs.decision_log(&parallel.transformed),
            "{name}: decision log diverged between serial and parallel compile"
        );
        assert_eq!(
            serial.obs.decision_json(&serial.transformed),
            parallel.obs.decision_json(&parallel.transformed),
            "{name}: decision JSON diverged between serial and parallel compile"
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
