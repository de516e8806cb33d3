//! Criterion microbenches of the compiler substrates.
use criterion::{criterion_group, criterion_main, Criterion};
use dhpf_core::exec::node::run_node_program;
use dhpf_iset::{Constraint, LinExpr, Set};
use dhpf_spmd::machine::{Machine, MachineConfig};
use std::hint::black_box;

fn bench_iset(c: &mut Criterion) {
    c.bench_function("iset_subtract_subset", |b| {
        let a = Set::rect(&["i", "j"], &[1, 1], &[64, 64]);
        let inner = Set::rect(&["i", "j"], &[8, 8], &[56, 56]);
        b.iter(|| black_box(a.subtract(&inner).is_empty()))
    });
    c.bench_function("iset_symbolic_subset", |b| {
        let read = Set::from_constraints(
            &["d"],
            [Constraint::eq(LinExpr::var("d"), LinExpr::var("M") + 1)],
        );
        let write = Set::from_constraints(
            &["d"],
            [
                Constraint::ge(LinExpr::var("d"), LinExpr::var("M") + 1),
                Constraint::le(LinExpr::var("d"), LinExpr::var("M") + 2),
            ],
        );
        b.iter(|| black_box(read.is_subset(&write)))
    });
}

fn bench_frontend(c: &mut Criterion) {
    let src = dhpf_nas::sp::source();
    c.bench_function("parse_sp_source", |b| {
        b.iter(|| black_box(dhpf_fortran::parse(&src).unwrap()))
    });
}

fn bench_compile(c: &mut Criterion) {
    c.bench_function("compile_sp_class_s_4procs", |b| {
        b.iter(|| black_box(dhpf_nas::Kernel::Sp.compile_dhpf(dhpf_nas::Class::S, 4, None)))
    });
}

fn bench_machine(c: &mut Criterion) {
    c.bench_function("machine_ring_1000_msgs", |b| {
        b.iter(|| {
            let r = Machine::run(MachineConfig::sp2(4), |p| {
                let next = (p.rank() + 1) % p.nprocs();
                let prev = (p.rank() + p.nprocs() - 1) % p.nprocs();
                for i in 0..250 {
                    p.send(next, i, vec![0.0; 16]);
                    p.recv(prev, i);
                }
            });
            black_box(r.virtual_time)
        })
    });
    // the node-program interpreter alone: lowering plus execution of a
    // precompiled BT class S program on one rank (no messages)
    let bt = dhpf_nas::Kernel::Bt.compile_dhpf(dhpf_nas::Class::S, 1, None);
    c.bench_function("interp_bt_class_s_1proc", |b| {
        b.iter(|| {
            let r = run_node_program(&bt.program, MachineConfig::sp2(1)).unwrap();
            black_box(r.run.virtual_time)
        })
    });
}

criterion_group!(
    benches,
    bench_iset,
    bench_frontend,
    bench_compile,
    bench_machine
);
criterion_main!(benches);
