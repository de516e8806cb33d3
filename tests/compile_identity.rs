//! Byte identity of what the compiler emits and of why it says so.
//!
//! `tests/golden/compile_identity.txt` was recorded on the parent of the
//! commit that made `driver.rs` one ordered pass table (PR 16), and its
//! 16-rank rows on the parent of the commit that builds boxes by their
//! bounds: for NAS SP/BT class S at 1, 4, 6 (2x3) and 16 (4x4) ranks and
//! the fuzz-corpus repros it pins the length and an FNV-1a-64 hash of
//! `Compiled::fingerprint()` (node program, CP assignments, communication
//! report, transformed AST with every synthesized id) and of the decision
//! log. A change to unit order, id allocation, CP choice or plan shows up
//! as a byte difference.
//!
//! Re-record (only when a change legitimately moves what dhpf emits)
//! with `DHPF_RECORD_GOLDEN=1 cargo test --release -p dhpf --test
//! compile_identity`.

#[path = "identity_common.rs"]
mod common;

use dhpf::core::driver::Compiled;
use dhpf::nas::Kernel;
use dhpf::prelude::*;

fn fnv1a64(text: &str) -> u64 {
    let mut hash = common::FNV_OFFSET;
    common::fnv1a64(&mut hash, text.as_bytes());
    hash
}

fn identity_line(label: &str, nprocs: usize, compiled: &Compiled) -> String {
    let fp = compiled.fingerprint();
    let log = compiled.obs.decision_log(&compiled.transformed);
    format!(
        "{label} p={nprocs} fingerprint={}:{:016x} decisions={}:{:016x}\n",
        fp.len(),
        fnv1a64(&fp),
        log.len(),
        fnv1a64(&log)
    )
}

fn current() -> String {
    let mut out = String::new();
    for kernel in Kernel::ALL {
        let program = kernel.parse();
        for nprocs in [1usize, 4, 6, 16] {
            let mut opts = CompileOptions::new().observed();
            opts.bindings = kernel.bindings(Class::S, nprocs);
            let compiled = compile(&program, &opts).expect("NAS kernel compiles");
            let label = format!("nas-{}-S", kernel.name());
            out.push_str(&identity_line(&label, nprocs, &compiled));
        }
    }
    common::for_each_corpus_case(&[4], |file, nprocs, program, opts| {
        let compiled = compile(program, &opts.observed()).expect("corpus file compiles");
        out.push_str(&identity_line(file, nprocs, &compiled));
    });
    out
}

#[test]
fn compilation_matches_recorded_identity() {
    common::check_golden("compile_identity.txt", &current());
}
