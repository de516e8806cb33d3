//! Bitwise execution identity of the node-program interpreter.
//!
//! `tests/golden/exec_identity.txt` was recorded with the tree-walking
//! evaluator that preceded the tape (PR 13): for NAS SP/BT class S and
//! the fuzz-corpus repros at 1 and 4 ranks it pins the virtual time's
//! bit pattern, the message and byte counts, and an FNV-1a-64 hash over
//! the bit patterns of every stitched array. Any change to the order of
//! floating-point operations, to when `work()` is charged, or to the
//! message protocol shows up here as a byte difference.
//!
//! The `arrays=` hash of the two `nas-bt-S` rows was re-recorded once
//! since: the inliner stopped cloning the COMMON arrays of inlined
//! leaves into the caller, so 242 names of never-referenced, all-zero
//! arrays left the stitched map (257 → 15). Hashing only the 15
//! surviving names on the commit before reproduces the new hashes, and
//! `virtual_time`, `messages` and `bytes` did not move.
//!
//! Re-record (only when a *compiler* change legitimately moves these
//! figures) with `DHPF_RECORD_GOLDEN=1 cargo test --release -p dhpf
//! --test exec_identity`.

#[path = "identity_common.rs"]
mod common;

use common::{fnv1a64, FNV_OFFSET};
use dhpf::core::driver::Compiled;
use dhpf::prelude::*;

fn identity_line(label: &str, nprocs: usize, compiled: &Compiled) -> String {
    let r = run_node_program(&compiled.program, MachineConfig::sp2(nprocs))
        .unwrap_or_else(|e| panic!("{label} at {nprocs} ranks: {e}"));
    let mut hash = FNV_OFFSET;
    // BTreeMap order: array names ascending, data in column-major order
    for (name, arr) in &r.arrays {
        fnv1a64(&mut hash, name.as_bytes());
        for v in &arr.data {
            fnv1a64(&mut hash, &v.to_bits().to_le_bytes());
        }
    }
    format!(
        "{label} p={nprocs} virtual_time={:016x} messages={} bytes={} arrays={:016x}\n",
        r.run.virtual_time.to_bits(),
        r.run.stats.messages,
        r.run.stats.bytes,
        hash
    )
}

fn current() -> String {
    let mut out = String::new();
    for nprocs in [1usize, 4] {
        let sp = dhpf::nas::Kernel::Sp.compile_dhpf(Class::S, nprocs, None);
        out.push_str(&identity_line("nas-sp-S", nprocs, &sp));
        let bt = dhpf::nas::Kernel::Bt.compile_dhpf(Class::S, nprocs, None);
        out.push_str(&identity_line("nas-bt-S", nprocs, &bt));
    }
    common::for_each_corpus_case(&[1, 4], |file, nprocs, program, opts| {
        let compiled = compile(program, &opts).expect("corpus file compiles");
        out.push_str(&identity_line(file, nprocs, &compiled));
    });
    out
}

#[test]
fn execution_matches_recorded_identity() {
    common::check_golden("exec_identity.txt", &current());
}
