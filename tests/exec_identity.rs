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
//! Re-record (only when a *compiler* change legitimately moves these
//! figures) with `DHPF_RECORD_GOLDEN=1 cargo test --release -p dhpf
//! --test exec_identity`.

use dhpf::core::driver::Compiled;
use dhpf::prelude::*;
use dhpf_fuzz::gen::{adapt_geometry, grid_bindings};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/exec_identity.txt"
);

/// (corpus file, processor-grid rank of its `processors` directive)
const CORPUS: &[(&str, usize)] = &[
    ("call_in_time_loop.f", 1),
    ("if_guarded_nest.f", 1),
    ("localize_init_write.f", 2),
    ("writeback_forward_fusion.f", 1),
];

fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn identity_line(label: &str, nprocs: usize, compiled: &Compiled) -> String {
    let r = run_node_program(&compiled.program, MachineConfig::sp2(nprocs))
        .unwrap_or_else(|e| panic!("{label} at {nprocs} ranks: {e}"));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
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
        let sp = dhpf::nas::sp::compile_dhpf(Class::S, nprocs, None);
        out.push_str(&identity_line("nas-sp-S", nprocs, &sp));
        let bt = dhpf::nas::bt::compile_dhpf(Class::S, nprocs, None);
        out.push_str(&identity_line("nas-bt-S", nprocs, &bt));
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fuzz_corpus");
    for (file, grid_rank) in CORPUS {
        let src = std::fs::read_to_string(format!("{dir}/{file}")).expect("corpus file");
        let program = parse(&src).expect("corpus file parses");
        for nprocs in [1i64, 4] {
            let adapted = adapt_geometry(&[nprocs], *grid_rank);
            let mut opts = CompileOptions::new();
            opts.bindings = grid_bindings(&adapted).into_iter().collect();
            let compiled = compile(&program, &opts).expect("corpus file compiles");
            out.push_str(&identity_line(file, nprocs as usize, &compiled));
        }
    }
    out
}

#[test]
fn execution_matches_recorded_identity() {
    let now = current();
    if std::env::var_os("DHPF_RECORD_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &now).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/exec_identity.txt");
    assert_eq!(
        now, golden,
        "execution drifted from tests/golden/exec_identity.txt"
    );
}
