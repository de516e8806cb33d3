//! What `exec_identity.rs` and `compile_identity.rs` share: the fuzz
//! corpus bound to a rank count, FNV-1a-64, and the golden file that is
//! compared — or, under `DHPF_RECORD_GOLDEN=1`, re-recorded.

use dhpf::fortran::ast::Program;
use dhpf::prelude::*;
use dhpf_fuzz::gen::{adapt_geometry, grid_bindings};

const TESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests");

/// (corpus file, processor-grid rank of its `processors` directive)
const CORPUS: &[(&str, usize)] = &[
    ("call_in_time_loop.f", 1),
    ("if_guarded_nest.f", 1),
    ("localize_init_write.f", 2),
    ("writeback_forward_fusion.f", 1),
];

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Call `case(file, nprocs, program, options)` for every corpus program
/// at every rank count, file-major.
pub fn for_each_corpus_case(
    rank_counts: &[i64],
    mut case: impl FnMut(&str, usize, &Program, CompileOptions),
) {
    for (file, grid_rank) in CORPUS {
        let src = std::fs::read_to_string(format!("{TESTS}/fuzz_corpus/{file}")).expect("corpus");
        let program = parse(&src).expect("corpus file parses");
        for &nprocs in rank_counts {
            let mut opts = CompileOptions::new();
            opts.bindings = grid_bindings(&adapt_geometry(&[nprocs], *grid_rank))
                .into_iter()
                .collect();
            case(file, nprocs as usize, &program, opts);
        }
    }
}

/// `now` must equal `tests/golden/<name>` byte for byte.
pub fn check_golden(name: &str, now: &str) {
    let path = format!("{TESTS}/golden/{name}");
    if std::env::var_os("DHPF_RECORD_GOLDEN").is_some() {
        std::fs::write(&path, now).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file");
    assert_eq!(now, golden, "drifted from tests/golden/{name}");
}
