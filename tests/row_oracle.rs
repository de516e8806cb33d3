//! The identity oracle of the image-row builder: on every reference of
//! every unit, `avail::accessed_row` — the bounds path where it applies —
//! must give on each rank the very set (`==`, same disjuncts in the same
//! order) `avail::accessed_set`'s constraints give. Programs are taken as
//! the compiler leaves them (`Compiled::transformed`, with the final CPs
//! and distributions of `Compiled::analyses`): NAS SP and BT at three
//! classes on six geometries, the fuzz corpus, and pinned-seed generated
//! programs. Random nests and CPs are in `dhpf_core::avail`'s own tests.

use dhpf_core::avail::{accessed_row, accessed_set, nest_bounds};
use dhpf_core::driver::{compile, CompileOptions, Compiled};
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::UnitRefs;
use dhpf_fortran::parse;
use dhpf_fortran::symtab;
use dhpf_fuzz::{adapt_geometry, generate, grid_bindings, program_seed, GenOptions};
use dhpf_nas::{Class, Kernel};

/// Hold every reference of every unit of `c` to the constraint path;
/// the number of rows checked.
fn check(c: &Compiled, what: &str) -> usize {
    let (tabs, _) = symtab::resolve(&c.transformed);
    let mut rows = 0;
    for (uname, ua) in &c.analyses {
        let (Some(unit), Some(grid)) = (c.transformed.unit(uname), ua.env.grid.as_ref()) else {
            continue;
        };
        let tab = tabs.get(uname).cloned().unwrap_or_default();
        let (loops, refs) = (UnitLoops::build(unit), UnitRefs::build(unit, &tab));
        for r in &refs.refs {
            let Some(nest) = nest_bounds(r.stmt, &loops) else {
                continue;
            };
            let cp = ua.cps.get(&r.stmt).cloned().unwrap_or_default();
            let row = accessed_row(r, &cp, &nest, &ua.env, grid);
            let per_rank: Option<Vec<_>> = (grid.ranks())
                .map(|k| accessed_set(r, &cp, &nest, &ua.env, &grid.coords(k)))
                .collect();
            assert_eq!(row, per_rank, "{what}: unit {uname}, ref {:?}", r.id);
            rows += 1;
        }
    }
    rows
}

#[test]
fn nas_sp_and_bt_match_the_constraint_path() {
    for kernel in [Kernel::Sp, Kernel::Bt] {
        let program = kernel.parse();
        for class in [Class::S, Class::W, Class::A] {
            // 1, 2x2, 4x4, 1x5, 2x5, 3x3
            for nprocs in [1, 4, 16, 5, 10, 9] {
                let what = format!("{} {class:?} at {nprocs}", kernel.name());
                let mut opts = CompileOptions::new();
                opts.bindings = kernel.bindings(class, nprocs);
                match compile(&program, &opts) {
                    Ok(c) => assert!(check(&c, &what) > 100, "{what}: too few references"),
                    // five ranks leave the last block of an 8- or 12-point
                    // extent empty, which the compiler refuses
                    Err(e) => assert!(
                        class != Class::A
                            && nprocs % 5 == 0
                            && e.to_string().contains("empty block"),
                        "{what}: {e}"
                    ),
                }
            }
        }
    }
}

/// Compile `src` on the 4-processor geometry adapted to its grid rank.
fn compiled(src: &str, grid_rank: usize) -> Option<Compiled> {
    let program = parse(src).ok()?;
    let mut opts = CompileOptions::new();
    opts.bindings = grid_bindings(&adapt_geometry(&[4], grid_rank))
        .into_iter()
        .collect();
    compile(&program, &opts).ok()
}

#[test]
fn fuzz_corpus_matches_the_constraint_path() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fuzz_corpus");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_none_or(|e| e != "f") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("corpus file");
        // the corpus uses 1-D and 2-D grids; the directive decides which
        // geometry compiles
        let c = (1..=2).find_map(|rank| compiled(&src, rank));
        let c = c.unwrap_or_else(|| panic!("{} does not compile", path.display()));
        assert!(check(&c, &path.display().to_string()) > 0);
        files += 1;
    }
    assert!(files >= 4);
}

#[test]
fn generated_programs_match_the_constraint_path() {
    for k in 0..200 {
        let spec = generate(program_seed(20260806, k), &GenOptions::default());
        let c = compiled(&spec.render(), spec.grid_rank)
            .unwrap_or_else(|| panic!("generated program {k} does not compile"));
        check(&c, &format!("generated program {k}"));
    }
}
