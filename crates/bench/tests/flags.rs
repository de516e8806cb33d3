//! The paper's on/off claims over the typed rows of the `flags` study,
//! and the checked-in `BENCH_flags.json` against the regenerated one.
//! One test, because the study (42 compile-and-run configurations) is
//! the expensive part.

use dhpf_bench::flags::{find, study};
use dhpf_bench::{render, Measurement, Ran};
use dhpf_core::comm::CommReport;
use dhpf_nas::{Class, Kernel};

fn ran(m: &Measurement) -> (&Ran, CommReport) {
    let r = m.ran().expect("the NAS kernels compile everywhere");
    (r, r.report.expect("dHPF rows carry the comm report"))
}

#[test]
fn flags_study_holds_the_claims_and_matches_the_checked_in_document() {
    let rows = study();
    for kernel in Kernel::ALL {
        for class in [Class::S, Class::W] {
            let at = format!("{} class {}", kernel.name(), class.name());
            let row = |config| ran(find(&rows, kernel, class, config));
            let (on, on_report) = row("all-on");

            // §3: overlap strictly helps wherever an overlappable nest
            // exists, and plans none when switched off
            let (blocking, blocking_report) = row("no-overlap");
            assert_eq!(blocking_report.overlapped_nests, 0, "{at}");
            assert!(on_report.overlapped_nests > 0, "{at}: nothing overlapped");
            assert!(on.time < blocking.time, "{at}: overlap did not help");

            // §7: aggregation strictly cuts the message count and the
            // makespan, and saves nothing when switched off
            let (plain, plain_report) = row("no-aggregate");
            assert_eq!(plain_report.messages_saved, 0, "{at}");
            assert!(on_report.messages_saved > 0, "{at}");
            assert!(on.messages < plain.messages, "{at}");
            assert!(on.time < plain.time, "{at}: aggregation did not help");
            if class == Class::S {
                let cut = 100.0 * (plain.messages - on.messages) as f64 / plain.messages as f64;
                assert!(cut >= 25.0, "{at}: aggregation cut only {cut:.1}%");
            }

            let (_, off) = row("all-off");
            assert_eq!((off.overlapped_nests, off.messages_saved), (0, 0), "{at}");
        }
    }

    // everything is virtual time, so the document is byte-reproducible
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flags.json");
    let checked_in = std::fs::read_to_string(path).expect("read BENCH_flags.json");
    assert!(
        render("flags", &rows) == checked_in,
        "BENCH_flags.json is stale; rerun `dhpf bench flags` at the repository root"
    );
}
