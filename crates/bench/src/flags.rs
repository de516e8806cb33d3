//! The on/off study (§3 overlap, §4.1, §4.2, §5, §7 availability and
//! aggregation): SP and BT, classes S and W, 4 ranks, compiled under
//! every configuration of [`OptFlags::lattice`] and executed on the
//! LogGP virtual machine; then the SP class W pipeline-granularity
//! sweep. Everything is *virtual* time from the deterministic machine
//! model, so the document is byte-reproducible and checked in as
//! `BENCH_flags.json`; `tests/flags.rs` holds the paper's claims over
//! the rows and the checked-in copy to the regenerated one.

use crate::{run, Config, Measurement};
use dhpf_core::driver::OptFlags;
use dhpf_nas::{Class, Kernel};

const NPROCS: usize = 4;

/// Strip sizes of the granularity sweep; the last is "whole block" (one
/// strip, fully serialized sweeps).
const GRANULARITIES: [i64; 6] = [1, 2, 4, 8, 16, 1_000_000];

/// Every row of the study, in document order.
pub fn study() -> Vec<Measurement> {
    let mut rows = Vec::new();
    let mut measure = |kernel, class, config: Config| {
        let (row, _) = run(kernel, class, NPROCS, &config, false).expect("dHPF runs at any count");
        rows.push(row);
    };
    for kernel in Kernel::ALL {
        for class in [Class::S, Class::W] {
            for (label, flags) in OptFlags::lattice() {
                measure(kernel, class, Config::flags(label, flags));
            }
        }
    }
    // §8.1 / conclusions: pipeline granularity selection. The paper
    // applies ONE uniform granularity and names per-pipeline selection
    // as future work; the sweep is the data that motivates it.
    for granularity in GRANULARITIES {
        let label = match granularity {
            1_000_000 => "granularity-whole-block".to_string(),
            g => format!("granularity-{g}"),
        };
        let config = Config::Dhpf {
            label,
            flags: OptFlags::default(),
            granularity,
        };
        measure(Kernel::Sp, Class::W, config);
    }
    rows
}

/// The row of one `(kernel, class, config)`.
pub fn find<'a>(
    rows: &'a [Measurement],
    kernel: Kernel,
    class: Class,
    config: &str,
) -> &'a Measurement {
    rows.iter()
        .find(|m| m.kernel == kernel && m.class == class && m.config == config)
        .unwrap_or_else(|| panic!("no {} class {} {config} row", kernel.name(), class.name()))
}

/// The study as the table EXPERIMENTS.md embeds.
pub fn print(rows: &[Measurement]) {
    println!(
        "bench  class configuration              time (s)  messages     bytes \
         ovl nests msgs saved  availOK  replOK"
    );
    for m in rows {
        let key = format!(
            "{:<6} {:<5} {:<22}",
            m.kernel.name(),
            m.class.name(),
            m.config
        );
        match m.ran().and_then(|r| r.report.map(|c| (r, c))) {
            Some((r, c)) => println!(
                "{key} {:>12.6} {:>9} {:>9} {:>9} {:>10} {:>8} {:>7}",
                r.time,
                r.messages,
                r.bytes,
                c.overlapped_nests,
                c.messages_saved,
                c.reads_eliminated_by_availability,
                c.writebacks_suppressed_by_replication
            ),
            None => println!("{key} declined"),
        }
    }
}
