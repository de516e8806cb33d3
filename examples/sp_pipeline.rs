//! Run the dHPF-compiled SP benchmark on 9 virtual processors and show
//! the wavefront pipelining of the y/z line solves as a space-time
//! diagram (the Figure 8.2 view).
//!
//! ```sh
//! cargo run --release -p dhpf --example sp_pipeline
//! ```

use dhpf::prelude::*;
use dhpf::spmd::trace::EventKind;

fn main() {
    let nprocs = 9;
    let class = Class::W;
    let mut machine = MachineConfig::sp2(nprocs).with_trace();
    machine.trace = true;

    let compiled = dhpf::nas::Kernel::Sp.compile_dhpf(class, nprocs, None);
    println!(
        "SP class {} compiled for {} procs: {} pre-exchange messages planned, \
         {} reads eliminated by data availability (§7)",
        class.name(),
        nprocs,
        compiled.report.pre_messages,
        compiled.report.reads_eliminated_by_availability
    );
    let r = run_node_program(&compiled.program, machine).expect("run");
    println!(
        "virtual time {:.4}s, {} messages, {} KiB moved",
        r.run.virtual_time,
        r.run.stats.messages,
        r.run.stats.bytes / 1024
    );

    // window: the last timestep (from the final compute_rhs marker)
    let t0 = r.run.traces[0]
        .events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Phase(p) if p == "compute_rhs"))
        .map(|e| e.t0)
        .fold(0.0f64, f64::max);
    println!(
        "{}",
        render_spacetime(&r.run.traces, t0, r.run.virtual_time, 120)
    );
    println!("{}", utilization_summary(&r.run.traces));
    println!("The staircase pattern in the middle of the row is the coarse-grain");
    println!("pipeline of the y/z solves; '~' marks processors stalled waiting for");
    println!("the wavefront to reach them (compare Figure 8.2 of the paper).");
}
