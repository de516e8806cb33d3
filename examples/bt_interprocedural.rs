//! BT and §6: show the interprocedural CP selection at work. The block
//! solves call `matvec_*` / `matmul_*` / `binvc` leaf routines from
//! inside the sweep loops; the compiler summarizes each leaf's entry CP,
//! translates it to the call sites and inlines — then verifies the
//! whole benchmark against the serial interpreter.
//!
//! ```sh
//! cargo run --release -p dhpf --example bt_interprocedural
//! ```

use dhpf::depend::callgraph::CallGraph;
use dhpf::prelude::*;

fn main() {
    let program = dhpf::nas::Kernel::Bt.parse();

    // the call graph the §6 bottom-up walk follows
    let graph = CallGraph::build(&program);
    println!("call graph (bottom-up order):");
    for unit in graph.bottom_up().expect("acyclic") {
        let callees: Vec<&str> = graph.calls[unit].iter().map(|s| s.as_str()).collect();
        if callees.is_empty() {
            println!("  {unit:<12} (leaf)");
        } else {
            println!("  {unit:<12} -> {}", callees.join(", "));
        }
    }

    // compile and run on 4 processors; verify against the serial run
    let nprocs = 4;
    let class = Class::S;
    let serial = dhpf::nas::Kernel::Bt.run_serial_reference(class);
    let r = dhpf::nas::Kernel::Bt.run_dhpf(class, nprocs, MachineConfig::sp2(nprocs));
    let su = &serial.arrays["u"];
    let pu = &r.arrays["u"];
    let worst = su
        .data
        .iter()
        .zip(&pu.data)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    println!(
        "\nBT class {} on {nprocs} procs: virtual time {:.4}s, {} messages",
        class.name(),
        r.run.virtual_time,
        r.run.stats.messages
    );
    println!("max |serial - parallel| over u: {worst:.3e}");
    assert!(worst < 1e-9);
    println!("OK: 5x5 block-tridiagonal sweeps with inlined leaf calls verified.");
}
