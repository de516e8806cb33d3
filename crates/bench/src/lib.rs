//! # dhpf-bench — the paper's evaluation harness
//!
//! One library behind one entry point, `dhpf bench <subcommand>`:
//!
//! * `table --nas sp|bt [--fast]` — Tables 8.1 / 8.2: execution time,
//!   relative speedup and relative efficiency of hand-written MPI
//!   (multipartitioning), dHPF-compiled, and the transpose-based pghpf
//!   stand-in, for Class A and B across processor counts.
//! * `figure --nas sp|bt --version hand|dhpf|pgi [--nprocs N] [--width W]
//!   [--csv]` — Figures 8.1–8.4: per-processor space-time diagrams of
//!   one benchmark timestep.
//! * `flags [--out PATH]` — the one on/off study (§3, §4, §5, §7
//!   claims): every configuration of [`OptFlags::lattice`] on SP and BT,
//!   plus the pipeline-granularity sweep; writes `BENCH_flags.json`.
//! * `plan-stats [--listing]` — static communication-plan statistics.
//! * `compile [--quick] [--out PATH]` — cold/warm/traced compile wall
//!   time; writes `BENCH_compile.json`.
//!
//! Every subcommand goes through one runner ([`run`]) producing one row
//! type ([`Measurement`]); both JSON documents come from one writer
//! ([`render`]) and store measured values only — deltas, speedups and
//! percentages are for the reader (or a test) to derive from the rows.
//!
//! `cargo bench -p dhpf-bench` additionally runs Criterion microbenches
//! of the compiler substrates.

pub mod compile;
pub mod flags;

use dhpf_core::codegen::emit::{listing, plan_stats};
use dhpf_core::comm::CommReport;
use dhpf_core::driver::{compile as compile_program, CompileOptions, OptFlags};
use dhpf_core::exec::node::run_node_program;
use dhpf_nas::{Class, Kernel, Unrunnable};
use dhpf_obs::json::escape;
use dhpf_spmd::machine::{MachineConfig, RunResult};
use dhpf_spmd::trace::{render_spacetime, to_csv, utilization_summary, EventKind, Trace};
use std::fmt::Write;

/// Which implementation of a kernel to measure.
#[derive(Clone, Debug)]
pub enum Config {
    /// Hand-written MPI with multipartitioning.
    Hand,
    /// The transpose-based `pghpf` stand-in.
    Pgi,
    /// Compiled by dHPF.
    Dhpf {
        label: String,
        flags: OptFlags,
        granularity: i64,
    },
}

impl Config {
    /// The full compiler at the default pipeline granularity.
    pub fn dhpf() -> Config {
        Config::flags("dhpf", OptFlags::default())
    }

    pub fn flags(label: &str, flags: OptFlags) -> Config {
        Config::Dhpf {
            label: label.to_string(),
            flags,
            granularity: CompileOptions::new().granularity,
        }
    }

    pub fn label(&self) -> &str {
        match self {
            Config::Hand => "hand",
            Config::Pgi => "pgi",
            Config::Dhpf { label, .. } => label,
        }
    }
}

impl std::str::FromStr for Config {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hand" => Ok(Config::Hand),
            "dhpf" => Ok(Config::dhpf()),
            "pgi" => Ok(Config::Pgi),
            other => Err(format!("unknown version {other} (hand, dhpf or pgi)")),
        }
    }
}

/// One measured configuration: a row of every table and document.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub kernel: Kernel,
    pub class: Class,
    pub nprocs: usize,
    /// [`Config::label`] of the configuration measured.
    pub config: String,
    pub outcome: Outcome,
}

#[derive(Clone, Debug)]
pub enum Outcome {
    /// Executed on the virtual machine.
    Ran(Ran),
    /// The compiler declined the configuration: a flag-off lattice point
    /// may need the disabled optimization to be compilable at all.
    Declined(String),
    /// Compile wall time (no execution).
    Compiled(compile::Timing),
}

#[derive(Clone, Debug)]
pub struct Ran {
    /// Virtual seconds for the whole run.
    pub time: f64,
    pub messages: u64,
    pub bytes: u64,
    /// The compiler's communication report (dHPF configurations only).
    pub report: Option<CommReport>,
}

impl Measurement {
    pub fn ran(&self) -> Option<&Ran> {
        match &self.outcome {
            Outcome::Ran(r) => Some(r),
            _ => None,
        }
    }
}

/// Measure one configuration. `Err` when a hand-written version cannot
/// run at this processor count; a declined compile is a row, not an
/// error.
pub fn run(
    kernel: Kernel,
    class: Class,
    nprocs: usize,
    config: &Config,
    trace: bool,
) -> Result<(Measurement, Vec<Trace>), Unrunnable> {
    let mut machine = MachineConfig::sp2(nprocs);
    machine.trace = trace;
    let ran = |run: RunResult, report| {
        let ran = Ran {
            time: run.virtual_time,
            messages: run.stats.messages,
            bytes: run.stats.bytes,
            report,
        };
        (Outcome::Ran(ran), run.traces)
    };
    let (outcome, traces) = match config {
        Config::Hand => ran(kernel.hand(class, nprocs, machine)?.run, None),
        Config::Pgi => ran(kernel.transpose(class, nprocs, machine)?.run, None),
        Config::Dhpf {
            flags, granularity, ..
        } => {
            let mut opts = CompileOptions::new();
            opts.bindings = kernel.bindings(class, nprocs);
            opts.granularity = *granularity;
            opts.flags = *flags;
            match compile_program(&kernel.parse(), &opts) {
                Ok(compiled) => {
                    let exec = run_node_program(&compiled.program, machine)
                        .expect("a program the compiler accepted executes");
                    ran(exec.run, Some(compiled.report))
                }
                Err(e) => (Outcome::Declined(e.to_string()), Vec::new()),
            }
        }
    };
    let row = Measurement {
        kernel,
        class,
        nprocs,
        config: config.label().to_string(),
        outcome,
    };
    Ok((row, traces))
}

/// The `dhpf-bench-v1` document: one object per row — its key (kernel,
/// class, nprocs, config), then what was measured.
pub fn render(study: &str, rows: &[Measurement]) -> String {
    let mut out =
        format!("{{\n  \"schema\": \"dhpf-bench-v1\",\n  \"study\": \"{study}\",\n  \"rows\": [");
    for (i, m) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{ \"kernel\": \"{}\", \"class\": \"{}\", \"nprocs\": {}, \"config\": \"{}\", ",
            if i > 0 { "," } else { "" },
            m.kernel.name(),
            m.class.name(),
            m.nprocs,
            m.config,
        );
        match &m.outcome {
            Outcome::Ran(r) => {
                let _ = write!(
                    out,
                    "\"virtual_s\": {:.9}, \"messages\": {}, \"bytes\": {}",
                    r.time, r.messages, r.bytes
                );
                if let Some(c) = &r.report {
                    let _ = write!(
                        out,
                        ", \"overlapped_nests\": {}, \"messages_saved\": {}, \
                         \"reads_eliminated_by_availability\": {}, \
                         \"writebacks_suppressed_by_replication\": {}",
                        c.overlapped_nests,
                        c.messages_saved,
                        c.reads_eliminated_by_availability,
                        c.writebacks_suppressed_by_replication,
                    );
                }
            }
            Outcome::Declined(why) => {
                let _ = write!(out, "\"declined\": \"{}\"", escape(why));
            }
            Outcome::Compiled(t) => {
                let _ = write!(
                    out,
                    "\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"traced_cold_ms\": {:.3}, \
                     \"cache_hit_rate\": {}, \"peak_interned_nodes\": {},\n      \"phases\": {{ ",
                    t.cold_ms,
                    t.warm_ms,
                    t.traced_cold_ms,
                    t.cache_hit_rate
                        .map_or("null".to_string(), |r| format!("{r:.4}")),
                    t.peak_interned_nodes,
                );
                for (j, (phase, ms)) in t.phases.iter().enumerate() {
                    let sep = if j > 0 { ", " } else { "" };
                    let _ = write!(out, "{sep}\"{phase}\": {ms:.3}");
                }
                out.push_str(" }");
            }
        }
        out.push_str(" }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Tables 8.1 / 8.2 for one kernel, to stdout (progress to stderr).
/// `fast` is the CI-sized run: class W on 1/4/9 processors.
pub fn table(kernel: Kernel, fast: bool) {
    let (classes, procs): (&[Class], &[usize]) = if fast {
        (&[Class::W], &[1, 4, 9])
    } else {
        (&[Class::A, Class::B], &[1, 2, 4, 8, 9, 16, 25, 32])
    };
    let name = kernel.name().to_uppercase();
    let mut results = Vec::new();
    for &c in classes {
        for &p in procs {
            for config in [Config::Hand, Config::dhpf(), Config::Pgi] {
                // a hand-written version that cannot run at this count
                // is a `-` cell
                let Ok((m, _)) = run(kernel, c, p, &config, false) else {
                    continue;
                };
                let r = m.ran().expect("the full compiler accepts the NAS sources");
                eprintln!(
                    "{name} {} class {} P={p}: {:.4}s  msgs={} bytes={}",
                    m.config,
                    c.name(),
                    r.time,
                    r.messages,
                    r.bytes
                );
                results.push(m);
            }
        }
    }
    print_table(&name, procs, classes, &results);
}

/// Print a paper-style comparison table (Table 8.1 / 8.2 format):
/// execution time, relative speedup (vs. the smallest hand-written run,
/// assumed perfect) and relative efficiency.
fn print_table(name: &str, rows: &[usize], classes: &[Class], results: &[Measurement]) {
    let find = |v: &str, c: Class, p: usize| {
        results
            .iter()
            .find(|m| m.config == v && m.class == c && m.nprocs == p)
            .and_then(|m| m.ran())
            .map(|r| r.time)
    };
    let serial_equiv = |c: Class| {
        rows.iter()
            .find_map(|&p| find("hand", c, p).map(|t| t * p as f64))
    };
    let ratio = |num: Option<f64>, den: Option<f64>| num.zip(den).map(|(n, d)| n / d);
    let cell = |x: Option<f64>, width: usize, prec: usize| match x {
        Some(x) => format!("{x:width$.prec$}"),
        None => format!("{:>width$}", "-"),
    };
    let per_class = |f: &dyn Fn(Class) -> String, sep: &str| {
        let cells: Vec<String> = classes.iter().map(|&c| f(c)).collect();
        cells.join(sep)
    };

    println!(
        "\n=== Table: {name} — execution time (virtual s), relative speedup, relative efficiency ==="
    );
    println!(
        "(speedups relative to the smallest hand-written run, assumed perfect, as in the paper)\n"
    );
    let chdr = per_class(&|c| format!("Class {}", c.name()), "/");
    println!(
        "{:>6} | {:^29} | {:^29} | {:^29} | {:^21} | {:^21}",
        "procs",
        format!("hand-written {chdr}"),
        format!("dHPF {chdr}"),
        format!("PGI-style {chdr}"),
        "rel.speedup dHPF",
        "rel.eff dHPF/PGI"
    );
    for &p in rows {
        let times = |v: &str| per_class(&|c| cell(find(v, c, p), 9, 4), " /");
        let eff = |v: &str, c| cell(ratio(find("hand", c, p), find(v, c, p)), 4, 2);
        println!(
            "{:>6} | {:^29} | {:^29} | {:^29} | {:^21} | {:^21}",
            p,
            times("hand"),
            times("dhpf"),
            times("pgi"),
            per_class(
                &|c| cell(ratio(serial_equiv(c), find("dhpf", c, p)), 6, 2),
                "  "
            ),
            per_class(&|c| format!("{}|{}", eff("dhpf", c), eff("pgi", c)), "  ")
        );
    }
}

/// Figures 8.1–8.4: the space-time diagram of the last class-W timestep
/// of one version, to stdout.
pub fn figure(
    kernel: Kernel,
    config: &Config,
    nprocs: usize,
    width: usize,
    csv: bool,
) -> Result<(), Unrunnable> {
    let (m, traces) = run(kernel, Class::W, nprocs, config, true)?;
    let r = m.ran().expect("the full compiler accepts the NAS sources");
    // window = the last timestep: from the final compute_rhs phase marker
    // on rank 0 to the end of the run
    let t_start = traces[0]
        .events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Phase(p) if p == "compute_rhs"))
        .map(|e| e.t0)
        .fold(0.0f64, f64::max);
    println!(
        "{} {} on {} procs: total {:.4}s, {} messages, {} bytes",
        kernel.name().to_uppercase(),
        m.config,
        nprocs,
        r.time,
        r.messages,
        r.bytes
    );
    println!("{}", render_spacetime(&traces, t_start, r.time, width));
    println!("{}", utilization_summary(&traces));
    if csv {
        println!("{}", to_csv(&traces));
    }
    Ok(())
}

/// Communication-plan statistics per kernel and processor count: the
/// raw inputs behind the paper's §8 discussion (message counts, exchange
/// volumes, pipeline structure, guard density). `with_listing` adds the
/// 4-processor node-program listings.
pub fn print_plan_stats(with_listing: bool) {
    println!(
        "{:<6} {:>5} {:>10} {:>10} {:>12} {:>10} {:>14}",
        "bench", "procs", "exchanges", "messages", "elements", "pipelines", "guarded/stmts"
    );
    for kernel in Kernel::ALL {
        for procs in [1usize, 4, 9, 16] {
            let compiled = kernel.compile_dhpf(Class::W, procs, None);
            let st = plan_stats(&compiled.program);
            println!(
                "{:<6} {:>5} {:>10} {:>10} {:>12} {:>10} {:>9}/{}",
                kernel.name().to_uppercase(),
                procs,
                st.exchanges,
                st.exchange_messages,
                st.exchange_elements,
                st.pipelines,
                st.guarded_statements,
                st.statements
            );
            if with_listing && procs == 4 {
                println!("{}", listing(&compiled.program));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_declined_configuration_is_a_row_with_its_reason() {
        let row = Measurement {
            kernel: Kernel::Sp,
            class: Class::S,
            nprocs: 4,
            config: "no-localize".to_string(),
            outcome: Outcome::Declined("inner-loop \"communication\"".to_string()),
        };
        assert!(row.ran().is_none());
        assert_eq!(
            render("flags", &[row]),
            "{\n  \"schema\": \"dhpf-bench-v1\",\n  \"study\": \"flags\",\n  \"rows\": [\n    \
             { \"kernel\": \"sp\", \"class\": \"S\", \"nprocs\": 4, \"config\": \"no-localize\", \
             \"declined\": \"inner-loop \\\"communication\\\"\" }\n  ]\n}\n"
        );
    }
}
