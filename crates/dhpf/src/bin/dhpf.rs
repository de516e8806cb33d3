//! `dhpf` — the command-line front end.
//!
//! Subcommands:
//!
//! * `dhpf explain` — compile with the decision log enabled and print
//!   every CP choice (§4.1/§5/§6), replication (§4.2), and communication
//!   eliminated or retained by availability (§7), each anchored to its
//!   source line. `--json` emits the `dhpf-decisions-v1` document.
//! * `dhpf compile` — compile (and optionally `--run`) with tracing,
//!   writing any of `--trace-out` (Chrome/Perfetto trace JSON covering
//!   the compile and, with `--run`, the SPMD execution), `--metrics-out`
//!   (`dhpf-metrics-v1`), and `--decisions-out` (`dhpf-decisions-v1`).
//! * `dhpf verify-protocol` — compile, then statically verify the
//!   emitted SPMD communication protocol for every rank at once:
//!   send/recv matching, barrier congruence, wait coverage, and symbolic
//!   deadlock. Exit 1 on any violation; `--json` emits the
//!   `dhpf-lint-v1` findings document.
//! * `dhpf profile` — compile, execute on the virtual machine, and run
//!   the cross-rank critical-path profiler: where the makespan went,
//!   which communication nests (source lines, compiler decisions) lost
//!   the time, and what each fix would be worth (what-if replay).
//!   `--json` emits the `dhpf-profile-v1` document; `--perfetto-out`
//!   overlays the critical path as flow events on the execution trace.
//! * `dhpf fuzz` — the generative differential campaign (`dhpf-fuzz`).
//! * `dhpf bench <table|figure|flags|plan-stats|compile>` — the paper's
//!   evaluation harness (`dhpf-bench`): Tables 8.1/8.2, Figures 8.1–8.4,
//!   the optimization on/off study (`BENCH_flags.json`), plan statistics
//!   and the compile-time benchmark (`BENCH_compile.json`).
//!
//! Inputs: `--nas sp|bt --class S|W|A|B --nprocs N`, or a Fortran file
//! with `--bind name=value` for its symbolic sizes.

use dhpf_core::driver::{compile, CompileOptions, Compiled};
use dhpf_core::exec::node::ExecError;
use dhpf_nas::{Class, Kernel};
use dhpf_spmd::machine::MachineConfig;
use dhpf_spmd::trace::Trace;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// `eprintln!` that cannot panic: with standard error closed the note is
/// lost, and the exit code still tells how the command ended.
macro_rules! note {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stderr(), $($arg)*);
    };
}

const USAGE: &str = "\
usage: dhpf <explain|compile|verify-protocol|profile|fuzz|bench> [input] [options]

input (one of):
  --nas sp|bt            built-in NAS mini-benchmark
  FILE.f                 HPF/Fortran source file

options:
  --class S|W|A|B        NAS problem class            [S]
  --nprocs N             processors                   [4]
  --bind NAME=VALUE      bind a symbolic size of FILE.f (repeatable)
  --granularity N        pipeline strip size          [4]
  --no-overlap           disable halo/compute overlap (blocking exchanges)
  --no-aggregate         disable per-peer cross-array message aggregation

explain options:
  --json                 emit the dhpf-decisions-v1 document

compile options:
  --run                  execute on the virtual machine after compiling
  --trace-out FILE       write Chrome/Perfetto trace JSON
  --metrics-out FILE     write the dhpf-metrics-v1 document
  --decisions-out FILE   write the dhpf-decisions-v1 document

verify-protocol options:
  --json                 emit the dhpf-lint-v1 findings document
  --decisions-out FILE   write the dhpf-decisions-v1 document (includes
                         the protocol-verified/-violation records)

profile options:
  --json                 emit the dhpf-profile-v1 document instead of
                         the human report
  --out FILE             write the report/document here (- = stdout)
  --top N                bottleneck nests to rank and what-if [8]
  --perfetto-out FILE    write Chrome/Perfetto trace JSON with the
                         critical path overlaid as flow events
  --metrics-out FILE     write dhpf-metrics-v1 including per-rank
                         exec.busy_ms/stall_ms and exec.imbalance
  (with --no-overlap, the overlap what-if replays the schedule the
   compiler would emit with overlap enabled)

fuzz options (no input file; programs are generated):
  --seed N               master campaign seed          [42]
  --count N              programs to generate          [50]
  --geometries SPEC      comma-separated grids, dims joined by x
                         (e.g. 1,4,2x3)                [1,4,2x3]
  --max-ulps N           float-oracle tolerance        [4]
  --mutate N             mutation self-checks to plant [0]
  --shrink-budget N      shrink attempts per failure   [64]
  --out FILE             write the dhpf-fuzz-v1 JSON report (- = stdout)
  --corpus-out DIR       write each minimized failing program as .f

bench: the evaluation harness; `dhpf bench` lists its subcommands
";

const BENCH_USAGE: &str = "\
usage: dhpf bench <subcommand> [options]

  table --nas sp|bt [--fast]
        Table 8.1 (sp) / 8.2 (bt): hand-written MPI vs dHPF vs PGI-style,
        classes A and B; --fast is class W on 1/4/9 processors
  figure --nas sp|bt --version hand|dhpf|pgi [--nprocs N] [--width W] [--csv]
        Figures 8.1-8.4: space-time diagram of the last class W timestep
        [16 processors, 140 columns]; --csv appends the trace events
  flags [--out FILE]
        every optimization on/off on SP and BT, classes S and W, 4 ranks,
        plus the pipeline granularity sweep  [BENCH_flags.json]
  plan-stats [--listing]
        communication-plan statistics; --listing adds the node programs
  compile [--quick] [--out FILE]
        cold/warm/traced compile wall time  [BENCH_compile.json]
";

struct Args {
    cmd: String,
    nas: Option<Kernel>,
    file: Option<String>,
    class: Class,
    nprocs: usize,
    binds: Vec<(String, i64)>,
    granularity: i64,
    overlap: bool,
    aggregate: bool,
    json: bool,
    run: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    decisions_out: Option<String>,
    out: Option<String>,
    top: usize,
}

/// The value of `flag`: the next argument, parsed.
fn value<T: std::str::FromStr>(
    it: &mut dyn Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = it.next().ok_or(format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `--nprocs N`: a processor count the compiler can lay a grid over.
fn nprocs_value(it: &mut dyn Iterator<Item = String>) -> Result<usize, String> {
    match value(it, "--nprocs")? {
        0 => Err("--nprocs must be at least 1".to_string()),
        n => Ok(n),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or_else(|| USAGE.to_string())?;
    if cmd == "-h" || cmd == "--help" || cmd == "help" {
        return Err(USAGE.to_string());
    }
    let mut a = Args {
        cmd,
        nas: None,
        file: None,
        class: Class::S,
        nprocs: 4,
        binds: Vec::new(),
        granularity: 4,
        overlap: true,
        aggregate: true,
        json: false,
        run: false,
        trace_out: None,
        metrics_out: None,
        decisions_out: None,
        out: None,
        top: 8,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nas" => a.nas = Some(value(&mut it, "--nas")?),
            "--class" => {
                a.class = match value::<String>(&mut it, "--class")?.as_str() {
                    "S" | "s" => Class::S,
                    "W" | "w" => Class::W,
                    "A" | "a" => Class::A,
                    "B" | "b" => Class::B,
                    c => return Err(format!("unknown class {c}")),
                }
            }
            "--nprocs" => a.nprocs = nprocs_value(&mut it)?,
            "--bind" => {
                let kv: String = value(&mut it, "--bind")?;
                let (k, v) = kv.split_once('=').ok_or("--bind expects NAME=VALUE")?;
                a.binds.push((
                    k.to_string(),
                    v.parse().map_err(|e| format!("--bind {k}: {e}"))?,
                ));
            }
            "--granularity" => a.granularity = value(&mut it, "--granularity")?,
            "--no-overlap" => a.overlap = false,
            "--no-aggregate" => a.aggregate = false,
            "--json" => a.json = true,
            "--run" => a.run = true,
            "--trace-out" => a.trace_out = Some(value(&mut it, "--trace-out")?),
            "--metrics-out" => a.metrics_out = Some(value(&mut it, "--metrics-out")?),
            "--decisions-out" => a.decisions_out = Some(value(&mut it, "--decisions-out")?),
            "--perfetto-out" => a.trace_out = Some(value(&mut it, "--perfetto-out")?),
            "--out" => a.out = Some(value(&mut it, "--out")?),
            "--top" => a.top = value(&mut it, "--top")?,
            f if f.starts_with("--") => return Err(format!("unknown flag {f}\n\n{USAGE}")),
            f => a.file = Some(f.to_string()),
        }
    }
    if a.nas.is_none() && a.file.is_none() {
        return Err(format!("no input given\n\n{USAGE}"));
    }
    if a.nas.is_some() && !a.binds.is_empty() {
        return Err(format!(
            "--bind does not apply to --nas: a NAS benchmark takes its sizes from --class\n\n{USAGE}"
        ));
    }
    Ok(a)
}

/// A CLI failure paired with its process exit code: **2** for usage
/// errors, **1** for everything else (parse/compile/IO failures) — the
/// same convention `dhpf-lint` documents in the README.
struct CliError {
    code: u8,
    msg: String,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError { code: 1, msg }
    }
}

fn usage_err(msg: String) -> CliError {
    CliError { code: 2, msg }
}

fn build(a: &Args) -> Result<Compiled, CliError> {
    build_with_overlap(a, a.overlap)
}

fn build_with_overlap(a: &Args, overlap: bool) -> Result<Compiled, CliError> {
    let (program, bindings) = match a.nas {
        Some(kernel) => (kernel.parse(), kernel.bindings(a.class, a.nprocs)),
        None => {
            // parse_args rejects a missing input, but keep this a
            // diagnostic rather than a panic if the two ever drift.
            let Some(path) = a.file.as_deref() else {
                return Err(usage_err(format!("no input file given\n\n{USAGE}")));
            };
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let program = dhpf_fortran::parse(&src).map_err(|d| format!("parse errors: {d:?}"))?;
            (program, a.binds.iter().cloned().collect())
        }
    };
    let mut opts = CompileOptions::new().observed();
    opts.bindings = bindings;
    opts.granularity = a.granularity;
    opts.flags.overlap = overlap;
    opts.flags.aggregate = a.aggregate;
    compile(&program, &opts).map_err(|e| format!("compile failed: {e}").into())
}

fn write_out(path: &str, content: &str) -> Result<(), String> {
    if path == "-" {
        return print_out(content);
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Write `content` to standard output. A reader that stops reading
/// (`dhpf explain … | head`) closes the pipe: the rest is not written,
/// and the command runs on to its own exit code.
fn print_out(content: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(content.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(format!("cannot write to standard output: {e}"))
        }
        _ => Ok(()),
    }
}

/// `dhpf fuzz` arguments (disjoint from the compile-style commands:
/// there is no input file, and geometry replaces `--nprocs`).
struct FuzzArgs {
    cfg: dhpf_fuzz::CampaignConfig,
    out: Option<String>,
    corpus_out: Option<String>,
}

fn parse_geometries(spec: &str) -> Result<Vec<Vec<i64>>, String> {
    let mut geoms = Vec::new();
    for g in spec.split(',') {
        let dims: Result<Vec<i64>, _> = g.split('x').map(str::parse).collect();
        let dims = dims.map_err(|e| format!("--geometries: bad grid `{g}`: {e}"))?;
        if dims.is_empty() || dims.len() > 2 || dims.iter().any(|&d| d < 1) {
            return Err(format!(
                "--geometries: grid `{g}` must be 1 or 2 positive dims"
            ));
        }
        geoms.push(dims);
    }
    if geoms.is_empty() {
        return Err("--geometries: at least one grid required".into());
    }
    Ok(geoms)
}

fn parse_fuzz_args(it: &mut dyn Iterator<Item = String>) -> Result<FuzzArgs, String> {
    let mut a = FuzzArgs {
        cfg: dhpf_fuzz::CampaignConfig::default(),
        out: None,
        corpus_out: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => a.cfg.seed = value(it, "--seed")?,
            "--count" => a.cfg.count = value(it, "--count")?,
            "--geometries" => {
                a.cfg.geometries = parse_geometries(&value::<String>(it, "--geometries")?)?
            }
            "--max-ulps" => a.cfg.max_ulps = value(it, "--max-ulps")?,
            "--mutate" => a.cfg.mutants = value(it, "--mutate")?,
            "--shrink-budget" => a.cfg.shrink_budget = value(it, "--shrink-budget")?,
            "--out" => a.out = Some(value(it, "--out")?),
            "--corpus-out" => a.corpus_out = Some(value(it, "--corpus-out")?),
            f => return Err(format!("unknown fuzz flag {f}\n\n{USAGE}")),
        }
    }
    Ok(a)
}

fn run_fuzz(args: &FuzzArgs) -> Result<(), CliError> {
    let report = dhpf_fuzz::run_campaign(&args.cfg);
    if let Some(path) = &args.out {
        write_out(path, &report.to_json())?;
        if path != "-" {
            note!("report written to {path}");
        }
    }
    if let Some(dir) = &args.corpus_out {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for f in &report.failures {
            let name = format!("{dir}/seed_{}_{}.f", f.program_seed, f.oracle);
            std::fs::write(&name, &f.minimized).map_err(|e| format!("cannot write {name}: {e}"))?;
            note!("minimized repro written to {name}");
        }
    }
    let mutation = report
        .mutation
        .as_ref()
        .map(|m| format!(", mutation {}/{} caught twice", m.caught_twice, m.planted))
        .unwrap_or_default();
    note!(
        "fuzz: {} program(s) x {} geometr(ies) x flag lattice: {} compile(s), {} run(s), \
         {} message(s), {} failure(s){mutation} in {:.1}s",
        report.programs,
        report.geometries.len(),
        report.compiles,
        report.runs,
        report.messages,
        report.failures.len(),
        report.wall_ms as f64 / 1000.0
    );
    if report.clean() {
        Ok(())
    } else {
        let mut kinds: Vec<String> = report
            .failed
            .iter()
            .map(|(k, n)| format!("{k} x{n}"))
            .collect();
        if let Some(m) = &report.mutation {
            if m.caught_twice < m.planted {
                kinds.push("mutation under-detected".into());
            }
        }
        Err(format!("campaign not clean: {}", kinds.join(", ")).into())
    }
}

/// `dhpf bench` arguments: the subcommand and the flags it accepts.
#[derive(Default)]
struct BenchArgs {
    sub: String,
    nas: Option<Kernel>,
    version: Option<dhpf_bench::Config>,
    nprocs: Option<usize>,
    width: Option<usize>,
    fast: bool,
    quick: bool,
    listing: bool,
    csv: bool,
    out: Option<String>,
}

/// The flags each `dhpf bench` subcommand accepts.
const BENCH_FLAGS: &[(&str, &[&str])] = &[
    ("table", &["--nas", "--fast"]),
    (
        "figure",
        &["--nas", "--version", "--nprocs", "--width", "--csv"],
    ),
    ("flags", &["--out"]),
    ("plan-stats", &["--listing"]),
    ("compile", &["--quick", "--out"]),
];

fn parse_bench_args(it: &mut dyn Iterator<Item = String>) -> Result<BenchArgs, String> {
    let sub = it.next().ok_or_else(|| BENCH_USAGE.to_string())?;
    let (_, accepted) = BENCH_FLAGS
        .iter()
        .find(|(name, _)| *name == sub)
        .ok_or_else(|| format!("unknown bench subcommand {sub}\n\n{BENCH_USAGE}"))?;
    let mut a = BenchArgs {
        sub,
        ..Default::default()
    };
    while let Some(arg) = it.next() {
        if !accepted.contains(&arg.as_str()) {
            return Err(format!(
                "bench {} does not take {arg}\n\n{BENCH_USAGE}",
                a.sub
            ));
        }
        match arg.as_str() {
            "--nas" => a.nas = Some(value(it, "--nas")?),
            "--version" => a.version = Some(value(it, "--version")?),
            "--nprocs" => a.nprocs = Some(nprocs_value(it)?),
            "--width" => a.width = Some(value(it, "--width")?),
            "--fast" => a.fast = true,
            "--quick" => a.quick = true,
            "--listing" => a.listing = true,
            "--csv" => a.csv = true,
            "--out" => a.out = Some(value(it, "--out")?),
            other => unreachable!("{other} is in BENCH_FLAGS but not parsed"),
        }
    }
    Ok(a)
}

fn run_bench(a: &BenchArgs) -> Result<(), CliError> {
    let nas = || {
        a.nas
            .ok_or_else(|| usage_err(format!("bench {} needs --nas sp|bt", a.sub)))
    };
    let write_doc = |default: &str, study: &str, rows: &[dhpf_bench::Measurement]| {
        let path = a.out.as_deref().unwrap_or(default);
        write_out(path, &dhpf_bench::render(study, rows))?;
        note!("wrote {path}");
        Ok(())
    };
    match a.sub.as_str() {
        "table" => {
            dhpf_bench::table(nas()?, a.fast);
            Ok(())
        }
        "figure" => {
            let version = a.version.as_ref().ok_or_else(|| {
                usage_err("bench figure needs --version hand|dhpf|pgi".to_string())
            })?;
            // a count the version cannot run at is the caller's to fix
            dhpf_bench::figure(
                nas()?,
                version,
                a.nprocs.unwrap_or(16),
                a.width.unwrap_or(140),
                a.csv,
            )
            .map_err(|e| usage_err(e.to_string()))
        }
        "flags" => {
            let rows = dhpf_bench::flags::study();
            dhpf_bench::flags::print(&rows);
            write_doc("BENCH_flags.json", "flags", &rows)
        }
        "plan-stats" => {
            dhpf_bench::print_plan_stats(a.listing);
            Ok(())
        }
        "compile" => write_doc(
            "BENCH_compile.json",
            "compile",
            &dhpf_bench::compile::study(a.quick),
        ),
        other => unreachable!("{other} passed parse_bench_args"),
    }
}

/// Keep quiet about the panics a failing run unwinds with: a rank's
/// [`ExecError`], which `run_node_program` returns and `main` reports in
/// one line, and the machine's teardown of the ranks blocked on it.
/// Every other panic is a bug and gets the previous hook's report.
fn quiet_exec_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        if !payload.is::<ExecError>() && !dhpf_spmd::machine::is_teardown(payload) {
            previous(info);
        }
    }));
}

fn main() -> ExitCode {
    quiet_exec_panics();
    // `fuzz` and `bench` have disjoint flag sets; route them before the
    // generic parser
    let mut raw = std::env::args().skip(1);
    let routed = match raw.next().as_deref() {
        Some("fuzz") => Some(parse_fuzz_args(&mut raw).map(|a| run_fuzz(&a))),
        Some("bench") => Some(parse_bench_args(&mut raw).map(|a| run_bench(&a))),
        _ => None,
    };
    if let Some(parsed) = routed {
        return match parsed {
            Ok(Ok(())) => ExitCode::SUCCESS,
            Ok(Err(e)) => {
                note!("dhpf: {}", e.msg);
                ExitCode::from(e.code)
            }
            Err(msg) => {
                note!("{msg}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            note!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            note!("dhpf: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

fn run(args: &Args) -> Result<(), CliError> {
    match args.cmd.as_str() {
        "explain" => {
            let compiled = build(args)?;
            if args.json {
                print_out(&compiled.obs.decision_json(&compiled.transformed))?;
            } else {
                print_out(&compiled.obs.decision_log(&compiled.transformed))?;
                note!(
                    "{} decision(s); {} message(s) pre, {} post",
                    compiled.obs.decision_count(),
                    compiled.report.pre_messages,
                    compiled.report.post_messages
                );
            }
            Ok(())
        }
        "compile" => {
            let compiled = build(args)?;
            let exec = if args.run {
                let machine = MachineConfig::sp2(args.nprocs).with_trace();
                let result = dhpf_core::exec::node::run_node_program(&compiled.program, machine)
                    .map_err(|e| format!("execution failed: {e}"))?;
                note!(
                    "ran on {} procs: virtual time {:.6}s, {} message(s)",
                    args.nprocs,
                    result.run.virtual_time,
                    result.run.stats.messages
                );
                Some(result)
            } else {
                None
            };
            if let Some(path) = &args.trace_out {
                let traces: Option<&[Trace]> = exec.as_ref().map(|r| &r.run.traces[..]);
                let json = dhpf_obs::perfetto::render(Some(&compiled.obs), traces);
                write_out(path, &json)?;
                note!("trace written to {path} (open in ui.perfetto.dev)");
            }
            if let Some(path) = &args.metrics_out {
                let mut metrics = compiled.obs.metrics.clone();
                if let Some(result) = &exec {
                    dhpf_profile::record_exec_gauges(&mut metrics, &result.run.traces);
                    dhpf_profile::record_rank_gauges(&mut metrics, &result.ranks);
                }
                write_out(path, &metrics.render_json())?;
                note!("metrics written to {path}");
            }
            if let Some(path) = &args.decisions_out {
                write_out(path, &compiled.obs.decision_json(&compiled.transformed))?;
                note!("decisions written to {path}");
            }
            if args.trace_out.is_none()
                && args.metrics_out.is_none()
                && args.decisions_out.is_none()
            {
                note!(
                    "compiled: {} unit(s), {} decision(s) recorded (use --trace-out/--metrics-out/--decisions-out)",
                    compiled.program.units.len(),
                    compiled.obs.decision_count()
                );
            }
            Ok(())
        }
        "verify-protocol" => {
            let mut compiled = build(args)?;
            let proto = dhpf_core::protocol::extract_protocol(&compiled.program);
            let report = dhpf_analysis::check_protocol(&proto);
            let input = args
                .file
                .clone()
                .or_else(|| args.nas.map(|k| format!("nas:{}", k.name())))
                .unwrap_or_default();
            // Record the verdict in the decision log alongside the
            // compiler's own decisions.
            compiled.obs.scopes.push(dhpf_obs::ScopeObs {
                scope: "protocol".to_string(),
                spans: Vec::new(),
                decisions: dhpf_analysis::protocol_decisions(&proto, &report),
            });
            if let Some(path) = &args.decisions_out {
                write_out(path, &compiled.obs.decision_json(&compiled.transformed))?;
                note!("decisions written to {path}");
            }
            if args.json {
                print_out(&format!("{}\n", report.render_json_document(&input)))?;
            } else if report.is_clean() {
                print_out(&format!(
                    "protocol OK: {} communication atom(s) verified for all {} rank(s) \
                     (matching, congruence, wait coverage, deadlock-freedom)\n",
                    dhpf_analysis::protocol::atom_count(&proto),
                    proto.nprocs
                ))?;
            } else {
                print_out(&report.render_human(None))?;
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!("{} protocol violation(s) in {input}", report.findings.len()).into())
            }
        }
        "profile" => {
            let compiled = build(args)?;
            let machine = MachineConfig::sp2(args.nprocs).with_trace();
            let result =
                dhpf_core::exec::node::run_node_program(&compiled.program, machine.clone())
                    .map_err(|e| format!("execution failed: {e}"))?;
            // with --no-overlap, hypothesize the overlap the compiler
            // would emit; a program that already overlaps leaves nothing
            let overlap_candidates = if args.overlap {
                Vec::new()
            } else {
                let overlapped = build_with_overlap(args, true)?;
                dhpf_profile::overlap_candidates(&compiled.program, &overlapped.program)
            };
            let opts = dhpf_profile::ProfileOptions {
                top: args.top,
                overlap_candidates,
            };
            let prof = dhpf_profile::profile(
                &compiled.program,
                &compiled.transformed,
                &compiled.obs,
                &result.run.traces,
                &machine,
                &opts,
            )
            .map_err(|e| e.to_string())?;
            let doc = if args.json {
                dhpf_profile::report::render_json(&prof)
            } else {
                dhpf_profile::report::render_human(&prof, args.top)
            };
            write_out(args.out.as_deref().unwrap_or("-"), &doc)?;
            if let Some(path) = &args.trace_out {
                let flows = dhpf_profile::critical_path_flow_events(&prof);
                let json = dhpf_obs::perfetto::render_with_extra(
                    Some(&compiled.obs),
                    Some(&result.run.traces),
                    &flows,
                );
                write_out(path, &json)?;
                note!("trace with critical-path flows written to {path}");
            }
            if let Some(path) = &args.metrics_out {
                let mut metrics = compiled.obs.metrics.clone();
                dhpf_profile::record_exec_gauges(&mut metrics, &result.run.traces);
                dhpf_profile::record_rank_gauges(&mut metrics, &result.ranks);
                write_out(path, &metrics.render_json())?;
                note!("metrics written to {path}");
            }
            note!(
                "profiled {} rank(s): makespan {:.6}s, {:.1}% of stall attributed, {} what-if scenario(s)",
                prof.nprocs,
                prof.makespan,
                100.0 * prof.attribution_coverage(),
                prof.whatif.len()
            );
            Ok(())
        }
        other => Err(usage_err(format!("unknown command {other}\n\n{USAGE}"))),
    }
}
