//! The repo benchmark: five workloads over the real pipeline (parse →
//! compile → static verify → execute on the virtual machine → output
//! check), every layer timed from outside through its public functions.
//! See `README.md` beside this package and `BENCHMARK.json` at the repo
//! root.

mod clock;
mod compare;
mod json;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use json::{obj, Value};
use run::RunConfig;
use spec::{DEFAULT_SECONDS, OUT_DIR, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      One run of one workload. --trace 0: the measured pass (all tracing
      off), end-to-end metrics. --trace 1: the traced pass, per-layer
      metrics, and benchmark/out/trace-NAME.json. The last line of stdout
      is the result object.
  benchmark run --all [--seed N] [--seconds S] [--runs R] [--quick] [--out DIR]
      Every workload, each in a process of its own: R measured runs on
      seeds N, N+1, ... and one traced run. Prints every metric by name
      with its unit and writes DIR/NAME.json (default benchmark/out).
  benchmark compare A B
      Hold result set B against baseline A (two --out directories);
      exit 1 on a regression or on more failed ops.

workloads: bt-a-r1 bt-a-r4 sp-a-r16 fuzz-mix hand-mp-r16
--quick shrinks every input and stamps the result; compare refuses it.
Run from the repo root.
";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: String,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: OUT_DIR.to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--seed" => a.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--quick" => a.quick = true,
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| bad(&e))?;
                if !(1..=64).contains(&a.runs) {
                    return Err(bad(&"must be in 1..=64"));
                }
            }
            "--out" => a.out = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 1.0 } else { DEFAULT_SECONDS })
    }
}

fn print_metrics(out: &Value) {
    for (name, m) in out.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("  {name:<34} {value:>16.6} {unit}");
    }
}

/// One workload in this process (the driver's entry point).
fn run_one(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload.clone().ok_or("--workload is required")?;
    if !spec::is_workload(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let cfg = RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds(),
        trace: a.trace,
        quick: a.quick,
    };
    println!("{}", run::run(&cfg)?.to_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Re-exec this binary for one run, so peak RSS and the process-wide iset
/// interner are per run; returns the parsed result object.
fn child_run(a: &Args, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    json::parse(last)
}

fn run_all(a: &Args) -> Result<ExitCode, String> {
    if !a.all {
        return Err("run needs --all".to_string());
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("cannot create {}: {e}", a.out))?;
    let started = std::time::Instant::now();
    let mut all_correct = true;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let mut runs = Vec::new();
        for seed in a.seed..a.seed + a.runs as u64 {
            let out = child_run(a, workload, seed, false)?;
            println!(" measured pass, seed {seed}:");
            print_metrics(&out);
            runs.push((seed, out));
        }
        let traced = child_run(a, workload, a.seed, true)?;
        println!(" traced pass, seed {}:", a.seed);
        print_metrics(&traced);

        let (mut attempted, mut failed) = (0.0, 0.0);
        for out in runs.iter().map(|(_, o)| o).chain([&traced]) {
            attempted += out.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            failed += out.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        }
        println!(
            "  {:<34} {:>16.6} ratio   ({failed} of {attempted} ops)",
            "failed_share",
            failed / attempted.max(1.0)
        );
        all_correct &= failed == 0.0;

        let with_seed = |seed: u64, out: Value| match out {
            Value::Obj(mut fields) => {
                fields.insert(0, ("seed".to_string(), Value::Num(seed as f64)));
                Value::Obj(fields)
            }
            other => other,
        };
        let doc = obj([
            ("workload", Value::Str(workload.to_string())),
            ("quick", Value::Bool(a.quick)),
            ("seconds", Value::Num(a.seconds())),
            (
                "runs",
                Value::Arr(runs.into_iter().map(|(s, o)| with_seed(s, o)).collect()),
            ),
            ("traced", with_seed(a.seed, traced)),
        ]);
        let path = format!("{}/{workload}.json", a.out);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!(
        "whole benchmark: {:.1} s; results in {}",
        started.elapsed().as_secs_f64(),
        a.out
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare takes two result directories".to_string()),
        },
        Some("run") => parse_flags(&args[1..]).and_then(|a| run_all(&a)),
        Some(_) => parse_flags(&args).and_then(|a| run_one(&a)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}
