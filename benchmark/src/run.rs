//! One run of one workload: set-up, a closed loop of ops for the time
//! budget, and the metrics of the pass.
//!
//! Single-threaded closed loop, one client: the next op starts when the
//! previous one finishes. The only threads are the simulator's own
//! one-per-rank threads.

use crate::clock::peak_rss_mib;
use crate::json::{obj, Value};
use crate::spans::Spans;
use crate::spec::{END_TO_END, OUT_DIR, PER_LAYER, PHASES};
use crate::stats::{median, percentile_with_tail};
use crate::workloads::{setup, OpSample, Workload};
use dhpf_spmd::machine::{Machine, MachineConfig};
use std::time::Instant;

pub struct RunConfig {
    pub workload: String,
    /// Consumed by `fuzz-mix` only; the other inputs are fixed.
    pub seed: u64,
    /// How long the loop of ops measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the measured pass
    /// (end-to-end metrics, all tracing off).
    pub trace: bool,
    pub quick: bool,
}

pub struct RunOutput {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` for every metric of the pass, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunOutput {
    /// The result object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let fields = [
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(unit.to_string())),
                ];
                (name.to_string(), obj(fields))
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// Set up `reps` times, timing each; the median is `setup_s`.
fn timed_setup(cfg: &RunConfig) -> Result<(Box<dyn Workload>, f64), String> {
    let reps = if cfg.quick { 1 } else { 3 };
    let mut times = Vec::new();
    let mut workload = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        workload = Some(setup(&cfg.workload, cfg.seed, cfg.quick)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((workload.expect("at least one set-up"), median(&times)))
}

pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let (mut workload, setup_s) = timed_setup(cfg)?;

    // The traced pass alternates a plain op and a traced op, so overheads
    // compare like with like inside one process.
    let per_round = if cfg.trace { 2 } else { 1 };
    let min_ops = if cfg.quick {
        per_round
    } else if cfg.trace {
        workload.count_window().unwrap_or(2 * per_round)
    } else {
        3
    };
    let mut spans = Spans::new(cfg.trace);
    let mut samples: Vec<OpSample> = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        for i in 0..per_round {
            let k = samples.len();
            let sample = workload.op(k, i == 1, &mut spans);
            if let Some(why) = &sample.failed {
                eprintln!("{} op {k} failed: {why}", cfg.workload);
            }
            samples.push(sample);
        }
        rounds.push(t0.elapsed().as_secs_f64());
        // Start another round only if it should end inside the budget.
        if samples.len() >= min_ops && start.elapsed().as_secs_f64() + median(&rounds) > cfg.seconds
        {
            break;
        }
    }
    let pass_s = start.elapsed().as_secs_f64();

    let failed = samples.iter().filter(|s| s.failed.is_some()).count();
    let metrics = if cfg.trace {
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| {
                let path = format!("{OUT_DIR}/trace-{}.json", cfg.workload);
                std::fs::write(path, spans.chrome_trace(&cfg.workload))
            })
            .map_err(|e| format!("cannot write the span trace: {e}"))?;
        per_layer(&samples, &*workload, &spans)
    } else {
        let col = |f: fn(&OpSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        vec![
            ("setup_s", setup_s),
            ("pipeline_s", col(|s| s.wall_s)),
            ("exec_s", col(|s| s.exec_s)),
            ("exec_cpu_s", col(|s| s.exec_cpu_s)),
            ("ops_per_s", samples.len() as f64 / pass_s),
            ("peak_rss_mb", peak_rss_mib()),
        ]
    };
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    assert!(
        metrics
            .iter()
            .map(|(n, _)| *n)
            .eq(table.iter().map(|m| m.name)),
        "metrics out of step with the spec tables"
    );
    Ok(RunOutput {
        attempted: samples.len(),
        failed,
        metrics: metrics
            .into_iter()
            .zip(table)
            .map(|((name, value), m)| (name, value, m.unit))
            .collect(),
    })
}

/// Median wall of `Machine::run` at `nprocs` ranks whose body is a single
/// barrier: what it costs to start and join the rank threads.
fn spawn_seconds(nprocs: usize) -> f64 {
    let times: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(Machine::run(MachineConfig::sp2(nprocs), |p| p.barrier()));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `with / without - 1`; 0 where the layer did not run.
fn overhead(with: f64, without: f64) -> f64 {
    if without > 0.0 {
        with / without - 1.0
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced pass. Times are medians over ops; exact
/// counts come from one traced op, or from the traced ops inside the count
/// window where every op is another input.
fn per_layer(
    samples: &[OpSample],
    workload: &dyn Workload,
    spans: &Spans,
) -> Vec<(&'static str, f64)> {
    let plain: Vec<&OpSample> = samples.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&OpSample> = samples.iter().filter(|s| s.traced).collect();
    let counted: Vec<&OpSample> = match workload.count_window() {
        Some(window) => samples[..window.min(samples.len())]
            .iter()
            .filter(|s| s.traced)
            .collect(),
        None => traced[..1].to_vec(),
    };
    let med = |ops: &[&OpSample], f: fn(&OpSample) -> f64| {
        median(&ops.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let all: Vec<&OpSample> = samples.iter().collect();
    // Overheads compare means: plain and traced ops of `fuzz-mix` are
    // different programs, and medians of their skewed, two-peaked cost
    // distributions differ by more than the overhead being measured.
    let mean = |ops: &[&OpSample], f: fn(&OpSample) -> f64| {
        ops.iter().map(|s| f(s)).sum::<f64>() / ops.len().max(1) as f64
    };
    let sum = |f: fn(&OpSample) -> f64| counted.iter().map(|s| f(s)).sum::<f64>();

    let (iset_hits, iset_lookups, iset_nodes) = counted.last().map_or((0, 0, 0), |s| s.iset);
    let exec_s = med(&traced, |s| s.exec_s);
    let exec_cpu_s = med(&traced, |s| s.exec_cpu_s);
    let busy_s = med(&traced, |s| s.virtual_busy_s);
    let messages = med(&traced, |s| s.messages as f64);
    let plain_walls: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let seconds_per_flop = MachineConfig::sp2(1).seconds_per_flop;

    let mut out = vec![
        ("fortran.parse_s", med(&all, |s| s.parse_s)),
        (
            "fortran.lines_per_s",
            med(&all, |s| ratio(s.source_lines as f64, s.parse_s)),
        ),
        (
            "iset.hit_rate",
            ratio(iset_hits as f64, iset_lookups as f64),
        ),
        ("iset.lookups", iset_lookups as f64),
        ("iset.interned_nodes", iset_nodes as f64),
        ("core.compile_s", med(&plain, |s| s.compile_s)),
    ];
    for (i, (_, name)) in PHASES.iter().enumerate() {
        out.push((
            *name,
            median(&traced.iter().map(|s| s.phase_s[i]).collect::<Vec<_>>()),
        ));
    }
    out.extend([
        (
            "core.compile.fingerprint_bytes",
            sum(|s| s.fingerprint_bytes as f64),
        ),
        ("core.compile.pre_messages", sum(|s| s.pre_messages as f64)),
        (
            "core.compile.post_messages",
            sum(|s| s.post_messages as f64),
        ),
        (
            "core.compile.messages_saved",
            sum(|s| s.messages_saved as f64),
        ),
        (
            "core.compile.reads_eliminated",
            sum(|s| s.reads_eliminated as f64),
        ),
        (
            "obs.compile_overhead",
            overhead(
                mean(&traced, |s| s.compile_s),
                mean(&plain, |s| s.compile_s),
            ),
        ),
        ("obs.decisions", sum(|s| s.decisions as f64)),
        ("obs.spans", sum(|s| s.obs_spans as f64)),
        ("interp.exec_s", exec_s),
        ("interp.exec_cpu_s", exec_cpu_s),
        ("interp.virtual_busy_s", sum(|s| s.virtual_busy_s)),
        ("interp.cpu_per_virtual_s", ratio(exec_cpu_s, busy_s)),
        (
            "interp.mflops",
            ratio(busy_s / seconds_per_flop, exec_s) / 1e6,
        ),
        ("spmd.virtual_s", sum(|s| s.virtual_s)),
        ("spmd.messages", sum(|s| s.messages as f64)),
        ("spmd.bytes", sum(|s| s.bytes as f64)),
        ("spmd.us_per_message", ratio(exec_s, messages) * 1e6),
        ("spmd.spawn_s", spawn_seconds(workload.nprocs())),
        ("spmd.stall_virtual_s", sum(|s| s.virtual_stall_s)),
        ("spmd.trace_events", sum(|s| s.trace_events as f64)),
        (
            "spmd.trace_overhead",
            overhead(mean(&traced, |s| s.exec_s), mean(&plain, |s| s.exec_s)),
        ),
        ("analysis.verify_s", med(&all, |s| s.verify_s)),
        ("analysis.protocol_s", med(&all, |s| s.protocol_s)),
        ("analysis.tracecheck_s", med(&traced, |s| s.tracecheck_s)),
        ("analysis.findings", sum(|s| s.findings as f64)),
        ("profile.profile_s", med(&traced, |s| s.profile_s)),
        ("profile.attribution", med(&traced, |s| s.attribution)),
        ("fuzz.gen_s", med(&all, |s| s.gen_s)),
        ("fuzz.serial_ref_s", med(&all, |s| s.serial_ref_s)),
        ("fuzz.compare_s", med(&all, |s| s.compare_s)),
        (
            "pipeline.p95_s",
            percentile_with_tail(&plain_walls, 95.0).unwrap_or(0.0),
        ),
        ("pipeline.samples", plain_walls.len() as f64),
        (
            "trace.overhead",
            overhead(
                mean(&traced, |s| s.wall_s - s.fingerprint_s),
                mean(&plain, |s| s.wall_s),
            ),
        ),
        ("harness.uncovered_share", spans.uncovered_share()),
    ]);
    out
}
