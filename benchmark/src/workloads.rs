//! The five workloads. Each is a set-up (inputs, reference outputs, one
//! untimed warm-up op on a tiny input of the same kind) and an `op`: one
//! full pipeline pass over one input, every layer called through its
//! public functions and timed from outside, every output checked.

use crate::clock::process_cpu_s;
use crate::spans::Spans;
use crate::spec::PHASES;
use dhpf_core::driver::{compile, CompileOptions};
use dhpf_core::exec::node::{run_node_program, ExecResult};
use dhpf_core::exec::serial::{run_serial, ArrayValue};
use dhpf_fortran::ast::Program;
use dhpf_fuzz::oracle::compare_stitched;
use dhpf_fuzz::{adapt_geometry, generate, grid_bindings, program_seed, GenOptions};
use dhpf_nas::cost::{calibrate, PhaseCosts};
use dhpf_nas::handpar::{run_multipart, Array4, BtSolver, HandResult, SpSolver};
use dhpf_spmd::machine::{MachineConfig, RunResult};
use dhpf_spmd::trace::Trace;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Output tolerance of the NAS and hand-written checks, relative to the
/// largest reference magnitude of the field.
const NAS_TOLERANCE: f64 = 1e-9;
/// Float tolerance of the `fuzz-mix` serial-vs-SPMD comparison.
const FUZZ_MAX_ULPS: u64 = 4;
/// `fuzz-mix` geometries, as in `dhpf fuzz --geometries 1,2x2,3x2`.
const FUZZ_GEOMETRIES: [&[i64]; 3] = [&[1], &[2, 2], &[3, 2]];
/// The largest processor total above: the generator sizes every program
/// so each block stays at least 2 wide at that count.
const FUZZ_MAX_PDIM: i64 = 6;
/// Programs whose exact counts the traced `fuzz-mix` pass sums; always
/// run, whatever the time budget, so the counts repeat exactly.
pub const FUZZ_COUNT_WINDOW: usize = 60;

/// What one op measured. Host seconds unless the name says virtual.
/// `fuzz-mix` ops sum the per-geometry stages of their program.
#[derive(Clone, Default)]
pub struct OpSample {
    pub traced: bool,
    /// First check that failed, if any.
    pub failed: Option<String>,
    pub wall_s: f64,
    pub gen_s: f64,
    pub parse_s: f64,
    pub source_lines: usize,
    pub serial_ref_s: f64,
    pub compile_s: f64,
    pub verify_s: f64,
    pub protocol_s: f64,
    pub exec_s: f64,
    pub exec_cpu_s: f64,
    /// `fuzz-mix`: `compare_stitched` against the serial reference.
    pub compare_s: f64,
    /// LogGP makespan of the emitted program.
    pub virtual_s: f64,
    pub messages: u64,
    pub bytes: u64,
    pub findings: usize,
    // Filled by traced ops only.
    pub tracecheck_s: f64,
    pub profile_s: f64,
    pub attribution: f64,
    pub virtual_busy_s: f64,
    pub virtual_stall_s: f64,
    pub trace_events: usize,
    pub phase_s: [f64; PHASES.len()],
    /// Rendering `Compiled::fingerprint()` to measure its size: harness
    /// work inside the op, not tracing.
    pub fingerprint_s: f64,
    pub fingerprint_bytes: usize,
    pub pre_messages: usize,
    pub post_messages: usize,
    pub messages_saved: usize,
    pub reads_eliminated: usize,
    pub decisions: usize,
    pub obs_spans: usize,
    /// Process-wide interner state right after this op's last compile:
    /// `(hits, lookups, interned nodes)`.
    pub iset: (u64, u64, usize),
}

pub trait Workload {
    /// Run op number `k`. With `traced`, the program's own tracing is on
    /// (`CompileOptions::observed()`, `MachineConfig::with_trace()`) and
    /// the trace checker and profiler run too.
    fn op(&mut self, k: usize, traced: bool, spans: &mut Spans) -> OpSample;
    /// Ranks of the simulated machine (the widest, for `fuzz-mix`).
    fn nprocs(&self) -> usize;
    /// `Some(n)`: every op is another input and exact counts are summed
    /// over ops `k < n`. `None`: every op repeats one input, so counts come
    /// from one op and must not differ between ops.
    fn count_window(&self) -> Option<usize> {
        None
    }
}

/// Build workload `name` ready to measure: inputs, reference outputs, and
/// one warm-up op that faults in code and lazy statics. The caller times
/// this as set-up. `quick` shrinks every input (shape validation only).
pub fn setup(name: &str, seed: u64, quick: bool) -> Result<Box<dyn Workload>, String> {
    let n = if quick { 12 } else { 24 };
    // (warm-up workload, its op count, the workload to measure)
    let (mut warm, warm_ops, work): (Box<dyn Workload>, usize, Box<dyn Workload>) = match name {
        "bt-a-r1" => (
            Nas::boxed(Kind::Bt, 8, 1, 1),
            1,
            Nas::boxed(Kind::Bt, n, 1, 1),
        ),
        "bt-a-r4" => (
            Nas::boxed(Kind::Bt, 8, 2, 2),
            1,
            Nas::boxed(Kind::Bt, n, 2, 2),
        ),
        "sp-a-r16" => (
            Nas::boxed(Kind::Sp, 8, 4, 4),
            1,
            Nas::boxed(Kind::Sp, n, 4, 4),
        ),
        "fuzz-mix" => {
            // A fresh interner per set-up, so repeated set-ups do equal work;
            // the measured pass then shares one interner across its programs.
            dhpf_iset::reset_cache();
            // Warm up on programs the measured pass never reaches.
            let warm = Fuzz {
                seed,
                first: 1 << 32,
            };
            (Box::new(warm), 8, Box::new(Fuzz { seed, first: 0 }))
        }
        "hand-mp-r16" => (
            Box::new(Hand::new(5)),
            1,
            Box::new(Hand::new(if quick { 100 } else { 2000 })),
        ),
        other => return Err(format!("unknown workload {other}")),
    };
    for k in 0..warm_ops {
        if let Some(why) = warm.op(k, false, &mut Spans::new(false)).failed {
            return Err(format!("{name}: warm-up op failed: {why}"));
        }
    }
    Ok(work)
}

fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `body` as op `k`: root span, wall time, failure capture.
fn run_op(
    k: usize,
    traced: bool,
    spans: &mut Spans,
    body: impl FnOnce(&mut Spans, &mut OpSample) -> Result<(), String>,
) -> OpSample {
    let mut s = OpSample {
        traced,
        ..OpSample::default()
    };
    spans.begin_op(k);
    let t0 = Instant::now();
    let outcome = body(spans, &mut s);
    s.wall_s = t0.elapsed().as_secs_f64();
    spans.end_op();
    s.failed = outcome.err();
    s
}

/// Record what a machine run reports: makespan and message counts, and
/// from a traced run the virtual busy and stalled seconds and the event
/// count.
fn record_run(run: &RunResult, s: &mut OpSample) {
    s.virtual_s += run.virtual_time;
    s.messages += run.stats.messages;
    s.bytes += run.stats.bytes;
    s.virtual_busy_s += run.traces.iter().map(Trace::busy).sum::<f64>();
    s.virtual_stall_s += run.traces.iter().map(Trace::stalled).sum::<f64>();
    s.trace_events += run.traces.iter().map(|t| t.events.len()).sum::<usize>();
}

/// Compile → static verifiers → execute, for one parsed program at one
/// processor count. Adds its stages to `s`.
fn compile_verify_run(
    program: &Program,
    bindings: &BTreeMap<String, i64>,
    nprocs: usize,
    spans: &mut Spans,
    s: &mut OpSample,
) -> Result<ExecResult, String> {
    let mut opts = CompileOptions::new();
    opts.bindings = bindings.clone();
    if s.traced {
        opts = opts.observed();
    }
    let (compiled, dt) = spans.time("core.compile", || {
        catch_unwind(AssertUnwindSafe(|| compile(program, &opts)))
    });
    s.compile_s += dt;
    let compiled = match compiled {
        Ok(Ok(c)) => c,
        Ok(Err(e)) => return Err(format!("compile: {e}")),
        Err(p) => return Err(format!("panic in compile: {}", panic_msg(p))),
    };
    let stats = dhpf_iset::cache_stats();
    s.iset = (
        stats.hits(),
        stats.hits() + stats.misses(),
        stats.interned_nodes(),
    );

    let ((coverage, races), dt) = spans.time("analysis.verify", || {
        (
            dhpf_analysis::verify_compiled(&compiled),
            dhpf_analysis::check_compiled_races(&compiled),
        )
    });
    s.verify_s += dt;
    let (protocol, dt) = spans.time("analysis.protocol", || {
        dhpf_analysis::verify_protocol(&compiled)
    });
    s.protocol_s += dt;
    for (what, report) in [
        ("comm-coverage", &coverage),
        ("ghost races", &races),
        ("protocol", &protocol),
    ] {
        s.findings += report.findings.len();
        if !report.is_clean() {
            return Err(format!("{what}:\n{}", report.render_human(None)));
        }
    }

    let mut machine = MachineConfig::sp2(nprocs);
    if s.traced {
        machine = machine.with_trace();
    }
    let cpu0 = process_cpu_s();
    let (result, dt) = spans.time("interp.exec", || {
        catch_unwind(AssertUnwindSafe(|| {
            run_node_program(&compiled.program, machine.clone())
        }))
    });
    s.exec_cpu_s += process_cpu_s() - cpu0;
    s.exec_s += dt;
    let result = match result {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("execution: {e}")),
        Err(p) => return Err(format!("panic in execution: {}", panic_msg(p))),
    };
    record_run(&result.run, s);

    if s.traced {
        let (report, dt) = spans.time("analysis.tracecheck", || {
            dhpf_analysis::check_traces(&result.run.traces)
        });
        s.tracecheck_s += dt;
        // Warnings (a serialized pipelined sweep) are advice, not defects.
        s.findings += report.error_count();
        if report.error_count() > 0 {
            return Err(format!("trace checker:\n{}", report.render_human(None)));
        }
        let (profile, dt) = spans.time("profile.profile", || {
            dhpf_profile::profile(
                &compiled.program,
                &compiled.transformed,
                &compiled.obs,
                &result.run.traces,
                &machine,
                &dhpf_profile::ProfileOptions::default(),
            )
        });
        s.profile_s += dt;
        s.attribution = profile.map_err(|e| e.to_string())?.attribution_coverage();
        let (bytes, dt) = spans.time("harness.fingerprint", || compiled.fingerprint().len());
        s.fingerprint_s += dt;
        s.fingerprint_bytes += bytes;
        for (slot, (phase, _)) in s.phase_s.iter_mut().zip(PHASES) {
            *slot += compiled.obs.metrics.phase_ms(phase) / 1e3;
        }
        s.pre_messages += compiled.report.pre_messages;
        s.post_messages += compiled.report.post_messages;
        s.messages_saved += compiled.report.messages_saved;
        s.reads_eliminated += compiled.report.reads_eliminated_by_availability;
        s.decisions += compiled.obs.decision_count();
        fn count(spans: &[dhpf_obs::SpanRec]) -> usize {
            spans.iter().map(|s| 1 + count(&s.children)).sum()
        }
        s.obs_spans += compiled
            .obs
            .scopes
            .iter()
            .map(|sc| count(&sc.spans))
            .sum::<usize>();
    }
    // Freeing the compile's artifacts is part of the op; give it a span so
    // the trace accounts for it.
    spans.time("harness.drop", move || drop(compiled));
    Ok(result)
}

/// Compare one 5-component field, fetched by `get(m, i, j, k)`, with the
/// native solver's: every value finite and within [`NAS_TOLERANCE`] of the
/// reference, relative to the reference's largest magnitude.
fn check_field(
    name: &str,
    reference: &Array4,
    get: impl Fn(usize, usize, usize, usize) -> f64,
) -> Result<(), String> {
    let n = reference.n;
    let cells = || {
        (1..=n).flat_map(move |k| {
            (1..=n).flat_map(move |j| (1..=n).flat_map(move |i| (1..=5).map(move |m| (m, i, j, k))))
        })
    };
    let scale = cells()
        .map(|(m, i, j, k)| reference.get(m, i, j, k).abs())
        .fold(0.0, f64::max);
    for (m, i, j, k) in cells() {
        let (want, got) = (reference.get(m, i, j, k), get(m, i, j, k));
        if !got.is_finite() {
            return Err(format!("{name}({m},{i},{j},{k}) is not finite: {got}"));
        }
        if (want - got).abs() > NAS_TOLERANCE * scale {
            return Err(format!(
                "{name}({m},{i},{j},{k}): got {got:e}, reference {want:e} (max |ref| {scale:e})"
            ));
        }
    }
    Ok(())
}

fn check_stitched(
    arrays: &BTreeMap<String, ArrayValue>,
    name: &str,
    reference: &Array4,
) -> Result<(), String> {
    let got = arrays
        .get(name)
        .ok_or_else(|| format!("array {name} missing from the stitched result"))?;
    let n = reference.n as i64;
    if got.lo != [1, 1, 1, 1] || got.hi != [5, n, n, n] {
        return Err(format!(
            "{name}: bounds {:?}..{:?}, expected (1,1,1,1)..(5,{n},{n},{n})",
            got.lo, got.hi
        ));
    }
    check_field(name, reference, |m, i, j, k| {
        got.get(&[m as i64, i as i64, j as i64, k as i64])
    })
}

/// `virtual_s`/`messages`/`bytes` of a repeated input must not change
/// between ops; `first` remembers the first op's.
fn check_repeats(first: &mut Option<(u64, u64, u64)>, s: &OpSample) -> Result<(), String> {
    let now = (s.virtual_s.to_bits(), s.messages, s.bytes);
    match *first.get_or_insert(now) {
        seen if seen == now => Ok(()),
        seen => Err(format!(
            "not deterministic: (virtual_s, messages, bytes) was ({:e}, {}, {}), now ({:e}, {}, {})",
            f64::from_bits(seen.0),
            seen.1,
            seen.2,
            s.virtual_s,
            s.messages,
            s.bytes
        )),
    }
}

#[derive(Clone, Copy)]
pub enum Kind {
    Bt,
    Sp,
}

/// The native one-rank reference run: zero virtual costs, no compiler.
fn native_reference(kind: Kind, n: usize, niter: usize) -> HandResult {
    let (machine, costs) = (MachineConfig::sp2(1), PhaseCosts::default());
    match kind {
        Kind::Bt => run_multipart::<BtSolver>(n, niter, 1, machine, &costs, false),
        Kind::Sp => run_multipart::<SpSolver>(n, niter, 1, machine, &costs, true),
    }
    .expect("one rank always fits")
}

/// NAS BT or SP compiled by dHPF for an `npy x npz` grid. Sizes are pinned
/// here, not taken from `dhpf_nas::Class`, so a change to the classes does
/// not silently change a workload.
pub struct Nas {
    source: String,
    bindings: BTreeMap<String, i64>,
    nprocs: usize,
    pub reference: HandResult,
    first: Option<(u64, u64, u64)>,
}

impl Nas {
    pub fn new(kind: Kind, n: usize, npy: usize, npz: usize) -> Self {
        const NITER: usize = 2;
        let bindings = [
            ("nx", n),
            ("ny", n),
            ("nz", n),
            ("niter", NITER),
            ("npy", npy),
            ("npz", npz),
        ];
        Nas {
            source: match kind {
                Kind::Bt => dhpf_nas::bt::source(),
                Kind::Sp => dhpf_nas::sp::source(),
            },
            bindings: bindings
                .into_iter()
                .map(|(k, v)| (k.to_string(), v as i64))
                .collect(),
            nprocs: npy * npz,
            reference: native_reference(kind, n, NITER),
            first: None,
        }
    }

    fn boxed(kind: Kind, n: usize, npy: usize, npz: usize) -> Box<dyn Workload> {
        Box::new(Nas::new(kind, n, npy, npz))
    }
}

impl Workload for Nas {
    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn op(&mut self, k: usize, traced: bool, spans: &mut Spans) -> OpSample {
        run_op(k, traced, spans, |spans, s| {
            let (program, dt) = spans.time("fortran.parse", || dhpf_fortran::parse(&self.source));
            s.parse_s = dt;
            s.source_lines = self.source.lines().count();
            let program = program.map_err(|d| format!("parse: {} diagnostic(s)", d.len()))?;
            // A `dhpf compile` user pays a cold interner on every run.
            spans.time("iset.reset_cache", dhpf_iset::reset_cache);
            let result = compile_verify_run(&program, &self.bindings, self.nprocs, spans, s)?;
            let (checked, _) = spans.time("check.output", || {
                check_stitched(&result.arrays, "u", &self.reference.u)
                    .and_then(|()| check_stitched(&result.arrays, "rhs", &self.reference.rhs))
            });
            checked?;
            check_repeats(&mut self.first, s)
        })
    }
}

/// Generated programs `first + k`, each checked against the serial
/// interpreter at every geometry of [`FUZZ_GEOMETRIES`]. One op is one
/// program. The harness never resets the interner between ops, as in
/// `dhpf fuzz`.
struct Fuzz {
    seed: u64,
    first: usize,
}

impl Workload for Fuzz {
    fn nprocs(&self) -> usize {
        FUZZ_MAX_PDIM as usize
    }

    fn count_window(&self) -> Option<usize> {
        Some(FUZZ_COUNT_WINDOW)
    }

    fn op(&mut self, k: usize, traced: bool, spans: &mut Spans) -> OpSample {
        // The program under test receives generated source text, never
        // the seed.
        let pseed = program_seed(self.seed, self.first + k);
        run_op(k, traced, spans, |spans, s| {
            let ((grid_rank, source), dt) = spans.time("fuzz.gen", || {
                let spec = generate(
                    pseed,
                    &GenOptions {
                        max_pdim: FUZZ_MAX_PDIM,
                    },
                );
                (spec.grid_rank, spec.render())
            });
            s.gen_s = dt;
            let (program, dt) = spans.time("fortran.parse", || dhpf_fortran::parse(&source));
            s.parse_s = dt;
            s.source_lines = source.lines().count();
            let program = program.map_err(|d| format!("parse: {} diagnostic(s)", d.len()))?;
            let (serial, dt) =
                spans.time("fuzz.serial_ref", || run_serial(&program, &BTreeMap::new()));
            s.serial_ref_s = dt;
            let serial = serial.map_err(|e| format!("serial reference: {e}"))?;
            for geometry in FUZZ_GEOMETRIES {
                let adapted = adapt_geometry(geometry, grid_rank);
                let nprocs = adapted.iter().product::<i64>() as usize;
                let bindings = grid_bindings(&adapted).into_iter().collect();
                let result = compile_verify_run(&program, &bindings, nprocs, spans, s)
                    .map_err(|e| format!("at {adapted:?}: {e}"))?;
                let (same, dt) = spans.time("fuzz.compare", || {
                    compare_stitched(&serial, &result.arrays, &program, FUZZ_MAX_ULPS)
                });
                s.compare_s += dt;
                same.map_err(|e| format!("at {adapted:?}: {e}"))?;
            }
            Ok(())
        })
    }
}

/// Hand-written multipartitioned SP on 16 ranks: native closures doing
/// blocking `send`/`recv`/`sendrecv` on `dhpf-spmd` at a high message
/// rate. No compiler, no interpreter.
struct Hand {
    niter: usize,
    costs: PhaseCosts,
    reference: HandResult,
    first: Option<(u64, u64, u64)>,
}

impl Hand {
    const N: usize = 12;
    const NPROCS: usize = 16;

    fn new(niter: usize) -> Self {
        let calibration = BTreeMap::from([("npy".to_string(), 1), ("npz".to_string(), 1)]);
        Hand {
            niter,
            costs: calibrate(&dhpf_nas::sp::source(), calibration, 8),
            reference: native_reference(Kind::Sp, Self::N, niter),
            first: None,
        }
    }
}

impl Workload for Hand {
    fn nprocs(&self) -> usize {
        Self::NPROCS
    }

    fn op(&mut self, k: usize, traced: bool, spans: &mut Spans) -> OpSample {
        run_op(k, traced, spans, |spans, s| {
            let mut machine = MachineConfig::sp2(Self::NPROCS);
            if traced {
                machine = machine.with_trace();
            }
            let cpu0 = process_cpu_s();
            let (result, dt) = spans.time("spmd.run_multipart", || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_multipart::<SpSolver>(
                        Self::N,
                        self.niter,
                        Self::NPROCS,
                        machine,
                        &self.costs,
                        true,
                    )
                }))
            });
            s.exec_cpu_s = process_cpu_s() - cpu0;
            s.exec_s = dt;
            let result = match result {
                Ok(Some(r)) => r,
                Ok(None) => return Err("16 ranks do not fit the grid".to_string()),
                Err(p) => return Err(format!("panic in run_multipart: {}", panic_msg(p))),
            };
            // No trace checker here: it is built for compiled programs'
            // traces and takes over a minute on this run's 3.2 M events.
            record_run(&result.run, s);
            let (checked, _) = spans.time("check.output", || {
                let (u, rhs) = (&result.u, &result.rhs);
                check_field("u", &self.reference.u, |m, i, j, k| u.get(m, i, j, k)).and_then(|()| {
                    check_field("rhs", &self.reference.rhs, |m, i, j, k| rhs.get(m, i, j, k))
                })
            });
            checked?;
            check_repeats(&mut self.first, s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The output check must be able to fail: plant one wrong cell in the
    /// reference and the op counts as failed, naming the cell.
    #[test]
    fn corrupted_reference_cell_fails_the_op() {
        let mut w = Nas::new(Kind::Sp, 8, 1, 1);
        let clean = w.op(0, false, &mut Spans::new(false));
        assert_eq!(clean.failed, None);
        assert!(clean.virtual_s > 0.0 && clean.exec_s > 0.0 && clean.compile_s > 0.0);

        let good = w.reference.u.get(2, 3, 4, 5);
        w.reference
            .u
            .set(2, 3, 4, 5, good + 1e-6 * good.abs().max(1.0));
        let why = w
            .op(1, false, &mut Spans::new(false))
            .failed
            .expect("op must fail");
        assert!(why.contains("u(2,3,4,5)"), "{why}");
    }

    #[test]
    fn non_finite_output_fails_the_check() {
        let reference = Array4::new(5, 2);
        let bad = check_field("u", &reference, |m, i, _, _| {
            if (m, i) == (1, 2) {
                f64::NAN
            } else {
                0.0
            }
        });
        assert!(bad.unwrap_err().contains("not finite"));
    }

    #[test]
    fn changed_counts_between_reps_fail_the_op() {
        let mut first = None;
        let mut s = OpSample {
            virtual_s: 0.5,
            messages: 64,
            bytes: 1024,
            ..OpSample::default()
        };
        assert!(check_repeats(&mut first, &s).is_ok());
        assert!(check_repeats(&mut first, &s).is_ok());
        s.messages = 65;
        assert!(check_repeats(&mut first, &s)
            .unwrap_err()
            .contains("not deterministic"));
    }
}
