//! The differential oracle matrix.
//!
//! One generated program is checked as: serial reference interpretation
//! (ground truth) versus every compiled execution across the whole
//! optimization-flag lattice and every processor geometry, with five
//! independent conformance oracles on each cell:
//!
//! * **numeric** — stitched SPMD arrays vs the serial interpreter,
//!   bitwise on integer-typed arrays, ULP-bounded on doubles;
//! * **coverage** — the independent comm-coverage verifier
//!   ([`dhpf_analysis::verify_compiled`]) plus plan-level ghost races;
//! * **protocol-static** — the rank-symbolic SPMD protocol verifier
//!   (matching, congruence, wait coverage, deadlock-freedom);
//! * **protocol-dynamic** — the execution trace checker (unmatched
//!   sends/recvs, wait coverage as actually executed);
//! * **fingerprint** — compiling the same program again (on the interner
//!   the first compile warmed) must produce byte-identical artifacts.
//!
//! Panics anywhere in the pipeline are caught and reported as their own
//! oracle kind, with the generating seed, so every crash is replayable.

use crate::gen::{adapt_geometry, grid_bindings, ProgramSpec};
use dhpf_core::driver::{compile, CompileOptions, Compiled, OptFlags};
use dhpf_core::exec::node::run_node_program;
use dhpf_core::exec::serial::{is_integer_name, run_serial, SerialResult};
use dhpf_fortran::ast::Program;
use dhpf_fortran::unparse::unparse_program;
use dhpf_spmd::machine::MachineConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which oracle flagged a disagreement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Oracle {
    /// The generated source failed to parse (a generator defect).
    Generate,
    /// `parse ∘ unparse` is not a fixpoint on the generated program.
    Roundtrip,
    /// The serial reference interpreter rejected the program.
    Serial,
    /// The compiler rejected a valid generated program.
    Compile,
    /// A panic escaped the compiler or the SPMD interpreter.
    Panic,
    /// Execution returned a structured error.
    Exec,
    /// Comm-coverage verifier or ghost-race findings.
    Coverage,
    /// Static protocol verifier findings.
    ProtocolStatic,
    /// Dynamic trace-checker findings.
    ProtocolDynamic,
    /// Serial/SPMD numeric divergence.
    Numeric,
    /// Two compilations of one program have different fingerprints.
    Fingerprint,
}

impl Oracle {
    pub fn as_str(self) -> &'static str {
        match self {
            Oracle::Generate => "generate",
            Oracle::Roundtrip => "roundtrip",
            Oracle::Serial => "serial",
            Oracle::Compile => "compile",
            Oracle::Panic => "panic",
            Oracle::Exec => "exec",
            Oracle::Coverage => "coverage",
            Oracle::ProtocolStatic => "protocol-static",
            Oracle::ProtocolDynamic => "protocol-dynamic",
            Oracle::Numeric => "numeric",
            Oracle::Fingerprint => "fingerprint",
        }
    }
}

/// One oracle disagreement on one lattice cell.
#[derive(Clone, Debug)]
pub struct Failure {
    pub oracle: Oracle,
    /// Flag-lattice configuration label (`all-on`, `no-overlap`, …).
    pub config: String,
    /// Adapted processor geometry (empty for geometry-independent cells).
    pub geometry: Vec<i64>,
    pub message: String,
}

/// Outcome of checking one program across the whole matrix.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    pub failures: Vec<Failure>,
    pub compiles: usize,
    pub runs: usize,
    /// Total messages across all executions (a coverage signal: a
    /// campaign whose programs never communicate tests nothing).
    pub messages: u64,
    /// Oracle evaluations attempted, keyed by oracle name.
    pub checked: BTreeMap<&'static str, u64>,
}

impl CheckOutcome {
    fn tick(&mut self, o: Oracle) {
        *self.checked.entry(o.as_str()).or_insert(0) += 1;
    }

    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// ULP distance between two doubles (0 when bitwise equal or both are
/// the same zero; `u64::MAX` across signs or for non-finite values).
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b || (a.is_nan() && b.is_nan() && a.to_bits() == b.to_bits()) {
        return 0;
    }
    if !a.is_finite() || !b.is_finite() || (a < 0.0) != (b < 0.0) {
        return u64::MAX;
    }
    a.to_bits().abs_diff(b.to_bits())
}

fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<dhpf_core::exec::ExecError>() {
        e.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Names excluded from the numeric oracle: NEW-privatized variables
/// have unspecified contents after their loop (each processor keeps its
/// private copy's last iteration), so serial and SPMD finals may
/// legitimately disagree.
fn excluded_arrays(program: &Program) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    program.for_each_stmt(&mut |s| {
        if let dhpf_fortran::ast::StmtKind::Do { dir, .. } = &s.kind {
            for v in &dir.new_vars {
                out.insert(v.clone());
            }
        }
    });
    out
}

/// Compare the stitched SPMD arrays against the serial reference.
pub fn compare_stitched(
    serial: &SerialResult,
    parallel: &BTreeMap<String, dhpf_core::exec::serial::ArrayValue>,
    program: &Program,
    max_ulps: u64,
) -> Result<(), String> {
    let excluded = excluded_arrays(program);
    let main = program.main().expect("generated programs have a main");
    for (name, truth) in &serial.arrays {
        if excluded.contains(name) {
            continue;
        }
        let Some(got) = parallel.get(name) else {
            return Err(format!(
                "array `{name}` missing from the stitched SPMD result"
            ));
        };
        if truth.lo != got.lo || truth.hi != got.hi {
            return Err(format!(
                "array `{name}` shape mismatch: serial [{:?}..{:?}] vs SPMD [{:?}..{:?}]",
                truth.lo, truth.hi, got.lo, got.hi
            ));
        }
        let integer = is_integer_name(name, &main.decls);
        for (k, (t, g)) in truth.data.iter().zip(&got.data).enumerate() {
            if integer {
                if t.to_bits() != g.to_bits() {
                    return Err(format!(
                        "integer array `{name}` diverges at flat index {k}: serial {t} vs SPMD {g} (bitwise oracle)"
                    ));
                }
            } else {
                let d = ulp_diff(*t, *g);
                if d > max_ulps {
                    return Err(format!(
                        "array `{name}` diverges at flat index {k}: serial {t:e} vs SPMD {g:e} ({d} ulps > {max_ulps})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Unparser round-trip as a generator post-condition: unparse must be a
/// fixpoint (`unparse(parse(unparse(p))) == unparse(p)`) and reparse
/// must succeed at all.
pub fn roundtrip_check(program: &Program) -> Result<(), String> {
    let text = unparse_program(program);
    let again = dhpf_fortran::parse(&text)
        .map_err(|d| format!("unparsed program does not reparse: {d:?}\n{text}"))?;
    let text2 = unparse_program(&again);
    if text != text2 {
        return Err(format!(
            "unparse is not a fixpoint:\n--- first ---\n{text}\n--- second ---\n{text2}"
        ));
    }
    Ok(())
}

/// Check one program across `geometries` (pre-adaptation specs) and the
/// full flag lattice. `max_ulps` bounds the float oracle.
pub fn check_program(spec: &ProgramSpec, geometries: &[Vec<i64>], max_ulps: u64) -> CheckOutcome {
    check_source(&spec.render(), spec.grid_rank, geometries, max_ulps)
}

/// [`check_program`] for raw source text — used to replay the checked-in
/// corpus of minimized regression programs. `grid_rank` steers geometry
/// adaptation exactly as the generator's rank would.
pub fn check_source(
    src: &str,
    grid_rank: usize,
    geometries: &[Vec<i64>],
    max_ulps: u64,
) -> CheckOutcome {
    let mut out = CheckOutcome::default();

    out.tick(Oracle::Generate);
    let program = match dhpf_fortran::parse(src) {
        Ok(p) => p,
        Err(d) => {
            out.failures.push(Failure {
                oracle: Oracle::Generate,
                config: String::new(),
                geometry: vec![],
                message: format!("generated source does not parse: {d:?}"),
            });
            return out;
        }
    };

    out.tick(Oracle::Roundtrip);
    if let Err(m) = roundtrip_check(&program) {
        out.failures.push(Failure {
            oracle: Oracle::Roundtrip,
            config: String::new(),
            geometry: vec![],
            message: m,
        });
        // not fatal: the parsed program is still testable
    }

    out.tick(Oracle::Serial);
    let serial = match run_serial(&program, &BTreeMap::new()) {
        Ok(s) => s,
        Err(e) => {
            out.failures.push(Failure {
                oracle: Oracle::Serial,
                config: String::new(),
                geometry: vec![],
                message: format!("serial reference rejected the program: {e}"),
            });
            return out;
        }
    };

    for geom in geometries {
        let adapted = adapt_geometry(geom, grid_rank);
        let nprocs: i64 = adapted.iter().product();
        for (label, flags) in OptFlags::lattice() {
            let mut opts = CompileOptions::new();
            opts.bindings = grid_bindings(&adapted).into_iter().collect();
            opts.flags = flags;
            let compiled = match catch_unwind(AssertUnwindSafe(|| compile(&program, &opts))) {
                Ok(Ok(c)) => c,
                Ok(Err(e)) => {
                    out.tick(Oracle::Compile);
                    // A flag-off configuration may honestly decline a
                    // program that needs the disabled optimization to
                    // be compilable at all (e.g. LOCALIZE kernels under
                    // no-localize become inner-loop communication).
                    // Only the full compiler rejecting a generated
                    // program is a conformance failure.
                    if label == "all-on" {
                        out.failures.push(Failure {
                            oracle: Oracle::Compile,
                            config: label.to_string(),
                            geometry: adapted.clone(),
                            message: format!("compiler rejected a valid program: {e}"),
                        });
                    } else {
                        *out.checked.entry("compile-declined").or_insert(0) += 1;
                    }
                    continue;
                }
                Err(p) => {
                    out.tick(Oracle::Panic);
                    out.failures.push(Failure {
                        oracle: Oracle::Panic,
                        config: label.to_string(),
                        geometry: adapted.clone(),
                        message: format!("panic during compilation: {}", panic_msg(p)),
                    });
                    continue;
                }
            };
            out.compiles += 1;
            if label == "all-on" {
                // fingerprint identity: recompiling the default
                // configuration, now on a warm interner, must reproduce
                // it bit for bit at this geometry
                out.tick(Oracle::Fingerprint);
                let again = compile(&program, &opts).map(|c| c.fingerprint());
                if again.ok() != Some(compiled.fingerprint()) {
                    out.failures.push(Failure {
                        oracle: Oracle::Fingerprint,
                        config: label.to_string(),
                        geometry: adapted.clone(),
                        message: "recompiling the program changed its fingerprint".to_string(),
                    });
                }
            }
            check_compiled(
                &mut out,
                &compiled,
                &program,
                &serial,
                label,
                &adapted,
                nprocs as usize,
                max_ulps,
            );
        }
    }
    out
}

/// All post-compile oracles for one lattice cell.
#[allow(clippy::too_many_arguments)]
fn check_compiled(
    out: &mut CheckOutcome,
    compiled: &Compiled,
    program: &Program,
    serial: &SerialResult,
    label: &str,
    adapted: &[i64],
    nprocs: usize,
    max_ulps: u64,
) {
    let fail = |out: &mut CheckOutcome, oracle: Oracle, message: String| {
        out.failures.push(Failure {
            oracle,
            config: label.to_string(),
            geometry: adapted.to_vec(),
            message,
        });
    };

    out.tick(Oracle::Coverage);
    let cover = dhpf_analysis::verify_compiled(compiled);
    if !cover.is_clean() {
        fail(
            out,
            Oracle::Coverage,
            format!("comm-coverage findings:\n{}", cover.render_human(None)),
        );
    }
    let races = dhpf_analysis::check_compiled_races(compiled);
    if !races.is_clean() {
        fail(
            out,
            Oracle::Coverage,
            format!("ghost races:\n{}", races.render_human(None)),
        );
    }

    out.tick(Oracle::ProtocolStatic);
    let proto = dhpf_core::protocol::extract_protocol(&compiled.program);
    let report = dhpf_analysis::check_protocol(&proto);
    if !report.is_clean() {
        fail(
            out,
            Oracle::ProtocolStatic,
            format!("static protocol violations:\n{}", report.render_human(None)),
        );
    }

    let machine = MachineConfig::sp2(nprocs).with_trace();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_node_program(&compiled.program, machine)
    }));
    let result = match run {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => {
            out.tick(Oracle::Exec);
            fail(out, Oracle::Exec, format!("execution failed: {e}"));
            return;
        }
        Err(p) => {
            out.tick(Oracle::Panic);
            fail(
                out,
                Oracle::Panic,
                format!("panic during execution: {}", panic_msg(p)),
            );
            return;
        }
    };
    out.runs += 1;
    out.messages += result.run.stats.messages;

    out.tick(Oracle::ProtocolDynamic);
    let traces = dhpf_analysis::check_traces(&result.run.traces);
    if traces.error_count() > 0 {
        fail(
            out,
            Oracle::ProtocolDynamic,
            format!("trace-checker findings:\n{}", traces.render_human(None)),
        );
    }

    out.tick(Oracle::Numeric);
    if let Err(m) = compare_stitched(serial, &result.arrays, program, max_ulps) {
        fail(out, Oracle::Numeric, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 3)), 3);
        assert_eq!(ulp_diff(1.0, -1.0), u64::MAX);
        assert_eq!(ulp_diff(1.0, f64::NAN), u64::MAX);
    }

    #[test]
    fn lattice_covers_every_toggle_both_ways() {
        let lat = OptFlags::lattice();
        assert_eq!(lat.len(), 9);
        // every flag is off in at least one config and on in at least one
        let offs: Vec<[bool; 7]> = lat
            .iter()
            .map(|(_, f)| {
                [
                    f.privatizable_cp,
                    f.localize,
                    f.loop_distribution,
                    f.interproc,
                    f.data_availability,
                    f.overlap,
                    f.aggregate,
                ]
            })
            .collect();
        for dim in 0..7 {
            assert!(offs.iter().any(|c| c[dim]));
            assert!(offs.iter().any(|c| !c[dim]));
        }
    }
}
