//! Compile-time benchmark for the dHPF pipeline: cold (empty iset
//! interner) vs warm (populated interner + memo tables) vs traced
//! (dhpf-obs recorder enabled) compilation of NAS SP and BT at 4 ranks;
//! the minimum over repetitions is reported. EXPERIMENTS.md ("Compile-time
//! performance") has the methodology and the field legend.
//!
//! `traced_cold_ms` beside `cold_ms` is the cost of compiling with the
//! recorder enabled, reported as measured; the gated figure is the
//! repo benchmark's `obs.compile_overhead`, taken from paired plain and
//! traced ops.

use crate::{Measurement, Outcome};
use dhpf_core::driver::{compile, CompileOptions};
use dhpf_fortran::ast::Program;
use dhpf_nas::{Class, Kernel};
use std::time::Instant;

const NPROCS: usize = 4;

/// Phase names surfaced per benchmark, in pipeline order. These are the
/// top-level span names the driver and unit scopes record.
const PHASES: &[&str] = &[
    "semantic",
    "units",
    "inline",
    "analyze",
    "loop-distribution",
    "cp-select",
    "propagate",
    "comm-plan",
    "codegen",
];

/// Wall-clock compile measurements of one benchmark.
#[derive(Clone, Debug)]
pub struct Timing {
    pub cold_ms: f64,
    pub warm_ms: f64,
    pub traced_cold_ms: f64,
    /// `None` when the compiles made no interner lookup.
    pub cache_hit_rate: Option<f64>,
    pub peak_interned_nodes: usize,
    /// Per-phase milliseconds of one traced compile, in pipeline order.
    pub phases: Vec<(&'static str, f64)>,
}

impl Timing {
    /// Relative cost of compiling with the recorder enabled.
    pub fn trace_overhead(&self) -> f64 {
        self.traced_cold_ms / self.cold_ms - 1.0
    }
}

fn time_compile_ms(program: &Program, opts: &CompileOptions) -> f64 {
    let t0 = Instant::now();
    let compiled = compile(program, opts).expect("compile");
    let dt = t0.elapsed().as_secs_f64() * 1e3;
    // keep the result alive through the timer so the compile is not
    // trivially dead code
    std::hint::black_box(&compiled);
    dt
}

fn measure(kernel: Kernel, class: Class, cold_reps: usize, warm_reps: usize) -> Timing {
    let program = kernel.parse();
    let mut opts = CompileOptions::new();
    opts.bindings = kernel.bindings(class, NPROCS);

    // cold: empty interner and memo tables before every repetition
    let mut cold_ms = f64::INFINITY;
    for _ in 0..cold_reps {
        dhpf_iset::reset_cache();
        cold_ms = cold_ms.min(time_compile_ms(&program, &opts));
    }

    // traced cold: same protocol with the dhpf-obs recorder enabled
    let traced_opts = opts.clone().observed();
    let mut traced_cold_ms = f64::INFINITY;
    for _ in 0..cold_reps {
        dhpf_iset::reset_cache();
        traced_cold_ms = traced_cold_ms.min(time_compile_ms(&program, &traced_opts));
    }

    // one more traced compile (warm, untimed) to harvest per-phase times
    let traced = compile(&program, &traced_opts).expect("compile");
    let phases = PHASES
        .iter()
        .map(|&p| (p, traced.obs.metrics.phase_ms(p)))
        .collect();

    // warm: re-seed the cache with one untimed compile, then time
    // repetitions on the retained cache
    dhpf_iset::reset_cache();
    let _ = time_compile_ms(&program, &opts);
    let mut warm_ms = f64::INFINITY;
    for _ in 0..warm_reps {
        warm_ms = warm_ms.min(time_compile_ms(&program, &opts));
    }

    let stats = dhpf_iset::cache_stats();
    Timing {
        cold_ms,
        warm_ms,
        traced_cold_ms,
        cache_hit_rate: stats.hit_rate(),
        peak_interned_nodes: stats.interned_nodes(),
        phases,
    }
}

/// Time every benchmark (progress to stderr). `quick` drops to class S
/// with one repetition each — the CI smoke configuration.
pub fn study(quick: bool) -> Vec<Measurement> {
    let (classes, cold_reps, warm_reps): (&[Class], usize, usize) = if quick {
        (&[Class::S], 1, 1)
    } else {
        (&[Class::S, Class::W], 3, 5)
    };
    let mut rows = Vec::new();
    for &class in classes {
        for kernel in Kernel::ALL {
            let t = measure(kernel, class, cold_reps, warm_reps);
            eprintln!(
                "{} class {}: cold {:.2} ms, warm {:.2} ms ({:.2}x), \
                 traced cold {:.2} ms ({:+.1}%), hit-rate {}, {} interned nodes",
                kernel.name(),
                class.name(),
                t.cold_ms,
                t.warm_ms,
                t.cold_ms / t.warm_ms,
                t.traced_cold_ms,
                t.trace_overhead() * 1e2,
                t.cache_hit_rate
                    .map_or("n/a".to_string(), |r| format!("{:.1}%", r * 1e2)),
                t.peak_interned_nodes,
            );
            rows.push(Measurement {
                kernel,
                class,
                nprocs: NPROCS,
                config: "dhpf".to_string(),
                outcome: Outcome::Compiled(t),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One single-repetition pass (what `--quick` runs per kernel): every
    /// field is measured and in range, and lands in the document.
    #[test]
    fn quick_timing_is_complete_and_in_range() {
        let t = measure(Kernel::Sp, Class::S, 1, 1);
        assert!(t.cold_ms > 0.0 && t.warm_ms > 0.0 && t.traced_cold_ms > 0.0);
        assert!(t.cache_hit_rate.is_none_or(|r| (0.0..=1.0).contains(&r)));
        let rate = t
            .cache_hit_rate
            .map_or("null".to_string(), |r| format!("{r:.4}"));
        // SP's compile may intern nothing: its only Fourier–Motzkin-backed
        // set operations were dependence tests, which no longer enter the
        // interner. BT's compile still makes some.
        assert!(measure(Kernel::Bt, Class::S, 1, 1).peak_interned_nodes > 0);
        assert_eq!(t.phases.len(), PHASES.len());
        assert!(t.phases.iter().all(|(_, ms)| *ms >= 0.0));
        assert!(t.phases.iter().any(|(_, ms)| *ms > 0.0), "no phase timed");

        let doc = crate::render(
            "compile",
            &[Measurement {
                kernel: Kernel::Sp,
                class: Class::S,
                nprocs: NPROCS,
                config: "dhpf".to_string(),
                outcome: Outcome::Compiled(t),
            }],
        );
        for key in [
            "\"schema\": \"dhpf-bench-v1\",\n  \"study\": \"compile\"",
            &format!(", \"cache_hit_rate\": {rate}, "),
            "{ \"kernel\": \"sp\", \"class\": \"S\", \"nprocs\": 4, \"config\": \"dhpf\", \"cold_ms\": ",
            ", \"warm_ms\": ",
            ", \"traced_cold_ms\": ",
            ", \"peak_interned_nodes\": ",
            "\"phases\": { \"semantic\": ",
            ", \"comm-plan\": ",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
    }
}
