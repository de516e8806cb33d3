//! The benchmark's names: workloads and metrics with unit, direction and
//! bound. `BENCHMARK.json` at the repo root states the same tables for the
//! driver; a test below keeps the two identical.

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression (0 for per-layer metrics,
    /// which carry no bound).
    pub bound: f64,
    /// A count (or a virtual time) that repeats exactly from run to run of
    /// one commit on one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        exact: true,
        ..layer(name, unit, better)
    }
}

use Better::{Higher, Lower};

/// `(name, why)`. Names are fixed: later issues refer to them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "bt-a-r1",
        "NAS BT 24^3, niter 2, 1 rank: the node-program interpreter alone, the plain single-rank baseline (0 messages, compile about 5% of an op)",
    ),
    (
        "bt-a-r4",
        "Same BT program and flops on 2x2 ranks: rank scaling; every rank scans the global iteration space under CP guards, so CPU grows while work does not",
    ),
    (
        "sp-a-r16",
        "NAS SP 24^3, niter 2, 4x4 ranks: compile and static verification at high P dominate; one cold large program, interpreter does little",
    ),
    (
        "fuzz-mix",
        "Seeded random HPF programs at geometries 1, 2x2, 3x2 with a shared warm interner: the CI/fuzz traffic of many tiny programs; front end, iset, planner at low P, verifiers",
    ),
    (
        "hand-mp-r16",
        "Hand-written multipartitioned SP 12^3, niter 2000, 16 ranks: dhpf-spmd messaging alone at high message rate, no compiler and no interpreter",
    ),
];

/// Where results and span traces go, relative to the repo root (the
/// directory every command here runs from).
pub const OUT_DIR: &str = "benchmark/out";

/// How long one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pipeline_s", "s", Lower, 0.25),
    e2e("exec_s", "s", Lower, 0.25),
    e2e("exec_cpu_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Compile phases read from `Compiled.obs.metrics.phase_ms`, in pipeline
/// order, each with the per-layer metric that reports it.
pub const PHASES: [(&str, &str); 8] = [
    ("semantic", "core.phase.semantic_s"),
    ("inline", "core.phase.inline_s"),
    ("analyze", "core.phase.analyze_s"),
    ("loop-distribution", "core.phase.loop-distribution_s"),
    ("cp-select", "core.phase.cp-select_s"),
    ("propagate", "core.phase.propagate_s"),
    ("comm-plan", "core.phase.comm-plan_s"),
    ("codegen", "core.phase.codegen_s"),
];

pub const PER_LAYER: &[Metric] = &[
    layer("fortran.parse_s", "s", Lower),
    layer("fortran.lines_per_s", "1/s", Higher),
    layer("iset.hit_rate", "ratio", Higher),
    exact("iset.lookups", "count", Lower),
    exact("iset.interned_nodes", "count", Lower),
    layer("core.compile_s", "s", Lower),
    layer("core.phase.semantic_s", "s", Lower),
    layer("core.phase.inline_s", "s", Lower),
    layer("core.phase.analyze_s", "s", Lower),
    layer("core.phase.loop-distribution_s", "s", Lower),
    layer("core.phase.cp-select_s", "s", Lower),
    layer("core.phase.propagate_s", "s", Lower),
    layer("core.phase.comm-plan_s", "s", Lower),
    layer("core.phase.codegen_s", "s", Lower),
    exact("core.compile.fingerprint_bytes", "count", Lower),
    exact("core.compile.pre_messages", "count", Lower),
    exact("core.compile.post_messages", "count", Lower),
    exact("core.compile.messages_saved", "count", Higher),
    exact("core.compile.reads_eliminated", "count", Higher),
    layer("obs.compile_overhead", "ratio", Lower),
    exact("obs.decisions", "count", Higher),
    exact("obs.spans", "count", Higher),
    layer("interp.exec_s", "s", Lower),
    layer("interp.exec_cpu_s", "s", Lower),
    exact("interp.virtual_busy_s", "s", Lower),
    layer("interp.cpu_per_virtual_s", "ratio", Lower),
    layer("interp.mflops", "Mflop/s", Higher),
    exact("spmd.virtual_s", "s", Lower),
    exact("spmd.messages", "count", Lower),
    exact("spmd.bytes", "count", Lower),
    layer("spmd.us_per_message", "us", Lower),
    layer("spmd.spawn_s", "s", Lower),
    exact("spmd.stall_virtual_s", "s", Lower),
    exact("spmd.trace_events", "count", Lower),
    layer("spmd.trace_overhead", "ratio", Lower),
    layer("analysis.verify_s", "s", Lower),
    layer("analysis.protocol_s", "s", Lower),
    layer("analysis.tracecheck_s", "s", Lower),
    exact("analysis.findings", "count", Lower),
    layer("profile.profile_s", "s", Lower),
    layer("profile.attribution", "ratio", Higher),
    layer("fuzz.gen_s", "s", Lower),
    layer("fuzz.serial_ref_s", "s", Lower),
    layer("fuzz.compare_s", "s", Lower),
    layer("pipeline.p95_s", "s", Lower),
    layer("pipeline.samples", "count", Higher),
    layer("trace.overhead", "ratio", Lower),
    layer("harness.uncovered_share", "ratio", Lower),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn contract_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    fn contract_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=5).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(contract_name(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(*name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(contract_name(m.name), "metric name {}", m.name);
            assert!(contract_unit(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (phase, name) in PHASES {
            assert_eq!(name, format!("core.phase.{phase}_s"));
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} missing");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// harness prints. They must state the same tables.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let s = |v: &Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();
        let got: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(got, want);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(rows.len(), table.len(), "{key} length");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(s(row, "name"), m.name);
                assert_eq!(s(row, "unit"), m.unit, "unit of {}", m.name);
                let better = match m.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(s(row, "better"), better, "better of {}", m.name);
                let bound = row.get("bound").map(|b| b.as_f64().unwrap());
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert_eq!(seconds, DEFAULT_SECONDS);
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
