//! Acceptance tests for the cross-rank critical-path profiler: the
//! SP class S golden report, structural invariants of the critical
//! path and the what-if engine, the stall-attribution floor, and the
//! agreement between the overlap what-if and the measured
//! blocking-vs-overlapped delta.

use dhpf::core::driver::Compiled;
use dhpf::nas::Kernel;
use dhpf::prelude::*;
use dhpf::profile::{profile, Profile, ProfileOptions};

fn compile_nas(kernel: Kernel, overlap: bool) -> Compiled {
    let (program, bindings) = (kernel.parse(), kernel.bindings(Class::S, 4));
    let mut opts = CompileOptions::new().observed();
    opts.bindings = bindings;
    opts.granularity = 4;
    opts.flags.overlap = overlap;
    compile(&program, &opts).expect("compile")
}

/// Replicates `dhpf profile --nas <name> --class S --nprocs 4
/// --no-overlap`: compile blocking, execute traced, profile with the
/// overlap candidates the compiler would fuse.
fn profile_nas(kernel: Kernel) -> (Profile, Compiled) {
    let blocking = compile_nas(kernel, false);
    let overlapped = compile_nas(kernel, true);
    let machine = MachineConfig::sp2(4).with_trace();
    let result = run_node_program(&blocking.program, machine.clone()).expect("run");
    let opts = ProfileOptions {
        top: 8,
        overlap_candidates: dhpf::profile::overlap_candidates(
            &blocking.program,
            &overlapped.program,
        ),
    };
    let prof = profile(
        &blocking.program,
        &blocking.transformed,
        &blocking.obs,
        &result.run.traces,
        &machine,
        &opts,
    )
    .expect("profile");
    (prof, blocking)
}

/// The full human-readable profile for NAS SP class S on 4 processors,
/// pinned byte-for-byte: rank table, class breakdown, ranked nests with
/// source/decision attribution, and the what-if table. Everything is
/// virtual time, so the report is deterministic. Regenerate with
/// `dhpf profile --nas sp --class S --nprocs 4 --no-overlap \
///      --out tests/golden/sp_s_profile.txt`
/// after reviewing the diff.
#[test]
fn sp_class_s_profile_report_matches_golden() {
    let golden = include_str!("golden/sp_s_profile.txt");
    let (prof, _) = profile_nas(Kernel::Sp);
    let report = dhpf::profile::report::render_human(&prof, 8);
    assert_eq!(
        report, golden,
        "profile report drifted from tests/golden/sp_s_profile.txt"
    );
}

/// The critical path must tile `[0, makespan]` exactly: contiguous,
/// in order, summing to the makespan — on both benchmarks.
#[test]
fn critical_path_tiles_the_makespan() {
    for kernel in Kernel::ALL {
        let name = kernel.name();
        let (prof, _) = profile_nas(kernel);
        assert!(prof.makespan > 0.0, "{name}: empty run");
        assert!(!prof.path.is_empty(), "{name}: empty critical path");
        let tol = 1e-12 * prof.makespan.max(1.0);
        assert!(prof.path[0].t0.abs() <= tol, "{name}: path starts late");
        let last = prof.path.last().unwrap();
        assert!(
            (last.t1 - prof.makespan).abs() <= tol,
            "{name}: path ends at {} not {}",
            last.t1,
            prof.makespan
        );
        for w in prof.path.windows(2) {
            assert!(
                (w[0].t1 - w[1].t0).abs() <= tol,
                "{name}: gap between segments at {}..{}",
                w[0].t1,
                w[1].t0
            );
        }
        let sum: f64 = prof.path.iter().map(|s| s.dur()).sum();
        assert!(
            (sum - prof.makespan).abs() <= 1e-9 * prof.makespan,
            "{name}: path sums to {sum}, makespan {}",
            prof.makespan
        );
    }
}

/// No hypothetical improvement may slow the program down: every what-if
/// replay (free nest, overlap, no barriers) ends at or before the
/// traced makespan.
#[test]
fn every_whatif_makespan_is_bounded_by_the_baseline() {
    for kernel in Kernel::ALL {
        let name = kernel.name();
        let (prof, _) = profile_nas(kernel);
        assert!(!prof.whatif.is_empty(), "{name}: no what-if scenarios");
        for w in &prof.whatif {
            assert!(
                w.makespan <= prof.makespan + 1e-9 * prof.makespan,
                "{name}: what-if `{}` ends at {} after baseline {}",
                w.label,
                w.makespan,
                prof.makespan
            );
            assert!(w.savings >= 0.0, "{name}: negative savings in {}", w.label);
        }
    }
}

/// The acceptance bar from the issue: at least 95% of all stall time
/// must be charged to a provenanced nest, and the attributed nests must
/// each join at least one decision-log record.
#[test]
fn stall_attribution_covers_95_percent_with_decisions() {
    let (prof, _) = profile_nas(Kernel::Sp);
    assert!(prof.total_stall > 0.0, "SP should stall somewhere");
    assert!(
        prof.attribution_coverage() >= 0.95,
        "only {:.1}% of stall attributed",
        100.0 * prof.attribution_coverage()
    );
    assert!(!prof.nests.is_empty());
    for n in &prof.nests {
        assert!(
            !n.decisions.is_empty(),
            "nest {} ({} at {}) joined no compiler decision",
            n.id,
            n.prov.kind.name(),
            n.prov.anchor()
        );
        assert!(n.prov.line.is_some(), "nest {} has no source line", n.id);
    }
}

/// The overlap what-if must agree with reality: simulate the blocking
/// schedule with receives overlapped and compare against the *measured*
/// makespan of the program the compiler actually emits with overlap on.
/// Sign must agree and the predicted savings must land within 3
/// percentage points of the measured delta.
#[test]
fn overlap_whatif_agrees_with_measured_delta() {
    let (prof, _) = profile_nas(Kernel::Sp);
    let overlapped = compile_nas(Kernel::Sp, true);
    let measured = run_node_program(&overlapped.program, MachineConfig::sp2(4))
        .expect("run overlapped")
        .run
        .virtual_time;
    let w = prof
        .whatif
        .iter()
        .find(|w| w.scenario == "overlap")
        .expect("overlap what-if missing");
    let measured_pct = 100.0 * (prof.makespan - measured) / prof.makespan;
    let predicted_pct = w.savings_pct(prof.makespan);
    assert!(
        measured_pct > 0.0 && predicted_pct > 0.0,
        "sign disagrees: measured {measured_pct:.2}%, predicted {predicted_pct:.2}%"
    );
    assert!(
        (predicted_pct - measured_pct).abs() <= 3.0,
        "overlap what-if predicts {predicted_pct:.2}%, measured {measured_pct:.2}% \
         (more than 3 pp apart)"
    );
}

/// The JSON document carries the frozen schema and the same numbers as
/// the in-memory profile.
#[test]
fn profile_json_carries_schema_and_totals() {
    let (prof, _) = profile_nas(Kernel::Sp);
    assert_eq!((prof.nprocs, prof.ranks.len()), (4, 4));
    let json = dhpf::profile::report::render_json(&prof);
    assert!(json.contains("\"schema\": \"dhpf-profile-v1\""));
    assert!(json.contains(&format!("\"makespan_s\": {:.9}", prof.makespan)));
    assert!(json.contains("\"critical_path\""));
    assert!(json.contains("\"whatif\""));
    // per-rank gauges ride along in the metrics document
    let mut m = dhpf::obs::Metrics::default();
    let blocking = compile_nas(Kernel::Sp, false);
    let result =
        run_node_program(&blocking.program, MachineConfig::sp2(4).with_trace()).expect("run");
    dhpf::profile::record_exec_gauges(&mut m, &result.run.traces);
    let mjson = m.render_json();
    assert!(mjson.contains("\"schema\": \"dhpf-metrics-v1\""));
    for rank in 0..4 {
        assert!(mjson.contains(&format!("\"exec.r{rank}.busy_ms\"")));
        assert!(mjson.contains(&format!("\"exec.r{rank}.stall_ms\"")));
    }
    assert!(mjson.contains("\"exec.imbalance\""));
}
