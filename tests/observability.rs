//! End-to-end tests for the dhpf-obs layer: the decision-log golden, the
//! metrics document, and the Perfetto trace export.

use dhpf::core::driver::{compile, CompileOptions};
use dhpf::nas::Kernel;
use dhpf::prelude::*;

fn compile_sp_observed() -> dhpf::core::driver::Compiled {
    let mut opts = CompileOptions::new().observed();
    opts.bindings = dhpf::nas::Kernel::Sp.bindings(Class::S, 4);
    opts.granularity = 4;
    compile(&dhpf::nas::Kernel::Sp.parse(), &opts).expect("compile sp")
}

/// The full decision log for NAS SP class S on 4 processors, pinned
/// byte-for-byte. This is the contract behind `dhpf explain`: every CP
/// choice (§4.1/§5/§6), replication (§4.2), and communication
/// eliminated/retained by availability (§7) is attributed to a source
/// line. Regenerate with
/// `dhpf explain --nas sp --class S --nprocs 4 > tests/golden/sp_s_decisions.txt`
/// after reviewing the diff.
#[test]
fn sp_class_s_decision_log_matches_golden() {
    let golden = include_str!("golden/sp_s_decisions.txt");
    let compiled = compile_sp_observed();
    let log = compiled.obs.decision_log(&compiled.transformed);
    assert_eq!(
        log, golden,
        "decision log drifted from tests/golden/sp_s_decisions.txt"
    );
}

/// Every decision in the SP and BT logs must carry a source-line anchor:
/// `dhpf explain` may not emit an unattributed decision.
#[test]
fn every_decision_is_anchored_to_a_source_line() {
    for kernel in Kernel::ALL {
        let (name, program, bindings) =
            (kernel.name(), kernel.parse(), kernel.bindings(Class::S, 4));
        let mut opts = CompileOptions::new().observed();
        opts.bindings = bindings;
        opts.granularity = 4;
        let compiled = compile(&program, &opts).expect("compile");
        assert!(compiled.obs.decision_count() > 0, "{name}: no decisions");
        let log = compiled.obs.decision_log(&compiled.transformed);
        for line in log.lines() {
            // rendered form is `unit:line: ...`; an unresolved anchor
            // renders as `unit:?:`
            let rest = &line[line.find(':').map(|i| i + 1).unwrap_or(0)..];
            assert!(
                !rest.starts_with('?'),
                "{name}: unattributed decision: {line}"
            );
        }
        // the log must cover both halves of the story: CP selection and
        // communication elimination/retention
        assert!(log.contains(" cp "), "{name}: no CP decisions");
        assert!(
            log.contains("comm eliminated") && log.contains("comm retained"),
            "{name}: communication attribution missing"
        );
        // the machine-readable form of the same log
        let json = compiled.obs.decision_json(&compiled.transformed);
        assert!(json.contains("\"schema\": \"dhpf-decisions-v1\""));
        for kind in [
            "cp-select",
            "comm-eliminated",
            "comm-retained",
            "comm-overlapped",
        ] {
            assert!(
                json.contains(&format!("{{\"kind\":\"{kind}\",")),
                "{name}: no {kind} decision"
            );
        }
        for record in json.lines().filter(|l| l.contains("{\"kind\":")) {
            assert!(
                record.contains("\"unit\":\"") && record.contains("\"line\":"),
                "{name}: unattributed decision {record}"
            );
        }
    }
}

/// The unified metrics document: deterministic counters must agree with
/// the communication report, and the per-nest section must add up.
#[test]
fn metrics_document_is_consistent_with_comm_report() {
    let compiled = compile_sp_observed();
    let m = &compiled.obs.metrics;
    assert_eq!(
        m.get_counter("comm.pre_messages"),
        Some(compiled.report.pre_messages as i64)
    );
    assert_eq!(
        m.get_counter("comm.post_messages"),
        Some(compiled.report.post_messages as i64)
    );
    assert_eq!(
        m.get_counter("driver.units"),
        Some(compiled.program.units.len() as i64)
    );
    let nest_pre: usize = m.nests.iter().map(|n| n.pre_messages).sum();
    assert_eq!(nest_pre, compiled.report.pre_messages);
    assert!(nest_pre > 0, "SP must communicate");
    assert!(
        m.nests.iter().any(|n| n.overlapped),
        "SP should overlap some nests"
    );

    let json = m.render_json();
    assert!(json.contains("\"schema\": \"dhpf-metrics-v1\""));
    assert!(json.contains("\"iset.lookups\""));
    for gauge in ["pairs", "systems", "memo_hits", "fallbacks"] {
        assert!(
            json.contains(&format!("\"depend.{gauge}\"")),
            "depend.{gauge}"
        );
    }
    assert!((m.cache.iter()).any(|(n, v)| n == "depend.systems" && *v > 0.0));
    for gauge in [
        "rows",
        "bounds_rows",
        "constraint_rows",
        "owner_sets",
        "owner_probes",
    ] {
        assert!(
            json.contains(&format!("\"avail.{gauge}\"")),
            "avail.{gauge}"
        );
    }
    for key in [
        "unit",
        "stmt",
        "pipelined",
        "overlapped",
        "pre_messages",
        "pre_elems",
        "post_messages",
        "post_elems",
    ] {
        assert!(json.contains(&format!("\"{key}\":")), "per-nest {key}");
    }
}

/// The image-row builder's counts, from a compile in a process of its
/// own (the counters are process-wide, and this binary's other tests
/// compile concurrently): SP class S at 4 ranks builds every row on
/// bounds, and the owner search probes fewer blocks than one per other
/// rank for each non-local set.
#[test]
fn sp_rows_are_built_on_bounds() {
    let out = std::env::temp_dir().join(format!("dhpf-avail-{}.json", std::process::id()));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_dhpf"))
        .args(["compile", "--nas", "sp", "--class", "S", "--nprocs", "4"])
        .arg("--metrics-out")
        .arg(&out)
        .output()
        .expect("spawn dhpf");
    assert!(run.status.success(), "{run:?}");
    let json = std::fs::read_to_string(&out).expect("metrics document");
    let _ = std::fs::remove_file(&out);
    let gauge = |name: &str| -> f64 {
        let key = format!("\"avail.{name}\": ");
        let at = json.find(&key).unwrap_or_else(|| panic!("no avail.{name}")) + key.len();
        let end = json[at..].find([',', '\n']).expect("value end");
        json[at..at + end].trim().parse().expect("a number")
    };
    assert!(gauge("rows") > 100.0);
    assert_eq!(gauge("bounds_rows"), gauge("rows"));
    assert_eq!(gauge("constraint_rows"), 0.0);
    let ranks = 4.0;
    assert!(gauge("owner_sets") > 0.0);
    assert!(
        gauge("owner_probes") < (ranks - 1.0) * gauge("owner_sets"),
        "owner probes {} for {} sets",
        gauge("owner_probes"),
        gauge("owner_sets")
    );
}

/// Event-level validity of a Chrome trace as `perfetto::render` lays it
/// out (one event object per line): a known phase on every event,
/// non-negative integer `ts`/`dur` on every complete event, and both the
/// compile (pid 1) and execution (pid 2) processes present. Returns the
/// event count.
fn check_trace_events(json: &str) -> usize {
    let events: Vec<&str> = json
        .lines()
        .filter(|l| l.starts_with("{\"ph\":\""))
        .collect();
    assert!(!events.is_empty(), "empty trace");
    for e in &events {
        let ph = &e[7..8];
        assert!(matches!(ph, "X" | "i" | "M"), "unknown phase in {e}");
        if ph == "X" {
            for key in ["\"ts\":", "\"dur\":"] {
                let at = e.find(key).unwrap_or_else(|| panic!("no {key} in {e}"));
                let digits = e[at + key.len()..]
                    .split(|c: char| !c.is_ascii_digit())
                    .next()
                    .unwrap();
                assert!(digits.parse::<u64>().is_ok(), "bad {key} in {e}");
            }
        }
    }
    for pid in [1, 2] {
        let tag = format!("\"pid\":{pid},");
        assert!(events.iter().any(|e| e.contains(&tag)), "no pid {pid}");
    }
    events.len()
}

/// The checked-in reference trace (README's "open this in Perfetto"
/// sample) must be a trace the current renderer would accept.
#[test]
fn checked_in_reference_trace_is_valid() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sp_s_trace.json"
    ))
    .expect("read results/sp_s_trace.json");
    assert!(json.contains("\"traceEvents\""));
    assert!(check_trace_events(&json) > 100);
}

/// Perfetto export: compile spans land in pid 1, execution events in
/// pid 2, and the JSON is a structurally valid Chrome trace.
#[test]
fn perfetto_export_covers_compile_and_execution() {
    let compiled = compile_sp_observed();
    let machine = MachineConfig::sp2(4).with_trace();
    let result = run_node_program(&compiled.program, machine).expect("run");
    let json = perfetto::render(Some(&compiled.obs), Some(&result.run.traces));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"pid\":1"), "no compile-process events");
    assert!(json.contains("\"pid\":2"), "no execution-process events");
    assert!(json.contains("\"comm-plan\""), "compile span names missing");
    check_trace_events(&json);
    // balanced braces/brackets as a cheap structural check
    let (mut braces, mut brackets) = (0i64, 0i64);
    let mut in_str = false;
    let mut prev = ' ';
    for c in json.chars() {
        if in_str {
            if c == '"' && prev != '\\' {
                in_str = false;
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        prev = c;
    }
    assert_eq!((braces, brackets), (0, 0), "unbalanced trace JSON");
}

/// With the recorder disabled (the default), no spans or decisions are
/// recorded but the metrics document is still filled.
#[test]
fn default_compile_records_metrics_but_no_spans() {
    let mut opts = CompileOptions::new();
    opts.bindings = dhpf::nas::Kernel::Sp.bindings(Class::S, 4);
    opts.granularity = 4;
    let compiled = compile(&dhpf::nas::Kernel::Sp.parse(), &opts).expect("compile sp");
    assert!(!compiled.obs.enabled);
    assert_eq!(compiled.obs.decision_count(), 0);
    assert!(compiled.obs.scopes.iter().all(|s| s.spans.is_empty()));
    assert!(compiled
        .obs
        .metrics
        .get_counter("comm.pre_messages")
        .is_some());
    assert!(!compiled.obs.metrics.nests.is_empty());
}
