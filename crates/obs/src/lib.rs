//! # dhpf-obs — tracing, decision log, and metrics for the dHPF pipeline
//!
//! The paper's whole evaluation story (§8) is observability: space-time
//! diagrams and message/volume counts that *explain* why each
//! optimization pays off. This crate is the substrate that makes the
//! compiler itself observable the same way:
//!
//! * [`rec`] — structured span/event tracing with a
//!   zero-cost-when-disabled recorder. Each compilation scope (the
//!   driver, every program unit) records a span tree on the compiling
//!   thread; scopes are kept in the driver's deterministic unit order,
//!   so the *structure* of the trace is byte-identical from one compile
//!   of a program to the next (only wall-clock fields differ).
//! * [`decision`] — a typed decision log: every CP choice (§4.1/§5/§6),
//!   replication (§4.2), loop distribution (§5), inlining (§6), and
//!   communication eliminated or retained by availability (§7) is
//!   recorded as an event anchored to a statement / source span.
//! * [`metrics`] — one registry unifying the iset cache counters, the
//!   communication report, per-nest message/volume counts and per-phase
//!   wall times into a single `dhpf-metrics-v1` JSON document.
//! * [`perfetto`] — Chrome/Perfetto trace-JSON export for both the
//!   compile trace and the SPMD simulator's space-time events, so a
//!   compile and the resulting execution open side by side in one UI.
//!
//! The recorder is *disabled by default*: unless a scope is installed
//! on the calling thread (`CompileOptions::observe`), every probe in the
//! compiler reduces to one thread-local flag read.

pub mod decision;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod rec;

pub use decision::{CommPhase, CpHow, Decision, DecisionKind, ElimReason};
pub use metrics::{Metrics, NestMetrics, PhaseTime};
pub use rec::{decide, install, is_active, span, span_detail, Guard, ScopeObs, SpanRec};

use dhpf_fortran::ast::{Program, StmtId};

/// Everything observable about one compilation: the per-scope span
/// trees and decision logs (driver first, then units in the order the
/// driver compiled them) plus the unified metrics document.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Was the recorder enabled for this compile? (Metrics are filled
    /// either way; spans/decisions only when enabled.)
    pub enabled: bool,
    /// Driver scope followed by unit scopes, callees before callers.
    pub scopes: Vec<ScopeObs>,
    pub metrics: Metrics,
}

impl ObsReport {
    /// Deterministic rendering of the span-tree structure and decision
    /// log with every wall-clock field (timestamps, phase times, cache
    /// counters) excluded. Two compiles of the same program must
    /// produce byte-identical keys.
    pub fn determinism_key(&self) -> String {
        let mut out = String::new();
        for s in &self.scopes {
            out.push_str("scope ");
            out.push_str(&s.scope);
            out.push('\n');
            for sp in &s.spans {
                sp.structure(1, &mut out);
            }
            for d in &s.decisions {
                out.push_str("  ! ");
                out.push_str(&d.log_line());
                out.push('\n');
            }
        }
        out
    }

    /// The full decision log in human form, one line per decision,
    /// anchored to source lines resolved from `program` (the
    /// *transformed* AST every recorded `StmtId` refers to). Contains
    /// no wall-clock fields: suitable for golden tests.
    pub fn decision_log(&self, program: &Program) -> String {
        let lines = line_index(program);
        let mut out = String::new();
        for s in &self.scopes {
            for d in &s.decisions {
                out.push_str(&d.render_human(&s.scope, &lines));
                out.push('\n');
            }
        }
        out
    }

    /// The decision log as a JSON document (schema `dhpf-decisions-v1`).
    pub fn decision_json(&self, program: &Program) -> String {
        let lines = line_index(program);
        let mut out = String::from("{\n  \"schema\": \"dhpf-decisions-v1\",\n  \"decisions\": [");
        let mut first = true;
        for s in &self.scopes {
            for d in &s.decisions {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                out.push_str(&d.render_json(&s.scope, &lines));
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Total decisions recorded.
    pub fn decision_count(&self) -> usize {
        self.scopes.iter().map(|s| s.decisions.len()).sum()
    }
}

/// Map every statement id of `program` to its source line, for
/// anchoring decisions that recorded only a `StmtId`.
pub fn line_index(program: &Program) -> std::collections::BTreeMap<StmtId, u32> {
    let mut map = std::collections::BTreeMap::new();
    program.for_each_stmt(&mut |s| {
        map.insert(s.id, s.span.line);
    });
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        assert!(!is_active());
        let _s = span("nothing");
        decide(|| Decision::new(DecisionKind::EntryCp { cp: "x".into() }));
        assert!(!is_active());
    }

    #[test]
    fn report_key_excludes_wall_clock() {
        let epoch = std::time::Instant::now();
        let g1 = install("u", epoch);
        {
            let _s = span("phase-a");
            decide(|| {
                Decision::new(DecisionKind::EntryCp {
                    cp: "ON_HOME".into(),
                })
                .stmt(StmtId(3))
            });
        }
        let s1 = g1.finish();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let g2 = install("u", epoch);
        {
            let _s = span("phase-a");
            decide(|| {
                Decision::new(DecisionKind::EntryCp {
                    cp: "ON_HOME".into(),
                })
                .stmt(StmtId(3))
            });
        }
        let s2 = g2.finish();
        assert_ne!(s1.spans[0].t0_us, s2.spans[0].t0_us);
        let r1 = ObsReport {
            enabled: true,
            scopes: vec![s1],
            metrics: Metrics::default(),
        };
        let r2 = ObsReport {
            enabled: true,
            scopes: vec![s2],
            metrics: Metrics::default(),
        };
        assert_eq!(r1.determinism_key(), r2.determinism_key());
        assert!(r1.determinism_key().contains("phase-a"));
        assert_eq!(r1.decision_count(), 1);
    }
}
