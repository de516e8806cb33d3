//! Chrome/Perfetto trace-JSON export.
//!
//! Emits the [trace event format] consumed by `ui.perfetto.dev` and
//! `chrome://tracing`: one process (`pid 1`) for the compile, whose
//! scopes all sit on the one compiling thread (`tid 0`), and one process
//! (`pid 2`) for the SPMD execution with one thread row per simulated
//! processor — so a compile trace and the space-time diagram of the
//! program it produced open side by side in a single UI.
//!
//! * Compile spans become complete (`"ph":"X"`) events; decisions
//!   become instant (`"ph":"i"`) events at the wall-clock moment they
//!   were recorded, carrying their deterministic summary in `args`.
//! * Execution events ([`dhpf_spmd::trace::Event`]) map virtual seconds
//!   to microseconds; sends/receives/stalls carry peer and byte counts
//!   in `args`, `Phase` markers become instants.
//!
//! [trace event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::escape as jesc;
use crate::ObsReport;
use dhpf_spmd::trace::{EventKind, Trace};

pub const PID_COMPILE: u32 = 1;
pub const PID_EXEC: u32 = 2;

/// Render a combined Perfetto trace. Either part may be absent.
pub fn render(compile: Option<&ObsReport>, exec: Option<&[Trace]>) -> String {
    render_with_extra(compile, exec, &[])
}

/// Like [`render`], with additional pre-rendered trace-event objects
/// appended after the standard compile/exec events (used by
/// `dhpf-profile` to overlay critical-path flow events on the
/// execution process without this crate depending on the profiler).
pub fn render_with_extra(
    compile: Option<&ObsReport>,
    exec: Option<&[Trace]>,
    extra: &[String],
) -> String {
    let mut ev: Vec<String> = Vec::new();
    if let Some(report) = compile {
        compile_events(report, &mut ev);
    }
    if let Some(traces) = exec {
        exec_events(traces, &mut ev);
    }
    ev.extend(extra.iter().cloned());
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    for (i, e) in ev.iter().enumerate() {
        out.push_str(e);
        if i + 1 < ev.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

fn meta(pid: u32, tid: Option<u32>, what: &str, name: &str) -> String {
    let tid_part = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},{tid_part}\"name\":\"{what}\",\"args\":{{\"name\":\"{}\"}}}}",
        jesc(name)
    )
}

fn compile_events(report: &ObsReport, ev: &mut Vec<String>) {
    ev.push(meta(PID_COMPILE, None, "process_name", "dhpf compile"));
    // compilation is single-threaded: every scope shares one thread row
    let tid = 0;
    ev.push(meta(PID_COMPILE, Some(tid), "thread_name", "driver"));
    for scope in &report.scopes {
        for span in &scope.spans {
            span_events(span, &scope.scope, tid, ev);
        }
        for d in &scope.decisions {
            ev.push(format!(
                "{{\"ph\":\"i\",\"pid\":{PID_COMPILE},\"tid\":{tid},\"s\":\"t\",\
                 \"cat\":\"decision\",\"name\":\"{}\",\"ts\":{},\
                 \"args\":{{\"unit\":\"{}\",\"decision\":\"{}\"}}}}",
                jesc(decision_name(d)),
                d.t_us,
                jesc(&scope.scope),
                jesc(&d.log_line())
            ));
        }
    }
}

fn decision_name(d: &crate::Decision) -> &'static str {
    use crate::DecisionKind::*;
    match d.kind {
        CpSelect { .. } => "cp-select",
        LoopDistributed { .. } => "loop-distributed",
        Inlined { .. } => "inlined",
        EntryCp { .. } => "entry-cp",
        CommEliminated { .. } => "comm-eliminated",
        CommRetained { .. } => "comm-retained",
        CommAggregated { .. } => "comm-aggregated",
        CommOverlapped { .. } => "comm-overlapped",
        PipelineScheduled { .. } => "pipeline-scheduled",
        ProtocolVerified { .. } => "protocol-verified",
        ProtocolViolation { .. } => "protocol-violation",
    }
}

fn span_events(span: &crate::SpanRec, scope: &str, tid: u32, ev: &mut Vec<String>) {
    let dur = span.t1_us.saturating_sub(span.t0_us).max(1);
    ev.push(format!(
        "{{\"ph\":\"X\",\"pid\":{PID_COMPILE},\"tid\":{tid},\"cat\":\"compile\",\
         \"name\":\"{}\",\"ts\":{},\"dur\":{dur},\
         \"args\":{{\"unit\":\"{}\",\"detail\":\"{}\"}}}}",
        jesc(span.name),
        span.t0_us,
        jesc(scope),
        jesc(&span.detail)
    ));
    for c in &span.children {
        span_events(c, scope, tid, ev);
    }
}

fn exec_events(traces: &[Trace], ev: &mut Vec<String>) {
    ev.push(meta(PID_EXEC, None, "process_name", "spmd execution"));
    for tr in traces {
        ev.push(meta(
            PID_EXEC,
            Some(tr.rank as u32),
            "thread_name",
            &format!("rank {}", tr.rank),
        ));
        for e in &tr.events {
            let ts = (e.t0 * 1e6).round() as u64;
            let dur = (((e.t1 - e.t0) * 1e6).round() as u64).max(1);
            let (name, args) = match &e.kind {
                EventKind::Compute => ("compute".to_string(), String::new()),
                EventKind::Send { to, bytes } => (
                    format!("send -> {to}"),
                    format!(",\"peer\":{to},\"bytes\":{bytes}"),
                ),
                EventKind::Recv { from, bytes } => (
                    format!("recv <- {from}"),
                    format!(",\"peer\":{from},\"bytes\":{bytes}"),
                ),
                EventKind::RecvWait { from, bytes } => (
                    format!("stall <- {from}"),
                    format!(",\"peer\":{from},\"bytes\":{bytes}"),
                ),
                EventKind::RecvPost { from, req } => {
                    // zero-width post: an instant marker, like Phase
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"pid\":{PID_EXEC},\"tid\":{},\"s\":\"t\",\
                         \"cat\":\"comm\",\"name\":\"irecv <- {from}\",\"ts\":{ts},\
                         \"args\":{{\"peer\":{from},\"req\":{req}}}}}",
                        tr.rank
                    ));
                    continue;
                }
                EventKind::Wait { from, bytes, req } => (
                    format!("wait <- {from}"),
                    format!(",\"peer\":{from},\"bytes\":{bytes},\"req\":{req}"),
                ),
                EventKind::WaitStall { from, bytes, req } => (
                    format!("wait-stall <- {from}"),
                    format!(",\"peer\":{from},\"bytes\":{bytes},\"req\":{req}"),
                ),
                EventKind::Barrier => ("barrier".to_string(), String::new()),
                EventKind::Phase(name) => {
                    ev.push(format!(
                        "{{\"ph\":\"i\",\"pid\":{PID_EXEC},\"tid\":{},\"s\":\"t\",\
                         \"cat\":\"phase\",\"name\":\"{}\",\"ts\":{ts},\"args\":{{}}}}",
                        tr.rank,
                        jesc(name)
                    ));
                    continue;
                }
            };
            ev.push(format!(
                "{{\"ph\":\"X\",\"pid\":{PID_EXEC},\"tid\":{},\"cat\":\"exec\",\
                 \"name\":\"{}\",\"ts\":{ts},\"dur\":{dur},\
                 \"args\":{{\"rank\":{}{args}}}}}",
                tr.rank,
                jesc(&name),
                tr.rank
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{Decision, DecisionKind};
    use crate::rec::{ScopeObs, SpanRec};
    use dhpf_spmd::trace::Event;

    fn sample_report() -> ObsReport {
        ObsReport {
            enabled: true,
            scopes: vec![ScopeObs {
                scope: "x_solve".into(),
                spans: vec![SpanRec {
                    name: "comm-plan",
                    detail: "nest s9".into(),
                    t0_us: 10,
                    t1_us: 40,
                    children: vec![SpanRec {
                        name: "availability",
                        detail: String::new(),
                        t0_us: 12,
                        t1_us: 20,
                        children: vec![],
                    }],
                }],
                decisions: vec![Decision::new(DecisionKind::EntryCp { cp: "rep".into() })],
            }],
            metrics: Default::default(),
        }
    }

    fn sample_exec() -> Vec<Trace> {
        let mut t = Trace::new(0);
        t.push(Event::new(0.0, 0.5, EventKind::Compute));
        t.push(Event::new(
            0.5,
            0.7,
            EventKind::RecvWait { from: 1, bytes: 80 },
        ));
        t.push(Event::new(0.7, 0.7, EventKind::Phase("sweep".into())));
        vec![t]
    }

    #[test]
    fn combined_trace_has_both_processes() {
        let r = sample_report();
        let e = sample_exec();
        let j = render(Some(&r), Some(&e));
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("dhpf compile"));
        assert!(j.contains("spmd execution"));
        assert!(j.contains("\"name\":\"comm-plan\""));
        assert!(j.contains("\"name\":\"availability\""));
        assert!(j.contains("\"name\":\"entry-cp\""));
        assert!(j.contains("stall <- 1"));
        assert!(j.contains("\"bytes\":80"));
        assert!(j.contains("\"name\":\"sweep\""));
        // structurally valid: every line between the brackets is an object
        let events: Vec<&str> = j
            .lines()
            .filter(|l| l.starts_with('{') && l.contains("\"ph\""))
            .collect();
        assert!(events.len() >= 8, "got {} events", events.len());
    }

    #[test]
    fn compile_only_trace() {
        let r = sample_report();
        let j = render(Some(&r), None);
        assert!(j.contains("\"name\":\"thread_name\",\"args\":{\"name\":\"driver\"}"));
        assert!(!j.contains("spmd execution"));
    }
}
