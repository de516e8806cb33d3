//! The span/event recorder.
//!
//! One [`ScopeObs`] is recorded per compilation scope (the driver, each
//! program unit). The active recorder lives in thread-local storage so
//! deep analysis code (CP selection, availability, communication
//! planning) can emit spans and decisions without threading a handle
//! through every signature. Compilation is single-threaded, so a
//! recorder is visible to exactly the thread that installed it: a probe
//! on any other thread is off.
//!
//! Cost model:
//!
//! * **Disabled** (no scope installed on this thread): every probe is
//!   one thread-local flag read and an immediate return. No allocation,
//!   no formatting — decision payloads are built inside closures that
//!   never run.
//! * **Enabled**: spans push/pop on a per-thread stack; decisions append
//!   to a vector. Timestamps come from a shared epoch (`Instant`) so
//!   all scopes share one timeline in the Perfetto export.

use crate::decision::Decision;
use std::cell::{Cell, RefCell};
use std::time::Instant;

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// `CURRENT.is_some()`, kept beside it so the disabled probe is a
    /// plain flag read instead of a `RefCell` borrow.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// Swap this thread's recorder, keeping the fast flag in step.
fn set_current(rec: Option<Recorder>) -> Option<Recorder> {
    RECORDING.with(|r| r.set(rec.is_some()));
    CURRENT.with(|c| c.replace(rec))
}

/// One completed span (a named, timed phase; may nest).
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    /// Free-form detail (deterministic: part of the structure key).
    pub detail: String,
    /// Start/end microseconds since the compile epoch (wall clock —
    /// excluded from determinism comparisons).
    pub t0_us: u64,
    pub t1_us: u64,
    pub children: Vec<SpanRec>,
}

impl SpanRec {
    /// Append the wall-clock-free structure of this span to `out`.
    pub fn structure(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.name);
        if !self.detail.is_empty() {
            out.push_str(" [");
            out.push_str(&self.detail);
            out.push(']');
        }
        out.push('\n');
        for c in &self.children {
            c.structure(depth + 1, out);
        }
    }

    /// Wall-clock duration in milliseconds.
    pub fn dur_ms(&self) -> f64 {
        (self.t1_us.saturating_sub(self.t0_us)) as f64 / 1e3
    }
}

/// The completed observation of one scope.
#[derive(Clone, Debug)]
pub struct ScopeObs {
    /// Scope name: `"driver"` or the program-unit name.
    pub scope: String,
    /// Completed top-level spans, in order.
    pub spans: Vec<SpanRec>,
    /// Decision log, in record order (deduplicated: for decisions that
    /// converge over fixpoint passes, the final payload wins while the
    /// first occurrence keeps its position).
    pub decisions: Vec<Decision>,
}

struct Recorder {
    scope: String,
    epoch: Instant,
    roots: Vec<SpanRec>,
    stack: Vec<SpanRec>,
    decisions: Vec<Decision>,
}

/// True when a recorder is installed on the calling thread.
#[inline]
pub fn is_active() -> bool {
    RECORDING.with(Cell::get)
}

/// Install a recorder for `scope` on the current thread. The previous
/// recorder of this thread (if any) is saved and restored when the
/// returned guard is finished or dropped.
pub fn install(scope: &str, epoch: Instant) -> Guard {
    let rec = Recorder {
        scope: scope.to_string(),
        epoch,
        roots: Vec::new(),
        stack: Vec::new(),
        decisions: Vec::new(),
    };
    Guard {
        prev: Some(set_current(Some(rec))),
    }
}

/// Active-recorder guard returned by [`install`].
pub struct Guard {
    /// `Some(prev)` until finished/dropped; the previous recorder (or
    /// `None`) is restored exactly once.
    prev: Option<Option<Recorder>>,
}

impl Guard {
    /// Close any spans still open, pop the recorder, and return the
    /// completed scope.
    pub fn finish(mut self) -> ScopeObs {
        let prev = self.prev.take().expect("guard finished twice");
        let mut rec = set_current(prev).expect("recorder missing at finish");
        while let Some(mut open) = rec.stack.pop() {
            open.t1_us = rec.epoch.elapsed().as_micros() as u64;
            match rec.stack.last_mut() {
                Some(parent) => parent.children.push(open),
                None => rec.roots.push(open),
            }
        }
        ScopeObs {
            scope: rec.scope,
            spans: rec.roots,
            decisions: Decision::dedup(rec.decisions),
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            // abandoned (error path): discard the recording, restore TLS
            set_current(prev);
        }
    }
}

/// RAII span: records from creation to drop. Inert when disabled.
pub struct Span {
    live: bool,
}

/// Open a span named `name` in the current scope (if any).
#[inline]
pub fn span(name: &'static str) -> Span {
    span_detail(name, String::new)
}

/// Open a span with a lazily-built detail string.
#[inline]
pub fn span_detail(name: &'static str, detail: impl FnOnce() -> String) -> Span {
    if !is_active() {
        return Span { live: false };
    }
    let live = CURRENT.with(|c| {
        let mut c = c.borrow_mut();
        let Some(rec) = c.as_mut() else {
            return false;
        };
        let t = rec.epoch.elapsed().as_micros() as u64;
        rec.stack.push(SpanRec {
            name,
            detail: detail(),
            t0_us: t,
            t1_us: t,
            children: Vec::new(),
        });
        true
    });
    Span { live }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        CURRENT.with(|c| {
            let mut c = c.borrow_mut();
            let Some(rec) = c.as_mut() else { return };
            let Some(mut open) = rec.stack.pop() else {
                return;
            };
            open.t1_us = rec.epoch.elapsed().as_micros() as u64;
            match rec.stack.last_mut() {
                Some(parent) => parent.children.push(open),
                None => rec.roots.push(open),
            }
        });
    }
}

/// Record a decision in the current scope. The closure only runs when a
/// recorder is installed, so payload formatting is free when disabled.
#[inline]
pub fn decide(make: impl FnOnce() -> Decision) {
    if !is_active() {
        return;
    }
    CURRENT.with(|c| {
        let mut c = c.borrow_mut();
        let Some(rec) = c.as_mut() else { return };
        let mut d = make();
        d.t_us = rec.epoch.elapsed().as_micros() as u64;
        rec.decisions.push(d);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionKind;

    #[test]
    fn spans_nest_and_decisions_dedup() {
        let g = install("unit-x", Instant::now());
        {
            let _outer = span("analyze");
            {
                let _inner = span_detail("cp-select", || "nest 3".into());
                decide(|| {
                    Decision::new(DecisionKind::CpSelect {
                        cp: "draft".into(),
                        how: crate::CpHow::LeastCost,
                        cost: None,
                    })
                    .stmt(dhpf_fortran::ast::StmtId(9))
                });
                // fixpoint second pass: same key, refined payload
                decide(|| {
                    Decision::new(DecisionKind::CpSelect {
                        cp: "final".into(),
                        how: crate::CpHow::LeastCost,
                        cost: None,
                    })
                    .stmt(dhpf_fortran::ast::StmtId(9))
                });
            }
        }
        let s = g.finish();
        assert!(!is_active());
        assert_eq!(s.scope, "unit-x");
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].name, "analyze");
        assert_eq!(s.spans[0].children[0].name, "cp-select");
        assert_eq!(s.spans[0].children[0].detail, "nest 3");
        assert_eq!(s.decisions.len(), 1, "fixpoint repeats must dedup");
        assert!(s.decisions[0].log_line().contains("final"));
    }

    #[test]
    fn nested_install_restores_outer() {
        let epoch = Instant::now();
        let outer = install("outer", epoch);
        let _s1 = span("outer-phase");
        let inner = install("inner", epoch);
        decide(|| Decision::new(DecisionKind::EntryCp { cp: "c".into() }));
        let si = inner.finish();
        assert_eq!(si.scope, "inner");
        assert_eq!(si.decisions.len(), 1);
        // outer recorder is active again
        decide(|| Decision::new(DecisionKind::EntryCp { cp: "o".into() }));
        drop(_s1);
        let so = outer.finish();
        assert_eq!(so.decisions.len(), 1);
        assert_eq!(so.spans.len(), 1);
    }

    #[test]
    fn dropped_guard_discards_and_restores() {
        let epoch = Instant::now();
        let outer = install("outer", epoch);
        {
            let _inner = install("inner", epoch);
            decide(|| Decision::new(DecisionKind::EntryCp { cp: "x".into() }));
            // dropped without finish(): recording discarded
        }
        assert!(is_active());
        let so = outer.finish();
        assert!(so.decisions.is_empty());
        assert!(!is_active());
    }

    /// The recorder belongs to the installing thread: a second thread
    /// sees it off, and its decision closures never run.
    #[test]
    fn recorder_is_invisible_to_other_threads() {
        let g = install("here", Instant::now());
        assert!(is_active());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!is_active());
                decide(|| unreachable!("no recorder on this thread"));
                let _sp = span_detail("phase", || unreachable!("no recorder on this thread"));
            });
        });
        decide(|| Decision::new(DecisionKind::EntryCp { cp: "mine".into() }));
        let s = g.finish();
        assert_eq!(s.decisions.len(), 1);
        assert!(s.spans.is_empty());
    }
}
