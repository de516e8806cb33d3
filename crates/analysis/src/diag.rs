//! Diagnostics framework: severity-graded findings anchored to
//! [`dhpf_fortran::span::Span`]s, with human-readable and JSON renderers.
//!
//! Every checker in this crate (the comm-coverage verifier, the trace
//! checker, the lints) reports through [`Report`] so `dhpf-lint` and the
//! test suite consume one uniform shape.

use dhpf_fortran::ast::{ProgramUnit, StmtId};
use dhpf_fortran::span::Span;
use dhpf_obs::json;
use std::collections::BTreeMap;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational — an optimization note, not a problem.
    Info,
    /// Suspicious but not provably wrong.
    Warning,
    /// A confirmed miscompile or protocol violation.
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding from a checker.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable machine-readable code, e.g. `comm-coverage`.
    pub code: &'static str,
    pub severity: Severity,
    /// Program unit the finding is in (empty for whole-run findings,
    /// e.g. trace checks).
    pub unit: String,
    pub message: String,
    /// Offending statement in the (transformed) AST, when known.
    pub stmt: Option<StmtId>,
    /// Source anchor of that statement.
    pub span: Option<Span>,
    /// Supporting detail lines.
    pub notes: Vec<String>,
}

impl Finding {
    pub fn new(
        code: &'static str,
        severity: Severity,
        unit: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            code,
            severity,
            unit: unit.into(),
            message: message.into(),
            stmt: None,
            span: None,
            notes: Vec::new(),
        }
    }

    pub fn at(mut self, stmt: StmtId, span: Option<Span>) -> Self {
        self.stmt = Some(stmt);
        self.span = span;
        self
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// Schema identifier of the JSON document emitted by
/// [`Report::render_json_document`] (and therefore by
/// `dhpf-lint --format json`). Frozen: any change to the document shape
/// bumps this string.
pub const LINT_SCHEMA: &str = "dhpf-lint-v1";

/// An ordered collection of findings.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    pub fn extend(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }

    /// No findings at all (the acceptance bar for verified output).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Render for a terminal. When `source` is given, each span-anchored
    /// finding quotes its source line.
    pub fn render_human(&self, source: Option<&str>) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(f.severity.as_str());
            out.push('[');
            out.push_str(f.code);
            out.push(']');
            if !f.unit.is_empty() {
                out.push_str(&format!(" in `{}`", f.unit));
            }
            if let Some(sp) = f.span {
                out.push_str(&format!(" line {}", sp.line));
            }
            out.push_str(": ");
            out.push_str(&f.message);
            out.push('\n');
            if let (Some(sp), Some(src)) = (f.span, source) {
                if let Some(text) = src.lines().nth(sp.line.saturating_sub(1) as usize) {
                    out.push_str(&format!("  | {}\n", text.trim_end()));
                }
            }
            for n in &f.notes {
                out.push_str(&format!("  = note: {n}\n"));
            }
        }
        if self.findings.is_empty() {
            out.push_str("no findings\n");
        } else {
            let e = self.error_count();
            out.push_str(&format!(
                "{} finding(s), {} error(s)\n",
                self.findings.len(),
                e
            ));
        }
        out
    }

    /// Render the frozen `dhpf-lint-v1` document for one linted file:
    /// one JSON object per line (NDJSON when linting several files) with
    /// `schema`, `file`, `errors` (error-severity count) and the
    /// `findings` array of [`render_json`](Report::render_json).
    pub fn render_json_document(&self, file: &str) -> String {
        format!(
            "{{\"schema\":\"{}\",\"file\":\"{}\",\"errors\":{},\"findings\":{}}}",
            LINT_SCHEMA,
            json::escape(file),
            self.error_count(),
            self.render_json()
        )
    }

    /// Render as a JSON array (hand-rolled; no serde in the workspace).
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(&json::escape(f.code));
            out.push_str("\",\"severity\":\"");
            out.push_str(f.severity.as_str());
            out.push_str("\",\"unit\":\"");
            out.push_str(&json::escape(&f.unit));
            out.push_str("\",\"message\":\"");
            out.push_str(&json::escape(&f.message));
            out.push('"');
            if let Some(s) = f.stmt {
                out.push_str(&format!(",\"stmt\":{}", s.0));
            }
            if let Some(sp) = f.span {
                out.push_str(&format!(",\"line\":{}", sp.line));
            }
            if !f.notes.is_empty() {
                out.push_str(",\"notes\":[");
                for (j, n) in f.notes.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json::escape(n));
                    out.push('"');
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Statement id to source span, over every statement of `unit`.
pub(crate) fn span_map(unit: &ProgramUnit) -> BTreeMap<StmtId, Span> {
    let mut out = BTreeMap::new();
    unit.for_each_stmt(&mut |s| {
        out.insert(s.id, s.span);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_human_and_json() {
        let mut r = Report::new();
        r.push(
            Finding::new(
                "comm-coverage",
                Severity::Error,
                "sweep",
                "uncovered read of `u`",
            )
            .at(StmtId(7), Some(Span::new(0, 4, 3)))
            .note("processor 2, elements e0 in 5..6"),
        );
        r.push(Finding::new(
            "trace-unmatched",
            Severity::Warning,
            "",
            "1 send, 0 recvs",
        ));
        let h = r.render_human(Some("l1\nl2\n      u(i) = 1.0\n"));
        assert!(h.contains("error[comm-coverage] in `sweep` line 3"));
        assert!(!h.contains("| %x"));
        assert!(h.contains("u(i) = 1.0"));
        assert!(h.contains("2 finding(s), 1 error(s)"));
        let j = r.render_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"stmt\":7"));
        assert!(j.contains("\"line\":3"));
        assert!(!j.contains("\\\"")); // nothing to escape here
    }

    #[test]
    fn json_escaping() {
        let mut r = Report::new();
        r.push(Finding::new(
            "x",
            Severity::Info,
            "",
            "quote \" backslash \\ tab \t",
        ));
        let j = r.render_json();
        assert!(j.contains("quote \\\" backslash \\\\ tab \\t"));
    }

    #[test]
    fn clean_report() {
        let r = Report::new();
        assert!(r.is_clean());
        assert_eq!(r.error_count(), 0);
        assert!(r.render_human(None).contains("no findings"));
        assert_eq!(r.render_json(), "[]");
    }
}
