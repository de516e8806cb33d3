//! The unified metrics registry.
//!
//! One compile produces one `dhpf-metrics-v1` JSON document combining
//! what previously lived in three places:
//!
//! * the communication report (`CommReport`) — deterministic counters,
//! * the iset interner's cache statistics (`CacheStats`) — counters
//!   that depend on process history and (under the parallel driver) on
//!   thread interleaving, kept in their own section,
//! * per-nest message/volume counts derived from the nest plans,
//! * per-phase wall times aggregated from the span trees.
//!
//! Only the `counters` and `nests` sections are deterministic; `cache`
//! and `phases` are measurement artifacts and are excluded from the
//! determinism key (see [`crate::ObsReport::determinism_key`]).

use crate::json::{escape as jesc, num};

/// Wall time spent in one named phase of one scope.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTime {
    /// `"driver"` or a unit name.
    pub scope: String,
    pub name: String,
    pub ms: f64,
}

/// Message/volume counts for one planned nest.
#[derive(Clone, Debug, PartialEq)]
pub struct NestMetrics {
    pub unit: String,
    pub stmt: u32,
    pub line: Option<u32>,
    pub pipelined: bool,
    /// Pre-exchange posted nonblocking and overlapped with interior compute.
    pub overlapped: bool,
    pub pre_messages: usize,
    /// Total array elements moved by pre-exchanges.
    pub pre_elems: usize,
    pub post_messages: usize,
    pub post_elems: usize,
    /// Physical messages removed by per-peer aggregation (plan-level
    /// count minus packed transfers; 0 with aggregation disabled).
    pub messages_saved: usize,
}

/// The unified metrics document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Deterministic counters, e.g. `comm.pre_messages`,
    /// `driver.units`.
    pub counters: Vec<(String, i64)>,
    /// Cache/measurement gauges, e.g. `iset.hit_rate` (may vary with
    /// scheduling; not part of the determinism key).
    pub cache: Vec<(String, f64)>,
    /// Per-phase wall times (wall clock; not part of the determinism key).
    pub phases: Vec<PhaseTime>,
    /// Per-nest communication breakdown (deterministic).
    pub nests: Vec<NestMetrics>,
}

impl Metrics {
    pub fn counter(&mut self, name: &str, value: i64) {
        self.counters.push((name.to_string(), value));
    }

    pub fn gauge(&mut self, name: &str, value: f64) {
        self.cache.push((name.to_string(), value));
    }

    /// Look up a deterministic counter by name.
    pub fn get_counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Total wall milliseconds recorded for phase `name` across scopes.
    pub fn phase_ms(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.ms)
            .sum()
    }

    /// Render the `dhpf-metrics-v1` document.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"dhpf-metrics-v1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", jesc(k)));
        }
        out.push_str("\n  },\n  \"cache\": {");
        for (i, (k, v)) in self.cache.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", jesc(k), num(*v)));
        }
        out.push_str("\n  },\n  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"scope\": \"{}\", \"name\": \"{}\", \"ms\": {} }}",
                jesc(&p.scope),
                jesc(&p.name),
                num(p.ms)
            ));
        }
        out.push_str("\n  ],\n  \"nests\": [");
        for (i, n) in self.nests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"unit\": \"{}\", \"stmt\": {}, ",
                jesc(&n.unit),
                n.stmt
            ));
            if let Some(l) = n.line {
                out.push_str(&format!("\"line\": {l}, "));
            }
            out.push_str(&format!(
                "\"pipelined\": {}, \"overlapped\": {}, \"pre_messages\": {}, \
                 \"pre_elems\": {}, \"post_messages\": {}, \"post_elems\": {}, \
                 \"messages_saved\": {} }}",
                n.pipelined,
                n.overlapped,
                n.pre_messages,
                n.pre_elems,
                n.post_messages,
                n.post_elems,
                n.messages_saved
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_sections() {
        let mut m = Metrics::default();
        m.counter("comm.pre_messages", 12);
        m.counter("driver.units", 7);
        m.gauge("iset.hit_rate", 0.9314);
        m.phases.push(PhaseTime {
            scope: "driver".into(),
            name: "codegen".into(),
            ms: 1.25,
        });
        m.nests.push(NestMetrics {
            unit: "x_solve".into(),
            stmt: 42,
            line: Some(99),
            pipelined: true,
            overlapped: false,
            pre_messages: 2,
            pre_elems: 64,
            post_messages: 0,
            post_elems: 0,
            messages_saved: 1,
        });
        let j = m.render_json();
        assert!(j.contains("\"schema\": \"dhpf-metrics-v1\""));
        assert!(j.contains("\"comm.pre_messages\": 12"));
        assert!(j.contains("\"iset.hit_rate\": 0.9314"));
        assert!(j.contains("\"name\": \"codegen\""));
        assert!(j.contains("\"pipelined\": true"));
        assert!(j.contains("\"overlapped\": false"));
        assert!(j.contains("\"messages_saved\": 1"));
        assert_eq!(m.get_counter("driver.units"), Some(7));
        assert_eq!(m.phase_ms("codegen"), 1.25);
    }
}
