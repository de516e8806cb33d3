//! Campaign aggregation and the frozen `dhpf-fuzz-v1` JSON schema.
//!
//! The workspace has no serde; like the other result schemas
//! (`dhpf-obs`, `dhpf-analysis`) the document is hand-rolled and the
//! shape is frozen: consumers (CI smoke gate, nightly script) validate
//! against the field set below, so additions need a `-v2`.

use dhpf_obs::json::escape;
use std::collections::BTreeMap;

/// One recorded failure, with its minimized reproduction.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Seed that regenerates the *original* failing program.
    pub program_seed: u64,
    pub oracle: String,
    pub config: String,
    /// Adapted geometry as `p1xp2` (empty for geometry-independent
    /// oracles such as generation or the serial reference).
    pub geometry: String,
    pub message: String,
    /// Minimized Fortran source (equal to the original rendering when
    /// shrinking is disabled or nothing smaller reproduced).
    pub minimized: String,
}

/// Aggregate outcome of the mutation self-checks.
#[derive(Clone, Debug, Default)]
pub struct MutationSummary {
    /// Programs on which planting was attempted.
    pub attempted: u64,
    /// Mutants actually planted (program had a droppable exchange).
    pub planted: u64,
    /// Mutants caught by ≥ 2 independent oracles (the acceptance bar).
    pub caught_twice: u64,
    /// Detection count per oracle.
    pub hits: BTreeMap<String, u64>,
}

/// The whole campaign, renderable as `dhpf-fuzz-v1`.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    pub seed: u64,
    pub count: usize,
    /// Geometry specs as given (pre-adaptation), formatted `p1xp2`.
    pub geometries: Vec<String>,
    pub programs: usize,
    pub compiles: usize,
    pub runs: usize,
    pub messages: u64,
    /// Oracle evaluations attempted, per oracle.
    pub checked: BTreeMap<String, u64>,
    /// Oracle failures, per oracle.
    pub failed: BTreeMap<String, u64>,
    pub failures: Vec<FailureRecord>,
    pub mutation: Option<MutationSummary>,
    pub wall_ms: u128,
}

/// Format a geometry as `p1xp2`.
pub fn geom_str(g: &[i64]) -> String {
    g.iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

impl CampaignReport {
    /// No oracle fired and every attempted mutant cleared the
    /// two-oracle bar.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
            && self
                .mutation
                .as_ref()
                .map(|m| m.planted > 0 && m.caught_twice == m.planted)
                .unwrap_or(true)
    }

    /// Render as `dhpf-fuzz-v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dhpf-fuzz-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"count\": {},\n", self.count));
        let geoms: Vec<String> = self
            .geometries
            .iter()
            .map(|g| format!("\"{}\"", escape(g)))
            .collect();
        out.push_str(&format!("  \"geometries\": [{}],\n", geoms.join(", ")));
        out.push_str(&format!("  \"programs\": {},\n", self.programs));
        out.push_str(&format!("  \"compiles\": {},\n", self.compiles));
        out.push_str(&format!("  \"runs\": {},\n", self.runs));
        out.push_str(&format!("  \"messages\": {},\n", self.messages));
        out.push_str("  \"oracles\": {");
        let mut first = true;
        for (name, n) in &self.checked {
            if !first {
                out.push(',');
            }
            first = false;
            let failed = self.failed.get(name).copied().unwrap_or(0);
            out.push_str(&format!(
                "\n    \"{}\": {{\"checked\": {n}, \"failed\": {failed}}}",
                escape(name)
            ));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"program_seed\": {}, \"oracle\": \"{}\", \"config\": \"{}\", \
                 \"geometry\": \"{}\", \"message\": \"{}\", \"minimized\": \"{}\"}}",
                f.program_seed,
                escape(&f.oracle),
                escape(&f.config),
                escape(&f.geometry),
                escape(&f.message),
                escape(&f.minimized)
            ));
        }
        out.push_str(if self.failures.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        match &self.mutation {
            None => out.push_str("  \"mutation\": null,\n"),
            Some(m) => {
                let hits: Vec<String> = m
                    .hits
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
                    .collect();
                out.push_str(&format!(
                    "  \"mutation\": {{\"attempted\": {}, \"planted\": {}, \
                     \"caught_twice\": {}, \"hits\": {{{}}}}},\n",
                    m.attempted,
                    m.planted,
                    m.caught_twice,
                    hits.join(", ")
                ));
            }
        }
        out.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        out.push_str(&format!("  \"clean\": {}\n", self.clean()));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_schema_and_balances() {
        let mut r = CampaignReport {
            seed: 42,
            count: 2,
            geometries: vec!["1".into(), "2x2".into()],
            ..Default::default()
        };
        r.checked.insert("numeric".into(), 16);
        r.failed.insert("numeric".into(), 1);
        r.failures.push(FailureRecord {
            program_seed: 7,
            oracle: "numeric".into(),
            config: "all-on".into(),
            geometry: "2x2".into(),
            message: "a \"quoted\"\nmessage".into(),
            minimized: "      program fz\n      end\n".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"dhpf-fuzz-v1\""));
        for key in [
            "seed",
            "count",
            "geometries",
            "programs",
            "compiles",
            "runs",
            "messages",
            "oracles",
            "failures",
            "mutation",
            "wall_ms",
            "clean",
        ] {
            assert!(j.contains(&format!("  \"{key}\": ")), "missing {key}");
        }
        assert!(j.contains("\"numeric\": {\"checked\": 16, \"failed\": 1}"));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"clean\": false"));
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn clean_requires_mutants_caught_twice() {
        let mut r = CampaignReport::default();
        assert!(r.clean());
        r.mutation = Some(MutationSummary {
            attempted: 3,
            planted: 2,
            caught_twice: 1,
            hits: BTreeMap::new(),
        });
        assert!(!r.clean());
    }
}
