//! The typed decision log.
//!
//! Every consequential choice the compiler makes is recorded as one
//! [`Decision`]: which computation partitioning a statement got and why
//! (§4.1 NEW propagation, §4.2 LOCALIZE, §5 grouping, §6 interprocedural
//! fixing, least-cost local selection, owner-computes default), which
//! loops were selectively distributed (§5), which calls were inlined
//! (§6), and which communication the availability analysis (§7)
//! eliminated, carried on a pipeline, or had to retain.
//!
//! Decisions carry no wall-clock content except the Perfetto-only
//! `t_us` anchor: rendering via [`Decision::log_line`] /
//! [`Decision::render_human`] is deterministic, so every compile of a
//! program produces a byte-identical log and the log can be golden-tested.

use crate::json::escape as jesc;
use dhpf_fortran::ast::StmtId;
use std::collections::BTreeMap;

/// How a statement's CP was decided.
#[derive(Clone, Debug, PartialEq)]
pub enum CpHow {
    /// Least-cost local selection (§3/§4 cost model).
    LeastCost,
    /// Communication-sensitive grouping chose one CP for the group (§5).
    Grouped,
    /// Fixed by the translated entry CP of an inlined callee (§6).
    FixedByInlining,
    /// Owner-computes default for a top-level assignment.
    OwnerComputes,
    /// §4.1 propagation onto the definition of a NEW variable.
    PropagatedNew(String),
    /// §4.2 LOCALIZE partial replication of the named variable.
    Localized(String),
    /// Strawman replication (privatizable-CP optimization disabled).
    ReplicatedStrawman,
    /// Owner-computes fallback (LOCALIZE optimization disabled).
    LocalizeOff(String),
}

impl CpHow {
    pub fn as_str(&self) -> &'static str {
        match self {
            CpHow::LeastCost => "least-cost",
            CpHow::Grouped => "grouped(§5)",
            CpHow::FixedByInlining => "inlined-entry-cp(§6)",
            CpHow::OwnerComputes => "owner-computes",
            CpHow::PropagatedNew(_) => "propagated-new(§4.1)",
            CpHow::Localized(_) => "localized(§4.2)",
            CpHow::ReplicatedStrawman => "replicated-strawman",
            CpHow::LocalizeOff(_) => "localize-off",
        }
    }

    /// The variable the decision is about, when variable-directed.
    pub fn var(&self) -> Option<&str> {
        match self {
            CpHow::PropagatedNew(v) | CpHow::Localized(v) | CpHow::LocalizeOff(v) => Some(v),
            _ => None,
        }
    }
}

/// Why a communication was eliminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElimReason {
    /// §7: covered by a preceding write on the same processor.
    AvailableFromPriorWrite,
    /// Behind-read of a swept array: the pipeline carries the value.
    CarriedByPipeline,
    /// Write-back suppressed: the owner computes the value itself
    /// (partial replication, §4.2).
    OwnerComputesRedundantly,
}

impl ElimReason {
    pub fn as_str(self) -> &'static str {
        match self {
            ElimReason::AvailableFromPriorWrite => "available-from-prior-write(§7)",
            ElimReason::CarriedByPipeline => "carried-by-pipeline",
            ElimReason::OwnerComputesRedundantly => "owner-computes-redundantly(§4.2)",
        }
    }
}

/// Which side of a nest the retained communication is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommPhase {
    /// Pre-exchange before the nest.
    Pre,
    /// Write-back after the nest.
    Post,
}

impl CommPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            CommPhase::Pre => "pre-exchange",
            CommPhase::Post => "write-back",
        }
    }
}

/// The payload of one decision.
#[derive(Clone, Debug, PartialEq)]
pub enum DecisionKind {
    /// A statement's computation partitioning was decided.
    CpSelect {
        cp: String,
        how: CpHow,
        /// Estimated communication cost of the choice, when the
        /// selector computed one.
        cost: Option<f64>,
    },
    /// §5: a loop was selectively distributed into `parts` pieces.
    LoopDistributed { loop_var: String, parts: usize },
    /// §6: a loop-borne call was inlined (with the callee's translated
    /// entry CP when interprocedural selection is on).
    Inlined {
        callee: String,
        entry_cp: Option<String>,
    },
    /// §6: the unit exports this entry CP to its callers.
    EntryCp { cp: String },
    /// Communication for a read/write was eliminated.
    CommEliminated { array: String, reason: ElimReason },
    /// Residual communication was retained for a read (pre) or a
    /// non-owner write (post): `messages` vectorized messages moving
    /// `elems` array elements.
    CommRetained {
        array: String,
        phase: CommPhase,
        messages: usize,
        elems: usize,
    },
    /// A phase's coalesced messages were aggregated per peer pair:
    /// `messages_before` plan-level messages pack into `messages_after`
    /// physical transfers over `peers` endpoint pairs (§7 aggregation).
    CommAggregated {
        phase: CommPhase,
        peers: usize,
        messages_before: usize,
        messages_after: usize,
    },
    /// A parallel nest's halo pre-exchange was marked overlappable:
    /// the generated code posts receives, computes the interior, then
    /// waits before finishing the boundary (§3).
    CommOverlapped { arrays: Vec<String>, halos: usize },
    /// A wavefront nest was scheduled as a coarse-grain pipeline.
    PipelineScheduled {
        arrays: Vec<String>,
        granularity: i64,
        forward: bool,
    },
    /// The static SPMD protocol verifier proved the emitted node
    /// program's communication protocol consistent for every rank.
    ProtocolVerified { atoms: usize, nprocs: usize },
    /// The static SPMD protocol verifier found a violation.
    ProtocolViolation { code: String, message: String },
}

/// One recorded decision.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    pub kind: DecisionKind,
    /// Anchoring statement in the transformed AST, when known.
    pub stmt: Option<StmtId>,
    /// Unit the decision concerns, when it differs from the recording
    /// scope (driver-level passes deciding about a unit's statements).
    pub unit: Option<String>,
    /// Source line, when the recorder resolved it eagerly (statements
    /// that do not survive into the transformed AST, e.g. a distributed
    /// loop). Otherwise the renderer resolves `stmt` lazily.
    pub line: Option<u32>,
    /// Microseconds since the compile epoch (Perfetto anchor only —
    /// never rendered into the decision log).
    pub t_us: u64,
}

impl Decision {
    pub fn new(kind: DecisionKind) -> Self {
        Decision {
            kind,
            stmt: None,
            unit: None,
            line: None,
            t_us: 0,
        }
    }

    pub fn stmt(mut self, id: StmtId) -> Self {
        self.stmt = Some(id);
        self
    }

    /// Attribute the decision to a unit other than the recording scope.
    pub fn unit(mut self, name: impl Into<String>) -> Self {
        self.unit = Some(name.into());
        self
    }

    pub fn line(mut self, line: u32) -> Self {
        self.line = Some(line);
        self
    }

    /// Key identifying "the same decision" across fixpoint passes: the
    /// last recording for a key wins, at the first occurrence's position.
    fn dedup_key(&self) -> String {
        let stmt = self.stmt.map(|s| s.0).unwrap_or(u32::MAX);
        match &self.kind {
            DecisionKind::CpSelect { how, .. } => {
                format!("cp:{stmt}:{}", how.var().unwrap_or(""))
            }
            DecisionKind::LoopDistributed { loop_var, .. } => format!("dist:{stmt}:{loop_var}"),
            DecisionKind::Inlined { callee, .. } => format!("inl:{stmt}:{callee}"),
            DecisionKind::EntryCp { .. } => "entry".to_string(),
            DecisionKind::CommEliminated { array, reason } => {
                format!("elim:{stmt}:{array}:{}", reason.as_str())
            }
            DecisionKind::CommRetained { array, phase, .. } => {
                format!("ret:{stmt}:{array}:{}", phase.as_str())
            }
            DecisionKind::CommAggregated { phase, .. } => {
                format!("agg:{stmt}:{}", phase.as_str())
            }
            DecisionKind::CommOverlapped { .. } => format!("ovl:{stmt}"),
            DecisionKind::PipelineScheduled { .. } => format!("pipe:{stmt}"),
            DecisionKind::ProtocolVerified { .. } => "proto-ok".to_string(),
            DecisionKind::ProtocolViolation { code, message } => {
                format!("proto-bad:{code}:{message}")
            }
        }
    }

    /// Deduplicate by key: first-occurrence order, last-occurrence payload.
    pub fn dedup(decisions: Vec<Decision>) -> Vec<Decision> {
        let mut order: Vec<String> = Vec::new();
        let mut latest: BTreeMap<String, Decision> = BTreeMap::new();
        for d in decisions {
            let k = d.dedup_key();
            if !latest.contains_key(&k) {
                order.push(k.clone());
            }
            latest.insert(k, d);
        }
        order
            .into_iter()
            .map(|k| latest.remove(&k).expect("key recorded"))
            .collect()
    }

    /// Deterministic one-line summary (no unit, no line resolution).
    pub fn log_line(&self) -> String {
        let mut out = match &self.kind {
            DecisionKind::CpSelect { cp, how, cost } => {
                let mut s = format!("cp {} <- {cp}", how.as_str());
                if let Some(v) = how.var() {
                    s.push_str(&format!(" var={v}"));
                }
                if let Some(c) = cost {
                    s.push_str(&format!(" cost={c:.3}"));
                }
                s
            }
            DecisionKind::LoopDistributed { loop_var, parts } => {
                format!("distribute loop {loop_var} into {parts} parts")
            }
            DecisionKind::Inlined { callee, entry_cp } => match entry_cp {
                Some(cp) => format!("inline {callee} with entry cp {cp}"),
                None => format!("inline {callee} (no entry cp)"),
            },
            DecisionKind::EntryCp { cp } => format!("entry cp {cp}"),
            DecisionKind::CommEliminated { array, reason } => {
                format!("comm eliminated {array}: {}", reason.as_str())
            }
            DecisionKind::CommRetained {
                array,
                phase,
                messages,
                elems,
            } => format!(
                "comm retained {array}: {} {messages} msg(s) {elems} elem(s)",
                phase.as_str()
            ),
            DecisionKind::CommAggregated {
                phase,
                peers,
                messages_before,
                messages_after,
            } => format!(
                "comm aggregated {}: {messages_before} -> {messages_after} msg(s) over {peers} peer pair(s)",
                phase.as_str()
            ),
            DecisionKind::CommOverlapped { arrays, halos } => {
                format!("comm overlapped {} ({halos} halo dir(s))", arrays.join(","))
            }
            DecisionKind::PipelineScheduled {
                arrays,
                granularity,
                forward,
            } => format!(
                "pipeline {} {} granularity {granularity}",
                arrays.join(","),
                if *forward { "forward" } else { "backward" }
            ),
            DecisionKind::ProtocolVerified { atoms, nprocs } => {
                format!("protocol verified ({atoms} atoms, {nprocs} ranks)")
            }
            DecisionKind::ProtocolViolation { code, message } => {
                format!("protocol violation {code}: {message}")
            }
        };
        if let Some(s) = self.stmt {
            out.push_str(&format!(" @s{}", s.0));
        }
        out
    }

    fn resolved_line(&self, lines: &BTreeMap<StmtId, u32>) -> Option<u32> {
        self.line
            .or_else(|| self.stmt.and_then(|s| lines.get(&s).copied()))
    }

    /// Human rendering: `unit:line: <summary>`.
    pub fn render_human(&self, unit: &str, lines: &BTreeMap<StmtId, u32>) -> String {
        let unit = self.unit.as_deref().unwrap_or(unit);
        let loc = match self.resolved_line(lines) {
            Some(l) => format!("{unit}:{l}"),
            None => unit.to_string(),
        };
        format!("{loc}: {}", self.log_line())
    }

    /// One JSON object for the `dhpf-decisions-v1` schema.
    pub fn render_json(&self, unit: &str, lines: &BTreeMap<StmtId, u32>) -> String {
        let mut out = String::from("{");
        let kind = match &self.kind {
            DecisionKind::CpSelect { .. } => "cp-select",
            DecisionKind::LoopDistributed { .. } => "loop-distributed",
            DecisionKind::Inlined { .. } => "inlined",
            DecisionKind::EntryCp { .. } => "entry-cp",
            DecisionKind::CommEliminated { .. } => "comm-eliminated",
            DecisionKind::CommRetained { .. } => "comm-retained",
            DecisionKind::CommAggregated { .. } => "comm-aggregated",
            DecisionKind::CommOverlapped { .. } => "comm-overlapped",
            DecisionKind::PipelineScheduled { .. } => "pipeline-scheduled",
            DecisionKind::ProtocolVerified { .. } => "protocol-verified",
            DecisionKind::ProtocolViolation { .. } => "protocol-violation",
        };
        let unit = self.unit.as_deref().unwrap_or(unit);
        out.push_str(&format!("\"kind\":\"{kind}\",\"unit\":\"{}\"", jesc(unit)));
        if let Some(s) = self.stmt {
            out.push_str(&format!(",\"stmt\":{}", s.0));
        }
        if let Some(l) = self.resolved_line(lines) {
            out.push_str(&format!(",\"line\":{l}"));
        }
        match &self.kind {
            DecisionKind::CpSelect { cp, how, cost } => {
                out.push_str(&format!(
                    ",\"cp\":\"{}\",\"how\":\"{}\"",
                    jesc(cp),
                    how.as_str()
                ));
                if let Some(v) = how.var() {
                    out.push_str(&format!(",\"var\":\"{}\"", jesc(v)));
                }
                if let Some(c) = cost {
                    out.push_str(&format!(",\"cost\":{c:.3}"));
                }
            }
            DecisionKind::LoopDistributed { loop_var, parts } => {
                out.push_str(&format!(
                    ",\"loop_var\":\"{}\",\"parts\":{parts}",
                    jesc(loop_var)
                ));
            }
            DecisionKind::Inlined { callee, entry_cp } => {
                out.push_str(&format!(",\"callee\":\"{}\"", jesc(callee)));
                if let Some(cp) = entry_cp {
                    out.push_str(&format!(",\"entry_cp\":\"{}\"", jesc(cp)));
                }
            }
            DecisionKind::EntryCp { cp } => {
                out.push_str(&format!(",\"cp\":\"{}\"", jesc(cp)));
            }
            DecisionKind::CommEliminated { array, reason } => {
                out.push_str(&format!(
                    ",\"array\":\"{}\",\"reason\":\"{}\"",
                    jesc(array),
                    reason.as_str()
                ));
            }
            DecisionKind::CommRetained {
                array,
                phase,
                messages,
                elems,
            } => {
                out.push_str(&format!(
                    ",\"array\":\"{}\",\"phase\":\"{}\",\"messages\":{messages},\"elems\":{elems}",
                    jesc(array),
                    phase.as_str()
                ));
            }
            DecisionKind::CommAggregated {
                phase,
                peers,
                messages_before,
                messages_after,
            } => {
                out.push_str(&format!(
                    ",\"phase\":\"{}\",\"peers\":{peers},\"messages_before\":{messages_before},\"messages_after\":{messages_after}",
                    phase.as_str()
                ));
            }
            DecisionKind::CommOverlapped { arrays, halos } => {
                out.push_str(",\"arrays\":[");
                for (i, a) in arrays.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\"", jesc(a)));
                }
                out.push_str(&format!("],\"halos\":{halos}"));
            }
            DecisionKind::PipelineScheduled {
                arrays,
                granularity,
                forward,
            } => {
                out.push_str(",\"arrays\":[");
                for (i, a) in arrays.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\"", jesc(a)));
                }
                out.push_str(&format!(
                    "],\"granularity\":{granularity},\"forward\":{forward}"
                ));
            }
            DecisionKind::ProtocolVerified { atoms, nprocs } => {
                out.push_str(&format!(",\"atoms\":{atoms},\"nprocs\":{nprocs}"));
            }
            DecisionKind::ProtocolViolation { code, message } => {
                out.push_str(&format!(
                    ",\"code\":\"{}\",\"message\":\"{}\"",
                    jesc(code),
                    jesc(message)
                ));
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_position_last_payload() {
        let a = Decision::new(DecisionKind::CpSelect {
            cp: "v1".into(),
            how: CpHow::LeastCost,
            cost: None,
        })
        .stmt(StmtId(1));
        let other = Decision::new(DecisionKind::EntryCp { cp: "e".into() });
        let a2 = Decision::new(DecisionKind::CpSelect {
            cp: "v2".into(),
            how: CpHow::PropagatedNew("cv".into()),
            cost: None,
        })
        .stmt(StmtId(1));
        // a and a2 share stmt but differ in directed variable: distinct keys
        let out = Decision::dedup(vec![a.clone(), other.clone(), a2.clone()]);
        assert_eq!(out.len(), 3);
        // same key: v1 then v1' dedups to the later payload at position 0
        let a1b = Decision::new(DecisionKind::CpSelect {
            cp: "final".into(),
            how: CpHow::Grouped,
            cost: None,
        })
        .stmt(StmtId(1));
        let out = Decision::dedup(vec![a, other, a1b]);
        assert_eq!(out.len(), 2);
        assert!(out[0].log_line().contains("final"));
        assert!(out[1].log_line().contains("entry"));
    }

    #[test]
    fn render_resolves_lines_lazily() {
        let mut lines = BTreeMap::new();
        lines.insert(StmtId(4), 42);
        let d = Decision::new(DecisionKind::CommEliminated {
            array: "rho".into(),
            reason: ElimReason::AvailableFromPriorWrite,
        })
        .stmt(StmtId(4));
        assert_eq!(
            d.render_human("compute_rhs", &lines),
            "compute_rhs:42: comm eliminated rho: available-from-prior-write(§7) @s4"
        );
        let j = d.render_json("compute_rhs", &lines);
        assert!(j.contains("\"line\":42"));
        assert!(j.contains("\"kind\":\"comm-eliminated\""));
    }

    #[test]
    fn eager_line_wins_over_lookup() {
        let lines = BTreeMap::new();
        let d = Decision::new(DecisionKind::LoopDistributed {
            loop_var: "i".into(),
            parts: 2,
        })
        .stmt(StmtId(999))
        .line(17);
        assert!(d.render_human("u", &lines).starts_with("u:17: "));
    }
}
