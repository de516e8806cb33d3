//! # dhpf-profile — cross-rank critical-path profiler
//!
//! The space-time diagrams (paper §8) show *where* time goes; this
//! crate explains *why*, and *what it would be worth to fix*. From the
//! virtual machine's per-rank traces it reconstructs the cross-rank
//! event DAG (program order within a rank, send→receive edges between
//! ranks, barrier joins), extracts the critical path through the LogGP
//! timeline, and charges every second of lost time back to the
//! communication nest — and through the plan-provenance table, to the
//! source line and the compiler decisions — that caused it.
//!
//! On top of the same reconstruction sits a what-if engine: each rank's
//! schedule is replayed with one hypothesis applied (a nest's
//! communication made free, blocking receives overlapped, barriers
//! removed), bounding the benefit of an optimization *before*
//! implementing it. The replay is [`dhpf_spmd::loggp::replay`] — the
//! virtual machine's own cost model, not a copy of it — so the baseline
//! replay is the traced run again.
//!
//! Everything is in deterministic virtual time: profiles, reports, and
//! what-if numbers are byte-stable across runs and machines.

pub mod dag;
pub mod report;
pub mod whatif;

pub use dag::{MessageSlack, SegClass, Segment};

use dhpf_core::codegen::{NodeProgram, PlanProv, ProvKind};
use dhpf_core::exec::node::{LowerStats, RankCounts};
use dhpf_fortran::ast::Program;
use dhpf_obs::{CommPhase, DecisionKind, ObsReport};
use dhpf_spmd::loggp::{self, ReplayError};
use dhpf_spmd::machine::MachineConfig;
use dhpf_spmd::trace::{EventKind, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// Profiling failure (malformed traces, a what-if rewrite that broke
/// the protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileError(pub String);

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "profile: {}", self.0)
    }
}

impl std::error::Error for ProfileError {}

impl From<ReplayError> for ProfileError {
    fn from(e: ReplayError) -> Self {
        ProfileError(e.0)
    }
}

/// Knobs for [`profile`].
#[derive(Clone, Debug)]
pub struct ProfileOptions {
    /// How many top nests (by stall time) get a "made free" what-if and
    /// a ranked report row.
    pub top: usize,
    /// Nest ids whose blocking receives the overlap what-if converts to
    /// post/compute/wait form — typically the `Pre`-kind nests the
    /// compiler *would* overlap with `CompileOptions::overlap` on.
    pub overlap_candidates: Vec<u32>,
}

/// Nest ids in `blocking`'s provenance table whose pre-exchanges the
/// compiler fuses into overlapped nests in `overlapped` (the same
/// program compiled with `OptFlags::overlap` on): the overlap what-if
/// replays exactly those receives in post/compute/wait form.
pub fn overlap_candidates(blocking: &NodeProgram, overlapped: &NodeProgram) -> Vec<u32> {
    let fused: BTreeSet<(&str, u32)> = overlapped
        .provenance
        .iter()
        .filter(|p| p.kind == ProvKind::Overlap)
        .map(|p| (p.unit.as_str(), p.stmt))
        .collect();
    blocking
        .provenance
        .iter()
        .enumerate()
        .filter(|(_, p)| p.kind == ProvKind::Pre && fused.contains(&(p.unit.as_str(), p.stmt)))
        .map(|(i, _)| i as u32)
        .collect()
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            top: 8,
            overlap_candidates: Vec::new(),
        }
    }
}

/// Per-rank execution summary.
#[derive(Clone, Debug)]
pub struct RankStats {
    pub rank: usize,
    /// Compute seconds.
    pub busy: f64,
    /// Seconds stalled in receives, waits, and barriers.
    pub stall: f64,
    /// Virtual end time of the rank.
    pub end: f64,
}

/// Everything attributed to one communication nest.
#[derive(Clone, Debug)]
pub struct NestProfile {
    /// Index into the program's provenance table.
    pub id: u32,
    pub prov: PlanProv,
    /// Stall seconds summed across all ranks.
    pub stall: f64,
    pub stall_events: usize,
    /// Messages sent / payload bytes moved, summed across ranks.
    pub messages: usize,
    pub bytes: u64,
    /// Seconds of the critical path charged to this nest.
    pub critical: f64,
    /// Most negative message slack (how late the tightest message ran).
    pub min_slack: f64,
    /// Decision-log lines (human form) recorded for the planned loop.
    pub decisions: Vec<String>,
    /// Replayed makespan with this nest's communication made free.
    pub whatif_free: Option<f64>,
}

/// One what-if scenario's outcome.
#[derive(Clone, Debug)]
pub struct WhatIf {
    /// Stable machine tag: `free-nest`, `overlap`, `no-barriers`.
    pub scenario: &'static str,
    /// Human label (anchors the scenario to a nest where relevant).
    pub label: String,
    pub makespan: f64,
    /// Baseline minus scenario makespan (clamped at 0 for float dust).
    pub savings: f64,
}

impl WhatIf {
    pub fn savings_pct(&self, baseline: f64) -> f64 {
        if baseline > 0.0 {
            100.0 * self.savings / baseline
        } else {
            0.0
        }
    }
}

/// The complete profile of one traced execution.
#[derive(Clone, Debug)]
pub struct Profile {
    pub nprocs: usize,
    pub makespan: f64,
    pub ranks: Vec<RankStats>,
    /// Max rank busy time over mean rank busy time (1.0 = perfectly
    /// balanced; also 1.0 for an empty/zero-compute run).
    pub imbalance: f64,
    /// The critical path, tiling `[0, makespan]` in increasing time.
    pub path: Vec<Segment>,
    /// Critical-path seconds aggregated by segment class.
    pub by_class: Vec<(SegClass, f64)>,
    /// Per-nest attribution, sorted by stall time descending.
    pub nests: Vec<NestProfile>,
    /// Stall seconds across all ranks, and the portion carrying a nest id.
    pub total_stall: f64,
    pub attributed_stall: f64,
    pub whatif: Vec<WhatIf>,
}

impl Profile {
    /// Fraction of stall time attributed to a provenanced nest
    /// (1.0 when there is no stall at all).
    pub fn attribution_coverage(&self) -> f64 {
        if self.total_stall > 0.0 {
            self.attributed_stall / self.total_stall
        } else {
            1.0
        }
    }
}

/// Profile a traced execution of `program`.
///
/// * `transformed` — the transformed AST the compile produced (for
///   resolving decision statement ids to source lines);
/// * `obs` — the compile's observability report (decision log);
/// * `traces` — one trace per rank from a `with_trace()` run;
/// * `cfg` — the machine configuration the run used (the what-if replay
///   must cost communication identically).
pub fn profile(
    program: &NodeProgram,
    transformed: &Program,
    obs: &ObsReport,
    traces: &[Trace],
    cfg: &MachineConfig,
    opts: &ProfileOptions,
) -> Result<Profile, ProfileError> {
    let decisions = join_decisions(&program.provenance, transformed, obs);
    build_profile(&program.provenance, &decisions, traces, cfg, opts)
}

/// Join the decision log against the plan-provenance table: nest id →
/// rendered decision lines recorded for that planned loop.
///
/// Nest-level decisions (overlap, pipeline) anchor to the planned loop
/// statement itself; retained-communication decisions anchor to the
/// read/write reference *inside* the nest, so the join accepts any
/// statement in the planned loop's subtree — narrowed by the arrays the
/// plan actually moves.
pub fn join_decisions(
    provenance: &[PlanProv],
    transformed: &Program,
    obs: &ObsReport,
) -> BTreeMap<u32, Vec<String>> {
    let lines = dhpf_obs::line_index(transformed);
    let mut out: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for (id, prov) in provenance.iter().enumerate() {
        let members = nest_stmts(transformed, prov);
        let mut rendered = Vec::new();
        for scope in obs.scopes.iter().filter(|s| s.scope == prov.unit) {
            for d in &scope.decisions {
                let anchored = match d.stmt {
                    Some(s) => s.0 == prov.stmt || members.contains(&s.0),
                    None => false,
                };
                if anchored && decision_matches(prov, &d.kind) {
                    rendered.push(d.render_human(&scope.scope, &lines));
                }
            }
        }
        if !rendered.is_empty() {
            out.insert(id as u32, rendered);
        }
    }
    out
}

/// Ids of every statement in the planned loop's subtree (including the
/// loop itself), or just the loop id if the unit/statement is missing.
fn nest_stmts(transformed: &Program, prov: &PlanProv) -> BTreeSet<u32> {
    let mut members = BTreeSet::from([prov.stmt]);
    if let Some(unit) = transformed.units.iter().find(|u| u.name == prov.unit) {
        unit.for_each_stmt(&mut |s| {
            if s.id.0 == prov.stmt {
                s.walk(&mut |inner| {
                    members.insert(inner.id.0);
                });
            }
        });
    }
    members
}

/// Does a decision explain a nest with this provenance?
fn decision_matches(prov: &PlanProv, d: &DecisionKind) -> bool {
    match (prov.kind, d) {
        (
            ProvKind::Pre | ProvKind::Overlap,
            DecisionKind::CommRetained {
                array,
                phase: CommPhase::Pre,
                ..
            },
        )
        | (
            ProvKind::Post,
            DecisionKind::CommRetained {
                array,
                phase: CommPhase::Post,
                ..
            },
        ) => prov.arrays.contains(array),
        (
            ProvKind::Pre | ProvKind::Overlap,
            DecisionKind::CommAggregated {
                phase: CommPhase::Pre,
                ..
            },
        )
        | (
            ProvKind::Post,
            DecisionKind::CommAggregated {
                phase: CommPhase::Post,
                ..
            },
        ) => true,
        (ProvKind::Overlap, DecisionKind::CommOverlapped { .. }) => true,
        (ProvKind::Pipeline, DecisionKind::PipelineScheduled { .. }) => true,
        _ => false,
    }
}

/// Core analysis over traces + provenance. Split from [`profile`] so
/// synthetic traces can be profiled without a compiled program.
pub fn build_profile(
    provenance: &[PlanProv],
    decisions: &BTreeMap<u32, Vec<String>>,
    traces: &[Trace],
    cfg: &MachineConfig,
    opts: &ProfileOptions,
) -> Result<Profile, ProfileError> {
    for (i, tr) in traces.iter().enumerate() {
        if tr.rank != i {
            return Err(ProfileError(format!(
                "trace {i} carries rank {} (traces must be rank-ordered and complete)",
                tr.rank
            )));
        }
    }
    let matching = loggp::match_events(traces)?;
    let path = dag::critical_path(traces, &matching);
    let slacks = dag::message_slack(traces, &matching, cfg);

    let makespan = traces.iter().map(|t| t.end()).fold(0.0f64, f64::max);
    let ranks: Vec<RankStats> = traces
        .iter()
        .map(|t| RankStats {
            rank: t.rank,
            busy: t.busy(),
            stall: t.stalled(),
            end: t.end(),
        })
        .collect();
    let mean_busy = if ranks.is_empty() {
        0.0
    } else {
        ranks.iter().map(|r| r.busy).sum::<f64>() / ranks.len() as f64
    };
    let max_busy = ranks.iter().map(|r| r.busy).fold(0.0f64, f64::max);
    let imbalance = if mean_busy > 0.0 {
        max_busy / mean_busy
    } else {
        1.0
    };

    // per-nest aggregation over every rank's events
    let mut stall: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    let mut volume: BTreeMap<u32, (usize, u64)> = BTreeMap::new();
    let mut total_stall = 0.0;
    let mut attributed_stall = 0.0;
    for tr in traces {
        for e in &tr.events {
            let dt = e.t1 - e.t0;
            match &e.kind {
                k if k.is_stall() || *k == EventKind::Barrier => {
                    total_stall += dt;
                    if let Some(n) = e.nest {
                        attributed_stall += dt;
                        let s = stall.entry(n).or_insert((0.0, 0));
                        s.0 += dt;
                        s.1 += 1;
                    }
                }
                EventKind::Send { bytes, .. } => {
                    if let Some(n) = e.nest {
                        let v = volume.entry(n).or_insert((0, 0));
                        v.0 += 1;
                        v.1 += bytes;
                    }
                }
                _ => {}
            }
        }
    }
    let mut critical: BTreeMap<u32, f64> = BTreeMap::new();
    for s in &path {
        if s.class != SegClass::Compute {
            if let Some(n) = s.nest {
                *critical.entry(n).or_insert(0.0) += s.dur();
            }
        }
    }
    let mut min_slack: BTreeMap<u32, f64> = BTreeMap::new();
    for MessageSlack { nest, slack } in &slacks {
        if let Some(n) = nest {
            let e = min_slack.entry(*n).or_insert(f64::INFINITY);
            *e = e.min(*slack);
        }
    }

    let mut ids: BTreeSet<u32> = BTreeSet::new();
    ids.extend(stall.keys());
    ids.extend(volume.keys());
    ids.extend(critical.keys());
    let mut nests: Vec<NestProfile> = ids
        .into_iter()
        .filter_map(|id| {
            let prov = provenance.get(id as usize)?.clone();
            let (st, ev) = stall.get(&id).copied().unwrap_or((0.0, 0));
            let (msgs, bytes) = volume.get(&id).copied().unwrap_or((0, 0));
            Some(NestProfile {
                id,
                prov,
                stall: st,
                stall_events: ev,
                messages: msgs,
                bytes,
                critical: critical.get(&id).copied().unwrap_or(0.0),
                min_slack: min_slack.get(&id).copied().unwrap_or(0.0),
                decisions: decisions.get(&id).cloned().unwrap_or_default(),
                whatif_free: None,
            })
        })
        .collect();
    nests.sort_by(|a, b| {
        b.stall
            .partial_cmp(&a.stall)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });

    let mut by_class: BTreeMap<SegClass, f64> = BTreeMap::new();
    for s in &path {
        *by_class.entry(s.class).or_insert(0.0) += s.dur();
    }
    let by_class: Vec<(SegClass, f64)> = by_class.into_iter().collect();

    // --- what-if replay ---------------------------------------------
    let actions = whatif::actions_from_traces(traces);
    let mut whatifs = Vec::new();
    if makespan > 0.0 {
        let quiet = MachineConfig {
            trace: false,
            ..cfg.clone()
        };
        let replay = |actions: &[Vec<loggp::Action>], free: Option<u32>| {
            loggp::replay(actions, &quiet, free).map(|r| r.virtual_time)
        };
        // The replay runs the machine's own rules, so this is not a
        // model-drift check. Its tolerance covers one thing: a coalesced
        // compute event records `[t0, t0 + Σdt]` while the clock advanced
        // by each `dt` in turn, so the duration read back (`t1 − t0`)
        // differs from what the run added by float re-association. A
        // miss means `cfg` is not the configuration the run used.
        let base = replay(&actions, None)?;
        if (base - makespan).abs() > 1e-9 * makespan.max(1.0) {
            return Err(ProfileError(format!(
                "baseline replay drifted from the traced timeline: \
                 traced {makespan:.9e}s, replayed {base:.9e}s"
            )));
        }
        for nest in nests.iter_mut().take(opts.top) {
            let free = replay(&actions, Some(nest.id))?;
            nest.whatif_free = Some(free);
            whatifs.push(WhatIf {
                scenario: "free-nest",
                label: format!(
                    "{} at {} made free",
                    nest.prov.kind.name(),
                    nest.prov.anchor()
                ),
                makespan: free,
                savings: (makespan - free).max(0.0),
            });
        }
        if !opts.overlap_candidates.is_empty() {
            let cands: BTreeSet<u32> = opts.overlap_candidates.iter().copied().collect();
            let over = replay(&whatif::apply_overlap(&actions, &cands), None)?;
            whatifs.push(WhatIf {
                scenario: "overlap",
                label: format!("overlap applied to {} exchange nest(s)", cands.len()),
                makespan: over,
                savings: (makespan - over).max(0.0),
            });
        }
        if !matching.barriers.is_empty() {
            let unsynced = replay(&whatif::apply_no_barriers(&actions), None)?;
            whatifs.push(WhatIf {
                scenario: "no-barriers",
                label: format!("all {} barrier(s) removed", matching.barriers.len()),
                makespan: unsynced,
                savings: (makespan - unsynced).max(0.0),
            });
        }
    }

    Ok(Profile {
        nprocs: traces.len(),
        makespan,
        ranks,
        imbalance,
        path,
        by_class,
        nests,
        total_stall,
        attributed_stall,
        whatif: whatifs,
    })
}

/// Record execution gauges into a `dhpf-metrics-v1` document (additive:
/// new names in the existing `cache` gauge section, so consumers of the
/// frozen schema are unaffected). All values are finite even for empty
/// traces.
pub fn record_exec_gauges(metrics: &mut dhpf_obs::Metrics, traces: &[Trace]) {
    let mut busy_sum = 0.0;
    let mut max_busy = 0.0f64;
    let mut makespan = 0.0f64;
    for tr in traces {
        let busy = tr.busy();
        busy_sum += busy;
        max_busy = max_busy.max(busy);
        makespan = makespan.max(tr.end());
        metrics.gauge(&format!("exec.r{}.busy_ms", tr.rank), busy * 1e3);
        metrics.gauge(&format!("exec.r{}.stall_ms", tr.rank), tr.stalled() * 1e3);
    }
    let mean_busy = if traces.is_empty() {
        0.0
    } else {
        busy_sum / traces.len() as f64
    };
    let imbalance = if mean_busy > 0.0 {
        max_busy / mean_busy
    } else {
        1.0
    };
    metrics.gauge("exec.imbalance", imbalance);
    metrics.gauge("exec.makespan_ms", makespan * 1e3);
}

/// Record the deterministic work counts of a run next to its execution
/// gauges: per rank the loop iterations it started, and summed over the
/// ranks what their lowerings decided.
pub fn record_rank_gauges(metrics: &mut dhpf_obs::Metrics, ranks: &[RankCounts]) {
    for (rank, counts) in ranks.iter().enumerate() {
        metrics.gauge(
            &format!("exec.r{rank}.loop_trips"),
            counts.loop_trips as f64,
        );
    }
    let mut total = LowerStats::default().named();
    for counts in ranks {
        let rank = counts.lower.named();
        total.iter_mut().zip(rank).for_each(|(t, (_, n))| t.1 += n);
    }
    for (name, sum) in total {
        metrics.gauge(&format!("exec.lower.{name}"), sum as f64);
    }
}

/// Perfetto flow events tracing the critical path across rank tracks:
/// one `s`→`t`…→`f` chain (`cat: "critical-path"`) whose arrows hop
/// between the execution-process (`pid 2`) lanes wherever the binding
/// dependency crosses ranks. Feed to
/// `dhpf_obs::perfetto::render_with_extra`.
pub fn critical_path_flow_events(p: &Profile) -> Vec<String> {
    let pid = dhpf_obs::perfetto::PID_EXEC;
    let n = p.path.len();
    p.path
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let ph = if i == 0 {
                "s"
            } else if i + 1 == n {
                "f"
            } else {
                "t"
            };
            // anchor mid-segment so the arrow binds inside the slice
            let ts = (((s.t0 + s.t1) / 2.0) * 1e6).round() as u64;
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            let nest = s
                .nest
                .map(|x| x.to_string())
                .unwrap_or_else(|| "null".into());
            format!(
                "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{},\"cat\":\"critical-path\",\
                 \"name\":\"critical-path\",\"id\":1,\"ts\":{ts}{bp},\
                 \"args\":{{\"class\":\"{}\",\"nest\":{nest}}}}}",
                s.rank,
                s.class.name()
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_spmd::trace::Event;

    fn cfg() -> MachineConfig {
        MachineConfig {
            nprocs: 2,
            seconds_per_flop: 1.0,
            latency: 10.0,
            byte_time: 0.0,
            send_overhead: 1.0,
            recv_overhead: 1.0,
            trace: true,
        }
    }

    fn prov(unit: &str) -> PlanProv {
        PlanProv {
            unit: unit.into(),
            stmt: 1,
            line: Some(12),
            kind: ProvKind::Pre,
            arrays: vec!["a".into()],
            tag: 1,
        }
    }

    /// Hand-built two-rank timeline with one stalled message:
    /// rank 0: compute [0,5], send [5,6]         (arrival 6+10 = 16)
    /// rank 1: recv-wait [0,16], compute [16,21]
    fn ping_traces() -> Vec<Trace> {
        let mut t0 = Trace::new(0);
        t0.push(Event::new(0.0, 5.0, EventKind::Compute));
        let mut s = Event::new(5.0, 6.0, EventKind::Send { to: 1, bytes: 8 });
        s.nest = Some(0);
        t0.push(s);
        let mut t1 = Trace::new(1);
        let mut r = Event::new(0.0, 16.0, EventKind::RecvWait { from: 0, bytes: 8 });
        r.nest = Some(0);
        t1.push(r);
        t1.push(Event::new(16.0, 21.0, EventKind::Compute));
        vec![t0, t1]
    }

    #[test]
    fn ping_critical_path_tiles_makespan_and_attributes_the_stall() {
        let provs = [prov("main")];
        let p = build_profile(
            &provs,
            &BTreeMap::new(),
            &ping_traces(),
            &cfg(),
            &ProfileOptions::default(),
        )
        .unwrap();
        assert_eq!(p.makespan, 21.0);
        let sum: f64 = p.path.iter().map(|s| s.dur()).sum();
        assert!((sum - p.makespan).abs() < 1e-12, "path sums to {sum}");
        // path: compute [0,5] on r0, send [5,6] on r0, network [6,16],
        // compute [16,21] on r1
        assert_eq!(p.path.len(), 4);
        assert_eq!(p.path[2].class, SegClass::Network);
        assert_eq!(p.path[2].nest, Some(0));
        assert_eq!(p.attribution_coverage(), 1.0);
        assert_eq!(p.nests.len(), 1);
        assert_eq!(p.nests[0].stall, 16.0);
        assert_eq!(p.nests[0].messages, 1);
        // the message ran 10 late: ready = 0 + o_r = 1, arrival = 16
        assert!((p.nests[0].min_slack - (1.0 - 16.0)).abs() < 1e-12);
    }

    #[test]
    fn free_whatif_on_the_only_nest_collapses_the_stall() {
        let provs = [prov("main")];
        let p = build_profile(
            &provs,
            &BTreeMap::new(),
            &ping_traces(),
            &cfg(),
            &ProfileOptions::default(),
        )
        .unwrap();
        // free: r0 ends at 5, message arrives at 5, r1 = max(0,5)+5 = 10
        assert_eq!(p.nests[0].whatif_free, Some(10.0));
        assert!(p.whatif.iter().all(|w| w.makespan <= p.makespan + 1e-12));
        let free = p.whatif.iter().find(|w| w.scenario == "free-nest").unwrap();
        assert_eq!(free.savings, 11.0);
    }

    #[test]
    fn empty_traces_profile_cleanly() {
        let p = build_profile(
            &[],
            &BTreeMap::new(),
            &[Trace::new(0), Trace::new(1)],
            &cfg(),
            &ProfileOptions::default(),
        )
        .unwrap();
        assert_eq!(p.makespan, 0.0);
        assert!(p.path.is_empty());
        assert_eq!(p.imbalance, 1.0);
        assert_eq!(p.attribution_coverage(), 1.0);
        assert!(p.whatif.is_empty());
        assert!(p.imbalance.is_finite());
    }

    #[test]
    fn misordered_traces_are_rejected() {
        let err = build_profile(
            &[],
            &BTreeMap::new(),
            &[Trace::new(1), Trace::new(0)],
            &cfg(),
            &ProfileOptions::default(),
        )
        .unwrap_err();
        assert!(err.0.contains("rank-ordered"));
    }

    #[test]
    fn exec_gauges_are_finite_and_additive() {
        let mut m = dhpf_obs::Metrics::default();
        m.gauge("iset.hit_rate", 0.5);
        record_exec_gauges(&mut m, &ping_traces());
        let get = |name: &str| {
            m.cache
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("exec.r0.busy_ms"), 5.0e3);
        assert_eq!(get("exec.r1.stall_ms"), 16.0e3);
        assert_eq!(get("exec.imbalance"), 1.0);
        assert_eq!(get("exec.makespan_ms"), 21.0e3);
        // pre-existing gauges untouched, all values finite
        assert_eq!(get("iset.hit_rate"), 0.5);
        assert!(m.cache.iter().all(|(_, v)| v.is_finite()));
        // empty traces stay finite (no NaN imbalance)
        let mut m2 = dhpf_obs::Metrics::default();
        record_exec_gauges(&mut m2, &[Trace::new(0)]);
        assert!(m2.cache.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn flow_events_chain_across_ranks() {
        let provs = [prov("main")];
        let p = build_profile(
            &provs,
            &BTreeMap::new(),
            &ping_traces(),
            &cfg(),
            &ProfileOptions::default(),
        )
        .unwrap();
        let ev = critical_path_flow_events(&p);
        assert_eq!(ev.len(), p.path.len());
        assert!(ev[0].contains("\"ph\":\"s\""));
        assert!(ev.last().unwrap().contains("\"ph\":\"f\""));
        assert!(ev.iter().all(|e| e.contains("\"cat\":\"critical-path\"")));
        // the chain visits both ranks
        assert!(ev.iter().any(|e| e.contains("\"tid\":0")));
        assert!(ev.iter().any(|e| e.contains("\"tid\":1")));
        // embeds cleanly in the combined perfetto document
        let doc = dhpf_obs::perfetto::render_with_extra(None, None, &ev);
        assert!(doc.contains("critical-path"));
    }

    #[test]
    fn decision_kind_join_is_phase_and_array_sensitive() {
        use dhpf_obs::ElimReason;
        let ret_pre = DecisionKind::CommRetained {
            array: "a".into(),
            phase: CommPhase::Pre,
            messages: 2,
            elems: 10,
        };
        let ret_pre_other = DecisionKind::CommRetained {
            array: "b".into(),
            phase: CommPhase::Pre,
            messages: 2,
            elems: 10,
        };
        let ret_post = DecisionKind::CommRetained {
            array: "a".into(),
            phase: CommPhase::Post,
            messages: 2,
            elems: 10,
        };
        let elim = DecisionKind::CommEliminated {
            array: "a".into(),
            reason: ElimReason::AvailableFromPriorWrite,
        };
        let p = prov("main");
        let mut post = prov("main");
        post.kind = ProvKind::Post;
        let mut over = prov("main");
        over.kind = ProvKind::Overlap;
        assert!(decision_matches(&p, &ret_pre));
        assert!(!decision_matches(&p, &ret_pre_other), "array must match");
        assert!(!decision_matches(&p, &ret_post));
        assert!(decision_matches(&post, &ret_post));
        assert!(decision_matches(&over, &ret_pre));
        assert!(!decision_matches(&p, &elim));
    }
}
