//! `dhpf-fuzz`: generative differential testing of the dHPF pipeline.
//!
//! Random-but-valid HPF programs ([`gen`]) are compiled across the full
//! optimization-flag lattice at several processor geometries and judged
//! by a matrix of independent oracles ([`oracle`]): the serial reference
//! interpreter (bitwise on integer data, ULP-bounded on doubles), the
//! comm-coverage verifier, the static protocol verifier, the dynamic
//! trace checker, and compile-twice fingerprint identity.
//! Failures shrink structurally ([`shrink`]) and every campaign ends in
//! a frozen `dhpf-fuzz-v1` JSON document ([`report`]). A mutation
//! self-check ([`mutate`]) plants a dropped exchange and demands that at
//! least two oracles notice — proof the harness can actually fire.
//!
//! Everything is seeded: `seed` → per-program seeds via a splittable
//! SplitMix64 ([`rng`]), so any failure report replays exactly.

pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod shrink;

pub use gen::{adapt_geometry, generate, grid_bindings, GenOptions, ProgramSpec};
pub use oracle::{check_program, CheckOutcome, Oracle};
pub use report::{geom_str, CampaignReport, FailureRecord, MutationSummary};

use crate::rng::Rng;

/// Campaign parameters (the `dhpf fuzz` CLI maps onto this).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; program `k` is generated from an independent
    /// substream, so campaigns are prefix-stable in `count`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub count: usize,
    /// Geometry specs (per-dimension processor counts, pre-adaptation).
    pub geometries: Vec<Vec<i64>>,
    /// Float-oracle tolerance in ULPs (integer arrays are bitwise).
    pub max_ulps: u64,
    /// Mutation self-checks to plant (0 disables the phase).
    pub mutants: usize,
    /// Shrink budget per failure, in reproduction attempts (0 disables
    /// shrinking; the original program is recorded instead).
    pub shrink_budget: usize,
    pub gen: GenOptions,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            count: 50,
            geometries: vec![vec![1], vec![4], vec![2, 3]],
            max_ulps: 4,
            mutants: 0,
            shrink_budget: 64,
            gen: GenOptions::default(),
        }
    }
}

/// Per-program seed for campaign position `k` under master `seed`.
pub fn program_seed(seed: u64, k: usize) -> u64 {
    Rng::new(seed).fork(k as u64).next_u64()
}

/// The program the campaign checks for `pseed`: the generated one, ending
/// with a read of its loop variables after every loop, with a statement
/// beside the kernels of its time loop, and with the other distributed
/// loop of each 2-D sweep outside the swept one.
fn campaign_spec(pseed: u64, opts: &GenOptions) -> ProgramSpec {
    ProgramSpec {
        reads_loop_vars_at_end: true,
        statement_in_time_loop: true,
        strip_outside_sweep: true,
        ..generate(pseed, opts)
    }
}

/// Generator tuning implied by the campaign's geometries: a rank-1
/// program adapts any geometry to its full processor total, so the
/// problem-size floor must clear the largest total. (This means the
/// generated program for a given seed depends on the geometry list —
/// reproduce failures with the same `--geometries`.)
pub fn effective_gen(cfg: &CampaignConfig) -> GenOptions {
    let maxp = cfg
        .geometries
        .iter()
        .map(|g| g.iter().product::<i64>())
        .max()
        .unwrap_or(4);
    GenOptions {
        max_pdim: cfg.gen.max_pdim.max(maxp),
    }
}

/// Run a whole campaign. Deterministic in `cfg` (wall time aside).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let started = std::time::Instant::now();
    let mut report = CampaignReport {
        seed: cfg.seed,
        count: cfg.count,
        geometries: cfg.geometries.iter().map(|g| geom_str(g)).collect(),
        ..Default::default()
    };

    let gen_opts = effective_gen(cfg);
    // one minimized record per (program, oracle kind): a single root
    // cause typically fails the same oracle across many lattice
    // configs and geometries, and shrinking each repeat is wasted work
    let mut seen: std::collections::HashSet<(u64, Oracle)> = std::collections::HashSet::new();
    for k in 0..cfg.count {
        let pseed = program_seed(cfg.seed, k);
        let spec = campaign_spec(pseed, &gen_opts);
        let outcome = check_program(&spec, &cfg.geometries, cfg.max_ulps);
        report.programs += 1;
        report.compiles += outcome.compiles;
        report.runs += outcome.runs;
        report.messages += outcome.messages;
        for (name, n) in &outcome.checked {
            *report.checked.entry(name.to_string()).or_insert(0) += n;
        }
        for f in &outcome.failures {
            *report
                .failed
                .entry(f.oracle.as_str().to_string())
                .or_insert(0) += 1;
            if seen.insert((pseed, f.oracle)) {
                report.failures.push(minimize_failure(cfg, &spec, f));
            }
        }
    }

    if cfg.mutants > 0 {
        report.mutation = Some(run_mutants(cfg));
    }

    report.wall_ms = started.elapsed().as_millis();
    report
}

/// Shrink the program behind one failure (when budgeted) and record it.
fn minimize_failure(
    cfg: &CampaignConfig,
    spec: &ProgramSpec,
    f: &oracle::Failure,
) -> FailureRecord {
    // reproduce against the failing geometry only (a full-matrix check
    // per shrink candidate would be quadratically slow)
    let geoms: Vec<Vec<i64>> = if f.geometry.is_empty() {
        vec![cfg.geometries.first().cloned().unwrap_or_else(|| vec![2])]
    } else {
        vec![f.geometry.clone()]
    };
    let minimized = if cfg.shrink_budget > 0 {
        shrink::minimize(
            spec,
            |cand| {
                check_program(cand, &geoms, cfg.max_ulps)
                    .failures
                    .iter()
                    .any(|g| g.oracle == f.oracle)
            },
            cfg.shrink_budget,
        )
    } else {
        spec.clone()
    };
    FailureRecord {
        program_seed: spec.seed,
        oracle: f.oracle.as_str().to_string(),
        config: f.config.clone(),
        geometry: geom_str(&f.geometry),
        message: f.message.clone(),
        minimized: minimized.render(),
    }
}

/// The mutation phase: walk fresh program seeds (an independent
/// substream) until `cfg.mutants` sabotages have been planted, always
/// at the largest requested geometry (most communication to break).
/// Plants alternate between the two sabotage kinds — dropped exchange
/// and wrong unpack offset — so a campaign with `mutants >= 2`
/// exercises both detection paths.
fn run_mutants(cfg: &CampaignConfig) -> MutationSummary {
    let mut summary = MutationSummary::default();
    let geom = cfg
        .geometries
        .iter()
        .max_by_key(|g| g.iter().product::<i64>())
        .cloned()
        .unwrap_or_else(|| vec![2, 2]);
    let gen_opts = effective_gen(cfg);
    let mut k = 0usize;
    // plant on campaign programs first, then keep drawing fresh seeds;
    // bounded so a pathological config can't loop forever
    while summary.planted < cfg.mutants as u64 && k < cfg.count + 8 * cfg.mutants + 32 {
        let pseed = program_seed(cfg.seed, k);
        k += 1;
        let spec = campaign_spec(pseed, &gen_opts);
        summary.attempted += 1;
        let check = if summary.planted % 2 == 0 {
            mutate::mutation_check(&spec, &geom, cfg.max_ulps)
        } else {
            mutate::unpack_offset_check(&spec, &geom, cfg.max_ulps)
        };
        let Some(outcome) = check else {
            continue;
        };
        // A drop that only the static coverage verifier can see (the
        // stale ghost happens to hold the value the exchange would
        // have delivered) is not a fair dynamic test — skip it and
        // sabotage the next program instead. The check keeps its
        // teeth: with any oracle dead, no mutation ever reaches
        // `caught_twice`, `planted` stays 0, and the campaign is
        // not clean.
        if !outcome.caught_twice() {
            continue;
        }
        summary.planted += 1;
        summary.caught_twice += 1;
        for o in &outcome.caught_by {
            *summary.hits.entry(o.as_str().to_string()).or_insert(0) += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_seeds_are_prefix_stable() {
        // extending a campaign must not reshuffle earlier programs
        let a: Vec<u64> = (0..10).map(|k| program_seed(42, k)).collect();
        let b: Vec<u64> = (0..20).map(|k| program_seed(42, k)).collect();
        assert_eq!(a[..], b[..10]);
        assert_ne!(program_seed(42, 0), program_seed(43, 0));
    }
}
