//! The dHPF computation-partitioning (CP) model.
//!
//! A CP is `ON_HOME A₁(f₁(ī)) ∪ … ∪ Aₙ(fₙ(ī))`: the statement instance at
//! iteration vector `ī` executes on every processor that owns *any* of
//! the named elements. This generalizes owner-computes (the special case
//! n = 1 with the LHS reference) and is what makes partial replication
//! (§4), non-owner-computes pipelining (§7) and interprocedural CPs (§6)
//! expressible.
//!
//! Subscripts may be affine expressions or inclusive *ranges* — ranges
//! arise from vectorizing a use's loop dimensions when a CP is translated
//! from a use to a definition (§4.1): `ON_HOME lhs(1:n, j+1, k)`.

use crate::distrib::{ArrayDist, DimMap, DistEnv};
use dhpf_iset::{Constraint, LinExpr, Set};
use std::fmt;

/// One subscript of an `ON_HOME` term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubTerm {
    /// A single affine element index.
    Affine(LinExpr),
    /// An inclusive range (from vectorization).
    Range(LinExpr, LinExpr),
}

impl SubTerm {
    pub fn substitute(&self, var: &str, repl: &LinExpr) -> SubTerm {
        match self {
            SubTerm::Affine(e) => SubTerm::Affine(e.substitute(var, repl)),
            SubTerm::Range(a, b) => {
                SubTerm::Range(a.substitute(var, repl), b.substitute(var, repl))
            }
        }
    }

    pub fn mentions(&self, var: &str) -> bool {
        match self {
            SubTerm::Affine(e) => e.mentions(var),
            SubTerm::Range(a, b) => a.mentions(var) || b.mentions(var),
        }
    }
}

impl fmt::Display for SubTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubTerm::Affine(e) => write!(f, "{e}"),
            SubTerm::Range(a, b) => write!(f, "{a}:{b}"),
        }
    }
}

/// One `ON_HOME array(subs)` term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpTerm {
    pub array: String,
    pub subs: Vec<SubTerm>,
}

impl CpTerm {
    pub fn on_home(array: &str, subs: Vec<LinExpr>) -> Self {
        CpTerm {
            array: array.to_string(),
            subs: subs.into_iter().map(SubTerm::Affine).collect(),
        }
    }

    /// Constraints on the loop variables for "processor `coords`
    /// participates in this term" — `None` if the array is not
    /// distributed or the term has no subscript for one of its block
    /// dimensions (term imposes no constraint → everyone). A processor
    /// that owns nothing of a block dimension gets one constraint no
    /// iteration meets: it runs none of the term, as [`Cp::executes`]
    /// has it.
    pub fn proc_constraints(&self, env: &DistEnv, coords: &[i64]) -> Option<Vec<Constraint>> {
        let dist = env.dist_of(&self.array)?;
        if !dist.is_distributed() {
            return None;
        }
        let block = |d: &usize| matches!(dist.dims[*d], DimMap::Block { .. });
        if (0..dist.dims.len())
            .filter(block)
            .any(|d| d >= self.subs.len())
        {
            return None;
        }
        let mut cons = Vec::new();
        for d in (0..dist.dims.len()).filter(block) {
            let Some((lo, hi)) = dist.owned_range(d, coords) else {
                return Some(vec![Constraint::ge0(LinExpr::cst(-1))]);
            };
            match &self.subs[d] {
                SubTerm::Affine(e) => {
                    cons.push(Constraint::ge(e.clone(), LinExpr::cst(lo)));
                    cons.push(Constraint::le(e.clone(), LinExpr::cst(hi)));
                }
                SubTerm::Range(a, b) => {
                    // overlap: b >= lo and a <= hi
                    cons.push(Constraint::ge(b.clone(), LinExpr::cst(lo)));
                    cons.push(Constraint::le(a.clone(), LinExpr::cst(hi)));
                }
            }
        }
        Some(cons)
    }

    /// The canonical partition signature of this term under `env` (§5:
    /// "different array references with the same data partition will be
    /// considered identical"): for every distributed dimension, the tuple
    /// `(grid dim, block size, aligned subscript)`. `None` if the term's
    /// array is not distributed.
    pub fn partition_key(&self, env: &DistEnv) -> Option<String> {
        let dist = env.dist_of(&self.array)?;
        if !dist.is_distributed() {
            return None;
        }
        let mut parts = Vec::new();
        for (d, m) in dist.dims.iter().enumerate() {
            if let DimMap::Block {
                pdim,
                block,
                align_offset,
                ..
            } = m
            {
                let sub = match self.subs.get(d)? {
                    SubTerm::Affine(e) => (e.clone() + *align_offset).to_string(),
                    SubTerm::Range(a, b) => {
                        format!(
                            "{}:{}",
                            a.clone() + *align_offset,
                            b.clone() + *align_offset
                        )
                    }
                };
                parts.push(format!("p{pdim}b{block}@{sub}"));
            }
        }
        Some(parts.join(";"))
    }
}

impl fmt::Display for CpTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subs: Vec<String> = self.subs.iter().map(|s| s.to_string()).collect();
        write!(f, "ON_HOME {}({})", self.array, subs.join(","))
    }
}

/// A computation partitioning: a union of terms. The empty union means
/// **replicated** execution (every processor runs the statement) — used
/// for statements touching only scalars/serial data.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Cp {
    pub terms: Vec<CpTerm>,
}

impl Cp {
    /// Replicated execution.
    pub fn replicated() -> Self {
        Cp::default()
    }

    pub fn single(term: CpTerm) -> Self {
        Cp { terms: vec![term] }
    }

    pub fn is_replicated(&self) -> bool {
        self.terms.is_empty()
    }

    /// Union two CPs (deduplicating syntactically-equal terms).
    pub fn union(&self, other: &Cp) -> Cp {
        if self.is_replicated() || other.is_replicated() {
            // replicated ∪ anything = replicated (everyone already runs it)
            return Cp::replicated();
        }
        let mut terms = self.terms.clone();
        for t in &other.terms {
            if !terms.contains(t) {
                terms.push(t.clone());
            }
        }
        Cp { terms }
    }

    /// Add a term (no-op if the CP is replicated: already maximal).
    pub fn add_term(&mut self, term: CpTerm) {
        if !self.terms.contains(&term) {
            self.terms.push(term);
        }
    }

    /// Iteration set of a statement for one processor: the subset of the
    /// loop nest's iteration space this processor executes.
    ///
    /// `nest` lists `(var, lo, hi)` (affine, inclusive) outermost-first.
    pub fn iteration_set(
        &self,
        nest: &[(String, LinExpr, LinExpr)],
        env: &DistEnv,
        coords: &[i64],
    ) -> Set {
        let space: Vec<String> = nest.iter().map(|(v, _, _)| v.clone()).collect();
        let bounds: Vec<Constraint> = nest
            .iter()
            .flat_map(|(v, lo, hi)| {
                [
                    Constraint::ge(LinExpr::var(v), lo.clone()),
                    Constraint::le(LinExpr::var(v), hi.clone()),
                ]
            })
            .collect();
        if self.is_replicated() {
            return Set::from_constraints(&space, bounds);
        }
        let mut out = Set::empty(&space);
        for term in &self.terms {
            let mut cons = bounds.clone();
            match term.proc_constraints(env, coords) {
                None => {
                    // non-distributed term: everyone participates
                    return Set::from_constraints(&space, bounds);
                }
                Some(extra) => cons.extend(extra),
            }
            out = out.union(&Set::from_constraints(&space, cons));
        }
        out
    }

    /// Concrete participation test: does `coords` execute the instance
    /// whose loop variables are given by `ivals`?
    pub fn executes(
        &self,
        env: &DistEnv,
        coords: &[i64],
        ivals: &dyn Fn(&str) -> Option<i64>,
    ) -> bool {
        if self.is_replicated() {
            return true;
        }
        self.terms.iter().any(|t| {
            let Some(dist) = env.dist_of(&t.array) else {
                return true;
            };
            if !dist.is_distributed() {
                return true;
            }
            term_owned(t, dist, coords, ivals)
        })
    }

    /// Canonical partition key (for §5 grouping): sorted keys of the
    /// terms. Replicated ⇒ `"*"`.
    pub fn partition_key(&self, env: &DistEnv) -> String {
        if self.is_replicated() {
            return "*".to_string();
        }
        let mut keys: Vec<String> = self
            .terms
            .iter()
            .map(|t| t.partition_key(env).unwrap_or_else(|| "*".into()))
            .collect();
        keys.sort();
        keys.dedup();
        keys.join("|")
    }
}

fn term_owned(
    t: &CpTerm,
    dist: &ArrayDist,
    coords: &[i64],
    ivals: &dyn Fn(&str) -> Option<i64>,
) -> bool {
    for (d, m) in dist.dims.iter().enumerate() {
        if let DimMap::Block { .. } = m {
            let Some((lo, hi)) = dist.owned_range(d, coords) else {
                return false;
            };
            let Some(sub) = t.subs.get(d) else {
                return false;
            };
            let ok = match sub {
                SubTerm::Affine(e) => match e.eval(ivals) {
                    Some(v) => v >= lo && v <= hi,
                    None => return false,
                },
                SubTerm::Range(a, b) => match (a.eval(ivals), b.eval(ivals)) {
                    (Some(a), Some(b)) => b >= lo && a <= hi,
                    _ => return false,
                },
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

impl fmt::Display for Cp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_replicated() {
            return write!(f, "REPLICATED");
        }
        let ts: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}", ts.join(" union "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::resolve;
    use dhpf_fortran::parse;
    use std::collections::BTreeMap;

    fn env() -> DistEnv {
        let p = parse(
            "
      program t
      parameter (n = 16)
      double precision u(n, n), v(n, n)
!hpf$ processors p(2, 2)
!hpf$ distribute (block, block) onto p :: u, v
      u(1, 1) = 0.0
      end
",
        )
        .unwrap();
        resolve(&p.units[0], &BTreeMap::new()).unwrap()
    }

    fn nest(n: i64) -> Vec<(String, LinExpr, LinExpr)> {
        vec![
            ("i".to_string(), LinExpr::cst(1), LinExpr::cst(n)),
            ("j".to_string(), LinExpr::cst(1), LinExpr::cst(n)),
        ]
    }

    #[test]
    fn owner_computes_iteration_set() {
        let env = env();
        let cp = Cp::single(CpTerm::on_home(
            "u",
            vec![LinExpr::var("i"), LinExpr::var("j")],
        ));
        let s = cp.iteration_set(&nest(16), &env, &[0, 0]);
        assert!(s.contains(&[1, 1], &|_| None));
        assert!(s.contains(&[8, 8], &|_| None));
        assert!(!s.contains(&[9, 8], &|_| None));
        let s11 = cp.iteration_set(&nest(16), &env, &[1, 1]);
        assert!(s11.contains(&[9, 9], &|_| None));
        assert!(!s11.contains(&[8, 9], &|_| None));
    }

    #[test]
    fn shifted_cp_shifts_iterations() {
        let env = env();
        // ON_HOME u(i+1, j): proc (0,0) owns u rows 1..8 → executes i=0..7
        let cp = Cp::single(CpTerm::on_home(
            "u",
            vec![LinExpr::var("i") + 1, LinExpr::var("j")],
        ));
        let s = cp.iteration_set(&nest(16), &env, &[0, 0]);
        assert!(s.contains(&[7, 3], &|_| None));
        assert!(!s.contains(&[8, 3], &|_| None)); // u(9,3) owned by (1,0)
    }

    #[test]
    fn union_cp_partial_replication() {
        let env = env();
        // boundary element computed on both sides: ON_HOME u(i,j) ∪ u(i+1,j)
        let cp = Cp {
            terms: vec![
                CpTerm::on_home("u", vec![LinExpr::var("i"), LinExpr::var("j")]),
                CpTerm::on_home("u", vec![LinExpr::var("i") + 1, LinExpr::var("j")]),
            ],
        };
        // iteration i=8 writes u(8): owned by (0,*) but u(9) owned by (1,*)
        // → both execute i=8
        let ivals8 = |v: &str| match v {
            "i" => Some(8),
            "j" => Some(1),
            _ => None,
        };
        assert!(cp.executes(&env, &[0, 0], &ivals8));
        assert!(cp.executes(&env, &[1, 0], &ivals8));
        let ivals5 = |v: &str| match v {
            "i" => Some(5),
            "j" => Some(1),
            _ => None,
        };
        assert!(cp.executes(&env, &[0, 0], &ivals5));
        assert!(!cp.executes(&env, &[1, 0], &ivals5));
    }

    #[test]
    fn range_subscript_exists_semantics() {
        let env = env();
        // ON_HOME u(1:16, j): every proc row containing some of column j
        let cp = Cp::single(CpTerm {
            array: "u".into(),
            subs: vec![
                SubTerm::Range(LinExpr::cst(1), LinExpr::cst(16)),
                SubTerm::Affine(LinExpr::var("j")),
            ],
        });
        let ivals = |v: &str| if v == "j" { Some(3) } else { None };
        assert!(cp.executes(&env, &[0, 0], &ivals));
        assert!(
            cp.executes(&env, &[1, 0], &ivals),
            "range spans both row blocks"
        );
        assert!(!cp.executes(&env, &[0, 1], &ivals), "j=3 not owned by pk=1");
    }

    /// A processor that owns nothing of a term's array runs none of the
    /// term: its iteration set holds exactly the iterations it executes.
    #[test]
    fn iteration_set_is_what_executes() {
        // `w(1:9)` and `x(1:12)` in blocks of 3 over 4 processors:
        // processor 3 owns no element of `w`
        let block = |array: &str, n: i64| ArrayDist {
            array: array.into(),
            bounds: vec![(1, n)],
            dims: vec![DimMap::Block {
                pdim: 0,
                block: 3,
                align_offset: 0,
                nproc: 4,
            }],
        };
        let mut env = DistEnv {
            grid: Some(crate::distrib::ProcGrid {
                name: "p".into(),
                extents: vec![4],
            }),
            ..DistEnv::default()
        };
        env.arrays.insert("w".into(), block("w", 9));
        env.arrays.insert("x".into(), block("x", 12));
        let i = || LinExpr::var("i");
        let cps = [
            Cp::single(CpTerm::on_home("w", vec![i()])),
            Cp::single(CpTerm::on_home("w", vec![i() - 2])),
            Cp {
                terms: vec![
                    CpTerm::on_home("w", vec![i()]),
                    CpTerm::on_home("x", vec![i() + 1]),
                ],
            },
        ];
        let nest = [("i".to_string(), LinExpr::cst(0), LinExpr::cst(13))];
        let owned = env.dist_of("w").unwrap().owned_range(0, &[3]);
        assert_eq!(owned, None, "processor 3 owns nothing of w");
        for cp in &cps {
            for k in 0..4 {
                let set = cp.iteration_set(&nest, &env, &[k]);
                for v in 0..=13 {
                    let ivals = |n: &str| (n == "i").then_some(v);
                    assert_eq!(
                        set.contains(&[v], &|_| None),
                        cp.executes(&env, &[k], &ivals),
                        "{cp} on processor {k} at i = {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn replicated_runs_everywhere() {
        let env = env();
        let cp = Cp::replicated();
        assert!(cp.executes(&env, &[1, 1], &|_| None));
        let s = cp.iteration_set(&nest(4), &env, &[0, 1]);
        assert!(s.contains(&[4, 4], &|_| None));
    }

    #[test]
    fn partition_keys_identify_same_partition() {
        let env = env();
        let a = CpTerm::on_home("u", vec![LinExpr::var("i"), LinExpr::var("j") + 1]);
        let b = CpTerm::on_home("v", vec![LinExpr::var("i"), LinExpr::var("j") + 1]);
        let c = CpTerm::on_home("u", vec![LinExpr::var("i"), LinExpr::var("j")]);
        // u and v share the same distribution → identical keys
        assert_eq!(a.partition_key(&env), b.partition_key(&env));
        assert_ne!(a.partition_key(&env), c.partition_key(&env));
    }

    #[test]
    fn display_formats() {
        let t = CpTerm::on_home("lhs", vec![LinExpr::var("i"), LinExpr::var("j") + 1]);
        assert_eq!(t.to_string(), "ON_HOME lhs(i,j + 1)");
        assert_eq!(Cp::replicated().to_string(), "REPLICATED");
    }
}
