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

    /// The term resolved against the distribution, the one rule every
    /// consumer of a CP reads: `None` if the array is unknown or not
    /// distributed (every processor runs the term), else one [`Cut`] per
    /// block dimension, in order. A processor runs an instance of the
    /// term when it owns, on every cut, the element (`Affine`) or some
    /// of the range (`Range`) the cut's subscript names; one that owns
    /// nothing of a cut's dimension runs none of the term.
    ///
    /// # Panics
    ///
    /// If the term has not one subscript per dimension of its array.
    /// Source cannot produce such a term: the semantic check rejects a
    /// reference of the wrong rank, and the inliner an array actual of
    /// another rank than its formal.
    pub fn cuts<'a>(&'a self, env: &'a DistEnv) -> Option<Vec<Cut<'a>>> {
        let dist = env.dist_of(&self.array).filter(|d| d.is_distributed())?;
        assert!(
            self.subs.len() == dist.rank(),
            "CP term rank mismatch for {}",
            self.array
        );
        let block = |(_, m): &(usize, &DimMap)| matches!(m, DimMap::Block { .. });
        let dims = dist.dims.iter().enumerate().filter(block);
        Some(
            dims.map(|(dim, _)| Cut {
                dist,
                dim,
                sub: &self.subs[dim],
            })
            .collect(),
        )
    }

    /// The canonical partition signature of this term under `env` (§5:
    /// "different array references with the same data partition will be
    /// considered identical"): for every cut, `(grid dim, block size,
    /// aligned subscript)`. `None` if every processor runs the term.
    pub fn partition_key(&self, env: &DistEnv) -> Option<String> {
        let parts: Vec<String> = (self.cuts(env)?.iter())
            .map(|cut| {
                let (pdim, block, align) = cut.block();
                let sub = match cut.sub {
                    SubTerm::Affine(e) => (e.clone() + align).to_string(),
                    SubTerm::Range(a, b) => format!("{}:{}", a.clone() + align, b.clone() + align),
                };
                format!("p{pdim}b{block}@{sub}")
            })
            .collect();
        Some(parts.join(";"))
    }
}

/// One block dimension a CP term cuts: the processors owning subscript
/// `sub` of dimension `dim` of `dist` run the instance.
#[derive(Clone, Copy, Debug)]
pub struct Cut<'a> {
    pub dist: &'a ArrayDist,
    pub dim: usize,
    pub sub: &'a SubTerm,
}

impl Cut<'_> {
    /// The grid dimension, block size and alignment offset of the cut
    /// dimension.
    pub fn block(&self) -> (usize, i64, i64) {
        match self.dist.dims[self.dim] {
            DimMap::Block {
                pdim,
                block,
                align_offset,
                ..
            } => (pdim, block, align_offset),
            DimMap::Serial => unreachable!("a cut is on a block dimension"),
        }
    }

    /// Constraints on the loop variables for "processor `coords` owns
    /// what the subscript names"; `None` if it owns nothing of the
    /// dimension.
    fn constraints(&self, coords: &[i64]) -> Option<[Constraint; 2]> {
        let (lo, hi) = self.dist.owned_range(self.dim, coords)?;
        let (lo, hi) = (LinExpr::cst(lo), LinExpr::cst(hi));
        Some(match self.sub {
            SubTerm::Affine(e) => [Constraint::ge(e.clone(), lo), Constraint::le(e.clone(), hi)],
            // overlap: b >= lo and a <= hi
            SubTerm::Range(a, b) => [Constraint::ge(b.clone(), lo), Constraint::le(a.clone(), hi)],
        })
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
            let Some(cuts) = term.cuts(env) else {
                return Set::from_constraints(&space, bounds);
            };
            let mut cons = bounds.clone();
            match cuts
                .iter()
                .map(|cut| cut.constraints(coords))
                .collect::<Option<Vec<_>>>()
            {
                Some(extra) => cons.extend(extra.into_iter().flatten()),
                // a processor owning nothing of a cut runs none of the term
                None => cons.push(Constraint::ge0(LinExpr::cst(-1))),
            }
            out = out.union(&Set::from_constraints(&space, cons));
        }
        out
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
pub(crate) mod tests {
    use super::*;
    use crate::avail::tests::bounds_iterations;
    use crate::codegen::{GlobalRegistry, GuardAtom, UnitCx};
    use crate::distrib::{resolve, ProcGrid};
    use dhpf_fortran::parse;
    use std::collections::BTreeMap;

    /// Whether processor `coords` runs the instance of `cp` at `point`:
    /// the point is in its iteration set over the one-point nest.
    pub(crate) fn runs_at(cp: &Cp, env: &DistEnv, coords: &[i64], point: &[(&str, i64)]) -> bool {
        let nest: Vec<(String, LinExpr, LinExpr)> = (point.iter())
            .map(|&(v, x)| (v.to_string(), LinExpr::cst(x), LinExpr::cst(x)))
            .collect();
        let values: Vec<i64> = point.iter().map(|&(_, x)| x).collect();
        cp.iteration_set(&nest, env, coords)
            .contains(&values, &|_| None)
    }

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
        let at = |i: i64, coords: &[i64]| runs_at(&cp, &env, coords, &[("i", i), ("j", 1)]);
        assert!(at(8, &[0, 0]));
        assert!(at(8, &[1, 0]));
        assert!(at(5, &[0, 0]));
        assert!(!at(5, &[1, 0]));
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
        let at = |coords: &[i64]| runs_at(&cp, &env, coords, &[("j", 3)]);
        assert!(at(&[0, 0]));
        assert!(at(&[1, 0]), "range spans both row blocks");
        assert!(!at(&[0, 1]), "j=3 not owned by pk=1");
    }

    /// `w(1:9)` and `x(1:12)` in blocks of 3 over 4 processors, whose
    /// processor 3 owns no element of `w`; `s(1:12)` not distributed.
    fn blocks_of_3() -> DistEnv {
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
            grid: Some(ProcGrid {
                name: "p".into(),
                extents: vec![4],
            }),
            ..DistEnv::default()
        };
        env.arrays.insert("w".into(), block("w", 9));
        env.arrays.insert("x".into(), block("x", 12));
        let serial = ArrayDist {
            array: "s".into(),
            bounds: vec![(1, 12)],
            dims: vec![DimMap::Serial],
        };
        env.arrays.insert("s".into(), serial);
        env
    }

    /// A processor that owns nothing of a term's array runs none of the
    /// term: its iteration set holds exactly the iterations at which it
    /// owns the element of some term.
    #[test]
    fn iteration_set_is_what_executes() {
        let env = blocks_of_3();
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
                    let owns = |t: &CpTerm| {
                        let SubTerm::Affine(e) = &t.subs[0] else {
                            unreachable!()
                        };
                        let at = e.eval(&|_| Some(v)).unwrap();
                        let range = env.dist_of(&t.array).unwrap().owned_range(0, &[k]);
                        range.is_some_and(|(lo, hi)| (lo..=hi).contains(&at))
                    };
                    let want = cp.terms.iter().any(owns);
                    let got = set.contains(&[v], &|_| None);
                    assert_eq!(got, want, "{cp} on processor {k} at i = {v}");
                    assert_eq!(runs_at(cp, &env, &[k], &[("i", v)]), want);
                }
            }
        }
    }

    /// Every consumer of a term reads its cuts: an unknown or undistributed
    /// array places the term on everyone, an `Affine` or `Range` cut narrows
    /// it, and a processor owning nothing of a cut runs none of it.
    #[test]
    fn one_rule_for_every_consumer() {
        let env = blocks_of_3();
        let unit = parse(
            "
      program t
      integer i
      double precision w(9), x(12), s(12), q(12)
      end
",
        )
        .unwrap()
        .units
        .remove(0);
        let (cps, plans, bindings) = (Default::default(), BTreeMap::new(), BTreeMap::new());
        let (mut globals, mut provs) = (GlobalRegistry::default(), Vec::new());
        let mut cx = UnitCx::new(
            &unit,
            &env,
            &cps,
            &plans,
            &bindings,
            &mut globals,
            0,
            &mut provs,
        );
        let i = || LinExpr::var("i");
        let nest = [("i".to_string(), LinExpr::cst(0), LinExpr::cst(13))];
        let range = CpTerm {
            array: "x".into(),
            subs: vec![SubTerm::Range(i(), i() + 2)],
        };
        // the term on a processor: the iterations it runs, the term's
        // partition key, the bounds path's boxes and the term's guard
        let table = [
            (
                CpTerm::on_home("q", vec![i()]),
                1,
                "runs 0..=13; key *; bounds [0..=13]; guard none",
            ),
            (
                CpTerm::on_home("s", vec![i()]),
                1,
                "runs 0..=13; key *; bounds [0..=13]; guard none",
            ),
            (
                CpTerm::on_home("x", vec![i() + 1]),
                1,
                "runs 3..=5; key p0b3@i + 1; bounds [3..=5]; guard in 0",
            ),
            (
                range,
                1,
                "runs 2..=6; key p0b3@i:i + 2; bounds constraints; guard overlap 0",
            ),
            (
                CpTerm::on_home("w", vec![i()]),
                3,
                "runs none; key p0b3@i; bounds []; guard in 0",
            ),
        ];
        let span = |lo: i64, hi: i64| format!("{lo}..={hi}");
        for (term, k, want) in table {
            let cp = Cp::single(term);
            let set = cp.iteration_set(&nest, &env, &[k]);
            let points: Vec<i64> = (0..=13)
                .filter(|&v| set.contains(&[v], &|_| None))
                .collect();
            let runs = match (points.first(), points.last()) {
                (Some(&lo), Some(&hi)) if points.len() as i64 == hi - lo + 1 => span(lo, hi),
                (None, _) => "none".to_string(),
                _ => format!("{points:?}"),
            };
            let bounds = match bounds_iterations(&cp, &nest, &env, &[k]) {
                None => "constraints".to_string(),
                Some(boxes) => {
                    let boxes: Vec<String> = boxes.iter().map(|b| span(b[0].0, b[0].1)).collect();
                    format!("[{}]", boxes.join(", "))
                }
            };
            let guard = match cx.guard_of(&cp).unwrap() {
                None => "none".to_string(),
                Some(g) => {
                    let atoms = (g.terms.iter().flatten()).map(|atom| match atom {
                        GuardAtom::In { dim, .. } => format!("in {dim}"),
                        GuardAtom::Overlap { dim, .. } => format!("overlap {dim}"),
                    });
                    atoms.collect::<Vec<_>>().join(", ")
                }
            };
            let key = cp.partition_key(&env);
            let got = format!("runs {runs}; key {key}; bounds {bounds}; guard {guard}");
            assert_eq!(got, want, "{cp} on processor {k}");
        }
    }

    /// A term has a subscript for every dimension of its array.
    #[test]
    #[should_panic(expected = "CP term rank mismatch for u")]
    fn short_term_is_rejected() {
        let cp = Cp::single(CpTerm::on_home("u", vec![LinExpr::var("i")]));
        cp.iteration_set(&nest(4), &env(), &[0, 0]);
    }

    #[test]
    fn replicated_runs_everywhere() {
        let env = env();
        let cp = Cp::replicated();
        assert!(runs_at(&cp, &env, &[1, 1], &[("i", 4), ("j", 4)]));
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
