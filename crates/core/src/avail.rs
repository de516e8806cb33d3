//! The set machinery of the §7 data availability analysis: what a
//! processor accesses through a reference, as an integer set.
//!
//! dHPF's communication model sends every non-owner-computed value back
//! to its owner, and ordinarily a later non-local *read* of such a value
//! would fetch it from the owner again. §7 proves, per processor, that
//! the non-local data a read accesses is a **subset** of the data the
//! (lexically last) preceding write produced on the *same* processor —
//! in which case the value is already locally available and the read's
//! communication is eliminated. This is the optimization that rescues
//! the pipelined line sweeps of SP: the spurious read communication flows
//! *against* the pipeline direction and would otherwise stall every
//! wavefront (§7, §8.1).
//!
//! The test itself is the planner's residual (`comm.rs`: touched − owned
//! − produced = ∅ on every rank); this module holds the functions it and
//! the independent verifier (`dhpf-analysis`) both build their sets from.
//!
//! **One row builder.** [`accessed_row`] gives a reference's image on
//! every rank. Where the nest's bounds are constants, each CP term cuts
//! a block dimension through a constant or `±v + c`, and each subscript
//! is a constant or `±v + c` of a distinct loop variable, a rank's image
//! is computed on bounds: per term, the nest's box met with the owned
//! range moved back through the term's subscript, then mapped through
//! the subscripts, then built by [`Set::from_boxes`] — the very set
//! (`==`) [`accessed_set`]'s constraints give through the box kernel.
//! Every other reference takes [`accessed_set`], rank by rank. The
//! inputs alone decide the path; [`row_stats`] counts both.

use crate::cp::{Cp, Cut, SubTerm};
use crate::distrib::{ArrayDist, DistEnv, ProcGrid};
use dhpf_depend::loops::UnitLoops;
use dhpf_depend::refs::RefInfo;
use dhpf_fortran::ast::StmtId;
use dhpf_iset::{LinExpr, Map, Set};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The `(var, lo, hi)` bound list of the loops enclosing `stmt`,
/// outermost first. `None` if some bound is non-affine.
pub fn nest_bounds(stmt: StmtId, loops: &UnitLoops) -> Option<Vec<(String, LinExpr, LinExpr)>> {
    let nest = loops.nest_of.get(&stmt)?;
    nest.iter()
        .map(|lid| {
            let info = &loops.loops[lid];
            let (lo, hi) = (info.lo.clone()?, info.hi.clone()?);
            let (lo, hi) = if info.step >= 0 { (lo, hi) } else { (hi, lo) };
            Some((info.var.clone(), lo, hi))
        })
        .collect()
}

/// Data accessed by `r` on processor `coords` executing under `cp`:
/// the image of the subscript map over the processor's iteration set.
/// `None` if a subscript is non-affine. This is the constraint path of
/// [`accessed_row`].
pub fn accessed_set(
    r: &RefInfo,
    cp: &Cp,
    nest: &[(String, LinExpr, LinExpr)],
    env: &DistEnv,
    coords: &[i64],
) -> Option<Set> {
    Some(subscript_map(r, nest)?.apply(&cp.iteration_set(nest, env, coords)))
}

/// The map from the nest's iteration space to `r`'s element space
/// `e0 .. e{n-1}`; `None` if a subscript is non-affine.
fn subscript_map(r: &RefInfo, nest: &[(String, LinExpr, LinExpr)]) -> Option<Map> {
    let in_space: Vec<&str> = nest.iter().map(|(v, _, _)| v.as_str()).collect();
    let outputs: Vec<LinExpr> = r.subs.iter().cloned().collect::<Option<_>>()?;
    Some(Map::new(&in_space, &elem_space(outputs.len()), outputs))
}

/// The element space `e0 .. e{n-1}` of an `n`-dimensional array, which
/// [`accessed_row`]'s images live in.
pub fn elem_space(ndims: usize) -> Vec<String> {
    (0..ndims).map(|d| format!("e{d}")).collect()
}

/// What each rank of `grid` accesses through `r` under `cp`, in rank
/// order: entry `k` is [`accessed_set`] on rank `k`, `==`. `None` if a
/// subscript is non-affine.
pub fn accessed_row(
    r: &RefInfo,
    cp: &Cp,
    nest: &[(String, LinExpr, LinExpr)],
    env: &DistEnv,
    grid: &ProcGrid,
) -> Option<Vec<Set>> {
    ROWS.fetch_add(1, Relaxed);
    let map = subscript_map(r, nest)?;
    let ranks = grid.ranks().map(|k| grid.coords(k));
    if let Some(row) = BoundsRow::new(&map, cp, nest, env) {
        BOUNDS_ROWS.fetch_add(1, Relaxed);
        return Some(ranks.map(|c| row.image(&c)).collect());
    }
    CONSTRAINT_ROWS.fetch_add(1, Relaxed);
    Some(
        ranks
            .map(|c| map.apply(&cp.iteration_set(nest, env, &c)))
            .collect(),
    )
}

/// Constants beyond `±2^40` take the constraint path, so no sum or
/// negation on bounds comes near the box kernel's own limit.
const SMALL: i64 = 1 << 40;

fn small(c: i64) -> bool {
    (-SMALL..=SMALL).contains(&c)
}

/// Inclusive bounds of one dimension.
type Range = (i64, i64);

/// A constant, or `±v + c` of the loop at index `v` of the nest: the
/// form of an output the box kernel maps, and of a cut it reads.
#[derive(Clone, Copy, Debug)]
struct Unit {
    var: Option<(usize, i64)>,
    c: i64,
}

impl Unit {
    fn of(e: &LinExpr, vars: &[&str]) -> Option<Unit> {
        let c = e.constant();
        if !small(c) {
            return None;
        }
        let mut terms = e.terms();
        let var = match (terms.next(), terms.next()) {
            (None, _) => None,
            (Some((v, a @ (1 | -1))), None) => Some((vars.iter().position(|x| *x == v)?, a)),
            _ => return None,
        };
        Some(Unit { var, c })
    }

    /// The values this takes over the box `b`.
    fn image(self, b: &[Range]) -> Range {
        match self.var {
            None => (self.c, self.c),
            Some((x, 1)) => (b[x].0 + self.c, b[x].1 + self.c),
            Some((x, _)) => (self.c - b[x].1, self.c - b[x].0),
        }
    }
}

/// A [`Cut`] whose subscript is a [`Unit`]: the iterations whose
/// subscript lands in the rank's owned range of dimension `dim`.
struct UnitCut<'a> {
    dist: &'a ArrayDist,
    dim: usize,
    sub: Unit,
}

/// Who runs which iterations, as [`Cp::iteration_set`] decides it.
enum Runs<'a> {
    /// Every rank runs the whole nest: a replicated CP, or a term
    /// [`crate::cp::CpTerm::cuts`] places on everyone.
    All,
    /// Per CP term, in order, its cuts.
    Terms(Vec<Vec<UnitCut<'a>>>),
}

/// The rank-independent part of a reference's row on bounds.
struct BoundsRow<'a> {
    /// The nest's box, one range per loop.
    nest: Vec<Range>,
    runs: Runs<'a>,
    /// Per subscript, its rule.
    outputs: Vec<Unit>,
    out_space: &'a [String],
}

impl<'a> BoundsRow<'a> {
    /// The bounds path for `map` under `cp`, or `None` where the inputs
    /// call for the constraint path.
    fn new(
        map: &'a Map,
        cp: &'a Cp,
        nest: &[(String, LinExpr, LinExpr)],
        env: &'a DistEnv,
    ) -> Option<Self> {
        let vars: Vec<&str> = nest.iter().map(|(v, _, _)| v.as_str()).collect();
        if (1..vars.len()).any(|i| vars[..i].contains(&vars[i])) {
            return None;
        }
        let constant = |e: &LinExpr| (e.is_constant() && small(e.constant())).then(|| e.constant());
        let nest: Vec<Range> = (nest.iter())
            .map(|(_, lo, hi)| Some((constant(lo)?, constant(hi)?)))
            .collect::<Option<_>>()?;
        let outputs: Vec<Unit> = (map.outputs().iter())
            .map(|e| Unit::of(e, &vars))
            .collect::<Option<_>>()?;
        let mut used = vec![false; vars.len()];
        for x in outputs.iter().filter_map(|u| u.var.map(|(x, _)| x)) {
            if std::mem::replace(&mut used[x], true) {
                return None;
            }
        }
        Some(BoundsRow {
            nest,
            runs: runs(cp, env, &vars)?,
            outputs,
            out_space: map.out_space(),
        })
    }

    /// What rank `coords` accesses.
    fn image(&self, coords: &[i64]) -> Set {
        let images = (self.iterations(coords).iter())
            .map(|b| self.outputs.iter().map(|u| u.image(b)).collect())
            .collect();
        Set::from_boxes(self.out_space, images)
    }

    /// The non-empty boxes of rank `coords`'s iteration set, one per CP
    /// term at most, in term order.
    fn iterations(&self, coords: &[i64]) -> Vec<Vec<Range>> {
        let Runs::Terms(terms) = &self.runs else {
            let whole = (!empty(&self.nest)).then(|| self.nest.clone());
            return whole.into_iter().collect();
        };
        let mut boxes = Vec::with_capacity(terms.len());
        for cuts in terms {
            let (mut b, mut inside) = (self.nest.clone(), true);
            for cut in cuts {
                // a rank owning nothing of a cut runs none of the term
                let Some((lo, hi)) = cut.dist.owned_range(cut.dim, coords) else {
                    inside = false;
                    break;
                };
                let c = cut.sub.c;
                let (x, (lo, hi)) = match cut.sub.var {
                    None => {
                        inside &= (lo..=hi).contains(&c);
                        continue;
                    }
                    Some((x, 1)) => (x, (lo - c, hi - c)),
                    Some((x, _)) => (x, (c - hi, c - lo)),
                };
                b[x] = (b[x].0.max(lo), b[x].1.min(hi));
            }
            if inside && !empty(&b) {
                boxes.push(b);
            }
        }
        boxes
    }
}

fn empty(b: &[Range]) -> bool {
    b.iter().any(|&(lo, hi)| lo > hi)
}

/// Who runs which iterations under `cp`, or `None` if a term cuts a
/// block dimension through anything but a constant or `±v + c` of a
/// loop of `vars`, or on an array of bounds beyond `±2^40`.
fn runs<'a>(cp: &'a Cp, env: &'a DistEnv, vars: &[&str]) -> Option<Runs<'a>> {
    let mut terms = Vec::with_capacity(cp.terms.len());
    for t in &cp.terms {
        let Some(cuts) = t.cuts(env) else {
            return Some(Runs::All);
        };
        let unit = |cut: Cut<'a>| {
            let (lb, ub) = cut.dist.bounds[cut.dim];
            match cut.sub {
                SubTerm::Affine(e) if small(lb) && small(ub) => Some(UnitCut {
                    dist: cut.dist,
                    dim: cut.dim,
                    sub: Unit::of(e, vars)?,
                }),
                _ => None,
            }
        };
        terms.push(cuts.into_iter().map(unit).collect::<Option<_>>()?);
    }
    Some(if terms.is_empty() {
        Runs::All
    } else {
        Runs::Terms(terms)
    })
}

/// Process-wide counts of the row builder's traffic since start-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowStats {
    /// Rows asked of [`accessed_row`].
    pub rows: u64,
    /// Rows built on bounds.
    pub bounds_rows: u64,
    /// Rows built through [`accessed_set`]'s constraints, rank by rank.
    pub constraint_rows: u64,
    /// Non-local sets the planner looked up the owners of.
    pub owner_sets: u64,
    /// Owner blocks it intersected them with: those meeting a set's box
    /// hull, where the search once took every other rank's.
    pub owner_probes: u64,
}

impl RowStats {
    /// The counts since the snapshot `earlier`.
    pub fn since(&self, earlier: &RowStats) -> RowStats {
        RowStats {
            rows: self.rows.saturating_sub(earlier.rows),
            bounds_rows: self.bounds_rows.saturating_sub(earlier.bounds_rows),
            constraint_rows: self.constraint_rows.saturating_sub(earlier.constraint_rows),
            owner_sets: self.owner_sets.saturating_sub(earlier.owner_sets),
            owner_probes: self.owner_probes.saturating_sub(earlier.owner_probes),
        }
    }
}

static ROWS: AtomicU64 = AtomicU64::new(0);
static BOUNDS_ROWS: AtomicU64 = AtomicU64::new(0);
static CONSTRAINT_ROWS: AtomicU64 = AtomicU64::new(0);
static OWNER_SETS: AtomicU64 = AtomicU64::new(0);
static OWNER_PROBES: AtomicU64 = AtomicU64::new(0);

/// Count one owner search that probes `n` owners.
pub(crate) fn owner_search(n: u64) {
    OWNER_SETS.fetch_add(1, Relaxed);
    OWNER_PROBES.fetch_add(n, Relaxed);
}

/// Snapshot the process-wide row-builder counters.
pub fn row_stats() -> RowStats {
    RowStats {
        rows: ROWS.load(Relaxed),
        bounds_rows: BOUNDS_ROWS.load(Relaxed),
        constraint_rows: CONSTRAINT_ROWS.load(Relaxed),
        owner_sets: OWNER_SETS.load(Relaxed),
        owner_probes: OWNER_PROBES.load(Relaxed),
    }
}

/// The row builder against the constraint path on random nests, CPs and
/// distributions: every rank's image `==`, and the path the inputs call
/// for taken.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cp::CpTerm;
    use crate::distrib::DimMap;
    use dhpf_fortran::ast::RefId;
    use proptest::prelude::*;

    /// A small deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// An integer of `lo ..= hi`.
        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as u64) as i64
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }
    }

    /// One generated reference, with all it is imaged under.
    struct Case {
        r: RefInfo,
        cp: Cp,
        nest: Vec<(String, LinExpr, LinExpr)>,
        env: DistEnv,
        grid: ProcGrid,
        /// A form only the constraint path takes occurs somewhere.
        wild: bool,
        /// Such a form occurs where it always counts: a symbol in the
        /// nest's bounds, a non-unit subscript, or a range or non-unit
        /// subscript on a block dimension of the CP's first term.
        falls_back: bool,
    }

    /// `±v + c` of a loop of `vars` (a constant in a nest of none).
    fn unit(g: &mut Rng, vars: &[&str]) -> LinExpr {
        let c = LinExpr::cst(g.int(-3, 3));
        if vars.is_empty() {
            return c;
        }
        let v = LinExpr::var(vars[g.below(vars.len() as u64) as usize]);
        if g.one_in(3) {
            c - v
        } else {
            v + c
        }
    }

    /// A distribution of `array` (of one or two dimensions) over `grid`:
    /// its first dimension on the first grid dimension when `first`, the
    /// others at random; blocks
    /// that may leave the last ranks empty or absorb a remainder.
    fn dist(g: &mut Rng, array: &str, grid: &ProcGrid, first: bool) -> ArrayDist {
        let ndims = g.int(1, 2) as usize;
        let mut free: Vec<usize> = (0..grid.extents.len()).collect();
        let (mut bounds, mut dims) = (Vec::new(), Vec::new());
        for d in 0..ndims {
            let lb = g.int(-2, 2);
            let ub = lb + g.int(0, 11);
            bounds.push((lb, ub));
            if free.is_empty() || !((d == 0 && first) || g.below(3) < 2) {
                dims.push(DimMap::Serial);
                continue;
            }
            let pdim = free.remove(0);
            let nproc = grid.extents[pdim];
            let block = ((ub - lb + 1 + nproc - 1) / nproc + g.int(-1, 1)).max(1);
            let align_offset = g.int(-2, 2);
            dims.push(DimMap::Block {
                pdim,
                block,
                align_offset,
                nproc,
            });
        }
        let array = array.to_string();
        ArrayDist {
            array,
            bounds,
            dims,
        }
    }

    fn case(seed: u64) -> Case {
        let g = &mut Rng(seed);
        let mut wild = false;
        let mut falls_back = false;
        let grid = ProcGrid {
            name: "p".into(),
            extents: (0..g.int(1, 2))
                .map(|_| [1, 2, 2, 3, 4][g.below(5) as usize])
                .collect(),
        };
        // `a` is distributed; `b` may not be; `c` has no distribution
        let mut env = DistEnv {
            grid: Some(grid.clone()),
            ..DistEnv::default()
        };
        let a = dist(g, "a", &grid, true);
        let first = g.one_in(2);
        let b = dist(g, "b", &grid, first);
        env.arrays.insert("a".into(), a);
        env.arrays.insert("b".into(), b);
        let rank_of = |env: &DistEnv, x: &str| env.arrays.get(x).map_or(1, |d| d.rank());

        // the nest: lo > hi stands for an empty range, or a negative step
        // whose bounds `nest_bounds` swapped
        let names = ["i", "j", "k"];
        let depth = g.int(0, 3) as usize;
        let mut nest = Vec::new();
        for v in &names[..depth] {
            let lo = g.int(-3, 6);
            let mut hi = LinExpr::cst(lo + g.int(-2, 8));
            if g.one_in(12) {
                hi = hi + LinExpr::var("n");
                (wild, falls_back) = (true, true);
            }
            nest.push((v.to_string(), LinExpr::cst(lo), hi));
        }
        let vars: Vec<&str> = names[..depth].to_vec();

        // the CP: replicated, or terms on `a`, `b` or `c`
        let mut cp = Cp::replicated();
        if !g.one_in(6) {
            for t in 0..g.int(1, 4) {
                let array = match g.below(10) {
                    0 => "c",
                    1 | 2 => "b",
                    _ => "a",
                };
                let dist = env.arrays.get(array);
                let mut subs = Vec::new();
                for d in 0..rank_of(&env, array) {
                    let block = dist.is_some_and(|x| matches!(x.dims[d], DimMap::Block { .. }));
                    let counts = t == 0 && array == "a" && block;
                    let sub = match g.below(16) {
                        0 => SubTerm::Affine(LinExpr::cst(g.int(-2, 12))),
                        1 => {
                            wild = true;
                            falls_back |= counts;
                            let (lo, hi) = (unit(g, &vars), unit(g, &vars));
                            SubTerm::Range(lo, hi + 1)
                        }
                        2 if !vars.is_empty() => {
                            wild = true;
                            falls_back |= counts;
                            SubTerm::Affine(unit(g, &vars) * 2)
                        }
                        3 => {
                            wild = true;
                            SubTerm::Affine(LinExpr::var("m") + g.int(-2, 2))
                        }
                        _ => SubTerm::Affine(unit(g, &vars)),
                    };
                    subs.push(sub);
                }
                cp.add_term(CpTerm {
                    array: array.to_string(),
                    subs,
                });
            }
        }

        // the reference: constants and `±v + c` of distinct loops, or not
        let array = ["a", "b"][g.below(2) as usize];
        let mut unused = vars.clone();
        let mut subs = Vec::new();
        for _ in 0..rank_of(&env, array) {
            let e = match g.below(12) {
                0 => LinExpr::cst(g.int(-2, 12)),
                1 if !vars.is_empty() => {
                    (wild, falls_back) = (true, true);
                    unit(g, &vars) * 2 + 1
                }
                2 if !vars.is_empty() => {
                    wild = true;
                    unit(g, &vars)
                }
                3 => {
                    wild = true;
                    LinExpr::var("m")
                }
                _ if unused.is_empty() => LinExpr::cst(g.int(-2, 12)),
                _ => {
                    let v = unused.remove(g.below(unused.len() as u64) as usize);
                    unit(g, &[v])
                }
            };
            subs.push(Some(e));
        }
        let r = RefInfo {
            id: RefId(0),
            stmt: StmtId(0),
            array: array.to_string(),
            subs,
            is_write: false,
            is_scalar: false,
        };
        Case {
            r,
            cp,
            nest,
            env,
            grid,
            wild,
            falls_back,
        }
    }

    /// Whether the rank at `coords` owns nothing of a block dimension of
    /// every term of `c`'s CP, each term on a distributed array: such a
    /// rank runs none of the nest.
    fn owns_nothing(c: &Case, coords: &[i64]) -> bool {
        let empty_block = |t: &CpTerm| {
            let cuts = t.cuts(&c.env).unwrap_or_default();
            cuts.iter()
                .any(|cut| cut.dist.owned_range(cut.dim, coords).is_none())
        };
        !c.cp.is_replicated() && c.cp.terms.iter().all(empty_block)
    }

    /// Rank `coords`'s iteration boxes on bounds under `cp`, or `None`
    /// where the inputs call for the constraint path.
    pub(crate) fn bounds_iterations(
        cp: &Cp,
        nest: &[(String, LinExpr, LinExpr)],
        env: &DistEnv,
        coords: &[i64],
    ) -> Option<Vec<Vec<Range>>> {
        let vars: Vec<&str> = nest.iter().map(|(v, _, _)| v.as_str()).collect();
        let map = Map::new(
            &vars,
            &elem_space(vars.len()),
            vars.iter().map(|v| LinExpr::var(v)).collect(),
        );
        Some(BoundsRow::new(&map, cp, nest, env)?.iterations(coords))
    }

    /// The path `c` takes: `true` for bounds.
    fn on_bounds(c: &Case) -> bool {
        let map = subscript_map(&c.r, &c.nest).expect("affine subscripts");
        BoundsRow::new(&map, &c.cp, &c.nest, &c.env).is_some()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn rows_match_the_constraint_path(seed in 0u64..u64::MAX) {
            let c = case(seed);
            let row = accessed_row(&c.r, &c.cp, &c.nest, &c.env, &c.grid).expect("affine");
            for (k, image) in row.iter().enumerate() {
                let coords = c.grid.coords(k as i64);
                let want = accessed_set(&c.r, &c.cp, &c.nest, &c.env, &coords).expect("affine");
                prop_assert!(
                    *image == want,
                    "rank {k} of {:?}, cp {}:\n{image:?}\n!=\n{want:?}",
                    c.grid.extents,
                    c.cp
                );
                prop_assert!(
                    !owns_nothing(&c, &coords) || image.is_empty(),
                    "rank {k} owns nothing of cp {} and accesses {image:?}",
                    c.cp
                );
            }
            let bounds = on_bounds(&c);
            prop_assert!(bounds || c.wild, "a plain case fell back: cp {}", c.cp);
            prop_assert!(!bounds || !c.falls_back, "took bounds: cp {}", c.cp);
        }
    }

    /// The generator reaches both paths, and images of several boxes.
    #[test]
    fn cases_cover_both_paths() {
        let (mut bounds, mut several) = (0u64, 0u64);
        let n = 1000u64;
        for seed in 0..n {
            let c = case(seed);
            if on_bounds(&c) {
                bounds += 1;
                let row = accessed_row(&c.r, &c.cp, &c.nest, &c.env, &c.grid).unwrap();
                several += row.iter().any(|s| s.polys().len() > 1) as u64;
            }
        }
        assert!(
            (n / 3..n * 9 / 10).contains(&bounds),
            "{bounds} of {n} on bounds"
        );
        assert!(several >= n / 100, "{several} rows with several boxes");
    }
}
