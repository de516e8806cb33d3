//! Concrete enumeration of sets: the explicit list of integer tuples a
//! set contains, and its bounding box (all parameters bound). Both walk a
//! private triangular loop-nest bound structure (`lowers`/`uppers` per
//! level) extracted from each polyhedron.

use crate::constraint::Kind;
use crate::expr::LinExpr;
use crate::poly::Polyhedron;
use crate::set::Set;

/// One bound term `expr / div` with ceiling (lower) or floor (upper)
/// semantics; the effective bound at a point is `ceil(expr/div)` or
/// `floor(expr/div)` after evaluating `expr`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BoundTerm {
    expr: LinExpr,
    div: i64,
}

impl BoundTerm {
    /// Evaluate as a lower bound (ceiling division).
    fn eval_lower(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let v = self.expr.eval(env)?;
        Some(div_ceil(v, self.div))
    }

    /// Evaluate as an upper bound (floor division).
    fn eval_upper(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let v = self.expr.eval(env)?;
        Some(div_floor(v, self.div))
    }
}

/// Euclidean-style ceiling division for positive divisors.
fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

/// Euclidean-style floor division for positive divisors.
fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Bounds for one loop level: the loop runs
/// `max(ceil(lowers)) ..= min(floor(uppers))`.
#[derive(Clone, Debug, Default)]
struct LevelBounds {
    lowers: Vec<BoundTerm>,
    uppers: Vec<BoundTerm>,
}

impl LevelBounds {
    /// Evaluate the concrete `(lo, hi)` range at a point (outer loop vars
    /// and parameters supplied by `env`). `None` if some symbol is unbound.
    fn range(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<(i64, i64)> {
        let mut lo = i64::MIN;
        for t in &self.lowers {
            lo = lo.max(t.eval_lower(env)?);
        }
        let mut hi = i64::MAX;
        for t in &self.uppers {
            hi = hi.min(t.eval_upper(env)?);
        }
        Some((lo, hi))
    }
}

/// A loop nest for one polyhedron: `levels[d]` bounds `order[d]` in terms
/// of `order[..d]` and parameters.
#[derive(Clone, Debug)]
struct BoundNest {
    levels: Vec<LevelBounds>,
}

/// Extract triangular loop bounds from one polyhedron for the variable
/// order given. Levels are produced outermost-first; level `d`'s bounds
/// mention only `order[..d]` and parameters.
///
/// Returns `None` if the polyhedron leaves some level unbounded on either
/// side (no lower or no upper constraint after projection) — callers treat
/// that as "cannot generate a loop nest".
fn bound_nest(poly: &Polyhedron, order: &[String]) -> Option<BoundNest> {
    let mut levels = Vec::with_capacity(order.len());
    // Project innermost-out: for level d, eliminate order[d+1..] from the
    // *original* polyhedron, always in forward order. The per-level suffix
    // eliminations must not be re-associated or chained in a different
    // order — FM output representation (and hence the emitted loop bounds)
    // depends on it. Repeated nests are cheap anyway: each eliminate step
    // is memoized by the interner.
    for d in 0..order.len() {
        let mut p = poly.clone();
        for v in &order[d + 1..] {
            p = p.eliminate(v);
        }
        if p.is_trivially_empty() {
            // empty nest: emit an always-empty range
            levels.push(LevelBounds {
                lowers: vec![BoundTerm {
                    expr: LinExpr::cst(1),
                    div: 1,
                }],
                uppers: vec![BoundTerm {
                    expr: LinExpr::cst(0),
                    div: 1,
                }],
            });
            continue;
        }
        let v = &order[d];
        let mut lb = LevelBounds::default();
        for c in p.constraints() {
            let a = c.expr.coeff(v);
            if a == 0 {
                continue;
            }
            // a·v + e  (e = expr - a·v)
            let mut e = c.expr.clone();
            e.add_term(v, -a);
            match (c.kind, a > 0) {
                (Kind::Ge, true) => {
                    // a·v + e >= 0  =>  v >= ceil(-e / a)
                    lb.lowers.push(BoundTerm { expr: -e, div: a });
                }
                (Kind::Ge, false) => {
                    // a·v + e >= 0 with a<0  =>  v <= floor(e / -a)
                    lb.uppers.push(BoundTerm { expr: e, div: -a });
                }
                (Kind::Eq, _) => {
                    let (abs, sgn) = (a.abs(), a.signum());
                    lb.lowers.push(BoundTerm {
                        expr: e.scaled(-sgn),
                        div: abs,
                    });
                    lb.uppers.push(BoundTerm {
                        expr: e.scaled(-sgn),
                        div: abs,
                    });
                }
            }
        }
        if lb.lowers.is_empty() || lb.uppers.is_empty() {
            return None;
        }
        levels.push(lb);
    }
    Some(BoundNest { levels })
}

/// Enumerate all integer points of a set whose parameters are bound by
/// `params`, in lexicographic order of the tuple space. Points appearing
/// in several disjuncts are emitted once.
pub fn enumerate(set: &Set, params: &dyn Fn(&str) -> Option<i64>) -> Vec<Vec<i64>> {
    let order: Vec<String> = set.space().to_vec();
    let mut out: Vec<Vec<i64>> = Vec::new();
    for poly in set.polys() {
        let Some(nest) = bound_nest(poly, &order) else {
            continue;
        };
        let mut point = vec![0i64; order.len()];
        rec_enum(&nest, poly, &order, params, 0, &mut point, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn rec_enum(
    nest: &BoundNest,
    poly: &Polyhedron,
    order: &[String],
    params: &dyn Fn(&str) -> Option<i64>,
    depth: usize,
    point: &mut Vec<i64>,
    out: &mut Vec<Vec<i64>>,
) {
    if depth == order.len() {
        // final membership check (projection can overapproximate for
        // non-unit coefficients)
        let env = make_env(order, point, params);
        if poly.contains_point(&env) == Some(true) {
            out.push(point.clone());
        }
        return;
    }
    let range = {
        let env = make_env(&order[..depth], &point[..depth], params);
        nest.levels[depth].range(&env)
    };
    let Some((lo, hi)) = range else { return };
    for v in lo..=hi {
        point[depth] = v;
        rec_enum(nest, poly, order, params, depth + 1, point, out);
    }
}

fn make_env<'a>(
    vars: &'a [String],
    vals: &'a [i64],
    params: &'a dyn Fn(&str) -> Option<i64>,
) -> impl Fn(&str) -> Option<i64> + 'a {
    move |v: &str| {
        if let Some(pos) = vars.iter().position(|s| s == v) {
            Some(vals[pos])
        } else {
            params(v)
        }
    }
}

/// The rectangular bounding box of a concrete set: per-dimension
/// `(min, max)`. `None` if empty or unbounded.
pub fn bounding_box(set: &Set, params: &dyn Fn(&str) -> Option<i64>) -> Option<Vec<(i64, i64)>> {
    let order: Vec<String> = set.space().to_vec();
    let mut boxes: Option<Vec<(i64, i64)>> = None;
    for poly in set.polys() {
        for (d, v) in order.iter().enumerate() {
            // eliminate every other tuple var, read bounds on v
            let p = poly.eliminate_all(order.iter().filter(|o| *o != v).map(|s| s.as_str()));
            if p.is_trivially_empty() {
                // this disjunct is empty; contributes nothing
                boxes = boxes.take();
                break;
            }
            let nest = bound_nest(&p, std::slice::from_ref(v))?;
            let (lo, hi) = nest.levels[0].range(&|s| params(s))?;
            if lo > hi {
                break;
            }
            let b = boxes.get_or_insert_with(|| vec![(i64::MAX, i64::MIN); order.len()]);
            b[d].0 = b[d].0.min(lo);
            b[d].1 = b[d].1.max(hi);
        }
    }
    let b = boxes?;
    if b.iter().any(|&(lo, hi)| lo > hi) {
        None
    } else {
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::var;

    fn no_params(_: &str) -> Option<i64> {
        None
    }

    #[test]
    fn div_helpers() {
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(6, 2), 3);
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
    }

    #[test]
    fn enumerate_rect() {
        let s = Set::rect(&["i", "j"], &[1, 1], &[2, 3]);
        let pts = enumerate(&s, &no_params);
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0], vec![1, 1]);
        assert_eq!(pts[5], vec![2, 3]);
    }

    #[test]
    fn enumerate_triangle() {
        // {[i,j] : 1 <= i <= 3, i <= j <= 3}
        let s = Set::from_constraints(
            &["i", "j"],
            [
                Constraint::ge(var("i"), crate::cst(1)),
                Constraint::le(var("i"), crate::cst(3)),
                Constraint::ge(var("j"), var("i")),
                Constraint::le(var("j"), crate::cst(3)),
            ],
        );
        let pts = enumerate(&s, &no_params);
        assert_eq!(
            pts,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![1, 3],
                vec![2, 2],
                vec![2, 3],
                vec![3, 3],
            ]
        );
    }

    #[test]
    fn enumerate_union_dedups() {
        let a = Set::rect(&["i"], &[1], &[4]);
        let b = Set::rect(&["i"], &[3], &[6]);
        let pts = enumerate(&a.union(&b), &no_params);
        assert_eq!(
            pts,
            vec![vec![1], vec![2], vec![3], vec![4], vec![5], vec![6]]
        );
    }

    #[test]
    fn enumerate_with_params() {
        let s = Set::from_constraints(
            &["i"],
            [
                Constraint::ge(var("i"), crate::cst(0)),
                Constraint::le(var("i"), var("N") - 1),
            ],
        );
        let params = |v: &str| if v == "N" { Some(4) } else { None };
        assert_eq!(enumerate(&s, &params).len(), 4);
    }

    #[test]
    fn enumerate_strided_via_existential() {
        // {[i] : exists a: i = 2a, 0 <= i <= 6} — model with explicit dim
        // then project: the projection is rational, so the final membership
        // re-check in rec_enum must filter odd points out. Here we instead
        // keep "a" in the space and check pairs.
        let s = Set::from_constraints(
            &["i", "a"],
            [
                Constraint::eq(var("i"), var("a") * 2),
                Constraint::ge(var("i"), crate::cst(0)),
                Constraint::le(var("i"), crate::cst(6)),
            ],
        );
        let pts = enumerate(&s, &no_params);
        let is_vals: Vec<i64> = pts.iter().map(|p| p[0]).collect();
        assert_eq!(is_vals, vec![0, 2, 4, 6]);
    }

    #[test]
    fn bound_nest_triangular() {
        let s = Set::from_constraints(
            &["i", "j"],
            [
                Constraint::ge(var("i"), crate::cst(1)),
                Constraint::le(var("i"), var("N")),
                Constraint::ge(var("j"), var("i") + 1),
                Constraint::le(var("j"), var("N")),
            ],
        );
        let nest = bound_nest(&s.polys()[0], &["i".into(), "j".into()]).unwrap();
        // at i=2, N=5: j in [3,5]
        let env = |v: &str| match v {
            "i" => Some(2),
            "N" => Some(5),
            _ => None,
        };
        assert_eq!(nest.levels[1].range(&env), Some((3, 5)));
        // outer level: i in [1, 4] (i <= j-1 <= N-1 via projection)
        let env0 = |v: &str| if v == "N" { Some(5) } else { None };
        let (lo, hi) = nest.levels[0].range(&env0).unwrap();
        assert_eq!(lo, 1);
        assert_eq!(hi, 4);
    }

    #[test]
    fn bound_nest_unbounded_returns_none() {
        let s = Set::from_constraints(&["i"], [Constraint::ge(var("i"), crate::cst(0))]);
        assert!(bound_nest(&s.polys()[0], &["i".into()]).is_none());
    }

    #[test]
    fn bounding_box_union() {
        let a = Set::rect(&["i", "j"], &[1, 5], &[2, 6]);
        let b = Set::rect(&["i", "j"], &[4, 0], &[4, 1]);
        let bb = bounding_box(&a.union(&b), &no_params).unwrap();
        assert_eq!(bb, vec![(1, 4), (0, 6)]);
    }

    #[test]
    fn cardinality_counts() {
        let s = Set::rect(&["i", "j", "k"], &[0, 0, 0], &[1, 1, 1]);
        assert_eq!(enumerate(&s, &no_params).len(), 8);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::{cst, var, Set};

    #[test]
    fn enumerate_empty_set() {
        let s = Set::from_constraints(
            &["i"],
            [
                Constraint::ge(var("i"), cst(5)),
                Constraint::le(var("i"), cst(3)),
            ],
        );
        assert!(enumerate(&s, &|_| None).is_empty());
    }

    #[test]
    fn enumerate_single_point() {
        let s = Set::from_constraints(
            &["i", "j"],
            [
                Constraint::eq(var("i"), cst(7)),
                Constraint::eq(var("j"), var("i") - 2),
            ],
        );
        assert_eq!(enumerate(&s, &|_| None), vec![vec![7, 5]]);
    }

    #[test]
    fn bounding_box_of_empty_is_none() {
        let s = Set::empty(&["i"]);
        assert!(bounding_box(&s, &|_| None).is_none());
    }

    #[test]
    fn negative_ranges_enumerate() {
        let s = Set::rect(&["i"], &[-3], &[-1]);
        assert_eq!(enumerate(&s, &|_| None), vec![vec![-3], vec![-2], vec![-1]]);
    }

    #[test]
    fn bound_nest_respects_equalities() {
        // i = j and 1 <= j <= 4: outer level pinned by the equality
        let s = Set::from_constraints(
            &["i", "j"],
            [
                Constraint::eq(var("i"), var("j")),
                Constraint::ge(var("j"), cst(1)),
                Constraint::le(var("j"), cst(4)),
            ],
        );
        let pts = enumerate(&s, &|_| None);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p[0] == p[1]));
    }
}
